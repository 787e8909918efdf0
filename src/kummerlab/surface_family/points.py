"""Brute-force singular points of the families with exact local colengths.

Strategy: `closed_points` solves a zero-dimensional plane system
(g1, g2).  It eliminates one variable by an exact resultant, factors the
resultant over the base field, specializes the system at each factor's
root, factors the gcd of the specializations, and hosts each Galois orbit
of common zeros in a quotient-ring tower.  The specializations, their
gcd and the factorizations live in the univariate ring of the field that
hosts them (`field.ring`): packed ints over a byte-table field
(characteristic 2, q <= 256), coefficient lists elsewhere.  `_colength_at`
then gives the local colength there: 1 at transverse points
(nonvanishing Jacobian, from the four partials that `_jacobian` takes
once per system over the base field), otherwise the intersection
multiplicity of the two curves at the point, by Fulton's algorithm
(Fulton, Algebraic Curves, 3.3) on the pair mapped to the point field
and translated there by `FqPoly.shift`, a Taylor shift.  That recursion
uses only field addition and multiplication, so it runs unchanged over
base fields and towers; a colength above COLENGTH_CAP counts as
non-isolated.  `closed_points` has three readers.  `singular_points`
solves the partials (H_x, H_y) of a family member.
`derivations._system_order` sums deg * colength over the fixed-locus
generators of the covering derivation; that sum is read in two places:
`surface derivation-check` prints it for non-additive generators (h07 != 0
in class 2), and `verify.campaign_subgroup` cross-checks the additive
order with it.  `derivations.classify_derivations` looks for a point of
residue degree 1 among the fixed points of a coprime pair, for condition
(iv).  `derivations.fixed_locus_subgroup_check` never calls it: additive
generators get their order from `derivations.additive_order`, which has
no cap, and non-additive ones get none.
"""

from dataclasses import dataclass

from ..char2_algebra.factor import factor_univariate
from ..char2_algebra.field import ExtField, row_reduce
from ..char2_algebra.poly import FqPoly
from ..char2_algebra.poly import resultant as poly_resultant
from .spec import BRANCH_PROFILES, SurfaceError, classify_by_coefficients

# largest local colength taken as isolated; Bezout bounds every colength
# the families and their derivations can reach by 4 * 4 = 2 * 8 = 16
COLENGTH_CAP = 24


@dataclass
class PointRecord:
    field: object          # field hosting the coordinates
    x: object
    y: object              # second coordinate (t for class 2)
    residue_degree: int    # orbit size over the spec's base field
    colength: int          # plane colength of (H_x, H_y) at each point
    embed: object          # map base-field elements into .field

    @property
    def is_rational(self):
        return self.residue_degree == 1


@dataclass
class SingularityReport:
    spec: object
    branch: str
    points: list
    total_colength: int
    isolated: bool

    def to_json(self):
        enc_base = getattr(self.spec.field, "encode", str)
        pts = []
        for r in sorted(self.points, key=lambda r: (r.residue_degree, r.colength)):
            rec = {"degree": r.residue_degree, "colength": r.colength}
            if r.is_rational:
                rec["point"] = [enc_base(r.x), enc_base(r.y)]
            pts.append(rec)
        return {
            "spec": self.spec.to_json(),
            "branch": self.branch,
            "points": pts,
            "affine_colength_total": self.total_colength,
            "double_cover_tyurina_total": 2 * self.total_colength,
            "isolated": self.isolated,
        }


class _NonIsolated(Exception):
    pass


# ---------------------------------------------------------------------------
# local colength by Fulton's intersection-multiplicity algorithm


def matrix_rank(rows, field):
    return len(row_reduce(rows, field)[1])


def _on_x_axis(terms):
    """Exponents of x in the terms of F(x, 0)."""
    return [a for a, b in terms if b == 0]


def local_colength(polys, field):
    """dim of field[[x,y]]/(F, G) at the origin, by Fulton's algorithm.

    Each step keeps the local ideal or splits off a known amount: G = y*H
    adds ord_x F(x, 0) and continues with (F, H); otherwise the pair with
    the larger deg G(x, 0) is reduced by a multiple of x^k F.  Raises
    _NonIsolated on a common factor y or once the total passes the cap.
    """
    f_poly, g_poly = polys
    total = 0
    while True:
        if f_poly.coefficient((0, 0)) != field.zero or \
                g_poly.coefficient((0, 0)) != field.zero:
            return total
        fx, gx = _on_x_axis(f_poly.terms), _on_x_axis(g_poly.terms)
        if not fx and not gx:
            raise _NonIsolated()
        if not fx or not gx:
            if not fx:
                f_poly, g_poly, fx = g_poly, f_poly, gx
            total += min(fx)
            if total > COLENGTH_CAP:
                raise _NonIsolated()
            # every term of G has b >= 1, so G / y has clean terms
            g_poly = FqPoly._clean(field, g_poly.vars,
                                   {(a, b - 1): c for (a, b), c in g_poly.terms.items()})
            continue
        r, s = max(fx), max(gx)
        if r > s:
            f_poly, g_poly, r, s = g_poly, f_poly, s, r
        lead_f, lead_g = f_poly.coefficient((r, 0)), g_poly.coefficient((s, 0))
        shifted = FqPoly._clean(field, f_poly.vars,
                                {(a + s - r, b): c for (a, b), c in f_poly.terms.items()})
        g_poly = g_poly.scale(lead_f) - shifted.scale(lead_g)


# ---------------------------------------------------------------------------
# specialization helpers


def _specialize(poly, key_name, value, K, embed):
    """poly(key=value) in the other variable, in K's univariate ring."""
    other = [v for v in poly.vars if v != key_name][0]
    ki = poly.vars.index(key_name)
    oi = poly.vars.index(other)
    deg = poly.degree(other)
    out = [K.zero] * (deg + 1)
    powers = {0: K.one}
    maxk = max((e[ki] for e in poly.terms), default=0)
    for k in range(1, maxk + 1):
        powers[k] = K.mul(powers[k - 1], value)
    for e, c in poly.terms.items():
        term = K.mul(embed(c), powers[e[ki]])
        out[e[oi]] = K.add(out[e[oi]], term)
    return K.ring.pack(out)


def _elim_data(spec):
    """(A, B, key variable, eliminated variable) for the partials system."""
    h_poly = spec.H()
    v1, v2 = spec.vars
    a = h_poly.partial(v1)
    b = h_poly.partial(v2)
    if spec.family == "class4":
        return a, b, v1, v2      # eliminate y, key by x
    return a, b, v2, v1          # eliminate x, key by t


def _identity(c):
    return c


def _adjoin_root(fac, field):
    """(field', embedding of field, root) for a monic irreducible factor."""
    dense = fac.dense_univariate()
    if len(dense) == 2:
        root = field.neg(field.mul(dense[0], field.inv(dense[1])))
        return field, _identity, root
    ext = ExtField(field, dense)
    root = tuple([field.zero, field.one] + [field.zero] * (len(dense) - 3))
    return ext, ext.embed, root


def closed_points(g1, g2, key, elim):
    """Each Galois orbit of common zeros of (g1, g2) in the plane, once.

    Yields (point field, embedding of the base field, {variable: coordinate},
    residue degree).  Raises _NonIsolated when a generator or the resultant
    in `elim` vanishes, or when both specializations at a root of the
    resultant do (a common curve through that root).
    """
    if g1.is_zero() or g2.is_zero():
        raise _NonIsolated()
    if g1.degree(elim) > 0 and g2.degree(elim) > 0:
        res = poly_resultant(g1, g2, elim)
    else:
        res = g1 if g1.degree(elim) == 0 else g2
    if res.is_zero():
        raise _NonIsolated()
    _unit, factors = factor_univariate(res.restrict_vars((key,)))
    for fac, _mult in factors:
        k_field, embed1, xbar = _adjoin_root(fac, g1.field)
        s1 = _specialize(g1, key, xbar, k_field, embed1)
        s2 = _specialize(g2, key, xbar, k_field, embed1)
        if not s1 and not s2:
            raise _NonIsolated()
        ring = k_field.ring
        g = ring.gcd(s1, s2)
        if ring.deg(g) < 1:
            continue
        _u, yfactors = factor_univariate(FqPoly.from_dense(k_field, elim,
                                                           ring.key(g)))
        for yfac, _m in yfactors:
            pt_field, embed2, ybar = _adjoin_root(yfac, k_field)
            if pt_field is k_field:
                emb = embed1
            else:
                emb = lambda c, e1=embed1, e2=embed2: e2(e1(c))
            yield pt_field, emb, {key: embed2(xbar), elim: ybar}, \
                fac.degree() * yfac.degree()


def _jacobian(g1, g2):
    """The partials (g1_v1, g1_v2, g2_v1, g2_v2) over the base field, for
    `_colength_at` at every closed point of the system."""
    v1, v2 = g1.vars
    return g1.partial(v1), g1.partial(v2), g2.partial(v1), g2.partial(v2)


def _colength_at(g1, g2, jac, field, embed, point):
    """Local colength of (g1, g2) at a common zero hosted in `field`; jac is
    `_jacobian(g1, g2)`."""
    a1, a2, b1, b2 = (d.map_field(field, embed).evaluate(point) for d in jac)
    # transversality shortcut: the Jacobian determinant at the point
    if field.sub(field.mul(a1, b2), field.mul(a2, b1)) != field.zero:
        return 1
    return local_colength([g.map_field(field, embed).shift(point)
                           for g in (g1, g2)], field)


def singular_points(spec):
    """All singular points of the affine family chart, one record per orbit.

    Raises SurfaceError("non-isolated singular locus") when the partials
    share a factor or a colength exceeds COLENGTH_CAP.
    """
    a_poly, b_poly, key, elim = _elim_data(spec)
    jac = _jacobian(a_poly, b_poly)
    v1, v2 = spec.vars
    out = []
    try:
        for pt_field, emb, point, deg in closed_points(a_poly, b_poly, key, elim):
            colength = _colength_at(a_poly, b_poly, jac, pt_field, emb, point)
            out.append(PointRecord(pt_field, point[v1], point[v2], deg,
                                   colength, emb))
    except _NonIsolated:
        raise SurfaceError("non-isolated singular locus") from None
    out.sort(key=lambda r: (r.residue_degree, r.colength))
    return out


def classify_full(spec):
    """Coefficient branch cross-validated against brute-force enumeration."""
    branch = classify_by_coefficients(spec)
    points = singular_points(spec)
    n_geom = sum(r.residue_degree for r in points)
    total = sum(r.residue_degree * r.colength for r in points)
    expect_n, expect_c = BRANCH_PROFILES[branch]
    profile_ok = (n_geom == expect_n
                  and all(r.colength == expect_c for r in points)
                  and total == 16)
    if not profile_ok:
        raise SurfaceError(
            f"internal consistency error: branch {branch} expects "
            f"{expect_n} points of colength {expect_c}, enumeration found "
            f"{[(r.residue_degree, r.colength) for r in points]}")
    return SingularityReport(spec, branch, points, total, True)
