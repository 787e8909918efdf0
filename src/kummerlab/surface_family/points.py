"""Brute-force singular points of the families with exact local colengths.

Strategy: `closed_points` solves a zero-dimensional plane system
(g1, g2).  It eliminates one variable by an exact resultant, factors the
resultant over the base field, and hosts each Galois orbit of common
zeros in a quotient-ring tower.  Everything after the resultant runs in
the univariate ring `field.ring` of the field that hosts it: packed ints
over a byte-table field (characteristic 2, q <= 256), coefficient lists
elsewhere.  g1 and g2 are split once (`ring.split`) into their dense
lists in the eliminated variable, whose coefficients are ring elements
in the key variable.  At a monic irreducible factor fac of the resultant
the specialization is by reduction: a coefficient reduced mod fac is its
value at the root u of fac, the element of k = base[u]/(fac) that the
tower stores, so no power of the root is ever formed.  Over a byte-table
base `_at_root` takes that residue, a packed int, as the element at every
width, so the solver stays on packed ints from the resultant to the
point.  The gcd of the two specializations in k's ring holds the points
over that root; a monic gcd of degree 1 gives its point as -g_0
directly, and any other is factored (`factor.ring_factors`) and each
factor hosts one orbit.
`_colength_at` reads the colengths off the fibre identity behind Bezout
(Fulton, Algebraic Curves, ch. 5), Res_y(f, g) = lc_y(f)^deg g *
prod g(x, y_i): where lc_y(f) or lc_y(g) is nonzero at u, the multiplicity
M of u in the resultant is the sum of the colengths over u.  A generator
c free of y stands for Res(c, g) = +-c^n, n = deg_y g, so M is its
multiplicity times n.  A fibre of one orbit of r conjugate points gives
each the share M / r.  Elsewhere (two or more orbits over u, or both
leading coefficients zero at u) it runs Fulton's algorithm (3.3) on the
pair mapped to the point field and translated there by `FqPoly.shift`;
that uses only field addition and multiplication, so it runs unchanged
over towers.  A colength above COLENGTH_CAP counts as non-isolated.

`closed_points` has three readers.  `singular_points` solves the
partials (H_x, H_y) of a family member.
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

from ..char2_algebra.factor import factor_univariate, ring_factors
from ..char2_algebra.field import ExtField, _identity, row_reduce
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
# the closed-point solver


def _elim_data(spec):
    """(A, B, key variable, eliminated variable) for the partials system."""
    h_poly = spec.H()
    v1, v2 = spec.vars
    a = h_poly.partial(v1)
    b = h_poly.partial(v2)
    if spec.family == "class4":
        return a, b, v1, v2      # eliminate y, key by x
    return a, b, v2, v1          # eliminate x, key by t


def _adjoin_root(dense, field):
    """(field', embedding of field, root) for the coefficient list of a
    monic irreducible polynomial."""
    if len(dense) == 2:
        return field, _identity, field.neg(dense[0])
    ext = ExtField(field, dense)
    return ext, ext.embed, ext.u


def _at_root(coeffs, mod, k_field, base):
    """The polynomial with coefficient list `coeffs` (base-ring elements in
    the key variable) at the root u of the monic irreducible `mod`, in the
    ring of k_field = base[u]/(mod): a coefficient reduced mod `mod` is its
    value at u.  At width 1 that residue is a constant of the base's ring
    (`ring.constant`); wider it is the residue that `k_field.from_residue`
    takes to its element, over a byte-table base the packed int itself."""
    ring = base.ring
    element = ring.constant if ring.deg(mod) == 1 else k_field.from_residue
    return k_field.ring.pack([element(ring.rem(c, mod)) for c in coeffs])


def closed_points(g1, g2, key, elim):
    """Each Galois orbit of common zeros of (g1, g2) in the plane, once.

    Yields (point field, embedding of the base field, {variable: coordinate},
    residue degree, share), the share being the colength at each point of
    the orbit read off the resultant, or None.  Raises _NonIsolated when a
    generator or the resultant in `elim` vanishes, or when both
    specializations at a root of the resultant do (a common curve through
    that root).
    """
    if g1.is_zero() or g2.is_zero():
        raise _NonIsolated()
    d1, d2 = g1.degree(elim), g2.degree(elim)
    if d1 > 0 and d2 > 0:
        res, scale = poly_resultant(g1, g2, elim), 1
    else:                                  # Res(c, g) = +-c^(deg g)
        res, scale = (g1, d2) if d1 == 0 else (g2, d1)
    if res.is_zero():
        raise _NonIsolated()
    base = g1.field
    ring = base.ring
    splits = ring.split(g1, elim), ring.split(g2, elim)
    ki = res.vars.index(key)
    _unit, factors = factor_univariate(FqPoly._clean(
        base, (key,), {(e[ki],): c for e, c in res.terms.items()}))
    for fac, mult in factors:
        dense = fac.dense_univariate()
        width = len(dense) - 1
        k_field, embed1, xbar = _adjoin_root(dense, base)
        k_ring, mod = k_field.ring, ring.pack(dense)
        s1, s2 = (_at_root(c, mod, k_field, base) for c in splits)
        if not s1 and not s2:
            raise _NonIsolated()
        # both specializations drop degree: both leading coefficients vanish
        share = (None if k_ring.deg(s1) < d1 and k_ring.deg(s2) < d2
                 else mult * scale)
        g = k_ring.gcd(s1, s2)
        deg = k_ring.deg(g)
        if deg == 1:                       # monic: the point is -g_0
            ybar = k_field.neg(k_ring.key(g)[0])
            yield k_field, embed1, {key: xbar, elim: ybar}, width, share
        elif deg > 1:
            orbits = ring_factors(g, k_ring)
            if len(orbits) > 1:
                share = None
            for ydense, _m in orbits:
                pt_field, embed2, ybar = _adjoin_root(ydense, k_field)
                if pt_field is k_field:
                    emb = embed1
                else:
                    emb = lambda c, e1=embed1, e2=embed2: e2(e1(c))
                r = len(ydense) - 1
                yield pt_field, emb, {key: embed2(xbar), elim: ybar}, \
                    width * r, None if share is None else share // r


def _colength_at(g1, g2, field, embed, point, share):
    """Local colength of (g1, g2) at a common zero hosted in `field`: the
    share that `closed_points` read off the resultant, else Fulton's
    algorithm on the pair translated to the point."""
    if share is None:
        if field is not g1.field:
            g1, g2 = (g.map_field(field, embed) for g in (g1, g2))
        return local_colength([g.shift(point) for g in (g1, g2)], field)
    if share > COLENGTH_CAP:
        raise _NonIsolated()
    return share


def singular_points(spec):
    """All singular points of the affine family chart, one record per orbit.

    Raises SurfaceError("non-isolated singular locus") when the partials
    share a factor or a colength exceeds COLENGTH_CAP.
    """
    a_poly, b_poly, key, elim = _elim_data(spec)
    v1, v2 = spec.vars
    out = []
    try:
        for pt_field, emb, point, deg, share in closed_points(a_poly, b_poly,
                                                              key, elim):
            colength = _colength_at(a_poly, b_poly, pt_field, emb, point, share)
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
