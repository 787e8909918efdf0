"""Brute-force singular points of the families with exact local colengths.

Strategy: `closed_points` solves a zero-dimensional plane system
(g1, g2).  It eliminates one variable by an exact resultant, factors the
resultant over the base field, specializes the system at each factor's
root, factors the gcd of the specializations, and hosts each Galois orbit
of common zeros in a quotient-ring tower.  `_colength_at` then gives the
local colength there: 1 at transverse points (nonvanishing Jacobian),
otherwise truncated-degree linear algebra in the local ring, with an
(N, N+1) stabilization check and a hard cap.  Two callers share it:
`singular_points` solves the partials (H_x, H_y) of a family member, and
`derivations._system_order` sums deg * colength over the fixed-locus
generators of the covering derivation.

Rank computations over base fields use numpy int tables (characteristic 2
addition is XOR); towers fall back to `row_reduce`.
"""

from dataclasses import dataclass

import numpy as np

from ..char2_algebra.factor import factor_univariate
from ..char2_algebra.field import BaseField, ExtField, row_reduce
from ..char2_algebra.poly import FqPoly, dense_gcd, dense_trim
from ..char2_algebra.poly import resultant as poly_resultant
from .spec import BRANCH_PROFILES, SurfaceError, classify_by_coefficients

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
# rank over GF(2^e) with numpy tables


_NP_CACHE = {}


def _np_tables(field):
    key = field.spec
    if key not in _NP_CACHE:
        q = field.order
        exp = np.array(field._exp + field._exp, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        for v in range(1, q):
            log[v] = field._log[v]
        _NP_CACHE[key] = (exp, log, q)
    return _NP_CACHE[key]


def gf2e_rank(rows, field):
    """Rank of a matrix over F_{2^e} given as lists of int-coded entries."""
    if not rows:
        return 0
    exp, log, q = _np_tables(field)
    m = np.array(rows, dtype=np.int64)
    nrows, ncols = m.shape
    rank = 0
    for col in range(ncols):
        piv = None
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        # normalize pivot row
        pv = int(m[rank, col])
        if pv != 1:
            inv_log = (q - 1 - log[pv]) % (q - 1)
            row = m[rank]
            nzr = row != 0
            row[nzr] = exp[log[row[nzr]] + inv_log]
        # eliminate below and above
        colvals = m[:, col].copy()
        colvals[rank] = 0
        tgt = np.nonzero(colvals)[0]
        if tgt.size:
            piv_row = m[rank]
            pnz = piv_row != 0
            logs_piv = log[piv_row[pnz]]
            for i in tgt:
                fval = int(m[i, col])
                add = np.zeros(ncols, dtype=np.int64)
                add[pnz] = exp[logs_piv + log[fval]]
                m[i] ^= add
        rank += 1
        if rank == nrows:
            break
    return rank


def matrix_rank(rows, field):
    if isinstance(field, BaseField) and field.char == 2:
        return gf2e_rank(rows, field)
    return len(row_reduce(rows, field)[1])


# ---------------------------------------------------------------------------
# local colength by truncated-degree linear algebra


def _truncated_dim(polys, field, n_cut):
    monos = [(i, j) for d in range(n_cut) for i in range(d + 1)
             for j in [d - i]]
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for poly in polys:
        if poly.is_zero():
            continue
        base_terms = list(poly.terms.items())
        for d in range(n_cut):
            for i in range(d + 1):
                j = d - i
                row = [field.zero] * len(monos)
                nonzero = False
                for (a, b), c in base_terms:
                    e = (a + i, b + j)
                    if a + i + b + j < n_cut:
                        k = index[e]
                        row[k] = field.add(row[k], c)
                        nonzero = True
                if nonzero:
                    rows.append(row)
    rank = matrix_rank(rows, field)
    return len(monos) - rank


def local_colength(polys, field, cap=COLENGTH_CAP):
    """dim of field[[x,y]]/(polys) for an ideal supported at the origin.

    Computes truncations at increasing degree until two consecutive values
    agree; raises _NonIsolated past the cap.
    """
    for poly in polys:
        if poly.coefficient((0, 0)) != field.zero:
            return 0
    prev = None
    for n_cut in range(2, cap + 2):
        cur = _truncated_dim(polys, field, n_cut)
        if prev is not None and cur == prev:
            return cur
        prev = cur
    raise _NonIsolated()


# ---------------------------------------------------------------------------
# specialization helpers


def _specialize(poly, key_name, value, K, embed):
    """Dense coefficients of poly(key=value) in the other variable, over K."""
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
    return dense_trim(out, K)


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
        g = dense_gcd(s1, s2, k_field) if s1 and s2 else s1 or s2
        if len(g) <= 1:
            continue
        _u, yfactors = factor_univariate(FqPoly.from_dense(k_field, elim, g))
        for yfac, _m in yfactors:
            pt_field, embed2, ybar = _adjoin_root(yfac, k_field)
            if pt_field is k_field:
                emb = embed1
            else:
                emb = lambda c, e1=embed1, e2=embed2: e2(e1(c))
            yield pt_field, emb, {key: embed2(xbar), elim: ybar}, \
                fac.degree() * yfac.degree()


def _colength_at(g1, g2, field, embed, point, cap=COLENGTH_CAP):
    """Local colength of (g1, g2) at a common zero hosted in `field`."""
    a, b = g1.map_field(field, embed), g2.map_field(field, embed)
    v1, v2 = a.vars
    # transversality shortcut: the Jacobian matrix of (a, b)
    jac = field.sub(
        field.mul(a.partial(v1).evaluate(point), b.partial(v2).evaluate(point)),
        field.mul(a.partial(v2).evaluate(point), b.partial(v1).evaluate(point)))
    if jac != field.zero:
        return 1
    return local_colength([a.shift(point), b.shift(point)], field, cap)


def singular_points(spec, cap=COLENGTH_CAP):
    """All singular points of the affine family chart, one record per orbit.

    Raises SurfaceError("non-isolated singular locus") when the partials
    share a factor or a colength exceeds the cap.
    """
    a_poly, b_poly, key, elim = _elim_data(spec)
    v1, v2 = spec.vars
    out = []
    try:
        for pt_field, emb, point, deg in closed_points(a_poly, b_poly, key, elim):
            colength = _colength_at(a_poly, b_poly, pt_field, emb, point, cap)
            out.append(PointRecord(pt_field, point[v1], point[v2], deg,
                                   colength, emb))
    except _NonIsolated:
        raise SurfaceError("non-isolated singular locus") from None
    out.sort(key=lambda r: (r.residue_degree, r.colength))
    return out


def classify_full(spec, cap=COLENGTH_CAP):
    """Coefficient branch cross-validated against brute-force enumeration."""
    branch = classify_by_coefficients(spec)
    points = singular_points(spec, cap)
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
