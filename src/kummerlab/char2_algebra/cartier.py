"""The explicit Cartier operator on inseparable covers w^p = H(x, y).

For p = 2 the operator on 1-forms g*eta_0 (eta_0 = dx/H_y) is

    C(g eta_0) = (w * sqrt(g_xy) + sqrt((g H)_xy)) eta_0,

where J_xy is the odd-odd coefficient block of J (a square in k[x^2, y^2]).
`cartier_p2` never forms g H: a term of g meets only the terms of H whose
exponent parities complete its own to (1, 1), so it groups H's terms by
parity class once and multiplies each g term by one class, a quarter of
the term pairs, halving the exponent sums and taking square roots of the
coefficients in the same pass.  For general p it is the sum over a of
w^(p-1-a) times the p-th root of the (p-1, p-1)-block of g H^a;
`cartier_general` keeps the full products g H^a, since each is also the
factor of the next power, and so it stays an independent check of the
p = 2 route.  The module also provides the (p-1)-fold derivative identity
check, the filtration of a finite monomial span under the semilinear
preimage recursion, the bilinear convolution table f_ij driving that
recursion, and the gcd comparison behind the normalization of inseparable
double covers.
"""

from dataclasses import dataclass

from .. import KummerlabError
from .field import row_reduce
from .poly import FqPoly, poly_gcd_multivariate


class CartierError(KummerlabError):
    pass


def partials(f_poly):
    """Formal partial derivatives with respect to both variables."""
    if len(f_poly.vars) != 2:
        raise CartierError("partials expects a bivariate polynomial")
    x, y = f_poly.vars
    return f_poly.partial(x), f_poly.partial(y)


def pth_root_poly(f_poly):
    """g with g^p = f; requires all exponents divisible by p."""
    f = f_poly.field
    p = f.char
    out = {}
    for e, c in f_poly.terms.items():
        if any(k % p for k in e):
            raise CartierError("not a square" if p == 2 else "not a p-th power")
        out[tuple(k // p for k in e)] = f.proot(c)
    return FqPoly(f, f_poly.vars, out)


def sqrt_poly(f_poly):
    """Square root in characteristic 2 (alias of the p-th root)."""
    if f_poly.field.char != 2:
        raise CartierError("sqrt_poly requires characteristic 2")
    return pth_root_poly(f_poly)


def _block(j_poly, p):
    """J_{(p-1,p-1)}: terms with both exponents = p-1 mod p, shifted down.

    Equals the (p-1)-fold partial in each variable up to the unit
    ((p-1)!)^2 = 1 mod p; the result lies in k[x^p, y^p].
    """
    out = {}
    for e, c in j_poly.terms.items():
        if e[0] % p == p - 1 and e[1] % p == p - 1:
            out[(e[0] - (p - 1), e[1] - (p - 1))] = c
    return FqPoly(j_poly.field, j_poly.vars, out)


@dataclass
class FormElement:
    """(sum_k wcoeffs[k] * w^k) * eta_0 on the cover w^p = H."""

    wcoeffs: tuple

    @property
    def a(self):
        return self.wcoeffs[0]

    @property
    def b(self):
        return self.wcoeffs[1]

    def is_zero(self):
        return all(c.is_zero() for c in self.wcoeffs)

    def __eq__(self, other):
        return isinstance(other, FormElement) and self.wcoeffs == other.wcoeffs


def cartier_p2(g_poly, h_poly):
    """C(g eta_0) = (w sqrt(g_xy) + sqrt((gH)_xy)) eta_0 in characteristic 2.

    (gH)_xy is taken from the term pairs whose exponent parities add up to
    (1, 1), with sqrt(c1 c2) = sqrt(c1) sqrt(c2).
    """
    f = g_poly.field
    if f.char != 2:
        raise CartierError("cartier_p2 requires characteristic 2")
    g_poly._check(h_poly)
    proot = f.proot
    # H's terms by exponent parity, as (i, j, sqrt(c))
    classes = {(0, 0): [], (0, 1): [], (1, 0): [], (1, 1): []}
    for (i, j), c in h_poly.terms.items():
        classes[i & 1, j & 1].append((i, j, proot(c)))
    if not (classes[0, 1] or classes[1, 0] or classes[1, 1]):
        raise CartierError("eta_0 undefined: H lies in k[x^p, y^p]")
    add, mul, zero = f.add, f.mul, f.zero
    a_terms, b_terms = {}, {}
    get = a_terms.get
    for (i1, j1), c1 in g_poly.terms.items():
        r1 = proot(c1)
        if i1 & j1 & 1:
            b_terms[i1 >> 1, j1 >> 1] = r1
        # i1 + i2 and j1 + j2 are odd, so >> 1 is the shift by (1, 1) and
        # the halving together
        for i2, j2, r2 in classes[1 - (i1 & 1), 1 - (j1 & 1)]:
            e = ((i1 + i2) >> 1, (j1 + j2) >> 1)
            a_terms[e] = add(get(e, zero), mul(r1, r2))
    a = FqPoly._clean(f, g_poly.vars,
                      {e: c for e, c in a_terms.items() if c != zero})
    return FormElement((a, FqPoly._clean(f, g_poly.vars, b_terms)))


def cartier_general(g_poly, h_poly):
    """C(g eta_0) = sum_a w^(p-1-a) ((g H^a)_{(p-1,p-1)})^{1/p} eta_0."""
    p = g_poly.field.char
    g_poly._check(h_poly)
    if all(k % p == 0 for e in h_poly.terms for k in e):
        raise CartierError("eta_0 undefined: H lies in k[x^p, y^p]")
    coeffs = [None] * p
    gha = g_poly
    for a in range(p):
        coeffs[p - 1 - a] = pth_root_poly(_block(gha, p))
        if a < p - 1:
            gha = gha * h_poly
    return FormElement(tuple(coeffs))


def check_p1_derivative(f_poly):
    """Check (d/dt)^(p-1)(F_t F^a) = 0 for a <= p-2 and = -F_t^p for a = p-1."""
    p = f_poly.field.char
    if len(f_poly.vars) != 1:
        raise CartierError("univariate polynomial expected")
    t = f_poly.vars[0]
    ft = f_poly.partial(t)
    for a in range(p):
        expr = ft * f_poly.pow_int(a)
        for _ in range(p - 1):
            expr = expr.partial(t)
        if a <= p - 2:
            if not expr.is_zero():
                return False
        else:
            expect = -(ft.pow_int(p))
            if expr != expect:
                return False
    return True


# ---------------------------------------------------------------------------
# linear algebra over a field object (small dense systems)


def _reduce_against(vec, echelon, pivots, field):
    vec = list(vec)
    for row, c in zip(echelon, pivots):
        field.addmul_row(vec, 0, field.neg(vec[c]), row)
    return vec


def _nullspace(rows, ncols, field):
    """Basis of {c : sum_k c_k rows[k] = 0} (c has len(rows) entries)."""
    if not rows:
        return []
    # solve c * M = 0: reduce M^T augmented-style
    m = len(rows)
    cols = [[rows[k][j] for k in range(m)] for j in range(ncols)]  # ncols x m
    ech, pivots = row_reduce(cols, field)
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for j in free:
        c = [field.zero] * m
        c[j] = field.one
        for row, pc in zip(ech, pivots):
            c[pc] = field.neg(row[j])
        basis.append(c)
    return basis


# ---------------------------------------------------------------------------
# the Z-filtration of a finite monomial span


@dataclass
class AmbientSpan:
    monomials: tuple      # (i, j) exponent pairs spanning the polynomial part
    has_w: bool = True


def class4_ambient():
    return AmbientSpan(((0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1)), True)


def class2_ambient():
    return AmbientSpan(((1, 0), (0, 0), (0, 1), (0, 2), (0, 3), (0, 4)), True)


def z_filtration(h_poly, ambient, depth):
    """Bases of Z_0 >= Z_1 >= ... >= Z_depth inside the ambient span.

    Z_0 is the whole span (monomials plus the w-line); Z_1 is its
    polynomial part (the closed forms); for i >= 1,
    Z_{i+1} = {v in Z_i : C(v) in Z_i}.  The Cartier operator is
    semilinear, so the preimage condition is linearized by parametrizing
    v = sum c_k^2 b_k, on which C acts linearly in the c_k.

    Returns a list of (dimension, basis) pairs; basis vectors are lists of
    polynomial coefficients over the ambient monomials (the Z_0 entry also
    carries the w-line, accounted in its dimension).
    """
    f = h_poly.field
    if f.char != 2:
        raise CartierError("the filtration is implemented for characteristic 2")
    monos = list(ambient.monomials)
    idx = {m: i for i, m in enumerate(monos)}

    def poly_of(vec):
        return FqPoly(f, h_poly.vars,
                      {monos[i]: c for i, c in enumerate(vec) if c != f.zero})

    # image of a basis polynomial: returns (poly part coeffs over ALL seen
    # monomials, w-part poly)
    def image(vec):
        g = poly_of(vec)
        form = cartier_p2(g, h_poly)
        return form.a, form.b

    out = []
    dim0 = len(monos) + (1 if ambient.has_w else 0)
    basis = []
    for i in range(len(monos)):
        v = [f.zero] * len(monos)
        v[i] = f.one
        basis.append(v)
    out.append((dim0, [list(v) for v in basis]))
    if depth == 0:
        return out
    # Z_1: the polynomial part
    out.append((len(basis), [list(v) for v in basis]))
    current = basis
    for _level in range(2, depth + 1):
        if not current:
            out.append((0, []))
            continue
        images = []
        extra = []       # monomials outside the ambient hit by C
        for vec in current:
            a_poly, b_poly = image(vec)
            for e in a_poly.terms:
                if e not in idx and e not in extra:
                    extra.append(e)
            images.append((a_poly, b_poly))
        ext_idx = {e: len(monos) + k for k, e in enumerate(sorted(extra))}
        pad = [f.zero] * len(ext_idx)
        # target space: current basis embedded in the same width
        ech, pivots = row_reduce([vec + pad for vec in current], f)
        # the w-line is never inside Z_i for i >= 1, so each w-monomial of
        # an image is one more residual coordinate that must vanish
        wmonos = sorted({e for _a, b_poly in images for e in b_poly.terms})
        full_res = []
        for a_poly, b_poly in images:
            if not b_poly.is_zero() and not ambient.has_w:
                raise CartierError("span not Cartier-stable: w-component "
                                   "appears but the span has no w line")
            row = [f.zero] * (len(monos) + len(ext_idx))
            for e, c in a_poly.terms.items():
                row[idx[e] if e in idx else ext_idx[e]] = c
            res = _reduce_against(row, ech, pivots, f)
            full_res.append(res + [b_poly.terms.get(e, f.zero) for e in wmonos])
        null = _nullspace(full_res, len(full_res[0]) if full_res else 0, f)
        new_basis = []
        for c in null:
            v = [f.zero] * len(monos)
            for k, ck in enumerate(c):
                f.addmul_row(v, 0, f.mul(ck, ck), current[k])
            new_basis.append(v)
        current, _p = row_reduce(new_basis, f)
        out.append((len(current), [list(v) for v in current]))
    return out


def z_filtration_dims(h_poly, ambient, depth):
    return [d for d, _ in z_filtration(h_poly, ambient, depth)]


def f_ij_table(g_monomials, h_poly, targets):
    """The convolution table f_ij = sum h_{i1 j1} g_{i2 j2} over index splits.

    For each target pair (i, j) and each basis monomial (i2, j2), the entry
    is h_{2i+1-i2, 2j+1-j2}.  Squaring the (i, j) output coefficient of the
    Cartier image of sum g_{i2 j2} x^{i2} y^{j2} gives exactly
    sum_{(i2,j2)} entry * g_{i2 j2}.
    """
    table = {}
    for (i, j) in targets:
        row = {}
        for (i2, j2) in g_monomials:
            i1, j1 = 2 * i + 1 - i2, 2 * j + 1 - j2
            if i1 >= 0 and j1 >= 0:
                c = h_poly.coefficient((i1, j1))
                if c != h_poly.field.zero:
                    row[(i2, j2)] = c
        table[(i, j)] = row
    return table


# ---------------------------------------------------------------------------
# gcd comparison behind the normalization of inseparable covers


def divisorial_gcd_check(f_poly):
    """Compare gcd of odd-part coefficients with gcd of all partials.

    Writing f = sum_{eps in {0,1}^n} f_eps * x^eps with f_eps in the
    subring of p-th powers, returns (g, g', equal) where g is the gcd of
    the f_eps with eps != 0 and g' the gcd of the partial derivatives.
    """
    f = f_poly.field
    p = f.char
    if p != 2:
        raise CartierError("the gcd comparison is a characteristic-2 statement")
    n = len(f_poly.vars)
    parts = {}
    for e, c in f_poly.terms.items():
        eps = tuple(k % 2 for k in e)
        base = tuple(k - k % 2 for k in e)
        parts.setdefault(eps, {})[base] = c
    odd_polys = [FqPoly(f, f_poly.vars, terms)
                 for eps, terms in parts.items() if any(eps)]
    if not odd_polys:
        raise CartierError("all partial derivatives vanish")
    g = odd_polys[0]
    for q in odd_polys[1:]:
        g = poly_gcd_multivariate(g, q)
    partials_list = [f_poly.partial(v) for v in f_poly.vars]
    partials_list = [q for q in partials_list if not q.is_zero()]
    gp = partials_list[0]
    for q in partials_list[1:]:
        gp = poly_gcd_multivariate(gp, q)
    g = g.monic()
    gp = gp.monic()
    return g, gp, g == gp
