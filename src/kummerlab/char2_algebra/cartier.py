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
check, the filtration Z_0 >= Z_1 >= ... of a finite monomial span under the
semilinear preimage recursion (each level one kernel over the images of the
current basis stacked on that basis), the bilinear convolution table f_ij
driving that recursion, and the gcd comparison behind the normalization of
inseparable double covers.
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
# the Z-filtration of a finite monomial span

# the (i, j) exponents spanning the polynomial part of Z_0 for each family
CLASS4_AMBIENT = ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1))
CLASS2_AMBIENT = ((1, 0), (0, 0), (0, 1), (0, 2), (0, 3), (0, 4))


def _kernel(rows, field):
    """Basis of {c : sum_k c_k rows[k] = 0}, each row a {column: entry} dict."""
    columns = dict.fromkeys(key for row in rows for key in row)
    ech, pivots = row_reduce([[row.get(key, field.zero) for row in rows]
                              for key in columns], field)
    basis = []
    for j in range(len(rows)):
        if j not in pivots:
            c = [field.zero] * len(rows)
            c[j] = field.one
            for row, pc in zip(ech, pivots):
                c[pc] = field.neg(row[j])
            basis.append(c)
    return basis


def z_filtration(h_poly, ambient, depth):
    """Bases of Z_0 >= Z_1 >= ... >= Z_depth inside the span of `ambient`.

    Z_0 is the span of the ambient monomials plus the w-line; Z_1 is its
    polynomial part (the closed forms); for i >= 1,
    Z_{i+1} = {v in Z_i : C(v) in Z_i}.  Each level is one kernel: with
    b_1 .. b_k the basis of Z_i, a vector (c, d) with
    sum_k c_k C(b_k) + sum_j d_j b_j = 0 has its w-part zero (every
    w-monomial is a column of its own, as the w-line is outside Z_i) and
    its polynomial part in Z_i.  C is semilinear, so v = sum_k c_k^2 b_k
    then lies in Z_{i+1}, and the reduced echelon form of these v is the
    basis of Z_{i+1}.

    Returns a list of (dimension, basis) pairs; basis vectors are lists of
    polynomial coefficients over the ambient monomials (the Z_0 entry also
    carries the w-line, counted in its dimension).
    """
    f = h_poly.field
    if f.char != 2:
        raise CartierError("the filtration is implemented for characteristic 2")
    n = len(ambient)
    current = [[f.one if j == i else f.zero for j in range(n)] for i in range(n)]
    out = [(n + 1, current)]
    if depth:
        out.append((n, current))
    for _level in range(2, depth + 1):
        polys = [{e: c for e, c in zip(ambient, vec) if c != f.zero}
                 for vec in current]
        rows = []
        for terms in polys:
            form = cartier_p2(FqPoly._clean(f, h_poly.vars, terms), h_poly)
            rows.append({**form.a.terms,
                         **{("w", e): c for e, c in form.b.terms.items()}})
        rows += polys
        new = []
        for c in _kernel(rows, f):
            v = [f.zero] * n
            # zip stops at len(current): the d part of (c, d) is not needed
            for ck, vec in zip(c, current):
                f.addmul_row(v, 0, f.mul(ck, ck), vec)
            new.append(v)
        current, _p = row_reduce(new, f)
        out.append((len(current), current))
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

    Writing f in k[x, y] as the sum of f_eps * x^e1 * y^e2 over
    eps = (e1, e2) in {0,1}^2, with f_eps in the subring of squares,
    returns (g, g', equal) where g is the gcd of the f_eps with eps != 0
    and g' the gcd of the partial derivatives.
    """
    f = f_poly.field
    if f.char != 2:
        raise CartierError("the gcd comparison is a characteristic-2 statement")
    if len(f_poly.vars) != 2:
        raise CartierError("the gcd comparison takes a polynomial in two variables")
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
