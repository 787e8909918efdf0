import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from kummerlab.char2_algebra import (
    CLASS2_AMBIENT,
    CLASS4_AMBIENT,
    CartierError,
    ExtField,
    FqPoly,
    cartier_general,
    cartier_p2,
    check_p1_derivative,
    divisorial_gcd_check,
    f_ij_table,
    get_field,
    partials,
    pth_root_poly,
    row_reduce,
    z_filtration,
    z_filtration_dims,
)
from kummerlab.char2_algebra.cartier import _block

V4 = ("x", "y")
V2 = ("x", "t")

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def class4_H(field, h30, h21, h12, h03, h11, extra=None):
    terms = {(4, 1): field.one, (1, 4): field.one, (3, 0): h30,
             (2, 1): h21, (1, 2): h12, (0, 3): h03, (1, 1): h11}
    if extra:
        terms.update(extra)
    return FqPoly(field, V4, {e: c for e, c in terms.items() if c != field.zero})


def class2_H(field, h11, h12, h03, h05, extra=None):
    terms = {(3, 0): field.one, (0, 9): field.one, (1, 1): h11,
             (1, 2): h12, (0, 3): h03, (0, 5): h05}
    if extra:
        terms.update(extra)
    return FqPoly(field, V2, {e: c for e, c in terms.items() if c != field.zero})


def rand_class4(field, rng, extra=None):
    return class4_H(field, *(field.rand(rng) for _ in range(5)), extra=extra)


def rand_class2(field, rng, extra=None):
    return class2_H(field, *(field.rand(rng) for _ in range(4)), extra=extra)


def test_partials_examples():
    f = get_field(2, 2)
    p = FqPoly(f, V4, {(4, 1): f.one})
    px, py = partials(p)
    assert px.is_zero()                      # 4 = 0 in characteristic 2
    assert py == FqPoly(f, V4, {(4, 0): f.one})
    rng = random.Random(3)
    h = rand_class4(f, rng)
    hx, hy = partials(h)
    # term-by-term differentiation of the family polynomial
    expect_hx = FqPoly(f, V4, {(0, 4): f.one, (2, 0): h.coefficient((3, 0)),
                               (0, 2): h.coefficient((1, 2)),
                               (0, 1): h.coefficient((1, 1))})
    expect_hy = FqPoly(f, V4, {(4, 0): f.one, (2, 0): h.coefficient((2, 1)),
                               (0, 2): h.coefficient((0, 3)),
                               (1, 0): h.coefficient((1, 1))})
    assert hx == expect_hx
    assert hy == expect_hy


def test_sqrt_poly():
    f = get_field(2, 3)
    x = FqPoly.variable(f, V4, "x")
    y = FqPoly.variable(f, V4, "y")
    assert pth_root_poly(x * x) == x
    c = 5
    p = (x * (y * y)).scale(f.mul(c, c))
    assert pth_root_poly(p * p) == p
    with pytest.raises(CartierError):
        pth_root_poly(x.pow_int(3))


def test_cartier_eta0_eigenvalue():
    # C(eta_0) = sqrt(h11) eta_0: vanishes exactly when h11 = 0
    f = get_field(2, 4)
    rng = random.Random(5)
    for _ in range(20):
        h11 = f.rand(rng)
        h = class4_H(f, f.rand(rng), f.rand(rng), f.rand(rng), f.rand(rng), h11)
        form = cartier_p2(FqPoly.const(f, V4, f.one), h)
        assert form.b.is_zero()
        assert form.a == FqPoly.const(f, V4, f.proot(h11))
        assert form.is_zero() == (h11 == f.zero)


@pytest.mark.parametrize("make", [rand_class4, rand_class2])
def test_cartier_axioms(make):
    rng = random.Random(7)
    fails = 0
    for e in (2, 3, 4):
        f = get_field(2, e)
        for _ in range(120):
            h = make(f, rng)
            fv = FqPoly(f, h.vars, {(rng.randrange(5), rng.randrange(5)):
                                    f.rand(rng) for _ in range(4)})
            h1, h2 = partials(h)
            f1, f2 = partials(fv)
            df = f1 * h2 + f2 * h1
            if not cartier_p2(df, h).is_zero():
                fails += 1
            form = cartier_p2(fv * df, h)
            if not (form.b.is_zero() and form.a == df):
                fails += 1
    assert fails == 0


def test_cartier_additive_semilinear():
    f = get_field(2, 4)
    rng = random.Random(9)
    for _ in range(100):
        h = rand_class4(f, rng)
        a = FqPoly(f, V4, {(rng.randrange(3), rng.randrange(3)): f.rand(rng)})
        b = FqPoly(f, V4, {(rng.randrange(3), rng.randrange(3)): f.rand(rng)})
        left = cartier_p2(a + b, h)
        ra, rb = cartier_p2(a, h), cartier_p2(b, h)
        assert left.a == ra.a + rb.a and left.b == ra.b + rb.b
        c = f.rand(rng)
        scaled = cartier_p2(a.scale(f.mul(c, c)), h)
        assert scaled.a == ra.a.scale(c) and scaled.b == ra.b.scale(c)


@st.composite
def cartier_triples(draw):
    """(f, g, H) over F_2^e, F_3 or F_5: f is nonzero, g has a nonzero
    (p-1, p-1) term, and H a term of y-degree 1, so eta_0 is defined."""
    field = get_field(*draw(st.sampled_from([(2, 1), (2, 2), (2, 4), (3, 1), (5, 1)])))
    coef = st.integers(1, field.order - 1)

    def poly(dmax, extra):
        expo = st.tuples(st.integers(0, dmax), st.integers(0, dmax))
        terms = draw(st.dictionaries(expo, coef, max_size=3))
        terms[extra] = draw(coef)
        return FqPoly(field, V4, terms)

    p = field.char
    return (poly(2, (draw(st.integers(0, 2)), draw(st.integers(0, 2)))),
            poly(2 * p, (p - 1, p - 1)),
            poly(p, (draw(st.integers(0, p)), 1)))


@PROPERTY
@given(cartier_triples())
def test_cartier_semilinear_over_polynomials(triple):
    """C(f^p g eta_0) = f C(g eta_0) for a polynomial f."""
    f_poly, g_poly, h = triple
    p = f_poly.field.char

    def cartier(g):
        return cartier_p2(g, h) if p == 2 else cartier_general(g, h)

    left = cartier(f_poly.pow_int(p) * g_poly)
    assert left.wcoeffs == tuple(f_poly * c for c in cartier(g_poly).wcoeffs)


def test_cartier_general_specializes():
    f = get_field(2, 3)
    rng = random.Random(11)
    for _ in range(100):
        h = rand_class4(f, rng)
        g = FqPoly(f, V4, {(rng.randrange(4), rng.randrange(4)): f.rand(rng)
                           for _ in range(3)})
        assert cartier_general(g, h).wcoeffs == cartier_p2(g, h).wcoeffs


def test_cartier_p3():
    f = get_field(3, 2)
    rng = random.Random(13)
    h = FqPoly(f, V4, {(2, 2): f.one})
    # g = 1: the (2,2)-block of g H^1 = x^2 y^2 is 1, carried on the w term
    form = cartier_general(FqPoly.const(f, V4, f.one), h)
    assert form.wcoeffs[1] == FqPoly.const(f, V4, f.one)
    assert form.wcoeffs[0].is_zero() and form.wcoeffs[2].is_zero()
    for _ in range(60):
        h = FqPoly(f, V4, {(2, 2): f.one, (1, 0): f.rand(rng),
                           (0, 1): f.rand(rng), (2, 1): f.rand(rng)})
        fv = FqPoly(f, V4, {(rng.randrange(3), rng.randrange(3)): f.rand(rng)
                            for _ in range(3)})
        f1, f2 = partials(fv)
        h1, h2 = partials(h)
        df = f1 * h2 - f2 * h1
        assert cartier_general(df, h).is_zero()
        form = cartier_general(fv * fv * df, h)
        assert form.wcoeffs[0] == df
        assert form.wcoeffs[1].is_zero() and form.wcoeffs[2].is_zero()


def test_cartier_rejects_pth_power_H():
    f = get_field(2, 2)
    h = FqPoly(f, V4, {(2, 0): f.one, (0, 4): f.one})
    with pytest.raises(CartierError):
        cartier_general(FqPoly.const(f, V4, f.one), h)
    # H = x^2 + y^4 has H_y = 0, so eta_0 = dx/H_y is undefined for the
    # p = 2 route too, however many terms g has
    for g in (FqPoly.const(f, V4, f.one), FqPoly(f, V4, {(1, 1): f.one, (0, 1): 2})):
        with pytest.raises(CartierError, match="eta_0 undefined"):
            cartier_p2(g, h)


@st.composite
def block_pairs(draw):
    """(g, H) over F_2, F_4, F_16, F_256 or a quadratic tower over F_4: g
    may be zero, and H has a term outside k[x^2, y^2]."""
    name = draw(st.sampled_from([(2, 1), (2, 2), (2, 4), (2, 8), "tower"]))
    if name == "tower":
        # u^2 + u + 2 has no root in F_4, so the quotient is F_16
        field = ExtField(get_field(2, 2), [2, 1, 1])
        # an element is its residue packed a coefficient per byte
        coef = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
            lambda c: int.from_bytes(bytes(c), "little")).filter(lambda c: c != field.zero)
    else:
        field = get_field(*name)
        coef = st.integers(1, field.order - 1)
    expo = st.tuples(st.integers(0, 5), st.integers(0, 5))
    g = FqPoly(field, V4, draw(st.dictionaries(expo, coef, max_size=6)))
    h_terms = draw(st.dictionaries(expo, coef, max_size=6))
    odd = draw(expo.filter(lambda e: e[0] % 2 or e[1] % 2))
    h_terms[odd] = draw(coef)
    return g, FqPoly(field, V4, h_terms)


@PROPERTY
@given(block_pairs())
def test_cartier_p2_is_the_block_of_the_full_product(pair):
    """Reference: sqrt of the odd-odd block of the whole product g H, and
    of g.  Kills a cartier_p2 that drops a parity class of H, or pairs a
    g term with the wrong class."""
    g, h = pair
    form = cartier_p2(g, h)
    assert form.a == pth_root_poly(_block(g * h, 2))
    assert form.b == pth_root_poly(_block(g, 2))
    for part in (form.a, form.b):
        assert part == FqPoly(part.field, part.vars, part.terms)   # clean terms


def test_p1_derivative():
    rng = random.Random(15)
    f8 = get_field(2, 3)
    t = FqPoly.variable(f8, ("t",), "t")
    # F = t, p = 2: d/dt(F_t F) = 1 = -F_t^2
    assert check_p1_derivative(t)
    for _ in range(100):
        poly = FqPoly(f8, ("t",), {(rng.randrange(7),): f8.rand(rng)
                                   for _ in range(4)})
        assert check_p1_derivative(poly)
    f9 = get_field(3, 2)
    for _ in range(100):
        poly = FqPoly(f9, ("t",), {(rng.randrange(5),): f9.rand(rng)
                                   for _ in range(4)})
        assert check_p1_derivative(poly)
    f5 = get_field(5, 1)
    for _ in range(100):
        poly = FqPoly(f5, ("t",), {(rng.randrange(5),): f5.rand(rng)
                                   for _ in range(3)})
        assert check_p1_derivative(poly)


def test_z_filtration_family_dims():
    rng = random.Random(17)
    for e in (4, 5):
        f = get_field(2, e)
        for _ in range(20):
            dims = z_filtration_dims(rand_class4(f, rng), CLASS4_AMBIENT, 5)
            assert dims == [7, 6, 5, 5, 5, 5]
            dims = z_filtration_dims(rand_class2(f, rng), CLASS2_AMBIENT, 5)
            assert dims == [7, 6, 5, 5, 5, 5]


def test_z_filtration_adversarial():
    rng = random.Random(19)
    f = get_field(2, 5)
    for e_extra in ((3, 1), (3, 2), (1, 3), (2, 3)):
        h = rand_class4(f, rng, extra={e_extra: f.rand_nonzero(rng)})
        dims = z_filtration_dims(h, CLASS4_AMBIENT, 3)
        assert dims[:3] == [7, 6, 5] and dims[3] < 5
    for e_extra in ((1, 3), (1, 5), (1, 6), (0, 7)):
        h = rand_class2(f, rng, extra={e_extra: f.rand_nonzero(rng)})
        dims = z_filtration_dims(h, CLASS2_AMBIENT, 3)
        assert dims[3] < 5


def test_z_filtration_basis_consistency():
    # level-2 basis of the class-4 family drops exactly the xy monomial
    f = get_field(2, 4)
    rng = random.Random(21)
    h = rand_class4(f, rng)
    levels = z_filtration(h, CLASS4_AMBIENT, 2)
    dim2, basis2 = levels[2]
    assert dim2 == 5
    xy = CLASS4_AMBIENT.index((1, 1))
    assert all(vec[xy] == f.zero for vec in basis2)


@pytest.mark.parametrize("adversarial", [False, True])
@pytest.mark.parametrize("family", ["class4", "class2"])
def test_z_filtration_brute_force(family, adversarial):
    """Every level up to 4 over F_4 against the filtration by enumeration:
    Z_1 is every coefficient vector over the ambient monomials, and Z_{i+1}
    keeps the v in Z_i whose image has no w-part and a polynomial part
    that is itself a vector of Z_i."""
    f = get_field(2, 2)
    rng = random.Random(29)
    if family == "class4":
        make, ambient, extra = rand_class4, CLASS4_AMBIENT, (3, 1)
    else:
        make, ambient, extra = rand_class2, CLASS2_AMBIENT, (1, 3)
    h = make(f, rng, extra={extra: f.rand_nonzero(rng)} if adversarial else None)
    level = set(itertools.product(f.elements(), repeat=len(ambient)))
    image = {}
    for vec in level:
        form = cartier_p2(FqPoly(f, h.vars, dict(zip(ambient, vec))), h)
        if form.b.is_zero() and set(form.a.terms) <= set(ambient):
            image[vec] = tuple(form.a.coefficient(e) for e in ambient)
    levels = z_filtration(h, ambient, 4)
    dims = [dim for dim, _ in levels]
    assert dims[3] < 5 if adversarial else dims == [7, 6, 5, 5, 5]
    assert levels[0] == (len(ambient) + 1, row_reduce(sorted(level), f)[0])
    for dim, basis in levels[1:]:
        assert len(level) == f.order ** dim
        assert basis == row_reduce(sorted(level), f)[0]
        level = {v for v in level if image.get(v) in level}


def test_f_ij_table():
    f = get_field(2, 4)
    rng = random.Random(25)
    i1 = CLASS4_AMBIENT
    i2 = tuple(m for m in i1 if m != (1, 1))
    h = rand_class4(f, rng, extra={(3, 1): f.rand(rng), (1, 3): f.rand(rng),
                                   (3, 2): f.rand(rng), (2, 3): f.rand(rng)})
    # delta case: g = 1 picks out h_{2i+1, 2j+1}
    table = f_ij_table([(0, 0)], h, i1)
    for (i, j) in i1:
        assert table[(i, j)].get((0, 0), f.zero) == h.coefficient((2 * i + 1,
                                                                   2 * j + 1))
    # the f_11 row lists (h31, h32, h13, h23) against the level-2 monomials
    table = f_ij_table(i2, h, ((1, 1),))
    row = table[(1, 1)]
    assert row.get((0, 2), f.zero) == h.coefficient((3, 1))
    assert row.get((0, 1), f.zero) == h.coefficient((3, 2))
    assert row.get((2, 0), f.zero) == h.coefficient((1, 3))
    assert row.get((1, 0), f.zero) == h.coefficient((2, 3))
    # cross-check against the Cartier image coefficients
    for _ in range(30):
        g = FqPoly(f, V4, {e: f.rand(rng) for e in i2})
        img = cartier_p2(g, h)
        for (i, j) in i2:
            coeff = img.a.coefficient((i, j))
            expect = f.zero
            for e2, hval in f_ij_table(i2, h, ((i, j),))[(i, j)].items():
                expect = f.add(expect, f.mul(hval, g.coefficient(e2)))
            assert f.mul(coeff, coeff) == expect


def test_divisorial_gcd_examples():
    f4 = get_field(2, 2)
    xy = ("x", "y")
    g, gp, eq = divisorial_gcd_check(FqPoly(f4, xy, {(1, 0): f4.one}))   # x
    assert eq and g.degree() == 0
    # x^3 + x^2 y: the odd parts x^2 * x, x^2 * y and both partials share x^2
    g, gp, eq = divisorial_gcd_check(FqPoly(f4, xy, {(3, 0): f4.one, (2, 1): f4.one}))
    assert eq
    assert g == gp == FqPoly(f4, xy, {(2, 0): f4.one})
    with pytest.raises(CartierError):
        divisorial_gcd_check(FqPoly(f4, xy, {(2, 0): f4.one}))


@pytest.mark.parametrize("variables", [("x",), ("t", "x", "y")])
def test_divisorial_gcd_takes_two_variables(variables):
    f4 = get_field(2, 2)
    x = FqPoly.variable(f4, variables, "x")
    with pytest.raises(CartierError, match="two variables"):
        divisorial_gcd_check(x * x * x + x)


def test_divisorial_gcd_sweep():
    f4 = get_field(2, 2)
    rng = random.Random(27)
    checked = 0
    while checked < 100:
        terms = {(rng.randrange(5), rng.randrange(5)): f4.rand(rng)
                 for _ in range(6)}
        poly = FqPoly(f4, ("x", "y"), terms)
        if poly.is_zero() or all(e[0] % 2 == 0 and e[1] % 2 == 0
                                 for e in poly.terms):
            continue
        _g, _gp, eq = divisorial_gcd_check(poly)
        assert eq
        checked += 1
