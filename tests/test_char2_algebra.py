import random

import pytest
from hypothesis import given, settings, strategies as st

from kummerlab.char2_algebra import (
    BaseField,
    ExtField,
    FieldError,
    FieldSpec,
    FqPoly,
    PolyError,
    factor_univariate,
    get_field,
    poly_gcd_multivariate,
    poly_roots,
    resultant,
)
from kummerlab.char2_algebra.poly import dense_gcd, poly_divexact

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 3), (2, 8), (3, 2), (5, 2)])
def test_field_axioms(p, e):
    f = get_field(p, e)
    rng = random.Random(13)
    for _ in range(200):
        a, b, c = f.rand(rng), f.rand(rng), f.rand(rng)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == f.zero
        if a != f.zero:
            assert f.mul(a, f.inv(a)) == f.one
        assert f.proot(f.pow_elem(a, p)) == a
        assert f.pow_elem(f.add(a, b), p) == f.add(f.pow_elem(a, p),
                                                   f.pow_elem(b, p))


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        BaseField(FieldSpec(2, 4, (1, 0, 0, 0, 1)))   # (x+1)^4
    with pytest.raises(FieldError):
        BaseField(FieldSpec(2, 2, (0, 1, 1)))         # x^2+x = x(x+1)


def test_encode_decode_round_trip():
    f = get_field(2, 5)
    for a in f.elements():
        assert f.decode(f.encode(a)) == a
    with pytest.raises(FieldError):
        f.decode("21")
    f3 = get_field(3, 2)
    for a in f3.elements():
        assert f3.decode(f3.encode(a)) == a


def test_tower_field():
    f = get_field(2, 4)
    c = next(c for c in f.elements()
             if all(f.add(f.mul(a, a), a) != c for a in f.elements()))
    ext = ExtField(f, [c, f.one, f.one])   # u^2 + u + c irreducible
    rng = random.Random(17)
    for _ in range(300):
        a, b = ext.rand(rng), ext.rand(rng)
        assert ext.mul(a, b) == ext.mul(b, a)
        if a != ext.zero:
            assert ext.mul(a, ext.inv(a)) == ext.one
        assert ext.proot(ext.mul(a, a)) == a
    # embedding is a ring homomorphism
    for _ in range(50):
        a, b = f.rand(rng), f.rand(rng)
        assert ext.embed(f.mul(a, b)) == ext.mul(ext.embed(a), ext.embed(b))


def _rand_poly(field, rng, variables=("x", "y"), nterms=5, dmax=4):
    return FqPoly(field, variables,
                  {tuple(rng.randrange(dmax + 1) for _ in variables):
                   field.rand(rng) for _ in range(nterms)})


def test_poly_ring_axioms():
    f = get_field(2, 3)
    rng = random.Random(19)
    for _ in range(150):
        a, b, c = (_rand_poly(f, rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b).partial("x") == a.partial("x") * b + a * b.partial("x")
    zero = FqPoly.zero(f, ("x", "y"))
    assert (zero * _rand_poly(f, rng)).is_zero()


def test_partial_drops_even_exponents():
    f = get_field(2, 2)
    p = FqPoly(f, ("x", "y"), {(4, 1): f.one})
    assert p.partial("x").is_zero()
    assert p.partial("y") == FqPoly(f, ("x", "y"), {(4, 0): f.one})
    const = FqPoly.const(f, ("x", "y"), f.one)
    assert const.partial("y").is_zero()


def test_factor_round_trip():
    rng = random.Random(23)
    for trial in range(80):
        f = get_field(2, rng.choice([1, 2, 3, 4]))
        target = FqPoly.const(f, ("t",), f.one)
        for _ in range(rng.randrange(1, 4)):
            d = rng.randrange(1, 4)
            coeffs = [f.rand(rng) for _ in range(d)] + [f.one]
            factor = FqPoly.from_dense(f, "t", coeffs)
            for _ in range(rng.randrange(1, 3)):
                target = target * factor
        unit, factors = factor_univariate(target, seed=trial)
        prod = FqPoly.const(f, ("t",), unit)
        for irr, mult in factors:
            prod = prod * irr.pow_int(mult)
        assert prod == target


def test_factor_known_cases():
    f2 = get_field(2, 1)
    _, factors = factor_univariate(FqPoly.from_dense(f2, "x", [0, 1, 1]))
    assert sorted(str(p) for p, _ in factors) == ["x", "x + 1"]
    f = get_field(2, 4)
    c = 7
    _, factors = factor_univariate(FqPoly.from_dense(f, "x", [c, 0, 1]))
    assert len(factors) == 1 and factors[0][1] == 2
    root = factors[0][0]
    assert f.mul(f.proot(c), f.one) == f.neg(root.coefficient((0,)))


def test_factor_odd_characteristic():
    f = get_field(3, 2)
    rng = random.Random(29)
    for trial in range(30):
        coeffs = [f.rand(rng) for _ in range(4)] + [f.one]
        poly = FqPoly.from_dense(f, "t", coeffs)
        unit, factors = factor_univariate(poly, seed=trial)
        prod = FqPoly.const(f, ("t",), unit)
        for irr, mult in factors:
            prod = prod * irr.pow_int(mult)
        assert prod == poly


@st.composite
def univariate_products(draw):
    """(unit * prod of monic polynomials, its field) over F_2^e or F_3^2."""
    f = get_field(*draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 2)])))
    coef = st.integers(0, f.order - 1)
    target = FqPoly.const(f, ("t",), draw(st.integers(1, f.order - 1)))
    for _ in range(draw(st.integers(0, 3))):
        low = draw(st.lists(coef, min_size=1, max_size=3))
        factor = FqPoly.from_dense(f, "t", low + [f.one])
        target = target * factor.pow_int(draw(st.integers(1, 3)))
    return target


@PROPERTY
@given(univariate_products())
def test_factor_multiplies_back(target):
    f = target.field
    unit, factors = factor_univariate(target)
    prod = FqPoly.const(f, ("t",), unit)
    for irr, mult in factors:
        assert irr.degree() > 0 and irr.monic() == irr and mult > 0
        prod = prod * irr.pow_int(mult)
    assert prod == target
    assert len({irr for irr, _m in factors}) == len(factors)


@st.composite
def bivariate_pairs(draw):
    """Two polynomials of positive y-degree, often with a common factor."""
    f = get_field(*draw(st.sampled_from([(2, 1), (2, 2), (3, 1)])))
    coef = st.integers(1, f.order - 1)
    expo = st.tuples(st.integers(0, 2), st.integers(0, 2))

    def poly(min_y):
        terms = draw(st.dictionaries(expo, coef, max_size=3))
        terms[(draw(st.integers(0, 2)), draw(st.integers(min_y, 2)))] = f.one
        return FqPoly(f, ("x", "y"), terms)

    a, b = poly(1), poly(1)
    if draw(st.booleans()):
        common = poly(0)
        a, b = a * common, b * common
    return a, b


@PROPERTY
@given(bivariate_pairs())
def test_resultant_zero_iff_common_y_factor(pair):
    a, b = pair
    vanishes = resultant(a, b, "y").is_zero()
    assert vanishes == (poly_gcd_multivariate(a, b).degree("y") > 0)


def test_poly_roots():
    f = get_field(2, 3)
    # (t - a)(t - b)^2 recovers roots with multiplicity
    a, b = 3, 5
    t = FqPoly.variable(f, ("t",), "t")
    poly = (t + FqPoly.const(f, ("t",), a)) * \
        (t + FqPoly.const(f, ("t",), b)).pow_int(2)
    got = sorted(poly_roots(poly))
    assert got == sorted([(a, 1), (b, 2)])


def test_resultant_detects_common_roots():
    f = get_field(2, 4)
    rng = random.Random(31)
    x = FqPoly.variable(f, ("x", "y"), "x")
    y = FqPoly.variable(f, ("x", "y"), "y")
    for _ in range(30):
        a = f.rand(rng)
        fpoly = y * y + x.pow_int(3) + FqPoly.const(f, ("x", "y"), a)
        gpoly = y + x.pow_int(2)
        r = resultant(fpoly, gpoly, "y")
        # specializing x to any root of r gives a genuine common y-solution
        runi = r.restrict_vars(("x",))
        for root, _mult in poly_roots(runi):
            yval = f.mul(root, root)
            assert fpoly.evaluate({"x": root, "y": yval}) == f.zero


def test_multivariate_gcd_and_exact_division():
    f = get_field(2, 2)
    rng = random.Random(37)
    for _ in range(60):
        a, b, g = (_rand_poly(f, rng, nterms=3, dmax=2) for _ in range(3))
        if g.is_zero():
            continue
        gg = poly_gcd_multivariate(a * g, b * g)
        if (a * g).is_zero() or (b * g).is_zero():
            continue
        # gcd contains g up to the gcd of a, b
        q = poly_divexact(a * g, poly_gcd_multivariate(gg, g.monic()))
        assert not q.is_zero() or (a * g).is_zero()
    with pytest.raises(PolyError):
        poly_divexact(_rand_poly(f, rng), FqPoly.zero(f, ("x", "y")))


def test_dense_gcd_monic():
    f = get_field(2, 3)
    a = [f.one, f.one]          # x + 1
    b = [f.zero, f.one]         # x
    prod_a = [f.one, f.add(f.one, f.zero), f.zero]
    del prod_a
    g = dense_gcd(a, b, f)
    assert g == [f.one]
