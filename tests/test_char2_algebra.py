import functools
import itertools
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
from kummerlab.char2_algebra.factor import (_squarefree, _trace_trial,
                                            distinct_degree, equal_degree_split,
                                            frobenius_rows, ring_factors)
from kummerlab.char2_algebra.field import _MODULI
from kummerlab.char2_algebra.poly import _ListRing, _subresultant_prs, power

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
    ext = _quadratic_tower(f)
    assert ext.degree == 8
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


def _schoolbook_mul(a, b, add, mul, zero):
    """Reference: product of coefficient lists, every pair multiplied."""
    if not a or not b:
        return []
    res = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            res[i + j] = add(res[i + j], mul(ai, bj))
    return res


def _schoolbook_mulmod(a, b, mod, add, sub, mul, zero):
    """Reference: product of coefficient lists, reduced by the monic mod."""
    d = len(mod) - 1
    res = _schoolbook_mul(a, b, add, mul, zero)
    for k in range(len(res) - 1, d - 1, -1):
        c, res[k] = res[k], zero
        for j in range(d):
            res[k - d + j] = sub(res[k - d + j], mul(c, mod[j]))
    return res[:d]


BUILTIN_FIELDS = [(p, e) for p, moduli in sorted(_MODULI.items())
                  for e in sorted(moduli)]


@pytest.mark.parametrize("p,e", BUILTIN_FIELDS)
def test_base_field_mul_is_the_product_mod_the_modulus(p, e):
    f = get_field(p, e)
    mod = FieldSpec.standard(p, e).modulus

    def digits(a):
        return [a // p ** i % p for i in range(e)]

    def reference(a, b):
        prod = _schoolbook_mulmod(digits(a), digits(b), mod,
                                  lambda x, y: (x + y) % p,
                                  lambda x, y: (x - y) % p,
                                  lambda x, y: x * y % p, 0)
        return sum(c * p ** i for i, c in enumerate(prod))

    if f.order <= 32:
        pairs = [(a, b) for a in f.elements() for b in f.elements()]
    else:
        rng = random.Random(p ** e)
        pairs = [(f.rand(rng), f.rand(rng)) for _ in range(300)]
    for a, b in pairs:
        assert f.mul(a, b) == reference(a, b)


def coords(ext, a):
    """The coefficient tuple of a tower element: the bytes of its packed
    residue over a byte-table base, the element itself otherwise."""
    if ext.base.byte_tables is None:
        return a
    return tuple(a.to_bytes(ext.rel_degree, "little"))


def element(ext, cs):
    """The tower element with coefficient tuple cs (inverse of `coords`)."""
    if ext.base.byte_tables is None:
        return tuple(cs)
    return int.from_bytes(bytes(cs), "little")


def _reference_ops(field):
    """(add, sub, mul, zero) of a field, towers by schoolbook over the base
    on coefficient tuples."""
    if isinstance(field, BaseField):
        return field.add, field.sub, field.mul, field.zero
    add, sub, mul, zero = _reference_ops(field.base)

    def on_coords(op):
        return lambda a, b: element(field, op(coords(field, a), coords(field, b)))

    def tower_mul(a, b):
        return tuple(_schoolbook_mulmod(a, b, field.modulus, add, sub, mul, zero))

    return (on_coords(lambda a, b: tuple(add(x, y) for x, y in zip(a, b))),
            on_coords(lambda a, b: tuple(sub(x, y) for x, y in zip(a, b))),
            on_coords(tower_mul), element(field, (zero,) * field.rel_degree))


@pytest.mark.parametrize("p,e", [(2, 4), (2, 9)])
def test_tower_over_tower_mul_and_pow(p, e):
    f = get_field(p, e)
    # u^2 + u + c over F_q, then the first v^3 + v + d over that which
    # Rabin's test finds irreducible.  Over F_16 the inner tower is packed
    # and the outer one on tuples; over F_2^9 both are on tuples
    inner = _quadratic_tower(f)
    ring = inner.ring
    d = next(d for d in (element(inner, (x, y)) for x in f.elements()
                         for y in f.elements())
             if _is_irreducible(ring.pack([d, inner.one, inner.zero, inner.one]), ring))
    outer = ExtField(inner, [d, inner.one, inner.zero, inner.one])
    rng = random.Random(29)
    _add, _sub, ref_mul, _zero = _reference_ops(outer)
    for _ in range(40):
        a, b = outer.rand_nonzero(rng), outer.rand(rng)
        assert outer.mul(a, b) == ref_mul(a, b)
        powers = [outer.one]
        for _ in range(17):
            powers.append(ref_mul(powers[-1], a))
        for n in (0, 1, 2, 17):
            assert outer.pow_elem(a, n) == powers[n]
        assert ref_mul(outer.pow_elem(a, -3), powers[3]) == outer.one


def test_power_rejects_a_negative_exponent():
    # n >>= 1 keeps -1 at -1, so the square-and-multiply loop never ends
    with pytest.raises(ValueError, match="n >= 0"):
        power(3, -1, lambda a, b: a * b, 1)
    assert power(3, 0, lambda a, b: a * b, 1) == 1


def _quadratic_tower(f):
    """F_q[u]/(u^2 + u + c) for a c that is no value of a^2 + a (p = 2)."""
    values = {f.add(f.mul(a, a), a) for a in f.elements()}
    return ExtField(f, [next(c for c in f.elements() if c not in values),
                        f.one, f.one])


# F_2^1..F_2^8 run the byte-table kernels, F_2^9 and F_2^13 the log-table
# row operation, F_3^2, F_5^2 and the tower their own add and mul
ROW_FIELDS = ["F_2^1", "F_2^4", "F_2^5", "F_2^8", "F_2^9", "F_2^13", "F_3^2",
              "F_5^2", "F_2^4[u]/deg2"]


@functools.lru_cache(maxsize=None)
def _row_field(name):
    """The field of a ROW_FIELDS name, built on first use."""
    p, e = (int(x) for x in name[2:].split("[")[0].split("^"))
    return _quadratic_tower(get_field(p, e)) if "[" in name else get_field(p, e)


_QUAD = _row_field("F_2^4[u]/deg2")


def _elements(field):
    """Field elements with zero drawn about as often as all others."""
    if isinstance(field, BaseField):
        nonzero = st.integers(1, field.order - 1)
    else:
        nonzero = st.tuples(*[_elements(field.base)] * field.rel_degree).map(
            lambda cs: element(field, cs)).filter(lambda a: a != field.zero)
    return st.one_of(st.just(field.zero), nonzero)


def _trim(a, zero):
    a = list(a)
    while a and a[-1] == zero:
        a.pop()
    return a


@st.composite
def row_cases(draw):
    """(field name, dst, off, c, src) with len(dst) >= off + len(src)."""
    name = draw(st.sampled_from(ROW_FIELDS))
    elem = _elements(_row_field(name))
    src = draw(st.lists(elem, max_size=8))
    off = draw(st.integers(0, 3))
    dst = draw(st.lists(elem, min_size=off + len(src), max_size=off + len(src) + 2))
    return name, dst, off, draw(elem), src


@settings(PROPERTY, max_examples=150)
@given(row_cases())
@example(("F_2^8", [3, 0, 7], 0, 0, [5, 9, 1]))                    # c = 0
@example(("F_2^13", [1, 2, 3, 4, 5], 2, 4095, [8191 - 1, 0, 17]))  # off > 0
@example(("F_3^2", [0, 1, 2, 3], 1, 5, [0, 8, 0]))                 # zeros in src
@example(("F_2^4[u]/deg2", [element(_QUAD, c) for c in [(1, 0), (0, 0), (2, 3)]], 1,
          element(_QUAD, (0, 1)), [element(_QUAD, c) for c in [(0, 0), (5, 7)]]))
def test_addmul_row_is_the_elementwise_add_multiply(case):
    name, dst, off, c, src = case
    field = _row_field(name)
    add, _sub, mul, _zero = _reference_ops(field)
    expect = list(dst)
    for j, s in enumerate(src):
        expect[off + j] = add(expect[off + j], mul(c, s))
    got = list(dst)
    assert field.addmul_row(got, off, c, src) is None
    assert got == expect


@st.composite
def dense_cases(draw):
    """(field name, a, b, monic modulus): b has a nonzero coefficient, a
    and b may end in zeros, and lengths reach 40, so a packed polynomial
    is wider than 256 bits."""
    name = draw(st.sampled_from(ROW_FIELDS))
    field = _row_field(name)
    elem = _elements(field)

    def coeffs(max_len):
        n = draw(st.integers(0, max_len))
        return draw(st.lists(elem, min_size=n, max_size=n))

    zeros = st.integers(0, 2).map(lambda k: [field.zero] * k)
    b = coeffs(12) + [draw(elem.filter(lambda x: x != field.zero))] + draw(zeros)
    a = coeffs(40) + draw(zeros)
    mod = draw(st.lists(elem, min_size=1, max_size=40)) + [field.one]
    return name, a, b, mod


@settings(PROPERTY, max_examples=150)
@given(dense_cases())
@example(("F_3^2", [1, 2, 3, 4, 0, 7], [1, 5], [2, 0, 1]))
@example(("F_5^2", [0, 0, 24, 3, 11], [6, 0, 13], [1, 1, 0, 1]))
@example(("F_2^8", list(range(215, 255)), [7, 0, 0, 255, 0], [3, 0, 9, 1]))
@example(("F_2^8", [0, 0, 1, 255] * 10, list(range(1, 13)), [5] * 39 + [1]))
@example(("F_2^9", list(range(470, 510)) + [0, 0], [1, 0, 511], [511] * 5 + [1]))
@example(("F_2^1", [1, 0, 1] * 13 + [0], [1, 1, 0], [1, 0, 1, 1]))
def test_dense_kernels_match_the_schoolbook(case):
    name, a, b, mod = case
    field = _row_field(name)
    ring = _ListRing(field)
    add, sub, mul, zero = _reference_ops(field)
    assert ring.mul(a, b) == _schoolbook_mul(a, b, add, mul, zero)
    assert ring.mulmod(a, b, mod) == _trim(
        _schoolbook_mulmod(a, b, mod, add, sub, mul, zero), zero)
    # one object passed twice
    assert ring.mulmod(a, a, mod) == _trim(
        _schoolbook_mulmod(a, a, mod, add, sub, mul, zero), zero)
    # q, r are the unique pair with a = q b + r and deg r < deg b; q is
    # sized by the untrimmed a
    q, r = ring.divmod(a, b)
    b_len = len(_trim(b, zero))
    assert len(q) == max(len(a) - b_len + 1, 0)
    assert len(r) < b_len and _trim(r, zero) == r
    qb = _schoolbook_mul(q, b, add, mul, zero)
    total = [zero] * max(len(qb), len(r))
    for i, x in enumerate(qb):
        total[i] = add(total[i], x)
    for i, x in enumerate(r):
        total[i] = add(total[i], x)
    assert _trim(total, zero) == _trim(a, zero)


@pytest.mark.parametrize("e", range(1, 9))
def test_byte_tables_are_the_field_products(e):
    f = get_field(2, e)
    mul, square = f.byte_tables
    assert len(mul) == f.order and all(len(t) == 256 for t in mul + (square,))
    for c in f.elements():
        assert [mul[c][s] for s in f.elements()] == [f.mul(c, s) for s in f.elements()]
    assert [square[a] for a in f.elements()] == [f.mul(a, a) for a in f.elements()]


@pytest.mark.parametrize("name", ["F_2^9", "F_2^13", "F_3^2", "F_2^4[u]/deg2"])
def test_byte_tables_only_on_small_char2_base_fields(name):
    assert _row_field(name).byte_tables is None


def _shift_by_substitution(poly, offsets):
    """Reference translation x_i -> x_i + c_i: substitute the polynomial
    x_i + c_i for each variable, powers by repeated products."""
    f = poly.field
    for name, c in offsets.items():
        if c != f.zero:
            repl = (FqPoly.variable(f, poly.vars, name)
                    + FqPoly.const(f, poly.vars, c))
            poly = poly.substitute(name, repl)
    return poly


@st.composite
def shift_cases(draw):
    """A polynomial in k[x, y] and offsets for a subset of its variables."""
    field = _row_field(draw(st.sampled_from(["F_2^4", "F_2^4[u]/deg2", "F_3^2"])))
    elem = _elements(field)
    expo = st.tuples(st.integers(0, 6), st.integers(0, 6))
    terms = draw(st.dictionaries(expo, elem, max_size=8))
    names = draw(st.lists(st.sampled_from(["x", "y"]), unique=True))
    return FqPoly(field, ("x", "y"), terms), {n: draw(elem) for n in names}


@PROPERTY
@given(shift_cases())
def test_taylor_shift_is_the_translation(case):
    poly, offsets = case
    f = poly.field
    got = poly.shift(offsets)
    assert got == _shift_by_substitution(poly, offsets)
    assert got == FqPoly(f, got.vars, got.terms)      # clean terms
    assert got.shift({n: f.neg(c) for n, c in offsets.items()}) == poly


@st.composite
def poly_pairs(draw):
    """Two polynomials in k[x, y] built through the public constructor from
    a variable list and terms with zero coefficients, and a scalar."""
    f = get_field(*draw(st.sampled_from([(2, 1), (2, 4), (3, 2)])))
    coef = st.integers(0, f.order - 1)
    expo = st.lists(st.integers(0, 3), min_size=2, max_size=2)

    def poly():
        terms = {tuple(e): c for e, c in draw(st.lists(st.tuples(expo, coef),
                                                        max_size=5))}
        return FqPoly(f, ["x", "y"], terms)

    return poly(), poly(), draw(coef)


@PROPERTY
@given(poly_pairs())
def test_internal_constructor_equals_the_public_one(case):
    a, b, c = case
    f = a.field
    # a field embedding: into a quadratic tower in characteristic 2
    ext = _quadratic_tower(f) if f.char == 2 else f
    embed = ext.embed if f.char == 2 else (lambda x: x)
    dense = list(a.terms.values()) + [f.zero, c]       # zeros inside and on top
    built = [a + b, a - b, -a, a * b, a.scale(c), a.partial("x"), a.partial("y"),
             a.map_field(ext, embed), FqPoly.from_dense(f, "x", dense)]
    for ring in (f.ring, _ListRing(f)):
        for var in V2:
            coeffs = ring.split(a, var)
            built += [ring.join(coeffs, V2, var), ring.join(coeffs[:1], V2, var)]
    for got in built:
        public = FqPoly(got.field, got.vars, got.terms)
        assert got == public and hash(got) == hash(public)
        assert isinstance(got.vars, tuple)
        assert all(type(x) is int for e in got.terms for x in e)
        assert got.field.zero not in got.terms.values()


def _dense_product(a, b):
    """Reference: the product of dense coefficient arrays, every pair of
    positions multiplied (zeros too) with the field's reference ops."""
    add, _sub, mul, zero = _reference_ops(a.field)

    def dense(poly):
        degs = [max((e[i] for e in poly.terms), default=0) for i in range(len(poly.vars))]
        return [(e, poly.terms.get(e, zero))
                for e in itertools.product(*(range(d + 1) for d in degs))]

    out = {}
    for e1, c1 in dense(a):
        for e2, c2 in dense(b):
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = add(out.get(e, zero), mul(c1, c2))
    return {e: c for e, c in out.items() if c != zero}


# F_2, F_4 and F_2^8 have byte tables, F_3, F_9 and F_5 their own add and
# mul, and the tower tuple elements
SPARSE_MUL_FIELDS = ["F_2^1", "F_2^2", "F_2^8", "F_3^1", "F_3^2", "F_5^1", "F_2^4[u]/deg2"]


@st.composite
def sparse_products(draw):
    """Two polynomials in 1 to 3 variables over one field; an operand may
    be zero or a single term."""
    field = _row_field(draw(st.sampled_from(SPARSE_MUL_FIELDS)))
    variables = ("x", "y", "z")[:draw(st.integers(1, 3))]
    expo = st.tuples(*[st.integers(0, 3)] * len(variables))

    def poly():
        size = draw(st.sampled_from([0, 1, 3, 6]))
        return FqPoly(field, variables,
                      draw(st.dictionaries(expo, _elements(field), max_size=size)))

    return poly(), poly()


_F2 = get_field(2, 1)
_X_PLUS_Y = FqPoly(_F2, ("x", "y"), {(1, 0): 1, (0, 1): 1})


@settings(PROPERTY, max_examples=120)
@given(sparse_products())
@example((_X_PLUS_Y, _X_PLUS_Y))                        # 2xy cancels
@example((_X_PLUS_Y, FqPoly(_F2, ("x", "y"), {})))       # a zero operand
@example((FqPoly(_F2, ("x",), {(3,): 1}), FqPoly(_F2, ("x",), {(2,): 1})))
def test_sparse_mul_is_the_dense_schoolbook(pair):
    a, b = pair
    got = a * b
    assert got.terms == _dense_product(a, b)
    assert all(type(x) is int for e in got.terms for x in e)


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
    for _ in range(80):
        f = get_field(2, rng.choice([1, 2, 3, 4]))
        target = FqPoly.const(f, ("t",), f.one)
        for _ in range(rng.randrange(1, 4)):
            d = rng.randrange(1, 4)
            coeffs = [f.rand(rng) for _ in range(d)] + [f.one]
            factor = FqPoly.from_dense(f, "t", coeffs)
            for _ in range(rng.randrange(1, 3)):
                target = target * factor
        unit, factors = factor_univariate(target)
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


def test_factor_over_the_list_ring():
    # F_2^10 has no byte tables: it factors on coefficient lists
    f = get_field(2, 10)
    rng = random.Random(29)
    for _ in range(30):
        coeffs = [f.rand(rng) for _ in range(4)] + [f.one]
        poly = FqPoly.from_dense(f, "t", coeffs)
        unit, factors = factor_univariate(poly)
        prod = FqPoly.const(f, ("t",), unit)
        for irr, mult in factors:
            prod = prod * irr.pow_int(mult)
        assert prod == poly


def test_towers_and_factorization_reject_odd_characteristic():
    with pytest.raises(FieldError, match="characteristic 2"):
        ExtField(get_field(3, 1), [1, 2, 0, 1])          # u^3 - u + 1
    f9 = get_field(3, 2)
    for dense in ([1, 0, 1], [2, 1]):                     # linear as well
        poly = FqPoly.from_dense(f9, "t", dense)
        with pytest.raises(PolyError, match="characteristic 2"):
            ring_factors(f9.ring.pack(dense), f9.ring)
        with pytest.raises(PolyError, match="characteristic 2"):
            factor_univariate(poly)


@st.composite
def univariate_products(draw, min_factors=0, max_mult=3):
    """unit * prod of monic polynomials over F_2^1..F_2^4, which factor on
    the packed ring, or F_2^9, which factors on coefficient lists."""
    f = get_field(*draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (2, 9)])))
    coef = st.integers(0, f.order - 1)
    target = FqPoly.const(f, ("t",), draw(st.integers(1, f.order - 1)))
    for _ in range(draw(st.integers(min_factors, 3))):
        low = draw(st.lists(coef, min_size=1, max_size=3))
        factor = FqPoly.from_dense(f, "t", low + [f.one])
        target = target * factor.pow_int(draw(st.integers(1, max_mult)))
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


@pytest.mark.parametrize("name", ["F_2^1", "F_2^4", "F_2^8", "F_2^4[u]/deg2",
                                  "F_2^9"])
def test_factor_linear_is_the_unit_times_its_monic(name):
    f = _row_field(name)
    rng = random.Random(31)
    for _ in range(20):
        c0, c1 = f.rand(rng), f.rand_nonzero(rng)
        unit, factors = factor_univariate(FqPoly.from_dense(f, "t", [c0, c1]))
        assert unit == c1
        monic = FqPoly.from_dense(f, "t", [f.mul(c0, f.inv(c1)), f.one])
        assert factors == [(monic, 1)]


@PROPERTY
@given(univariate_products(min_factors=1, max_mult=1))
def test_squarefree_input_has_multiplicity_one_factors(target):
    f = target.field
    ring = f.ring
    a = ring.pack(target.dense_univariate())
    assume(ring.gcd(a, ring.pack(target.partial("t").dense_univariate())) == ring.one)
    monic = target.monic()
    assert _squarefree(a, ring) == [(ring.pack(monic.dense_univariate()), 1)]
    _unit, factors = factor_univariate(target)
    prod = FqPoly.const(f, ("t",), f.one)
    for irr, mult in factors:
        assert mult == 1
        prod = prod * irr
    assert prod == monic


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


V2 = ("x", "y")
V3 = ("x", "y", "z")


def sylvester_det(a, b, var):
    """The Leibniz sum of the Sylvester determinant of a and b in var.

    The permutations are grouped by the columns their first rows take:
    minor(mask) expands the rows from popcount(mask) on along the first
    of them, over the columns not in mask, so degrees 5 + 4 stay cheap.
    """
    f, i = a.field, a.vars.index(var)
    da, db = a.degree(var), b.degree(var)
    n = da + db
    zero = FqPoly.zero(f, a.vars)

    def coeffs(poly, d):
        """[c_d, ..., c_0]: the coefficients of var^d, ..., var^0."""
        out = [{} for _ in range(d + 1)]
        for e, c in poly.terms.items():
            out[d - e[i]][e[:i] + (0,) + e[i + 1:]] = c
        return [FqPoly(f, poly.vars, t) for t in out]

    rows = [[zero] * r + coeffs(a, da) + [zero] * (db - 1 - r) for r in range(db)]
    rows += [[zero] * r + coeffs(b, db) + [zero] * (da - 1 - r) for r in range(da)]

    @functools.lru_cache(maxsize=None)
    def minor(mask):
        r = bin(mask).count("1")
        if r == n:
            return FqPoly.const(f, a.vars, f.one)
        total = zero
        free = [c for c in range(n) if not mask >> c & 1]
        for k, c in enumerate(free):
            if not rows[r][c].is_zero():
                term = rows[r][c] * minor(mask | 1 << c)
                total = total - term if k % 2 else total + term
        return total

    return minor(0)


@st.composite
def resultant_cases(draw):
    """(a, b, var) in k[x, y] over F_2^e, F_3 or F_5 with var-degrees
    da + db <= 6; var-degree -1 draws the zero polynomial."""
    f = get_field(*draw(st.sampled_from([(2, 1), (2, 2), (2, 4), (3, 1), (5, 1)])))
    var = draw(st.sampled_from(V2))
    coef = st.integers(1, f.order - 1)

    def poly(d):
        if d < 0:
            return FqPoly.zero(f, V2)
        pairs = st.tuples(st.integers(0, d), st.integers(0, 2))
        terms = {(k, m) if var == "x" else (m, k): c for (k, m), c in
                 draw(st.dictionaries(pairs, coef, max_size=4)).items()}
        m = draw(st.integers(0, 2))
        terms[(d, m) if var == "x" else (m, d)] = draw(coef)
        return FqPoly(f, V2, terms)

    da = draw(st.integers(-1, 6))
    db = draw(st.integers(-1, 6 - max(da, 0)))
    return poly(da), poly(db), var


def _case(p, a_terms, b_terms):
    f = get_field(p, 1)
    return FqPoly(f, V2, a_terms), FqPoly(f, V2, b_terms), "y"


@settings(PROPERTY, max_examples=150)
@given(resultant_cases())
# pseudo-division steps that drop the degree by two
@example(_case(3, {(0, 3): 1, (1, 0): 1}, {(1, 2): 1, (0, 0): 1}))
@example(_case(5, {(0, 4): 1, (0, 1): 2, (1, 0): 1}, {(1, 2): 3, (0, 0): 1}))
# odd degrees on both sides in odd characteristic
@example(_case(3, {(0, 3): 1, (1, 1): 1, (0, 0): 2}, {(1, 1): 1, (0, 0): 1}))
# remainder degrees 5, 4, 2, 1, 0: h after the step with delta = 2 is used
@example(_case(3, {(0, 5): 1, (0, 3): 2, (1, 0): 2, (0, 0): 1},
               {(1, 4): 1, (1, 3): 2, (0, 1): 2, (0, 0): 1}))
def test_resultant_is_the_sylvester_determinant(case):
    a, b, var = case
    for x, y in ((a, b), (b, a)):
        if x.is_zero() or y.is_zero():
            assert resultant(x, y, var).is_zero()
        elif x.degree(var) == 0 and y.degree(var) == 0:
            with pytest.raises(PolyError):
                resultant(x, y, var)
        else:
            assert resultant(x, y, var) == sylvester_det(x, y, var)


@st.composite
def gcd_triples(draw):
    """Nonzero (a, b, c) in k[x, y] over F_2, F_4 or F_3."""
    f = get_field(*draw(st.sampled_from([(2, 1), (2, 2), (3, 1)])))
    expo = st.tuples(st.integers(0, 2), st.integers(0, 2))
    coef = st.integers(1, f.order - 1)

    def poly():
        terms = draw(st.dictionaries(expo, coef, max_size=3))
        terms[draw(expo)] = draw(coef)
        return FqPoly(f, V2, terms)

    return poly(), poly(), poly()


@PROPERTY
@given(gcd_triples())
def test_gcd_divides_both_and_contains_the_common_factor(triple):
    a, b, c = triple
    g = poly_gcd_multivariate(a * c, b * c)
    for x in (a * c, b * c):
        assert poly_divexact(x, g) * g == x
    assert poly_divexact(g, c.monic()) * c.monic() == g


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


@pytest.mark.parametrize("e", [4, 10])
def test_ring_division_by_zero_raises_poly_error(e):
    # F_16 packs its polynomials (PackedRing), F_2^10 keeps lists (_ListRing)
    f = get_field(2, e)
    for ring in (f.ring, _ListRing(f)):
        a = ring.pack([f.one, f.zero, f.one])
        for divide in (ring.rem, ring.divmod, ring.divexact):
            with pytest.raises(PolyError, match="division by zero"):
                divide(a, ring.zero)


@pytest.mark.parametrize("variables", [("x",), ("x", "y", "z")])
def test_resultant_takes_two_variables(variables):
    for f in (get_field(2, 4), get_field(2, 12)):
        x = FqPoly.variable(f, variables, "x")
        with pytest.raises(PolyError, match="two variables"):
            resultant(x * x + x, x, "x")


def test_gcd_takes_at_most_two_variables():
    f = get_field(2, 4)
    x, y, z = (FqPoly.variable(f, V3, v) for v in V3)
    with pytest.raises(PolyError, match="at most two variables"):
        poly_gcd_multivariate(x * z, y * z)
    with pytest.raises(PolyError, match="at most two variables"):
        poly_gcd_multivariate(FqPoly.zero(f, V3), z)


def test_dense_gcd_monic():
    f = get_field(2, 3)
    ring = f.ring
    a = ring.pack([f.one, f.one])       # x + 1
    b = ring.pack([f.zero, f.one])      # x
    assert ring.gcd(a, b) == ring.one
    # gcd((x + 1) x, c (x + 1)) is x + 1 for every nonzero c, so it is monic
    for c in f.elements():
        if c != f.zero:
            g = ring.gcd(ring.mul(a, b), ring.pack([c, c]))
            assert g == a and ring.key(g)[-1] == f.one


# ---------------------------------------------------------------------------
# the packed paths of byte-table fields against the list and sparse ones


def _factor_steps(dense, ring):
    """factor_univariate's steps on one ring: each irreducible factor as a
    coefficient list with its multiplicity, in the order they are found."""
    rng = random.Random("kummerlab.factor.0")
    out = []
    for sqf, m in _squarefree(ring.pack(dense), ring):
        rows = frobenius_rows(sqf, ring) if ring.deg(sqf) > 1 else ([], [])
        out += [(list(ring.key(irr)), m)
                for prod, d in distinct_degree(sqf, rows[1], ring)
                for irr in equal_degree_split(prod, d, rows, ring, rng)]
    return out


def _absolute_trace(f, c):
    total = f.zero
    for _ in range(f.degree):
        total, c = f.add(total, c), f.mul(c, c)
    return total


@st.composite
def packed_factor_inputs(draw):
    """(field, target) over F_2^1..F_2^8: a unit times up to three monic
    factors with multiplicities, all of one degree half the time, or times
    distinct irreducible quadratics t^2 + t + c (absolute trace of c is 1),
    a product of equal-degree irreducibles; the whole is raised to a 2^k-th
    power.  Constants and linear inputs occur."""
    f = get_field(2, draw(st.integers(1, 8)))
    coef = st.integers(0, f.order - 1)
    degree = st.integers(1, 3)
    if draw(st.booleans()):
        degree = st.just(draw(degree))
    target = FqPoly.const(f, ("t",), draw(st.integers(1, f.order - 1)))
    if draw(st.integers(0, 3)) == 0:
        odd = [c for c in f.elements() if _absolute_trace(f, c) == f.one]
        for c in draw(st.lists(st.sampled_from(odd), min_size=min(2, len(odd)),
                               max_size=3, unique=True)):
            target = target * FqPoly.from_dense(f, "t", [c, f.one, f.one])
    for _ in range(draw(st.integers(0, 3))):
        k = draw(degree)
        factor = FqPoly.from_dense(f, "t", draw(st.lists(coef, min_size=k, max_size=k))
                                   + [f.one])
        target = target * factor.pow_int(draw(st.integers(1, 3)))
    target = target.pow_int(1 << draw(st.integers(0, 3)))
    assume(target.degree() <= 32)
    return f, target


def _packed_case(e, dense):
    f = get_field(2, e)
    return f, FqPoly.from_dense(f, "t", dense)


@settings(PROPERTY, max_examples=150)
@given(packed_factor_inputs())
@example(_packed_case(8, [77]))                                   # a constant
@example(_packed_case(1, [1, 0, 0, 0, 0, 0, 0, 0, 1]))           # (t + 1)^8
@example(_packed_case(1, [1] * 7))                              # (t^3+t+1)(t^3+t^2+1)
@example(_packed_case(4, [0, 0, 0, 0, 3]))                       # 3 t^4
def test_packed_factorization_is_the_list_factorization(case):
    f, target = case
    dense = target.dense_univariate()
    steps = _factor_steps(dense, f.ring)
    assert steps == _factor_steps(dense, _ListRing(f))
    unit, factors = factor_univariate(target)
    assert unit == dense[-1]
    assert sorted((irr.dense_univariate(), m) for irr, m in factors) == sorted(steps)


# F_2^1..F_2^8 factor on the packed ring, F_2^10 and the tower on lists
FACTOR_FIELDS = ["F_2^1", "F_2^2", "F_2^3", "F_2^4", "F_2^5", "F_2^6", "F_2^7",
                 "F_2^8", "F_2^10", "F_2^4[u]/deg2"]


@pytest.mark.parametrize("p,e", [(2, e) for e in range(1, 9)]
                         + [(3, 2), (5, 1), (2, 10)])
def test_proot_table_is_the_inverse_frobenius(p, e):
    f = get_field(p, e)
    assert [f.proot(a) for a in f.elements()] == [
        f.pow_elem(a, p ** (e - 1)) for a in f.elements()]
    if f.byte_tables is not None:
        assert f.ring.sqrt_t[:f.order] == bytes(map(f.proot, f.elements()))


def test_tower_proot_is_the_inverse_frobenius():
    # packed towers over F_4 and F_16, tuple towers over a packed tower and
    # over F_2^9
    f4, quad = get_field(2, 2), _quadratic_tower(get_field(2, 4))
    towers = [quad, ExtField(f4, [f4.one, f4.one, f4.zero, f4.one]),   # u^3 + u + 1
              ExtField(quad, [quad.one, quad.one, quad.zero, quad.one]),
              _quadratic_tower(get_field(2, 9))]
    rng = random.Random(37)
    for ext in towers:
        for _ in range(50):
            a = ext.rand(rng)
            assert ext.proot(a) == ext.pow_elem(a, ext.char ** (ext.degree - 1))


def _mulmod(ring, mod):
    row = ring.modrow(mod)
    return lambda a, b: ring.mulmod(a, b, row)


@st.composite
def monic_moduli(draw):
    """(field, monic coefficient list of degree 2..8) over a FACTOR_FIELDS field."""
    f = _row_field(draw(st.sampled_from(FACTOR_FIELDS)))
    n = draw(st.integers(2, 8))
    return f, draw(st.lists(_elements(f), min_size=n, max_size=n)) + [f.one]


@PROPERTY
@given(monic_moduli())
def test_frobenius_rows_are_the_q_powers_of_x(case):
    f, dense = case
    for ring in (f.ring, _ListRing(f)):
        a = ring.pack(dense)
        x = ring.pack([f.zero, f.one])
        squares, frob = frobenius_rows(a, ring)
        assert frob == [
            ring.modrow(power(x, f.order * i, _mulmod(ring, a), ring.one))
            for i in range(ring.deg(a))]
        assert squares == [ring.modrow(power(x, 1 << j, _mulmod(ring, a), ring.one))
                           for j in range(f.degree)]


def _is_irreducible(a, ring):
    """Rabin's test with `power`, not the Frobenius rows: for n = deg a,
    x^(q^n) = x mod a, and x^(q^(n/r)) - x is coprime to a for every prime
    r dividing n."""
    f, n = ring.field, ring.deg(a)
    x = ring.rem(ring.pack([f.zero, f.one]), a)

    def frobenius_minus_x(k):
        return ring.sub(power(x, f.order ** k, _mulmod(ring, a), ring.one), x)

    primes = [r for r in range(2, n + 1) if n % r == 0
              and all(r % s for s in range(2, r))]
    return ring.deg(frobenius_minus_x(n)) < 0 and all(
        ring.deg(ring.gcd(a, frobenius_minus_x(n // r))) == 0 for r in primes)


@st.composite
def factor_cases(draw):
    """A unit times up to three monic factors of degree 1..4 with
    multiplicities 1..3 over a FACTOR_FIELDS field, of degree <= 16."""
    f = _row_field(draw(st.sampled_from(FACTOR_FIELDS)))
    coef = _elements(f)
    target = FqPoly.const(f, ("t",), draw(coef.filter(lambda c: c != f.zero)))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(1, 4))
        factor = FqPoly.from_dense(f, "t", draw(st.lists(coef, min_size=k, max_size=k))
                                   + [f.one])
        target = target * factor.pow_int(draw(st.integers(1, 3)))
    assume(target.degree() <= 16)
    return target


@settings(PROPERTY, max_examples=100)
@given(factor_cases())
@example(_packed_case(8, [1] + [0] * 15 + [1])[1])            # (t + 1)^16
@example(_packed_case(4, [0, 1] + [0] * 14 + [1])[1])          # t^16 + t: all of F_16
def test_factors_are_distinct_monic_irreducibles(target):
    f = target.field
    ring = f.ring
    unit, factors = factor_univariate(target)
    prod = FqPoly.const(f, ("t",), unit)
    for irr, mult in factors:
        assert irr.degree() > 0 and irr.monic() == irr and mult > 0
        assert _is_irreducible(ring.pack(irr.dense_univariate()), ring)
        prod = prod * irr.pow_int(mult)
    assert prod == target
    assert len({irr for irr, _m in factors}) == len(factors)


def poly_divexact(f_poly, g_poly):
    """Reference: exact division of multivariate FqPolys by leading terms;
    raises PolyError if g_poly does not divide f_poly."""
    f = f_poly.field
    if g_poly.is_zero():
        raise PolyError("division by zero polynomial")
    ge, gc = g_poly.leading()
    ginv = f.inv(gc)
    rem, out = f_poly, {}
    while not rem.is_zero():
        re, rc = rem.leading()
        qe = tuple(a - b for a, b in zip(re, ge))
        if any(x < 0 for x in qe):
            raise PolyError("not divisible")
        out[qe] = f.mul(rc, ginv)
        rem = rem - FqPoly(f, f_poly.vars, {qe: out[qe]}) * g_poly
    return FqPoly(f, f_poly.vars, out)


def _coeffs_in_var(poly, var):
    """Map degree -> coefficient polynomial (with `var` degree zero)."""
    i = poly.vars.index(var)
    out = {}
    for e, c in poly.terms.items():
        out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    return {k: FqPoly(poly.field, poly.vars, terms) for k, terms in out.items()}


def _sparse_prem(a, b, var):
    """The sparse pseudo-remainder the PRS ran on FqPolys before the
    coefficient rings: lc(b)^(da-db+1) * a mod b."""
    f = a.field
    db = b.degree(var)
    lcb = _coeffs_in_var(b, var)[db]
    i = a.vars.index(var)
    rem, steps = a, a.degree(var) - db + 1
    while rem.degree(var) >= db:
        dr = rem.degree(var)
        shift = [0] * len(a.vars)
        shift[i] = dr - db
        mono = FqPoly(f, a.vars, {tuple(shift): f.one})
        rem = rem * lcb - b * mono * _coeffs_in_var(rem, var)[dr]
        steps -= 1
    return rem * lcb.pow_int(steps)


def _sparse_prs(a, b, var):
    """Reference: the sparse subresultant PRS on FqPolys, (last nonzero
    remainder, resultant)."""
    sign = 1
    if a.degree(var) < b.degree(var):
        a, b = b, a
        if a.degree(var) % 2 and b.degree(var) % 2:
            sign = -1
    g = h = FqPoly.const(a.field, a.vars, a.field.one)
    while b.degree(var) > 0:
        da, db = a.degree(var), b.degree(var)
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        r = _sparse_prem(a, b, var)
        a, b = b, poly_divexact(r, g * h.pow_int(delta))
        g = _coeffs_in_var(a, var)[db]
        if delta:
            h = poly_divexact(g.pow_int(delta), h.pow_int(delta - 1))
    if b.is_zero():
        return a, b
    da = a.degree(var)
    res = poly_divexact(b.pow_int(da), h.pow_int(da - 1))
    return b, (-res if sign < 0 else res)


# byte-table fields F_2^1..F_2^8, where `field.ring` is the packed ring, and
# fields whose own ring is the list ring
PRS_FIELDS = [(2, e) for e in range(1, 13)] + [(3, 1), (3, 2)]


@st.composite
def prs_cases(draw):
    """(a, b, var) in k[x, y] over F_2^1..F_2^12, F_3 or F_9, not both of
    var-degree 0: random operands of var-degree up to 4, single terms, or a
    common factor."""
    f = get_field(*draw(st.sampled_from(PRS_FIELDS)))
    var = draw(st.sampled_from(V2))
    coef = st.integers(1, f.order - 1)
    expo = st.tuples(st.integers(0, 3), st.integers(0, 3))

    def poly(max_terms):
        return FqPoly(f, V2, draw(st.dictionaries(expo, coef, min_size=1,
                                                  max_size=max_terms)))

    kind = draw(st.sampled_from(["random", "single", "common"]))
    a, b = poly(1 if kind == "single" else 5), poly(5)
    if kind == "common":
        common = poly(3)
        a, b = a * common, b * common
    assume(max(a.degree(var), b.degree(var)) > 0)
    return a, b, var


@settings(PROPERTY, max_examples=150)
@given(prs_cases())
@example((FqPoly(get_field(2, 8), V2, {(2, 0): 5, (0, 1): 1}),
          FqPoly(get_field(2, 8), V2, {(1, 0): 7}), "y"))          # b free of y
@example((FqPoly(get_field(2, 4), V2, {(3, 2): 9}),
          FqPoly(get_field(2, 4), V2, {(1, 1): 1}), "x"))          # single terms
def test_packed_prs_is_the_sparse_prs(case):
    a, b, var = case
    expect = _sparse_prs(a, b, var)
    for ring in (a.field.ring, _ListRing(a.field)):
        last, res = _subresultant_prs(ring.split(a, var), ring.split(b, var), ring)
        assert (ring.join(last, V2, var), ring.join([res], V2, var)) == expect


def _euclid(a, b):
    """Reference: the monic gcd of univariate FqPolys by long division."""
    f = a.field
    while not b.is_zero():
        (db,), lc = b.leading()
        while a.degree() >= db:
            (da,), c = a.leading()
            a = a - b * FqPoly(f, a.vars, {(da - db,): f.mul(c, f.inv(lc))})
        a, b = b, a
    return a.monic()


def _gcd_by_contents(a, b):
    """Reference: the multivariate gcd by the content recursion it ran
    before the coefficient rings took the contents.  With var the last
    variable in use, it is gcd(cont a, cont b) times the primitive part of
    the last remainder of the sparse PRS of the primitive parts, every
    content a gcd of FqPolys by this same recursion."""
    if a.is_zero() or b.is_zero():
        return (a + b).monic()
    if len(a.vars) == 1:
        return _euclid(a, b)
    used = [v for v in a.vars if a.degree(v) > 0 or b.degree(v) > 0]
    if not used:
        return FqPoly.const(a.field, a.vars, a.field.one)
    var = used[-1]

    def content(poly):
        return functools.reduce(_gcd_by_contents, _coeffs_in_var(poly, var).values())

    ca, cb = content(a), content(b)
    last, _res = _sparse_prs(poly_divexact(a, ca), poly_divexact(b, cb), var)
    return (_gcd_by_contents(ca, cb) * poly_divexact(last, content(last))).monic()


GCD_FIELDS = [(2, e) for e in range(1, 10)] + [(3, 1), (3, 2)]


@st.composite
def gcd_cases(draw):
    """(a, b) in k[x] or k[x, y] over F_2^1..F_2^9, F_3 or F_9: random
    nonzero operands, with a common factor, one or both free of the last
    variable, or one of them zero; the order of the two is drawn."""
    f = get_field(*draw(st.sampled_from(GCD_FIELDS)))
    variables = V2[:draw(st.integers(1, 2))]
    coef = st.integers(1, f.order - 1)

    def poly(free=False):
        degs = [st.integers(0, 2)] * len(variables)
        if free:
            degs[-1] = st.just(0)
        return FqPoly(f, variables, draw(st.dictionaries(st.tuples(*degs), coef,
                                                         min_size=1, max_size=4)))

    kind = draw(st.sampled_from(["random", "common", "free", "zero"]))
    a = poly(free=kind == "free")
    b = poly(free=kind == "free" and draw(st.booleans()))
    if kind == "common":
        common = poly()
        a, b = a * common, b * common
    if kind == "zero":
        a = FqPoly.zero(f, variables)
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(PROPERTY, max_examples=150)
@given(gcd_cases())
@example((FqPoly(get_field(2, 4), V2, {(1, 0): 3, (0, 0): 1}),
          FqPoly(get_field(2, 4), V2, {(1, 1): 3, (0, 1): 1})))      # a free of y
def test_gcd_matches_the_content_recursion(case):
    a, b = case
    assert poly_gcd_multivariate(a, b) == _gcd_by_contents(a, b)


@st.composite
def tower_cases(draw):
    """(tower over F_2^4 or F_2^8 with a random monic modulus, a, b)."""
    f = get_field(2, draw(st.sampled_from([4, 8])))
    n = draw(st.integers(1, 5))
    coef = st.integers(0, f.order - 1)
    ext = ExtField(f, draw(st.lists(coef, min_size=n, max_size=n)) + [f.one])
    elem = st.tuples(*[coef] * n).map(lambda cs: element(ext, cs))
    return ext, draw(elem), draw(elem)


@settings(PROPERTY, max_examples=150)
@given(tower_cases())
def test_packed_tower_mul_is_the_schoolbook_product(case):
    ext, a, b = case
    _add, _sub, ref_mul, _zero = _reference_ops(ext)
    assert ext.mul(a, b) == ref_mul(a, b)
    assert ext.mul(a, a) == ref_mul(a, a)       # one object: the packed square


# the packed tower: its arithmetic against the schoolbook on coefficient tuples


@st.composite
def tower_elements(draw):
    """(tower, a, b): a tower of relative degree 1..7 over F_2, F_16 or
    F_256, packed, or of degree 1..3 over the packed quadratic tower over
    F_16, on tuples.  Its modulus is the first monic polynomial a seeded
    generator draws that Rabin's test finds irreducible."""
    base = _row_field(draw(st.sampled_from(["F_2^1", "F_2^4", "F_2^8", "F_2^4[u]/deg2"])))
    n = draw(st.integers(1, 3 if isinstance(base, ExtField) else 7))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    while True:
        dense = [base.rand(rng) for _ in range(n)] + [base.one]
        if _is_irreducible(base.ring.pack(dense), base.ring):
            break
    ext = ExtField(base, dense)
    elem = st.tuples(*[_elements(base)] * n).map(lambda cs: element(ext, cs))
    return ext, draw(elem), draw(elem)


@settings(PROPERTY, max_examples=100)
@given(tower_elements())
def test_tower_arithmetic_is_the_schoolbook(case):
    ext, a, b = case
    _add, _sub, ref_mul, _zero = _reference_ops(ext)
    assert ext.mul(a, b) == ref_mul(a, b)
    assert ext.mul(a, a) == ref_mul(a, a)       # one object: the Frobenius square
    if a != ext.zero:
        assert ref_mul(a, ext.inv(a)) == ext.one
        assert ref_mul(ext.pow_elem(a, -3), ref_mul(a, ref_mul(a, a))) == ext.one
    root = ext.proot(a)
    assert ref_mul(root, root) == a
    # the element form: packed residues over a byte-table base, tuples otherwise
    assert element(ext, coords(ext, a)) == a
    assert isinstance(a, int) == (ext.base.byte_tables is not None)


def test_tower_gcd_inverts_once_per_division_step(monkeypatch):
    f = get_field(2, 6)
    # the first u^3 + u + c that Rabin's test finds irreducible over F_64
    c = next(c for c in f.elements()
             if _is_irreducible(f.ring.pack([c, f.one, f.zero, f.one]), f.ring))
    ext = ExtField(f, [c, f.one, f.zero, f.one])
    ring = ext.ring
    rng = random.Random(43)
    r, s, lc_a, lc_b = (ext.rand_nonzero(rng) for _ in range(4))
    cubic = [ext.rand(rng) for _ in range(3)] + [ext.one]
    # a = lc_a (x + r) cubic and b = lc_b (x + r)(x + s) with cubic(s) != 0,
    # so the gcd is x + r, found in two division steps
    assert ring.rem(cubic, [s, ext.one])
    a = ring.mul([lc_a], ring.mul([r, ext.one], cubic))
    b = ring.mul([lc_b], ring.mul([r, ext.one], [s, ext.one]))
    a, b = ring.pack(a), ring.pack(b)
    assert (ring.deg(a), ring.deg(b)) == (4, 2)
    inverses, divisions = [], []
    inv, divmod_ = ext.inv, ring.divmod
    monkeypatch.setattr(ext, "inv", lambda x: inverses.append(x) or inv(x))
    monkeypatch.setattr(ring, "divmod", lambda x, y: divisions.append(y) or divmod_(x, y))
    g = ring.gcd(a, b)
    monkeypatch.undo()
    assert g == [r, ext.one]
    assert not ring.rem(a, g) and not ring.rem(b, g)
    assert len(divisions) == 2 and len(inverses) == len(divisions)


# ---------------------------------------------------------------------------
# the factorization route before each squarefree part shared its rows


def _pow_mod(base, n, mod, ring):
    """base^n modulo the monic `mod`."""
    return power(ring.rem(base, mod), n, _mulmod(ring, mod), ring.one)


def _per_part_distinct_degree(a, ring):
    """[(product of the degree-d factors, d)], x^(q^d) by powering mod what
    is left of a at every step."""
    f = ring.field
    out = []
    x = ring.pack([f.zero, f.one])
    h, rest, d = x, a, 0
    while ring.deg(rest) >= 2 * (d + 1):
        d += 1
        h = _pow_mod(h, f.order, rest, ring)
        g = ring.gcd(rest, ring.sub(h, x))
        if ring.deg(g) > 0:
            out.append((g, d))
            rest, _ = ring.divmod(rest, g)
            h = ring.rem(h, rest)
    if ring.deg(rest) > 0:
        out.append((rest, ring.deg(rest)))
    return out


def _per_part_rows(a, d, ring):
    """The rows of one equal-degree part a: x^(2^j) mod a, j < e, for d = 1,
    and x^(q i) mod a, i < deg a, otherwise."""
    f = ring.field
    row = ring.modrow(a)
    x = ring.rem(ring.pack([f.zero, f.one]), a)
    if d == 1:
        rows = [x]
        for _ in range(f.degree - 1):
            rows.append(ring.mulmod(rows[-1], rows[-1], row))
        return [ring.modrow(r) for r in rows]
    xq = _pow_mod(x, f.order, a, ring)
    rows = [ring.one, xq]
    for i in range(2, ring.deg(a)):
        half = rows[i >> 1]
        rows.append(ring.mulmod(half, half, row) if i % 2 == 0
                    else ring.mulmod(rows[i - 1], xq, row))
    return [ring.modrow(r) for r in rows[:ring.deg(a)]]


def _per_part_equal_degree_split(a, d, ring, rng):
    a = ring.monic(a)
    if ring.deg(a) == d:
        return [a]
    rows = _per_part_rows(a, d, ring)
    out, stack = [], [a]
    while stack:
        poly = stack.pop()
        n = ring.deg(poly)
        if n == d:
            out.append(poly)
            continue
        while True:
            g = ring.gcd(poly, _trace_trial(poly, d, rows, ring, rng))
            if 0 < ring.deg(g) < n:
                break
        stack.append(g)
        stack.append(ring.divmod(poly, g)[0])
    return out


def _per_part_factors(a, ring):
    """Reference: `ring_factors` by its earlier route, which powered x^q
    mod the rest at each distinct-degree step and built fresh rows for
    each equal-degree part, on the same draws."""
    if ring.deg(a) == 1:
        return [(ring.key(ring.monic(a)), 1)]
    rng, result = None, []
    for sqf, mult in _squarefree(a, ring):
        for prod, d in _per_part_distinct_degree(sqf, ring):
            if rng is None and ring.deg(prod) > d:
                rng = random.Random("kummerlab.factor.0")
            for irr in _per_part_equal_degree_split(prod, d, ring, rng):
                result.append((ring.key(irr), mult))
    result.sort(key=lambda t: (len(t[0]), t[1], [str(c) for c in t[0]]))
    return result


# F_2^1..F_2^8 factor on the packed ring; F_2^9 and the tower on lists
PER_PART_FIELDS = [f"F_2^{e}" for e in range(1, 10)] + ["F_2^4[u]/deg2"]


@st.composite
def per_part_inputs(draw):
    """A unit times one to four monic factors of degree 1..4, each to a
    power 1..3 and the whole squared half the time, of degree <= 20 over a
    PER_PART_FIELDS field.  Random monic factors are often reducible, so a
    squarefree part often splits over several degrees."""
    f = _row_field(draw(st.sampled_from(PER_PART_FIELDS)))
    coef = _elements(f)
    target = FqPoly.const(f, ("t",), draw(coef.filter(lambda c: c != f.zero)))
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 4))
        factor = FqPoly.from_dense(f, "t", draw(st.lists(coef, min_size=k, max_size=k))
                                   + [f.one])
        target = target * factor.pow_int(draw(st.integers(1, 3)))
    if draw(st.booleans()):
        target = target * target
    assume(target.degree() <= 20)
    return target


def _product(e, *factors):
    """The product of coefficient lists over F_2^e, as an FqPoly in t."""
    f = get_field(2, e)
    return functools.reduce(FqPoly.__mul__, [FqPoly.from_dense(f, "t", c) for c in factors])


@settings(PROPERTY, max_examples=100)
@given(per_part_inputs())
# t (t^2 + t + 1)(t^3 + t + 1): one squarefree part split over degrees 1, 2, 3
@example(_product(1, [0, 1], [1, 1, 1], [1, 1, 0, 1]))
# (t^2 + t + 1)^2 (t + 1)^4 over F_4, a square, where t^2 + t + 1 splits
@example(_product(2, [1, 1, 1], [1, 1, 1], [1, 1], [1, 1], [1, 1], [1, 1]))
# t^16 + t over F_2: the irreducibles of degree 1, 2 and 4, one squarefree
# part split over three degrees
@example(_product(1, [0, 1] + [0] * 14 + [1]))
def test_ring_factors_is_the_per_part_route(target):
    ring = target.field.ring
    a = ring.pack(target.dense_univariate())
    assert ring_factors(a, ring) == _per_part_factors(a, ring)
