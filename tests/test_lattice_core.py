import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kummerlab.exactmat import (
    common_denominator,
    det_bareiss,
    hnf_basis,
    identity,
    integer_scaled,
    lattice_coords,
    mat_mul,
    solve_left_fraction,
)
from kummerlab.lattice_core import (
    GlueData,
    Lattice,
    LatticeError,
    _interval,
    _qmod2,
    _subgroup_elements,
    ade_gram,
    ade_lattice,
    ade_type,
    discriminant,
    discriminant_group,
    even_lattice,
    glue,
    gram_of,
    is_two_elementary_type2,
    lattice_from_json,
    lattice_to_json,
    reflect,
    roots,
    saturation,
    signature,
)


def a1_sum(m):
    return even_lattice([[-2 if i == j else 0 for j in range(m)] for i in range(m)])


def fraction_lattice(gram):
    """The lattice of a Gram with int or Fraction entries, through the JSON
    edge, so that den is the least common denominator."""
    return lattice_from_json({"gram": gram})


def halved(lat):
    """The lattice with Gram G / 2: denominator 2 once an off-diagonal entry is odd."""
    return fraction_lattice([[Fraction(x, 2 * lat.den) for x in row] for row in lat.gram])


def direct_sum(l1, l2):
    """The orthogonal sum l1 (+) l2, Gram G1 (+) G2."""
    n1, n2 = l1.rank, l2.rank
    return fraction_lattice([[Fraction(x, l1.den) for x in row] + [0] * n2 for row in l1.gram]
                            + [[0] * n1 + [Fraction(x, l2.den) for x in row]
                               for row in l2.gram])


def test_discriminant_examples():
    assert discriminant(ade_lattice("A", 1)) == -2
    # oracle: exact integer elimination on the standard Gram matrix
    assert det_bareiss(ade_gram("E", 8)) == 1
    assert discriminant(ade_lattice("E", 8)) == 1
    assert discriminant(a1_sum(16)) == 2 ** 16


def test_degenerate_rejected():
    lat = Lattice([[0, 0], [0, -2]])
    with pytest.raises(LatticeError):
        discriminant(lat)
    with pytest.raises(LatticeError):
        signature(lat)
    for gram in ([[0, 0], [0, -2]], [[-2, 2], [2, -2]], [[0, 0], [0, 2]]):
        with pytest.raises(LatticeError, match="degenerate lattice"):
            roots(Lattice(gram))


def test_signature_examples():
    assert signature(ade_lattice("A", 1)) == (0, 1)
    assert signature(ade_lattice("D", 4)) == (0, 4)
    for kind, n in (("A", 5), ("D", 8), ("E", 7)):
        lat = ade_lattice(kind, n)
        assert signature(lat) == (0, n)


def test_even_constructor_rejects_bad_gram():
    with pytest.raises(LatticeError):
        even_lattice([[-1]])
    with pytest.raises(LatticeError):
        Lattice([[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(LatticeError, match="one label per row"):
        Lattice([[-2]], labels=[1, 2, 3])
    # rational entries enter only through the JSON edge, scaled by their
    # least common denominator
    with pytest.raises(LatticeError, match="denominator 1 or 2"):
        lattice_from_json({"gram": [["-2/3"]]})
    half = lattice_from_json({"gram": [["1/2"]]})
    assert (half.gram, half.den, half.is_even) == (((1,),), 2, False)
    whole = lattice_from_json({"gram": [[Fraction(-4, 2), "2/2"], [1, -2]]})
    assert (whole.gram, whole.den) == (((-2, 1), (1, -2)), 1)


def test_half_integral_gram_pinned():
    lat = lattice_from_json({"gram": [["-3/2", "1/2"], ["1/2", -2]]})
    assert (lat.den, lat.gram) == (2, ((-3, 1), (1, -4)))
    assert not lat.is_integral and not lat.is_even
    with pytest.raises(LatticeError):
        lat.gram_int()
    assert roots(lat) == [[0, 1]]
    assert signature(lat) == (0, 2)
    assert discriminant(lat) == Fraction(11, 4)
    assert lat.pair([1, 0], [0, 1]) == Fraction(1, 2)
    assert lat.pair([1, 1], [1, 1]) == Fraction(-5, 2)
    assert lat.pair([Fraction(1, 3), 2], [1, -1]) == Fraction(13, 3)


def test_discriminant_group_a1():
    dg = discriminant_group(ade_lattice("A", 1))
    assert dg.orders == [2]
    assert dg.generators == [[Fraction(1, 2)]]
    # q(e/2) = -1/2 = 3/2 in Q/2Z
    assert dg.qvalues == [Fraction(3, 2)]


def test_discriminant_group_order_matches_discriminant():
    rng = random.Random(7)
    for kind, n in (("A", 3), ("D", 4), ("D", 6), ("E", 6), ("E", 7)):
        lat = ade_lattice(kind, n)
        dg = discriminant_group(lat)
        assert math.prod(dg.orders) == abs(discriminant(lat))
        # q scales quadratically on generators
        for g, o, q in zip(dg.generators, dg.orders, dg.qvalues):
            for k in range(1, o + 1):
                vec = [k * x for x in g]
                qk = lat.norm(vec) % 2
                assert (k * k * q) % 2 == qk
    del rng


def brute_force_type2(lat):
    """Oracle: enumerate all dual classes via elementary-divisor ranges."""
    dg = discriminant_group(lat)
    if not all(o == 2 for o in dg.orders):
        return (False, False)
    k = len(dg.orders)
    ok = True
    for mask in range(1 << k):
        vec = [Fraction(0)] * lat.rank
        for i in range(k):
            if (mask >> i) & 1:
                vec = [a + b for a, b in zip(vec, dg.generators[i])]
        if Fraction(lat.norm(vec)).denominator != 1:
            ok = False
    return (True, ok)


def test_two_elementary_type2():
    a1 = ade_lattice("A", 1)
    assert is_two_elementary_type2(discriminant_group(a1)) == (True, False)
    d4 = ade_lattice("D", 4)
    assert is_two_elementary_type2(discriminant_group(d4)) == (True, True)
    a3 = ade_lattice("A", 3)       # Z/4: not 2-elementary
    assert is_two_elementary_type2(discriminant_group(a3)) == (False, False)
    for lat in (a1, d4, ade_lattice("D", 6), ade_lattice("D", 8), a1_sum(6)):
        assert (is_two_elementary_type2(discriminant_group(lat))
                == brute_force_type2(lat))


def brute_force_roots(lat, box=3):
    """Oracle: scan a coordinate box for vectors of square -2."""
    n = lat.rank
    found = set()
    vec = [0] * n

    def rec(i):
        if i == n:
            if any(vec) and lat.norm(vec) == -2:
                v = tuple(vec)
                for c in v:
                    if c > 0:
                        found.add(v)
                        return
                    if c < 0:
                        found.add(tuple(-x for x in v))
                        return
            return
        for x in range(-box, box + 1):
            vec[i] = x
            rec(i + 1)
        vec[i] = 0

    rec(0)
    return sorted(found)


def test_roots_examples():
    assert len(roots(ade_lattice("A", 1))) == 1
    d4 = ade_lattice("D", 4)
    enum = roots(d4)
    assert len(enum) == 12
    assert [list(v) for v in brute_force_roots(d4)] == enum
    for gram in ([[2]], [[-2, 0], [0, 2]], [[-2, 3], [3, -2]]):
        with pytest.raises(LatticeError, match="requires a negative definite lattice"):
            roots(Lattice(gram))  # positive or indefinite input rejected


def test_root_counts_classical():
    assert len(roots(ade_lattice("A", 4))) == 10
    assert len(roots(ade_lattice("D", 5))) == 20
    assert len(roots(ade_lattice("E", 6))) == 36


def test_ade_type_examples():
    assert ade_type(a1_sum(16)) == [("A", 1)] * 16
    for kind, n in (("A", 2), ("A", 7), ("D", 4), ("D", 9), ("E", 6),
                    ("E", 7), ("E", 8)):
        assert ade_type(ade_lattice(kind, n)) == [(kind, n)]
    mixed = direct_sum(ade_lattice("D", 4), ade_lattice("A", 2))
    assert ade_type(mixed) == [("A", 2), ("D", 4)]


def test_ade_type_rejects_non_root_configuration():
    lat = even_lattice([[-2, 0], [0, -4]])
    vecs = [[1, 0]]
    assert ade_type(lat, vecs) == [("A", 1)]
    with pytest.raises(LatticeError):
        # fake "roots" with pairing 2 are not an ADE diagram
        ade_type(even_lattice([[-2, -2], [-2, -2]]), [[1, 0], [0, 1]])
    a2 = ade_lattice("A", 2)
    assert roots(a2) == [[0, 1], [1, 0], [1, 1]]
    for pairs in ([[1, 0], [0, 1]], [[1, 0], [1, 1]], [[0, 1], [1, 1]]):
        with pytest.raises(LatticeError, match="not a root system"):
            ade_type(a2, pairs)        # A2 with 2 of its 3 pairs
    d4 = ade_lattice("D", 4)
    d4_roots = roots(d4)
    for i in range(len(d4_roots)):
        with pytest.raises(LatticeError, match="not a root system"):
            ade_type(d4, d4_roots[:i] + d4_roots[i + 1:])   # D4 less one pair


def test_saturation_examples():
    a1 = ade_lattice("A", 1)
    assert saturation([[2]], a1) == 2
    assert saturation([[1]], a1) == 1
    # 2 e1 and e1 + e2 span an index-2 sublattice of the saturated span <e1, e2>
    assert saturation([[2, 0, 0], [1, 1, 0]], a1_sum(3)) == 2
    with pytest.raises(LatticeError):
        saturation([[Fraction(1, 2)]], a1)


def test_reflect_involution_isometry():
    rng = random.Random(11)
    d4 = ade_lattice("D", 4)
    root_list = roots(d4)
    count = 0
    while count < 1000:
        v = root_list[rng.randrange(len(root_list))]
        x = [rng.randrange(-5, 6) for _ in range(4)]
        y = reflect(d4, v, x)
        assert d4.norm(y) == d4.norm(x)
        z = reflect(d4, v, y)
        assert [Fraction(c) for c in x] == z
        count += 1
    # r_v(v) = -v, r_v fixes the orthogonal complement
    v = root_list[0]
    assert reflect(d4, v, v) == [-Fraction(c) for c in v]
    for x in root_list:
        if d4.pair(x, v) == 0:
            assert reflect(d4, v, x) == [Fraction(c) for c in x]
    with pytest.raises(LatticeError):
        reflect(d4, [1, 0, 1, 0], [1, 0, 0, 0])  # square -4, not a root


def index_from_discriminants(res, l1, l2):
    """[glued : L1 (+) L2] from disc(glued) * index^2 = disc(L1) * disc(L2),
    with no basis."""
    square = Fraction(discriminant(l1) * discriminant(l2), discriminant(res.lattice))
    root = math.isqrt(square.numerator)
    assert square == root * root
    return root


def test_glue_trivial_and_nontrivial():
    a1 = ade_lattice("A", 1)
    res = glue(a1, a1, GlueData([], []))
    assert res.lattice.gram_int() == [[-2, 0], [0, -2]]
    assert res.index == 1 == index_from_discriminants(res, a1, a1)
    d4 = ade_lattice("D", 4)
    dg = discriminant_group(d4)
    res = glue(d4, d4, GlueData([dg.generators[0]], [dg.generators[0]]))
    assert res.index == 2 == index_from_discriminants(res, d4, d4)
    assert res.lattice.is_even
    assert abs(discriminant(res.lattice)) == 4
    for sub in (res.sub1, res.sub2):
        assert saturation(sub, res.lattice) == 1


def test_glue_index_over_all_d4_pairings():
    d4 = ade_lattice("D", 4)
    g0, g1 = discriminant_group(d4).generators
    classes = [g0, g1, [(x + y) % 1 for x, y in zip(g0, g1)]]
    cases = [([x], [y]) for x in classes for y in classes]
    cases += [([g0, g1], [y0, y1]) for y0 in classes for y1 in classes]
    glued = 0
    for m1, m2 in cases:
        try:
            res = glue(d4, d4, GlueData(m1, m2))
        except LatticeError as err:
            assert "q1 + q2" in str(err)
            continue
        glued += 1
        assert res.index == 2 ** len(m1) == index_from_discriminants(res, d4, d4)
    # every nonzero class has q = 1, and exactly the 6 isomorphisms on (Z/2)^2
    assert glued == 9 + 6


def test_glue_leaves_saturation_to_the_caller():
    # A_1^4 glued to 2 I_2: the glue vectors differ by ((e1 + e2 - e3 - e4) / 2, 0),
    # so the A_1^4 factor has index 2 in its saturation; the 2 I_2 factor is primitive
    a1_4 = a1_sum(4)
    pos = even_lattice([[2, 0], [0, 2]])
    half = Fraction(1, 2)
    m1 = [[half, half, 0, 0], [0, 0, half, half]]
    m2 = [[half, half], [half, half]]
    res = glue(a1_4, pos, GlueData(m1, m2))
    assert res.index == 4 == index_from_discriminants(res, a1_4, pos)
    assert saturation(res.sub1, res.lattice) == 2
    assert saturation(res.sub2, res.lattice) == 1


def test_glue_rejects_incompatible_q():
    a1 = ade_lattice("A", 1)
    half = [Fraction(1, 2)]
    with pytest.raises(LatticeError):
        glue(a1, a1, GlueData([half], [half]))


def test_glue_rejects_degenerate_factor():
    with pytest.raises(LatticeError, match="degenerate lattice"):
        glue(Lattice([[0]]), ade_lattice("A", 1), GlueData([], []))


def test_glue_rejects_dependent_generators():
    # q1 + q2 vanishes on the subgroup, but the two glue vectors coincide:
    # the glued index is 2 while |M1| counts 4
    d4 = ade_lattice("D", 4)
    g0 = discriminant_group(d4).generators[0]
    with pytest.raises(LatticeError, match="dependent glue generators"):
        glue(d4, d4, GlueData([g0, g0], [g0, g0]))


def test_glue_rejects_order_mismatch():
    a1 = ade_lattice("A", 1)
    a3 = ade_lattice("A", 3)
    g3 = discriminant_group(a3).generators[0]
    with pytest.raises(LatticeError):
        glue(a3, a1, GlueData([g3], [[Fraction(1, 2)]]))


def test_json_round_trip(tmp_path):
    lat = ade_lattice("E", 6)
    lat.labels = [f"v{i}" for i in range(6)]
    obj = lattice_to_json(lat)
    back = lattice_from_json(obj)
    assert back.gram == lat.gram
    assert back.labels == lat.labels


# ---------------------------------------------------------------------------
# property tests: small nondegenerate even lattices in random bases

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
BLOCKS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5),
          ("E", 6), ("E", 7)]


@st.composite
def block_sums(draw, blocks=BLOCKS, max_rank=10):
    """(lattice, sorted blocks): a direct sum of A/D/E blocks (rank <=
    max_rank) under a unimodular change of basis."""
    drawn = draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=3))
    kept = drawn[:1]
    lat = ade_lattice(*drawn[0])
    for kind, n in drawn[1:]:
        if lat.rank + n <= max_rank:
            lat = direct_sum(lat, ade_lattice(kind, n))
            kept.append((kind, n))
    n = lat.rank
    u = identity(n)
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.integers(-2, 2)), max_size=2 * n))
    for i, j, c in steps:
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    g = lat.gram_int()
    return (even_lattice(mat_mul(mat_mul(u, g), [list(c) for c in zip(*u)])),
            sorted(kept))


def even_lattices():
    return block_sums().map(lambda t: t[0])


def rational_rows(n, max_rows=4, min_rows=0):
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=min_rows,
                    max_size=max_rows)


@PROPERTY
@given(st.data())
def test_gram_of_matches_pair_by_pair(data):
    lat = data.draw(even_lattices())
    rows = data.draw(rational_rows(lat.rank))
    cols = data.draw(rational_rows(lat.rank))
    assert gram_of(lat, rows) == [[lat.pair(a, b) for b in rows] for a in rows]
    assert gram_of(lat, rows, cols) == [[lat.pair(a, b) for b in cols] for a in rows]


@PROPERTY
@given(even_lattices())
def test_discriminant_group_properties(lat):
    dg = discriminant_group(lat)
    assert math.prod(dg.orders) == abs(discriminant(lat))
    for x, order in zip(dg.generators, dg.orders):
        for j in range(lat.rank):
            unit = [int(i == j) for i in range(lat.rank)]
            assert Fraction(lat.pair(x, unit)).denominator == 1
        assert common_denominator(x) == order


@PROPERTY
@given(even_lattices())
def test_type2_matches_brute_force(lat):
    assert is_two_elementary_type2(discriminant_group(lat)) == brute_force_type2(lat)


def fractions(lo, hi):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 12))


@PROPERTY
@given(st.data())
def test_interval_matches_integer_scan(data):
    r = data.draw(fractions(0, 60))
    shift = data.draw(st.integers(-20, 20))
    # c = shift + r with bound r^2 puts both ends exactly on the boundary
    c = data.draw(st.one_of(fractions(-60, 60), st.integers(-5, 5), st.just(shift + r)))
    bound = data.draw(st.one_of(fractions(-10, 400), st.just(r * r)))
    # (x + a/b)^2 <= bound exactly when the integer (b*x + a)^2 is at most
    # floor(b^2 * bound)
    c = Fraction(c)
    lo, hi = _interval(c.numerator, c.denominator, math.floor(c.denominator ** 2 * bound))
    assert list(range(lo, hi + 1)) == [x for x in range(-200, 201)
                                       if (x + c) ** 2 <= bound]


@PROPERTY
@given(st.data())
def test_batched_solve_left(data):
    n = data.draw(st.integers(1, 6))
    r = data.draw(st.integers(1, n))
    entry = st.integers(-4, 4)
    b = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=r, max_size=r))
    assume(len(hnf_basis(b)) == r)
    coeffs = data.draw(rational_rows(r, max_rows=3))
    inside = [[sum(c[i] * b[i][j] for i in range(r)) for j in range(n)] for c in coeffs]
    others = data.draw(rational_rows(n, max_rows=3))
    vs = inside + others
    sols = solve_left_fraction(b, vs)
    assert len(sols) == len(vs)
    for v, sol in zip(vs, sols):
        den = math.lcm(*(x.denominator for x in v))
        in_span = len(hnf_basis(b + [[int(x * den) for x in v]])) == r
        assert (sol is not None) == in_span
        if sol is not None:
            assert [sum(sol[i] * b[i][j] for i in range(r)) for j in range(n)] == v


# ---------------------------------------------------------------------------
# root layer against the rational Fincke-Pohst search and the graph-component
# classifier it replaced, kept here as references


def _fraction_interval(c, bound):
    """The integers x with (x + c)^2 <= bound for rationals c and bound."""
    if bound < 0:
        return 1, 0
    a, b = c.numerator, c.denominator
    s = math.isqrt(b * b * bound.numerator // bound.denominator)
    return -((s + a) // b), (s - a) // b


def fraction_roots(lat):
    """Roots from the LDL^T factor of -den * G in Fractions:
    Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2 = 2 * den."""
    g = [[Fraction(-x) for x in row] for row in lat.gram]
    n = lat.rank
    d, u = [], []
    for i in range(n):            # Gaussian elimination, no pivoting
        p = g[i][i]
        d.append(p)
        u.append([g[i][j] / p for j in range(i + 1, n)])
        for r in range(i + 1, n):
            f = g[r][i] / p
            g[r] = [x - f * y for x, y in zip(g[r], g[i])]
    found = set()
    x = [0] * n

    def rec(i, rem):
        if i < 0:
            if rem == 0:
                v = tuple(x)
                first = next(c for c in v if c)
                found.add(v if first > 0 else tuple(-y for y in v))
            return
        c = sum(uij * xj for uij, xj in zip(u[i], x[i + 1:]))
        lo, hi = _fraction_interval(Fraction(c), rem / d[i])
        for xi in range(lo, hi + 1):
            x[i] = xi
            rec(i - 1, rem - d[i] * (xi + c) ** 2)
        x[i] = 0

    rec(n - 1, Fraction(2 * lat.den))
    return [list(v) for v in sorted(found)]


def graph_component_ade_type(lat, root_list):
    """Components of the graph on all roots (edges: nonzero pairings), each
    classified by the simple roots of its own positive system."""
    m = len(root_list)
    pm = gram_of(lat, root_list)
    comp_of = list(range(m))

    def find(i):
        while comp_of[i] != i:
            i = comp_of[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if pm[i][j] != 0:
                comp_of[find(i)] = find(j)
    comps = {}
    for i in range(m):
        comps.setdefault(find(i), []).append(tuple(root_list[i]))
    return sorted(_classify_by_simple_roots(lat, pairs) for pairs in comps.values())


def _classify_by_simple_roots(lat, pairs):
    full = pairs + [tuple(-x for x in v) for v in pairs]
    rng = random.Random("kummerlab.ade.functional")
    for _ in range(64):
        phi = [rng.randrange(-(1 << 24), 1 << 24) for _ in range(lat.rank)]
        vals = {v: sum(p * c for p, c in zip(phi, v)) for v in full}
        if 0 not in vals.values():
            break
    pos = sorted((v for v in full if vals[v] > 0), key=lambda v: vals[v])
    posset = set(pos)
    simple = []
    for v in pos:
        if all(tuple(a - b for a, b in zip(v, s)) not in posset for s in simple):
            simple.append(v)
    k = len(simple)
    sp = gram_of(lat, simple)
    if any(sp[i][j] not in (0, 1) for i in range(k) for j in range(i)):
        raise LatticeError("not a root system of ADE type")
    deg = [sum(1 for j in range(k) if j != i and sp[i][j]) for i in range(k)]
    if sum(deg) != 2 * (k - 1):
        raise LatticeError("not a root system of ADE type")
    kind = None
    if max(deg) <= 2:
        kind = ("A", k)
    elif deg.count(3) == 1 and max(deg) == 3:
        arms = []
        branch = deg.index(3)
        for start in (j for j in range(k) if j != branch and sp[branch][j]):
            prev, cur, length = branch, start, 1
            while nxt := [j for j in range(k) if j not in (prev, cur) and sp[cur][j]]:
                prev, cur, length = cur, nxt[0], length + 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            kind = ("D", k)
        elif arms == [1, 2, k - 4]:
            kind = ("E", k)
    expected = {"A": k * (k + 1) // 2, "D": k * (k - 1), "E": {6: 36, 7: 63, 8: 120}.get(k)}
    if kind is None or expected[kind[0]] != len(pairs):
        raise LatticeError("not a root system of ADE type")
    return kind


ROOT_BLOCKS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6)]


def root_lattices():
    return block_sums(ROOT_BLOCKS, 8)


@PROPERTY
@given(root_lattices(), st.booleans())
@example((ade_lattice("D", 4), None), True)
@example((direct_sum(ade_lattice("A", 2), ade_lattice("A", 1)), None), True)
def test_roots_match_the_fraction_search(case, halve):
    lat = case[0]
    if halve:
        lat = halved(lat)
    got = roots(lat)
    assert got == fraction_roots(lat)
    assert all(lat.norm(v) == -2 for v in got)


@PROPERTY
@given(root_lattices())
def test_ade_type_matches_the_graph_components(case):
    lat, blocks = case
    pairs = roots(lat)
    assert ade_type(lat, pairs) == graph_component_ade_type(lat, pairs) == blocks


@PROPERTY
@given(st.data())
def test_ade_type_ignores_order_and_signs(data):
    lat, blocks = data.draw(root_lattices())
    pairs = roots(lat)
    order = data.draw(st.permutations(range(len(pairs))))
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    shuffled = [[-x for x in pairs[i]] if flip else pairs[i]
                for i, flip in zip(order, flips)]
    assert ade_type(lat, shuffled) == blocks


def transpose(a):
    return [list(c) for c in zip(*a)]


@PROPERTY
@given(st.data())
def test_gram_of_orders_agree(data):
    # gram_of multiplies the shorter of rows and cols by G first: swapping
    # them switches the order, so both orders must give transposed results
    lat = data.draw(even_lattices())
    if data.draw(st.booleans()):
        lat = halved(lat)
    m = data.draw(st.integers(0, 4))
    k = data.draw(st.integers(0, 4).filter(lambda k: k != m))
    rows = data.draw(rational_rows(lat.rank, m, m))
    cols = data.draw(rational_rows(lat.rank, k, k))
    g = [[Fraction(x, lat.den) for x in row] for row in lat.gram]
    for a, b in ((rows, cols), (cols, rows)):
        assert gram_of(lat, a, b) == mat_mul(mat_mul(a, g), transpose(b))


# ---------------------------------------------------------------------------
# glue against the Fraction construction


def fraction_glue(l1, l2, gd):
    """`glue` on the Fraction basis, as (lattice, index, sub1, sub2): the
    Gram matrix of the glued basis in l1 (+) l2, the index from its
    determinant, and the factor coordinates from a full Bareiss solve."""
    n1, n2 = l1.rank, l2.rank
    orders = []
    for v1, v2 in zip(gd.m1, gd.m2):
        o1, o2 = common_denominator(v1), common_denominator(v2)
        if o1 != o2:
            raise LatticeError("glue map does not respect group orders")
        orders.append(o1)
    q = [[a + b for a, b in zip(r1, r2)]
         for r1, r2 in zip(gram_of(l1, gd.m1), gram_of(l2, gd.m2))]
    for coeffs in _subgroup_elements(orders):
        val = sum(ci * cj * q[i][j] for i, ci in enumerate(coeffs)
                  for j, cj in enumerate(coeffs))
        if _qmod2(val) != 0:
            raise LatticeError("glue data violates q1 + q2 = 0")
    rows = identity(n1 + n2) + [list(v1) + list(v2) for v1, v2 in zip(gd.m1, gd.m2)]
    den, (scaled,) = integer_scaled([rows])
    s = hnf_basis(scaled)
    basis = [[Fraction(x, den) for x in row] for row in s]
    gram = gram_of(direct_sum(l1, l2), basis)
    if common_denominator(x for row in gram for x in row) != 1:
        raise LatticeError("non-integral pairing in glued lattice")
    glued = fraction_lattice(gram)
    if not glued.is_even:
        raise LatticeError("glued lattice is not even")
    discriminant(l1)
    discriminant(l2)
    index = Fraction(den ** (n1 + n2), abs(det_bareiss(s)))
    m1_order = math.prod(orders)
    if index != m1_order:
        raise LatticeError(
            f"glue index {index} differs from |M1| = {m1_order}; dependent glue generators")
    coords = lattice_coords(basis, identity(n1 + n2))
    if None in coords:
        i = coords.index(None)
        raise LatticeError(f"factor L{1 if i < n1 else 2} not contained in glued lattice")
    return glued, index, coords[:n1], coords[n1:]


def _group_elements(lat):
    """The nonzero elements of the discriminant group, as sums of its
    generators mod 1."""
    dg = discriminant_group(lat)
    return [[sum(c * g[j] for c, g in zip(coeffs, dg.generators)) % 1
             for j in range(lat.rank)]
            for coeffs in _subgroup_elements(dg.orders) if any(coeffs)]


@st.composite
def glue_cases(draw):
    """(l1, l2, m1, m2): two block sums, each scaled by 1/2 one time in four,
    and up to three glue pairs from their discriminant groups.  Three times
    in four the pairs are drawn from those that agree in order and have
    q1 + q2 = 0, else from all pairs."""
    lats, elements = [], []
    for _ in range(2):
        lat = draw(block_sums(ROOT_BLOCKS, 10))[0]
        elements.append(_group_elements(lat))
        if draw(st.sampled_from((False, False, False, True))):
            lat = halved(lat)
        lats.append(lat)
    l1, l2 = lats
    pairs = [(x, y) for x in elements[0] for y in elements[1]]
    if draw(st.sampled_from((True, True, True, False))):
        q1 = [_qmod2(row[i]) for i, row in enumerate(gram_of(l1, elements[0]))]
        q2 = [_qmod2(row[i]) for i, row in enumerate(gram_of(l2, elements[1]))]
        pairs = [(x, y) for x, qx in zip(elements[0], q1) for y, qy in zip(elements[1], q2)
                 if common_denominator(x) == common_denominator(y)
                 and qx + qy in (0, 2)] or pairs
    glue_pairs = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
    return l1, l2, [x for x, _ in glue_pairs], [y for _, y in glue_pairs]


D4_GENERATORS = discriminant_group(ade_lattice("D", 4)).generators


@settings(PROPERTY, max_examples=100)
@given(glue_cases())
# a factor of denominator 2: G1 (+) 2 G2 over 2, not G1 (+) G2 over 2, or
# the glued Gram would be integral but odd
@example((halved(ade_lattice("A", 2)), ade_lattice("A", 1), [], []))
@example((ade_lattice("D", 4), ade_lattice("D", 4),
          [D4_GENERATORS[0]] * 2, [D4_GENERATORS[0]] * 2))
@example((ade_lattice("E", 6), ade_lattice("A", 2), [], []))
def test_glue_matches_the_fraction_reference(case):
    l1, l2, m1, m2 = case
    try:
        want = fraction_glue(l1, l2, GlueData(m1, m2))
    except LatticeError as err:
        with pytest.raises(LatticeError) as got:
            glue(l1, l2, GlueData(m1, m2))
        assert str(got.value) == str(err)
        return
    got = glue(l1, l2, GlueData(m1, m2))
    lat, index, sub1, sub2 = want
    assert (got.lattice.gram, got.lattice.den, got.lattice.labels) == \
        (lat.gram, lat.den, lat.labels)
    assert type(got.index) is int
    assert (got.index, got.sub1, got.sub2) == (index, sub1, sub2)


@pytest.mark.parametrize("k", [4, 8])
def test_glue_rejects_vectors_outside_the_duals(k):
    # (1/k)(e1 + ... + e4) is not in the dual of A_1^4, nor 1/k in that of
    # <8> for k = 8; q1 + q2 = -8/k^2 + 8/k^2 vanishes, so the glued Gram,
    # with pairings of denominator 2 (k = 4) or 4 (k = 8), is what fails
    gd = GlueData([[Fraction(1, k)] * 4], [[Fraction(1, k)]])
    for build in (glue, fraction_glue):
        with pytest.raises(LatticeError, match="^non-integral pairing in glued lattice$"):
            build(a1_sum(4), even_lattice([[8]]), gd)
