import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kummerlab.exactmat import (
    _xgcd,
    det_bareiss,
    det_fraction,
    hnf_basis,
    identity,
    integer_scaled,
    lattice_coords,
    left_kernel_basis,
    mat_inverse_fraction,
    mat_mul,
    saturation_basis,
    snf,
    solve_left,
    symmetric_bareiss,
    triangular_coords,
)
from kummerlab.lattice_core import Lattice, LatticeError, signature

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def rand_matrix(rng, rows, cols, lim=12):
    return [[rng.randrange(-lim, lim + 1) for _ in range(cols)] for _ in range(rows)]


def leibniz_det(a):
    """The permutation sum: an elimination-free reference determinant."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(a[i][perm[i]] for i in range(n))
    return total


def test_det_agrees_with_leibniz():
    rng = random.Random(1)
    for _ in range(150):
        n = rng.randrange(0, 6)
        a = rand_matrix(rng, n, n, lim=rng.choice([1, 12]))
        assert det_bareiss(a) == leibniz_det(a)
        q = [[Fraction(x, rng.randrange(1, 7)) for x in row] for row in a]
        assert det_fraction(q) == leibniz_det(q)


def minors_gcd(a, k, cols=None):
    """gcd of the k x k minors of a (over the given columns only, if any)."""
    cols = range(len(a[0])) if cols is None else cols
    return gcd(*(leibniz_det([[a[i][j] for j in cs] for i in rs])
                 for rs in combinations(range(len(a)), k)
                 for cs in combinations(cols, k)))


def test_hnf_row_space_preserved():
    rng = random.Random(2)
    for _ in range(100):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        a = rand_matrix(rng, rows, cols, lim=rng.choice([1, 12]))
        h = hnf_basis(a)
        # staircase: positive pivots in increasing columns, reduced above
        pivots = [next(j for j, x in enumerate(row) if x) for row in h]
        assert pivots == sorted(set(pivots))
        for i, (row, c) in enumerate(zip(h, pivots)):
            assert row[c] > 0
            assert all(0 <= h[k][c] < row[c] for k in range(i))
        # every row of a is an integer combination of the rows of h
        for v in a:
            v = v[:]
            for row, c in zip(h, pivots):
                q, rem = divmod(v[c], row[c])
                assert rem == 0
                v = [x - q * y for x, y in zip(v, row)]
            assert not any(v)
        # and the rows of a generate all of it: with a = C * h, the r x r
        # minors of a on the pivot columns are det(C_rows) * prod(pivots)
        r = len(h)
        assert minors_gcd(a, r, pivots) == prod(row[c] for row, c in zip(h, pivots))


def test_snf_transforms_and_divisibility():
    rng = random.Random(3)
    for _ in range(300):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        a = rand_matrix(rng, rows, cols, lim=rng.choice([1, 12]))
        d, u = snf(a)
        assert len(d) == min(rows, cols)
        assert abs(det_bareiss(u)) == 1
        r = sum(1 for x in d if x)
        assert all(x > 0 for x in d[:r]) and not any(d[r:])
        for x, y in zip(d[:r], d[1:r]):
            assert y % x == 0
        ua = mat_mul(u, a)
        for i, row in enumerate(ua):
            if i < r:
                assert all(x % d[i] == 0 for x in row)
            else:
                assert not any(row)
        for k in range(1, len(d) + 1):
            assert prod(d[:k]) == minors_gcd(a, k)


def full_scan_snf(a):
    """`snf` as it was before its pivot scan stopped at a unit: every pass
    scans the whole remaining block for the first entry of least absolute
    value, checks every entry for divisibility by the pivot, and every
    column clear touches every row.  `snf` must return the same (d, U)."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if m else 0
    u = identity(rows)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def bezout_rows(t, i):
        g, x, y = _xgcd(m[t][t], m[i][t])
        p, q = m[t][t] // g, m[i][t] // g
        mt, mi = m[t], m[i]
        m[t] = [x * a_ + y * b_ for a_, b_ in zip(mt, mi)]
        m[i] = [-q * a_ + p * b_ for a_, b_ in zip(mt, mi)]
        ut, ui = u[t], u[i]
        u[t] = [x * a_ + y * b_ for a_, b_ in zip(ut, ui)]
        u[i] = [-q * a_ + p * b_ for a_, b_ in zip(ut, ui)]

    def bezout_cols(t, j):
        g, x, y = _xgcd(m[t][t], m[t][j])
        p, q = m[t][t] // g, m[t][j] // g
        for row in m:
            at, aj = row[t], row[j]
            row[t] = x * at + y * aj
            row[j] = -q * at + p * aj

    def addmul_row(dst, src, q):
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in m:
            row[dst] += q * row[src]

    t = 0
    while t < min(rows, cols):
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0:
                    if piv is None or abs(m[i][j]) < abs(m[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    if m[i][t] % m[t][t] == 0:
                        addmul_row(i, t, -(m[i][t] // m[t][t]))
                    else:
                        bezout_rows(t, i)
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    if m[t][j] % m[t][t] == 0:
                        addmul_col(j, t, -(m[t][j] // m[t][t]))
                    else:
                        bezout_cols(t, j)
            if all(m[i][t] == 0 for i in range(t + 1, rows)) and \
               all(m[t][j] == 0 for j in range(t + 1, cols)):
                break
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            m[t] = [x + y for x, y in zip(m[t], m[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    d = [m[i][i] if i < cols else 0 for i in range(min(rows, cols))]
    return d, u


@st.composite
def smith_cases(draw):
    """An integer matrix of up to 7 x 7, sparse or dense, whose entries
    include units or avoid them (so that no pivot scan stops early)."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    values = draw(st.sampled_from(((-2, -1, 1, 3), (-6, -4, -3, -2, 2, 3, 4, 6, 9))))
    entry = st.sampled_from(values)
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), entry)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@PROPERTY
@given(smith_cases())
@example([[4, 6], [6, 9]])
@example([[2, 0, 0], [0, 3, 0], [0, 0, 1]])
@example([[0, 1], [1, 0], [-1, 1]])
def test_snf_matches_the_full_scan_reference(a):
    assert snf(a) == full_scan_snf(a)


def test_snf_matches_the_full_scan_reference_on_lattice_sizes():
    """Gram-like and generator-like matrices of the sizes `glue` and
    `discriminant_group` see: 22 x 22 and 16 x 22, 10% to fully dense."""
    rng = random.Random(5)
    for rows, cols, density in ((22, 22, 0.35), (16, 22, 0.15), (22, 22, 1.0),
                                (6, 22, 0.5), (12, 12, 0.1)):
        for lim in (1, 4):
            a = [[rng.randint(-lim, lim) if rng.random() < density else 0
                  for _ in range(cols)] for _ in range(rows)]
            assert snf(a) == full_scan_snf(a)


def test_saturation_basis_index():
    basis, index = saturation_basis([[2, 0], [0, 3]])
    assert index == 6
    assert hnf_basis(basis) == [[1, 0], [0, 1]]
    basis, index = saturation_basis([[2, 4]])
    assert index == 2
    assert basis == [[1, 2]]


def test_left_kernel():
    rng = random.Random(4)
    for _ in range(100):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        a = rand_matrix(rng, rows, cols)
        kern = left_kernel_basis(a)
        for x in kern:
            assert all(sum(x[i] * a[i][j] for i in range(rows)) == 0
                       for j in range(cols))
        d, _ = snf(a)
        rank = sum(1 for x in d if x)
        assert len(kern) == rows - rank


def test_signature_on_known_forms():
    assert signature(Lattice([[2, 0], [0, -3]])) == (1, 1)
    # hyperbolic plane: signature (1, 1) despite zero diagonal
    assert signature(Lattice([[0, 1], [1, 0]])) == (1, 1)
    assert signature(Lattice([[-2, 1], [1, -2]])) == (0, 2)
    with pytest.raises(LatticeError, match="degenerate"):
        signature(Lattice([[2, 2], [2, 2]]))


def rational_matrices(n, lo=-6, hi=6):
    entry = st.builds(Fraction, st.integers(lo, hi), st.integers(1, 5))
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


@PROPERTY
@given(st.integers(1, 5).flatmap(rational_matrices))
def test_inverse_times_matrix_is_identity(a):
    n = len(a)
    if leibniz_det(a) == 0:
        with pytest.raises(ValueError, match="singular matrix"):
            mat_inverse_fraction(a)
    else:
        assert mat_mul(mat_inverse_fraction(a), a) == identity(n)


@PROPERTY
@given(st.data())
def test_inverse_rejects_singular(data):
    n = data.draw(st.integers(1, 5))
    a = data.draw(rational_matrices(n))
    # row k is a rational combination of the other rows
    k = data.draw(st.integers(0, n - 1))
    coeffs = data.draw(rational_matrices(1)).pop() * n
    a[k] = [sum(coeffs[i] * a[i][j] for i in range(n) if i != k) for j in range(n)]
    with pytest.raises(ValueError, match="singular matrix"):
        mat_inverse_fraction(a)


@st.composite
def diagonal_and_steps(draw):
    """An integer diagonal D (zeros allowed) and row operations making P."""
    n = draw(st.integers(1, 6))
    diag = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.integers(-3, 3)), max_size=3 * n))
    return diag, steps


@PROPERTY
@given(diagonal_and_steps())
# random P almost never needs the sum trick e_i += e_j; these two do, after one
# pivot (the Schur complement is a hyperbolic plane), the second with a zero in D
@example(([1, -1, 1], [(1, 2, -1), (0, 1, -1)]))
@example(([1, 1, 0, -1], [(3, 1, -1), (0, 3, -1)]))
def test_symmetric_bareiss_keeps_inertia(case):
    """Sylvester: P D P^T has the sign counts of D for unimodular P.

    The pivots p_k of g give a congruent diagonal p_k / p_{k-1} (p_-1 = 1),
    padded with zeros once the remaining block vanishes; `signature` reads
    the same signs on nondegenerate g.
    """
    diag, steps = case
    n = len(diag)
    p = identity(n)
    for i, j, c in steps:
        if i != j:
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    pd = [[x * diag[j] for j, x in enumerate(row)] for row in p]
    g = mat_mul(pd, [list(col) for col in zip(*p)])
    pivots, _rows = symmetric_bareiss(g)
    assert 0 not in pivots
    signs = [(x > 0) - (x < 0) for x in (a * b for a, b in zip(pivots, [1] + pivots))]
    signs += [0] * (n - len(pivots))
    # every congruence step is unimodular, so det g = prod D = p_{n-1}
    assert (pivots[-1] if len(pivots) == n else 0) == leibniz_det(g)
    for sign in (1, 0, -1):
        assert signs.count(sign) == sum((x > 0) - (x < 0) == sign for x in diag)
    if 0 in diag:
        with pytest.raises(LatticeError, match="degenerate"):
            signature(Lattice(g))
    else:
        assert signature(Lattice(g)) == (signs.count(1), signs.count(-1))


def fraction_solve(b, v):
    """The c with c * b = v, by Gauss-Jordan in Fractions; None if none."""
    r, n = len(b), len(v)
    m = [[Fraction(b[i][j]) for i in range(r)] + [Fraction(v[j])] for j in range(n)]
    row = 0
    for c in range(r):
        piv = next(i for i in range(row, n) if m[i][c])  # b has full row rank
        m[row], m[piv] = m[piv], m[row]
        m[row] = [x / m[row][c] for x in m[row]]
        for i in range(n):
            if i != row and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[row])]
        row += 1
    if any(m[i][r] for i in range(r, n)):
        return None
    return [m[i][r] for i in range(r)]


@st.composite
def solve_cases(draw):
    """A full-row-rank b (integer or rational) and right-hand sides in its
    integer span, in its rational span only, and arbitrary ones."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, n))
    entry = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4),
                                                     st.integers(1, 3)))
    b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    assume(len(hnf_basis(integer_scaled([b])[1][0])) == r)
    coeffs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r),
                           max_size=3))
    coeffs += draw(st.lists(st.lists(st.builds(Fraction, st.integers(-3, 3),
                                               st.integers(2, 4)),
                                     min_size=r, max_size=r), max_size=3))
    vs = [[sum(c[i] * b[i][j] for i in range(r)) for j in range(n)] for c in coeffs]
    vs += draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                        max_size=3))
    return b, vs


NEGATIVE_PIVOT = ([[1, 0, 2], [0, -1, 1]], [[1, -1, 3], [1, 1, 1], [Fraction(1, 2), 0, 1],
                                            [0, 0, 1]])


@PROPERTY
@given(solve_cases())
@example(NEGATIVE_PIVOT)
@example(([[2, 1], [1, -1]], [[3, 0], [1, 2], [1, 0]]))
def test_solve_left_and_lattice_coords_match_fractions(case):
    b, vs = case
    p, sols = solve_left(b, vs)
    coords = lattice_coords(b, vs)
    assert p != 0 and len(sols) == len(coords) == len(vs)
    for v, sol, c in zip(vs, sols, coords):
        ref = fraction_solve(b, v)
        if ref is None:
            assert sol is None and c is None
            continue
        assert [Fraction(x, p) for x in sol] == ref
        if all(x.denominator == 1 for x in ref):
            assert c == ref
        else:
            assert c is None


def test_solve_left_negative_last_pivot():
    b, vs = NEGATIVE_PIVOT
    p, sols = solve_left(b, vs)
    assert p < 0
    assert lattice_coords(b, vs) == [[1, 1], [1, -1], None, None]
    assert [None if s is None else [Fraction(x, p) for x in s] for s in sols] == \
        [[1, 1], [1, -1], [Fraction(1, 2), 0], None]


def schoolbook(a, b):
    """a * b entry by entry; with no rows in b, the product has no columns."""
    p = len(b[0]) if b else 0
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), 0) for j in range(p)]
            for i in range(len(a))]


@st.composite
def products(draw):
    """(a, b) of shapes m x k and k x p, all ints or all Fractions, dense or
    about half zeros; m, k and p may be 0, and m = p = 1 gives the
    1 x k * k x 1 case."""
    m, k, p = (draw(st.integers(0, 5)) for _ in range(3))
    entry = draw(st.sampled_from((
        st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))))
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), entry)
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(entry, min_size=p, max_size=p), min_size=k, max_size=k))
    return a, b


@PROPERTY
@given(products())
@example(([], [[1, 2]]))
@example(([[], []], []))
@example(([[1, 2, 3]], [[4], [5], [6]]))
@example(([[Fraction(1, 2), 1]], [[Fraction(2, 3)], [Fraction(-1, 3)]]))
@example(([[1, 2]], [[], []]))
@example(([[0, 0], [0, 3]], [[1, 2], [3, 4]]))
def test_mat_mul_matches_the_schoolbook(case):
    a, b = case
    assert mat_mul(a, b) == schoolbook(a, b)


def test_mat_mul_matches_the_schoolbook_on_lattice_sizes():
    """The shapes of the glue products (22 x 16 by 16 x 16, 22 x 22 by
    22 x 22, a row by 22 x 22) at densities from 10% to full, in ints and
    Fractions."""
    rng = random.Random(6)

    def rand(rows, cols, density, frac):
        return [[(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if frac
                  else rng.randint(-5, 5)) if rng.random() < density else 0
                 for _ in range(cols)] for _ in range(rows)]

    for m, k, p in ((22, 16, 16), (22, 22, 22), (1, 22, 22), (16, 16, 16)):
        for density in (0.1, 0.4, 1.0):
            for frac in (False, True):
                a, b = rand(m, k, density, frac), rand(k, p, 1.0, frac)
                assert mat_mul(a, b) == schoolbook(a, b)


@st.composite
def triangular_cases(draw):
    """(s, vs): an n x n upper-triangular integer s with nonzero diagonal,
    dense or mostly zero above it, integer combinations of its rows, and
    integer vectors that may lie outside their integer span."""
    n = draw(st.integers(1, 8))
    above = st.integers(-6, 6)
    if draw(st.booleans()):
        above = st.one_of(st.just(0), st.just(0), above)
    s = [[0] * i + [draw(st.integers(-4, 4).filter(bool))]
         + draw(st.lists(above, min_size=n - i - 1, max_size=n - i - 1))
         for i in range(n)]
    coeffs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           max_size=3))
    vs = [[sum(c * row[j] for c, row in zip(cs, s)) for j in range(n)] for cs in coeffs]
    vs += draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                        max_size=3))
    return s, vs


@PROPERTY
@given(triangular_cases())
@example(([[2, 1], [0, 3]], [[2, 1], [1, 0], [0, 3], [2, 4]]))
def test_triangular_coords_match_lattice_coords(case):
    s, vs = case
    assert triangular_coords(s, vs) == lattice_coords(s, vs)
