"""Exact integer and rational matrix routines (no external CAS).

All matrices are lists of lists of ints or Fractions.  `mat_mul` is the
one product kernel: row i of a * b is the combination of the rows of b by
the nonzero entries of row i of a, so it multiplies ints and Fractions
alike, skips every zero coefficient, and every Gram matrix of the lattice
layer goes through it with the sparse factor on the left.  Every other
routine computes in Python integers: a rational input is first scaled to
integers over one common denominator (`integer_scaled`).  Two
fraction-free (Bareiss) loops do all the elimination besides the Hermite
and Smith forms: `_bareiss` (Gauss-Jordan; determinants and solving) and
`symmetric_bareiss` (congruence on an integer matrix; its pivot signs give
signatures, and its pivots the positive-definite factor for root
enumeration).  `solve_left` returns integer numerators over the last
Bareiss pivot; `lattice_coords` keeps the integral solutions, and the
Fraction views build Fractions only for their results.  Every square
Hermite basis the package solves against (a glued basis, a code
overlattice basis, the Kummer frame bases) is upper triangular, and
`triangular_coords` gives its integral solutions by substitution over the
nonzero entries above the diagonal, with no elimination.  The Smith
form takes as pivot the first entry of least absolute value, and its scan
stops at the first unit; its diagonal gives saturation indices and its row
transform U left kernels.  These back the lattice layer.
"""

from fractions import Fraction
from math import lcm


def mat_copy(a):
    return [row[:] for row in a]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def common_denominator(values):
    """The least common denominator of an iterable of ints and Fractions."""
    return lcm(*(x.denominator for x in values))


def integer_scaled(mats):
    """(den, scaled): den is the common denominator of every entry of `mats`,
    and scaled holds each matrix times den, with int entries."""
    den = common_denominator(x for m in mats for row in m for x in row)
    return den, [[[x.numerator * (den // x.denominator) for x in row] for row in m]
                 for m in mats]


def mat_mul(a, b):
    """The product a * b; with no rows in b, it has no columns.

    Row i is the combination of the rows of b by the nonzero entries of
    row i of a, so a sparse left factor costs only its nonzeros.
    """
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(acc)
    return out


def _bareiss(m, ncols):
    """Fraction-free Gauss-Jordan elimination of the integer matrix m, in place.

    Pivots are taken in the first ncols columns.  Returns (cols, sign, p):
    the pivot column of each pivot row (rows 0 .. len(cols) - 1), the sign
    of the row permutation, and the last pivot p (1 if there is none).
    Afterwards m is p times its reduced row echelon form in the pivot rows,
    and the rows below them are zero in the first ncols columns.  Every
    entry stays a minor of the input, so each division by the previous
    pivot is exact (Bareiss, Math. Comp. 22, 1968).
    """
    cols, sign, prev = [], 1, 1
    for c in range(ncols):
        r = len(cols)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        cols.append(c)
        prev = p
    return cols, sign, prev


def det_bareiss(a):
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = mat_copy(a)
    cols, sign, p = _bareiss(m, len(m))
    return sign * p if len(cols) == len(m) else 0


def det_fraction(a):
    """Determinant of a square matrix with Fraction/int entries."""
    den, (m,) = integer_scaled([a])
    return Fraction(det_bareiss(m), den ** len(m))


def hnf_basis(a):
    """Nonzero rows of the row-style Hermite normal form of an integer matrix.

    They are a Z-basis of the row module of a, in upper-staircase form with
    positive pivots and reduced entries above each pivot.
    """
    m = mat_copy(a)
    rows = len(m)
    cols = len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        # clear below via gcd steps
        for i in range(r + 1, rows):
            while m[i][c] != 0:
                q = m[r][c] // m[i][c]
                m[r] = [x - q * y for x, y in zip(m[r], m[i])]
                if m[r][c] == 0:
                    m[r], m[i] = m[i], m[r]
                    break
                q = m[i][c] // m[r][c]
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return m[:r]


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a,b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def snf(a):
    """Smith normal form with the row transform.

    Returns (d, U) with U*a*V = D for some unimodular V, D diagonal (d = its
    diagonal, padded with zeros), d[i] >= 0 and d[i] | d[i+1]; U unimodular.
    So row i of U*a is divisible by d[i], and it is zero where d[i] = 0.
    Elimination uses Bezout 2x2 transforms to keep entries small.
    """
    m = mat_copy(a)
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
            if row[src]:
                row[dst] += q * row[src]

    t = 0
    while t < min(rows, cols):
        # the first entry of least absolute value, in row-major order; no
        # later entry beats a unit, so the scan stops at the first one
        piv, best = None, 0
        for i in range(t, rows):
            row = m[i]
            for j in range(t, cols):
                x = abs(row[j])
                if x and (piv is None or x < best):
                    piv, best = (i, j), x
                    if x == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # Exact-division clears leave the pivot alone and never dirty
            # the cleared line; Bezout steps strictly shrink |pivot|, so
            # this loop terminates.
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
            # the column pass leaves row t clear, but a Bezout column step
            # can refill column t below the pivot
            if not any(m[i][t] for i in range(t + 1, rows)):
                break
        # enforce divisibility of the remaining block by the pivot, which
        # a unit pivot has already
        bad = None
        p = m[t][t]
        if abs(p) != 1:
            bad = next((i for i in range(t + 1, rows)
                        if any(x % p for x in m[i][t + 1:])), None)
        if bad is not None:
            m[t] = [x + y for x, y in zip(m[t], m[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    d = [m[i][i] if i < cols else 0 for i in range(min(rows, cols))]
    d += [0] * (min(rows, cols) - len(d))
    return d, u


def mat_inverse_fraction(a):
    """Inverse of a nonsingular matrix over Q (entries Fraction/int)."""
    rows = solve_left_fraction(a, identity(len(a)))
    if None in rows:
        raise ValueError("singular matrix")
    return rows


def solve_left(b, vs):
    """Solve c * b = v over Q for each v in vs, with one elimination.

    b is a full-row-rank matrix with r rows and n >= r columns; each v has
    length n.  Returns (p, sols): p is the last Bareiss pivot, a nonzero
    int of either sign, and each solution is the int row p * c, or None
    where c * b = v has no solution.
    """
    r = len(b)
    n = len(b[0]) if b else 0
    den, (bs, vss) = integer_scaled([b, vs])
    # the n x r system b^T, augmented by one column per right-hand side;
    # scaling both sides by den leaves the solutions unchanged
    m = [[bs[i][j] for i in range(r)] + [v[j] for v in vss] for j in range(n)]
    cols, _sign, p = _bareiss(m, r)
    sols = []
    for t in range(r, r + len(vs)):
        if any(row[t] for row in m[len(cols):]):
            sols.append(None)
            continue
        sol = [0] * r
        for row, c in zip(m, cols):
            sol[c] = row[t]
        sols.append(sol)
    return p, sols


def lattice_coords(b, vs):
    """The integer solutions c of c * b = v, one per v in vs; None where
    v is not in the integer row span of the full-row-rank matrix b."""
    p, sols = solve_left(b, vs)
    return [None if s is None or any(x % p for x in s) else [x // p for x in s]
            for s in sols]


def triangular_coords(s, vs):
    """`lattice_coords` for a square upper-triangular integer s with nonzero
    diagonal: each c with c * s = v comes from substitution down the columns
    of s, and is None where a division leaves a remainder.

    All of vs are solved at once, column by column: column j of the
    solutions is column j of vs, less s[i][j] times column i of the
    solutions for each nonzero s[i][j] above the diagonal, over s[j][j].
    """
    sols, exact = [], [True] * len(vs)
    for j, col in enumerate(zip(*s)):
        acc = [v[j] for v in vs]
        for i, x in enumerate(col[:j]):
            if x:
                acc = [a - x * c for a, c in zip(acc, sols[i])]
        p = col[j]
        sols.append([a // p for a in acc])
        exact = [e and not a % p for e, a in zip(exact, acc)]
    return [[c[k] for c in sols] if e else None for k, e in enumerate(exact)]


def solve_left_fraction(b, vs):
    """`solve_left` with each solution as a row of Fractions."""
    p, sols = solve_left(b, vs)
    return [None if s is None else [Fraction(x, p) for x in s] for s in sols]


def saturation_basis(gens):
    """Basis of the saturation of the row module of `gens` inside Z^n.

    Returns (basis_rows, index) where index = [saturation : module].
    """
    work = [row for row in gens if any(row)]
    if not work:
        return [], 1
    d, u = snf(work)
    r = sum(1 for x in d if x != 0)
    # U*A*V = D, so row i < r of V^-1 (a saturated basis) is (U*A)[i] / d_i
    sat = [[x // d[i] for x in row]
           for i, row in enumerate(mat_mul(u[:r], work))]
    index = 1
    for x in d[:r]:
        index *= x
    return hnf_basis(sat), index


def left_kernel_basis(a):
    """Basis of {x in Z^rows : x * a = 0} for an integer matrix a."""
    d, u = snf(a)
    r = sum(1 for x in d if x != 0)
    return [u[i][:] for i in range(r, len(a))]


def symmetric_bareiss(g):
    """Fraction-free congruence elimination of an integer symmetric matrix.

    Returns (pivots, rows).  pivots[k] is the k-th leading principal minor
    of g after the pivoting, and rows[k] the k-th pivot row from the pivot
    on, so that D_k = pivots[k] / pivots[k-1] are the diagonal entries of
    P g P^T = D for some P, and rows[k][j] / pivots[k] the entries of the
    unit upper-triangular factor.  A zero diagonal pivot is replaced by the
    first nonzero later diagonal entry, else by the sum trick e_i += e_j;
    elimination stops when the remaining block is zero.  When every pivot
    is positive no pivoting happened and g = U^T D U in its own order.
    """
    m = [list(row) for row in g]
    pivots, rows, prev = [], [], 1
    while m:
        piv = next((i for i in range(len(m)) if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(len(m)) for j in range(i + 1, len(m))
                         if m[i][j]), None)
            if pair is None:
                break
            # row/col op: e_i += e_j makes the diagonal entry 2 * m[i][j]
            piv, j = pair
            m[piv] = [x + y for x, y in zip(m[piv], m[j])]
            for row in m:
                row[piv] += row[j]
        if piv:
            m[0], m[piv] = m[piv], m[0]
            for row in m:
                row[0], row[piv] = row[piv], row[0]
        top = m[0]
        p = top[0]
        pivots.append(p)
        rows.append(top)
        m = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
             for row in m[1:]]
        prev = p
    return pivots, rows
