"""Exact integer and rational matrix routines (no external CAS).

All matrices are lists of lists.  Integer routines use Python bignums;
rational routines use fractions.Fraction.  These back the lattice layer:
determinants, Hermite/Smith normal forms with transforms, saturation,
membership solving and symmetric diagonalization.
"""

from fractions import Fraction


def mat_copy(a):
    return [row[:] for row in a]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    bt = [[b[r][c] for r in range(k)] for c in range(m)]
    return [[sum(row[i] * col[i] for i in range(k)) for col in bt] for row in a]


def det_bareiss(a):
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = mat_copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det_fraction(a):
    """Determinant of a square matrix with Fraction/int entries."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][k] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] * inv
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return det


def hnf_rows(a):
    """Row-style Hermite normal form of an integer matrix.

    Returns (H, U) with U unimodular, U*a == H, H upper-staircase with
    positive pivots and reduced entries above each pivot.  Zero rows of H
    are trailing.
    """
    m = mat_copy(a)
    rows = len(m)
    cols = len(m[0]) if m else 0
    u = identity(rows)
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
        u[r], u[piv] = u[piv], u[r]
        # clear below via gcd steps
        for i in range(r + 1, rows):
            while m[i][c] != 0:
                q = m[r][c] // m[i][c]
                m[r] = [x - q * y for x, y in zip(m[r], m[i])]
                u[r] = [x - q * y for x, y in zip(u[r], u[i])]
                if m[r][c] == 0:
                    m[r], m[i] = m[i], m[r]
                    u[r], u[i] = u[i], u[r]
                    break
                q = m[i][c] // m[r][c]
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == rows:
            break
    return m, u


def hnf_basis(a):
    """Nonzero rows of the HNF of a: a Z-basis of the row module."""
    h, _ = hnf_rows(a)
    return [row for row in h if any(row)]


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
    """Smith normal form with transforms.

    Returns (d, U, V) with U*a*V = D, D diagonal (d = its diagonal,
    padded with zeros), d[i] >= 0 and d[i] | d[i+1]; U, V unimodular.
    Elimination uses Bezout 2x2 transforms to keep entries small.
    """
    m = mat_copy(a)
    rows = len(m)
    cols = len(m[0]) if m else 0
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
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
        for row in v:
            at, aj = row[t], row[j]
            row[t] = x * at + y * aj
            row[j] = -q * at + p * aj

    def addmul_row(dst, src, q):
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
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
            if all(m[i][t] == 0 for i in range(t + 1, rows)) and \
               all(m[t][j] == 0 for j in range(t + 1, cols)):
                break
        # enforce divisibility of the remaining block by the pivot
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
    d += [0] * (min(rows, cols) - len(d))
    return d, u, v


def mat_inverse_fraction(a):
    """Inverse of a nonsingular matrix over Q (entries Fraction/int)."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][k] != 0:
                piv = i
                break
        if piv is None:
            raise ValueError("singular matrix")
        m[k], m[piv] = m[piv], m[k]
        inv = 1 / m[k][k]
        m[k] = [x * inv for x in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [row[n:] for row in m]


def solve_left_fraction(b, vs):
    """Solve c * b = v over Q for each v in vs, with one elimination.

    b is a full-row-rank matrix with r rows and n >= r columns; each v has
    length n.  Returns one solution per v, None where c * b = v has none.
    """
    r = len(b)
    n = len(b[0]) if b else 0
    # the n x r system b^T, augmented by one column per right-hand side
    m = [[Fraction(b[i][j]) for i in range(r)] + [Fraction(v[j]) for v in vs]
         for j in range(n)]
    piv_cols = []
    row = 0
    for col in range(r):
        piv = None
        for i in range(row, n):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for i in range(n):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[row])]
        piv_cols.append(col)
        row += 1
    out = []
    for t, v in enumerate(vs):
        sol = [Fraction(0)] * r
        for i, col in enumerate(piv_cols):
            sol[col] = m[i][r + t]
        # consistency check
        consistent = all(sum(sol[i] * b[i][j] for i in range(r)) == v[j]
                         for j in range(n))
        out.append(sol if consistent else None)
    return out


def saturation_basis(gens, n):
    """Basis of the saturation of the row module of `gens` inside Z^n.

    Returns (basis_rows, index) where index = [saturation : module].
    """
    work = [row for row in gens if any(row)]
    if not work:
        return [], 1
    d, u_, v = snf(work)
    r = sum(1 for x in d if x != 0)
    vinv = mat_inverse_fraction(v)
    sat = []
    for i in range(r):
        row = [vinv[i][j] for j in range(n)]
        assert all(x.denominator == 1 for x in map(Fraction, row))
        sat.append([int(Fraction(x)) for x in row])
    index = 1
    for x in d[:r]:
        index *= x
    return hnf_basis(sat), index


def left_kernel_basis(a):
    """Basis of {x in Z^rows : x * a = 0} for an integer matrix a."""
    d, u, _v = snf(a)
    r = sum(1 for x in d if x != 0)
    return [u[i][:] for i in range(r, len(a))]


def symmetric_diagonalize(g):
    """Exact symmetric diagonalization of a rational symmetric matrix.

    Returns the list of diagonal entries of D for some P with P g P^T = D
    (congruence, not similarity).  Signs of the entries give the signature.
    """
    n = len(g)
    m = [[Fraction(x) for x in row] for row in g]
    diag = []
    for k in range(n):
        # find a nonzero diagonal pivot, possibly after a "sum trick"
        piv = None
        for i in range(k, n):
            if m[i][i] != 0:
                piv = i
                break
        if piv is None:
            found = False
            for i in range(k, n):
                for j in range(i + 1, n):
                    if m[i][j] != 0:
                        # row/col op: e_i += e_j makes diagonal entry 2*m[i][j]
                        for t in range(n):
                            m[i][t] += m[j][t]
                        for t in range(n):
                            m[t][i] += m[t][j]
                        piv = i
                        found = True
                        break
                if found:
                    break
            if piv is None:
                diag.extend(Fraction(0) for _ in range(k, n))
                break
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            for row in m:
                row[k], row[piv] = row[piv], row[k]
        d = m[k][k]
        diag.append(d)
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / d
                for t in range(n):
                    m[i][t] -= f * m[k][t]
                for t in range(n):
                    m[t][i] -= f * m[t][k]
    return diag
