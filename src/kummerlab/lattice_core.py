"""Exact arithmetic on integral symmetric bilinear forms.

Lattices are free Z-modules with a symmetric pairing given by a Gram
matrix G, stored as the integer matrix den * G with den in {1, 2}.
Vectors are row tuples of coordinates in the lattice basis, with integer
or rational entries.  Every Gram or cross-pairing matrix is one integer
product rows * (cols * (den * G))^T over a common denominator
(`gram_of`), in that one order, so that both products have a coordinate
matrix, the sparse factor, on the left; `Lattice.pair` is the
pair-by-pair reference.  Discriminant groups come from the Smith normal
form U * G * V = D of the integer Gram: the generators are the rows
U[i] / d_i mod Z^n, and each q-value is the integer w G w^T for
w = U[i] mod d_i, over d_i^2.  Determinants, signatures
(signs of consecutive pivots) and lattice coordinates use the fraction-free
integer eliminations of `exactmat`; roots come from one symmetric
elimination of -den * G, whose pivots both prove negative definiteness and
give an integer Fincke-Pohst search its weights: the remaining norm is one
int over the lcm of the LDL^T denominators.  The ADE type of a root set is
read off one simple system, picked by an integer functional.  Even
overlattices come from glue data on discriminant groups: the glued basis
is S / den, for the integer Hermite basis S of den * I and the den-scaled
glue vectors.  `glue` checks q1 + q2 = 0 on the glue subgroup in integers
over one common denominator.  S is upper triangular with positive pivots,
so everything else `glue` proves is read off it in integers: the index
over the direct sum is den^n / prod(diag S), the glued Gram is one integer
block product S_k (den_k G_k) S_k^T per factor over
lcm(den_1, den_2) * den^2, and the factor coordinates, the rows of
den * S^-1, come from triangular substitution.  `saturation` gives the
index of a sublattice in its saturation from the Smith diagonal, and
`embed_kummer` is where saturation of the glued factors is verified.

Every lattice the package builds is integral (code overlattices from
`mod4_overlattice` included); denominator 2 comes only from outside
input, such as a lattice file.  The even-lattice constructor rejects
non-integral input.
"""

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul

from . import KummerlabError
from .exactmat import (
    common_denominator,
    det_bareiss,
    hnf_basis,
    identity,
    integer_scaled,
    mat_mul,
    snf,
    symmetric_bareiss,
    triangular_coords,
)


class LatticeError(KummerlabError):
    pass


class Lattice:
    """A finitely generated symmetric bilinear form over Z (or (1/2)Z).

    `gram` holds den * G as tuples of ints, where den in {1, 2} is the
    common denominator of the entries of G (ints or Fractions).
    """

    def __init__(self, gram, labels=None):
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise LatticeError("gram matrix must be square")
        den, (g,) = integer_scaled([gram])
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
            raise LatticeError("gram matrix must be symmetric")
        if den not in (1, 2):
            raise LatticeError("gram entries must have denominator 1 or 2")
        if labels is not None and len(labels) != n:
            raise LatticeError(f"{len(labels)} labels for a rank-{n} lattice; "
                               f"expected one label per row")
        self.gram = tuple(map(tuple, g))
        self.den = den
        self.rank = n
        self.labels = list(labels) if labels is not None else None

    @property
    def is_integral(self):
        return self.den == 1

    @property
    def is_even(self):
        return self.is_integral and all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @functools.cached_property
    def det(self):
        """det of the Gram matrix, exact; computed once per lattice."""
        return Fraction(det_bareiss(self.gram), self.den ** self.rank)

    def pair(self, v, w):
        g = self.gram
        return Fraction(sum(v[i] * sum(g[i][j] * w[j] for j in range(self.rank))
                            for i in range(self.rank)), self.den)

    def norm(self, v):
        return self.pair(v, v)

    def gram_int(self):
        if not self.is_integral:
            raise LatticeError("lattice is not integral")
        return [list(row) for row in self.gram]

    def __repr__(self):
        return f"Lattice(rank={self.rank})"


def even_lattice(gram, labels=None):
    """Construct a lattice, insisting on an even integral Gram matrix."""
    lat = Lattice(gram, labels)
    if not lat.is_integral:
        raise LatticeError("even lattice requires an integral gram matrix")
    if not lat.is_even:
        raise LatticeError("even lattice requires even diagonal entries")
    return lat


def _pairing_numerators(lat, rows, cols=None):
    """(num, den): the integer matrix num with rows * G * cols^T = num / den.

    Rows and cols are scaled to integers rs and cs over one common
    denominator d, so den = d^2 * lat.den, and G being symmetric, num is
    rs * (cs * lat.gram)^T: both products have a coordinate matrix, the
    sparse factor, on the left.
    """
    d, scaled = integer_scaled([rows] if cols is None else [rows, cols])
    rs, cs = scaled[0], scaled[-1]
    return mat_mul(rs, list(zip(*mat_mul(cs, lat.gram)))), d * d * lat.den


def gram_of(lat, rows, cols=None):
    """The pairing matrix rows * G * cols^T (cols defaults to rows).

    One integer product over a common denominator (`_pairing_numerators`);
    entries are ints when that denominator is 1, else Fractions.
    """
    out, den = _pairing_numerators(lat, rows, cols)
    if den == 1:
        return out
    return [[Fraction(x, den) for x in row] for row in out]


# ---------------------------------------------------------------------------
# standard ADE Gram matrices (negative definite convention)

_E_EDGES = {
    6: [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
    7: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)],
    8: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)],
}


def ade_gram(kind, n):
    """Negative-definite Gram matrix of A_n, D_n or E_n."""
    if kind == "A":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "D":
        if n < 4:
            raise LatticeError("D_n requires n >= 4")
        edges = [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    elif kind == "E":
        edges = _E_EDGES[n]
    else:
        raise LatticeError(f"unknown ADE kind {kind!r}")
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return g


def ade_lattice(kind, n):
    return even_lattice(ade_gram(kind, n))


# ---------------------------------------------------------------------------
# basic invariants


def discriminant(lat):
    """det of the Gram matrix, exact; error on degenerate lattices."""
    d = lat.det
    if d == 0:
        raise LatticeError("degenerate lattice")
    return int(d) if d.denominator == 1 else d


def signature(lat):
    """(r, s) = numbers of positive and negative squares: the diagonal of a
    form congruent to den * G is p_k / p_{k-1} for the pivots p (p_-1 = 1)."""
    pivots, _rows = symmetric_bareiss(lat.gram)
    if len(pivots) != lat.rank:
        raise LatticeError("degenerate lattice")
    r = sum(1 for p, q in zip(pivots, [1] + pivots) if p * q > 0)
    return (r, lat.rank - r)


@dataclass
class DiscriminantGroup:
    """L^vee / L for an even nondegenerate lattice.

    generators: dual vectors in lattice-basis coordinates, reduced mod Z^n,
    sorted by (order, coordinates); orders: elementary divisors > 1;
    qvalues: self-pairings in Q/2Z represented in [0, 2).
    """

    generators: list
    orders: list
    qvalues: list


def _qmod2(x):
    return Fraction(x) % 2


def discriminant_group(lat):
    if not lat.is_even:
        raise LatticeError("discriminant group requires an even lattice")
    d, u = snf(lat.gram_int())
    if 0 in d:
        raise LatticeError("degenerate lattice")
    # U G V = D gives G^-1 = V D^-1 U, so the dual classes are U[i] / d_i;
    # with w_i = U[i] mod d_i, q(w_i / d_i) = (w_i G w_i^T) / d_i^2
    gens = sorted((di, [x % di for x in u[i]]) for i, di in enumerate(d) if di != 1)
    generators = [[Fraction(x, di) for x in w] for di, w in gens]
    orders = [di for di, _ in gens]
    qvalues = [_qmod2(Fraction(sum(map(mul, wg, w)), di * di))
               for (di, w), wg in zip(gens, mat_mul([w for _, w in gens], lat.gram))]
    return DiscriminantGroup(generators, orders, qvalues)


def is_two_elementary_type2(dg):
    """(2-elementary?, type 2?) for a discriminant group dg = (A, q).

    Is A = L^vee/L killed by 2, is q integral on A?  On a 2-elementary A,
    2b(x, y) = b(2x, y) is an integer, so q(x + y) = q(x) + q(y) + 2b(x, y)
    is integral whenever q(x) and q(y) are: q is integral on A exactly
    when it is on the SNF generators.
    """
    if not all(o == 2 for o in dg.orders):
        return (False, False)
    return (True, all(q.denominator == 1 for q in dg.qvalues))


# ---------------------------------------------------------------------------
# roots


def _interval(c, p, bound):
    """(lo, hi): the integers x with (p*x + c)^2 <= bound are lo..hi (none if lo > hi).

    For ints c, p > 0 and bound, the square is at most bound exactly when
    |p*x + c| <= s = isqrt(bound), that is, -s - c <= p*x <= s - c.
    """
    if bound < 0:
        return 1, 0
    s = isqrt(bound)
    return -((s + c) // p), (s - c) // p


def roots(lat):
    """All v with v^2 = -2, one representative per +-pair, with the first
    nonzero coordinate positive, sorted lexicographically.

    One elimination of the integer matrix M = -den * G gives its leading
    principal minors p_i (p_-1 = 1) and rows r_i: all p_i positive means M
    is positive definite (Sylvester), and then
    x M x^T = sum_i (p_i x_i + c_i)^2 / (p_i p_{i-1}) with
    c_i = sum_{j>i} r_i[j - i] x_j.  Over D = lcm_i(p_i p_{i-1}) and weights
    w_i = D / (p_i p_{i-1}), a root is an integer x with
    sum_i w_i (p_i x_i + c_i)^2 = 2 * den * D; the Fincke-Pohst search fixes
    x_{n-1}, ..., x_0 in turn, carrying the remaining norm as one int.
    """
    pivots, rows = symmetric_bareiss([[-x for x in row] for row in lat.gram])
    n = lat.rank
    if len(pivots) != n:
        raise LatticeError("degenerate lattice")
    if any(p < 0 for p in pivots):
        raise LatticeError("root enumeration requires a negative definite lattice")
    dens = [p * q for p, q in zip(pivots, [1] + pivots)]
    big = lcm(*dens)
    weights = [big // d for d in dens]
    found = []
    x = [0] * n

    def rec(i, rem):
        if i < 0:
            if rem == 0:  # x M x^T = 2 * den > 0, so x != 0
                v = tuple(x)
                for c in v:
                    if c > 0:
                        found.append(v)
                        break
                    if c < 0:
                        found.append(tuple(-y for y in v))
                        break
            return
        p, w = pivots[i], weights[i]
        c = sum(r * xj for r, xj in zip(rows[i][1:], x[i + 1:]))
        lo, hi = _interval(c, p, rem // w)
        for xi in range(lo, hi + 1):
            x[i] = xi
            y = p * xi + c
            rec(i - 1, rem - w * y * y)
        x[i] = 0

    rec(n - 1, 2 * lat.den * big)
    return [list(v) for v in sorted(set(found))]


def reflect(lat, v, x):
    """Image of x under the reflection in a root v."""
    if lat.norm(v) != -2:
        raise LatticeError("not a root")
    pv = lat.pair(x, v)
    return [xj + pv * vj for xj, vj in zip(x, v)]


# ---------------------------------------------------------------------------
# ADE classification of a root set


def _expected_pairs(kind, n):
    if kind == "A":
        return n * (n + 1) // 2
    if kind == "D":
        return n * (n - 1)
    return {6: 36, 7: 63, 8: 120}[n]


def ade_type(lat, root_list=None):
    """Classify a root set, one representative per +-pair, by its simple roots.

    One integer functional phi, nonzero on every root, picks the positive
    system.  Ascending in phi, a positive root is simple iff subtracting no
    earlier simple root lands in the positive system; roots in orthogonal
    components never differ by a root, so one pass gives the simple roots
    of every component at once.  The components of their Dynkin diagram
    are classified by degrees and arm lengths, and each positive root is
    assigned to the one component whose simple roots it pairs with, to
    check the root count of each type.  Returns a sorted list of (kind, n)
    pairs, one per component.
    """
    if root_list is None:
        root_list = roots(lat)
    if not root_list:
        return []
    rng = random.Random("kummerlab.ade.functional")
    for _ in range(64):
        phi = [rng.randrange(-(1 << 24), 1 << 24) for _ in range(lat.rank)]
        vals = [sum(p * c for p, c in zip(phi, v)) for v in root_list]
        if 0 not in vals:
            break
    else:
        raise LatticeError("could not separate roots with a linear functional")
    signed = sorted(((abs(val), tuple(v) if val > 0 else tuple(-c for c in v))
                     for v, val in zip(root_list, vals)), key=lambda t: t[0])
    pos = [v for _, v in signed]
    posset = set(pos)
    simple = []
    for v in pos:
        for s in simple:
            if tuple(a - b for a, b in zip(v, s)) in posset:
                break
        else:
            simple.append(v)
    k = len(simple)
    sp = gram_of(lat, simple)
    nbrs = [[j for j in range(k) if j != i and sp[i][j] != 0] for i in range(k)]
    if any(sp[i][j] != 1 for i in range(k) for j in nbrs[i]):
        raise LatticeError("not a root system of ADE type")
    comp_of = [None] * k
    kinds = []
    for s in range(k):
        if comp_of[s] is not None:
            continue
        comp_of[s] = len(kinds)
        stack, comp = [s], []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in nbrs[i]:
                if comp_of[j] is None:
                    comp_of[j] = len(kinds)
                    stack.append(j)
        kinds.append(_dynkin_kind(nbrs, comp))
    counts = [0] * len(kinds)
    for row in gram_of(lat, pos, simple):
        hit = {comp_of[j] for j, x in enumerate(row) if x != 0}
        if len(hit) != 1:
            raise LatticeError("not a root system of ADE type")
        counts[hit.pop()] += 1
    if any(_expected_pairs(*kind) != c for kind, c in zip(kinds, counts)):
        raise LatticeError("not a root system of ADE type")
    return sorted(kinds)


def _dynkin_kind(nbrs, comp):
    """(kind, n) of the connected Dynkin diagram on the simple roots `comp`."""
    k = len(comp)
    deg = [len(nbrs[i]) for i in comp]
    if sum(deg) != 2 * (k - 1):
        raise LatticeError("not a root system of ADE type")
    if max(deg) <= 2:
        return ("A", k)
    if deg.count(3) == 1 and max(deg) == 3:
        arms = sorted(_arm_lengths(nbrs, comp[deg.index(3)]))
        if arms[0] == 1 and arms[1] == 1:
            return ("D", k)
        if arms == [1, 2, k - 4]:
            return ("E", k)
    raise LatticeError("not a root system of ADE type")


def _arm_lengths(nbrs, branch):
    lengths = []
    for start in nbrs[branch]:
        length = 1
        prev, cur = branch, start
        while True:
            nxt = [j for j in nbrs[cur] if j != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        lengths.append(length)
    return lengths


# ---------------------------------------------------------------------------
# sublattices, saturation, glue


def saturation(gens, lat):
    """Index of the sublattice spanned by integer rows `gens` in its saturation
    inside lat, the product of their nonzero Smith invariants; it is 1
    exactly when the sublattice is primitive."""
    for row in gens:
        if len(row) != lat.rank or any(x.denominator != 1 for x in row):
            raise LatticeError("generators not in L")
    d, _u = snf([[int(x) for x in row] for row in gens])
    return prod(x for x in d if x)


@dataclass
class GlueData:
    """Index-aligned generators of glue subgroups of the two discriminant groups."""

    m1: list
    m2: list

    def __post_init__(self):
        if len(self.m1) != len(self.m2):
            raise LatticeError("glue generator lists must have equal length")


@dataclass
class GlueResult:
    lattice: Lattice
    index: int
    sub1: list         # basis of L1 inside the glued lattice (glued coords)
    sub2: list


def _subgroup_elements(gens_coeff_orders):
    coeffs = [range(o) for o in gens_coeff_orders]
    out = [[]]
    for r in coeffs:
        out = [prev + [c] for prev in out for c in r]
    return out


def _block_gram(s, lat, lo, hi):
    """S_k (den * G) S_k^T for the columns S_k = S[:, lo:hi] on the factor lat."""
    sk = [row[lo:hi] for row in s]
    return mat_mul(sk, list(zip(*mat_mul(sk, lat.gram))))


def glue(l1, l2, gd):
    """Even overlattice of l1 (+) l2 defined by glue data.

    Verifies the glue-compatibility q1(x) + q2(psi(x)) = 0 in Q/2Z on the
    whole generated subgroup, builds the overlattice, and checks that the
    result is even and integral, has index |M1| over the direct sum, and
    contains both factors.  Whether the factors are saturated in it is left
    to the caller (`saturation` on sub1 and sub2).

    The glued basis is S / den for an upper-triangular integer Hermite
    basis S.  Its Gram matrix is sum_k S_k (den_k G_k) S_k^T over
    lcm(den_1, den_2) * den^2, with S_k the columns of S on factor k, and
    the factor coordinates are the rows of den * S^-1, by exact
    substitution: a remainder would mean a factor is not in the result.
    """
    n1, n2 = l1.rank, l2.rank
    orders = []
    for v1, v2 in zip(gd.m1, gd.m2):
        # the order of v + L in L^vee/L is the common denominator of v
        o1, o2 = common_denominator(v1), common_denominator(v2)
        if o1 != o2:
            raise LatticeError("glue map does not respect group orders")
        orders.append(o1)
    # q1 + q2 on sum c_i (v1_i, v2_i) is the form c^T (M1 + M2) c, here
    # c^T q c / qden in integers; it must vanish mod 2 * qden
    p1, den1 = _pairing_numerators(l1, gd.m1)
    p2, den2 = _pairing_numerators(l2, gd.m2)
    qden = lcm(den1, den2)
    f1, f2 = qden // den1, qden // den2
    q = [[f1 * a + f2 * b for a, b in zip(r1, r2)] for r1, r2 in zip(p1, p2)]
    for coeffs in _subgroup_elements(orders):
        val = sum(ci * cj * q[i][j] for i, ci in enumerate(coeffs)
                  for j, cj in enumerate(coeffs))
        if val % (2 * qden):
            raise LatticeError("glue data violates q1 + q2 = 0")
    n = n1 + n2
    rows = identity(n) + [list(v1) + list(v2) for v1, v2 in zip(gd.m1, gd.m2)]
    den, (scaled,) = integer_scaled([rows])
    # den * I is among the rows, so the HNF S is square and upper triangular
    # with positive pivots, and the glued basis is S / den
    s = hnf_basis(scaled)
    dl = lcm(l1.den, l2.den)
    c1, c2 = dl // l1.den, dl // l2.den
    num = [[c1 * x + c2 * y for x, y in zip(r1, r2)]
           for r1, r2 in zip(_block_gram(s, l1, 0, n1), _block_gram(s, l2, n1, n))]
    total = dl * den * den
    # Fractions only where total does not divide every entry; Lattice then
    # rejects a denominator other than 1 or 2
    glued = Lattice([[x // total for x in row] for row in num]
                    if gcd(total, *(x for row in num for x in row)) == total
                    else [[Fraction(x, total) for x in row] for row in num])
    if not glued.is_integral:
        raise LatticeError("non-integral pairing in glued lattice")
    if not glued.is_even:
        raise LatticeError("glued lattice is not even")
    # det(L1 (+) L2) = det L1 * det L2: `discriminant` rejects a degenerate
    # factor, on the determinant each lattice computes once
    discriminant(l1)
    discriminant(l2)
    index = den ** n // prod(row[i] for i, row in enumerate(s))
    # |M1| overcounts if the generators are dependent
    m1_order = prod(orders)
    if index != m1_order:
        raise LatticeError(
            f"glue index {index} differs from |M1| = {m1_order}; dependent glue generators")
    coords = triangular_coords(s, [[den * x for x in row] for row in identity(n)])
    if None in coords:
        i = coords.index(None)
        raise LatticeError(f"factor L{1 if i < n1 else 2} not contained in glued lattice")
    return GlueResult(glued, index, coords[:n1], coords[n1:])


# ---------------------------------------------------------------------------
# JSON interchange


def lattice_to_json(lat):
    if not lat.is_integral:
        raise LatticeError("only integral lattices are serialized")
    obj = {"gram": lat.gram_int()}
    if lat.labels is not None:
        obj["labels"] = list(lat.labels)
    return obj


def lattice_from_json(obj):
    """A Lattice from {"gram": rows of ints or rational strings, "labels": [...]}."""
    gram = [[Fraction(x) for x in row] for row in obj["gram"]]
    return Lattice(gram, obj.get("labels"))
