"""F_2-linear codes whose nonzero words have weight = 0 mod 4 and != 4.

Such codes classify even overlattices of A_1^m that gain no roots.  The
module builds the named example codes (affine-hyperplane code on 16
points, its hyperplane subcodes, the extended binary Golay code), runs an
exhaustive isomorph-free search for the maximum dimension g(m) when
m <= EXHAUSTIVE_LIMIT = 17 (above 17 the search gives one witness, a
shortened Golay code), turns admissible codes into even overlattices, and
partitions code lists into permutation-equivalence classes.  Overlattice
bases and roots are kept in doubled A_1^m frame coordinates, which are
ints: the frame vector (1/2)(e_1 + ... + e_4) is stored as
(1, 1, 1, 1, 0, ...).  Only `mod4_overlattice` needs the lattice layers,
and it imports `exactmat` and `lattice_core` itself, so the code search
loads neither.

Codewords are bitmasks over a ground set of size m <= 24.  The search
works on "cell profiles": a dimension-k code, up to coordinate
permutation, is the multiset of its m column vectors in F_2^k, stored as
a counts vector of length 2^k.  Extending a code by one generator splits
every cell in two, so the children of a profile are integer splits of its
cells.  They are enumerated by a depth-first walk over the cells that
carries the weight of every new word and cuts a branch as soon as some
word can no longer reach an allowed weight.  The 2^k weights ride packed
in one int, the weight of word a in byte lane a (bits 8a..8a+7); a weight
is at most m <= MAX_GROUND = 24 < 256, so adding to one lane never
carries into the next.  Word weights come from a Walsh-Hadamard
transform of the counts.  Each profile's invariant and cell keys are
computed once and shared by the bucketing and the GL(k,2)-isomorphism
tests.
"""

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from . import KummerlabError

MAX_GROUND = 24
EXHAUSTIVE_LIMIT = 17
_ALLOWED = (8, 12, 16, 20, 24)


class CodeError(KummerlabError):
    pass


def f_bound(m):
    """Closed-form upper bound for the dimension of an admissible code."""
    if not 0 <= m <= MAX_GROUND:
        raise CodeError(f"ground size {m} out of range 0..{MAX_GROUND}")
    if m < 16:
        return 4 - (16 - m - 1).bit_length()
    if m == 16:
        return 5
    return m - 12


def _rref(rows):
    """Reduced basis of the F_2-span of bitmask rows, sorted ascending."""
    basis = []  # kept sorted by pivot (leading bit) descending
    for r in rows:
        cur = r
        for b in basis:
            if cur and b.bit_length() <= cur.bit_length() and (cur >> (b.bit_length() - 1)) & 1:
                cur ^= b
        if cur:
            basis.append(cur)
            basis.sort(key=int.bit_length, reverse=True)
    for i in range(len(basis)):
        piv = 1 << (basis[i].bit_length() - 1)
        for j in range(len(basis)):
            if j != i and basis[j] & piv:
                basis[j] ^= basis[i]
    return sorted(basis)


class BinaryCode:
    """An F_2-subspace of 2^S, S of size ground_size, basis in reduced form."""

    def __init__(self, ground_size, basis_rows):
        if not 0 <= ground_size <= MAX_GROUND:
            raise CodeError(f"ground size {ground_size} out of range 0..{MAX_GROUND}")
        mask = (1 << ground_size) - 1
        for r in basis_rows:
            if r & ~mask:
                raise CodeError("basis word exceeds ground set")
        self.ground_size = ground_size
        self.basis = _rref(basis_rows)

    @property
    def dim(self):
        return len(self.basis)

    def words(self):
        out = [0]
        for b in self.basis:
            out += [w ^ b for w in out]
        return out

    def weight_enumerator(self):
        enum = {}
        for w in self.words():
            c = bin(w).count("1")
            enum[c] = enum.get(c, 0) + 1
        return dict(sorted(enum.items()))

    def is_admissible(self):
        return all(c % 4 == 0 and c != 4
                   for c in (bin(w).count("1") for w in self.words() if w))

    def profile(self):
        """Counts of column vectors in F_2^dim, one entry per cell."""
        k = self.dim
        counts = [0] * (1 << k)
        for i in range(self.ground_size):
            z = 0
            for j, b in enumerate(self.basis):
                if (b >> i) & 1:
                    z |= 1 << j
            counts[z] += 1
        return tuple(counts)

    def to_json(self):
        return {"m": self.ground_size,
                "basis": [format(b, f"0{max(self.ground_size, 1)}b")[::-1]
                          for b in self.basis]}

    def __repr__(self):
        return f"BinaryCode(m={self.ground_size}, dim={self.dim})"


# ---------------------------------------------------------------------------
# named example codes


def _hyperplanes(j):
    """The hyperplanes x_i = 0 of S = F_2^4 for i < j, as bitmasks."""
    return [sum(1 << x for x in range(16) if not (x >> i) & 1) for i in range(j)]


def build_v16():
    """The affine-hyperplane code: {0, S, affine hyperplanes} on S = F_2^4."""
    code = BinaryCode(16, _hyperplanes(4) + [(1 << 16) - 1])
    assert code.dim == 5
    return code


def build_subcode(j):
    """Dimension-j hyperplane subcode realized on 16 - 2^(4-j) points."""
    if not 0 <= j <= 4:
        raise CodeError("subcode index must be 0..4")
    # support: complement of the set where all j functionals are 1
    removed = [x for x in range(16) if all((x >> i) & 1 for i in range(j))]
    keep = [x for x in range(16) if x not in removed]
    remap = {x: t for t, x in enumerate(keep)}
    rows = []
    for h in _hyperplanes(j):
        r = 0
        for x in keep:
            if (h >> x) & 1:
                r |= 1 << remap[x]
        rows.append(r)
    code = BinaryCode(len(keep), rows)
    assert code.dim == j
    return code


_GOLAY_GEN_POLY = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]  # x^11+x^10+x^6+x^5+x^4+x^2+1


def golay_witness():
    """The extended binary Golay code [24, 12] with its construction self-check."""
    g = 0
    coeffs = _GOLAY_GEN_POLY  # degree 11 generator polynomial of the [23,12] code
    for i, c in enumerate(coeffs):
        if c:
            g |= 1 << i
    rows = []
    for i in range(12):
        w23 = g << i
        parity = bin(w23).count("1") & 1
        rows.append(w23 | (parity << 23))
    code = BinaryCode(24, rows)
    if code.dim != 12:
        raise CodeError("Golay construction self-check failed: wrong dimension")
    enum = code.weight_enumerator()
    if enum != {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}:
        raise CodeError(f"Golay construction self-check failed: weights {enum}")
    return code


def shortened_golay(m):
    """Admissible code on m points (17 <= m <= 24) by shortening the Golay code."""
    code = golay_witness()
    words = code.words()
    for _ in range(24 - m):
        size = max(w.bit_length() for w in words if w)
        keep = [w for w in words if not (w >> (size - 1)) & 1]
        words = keep
    return BinaryCode(m, words)


# ---------------------------------------------------------------------------
# profiles, equivalence, exhaustive search


def word_weights(profile):
    """Weight of each word a in F_2^k: the cells z with a.z = 1, counted.

    By the Walsh-Hadamard transform, weight(a) = (m - sum_z c_z (-1)^(a.z)) / 2
    with m = sum_z c_z.
    """
    h = list(profile)
    n = len(h)
    step = 1
    while step < n:
        for start in range(0, n, 2 * step):
            for j in range(start, start + step):
                x, y = h[j], h[j + step]
                h[j], h[j + step] = x + y, x - y
        step *= 2
    return [(h[0] - t) // 2 for t in h]


@functools.lru_cache(maxsize=None)
def _half_spaces(n):
    """Bitmask over the words a < n with a.z = 1, for each cell z < n."""
    return [sum(1 << a for a in range(n) if (a & z).bit_count() & 1)
            for z in range(n)]


@functools.lru_cache(maxsize=None)
def _profile_keys(profile):
    """(profile_invariant, cell keys) of a profile, computed once per profile.

    The key of cell z is its count with the number of words of each weight
    through z, the weights ascending; every GL(k,2)-equivalence must map
    cells to equal keys.  Keys of two profiles are compared only when their
    invariants, and so their weight multisets, are equal; there the key
    splits cells exactly as the sorted weights through z would.
    """
    wt = word_weights(profile)
    by_weight = {}
    for a, w in enumerate(wt):
        by_weight[w] = by_weight.get(w, 0) | 1 << a
    masks = [by_weight[w] for w in sorted(by_weight)]
    keys = [(c, tuple((mask & half).bit_count() for mask in masks))
            for c, half in zip(profile, _half_spaces(len(profile)))]
    return (len(profile), tuple(sorted(wt[1:])), tuple(sorted(keys[1:]))), keys


def profile_invariant(profile):
    return _profile_keys(profile)[0]


def profiles_isomorphic(pa, pb):
    """Decide GL(k,2)-equivalence of two cell profiles."""
    if len(pa) != len(pb) or sum(pa) != sum(pb):
        return False
    inv_a, keys_a = _profile_keys(pa)
    inv_b, keys_b = _profile_keys(pb)
    if inv_a != inv_b:
        return False
    k = (len(pa) - 1).bit_length()
    if k == 0:
        return pa == pb
    span_img = {0: 0}

    def dfs(i):
        if i == k:
            return True
        target = keys_b[1 << i]
        prev = list(span_img.items())
        used = set(span_img.values())
        for v in range(1, 1 << k):
            if v in used or keys_a[v] != target:
                continue
            ok = True
            new = {}
            for w, sw in prev:
                z = w | (1 << i)
                sv = sw ^ v
                if pa[sv] != pb[z] or keys_a[sv] != keys_b[z]:
                    ok = False
                    break
                new[z] = sv
            if ok:
                span_img.update(new)
                if dfs(i + 1):
                    return True
                for z in new:
                    del span_img[z]
        return False

    return dfs(0)


def code_from_profile(m, profile):
    k = (len(profile) - 1).bit_length()
    coords = []
    for z, c in enumerate(profile):
        coords.extend([z] * c)
    assert len(coords) == m
    rows = []
    for j in range(k):
        r = 0
        for i, z in enumerate(coords):
            if (z >> j) & 1:
                r |= 1 << i
        rows.append(r)
    return BinaryCode(m, rows)


@functools.lru_cache(maxsize=None)
def _prune_tables(m):
    """For each left = 0..m, the translate table w -> 1 iff no allowed
    weight <= m lies in w..w + left, and w -> 0 otherwise."""
    # first[w]: least allowed weight >= w, or m + 1 if there is none
    first = [min([x for x in _ALLOWED if w <= x <= m], default=m + 1)
             for w in range(m + 1)]
    return [bytes(first[w] > w + left for w in range(m + 1)) + bytes(255 - m)
            for left in range(m + 1)]


def _children_profiles(profile, m):
    """Admissible one-generator extensions of a profile, as new profiles.

    The new generator g takes s_z of the c_z = profile[z] points of each
    nonempty cell z, so the new word a + g meets cell z in c_z - s_z
    points when z lies in a and in s_z points otherwise.  The walk fixes
    s_z cell by cell (first cell most significant, values ascending, the
    order of itertools.product) and carries each new word's weight on the
    cells fixed so far; the cells left can raise it by at most their size.
    A branch is cut once, for some word, no allowed weight <= m lies in
    that reach; at a leaf the reach is the weight itself.

    The n weights ride in one int, word a's in byte lane a, so a child's
    weights are w + s (ones - in_z) + (c - s) in_z, with in_z the lanes
    of the words through z; a lane holds at most m <= MAX_GROUND < 256, so
    it never carries into the next.  The cut is one `bytes.translate`
    through the table of `left` and a test for a 1.
    """
    n = len(profile)
    ones = int.from_bytes(b"\1" * n, "little")
    cells = []
    for z, c in enumerate(profile):
        if c:
            in_z = int.from_bytes(bytes((a & z).bit_count() & 1 for a in range(n)),
                                  "little")
            # s = 0 gives w + c in_z, and each step of s adds ones - 2 in_z
            cells.append((z, c, c * in_z, ones - 2 * in_z))
    last = len(cells)
    bad = _prune_tables(m)
    split = [0] * n
    out = []

    def walk(i, weights, left):
        if 1 in weights.to_bytes(n, "little").translate(bad[left]):
            return
        if i == last:
            out.append(tuple(c - s for c, s in zip(profile, split)) + tuple(split))
            return
        z, c, base, step = cells[i]
        weights += base
        for s in range(c + 1):
            split[z] = s
            walk(i + 1, weights, left - c)
            weights += step
        split[z] = 0

    walk(0, 0, m)
    return out


@dataclass
class SearchResult:
    m: int
    dim: int
    witnesses: list
    exhaustive: bool
    class_counts: dict = field(default_factory=dict)
    nodes: int = 0
    truncated: bool = False    # a search cut short by its budget


def max_admissible_dim(m, budget=None, exhaustive=False):
    """Maximum dimension of an admissible code on m points.

    For m <= EXHAUSTIVE_LIMIT (17) the search explores all codes up to
    coordinate-permutation equivalence level by level and returns the exact
    maximum with all maximum-dimension codes up to equivalence.  Above it,
    the result is one witness code, the shortened Golay code, whose
    dimension is only a lower bound for the maximum; so is the last
    complete level of a search cut by `budget`.  `exhaustive=True` asks for
    the exact maximum and raises CodeError when m > EXHAUSTIVE_LIMIT.
    """
    if not 0 <= m <= MAX_GROUND:
        raise CodeError(f"ground size {m} out of range 0..{MAX_GROUND}")
    if exhaustive and m > EXHAUSTIVE_LIMIT:
        raise CodeError(f"exhaustive search supported only for m <= {EXHAUSTIVE_LIMIT}")
    if m > EXHAUSTIVE_LIMIT:
        witness = shortened_golay(m)
        return SearchResult(m=m, dim=witness.dim, witnesses=[witness], exhaustive=False)
    level = [tuple([m])]
    class_counts = {0: 1}
    nodes = 0
    dim = 0
    while True:
        buckets = {}
        truncated = False
        for prof in level:
            for child in _children_profiles(prof, m):
                nodes += 1
                if budget is not None and nodes > budget:
                    truncated = True
                    break
                inv = profile_invariant(child)
                reps = buckets.setdefault(inv, [])
                if not any(profiles_isomorphic(child, r) for r in reps):
                    reps.append(child)
            if truncated:
                break
        nxt = [r for reps in buckets.values() for r in reps]
        if truncated:
            witnesses = [code_from_profile(m, p) for p in level]
            return SearchResult(m=m, dim=dim, witnesses=witnesses, exhaustive=False,
                                class_counts=class_counts, nodes=nodes, truncated=True)
        if not nxt:
            break
        dim += 1
        class_counts[dim] = len(nxt)
        level = nxt
    witnesses = [code_from_profile(m, p) for p in sorted(level)]
    return SearchResult(m=m, dim=dim, witnesses=witnesses, exhaustive=True,
                        class_counts=class_counts, nodes=nodes)


def equivalence_classes(codes):
    """Partition codes (same ground size) by coordinate-permutation equivalence."""
    if not codes:
        return []
    m = codes[0].ground_size
    for c in codes:
        if c.ground_size != m:
            raise CodeError("codes must share the ground size")
    profs = [c.profile() for c in codes]
    classes = []
    for idx, prof in enumerate(profs):
        placed = False
        for cls in classes:
            if profiles_isomorphic(prof, profs[cls[0]]):
                cls.append(idx)
                placed = True
                break
        if not placed:
            classes.append([idx])
    return classes


# ---------------------------------------------------------------------------
# code -> even overlattice of A_1^m


@dataclass
class Overlattice:
    lattice: "lattice_core.Lattice"
    basis: list      # rows in doubled A_1^m frame coordinates (ints)
    index: int
    root_pairs: list


def a1m_frame_roots(code):
    """Roots of the code overlattice in doubled A_1^m frame coordinates,
    one per +-pair.

    Roots are +-e_i together with (1/2)(sum of +-e over T) for each
    weight-4 codeword T, so their doubles are 2 e_i and the +-1 vectors on
    T; membership in the overlattice is exactly membership of the support
    in the code.
    """
    m = code.ground_size
    out = [[2 * int(i == j) for j in range(m)] for i in range(m)]
    for w in code.words():
        if bin(w).count("1") != 4:
            continue
        first, *rest = [i for i in range(m) if (w >> i) & 1]
        for signs in itertools.product((1, -1), repeat=3):
            v = [0] * m
            v[first] = 1
            for s, i in zip(signs, rest):
                v[i] = s
            out.append(v)
    return out


def mod4_overlattice(code):
    """Overlattice of A_1^m from any code with all weights = 0 mod 4.

    Weight-4 words are allowed; they contribute half-vector roots (this is
    how the D- and E-type overlattices of A_1^16 arise).  `root_pairs` are
    the roots of `a1m_frame_roots` in the coordinates of the new basis.
    """
    from .exactmat import hnf_basis, lattice_coords, mat_mul
    from .lattice_core import Lattice
    for w in code.words():
        if w and bin(w).count("1") % 4:
            raise CodeError("overlattice is not even: weight not divisible by 4")
    m = code.ground_size
    rows = [[2 * int(i == j) for j in range(m)] for i in range(m)]
    for b in code.basis:
        rows.append([1 if (b >> i) & 1 else 0 for i in range(m)])
    basis = hnf_basis(rows)
    # basis / 2 is the basis in the A_1^m frame, whose Gram is -2 I
    gram = mat_mul(basis, [list(c) for c in zip(*basis)])
    lat = Lattice([[Fraction(-x, 2) for x in row] for row in gram])
    if not lat.is_even:
        raise CodeError("overlattice is not even")
    det = prod(row[i] for i, row in enumerate(basis))
    index = (1 << m) // det if det else 0
    if index != 1 << code.dim:
        raise CodeError("overlattice index mismatch")
    pairs = lattice_coords(basis, a1m_frame_roots(code))
    if None in pairs:
        raise CodeError("root bookkeeping failed")
    return Overlattice(lat, basis, index, pairs)


def code_to_overlattice(code):
    """Even overlattice of A_1^m determined by an admissible code."""
    if not code.is_admissible():
        raise CodeError("code is not kummer-admissible: "
                        "overlattice would be odd or would gain roots")
    ov = mod4_overlattice(code)
    if len(ov.root_pairs) != code.ground_size:
        raise CodeError("code is not kummer-admissible: extra roots appear")
    return ov
