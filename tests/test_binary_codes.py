import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from kummerlab.binary_codes import (
    BinaryCode,
    CodeError,
    _children_profiles,
    _profile_keys,
    a1m_frame_roots,
    build_subcode,
    build_v16,
    code_from_profile,
    code_to_overlattice,
    equivalence_classes,
    f_bound,
    golay_witness,
    max_admissible_dim,
    mod4_overlattice,
    shortened_golay,
    word_weights,
)
from kummerlab.exactmat import mat_mul
from kummerlab.lattice_core import discriminant, roots


def test_f_bound_values():
    assert f_bound(16) == 5
    assert f_bound(0) == 0
    assert f_bound(24) == 12
    expected = [0] * 8 + [1, 1, 1, 1, 2, 2, 3, 4, 5] + list(range(5, 13))
    assert [f_bound(m) for m in range(25)] == expected
    with pytest.raises(CodeError):
        f_bound(25)
    with pytest.raises(CodeError):
        f_bound(-1)


def test_build_v16():
    code = build_v16()
    assert code.dim == 5
    assert code.weight_enumerator() == {0: 1, 8: 30, 16: 1}
    assert code.is_admissible()
    # the 30 weight-8 words are precisely the affine hyperplanes
    words8 = [w for w in code.words() if bin(w).count("1") == 8]
    assert len(words8) == 30
    for w in words8:
        members = [x for x in range(16) if (w >> x) & 1]
        diffs = {members[0] ^ m for m in members}
        # an affine hyperplane is a coset of an index-2 subgroup
        assert len(diffs) == 8
        assert all(a ^ b in diffs for a in diffs for b in diffs)


@pytest.mark.parametrize("j,points,weights", [
    (0, 0, {0: 1}),
    (1, 8, {0: 1, 8: 1}),
    (2, 12, {0: 1, 8: 3}),
    (3, 14, {0: 1, 8: 7}),
    (4, 15, {0: 1, 8: 15}),
])
def test_build_subcode(j, points, weights):
    code = build_subcode(j)
    assert code.ground_size == points == 16 - 2 ** (4 - j)
    assert code.dim == j
    assert code.weight_enumerator() == weights
    assert code.is_admissible()


def test_golay_witness():
    code = golay_witness()
    assert code.dim == 12
    assert code.weight_enumerator() == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    assert code.is_admissible()


def test_shortened_golay_chain():
    for m in range(17, 25):
        code = shortened_golay(m)
        assert code.ground_size == m
        assert code.dim == m - 12
        assert code.is_admissible()


def test_intersection_cells_of_v16():
    # in a subcode whose nonzero words all have weight |S|/2, any l
    # independent words cut the ground set into 2^l cells of equal size
    code = build_v16()
    words = [w for w in code.words() if 0 < bin(w).count("1") < 16]
    rng = random.Random(5)
    full = (1 << 16) - 1
    for _ in range(50):
        chosen = []
        span = {0}
        while len(chosen) < 3:
            w = words[rng.randrange(len(words))]
            if w not in span and all(x ^ w != full for x in span):
                span |= {x ^ w for x in span}
                chosen.append(w)
        for signs in itertools.product((0, 1), repeat=3):
            cell = full
            for s, w in zip(signs, chosen):
                cell &= w if s else (~w & full)
            assert bin(cell).count("1") == 16 // 2 ** 3


def test_pairwise_even_intersection():
    for code in (build_v16(), build_subcode(3), golay_witness()):
        words = [w for w in code.words() if w]
        rng = random.Random(6)
        for _ in range(200):
            a = words[rng.randrange(len(words))]
            b = words[rng.randrange(len(words))]
            assert bin(a & b).count("1") % 2 == 0


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# classes per dimension and search nodes of the exhaustive search, m = 0..17
SEARCH_TABLE = (
    [({0: 1}, 0)] * 8
    + [({0: 1, 1: 1}, 1)] * 4
    + [({0: 1, 1: 2, 2: 1}, 3)] * 2
    + [({0: 1, 1: 2, 2: 2, 3: 1}, 7),
       ({0: 1, 1: 2, 2: 2, 3: 2, 4: 1}, 13),
       ({0: 1, 1: 3, 2: 4, 3: 4, 4: 3, 5: 1}, 99),
       ({0: 1, 1: 3, 2: 4, 3: 5, 4: 4, 5: 2}, 743)]
)


def test_exhaustive_search_small():
    # a budget just above each node count makes a broken prune fail here
    # instead of running away
    for m, (class_counts, nodes) in enumerate(SEARCH_TABLE):
        res = max_admissible_dim(m, budget=nodes + 1)
        assert not res.truncated
        assert res.exhaustive
        assert res.dim == f_bound(m)
        assert (res.class_counts, res.nodes) == (class_counts, nodes)
        for w in res.witnesses:
            assert w.is_admissible()
            assert w.dim == res.dim


def brute_force_children(profile, m):
    """Every split of every nonempty cell, kept iff the extended code is admissible."""
    k = (len(profile) - 1).bit_length()
    varying = [z for z in range(len(profile)) if profile[z]]
    out = []
    for values in itertools.product(*[range(profile[z] + 1) for z in varying]):
        split = [0] * len(profile)
        for z, v in zip(varying, values):
            split[z] = v
        child = tuple(c - v for c, v in zip(profile, split)) + tuple(split)
        code = code_from_profile(m, child)
        if code.dim == k + 1 and code.is_admissible():
            out.append(child)
    return out


ADMISSIBLE_SOURCES = [BinaryCode(0, []), build_subcode(3), build_v16(), shortened_golay(17)]


@PROPERTY
@given(st.sampled_from(ADMISSIBLE_SOURCES), st.lists(st.integers(1, 31), max_size=3))
def test_children_profiles_match_brute_force(source, picks):
    # a random subcode of dimension <= 3: each pick XORs a subset of the basis
    rows = []
    for pick in picks:
        w = 0
        for j, b in enumerate(source.basis):
            if (pick >> j) & 1:
                w ^= b
        rows.append(w)
    code = BinaryCode(source.ground_size, rows)
    assert code.is_admissible()
    m, profile = code.ground_size, code.profile()
    assert _children_profiles(profile, m) == brute_force_children(profile, m)


def direct_weights(profile):
    """Reference: the weight of word a counts the cells z with a.z odd."""
    return [sum(c for z, c in enumerate(profile) if (a & z).bit_count() & 1)
            for a in range(len(profile))]


def sorted_weight_keys(profile):
    """Reference: (invariant, cell keys) with each cell keyed by its count
    and the sorted weights of the words through it."""
    wt = direct_weights(profile)
    keys = [(c, tuple(sorted(wt[a] for a in range(len(profile)) if (a & z).bit_count() & 1)))
            for z, c in enumerate(profile)]
    return (len(profile), tuple(sorted(wt[1:])), tuple(sorted(keys[1:]))), keys


profiles = st.integers(0, 5).flatmap(
    lambda k: st.lists(st.integers(0, 6), min_size=1 << k, max_size=1 << k)).map(tuple)


@PROPERTY
@given(profiles)
def test_word_weights_are_the_direct_count(profile):
    """Lengths 1, 2, 4 ... 32; kills a Walsh-Hadamard butterfly with its
    two signs swapped."""
    assert word_weights(profile) == direct_weights(profile)


def gl_image(profile, rng):
    """The profile of the same code in another basis: cell z moves to A z
    for a random invertible A over F_2."""
    k = (len(profile) - 1).bit_length()
    while True:
        cols = [rng.randrange(1, 1 << k) for _ in range(k)]
        image = [0] * len(profile)
        for z in range(len(profile)):
            for j, col in enumerate(cols):
                if (z >> j) & 1:
                    image[z] ^= col
        if len(set(image)) == len(profile):
            out = [0] * len(profile)
            for z, c in enumerate(profile):
                out[image[z]] = c
            return tuple(out)


@PROPERTY
@given(profiles, st.integers(0, 2 ** 32), st.booleans())
def test_cell_keys_split_cells_as_sorted_weights(pa, seed, related):
    """The count-per-weight keys give the same equality relation as the
    sorted-weight keys, on invariants and, where invariants agree, on
    every pair of cells, also across two profiles."""
    rng = random.Random(seed)
    pb = gl_image(pa, rng) if related else tuple(rng.choice(pa) for _ in pa)
    inv_a, keys_a = _profile_keys(pa)
    inv_b, keys_b = _profile_keys(pb)
    ref_inv_a, ref_keys_a = sorted_weight_keys(pa)
    ref_inv_b, ref_keys_b = sorted_weight_keys(pb)
    assert (inv_a == inv_b) == (ref_inv_a == ref_inv_b)
    assert not related or inv_a == inv_b
    pairs = [(keys_a, keys_a, ref_keys_a, ref_keys_a)]
    if ref_inv_a[1] == ref_inv_b[1]:     # equal weight multisets
        pairs.append((keys_a, keys_b, ref_keys_a, ref_keys_b))
    for ka, kb, ra, rb in pairs:
        for z1 in range(len(pa)):
            for z2 in range(len(pa)):
                assert (ka[z1] == kb[z2]) == (ra[z1] == rb[z2])


def test_exhaustive_search_16_unique():
    res = max_admissible_dim(16)
    assert res.exhaustive and res.dim == 5
    assert len(res.witnesses) == 1
    assert len(equivalence_classes(res.witnesses + [build_v16()])) == 1


def test_witness_mode():
    res = max_admissible_dim(20)
    assert not res.exhaustive
    assert res.dim == 8 == f_bound(20)
    with pytest.raises(CodeError):
        max_admissible_dim(20, exhaustive=True)


def test_budget_flags_partial():
    res = max_admissible_dim(16, budget=5)
    assert not res.exhaustive and res.truncated
    assert not max_admissible_dim(20).truncated


def test_equivalence_classes():
    v16 = build_v16()
    # a coordinate permutation of the basis gives the same class
    perm = list(range(16))
    random.Random(9).shuffle(perm)
    rows = []
    for b in v16.basis:
        w = 0
        for i in range(16):
            if (b >> i) & 1:
                w |= 1 << perm[i]
        rows.append(w)
    permuted = BinaryCode(16, rows)
    assert len(equivalence_classes([v16, permuted])) == 1
    # any two one-word codes of weight 8 on 16 points are equivalent
    other = BinaryCode(16, [(1 << 8) - 1])
    sub = BinaryCode(16, [v16.basis[0]])
    assert len(equivalence_classes([other, sub])) == 1
    # a hyperplane subcode of V16 has a smaller dimension: two classes
    hyperplane = BinaryCode(16, v16.basis[:4])
    assert equivalence_classes([v16, hyperplane, permuted]) == [[0, 2], [1]]


def test_code_to_overlattice_zero_and_v16():
    zero = BinaryCode(16, [])
    ov = code_to_overlattice(zero)
    assert discriminant(ov.lattice) == 2 ** 16
    assert ov.index == 1
    ov16 = code_to_overlattice(build_v16())
    assert ov16.index == 2 ** 5
    assert discriminant(ov16.lattice) == 2 ** 6
    assert ov16.lattice.is_even
    assert len(ov16.root_pairs) == 16
    # dual route: generic enumeration agrees with the frame bookkeeping
    assert len(roots(ov16.lattice)) == 16


def test_code_to_overlattice_rejects_weight4():
    with pytest.raises(CodeError):
        code_to_overlattice(BinaryCode(4, [0b1111]))


def test_mod4_overlattice_gains_half_roots():
    code = BinaryCode(4, [0b1111])
    ov = mod4_overlattice(code)
    # 4 frame pairs +-e_i plus 8 half-vector pairs
    assert len(ov.root_pairs) == 12
    assert len(a1m_frame_roots(code)) == 12
    assert ov.lattice.is_even
    assert len(roots(ov.lattice)) == 12
    # doubled frame coordinates: norm 4 (a root of A_1^4 has norm -2 under
    # the -2 I frame form), odd entries exactly on a weight-4 codeword
    words = set(code.words())
    for v in a1m_frame_roots(code):
        assert sum(x * x for x in v) == 4
        odd = sum(1 << i for i, x in enumerate(v) if x % 2)
        assert odd == 0 or (odd in words and bin(odd).count("1") == 4)
    assert mat_mul(ov.root_pairs, ov.basis) == a1m_frame_roots(code)


def test_rejects_odd_weight():
    with pytest.raises(CodeError):
        mod4_overlattice(BinaryCode(3, [0b111]))
