import hashlib
import json
from fractions import Fraction

import pytest

from kummerlab import kummer_lattices
from kummerlab.binary_codes import BinaryCode, build_v16, mod4_overlattice
from kummerlab.exactmat import solve_left_fraction
from kummerlab.kummer_lattices import (
    KUMMER_TYPES,
    KummerError,
    T_CLASSES_Q2,
    T_CLASSES_Q4,
    _subset_mask,
    admissible_sigmas,
    build_kummer,
    build_q,
    complement_of_kummer,
    embed_kummer,
    extra_root_orthogonality,
    q_glue_values,
    u_classes_q2,
    u_classes_q4,
)
from kummerlab.lattice_core import (
    ade_type,
    discriminant,
    discriminant_group,
    is_two_elementary_type2,
    roots,
    signature,
)

TABLE1 = {
    "16A1": ([("A", 1)] * 16, 2 ** 5, 2 ** 0, 32),
    "4D4": ([("D", 4)] * 4, 2 ** 2, 2 ** 1, 96),
    "2D8": ([("D", 8)] * 2, 2 ** 1, 2 ** 2, 224),
    "1D16": ([("D", 16)], 2 ** 1, 2 ** 3, 480),
    "2E8": ([("E", 8)] * 2, 2 ** 0, 2 ** 3, 480),
}


@pytest.mark.parametrize("sym", list(TABLE1))
def test_table1_row(sym):
    kl = build_kummer(sym)
    ade, idx_roots, idx_16, nroots = TABLE1[sym]
    assert all(kl.checks.values())
    assert 2 * len(kl.root_pairs) == nroots
    assert ade_type(kl.lattice, kl.root_pairs) == sorted(ade)
    assert abs(discriminant(kl.lattice)) == 2 ** KUMMER_TYPES[sym].a
    assert discriminant_group(kl.lattice).orders == [2] * KUMMER_TYPES[sym].a


def test_generic_root_enumeration_agrees():
    # dual route: rank-16 short-vector search vs half-vector combinatorics
    for sym in ("16A1", "4D4", "2D8"):
        kl = build_kummer(sym)
        assert len(roots(kl.lattice)) == len(kl.root_pairs)


def test_unknown_type_rejected():
    with pytest.raises(KummerError):
        build_kummer("3E6")


def test_q_lattices():
    q4 = build_q("Q4")
    q2 = build_q("Q2")
    for lat, orders in ((q4, [2] * 4), (q2, [2] * 2)):
        assert signature(lat) == (1, 5)
        assert discriminant_group(lat).orders == orders
        assert is_two_elementary_type2(discriminant_group(lat)) == (True, True)


def test_build_q_is_built_once(monkeypatch):
    monkeypatch.setattr(kummer_lattices, "_Q_CACHE", {})
    verified = []
    real_signature = kummer_lattices.signature
    monkeypatch.setattr(kummer_lattices, "signature",
                        lambda lat: verified.append(lat) or real_signature(lat))
    q4, q2 = build_q("Q4"), build_q("Q2")
    assert build_q("Q4") is q4 and build_q("Q2") is q2 and q4 is not q2
    assert verified == [q4, q2]


def test_q_glue_values_table():
    q4 = build_q("Q4")
    us, reading = u_classes_q4()
    assert "w_j" in reading
    vals = q_glue_values(q4, us)
    assert {m: v for m, v in vals.items() if m <= 4} == {
        0: [Fraction(0)], 1: [Fraction(0)], 2: [Fraction(1)],
        3: [Fraction(1)], 4: [Fraction(0)]}
    # the sum of all five classes is computed but carries no table value
    assert vals[5] == [Fraction(0)]
    kl = build_kummer("16A1")
    ts = kl.frame_class_coords(T_CLASSES_Q4)
    tvals = q_glue_values(kl.lattice, ts)
    assert tvals == {0: [Fraction(0)], 1: [Fraction(0)], 2: [Fraction(1)],
                     3: [Fraction(1)], 4: [Fraction(0)]}


def test_q_glue_values_rejects_non_dual():
    q4 = build_q("Q4")
    with pytest.raises(KummerError):
        q_glue_values(q4, [[Fraction(1, 2), 0, 0, 0, 0, 0]])


def test_q2_reading_resolution():
    us, reading = u_classes_q2()
    assert "rejected" in reading
    q2 = build_q("Q2")
    vals = q_glue_values(q2, us)
    assert vals[1] == [Fraction(1)] and vals[2] == [Fraction(1)]


def test_t_classes_live_in_the_right_duals():
    # t1, t2 pair integrally with K(2D8); t3 with K(4D4); t4 only with K(16A1)
    duals = {"2D8": 2, "4D4": 3, "16A1": 4}
    for sym, n in duals.items():
        kl = build_kummer(sym)
        for vec in kl.frame_class_coords(T_CLASSES_Q4[:n]):
            for i in range(16):
                basis_vec = [Fraction(int(j == i)) for j in range(16)]
                assert Fraction(kl.lattice.pair(vec, basis_vec)).denominator == 1
    kl8 = build_kummer("2D8")
    (t3,) = kl8.frame_class_coords(T_CLASSES_Q4[2:3])
    pairings = [Fraction(kl8.lattice.pair(
        t3, [Fraction(int(j == i)) for j in range(16)])) for i in range(16)]
    assert any(p.denominator != 1 for p in pairings)


def is_square_upper_triangular(b):
    """Square, zero below the diagonal, positive on it."""
    return all(len(row) == len(b) and row[i] > 0 and not any(row[:i])
               for i, row in enumerate(b))


@pytest.mark.parametrize("sym", list(KUMMER_TYPES))
def test_frame_class_coords_match_the_bareiss_solve(sym):
    # frame_class_coords and build_kummer solve by substitution, which needs
    # the frame basis, the Hermite basis of mod4_overlattice, to be square
    # and upper triangular
    kl = build_kummer(sym)
    code = BinaryCode(16, list(build_v16().basis)
                      + [_subset_mask(sp) for sp in KUMMER_TYPES[sym].subspaces])
    assert is_square_upper_triangular(mod4_overlattice(code).basis)
    assert is_square_upper_triangular(kl.frame_basis)
    for classes in (T_CLASSES_Q4, T_CLASSES_Q2):
        for n in range(len(classes) + 1):
            indicators = [[int(i in subset) for i in range(16)] for subset in classes[:n]]
            got = kl.frame_class_coords(classes[:n])
            assert got == solve_left_fraction(kl.frame_basis, indicators)
            assert all(type(x) is Fraction for row in got for x in row)


EXPECTED_MATRIX = {
    ("16A1", "Q4"): [1, 2, 3, 4, 5],
    ("16A1", "Q2"): [2, 3, 4],
    ("4D4", "Q4"): [1, 2, 3, 4],
    ("4D4", "Q2"): [1, 2, 3],
    ("2D8", "Q4"): [1, 2, 3],
    ("2D8", "Q2"): [1, 2],
    ("1D16", "Q4"): [2],
    ("1D16", "Q2"): [1],
    ("2E8", "Q4"): [2],
    ("2E8", "Q2"): [1],
}


def test_admissible_sigma_table():
    for (sym, comp), sigmas in EXPECTED_MATRIX.items():
        assert admissible_sigmas(sym, comp) == sigmas


@pytest.mark.parametrize("sym,sigma,comp", [
    ("16A1", 1, "Q4"), ("16A1", 5, "Q4"), ("4D4", 2, "Q4"),
    ("2D8", 3, "Q4"), ("1D16", 2, "Q4"), ("2E8", 2, "Q4"),
    ("1D16", 1, "Q2"), ("2E8", 1, "Q2"),
])
def test_embeddings_verify(sym, sigma, comp):
    res = embed_kummer(sym, sigma, comp)
    assert all(res.checks.values())
    assert signature(res.lattice) == (1, 21)
    assert discriminant_group(res.lattice).orders == [2] * (2 * sigma)


def test_extended_q2_embeddings():
    for sym, sigma in (("16A1", 2), ("4D4", 1), ("2D8", 1)):
        res = embed_kummer(sym, sigma, "Q2", extended=True)
        assert all(res.checks.values())
    with pytest.raises(KummerError):
        embed_kummer("16A1", 2, "Q2")  # nontrivial Q2 glue needs extended=True


def test_inadmissible_embeddings_rejected():
    for sym, sigma, comp in (("16A1", 6, "Q4"), ("16A1", 1, "Q2"),
                             ("4D4", 5, "Q4"), ("2D8", 4, "Q4"),
                             ("1D16", 3, "Q4"), ("2E8", 3, "Q2")):
        with pytest.raises(KummerError, match="no saturated embedding exists"):
            embed_kummer(sym, sigma, comp, extended=True)


def test_unsaturated_factor_fails_verification(monkeypatch):
    # glue no longer checks saturation; embed_kummer's own check is the one that fires
    monkeypatch.setattr(kummer_lattices, "saturation",
                        lambda gens, lat: 2 if len(gens) == 16 else 1)
    with pytest.raises(KummerError,
                       match=r"embedding verification failure: \['kummer_saturated'\]"):
        embed_kummer("16A1", 4, "Q4")


@pytest.mark.parametrize("sym,sigma,comp,extended", [
    ("16A1", 1, "Q4", False),
    ("4D4", 1, "Q2", True),
    ("2D8", 3, "Q4", False),
    ("1D16", 1, "Q2", False),
    ("2E8", 2, "Q4", False),
])
def test_extra_roots_in_or_orthogonal(sym, sigma, comp, extended):
    res = embed_kummer(sym, sigma, comp, extended=extended)
    total, inside, orth = extra_root_orthogonality(res)
    assert inside + orth == total
    assert inside == len(build_kummer(sym).root_pairs)


@pytest.mark.parametrize("sym,sigma,comp", [
    ("16A1", 3, "Q4"), ("4D4", 4, "Q4"), ("2E8", 1, "Q2")])
def test_complement_is_two_elementary_type2(sym, sigma, comp):
    res = embed_kummer(sym, sigma, comp)
    comp_lat = complement_of_kummer(res)
    assert comp_lat.rank == 6
    assert is_two_elementary_type2(discriminant_group(comp_lat)) == (True, True)


def _dg_record(lat):
    dg = discriminant_group(lat)
    return [dg.generators, dg.orders, dg.qvalues]


def _sha256(records):
    return hashlib.sha256(json.dumps(records, default=str).encode()).hexdigest()


def admissible_triples():
    """Every (type, sigma, complement, extended) that embed_kummer accepts,
    Q4 once (extended changes nothing there) and Q2 with and without
    extended where the glue count allows it: 29 in all."""
    out = []
    for sym in KUMMER_TYPES:
        for comp in ("Q4", "Q2"):
            sigmas = admissible_sigmas(sym, comp)
            for sigma in sigmas:
                exts = (False,) if comp == "Q4" else (
                    (True,) if sigma < max(sigmas) else (False, True))
                out += [(sym, sigma, comp, ext) for ext in exts]
    return out


# sha256 of every embedding and Kummer build, recorded before the exact
# kernels became sparse-aware: each must stay byte-identical
ALL_EMBEDDINGS_SHA256 = "833b5a6585a5b29c3fa2369c68f622d0b8fcd1f26d2989b3c107dd78de387166"
ALL_KUMMER_BUILDS_SHA256 = "19f08b9498f69dfd05014a949742e8095da121b84d1913c1718c5ead36f5fa2e"


def test_every_embedding_is_pinned():
    triples = admissible_triples()
    assert len(triples) == 29
    records = []
    for sym, sigma, comp, ext in triples:
        res = embed_kummer(sym, sigma, comp, extended=ext)
        records.append([sym, sigma, comp, ext, res.lattice.gram, res.kummer_coords,
                        res.complement_coords, list(res.checks.items()),
                        res.glue_info, _dg_record(res.lattice)])
    assert _sha256(records) == ALL_EMBEDDINGS_SHA256


def test_every_kummer_build_is_pinned():
    records = []
    for sym in KUMMER_TYPES:
        kl = build_kummer(sym)
        records.append([sym, kl.lattice.gram, kl.frame_basis, kl.root_pairs,
                        list(kl.checks.items()), _dg_record(kl.lattice)])
    assert _sha256(records) == ALL_KUMMER_BUILDS_SHA256
