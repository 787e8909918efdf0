"""The five Kummer lattices, the rank-6 complements Q_4/Q_2, and embeddings.

A Kummer lattice is the unique even overlattice of a fixed ADE sum with
the prescribed index.  All five arise from the affine-hyperplane code on
S = F_2^4 extended by a collection of 2-dimensional vector subspaces of
S; the collections are hard-coded against the standard basis v_1..v_4.

Embeddings into rank-22 lattices of signature (1,21) (the Picard shape of
a supersingular K3 in characteristic 2) are realized by glueing the
Kummer lattice with Q_4 or Q_2 along explicit half-vector classes.  Every
construction is verified post hoc: root systems, indices, discriminant
groups, parities, saturation.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .exactmat import (det_bareiss, hnf_basis, identity, lattice_coords, left_kernel_basis,
                       mat_mul, solve_left_fraction)
from .binary_codes import BinaryCode, build_v16, mod4_overlattice
from .lattice_core import (
    GlueData,
    Lattice,
    LatticeError,
    _qmod2,
    ade_type,
    discriminant_group,
    glue,
    gram_of,
    is_two_elementary_type2,
    roots,
    saturation,
    signature,
)


class KummerError(LatticeError):
    pass


def _span2(a, b):
    return frozenset({0, a, b, a ^ b})


def _subspaces_through(v):
    reps = []
    seen = set()
    for w in range(1, 16):
        if w == v:
            continue
        sp = _span2(v, w)
        if sp not in seen:
            seen.add(sp)
            reps.append(sp)
    return reps


def _subspaces_inside(hyperplane):
    out = []
    seen = set()
    pts = sorted(hyperplane - {0})
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            sp = _span2(a, b)
            if sp <= hyperplane and sp not in seen:
                seen.add(sp)
                out.append(sp)
    return out


@dataclass(frozen=True)
class KummerType:
    symbol: str
    a: int                  # discriminant group is (Z/2)^a
    log2_index_over_16a1: int
    log2_index_over_roots: int
    root_count: int
    ade: tuple
    subspaces: tuple


KUMMER_TYPES = {
    "16A1": KummerType("16A1", 6, 0, 5, 32, (("A", 1),) * 16, ()),
    "4D4": KummerType("4D4", 4, 1, 2, 96, (("D", 4),) * 4,
                      (_span2(1, 2),)),
    "2D8": KummerType("2D8", 2, 2, 1, 224, (("D", 8),) * 2,
                      (_span2(1, 2), _span2(1, 4), _span2(1, 6))),
    "1D16": KummerType("1D16", 0, 3, 1, 480, (("D", 16),),
                       tuple(_subspaces_through(1))),
    "2E8": KummerType("2E8", 0, 3, 0, 480, (("E", 8),) * 2,
                      tuple(_subspaces_inside(frozenset(range(8))))),
}


def _subset_mask(subset):
    mask = 0
    for x in subset:
        mask |= 1 << x
    return mask


@dataclass
class KummerLattice:
    type: KummerType
    lattice: Lattice
    frame_basis: list      # rows in doubled A_1^16 frame coordinates (ints)
    root_pairs: list       # lattice-basis coordinates, one per +-pair
    checks: dict = field(default_factory=dict)

    def frame_class_coords(self, subsets):
        """(1/2) sum of e_v over each subset, in lattice-basis coordinates.

        Row k is the c with c * frame_basis = the indicator vector of
        subsets[k]; all of them come from one elimination of the frame
        basis, and none at all when there are no subsets.
        """
        if not subsets:
            return []
        vecs = [[int(i in subset) for i in range(16)] for subset in subsets]
        coords = solve_left_fraction(self.frame_basis, vecs)
        if None in coords:
            raise KummerError("class does not lie in the rational span")
        return coords


_BUILD_CACHE = {}


def build_kummer(type_symbol):
    """Construct and verify one of the five Kummer lattices.

    Results are cached; callers must treat them as read-only.
    """
    if type_symbol in _BUILD_CACHE:
        return _BUILD_CACHE[type_symbol]
    if type_symbol not in KUMMER_TYPES:
        raise KummerError(f"unknown Kummer type {type_symbol!r}; "
                          f"expected one of {sorted(KUMMER_TYPES)}")
    kt = KUMMER_TYPES[type_symbol]
    v16 = build_v16()
    rows = list(v16.basis) + [_subset_mask(sp) for sp in kt.subspaces]
    code = BinaryCode(16, rows)
    ov = mod4_overlattice(code)
    lat = ov.lattice

    checks = {}
    root_pairs = ov.root_pairs
    checks["root_count"] = 2 * len(root_pairs) == kt.root_count
    checks["ade"] = tuple(ade_type(lat, root_pairs)) == tuple(sorted(kt.ade))
    basis_rows = hnf_basis(root_pairs)
    det = prod(row[i] for i, row in enumerate(basis_rows))
    checks["index_over_roots"] = det == 1 << kt.log2_index_over_roots
    # both bases are doubled, so c * 2B = 2B' has the solutions of c * B = B'
    k16_basis = ov.basis if type_symbol == "16A1" else build_kummer("16A1").frame_basis
    sub = lattice_coords(ov.basis, k16_basis)
    if None in sub:
        raise KummerError("K(16A1) is not contained in the overlattice")
    checks["index_over_16a1"] = abs(det_bareiss(sub)) == 1 << kt.log2_index_over_16a1
    dg = discriminant_group(lat)
    checks["discriminant_group"] = dg.orders == [2] * kt.a
    elem, type2 = is_two_elementary_type2(dg)
    checks["two_elementary_type2"] = elem and type2
    if not all(checks.values()):
        failed = sorted(k for k, v in checks.items() if not v)
        raise KummerError(f"post-construction verification failure for "
                          f"K({type_symbol}): {failed}")
    result = KummerLattice(kt, lat, ov.basis, root_pairs, checks)
    _BUILD_CACHE[type_symbol] = result
    return result


# ---------------------------------------------------------------------------
# the complements Q_4 and Q_2


def _q_gram(which):
    g = [[0] * 6 for _ in range(6)]
    for i in range(6):
        g[i][i] = -2
    if which == "Q4":
        for i in range(1, 6):
            g[0][i] = g[i][0] = 1
    elif which == "Q2":
        for i in range(1, 5):
            g[0][i] = g[i][0] = 1
        g[4][5] = g[5][4] = 1
    else:
        raise KummerError(f"unknown complement {which!r}; expected Q4 or Q2")
    return g


_Q_CACHE = {}


def build_q(which):
    """The rank-6 lattice Q_4 or Q_2 with its verification.

    Results are cached; callers must treat them as read-only.
    """
    if which in _Q_CACHE:
        return _Q_CACHE[which]
    lat = Lattice(_q_gram(which), labels=[f"w{i}" for i in range(1, 7)])
    if signature(lat) != (1, 5):
        raise KummerError(f"{which} has wrong signature")
    dg = discriminant_group(lat)
    expected = [2, 2, 2, 2] if which == "Q4" else [2, 2]
    if dg.orders != expected:
        raise KummerError(f"{which} has wrong discriminant group {dg.orders}")
    elem, type2 = is_two_elementary_type2(dg)
    if not (elem and type2):
        raise KummerError(f"{which} is not 2-elementary of type 2")
    _Q_CACHE[which] = lat
    return lat


# glue classes on the Kummer side: 2-dimensional subspaces of S as subsets
T_CLASSES_Q4 = (
    _span2(1, 8),            # <v1, v4>, dual to every Kummer lattice in the chain
    _span2(2, 4),            # <v2, v3>
    _span2(1 ^ 2, 4 ^ 8),    # <v1+v2, v3+v4>
    _span2(1 ^ 2 ^ 4, 1 ^ 4 ^ 8),   # <v1+v2+v3, v1+v3+v4>
)
T_CLASSES_Q2 = (
    frozenset({1, 2, 4, 2 ^ 4, 8, 1 ^ 8}),
    frozenset({1, 2, 8, 2 ^ 8, 4 ^ 8, 1 ^ 4 ^ 8}),
)

# how many glue generators each type supports, per complement
_GLUE_DEPTH = {
    "Q4": {"16A1": 4, "4D4": 3, "2D8": 2, "1D16": 0, "2E8": 0},
    "Q2": {"16A1": 2, "4D4": 2, "2D8": 1, "1D16": 0, "2E8": 0},
}


def _u_reading_q4(index):
    """u_i = (1/2) * sum of w_j over 2 <= j <= 6, j != i+1 (the 'w_j' reading)."""
    return [Fraction(1, 2) if 1 <= j <= 5 and j != index else Fraction(0)
            for j in range(6)]


def u_classes_q4():
    """Dual classes u_1..u_5 of Q_4 with the reading decided empirically.

    The summation text is ambiguous between summing w_j over the index set
    and repeating w_i; only the former produces dual vectors gluing against
    the t-classes, so it is adopted and reported.
    """
    chosen = [_u_reading_q4(i) for i in range(1, 6)]
    if not _in_dual(build_q("Q4"), chosen):
        raise KummerError("u-class reading failed duality check")
    reading = "u_i = (1/2) * sum of w_j for j in 2..6, j != i+1"
    return chosen, reading


def _in_dual(lat, vecs):
    """Whether every vector pairs integrally with the whole lattice."""
    return all(x.denominator == 1
               for row in gram_of(lat, vecs, identity(lat.rank)) for x in row)


def u_classes_q2():
    """Order-2 dual classes of Q_2 used for the extended glue recipes.

    The literal reading (w_i + w_3)/2 is not even dual for i = 1; the
    three half-sums (w_a + w_b)/2, a < b in {2, 3, 4}, are the nonzero
    classes of the discriminant group, and the first two are adopted.
    """
    literal = [
        [Fraction(1, 2), 0, Fraction(1, 2), 0, 0, 0],       # (w1+w3)/2
        [0, Fraction(1, 2), Fraction(1, 2), 0, 0, 0],       # (w2+w3)/2
    ]
    literal_dual = _in_dual(build_q("Q2"), literal)
    chosen = [
        [0, Fraction(1, 2), Fraction(1, 2), 0, 0, 0],       # (w2+w3)/2
        [0, Fraction(1, 2), 0, Fraction(1, 2), 0, 0],       # (w2+w4)/2
    ]
    reading = ("literal (w_i + w_3)/2 rejected (not dual for i=1); "
               "adopted (w_2+w_3)/2, (w_2+w_4)/2")
    if literal_dual:
        chosen = literal
        reading = "literal (w_i + w_3)/2"
    return chosen, reading


def q_glue_values(lat, classes):
    """q-values of sums of m distinct listed dual classes, grouped by m."""
    if not _in_dual(lat, classes):
        raise KummerError("class not in the discriminant group")
    pm = gram_of(lat, classes)
    out = {}
    k = len(classes)
    for mask in range(1 << k):
        picked = [i for i in range(k) if (mask >> i) & 1]
        val = _qmod2(sum(pm[i][j] for i in picked for j in picked))
        out.setdefault(len(picked), set()).add(val)
    return {m: sorted(vals) for m, vals in sorted(out.items())}


@dataclass
class EmbedResult:
    type: KummerType
    sigma: int
    complement: str
    lattice: Lattice
    kummer_coords: list
    complement_coords: list
    glue_count: int
    checks: dict
    glue_info: dict


def embed_kummer(type_symbol, sigma, complement="Q4", extended=False):
    """Glue a Kummer lattice with Q_4/Q_2 into a rank-22 lattice of the
    supersingular Picard shape with the requested Artin invariant.

    Raises when no saturated embedding exists for the triple, when the
    nontrivial Q_2 recipes are requested without extended=True, or when a
    check on the glued lattice fails; the saturation of both factors is
    verified here and nowhere else.
    """
    if type_symbol not in KUMMER_TYPES:
        raise KummerError(f"unknown Kummer type {type_symbol!r}")
    if complement not in ("Q4", "Q2"):
        raise KummerError(f"unknown complement {complement!r}; expected Q4 or Q2")
    sigmas = admissible_sigmas(type_symbol, complement)
    if sigma not in sigmas:
        raise KummerError(
            f"no saturated embedding exists for these parameters: "
            f"type {type_symbol}, sigma {sigma}, complement {complement}")
    n_glue = max(sigmas) - sigma
    if complement == "Q2" and n_glue > 0 and not extended:
        raise KummerError("nontrivial Q_2 glue recipes require extended=True")
    kl = build_kummer(type_symbol)
    q = build_q(complement)
    if complement == "Q4":
        t_subsets = T_CLASSES_Q4[:n_glue]
        u_all, reading = u_classes_q4()
    else:
        t_subsets = T_CLASSES_Q2[:n_glue]
        u_all, reading = u_classes_q2()
    m1 = kl.frame_class_coords(t_subsets)
    m2 = [list(u) for u in u_all[:n_glue]]
    res = glue(kl.lattice, q, GlueData(m1, m2))
    lat = res.lattice
    checks = {
        "even": lat.is_even,
        "signature_(1,21)": signature(lat) == (1, 21),
        "rank_22": lat.rank == 22,
    }
    dg = discriminant_group(lat)
    checks[f"disc_group_(Z/2)^{2 * sigma}"] = dg.orders == [2] * (2 * sigma)
    elem, type2 = is_two_elementary_type2(dg)
    checks["two_elementary"] = elem
    checks["type2"] = type2
    checks["kummer_saturated"] = saturation(res.sub1, lat) == 1
    checks["complement_saturated"] = saturation(res.sub2, lat) == 1
    if not all(checks.values()):
        failed = sorted(k for k, v in checks.items() if not v)
        raise KummerError(f"embedding verification failure: {failed}")
    tq = q_glue_values(kl.lattice, m1) if m1 else {0: [Fraction(0)]}
    uq = q_glue_values(q, m2) if m2 else {0: [Fraction(0)]}
    glue_info = {
        "u_reading": reading,
        "t_q_by_count": {m: [str(v) for v in vals] for m, vals in tq.items()},
        "u_q_by_count": {m: [str(v) for v in vals] for m, vals in uq.items()},
    }
    return EmbedResult(kl.type, sigma, complement, lat, res.sub1, res.sub2,
                       n_glue, checks, glue_info)


def admissible_sigmas(type_symbol, complement="Q4"):
    kt = KUMMER_TYPES[type_symbol]
    b = 4 if complement == "Q4" else 2
    depth = _GLUE_DEPTH[complement][type_symbol]
    top = (kt.a + b) // 2
    return list(range(top - depth, top + 1))


# ---------------------------------------------------------------------------
# orthogonality of extra roots (finite check on a built embedding)


# positive classes inside the complements: 2w1 + (w2+..+w6) has square 2 in
# Q_4; twice the isotropic fibre class 2w1 + w2+w3+w4+w5 plus the section w6
# has square 2 in Q_2
_POSITIVE_CLASS = {"Q4": (2, 1, 1, 1, 1, 1), "Q2": (4, 2, 2, 2, 2, 1)}


def _positive_class(embed):
    """A class D with D^2 > 0 inside the complement factor, in glued coords."""
    q = build_q(embed.complement)
    coeffs = _POSITIVE_CLASS[embed.complement]
    norm = q.norm(list(coeffs))
    if norm <= 0:
        raise KummerError("positive class table is wrong")
    d = mat_mul([list(coeffs)], embed.complement_coords)[0]
    return d, list(coeffs), norm


def extra_root_orthogonality(embed):
    """Check that in the negative-definite part orthogonal to a positive
    class, every root lies in the Kummer factor or is orthogonal to it.

    Returns (number of roots checked, number inside K, number orthogonal).
    """
    lat = embed.lattice
    d_vec, _coeffs, _norm = _positive_class(embed)
    kern = left_kernel_basis(gram_of(lat, identity(lat.rank), [d_vec]))
    if len(kern) != 21:
        raise KummerError("orthogonal complement has unexpected rank")
    rts = roots(Lattice(gram_of(lat, kern)))
    k_rows = embed.kummer_coords
    amb = mat_mul(rts, kern)
    n_in = n_orth = 0
    # embed_kummer verified that the Kummer factor is saturated, so a
    # lattice vector in its rational span is in its integer span
    for sol, pairs in zip(lattice_coords(k_rows, amb), gram_of(lat, amb, k_rows)):
        if sol is not None:
            n_in += 1
        elif not any(pairs):
            n_orth += 1
        else:
            raise KummerError("root neither inside the Kummer factor nor orthogonal")
    return len(rts), n_in, n_orth


def complement_of_kummer(embed):
    """Orthogonal complement of the Kummer factor inside the glued lattice."""
    lat = embed.lattice
    kern = left_kernel_basis(gram_of(lat, identity(lat.rank), embed.kummer_coords))
    return Lattice(gram_of(lat, kern))
