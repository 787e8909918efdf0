"""Verification campaigns: each maps a finite claim to an exact computation.

Every campaign returns (results, claims, field_degrees).  Campaigns are
deterministic given the seed; randomized sweeps derive per-purpose
generators from string-tagged seeds.  The singularity sweep can fan out
over a process pool of at most min(jobs, CPU count, task count)
processes; tasks are keyed by (family, branch, field degree),
and merging is order-independent by construction.

Each campaign imports the layers it runs at the top of its body, so a
process without a bytecode cache (the CLI loads this module for the
campaign names) compiles only those.  A sampled claim fails on 0 samples.
"""

import os
import random

from . import KummerlabError
from .reports import claim


def campaign_table1():
    from .kummer_lattices import KUMMER_TYPES, build_kummer
    claims = []
    rows = {}
    for sym, kt in KUMMER_TYPES.items():
        kl = build_kummer(sym)
        rows[sym] = {
            "ade": ["%s%d" % k for k in sorted(kt.ade)],
            "index_over_roots": 1 << kt.log2_index_over_roots,
            "index_over_16A1": 1 << kt.log2_index_over_16a1,
            "disc_group_exponent": kt.a,
            "checks": {k: bool(v) for k, v in sorted(kl.checks.items())},
        }
        claims.append(claim(
            f"table1.{sym}",
            f"K({sym}) root type, indices and discriminant group match the table",
            all(kl.checks.values())))
    return {"rows": rows}, claims, []


def campaign_root_counts():
    from .kummer_lattices import KUMMER_TYPES, build_kummer
    from .lattice_core import roots
    claims = []
    counts = {}
    for sym, kt in KUMMER_TYPES.items():
        expected = kt.root_count
        kl = build_kummer(sym)
        pairs = roots(kl.lattice)
        counts[sym] = 2 * len(pairs)
        ok = counts[sym] == expected and len(pairs) == len(kl.root_pairs)
        claims.append(claim(
            f"roots.{sym}",
            f"K({sym}) has exactly {expected} roots by rank-16 enumeration",
            ok, {"enumerated": counts[sym]}))
    return {"counts": counts}, claims, []


def campaign_codes(limit=17):
    from .binary_codes import (build_v16, equivalence_classes, f_bound,
                               max_admissible_dim)
    claims = []
    table = {}
    witnesses16 = None
    for m in range(0, limit + 1):
        res = max_admissible_dim(m)
        table[m] = {"g": res.dim, "f": f_bound(m), "classes_by_dim": res.class_counts,
                    "maximum_classes": len(res.witnesses)}
        claims.append(claim(
            f"codes.g.{m}",
            f"exhaustive search gives g({m}) = f({m}) = {f_bound(m)}",
            res.exhaustive and res.dim == f_bound(m),
            {"g": res.dim}))
        if m == 16:
            witnesses16 = res.witnesses
    if witnesses16 is not None:
        classes = equivalence_classes(witnesses16 + [build_v16()])
        claims.append(claim(
            "codes.unique16",
            "the maximum code on 16 points is unique and is the "
            "affine-hyperplane code",
            len(witnesses16) == 1 and len(classes) == 1,
            {"maximum_classes": len(witnesses16)}))
    return {"g_table": table}, claims, []


def campaign_golay():
    from .binary_codes import golay_witness
    claims = []
    code = golay_witness()
    enum = code.weight_enumerator()
    claims.append(claim(
        "golay.dimension", "the 24-point witness code has dimension 12",
        code.dim == 12))
    claims.append(claim(
        "golay.weights",
        "weight distribution is (1, 759, 2576, 759, 1) on (0, 8, 12, 16, 24)",
        enum == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1},
        {"enumerator": {str(k): v for k, v in enum.items()}}))
    claims.append(claim(
        "golay.admissible", "no codeword has weight 4", code.is_admissible()))
    return {"weight_enumerator": {str(k): v for k, v in enum.items()}}, claims, []


def campaign_embeddings():
    from .kummer_lattices import (KUMMER_TYPES, KummerError, admissible_sigmas,
                                  embed_kummer)
    claims = []
    results = {}
    for sym in KUMMER_TYPES:
        q4_sigmas = admissible_sigmas(sym, "Q4")
        bound = max(q4_sigmas)
        for sigma in range(1, bound + 1):
            comp = "Q4" if sigma in q4_sigmas else "Q2"
            res = embed_kummer(sym, sigma, comp)
            key = f"{sym}.s{sigma}.{comp}"
            results[key] = {
                "glue_count": res.glue_count,
                "checks": {k: bool(v) for k, v in sorted(res.checks.items())},
                "glue_info": res.glue_info,
            }
            claims.append(claim(
                f"embed.{key}",
                f"K({sym}) embeds saturated with Artin invariant {sigma} "
                f"(complement {comp}), all flags verified",
                all(res.checks.values())))
        # first inadmissible sigma must fail
        bad = bound + 1
        try:
            embed_kummer(sym, bad, "Q4")
            ok = False
        except KummerError:
            try:
                embed_kummer(sym, bad, "Q2", extended=True)
                ok = False
            except KummerError:
                ok = True
        claims.append(claim(
            f"embed.reject.{sym}.s{bad}",
            f"no saturated embedding of K({sym}) at Artin invariant {bad}",
            ok))
    return results, claims, []


# per family: the coefficients a random member draws, in draw order, and
# the monomials outside the family an adversarial sample adds one of
_H_SAMPLING = {
    "class4": (("h30", "h21", "h12", "h03", "h11"), ((3, 1), (3, 2), (1, 3), (2, 3))),
    "class2": (("h11", "h12", "h03", "h05"), ((1, 3), (1, 5), (1, 6), (0, 7))),
}


def _random_H(family, field, rng, adversarial=False):
    from .char2_algebra import FqPoly
    from .surface_family import SurfaceSpec
    names, extra = _H_SAMPLING[family]
    h_poly = SurfaceSpec(family, field, {name: field.rand(rng) for name in names}).H()
    if adversarial:
        e = extra[rng.randrange(len(extra))]
        h_poly = h_poly + FqPoly(field, h_poly.vars, {e: field.rand_nonzero(rng)})
    return h_poly


def _failed_axioms(fv, h_poly, cartier):
    """How many of C(dF) = 0 and C(F^(p-1) dF) = dF fail, for the form
    dF = F_x H_y - F_y H_x on w^p = H and the Cartier routine `cartier`."""
    from .char2_algebra import partials
    p = h_poly.field.char
    h1, h2 = partials(h_poly)
    f1, f2 = partials(fv)
    df = f1 * h2 - f2 * h1
    form = cartier(fv.pow_int(p - 1) * df, h_poly)
    fixed = form.wcoeffs[0] == df and all(c.is_zero() for c in form.wcoeffs[1:])
    return (not cartier(df, h_poly).is_zero()) + (not fixed)


def campaign_cartier(seed, count=500, count_p3=100):
    from .char2_algebra import FqPoly, cartier_general, cartier_p2, get_field
    claims = []
    degrees = [2, 4, 6]
    fails = 0
    total = 0
    rng = random.Random(f"{seed}|cartier")
    for e in degrees:
        field = get_field(2, e)
        for family in _H_SAMPLING:
            for _ in range(count):
                h_poly = _random_H(family, field, rng)
                fv = FqPoly(field, h_poly.vars,
                            {(rng.randrange(5), rng.randrange(5)):
                             field.rand(rng) for _ in range(4)})
                total += 1
                fails += _failed_axioms(fv, h_poly, cartier_p2)
    # p = 2 general formula agrees with the specialized one
    field = get_field(2, 4)
    agree = True
    for _ in range(100):
        h_poly = _random_H("class4", field, rng)
        g_poly = FqPoly(field, h_poly.vars,
                        {(rng.randrange(4), rng.randrange(4)):
                         field.rand(rng) for _ in range(4)})
        f2form = cartier_p2(g_poly, h_poly)
        gform = cartier_general(g_poly, h_poly)
        if gform.wcoeffs != f2form.wcoeffs:
            agree = False
    # p = 3 cross-check on the general formula
    field3 = get_field(3, 2)
    fails3 = 0
    for _ in range(count_p3):
        h3 = FqPoly(field3, ("x", "y"),
                    {(2, 2): field3.one, (1, 0): field3.rand(rng),
                     (0, 1): field3.rand(rng), (2, 1): field3.rand(rng)})
        fv = FqPoly(field3, ("x", "y"),
                    {(rng.randrange(3), rng.randrange(3)):
                     field3.rand(rng) for _ in range(3)})
        fails3 += _failed_axioms(fv, h3, cartier_general)
    claims.append(claim(
        "cartier.p2.axioms",
        f"C(dF) = 0 and C(F dF) = dF on {total} samples over "
        "F_4, F_16, F_64, both families", total > 0 and fails == 0,
        {"failures": fails}))
    claims.append(claim(
        "cartier.general.p2", "general formula specializes to the p = 2 one",
        agree))
    claims.append(claim(
        "cartier.p3.axioms",
        f"p = 3 general formula satisfies the axioms on {count_p3} samples",
        count_p3 > 0 and fails3 == 0, {"failures": fails3}))
    return {"samples": total, "failures": fails + fails3}, claims, degrees


def campaign_p1(seed, count=500):
    from .char2_algebra import FqPoly, check_p1_derivative, get_field
    claims = []
    rng = random.Random(f"{seed}|p1")
    results = {}
    for p, e in ((2, 3), (3, 2), (5, 1)):
        field = get_field(p, e)
        fails = 0
        for _ in range(count):
            poly = FqPoly(field, ("t",),
                          {(rng.randrange(7),): field.rand(rng) for _ in range(4)})
            if not check_p1_derivative(poly):
                fails += 1
        results[f"p{p}"] = {"samples": count, "failures": fails}
        claims.append(claim(
            f"p1.p{p}",
            f"(d/dt)^(p-1) identities hold for {count} random polynomials, p = {p}",
            count > 0 and fails == 0))
    return results, claims, []


def campaign_zfilt(seed, count=100):
    from .char2_algebra import (CLASS2_AMBIENT, CLASS4_AMBIENT, get_field,
                                z_filtration_dims)
    claims = []
    rng = random.Random(f"{seed}|zfilt")
    results = {}
    for fam, ambient in (("class4", CLASS4_AMBIENT), ("class2", CLASS2_AMBIENT)):
        fails = 0
        for _ in range(count):
            field = get_field(2, rng.choice([4, 5, 6]))
            dims = z_filtration_dims(_random_H(fam, field, rng), ambient, 4)
            if dims != [7, 6, 5, 5, 5]:
                fails += 1
        adv_fails = 0
        for _ in range(count):
            field = get_field(2, rng.choice([4, 5, 6]))
            dims = z_filtration_dims(_random_H(fam, field, rng, adversarial=True),
                                     ambient, 3)
            if not dims[3] < 5:
                adv_fails += 1
        results[fam] = {"family_failures": fails, "adversarial_failures": adv_fails}
        claims.append(claim(
            f"zfilt.{fam}.family",
            f"{fam}: filtration dimensions are (7, 6, 5, 5, 5) on {count} members",
            count > 0 and fails == 0))
        claims.append(claim(
            f"zfilt.{fam}.adversarial",
            f"{fam}: an extra coefficient drops the level-3 dimension below 5 "
            f"on {count} samples", count > 0 and adv_fails == 0))
    return results, claims, [4, 5, 6]


def _singularity_task(args):
    from .char2_algebra import get_field
    from .surface_family import (classify_full, covering_derivation,
                                 fixed_locus_subgroup_check, sample_branch_spec)
    family, branch, e, seed, n = args
    field = get_field(2, e)
    rng = random.Random(f"{seed}|sing|{family}|{branch}|{e}")
    agree = 0
    additive_ok = 0
    rdp = branch not in ("nonRDP",)
    for _ in range(n):
        spec = sample_branch_spec(family, branch, field, rng)
        report = classify_full(spec)
        if report.branch == branch and report.total_colength == 16:
            agree += 1
        if rdp:
            deriv = covering_derivation(spec)
            _gens, additive, _order, _w = fixed_locus_subgroup_check(deriv)
            if additive:
                additive_ok += 1
    return {"family": family, "branch": branch, "e": e, "n": n,
            "agree": agree, "additive_ok": additive_ok, "rdp": rdp}


def campaign_singularities(seed, count=200, jobs=1):
    from .surface_family import BRANCHES
    degrees = [4, 5, 6, 7, 8]
    tasks = []
    for family in ("class4", "class2"):
        for branch in BRANCHES:
            per = count // len(degrees)
            sizes = [per] * len(degrees)
            sizes[0] += count - per * len(degrees)
            for e, n in zip(degrees, sizes):
                tasks.append((family, branch, e, seed, n))
    processes = min(jobs, os.cpu_count() or 1, len(tasks))
    if processes > 1:
        import multiprocessing
        with multiprocessing.Pool(processes) as pool:
            # task costs differ by 25x: one task per dispatch keeps every
            # worker busy to the end; map keeps the task order
            raws = pool.map(_singularity_task, tasks, chunksize=1)
    else:
        raws = [_singularity_task(t) for t in tasks]
    agg = {}
    for raw in raws:
        key = (raw["family"], raw["branch"])
        cur = agg.setdefault(key, {"n": 0, "agree": 0, "additive_ok": 0,
                                   "rdp": raw["rdp"]})
        cur["n"] += raw["n"]
        cur["agree"] += raw["agree"]
        cur["additive_ok"] += raw["additive_ok"]
    claims = []
    results = {}
    for (family, branch), cur in sorted(agg.items()):
        results[f"{family}.{branch}"] = {
            "samples": cur["n"], "classification_agreements": cur["agree"],
            "additive_fixed_locus": cur["additive_ok"] if cur["rdp"] else None}
        claims.append(claim(
            f"sing.{family}.{branch}",
            f"{family} {branch}: coefficient branch = enumeration profile, "
            f"colength total 16, on {cur['n']} random specs",
            count > 0 and cur["agree"] == cur["n"]))
        if cur["rdp"]:
            claims.append(claim(
                f"subgroup.{family}.{branch}",
                f"{family} {branch}: fixed-locus generators are additive on "
                f"all {cur['n']} specs",
                count > 0 and cur["additive_ok"] == cur["n"]))
    return results, claims, degrees


def campaign_subgroup(seed, count=100):
    from .char2_algebra import get_field
    from .surface_family import (SurfaceSpec, covering_derivation,
                                 fixed_locus_subgroup_check, sample_branch_spec)
    from .surface_family.derivations import _system_order
    rng = random.Random(f"{seed}|subgroup")
    claims = []
    field = get_field(2, 6)
    bad_additive = 0
    for _ in range(count):
        base = sample_branch_spec("class2", "16A1", field, rng)
        spec = SurfaceSpec("class2", field,
                           dict(base.coeffs, h07=field.rand_nonzero(rng)))
        deriv = covering_derivation(spec)
        _g, additive, _o, witness = fixed_locus_subgroup_check(deriv)
        if additive or witness is None:
            bad_additive += 1
    good_additive = 0
    orders_ok = 0
    for i in range(count):
        branch = ("16A1", "4D4", "2D8", "1D16", "2E8")[i % 5]
        spec = sample_branch_spec("class2", branch, field, rng)
        deriv = covering_derivation(spec)
        gens, additive, order, _w = fixed_locus_subgroup_check(deriv)
        if additive:
            good_additive += 1
        # the Ore order in k{tau}, cross-checked by closed points and colengths
        if order == 16 and _system_order(gens, deriv.vars) == 16:
            orders_ok += 1
    claims.append(claim(
        "subgroup.class2.h07_nonzero",
        f"class 2 with h07 != 0: additivity fails with a witness on {count} samples",
        count > 0 and bad_additive == 0))
    claims.append(claim(
        "subgroup.class2.h07_zero",
        f"class 2 with h07 = 0: generators additive and group order 16 on "
        f"{count} samples", count > 0 and good_additive == orders_ok == count))
    return {"h07_nonzero_failures": bad_additive,
            "h07_zero_nonadditive": count - good_additive}, claims, [6]


def campaign_leq5():
    from .rdp_invariants import KUMMER_CONFIGS, verify_leq5
    best, cases, enumerated = verify_leq5(16)
    expected = sorted("+".join(syms) for syms in KUMMER_CONFIGS)
    got = sorted(str(c) for c in cases)
    claims = [
        claim("leq5.max", "max of f(m) + b - n_B over index <= 16 is 5",
              best == 5, {"max": best, "enumerated": enumerated}),
        claim("leq5.cases",
              "equality exactly at the five Kummer-type configurations",
              got == expected, {"cases": got}),
    ]
    return {"max": best, "equality_cases": got, "enumerated": enumerated}, claims, []


def campaign_table2():
    from .rdp_invariants import (KUMMER_CONFIGS, RdpCollection, RdpType, b_index,
                                 dim_b_bar)
    claims = []
    e8 = RdpType("E", 8, 0)
    ok_e8 = [dim_b_bar(e8, n) for n in (1, 2, 3)] == [2, 3, 4] and b_index(e8) == 3
    claims.append(claim(
        "table2.E8", "E_8^0 has levels (2, 3, 4) and stabilization index 3", ok_e8))
    mono_ok = True
    for n_idx in range(4, 21):
        start = 0 if n_idx % 2 == 0 else 1
        for r2 in range(start, n_idx - 1, 2):
            t = RdpType("D", n_idx, r2)
            prev = 0
            nb = b_index(t)
            for n in range(1, nb + 3):
                cur = dim_b_bar(t, n)
                if cur < prev:
                    mono_ok = False
                if n > nb and cur != dim_b_bar(t, nb):
                    mono_ok = False
                prev = cur
    claims.append(claim(
        "table2.D.monotone",
        "D_N^r levels are non-decreasing and constant from the stabilization "
        "index on, for all N <= 20", mono_ok))
    consistency = all(
        RdpCollection.of(*syms).i == 16 for syms in KUMMER_CONFIGS)
    claims.append(claim(
        "table2.kummer_indices", "the five configurations have total index 16",
        consistency))
    return {}, claims, []


_CAMPAIGNS = {
    "table1": lambda seed, quick, jobs: campaign_table1(),
    "roots": lambda seed, quick, jobs: campaign_root_counts(),
    "codes": lambda seed, quick, jobs: campaign_codes(14 if quick else 17),
    "golay": lambda seed, quick, jobs: campaign_golay(),
    "embeddings": lambda seed, quick, jobs: campaign_embeddings(),
    "cartier": lambda seed, quick, jobs: campaign_cartier(seed),
    "p1": lambda seed, quick, jobs: campaign_p1(seed),
    "zfilt": lambda seed, quick, jobs: campaign_zfilt(seed),
    "singularities": lambda seed, quick, jobs: campaign_singularities(
        seed, jobs=jobs),
    "subgroup": lambda seed, quick, jobs: campaign_subgroup(seed),
    "leq5": lambda seed, quick, jobs: campaign_leq5(),
    "table2": lambda seed, quick, jobs: campaign_table2(),
}

CAMPAIGN_NAMES = tuple(_CAMPAIGNS) + ("all",)


def _run_one(name, seed, quick, jobs):
    """One campaign; a package error inside it becomes a failing claim."""
    try:
        return _CAMPAIGNS[name](seed, quick, jobs)
    except KummerlabError as exc:
        return {}, [claim(f"{name}.error", f"campaign {name} ran to completion",
                          False, details=f"{type(exc).__name__}: {exc}")], []


def run_campaign(name, seed=0, quick=False, jobs=1):
    """(results, claims, field_degrees) for one named campaign or 'all'.

    A campaign that raises a package error reports a failing
    '<campaign>.error' claim (exit 1: a claim failed, not bad input), and
    under 'all' the other campaigns still report.
    """
    if name == "all":
        results = {}
        claims = []
        degrees = []
        for sub in _CAMPAIGNS:
            r, c, d = _run_one(sub, seed, quick, jobs)
            results[sub] = r
            claims.extend(c)
            degrees.extend(d)
        return results, claims, degrees
    if name not in _CAMPAIGNS:
        raise KeyError(name)
    return _run_one(name, seed, quick, jobs)
