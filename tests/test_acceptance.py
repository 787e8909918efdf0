"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a pass/fail line with its runtime.  The criteria are
exact (no floating point anywhere); runtime bounds are asserted against
the stated budgets.
"""

import hashlib
import time

import pytest

from kummerlab.reports import make_report, render
from kummerlab.verify import (
    campaign_cartier,
    campaign_codes,
    campaign_embeddings,
    campaign_golay,
    campaign_leq5,
    campaign_p1,
    campaign_root_counts,
    campaign_singularities,
    campaign_subgroup,
    campaign_table1,
    campaign_table2,
    campaign_zfilt,
    run_campaign,
)

SEED = 0


def _run(number, label, budget_seconds, fn, *args, **kwargs):
    start = time.time()
    results, claims, _degrees = fn(*args, **kwargs)
    elapsed = time.time() - start
    failed = [c["id"] for c in claims if not c["passed"]]
    status = "PASS" if not failed else f"FAIL {failed}"
    print(f"[{status}] criterion {number}: {label} ({elapsed:.1f}s)")
    assert not failed, f"criterion {number} failed claims: {failed}"
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s")
    return results, claims


def test_criterion_01_table1():
    results, claims = _run(1, "five-lattice table reproduction", 10,
                           campaign_table1)
    assert len([c for c in claims if c["id"].startswith("table1.")]) == 5


def test_criterion_02_root_counts():
    results, _ = _run(2, "root counts 32/96/224/480/480 by rank-16 "
                      "enumeration", 60, campaign_root_counts)
    assert results["counts"] == {"16A1": 32, "4D4": 96, "2D8": 224,
                                 "1D16": 480, "2E8": 480}


def test_criterion_03_code_search():
    t0 = time.time()
    results, claims = _run(3, "exhaustive g(m) = f(m) for m <= 17 with the "
                           "unique maximum at m = 16", 1800,
                           campaign_codes, 17)
    assert results["g_table"][16]["g"] == 5
    assert any(c["id"] == "codes.unique16" and c["passed"] for c in claims)
    # the quick subset stays under a minute
    t0 = time.time()
    run_campaign("codes", quick=True)
    assert time.time() - t0 < 60


def test_criterion_04_golay():
    _run(4, "Golay witness: dimension 12, weights (1,759,2576,759,1)", 1,
         campaign_golay)


def test_criterion_05_embedding_table():
    results, claims = _run(5, "saturated embeddings exactly for sigma <= "
                           "5,4,3,2,2 with all flags", 60, campaign_embeddings)
    success = [c for c in claims if c["id"].startswith("embed.") and
               not c["id"].startswith("embed.reject")]
    rejects = [c for c in claims if c["id"].startswith("embed.reject")]
    assert len(success) == 16
    assert len(rejects) == 5


def test_criterion_06_cartier_axioms():
    results, _ = _run(6, "C(dF) = 0 and C(F dF) = dF, 500 samples per field "
                      "per family; p = 3 cross-check", 600,
                      campaign_cartier, SEED)
    assert results["samples"] >= 6 * 500
    assert results["failures"] == 0


def test_criterion_07_p1_derivative():
    results, _ = _run(7, "(p-1)-derivative identity, 500 samples for "
                      "p = 2, 3, 5", 300, campaign_p1, SEED)
    for key in ("p2", "p3", "p5"):
        assert results[key]["samples"] >= 500
        assert results[key]["failures"] == 0


def test_criterion_08_z_filtration():
    results, _ = _run(8, "filtration dims (7,6,5,5,5) on 100 members per "
                      "family; adversarial coefficients drop level 3", 600,
                      campaign_zfilt, SEED)
    for fam in ("class4", "class2"):
        assert results[fam]["family_failures"] == 0
        assert results[fam]["adversarial_failures"] == 0


def test_criterion_09_singularity_cross_validation():
    results, claims = _run(9, "coefficient classification vs brute-force "
                           "enumeration, 200 specs per branch per family",
                           1200, campaign_singularities, SEED, 200)
    sing = [c for c in claims if c["id"].startswith("sing.")]
    assert len(sing) == 12
    for key, rec in results.items():
        assert rec["samples"] >= 200, key


def test_criterion_10_subgroup_checks():
    # additivity on every RDP-branch spec of criterion 9 is asserted there;
    # here the h07 dichotomy on 100 samples per side
    _sing_results, sing_claims, _deg = campaign_singularities(SEED, 50)
    additive_claims = [c for c in sing_claims if c["id"].startswith("subgroup.")]
    assert additive_claims and all(c["passed"] for c in additive_claims)
    results, _ = _run(10, "class-2 additivity fails exactly when h07 != 0, "
                      "100 samples per side", 600, campaign_subgroup, SEED)
    assert results["h07_nonzero_failures"] == 0
    assert results["h07_zero_nonadditive"] == 0


def test_criterion_11_leq5():
    results, _ = _run(11, "exhaustive bound 5 with equality at the five "
                      "configurations", 60, campaign_leq5)
    assert results["max"] == 5
    assert len(results["equality_cases"]) == 5


def test_criterion_12_table2():
    _run(12, "stabilized dimension table spot values and monotonicity", 60,
         campaign_table2)


# sha256 of the seed-11 `verify all` report; a change that adds or alters
# a claim updates it and says so
CRITERION_13_SHA256 = ("dd7c0b4e5a442d8a467881dbd0a160b6"
                       "d84e10e0f82eec490c39c2621abd5e2b")


@pytest.mark.slow
def test_criterion_13_determinism():
    t0 = time.time()
    reports = []
    for _ in range(2):
        results, claims, degrees = run_campaign("all", seed=11, quick=False,
                                                jobs=1)
        rep = make_report(["kummerlab", "verify", "all", "--seed", "11"],
                          {"campaign": "all", "quick": False}, results,
                          claims, seeds={"seed": 11},
                          field_extensions=degrees)
        reports.append(render(rep))
    elapsed = time.time() - t0
    same = reports[0] == reports[1]
    status = "PASS" if same else "FAIL"
    print(f"[{status}] criterion 13: two seeded full runs are byte-identical "
          f"({elapsed:.1f}s)")
    assert same
    assert hashlib.sha256(reports[0].encode()).hexdigest() == CRITERION_13_SHA256
