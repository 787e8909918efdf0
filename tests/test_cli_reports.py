import contextlib
import hashlib
import importlib
import io
import json
import multiprocessing
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import kummerlab
from kummerlab import KummerlabError, verify
from kummerlab.char2_algebra import FieldError, PolyError
from kummerlab.cli import main
from kummerlab.lattice_core import LatticeError
from kummerlab.reports import claim, validate_report
from kummerlab.verify import campaign_singularities

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


GOLDEN_CASES = [
    (["rdp", "verify-leq5"], "rdp_verify_leq5.json"),
    (["kummer", "build", "--type", "4D4"], "kummer_build_4d4.json"),
    (["lattice", "info", "--in", "tests/golden/d4_lattice.json"],
     "lattice_info_d4.json"),
    # fixed_locus_order: the Ore order for additive generators (class 4,
    # class 2 with h07 = 0), the closed-point order for h07 != 0
    (["surface", "derivation-check", "--family", "class4", "--field", "e=4",
      "--coeffs", "h11=1"], "derivation_check_class4_h11.json"),
    (["surface", "derivation-check", "--family", "class2", "--field", "e=4",
      "--coeffs", "h11=1,h03=0011"], "derivation_check_class2_h07_zero.json"),
    (["surface", "derivation-check", "--family", "class2", "--field", "e=4",
      "--coeffs", "h11=1,h07=0101"], "derivation_check_class2_h07_nonzero.json"),
    # glue, signature, saturation and discriminant groups on every embedding
    (["verify", "embeddings"], "verify_embeddings.json"),
    # the glued Gram itself, with four glue vectors and with an extended one
    (["kummer", "embed", "--type", "16A1", "--sigma", "1", "--complement",
      "Q4"], "kummer_embed_16a1_s1_q4.json"),
    (["kummer", "embed", "--type", "4D4", "--sigma", "2", "--complement",
      "Q2", "--extended"], "kummer_embed_4d4_s2_q2_extended.json"),
    # an overlattice Gram built from the doubled A_1^16 frame
    (["kummer", "build", "--type", "2E8"], "kummer_build_2e8.json"),
    # fields with more than 256 elements: list-ring factorization, the
    # list-ring PRS and the list-ring coprimality test over a base field
    (["surface", "derivation-check", "--family", "class2", "--field", "e=9",
      "--coeffs", "h11=1,h07=01"], "derivation_check_class2_e9_h07.json"),
    (["surface", "classify", "--family", "class4", "--field", "e=10",
      "--coeffs", "h30=0100011,h11=1"], "classify_class4_e10.json"),
    # the largest fields: a non-additive class-2 derivation over F_2^12
    # (the coprimality gcd and the closed-point resultant), and F_2^16
    (["surface", "derivation-check", "--family", "class2", "--field", "e=12",
      "--coeffs", "h12=1,h05=1,h07=1"],
     "derivation_check_class2_e12_nonadditive.json"),
    (["surface", "classify", "--family", "class4", "--field", "e=16",
      "--coeffs", "h11=1,h30=1"], "classify_class4_e16.json"),
    # a half-integral Gram: the only input that builds a lattice of denominator 2
    (["lattice", "info", "--in", "tests/golden/half_integral_lattice.json"],
     "lattice_info_half_integral.json"),
    (["lattice", "roots", "--in", "tests/golden/half_integral_lattice.json"],
     "lattice_roots_half_integral.json"),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES)
def test_golden_reports(argv, golden, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent.parent)
    rc, out = run_cli(argv)
    assert rc == 0
    expected = (GOLDEN / golden).read_text()
    assert out == expected
    validate_report(json.loads(out))


# seeded reports the benchmark's reference pins by hash, cheap enough for
# tier-1; a byte change in any of them fails here before the benchmark runs
REFERENCE_HASHED = ["verify-cartier", "verify-p1", "verify-zfilt",
                    "verify-subgroup", "verify-singularities", "lattice-roots",
                    "verify-roots", "verify-table1"]


@pytest.mark.parametrize("name", REFERENCE_HASHED)
def test_report_matches_the_benchmark_reference(name, monkeypatch):
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())[name]
    monkeypatch.chdir(ROOT)
    rc, out = run_cli(ref["argv"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ref["sha256"]


def test_schema_validates_all_subcommands():
    cases = [
        ["codes", "search", "--m", "10"],
        ["codes", "g-table", "--max", "8"],
        ["surface", "classify", "--family", "class2", "--field", "e=4",
         "--coeffs", "h12=01"],
        ["surface", "derivation-check", "--family", "class4", "--field",
         "e=4", "--coeffs", "h11=1"],
        ["rdp", "table", "--type", "E8r0", "--max-n", "4"],
        ["lattice", "roots", "--in", str(GOLDEN / "d4_lattice.json")],
    ]
    for argv in cases:
        rc, out = run_cli(argv)
        assert rc == 0, argv
        validate_report(json.loads(out))


NOT_EVEN_LATTICES = [
    pytest.param({"gram": [[1]]}, 1, [1, 0], id="odd"),
    pytest.param({"gram": [["-3/2", "1/2"], ["1/2", -2]]}, "11/4", [0, 2],
                 id="half-integral"),
]


@pytest.mark.parametrize("lattice,disc,sig", NOT_EVEN_LATTICES)
def test_lattice_info_on_lattices_that_are_not_even(lattice, disc, sig, tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(lattice))
    rc, out = run_cli(["lattice", "info", "--in", str(path)])
    assert rc == 0
    report = json.loads(out)
    validate_report(report)
    assert report["results"] == {
        "discriminant": disc, "signature": sig, "even": False,
        "discriminant_group_orders": None, "q_values": None,
        "two_elementary": None, "type2": None}


def test_search_cut_by_budget_claims_nothing():
    # exit 1 means a refuted claim; a search cut short refutes nothing
    rc, out = run_cli(["codes", "search", "--m", "16", "--budget", "2"])
    report = json.loads(out)
    validate_report(report)
    assert rc == 0 and report["passed"]
    assert report["results"]["truncated"] is True
    assert [c["id"] for c in report["claims"]] == ["codes.g.16"]
    # witness mode keeps its claim
    rc, out = run_cli(["codes", "search", "--m", "18"])
    report = json.loads(out)
    assert rc == 0 and "truncated" not in report["results"]
    assert [c["id"] for c in report["claims"]] == ["codes.g.18", "codes.witness.18"]


def test_exit_codes():
    # claim failure: expected branch mismatch
    rc, _ = run_cli(["surface", "classify", "--family", "class4", "--field",
                     "e=4", "--coeffs", "h11=1", "--expect", "2E8"])
    assert rc == 1
    # usage error: bad subcommand
    rc, _ = run_cli(["frobnicate"])
    assert rc == 2
    # input error: malformed coefficient
    rc, _ = run_cli(["surface", "classify", "--family", "class4",
                     "--field", "e=4", "--coeffs", "h11"])
    assert rc == 2
    # input error: bad field element encoding
    rc, _ = run_cli(["surface", "classify", "--family", "class4",
                     "--field", "e=4", "--coeffs", "h11=7"])
    assert rc == 2
    # inadmissible embedding triple
    rc, _ = run_cli(["kummer", "embed", "--type", "16A1", "--sigma", "6"])
    assert rc == 2


BAD_INPUTS = [
    pytest.param(["surface", "classify", "--family", "class4", "--field", "e"],
                 None, None, id="field-without-value"),
    pytest.param(["surface", "classify", "--family", "class4", "--field",
                  "e=abc"], None, None, id="field-degree-not-integer"),
    pytest.param(["rdp", "table", "--type", "X"], None, None, id="rdp-type"),
    pytest.param(["lattice", "info", "--in"], {"gram": [["a", 0], [0, "b"]]},
                 None, id="gram-not-numeric"),
    pytest.param(["lattice", "info", "--in"], [[2, 0], [0, 2]], None,
                 id="lattice-json-list"),
    pytest.param(["codes", "g-table", "--max", "-5"], None, None,
                 id="codes-max-negative"),
    pytest.param(["codes", "g-table", "--max", "30"], None,
                 "--max must be between 0 and 17", id="codes-max-above-exhaustive"),
    pytest.param(["rdp", "table", "--max-n", "-3"], None, None,
                 id="rdp-max-n-negative"),
    pytest.param(["rdp", "table", "--type", "A3", "--max-n", "100000000"], None,
                 "--max-n must be between 0 and 64", id="rdp-max-n-above-cap"),
    pytest.param(["rdp", "table", "--type", "E6"], None, "illegal type E6",
                 id="rdp-e-type-without-coindex"),
    pytest.param(["lattice", "roots", "--in"], {"gram": [[2]]},
                 "root enumeration requires a negative definite lattice",
                 id="roots-positive-definite"),
    pytest.param(["lattice", "info", "--in"], {"gram": [[-2]], "labels": [1, 2, 3]},
                 "one label per row", id="labels-not-one-per-row"),
    pytest.param(["lattice", "info", "--in"],
                 {"gram": [[-2 * (i == j) for j in range(33)] for i in range(33)]},
                 "rank 33 exceeds the limit of 32", id="gram-rank-above-cap"),
    pytest.param(["verify", "table1", "--jobs", "0"], None,
                 "--jobs must be at least 1", id="verify-jobs-zero"),
    pytest.param(["codes", "search", "--m", "8", "--budget", "0"], None,
                 "--budget must be at least 1", id="codes-budget-zero"),
    pytest.param(["surface", "derivation-check", "--family", "class2", "--field",
                  "p=3,e=1"], None, "defined over F_2^e", id="derivation-check-char3"),
    pytest.param(["surface", "classify", "--family", "class4", "--field",
                  "p=3,e=2"], None, "defined over F_2^e", id="classify-char3"),
    pytest.param(["kummer", "build", "--type", "X"], None, "invalid choice",
                 id="argparse-kummer-type"),
    pytest.param(["verify", "nope"], None, "invalid choice",
                 id="argparse-verify-campaign"),
    pytest.param(["codes", "search", "--m", "abc"], None, "invalid int value",
                 id="argparse-codes-m-not-integer"),
    pytest.param(["codes", "search", "--quick"], None, "unrecognized arguments",
                 id="argparse-codes-quick-removed"),
    pytest.param(["surface", "classify", "--family", "class2", "--field", "e=4",
                  "--expect", "bogus"], None, "argument --expect",
                 id="surface-expect-unknown-branch"),
    pytest.param(["surface", "classify", "--family", "class4", "--field", "e=4",
                  "--coeffs", "h11=1,h11=0"], None, "coefficient 'h11' given twice",
                 id="coeffs-repeated-name"),
    pytest.param(["surface", "classify", "--family", "class4", "--field",
                  "e=4,e=6"], None, "field key 'e' given twice",
                 id="field-repeated-key"),
]


def run_python(args):
    """A fresh interpreter with the package's source directory on the path."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv,lattice,message", BAD_INPUTS)
def test_bad_input_exits_2_with_one_error_line(argv, lattice, message, tmp_path):
    if lattice is not None:
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(lattice))
        argv = argv + [str(path)]
    proc = run_python(["-m", "kummerlab.cli", *argv])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("kummerlab: error: ")
    if message is not None:
        assert message in lines[0]
    assert proc.stdout == ""


def test_cli_does_not_import_numpy():
    proc = run_python(["-c", "import kummerlab.cli, sys; print('numpy' in sys.modules)"])
    assert proc.returncode == 0 and proc.stdout == "False\n"


# runs `cli.main(argv)` (or only the import, for no argv) in a fresh
# interpreter and prints [exit code, the kummerlab modules loaded] to stderr
LOADED_BY = """import json, sys
from kummerlab.cli import main
rc = main(sys.argv[1:]) if len(sys.argv) > 1 else None
print(json.dumps([rc, sorted(m for m in sys.modules
                             if m.split(".")[0] == "kummerlab")]), file=sys.stderr)
"""


def modules_loaded_by(argv):
    proc = run_python(["-c", LOADED_BY, *argv])
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stderr.splitlines()[-1])
    return rc, set(modules)


def test_cli_import_loads_only_the_front_end():
    assert modules_loaded_by([]) == (None, {
        "kummerlab", "kummerlab.cli", "kummerlab.reports", "kummerlab.verify"})


@pytest.mark.parametrize("argv,layer,skipped", [
    (["lattice", "roots", "--in", str(GOLDEN / "d4_lattice.json")],
     "kummerlab.lattice_core",
     ("kummerlab.char2_algebra", "kummerlab.surface_family")),
    (["verify", "p1"], "kummerlab.char2_algebra",
     ("kummerlab.exactmat", "kummerlab.lattice_core", "kummerlab.binary_codes")),
    (["rdp", "verify-leq5"], "kummerlab.binary_codes",
     ("kummerlab.exactmat", "kummerlab.lattice_core")),
    (["codes", "search", "--m", "8"], "kummerlab.binary_codes",
     ("kummerlab.exactmat", "kummerlab.lattice_core")),
], ids=["lattice-roots", "verify-p1", "rdp-verify-leq5", "codes-search"])
def test_a_command_loads_only_the_layers_it_runs(argv, layer, skipped):
    rc, modules = modules_loaded_by(argv)
    assert rc == 0 and layer in modules
    assert not [m for m in modules if m.startswith(skipped)]


def test_every_package_error_is_a_kummerlab_error():
    # public exception classes; points._NonIsolated is internal control flow
    errors = set()
    for info in pkgutil.walk_packages(kummerlab.__path__, "kummerlab."):
        for name, obj in vars(importlib.import_module(info.name)).items():
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__.startswith("kummerlab.")
                    and not name.startswith("_")):
                errors.add(obj)
    assert {e.__name__ for e in errors} == {
        "UsageError", "CodeError", "LatticeError", "KummerError", "SurfaceError",
        "RdpError", "FieldError", "PolyError", "CartierError"}
    assert all(issubclass(e, KummerlabError) for e in errors)


def test_singularity_pool_is_capped(monkeypatch):
    """--jobs is capped at the CPU count and the task count; no process starts."""
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            assert chunksize == 1
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pooled = campaign_singularities(seed=1, count=5, jobs=10 ** 6)
    assert sizes == [4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert campaign_singularities(seed=1, count=5, jobs=10 ** 6) == pooled
    assert sizes == [4]
    assert campaign_singularities(seed=1, count=5, jobs=1) == pooled


def test_singularity_campaign_below_one_spec_per_degree():
    # count < 5 puts every spec on the first degree; no task has a
    # negative size
    results, claims, _degrees = campaign_singularities(seed=1, count=3)
    for key, rec in results.items():
        assert rec["samples"] == 3, key
        assert rec["classification_agreements"] == 3, key
    assert claims and all(c["passed"] for c in claims)


@pytest.mark.parametrize("campaign,kwargs,unsampled", [
    (verify.campaign_cartier, {"count": 0, "count_p3": 0},
     # 100 fixed draws compare the general formula with the p = 2 one
     ["cartier.general.p2"]),
    (verify.campaign_p1, {"count": 0}, []),
    (verify.campaign_zfilt, {"count": 0}, []),
    (verify.campaign_singularities, {"count": 0}, []),
    (verify.campaign_subgroup, {"count": 0}, []),
], ids=["cartier", "p1", "zfilt", "singularities", "subgroup"])
def test_sampled_claims_fail_on_zero_samples(campaign, kwargs, unsampled):
    _results, claims, _degrees = campaign(1, **kwargs)
    assert claims
    assert [c["id"] for c in claims if c["passed"]] == unsampled


def test_report_written_to_file(tmp_path):
    out = tmp_path / "report.json"
    rc, stdout = run_cli(["rdp", "verify-leq5", "--out", str(out)])
    assert rc == 0 and stdout == ""
    data = json.loads(out.read_text())
    assert data["passed"] is True


def test_verify_subcommand_and_seed_env(monkeypatch):
    rc, out = run_cli(["verify", "golay"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["seeds"] == {"seed": 0}
    monkeypatch.setenv("KUMMERLAB_SEED", "7")
    rc, out = run_cli(["verify", "golay"])
    assert json.loads(out)["seeds"] == {"seed": 7}
    # explicit flag wins over the environment
    rc, out = run_cli(["verify", "golay", "--seed", "3"])
    assert json.loads(out)["seeds"] == {"seed": 3}


def test_campaign_error_is_a_failing_claim(monkeypatch):
    """A package error inside a campaign fails that campaign's claim (exit 1);
    under 'all' the other campaigns still report."""
    for error in (LatticeError("degenerate lattice"),
                  FieldError("element out of range"),
                  PolyError("variable not in use")):
        def broken(seed, quick, jobs):
            raise error

        monkeypatch.setattr(verify, "_CAMPAIGNS", {
            "fine": lambda seed, quick, jobs: ({"x": 1}, [claim("fine.ok", "ok", True)], []),
            "broken": broken,
        })
        rc, out = run_cli(["verify", "all", "--seed", "0"])
        assert rc == 1
        rep = json.loads(out)
        validate_report(rep)
        assert rep["results"] == {"fine": {"x": 1}, "broken": {}}
        assert rep["claims"] == [
            {"id": "fine.ok", "description": "ok", "passed": True},
            {"id": "broken.error", "description": "campaign broken ran to completion",
             "passed": False, "details": f"{type(error).__name__}: {error}"},
        ]
        assert verify.run_campaign("broken")[1] == rep["claims"][1:]


def test_verify_campaign_determinism():
    rc1, out1 = run_cli(["verify", "zfilt", "--seed", "5"])
    rc2, out2 = run_cli(["verify", "zfilt", "--seed", "5"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    rc3, out3 = run_cli(["verify", "zfilt", "--seed", "6"])
    assert rc3 == 0
    rep1, rep3 = json.loads(out1), json.loads(out3)
    verdicts1 = [(c["id"], c["passed"]) for c in rep1["claims"]]
    verdicts3 = [(c["id"], c["passed"]) for c in rep3["claims"]]
    assert verdicts1 == verdicts3


def test_embed_report_mentions_reading():
    rc, out = run_cli(["kummer", "embed", "--type", "2D8", "--sigma", "1",
                       "--complement", "Q4"])
    assert rc == 0
    rep = json.loads(out)
    info = rep["results"]["glue_info"]
    assert "w_j" in info["u_reading"]
    assert info["t_q_by_count"]["0"] == ["0"] if "0" in info["t_q_by_count"] \
        else True
