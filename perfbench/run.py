"""kummerlab benchmark: time to verdict, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload embed|sweep|cli_suite --seed N
        [--seconds S] [--trace 0|1] [--profile]

Workloads (inputs and checks in workloads.py):

- embed: seeded (Kummer type, sigma, complement, extended) triples from the
  embedding table through kummer_lattices.embed_kummer, plus inadmissible
  sigmas that must raise.  Nearly all work is in lattice_core and exactmat
  (rank-22 glue, saturation, discriminant groups); char2_algebra and
  surface_family are never called.
- sweep: seeded surface specs (both families, all branches, field degrees
  4..8, and class-2 specs with h07 != 0) through classify_full and, on RDP
  branches, covering_derivation + fixed_locus_subgroup_check.  All work is
  in char2_algebra and surface_family; the lattice layers are never called.
- cli_suite: the real command list of tracing.CLI_COMMANDS, one
  `python -m kummerlab.cli` process each, one after another.  It is the
  only workload that measures process start-up, report rendering, the
  `--jobs 2` pool and the exhaustive code search.

Every measured run starts fresh interpreters, because the package caches
(_BUILD_CACHE, _FIELD_CACHE, _NP_CACHE, _PARITY_CACHE) live in the process
and every CLI user pays to fill them.  A workload runs in rounds of fixed
composition within --seconds: a round starts only when, at the mean
round wall so far, it ends in time, and the first round always runs.

With --trace 0 the last stdout line holds the end-to-end metrics:
setup_s (spawn through imports, fields, Kummer builds and input draws;
median of several set-ups; for cli_suite a cold `import kummerlab.cli`),
wall_s (wall time of the timed section per round: rounds of one draw
differ in cost, so the mean over a run is steadier than their median),
verdict_p50_ms (per item: one triple, one spec or one command) and
peak_rss_mb (largest child process).  verdict_p90_ms and failed_frac are
printed above that line with their sample counts; p90 is not gated, as
only sweep has the 100+ verdicts per run a steady p90 needs.  With --trace 1 it holds the per-layer metrics of a traced
run (tracing.py) on the same inputs, next to an untraced run that gives
bench.trace_overhead_frac.  --profile runs the workload once under
cProfile and prints the top 25 entries by cumulative time; it reports no
metrics.  Failed items count in "failed"; they never abort a run.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import pstats
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKER = HERE / "worker.py"
RUN_LIMIT_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("verdict_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))
# printed, not gated: only sweep has the 100+ verdicts a run needs for a
# steady p90; on embed and cli_suite it is the second-slowest item
PRINTED_ONLY = (("verdict_p90_ms", "ms"),)
# embed set-up (five Kummer builds) takes ~5 s, so it gets fewer samples
SETUP_SAMPLES = {"embed": 2, "sweep": 7, "cli_suite": 8}
# cli_suite runs its commands in this order: the four that take about the
# median time (under a second each) sit between long commands, so that
# the host's speed drifts of a few seconds do not hit all of them at once
CLI_PASS_ORDER = ("verify-table1", "verify-zfilt", "verify-roots",
                  "kummer-build", "verify-singularities", "codes-search",
                  "verify-subgroup", "verify-p1", "verify-codes",
                  "verify-cartier", "verify-table2", "verify-golay",
                  "verify-leq5", "lattice-info", "rdp-verify-leq5",
                  "lattice-roots")
# layers each workload must never reach (its bypass prediction)
BYPASS = {"embed": ("char2_algebra", "surface_family"),
          "sweep": ("exactmat", "lattice_core", "kummer_lattices"),
          "cli_suite": ()}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts child processes in their own session under one deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else []))

    def run(self, argv):
        """(seconds from spawn to exit, returncode, stdout bytes, stderr bytes)."""
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return time.monotonic() - t0, proc.returncode, out, err

    def worker(self, workload, seed, *extra):
        """Run worker.py; returns (its JSON result, seconds spawn->set-up done)."""
        t0 = time.monotonic()
        _dt, rc, out, err = self.run(
            [sys.executable, str(WORKER), "--workload", workload,
             "--seed", str(seed), *map(str, extra)])
        if rc != 0:
            raise BenchError(f"worker {workload} {extra} exited {rc}:\n"
                             + err.decode(errors="replace")[-2000:])
        res = json.loads(out.decode().strip().splitlines()[-1])
        return res, res.get("ready_at", t0) - t0

    def cli(self, argv):
        return self.run([sys.executable, "-m", "kummerlab.cli", *argv])


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def env_stamp():
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "git_sha": sha, "git_dirty": dirty, "loadavg_start": os.getloadavg()}


def load_reference():
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def cli_failures(outputs, seed):
    """Reasons, one per wrong command, for [(name, returncode, stdout bytes)]."""
    from kummerlab.reports import validate_report
    reference = load_reference()
    out = []
    for name, rc, stdout in outputs:
        why = workloads.check_cli(name, rc, stdout, seed, reference,
                                  ROOT / "tests" / "golden", validate_report)
        if why:
            out.append(f"{name}: {why}")
    return out


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics


def measure_worker_workload(runner, workload, seed, seconds):
    setups = [runner.worker(workload, seed, "--setup-only")[1]
              for _ in range(SETUP_SAMPLES[workload] - 1)]
    res, setup = runner.worker(workload, seed, "--seconds", seconds)
    setups.append(setup)
    return {"setup": setups, "walls": res["round_walls"],
            "verdicts": res["verdict_ms"], "attempted": res["attempted"],
            "failed": res["failed"], "errors": res["errors"]}


def measure_cli_suite(runner, seed, seconds):
    setups = [runner.run([sys.executable, "-c", "import kummerlab.cli"])[0]
              for _ in range(SETUP_SAMPLES["cli_suite"])]
    walls, verdicts, outputs = [], [], []
    start = time.monotonic()
    # whole passes within `seconds`, as worker.py runs rounds
    while not walls or (time.monotonic() - start + statistics.fmean(walls)
                        <= seconds):
        t_round = time.monotonic()
        for name in CLI_PASS_ORDER:
            dt, rc, out, _err = runner.cli(tracing.cli_argv(name, seed))
            verdicts.append(dt * 1e3)
            outputs.append((name, rc, out))
        walls.append(time.monotonic() - t_round)
    errors = cli_failures(outputs, seed)
    return {"setup": setups, "walls": walls, "verdicts": verdicts,
            "attempted": len(outputs), "failed": len(errors), "errors": errors}


def end_to_end(raw, peak_rss_mb):
    """(metrics, sample counts) from the raw measurements of one run."""
    vals = {
        "setup_s": statistics.median(raw["setup"]),
        "wall_s": statistics.fmean(raw["walls"]),
        "verdict_p50_ms": statistics.median(raw["verdicts"]),
        "verdict_p90_ms": nearest_rank(raw["verdicts"], 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"setup_s": len(raw["setup"]), "wall_s": len(raw["walls"]),
               "verdict_p50_ms": len(raw["verdicts"]),
               "verdict_p90_ms": len(raw["verdicts"]), "peak_rss_mb": 1}
    return vals, samples


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics


def trace_worker_workload(runner, workload, seed, seconds, spans_path):
    plain, _ = runner.worker(workload, seed, "--seconds", seconds / 2)
    n_rounds = len(plain["round_walls"])
    traced, _ = runner.worker(workload, seed, "--rounds", n_rounds, "--trace",
                              "--spans", spans_path)
    untraced_s = sum(plain["round_walls"])
    traced_s = sum(traced["round_walls"])
    layer = tracing.finish(traced["trace"])
    layer["bench.trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s
    layer["bench.span_coverage"] = traced["top_level_s"] / (
        traced["timed_end"] - traced["timed_start"])
    return layer, {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "errors": plain["errors"] + traced["errors"]}


def trace_cli_suite(runner, seed, spans_stem):
    per_proc, import_s, outputs = [], [], []
    untraced_s = traced_s = top_s = 0.0
    layer_walls = {}
    for i, (name, _argv, _seeded) in enumerate(tracing.CLI_COMMANDS):
        plain, _ = runner.worker("cli_suite", seed, "--command", name)
        traced, _ = runner.worker("cli_suite", seed, "--command", name, "--trace",
                                  "--spans", f"{spans_stem}-{i:02d}.json")
        untraced_s += plain["wall_s"]
        traced_s += traced["wall_s"]
        top_s += traced["top_level_s"]
        import_s += [plain["import_s"], traced["import_s"]]
        layer_walls[f"cli.{name}.wall_s"] = traced["wall_s"]
        per_proc.append(traced["trace"])
        outputs += [(name, res["returncode"], res["stdout"].encode())
                    for res in (plain, traced)]
    errors = cli_failures(outputs, seed)
    layer = tracing.finish(tracing.merge(per_proc))
    layer.update(layer_walls)
    layer["cli.import_s"] = statistics.median(import_s)
    layer["bench.trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s
    layer["bench.span_coverage"] = top_s / traced_s
    return layer, {"attempted": len(outputs), "failed": len(errors),
                   "errors": errors}


# ---------------------------------------------------------------------------
# profile mode


def profile(runner, workload, seed, seconds):
    OUT_DIR.mkdir(exist_ok=True)
    if workload == "cli_suite":
        paths = []
        for i, (name, _a, _s) in enumerate(tracing.CLI_COMMANDS):
            path = OUT_DIR / f"profile-cli_suite-{i:02d}.pstats"
            runner.worker(workload, seed, "--command", name, "--profile", path)
            paths.append(str(path))
    else:
        path = OUT_DIR / f"profile-{workload}.pstats"
        runner.worker(workload, seed, "--seconds", seconds, "--profile", path)
        paths = [str(path)]
    text_path = OUT_DIR / f"profile-{workload}.txt"
    with open(text_path, "w", encoding="utf-8") as fh:
        stats = pstats.Stats(*paths, stream=fh)
        stats.sort_stats("cumulative").print_stats(25)
    print(text_path.read_text(encoding="utf-8"))
    print(f"profile written to {text_path.relative_to(ROOT)}")


# ---------------------------------------------------------------------------


def check_benchmark_json():
    """The metric names here must be the ones BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared_e2e != list(END_TO_END):
        raise BenchError("end_to_end metrics differ from BENCHMARK.json")
    if declared_layer != tracing.per_layer_metrics():
        raise BenchError("per_layer metrics differ from BENCHMARK.json")
    return spec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["embed", "sweep", "cli_suite"])
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--profile", action="store_true",
                    help="cProfile one run; print the top 25 entries")
    args = ap.parse_args(argv)

    if not (SRC / "kummerlab" / "__init__.py").is_file():
        print(f"perfbench: error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        spec = check_benchmark_json()
    except (OSError, KeyError, ValueError, BenchError) as exc:
        print(f"perfbench: error: BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    env = env_stamp()

    try:
        if args.profile:
            profile(runner, args.workload, args.seed, seconds)
            return 0
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            if args.workload == "cli_suite":
                metrics, tally = trace_cli_suite(runner, args.seed, f"{stem}-spans")
            else:
                metrics, tally = trace_worker_workload(
                    runner, args.workload, args.seed, seconds, f"{stem}-spans.json")
            units = {n: u for n, u, _b in tracing.per_layer_metrics()}
            samples = {}
            missed = [lay for lay in BYPASS[args.workload] if metrics[f"{lay}.calls"]]
            if missed:
                tally["errors"].append(f"bypass prediction broken: {missed} called")
        else:
            if args.workload == "cli_suite":
                raw = measure_cli_suite(runner, args.seed, seconds)
            else:
                raw = measure_worker_workload(runner, args.workload, args.seed,
                                              seconds)
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            metrics, samples = end_to_end(raw, peak)
            units = dict(END_TO_END + PRINTED_ONLY)
            tally, missed = raw, []
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1

    env["loadavg_end"] = os.getloadavg()
    failed_frac = tally["failed"] / tally["attempted"]
    print(json.dumps({"env": env}))
    for name in units:
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"{args.workload}  {name} = {metrics.get(name, 0):.6g} {units[name]}{n}")
    print(f"{args.workload}  failed_frac = {failed_frac:.6g} "
          f"({tally['failed']} of {tally['attempted']})")
    for err in tally["errors"]:
        print(f"{args.workload}  FAILED {err}", file=sys.stderr)
    result = {
        "correct": tally["failed"] == 0 and not missed,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {n: {"value": metrics.get(n, 0), "unit": u}
                    for n, u in units.items() if n not in dict(PRINTED_ONLY)},
    }
    record = dict(result, env=env, samples=samples, errors=tally["errors"],
                  metrics={n: {"value": metrics.get(n, 0), "unit": u}
                           for n, u in units.items()},
                  workload=args.workload, seed=args.seed, seconds=seconds,
                  moves=tracing.MOVES if args.trace else None)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
