"""One measured process: set up a workload, run its rounds, report JSON.

Started by run.py in a fresh interpreter, so the package's in-process
caches start empty, as they do for a CLI user.  Prints one JSON line: the
monotonic clock reading when set-up was done (run.py times set-up from
spawn to there; CLOCK_MONOTONIC is system-wide on Linux), the round wall
times, the per-item verdict times and the failures.

    python3 perfbench/worker.py --workload embed|sweep --seed N
        [--seconds S | --rounds R] [--trace] [--setup-only] [--profile PATH]
    python3 perfbench/worker.py --workload cli_suite --command NAME --seed N
        [--trace] [--profile PATH]
"""

import argparse
import contextlib
import cProfile
import io
import json
import statistics
import sys
import time

import tracing
import workloads


def _setup_embed(seed):
    from kummerlab.kummer_lattices import KummerError, build_kummer, embed_kummer
    for sym in workloads.EMBED_TYPES:
        build_kummer(sym)
    rounds = workloads.embed_rounds(seed)

    def run_item(item):
        _kind, sym, sigma, comp, ext, _n = item
        try:
            return embed_kummer(sym, sigma, comp, extended=ext)
        except KummerError:
            return "rejected"

    return rounds, run_item, workloads.check_embed, lambda item: item[0] == "embed"


def _setup_sweep(seed):
    from kummerlab.char2_algebra import get_field
    from kummerlab.surface_family import (
        SurfaceSpec,
        classify_full,
        covering_derivation,
        fixed_locus_subgroup_check,
        sample_branch_spec,
    )
    fields = {e: get_field(2, e) for e in workloads.SWEEP_DEGREES}
    rounds = workloads.sweep_rounds(seed, fields, sample_branch_spec, SurfaceSpec)

    def run_item(item):
        _family, branch, _e, spec = item
        if branch == "h07":
            return None, fixed_locus_subgroup_check(covering_derivation(spec))
        report = classify_full(spec)
        if branch == "nonRDP":
            return report, None
        return report, fixed_locus_subgroup_check(covering_derivation(spec))

    return rounds, run_item, workloads.check_sweep, lambda item: True


def _run_rounds(rounds, run_item, check, timed_item, seconds, n_rounds):
    """Run whole rounds within `seconds` (or exactly n_rounds).

    A round starts only when, at the mean round wall so far, it ends
    within `seconds`; the first round always runs.
    """
    clock = time.perf_counter
    walls, verdict_ms, errors = [], [], []
    attempted = failed = 0
    start = clock()
    for items in rounds:
        if n_rounds is not None and len(walls) == n_rounds:
            break
        if n_rounds is None and walls and (
                clock() - start + statistics.fmean(walls) > seconds):
            break
        outcomes = []
        t_round = clock()
        for item in items:
            t0 = clock()
            try:
                out = run_item(item)
            except Exception as exc:      # a failed item never aborts the run
                out = exc
            dt = clock() - t0
            outcomes.append(out)
            if timed_item(item):
                verdict_ms.append(dt * 1e3)
        walls.append(clock() - t_round)
        for item, out in zip(items, outcomes):
            attempted += 1
            if not check(item, out):
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{item[:4]}: {out!r}"[:300])
    return {"round_walls": walls, "verdict_ms": verdict_ms,
            "attempted": attempted, "failed": failed, "errors": errors,
            "timed_start": start, "timed_end": clock()}


def _cli_command(args, tracer):
    t0 = time.perf_counter()
    from kummerlab import cli
    import_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.install()
    argv = tracing.cli_argv(args.command, args.seed)
    buf = io.StringIO()
    prof = cProfile.Profile() if args.profile else None
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        if prof:
            prof.enable()
        rc = cli.main(argv)
        if prof:
            prof.disable()
        t1 = time.perf_counter()
    if prof:
        prof.dump_stats(args.profile)
    out = {"returncode": rc, "stdout": buf.getvalue(), "wall_s": t1 - t0,
           "import_s": import_s}
    if tracer is not None:
        out["trace"] = tracer.metrics()
        out["top_level_s"] = tracer.top_level_time(t0, t1)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["embed", "sweep", "cli_suite"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--command", default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the spans here")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--profile", default=None, help="write cProfile stats here")
    args = ap.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    if args.workload == "cli_suite":
        out = _cli_command(args, tracer)
    else:
        if tracer is not None:
            tracer.install()
        setup = _setup_embed if args.workload == "embed" else _setup_sweep
        rounds, run_item, check, timed_item = setup(args.seed)
        ready_at = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at}), flush=True)
            return 0
        prof = cProfile.Profile() if args.profile else None
        if prof:
            prof.enable()
        out = _run_rounds(rounds, run_item, check, timed_item, args.seconds,
                          args.rounds)
        if prof:
            prof.disable()
            prof.dump_stats(args.profile)
        out["ready_at"] = ready_at
        if tracer is not None:
            out["trace"] = tracer.metrics()
            out["top_level_s"] = tracer.top_level_time(out["timed_start"],
                                                       out["timed_end"])
    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
