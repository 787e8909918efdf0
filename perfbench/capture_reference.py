"""Capture the cli_suite reference reports at the reference seed.

Run from the repository root when the reports are known to be right:

    python3 perfbench/capture_reference.py

It records, for every command outside the golden set, the SHA-256 of its
stdout report and its claim ids with pass flags, in reference.json.
"""

import hashlib
import json
import sys
import time

import run
import tracing
import workloads


def main():
    runner = run.Runner(time.monotonic() + 600)
    commands = {}
    for name, _argv, _seeded in tracing.CLI_COMMANDS:
        if name in workloads.GOLDEN:
            continue
        argv = tracing.cli_argv(name, workloads.REFERENCE_SEED)
        _dt, rc, out, err = runner.cli(argv)
        if rc != 0:
            sys.exit(f"{name} exited {rc}: {err.decode(errors='replace')[-500:]}")
        commands[name] = {"argv": argv,
                          "sha256": hashlib.sha256(out).hexdigest(),
                          "claims": workloads.claim_flags(json.loads(out))}
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(commands, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
