"""Every function the benchmark's span tracer wraps must exist by that name.

`perfbench/tracing.LAYERS` names its targets as (module, attribute) strings;
a rename or deletion in the package would only show when a traced benchmark
run fails.  This loads the table from the file and resolves each target the
way `Tracer.install` does, without running a workload or starting a process.
One smoke test then runs a single traced CLI command, with no process pool,
to show that the tracer also counts a layer the CLI imports inside a handler.
"""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import kummerlab

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


TARGETS = [(layer, modname, attr) for layer, targets in load_layers().items()
           for _name, modname, attr in targets]


def test_targets_listed():
    assert len(TARGETS) > 30
    assert {layer for layer, _m, _a in TARGETS} >= {"exactmat", "lattice_core"}


@pytest.mark.parametrize("layer,modname,attr", TARGETS,
                         ids=[f"{m}:{a}" for _l, m, a in TARGETS])
def test_target_resolves(layer, modname, attr):
    for info in pkgutil.walk_packages(kummerlab.__path__, "kummerlab."):
        if info.name != "kummerlab.__main__":
            importlib.import_module(info.name)
    obj = importlib.import_module(modname)
    for part in attr.split("."):
        assert hasattr(obj, part), f"{layer}: {modname}.{attr} is missing"
        obj = getattr(obj, part)
    assert callable(obj)


def test_traced_cli_command_counts_a_lazily_imported_layer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload",
         "cli_suite", "--command", "lattice-roots", "--seed", "0", "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["returncode"] == 0
    assert out["trace"]["lattice_core.roots.calls"] == 1
    assert out["trace"]["reports.render.calls"] == 1
