"""Span tracer for the per-layer metrics, installed from outside the package.

Each target function is wrapped once and the wrapper is rebound, by
identity, in every loaded ``kummerlab.*`` module namespace, so re-exports
and aliases (``resultant as poly_resultant``, ``singular_points as
_points_of_system``) are traced too.  ``Lattice.pair`` and
``ExtField.__init__`` are wrapped on their classes.  Field-element and
``FqPoly`` operator methods are deliberately left alone: they run hundreds
of thousands of times per run.

A span is (name, start, end, parent span).  Spans stay in memory until the
run ends; ``metrics`` turns them into calls and self time (span minus the
time its child spans cover) per function and per layer.
"""

import functools
import importlib
import json
import pkgutil
import sys
import time
from array import array

# layer -> [(metric name, module, attribute path)]; the attribute path is
# "Class.method" for methods wrapped on their class.
LAYERS = {
    "exactmat": [(n, "kummerlab.exactmat", n) for n in (
        "hnf_basis", "snf", "solve_left_fraction", "mat_inverse_fraction",
        "det_fraction", "saturation_basis")],
    "lattice_core": [
        ("Lattice.pair", "kummerlab.lattice_core", "Lattice.pair")] + [
        (n, "kummerlab.lattice_core", n) for n in (
            "glue", "saturation", "discriminant_group",
            "is_two_elementary_type2", "signature", "roots", "ade_type")],
    "kummer_lattices": [(n, "kummerlab.kummer_lattices", n) for n in (
        "build_kummer", "embed_kummer", "q_glue_values")],
    "binary_codes": [(n, "kummerlab.binary_codes", n) for n in (
        "max_admissible_dim", "profiles_isomorphic", "mod4_overlattice")],
    "char2_algebra": [
        ("resultant", "kummerlab.char2_algebra.poly", "resultant"),
        ("factor_univariate", "kummerlab.char2_algebra.factor", "factor_univariate"),
        ("poly_roots", "kummerlab.char2_algebra.factor", "poly_roots"),
        ("poly_gcd_multivariate", "kummerlab.char2_algebra.poly",
         "poly_gcd_multivariate"),
        ("cartier_p2", "kummerlab.char2_algebra.cartier", "cartier_p2"),
        ("z_filtration_dims", "kummerlab.char2_algebra.cartier",
         "z_filtration_dims"),
        ("ExtField", "kummerlab.char2_algebra.field", "ExtField.__init__"),
    ],
    "surface_family": [
        ("classify_full", "kummerlab.surface_family.points", "classify_full"),
        ("classify_by_coefficients", "kummerlab.surface_family.spec",
         "classify_by_coefficients"),
        ("singular_points", "kummerlab.surface_family.points", "singular_points"),
        ("local_colength", "kummerlab.surface_family.points", "local_colength"),
        ("matrix_rank", "kummerlab.surface_family.points", "matrix_rank"),
        ("covering_derivation", "kummerlab.surface_family.derivations",
         "covering_derivation"),
        ("fixed_locus_subgroup_check", "kummerlab.surface_family.derivations",
         "fixed_locus_subgroup_check"),
        ("sample_branch_spec", "kummerlab.surface_family.spec",
         "sample_branch_spec"),
    ],
    "rdp_invariants": [("verify_leq5", "kummerlab.rdp_invariants", "verify_leq5")],
    "reports": [("render", "kummerlab.reports", "render")],
}

# counts read from arguments, results or exceptions at the same boundaries
EXTRA_COUNTS = (
    "lattice_core.roots.pairs",
    "kummer_lattices.embed_kummer.rejected",
    "binary_codes.search.nodes",
    "binary_codes.search.classes",
    "char2_algebra.resultant.max_degree",
    "char2_algebra.factor_univariate.factors",
    "char2_algebra.ExtField.max_degree",
    "surface_family.singular_points.points",
    "rdp_invariants.verify_leq5.enumerated",
    "reports.render.bytes",
)
RATIOS = ("binary_codes.search.useful_ratio",
          "binary_codes.profiles_isomorphic.hit_ratio")

# the cli_suite commands, by metric name; argv gets "--seed N" appended
# where the campaign is seeded
CLI_COMMANDS = (
    ("verify-table1", ["verify", "table1"], False),
    ("verify-roots", ["verify", "roots"], False),
    ("verify-codes", ["verify", "codes"], False),
    ("verify-golay", ["verify", "golay"], False),
    ("verify-cartier", ["verify", "cartier"], True),
    ("verify-p1", ["verify", "p1"], True),
    ("verify-zfilt", ["verify", "zfilt"], True),
    ("verify-subgroup", ["verify", "subgroup"], True),
    ("verify-leq5", ["verify", "leq5"], False),
    ("verify-table2", ["verify", "table2"], False),
    ("verify-singularities", ["verify", "singularities", "--jobs", "2"], True),
    ("kummer-build", ["kummer", "build", "--type", "4D4"], False),
    ("lattice-info", ["lattice", "info", "--in", "tests/golden/d4_lattice.json"],
     False),
    ("rdp-verify-leq5", ["rdp", "verify-leq5"], False),
    ("lattice-roots", ["lattice", "roots", "--in", "tests/golden/d4_lattice.json"],
     False),
    ("codes-search", ["codes", "search", "--m", "16", "--exhaustive"], False),
)


def cli_argv(name, seed):
    for cname, argv, seeded in CLI_COMMANDS:
        if cname == name:
            return argv + (["--seed", str(seed)] if seeded else [])
    raise KeyError(name)


# which end-to-end metric, on which workload, each per-layer group should
# move; verdict_p90_ms is the printed (not gated) sweep tail
MOVES = {
    "exactmat": "embed.wall_s, embed.setup_s",
    "lattice_core": "embed.wall_s (pair/glue/saturation); "
                    "cli_suite.wall_s (roots/ade_type)",
    "kummer_lattices": "embed.setup_s, embed.verdict_p50_ms",
    "binary_codes": "cli_suite.wall_s; embed.setup_s (mod4_overlattice)",
    "char2_algebra": "sweep.wall_s, sweep.verdict_p90_ms "
                     "(resultant/factor_univariate/ExtField); "
                     "cli_suite.wall_s (cartier_p2/z_filtration_dims)",
    "surface_family": "sweep.wall_s, sweep.verdict_p90_ms; "
                      "sweep.setup_s (sample_branch_spec)",
    "rdp_invariants": "cli_suite.wall_s",
    "cli": "cli_suite.wall_s, cli_suite.verdict_p50_ms",
    "reports": "cli_suite.wall_s, cli_suite.verdict_p50_ms",
    "bench": "none: health of the traced run itself",
}


def per_layer_metrics():
    """[(name, unit, better)] for every per-layer metric, in a fixed order."""
    out = []
    for layer, targets in LAYERS.items():
        for name, _mod, _attr in targets:
            out.append((f"{layer}.{name}.calls", "count", "lower"))
            out.append((f"{layer}.{name}.self_s", "s", "lower"))
        if layer != "reports":
            out.append((f"{layer}.calls", "count", "lower"))
            out.append((f"{layer}.self_s", "s", "lower"))
    unit = {"bytes": "bytes", "max_degree": "degree"}
    out += [(n, unit.get(n.rsplit(".", 1)[1], "count"), "lower")
            for n in EXTRA_COUNTS]
    out += [(n, "ratio", "higher") for n in RATIOS]
    out.append(("cli.import_s", "s", "lower"))
    out += [(f"cli.{name}.wall_s", "s", "lower") for name, _a, _s in CLI_COMMANDS]
    out.append(("bench.trace_overhead_frac", "ratio", "lower"))
    out.append(("bench.span_coverage", "ratio", "higher"))
    return out


def _absolute_degree(ext):
    order, deg = ext.order, 0
    while order > 1:
        order //= ext.char
        deg += 1
    return deg


class Tracer:
    """Records spans around every target; install() once per process."""

    def __init__(self):
        self.names = []
        self.name_of = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack = []
        # the hit count only feeds hit_ratio, which finish() derives
        self.counts = dict.fromkeys(
            EXTRA_COUNTS + ("binary_codes.profiles_isomorphic.hits",), 0)

    # -- span recording -------------------------------------------------

    def _wrap(self, label, fn, after=None, on_error=None):
        nid = len(self.names)
        self.names.append(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.starts)
            self.name_of.append(nid)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(clock())
            self.ends.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self._stack.pop()
                self.ends[idx] = clock()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_hooks(self):
        c = self.counts

        def add(key, n):
            c[key] += n

        def rejected(exc):
            from kummerlab.kummer_lattices import KummerError
            if isinstance(exc, KummerError):
                add("kummer_lattices.embed_kummer.rejected", 1)

        def search(_args, res):
            add("binary_codes.search.nodes", res.nodes)
            add("binary_codes.search.classes", sum(res.class_counts.values()))

        def res_deg(_args, res):
            c["char2_algebra.resultant.max_degree"] = max(
                c["char2_algebra.resultant.max_degree"], res.degree())

        def ext(args, _res):
            c["char2_algebra.ExtField.max_degree"] = max(
                c["char2_algebra.ExtField.max_degree"], _absolute_degree(args[0]))

        return {
            "lattice_core.roots": (lambda a, r: add("lattice_core.roots.pairs", len(r)),
                                   None),
            "kummer_lattices.embed_kummer": (None, rejected),
            "binary_codes.max_admissible_dim": (search, None),
            "binary_codes.profiles_isomorphic": (
                lambda a, r: add("binary_codes.profiles_isomorphic.hits", bool(r)),
                None),
            "char2_algebra.resultant": (res_deg, None),
            "char2_algebra.factor_univariate": (
                lambda a, r: add("char2_algebra.factor_univariate.factors", len(r[1])),
                None),
            "char2_algebra.ExtField": (ext, None),
            "surface_family.singular_points": (
                lambda a, r: add("surface_family.singular_points.points", len(r)),
                None),
            "rdp_invariants.verify_leq5": (
                lambda a, r: add("rdp_invariants.verify_leq5.enumerated", r[2]),
                None),
            "reports.render": (
                lambda a, r: add("reports.render.bytes", len(r.encode())), None),
        }

    def install(self):
        """Import every kummerlab module, then wrap and rebind each target."""
        pkg = importlib.import_module("kummerlab")
        for info in pkgutil.walk_packages(pkg.__path__, "kummerlab."):
            if info.name != "kummerlab.__main__":
                importlib.import_module(info.name)
        hooks = self._after_hooks()
        modules = [m for n, m in sys.modules.items()
                   if (n == "kummerlab" or n.startswith("kummerlab.")) and m]
        for layer, targets in LAYERS.items():
            for name, modname, attr in targets:
                label = f"{layer}.{name}"
                after, on_error = hooks.get(label, (None, None))
                owner = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, self._wrap(label, getattr(cls, meth),
                                                  after, on_error))
                    continue
                orig = getattr(owner, attr)
                wrapper = self._wrap(label, orig, after, on_error)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)

    # -- aggregation ----------------------------------------------------

    def top_level_time(self, t0, t1):
        """Time covered by spans without a parent inside [t0, t1]."""
        return sum(self.ends[i] - self.starts[i] for i in range(len(self.starts))
                   if self.parents[i] < 0 and t0 <= self.starts[i]
                   and self.ends[i] <= t1)

    def metrics(self):
        """Calls and self time per target and per layer, plus extra counts."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            label = self.names[self.name_of[i]]
            calls[label] += 1
            self_s[label] += self.ends[i] - self.starts[i] - child[i]
        out = {}
        for layer, targets in LAYERS.items():
            lc, ls = 0, 0.0
            for name, _m, _a in targets:
                label = f"{layer}.{name}"
                out[f"{label}.calls"] = calls.get(label, 0)
                out[f"{label}.self_s"] = self_s.get(label, 0.0)
                lc += out[f"{label}.calls"]
                ls += out[f"{label}.self_s"]
            if layer != "reports":
                out[f"{layer}.calls"] = lc
                out[f"{layer}.self_s"] = ls
        out.update(self.counts)
        return out

    def dump(self, path):
        """Write every span as [name index, start, end, parent index]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "spans": [[self.name_of[i], self.starts[i], self.ends[i],
                                  self.parents[i]]
                                 for i in range(len(self.starts))]}, fh)


def merge(metric_dicts):
    """Sum per-process metrics; max-degree counts take the maximum."""
    out = {}
    for d in metric_dicts:
        for k, v in d.items():
            if k.endswith(".max_degree"):
                out[k] = max(out.get(k, 0), v)
            else:
                out[k] = out.get(k, 0) + v
    return out


def finish(raw):
    """Derive the ratios from merged raw counts; drop the helper counts."""
    out = dict(raw)
    nodes = out["binary_codes.search.nodes"]
    out["binary_codes.search.useful_ratio"] = (
        out["binary_codes.search.classes"] / nodes if nodes else 0.0)
    iso_calls = out["binary_codes.profiles_isomorphic.calls"]
    hits = out.pop("binary_codes.profiles_isomorphic.hits")
    out["binary_codes.profiles_isomorphic.hit_ratio"] = (
        hits / iso_calls if iso_calls else 0.0)
    return out
