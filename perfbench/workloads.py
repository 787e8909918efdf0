"""Inputs and verdict checks of the three workloads.

Inputs come only from the workload seed.  The checks use the benchmark's
own copy of the paper's tables and its own integer code, not the
package's verification helpers, so a wrong verdict cannot vouch for
itself.

- embed: rounds of one (Kummer type, sigma, complement, extended) triple
  per Kummer type and complement, drawn from the embedding table, plus one
  inadmissible sigma per type that must raise KummerError.  Stratifying
  keeps the work per round close across seeds.
- sweep: rounds of 2 specs per (family, branch, field degree 4..8), plus
  2 class-2 specs per degree with h07 != 0, drawn with sample_branch_spec.
- cli_suite: the fixed command list in tracing.CLI_COMMANDS.
"""

import hashlib
import json
import random

EMBED_TYPES = ("16A1", "4D4", "2D8", "1D16", "2E8")
# Kummer type -> (discriminant exponent a, glue depth with Q4, with Q2)
EMBED_TABLE = {"16A1": (6, 4, 2), "4D4": (4, 3, 2), "2D8": (2, 2, 1),
               "1D16": (0, 0, 0), "2E8": (0, 0, 0)}
# complement -> discriminant exponent b
COMPLEMENT_EXP = {"Q4": 4, "Q2": 2}

SWEEP_DEGREES = (4, 5, 6, 7, 8)
SWEEP_REPEATS = 2
BRANCHES = ("16A1", "4D4", "2D8", "1D16", "2E8", "nonRDP")
# branch -> (geometric singular points, plane colength at each)
PROFILES = {"16A1": (16, 1), "4D4": (4, 4), "2D8": (2, 8), "1D16": (1, 16),
            "2E8": (2, 8), "nonRDP": (1, 16)}

# rounds drawn during set-up; a run stops early if it uses them all
MAX_ROUNDS = {"embed": 16, "sweep": 64}

GOLDEN = {"kummer-build": "kummer_build_4d4.json",
          "lattice-info": "lattice_info_d4.json",
          "rdp-verify-leq5": "rdp_verify_leq5.json"}
REFERENCE_SEED = 0


# ---------------------------------------------------------------------------
# embed


def _embed_range(symbol, complement):
    """(lowest, highest) admissible sigma; the glue count is highest - sigma."""
    a, depth4, depth2 = EMBED_TABLE[symbol]
    top = (a + COMPLEMENT_EXP[complement]) // 2
    depth = depth4 if complement == "Q4" else depth2
    return top - depth, top


def embed_rounds(seed):
    """Per round: one admissible triple per (type, complement), 10 in all,
    and one inadmissible sigma per type.

    An item is (kind, type, sigma, complement, extended, glue count), kind
    "embed" or "reject".
    """
    rng = random.Random(f"{seed}|perfbench|embed")
    rounds = []
    for _ in range(MAX_ROUNDS["embed"]):
        items = []
        order = list(EMBED_TYPES)
        rng.shuffle(order)
        for sym in order:
            for comp in ("Q4", "Q2"):
                low, top = _embed_range(sym, comp)
                sigma = rng.randint(low, top)
                n_glue = top - sigma
                ext = comp == "Q2" and (n_glue > 0 or rng.random() < 0.5)
                items.append(("embed", sym, sigma, comp, ext, n_glue))
        for sym in order:
            low4, top4 = _embed_range(sym, "Q4")
            low2, top2 = _embed_range(sym, "Q2")
            bad = [(top4 + 1, "Q4", False), (low4 - 1, "Q4", False),
                   (top2 + 1, "Q2", True), (low2 - 1, "Q2", True)]
            if low2 < top2:
                bad.append((low2, "Q2", False))   # glue recipe needs extended
            sigma, comp, ext = rng.choice(bad)
            items.append(("reject", sym, sigma, comp, ext, None))
        rounds.append(items)
    return rounds


def det_bareiss(rows):
    """Exact integer determinant by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def check_embed(item, outcome):
    """True when an embed result (or rejection) is right by the table."""
    kind, _sym, sigma, _comp, _ext, n_glue = item
    if kind == "reject":
        return outcome == "rejected"
    if not hasattr(outcome, "lattice"):
        return False
    if outcome.glue_count != n_glue or not all(outcome.checks.values()):
        return False
    g = outcome.lattice.gram_int()
    if len(g) != 22 or any(len(r) != 22 for r in g):
        return False
    if any(g[i][j] != g[j][i] for i in range(22) for j in range(i)):
        return False
    if any(g[i][i] % 2 for i in range(22)):
        return False
    return abs(det_bareiss(g)) == 4 ** sigma


# ---------------------------------------------------------------------------
# sweep


def sweep_rounds(seed, fields, sample_branch_spec, spec_cls):
    """Per round: 2 specs per (family, branch, degree), 10 with h07 != 0.

    An item is (family, branch, degree, spec); branch "h07" marks the
    class-2 specs whose fixed locus must not be a subgroup scheme.
    """
    rng = random.Random(f"{seed}|perfbench|sweep")
    rounds = []
    for _ in range(MAX_ROUNDS["sweep"]):
        items = []
        for family in ("class4", "class2"):
            for branch in BRANCHES:
                for e in SWEEP_DEGREES:
                    for _ in range(SWEEP_REPEATS):
                        spec = sample_branch_spec(family, branch, fields[e], rng)
                        items.append((family, branch, e, spec))
        for e in SWEEP_DEGREES:
            f = fields[e]
            for _ in range(SWEEP_REPEATS):
                base = sample_branch_spec("class2", "16A1", f, rng)
                spec = spec_cls("class2", f, dict(base.coeffs, h07=f.rand_nonzero(rng)))
                items.append(("class2", "h07", e, spec))
        rng.shuffle(items)
        rounds.append(items)
    return rounds


def _non_additive_monomials(poly):
    """Monomials that are not a single variable to a power of two."""
    out = []
    for expo in poly.terms:
        nz = [k for k in expo if k]
        if len(nz) != 1 or nz[0] & (nz[0] - 1):
            out.append(tuple(expo))
    return out


def check_sweep(item, outcome):
    """True when a sweep verdict agrees with the requested branch."""
    _family, branch, _e, _spec = item
    if not isinstance(outcome, tuple):
        return False
    report, fixed = outcome
    if branch == "h07":
        gens, additive, _order, witness = fixed
        bad = [m for g in gens for m in _non_additive_monomials(g)]
        return (not additive) and witness is not None and tuple(witness) in bad
    n_points, colength = PROFILES[branch]
    pts = report.points
    if report.branch != branch or report.total_colength != 16:
        return False
    if sum(p.residue_degree for p in pts) != n_points:
        return False
    if any(p.colength != colength for p in pts):
        return False
    if sum(p.residue_degree * p.colength for p in pts) != 16:
        return False
    if branch == "nonRDP":
        return fixed is None
    gens, additive, _order, witness = fixed
    return additive and witness is None and not any(
        _non_additive_monomials(g) for g in gens)


# ---------------------------------------------------------------------------
# cli_suite


def claim_flags(report):
    return [[c["id"], c["passed"]] for c in report["claims"]]


def check_cli(name, returncode, stdout, seed, reference, golden_dir,
              validate_report):
    """'' when a command's report is right, else the reason it is not."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        report = json.loads(stdout)
        validate_report(report)
    except Exception as exc:   # JSONDecodeError or jsonschema's ValidationError
        return f"invalid report: {str(exc)[:200]}"
    if report.get("passed") is not True:
        return "report does not pass"
    if name in GOLDEN:
        with open(golden_dir / GOLDEN[name], "rb") as fh:
            return "" if fh.read() == stdout else "differs from the golden report"
    ref = reference[name]
    if seed == REFERENCE_SEED:
        if hashlib.sha256(stdout).hexdigest() != ref["sha256"]:
            return "differs from the reference report"
    elif claim_flags(report) != ref["claims"]:
        return "claim ids or pass flags differ from the reference"
    return ""
