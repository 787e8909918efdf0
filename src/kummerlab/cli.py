"""Command-line front end.

Subcommands: lattice, codes, kummer, surface, rdp, verify.  Every command
emits one JSON report on stdout (or to --out) and exits 0 when all claims
verified, 1 on a claim failure, 2 on usage or input errors.  All numeric
inputs are exact: integers, coefficient bit strings, rationals.  A key
repeated in --field or a name repeated in --coeffs is an input error.  The
environment variable KUMMERLAB_SEED overrides the default seed.

Each handler imports the layers it runs at the top of its body: a process
without a bytecode cache compiles every module it imports, so start-up
loads only reports and verify.  `main` catches the package errors by their
base class `KummerlabError`, without importing the layers that raise them.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import KummerlabError
from .reports import claim, emit, make_report
from .verify import CAMPAIGN_NAMES, campaign_leq5, run_campaign


class UsageError(KummerlabError):
    pass


def _usage_error(message):
    """The parsers' error hook: one error line instead of usage and exit."""
    raise UsageError(message)


# largest Gram matrix a lattice file may hold; the package's own lattices
# have rank at most 22
MAX_LATTICE_RANK = 32
# largest level of `rdp table`; dim_b_bar is constant from b_index on,
# which is at most 4 for every type of rank <= 22
MAX_RDP_LEVEL = 64


def _default_seed():
    env = os.environ.get("KUMMERLAB_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"KUMMERLAB_SEED must be an integer, got {env!r}")


def _parse_field(text):
    from .char2_algebra import get_field
    parts = {}
    for kv in text.split(","):
        if not re.fullmatch(r"[pe]=[0-9]+", kv):
            raise UsageError(f"bad field spec {text!r}; expected e=<degree>"
                             f" or p=<prime>,e=<degree>")
        key, value = kv.split("=")
        if key in parts:
            raise UsageError(f"field key {key!r} given twice in {text!r}")
        parts[key] = int(value)
    if "e" not in parts:
        raise UsageError("field spec needs e=<degree>")
    return get_field(parts.get("p", 2), parts["e"])


def _parse_coeffs(field, text):
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise UsageError(f"bad coefficient {item!r}; expected name=bits")
        name, bits = (part.strip() for part in item.split("=", 1))
        if name in out:
            raise UsageError(f"coefficient {name!r} given twice")
        out[name] = field.decode(bits)
    return out


def _is_exact_number(x):
    if isinstance(x, str):
        try:
            Fraction(x)
        except (ValueError, ZeroDivisionError):
            return False
        return True
    return isinstance(x, int) and not isinstance(x, bool)


def _load_lattice(path):
    from .lattice_core import lattice_from_json
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    gram = obj.get("gram") if isinstance(obj, dict) else None
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise UsageError(f"{path}: expected a JSON object whose \"gram\" is "
                         f"a list of rows")
    if len(gram) > MAX_LATTICE_RANK:
        raise UsageError(f"{path}: gram matrix of rank {len(gram)} exceeds "
                         f"the limit of {MAX_LATTICE_RANK}")
    if not all(_is_exact_number(x) for row in gram for x in row):
        raise UsageError(f"{path}: gram entries must be integers or "
                         f"rational strings")
    if not isinstance(obj.get("labels", []), list):
        raise UsageError(f"{path}: \"labels\" must be a list")
    return lattice_from_json(obj)


# ---------------------------------------------------------------------------
# subcommand handlers (argv echo, inputs, results, claims)


def _cmd_lattice(args):
    from .lattice_core import (ade_type, discriminant, discriminant_group,
                               is_two_elementary_type2, roots, signature)
    lat = _load_lattice(args.infile)
    inputs = {"file": args.infile, "rank": lat.rank}
    results = {}
    claims = []
    if args.action == "info":
        disc = discriminant(lat)
        results = {
            "discriminant": disc if isinstance(disc, int) else str(disc),
            "signature": list(signature(lat)),
            "discriminant_group_orders": None,
            "q_values": None,
            "two_elementary": None,
            "type2": None,
            "even": lat.is_even,
        }
        if lat.is_even:  # the discriminant form needs an even lattice
            dg = discriminant_group(lat)
            elem, type2 = is_two_elementary_type2(dg)
            results.update(discriminant_group_orders=dg.orders,
                           q_values=[str(v) for v in dg.qvalues],
                           two_elementary=elem, type2=type2)
        claims.append(claim("lattice.nondegenerate", "lattice is nondegenerate",
                            True))
    elif args.action == "roots":
        pairs = roots(lat)
        results = {
            "root_pairs": len(pairs),
            "roots": 2 * len(pairs),
            "ade": ["%s%d" % t for t in ade_type(lat, pairs)],
            "vectors": [[int(x) for x in v] for v in pairs],
        }
        claims.append(claim("lattice.roots", "root enumeration finished", True))
    return inputs, results, claims


def _cmd_codes(args):
    from .binary_codes import EXHAUSTIVE_LIMIT, f_bound, max_admissible_dim
    claims = []
    if args.action == "search":
        if args.budget is not None and args.budget < 1:
            raise UsageError("--budget must be at least 1")
        res = max_admissible_dim(args.m, budget=args.budget,
                                 exhaustive=args.exhaustive)
        results = {
            "m": args.m,
            "dim": res.dim,
            "f_bound": f_bound(args.m),
            "exhaustive": res.exhaustive,
            "classes_by_dim": res.class_counts,
            "witnesses": [w.to_json() for w in res.witnesses],
        }
        claims.append(claim(
            f"codes.g.{args.m}", f"g({args.m}) matches the closed form",
            (not res.exhaustive) or res.dim == f_bound(args.m)))
        # a search cut short by --budget proves nothing either way
        if res.truncated:
            results["truncated"] = True
        elif not res.exhaustive:
            claims.append(claim(
                f"codes.witness.{args.m}",
                "witness attains the closed-form value",
                res.dim == f_bound(args.m)))
        inputs = {"m": args.m, "exhaustive": res.exhaustive}
        return inputs, results, claims
    # g-table
    if not 0 <= args.max <= EXHAUSTIVE_LIMIT:
        raise UsageError(f"--max must be between 0 and {EXHAUSTIVE_LIMIT}")
    table = {}
    ok = True
    for m in range(0, args.max + 1):
        res = max_admissible_dim(m)
        table[str(m)] = {"g": res.dim, "f": f_bound(m)}
        ok = ok and res.dim == f_bound(m) and res.exhaustive
    claims.append(claim("codes.g_table", f"g = f for all m <= {args.max}", ok))
    return {"max": args.max}, {"g_table": table}, claims


def _cmd_kummer(args):
    from .kummer_lattices import build_kummer, embed_kummer
    claims = []
    if args.action == "build":
        kl = build_kummer(args.type)
        results = {
            "type": args.type,
            "gram": kl.lattice.gram_int(),
            "root_count": 2 * len(kl.root_pairs),
            "checks": {k: bool(v) for k, v in sorted(kl.checks.items())},
        }
        claims.append(claim(f"kummer.build.{args.type}",
                            "construction verified against the lattice table",
                            all(kl.checks.values())))
        return {"type": args.type}, results, claims
    res = embed_kummer(args.type, args.sigma, args.complement,
                       extended=args.extended)
    results = {
        "type": args.type,
        "sigma": args.sigma,
        "complement": args.complement,
        "glue_count": res.glue_count,
        "checks": {k: bool(v) for k, v in sorted(res.checks.items())},
        "glue_info": res.glue_info,
        "gram": res.lattice.gram_int(),
    }
    claims.append(claim(
        f"kummer.embed.{args.type}.s{args.sigma}",
        "glued lattice has the supersingular Picard shape with the "
        "requested invariant", all(res.checks.values())))
    inputs = {"type": args.type, "sigma": args.sigma,
              "complement": args.complement}
    return inputs, results, claims


def _cmd_surface(args):
    from .surface_family import (BRANCHES, SurfaceSpec, classify_derivations,
                                 classify_full, covering_derivation,
                                 fixed_locus_subgroup_check)
    from .surface_family.derivations import _system_order
    if args.expect is not None and args.expect not in BRANCHES:
        raise UsageError(f"argument --expect: invalid choice: {args.expect!r} "
                         f"(choose from {', '.join(map(repr, BRANCHES))})")
    field = _parse_field(args.field)
    coeffs = _parse_coeffs(field, args.coeffs)
    spec = SurfaceSpec(args.family, field, coeffs)
    inputs = {"family": args.family,
              "field": {"p": field.char, "e": field.degree},
              "coeffs": spec.to_json()["coeffs"]}
    claims = []
    if args.action == "classify":
        report = classify_full(spec)
        results = report.to_json()
        claims.append(claim("surface.profile",
                            "coefficient branch matches the enumeration profile",
                            True))
        if args.expect is not None:
            claims.append(claim(
                "surface.expected",
                f"classification equals the expected branch {args.expect}",
                report.branch == args.expect,
                {"classified": report.branch}))
        return inputs, results, claims
    # derivation-check
    deriv = covering_derivation(spec)
    gens, additive, order, witness = fixed_locus_subgroup_check(deriv)
    if not additive:
        # no subgroup scheme: report the total colength of the fixed locus
        order = _system_order(gens, deriv.vars)
    verdict = classify_derivations(args.family, deriv.f, deriv.g)
    enc = field.encode
    results = {
        "closure_scalar": enc(deriv.c),
        "generators": [g.to_json() for g in gens],
        "fixed_locus_additive": additive,
        "fixed_locus_order": order,
        "witness_monomial": list(witness) if witness else None,
        "conditions": {k: verdict[k] for k in ("i", "ii", "iii", "iv")},
        "hamiltonian": verdict["hamiltonian"],
    }
    claims.append(claim("surface.derivation.closure",
                        "covering derivation satisfies D^2 = cD", True))
    claims.append(claim("surface.derivation.conditions",
                        "conditions (i)-(iii) hold for the covering derivation",
                        verdict["i"] and verdict["ii"] and verdict["iii"]))
    return inputs, results, claims


_RDP_TYPE = re.compile(r"[ADEade]\d{1,6}(r\d{1,6}(/\d{1,6})?)?")


def _cmd_rdp(args):
    from .rdp_invariants import RdpType, b_index, dim_b_bar
    claims = []
    if args.action == "verify-leq5":
        results, claims, _ = campaign_leq5()
        return {}, results, claims
    if not _RDP_TYPE.fullmatch(args.type.strip()):
        raise UsageError(f"bad RDP type {args.type!r}; expected A<n>, "
                         f"D<n>r<r> or E<n>r<r>")
    if not 0 <= args.max_n <= MAX_RDP_LEVEL:
        raise UsageError(f"--max-n must be between 0 and {MAX_RDP_LEVEL}")
    t = RdpType.parse(args.type)
    table = {str(n): dim_b_bar(t, n) for n in range(0, args.max_n + 1)}
    results = {"type": t.symbol(), "b_index": b_index(t), "dims": table}
    claims.append(claim("rdp.table", "table computed", True))
    return {"type": t.symbol(), "max_n": args.max_n}, results, claims


def _cmd_verify(args):
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    seed = args.seed if args.seed is not None else _default_seed()
    results, claims, degrees = run_campaign(args.campaign, seed=seed,
                                            quick=args.quick, jobs=args.jobs)
    if args.verbose:
        for c in claims:
            status = "ok" if c["passed"] else "FAILED"
            print(f"[{status}] {c['id']}: {c['description']}", file=sys.stderr)
    inputs = {"campaign": args.campaign, "quick": args.quick}
    return inputs, results, claims, {"seed": seed}, degrees


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kummerlab",
        description="exact lattice, code and characteristic-2 computations "
                    "for Kummer-type supersingular K3 surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lat = sub.add_parser("lattice", help="operations on lattice files")
    p_lat.add_argument("action", choices=["info", "roots"])
    p_lat.add_argument("--in", dest="infile", required=True)
    p_lat.add_argument("--out", default=None)

    p_codes = sub.add_parser("codes", help="weight-constrained binary codes")
    p_codes.add_argument("action", choices=["search", "g-table"])
    p_codes.add_argument("--m", type=int, default=16)
    p_codes.add_argument("--max", type=int, default=17)
    p_codes.add_argument("--exhaustive", action="store_true")
    p_codes.add_argument("--budget", type=int, default=None)
    p_codes.add_argument("--out", default=None)

    p_kum = sub.add_parser("kummer", help="Kummer lattices and embeddings")
    p_kum.add_argument("action", choices=["build", "embed"])
    p_kum.add_argument("--type", required=True,
                       choices=["16A1", "4D4", "2D8", "1D16", "2E8"])
    p_kum.add_argument("--sigma", type=int, default=1)
    p_kum.add_argument("--complement", choices=["Q4", "Q2"], default="Q4")
    p_kum.add_argument("--extended", action="store_true")
    p_kum.add_argument("--report", dest="out", default=None)
    p_kum.add_argument("--out", dest="out", default=None)

    p_surf = sub.add_parser("surface", help="the two projective families")
    p_surf.add_argument("action", choices=["classify", "derivation-check"])
    p_surf.add_argument("--family", required=True, choices=["class4", "class2"])
    p_surf.add_argument("--field", default="e=4")
    p_surf.add_argument("--coeffs", default="")
    p_surf.add_argument("--expect", default=None, metavar="BRANCH")
    p_surf.add_argument("--report", dest="out", default=None)
    p_surf.add_argument("--out", dest="out", default=None)

    p_rdp = sub.add_parser("rdp", help="rational-double-point invariants")
    p_rdp.add_argument("action", choices=["verify-leq5", "table"])
    p_rdp.add_argument("--type", default="D16r0")
    p_rdp.add_argument("--max-n", type=int, default=5)
    p_rdp.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="verification campaigns")
    p_ver.add_argument("campaign", choices=list(CAMPAIGN_NAMES))
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--quick", action="store_true")
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--verbose", action="store_true")
    p_ver.add_argument("--out", default=None)

    for p in (parser, p_lat, p_codes, p_kum, p_surf, p_rdp, p_ver):
        p.error = _usage_error
    return parser


_HANDLERS = {
    "lattice": _cmd_lattice,
    "codes": _cmd_codes,
    "kummer": _cmd_kummer,
    "surface": _cmd_surface,
    "rdp": _cmd_rdp,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify":
            inputs, results, claims, seeds, degrees = _cmd_verify(args)
        else:
            inputs, results, claims = _HANDLERS[args.command](args)
            seeds, degrees = {}, []
        report = make_report(["kummerlab"] + argv, inputs, results, claims,
                             seeds=seeds, field_extensions=degrees)
        return emit(report, getattr(args, "out", None))
    except SystemExit as exc:   # --help
        return 2 if exc.code else 0
    except (KummerlabError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"kummerlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
