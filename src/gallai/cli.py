"""Command-line interface.

Verbs: formula, construct, count, partition, grstar-check,
grstar-search, search, verify-suite.  Data goes to standard output (or
a -o file), errors to standard error; JSON documents carry a top-level
"schema": "1" field.  All invocations are reproducible given identical
arguments and --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import census, construct, formulas, grstar, search, verify
from .coloring import GecFormatError, parse_coloring
from .partition import NotGallaiError, coarsen_to_min_parts, find_gallai_partition

SCHEMA = "1"


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict):
    doc = {"schema": SCHEMA, **doc}
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _read(path: str) -> str:
    return Path(path).read_text()


# ---------------------------------------------------------------------------
# formula

_FORMULAS = {
    "goodman-m2": (1, formulas.goodman_m2),
    "m3": (1, formulas.m3_formula),
    "gr-k3": (1, formulas.gr_k3),
    "gr-k4e": (2, formulas.gr_mixed_k4e),
    "gr-star-k3": (1, formulas.gr_star_k3),
    "turan": (2, formulas.turan_count),
    "ex-star": (2, formulas.ex_star),
    "g-bounds": (2, formulas.g_multiplicity_bounds),
}


def _cmd_formula(args):
    arity, fn = _FORMULAS[args.name]
    if len(args.args) != arity:
        raise ValueError(f"formula {args.name} takes {arity} argument(s)")
    result = fn(*[int(a) for a in args.args])
    if isinstance(result, formulas.GuardedValue):
        print(f"{result.value} {result.validity}")
    elif isinstance(result, tuple):
        print(" ".join(str(x) for x in result))
    else:
        print(result)
    return 0


# ---------------------------------------------------------------------------
# construct

_FAMILIES = {
    "pentagon": (2, construct.pentagon_coloring),
    "paley17": (2, construct.paley17_coloring),
    "gr-k3": (1, construct.construct_gr_k3_extremal),
    "gr-k4e": (2, construct.construct_gr_k4e_extremal),
    "multiplicity": (2, construct.construct_multiplicity_extremal),
    "f-lower": (2, construct.construct_f_lower),
    "nim-star": (3, construct.construct_nim_star),
    "goodman2": (3, construct.goodman_extremal_2coloring),
}


def _cmd_construct(args):
    fam = args.family
    arity, build = _FAMILIES[fam]
    a = [int(x) for x in args.args]
    if fam == "goodman2" and len(a) == 1:
        a += [1, 2]  # the shorthand `goodman2 n` colors with 1 and 2
    if len(a) != arity:
        raise ValueError(f"construct {fam} takes {arity} integer argument(s)")
    extra = {"seed": args.seed} if fam == "nim-star" else {}
    _emit(build(*a, **extra).serialize(), args.output)
    return 0


# ---------------------------------------------------------------------------
# count / partition / grstar

def _cmd_count(args):
    c = parse_coloring(_read(args.file))
    cen = census.triangle_census(c)
    _emit_json(
        {
            "n": c.n,
            "k": c.k,
            "mono": {str(q): cen.mono_per_color[q] for q in sorted(cen.mono_per_color)},
            "bichromatic": cen.bichromatic,
            "rainbow": cen.rainbow,
            "protected_edges": census.count_protected_edges(c),
        }
    )
    return 0


def _cmd_partition(args):
    c = parse_coloring(_read(args.file))
    gp = find_gallai_partition(c)
    if args.minimize:
        gp = coarsen_to_min_parts(c, gp)
    for i, part in enumerate(gp.parts, start=1):
        print(f"part {i}: {' '.join(str(v) for v in part)}")
    print(f"between colors: {' '.join(str(c) for c in sorted(gp.between_colors))}")
    print("reduced:")
    sys.stdout.write(gp.reduced.serialize())
    return 0


def _cmd_grstar_check(args):
    ext = grstar.parse_extended_coloring(_read(args.file))
    report = grstar.check_gr_star_conditions(ext)
    _emit_json(
        {
            "n": ext.pairs.n,
            "k": ext.pairs.k,
            "gallai": report.gallai,
            "monoTriangleFree": report.mono_triangle_free,
            "singletonClash": list(report.singleton_clash) if report.singleton_clash else None,
            "passes": report.passes,
        }
    )
    return 0 if report.passes else 1


def _cmd_grstar_search(args):
    found, witness = grstar.max_gr_star_witness(args.n, args.k, budget=args.budget)
    doc = {"n": args.n, "k": args.k, "found": found, "witness_gecx": None}
    if witness is not None:
        text = grstar.serialize_extended_coloring(witness)
        doc["witness_gecx"] = text
        if args.output:
            Path(args.output).write_text(text)
    _emit_json(doc)
    return 0


# ---------------------------------------------------------------------------
# search

def _cmd_search(args):
    kwargs = dict(budget=args.budget, jobs=args.jobs)
    if args.targets is not None and args.objective != "exists-avoiding":
        raise ValueError(f"{args.objective} takes no per-color targets; drop --targets")
    if args.objective == "min-mono":
        out = search.min_mono_triangles(args.n, args.k, args.gallai, **kwargs)
    elif args.objective == "max-protected":
        if args.gallai:
            raise ValueError("max-protected ranges over all colorings; drop --gallai")
        out = search.max_protected_edges(args.n, args.k, **kwargs)
    else:  # exists-avoiding
        targets = _parse_targets(args.targets, args.k)
        out = search.exists_avoiding(args.n, args.k, targets, args.gallai, **kwargs)
    witness_gec = out.witness.serialize() if out.witness else None
    doc = {
        "objective": out.objective,
        "n": args.n,
        "k": args.k,
        "value": out.value,
        "nodes_explored": out.nodes_explored,
        "exhaustive": out.exhaustive,
        "witness_gec": witness_gec,
    }
    if witness_gec and args.output:
        Path(args.output).write_text(witness_gec)
    _emit_json(doc)
    return 0


def _parse_targets(spec: str | None, k: int) -> list[str]:
    if spec is None:
        return [search.TARGET_K3] * k
    names = {"k3": search.TARGET_K3, "k4e": search.TARGET_K4E, "k4+e": search.TARGET_K4E}
    out = []
    for item in spec.split(","):
        key = item.strip().lower()
        if key not in names:
            raise ValueError(f"unknown target {item!r} (use K3 or K4+e)")
        out.append(names[key])
    return out


# ---------------------------------------------------------------------------
# verify-suite

def _cmd_verify_suite(args):
    results = verify.run_suite(args.level)
    ok = all(r.ok for r in results)
    if args.json:
        _emit_json(
            {
                "level": args.level,
                "ok": ok,
                "checks": [
                    {
                        "name": r.name,
                        "ok": r.ok,
                        "seconds": round(r.seconds, 3),
                        "detail": r.detail,
                    }
                    for r in results
                ],
            }
        )
    else:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            line = f"{status} {r.name} ({r.seconds:.2f}s)"
            if r.detail:
                line += f": {r.detail}"
            print(line)
        print(f"{'OK' if ok else 'FAILED'}: {sum(r.ok for r in results)}/{len(results)} checks passed")
    return 0 if ok else 1


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error like any other bad input: an `error:` line
    on standard error and exit code 1 (argparse's own code is 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gallai",
        description="Gallai colorings: formulas, constructions, censuses, "
        "decomposition, and exhaustive search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formula", help="evaluate a closed formula")
    p.add_argument("name", choices=sorted(_FORMULAS))
    p.add_argument("args", nargs="*")
    p.set_defaults(fn=_cmd_formula)

    p = sub.add_parser("construct", help="generate a coloring family member")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("args", nargs="*")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("count", help="census report for a .gec file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("partition", help="Gallai partition of a .gec file")
    p.add_argument("file")
    p.add_argument(
        "--minimize",
        action="store_true",
        help="merge pairs of parts until no pair can merge "
        "(fewer parts, not always the minimum)",
    )
    p.set_defaults(fn=_cmd_partition)

    p = sub.add_parser("grstar-check", help="check witness conditions of a .gecx file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_grstar_check)

    p = sub.add_parser("grstar-search", help="exhaustive witness search at (n, k)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_grstar_search)

    p = sub.add_parser("search", help="exhaustive search over k-colorings of K_n")
    p.add_argument("objective", choices=["min-mono", "exists-avoiding", "max-protected"])
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--gallai", action="store_true", help="restrict to Gallai colorings")
    p.add_argument("--targets", help="per-color targets for exists-avoiding, e.g. K4+e,K3")
    p.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("verify-suite", help="run the acceptance battery")
    p.add_argument("--level", choices=["fast", "full"], default="fast")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GecFormatError, NotGallaiError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
