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
from math import ceil, log10
from pathlib import Path

from . import census, construct, formulas, grstar, search
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


# `gallai formula` prints values of at most this many digits, the most a
# Python int converts to text by default, and refuses the others by name;
# `formula`, `construct`, `search` and `grstar-search` refuse longer
# integer arguments the same way
FORMULA_DIGITS = 4300

# the formulas exponential in their first argument k: gr-k3, gr-k4e and
# gr-star-k3 are at least 5^((k - 2) // 2), and g-bounds needs n at least
# that, so from _FORMULA_MAX_K on each is past FORMULA_DIGITS digits and
# is refused before it is computed
_EXPONENTIAL = {"gr-k3", "gr-k4e", "gr-star-k3", "g-bounds"}
_FORMULA_MAX_K = 2 * ceil(FORMULA_DIGITS / log10(5)) + 2


def _integers(call, args):
    """args as ints, or a refusal that names the call (the verb and its
    formula or family) and the argument that is not an integer of at
    most FORMULA_DIGITS digits."""
    values = []
    for x in args:
        try:
            value = int(x)
        except ValueError:  # not an integer, or past Python's own digit limit
            value = None
        if value is None or abs(value) >= 10**FORMULA_DIGITS:
            shown = repr(x) if len(x) <= 20 else f"{x[:10]!r}... ({len(x)} characters)"
            raise ValueError(f"{call}: {shown} is not an integer of at most {FORMULA_DIGITS} digits")
        values.append(value)
    return values


def _cmd_formula(args):
    name = args.name
    arity, fn = _FORMULAS[name]
    if len(args.args) != arity:
        raise ValueError(f"formula {name} takes {arity} argument(s)")
    a = _integers(f"formula {name}", args.args)
    if name in _EXPONENTIAL and a[0] >= _FORMULA_MAX_K:
        raise ValueError(f"formula {name}: k={a[0]} puts it past {FORMULA_DIGITS} digits")
    result = fn(*a)
    suffix = ""
    if isinstance(result, formulas.GuardedValue):
        result, suffix = result.value, f" {result.validity}"
    values = result if isinstance(result, tuple) else (result,)
    if any(abs(v) >= 10**FORMULA_DIGITS for v in values):
        raise ValueError(f"formula {name}: value past {FORMULA_DIGITS} digits")
    print(" ".join(map(str, values)) + suffix)
    return 0


# ---------------------------------------------------------------------------
# construct

# family: (arity, the function that builds a member, its vertex count)
_FAMILIES = {
    "pentagon": (2, construct.pentagon_coloring, lambda a, b: 5),
    "paley17": (2, construct.paley17_coloring, lambda a, b: 17),
    "gr-k3": (1, construct.construct_gr_k3_extremal, lambda k: formulas.gr_k3(k) - 1),
    "gr-k4e": (2, construct.construct_gr_k4e_extremal, formulas.mixed_k4e_extremal_order),
    "multiplicity": (2, construct.construct_multiplicity_extremal, lambda k, n: n),
    "f-lower": (2, construct.construct_f_lower, lambda n, k: n),
    "nim-star": (3, construct.construct_nim_star, lambda n, h, k: n),
    "goodman2": (3, construct.goodman_extremal_2coloring, lambda n, a, b: n),
}

# `gallai construct` builds colorings of at most this many vertices and
# takes no argument above it, so no power of 5 or 17 in a vertex count
# gets large.  Measured at the cap on 2 vCPUs, every family built in at
# most 0.4 s and 37 MB (nim-star 1000 2 32)
CONSTRUCT_MAX_N = 1000


def _cmd_construct(args):
    fam = args.family
    arity, build, order = _FAMILIES[fam]
    *a, seed = _integers(f"construct {fam}", (*args.args, args.seed))
    if fam == "goodman2" and len(a) == 1:
        a += [1, 2]  # the shorthand `goodman2 n` colors with 1 and 2
    if len(a) != arity:
        raise ValueError(f"construct {fam} takes {arity} integer argument(s)")
    if max(a) > CONSTRUCT_MAX_N:
        raise ValueError(f"construct {fam}: argument {max(a)} is past the cap of {CONSTRUCT_MAX_N}")
    n = order(*a)
    if n > CONSTRUCT_MAX_N:
        raise ValueError(f"construct {fam}: {n} vertices, past the cap of {CONSTRUCT_MAX_N}")
    extra = {"seed": seed} if fam == "nim-star" else {}
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
    n, k, budget = _integers("grstar-search", (args.n, args.k, args.budget))
    found, witness = grstar.max_gr_star_witness(n, k, budget=budget)
    doc = {"n": n, "k": k, "found": found, "witness_gecx": None}
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
    n, k, budget, jobs = _integers(
        f"search {args.objective}", (args.n, args.k, args.budget, args.jobs)
    )
    # the size caps come before the k-long default target list
    search._check_args(n, k, jobs, budget)
    kwargs = dict(budget=budget, jobs=jobs)
    if args.targets is not None and args.objective != "exists-avoiding":
        raise ValueError(f"{args.objective} takes no per-color targets; drop --targets")
    if args.objective == "min-mono":
        out = search.min_mono_triangles(n, k, args.gallai, **kwargs)
    elif args.objective == "max-protected":
        if args.gallai:
            raise ValueError("max-protected ranges over all colorings; drop --gallai")
        out = search.max_protected_edges(n, k, **kwargs)
    else:  # exists-avoiding
        targets = _parse_targets(args.targets, k)
        out = search.exists_avoiding(n, k, targets, args.gallai, **kwargs)
    witness_gec = out.witness.serialize() if out.witness else None
    doc = {
        "objective": out.objective,
        "n": n,
        "k": k,
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
    from . import verify  # imported by this verb only

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
    # every integer argument is taken as a string and parsed by _integers

    p = sub.add_parser("formula", help="evaluate a closed formula")
    p.add_argument("name", choices=sorted(_FORMULAS))
    p.add_argument("args", nargs="*")
    p.set_defaults(fn=_cmd_formula)

    p = sub.add_parser("construct", help="generate a coloring family member")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("args", nargs="*")
    p.add_argument("--seed", default="0")
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
    p.add_argument("n")
    p.add_argument("k")
    p.add_argument("--budget", default=str(search.DEFAULT_BUDGET))
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_grstar_search)

    p = sub.add_parser("search", help="exhaustive search over k-colorings of K_n")
    p.add_argument("objective", choices=["min-mono", "exists-avoiding", "max-protected"])
    p.add_argument("n")
    p.add_argument("k")
    p.add_argument("--gallai", action="store_true", help="restrict to Gallai colorings")
    p.add_argument("--targets", help="per-color targets for exists-avoiding, e.g. K4+e,K3")
    p.add_argument("--budget", default=str(search.DEFAULT_BUDGET))
    p.add_argument("--jobs", default="1")
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
