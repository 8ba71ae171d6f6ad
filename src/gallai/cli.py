"""Command-line interface.

Verbs: formula, construct, count, partition, grstar-check,
grstar-search, search, verify-suite.  Data goes to standard output (or
a -o file), errors to standard error; JSON documents carry a top-level
"schema": "1" field.  All invocations are reproducible given identical
arguments and --seed.

A call pays only for its own verb: the module level imports what every
verb needs, each verb imports the gallai modules it calls, and `main`
builds the subparser of the verb it runs and no other.
"""

from __future__ import annotations

import argparse
import sys
from math import ceil, log10

SCHEMA = "1"


def _write(path: str, text: str):
    with open(path, "w") as f:
        f.write(text)


def _emit(text: str, out: str | None):
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict):
    import json

    doc = {"schema": SCHEMA, **doc}
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


# ---------------------------------------------------------------------------
# formula

# formula: (arity, the gallai.formulas function that evaluates it)
_FORMULAS = {
    "goodman-m2": (1, "goodman_m2"),
    "m3": (1, "m3_formula"),
    "gr-k3": (1, "gr_k3"),
    "gr-k4e": (2, "gr_mixed_k4e"),
    "gr-star-k3": (1, "gr_star_k3"),
    "turan": (2, "turan_count"),
    "ex-star": (2, "ex_star"),
    "g-bounds": (2, "g_multiplicity_bounds"),
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
    from . import formulas

    name = args.name
    arity, fn = _FORMULAS[name]
    if len(args.args) != arity:
        raise ValueError(f"formula {name} takes {arity} argument(s)")
    a = _integers(f"formula {name}", args.args)
    if name in _EXPONENTIAL and a[0] >= _FORMULA_MAX_K:
        raise ValueError(f"formula {name}: k={a[0]} puts it past {FORMULA_DIGITS} digits")
    result = getattr(formulas, fn)(*a)
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

# family: (arity, the gallai.construct function that builds a member,
# its vertex count from the gallai.formulas module f and the arguments)
_FAMILIES = {
    "pentagon": (2, "pentagon_coloring", lambda f, a, b: 5),
    "paley17": (2, "paley17_coloring", lambda f, a, b: 17),
    "gr-k3": (1, "construct_gr_k3_extremal", lambda f, k: f.gr_k3(k) - 1),
    "gr-k4e": (2, "construct_gr_k4e_extremal", lambda f, k, s: f.mixed_k4e_extremal_order(k, s)),
    "multiplicity": (2, "construct_multiplicity_extremal", lambda f, k, n: n),
    "f-lower": (2, "construct_f_lower", lambda f, n, k: n),
    "nim-star": (3, "construct_nim_star", lambda f, n, h, k: n),
    "goodman2": (3, "goodman_extremal_2coloring", lambda f, n, a, b: n),
}

# `gallai construct` builds colorings of at most this many vertices and
# takes no argument above it, so no power of 5 or 17 in a vertex count
# gets large.  Measured at the cap on 2 vCPUs, every family built in at
# most 0.4 s and 37 MB (nim-star 1000 2 32)
CONSTRUCT_MAX_N = 1000

# `count`, `partition` and `grstar-check` read files whose header gives
# at most this many colors, and refuse a larger k once the file is read
# and before any table is sized by it: the derived tables hold k + 1
# slots each, and `count` prints one `mono` entry per color.  A 3-vertex
# file with header k = 10^7 took 23.7 s and 3.5 GB in `count`, and at
# k = 10^9 all three verbs ran out of memory.  At the cap, on 2 vCPUs,
# each verb ran a 3-vertex file in under 0.1 s and 18 MB.  The library
# takes any k.
GEC_MAX_K = 10_000


def _check_header_k(verb: str, path: str, k: int):
    if k > GEC_MAX_K:
        raise ValueError(f"{verb}: {path} has k = {k} colors, past the cap of {GEC_MAX_K}")


def _cmd_construct(args):
    from . import construct, formulas

    fam = args.family
    arity, build, order = _FAMILIES[fam]
    *a, seed = _integers(f"construct {fam}", (*args.args, args.seed))
    if fam == "goodman2" and len(a) == 1:
        a += [1, 2]  # the shorthand `goodman2 n` colors with 1 and 2
    if len(a) != arity:
        raise ValueError(f"construct {fam} takes {arity} integer argument(s)")
    if max(a) > CONSTRUCT_MAX_N:
        raise ValueError(f"construct {fam}: argument {max(a)} is past the cap of {CONSTRUCT_MAX_N}")
    n = order(formulas, *a)
    if n > CONSTRUCT_MAX_N:
        raise ValueError(f"construct {fam}: {n} vertices, past the cap of {CONSTRUCT_MAX_N}")
    extra = {"seed": seed} if fam == "nim-star" else {}
    _emit(getattr(construct, build)(*a, **extra).serialize(), args.output)
    return 0


# ---------------------------------------------------------------------------
# count / partition / grstar

def _cmd_count(args):
    from .census import count_protected_edges, triangle_census
    from .coloring import parse_coloring

    c = parse_coloring(_read(args.file))
    _check_header_k("count", args.file, c.k)
    cen = triangle_census(c)
    _emit_json(
        {
            "n": c.n,
            "k": c.k,
            "mono": {str(q): cen.mono_per_color[q] for q in sorted(cen.mono_per_color)},
            "bichromatic": cen.bichromatic,
            "rainbow": cen.rainbow,
            "protected_edges": count_protected_edges(c),
        }
    )
    return 0


def _cmd_partition(args):
    from .coloring import parse_coloring
    from .partition import coarsen_to_min_parts, find_gallai_partition

    c = parse_coloring(_read(args.file))
    _check_header_k("partition", args.file, c.k)
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
    from . import grstar

    ext = grstar.parse_extended_coloring(_read(args.file))
    _check_header_k("grstar-check", args.file, ext.pairs.k)
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
    from . import grstar

    n, k, budget = _integers("grstar-search", (args.n, args.k, _budget(args)))
    found, witness = grstar.max_gr_star_witness(n, k, budget=budget)
    doc = {"n": n, "k": k, "found": found, "witness_gecx": None}
    if witness is not None:
        text = grstar.serialize_extended_coloring(witness)
        doc["witness_gecx"] = text
        if args.output:
            _write(args.output, text)
    _emit_json(doc)
    return 0


# ---------------------------------------------------------------------------
# search

def _budget(args) -> str:
    """The --budget argument, by default search.DEFAULT_BUDGET."""
    if args.budget is not None:
        return args.budget
    from .search import DEFAULT_BUDGET

    return str(DEFAULT_BUDGET)


def _cmd_search(args):
    from . import search

    n, k, budget, jobs = _integers(
        f"search {args.objective}", (args.n, args.k, _budget(args), args.jobs)
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
        _write(args.output, witness_gec)
    _emit_json(doc)
    return 0


def _parse_targets(spec: str | None, k: int) -> list[str]:
    from .search import TARGET_K3, TARGET_K4E

    if spec is None:
        return [TARGET_K3] * k
    names = {"k3": TARGET_K3, "k4e": TARGET_K4E, "k4+e": TARGET_K4E}
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
    from . import verify

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


def _arg(*names, **options):
    return names, options


# verb: (help, handler, its arguments); every integer argument is taken
# as a string and parsed by _integers
_VERBS = {
    "formula": (
        "evaluate a closed formula",
        _cmd_formula,
        [_arg("name", choices=sorted(_FORMULAS)), _arg("args", nargs="*")],
    ),
    "construct": (
        "generate a coloring family member",
        _cmd_construct,
        [
            _arg("family", choices=sorted(_FAMILIES)),
            _arg("args", nargs="*"),
            _arg("--seed", default="0"),
            _arg("-o", "--output"),
        ],
    ),
    "count": ("census report for a .gec file", _cmd_count, [_arg("file")]),
    "partition": (
        "Gallai partition of a .gec file",
        _cmd_partition,
        [
            _arg("file"),
            _arg(
                "--minimize",
                action="store_true",
                help="merge parts into the fewest whose pairs stay monochromatic",
            ),
        ],
    ),
    "grstar-check": (
        "check witness conditions of a .gecx file",
        _cmd_grstar_check,
        [_arg("file")],
    ),
    "grstar-search": (
        "exhaustive witness search at (n, k)",
        _cmd_grstar_search,
        [_arg("n"), _arg("k"), _arg("--budget"), _arg("-o", "--output")],
    ),
    "search": (
        "exhaustive search over k-colorings of K_n",
        _cmd_search,
        [
            _arg("objective", choices=["min-mono", "exists-avoiding", "max-protected"]),
            _arg("n"),
            _arg("k"),
            _arg("--gallai", action="store_true", help="restrict to Gallai colorings"),
            _arg("--targets", help="per-color targets for exists-avoiding, e.g. K4+e,K3"),
            _arg("--budget"),
            _arg("--jobs", default="1"),
            _arg("-o", "--output"),
        ],
    ),
    "verify-suite": (
        "run the acceptance battery",
        _cmd_verify_suite,
        [
            _arg("--level", choices=["fast", "full"], default="fast"),
            _arg("--json", action="store_true"),
        ],
    ),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of `gallai`.  Given the name of a verb, it holds that
    verb's subparser alone; given anything else (None, `-h`, an unknown
    word) it holds every verb's.  Its help, usage and errors read the
    same either way."""
    parser = _Parser(
        prog="gallai",
        description="Gallai colorings: formulas, constructions, censuses, "
        "decomposition, and exhaustive search.",
    )
    verbs = [verb] if verb in _VERBS else list(_VERBS)
    # a lone subparser's usage line still names every verb
    metavar = "{" + ",".join(_VERBS) + "}" if len(verbs) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in verbs:
        help_text, handler, arguments = _VERBS[name]
        p = sub.add_parser(name, help=help_text)
        for names, options in arguments:
            p.add_argument(*names, **options)
        p.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.fn(args)
    # GecFormatError and NotGallaiError are ValueErrors
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
