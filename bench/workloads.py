"""The benchmark's four workloads.

Each workload is a fixed list of operations.  An operation is one
closed-loop call into gallai's public API, or one ``gallai`` CLI
subprocess; the next starts only when the previous one has returned.
Every operation has an output check that runs after the pass, outside
the timed region.  It compares the output with a reference that does
not come from the code path under test: a closed formula from
``gallai.formulas``, an invariant such as the C(n,3) triangle total, or
a re-check of a witness edge by edge.

Inputs depend only on the seed: the search workloads take no random
input, the structure workload feeds the seed to ``construct_nim_star``
and to the ``random_gallai_coloring`` sweep, and the cli workload passes
it to ``gallai construct nim-star --seed``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Any, Callable, Optional

import gallai
from gallai import formulas, verify
from tracer import NULL_TRACER

K3, K4E = "K3", "K4+e"
KINDS = ("K3", "K4", "K4+e")
NIM = (200, 4, 4)  # n, h, k of the nim-star construction
SWEEP_N = range(2, 81)  # orders of the random Gallai colorings
STRUCTURE_COLORINGS = 6 + len(SWEEP_N)  # colorings certified per structure pass


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    """One timed call.  ``run`` takes the pass's tracer and returns the
    output; ``check`` raises on a wrong output; ``nodes`` gives the
    search nodes an output reports, for operations that search."""

    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
    nodes: Optional[Callable[[Any], int]] = None


@dataclass
class Workload:
    name: str
    pass_s: float  # nominal seconds of one pass; see run.py
    build: Callable[[int, Path], list]  # (seed, scratch dir) -> ops
    warm: Callable[[Path], None]  # the set-up that precedes timing
    # seconds of the reference loop, run as the workload runs; None keeps
    # measured seconds
    reference: Optional[Callable[[], float]]
    extras: Optional[Callable[[Any, Path], None]] = None  # traced runs only


# ---------------------------------------------------------------------------
# the reference loop
#
# The machine's speed for Python code drifts by a quarter or more over
# minutes, and every layer slows together.  The run times this fixed
# loop between operations and scales each operation's time by the ratio
# of the loop's time on the reference machine to its time there and
# then.  The loop mixes calls, list reads and writes, small-integer
# arithmetic and 256-bit masks like the censuses' adjacency bitsets,
# which tracks the speed of gallai's code better than arithmetic alone.
# It allocates a few small objects per run and otherwise only integers,
# which the garbage collector does not track, so nothing gallai allocates
# changes the loop's time.
#
# search-jobs2 keeps measured seconds: its calls run on both CPUs, and a
# loop on one CPU does not track them (scaling them by it widened their
# spread from run to run).

REFERENCE_CODE = """
def f(x, y):
    return (x ^ (y >> 3)) + 1
data = list(range(256))
s, m = 0, (1 << 256) - 1
for i in range(8_000):
    j = i & 255
    s = f(s, data[j]) & 0xFFFFF
    data[j] = s & 255
    m = (m ^ (m >> 7) ^ (s << j)) & ((1 << 256) - 1)
"""
_REFERENCE = compile(REFERENCE_CODE, "<reference>", "exec")


def reference_here() -> float:
    """The loop in this process, for workloads that run in-process."""
    t0 = time.perf_counter()
    exec(_REFERENCE, {})
    return time.perf_counter() - t0


def reference_child() -> float:
    """The loop in a fresh interpreter, for workloads that start one per
    call: it pays the same start-up as a ``gallai`` subprocess."""
    t0 = time.perf_counter()
    python(["-c", REFERENCE_CODE])
    return time.perf_counter() - t0


# Times of the two forms on the reference machine (2 vCPUs, Python 3.11)
REFERENCE_S = {reference_here: 0.009, reference_child: 0.070}


# ---------------------------------------------------------------------------
# independent re-checks


def _is_mono_subgraph(c, color, kind, w) -> bool:
    """Re-check a hunt witness edge by edge: the clique part (all but a
    K4+e's pendant) is monochromatic and the pendant hangs off it."""
    size = {"K3": 3, "K4": 4, "K4+e": 5}[kind]
    if len(w) != size or len(set(w)) != size or not all(1 <= v <= c.n for v in w):
        return False
    clique = w[:4] if kind == "K4+e" else w
    if any(c.color(u, v) != color for u, v in combinations(clique, 2)):
        return False
    return kind != "K4+e" or any(c.color(x, w[4]) == color for x in clique)


def _check_avoids(c, targets, gallai_only):
    """A witness of exists_avoiding: no color holds its target."""
    cen = gallai.triangle_census(c)
    for color, target in enumerate(targets, start=1):
        expect(
            not gallai.find_mono_subgraph(c, color, target).present,
            f"witness has a monochromatic {target} in color {color}",
        )
        if target == K3:
            expect(cen.mono_per_color[color] == 0, f"census counts a color-{color} triangle")
    if gallai_only:
        expect(gallai.is_gallai(c), "witness has a rainbow triangle")


def _check_grstar(n, k, result):
    found, ext = result
    want = n < formulas.gr_star_k3(k)
    expect(found == want, f"grstar({n},{k}) found={found}, reference {want}")
    if found:
        pairs = ext.pairs
        _check_avoids(pairs, [K3] * k, gallai_only=True)
        for u, v, c in pairs.edges():
            expect(
                c not in (ext.singleton_color(u), ext.singleton_color(v)),
                f"pair ({u},{v}) repeats an endpoint's singleton color",
            )


# ---------------------------------------------------------------------------
# search-serial and search-jobs2


def _check_optimum(out, want, value_of, gallai_only=False):
    expect(out.exhaustive, "search not exhaustive")
    expect(out.value == want, f"value {out.value}, reference {want}")
    expect(out.witness is not None, "no witness")
    expect(value_of(out.witness) == want, "witness does not attain the value")
    if gallai_only:
        expect(gallai.is_gallai(out.witness), "witness has a rainbow triangle")


def _check_exists(out, want, targets, gallai_only):
    expect(out.exhaustive, "search not exhaustive")
    expect(out.value == want, f"value {out.value}, reference {want}")
    if want:
        _check_avoids(out.witness, targets, gallai_only)
    else:
        expect(out.witness is None, "witness reported for an empty space")


def _mono_total(c):
    return gallai.triangle_census(c).mono_total


def _tight_multiplicity(k, n):
    upper, lower = formulas.g_multiplicity_bounds(k, n)
    if upper != lower:
        raise ValueError(f"bounds for k={k} n={n} are not tight")
    return upper


def _search_op(name, call, check, span=None, nodes=None):
    span = span or f"search.{name}.s"
    nodes = nodes or f"search.{name}.nodes"

    def run(tr):
        with tr.span(span):
            out = call()
        tr.count(nodes, out.nodes_explored)
        return out

    return Op(name, run, check, nodes=lambda out: out.nodes_explored)


def _grstar_op(n, k):
    def run(tr):
        with tr.span("grstar.witness_s"):
            return gallai.max_gr_star_witness(n, k)

    return Op(f"grstar-{n}-{k}", run, lambda r: _check_grstar(n, k, r))


def search_ops(jobs: int) -> list[Op]:
    """The search instances: all three DFS kernels, proof and witness
    exits, Gallai pruning on and off, k = 2 and 3."""
    j = {"jobs": jobs}
    mixed = [K4E, K3]
    ops = [
        _search_op(
            "min-mono-8-2",
            lambda: gallai.min_mono_triangles(8, 2, **j),
            lambda out: _check_optimum(out, formulas.goodman_m2(8), _mono_total),
        ),
        _search_op(
            "min-mono-11-3-g",
            lambda: gallai.min_mono_triangles(11, 3, True, **j),
            lambda out: _check_optimum(out, _tight_multiplicity(3, 11), _mono_total, True),
        ),
        _search_op(
            "exists-9-2-k4e-k3",
            lambda: gallai.exists_avoiding(9, 2, mixed, **j),
            lambda out: _check_exists(out, int(9 < formulas.gr_mixed_k4e(2, 1)), mixed, False),
        ),
        _search_op(
            "exists-11-3-k3-g",
            lambda: gallai.exists_avoiding(11, 3, [K3] * 3, True, **j),
            lambda out: _check_exists(out, int(11 < formulas.gr_k3(3)), [K3] * 3, True),
        ),
        _search_op(
            "exists-10-3-k3-g",
            lambda: gallai.exists_avoiding(10, 3, [K3] * 3, True, **j),
            lambda out: _check_exists(out, int(10 < formulas.gr_k3(3)), [K3] * 3, True),
        ),
        _search_op(
            "max-prot-8-2",
            lambda: gallai.max_protected_edges(8, 2, **j),
            lambda out: _check_optimum(
                out, formulas.turan_count(8, 2), gallai.count_protected_edges
            ),
        ),
        _grstar_op(5, 3),
        _grstar_op(6, 3),
    ]
    if jobs > 1:
        # n = 4 gives a tree of a few dozen nodes: the call is pool start-up
        ops.append(
            _search_op(
                "pool-start",
                lambda: gallai.min_mono_triangles(4, 2, jobs=jobs),
                lambda out: _check_optimum(out, formulas.goodman_m2(4), _mono_total),
                span="search.pool_start_s",
                nodes="search.pool_start.nodes",
            )
        )
    return ops


def warm_search(scratch: Path):
    """One small call per search kernel, serially."""
    gallai.min_mono_triangles(5, 2)
    gallai.min_mono_triangles(5, 3, True)
    gallai.exists_avoiding(5, 2, [K4E, K3])
    gallai.max_protected_edges(5, 2)
    gallai.max_gr_star_witness(3, 2)


# ---------------------------------------------------------------------------
# structure


@dataclass
class Certified:
    coloring: Any
    parsed: Any
    census: Any
    hunts: dict
    protected: int
    nim: int
    partitions: Optional[tuple]


def _partition_pipeline(c, tr):
    with tr.span("partition.find_s"):
        found = gallai.find_gallai_partition(c)
    with tr.span("partition.verify_s"):
        found_ok = gallai.verify_gallai_partition(c, found)
    with tr.span("partition.coarsen_s"):
        coarse = gallai.coarsen_to_min_parts(c, found)
    with tr.span("partition.verify_s"):
        coarse_ok = gallai.verify_gallai_partition(c, coarse)
    tr.count("partition.parts_found", len(found.parts))
    tr.count("partition.parts_coarsened", len(coarse.parts))
    return found, found_ok, coarse, coarse_ok


def _check_partitions(partitions):
    found, found_ok, coarse, coarse_ok = partitions
    expect(found_ok, "found partition fails verification")
    expect(coarse_ok, "coarsened partition fails verification")
    expect(2 <= len(coarse.parts) <= len(found.parts), "coarsening added parts")


def _certify(tr, family, build, h):
    with tr.span(f"construct.{family}_s"):
        c = build()
    with tr.span("coloring.serialize_s"):
        text = gallai.serialize_coloring(c)
    tr.count("coloring.bytes", len(text))
    with tr.span("coloring.parse_s"):
        parsed = gallai.parse_coloring(text)
    with tr.span("coloring.derived_s"):
        parsed.adjacency()
    with tr.span("census.triangle_census_s"):
        cen = gallai.triangle_census(parsed)
    hunts = {}
    for color in range(1, parsed.k + 1):
        for kind in KINDS:
            with tr.span("census.hunt_s"):
                hunts[color, kind] = gallai.find_mono_subgraph(parsed, color, kind)
            tr.count("census.hunt_calls")
    with tr.span("census.protected_s"):
        protected = gallai.count_protected_edges(parsed)
    with tr.span("census.nim_star_s"):
        nim = gallai.count_nim_star_edges(parsed, h)
    partitions = _partition_pipeline(parsed, tr) if cen.rainbow == 0 else None
    return Certified(c, parsed, cen, hunts, protected, nim, partitions)


def _check_certified(r: Certified, gallai_expected: bool, invariant):
    c, cen = r.coloring, r.census
    expect(r.parsed == c, "parse(serialize(c)) != c")
    expect(
        cen.mono_total + cen.bichromatic + cen.rainbow == comb(c.n, 3),
        "census total is not C(n,3)",
    )
    for (color, kind), rep in r.hunts.items():
        if rep.present:
            expect(_is_mono_subgraph(c, color, kind, rep.witness), f"bad {kind} witness")
    for color in range(1, c.k + 1):
        k3, k4, k4e = (r.hunts[color, kind].present for kind in KINDS)
        expect(k3 == (cen.mono_per_color[color] > 0), "K3 hunt disagrees with census")
        expect(k3 or not k4, "K4 found without a K3")
        expect(k4 or not k4e, "K4+e found without a K4")
    if gallai_expected:
        expect(cen.rainbow == 0, "construction has a rainbow triangle")
    if r.partitions is not None:
        _check_partitions(r.partitions)
    invariant(r)


def _absent(kinds, colors):
    def inv(r: Certified):
        for color in colors:
            for kind in kinds:
                expect(not r.hunts[color, kind].present, f"{kind} in color {color}")

    return inv


def _structure_op(family, build, gallai_expected, invariant):
    h = NIM[1]
    return Op(
        family,
        lambda tr: _certify(tr, family, build, h),
        lambda r: _check_certified(r, gallai_expected, invariant),
    )


def _sweep_op(seed):
    """Every n in 2..80 once, so a pass does the same amount of work for
    every seed; the seed picks each n's color count and its coloring.
    The sweep is one operation: its colorings take milliseconds each, and
    their sum varies far less with the seed than any one of them."""
    rng = random.Random(seed)
    ks = [1 + i % 6 for i in SWEEP_N]
    rng.shuffle(ks)
    cases = [(n, k, rng.randrange(2**32)) for n, k in zip(SWEEP_N, ks)]

    def run(tr):
        out = []
        for n, k, case_seed in cases:
            with tr.span("construct.random_gallai_s"):
                c = gallai.random_gallai_coloring(n, k, random.Random(case_seed))
            out.append(_partition_pipeline(c, tr))
        return out

    def check(results):
        for partitions in results:
            _check_partitions(partitions)

    return Op("random-sweep", run, check)


def structure_ops(seed: int, scratch: Path) -> list[Op]:
    n, h, k = NIM
    ops = [
        _structure_op(
            "gr_k3",
            lambda: gallai.construct_gr_k3_extremal(6),
            True,
            _absent(KINDS, range(1, 7)),
        ),
        _structure_op(
            "gr_k4e",
            lambda: gallai.construct_gr_k4e_extremal(4, 4),
            True,
            _absent([K4E], range(1, 5)),
        ),
        _structure_op(
            "multiplicity",
            lambda: gallai.construct_multiplicity_extremal(5, 250),
            True,
            lambda r: expect(
                r.census.mono_total == formulas.g_multiplicity_bounds(5, 250)[0],
                "multiplicity count misses the upper bound",
            ),
        ),
        _structure_op(
            "f_lower",
            lambda: gallai.construct_f_lower(250, 4),
            True,
            lambda r: expect(
                r.protected == formulas.turan_count(250, formulas.gr_k3(3) - 1),
                "protected edges differ from the Turan count",
            ),
        ),
        _structure_op(
            "goodman2",
            lambda: gallai.goodman_extremal_2coloring(250, 1, 2),
            True,
            lambda r: expect(
                r.census.mono_total == formulas.goodman_m2(250),
                "monochromatic count differs from goodman_m2",
            ),
        ),
        _structure_op(
            "nim_star",
            lambda: gallai.construct_nim_star(n, h, k, seed),
            False,
            lambda r: expect(
                r.nim >= (k - 1) * formulas.ex_star(n, h), "nim-star count below (k-1)*ex_star"
            ),
        ),
    ]
    return ops + [_sweep_op(seed)]


def warm_structure(scratch: Path):
    """Every structure layer once, on small colorings."""
    for c in (
        gallai.construct_gr_k3_extremal(3),
        gallai.construct_gr_k4e_extremal(2, 2),
        gallai.construct_multiplicity_extremal(3, 12),
        gallai.construct_f_lower(12, 3),
        gallai.goodman_extremal_2coloring(12, 1, 2),
        gallai.construct_nim_star(20, 3, 3),
        gallai.random_gallai_coloring(12, 3, random.Random(0)),
    ):
        _certify(NULL_TRACER, "warm", lambda: c, 3)


# ---------------------------------------------------------------------------
# cli


ROOT = Path(__file__).resolve().parent.parent
# A ``gallai`` subprocess finds the checkout's sources on its path and
# caches bytecode next to them, as a user's installation would.
ENV = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), ENV.get("PYTHONPATH")]))


def python(args, timeout=60) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=ENV,
        cwd=ROOT,
        timeout=timeout,
    )


def _cli_op(name, args, check):
    verb = args[0]

    def run(tr):
        with tr.span(f"cli.{verb}_s"):
            return python(["-m", "gallai.cli", *args])

    def checked(proc):
        expect(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        check(proc)

    return Op(name, run, checked)


def _json(proc) -> dict:
    doc = json.loads(proc.stdout)
    expect(doc.get("schema") == "1", "JSON lacks schema 1")
    return doc


def _check_count(doc, n, mono_total=None):
    expect(doc["n"] == n, "wrong n")
    total = sum(doc["mono"].values()) + doc["bichromatic"] + doc["rainbow"]
    expect(total == comb(n, 3), "census total is not C(n,3)")
    expect(doc["rainbow"] == 0, "rainbow triangle in a Gallai construction")
    if mono_total is not None:
        expect(sum(doc["mono"].values()) == mono_total, "monochromatic count differs from the bound")


def _parse_partition(text: str, k: int):
    """Rebuild a GallaiPartition from ``gallai partition`` output."""
    lines = text.splitlines()
    parts, i = [], 0
    while lines[i].startswith("part "):
        parts.append(tuple(int(v) for v in lines[i].split(":")[1].split()))
        i += 1
    between = frozenset(int(c) for c in lines[i].split(":")[1].split())
    expect(lines[i + 1] == "reduced:", "partition output lacks the reduced coloring")
    reduced = gallai.parse_coloring("\n".join(lines[i + 2 :]))
    return gallai.GallaiPartition(tuple(parts), between, reduced)


def _check_partition_output(proc, coloring):
    gp = _parse_partition(proc.stdout, coloring.k)
    expect(gallai.verify_gallai_partition(coloring, gp), "CLI partition fails verification")


def _check_file(path: Path, reference: str):
    expect(path.read_text() == reference, f"{path.name} differs from the library's output")


def cli_ops(seed: int, scratch: Path) -> list[Op]:
    n, h, k = NIM
    f, g = scratch / "gr-k4e-4-4.gec", scratch / "multiplicity-5-250.gec"
    # references come from the in-process library, built once per run
    gr_k4e = gallai.construct_gr_k4e_extremal(4, 4)
    mult = gallai.construct_multiplicity_extremal(5, 250)
    nim = gallai.construct_nim_star(n, h, k, seed)
    f_text, g_text = gr_k4e.serialize(), mult.serialize()
    mult_upper = formulas.g_multiplicity_bounds(5, 250)[0]
    bounds = " ".join(str(x) for x in formulas.g_multiplicity_bounds(3, 13))

    def nim_check(proc):
        c = gallai.parse_coloring(proc.stdout)
        expect(c == nim, "nim-star output differs from the library's for this seed")
        expect(
            gallai.count_nim_star_edges(c, h) >= (k - 1) * formulas.ex_star(n, h),
            "nim-star count below (k-1)*ex_star",
        )

    def mono7_check(proc):
        doc = _json(proc)
        want = formulas.goodman_m2(7)
        expect(doc["exhaustive"] and doc["value"] == want, f"value {doc['value']}, reference {want}")
        expect(_mono_total(gallai.parse_coloring(doc["witness_gec"])) == want, "witness misses the value")

    def exists_check(proc):
        doc = _json(proc)
        want = int(9 < formulas.gr_mixed_k4e(2, 1))
        expect(doc["exhaustive"] and doc["value"] == want, f"value {doc['value']}, reference {want}")

    def grstar_check(proc):
        doc = _json(proc)
        expect(doc["found"] == (6 < formulas.gr_star_k3(3)), "grstar verdict differs from gr_star_k3")

    return [
        _cli_op("construct-gr-k4e", ["construct", "gr-k4e", "4", "4", "-o", str(f)], lambda p: _check_file(f, f_text)),
        _cli_op("count-gr-k4e", ["count", str(f)], lambda p: _check_count(_json(p), gr_k4e.n)),
        _cli_op("partition-min-gr-k4e", ["partition", str(f), "--minimize"], lambda p: _check_partition_output(p, gr_k4e)),
        _cli_op("construct-multiplicity", ["construct", "multiplicity", "5", "250", "-o", str(g)], lambda p: _check_file(g, g_text)),
        _cli_op("count-multiplicity", ["count", str(g)], lambda p: _check_count(_json(p), mult.n, mult_upper)),
        _cli_op("partition-multiplicity", ["partition", str(g)], lambda p: _check_partition_output(p, mult)),
        _cli_op("construct-nim-star", ["construct", "nim-star", str(n), str(h), str(k), "--seed", str(seed)], nim_check),
        _cli_op("formula-g-bounds", ["formula", "g-bounds", "3", "13"], lambda p: expect(p.stdout.strip() == bounds, "g-bounds output differs")),
        _cli_op("search-exists", ["search", "exists-avoiding", "9", "2", "--targets", "K4+e,K3"], exists_check),
        _cli_op("search-min-mono", ["search", "min-mono", "7", "2"], mono7_check),
        _cli_op("grstar-search", ["grstar-search", "6", "3"], grstar_check),
        _cli_op("verify-suite", ["verify-suite", "--level", "fast", "--json"], lambda p: expect(_json(p)["ok"], "verify-suite failed")),
    ]


def warm_cli(scratch: Path):
    """One cheap call per verb; the first such round compiles bytecode."""
    w = str(scratch / "warm.gec")
    for args in (
        ["construct", "gr-k3", "2", "-o", w],
        ["count", w],
        ["partition", w],
        ["formula", "gr-k3", "2"],
        ["search", "min-mono", "4", "2"],
        ["grstar-search", "3", "2"],
        ["verify-suite", "--level", "fast"],
    ):
        proc = python(["-m", "gallai.cli", *args])
        if proc.returncode != 0:
            raise RuntimeError(f"gallai {' '.join(args)} failed: {proc.stderr.strip()}")


def extras_cli(tr, scratch: Path):
    """Start-up costs and the verify layer, measured beside the passes."""
    with tr.span("cli.interp_s"):
        python(["-c", "pass"])
    with tr.span("cli.import_s"):
        python(["-c", "import gallai.cli"])
    with tr.span("verify.fast_s"):
        verify.run_suite("fast")


# ---------------------------------------------------------------------------


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search-serial", 3.4, lambda seed, d: search_ops(1), warm_search, reference_here),
        Workload("search-jobs2", 4.0, lambda seed, d: search_ops(2), warm_search, None),
        Workload("structure", 4.0, structure_ops, warm_structure, reference_here),
        Workload("cli", 3.7, cli_ops, warm_cli, reference_child, extras_cli),
    )
}
