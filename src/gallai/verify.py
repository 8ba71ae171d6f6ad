"""The self-check battery behind `gallai verify-suite`.

Each check compares library output against an independent expectation:
closed formulas against exhaustive search, constructions against the
censuses and subgraph hunts, the partition algorithm against brute-force
enumeration at tiny sizes and randomized blow-ups at desk scale.  The
fast level is a sub-minute subset; the full level runs everything.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from . import census, construct, formulas, grstar, search
from .coloring import Coloring, parse_coloring
from .partition import (
    _candidate_color_sets,
    _merge_fixpoint,
    find_gallai_partition,
    verify_gallai_partition,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _gr_k4e_instances(limit=300):
    out = []
    for k in range(1, 11):
        for s in range(0, k + 1):
            if formulas.mixed_k4e_extremal_order(k, s) <= limit:
                out.append((k, s))
    return out


def _require(ok, detail=None):
    """Raise AssertionError(detail) unless ok.

    An explicit raise, unlike `assert`, still runs under `python -O`, and
    the exception reads as an `assert` with the same message would.
    """
    if not ok:
        raise AssertionError() if detail is None else AssertionError(detail)


# ---------------------------------------------------------------------------
# fast checks


def check_goodman_oracle_small():
    for n, want in [(3, 0), (4, 0), (5, 0), (6, 2)]:
        out = search.min_mono_triangles(n, 2)
        _require(out.exhaustive and out.value == want, f"n={n}: got {out.value}, want {want}")
        _require(out.value == formulas.goodman_m2(n))
        _require(census.triangle_census(out.witness).mono_total == out.value)


def check_pentagon_gadget():
    p = construct.pentagon_coloring(1, 2)
    cen = census.triangle_census(p)
    _require(cen.mono_total == 0 and cen.rainbow == 0, cen)
    split = [len(p.edges_by_color()[c]) for c in (1, 2)]
    _require(split == [5, 5], split)


def check_paley17_gadget():
    p = construct.paley17_coloring(1, 2)
    for c in (1, 2):
        _require(set(p.degrees()[c][1:]) == {8}, "color classes must be 8-regular")
        _require(not census.find_mono_subgraph(p, c, "K4").present, f"K4 in color {c}")
    _require(census.triangle_census(p).rainbow == 0)


def check_figure1_fixture():
    fx = grstar.figure1_fixture()
    _require(fx.pairs.n == 10 and fx.pairs.k == 4)
    _require(fx.pairs.n == formulas.gr_star_k3(4) - 1)
    _require(len(set(fx.singleton_colors)) == 2)
    report = grstar.check_gr_star_conditions(fx)
    _require(report.passes, report)


def check_formula_values():
    _require([formulas.goodman_m2(n) for n in (5, 6, 7)] == [0, 2, 4])
    _require(formulas.m3_formula(16).value == 8)
    _require(formulas.m3_formula(10).value == 0)
    _require(formulas.m3_formula(11).value == 1)
    _require([formulas.gr_k3(k) for k in (1, 2, 3, 4)] == [3, 6, 11, 26])
    _require(formulas.gr_mixed_k4e(2, 2) == 18)
    _require(formulas.gr_mixed_k4e(2, 1) == 9)
    _require(formulas.gr_mixed_k4e(3, 3) == 69)
    _require(formulas.gr_mixed_k4e(4, 4) == 290)
    for k in (1, 2, 3, 4, 5):
        _require(formulas.gr_mixed_k4e(k, 0) == formulas.gr_k3(k))
    _require([formulas.gr_star_k3(k) for k in (2, 4, 5)] == [3, 11, 26])
    _require(formulas.turan_count(6, 2) == 9)
    _require(formulas.turan_count(30, 5) == 360)
    _require(formulas.g_multiplicity_bounds(3, 11) == (1, 1))
    _require(formulas.g_multiplicity_bounds(4, 26) == (2, 2))
    _require(formulas.ex_star(20, 3) == 20)
    _require(formulas.ex_star(7, 4) == 10)


def check_gec_roundtrip():
    samples = [
        construct.pentagon_coloring(1, 2),
        construct.paley17_coloring(2, 3),
        construct.construct_gr_k3_extremal(3),
    ]
    for c in samples:
        _require(parse_coloring(c.serialize()) == c)


# ---------------------------------------------------------------------------
# full checks


def check_goodman_oracle_n7():
    out = search.min_mono_triangles(7, 2)
    _require(out.exhaustive and out.value == 4, out.value)
    _require(census.triangle_census(out.witness).mono_total == 4)


def check_ramsey_brackets():
    out = search.exists_avoiding(5, 2, ["K3", "K3"])
    _require(out.value == 1 and census.triangle_census(out.witness).mono_total == 0)
    out = search.exists_avoiding(6, 2, ["K3", "K3"])
    _require(out.value == 0 and out.exhaustive)
    out = search.exists_avoiding(8, 2, ["K4+e", "K3"])
    _require(out.value == 1)
    w = out.witness
    _require(not census.find_mono_subgraph(w, 1, "K4+e").present)
    _require(not census.find_mono_subgraph(w, 2, "K3").present)
    out = search.exists_avoiding(9, 2, ["K4+e", "K3"])
    _require(out.value == 0 and out.exhaustive)


def check_gallai_min_mono_frontier():
    # the exhaustive search settles g(3, n) at the upper end of the
    # bracket, so the multiplicity construction is optimal there
    for n, want in [(13, 3), (14, 4)]:
        out = search.min_mono_triangles(n, 3, True)
        _require(out.exhaustive and out.value == want, f"n={n}: got {out.value}, want {want}")
        _require(formulas.g_multiplicity_bounds(3, n)[0] == want, n)
        cen = census.triangle_census(out.witness)
        _require(cen.mono_total == want and cen.rainbow == 0, (n, cen))


def check_gr_k3_witnesses():
    for k, order in [(1, 2), (2, 5), (3, 10), (4, 25), (5, 50)]:
        c = construct.construct_gr_k3_extremal(k)
        _require(c.n == order == formulas.gr_k3(k) - 1)
        cen = census.triangle_census(c)
        _require(cen.rainbow == 0 and cen.mono_total == 0, (k, cen))


def check_gr_k4e_witnesses():
    for k, s in _gr_k4e_instances():
        c = construct.construct_gr_k4e_extremal(k, s)
        _require(c.n == formulas.mixed_k4e_extremal_order(k, s))
        _require(census.triangle_census(c).rainbow == 0)
        for q in range(1, s + 1):
            _require(not census.find_mono_subgraph(c, q, "K4+e").present, (k, s, q))
        for q in range(s + 1, k + 1):
            _require(not census.find_mono_subgraph(c, q, "K3").present, (k, s, q))


def check_multiplicity_exactness():
    for t in range(5):
        c = construct.construct_multiplicity_extremal(3, 11 + t)
        _require(census.triangle_census(c).mono_total == t + 1, t)
    c = construct.construct_multiplicity_extremal(4, 26)
    _require(census.triangle_census(c).mono_total == 2)
    for k in range(1, 5):
        base = formulas.gr_k3(k)
        for n in range(base, base + 31):
            upper, lower = formulas.g_multiplicity_bounds(k, n)
            got = census.triangle_census(
                construct.construct_multiplicity_extremal(k, n)
            ).mono_total
            _require(got == upper, (k, n, got, upper))
            _require(got >= lower, (k, n, got, lower))


def check_f_lower_turan():
    for k, n in [(2, 6), (2, 20), (3, 30), (4, 55)]:
        c = construct.construct_f_lower(n, k)
        got = census.count_protected_edges(c)
        want = formulas.turan_count(n, formulas.gr_k3(k - 1) - 1)
        _require(got == want, (k, n, got, want))
        _require(census.triangle_census(c).rainbow == 0)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def _valid_partitions(coloring):
    """All Gallai partitions of the coloring: >= 2 parts, monochromatic
    part-pairs, at most two between-colors in total."""
    out = []
    for p in _set_partitions(list(range(1, coloring.n + 1))):
        if len(p) < 2:
            continue
        between = set()
        ok = True
        for a, b in combinations(range(len(p)), 2):
            colors = {coloring.color(u, v) for u in p[a] for v in p[b]}
            if len(colors) != 1:
                ok = False
                break
            between |= colors
        if ok and len(between) <= 2:
            out.append((p, frozenset(between)))
    return out


def _refines(fine, coarse):
    sets = [set(part) for part in coarse]
    return all(any(set(part) <= s for s in sets) for part in fine)


def check_partition_refinement_small():
    """Brute-force the refinement lemma on every Gallai coloring with
    n <= 5, k <= 3: for each candidate color set S, the merge fixpoint
    refines every valid partition whose between-colors lie in S, and
    exists whenever such a partition exists."""
    for n in range(2, 6):
        pairs = comb(n, 2)
        for colors in product((1, 2, 3), repeat=pairs):
            c = Coloring(n, 3, colors)
            if census.triangle_census(c).rainbow:
                continue
            valid = _valid_partitions(c)
            gp = find_gallai_partition(c)
            _require(verify_gallai_partition(c, gp), (n, colors))
            for s in _candidate_color_sets(3):
                fix = _merge_fixpoint(c, s)
                relevant = [p for p, between in valid if between <= set(s)]
                if fix is None:
                    _require(not relevant, (n, colors, s))
                    continue
                groups, _, _ = fix
                for p in relevant:
                    _require(_refines(groups, p), (n, colors, s, p))


def check_partition_soundness():
    colorings = [construct.construct_gr_k3_extremal(k) for k in range(1, 6)]
    colorings += [
        construct.construct_gr_k4e_extremal(k, s) for k, s in _gr_k4e_instances()
    ]
    for k in range(1, 5):
        base = formulas.gr_k3(k)
        colorings += [
            construct.construct_multiplicity_extremal(k, n)
            for n in range(base, base + 31, 10)
        ]
    colorings += [
        construct.construct_f_lower(n, k) for k, n in [(2, 6), (2, 20), (3, 30), (4, 55)]
    ]
    for c in colorings:
        if c.n < 2:
            continue
        gp = find_gallai_partition(c)
        _require(verify_gallai_partition(c, gp), c)

    rng = random.Random(2024)
    for i in range(1000):
        c = construct.random_gallai_coloring(rng.randint(2, 60), rng.randint(1, 6), rng)
        gp = find_gallai_partition(c)
        _require(verify_gallai_partition(c, gp), f"random instance {i}")


def check_grstar_exactness():
    for n, k, want in [(2, 2, True), (3, 2, False), (5, 3, True), (6, 3, False)]:
        found, witness = grstar.max_gr_star_witness(n, k)
        _require(found == want, (n, k, found))
        if found:
            _require(grstar.check_gr_star_conditions(witness).passes)
    check_figure1_fixture()


def check_nim_star_bound():
    for n, h, k in [(20, 3, 3), (40, 3, 4), (40, 4, 3)]:
        c = construct.construct_nim_star(n, h, k)
        got = census.count_nim_star_edges(c, h)
        want = (k - 1) * formulas.ex_star(n, h)
        _require(got >= want, (n, h, k, got, want))
    c = construct.construct_nim_star(20, 3, 2)
    _require(census.count_nim_star_edges(c, 3) == formulas.ex_star(20, 3))


def check_census_properties():
    rng = random.Random(99)
    for i in range(10**4):
        n = rng.randint(3, 30)
        k = rng.randint(1, 6)
        colors = [rng.randint(1, k) for _ in range(comb(n, 2))]
        c = Coloring(n, k, colors)
        cen = census.triangle_census(c)
        _require(cen.mono_total + cen.bichromatic + cen.rainbow == comb(n, 3), i)

        cperm = dict(zip(range(1, k + 1), rng.sample(range(1, k + 1), k)))
        cc = c.permute_colors(cperm)
        cen2 = census.triangle_census(cc)
        _require(cen2.bichromatic == cen.bichromatic and cen2.rainbow == cen.rainbow, i)
        for q in range(1, k + 1):
            _require(cen2.mono_per_color[cperm[q]] == cen.mono_per_color[q], i)
        _require(census.count_protected_edges(cc) == census.count_protected_edges(c), i)
        h = rng.randint(1, 6)
        _require(census.count_nim_star_edges(cc, h) == census.count_nim_star_edges(c, h), i)

        vperm = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
        cv = c.permute_vertices(vperm)
        cen3 = census.triangle_census(cv)
        _require(cen3 == cen, i)
        _require(census.count_protected_edges(cv) == census.count_protected_edges(c), i)
        _require(census.count_nim_star_edges(cv, h) == census.count_nim_star_edges(c, h), i)


FAST_CHECKS = [
    ("goodman-oracle-small", check_goodman_oracle_small),
    ("pentagon-gadget", check_pentagon_gadget),
    ("paley17-gadget", check_paley17_gadget),
    ("figure1-fixture", check_figure1_fixture),
    ("formula-values", check_formula_values),
    ("gec-roundtrip", check_gec_roundtrip),
]

FULL_CHECKS = FAST_CHECKS + [
    ("goodman-oracle-n7", check_goodman_oracle_n7),
    ("ramsey-brackets", check_ramsey_brackets),
    ("gallai-min-mono-frontier", check_gallai_min_mono_frontier),
    ("gr-k3-witnesses", check_gr_k3_witnesses),
    ("gr-k4e-witnesses", check_gr_k4e_witnesses),
    ("multiplicity-exactness", check_multiplicity_exactness),
    ("f-lower-turan", check_f_lower_turan),
    ("partition-refinement-small", check_partition_refinement_small),
    ("partition-soundness", check_partition_soundness),
    ("grstar-exactness", check_grstar_exactness),
    ("nim-star-bound", check_nim_star_bound),
    ("census-properties", check_census_properties),
]


def run_suite(level: str = "fast") -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    checks = FAST_CHECKS if level == "fast" else FULL_CHECKS
    results = []
    for name, fn in checks:
        start = time.time()
        try:
            fn()
            results.append(CheckResult(name, True, "", time.time() - start))
        except Exception as exc:
            # a crash fails its own check, not the battery
            detail = f"{type(exc).__name__}: {exc}"
            results.append(CheckResult(name, False, detail, time.time() - start))
    return results
