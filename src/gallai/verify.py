"""The self-check battery behind `gallai verify-suite`.

Each check compares library output against an independent expectation:
closed formulas against exhaustive search, constructions against the
censuses and subgraph hunts, the partition algorithm against brute-force
enumeration at tiny sizes and randomized blow-ups at desk scale.  A
check raises on the first failure and otherwise returns a one-line
summary of what it examined.  The fast level is a sub-minute subset;
the full level runs everything, and `tests/test_acceptance.py` runs it
one check at a time.

Every search value the battery relies on is a row of one table,
`PROVED`, and `_prove(row)` is its only prover: it reruns the search,
requires the row's value, `exhaustive` flag and (for a run that starts
no helper process) node count, re-checks the witness without the
search, and compares the value with the library's own formula or
construction.  The search checks are selections of rows.  A row's level
says where it runs: "fast" and "full" rows in the suite levels of those
names, "ci" rows (tens of seconds) in a CI step of their own, and
"record" rows (minutes) only on request, e.g.

    python -O -c "from gallai import verify; [print(verify._prove(row)) for row in verify.PROVED if row.level == 'record']"
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from itertools import combinations, product
from math import comb

from . import census, construct, formulas, grstar, search
from .coloring import Coloring, parse_coloring
from .partition import (
    _candidate_color_sets,
    _components_outside,
    _vertices,
    coarsen_to_min_parts,
    find_gallai_partition,
    verify_gallai_partition,
)


CheckResult = namedtuple("CheckResult", "name ok detail seconds")


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
# proved search instances


class Proved(
    namedtuple(
        "Proved",
        "level objective n k value nodes exhaustive gallai targets budget jobs",
        defaults=(True, False, (), search.DEFAULT_BUDGET, 1),
    )
):
    """One search instance and the outcome a serial run proves for it.

    objective is a `gallai search` objective: "min-mono", under gallai
    over Gallai colorings only; "exists-avoiding", with one target per
    color; or "max-protected".  value and exhaustive are the run's, and
    nodes its serial nodes-to-proof, which a serial run repeats exactly,
    and so does a run with jobs > 1 inside search._PROBE nodes.  level
    is "fast", "full", "ci" or "record" (see the module docstring).
    """

    __slots__ = ()


_K3 = (search.TARGET_K3, search.TARGET_K3)
_K4E_K3 = (search.TARGET_K4E, search.TARGET_K3)

PROVED = (
    # the least monochromatic count of a 2-coloring: goodman_m2
    Proved("fast", "min-mono", 3, 2, 0, 3),
    Proved("fast", "min-mono", 4, 2, 0, 6),
    Proved("fast", "min-mono", 5, 2, 0, 13),
    Proved("fast", "min-mono", 6, 2, 2, 19),
    Proved("full", "min-mono", 7, 2, 4, 55),
    # avoidance flips at the thresholds gr_k3(2) = 6 and gr_mixed_k4e(2, 1) = 9,
    # and over Gallai colorings at gr_mixed_k4e(3, 1) = 21 and gr_k3(4) = 26
    Proved("full", "exists-avoiding", 5, 2, 1, 20, targets=_K3),
    Proved("full", "exists-avoiding", 6, 2, 0, 26, targets=_K3),
    Proved("full", "exists-avoiding", 8, 2, 1, 28, targets=_K4E_K3),
    Proved("full", "exists-avoiding", 9, 2, 0, 1470, targets=_K4E_K3),
    Proved("full", "exists-avoiding", 20, 3, 1, 312, gallai=True, targets=(*_K4E_K3, search.TARGET_K3)),
    Proved("ci", "exists-avoiding", 21, 3, 0, 1090323, gallai=True, targets=(*_K4E_K3, search.TARGET_K3)),
    Proved("full", "exists-avoiding", 25, 4, 1, 457155, gallai=True, targets=_K3 * 2),
    Proved("ci", "exists-avoiding", 26, 4, 0, 1749664, gallai=True, targets=_K3 * 2),
    # g(3, n), the least monochromatic count of a Gallai 3-coloring: the
    # upper end of g_multiplicity_bounds(3, n).  With two jobs, n = 12 ends
    # inside search._PROBE, so its walk and count are the serial ones;
    # n = 13 and 16 start a helper
    Proved("full", "min-mono", 11, 3, 1, 1902, gallai=True),
    Proved("full", "min-mono", 12, 3, 2, 9613, gallai=True),
    Proved("full", "min-mono", 12, 3, 2, 9613, gallai=True, jobs=2),
    Proved("full", "min-mono", 13, 3, 3, 33375, gallai=True),
    Proved("full", "min-mono", 13, 3, 3, 33375, gallai=True, jobs=2),
    Proved("full", "min-mono", 14, 3, 4, 92265, gallai=True),
    Proved("full", "min-mono", 15, 3, 5, 240661, gallai=True),
    Proved("ci", "min-mono", 16, 3, 8, 1681802, gallai=True),
    Proved("ci", "min-mono", 16, 3, 8, 1681802, gallai=True, jobs=2),
    Proved("record", "min-mono", 17, 3, 11, 16876230, gallai=True),
    Proved("record", "min-mono", 18, 3, 14, 140256328, gallai=True),
    # f(n, k), the most edges in no rainbow and no monochromatic triangle:
    # the count of construct_f_lower(n, k), which also seeds the search.
    # The budget-stopped run at n = 60 finds no leaf above that seed in
    # its 5,000 nodes and reports the seed, turan_count(60, 2)
    Proved("full", "max-protected", 60, 2, 900, 5000, exhaustive=False, budget=5000),
    Proved("full", "max-protected", 9, 2, 20, 2516),
    Proved("full", "max-protected", 10, 2, 25, 7387),
    Proved("full", "max-protected", 11, 2, 30, 28294),
    Proved("full", "max-protected", 12, 2, 36, 109842),
    Proved("ci", "max-protected", 13, 2, 42, 630455),
    Proved("full", "max-protected", 10, 3, 45, 165),
    Proved("full", "max-protected", 11, 3, 52, 1919),
    Proved("full", "max-protected", 12, 3, 60, 20392),
    Proved("full", "max-protected", 13, 3, 69, 153562),
    Proved("ci", "max-protected", 14, 3, 79, 1042383),
    Proved("ci", "max-protected", 15, 3, 90, 7499613),
)


def _label(row):
    args = [str(row.n), str(row.k)]
    args += ["/".join(row.targets)] if row.targets else []
    args += ["gallai"] if row.gallai else []
    args += [f"budget={row.budget}"] if row.budget != search.DEFAULT_BUDGET else []
    args += [f"jobs={row.jobs}"] if row.jobs != 1 else []
    return f"{row.objective}({','.join(args)})"


def _run(row):
    """The search row records, as `gallai search` runs it."""
    kwargs = dict(budget=row.budget, jobs=row.jobs)
    if row.objective == "min-mono":
        return search.min_mono_triangles(row.n, row.k, row.gallai, **kwargs)
    if row.objective == "exists-avoiding":
        return search.exists_avoiding(row.n, row.k, row.targets, row.gallai, **kwargs)
    return search.max_protected_edges(row.n, row.k, **kwargs)


def _witness_value(row, witness):
    """The value witness attains for row's objective, found without the
    search: the triangle census (and no rainbow triangle under gallai),
    the target hunts, or the protected-edge count."""
    if row.objective == "max-protected":
        return census.count_protected_edges(witness)
    if row.objective == "exists-avoiding" and witness is None:
        return 0
    _require(not row.gallai or census.is_gallai(witness), f"{_label(row)}: rainbow witness")
    if row.objective == "min-mono":
        return census.triangle_census(witness).mono_total
    for color, target in enumerate(row.targets, 1):
        found = census.find_mono_subgraph(witness, color, target).present
        _require(not found, f"{_label(row)}: witness has a {target} in color {color}")
    return 1


def _expected(row):
    """The value the library's formulas or constructions give for row's
    instance, or None for a run its budget stopped, whose value bounds
    the optimum from one side only."""
    if not row.exhaustive:
        return None
    n, k = row.n, row.k
    if row.objective == "min-mono":
        _require(k == 2 or row.gallai, f"{_label(row)}: no formula")
        return formulas.goodman_m2(n) if k == 2 else formulas.g_multiplicity_bounds(k, n)[0]
    if row.objective == "exists-avoiding":
        # every 2-coloring is a Gallai coloring
        _require(k <= 2 or row.gallai, f"{_label(row)}: no formula")
        threshold = formulas.gr_mixed_k4e(k, row.targets.count(search.TARGET_K4E))
        return int(n < threshold)
    return census.count_protected_edges(construct.construct_f_lower(n, k))


def _prove(row):
    """Rerun row's search and require its recorded outcome, re-check the
    witness and cross-check the value; returns what was proved.

    The node count is required of a serial run, and of a run with
    jobs > 1 that ends inside search._PROBE nodes, which is the serial
    walk; past that allowance helpers start, each walks the head of the
    space above the subtrees it claims, and the count varies from run to
    run."""
    label = _label(row)
    out = _run(row)
    got, want = (out.value, out.exhaustive), (row.value, row.exhaustive)
    _require(got == want, f"{label}: got {got}, want {want}")
    if row.jobs == 1 or row.nodes <= search._PROBE:
        nodes = out.nodes_explored
        _require(nodes == row.nodes, f"{label}: {nodes} nodes, want {row.nodes}")
    _require(_witness_value(row, out.witness) == row.value, f"{label}: witness misses {row.value}")
    formula = _expected(row)
    _require(formula in (None, row.value), f"{label}: {row.value}, the library gives {formula}")
    stop = "" if row.exhaustive else f" (budget out after {row.nodes} nodes)"
    return f"{label} = {row.value}{stop}"


def _prove_rows(claim, select):
    """Prove the rows of PROVED that select picks; the summary is claim
    and what was proved."""
    return f"{claim}: " + "; ".join(_prove(row) for row in PROVED if select(row))


# ---------------------------------------------------------------------------
# fast checks


def check_goodman_oracle_small():
    return _prove_rows(
        "min mono over 2-colorings equals goodman_m2", lambda row: row.level == "fast"
    )


def check_pentagon_gadget():
    p = construct.pentagon_coloring(1, 2)
    cen = census.triangle_census(p)
    _require(cen.mono_total == 0 and cen.rainbow == 0, cen)
    split = [len(p.edges_by_color()[c]) for c in (1, 2)]
    _require(split == [5, 5], split)
    return "pentagon 2-coloring: 5 + 5 edges, no monochromatic or rainbow triangle"


def check_paley17_gadget():
    p = construct.paley17_coloring(1, 2)
    for c in (1, 2):
        _require(set(p.degrees()[c][1:]) == {8}, "color classes must be 8-regular")
        _require(not census.find_mono_subgraph(p, c, "K4").present, f"K4 in color {c}")
    _require(census.triangle_census(p).rainbow == 0)
    return "Paley-17 2-coloring: both classes 8-regular and K4-free, no rainbow triangle"


def check_figure1_fixture():
    fx = grstar.figure1_fixture()
    _require(fx.pairs.n == 10 and fx.pairs.k == 4)
    _require(fx.pairs.n == formulas.gr_star_k3(4) - 1)
    _require(len(set(fx.singleton_colors)) == 2)
    report = grstar.check_gr_star_conditions(fx)
    _require(report.passes, report)
    return "Figure 1 fixture (n=10, k=4, two singleton colours) passes the GR* conditions"


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
    return "spot values of goodman_m2, m3, gr_k3, gr_mixed_k4e, gr_star_k3, turan_count, g bounds, ex_star"


def check_gec_roundtrip():
    samples = [
        construct.pentagon_coloring(1, 2),
        construct.paley17_coloring(2, 3),
        construct.construct_gr_k3_extremal(3),
    ]
    for c in samples:
        _require(parse_coloring(c.serialize()) == c)
    return f"{len(samples)} colorings round-trip through .gec"


# ---------------------------------------------------------------------------
# full checks


def check_goodman_oracle_n7():
    return _prove_rows(
        "min mono over 2-colorings equals goodman_m2",
        lambda row: row.level == "full" and row.objective == "min-mono" and row.k == 2,
    )


def check_ramsey_brackets():
    return _prove_rows(
        "avoidance flips at the Gallai-Ramsey thresholds",
        lambda row: row.level == "full" and row.objective == "exists-avoiding",
    )


def check_gallai_min_mono_frontier():
    return _prove_rows(
        "g(3,n) equals the multiplicity upper bound",
        lambda row: row.level == "full" and row.objective == "min-mono" and row.gallai,
    )


def check_max_protected_frontier():
    return _prove_rows(
        "f(n,k) equals the protected count of construct_f_lower",
        lambda row: row.level == "full" and row.objective == "max-protected",
    )


def check_gr_k3_witnesses():
    orders = [2, 5, 10, 25, 50]
    for k, order in enumerate(orders, 1):
        c = construct.construct_gr_k3_extremal(k)
        _require(c.n == order == formulas.gr_k3(k) - 1)
        cen = census.triangle_census(c)
        _require(cen.rainbow == 0 and cen.mono_total == 0, (k, cen))
    return f"triangle-free Gallai witnesses at sizes {orders}"


def check_gr_k4e_witnesses():
    # orders pinned independently of the formula
    spot = {(2, 1): 8, (2, 2): 17, (3, 1): 20, (3, 2): 34, (3, 3): 68, (4, 4): 289}
    instances = _gr_k4e_instances()
    _require(spot.keys() <= set(instances))
    for k, s in instances:
        c = construct.construct_gr_k4e_extremal(k, s)
        _require(c.n == formulas.mixed_k4e_extremal_order(k, s), (k, s))
        _require(c.n == spot.get((k, s), c.n), (k, s, c.n))
        _require(census.triangle_census(c).rainbow == 0)
        for q in range(1, s + 1):
            _require(not census.find_mono_subgraph(c, q, "K4+e").present, (k, s, q))
        for q in range(s + 1, k + 1):
            _require(not census.find_mono_subgraph(c, q, "K3").present, (k, s, q))
    return f"{len(instances)} mixed-target witnesses up to 300 vertices"


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
    return "multiplicity constructions meet the upper bound for k<=4, n<=gr_k3(k)+30"


def check_f_lower_turan():
    for k, n in [(2, 6), (2, 20), (3, 30), (4, 55)]:
        c = construct.construct_f_lower(n, k)
        got = census.count_protected_edges(c)
        want = formulas.turan_count(n, formulas.gr_k3(k - 1) - 1)
        _require(got == want, (k, n, got, want))
        _require(census.triangle_census(c).rainbow == 0)
    return (
        "protected-edge counts equal Turan numbers on 4 rainbow-free instances,"
        " none with a class of size 2"
    )


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def _between_colors(coloring, groups):
    """The colours between the parts of a Gallai partition, or None when
    groups is not one: it needs >= 2 parts, monochromatic part-pairs and
    at most two between-colours in total."""
    if len(groups) < 2:
        return None
    between = set()
    for a, b in combinations(groups, 2):
        colors = {coloring.color(u, v) for u in a for v in b}
        if len(colors) != 1:
            return None
        between |= colors
    return frozenset(between) if len(between) <= 2 else None


def _valid_partitions(coloring):
    """All Gallai partitions of the coloring, each with its between-colours."""
    out = []
    for p in _set_partitions(list(range(1, coloring.n + 1))):
        between = _between_colors(coloring, p)
        if between is not None:
            out.append((p, between))
    return out


def _refines(fine, coarse):
    sets = [set(part) for part in coarse]
    return all(any(set(part) <= s for s in sets) for part in fine)


def check_partition_refinement_small():
    """Brute-force the partition lemma on every Gallai coloring with
    n <= 5, k <= 3: each has a valid partition, and for each candidate
    color set S the components of the non-S graph are pairwise
    monochromatic, refine every valid partition whose between-colors lie
    in S, and number at least two whenever such a partition exists.  The
    coarsening of the found partition is valid and has the fewest parts
    among the valid partitions that the found one refines."""
    examined = merged = 0
    for n in range(2, 6):
        pairs = comb(n, 2)
        for colors in product((1, 2, 3), repeat=pairs):
            c = Coloring(n, 3, colors)
            if census.triangle_census(c).rainbow:
                continue
            examined += 1
            valid = _valid_partitions(c)
            _require(valid, ("Gallai coloring must admit a partition", n, colors))
            gp = find_gallai_partition(c)
            _require(verify_gallai_partition(c, gp), (n, colors))
            coarse = coarsen_to_min_parts(c, gp)
            fewest = min(len(p) for p, _ in valid if _refines(gp.parts, p))
            _require(
                verify_gallai_partition(c, coarse)
                and _refines(gp.parts, coarse.parts)
                and len(coarse.parts) == fewest,
                ("coarsening must have the fewest parts", n, colors, coarse.parts, fewest),
            )
            merged += len(coarse.parts) < len(gp.parts)
            for s in _candidate_color_sets(range(1, 4)):
                groups = [_vertices(comp) for comp in _components_outside(c, s)]
                relevant = [p for p, between in valid if between <= set(s)]
                if len(groups) < 2:
                    _require(not relevant, (n, colors, s))
                    continue
                # the lemma: the components are pairwise monochromatic
                # (every color between them lies in s, so at most two)
                _require(_between_colors(c, groups) is not None, (n, colors, s))
                for p in relevant:
                    _require(_refines(groups, p), (n, colors, s, p))
    return (
        f"partition lemma brute-forced on {examined} Gallai colorings with n<=5, k<=3;"
        f" {examined} coarsenings have the fewest parts, {merged} of them merging some"
    )


def check_partition_soundness():
    # find_gallai_partition needs n >= 2; the smallest here is gr_k3_extremal(1), n = 2
    colorings = [construct.construct_gr_k3_extremal(k) for k in range(1, 6)]
    colorings += [
        construct.construct_gr_k4e_extremal(k, s) for k, s in _gr_k4e_instances()
    ]
    for k in range(1, 5):
        base = formulas.gr_k3(k)
        colorings += [
            construct.construct_multiplicity_extremal(k, n)
            for n in range(base, base + 31)
        ]
    colorings += [
        construct.construct_f_lower(n, k) for k, n in [(2, 6), (2, 20), (3, 30), (4, 55)]
    ]
    for c in colorings:
        gp = find_gallai_partition(c)
        _require(verify_gallai_partition(c, gp), c)

    rng = random.Random(2024)
    for i in range(1000):
        c = construct.random_gallai_coloring(rng.randint(2, 60), rng.randint(1, 6), rng)
        gp = find_gallai_partition(c)
        _require(verify_gallai_partition(c, gp), f"random instance {i}")
    return f"partition sound on {len(colorings)} constructions and 1000 random Gallai blow-ups"


def check_grstar_exactness():
    for n, k, want in [(2, 2, True), (3, 2, False), (5, 3, True), (6, 3, False)]:
        found, witness = grstar.max_gr_star_witness(n, k)
        _require(found == want, (n, k, found))
        if found:
            _require(grstar.check_gr_star_conditions(witness).passes)
    return "GR* witness existence flips at n=3 (k=2) and at n=6 (k=3)"


def check_nim_star_bound():
    for n, h, k in [(20, 3, 3), (40, 3, 4), (40, 4, 3)]:
        c = construct.construct_nim_star(n, h, k)
        got = census.count_nim_star_edges(c, h)
        want = (k - 1) * formulas.ex_star(n, h)
        _require(got >= want, (n, h, k, got, want))
    c = construct.construct_nim_star(20, 3, 2)
    _require(census.count_nim_star_edges(c, 3) == formulas.ex_star(20, 3))
    return "layered star-free colorings meet the nim lower bound on 3 instances; equality at k=2"


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
        protected = census.count_protected_edges(c)
        _require(census.count_protected_edges(cc) == protected, i)
        h = rng.randint(1, 6)
        nim = census.count_nim_star_edges(c, h)
        _require(census.count_nim_star_edges(cc, h) == nim, i)

        vperm = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
        cv = c.permute_vertices(vperm)
        cen3 = census.triangle_census(cv)
        _require(cen3 == cen, i)
        _require(census.count_protected_edges(cv) == protected, i)
        _require(census.count_nim_star_edges(cv, h) == nim, i)
    return "conservation and permutation invariances on 10^4 seeded colorings"


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
    ("max-protected-frontier", check_max_protected_frontier),
    ("partition-refinement-small", check_partition_refinement_small),
    ("partition-soundness", check_partition_soundness),
    ("grstar-exactness", check_grstar_exactness),
    ("nim-star-bound", check_nim_star_bound),
    ("census-properties", check_census_properties),
]


def run_check(name, fn) -> CheckResult:
    """Run one check; its detail is the check's summary when it passes."""
    start = time.perf_counter()
    try:
        ok, detail = True, fn()
    except Exception as exc:
        # a crash fails its own check, not the battery
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, ok, detail, time.perf_counter() - start)


def run_suite(level: str = "fast") -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    checks = FAST_CHECKS if level == "fast" else FULL_CHECKS
    return [run_check(name, fn) for name, fn in checks]
