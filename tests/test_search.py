import json
import multiprocessing
import os
from itertools import combinations, product
from pathlib import Path

import pytest

import helpers
from gallai import (
    exists_avoiding,
    find_gr_star_pair_witness,
    find_mono_subgraph,
    g_multiplicity_bounds,
    goodman_extremal_2coloring,
    goodman_m2,
    is_gallai,
    max_protected_edges,
    min_mono_triangles,
    triangle_census,
)
from gallai import search, verify
from gallai.search import (
    DEFAULT_BUDGET,
    TARGET_K3,
    TARGET_K4E,
    _SplitPairs,
    _combine,
    _edge_plan,
    _exists,
    _exists_hooks,
)

# min_mono_triangles outcomes recorded from the kernel without the seed
# incumbent and the counting bound, for jobs 1 and 2
MIN_MONO_GRID = Path(__file__).parent / "data" / "min_mono_grid.json"
# serial outcomes and node counts recorded from the three recursive
# kernels the single engine replaced: every _jobs_grid() call, the
# benchmark instances in full and at budgets 0, 1, 5, 50 and 1000, and
# the pair search behind find_gr_star_pair_witness
SEARCH_GRID = Path(__file__).parent / "data" / "search_grid.json"
# the engine's exact serial node counts on the same calls, in the same
# order, recorded once every vertex transposition and its color renaming
# was decided edge by edge; a call the budget cuts short also has its
# best-so-far value and witness there, which a stronger reduction may
# change.  A call that is a row of verify.PROVED has no count here: the
# row holds it
SEARCH_NODES = Path(__file__).parent / "data" / "search_nodes.json"


def test_min_mono_matches_goodman_small():
    for n, want in [(3, 0), (4, 0), (5, 0), (6, 2)]:
        out = min_mono_triangles(n, 2)
        assert out.exhaustive
        assert out.value == want == goodman_m2(n)
    # the counting bound is exact for two colors, so the proof closes
    # almost as soon as the seeded optimum is found again
    for n in range(7, 15):
        out = min_mono_triangles(n, 2)
        assert out.exhaustive
        assert out.value == goodman_m2(n)
        assert out.nodes_explored < 10**4


def test_min_mono_matches_full_enumeration():
    # soundness of the symmetry reduction: values agree with an
    # unreduced product-space sweep
    for n in (3, 4, 5):
        assert min_mono_triangles(n, 2).value == helpers.brute_min_mono(n, 2)
    assert min_mono_triangles(4, 3).value == helpers.brute_min_mono(4, 3)
    assert min_mono_triangles(5, 3).value == helpers.brute_min_mono(5, 3)


def test_min_mono_matches_previous_kernel():
    cases = json.loads(MIN_MONO_GRID.read_text())
    assert len(cases) == 76
    for case in cases:
        out = min_mono_triangles(
            case["n"], case["k"], case["gallai_only"], jobs=case["jobs"]
        )
        witness = out.witness.serialize() if out.witness is not None else None
        got = (out.value, out.exhaustive, witness)
        assert got == (case["value"], case["exhaustive"], case["witness"]), case


def test_split_pair_table_matches_brute_force():
    # the counting bound is sound only if no completion of a vertex's
    # color degrees splits more edge pairs than the table says
    for n, k in [(5, 2), (6, 3), (5, 4)]:
        table = _SplitPairs(n, k)
        for degrees in product(range(n), repeat=k):
            free = n - 1 - sum(degrees)
            if free < 0:
                continue
            best = 0
            for extra in product(range(free + 1), repeat=k):
                if sum(extra) == free:
                    x = [d + e for d, e in zip(degrees, extra)]
                    best = max(best, sum(a * b for a, b in combinations(x, 2)))
            code = sum(d * n**i for i, d in enumerate(degrees))
            assert table[code] == best, (n, k, degrees)


def test_min_mono_budget_reports_seed():
    # no leaf is reached in 5 nodes, so the best coloring known is the
    # construction the incumbent started from
    for jobs in (1, 2, 3):
        out = min_mono_triangles(9, 2, budget=5, jobs=jobs)
        assert not out.exhaustive
        assert out.value == goodman_m2(9)
        assert out.witness == goodman_extremal_2coloring(9, 1, 2)
        out = min_mono_triangles(13, 3, True, budget=5, jobs=jobs)
        assert not out.exhaustive
        assert out.value == g_multiplicity_bounds(3, 13)[0]
        assert triangle_census(out.witness).mono_total == out.value
        assert is_gallai(out.witness)


def test_min_mono_gallai_flag():
    # 2-colorings are all Gallai, so the restriction changes nothing
    assert min_mono_triangles(6, 2, True).value == 2
    out = min_mono_triangles(6, 3, True)
    assert out.value == 0
    assert is_gallai(out.witness)
    assert min_mono_triangles(5, 3, True).value == helpers.brute_min_mono(5, 3, True)


def test_min_mono_monotone_in_n():
    values = [min_mono_triangles(n, 2).value for n in range(3, 8)]
    assert values == sorted(values)
    for n in (5, 6):
        assert (
            min_mono_triangles(n, 2, True).value
            >= min_mono_triangles(n, 2, False).value
        )


def test_witness_revalidates_through_census():
    for n in (5, 6, 7):
        out = min_mono_triangles(n, 2)
        assert triangle_census(out.witness).mono_total == out.value


def test_min_mono_trivial_sizes():
    assert min_mono_triangles(1, 2).value == 0
    assert min_mono_triangles(2, 3).value == 0
    assert min_mono_triangles(3, 1).value == 1


def test_exists_k3_bracket():
    out = exists_avoiding(5, 2, ["K3", "K3"])
    assert out.value == 1
    assert triangle_census(out.witness).mono_total == 0
    out = exists_avoiding(6, 2, ["K3", "K3"])
    assert out.value == 0 and out.exhaustive


def test_exists_k4e_bracket():
    out = exists_avoiding(8, 2, ["K4+e", "K3"])
    assert out.value == 1
    assert not find_mono_subgraph(out.witness, 1, "K4+e").present
    assert not find_mono_subgraph(out.witness, 2, "K3").present
    assert not helpers.brute_has_mono_k4e(out.witness, 1)
    out = exists_avoiding(9, 2, ["K4+e", "K3"])
    assert out.value == 0 and out.exhaustive


def test_exists_matches_full_enumeration():
    # mixed targets break color symmetry; check the reduced search
    # against the unreduced space at tiny sizes
    for n in (4, 5):
        reduced = exists_avoiding(n, 2, ["K4+e", "K3"]).value
        assert reduced == helpers.brute_exists_avoiding(n, 2, ["K4+e", "K3"])


def test_exists_rejects_bad_targets():
    with pytest.raises(ValueError):
        exists_avoiding(5, 2, ["K3"])
    with pytest.raises(ValueError):
        exists_avoiding(5, 2, ["K3", "K5"])


def test_max_protected_small_values():
    # below the 2-color Ramsey threshold every edge can be protected
    assert max_protected_edges(4, 2).value == 6 == helpers.brute_max_protected(4, 2)
    assert max_protected_edges(5, 2).value == 10
    # at n=6 two colors force monochromatic triangles; 3 Gallai colors
    # still protect everything
    assert max_protected_edges(6, 3).value == 15
    out = max_protected_edges(6, 2)
    assert out.value == 10
    assert out.value == helpers.brute_max_protected(6, 2)


def test_max_protected_witness_revalidates():
    from gallai import count_protected_edges

    out = max_protected_edges(6, 3)
    assert count_protected_edges(out.witness) == out.value


def test_budget_degradation_is_explicit():
    out = min_mono_triangles(7, 2, budget=50)
    assert not out.exhaustive
    assert out.nodes_explored <= 51


def _jobs_grid():
    """(search, positional arguments) for every call the jobs grid runs."""
    k3_2, k3_3 = ["K3"] * 2, ["K3"] * 3
    mixed2, mixed3 = ["K4+e", "K3"], ["K4+e", "K3", "K3"]
    for n in range(1, 9):
        yield min_mono_triangles, (n, 2)
        yield exists_avoiding, (n, 2, k3_2)
        yield exists_avoiding, (n, 2, mixed2)
        yield max_protected_edges, (n, 2)
    for n in range(1, 8):
        for g in (False, True):
            yield min_mono_triangles, (n, 3, g)
            yield exists_avoiding, (n, 3, k3_3, g)
            yield exists_avoiding, (n, 3, mixed3, g)
        yield max_protected_edges, (n, 3)
    for n in range(9, 12):
        yield min_mono_triangles, (n, 3, True)
        yield exists_avoiding, (n, 3, k3_3, True)


def _assert_jobs_match_serial(monkeypatch):
    # the parallel split, the shared incumbent and the prefix-order
    # combine must reproduce the serial value, witness and verdict;
    # three CPUs keep jobs=3 from being capped to this machine's count
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for f, args in _jobs_grid():
        serial = f(*args)
        for jobs in (2, 3):
            out = f(*args, jobs=jobs)
            got = (out.value, out.witness, out.exhaustive)
            assert got == (serial.value, serial.witness, serial.exhaustive), (
                f.__name__,
                args,
                jobs,
            )


def test_jobs_deterministic(monkeypatch):
    # at the default allowance every grid call ends in the parent
    _assert_jobs_match_serial(monkeypatch)


def test_jobs_deterministic_with_helpers(monkeypatch):
    # helpers start at the parent's first trade
    monkeypatch.setattr(search, "_PROBE", 0)
    _assert_jobs_match_serial(monkeypatch)


def _forbid_processes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process or shared state was made")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    monkeypatch.setattr(multiprocessing, "Process", refuse)
    # the state helpers would share: a run that starts none builds none
    monkeypatch.setattr(multiprocessing, "Array", refuse)


def _count_pools(monkeypatch, most=None, leases=None):
    """Records the size of every pool started, through the real Pool; a
    pool of more than `most` processes fails the test before it starts.
    When leases is a list, it also records the nodes the parent has
    leased net when the pool starts: the run's budget less the unleased
    rest in its shared state."""
    starts = []
    real = multiprocessing.Pool

    def pool(processes, initializer, initargs, **kwargs):
        assert most is None or processes <= most, processes
        starts.append(processes)
        if leases is not None:
            engine_args, shared = initargs
            budget = min(engine_args[-1], 2**62)
            leases.append(budget - shared.get_obj()[0])
        return real(processes, initializer, initargs, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    return starts


def test_jobs_within_allowance_start_no_process(monkeypatch):
    # a run that ends inside the allowance is the parent's walk alone,
    # which claims every subtree: the serial walk, node count included,
    # with no process started and no shared state built
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _forbid_processes(monkeypatch)
    calls = [
        (min_mono_triangles, (11, 3, True)),
        (exists_avoiding, (11, 3, ["K3"] * 3, True)),
        (exists_avoiding, (9, 2, ["K4+e", "K3"])),
        (max_protected_edges, (8, 2)),
    ]
    for f, args in calls:
        serial = f(*args)
        first, second = f(*args, jobs=2), f(*args, jobs=2)
        assert first.nodes_explored == second.nodes_explored == serial.nodes_explored
        assert serial.nodes_explored <= search._PROBE
        for out in (first, second):
            assert (out.value, out.witness, out.exhaustive) == (
                serial.value,
                serial.witness,
                serial.exhaustive,
            )


def test_long_runs_start_helpers(monkeypatch):
    # both runs outgrow the allowance: the parent starts a helper partway
    # through, and neither repeats nor loses a subtree at the hand-off
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    leases = []
    starts = _count_pools(monkeypatch, leases=leases)
    for f, args in [(min_mono_triangles, (14, 3, True)), (max_protected_edges, (10, 2))]:
        serial = f(*args)
        assert serial.nodes_explored > search._PROBE
        out = f(*args, jobs=2)
        assert (out.value, out.witness, out.exhaustive) == (
            serial.value,
            serial.witness,
            serial.exhaustive,
        )
        # the helper repeats the parent's head, a few percent of the
        # nodes, and no subtree, which would nearly double the count
        assert out.nodes_explored < 1.1 * serial.nodes_explored
    assert starts == [1, 1]
    # the helper starts at the first trade past the allowance: the parent
    # has leased more than _PROBE nodes, and at most one slice more
    for leased in leases:
        assert search._PROBE < leased <= search._PROBE + search._SLICE


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_helpers_under_every_start_method(monkeypatch, method):
    # spawn (the macOS default) and forkserver (the Linux default from
    # Python 3.14) start a helper with nothing of the parent but the
    # pool's initargs, which must rebuild the run
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search, "_PROBE", 0)
    monkeypatch.setattr(multiprocessing, "Pool", context.Pool)
    monkeypatch.setattr(multiprocessing, "Array", context.Array)
    starts = _count_pools(monkeypatch)
    for f, args in [(min_mono_triangles, (11, 3, True)), (max_protected_edges, (8, 2))]:
        serial = f(*args)
        out = f(*args, jobs=2)
        assert (out.value, out.witness, out.exhaustive) == (
            serial.value,
            serial.witness,
            serial.exhaustive,
        )
    assert starts == [1, 1]


def test_parent_witness_stops_helpers(monkeypatch):
    # the first witness lies in the subtree below the fourth coloring of
    # K_6 the walk reaches: the serial run reaches that coloring after
    # 3,603 nodes and the witness 15,936 nodes later.  With the allowance
    # lowered to 8,192 nodes a helper starts while the parent is in the
    # fourth subtree.  The helper's walk finds those four
    # claimed and claims the later ones, in which its first witness
    # comes 120,165 nodes into its walk, more than the budget; the
    # parent's witness must stop it long before
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search, "_PROBE", 2**13)
    starts = _count_pools(monkeypatch)
    args = (13, 2, ["K4+e", "K4+e"])
    serial = exists_avoiding(*args)
    assert serial.value == 1 and serial.nodes_explored > search._PROBE
    budget = 120_000
    out = exists_avoiding(*args, budget=budget, jobs=2)
    assert starts == [1]
    assert (out.value, out.witness, out.exhaustive) == (1, serial.witness, True)
    # a helper that kept searching would spend the whole budget
    assert out.nodes_explored < budget // 2


def test_jobs_capped_at_cpu_count(monkeypatch):
    # --jobs 10000 on two CPUs starts one helper
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search, "_PROBE", 0)
    starts = _count_pools(monkeypatch, most=1)
    serial = min_mono_triangles(8, 2)
    out = min_mono_triangles(8, 2, jobs=10_000)
    assert (out.value, out.witness, out.exhaustive) == (
        serial.value,
        serial.witness,
        serial.exhaustive,
    )
    assert starts == [1]


def test_tiny_space_runs_serially(monkeypatch):
    # K_n with n <= 6 has no edge below those of K_6, where the walks of a
    # parallel run claim their subtrees, so it is searched as with one
    # job: no process starts, even with no allowance, and the outcome is
    # the serial one, node count included
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search, "_PROBE", 0)
    _forbid_processes(monkeypatch)
    for n in range(1, 7):
        for k in (2, 3):
            for f, args in [
                (min_mono_triangles, (n, k)),
                (exists_avoiding, (n, k, ["K3"] * k)),
                (max_protected_edges, (n, k)),
            ]:
                serial, out = f(*args), f(*args, jobs=2)
                assert out == serial, (f.__name__, args)


def test_parallel_runs_combine_in_dfs_order():
    # a run is (cost, key, colors, nodes, exhaustive), its key the column-
    # order colors of K_6 above its best leaf.  Coloring.colors is in pair
    # order (1,2),(1,3),(1,4),(2,3),... while the DFS runs in column order
    # (1,2),(1,3),(2,3),(1,4),...: of two runs tied at the optimum the
    # earlier key wins, although its colors compare larger.  On K_6, the
    # earlier key colors (1,4) with 2, the later one (2,3), the other
    # edges with 1
    early_key = (1, 1, 1, 2) + (1,) * 11
    late_key = (1, 1, 2, 1) + (1,) * 11
    earlier = (1, 1, 2) + (1,) * 12
    later = (1,) * 5 + (2,) + (1,) * 9
    assert later < earlier and early_key < late_key
    runs = [
        (None, None, None, 4, True),
        (3, late_key, later, 6, True),
        (3, early_key, earlier, 5, True),
    ]
    assert _combine(0, runs) == (3, earlier, 15, True)
    runs = [(-3, late_key, later, 6, True), (-3, early_key, earlier, 5, True)]
    assert _combine(-6, runs) == (-3, earlier, 11, True)
    # a lower cost wins whatever its key
    runs = [(3, early_key, earlier, 5, True), (2, late_key, later, 6, True)]
    assert _combine(0, runs) == (2, later, 11, True)
    # a leaf at the least possible cost settles the run even where another
    # walk ran out of budget, as the first exists witness does
    runs = [(None, None, None, 4, False), (0, early_key, earlier, 5, True)]
    assert _combine(0, runs) == (0, earlier, 9, True)
    assert _combine(-1, runs) == (0, earlier, 9, False)


def _assert_jobs_share_one_budget():
    # one budget bounds the whole run, not each subtree; four jobs run
    # more workers than this test is likely to have cores, so a lost
    # update to the shared counter would overspend it
    for jobs in (2, 3, 4):
        out = max_protected_edges(10, 2, budget=50_000, jobs=jobs)
        assert out.nodes_explored <= 50_001
        assert not out.exhaustive
        out = exists_avoiding(11, 3, ["K3"] * 3, True, budget=500, jobs=jobs)
        assert out.nodes_explored <= 501
        assert not out.exhaustive and out.value is None


def test_jobs_share_one_budget(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    _assert_jobs_share_one_budget()


def test_jobs_share_one_budget_with_helpers(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(search, "_PROBE", 0)
    _assert_jobs_share_one_budget()


def test_jobs_must_be_positive():
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            min_mono_triangles(5, 2, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            exists_avoiding(5, 2, ["K3", "K3"], jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            max_protected_edges(5, 2, jobs=jobs)


def test_budget_must_be_non_negative():
    with pytest.raises(ValueError, match="budget"):
        min_mono_triangles(5, 2, budget=-1)
    with pytest.raises(ValueError, match="budget"):
        exists_avoiding(5, 2, ["K3", "K3"], budget=-1)
    with pytest.raises(ValueError, match="budget"):
        max_protected_edges(5, 2, budget=-1)
    with pytest.raises(ValueError, match="budget"):
        find_gr_star_pair_witness(5, 3, budget=-1)


def test_search_matches_previous_kernels():
    searches = {f.__name__: f for f in (min_mono_triangles, exists_avoiding, max_protected_edges)}
    cases = json.loads(SEARCH_GRID.read_text())
    pinned = json.loads(SEARCH_NODES.read_text())
    assert len(cases) == len(pinned) == 127
    proved = {_proved_key(row): row.nodes for row in verify.PROVED if _serial(row)}
    assert sum("nodes" not in pin for pin in pinned) == 10
    for case, pin in zip(cases, pinned):
        assert [pin[key] for key in ("search", "args", "budget")] == [
            case[key] for key in ("search", "args", "budget")
        ]
        args = case["args"]
        if case["search"] == "find_gr_star_pair_witness":
            n, k = args
            out = _exists(n, k, ["K3"] * k, True, DEFAULT_BUDGET, 1, saturation_cap=True)
            assert out.witness == find_gr_star_pair_witness(n, k)
        else:
            budget = DEFAULT_BUDGET if case["budget"] is None else case["budget"]
            out = searches[case["search"]](*args, budget=budget)
        witness = out.witness.serialize() if out.witness is not None else None
        got = (out.value, out.exhaustive, witness)
        if case["exhaustive"]:
            assert got == (case["value"], case["exhaustive"], case["witness"]), case
        else:
            # best so far: pinned, and no worse than the previous kernels'
            assert got == (pin["value"], False, pin["witness"]), pin
            assert _no_worse(case["search"], out.value, case["value"]), case
        # a symmetry reduction only removes nodes; each count has one home
        assert out.nodes_explored <= case["nodes"], case
        key = _call_key(case["search"], args) if case["budget"] is None else None
        assert ("nodes" in pin) == (key not in proved), pin
        assert out.nodes_explored == pin.get("nodes", proved.get(key)), pin


def _serial(row):
    return row.jobs == 1 and row.budget == DEFAULT_BUDGET


def _proved_key(row):
    name = {"min-mono": "min_mono_triangles", "exists-avoiding": "exists_avoiding"}
    return (name.get(row.objective, "max_protected_edges"), row.n, row.k, row.gallai, row.targets)


def _call_key(name, args):
    # the key of _proved_key for a call of search_grid.json
    n, k, *rest = args
    targets = tuple(rest.pop(0)) if name == "exists_avoiding" else ()
    return (name, n, k, bool(rest and rest[0]), targets)


def _no_worse(name, value, recorded):
    """Whether a best-so-far value is at least as good as the recorded
    one: no larger for min_mono_triangles, no smaller for
    max_protected_edges, and a found coloring for exists_avoiding."""
    if recorded is None:
        return True
    if value is None:
        return False
    if name == "min_mono_triangles":
        return value <= recorded
    return value >= recorded


def test_large_n_has_no_depth_limit():
    # every edge is one level of the DFS, 1,770 of them at n = 60; a
    # small budget must end the run as not exhaustive, whatever depth
    # it reached
    for out in (
        max_protected_edges(60, 2, budget=5000),
        min_mono_triangles(60, 3, budget=5000),
        exists_avoiding(60, 2, ["K4+e", "K4+e"], budget=5000),
    ):
        assert not out.exhaustive
        assert out.nodes_explored == 5001


def test_nodes_counted():
    out = min_mono_triangles(5, 2)
    assert out.nodes_explored > 0


@pytest.mark.parametrize("n, k", [(n, 2) for n in range(1, 7)] + [(n, 3) for n in range(1, 6)])
def test_gr_star_pair_search_matches_brute_force(n, k):
    witness = find_gr_star_pair_witness(n, k)
    assert (witness is not None) == helpers.brute_gr_star_pair_exists(n, k)
    if witness is not None:
        cen = triangle_census(witness)
        assert cen.mono_total == 0 and cen.rainbow == 0
        assert helpers.misses_a_color_everywhere(witness)


def test_gr_star_pair_witness_small():
    assert find_gr_star_pair_witness(2, 2) is not None
    assert find_gr_star_pair_witness(3, 2) is None
    w = find_gr_star_pair_witness(5, 3)
    assert w is not None
    cen = triangle_census(w)
    assert cen.mono_total == 0 and cen.rainbow == 0
    assert find_gr_star_pair_witness(6, 3) is None


def test_saturation_cap_tests_the_higher_endpoint():
    # edge (2, 4) in color 1 after (1, 2), (1, 3), (2, 3) in color 1 and
    # (1, 4) in color 2: of its endpoints only v = 4 already meets every
    # other color, so the cap refuses the edge through v alone
    plan = _edge_plan(4)
    rows = [[0] * 5 for _ in range(3)]
    for (x, y), c in {(1, 2): 1, (1, 3): 1, (2, 3): 1, (1, 4): 2}.items():
        rows[c][x] |= 1 << y
        rows[c][y] |= 1 << x
    t = list(zip(plan.u, plan.v)).index((2, 4))
    for cap in (False, True):
        apply, _ = _exists_hooks(plan, rows, [TARGET_K3] * 2, True, cap)
        assert apply(t, 1, 1) is not cap


def test_recorded_k4_blocks_only_its_own_color():
    # K_4 on 1..4 in color 2 is recorded as pendant-free, so edge (1, 5)
    # completes K4+e in color 2 but not in color 1
    plan = _edge_plan(5)
    rows = [[0] * 6 for _ in range(3)]
    apply, _ = _exists_hooks(plan, rows, [TARGET_K4E] * 2, False, False)
    for t in range(6):  # the edges of K_4, in column order
        assert apply(t, 2, 1)
        rows[2][plan.u[t]] |= 1 << plan.v[t]
        rows[2][plan.v[t]] |= 1 << plan.u[t]
    assert (plan.u[6], plan.v[6]) == (1, 5)
    assert not apply(6, 2, 1)
    assert apply(6, 1, 1)
