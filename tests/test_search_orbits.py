"""The search's reduced space against the unreduced one, at every (n, k)
small enough to enumerate all k^C(n,2) colorings of K_n.

The engine keeps only colorings that pass its two symmetry reductions:
interchangeable colors first appear in increasing order, and swapping
any two vertices never gives a smaller coloring in column order.  When
every color is interchangeable (one class), the swap's image is compared
after renaming its colors into first-appearance order, its least
relabeling; with several classes (an exists run with mixed targets) the
image is compared as it is.  Both reductions hold for the least member
of every orbit under vertex permutations and the allowed color
relabelings, so the leaves' orbits cover every coloring, each orbit's
least member is a leaf, and every search value equals the brute force
over all colorings.  The leaves are also exactly the colorings that
pass both reductions, so the rule is neither weaker nor stronger than
stated."""

from functools import partial
from itertools import permutations, product
from math import comb, inf

import pytest

import helpers
from gallai import Coloring, exists_avoiding, lex_pairs, max_protected_edges, min_mono_triangles
from gallai.search import _SPLIT, _edge_plan, _search

SIZES = (
    [(n, 2) for n in range(1, 7)] + [(n, 3) for n in range(1, 6)] + [(n, 4) for n in range(1, 5)]
)


def _collect_hooks(plan, rows, out):
    """Collects every coloring the engine completes, in column order,
    into out; its leaves cost inf, so none is kept."""
    path = [0] * len(plan.idx)

    def apply(t, c, cut):
        path[t] = c
        return True

    def leaf():
        out.append(tuple(path))
        return inf

    return apply, leaf


def _leaves(n, k, class_of, task=None):
    """The reduced space: every coloring the engine reaches, in column
    order; with a task, those of the subtrees it claims."""
    out = []
    hooks = partial(_collect_hooks, out=out)
    _search(_edge_plan(n), k, class_of, hooks, 0, 0, inf, task=task)
    return out


def _symmetries(n, k, class_of):
    """The group as (sources, relabels): the image of a column-order
    tuple x under a vertex permutation and a color relabeling is
    tuple(sigma[x[i]] for i in src), src one of sources and sigma one
    of relabels."""
    pairs = [(u, v) for v in range(2, n + 1) for u in range(1, v)]
    where = {pair: i for i, pair in enumerate(pairs)}
    sources = []
    for perm in permutations(range(1, n + 1)):
        src = [0] * len(pairs)
        for i, (u, v) in enumerate(pairs):
            a, b = sorted((perm[u - 1], perm[v - 1]))
            src[where[a, b]] = i
        sources.append(src)
    relabels = [
        (0,) + sigma
        for sigma in permutations(range(1, k + 1))
        if all(class_of[sigma[c - 1]] == class_of[c] for c in range(1, k + 1))
    ]
    return sources, relabels


@pytest.mark.parametrize("n, k", SIZES)
@pytest.mark.parametrize("mixed", [False, True], ids=["one-class", "mixed-targets"])
def test_leaf_orbits_cover_every_coloring(n, k, mixed):
    # with no class map every color is interchangeable; the mixed map is
    # the one exists_avoiding builds for targets [K4+e, K3, ..., K3]
    class_of = [0, 0] + [1] * (k - 1) if mixed else None
    leaves = _leaves(n, k, class_of)
    kept = set(leaves)
    assert len(kept) == len(leaves)
    sources, relabels = _symmetries(n, k, class_of or [0] * (k + 1))
    covered = set()
    for leaf in leaves:
        images = {tuple(map(leaf.__getitem__, src)) for src in sources}
        orbit = {tuple(sigma[c] for c in x) for x in images for sigma in relabels}
        assert min(orbit) in kept, leaf
        covered |= orbit
    assert len(covered) == k ** comb(n, 2)


def _transpositions(n):
    """Each vertex swap (i, j) as a source map over column order, in the
    form _symmetries uses."""
    pairs = [(u, v) for v in range(2, n + 1) for u in range(1, v)]
    where = {pair: i for i, pair in enumerate(pairs)}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            swap = {i: j, j: i}
            yield [where[tuple(sorted((swap.get(u, u), swap.get(v, v))))] for u, v in pairs]


def _colors_in_order(x, k, class_of):
    """Whether the colors of each class first appear in increasing order."""
    seen = set()
    for c in x:
        if c not in seen:
            if any(class_of[d] == class_of[c] and d not in seen for d in range(1, c)):
                return False
            seen.add(c)
    return True


def _renamed(x):
    """x with its colors renamed into first-appearance order: the least
    image of x under all color relabelings."""
    names = {}
    return tuple(names.setdefault(c, len(names) + 1) for c in x)


@pytest.mark.parametrize(
    "n, k", [(n, 2) for n in range(2, 7)] + [(n, 3) for n in range(2, 6)] + [(3, 4), (4, 4)]
)
@pytest.mark.parametrize("mixed", [False, True], ids=["one-class", "mixed-targets"])
def test_leaves_are_no_larger_than_any_transposition(n, k, mixed):
    # the leaves are exactly the colorings in color order that no vertex
    # swap makes smaller: with one class, after renaming the image's
    # colors (every relabeling is in-class); with the mixed map, as it is
    # (a color new to one class could rename below another class's)
    class_of = [0, 0] + [1] * (k - 1) if mixed else [0] * (k + 1)
    rename = (lambda y: y) if mixed else _renamed
    leaves = _leaves(n, k, class_of)
    swaps = list(_transpositions(n))
    passing = [
        x
        for x in product(range(1, k + 1), repeat=comb(n, 2))
        if _colors_in_order(x, k, class_of)
        and all(x <= rename(tuple(map(x.__getitem__, src))) for src in swaps)
    ]
    assert leaves == passing


def _count_hooks(plan, rows, out):
    """Counts the colorings the engine completes in out[0]; its leaves
    cost inf, so none is kept."""

    def apply(t, c, cut):
        return True

    def leaf():
        out[0] += 1
        return inf

    return apply, leaf


@pytest.mark.parametrize(
    "n, k, size",
    [(8, 2, 59_247), (6, 3, 21_223), (5, 4, 1_472), (6, 4, 402_680), (5, 5, 2_786)],
)
def test_reduced_space_size(n, k, size):
    # the size of the one-class reduced space past the reach of brute
    # force, pinned; at k = 4 and 5 the relabeling follows swaps tied up
    # to three and four first edges, which no exact search test reaches
    out = [0]
    _search(_edge_plan(n), k, None, partial(_count_hooks, out=out), 0, 0, inf)
    assert out[0] == size


@pytest.mark.parametrize("n, k", SIZES)
def test_values_match_unreduced_space(n, k):
    for gallai_only in (False, True):
        out = min_mono_triangles(n, k, gallai_only)
        assert out.exhaustive
        assert out.value == helpers.brute_min_mono(n, k, gallai_only)
        for targets in (["K3"] * k, ["K4+e"] + ["K3"] * (k - 1)):
            out = exists_avoiding(n, k, targets, gallai_only)
            assert out.exhaustive
            assert out.value == helpers.brute_exists_avoiding(n, k, targets, gallai_only)
    out = max_protected_edges(n, k)
    assert out.exhaustive
    assert out.value == helpers.brute_max_protected(n, k)


def _first_leaf(n, k, class_of, holds):
    """The first leaf in column order whose coloring satisfies holds,
    as a Coloring, or None."""
    pairs = [(u, v) for v in range(2, n + 1) for u in range(1, v)]
    for leaf in _leaves(n, k, class_of):
        colors = dict(zip(pairs, leaf))
        coloring = Coloring(n, k, [colors[pair] for pair in lex_pairs(n)])
        if holds(coloring):
            return coloring
    return None


@pytest.mark.parametrize("n, k", SIZES)
def test_witness_is_first_optimal_leaf(n, k):
    # the module's witness rule: the reported coloring is the first leaf
    # of the reduced space, in column order, that reaches the optimum;
    # the exists targets put K4+e first and last, which splits the
    # colors into classes both ways
    for gallai_only in (False, True):
        out = min_mono_triangles(n, k, gallai_only)

        def optimal(c):
            mono, _, rain = helpers.brute_census(c)
            return sum(mono.values()) == out.value and not (gallai_only and rain)

        assert out.witness == _first_leaf(n, k, None, optimal)
        for targets in (["K3"] * k, ["K4+e"] + ["K3"] * (k - 1), ["K3"] * (k - 1) + ["K4+e"]):
            out = exists_avoiding(n, k, targets, gallai_only)
            ids = {}
            class_of = [0] + [ids.setdefault(target, len(ids)) for target in targets]
            avoiding = partial(helpers.brute_exists_in, targets=targets, gallai_only=gallai_only)
            assert out.witness == _first_leaf(n, k, class_of, avoiding)
    out = max_protected_edges(n, k)
    assert out.witness == _first_leaf(n, k, None, lambda c: helpers.brute_protected(c) == out.value)


class _Claims:
    """A parallel worker's stand-in: it claims the keys whose position
    among those offered passes pick, with an unlimited budget and no
    other worker to trade incumbents with."""

    def __init__(self, pick):
        self.pick = pick
        self.offered = []

    def claim(self, key):
        self.offered.append(key)
        return self.pick(len(self.offered) - 1)

    def publish(self, cost):
        raise AssertionError("a leaf of cost inf was kept")

    def trade(self, cut):
        return 1 << 40, cut, False

    def settle(self, nodes):
        pass


@pytest.mark.parametrize("class_of", [[0, 0, 1], None], ids=["mixed-targets", "one-class"])
def test_claimed_subtrees_hold_the_serial_leaves(class_of):
    # the engine offers each coloring of K_6 it reaches once, in DFS
    # order, and descends only below those claimed: all, every other
    # one, or none.  It then reaches exactly the serial leaves that
    # extend a claimed key, with the serial run's symmetry reductions
    n, k = 7, 2
    leaves = _leaves(n, k, class_of)
    every = _Claims(lambda i: True)
    assert _leaves(n, k, class_of, every) == leaves
    offered = every.offered
    # column-order tuples in DFS order are sorted
    assert offered == sorted(set(offered))
    assert {leaf[:_SPLIT] for leaf in leaves} <= set(offered)
    for pick in (lambda i: i % 2 == 0, lambda i: False):
        task = _Claims(pick)
        got = _leaves(n, k, class_of, task)
        assert task.offered == offered
        claimed = {key for i, key in enumerate(offered) if pick(i)}
        assert got == [leaf for leaf in leaves if leaf[:_SPLIT] in claimed]
        assert (len(got) > 0) == (len(claimed) > 0) and len(got) < len(leaves)
