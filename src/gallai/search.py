"""Exhaustive, symmetry-reduced branch-and-prune search over the
k-edge-colorings of K_n: the independent brute-force oracle behind the
small-case claims (minimum monochromatic-triangle counts, Ramsey-style
avoidance brackets, maximum protected-edge counts).

Edges are assigned vertex by vertex, (1,2), (1,3),(2,3), (1,4),..., so
every search prefix contains a fully colored complete graph on an
initial vertex segment and structural pruning fires as early as
possible.  Two symmetry reductions shrink the space; both are necessary
properties of the lexicographically smallest coloring in each orbit of
the (vertex permutation x color relabeling) group, so restricting the
DFS to colorings satisfying them loses no orbit:

  * colors that play interchangeable roles (same avoidance target, or
    all colors for permutation-invariant objectives) must make their
    first appearances in increasing order;
  * swapping any two vertices must not give a smaller coloring in
    column order.  The engine decides each swap edge by edge, as soon
    as the edges colored so far show the image differing from the
    coloring: while column v is colored, a swap (i, v) with i < v
    compares column v with vertex i's row, so edge (a, v), a != i,
    takes no color below that of {a, i}; a swap (i, j) with j < v that
    K_{v-1} leaves unchanged compares (i, v) with (j, v), so edge
    (j, v) takes no color below that of (i, v).  A swap stays tied, and
    keeps constraining, only while the two colors are equal, and the
    swaps (i, v) still tied when column v ends join the second kind.
    This is orderly generation (Read 1978; McKay, J. Algorithms 26,
    1998) restricted to transpositions.  At a = 1 and i = v - 1 it is
    the order of vertex 1's star, which the rule generalizes.

One engine, `_search`, runs every objective: a depth-first loop over
the edges in that order with an explicit stack, so no n meets a depth
limit.  An objective adds two hooks: test-and-apply an edge, and the
cost of a leaf.  The hooks read the coloring from the engine's
per-color neighbor bitsets, in which column order leaves the
monochromatic and rainbow triangles an edge closes a few bitset
operations away (see `_search`).  Every other piece of search state,
the engine's and the objective's alike, is kept per depth and written
forward, so backtracking reverts the bitsets alone.  Every objective
minimizes a cost:
the monochromatic-triangle count, minus the protected-edge count, or 0
for an avoiding coloring.  A leaf is kept when its cost is below a
cut, which starts one above a start value and then follows the best
leaf; a leaf at the least possible cost ends the run, so the first
avoiding coloring does.  A child dies when its partial cost, or a
bound on every completion, reaches the cut, or when a forbidden
monochromatic target or (under gallai_only) a rainbow triangle
completes.  The DFS visits colorings in lexicographic order of the
column order above and prunes ties, so the reported witness is the
smallest optimal coloring of the reduced space in that order,
deterministically.  That is not the pair order
(1,2),(1,3),(1,4),...,(2,3),... of Coloring.colors: the two orders
share only their first two edges, so comparing colors tuples does not
find that witness.

The minimum-monochromatic search adds two things, in serial runs and
in every parallel subtree alike:

  * a seeded incumbent: the Goodman 2-coloring for k = 2, the
    multiplicity construction for k >= 3 at n >= gr_k3(k), its count
    taken from the triangle census (and, under gallai_only, used only
    if the census finds no rainbow triangle).  Leaves equal to the
    seed are still accepted, so the witness rule above is unchanged;
    a run whose budget ends before such a leaf reports the seed;
  * Goodman's counting bound.  With D_v the number of differently
    colored edge pairs at v, every coloring has exactly
    C(n,3) - (sum_v D_v)/2 + rainbow/2 monochromatic triangles, so
    C(n,3) - (sum_v max D_v)/2, each maximum taken over the completions
    of v's partial color degrees, bounds every completion from below.
    A child dies when the integer ceiling of that bound reaches the
    cut.  A 2-coloring has no rainbow triangle, so for k = 2 the
    identity is exact and, once the seeded optimum is found again, the
    bound closes the proof at once: min-mono(n,2) proves in under
    5,000 nodes for n <= 14, where the partial count alone needed a
    million at n = 8.

A node budget (default 10^9 assignments) bounds every run; exceeding it
degrades the outcome to exhaustive=False, never silently.

With jobs > 1 (at most the CPU count) the space is split at the first
depth that has at least 4 x jobs canonical prefixes, found by the same
engine run on the first edges only; a space where only the complete
colorings are that many is searched serially.  The parent process
claims the prefixes from a shared counter, one at a time in DFS order,
and searches them itself; once it has leased more than _PROBE nodes it
starts jobs - 1 helper processes, which claim from the same counter
until every prefix is taken.  All subtrees share one budget, leased in
small slices (a node the budget refuses is not counted, so a run
explores at most budget + 1 nodes for every jobs), and one incumbent:
the least cost and the index, in DFS order, of the earliest prefix
that reached it.  A subtree prunes ties with a cost an earlier prefix
found and keeps ties with a later prefix's, and the results are
combined in prefix order, so unless the budget runs out the value, the
witness and `exhaustive` are those of the serial run.  A subtree stops
once an earlier prefix holds a leaf of the least cost, so for
exists_avoiding the first witness in prefix order decides the run.  A
run that ends inside the allowance starts no process and repeats
exactly, node count included; node counts of longer runs vary from run
to run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from math import comb, inf
from typing import NamedTuple, Optional, Sequence

from .census import triangle_census
from .coloring import Coloring, pair_index
from .construct import construct_multiplicity_extremal, goodman_extremal_2coloring
from .formulas import gr_k3

DEFAULT_BUDGET = 10**9

TARGET_K3 = "K3"
TARGET_K4E = "K4+e"


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one exhaustive search.

    exhaustive is True when the reported value is proven exact: the
    reduced space was fully covered, or a conclusive witness was found.
    It is False only when the node budget ran out first, in which case
    value/witness are best-so-far: None if no leaf was reached, or for
    min_mono_triangles the seed construction, where it has one.
    """

    objective: str
    value: Optional[int]
    witness: Optional[Coloring]
    nodes_explored: int
    exhaustive: bool


class _Plan(NamedTuple):
    """The column-order traversal, one column per field: each edge's
    endpoints u < v, its pair index, and the two lookups of the
    transposition rule (module docstring): where _search keeps the mask
    of the tied swaps (i, u) that edge (u, v) goes on comparing, and
    the mask of the vertices below v at a column's first edge, where
    every swap (i, v) starts tied (0 elsewhere).  For state kept per
    endpoint of each colored edge, in slot 2t for u and 2t + 1 for v,
    at_u and at_v give the slots that hold u's and v's before edge t,
    or -1 for an endpoint with no colored edge yet."""

    n: int
    u: list
    v: list
    idx: list
    back: list
    first: list
    at_u: list
    at_v: list


def _edge_plan(n: int) -> _Plan:
    us, vs, idxs, backs, firsts, at_us, at_vs = [], [], [], [], [], [], []
    for v in range(2, n + 1):
        for u in range(1, v):
            t = len(us)
            us.append(u)
            vs.append(v)
            idxs.append(pair_index(n, u, v))
            # where _search's tie list holds the swaps (i, u) tied through
            # K_{v-1}: slot ~d for those edge (u, v-1), at depth d = t - v + 2,
            # left tied, or at u = v - 1 the depth of (1, v), where the
            # swaps column v - 1 ended tied on are kept
            backs.append(~(t - v + 2) if u < v - 1 else t - u + 1)
            firsts.append(((1 << v) - 2) if u == 1 else 0)
            # u's last edge before t is (u, v - 1), v - 2 edges back, with
            # u as its lower end, or at u = v - 1 the column before's last
            # edge (u - 1, u), v - 1 back, with u as its higher end (none,
            # and -1, at t = 0); v's is (u - 1, v), none at u = 1
            at_us.append(2 * (t - v + 2) if u < v - 1 else 2 * (t - v) + 3)
            at_vs.append(2 * t - 1 if u > 1 else -1)
    return _Plan(n, us, vs, idxs, backs, firsts, at_us, at_vs)


# ---------------------------------------------------------------------------
# the engine


def _search(plan, k, class_of, objective, start, floor, budget, task=None):
    """Depth-first search over the canonical colorings of plan's edges
    for the first leaf, in DFS order, of least cost.

    objective(plan, rows) returns two hooks over rows, the engine's
    coloring state and the only one the hooks read: rows[x][y] has bit
    w set when edge {y, w} has color x, for the edges before the
    current depth.  The engine adds edge t to rows after apply accepts
    it and removes it when it backtracks past t, the only state a
    backtrack reverts.  When apply(t, c, cut) runs for t = (u, v),
    column order has colored all of K_{v-1} and the edges (w, v) with
    w < u, so rows[x][u] holds u's x-neighbors below v and rows[x][v]
    only those below u.  The triangles edge t closes are those with an
    apex w < u, so, with below[u] = (1 << u) - 2 the vertices 1..u-1:

      * rows[c][u] & rows[c][v] is exactly the set of apexes of the
        monochromatic triangles it closes;
      * the rainbow apexes are below[u] & ~(rows[c][u] | rows[c][v])
        less rows[x][u] & rows[x][v] for every other color x.

    The hooks:

      * apply(t, c, cut) tests coloring edge t with c against the
        earlier edges and on success writes the objective's state for
        depth t + 1 from that of depth t, never changing an earlier
        depth's; False rejects c, including when no completion can
        cost less than cut;
      * leaf() returns the cost of the completed coloring.

    A leaf is kept when its cost is below cut, which starts at start + 1
    (so leaves that tie start are kept) and then drops to each kept
    leaf's cost.  No cost is below floor, so a kept leaf at floor ends
    the run.  A serial run (task None) stops at its first node over
    budget, which it counts; a parallel subtree replays task.prefix,
    leases its nodes from the shared budget and trades incumbents
    through the task.

    Colors in one class of class_of (all colors when it is None) make
    their first appearances in increasing order: opened[t] lists the
    colors edge t may take, those in use and the least unused one of
    each class, and after[c] is the next color of c's class (0 for the
    last), which the first edge to take c opens.  The colors an edge
    may take start at the largest color a tied vertex swap (module
    docstring) puts below it, so every leaf is no larger in column
    order than its image under any transposition.

    Returns (the kept leaf's cost or None, its colors, nodes,
    exhaustive)."""
    us, vs, idxs, backs, firsts = plan.u, plan.v, plan.idx, plan.back, plan.first
    m = len(idxs)
    col = [0] * comb(plan.n, 2)
    # the tied swaps, bit i for vertex i: tie[t] the swaps (i, v) before
    # edge t = (u, v), tie[~t] the swaps (i, u) once edge t is colored
    tie = [0] * (2 * len(col) + 2)
    # rows[c][x]: bit y set when edge {x, y} has color c
    rows = [[0] * (plan.n + 1) for _ in range(k + 1)]
    top = range(k, 1, -1)
    apply, leaf = objective(plan, rows)
    class_of = class_of or [0] * (k + 1)
    after = [0] * (k + 1)
    last = {}
    for c in range(1, k + 1):
        if class_of[c] in last:
            after[last[class_of[c]]] = c
        last[class_of[c]] = c
    opened = [None] * (m + 1)
    opened[0] = [c for c in range(1, k + 1) if c not in after]  # each class's first
    prefix = () if task is None else task.prefix
    base = len(prefix)

    cut = start + 1
    best_col = None
    # the replayed prefix edges count from -base, so a subtree counts its
    # own nodes from 1; a serial run stops at its first node over budget
    nodes = -base
    limit = budget if task is None else 0
    exhaustive = True
    its = [iter(())] * (m + 1)  # the untried candidates at each depth
    if m:
        out = opened[0]  # edge (1, 2) is free of ties
        if base:
            out = (prefix[0],) if prefix[0] in out else ()
        its[0] = iter(out)
    t = 0
    while t >= 0:
        for c in its[t]:
            if not apply(t, c, cut):
                continue
            nodes += 1
            if nodes > limit:
                # a serial run is over budget; a parallel subtree trades
                # incumbents and leases the next slice
                if task is None:
                    exhaustive = False
                    t = -1
                    break
                grant, cut, own_best = task.trade(cut if best_col is not None else None, cut)
                if not own_best:
                    best_col = None  # another prefix holds the best leaf
                if not grant or cut <= floor:
                    # refused, or no leaf here can beat an earlier prefix's
                    nodes -= 1  # the node is not explored
                    exhaustive = cut <= floor
                    t = -1
                    break
                limit += grant
            col[idxs[t]] = c
            op = opened[t]
            nxt = after[c]
            opened[t + 1] = sorted([*op, nxt]) if nxt and nxt not in op else op
            u = us[t]
            v = vs[t]
            row = rows[c]
            tie[t + 1] = (tie[t] | firsts[t]) & (row[u] | 1 << u)
            tie[~t] = tie[backs[t]] & row[v]
            row[u] |= 1 << v
            row[v] |= 1 << u
            t += 1
            if t < m:
                # the colors edge t may take, only prefix[t] among them while
                # the prefix is replayed; the least is 1 or a color in use,
                # so it is open
                a = tie[t] | firsts[t]
                b = tie[backs[t]]
                u = us[t]
                v = vs[t]
                lo = 1
                for x in top:
                    if rows[x][u] & a or rows[x][v] & b:
                        lo = x
                        break
                op = opened[t]
                out = op[op.index(lo) :]
                if t < base:
                    out = (prefix[t],) if prefix[t] in out else ()
                its[t] = iter(out)
            break
        else:
            if t == m:
                cost = leaf()
                if cost < cut:
                    cut = cost
                    best_col = tuple(col)
                    if cut <= floor:
                        break
            t -= 1
            if t < base:
                break  # back at the prefix, or the prefix itself failed
            u = us[t]
            v = vs[t]
            row = rows[col[idxs[t]]]
            row[u] ^= 1 << v
            row[v] ^= 1 << u
    nodes = max(nodes, 0)  # below 0 only when the prefix itself failed
    found = cut if best_col is not None else None
    if task is not None:
        task.settle(nodes, found)
    return found, best_col, nodes, exhaustive


# ---------------------------------------------------------------------------
# minimum monochromatic triangles


def _min_mono_seed(n, k, gallai_only):
    """(value, colors) of the library construction the incumbent starts
    from, or (None, None) when no family covers (n, k).  The value is
    the construction's census count, not its formula, and under
    gallai_only a construction with a rainbow triangle is not used, so
    the incumbent is always the count of a coloring in the searched
    space."""
    if k == 2:
        seed = goodman_extremal_2coloring(n, 1, 2)
    elif k >= 3 and n >= gr_k3(k):
        seed = construct_multiplicity_extremal(k, n)
    else:
        return None, None
    cen = triangle_census(seed)
    if gallai_only and cen.rainbow != 0:
        return None, None
    return cen.mono_total, seed.colors


class _SplitPairs(dict):
    """Goodman's per-vertex term: the most differently-colored edge
    pairs any completion of a vertex's color-degree vector can reach in
    K_n.  Keys are the vector's base-n code (color c counts n^(c-1));
    entries are filled on first use, so at most the C(n-1+k, k)
    reachable vectors are ever computed."""

    def __init__(self, n, k):
        super().__init__()
        self.n = n
        self.k = k

    def __missing__(self, code):
        n = self.n
        degrees = []
        rest = code
        for _ in range(self.k):
            rest, d = divmod(rest, n)
            degrees.append(d)
        # water-fill: each free edge raises the smallest degree, which
        # minimizes the sum of squares and so maximizes the split pairs
        for _ in range(n - 1 - sum(degrees)):
            degrees[degrees.index(min(degrees))] += 1
        value = ((n - 1) ** 2 - sum(d * d for d in degrees)) // 2
        self[code] = value
        return value


def _min_mono_hooks(plan, rows, gallai_only, split):
    """Cost: the monochromatic-triangle count.  apply also prunes on
    Goodman's counting bound: with s the sum of the per-vertex
    split-pair maxima, every completion has at least C(n,3) - s/2
    monochromatic triangles."""
    n, us, vs, at_u, at_v = plan.n, plan.u, plan.v, plan.at_u, plan.at_v
    m = len(us)
    others = [[r for r in rows[1:] if r is not row] for row in rows]  # by color
    triples = comb(n, 3)
    weight = [n ** (c - 1) for c in range(split.k + 1)]
    # code[2t], code[2t + 1]: the color degrees, base n, of u and v once
    # edge t = (u, v) is colored, found through plan.at_u and plan.at_v;
    # the last slot, read for an endpoint with no colored edge, stays 0
    code = [0] * (2 * m + 1)
    mono = [0] * (m + 1)  # the count after each depth
    s = [n * split[0]] * (m + 1)  # the split-pair sum after each depth

    def apply(t, c, cut):
        u = us[t]
        v = vs[t]
        row = rows[c]
        a = row[u]
        b = row[v]
        nm = mono[t] + (a & b).bit_count()
        if nm >= cut:
            return False
        if gallai_only:
            rain = ((1 << u) - 2) & ~(a | b)
            if rain:
                for r in others[c]:
                    rain &= ~(r[u] & r[v])
                if rain:
                    return False
        w = weight[c]
        cu = code[at_u[t]]
        cv = code[at_v[t]]
        ns = s[t] - split[cu] - split[cv] + split[cu + w] + split[cv + w]
        if triples - (ns >> 1) >= cut:
            return False
        mono[t + 1] = nm
        s[t + 1] = ns
        code[2 * t] = cu + w
        code[2 * t + 1] = cv + w
        return True

    def leaf():
        return mono[m]

    return apply, leaf


def min_mono_triangles(
    n: int,
    k: int,
    gallai_only: bool = False,
    *,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> SearchOutcome:
    """Exact minimum of the total monochromatic-triangle count over all
    (optionally Gallai-restricted) k-colorings of K_n."""
    _check_args(n, k, jobs, budget)
    seed_value, seed_col = _min_mono_seed(n, k, gallai_only)
    start = comb(n, 3) if seed_value is None else seed_value
    objective = partial(_min_mono_hooks, gallai_only=gallai_only, split=_SplitPairs(n, k))
    value, witness_col, nodes, exhaustive = _dispatch(
        n, k, None, objective, start, 0, budget, jobs
    )
    if witness_col is None and not exhaustive and seed_col is not None:
        # the budget ran out before a leaf at or below the seed: the seed
        # is the best coloring known
        value, witness_col = seed_value, seed_col
    witness = Coloring(n, k, witness_col) if witness_col is not None else None
    return SearchOutcome("min_mono_triangles", value, witness, nodes, exhaustive)


# ---------------------------------------------------------------------------
# existence of a coloring avoiding per-color targets


def _exists_hooks(plan, rows, targets, gallai_only, saturation_cap):
    """Cost: 0 for every leaf; apply refuses an edge that completes its
    color's target, a rainbow triangle under gallai_only, or, with
    saturation_cap, a vertex that meets every color."""
    us, vs = plan.u, plan.v
    others = [[r for r in rows[1:] if r is not row] for row in rows]  # by color
    is_k3 = [False] + [target == TARGET_K3 for target in targets]
    # mem[t]: bit c(n + 1) + y set when, before edge t, vertex y lies in a
    # recorded pendant-free K4 of color c
    mem = [0] * (len(us) + 1)
    stride = plan.n + 1

    def apply(t, c, cut):
        u = us[t]
        v = vs[t]
        row = rows[c]
        common = row[u] & row[v]
        if common and is_k3[c]:
            return False
        if gallai_only:
            rain = ((1 << u) - 2) & ~(row[u] | row[v])
            if rain:
                for r in others[c]:
                    rain &= ~(r[u] & r[v])
                if rain:
                    return False
        # u or v meets every color other than c already
        if saturation_cap and any(all(r[y] for r in others[c]) for y in (u, v)):
            return False
        members = mem[t]
        if not is_k3[c]:
            shift = c * stride
            if members >> shift & (1 << u | 1 << v):
                return False  # pendant edge onto a recorded K4
            # a new clique whose vertex has any c-neighbor outside it
            # completes K4+e; pendant-free cliques are recorded so a
            # later edge at their vertices is refused immediately
            new_members = 0
            rest = common
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                higher = common & row[w] >> (w + 1) << (w + 1)
                while higher:
                    lowx = higher & -higher
                    higher ^= lowx
                    mask = (1 << u) | (1 << v) | low | lowx
                    for y in (u, v, w, lowx.bit_length() - 1):
                        if row[y] & ~mask:
                            return False
                    new_members |= mask
            if new_members:
                members |= new_members << shift
        mem[t + 1] = members
        return True

    def leaf():
        return 0

    return apply, leaf


def exists_avoiding(
    n: int,
    k: int,
    targets: Sequence[str],
    gallai_only: bool = False,
    *,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> SearchOutcome:
    """Decide whether some (optionally Gallai) k-coloring of K_n avoids
    a monochromatic copy of targets[c-1] in every color c.

    value 1 with a witness when an avoiding coloring exists, 0 when the
    exhausted space has none.  Running at consecutive n brackets the
    corresponding Ramsey-type number."""
    _check_args(n, k, jobs, budget)
    targets = list(targets)
    if len(targets) != k:
        raise ValueError(f"need one target per color: got {len(targets)} for k={k}")
    for tgt in targets:
        if tgt not in (TARGET_K3, TARGET_K4E):
            raise ValueError(f"unknown target {tgt!r}")
    return _exists(n, k, targets, gallai_only, budget, jobs, saturation_cap=False)


def _exists(n, k, targets, gallai_only, budget, jobs, saturation_cap):
    objective = partial(
        _exists_hooks, targets=targets, gallai_only=gallai_only, saturation_cap=saturation_cap
    )
    class_ids: dict[str, int] = {}
    class_of = [0] + [class_ids.setdefault(t, len(class_ids)) for t in targets]
    # every avoiding coloring costs 0, the least cost, so the first ends the run
    _, witness_col, nodes, exhaustive = _dispatch(
        n, k, class_of, objective, 0, 0, budget, jobs
    )
    value = 1 if witness_col is not None else (0 if exhaustive else None)
    witness = Coloring(n, k, witness_col) if witness_col is not None else None
    return SearchOutcome("exists_avoiding", value, witness, nodes, exhaustive)


# ---------------------------------------------------------------------------
# maximum protected edges


def _max_protected_hooks(plan, rows):
    """Cost: minus the protected-edge count.  The edges of each
    monochromatic or rainbow triangle are unprotected, so the edges not
    yet unprotected bound every completion."""
    n, us, vs, idxs = plan.n, plan.u, plan.v, plan.idx
    m = len(idxs)
    others = [[r for r in rows[1:] if r is not row] for row in rows]  # by color
    pair = [[0] * (n + 1) for _ in range(n + 1)]  # pair[x][y]: the bit of {x, y}
    for u, v, idx in zip(us, vs, idxs):
        pair[u][v] = pair[v][u] = 1 << idx
    unprot = [0] * (m + 1)  # bitmask of the unprotected pair indices

    def apply(t, c, cut):
        u = us[t]
        v = vs[t]
        row = rows[c]
        a = row[u]
        b = row[v]
        # the apexes of the rainbow and monochromatic triangles t closes
        bad = ((1 << u) - 2) & ~(a | b)
        for r in others[c]:
            bad &= ~(r[u] & r[v])
        bad |= a & b
        mask = unprot[t]
        if bad:
            pu = pair[u]
            pv = pair[v]
            mask |= pu[v]
            while bad:
                low = bad & -bad
                bad ^= low
                w = low.bit_length() - 1
                mask |= pu[w] | pv[w]
        if mask.bit_count() - m >= cut:
            return False
        unprot[t + 1] = mask
        return True

    def leaf():
        return unprot[m].bit_count() - m

    return apply, leaf


def max_protected_edges(
    n: int, k: int, *, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> SearchOutcome:
    """Exact maximum, over all k-colorings of K_n, of the number of
    edges contained in no rainbow and no monochromatic triangle."""
    _check_args(n, k, jobs, budget)
    # start from a count of 0, which every coloring reaches; no coloring
    # protects more than all C(n,2) edges
    cost, witness_col, nodes, exhaustive = _dispatch(
        n, k, None, _max_protected_hooks, 0, -comb(n, 2), budget, jobs
    )
    value = -cost if cost is not None else None
    witness = Coloring(n, k, witness_col) if witness_col is not None else None
    return SearchOutcome("max_protected_edges", value, witness, nodes, exhaustive)


# ---------------------------------------------------------------------------
# singleton-variant pair search (Gallai, triangle-free, unsaturated)


def find_gr_star_pair_witness(
    n: int, k: int, *, budget: int = DEFAULT_BUDGET
) -> Optional[Coloring]:
    """Find a Gallai k-coloring of K_n pairs with no monochromatic
    triangle in which every vertex avoids at least one color on its
    star (so singleton colors can always be chosen clash-free), or
    None if the exhaustive search rules one out."""
    _check_args(n, k, 1, budget)
    out = _exists(n, k, [TARGET_K3] * k, True, budget, 1, saturation_cap=True)
    if not out.exhaustive:
        raise RuntimeError(f"budget exhausted deciding n={n}, k={k}")
    return out.witness


# ---------------------------------------------------------------------------
# shared driver plumbing


def _check_args(n, k, jobs, budget):
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n} k={k}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")


def _prefix_hooks(plan, rows, out):
    """Collects every canonical coloring of plan's edges, in column
    order, into out; its leaves cost inf, so none is kept."""
    path = [0] * len(plan.idx)

    def apply(t, c, cut):
        path[t] = c
        return True

    def leaf():
        out.append(tuple(path))
        return inf

    return apply, leaf


def _split_prefixes(plan, k, jobs, class_of):
    """The canonical prefixes of the first depth short of a complete
    coloring that has at least 4 x jobs of them, in DFS order, or [()],
    the whole space, if none has.  Such a space is small, and a complete
    coloring as a prefix would leave its subtree no node to count."""
    prefixes = [()]
    depth = 0
    while len(prefixes) < 4 * jobs:
        # an edge at most multiplies the count by k, so no depth before
        # this one can have enough prefixes
        reach = len(prefixes)
        while reach < 4 * jobs and depth < len(plan.idx):
            reach *= k
            depth += 1
        if depth == len(plan.idx):
            return [()]
        prefixes = []
        head = _Plan(plan.n, *(column[:depth] for column in plan[1:]))
        _search(head, k, class_of, partial(_prefix_hooks, out=prefixes), 0, 0, inf)
    return prefixes


# nodes a parallel subtree leases from the shared budget at a time: small
# enough that subtrees trade incumbents every millisecond or so, large
# enough that the lock is rarely taken
_SLICE = 256

# nodes the parent of a parallel run searches alone before it starts its
# helpers.  Measured on 2 vCPUs with the helper started at once, two jobs
# lose to one on runs of up to about 24 k nodes (process start-up and the
# uneven split) and win from about 47 k on, so a run this short forks
# nothing
_PROBE = 2**15


class _Subtree:
    """One task of a parallel run: its prefix, the prefix's position in
    DFS order, and the state all tasks of the run share.

    The shared state is an array [unleased budget, best cost, index of
    the earliest prefix that reached that cost, next unclaimed prefix],
    guarded by its lock.  Before any prefix reaches a cost, the index is
    the number of prefixes, so every subtree keeps leaves that tie the
    starting cost.  In the parent, helpers is the run's _Helpers, shown
    the unleased budget at every trade.
    """

    def __init__(self, shared, index, prefix, helpers=None):
        self.lock = shared.get_lock()
        self.cells = shared.get_obj()
        self.index = index
        self.prefix = prefix
        self.helpers = helpers
        self.leased = 0

    def trade(self, found, cut):
        """Publish this subtree's best cost (None when it has no leaf)
        and lease the next slice of the budget.  Returns (slice, the
        cut lowered to the shared incumbent, whether this subtree holds
        it); a slice of 0 is a refusal."""
        cells = self.cells
        with self.lock:
            self._publish(found)
            grant = min(_SLICE, cells[0])
            cells[0] -= grant
            unleased, best, first = cells[0], cells[1], cells[2]
        self.leased += grant
        if self.helpers is not None:
            self.helpers.lease(unleased)
        # ties with an earlier prefix's cost are pruned, with a later's kept
        if first > self.index:
            best += 1
        return grant, min(cut, best), first == self.index

    def settle(self, nodes, found):
        """Publish the final best cost and return the unexplored rest of
        the leased slices to the budget."""
        with self.lock:
            self._publish(found)
            self.cells[0] += self.leased - nodes

    def _publish(self, found):
        # caller holds the lock; ties go to the earlier prefix
        cells = self.cells
        if found is not None and (found, self.index) < (cells[1], cells[2]):
            cells[1] = found
            cells[2] = self.index


def _claims(args, prefixes, shared, helpers=None):
    """Claim prefixes from the shared counter, in DFS order, and search
    each one's subtree until none is left unclaimed; yields (index,
    engine result).  The parent and every helper run this loop."""
    lock, cells = shared.get_lock(), shared.get_obj()
    while True:
        with lock:
            index = cells[3]
            cells[3] = index + 1
        if index >= len(prefixes):
            return
        yield index, _search(*args, task=_Subtree(shared, index, prefixes[index], helpers))


class _Helpers:
    """The parent's helper processes: none until the parent has leased
    more than _PROBE nodes, then jobs - 1 of them at once, each claiming
    prefixes as the parent does.  A prefix is searched by whichever
    process claims it, so no work is repeated at the hand-off."""

    def __init__(self, jobs, run, budget):
        self.jobs = jobs
        self.run = run  # (engine arguments, prefixes, shared state)
        self.budget = budget  # the shared budget before any lease
        self.pool = None
        self.pending = None

    def lease(self, unleased):
        """Start the helpers once the parent has leased more than _PROBE
        nodes net.  Until a helper starts the parent alone leases, so
        that is the budget less the unleased rest."""
        if self.pool is None and self.budget - unleased > _PROBE:
            import multiprocessing

            self.pool = multiprocessing.Pool(self.jobs - 1, _init_helper, self.run)
            self.pending = self.pool.map_async(_helper, range(self.jobs - 1))

    def join(self):
        """The helpers' (index, engine result) pairs, once the parent has
        nothing left to claim."""
        if self.pool is None:
            return []
        return [run for runs in self.pending.get() for run in runs]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.terminate()


# (engine arguments, prefixes, shared state) of the run a helper serves
_POOL_RUN = None


def _init_helper(*run):
    global _POOL_RUN
    _POOL_RUN = run


def _helper(_):
    return list(_claims(*_POOL_RUN))


def _dispatch(n, k, class_of, objective, start, floor, budget, jobs):
    """Run the engine over the whole reduced space of K_n and combine its
    runs: (least cost or None, its colors, nodes, exhaustive).

    With jobs > 1 the space is split into prefixes that the parent, and
    once it has leased more than _PROBE nodes jobs - 1 helper processes,
    claim in DFS order; the subtrees share one budget and one incumbent,
    which starts at cost `start`."""
    plan = _edge_plan(n)
    args = (plan, k, class_of, objective, start, floor, budget)
    # no more processes than CPUs: the verdict does not depend on jobs
    jobs = min(jobs, os.cpu_count() or 1)
    prefixes = _split_prefixes(plan, k, jobs, class_of) if jobs > 1 else []
    if len(prefixes) <= 1:
        return _combine(floor, [_search(*args)])
    import multiprocessing

    pooled = min(budget, 2**62)
    shared = multiprocessing.Array("q", [pooled, start, len(prefixes), 0])
    runs = [None] * len(prefixes)
    with _Helpers(jobs, (args, prefixes, shared), pooled) as helpers:
        claimed = list(_claims(args, prefixes, shared, helpers)) + helpers.join()
    for index, run in claimed:
        runs[index] = run
    return _combine(floor, runs)


def _combine(floor, runs):
    # runs come in DFS order, so the first run holding the least cost
    # holds the lexicographically first optimal leaf; a leaf at floor
    # settles the run whatever budget the other subtrees ran out of
    runs = list(runs)
    nodes = sum(r[2] for r in runs)
    best, best_col = None, None
    for cost, colors, _, _ in runs:
        if cost is not None and (best is None or cost < best):
            best, best_col = cost, colors
    exhaustive = all(r[3] for r in runs) or (best is not None and best <= floor)
    return best, best_col, nodes, exhaustive
