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
    the order of vertex 1's star, which the rule generalizes;
  * when every color is interchangeable, the image of a swap is
    compared after renaming its colors into first-appearance order,
    its least relabeling, so no transposition followed by a relabeling
    gives a smaller coloring either.  The renaming fixes every color of
    K_{i-1}, which the swap (i, j) leaves in place, and sends a color
    new to the image to the least unused one, which ties the coloring
    or exceeds it there.  So a swap departs from the identity map only
    where the tie masks above hold it up to the first edge of a color
    d below k and the image brings a larger color c there: it then
    ties under the map c -> d, and the engine follows it position by
    position (`_relabel_work`, and `relabeled` in `_search`) until the
    image is larger or smaller; one mask of first edges, the edges where
    a color appears for the first time, finds such swaps, less those the
    next edge already makes larger.  Such a swap needs K_{i-1} and every
    edge it leaves in place to keep colors the map fixes, so it lives
    only near the first edges of a column.  With several classes
    (exists with mixed targets) a color new to one class can rename
    below another class's color, which the masks do not bound, and the
    image is compared as it is.

One engine, `_search`, runs every objective: a depth-first loop over
the edges in that order with an explicit stack, so no n meets a depth
limit.  An objective adds two hooks: test-and-apply an edge, and the
cost of a leaf.  The hooks read the coloring from the engine's
per-color neighbor bitsets, in which column order leaves the
monochromatic and rainbow triangles an edge closes a few bitset
operations away (see `_search`).  Every other piece of search state,
the engine's and the objective's alike, is kept per depth and written
forward, so backtracking reverts the bitsets alone.  Every objective
minimizes a cost: the monochromatic-triangle count, minus the
protected-edge count, or 0 for an avoiding coloring.  A leaf is kept
when its cost is below a cut, which starts one above a start value
and then follows the best leaf; a leaf at the least possible cost ends
the run, so the first avoiding coloring does.  A child dies when its
partial cost, or a bound on every completion, reaches the cut, or when
a forbidden monochromatic target or (under gallai_only) a rainbow
triangle completes.  The DFS visits colorings in lexicographic order
of the column order above and prunes ties, so the reported witness is
the smallest optimal coloring of the reduced space in that order,
deterministically.  That is not the pair order
(1,2),(1,3),(1,4),...,(2,3),... of Coloring.colors: the two orders
share only their first two edges, so comparing colors tuples does not
find that witness.

The minimum-monochromatic search adds two things, in every walk alike:

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
degrades the outcome to exhaustive=False, never silently.  Every run is
the walk of a worker (`_Worker`) that runs the engine over the whole
space and leases its nodes from the budget in small slices.  A node the
budget refuses is neither explored nor counted, and the walk stops
there, so a run explores at most budget nodes, whatever jobs.

With jobs > 1 (at most the CPU count) and n > 6, each coloring of K_6
the walk reaches, the first _SPLIT edges, is the key of the subtree
below it, and the walk searches that subtree only if it can claim the
key: a key is claimed only if it comes after the last key claimed, in
DFS order, and a refused key is skipped like a refused color.  Once the
parent has leased more than _PROBE nodes it starts jobs - 1 helper
processes, each of which walks the whole space the same way, so every
walk repeats the head above the subtrees, a few percent of the nodes,
and no subtree is searched twice.  All walks share the one budget and
one incumbent: the least cost and the key of the earliest subtree that
reached it.  A walk prunes ties with a cost an earlier key found and
keeps ties with a later key's, and the least (cost, key) of the walks
is the result, so unless the budget runs out the value, the witness and
`exhaustive` are those of one job.  A walk stops once an earlier key
holds a leaf of the least cost, so for exists_avoiding the first
witness in DFS order decides the run.  A run that ends inside the
allowance starts no process, builds no shared state and is the walk of
one job, node count included; node counts of longer runs vary from run
to run.  A run with n <= 6, where K_6 leaves no subtree, has one job,
and the walk of one job claims nothing.

Every search refuses n above MAX_N and k above MAX_K with a ValueError.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from functools import partial
from math import comb, inf
from typing import NamedTuple, Optional, Sequence

from .census import triangle_census
from .coloring import Coloring, pair_index
from .construct import construct_multiplicity_extremal, goodman_extremal_2coloring
from .formulas import gr_k3

DEFAULT_BUDGET = 10**9

# the largest n and k a search takes.  No search proves anything past
# n = 18 (see verify.PROVED), and the setup before the first node grows
# with both: the edge plan is quadratic in n, the seed's census cubic,
# the per-color tables linear in k.  With a budget of 10 nodes,
# min-mono(2000, 2) took 5.4 s and 648 MB and min-mono(5, 10^5) did not
# end in 20 s; at the caps every objective spends under 0.3 s and 25 MB
# on 10^4 nodes
MAX_N = 100
MAX_K = 32

TARGET_K3 = "K3"
TARGET_K4E = "K4+e"


class SearchOutcome(NamedTuple):
    """Result of one exhaustive search.

    exhaustive is True when the reported value is proven exact: the
    reduced space was fully covered, or a conclusive witness was found.
    It is False only when the node budget ran out first, in which case
    value/witness are best-so-far: None if no leaf was reached, or for
    min_mono_triangles the seed construction, where it has one.
    nodes_explored is at most the budget, whatever jobs.
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

# no swap tied under a color map: a wake no edge reaches
_IDLE = (inf, ())


def _relabel_work(t, ma, mb, lv, us, vs, col):
    """What _search's relabeled decides at edge t = (u, v), and live[t]
    less it.

    ma and mb are the swaps (i, v) and (i, u) that the tie masks hold up
    to a first edge of fa, {u, i} respectively (i, v), of color d: a
    color c above d there ties each under a map other than the identity,
    c -> d.  Each becomes the live state (wake, i, j, depth, None, -d, t),
    compared on from that depth once edge wake, the later of that depth
    and its image, is colored; one the edges up to t decide gets wake t.
    The work is those of wake t and the swaps of lv that edge t wakes,
    less those tied up to a first edge that a color no larger than d
    met, all in that one shape; the rest stays."""
    work = []
    wake, states = lv
    if wake <= t:
        rest = []
        wake = inf
        for st in states:
            if st[0] > t:
                rest.append(st)
                wake = min(wake, st[0])
            elif st[5] > 0 or col[st[6]] > -st[5]:
                work.append(st)
        states = rest
    u = us[t]
    v = vs[t]
    while ma or mb:
        if ma:
            low = ma & -ma
            ma ^= low
            i = low.bit_length() - 1
            j = v
            a, b = (i, u) if i < u else (u, i)
        else:
            low = mb & -mb
            mb ^= low
            i = low.bit_length() - 1
            j = u
            a, b = i, v
        p = (b - 1) * (b - 2) // 2 + a - 1
        d = col[p]
        p += 1
        a = us[p]
        b = vs[p]
        a = j if a == i else i if a == j else a
        b = j if b == i else i if b == j else b
        s = (b - 1) * (b - 2) // 2 + a - 1 if a < b else (a - 1) * (a - 2) // 2 + b - 1
        if p <= t and s <= t:
            work.append((t, i, j, p, None, -d, t))
        else:
            s = max(p, s)
            states = [*states, (s, i, j, p, None, -d, t)]
            wake = min(wake, s)
    return work, ((wake, states) if states else _IDLE)


def _search(plan, k, class_of, objective, start, floor, task):
    """Depth-first search over the canonical colorings of plan's edges
    for the first leaf, in DFS order, of least cost.

    objective(plan, rows) returns two hooks over rows, the engine's
    coloring state and the only one the hooks read: rows[x][y] has bit
    w set when edge {y, w} has color x, for the edges before the
    current depth.  The engine adds edge t to rows after apply accepts
    it and removes it when it backtracks past t, the only state of
    theirs a backtrack reverts.  When apply(t, c, cut) runs for t = (u, v),
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
    the run.  The walk goes through its task, a _Worker: it leases its
    nodes from the run's budget in trades that bring the run's
    incumbent, and stops at the first node a trade refuses, which it
    does not count; it publishes each kept leaf, which the task keeps;
    and at depth task.split (-1 with one job) it claims the subtree
    below each coloring of the first _SPLIT edges it reaches, and skips
    that coloring if the claim is refused.

    Colors in one class of class_of (all colors when it is None) make
    their first appearances in increasing order: opened[t][0] lists
    the colors edge t may take, those in use and the least unused one
    of each class, and after[c] is the next color of c's class (0 for
    the last), which the first edge to take c opens.  The colors an edge
    may take start at the largest color a tied vertex swap (module
    docstring) puts below it, so every leaf is no larger in column
    order than its image under any transposition.  With one class,
    relabeled then refuses a color under which a swap tied under a
    color map other than the identity gives a smaller image, so every
    leaf is also no larger than that image with its colors renamed.

    Returns (nodes, exhaustive)."""
    us, vs, backs, firsts = plan.u, plan.v, plan.back, plan.first
    m = len(us)
    col = [0] * m  # the colors by depth
    # the tied swaps, bit i for vertex i: tie[t] the swaps (i, v) before
    # edge t = (u, v), tie[~t] the swaps (i, u) once edge t is colored
    tie = [0] * (2 * m + 2)
    # rows[c][x]: bit y set when edge {x, y} has color c
    rows = [[0] * (plan.n + 1) for _ in range(k + 1)]
    top = range(k, 1, -1)
    apply, leaf = objective(plan, rows)
    class_of = class_of or [0] * (k + 1)
    after = [0] * (k + 1)
    latest = {}  # the last color of each class so far
    for c in range(1, k + 1):
        if class_of[c] in latest:
            after[latest[class_of[c]]] = c
        latest[class_of[c]] = c
    # relabeling, with one class.  A swap the tie masks hold up to the
    # first edge of a color d below k ties under a map other than the
    # identity when a larger color meets that edge.  fa[x] has bit y set
    # for such a first edge {x, y}: the swaps (y, v) compare it at (x, v),
    # and for y < x the swaps (y, u) at (u, x).  When the next edge takes
    # d too, a swap that leaves it in place sends d above itself there and
    # gives a larger image, so bit y leaves fa[x] unless y is on that edge
    # (a swap (y, j) with j on it is never both tied and read from bit y
    # later).  That branch decides nothing the comparison would not, but
    # it spares _relabel_work calls: without it f(13, 3) makes 55,269 of
    # them instead of 44,753.  opened[t] is (the colors open to edge t,
    # fa), written forward like every other per-depth state.  With one
    # class the open colors change exactly at a first edge, so the branch
    # finds one by the list's identity.  An edge that changes the colors
    # or fa writes new lists, so no list changes once written and a
    # backtrack leaves them be.  live[t] is (the least wake, the swaps
    # tied under a map other than the identity) before edge t
    relabel = len(set(class_of[1:])) <= 1
    opened = [None] * (m + 1)
    empty = [0] * (plan.n + 1)
    opened[0] = ([c for c in range(1, k + 1) if c not in after], empty)
    live = [_IDLE] * (m + 1)
    # pend[t]: None, or where relabeled decides edge t, its work and the
    # rest of live[t] (from _relabel_work)
    pend = [None] * (m + 1)
    split = task.split

    def relabeled(t, c):
        # whether coloring edge t with c leaves every swap's image, its
        # colors renamed, no smaller than the coloring; sets live[t + 1]
        work, (wake, rest) = pend[t]
        col[t] = c
        kept = rest
        for _, i, j, p, pi, mapped, at in work:
            if mapped < 0:
                # tied by the masks up to the first edge of color d = -mapped,
                # which the color of edge at meets under a map other than
                # the identity if it is larger
                y = col[at]
                if y <= -mapped:
                    continue
                mapped = -mapped
                pi = [*range(mapped)] + [0] * (k + 1 - mapped)  # unset from d on
                pi[y] = mapped
            # compare the image under (i, j) and pi with the coloring from
            # depth p on, as far as the edges up to t decide it
            while p <= t:
                a = us[p]
                b = vs[p]
                a = j if a == i else i if a == j else a
                b = j if b == i else i if b == j else b
                s = (b - 1) * (b - 2) // 2 + a - 1 if a < b else (a - 1) * (a - 2) // 2 + b - 1
                if s > t:
                    break
                y = col[s]
                z = pi[y]
                if not z:
                    mapped += 1
                    z = mapped
                    pi = pi[:]
                    pi[y] = z
                x = col[p]
                if z != x:
                    if z < x:
                        return False
                    break
                p += 1
            else:
                s = p
            if s <= t:
                continue  # the image is larger
            if kept is rest:
                kept = [*rest]
            kept.append((s, i, j, p, pi, mapped, t))
            if s < wake:
                wake = s
        live[t + 1] = (wake, kept) if kept else _IDLE
        return True

    cut = start + 1
    nodes = limit = 0
    exhaustive = True
    its = [iter(())] * (m + 1)  # the untried candidates at each depth
    if m:
        its[0] = iter(opened[0][0])  # edge (1, 2) is free of ties
    t = 0
    while t >= 0:
        for c in its[t]:
            if not apply(t, c, cut):
                continue
            if pend[t] is not None and not relabeled(t, c):
                continue
            if t == split and not task.claim((*col[:t], c)):
                continue  # another worker's subtree, or one behind the claims
            nodes += 1
            if nodes > limit:
                # lease the next slice of the budget and take the run's
                # incumbent
                grant, cut = task.trade(cut)
                if not grant or cut <= floor:
                    # refused, or no leaf ahead can beat an earlier subtree's
                    nodes -= 1  # the node is not explored
                    exhaustive = cut <= floor
                    t = -1
                    break
                limit += grant
            col[t] = c
            op, fa = state = opened[t]
            nxt = after[c]
            u = us[t]
            v = vs[t]
            if nxt and nxt not in op:
                op = sorted([*op, nxt])
                if relabel:  # c is new
                    fa = fa[:]
                    fa[u] |= 1 << v
                    fa[v] |= 1 << u
                state = (op, fa)
            elif relabel and t and op is not opened[t - 1][0] and c == col[t - 1]:
                # the edge after a first edge (a, b), in its color
                a = us[t - 1]
                b = vs[t - 1]
                fa = fa[:]
                if b != u and b != v:
                    fa[a] &= ~(1 << b)
                if a != u and a != v:
                    fa[b] &= ~(1 << a)
                state = (op, fa)
            opened[t + 1] = state
            row = rows[c]
            tie[t + 1] = (tie[t] | firsts[t]) & (row[u] | 1 << u)
            tie[~t] = tie[backs[t]] & row[v]
            row[u] |= 1 << v
            row[v] |= 1 << u
            t += 1
            if t < m:
                # the colors edge t may take; the least is 1 or a color in
                # use, so it is open
                a = tie[t] | firsts[t]
                b = tie[backs[t]]
                u = us[t]
                v = vs[t]
                lo = 1
                for x in top:
                    if rows[x][u] & a or rows[x][v] & b:
                        lo = x
                        break
                if relabel:
                    lv = live[t]
                    ma = a & fa[u]
                    mb = b & fa[v]
                    pend[t] = None
                    if ma or mb or lv[0] <= t:
                        work, lv = _relabel_work(t, ma, mb, lv, us, vs, col)
                        if work:
                            pend[t] = (work, lv)
                    live[t + 1] = lv
                its[t] = iter(op[op.index(lo) :])
            break
        else:
            if t == m:
                cost = leaf()
                if cost < cut:
                    cut = cost
                    task.publish(cost, col)
                    if cut <= floor:
                        break
            t -= 1
            if t < 0:
                break
            u = us[t]
            v = vs[t]
            row = rows[col[t]]
            row[u] ^= 1 << v
            row[v] ^= 1 << u
    task.settle(nodes)
    return nodes, exhaustive


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
        # water-fill: the free edges raise the smallest degrees to a common
        # level, which minimizes the sum of squares and so maximizes the
        # split pairs.  The j smallest take the water when lifting them all
        # to the j-th smallest costs no more than the free edges; the
        # largest such j holds it, j - r of them at the level q and r at
        # q + 1
        degrees.sort()
        pool = n - 1
        j = self.k
        while j * degrees[j - 1] > pool - sum(degrees[j:]):
            j -= 1
        q, r = divmod(pool - sum(degrees[j:]), j)
        squares = sum(d * d for d in degrees[j:]) + (j - r) * q * q + r * (q + 1) ** 2
        value = ((n - 1) ** 2 - squares) // 2
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
    if not (1 <= n <= MAX_N and 1 <= k <= MAX_K):
        raise ValueError(f"need 1 <= n <= {MAX_N} and 1 <= k <= {MAX_K}, got n={n} k={k}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")


# the edges of K_6: a worker of a parallel run claims the subtree below
# each coloring of them it reaches, its key.  On the runs that start
# helpers that leaves hundreds of subtrees, and the head above them,
# which every worker walks, holds a few percent of the nodes
_SPLIT = 15

# nodes a worker leases from the budget at a time: small enough that the
# workers of a parallel run trade incumbents every millisecond or so,
# large enough that the lock is rarely taken
_SLICE = 256

# nodes the parent of a parallel run searches alone before it starts its
# helpers.  Measured on 2 vCPUs with the helper started at once, two jobs
# lose to one on every run up to min-mono(13, 3, gallai), 32,525 nodes
# (146-164 against 118-133 ms), and draw at max-protected(10, 2), 94,521
# nodes, so a run this short forks nothing
_PROBE = 2**15

# where a run's cells keep the key of the subtree that reached the best
# cost, and the last key claimed
_BEST_KEY = slice(2, 2 + _SPLIT)
_LAST_KEY = slice(2 + _SPLIT, 2 + 2 * _SPLIT)


class _Worker:
    """One process's walk of a run, the task _search goes through.

    The run's state is the cells [unleased budget, best cost, the key of
    the earliest subtree that reached that cost, the last key claimed],
    each key in _SPLIT cells, guarded by lock; keys compare as tuples, in
    DFS order.  Before any subtree reaches a cost, its key comes after
    every key, so every worker keeps leaves that tie the starting cost.
    key is the last key this walk reached and best the (cost, key,
    column-order colors) of its last kept leaf.  split is the depth at
    whose colorings the walk claims subtrees, or -1 for a run of one job,
    which claims none.

    The parent's worker (no shared array) keeps the cells in a plain list
    with a lock that does nothing.  With jobs > 1, once it has leased
    more than _PROBE nodes it moves them into a shared array, takes that
    array's lock and starts jobs - 1 helpers, each a worker on the array
    that walks the plan as the parent does.  A subtree is searched by
    whichever walk claims it, so no work below the head is repeated at
    the hand-off, and a run that ends inside the allowance builds no
    shared state.
    """

    def __init__(self, args, budget=0, jobs=1, shared=None):
        self.args = args  # the engine arguments before the task
        self.jobs = jobs
        self.pool = None
        self.split = _SPLIT - 1 if jobs > 1 or shared is not None else -1
        if shared is None:
            _, k, _, _, start, _ = args
            # the best key starts after every key, the last claimed before them
            self.cells = [min(budget, 2**62), start] + [k + 1] * _SPLIT + [0] * _SPLIT
            self.lock = nullcontext()
        else:
            self.cells = shared.get_obj()
            self.lock = shared.get_lock()
        self.key = (0,) * _SPLIT
        self.best = None
        self.leased = 0

    def walk(self):
        """The engine run over the whole plan: (least cost or None, the
        key of the subtree holding it, its colors in pair order, nodes,
        exhaustive)."""
        nodes, exhaustive = _search(*self.args, self)
        cost, key, col = self.best or (None,) * 3
        if col is not None:  # into pair order
            col = tuple(c for _, c in sorted(zip(self.args[0].idx, col)))
        return cost, key, col, nodes, exhaustive

    def claim(self, key):
        """Whether the subtree below key is this walk's: it comes after
        the last key claimed, which it becomes."""
        self.key = key
        cells = self.cells
        with self.lock:
            if key <= tuple(cells[_LAST_KEY]):
                return False
            cells[_LAST_KEY] = key
        return True

    def publish(self, cost, col):
        """Keep a leaf of the current subtree, with its column-order
        colors col, and offer it as the run's incumbent; ties go to the
        earlier key."""
        self.best = (cost, self.key, tuple(col))
        cells = self.cells
        with self.lock:
            if (cost, self.key) < (cells[1], tuple(cells[_BEST_KEY])):
                cells[1] = cost
                cells[_BEST_KEY] = self.key

    def trade(self, cut):
        """Lease the next slice of the budget.  Returns (slice, the cut
        lowered to the run's incumbent); a slice of 0 is a refusal."""
        cells = self.cells
        with self.lock:
            grant = min(_SLICE, cells[0])
            cells[0] -= grant
            best, key = cells[1], tuple(cells[_BEST_KEY])
        self.leased += grant
        if self.pool is None and self.jobs > 1 and self.leased > _PROBE:
            self.start_helpers()
        # ties with an earlier key's cost are pruned, with a later's kept;
        # every key the walk reaches from here on comes after self.key
        if key > self.key:
            best += 1
        return grant, min(cut, best)

    def start_helpers(self):
        """Move the cells into a shared array and start the helpers on it."""
        import multiprocessing

        shared = multiprocessing.Array("q", self.cells)
        self.cells = shared.get_obj()
        self.lock = shared.get_lock()
        self.pool = multiprocessing.Pool(self.jobs - 1, _init_helper, (self.args, shared))
        self.pending = self.pool.map_async(_helper, range(self.jobs - 1))

    def settle(self, nodes):
        """Return the unexplored rest of the leased slices to the budget."""
        with self.lock:
            self.cells[0] += self.leased - nodes


# (engine arguments, shared array) of the run a helper serves
_POOL_RUN = None


def _init_helper(*run):
    global _POOL_RUN
    _POOL_RUN = run


def _helper(_):
    return _Worker(_POOL_RUN[0], shared=_POOL_RUN[1]).walk()


def _dispatch(n, k, class_of, objective, start, floor, budget, jobs):
    """Run the engine over the whole reduced space of K_n as one worker's
    walk and combine the walks: (least cost or None, its colors, nodes,
    exhaustive).  Every run explores at most budget nodes.

    The walk is that of one job when jobs is 1, when the CPU count lowers
    it to 1, or when n <= 6, where K_6 leaves no subtree.  Otherwise, once
    the parent has leased more than _PROBE nodes, jobs - 1 helper
    processes walk the space too; the walks claim the subtrees below the
    colorings of K_6 and share one budget and one incumbent, which starts
    at cost `start`."""
    plan = _edge_plan(n)
    # no more processes than CPUs: the verdict does not depend on jobs
    jobs = min(jobs, os.cpu_count() or 1) if jobs > 1 and len(plan.idx) > _SPLIT else 1
    parent = _Worker((plan, k, class_of, objective, start, floor), budget, jobs)
    try:
        runs = [parent.walk()]
        if parent.pool is not None:
            runs += parent.pending.get()
    finally:
        if parent.pool is not None:
            parent.pool.terminate()
    return _combine(floor, runs)


def _combine(floor, runs):
    # the least (cost, key) holds the lexicographically first optimal
    # leaf; a leaf at floor settles the run whatever budget the other
    # walks ran out of
    nodes = sum(r[3] for r in runs)
    best, _, best_col = min((r[:3] for r in runs if r[0] is not None), default=(None,) * 3)
    exhaustive = all(r[4] for r in runs) or (best is not None and best <= floor)
    return best, best_col, nodes, exhaustive
