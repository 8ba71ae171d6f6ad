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
    gives a smaller coloring either.  One test at the last edge of each
    column v (`_column_end`) compares K_v with its renamed image under
    every swap (i, j), j <= v, not yet decided: those that tied K_{v-1}
    under a renaming not the identity on all k colors, from column v
    on, and each new swap (i, v) from column i on, its renaming starting
    as the identity on the colors of K_{i-1}, which the swap leaves in
    place.  The test walks no new swap to its first difference: the tie
    masks above already show where each one differs first.  A new swap
    that ties K_v is a bit of the column's last mask, and one that does
    not can tie under a renaming only when it differs first at a color's
    first edge: anywhere else the coloring's color there is named before
    it, the lo bound has put the image's above it, and the renaming
    fixes the named colors and sends an unnamed one above them all.  So
    each column end starts at most two renamed walks per color.
    A smaller image refuses the color, a larger one drops the swap and a
    tie carries it to the next column end.  A renaming that is the
    identity on all k colors leaves the swap to the tie masks above, so
    the new swaps stop at the first i whose K_{i-1} uses every color.
    Column order puts K_v first, so a leaf passes every column end
    exactly when no swap and renaming makes it smaller, and a refused
    K_v has no such leaf below it.  With several classes (exists with
    mixed targets) a color new to one class can rename below another
    class's color, which the masks do not bound, and the image is
    compared as it is.

One engine, `_search`, runs every objective: a depth-first loop over
the edges in that order with an explicit stack, so no n meets a depth
limit.  An objective adds two hooks: test-and-apply an edge, and the
cost of a leaf.  The engine applies the Gallai restriction itself,
refusing a color that closes a rainbow triangle, so one test serves
every objective that searches Gallai colorings.  The hooks read the
coloring from the engine's per-color neighbor bitsets, in which column
order leaves the monochromatic and rainbow triangles an edge closes a
few bitset operations away (see `_search`).  Every other piece of
search state, the engine's and the objective's alike, is kept per
depth and written forward, so backtracking reverts the bitsets alone.
Every objective minimizes a cost: the monochromatic-triangle count,
minus the protected-edge count, or 0 for an avoiding coloring.  A leaf
is kept when its cost is below a cut, which starts one above a start
value and then follows the best leaf; a leaf at the least possible
cost ends the run, so the first avoiding coloring does.  A child dies
when its partial cost, or a bound on every completion, reaches the
cut, or when a forbidden monochromatic target or, in a Gallai space,
a rainbow triangle completes.  The DFS visits
colorings in lexicographic order of the column order above and prunes
ties, so the reported witness is the smallest optimal coloring of the
reduced space in that order, deterministically.  That is not the pair
order (1,2),(1,3),(1,4),...,(2,3),... of Coloring.colors: the two
orders share only their first two edges, so comparing colors tuples
does not find that witness.

The minimum-monochromatic and maximum-protected searches start from a
seeded incumbent (`_seeded`), in every walk alike: a library
construction, its cost counted on the coloring.  Leaves equal to the
seed are still accepted, so the witness rule above is unchanged; a run
whose budget ends before such a leaf reports the seed.  Each also prunes
on a bound of its own.

The minimum-monochromatic search:

  * seeds the Goodman 2-coloring for k = 2, the multiplicity
    construction for k >= 3 at n >= gr_k3(k), its count taken from the
    triangle census (and, under gallai_only, used only if the census
    finds no rainbow triangle);
  * prunes on Goodman's counting bound.  With D_v the number of
    differently colored edge pairs at v, every coloring has exactly
    C(n,3) - (sum_v D_v)/2 + rainbow/2 monochromatic triangles, so
    C(n,3) - (sum_v max D_v)/2, each maximum taken over the completions
    of v's partial color degrees, bounds every completion from below.
    A child dies when the integer ceiling of that bound reaches the
    cut.  A 2-coloring has no rainbow triangle, so for k = 2 the
    identity is exact and, once the seeded optimum is found again, the
    bound closes the proof at once: min-mono(n,2) proves in under
    5,000 nodes for n <= 14, where the partial count alone needed a
    million at n = 8.

The maximum-protected search:

  * seeds construct_f_lower(n, k) wherever it exists (k >= 2 and
    n >= gr_k3(k - 1) - 1), its count from count_protected_edges;
  * prunes on the edges already unprotected and, for k = 2, looks one
    vertex ahead at the last edge of each column v < n, where K_v is
    colored.  A new vertex x's star edge (x, w) to K_v is unprotected
    when some w' in K_v has (x, w'), (x, w) and (w, w') of one color;
    L1 is the fewest such edges over the 2^v stars.  Those triangles
    stay in every completion, and the stars of the n - v vertices still
    to come are disjoint from each other and from K_v, so every
    completion leaves at least |unprotected(K_v)| + (n - v)·L1 edges
    unprotected.  The color is refused once that reaches the cut.

    Let G be K_v's color-1 graph and S_1, S_2 the vertices a star joins
    in colors 1 and 2.  Call a pair bad when it is an edge of G inside
    S_1 or a non-edge inside S_2: the star's unprotected edges are
    those to the ends of the bad pairs.  So they come in pairs and L1 is
    never 1; and L1 = 0 exactly when some S_1 is independent in G and
    its S_2 a clique, that is when G is split.  More generally, a star
    with c unprotected edges has at most C(c, 2) bad pairs, and one with
    b bad pairs at most 2b unprotected edges, while the fewest bad
    pairs over the stars is the splittance s of G, the fewest edges to
    add or delete to make G split.  So L1 <= 2s and C(L1, 2) >= s.
    Hammer & Simeone ("The splittance of a graph", Combinatorica 1,
    1981) read s off the degree sequence in O(v log v), which decides
    L1 < need at need <= 3 and most calls above; the rest run a
    depth-first search over the stars on bitsets that stops at need.
    For k >= 3 a rainbow triangle through x unprotects star edges too,
    and the lookahead with that case left 0.86 to 1.0 of the nodes at
    1.3 to 2.4 times the time at f(n, 3), so k >= 3 has the seed alone.
    The seed and the lookahead prove f(11, 2) in 28,294 nodes, where the
    unprotected edges alone needed 867,628.

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
from collections import namedtuple
from collections.abc import Sequence
from contextlib import nullcontext
from functools import partial
from math import comb

from .census import count_protected_edges, triangle_census
from .coloring import Coloring, pair_index
from .construct import (
    construct_f_lower,
    construct_multiplicity_extremal,
    goodman_extremal_2coloring,
)
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


class SearchOutcome(
    namedtuple("SearchOutcome", "objective value witness nodes_explored exhaustive")
):
    """Result of one exhaustive search.

    exhaustive is True when the reported value is proven exact: the
    reduced space was fully covered, or a conclusive witness was found.
    It is False only when the node budget ran out first, in which case
    value/witness are best-so-far: None if no leaf was reached, or for
    min_mono_triangles and max_protected_edges the seed construction,
    where it has one.
    nodes_explored is at most the budget, whatever jobs.
    """

    __slots__ = ()


class _Plan(namedtuple("_Plan", "n u v idx back first at_u at_v")):
    """The column-order traversal, one column per field: each edge's
    endpoints u < v, its pair index, and the two lookups of the
    transposition rule (module docstring): where _search keeps the mask
    of the tied swaps (i, u) that edge (u, v) goes on comparing, and
    the mask of the vertices below v at a column's first edge, where
    every swap (i, v) starts tied (0 elsewhere).  For state kept per
    endpoint of each colored edge, in slot 2t for u and 2t + 1 for v,
    at_u and at_v give the slots that hold u's and v's before edge t,
    or -1 for an endpoint with no colored edge yet."""

    __slots__ = ()


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


def _column_end(t, col, opened, held, named, k, plan, tie, place):
    """Whether coloring the last edge t of column v with col[t] leaves
    K_v no larger than its image under every vertex swap (i, j), j <= v,
    with the image's colors renamed into first-appearance order.

    The swaps compared are those held[v] holds, which tied K_{v-1} and
    go on from column v, and the new swaps (i, v), each from column i
    on: the swap leaves K_{i-1} in place, so its renaming starts as the
    identity on K_{i-1}'s colors, and once K_{i-1} uses all k colors it
    is the identity, which _search's tie masks compare.  Under the
    identity the image differs from the coloring only at the edges
    {a, i} and {a, v}, first at the edge {a, i} of the least a != i with
    c(a, i) != c(a, v).  The tie masks hold that a: bit i of tie[q], for
    the edge q = (a, v) with a >= 2, is set when the swap tied every
    edge (a', v) with a' < a (before (1, v) every swap is tied), and
    bit i of tie[t + 1], the column's final mask, when it tied all of
    K_v.  So no new swap is walked to its first difference:

      * the final mask's bits are the new swaps that tie K_v.  While K_v
        leaves a color unused they are carried, unwalked; once it uses
        all k colors their renaming is the identity, and they are
        dropped;
      * a new swap that does not tie shows x = c(a, i) in the coloring
        and y = c(a, v) in the image at its first difference.  Bit i is
        set in the tie mask before edge (a, v), so the engine's lo bound
        gave c(a, v) >= c(a, i), and y > x.  Before {a, i} the image is
        the coloring, whose colors appear in first-appearance order, so
        the renaming fixes every color named there.  If x is not new at
        {a, i} it is one of them, and y renames to itself or, unnamed,
        to a color above all of them: above x either way, so the image
        is larger and the swap is dropped.  If x is new, y is unnamed
        too and renames to x, a tie, and the swap goes on under y -> x,
        compared edge by edge.  So a new swap is walked only when its
        first difference is a color's first edge: for each color x of
        K_{v-1}, the edge col.index(x) = {e, f} with e or f as i and the
        other end as a, when bit i is set in the tie mask before edge
        (a, v) and clear after it.  Every other new swap is dropped
        unwalked.

    A held swap with the identity as its renaming (pi None) tied K_{v-1}
    as it is, so column v compares its edges {i, v} and {j, v}, and a
    new color x there starts a renamed walk in the same way.  A renamed
    walk compares the image with the coloring edge by edge, reading edge
    depths from place (place[a][b] is the depth of edge {a, b}).  A
    smaller image refuses the color, a larger one drops the swap.
    Writes named[v], the colors K_v uses, and held[v + 1], the swaps K_v
    ties as (i, j, pi, the colors pi names, where the comparison goes
    on: the vertex v + 1 while pi is None, else a depth)."""
    us, vs = plan.u, plan.v
    v = vs[t]
    named[v] = d = max(named[v - 1], *col[t - v + 2 : t + 1])
    kept = []
    walks = []  # the renamed walks to make, as held[v] keeps them
    for i, j, pi, mapped, p in held[v]:
        if pi is not None:
            walks.append((i, j, pi[:], mapped, p))
            continue
        p = place[i][v]
        x = col[p]
        y = col[place[j][v]]
        if x == y:
            if d < k:
                kept.append((i, j, None, 0, v + 1))
        elif y < x:
            return False
        elif x == opened[p][-1]:  # x is new, so y renames to it
            pi = [*range(x)] + [0] * (k + 1 - x)
            pi[y] = x
            walks.append((i, j, pi, x, p + 1))
    if d < k:
        rest = tie[t + 1]
        while rest:
            low = rest & -rest
            rest ^= low
            kept.append((low.bit_length() - 1, v, None, 0, v + 1))
    # the first edge {e, f}, e < f, of each color x: the swap (e, v) is
    # walked when it differs first at a = f, the swap (f, v) when it does
    # at a = e.  From a = 2 on a column's masks only lose bits, so the
    # first is bit e of the masks' XOR around edge (f, v)
    base = t - v + 1  # edge (a, v) is at depth base + a
    p = 0
    for x in range(1, named[v - 1] + 1):
        p = col.index(x, p)  # the first edges come in color order
        e = us[p]
        f = vs[p]
        q = base + f
        if (tie[q] ^ tie[q + 1]) >> e & 1:
            pi = [*range(x)] + [0] * (k + 1 - x)
            pi[col[q]] = x
            walks.append((e, v, pi, x, p + 1))
        q = base + e
        if (e == 1 or tie[q] >> f & 1) and not tie[q + 1] >> f & 1:
            pi = [*range(x)] + [0] * (k + 1 - x)
            pi[col[q]] = x
            walks.append((f, v, pi, x, p + 1))
    for i, j, pi, mapped, p in walks:
        while p <= t:
            a = us[p]
            b = vs[p]
            a = j if a == i else i if a == j else a
            b = j if b == i else i if b == j else b
            y = col[place[a][b]]
            z = pi[y]
            if not z:
                mapped += 1
                z = pi[y] = mapped
            x = col[p]
            if z != x:
                if z < x:
                    return False
                break
            p += 1
        else:
            kept.append((i, j, pi, mapped, t + 1))
    held[v + 1] = kept
    return True


def _search(plan, k, class_of, gallai, objective, start, floor, task):
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

    With gallai set, the space is the Gallai colorings: the engine
    refuses a color that closes a rainbow triangle before apply sees
    it, so no hook tests for one.  With k <= 2 no triangle is rainbow,
    and the test is skipped.

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
    their first appearances in increasing order: opened[t] lists
    the colors edge t may take, those in use and the least unused one
    of each class, and after[c] is the next color of c's class (0 for
    the last), which the first edge to take c opens.  The colors an edge
    may take start at the largest color a tied vertex swap (module
    docstring) puts below it, so every leaf is no larger in column
    order than its image under any transposition.  With one class,
    _column_end then refuses, at the last edge of each column v, a color
    under which some swap gives K_v a smaller image once the image's
    colors are renamed, before the node is counted or claimed, so every
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
    # a rainbow triangle needs three colors; others[c], for the rainbow
    # test: the rows of the colors other than c
    gallai = gallai and k > 2
    if gallai:
        others = [[r for r in rows[1:] if r is not row] for row in rows]
    class_of = class_of or [0] * (k + 1)
    after = [0] * (k + 1)
    latest = {}  # the last color of each class so far
    for c in range(1, k + 1):
        if class_of[c] in latest:
            after[latest[class_of[c]]] = c
        latest[class_of[c]] = c
    # the colors open to edge t, written forward like every other
    # per-depth state; an edge that opens a color writes a new list
    opened = [None] * (m + 1)
    opened[0] = [c for c in range(1, k + 1) if c not in after]
    # with one class, the last edge of column v runs _column_end, which
    # reads held[v] and the tie masks and writes named[v] and held[v + 1];
    # place[a][b] is the depth of edge {a, b}
    one_class = len(set(class_of[1:])) <= 1
    ends = [one_class and u + 1 == v for u, v in zip(us, vs)]
    held = [[] for _ in range(plan.n + 2)]
    named = [0] * (plan.n + 1)
    place = [[0] * (plan.n + 1) for _ in range(plan.n + 1)]
    for d, (a, b) in enumerate(zip(us, vs)):
        place[a][b] = place[b][a] = d
    split = task.split

    cut = start + 1
    nodes = limit = 0
    exhaustive = True
    its = [iter(())] * (m + 1)  # the untried candidates at each depth
    if m:
        its[0] = iter(opened[0])  # edge (1, 2) is free of ties
    t = 0
    u, v = 1, 2  # edge t's endpoints whenever t < m, kept as t moves
    while t >= 0:
        for c in its[t]:
            if gallai:
                row = rows[c]
                rain = ((1 << u) - 2) & ~(row[u] | row[v])
                if rain:
                    for r in others[c]:
                        rain &= ~(r[u] & r[v])
                    if rain:
                        continue
            if not apply(t, c, cut):
                continue
            col[t] = c
            row = rows[c]
            tie[t + 1] = (tie[t] | firsts[t]) & (row[u] | 1 << u)
            if ends[t] and not _column_end(t, col, opened, held, named, k, plan, tie, place):
                continue
            if t == split and not task.claim(tuple(col[: t + 1])):
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
            op = opened[t]
            nxt = after[c]
            if nxt and nxt not in op:
                op = sorted([*op, nxt])
            opened[t + 1] = op
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


def _seeded(n, k, gallai_only, objective, seed, worst, floor, budget, jobs):
    """The seeding rule of min-mono and max-protected: _dispatch with one
    class of colors from the cost of seed, the (cost, colors) of a
    library construction, or from worst when its cost is None.  A run
    whose budget ends before a leaf at or below the seed reports the
    seed, the best coloring known.  Returns (least cost or None, its
    colors, nodes, exhaustive)."""
    seed_cost, seed_col = seed
    start = worst if seed_cost is None else seed_cost
    cost, col, nodes, exhaustive = _dispatch(
        n, k, None, gallai_only, objective, start, floor, budget, jobs
    )
    if col is None and not exhaustive and seed_col is not None:
        cost, col = seed_cost, seed_col
    return cost, col, nodes, exhaustive


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
        # q + 1.  pool is the n - 1 edges less the degrees above the j
        # smallest: the free edges and the j smallest degrees
        degrees.sort()
        pool = n - 1
        j = self.k
        while j * degrees[j - 1] > pool:
            j -= 1
            pool -= degrees[j]
        q, r = divmod(pool, j)
        squares = sum(d * d for d in degrees[j:]) + (j - r) * q * q + r * (q + 1) ** 2
        value = ((n - 1) ** 2 - squares) // 2
        self[code] = value
        return value


def _min_mono_hooks(plan, rows, split):
    """Cost: the monochromatic-triangle count.  apply also prunes on
    Goodman's counting bound: with s the sum of the per-vertex
    split-pair maxima, every completion has at least C(n,3) - s/2
    monochromatic triangles."""
    n, us, vs, at_u, at_v = plan.n, plan.u, plan.v, plan.at_u, plan.at_v
    m = len(us)
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
    objective = partial(_min_mono_hooks, split=_SplitPairs(n, k))
    seed = _min_mono_seed(n, k, gallai_only)
    value, witness_col, nodes, exhaustive = _seeded(
        n, k, gallai_only, objective, seed, comb(n, 3), 0, budget, jobs
    )
    witness = Coloring(n, k, witness_col) if witness_col is not None else None
    return SearchOutcome("min_mono_triangles", value, witness, nodes, exhaustive)


# ---------------------------------------------------------------------------
# existence of a coloring avoiding per-color targets


def _exists_hooks(plan, rows, targets, saturation_cap):
    """Cost: 0 for every leaf; apply refuses an edge that completes its
    color's target or, with saturation_cap, a vertex that meets every
    color."""
    us, vs = plan.u, plan.v
    colored = rows[1:]  # the engine's rows of the colors 1..k, written in place
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
        # u or v meets every color other than c already
        if saturation_cap and any(all(r is row or r[y] for r in colored) for y in (u, v)):
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
    objective = partial(_exists_hooks, targets=targets, saturation_cap=saturation_cap)
    class_ids: dict[str, int] = {}
    class_of = [0] + [class_ids.setdefault(t, len(class_ids)) for t in targets]
    # every avoiding coloring costs 0, the least cost, so the first ends the run
    _, witness_col, nodes, exhaustive = _dispatch(
        n, k, class_of, gallai_only, objective, 0, 0, budget, jobs
    )
    value = 1 if witness_col is not None else (0 if exhaustive else None)
    witness = Coloring(n, k, witness_col) if witness_col is not None else None
    return SearchOutcome("exists_avoiding", value, witness, nodes, exhaustive)


# ---------------------------------------------------------------------------
# maximum protected edges


def _max_protected_hooks(plan, rows):
    """Cost: minus the protected-edge count.  The edges of each
    monochromatic or rainbow triangle are unprotected, so the edges not
    yet unprotected bound every completion.

    For k = 2, apply also looks one vertex ahead at the last edge of each
    column v < n, the edge that completes K_v: every completion leaves
    at least |unprotected(K_v)| + (n - v)·L1 edges unprotected (module
    docstring), so the color is refused once L1 reaches need, the
    ceiling over n - v of the unprotected edges the cut still allows,
    which _star_below decides."""
    n, us, vs = plan.n, plan.u, plan.v
    m = len(us)
    others = [[r for r in rows[1:] if r is not row] for row in rows]  # by color
    # column x holds edge (w, x) at depth start[x] + w - 1
    start = [(x - 1) * (x - 2) // 2 for x in range(plan.n + 1)]
    unprot = [0] * (m + 1)  # bitmask of the unprotected edges, by depth
    # the depths of the lookahead: the last edge of each column v < n, for k = 2
    ahead = [len(rows) == 3 and u + 1 == v < n for u, v in zip(us, vs)]
    ones = rows[1]

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
            # edge t and the edges (w, u), (w, v) of each apex w
            mask |= (bad << start[u] | bad << start[v]) >> 1 | 1 << t
        # the unprotected edges a completion may add and stay below cut
        spare = cut + m - mask.bit_count()
        if spare <= 0:
            return False
        if ahead[t]:
            # K_v's color-1 rows, edge t included
            graph = ones[1 : v + 1]
            if c == 1:
                graph[u - 1] |= 1 << v
                graph[v - 1] |= 1 << u
            if not _star_below(graph, -(-spare // (n - v))):
                return False
        unprot[t + 1] = mask
        return True

    def leaf():
        return unprot[m].bit_count() - m

    return apply, leaf


def _star_below(graph, need):
    """Whether L1 < need for the 2-coloring of K_v whose color-1 graph
    graph lists by rows (vertex x <-> bit x of graph[x - 1]): whether a
    new vertex has a star to K_v that leaves fewer than need of its
    edges unprotected.  With s the graph's splittance, L1 <= 2s and
    C(L1, 2) >= s (module docstring), so a star search runs only when
    neither bound decides."""
    s = _splittance(graph)
    if 2 * s < need:
        return True
    if (need - 1) * (need - 2) // 2 < s:
        return False
    return _star_search(graph, need)


def _splittance(graph):
    """The splittance of the graph whose rows graph lists (as for
    _star_below): the fewest edges to add or delete to make it split, a
    clique and an independent set covering its vertices.  By Hammer &
    Simeone (Combinatorica 1, 1981), with the degrees d_1 >= ... >= d_v
    and p the largest i with d_i >= i - 1, it is
    (p(p - 1) - d_1 - ... - d_p + d_(p+1) + ... + d_v) / 2."""
    degrees = sorted(map(int.bit_count, graph), reverse=True)
    p = 0
    for d in degrees:
        if d < p:
            break
        p += 1
    return (p * (p - 1) - sum(degrees[:p]) + sum(degrees[p:])) // 2


def _star_search(graph, need):
    """Whether some 2-colored star from a new vertex to the vertices of
    graph (rows as for _star_below, color 1 the edges of graph, color 2
    the others) leaves fewer than need of its edges unprotected.  The
    star edge to w is unprotected exactly when some w' has its star edge
    and (w, w') in that edge's color.  A depth-first search over the vertices
    in order, each star vertex in color 1 or 2, with the unprotected
    star vertices so far as a bitmask.  A vertex not yet placed that
    sees a color-1 star vertex in color 1 and a color-2 one in color 2
    is unprotected whichever color it takes, so the search drops a
    branch once those and the unprotected so far reach need, and it
    stops at the first whole star below need."""
    v = len(graph)
    full = (1 << (v + 1)) - 2

    def extend(x, one, two, hit, near_one, near_two):
        # near_one: the vertices that see some color-1 star vertex in
        # color 1; near_two likewise in color 2
        if x > v:
            return True
        bit = 1 << x
        row = graph[x - 1]
        rest = full >> (x + 1) << (x + 1)
        via = row & one
        first = hit | via | bit if via else hit
        near = near_one | row
        if (first | near & near_two & rest).bit_count() < need and extend(
            x + 1, one | bit, two, first, near, near_two
        ):
            return True
        other = full ^ row ^ bit
        via = two & other
        second = hit | via | bit if via else hit
        near = near_two | other
        return (second | near_one & near & rest).bit_count() < need and extend(
            x + 1, one, two | bit, second, near_one, near
        )

    return extend(1, 0, 0, 0, 0, 0)


def _max_protected_seed(n, k):
    """(cost, colors) of construct_f_lower(n, k), the incumbent's start,
    its cost minus its protected count as counted on the coloring, or
    (None, None) for k < 2 or n below the construction's
    gr_k3(k - 1) - 1 parts."""
    if k < 2 or n < gr_k3(k - 1) - 1:
        return None, None
    seed = construct_f_lower(n, k)
    return -count_protected_edges(seed), seed.colors


def max_protected_edges(
    n: int, k: int, *, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> SearchOutcome:
    """Exact maximum, over all k-colorings of K_n, of the number of
    edges contained in no rainbow and no monochromatic triangle."""
    _check_args(n, k, jobs, budget)
    # with no seed, start from a count of 0, which every coloring reaches;
    # no coloring protects more than all C(n,2) edges
    seed = _max_protected_seed(n, k)
    cost, witness_col, nodes, exhaustive = _seeded(
        n, k, False, _max_protected_hooks, seed, 0, -comb(n, 2), budget, jobs
    )
    value = -cost if cost is not None else None
    witness = Coloring(n, k, witness_col) if witness_col is not None else None
    return SearchOutcome("max_protected_edges", value, witness, nodes, exhaustive)


# ---------------------------------------------------------------------------
# singleton-variant pair search (Gallai, triangle-free, unsaturated)


def find_gr_star_pair_witness(
    n: int, k: int, *, budget: int = DEFAULT_BUDGET
) -> Coloring | None:
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
            _, k, _, _, _, start, _ = args
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


def _dispatch(n, k, class_of, gallai, objective, start, floor, budget, jobs):
    """Run the engine over the whole reduced space of K_n, its Gallai
    colorings alone when gallai is set, as one worker's walk and combine
    the walks: (least cost or None, its colors, nodes, exhaustive).
    Every run explores at most budget nodes.

    The walk is that of one job when jobs is 1, when the CPU count lowers
    it to 1, or when n <= 6, where K_6 leaves no subtree.  Otherwise, once
    the parent has leased more than _PROBE nodes, jobs - 1 helper
    processes walk the space too; the walks claim the subtrees below the
    colorings of K_6 and share one budget and one incumbent, which starts
    at cost `start`."""
    plan = _edge_plan(n)
    # no more processes than CPUs: the verdict does not depend on jobs
    jobs = min(jobs, os.cpu_count() or 1) if jobs > 1 and len(plan.idx) > _SPLIT else 1
    parent = _Worker((plan, k, class_of, gallai, objective, start, floor), budget, jobs)
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
