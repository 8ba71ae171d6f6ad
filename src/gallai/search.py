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
  * the colors along vertex 1's star must be nondecreasing.

One engine, `_search`, runs every objective: a depth-first loop over
the edges in that order with an explicit stack, so no n meets a depth
limit.  An objective adds three hooks (test-and-apply an edge, undo
it, and the cost of a leaf), and every objective minimizes a cost: the
monochromatic-triangle count, minus the protected-edge count, or 0
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

With jobs > 1 the space is split at the first depth that has at least
4 x jobs canonical prefixes, found by the same engine run on the
first edges only, and a pool of `jobs` processes takes the prefixes
one at a time.  All subtrees share one budget, leased in small slices
(a node the budget refuses is not counted, so a run explores at most
budget + 1 nodes for every jobs), and one incumbent: the least cost
and the index, in DFS order, of the earliest prefix that reached it.
A subtree prunes ties with a cost an earlier prefix found and keeps
ties with a later prefix's, and the results are combined in prefix
order, so unless the budget runs out the value, the witness and
`exhaustive` are those of the serial run.  A subtree stops once an
earlier prefix holds a leaf of the least cost, so for exists_avoiding
the first witness in prefix order decides the run.  Node counts with
jobs > 1 vary from run to run.
"""

from __future__ import annotations

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
    endpoints u < v, its pair index, the index pairs of the triangles it
    completes with earlier edges, and the index of the previous vertex-1
    star edge (-1 off the star and at (1,2))."""

    n: int
    u: list
    v: list
    idx: list
    tris: list
    star: list


def _edge_plan(n: int) -> _Plan:
    us, vs, idxs, trises, stars = [], [], [], [], []
    for v in range(2, n + 1):
        for u in range(1, v):
            us.append(u)
            vs.append(v)
            idxs.append(pair_index(n, u, v))
            trises.append(
                tuple((pair_index(n, w, u), pair_index(n, w, v)) for w in range(1, u))
            )
            stars.append(pair_index(n, 1, v - 1) if (u == 1 and v >= 3) else -1)
    return _Plan(n, us, vs, idxs, trises, stars)


class _ColorBook:
    """Tracks which colors a canonical coloring may use next.

    Colors are grouped into interchangeability classes; a color not yet
    on any edge is allowed only if it is the smallest unused color of
    its class.  Colors are released in LIFO order during backtracking,
    which keeps the per-class cursor consistent.
    """

    def __init__(self, k: int, class_of: Optional[Sequence[int]] = None):
        self.k = k
        if class_of is None:
            class_of = [0] * (k + 1)
        self.class_of = list(class_of)
        colors_by_class: dict[int, list[int]] = {}
        for c in range(1, k + 1):
            colors_by_class.setdefault(self.class_of[c], []).append(c)
        self.colors_by_class = colors_by_class
        self.fresh = {cls: 0 for cls in colors_by_class}
        self.used = [0] * (k + 1)

    def allowed(self, lo: int) -> list[int]:
        """The colors from lo up that the next edge may take."""
        out = []
        for c in range(lo, self.k + 1):
            if self.used[c]:
                out.append(c)
            else:
                cls = self.class_of[c]
                lst = self.colors_by_class[cls]
                f = self.fresh[cls]
                if f < len(lst) and lst[f] == c:
                    out.append(c)
        return out

    def use(self, c: int):
        if self.used[c] == 0:
            self.fresh[self.class_of[c]] += 1
        self.used[c] += 1

    def unuse(self, c: int):
        self.used[c] -= 1
        if self.used[c] == 0:
            self.fresh[self.class_of[c]] -= 1


# ---------------------------------------------------------------------------
# the engine


def _search(plan, k, class_of, objective, start, floor, budget, task=None):
    """Depth-first search over the canonical colorings of plan's edges
    for the first leaf, in DFS order, of least cost.

    objective(plan, col) returns three hooks over col, the colors by
    pair index, which the engine writes and never clears: the entries
    of edges before the current depth are current, later ones stale,
    and a triangle closed by edge t has its other two edges before t.

      * apply(t, c, cut) tests coloring edge t with c against the
        earlier edges and on success records the objective's state for
        depth t + 1; False rejects c, including when no completion can
        cost less than cut;
      * undo(t, c) reverts what apply changed beyond its per-depth
        state, or is None when nothing needs reverting;
      * leaf() returns the cost of the completed coloring.

    A leaf is kept when its cost is below cut, which starts at start + 1
    (so leaves that tie start are kept) and then drops to each kept
    leaf's cost.  No cost is below floor, so a kept leaf at floor ends
    the run.  A serial run (task None) stops at its first node over
    budget, which it counts; a parallel subtree replays task.prefix,
    leases its nodes from the shared budget and trades incumbents
    through the task.

    Returns (the kept leaf's cost or None, its colors, nodes,
    exhaustive)."""
    idxs, stars = plan.idx, plan.star
    m = len(idxs)
    # a trailing 1 after the n(n-1)/2 colors: col[star] is each edge's
    # least color, star = -1 marking no vertex-1 star bound
    col = [0] * comb(plan.n, 2) + [1]
    apply, undo, leaf = objective(plan, col)
    book = _ColorBook(k, class_of)
    allowed, use, unuse = book.allowed, book.use, book.unuse
    cut = start + 1
    best_col = None
    nodes = 0
    limit = budget if task is None else 0
    exhaustive = True
    prefix = task.prefix if task is not None else ()
    base = len(prefix)
    for t, c in enumerate(prefix):
        if c < col[stars[t]] or not apply(t, c, cut):
            base = -1  # the prefix itself is infeasible: its subtree is empty
            break
        col[idxs[t]] = c
        use(c)

    t = base
    its = [iter(())] * (m + 1)  # the untried candidates at each depth
    if 0 <= t < m:
        its[t] = iter(allowed(col[stars[t]]))
    while t >= base >= 0:
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
            use(c)
            t += 1
            if t < m:
                its[t] = iter(allowed(col[stars[t]]))
            break
        else:
            if t == m:
                cost = leaf()
                if cost < cut:
                    cut = cost
                    best_col = tuple(col[:-1])
                    if cut <= floor:
                        break
            t -= 1
            if t >= base:
                c = col[idxs[t]]
                unuse(c)
                if undo is not None:
                    undo(t, c)
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


def _min_mono_hooks(plan, col, gallai_only, split):
    """Cost: the monochromatic-triangle count.  apply also prunes on
    Goodman's counting bound: with s the sum of the per-vertex
    split-pair maxima, every completion has at least C(n,3) - s/2
    monochromatic triangles."""
    n, us, vs, _, trises, _ = plan
    m = len(us)
    triples = comb(n, 3)
    weight = [n ** (c - 1) for c in range(split.k + 1)]
    code = [0] * (n + 1)  # each vertex's color degrees, base n
    mono = [0] * (m + 1)  # the count after each depth
    s = [n * split[0]] * (m + 1)  # the split-pair sum after each depth

    def apply(t, c, cut):
        delta = 0
        for ia, ib in trises[t]:
            a = col[ia]
            b = col[ib]
            if a == b:
                if a == c:
                    delta += 1
            elif gallai_only and a != c and b != c:
                return False
        nm = mono[t] + delta
        if nm >= cut:
            return False
        u = us[t]
        v = vs[t]
        w = weight[c]
        cu = code[u]
        cv = code[v]
        ns = s[t] - split[cu] - split[cv] + split[cu + w] + split[cv + w]
        if triples - (ns >> 1) >= cut:
            return False
        mono[t + 1] = nm
        s[t + 1] = ns
        code[u] = cu + w
        code[v] = cv + w
        return True

    def undo(t, c):
        w = weight[c]
        code[us[t]] -= w
        code[vs[t]] -= w

    def leaf():
        return mono[m]

    return apply, undo, leaf


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


def _exists_hooks(plan, col, targets, gallai_only, saturation_cap):
    """Cost: 0 for every leaf; apply refuses an edge that completes its
    color's target, a rainbow triangle under gallai_only, or, with
    saturation_cap, a vertex that meets every color."""
    n, us, vs, _, trises, _ = plan
    k = len(targets)
    m = len(us)
    is_k3 = [False] + [target == TARGET_K3 for target in targets]
    adj = [[0] * (n + 1) for _ in range(k + 1)]  # c-neighbor bitsets
    members = [0] * (k + 1)  # vertices inside recorded pendant-free K4s
    members_before = [-1] * m  # members[c] before edge t recorded a K4
    vertex_colors = [0] * (n + 1)  # incident-color bitmasks (saturation prune)
    colors_before = [(0, 0)] * m  # vertex_colors of u and v before edge t
    full_colors = (1 << k) - 1

    def apply(t, c, cut):
        u = us[t]
        v = vs[t]
        for ia, ib in trises[t]:
            a = col[ia]
            b = col[ib]
            if a == b:
                if a == c and is_k3[c]:
                    return False
            elif gallai_only and a != c and b != c:
                return False
        bit = 1 << (c - 1)
        cu = vertex_colors[u]
        cv = vertex_colors[v]
        if saturation_cap and (cu | bit == full_colors or cv | bit == full_colors):
            return False
        before = -1
        if not is_k3[c]:
            if (members[c] >> (u - 1)) & 1 or (members[c] >> (v - 1)) & 1:
                return False  # pendant edge onto a recorded K4
            adj_c = adj[c]
            common = adj_c[u] & adj_c[v]
            quads = []
            rest = common
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length()
                higher = common & adj_c[w] & ~((1 << w) - 1)
                while higher:
                    lowx = higher & -higher
                    higher ^= lowx
                    quads.append((w, lowx.bit_length()))
            if quads:
                # a new clique whose vertex has any c-neighbor outside it
                # completes K4+e; pendant-free cliques are recorded so a
                # later edge at their vertices is refused immediately
                new_members = 0
                for w, x in quads:
                    mask = (
                        (1 << (u - 1)) | (1 << (v - 1)) | (1 << (w - 1)) | (1 << (x - 1))
                    )
                    for y in (u, v, w, x):
                        if adj_c[y] & ~mask:
                            return False
                    new_members |= mask
                before = members[c]
                members[c] |= new_members
        members_before[t] = before
        adj[c][u] |= 1 << (v - 1)
        adj[c][v] |= 1 << (u - 1)
        colors_before[t] = (cu, cv)
        vertex_colors[u] = cu | bit
        vertex_colors[v] = cv | bit
        return True

    def undo(t, c):
        u = us[t]
        v = vs[t]
        vertex_colors[u], vertex_colors[v] = colors_before[t]
        adj[c][u] ^= 1 << (v - 1)
        adj[c][v] ^= 1 << (u - 1)
        if members_before[t] >= 0:
            members[c] = members_before[t]

    def leaf():
        return 0

    return apply, undo, leaf


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


def _max_protected_hooks(plan, col):
    """Cost: minus the protected-edge count.  The edges of each
    monochromatic or rainbow triangle are unprotected, so the edges not
    yet unprotected bound every completion."""
    _, _, _, idxs, trises, _ = plan
    m = len(idxs)
    unprot = [0] * (m + 1)  # bitmask of the unprotected pair indices
    count = [0] * (m + 1)  # its popcount

    def apply(t, c, cut):
        mask = unprot[t]
        cnt = count[t]
        idx = idxs[t]
        for ia, ib in trises[t]:
            a = col[ia]
            b = col[ib]
            if (a == b == c) or (a != b and a != c and b != c):
                for j in (ia, ib, idx):
                    bit = 1 << j
                    if not mask & bit:
                        mask |= bit
                        cnt += 1
        if cnt - m >= cut:
            return False
        unprot[t + 1] = mask
        count[t + 1] = cnt
        return True

    def leaf():
        return count[m] - m

    return apply, None, leaf


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


def _prefix_hooks(plan, col, out):
    """Collects every canonical coloring of plan's edges, in column
    order, into out; its leaves cost inf, so none is kept."""
    idxs = plan.idx

    def leaf():
        out.append(tuple(col[i] for i in idxs))
        return inf

    return (lambda t, c, cut: True), None, leaf


def _split_prefixes(plan, k, jobs, class_of):
    """The canonical prefixes of the first depth that has at least
    4 x jobs of them (all canonical colorings if no depth has), in DFS
    order."""
    prefixes = [()]
    for depth in range(1, len(plan.idx) + 1):
        prefixes = []
        head = _Plan(plan.n, *(column[:depth] for column in plan[1:]))
        _search(head, k, class_of, partial(_prefix_hooks, out=prefixes), 0, 0, inf)
        if len(prefixes) >= 4 * jobs:
            break
    return prefixes


# nodes a parallel subtree leases from the shared budget at a time: small
# enough that subtrees trade incumbents every millisecond or so, large
# enough that the lock is rarely taken
_SLICE = 256


class _Subtree:
    """One task of a parallel run: its prefix, the prefix's position in
    DFS order, and the state all tasks of the run share.

    The shared state is an array [unleased budget, best cost, index of
    the earliest prefix that reached that cost], guarded by its lock.
    Before any prefix reaches a cost, the index is the number of
    prefixes, so every subtree keeps leaves that tie the starting cost.
    """

    def __init__(self, shared, index, prefix):
        self.lock = shared.get_lock()
        self.cells = shared.get_obj()
        self.index = index
        self.prefix = prefix
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
            best, first = cells[1], cells[2]
        self.leased += grant
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


# (engine arguments, prefixes, shared state) of the run a pool worker serves
_POOL_RUN = None


def _init_worker(*run):
    global _POOL_RUN
    _POOL_RUN = run


def _worker(index):
    args, prefixes, shared = _POOL_RUN
    return _search(*args, task=_Subtree(shared, index, prefixes[index]))


def _dispatch(n, k, class_of, objective, start, floor, budget, jobs):
    """Run the engine over the whole reduced space of K_n and combine its
    runs: (least cost or None, its colors, nodes, exhaustive).

    With jobs > 1 the space is split into prefixes that a pool takes one
    task at a time; the tasks share one budget and one incumbent, which
    starts at cost `start`."""
    plan = _edge_plan(n)
    args = (plan, k, class_of, objective, start, floor, budget)
    prefixes = _split_prefixes(plan, k, jobs, class_of) if jobs > 1 else []
    if len(prefixes) <= 1:
        return _combine(floor, [_search(*args)])
    import multiprocessing

    shared = multiprocessing.Array("q", [min(budget, 2**62), start, len(prefixes)])
    with multiprocessing.Pool(
        min(jobs, len(prefixes)), _init_worker, (args, prefixes, shared)
    ) as pool:
        return _combine(floor, pool.imap(_worker, range(len(prefixes))))


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
