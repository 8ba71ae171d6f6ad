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

Pruning: a branch dies when its partial monochromatic count already
meets the incumbent (minimization), when its optimistic protected-edge
bound cannot beat the incumbent (maximization), when a forbidden
monochromatic target or (under gallai_only) a rainbow triangle
completes.  The DFS visits colorings in lexicographic order of the
column order above and prunes ties, so the reported witness is the
smallest optimal coloring of the reduced space in that order,
deterministically.  That is not the pair order (1,2),(1,3),(1,4),...,
(2,3),... of Coloring.colors: the two orders share only their first
two edges, so comparing colors tuples does not find that witness.

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
    incumbent.  A 2-coloring has no rainbow triangle, so for k = 2 the
    identity is exact and, once the seeded optimum is found again, the
    bound closes the proof at once: min-mono(n,2) proves in under
    5,000 nodes for n <= 14, where the partial count alone needed a
    million at n = 8.

A node budget (default 10^9 assignments) bounds every run; exceeding it
degrades the outcome to exhaustive=False, never silently.

With jobs > 1 the space is split at the first depth that has at least
4 x jobs canonical prefixes, and a pool of `jobs` processes takes the
prefixes one at a time.  All subtrees share one budget, leased in small
slices (a node the budget refuses is not counted, so a run explores at
most budget + 1 nodes for every jobs), and one incumbent: the best
value and the index, in DFS order, of the earliest prefix that reached
it.  A subtree prunes ties with a value an earlier prefix found and
keeps ties with a later prefix's, and the results are combined in
prefix order, so unless the budget runs out the value, the witness and
`exhaustive` are those of the serial run.  For exists_avoiding the
first witness in prefix order decides the run and the later subtrees
stop.  Node counts with jobs > 1 vary from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

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


class _BudgetExceeded(Exception):
    pass


class _WitnessFound(Exception):
    pass


def _edge_plan(n: int):
    """Column-order traversal: (u, v, pair index, completed-triangle
    index pairs, index of the previous vertex-1 star edge or -1)."""
    plan = []
    for v in range(2, n + 1):
        for u in range(1, v):
            idx = pair_index(n, u, v)
            tris = tuple(
                (pair_index(n, w, u), pair_index(n, w, v)) for w in range(1, u)
            )
            prev_star = pair_index(n, 1, v - 1) if (u == 1 and v >= 3) else -1
            plan.append((u, v, idx, tris, prev_star))
    return plan


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

    def allowed(self) -> list[int]:
        out = []
        for c in range(1, self.k + 1):
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


def _min_mono_run(n, k, gallai_only, budget, incumbent, split, task=None):
    plan = _edge_plan(n)
    m = len(plan)
    col = [0] * m
    book = _ColorBook(k)
    triples = comb(n, 3)
    # a leaf is accepted when its count is below cut; starting one above
    # the incumbent (the seed's count, or C(n,3) without a seed) keeps
    # leaves that tie it, so the lexicographically first optimum is still
    # the one found
    cut = incumbent + 1
    # Goodman: every completion has at least C(n,3) - s/2 monochromatic
    # triangles, s the sum of the per-vertex split-pair maxima; a child
    # dies when the integer ceiling of that bound reaches cut, i.e. when
    # s < lim
    lim = 2 * (triples - cut) + 2
    weight = [n ** (c - 1) for c in range(k + 1)]
    code = [0] * (n + 1)
    nodes = 0
    limit = budget if task is None else 0
    best_col = None

    def refill():
        # nodes passed limit: a serial run is over budget; a parallel
        # subtree trades incumbents and leases the next slice
        nonlocal nodes, limit, cut, lim, best_col
        if task is None:
            raise _BudgetExceeded
        grant, best, first = task.trade(cut if best_col is not None else None)
        if not grant:
            nodes -= 1  # the refused node is not explored
            raise _BudgetExceeded
        limit += grant
        if first != task.index:
            best_col = None  # another prefix holds the best leaf
        cut = min(cut, best if first <= task.index else best + 1)
        lim = 2 * (triples - cut) + 2

    def mono_delta(tris, c):
        # returns (new mono triangles, rainbow seen) for coloring the
        # current edge c against already-assigned edge pairs
        delta = 0
        for ia, ib in tris:
            a = col[ia]
            b = col[ib]
            if a == b:
                if a == c:
                    delta += 1
            elif gallai_only and a != c and b != c:
                return -1
        return delta

    def rec(t, mono, s):
        nonlocal nodes, cut, lim, best_col
        if t == m:
            if mono < cut:
                cut = mono
                lim = 2 * (triples - cut) + 2
                best_col = tuple(col)
            return
        u, v, idx, tris, prev_star = plan[t]
        lo = col[prev_star] if prev_star >= 0 else 1
        cu = code[u]
        cv = code[v]
        rest = s - split[cu] - split[cv]
        for c in book.allowed():
            if c < lo:
                continue
            delta = mono_delta(tris, c)
            if delta < 0:
                continue
            nm = mono + delta
            if nm >= cut:
                continue
            w = weight[c]
            ns = rest + split[cu + w] + split[cv + w]
            if ns < lim:
                continue
            nodes += 1
            if nodes > limit:
                refill()
            col[idx] = c
            code[u] = cu + w
            code[v] = cv + w
            book.use(c)
            rec(t + 1, nm, ns)
            book.unuse(c)
            code[u] = cu
            code[v] = cv
            col[idx] = 0

    # replay a fixed prefix (parallel subtree roots); abandon the
    # subtree if the prefix itself is infeasible
    prefix = task.prefix if task is not None else ()
    mono = 0
    feasible = True
    for t, c in enumerate(prefix):
        u, v, idx, tris, prev_star = plan[t]
        lo = col[prev_star] if prev_star >= 0 else 1
        delta = mono_delta(tris, c) if c >= lo else -1
        if delta < 0:
            feasible = False
            break
        mono += delta
        code[u] += weight[c]
        code[v] += weight[c]
        col[idx] = c
        book.use(c)

    exhaustive = True
    if feasible:
        try:
            rec(len(prefix), mono, sum(split[code[v]] for v in range(1, n + 1)))
        except _BudgetExceeded:
            exhaustive = False
    found = cut if best_col is not None else None
    if task is not None:
        task.settle(nodes, found)
    return found, best_col, nodes, exhaustive


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
    _check_args(n, k, jobs)
    seed_value, seed_col = _min_mono_seed(n, k, gallai_only)
    incumbent = comb(n, 3) if seed_value is None else seed_value
    runs = _dispatch(
        _min_mono_run,
        dict(
            n=n,
            k=k,
            gallai_only=gallai_only,
            budget=budget,
            incumbent=incumbent,
            split=_SplitPairs(n, k),
        ),
        jobs,
        class_of=None,
        start=incumbent,
    )
    value, witness_col, nodes, exhaustive = _combine_optimum(runs, minimize=True)
    if witness_col is None and not exhaustive and seed_col is not None:
        # the budget ran out before a leaf at or below the seed: the seed
        # is the best coloring known
        value, witness_col = seed_value, seed_col
    witness = Coloring(n, k, witness_col) if witness_col is not None else None
    return SearchOutcome("min_mono_triangles", value, witness, nodes, exhaustive)


# ---------------------------------------------------------------------------
# existence of a coloring avoiding per-color targets


def _exists_run(n, k, targets, gallai_only, budget, saturation_cap=False, task=None):
    plan = _edge_plan(n)
    m = len(plan)
    col = [0] * m
    is_k3 = [False] * (k + 1)
    is_k4e = [False] * (k + 1)
    class_ids = {}
    class_of = [0] * (k + 1)
    for c in range(1, k + 1):
        class_of[c] = class_ids.setdefault(targets[c - 1], len(class_ids))
        if targets[c - 1] == TARGET_K3:
            is_k3[c] = True
        else:
            is_k4e[c] = True
    book = _ColorBook(k, class_of)

    adj = [[0] * (n + 1) for _ in range(k + 1)]  # c-neighbor bitsets
    members = [0] * (k + 1)  # vertices inside recorded pendant-free K4s
    k4_log: list[tuple[int, int]] = []  # (color, previous members mask)
    vertex_colors = [0] * (n + 1)  # incident-color bitmasks (saturation prune)
    full_colors = (1 << k) - 1
    state = {"nodes": 0, "witness": None}
    limit = budget if task is None else 0

    def refill():
        # nodes passed limit: a serial run is over budget; a parallel
        # subtree leases the next slice, unless an earlier prefix already
        # holds a witness
        nonlocal limit
        if task is None:
            raise _BudgetExceeded
        grant, _, first = task.trade(None)
        if not grant or first < task.index:
            state["nodes"] -= 1  # the refused node is not explored
            raise _BudgetExceeded
        limit += grant

    def try_color(t, c):
        """Validity checks + state updates for coloring edge t with c.
        Returns an undo token, or None when forbidden."""
        u, v, idx, tris, _ = plan[t]
        for ia, ib in tris:
            a = col[ia]
            b = col[ib]
            if a == b:
                if a == c and is_k3[c]:
                    return None
            elif gallai_only and a != c and b != c:
                return None
        if saturation_cap:
            if (vertex_colors[u] | (1 << (c - 1))) == full_colors:
                return None
            if (vertex_colors[v] | (1 << (c - 1))) == full_colors:
                return None
        recorded = 0
        if is_k4e[c]:
            if (members[c] >> (u - 1)) & 1 or (members[c] >> (v - 1)) & 1:
                return None  # pendant edge onto a recorded K4
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
                            return None
                    new_members |= mask
                k4_log.append((c, members[c]))
                members[c] |= new_members
                recorded = 1
        col[idx] = c
        book.use(c)
        adj[c][u] |= 1 << (v - 1)
        adj[c][v] |= 1 << (u - 1)
        prev_u, prev_v = vertex_colors[u], vertex_colors[v]
        vertex_colors[u] |= 1 << (c - 1)
        vertex_colors[v] |= 1 << (c - 1)
        return (t, c, recorded, prev_u, prev_v)

    def undo(token):
        t, c, recorded, prev_u, prev_v = token
        u, v, idx, _, _ = plan[t]
        vertex_colors[u], vertex_colors[v] = prev_u, prev_v
        adj[c][u] ^= 1 << (v - 1)
        adj[c][v] ^= 1 << (u - 1)
        book.unuse(c)
        col[idx] = 0
        if recorded:
            color, prev = k4_log.pop()
            members[color] = prev

    def rec(t):
        if t == m:
            state["witness"] = tuple(col)
            raise _WitnessFound
        _, _, _, _, prev_star = plan[t]
        lo = col[prev_star] if prev_star >= 0 else 1
        for c in book.allowed():
            if c < lo:
                continue
            token = try_color(t, c)
            if token is None:
                continue
            state["nodes"] += 1
            if state["nodes"] > limit:
                refill()
            rec(t + 1)
            undo(token)

    prefix = task.prefix if task is not None else ()
    feasible = True
    for t, c in enumerate(prefix):
        _, _, _, _, prev_star = plan[t]
        lo = col[prev_star] if prev_star >= 0 else 1
        token = try_color(t, c) if c >= lo else None
        if token is None:
            feasible = False
            break

    exhaustive = True
    if feasible:
        try:
            rec(len(prefix))
        except _WitnessFound:
            pass
        except _BudgetExceeded:
            exhaustive = False
    found = state["witness"]
    if task is not None:
        task.settle(state["nodes"], 0 if found is not None else None)
    value = 1 if found is not None else (0 if exhaustive else None)
    return value, found, state["nodes"], exhaustive or found is not None


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
    _check_args(n, k, jobs)
    targets = list(targets)
    if len(targets) != k:
        raise ValueError(f"need one target per color: got {len(targets)} for k={k}")
    for tgt in targets:
        if tgt not in (TARGET_K3, TARGET_K4E):
            raise ValueError(f"unknown target {tgt!r}")
    runs = _dispatch(
        _exists_run,
        dict(n=n, k=k, targets=targets, gallai_only=gallai_only, budget=budget),
        jobs,
        class_of=_target_classes(k, targets),
        start=_NO_WITNESS,
    )
    value, witness_col, nodes, exhaustive = _combine_exists(runs)
    witness = Coloring(n, k, witness_col) if witness_col is not None else None
    return SearchOutcome("exists_avoiding", value, witness, nodes, exhaustive)


def _target_classes(k, targets):
    class_ids: dict[str, int] = {}
    return [0] + [class_ids.setdefault(t, len(class_ids)) for t in targets]


# ---------------------------------------------------------------------------
# maximum protected edges


def _max_protected_run(n, k, budget, task=None):
    plan = _edge_plan(n)
    m = len(plan)
    col = [0] * m
    book = _ColorBook(k)
    state = {"nodes": 0, "best": None, "best_col": None}
    limit = budget if task is None else 0

    def refill():
        # nodes passed limit: a serial run is over budget; a parallel
        # subtree trades incumbents (as negated counts) and leases the
        # next slice
        nonlocal limit
        if task is None:
            raise _BudgetExceeded
        own = -state["best"] if state["best_col"] is not None else None
        grant, best, first = task.trade(own)
        if not grant:
            state["nodes"] -= 1  # the refused node is not explored
            raise _BudgetExceeded
        limit += grant
        if first != task.index:
            state["best_col"] = None  # another prefix holds the best leaf
        floor = -best if first <= task.index else -best - 1
        if state["best"] is None or floor > state["best"]:
            state["best"] = floor

    def damage(tris, idx, c, unprot, count):
        """Mark edges of new mono/rainbow triangles as unprotected."""
        for ia, ib in tris:
            a = col[ia]
            b = col[ib]
            if (a == b == c) or (a != b and a != c and b != c):
                for j in (ia, ib, idx):
                    bit = 1 << j
                    if not unprot & bit:
                        unprot |= bit
                        count += 1
        return unprot, count

    def rec(t, unprot, count):
        if t == m:
            value = m - count
            if state["best"] is None or value > state["best"]:
                state["best"] = value
                state["best_col"] = tuple(col)
            return
        u, v, idx, tris, prev_star = plan[t]
        lo = col[prev_star] if prev_star >= 0 else 1
        for c in book.allowed():
            if c < lo:
                continue
            new_unprot, new_count = damage(tris, idx, c, unprot, count)
            best = state["best"]
            if best is not None and m - new_count <= best:
                continue
            state["nodes"] += 1
            if state["nodes"] > limit:
                refill()
            col[idx] = c
            book.use(c)
            rec(t + 1, new_unprot, new_count)
            book.unuse(c)
            col[idx] = 0

    prefix = task.prefix if task is not None else ()
    unprot, count = 0, 0
    feasible = True
    for t, c in enumerate(prefix):
        _, _, idx, tris, prev_star = plan[t]
        lo = col[prev_star] if prev_star >= 0 else 1
        if c < lo:
            feasible = False
            break
        unprot, count = damage(tris, idx, c, unprot, count)
        col[idx] = c
        book.use(c)

    exhaustive = True
    if feasible:
        try:
            rec(len(prefix), unprot, count)
        except _BudgetExceeded:
            exhaustive = False
    found = state["best"] if state["best_col"] is not None else None
    if task is not None:
        task.settle(state["nodes"], -found if found is not None else None)
    return found, state["best_col"], state["nodes"], exhaustive


def max_protected_edges(
    n: int, k: int, *, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> SearchOutcome:
    """Exact maximum, over all k-colorings of K_n, of the number of
    edges contained in no rainbow and no monochromatic triangle."""
    _check_args(n, k, jobs)
    # start from a count of 0, which every coloring reaches
    runs = _dispatch(
        _max_protected_run, dict(n=n, k=k, budget=budget), jobs, class_of=None, start=0
    )
    value, witness_col, nodes, exhaustive = _combine_optimum(runs, minimize=False)
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
    _check_args(n, k)
    value, witness_col, _, exhaustive = _exists_run(
        n,
        k,
        targets=[TARGET_K3] * k,
        gallai_only=True,
        budget=budget,
        saturation_cap=True,
    )
    if not exhaustive and witness_col is None:
        raise RuntimeError(f"budget exhausted deciding n={n}, k={k}")
    return Coloring(n, k, witness_col) if witness_col is not None else None


# ---------------------------------------------------------------------------
# shared driver plumbing


def _check_args(n, k, jobs=1):
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n} k={k}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")


def _enumerate_prefixes(n, k, depth, class_of):
    """All canonical-valid color tuples for the first `depth` edges."""
    plan = _edge_plan(n)
    depth = min(depth, len(plan))
    book = _ColorBook(k, class_of)
    col = [0] * len(plan)
    chosen: list[int] = []
    out: list[tuple[int, ...]] = []

    def rec(t):
        if t == depth:
            out.append(tuple(chosen))
            return
        _, _, idx, _, prev_star = plan[t]
        lo = col[prev_star] if prev_star >= 0 else 1
        for c in book.allowed():
            if c < lo:
                continue
            col[idx] = c
            chosen.append(c)
            book.use(c)
            rec(t + 1)
            book.unuse(c)
            chosen.pop()
            col[idx] = 0

    rec(0)
    return out


def _split_prefixes(n, k, jobs, class_of):
    """The canonical prefixes of the first depth that has at least
    4 x jobs of them (all canonical colorings if no depth has), in DFS
    order."""
    prefixes = [()]
    for depth in range(1, comb(n, 2) + 1):
        prefixes = _enumerate_prefixes(n, k, depth, class_of)
        if len(prefixes) >= 4 * jobs:
            break
    return prefixes


# nodes a parallel subtree leases from the shared budget at a time: small
# enough that subtrees trade incumbents every millisecond or so, large
# enough that the lock is rarely taken
_SLICE = 256

# the shared cost that exists_avoiding starts from; a witness costs 0
_NO_WITNESS = 1


class _Subtree:
    """One task of a parallel run: its prefix, the prefix's position in
    DFS order, and the state all tasks of the run share.

    The shared state is an array [unleased budget, best cost, index of
    the earliest prefix that reached that cost], guarded by its lock.  A
    cost is minimized: a monochromatic count, a negated protected-edge
    count, or 0 for an avoiding coloring.  Before any prefix reaches a
    cost, the index is the number of prefixes, so every subtree keeps
    leaves that tie the starting cost.
    """

    def __init__(self, shared, index, prefix):
        self.lock = shared.get_lock()
        self.cells = shared.get_obj()
        self.index = index
        self.prefix = prefix
        self.leased = 0

    def trade(self, found):
        """Publish this subtree's best cost (None when it has no leaf),
        lease the next slice of the budget, and return (slice, best cost,
        index of the prefix holding it).  A slice of 0 is a refusal."""
        cells = self.cells
        with self.lock:
            self._publish(found)
            grant = min(_SLICE, cells[0])
            cells[0] -= grant
            best, first = cells[1], cells[2]
        self.leased += grant
        return grant, best, first

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


# (kernel, params, prefixes, shared state) of the run a pool worker serves
_POOL_RUN = None


def _init_worker(*run):
    global _POOL_RUN
    _POOL_RUN = run


def _worker(index):
    kernel, params, prefixes, shared = _POOL_RUN
    return kernel(task=_Subtree(shared, index, prefixes[index]), **params)


def _dispatch(kernel, params, jobs, class_of, start):
    """Run kernel(**params) over the whole reduced space and return its
    runs in DFS order.

    With jobs > 1 the space is split into prefixes that a pool takes one
    task at a time; the tasks share one budget and one incumbent, which
    starts at cost `start`."""
    prefixes = _split_prefixes(params["n"], params["k"], jobs, class_of) if jobs > 1 else []
    if len(prefixes) <= 1:
        return [kernel(**params)]
    import multiprocessing

    budget = max(0, min(params["budget"], 2**62))
    shared = multiprocessing.Array("q", [budget, start, len(prefixes)])
    with multiprocessing.Pool(
        min(jobs, len(prefixes)), _init_worker, (kernel, params, prefixes, shared)
    ) as pool:
        return list(pool.imap(_worker, range(len(prefixes))))


def _combine_optimum(runs, minimize):
    # runs come in DFS order, so the first run holding the optimum holds
    # the lexicographically first optimal leaf
    nodes = sum(r[2] for r in runs)
    exhaustive = all(r[3] for r in runs)
    best, best_col = None, None
    for value, colors, _, _ in runs:
        if value is None:
            continue
        if best is None or (value < best if minimize else value > best):
            best, best_col = value, colors
    return best, best_col, nodes, exhaustive


def _combine_exists(runs):
    nodes = sum(r[2] for r in runs)
    for value, colors, _, concl in runs:
        if value == 1:
            return 1, colors, nodes, True
    exhaustive = all(r[3] for r in runs)
    return (0 if exhaustive else None), None, nodes, exhaustive
