"""Constructive decomposition of Gallai colorings.

Every Gallai coloring of K_n (n >= 2) admits a partition of the vertex
set into at least two parts such that each pair of parts is joined
monochromatically and at most two colors appear between parts in total.
The algorithm here finds one: for each candidate color set S of size 1
or 2, taken in lexicographic order, it forms the connected components
of the graph of edges whose color lies OUTSIDE S, then merges any two
components joined by more than one color until no bichromatic pair of
parts remains, and returns the first S whose fixpoint keeps at least
two parts.

Correctness: a valid partition with between-part colors inside S has
parts that are unions of non-S components, and edges between distinct
valid parts are monochromatic, so merging never crosses its boundaries;
the fixpoint therefore refines every such partition and in particular
stays nontrivial whenever one exists.  (On Gallai inputs the merge
stage is typically a no-op: vertices joined by a non-S path see every
external vertex in one color, else a rainbow triangle would arise.)
"""

from __future__ import annotations

from dataclasses import dataclass

from .census import find_rainbow_triangle, triangle_census
from .coloring import Coloring, pair_index


class NotGallaiError(ValueError):
    """Input coloring has a rainbow triangle; carries one witness."""

    def __init__(self, witness: tuple[int, int, int]):
        self.witness = witness
        super().__init__(f"coloring has a rainbow triangle at {witness}")


@dataclass(frozen=True)
class GallaiPartition:
    """A vertex partition with monochromatic part-pairs.

    parts are sorted vertex tuples, ordered by smallest member; reduced
    is the coloring on one vertex per part recording each pair's
    between-color.
    """

    parts: tuple[tuple[int, ...], ...]
    between_colors: frozenset[int]
    reduced: Coloring


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra


def _candidate_color_sets(k: int) -> list[tuple[int, ...]]:
    sets = [(a,) for a in range(1, k + 1)]
    sets += [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    return sorted(sets)


def _components_outside(coloring: Coloring, colors: frozenset[int]) -> list[int]:
    """Component id per vertex (index 0 unused) of the graph formed by
    edges whose color is not in the given set."""
    n = coloring.n
    uf = _UnionFind(n + 1)
    pair_colors = iter(coloring.colors)
    for u in range(1, n + 1):
        for v, c in zip(range(u + 1, n + 1), pair_colors):
            if c not in colors:
                uf.union(u, v)
    roots = {}
    comp = [0] * (n + 1)
    for v in range(1, n + 1):
        r = uf.find(v)
        comp[v] = roots.setdefault(r, len(roots))
    return comp


def _merge_fixpoint(coloring: Coloring, s: tuple[int, ...]):
    """Run the component-then-merge procedure for one candidate color
    set; returns (groups, pair_color) with pair_color keyed by group
    index pairs, or None when everything collapses to a single part."""
    n = coloring.n
    s_set = frozenset(s)
    comp = _components_outside(coloring, s_set)
    p = max(comp) + 1 if n else 0
    if p < 2:
        return None

    # between-component color table; None marks a bichromatic pair
    table: dict[tuple[int, int], int | None] = {}
    worklist: list[tuple[int, int]] = []
    colors = iter(coloring.colors)
    for u in range(1, n + 1):
        for v, c in zip(range(u + 1, n + 1), colors):
            i, j = comp[u], comp[v]
            if i == j:
                continue
            key = (i, j) if i < j else (j, i)
            prev = table.get(key, 0)
            if prev == 0:
                table[key] = c
            elif prev is not None and prev != c:
                table[key] = None
                worklist.append(key)

    uf = _UnionFind(p)
    active = set(range(p))
    while worklist:
        i, j = worklist.pop()
        ri, rj = uf.find(i), uf.find(j)
        if ri == rj:
            continue
        key = (ri, rj) if ri < rj else (rj, ri)
        if table.get(key, 0) is not None:
            continue  # pair already repaired by an earlier merge
        r = uf.union(ri, rj)
        other = rj if r == ri else ri
        active.discard(other)
        table.pop(key, None)
        for l in active:
            if l == r:
                continue
            ka = (r, l) if r < l else (l, r)
            kb = (other, l) if other < l else (l, other)
            va = table.pop(ka, 0)
            vb = table.pop(kb, 0)
            merged = va if va == vb else None
            table[ka] = merged
            if merged is None:
                worklist.append(ka)
    if len(active) < 2:
        return None

    groups: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        groups.setdefault(uf.find(comp[v]), []).append(v)
    pair_color = {}
    order = sorted(active)
    for ai, ri in enumerate(order):
        for rj in order[ai + 1 :]:
            key = (ri, rj) if ri < rj else (rj, ri)
            pair_color[(ri, rj)] = table[key]
    return [sorted(groups[r]) for r in order], pair_color, order


def _build_partition(coloring, groups, pair_color, order) -> GallaiPartition:
    ordered = sorted(range(len(groups)), key=lambda i: groups[i][0])
    parts = tuple(tuple(groups[i]) for i in ordered)
    t = len(parts)
    reduced_colors = [0] * (t * (t - 1) // 2)
    between = set()
    for a in range(t):
        for b in range(a + 1, t):
            ra, rb = order[ordered[a]], order[ordered[b]]
            key = (ra, rb) if ra < rb else (rb, ra)
            c = pair_color[key]
            reduced_colors[pair_index(t, a + 1, b + 1)] = c
            between.add(c)
    reduced = Coloring(t, coloring.k, reduced_colors)
    return GallaiPartition(parts=parts, between_colors=frozenset(between), reduced=reduced)


def find_gallai_partition(coloring: Coloring) -> GallaiPartition:
    """Produce a Gallai partition of a rainbow-triangle-free coloring.

    Deterministic: the first candidate color set (in lexicographic
    order) whose fixpoint keeps >= 2 parts wins.  Raises NotGallaiError
    with a witness triangle on non-Gallai input, ValueError for n < 2.
    """
    if coloring.n < 2:
        raise ValueError("partition needs n >= 2")
    if triangle_census(coloring).rainbow > 0:
        raise NotGallaiError(find_rainbow_triangle(coloring))
    for s in _candidate_color_sets(coloring.k):
        result = _merge_fixpoint(coloring, s)
        if result is not None:
            groups, pair_color, order = result
            return _build_partition(coloring, groups, pair_color, order)
    raise AssertionError("no Gallai partition found for a Gallai coloring")


def verify_gallai_partition(coloring: Coloring, partition: GallaiPartition) -> bool:
    """Check every partition invariant against the coloring."""
    n = coloring.n
    parts = partition.parts
    if len(parts) < 2:
        return False
    seen: set[int] = set()
    for part in parts:
        if not part:
            return False
        for v in part:
            if not 1 <= v <= n or v in seen:
                return False
            seen.add(v)
    if len(seen) != n:
        return False
    t = len(parts)
    if partition.reduced.n != t or partition.reduced.k != coloring.k:
        return False
    between = set()
    for a in range(t):
        for b in range(a + 1, t):
            colors = {coloring.color(u, v) for u in parts[a] for v in parts[b]}
            if len(colors) != 1:
                return False
            c = colors.pop()
            if partition.reduced.color(a + 1, b + 1) != c:
                return False
            between.add(c)
    if len(between) > 2:
        return False
    return between == set(partition.between_colors)


def coarsen_to_min_parts(coloring: Coloring, partition: GallaiPartition) -> GallaiPartition:
    """Greedily merge parts (keeping every part-pair monochromatic)
    until no merge applies, reaching the minimum part count among valid
    coarsenings.

    Two parts may merge iff they see every third part in the same
    color; the scan always merges the lexicographically first such
    pair, so the output is deterministic.
    """
    parts = [list(p) for p in partition.parts]
    reduced = [
        [0] * (len(parts) + 1) for _ in range(len(parts) + 1)
    ]  # 1-based color matrix of the current parts
    for a in range(1, len(parts) + 1):
        for b in range(a + 1, len(parts) + 1):
            c = partition.reduced.color(a, b)
            reduced[a][b] = reduced[b][a] = c

    t = len(parts)
    while t > 2:  # two parts are always a valid floor
        merged = False
        for a in range(t):
            for b in range(a + 1, t):
                if all(
                    reduced[a + 1][l + 1] == reduced[b + 1][l + 1]
                    for l in range(t)
                    if l != a and l != b
                ):
                    parts[a] = sorted(parts[a] + parts[b])
                    del parts[b]
                    # rebuild the color matrix without row/column b+1
                    new = [[0] * t for _ in range(t)]
                    keep = [i for i in range(1, t + 1) if i != b + 1]
                    for x, ox in enumerate(keep, start=1):
                        for y, oy in enumerate(keep, start=1):
                            new[x][y] = reduced[ox][oy]
                    reduced = new
                    t -= 1
                    merged = True
                    break
            if merged:
                break
        if not merged:
            break

    order = sorted(range(t), key=lambda i: parts[i][0])
    out_parts = tuple(tuple(parts[i]) for i in order)
    colors = [0] * (t * (t - 1) // 2)
    between = set()
    for a in range(t):
        for b in range(a + 1, t):
            c = reduced[order[a] + 1][order[b] + 1]
            colors[pair_index(t, a + 1, b + 1)] = c
            between.add(c)
    return GallaiPartition(
        parts=out_parts,
        between_colors=frozenset(between),
        reduced=Coloring(t, coloring.k, colors),
    )
