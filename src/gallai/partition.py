"""Constructive decomposition of Gallai colorings.

A Gallai partition of a coloring of K_n (n >= 2) splits the vertex set
into at least two parts so that each pair of parts is joined in one
color and at most two colors appear between parts in total.  Every
Gallai coloring has one (Gallai 1967; Gyarfas & Simonyi, J. Graph
Theory 46, 2004).  The algorithm rests on one lemma.

Lemma.  Take a Gallai coloring and a color set S.  Distinct components
A and B of the graph of edges whose color is not in S are joined in a
single color.

Proof.  Let u, u' in A be joined by an edge of color c not in S, and
let w be in B.  The edges uw and u'w have colors in S, else w would lie
in A.  Triangle uu'w is not rainbow and c differs from both colors, so
c(uw) = c(u'w).  A is connected, so w sees all of A in one color; by
symmetry each u in A sees all of B in one color, and together the two
make every A-B edge one color.

So for |S| <= 2 the non-S components form a Gallai partition as soon as
there are at least two of them.  Conversely, the parts of any Gallai
partition whose between-colors lie in S are unions of non-S components,
since a non-S edge never joins two parts.  A Gallai partition exists, so
some S of size 1 or 2 splits the graph, and trying the candidate sets in
lexicographic order finds the first one.
"""

from __future__ import annotations

from typing import NamedTuple

from .census import find_rainbow_triangle, triangle_census
from .coloring import Coloring


class NotGallaiError(ValueError):
    """Input coloring has a rainbow triangle; carries one witness."""

    def __init__(self, witness: tuple[int, int, int]):
        self.witness = witness
        super().__init__(f"coloring has a rainbow triangle at {witness}")


class GallaiPartition(NamedTuple):
    """A vertex partition with monochromatic part-pairs.

    parts are sorted vertex tuples, ordered by smallest member; reduced
    is the coloring on one vertex per part recording each pair's
    between-color.
    """

    parts: tuple[tuple[int, ...], ...]
    between_colors: frozenset[int]
    reduced: Coloring


def _candidate_color_sets(k: int) -> list[tuple[int, ...]]:
    sets = [(a,) for a in range(1, k + 1)]
    sets += [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    return sorted(sets)


def _vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask (vertex v <-> bit v-1), ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _components_outside(coloring: Coloring, s: tuple[int, ...]) -> list[int]:
    """Vertex bitmasks of the components of the graph formed by edges
    whose color is not in s, in order of their lowest vertex."""
    adj = coloring.adjacency()
    inside = [adj[c] for c in s]
    comps = []
    unseen = (1 << coloring.n) - 1
    while unseen:
        comp = frontier = unseen & -unseen
        unseen ^= comp
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            v = low.bit_length()
            # every pair has one color, so the unseen non-s neighbors of
            # v are the unseen vertices it does not reach in a color of s
            fresh = unseen
            for adj_c in inside:
                fresh &= ~adj_c[v]
            unseen ^= fresh
            comp |= fresh
            frontier |= fresh
        comps.append(comp)
    return comps


def find_gallai_partition(coloring: Coloring) -> GallaiPartition:
    """Produce a Gallai partition of a rainbow-triangle-free coloring.

    Deterministic: the parts are the components of the graph of edges
    whose color lies outside the first candidate color set S (sets of
    size 1 or 2 in lexicographic order) with at least two of them, in
    order of their lowest vertex.  By the module's lemma every pair of
    parts is monochromatic, so the reduced color of parts A and B is the
    color of their lowest vertices.  Raises NotGallaiError with a
    witness triangle on non-Gallai input, ValueError for n < 2.
    """
    n = coloring.n
    if n < 2:
        raise ValueError("partition needs n >= 2")
    if triangle_census(coloring).rainbow > 0:
        raise NotGallaiError(find_rainbow_triangle(coloring))
    for s in _candidate_color_sets(coloring.k):
        comps = _components_outside(coloring, s)
        if len(comps) >= 2:
            break
    else:
        raise AssertionError("no Gallai partition found for a Gallai coloring")
    parts = tuple(_vertices(comp) for comp in comps)
    lows = [part[0] for part in parts]
    colors = coloring.colors
    reduced = []
    for a, u in enumerate(lows):
        row = (u - 1) * n - u * (u + 1) // 2 - 1  # index of pair (u, v) is row + v
        reduced.extend(colors[row + v] for v in lows[a + 1 :])
    return GallaiPartition(
        parts=parts,
        between_colors=frozenset(reduced),
        reduced=Coloring(len(parts), coloring.k, reduced),
    )


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
    adj = coloring.adjacency()
    masks = [sum(1 << (v - 1) for v in part) for part in parts]
    reduced = iter(partition.reduced.colors)
    for a, part in enumerate(parts):
        # common[c]: the vertices every member of part a sees in color c
        common: dict[int, int] = {}
        for mask, c in zip(masks[a + 1 :], reduced):
            seen_in_c = common.get(c)
            if seen_in_c is None:
                seen_in_c = -1
                for u in part:
                    seen_in_c &= adj[c][u]
                common[c] = seen_in_c
            if mask & ~seen_in_c:
                return False
    between = set(partition.reduced.colors)
    if len(between) > 2:
        return False
    return between == set(partition.between_colors)


def coarsen_to_min_parts(coloring: Coloring, partition: GallaiPartition) -> GallaiPartition:
    """Merge pairs of parts (keeping every part-pair monochromatic)
    until no pair can merge.

    Two parts may merge iff they see every third part in the same
    color; the scan always merges the lexicographically first such
    pair, so the output is deterministic.  The result is not always the
    minimum part count among valid coarsenings: when the minimum has to
    merge several parts whose quotient is prime (a P4 in some color,
    say), no pair of them can merge, and the scan stops early.
    """
    parts = [list(p) for p in partition.parts]
    t = len(parts)
    # 0-based color matrix of the current parts, 0 on the diagonal
    matrix = [[0] * t for _ in range(t)]
    colors = iter(partition.reduced.colors)
    for a in range(t):
        row = matrix[a]
        for b, c in zip(range(a + 1, t), colors):
            row[b] = matrix[b][a] = c

    while t > 2:  # two parts are always a valid floor
        pair = next(
            (
                (a, b)
                for a in range(t)
                for b in range(a + 1, t)
                if matrix[a][:a] == matrix[b][:a]
                and matrix[a][a + 1 : b] == matrix[b][a + 1 : b]
                and matrix[a][b + 1 :] == matrix[b][b + 1 :]
            ),
            None,
        )
        if pair is None:
            break
        a, b = pair
        parts[a] = sorted(parts[a] + parts[b])
        del parts[b]
        del matrix[b]
        for row in matrix:
            del row[b]
        t -= 1

    order = sorted(range(t), key=lambda i: parts[i][0])
    reduced = [matrix[i][j] for x, i in enumerate(order) for j in order[x + 1 :]]
    return GallaiPartition(
        parts=tuple(tuple(parts[i]) for i in order),
        between_colors=frozenset(reduced),
        reduced=Coloring(t, coloring.k, reduced),
    )
