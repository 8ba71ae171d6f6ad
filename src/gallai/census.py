"""Triangle censuses and monochromatic-subgraph detection.

The triangle census classifies every vertex triple of K_n as
monochromatic (one color on its three edges), bichromatic (exactly two
colors) or rainbow (three colors).  A coloring is a Gallai coloring when
its rainbow count is zero.

Counting strategy: monochromatic triangles come from per-color adjacency
bitsets (popcount of common neighborhoods along each edge, divided by
three).  Every non-monochromatic triangle has exactly one vertex where
its two same-colored edges meet, so the "monochromatic cherry" sum
    sum_v sum_c C(deg_c(v), 2)
equals 3*mono + bichromatic, which yields the bichromatic count without
triple enumeration; the rainbow count follows from the total C(n,3).
This keeps the census near O(n^2) per color, fast enough for the
n ~ 300 construction checks.

Hunt order: the K3/K4/K4+e hunts orient every edge of the color class
from its lower vertex to its higher one and run over u < v < w (< x)
with each vertex taken from the common higher neighborhood of the ones
before it (Chiba & Nishizeki, SIAM J. Comput. 14, 1985).  Each clique
is reached exactly once, in lexicographic order of its sorted vertex
tuple, so the reported witness is the lexicographically smallest: the
smallest K3, the smallest K4, and for K4+e the smallest K4 with a
vertex of color-degree above 3, followed by the lowest-numbered pendant
neighbor of the lowest such vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from .coloring import Coloring

MONO_KINDS = ("K3", "K4", "K4+e")


@dataclass(frozen=True)
class TriangleCensus:
    """Counts of monochromatic/bichromatic/rainbow triangles."""

    mono_per_color: dict[int, int]
    bichromatic: int
    rainbow: int

    @property
    def mono_total(self) -> int:
        return sum(self.mono_per_color.values())


@dataclass(frozen=True)
class MonoSubgraphReport:
    """Outcome of a monochromatic K3/K4/K4+e hunt in one color.

    For kind "K4+e" a witness lists the four clique vertices in
    ascending order followed by the pendant vertex; for the cliques the
    witness is sorted.  Each witness is the lexicographically smallest
    of its kind (see the module docstring).
    """

    color: int
    kind: str
    witness: Optional[tuple[int, ...]]

    @property
    def present(self) -> bool:
        return self.witness is not None


def triangle_census(coloring: Coloring) -> TriangleCensus:
    n, k = coloring.n, coloring.k
    adj = coloring.adjacency()
    deg = coloring.degrees()
    by_color = coloring.edges_by_color()

    mono = {}
    for c in range(1, k + 1):
        adj_c = adj[c]
        triples = 0
        for u, v in by_color[c]:
            triples += (adj_c[u] & adj_c[v]).bit_count()
        if triples % 3:
            raise RuntimeError(f"color {c}: triangle edge count {triples} not divisible by 3")
        mono[c] = triples // 3
    mono_total = sum(mono.values())

    cherries = 0
    for c in range(1, k + 1):
        deg_c = deg[c]
        for v in range(1, n + 1):
            d = deg_c[v]
            cherries += d * (d - 1) // 2
    bichromatic = cherries - 3 * mono_total
    rainbow = comb(n, 3) - mono_total - bichromatic
    if bichromatic < 0 or rainbow < 0:
        raise RuntimeError(
            f"inconsistent census: bichromatic={bichromatic} rainbow={rainbow}"
        )
    return TriangleCensus(mono, bichromatic, rainbow)


def is_gallai(coloring: Coloring) -> bool:
    """True iff the coloring has no rainbow triangle."""
    return triangle_census(coloring).rainbow == 0


def find_rainbow_triangle(coloring: Coloring) -> Optional[tuple[int, int, int]]:
    """First rainbow triangle in lexicographic order, or None."""
    n = coloring.n
    if coloring.k < 3:
        return None
    color = coloring.color
    for u, v in combinations(range(1, n + 1), 2):
        a = color(u, v)
        for w in range(v + 1, n + 1):
            b = color(u, w)
            if b == a:
                continue
            c = color(v, w)
            if c != a and c != b:
                return (u, v, w)
    return None


def _first_mono_clique(coloring: Coloring, c: int, kind: str) -> Optional[tuple[int, ...]]:
    """Lexicographically smallest witness of `kind` in color c, or None.

    Every edge is oriented from its lower vertex to its higher one, so
    u < v < w < x runs over each clique exactly once, in lexicographic
    order, and the first clique reached is the smallest.
    """
    adj_c = coloring.adjacency()[c]
    deg_c = coloring.degrees()[c]
    k3 = kind == "K3"
    k4 = kind == "K4"
    for u in range(1, coloring.n + 1):
        su = adj_c[u] >> u << u  # neighbors above u
        while su:
            bv = su & -su
            su ^= bv
            v = bv.bit_length()
            rest = adj_c[v] & su  # common neighbors above v
            if rest and k3:
                return (u, v, (rest & -rest).bit_length())
            while rest:
                bw = rest & -rest
                rest ^= bw
                w = bw.bit_length()
                xs = adj_c[w] & rest  # common neighbors above w
                if xs and k4:
                    return (u, v, w, (xs & -xs).bit_length())
                while xs:
                    bx = xs & -xs
                    xs ^= bx
                    x = bx.bit_length()
                    for y in (u, v, w, x):
                        if deg_c[y] > 3:
                            quad = (1 << (u - 1)) | bv | bw | bx
                            extra = adj_c[y] & ~quad
                            return (u, v, w, x, (extra & -extra).bit_length())
    return None


def find_mono_subgraph(coloring: Coloring, color: int, kind: str) -> MonoSubgraphReport:
    """Search one color class for a monochromatic K3, K4 or K4+e."""
    if kind not in MONO_KINDS:
        raise ValueError(f"kind must be one of {MONO_KINDS}, got {kind!r}")
    if not 1 <= color <= coloring.k:
        raise ValueError(f"color {color} outside 1..{coloring.k}")
    witness = _first_mono_clique(coloring, color, kind)
    return MonoSubgraphReport(color=color, kind=kind, witness=witness)


def count_protected_edges(coloring: Coloring) -> int:
    """Edges contained in no rainbow and no monochromatic triangle.

    For an edge uv of color a, a monochromatic triangle through it exists
    iff u and v have a common a-neighbor.  A rainbow triangle through it
    exists iff some w with c(uw) != a != c(vw) has c(uw) != c(vw), i.e.
    iff the set of vertices avoiding color a toward both endpoints is not
    covered by the same-color-toward-both sets.
    """
    n, k = coloring.n, coloring.k
    adj = coloring.adjacency()
    full = (1 << n) - 1
    protected = 0
    colors = iter(coloring.colors)
    for u in range(1, n + 1):
        for v, a in zip(range(u + 1, n + 1), colors):
            adj_a = adj[a]
            if adj_a[u] & adj_a[v]:
                continue
            others = full & ~(1 << (u - 1)) & ~(1 << (v - 1))
            candidates = others & ~adj_a[u] & ~adj_a[v]
            if candidates:
                same = 0
                for c in range(1, k + 1):
                    same |= adj[c][u] & adj[c][v]
                if candidates & ~same:
                    continue
            protected += 1
    return protected


def count_nim_star_edges(coloring: Coloring, h: int) -> int:
    """Edges lying in no monochromatic star with h leaves.

    An edge uv of color q lies in a monochromatic K_{1,h} iff one of its
    endpoints has q-degree >= h, so it counts exactly when both
    endpoints have q-degree <= h-1.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    deg = coloring.degrees()
    n = coloring.n
    count = 0
    colors = iter(coloring.colors)
    for u in range(1, n + 1):
        for v, q in zip(range(u + 1, n + 1), colors):
            deg_q = deg[q]
            if deg_q[u] <= h - 1 and deg_q[v] <= h - 1:
                count += 1
    return count
