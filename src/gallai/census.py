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

Hunt order: the K3/K4/K4+e hunts in color c orient every c-edge from
its lower vertex to its higher one and run over u < v < w (< x), with
each vertex taken from the common higher neighborhood of the ones before
it (Chiba & Nishizeki, SIAM J. Comput. 14, 1985).  Only the lowest
vertex of each c-twin class, the vertices with one c-neighborhood, takes
part.  Each clique of such vertices is reached exactly once, in
lexicographic order of its sorted vertex tuple, so the first one found
is the smallest among them.  It is also the smallest of all: two c-twins
are never c-adjacent, since no vertex is its own neighbor, so a clique
holds at most one vertex of each class, and replacing a clique vertex by
the lowest vertex of its class keeps a clique and every c-degree while
making the sorted tuple smaller.  So the reported witness is the
lexicographically smallest: the smallest K3, the smallest K4, and for
K4+e the smallest K4 with a vertex of color-degree above 3, followed by
the lowest-numbered pendant neighbor of the lowest such vertex (any
vertex, read from the full neighborhood).  The parts of a Gallai
partition are modules (Gallai 1967), so the blow-up constructions are
twin-rich, and on them the walk takes one step per triangle of the twin
quotient instead of one per triangle.

Each color is walked for a K4 at most once per coloring: its first K4,
or None, goes into the coloring's K4 record (`Coloring.k4_record`),
which the K4 and K4+e hunts read.  A color without a K4 has no K4+e.
When the first K4 has a vertex of color-degree above 3 it is also the
smallest K4 with one, so the K4+e witness is read off it.  Only
otherwise does the K4+e hunt walk, on past the K4s whose four vertices
all have color-degree 3, each a whole component of the color class.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Optional

from .coloring import Coloring

MONO_KINDS = ("K3", "K4", "K4+e")


class TriangleCensus(NamedTuple):
    """Counts of monochromatic/bichromatic/rainbow triangles."""

    mono_per_color: dict[int, int]
    bichromatic: int
    rainbow: int

    @property
    def mono_total(self) -> int:
        return sum(self.mono_per_color.values())


class MonoSubgraphReport(NamedTuple):
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

    # triples[c]: over the c-colored edges, the common c-neighbors of
    # their ends; each c-colored triangle is counted once per edge
    triples = [0] * (k + 1)
    colors = iter(coloring.colors)
    for u in range(1, n + 1):
        for v, c in zip(range(u + 1, n + 1), colors):
            triples[c] += (adj[c][u] & adj[c][v]).bit_count()
    mono = {}
    for c in range(1, k + 1):
        if triples[c] % 3:
            raise RuntimeError(f"color {c}: triangle edge count {triples[c]} not divisible by 3")
        mono[c] = triples[c] // 3
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
    adj = coloring.adjacency()
    full = (1 << n) - 1
    colors = iter(coloring.colors)
    for u in range(1, n + 1):
        for v, a in zip(range(u + 1, n + 1), colors):
            # the apexes above v, vertex w at bit w - 1
            apexes = _rainbow_apexes(adj, u, v, a, full >> v << v)
            if apexes:
                return (u, v, (apexes & -apexes).bit_length())
    return None


def _rainbow_apexes(adj, u, v, a, apexes):
    """The w in the bitset apexes that make u, v, w a rainbow triangle,
    where edge uv has color a: w meets u and v in two colors other than
    a, so w is in neither a-neighborhood and in no common one."""
    apexes &= ~(adj[a][u] | adj[a][v])
    if apexes:
        for adj_x in adj[1:]:
            apexes &= ~(adj_x[u] & adj_x[v])
    return apexes


def _first_mono_clique(coloring: Coloring, c: int, kind: str) -> Optional[tuple[int, ...]]:
    """Lexicographically smallest witness of `kind` in color c, or None:
    the first K4 of color c comes from the coloring's K4 record, walked
    for on its first use (see the module docstring)."""
    if kind == "K3":
        return _clique_walk(coloring, c, kind)
    record = coloring.k4_record()
    if c not in record:
        record[c] = _clique_walk(coloring, c, "K4")
    quad = record[c]
    if kind == "K4" or quad is None:
        return quad
    k4e = _with_pendant(coloring.adjacency()[c], coloring.degrees()[c], quad)
    return k4e or _clique_walk(coloring, c, kind)


def _with_pendant(adj_c, deg_c, quad):
    """The clique quad followed by the lowest c-neighbor outside it of
    its lowest vertex of c-degree above 3, or None if it has none."""
    for y in quad:
        if deg_c[y] > 3:
            extra = adj_c[y] & ~sum(1 << (x - 1) for x in quad)
            return quad + ((extra & -extra).bit_length(),)
    return None


def _clique_walk(coloring: Coloring, c: int, kind: str) -> Optional[tuple[int, ...]]:
    """The first witness of `kind` in color c that the walk reaches.

    Every edge is oriented from its lower vertex to its higher one, and
    only the lowest vertex of each c-twin class takes part, so
    u < v < w < x runs over each clique of such vertices exactly once,
    in lexicographic order; the first clique reached is the smallest of
    all (see the module docstring).  The K4+e pendant is read from the
    full neighborhood.
    """
    adj_c = coloring.adjacency()[c]
    deg_c = coloring.degrees()[c]
    k3 = kind == "K3"
    k4 = kind == "K4"
    # each c-neighborhood -> its lowest vertex: the pairs run from n
    # down to 1, and the last write of a key wins
    lowest = dict(zip(reversed(adj_c[1:]), range(coloring.n, 0, -1)))
    reps = sum(1 << (r - 1) for r in lowest.values())
    todo = reps
    while todo:
        bu = todo & -todo
        todo ^= bu
        u = bu.bit_length()
        su = (adj_c[u] >> u << u) & reps  # lowest twins among the neighbors above u
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
                    k4e = _with_pendant(adj_c, deg_c, (u, v, w, bx.bit_length()))
                    if k4e:
                        return k4e
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

    Take an edge uv of color a.  A monochromatic triangle through it
    exists iff u and v have a common a-neighbor, one AND of their
    a-neighborhoods.  Without one, the triangle uvw on an apex w is not
    rainbow iff c(uw) = a, c(vw) = a, or c(uw) = c(vw) != a.  The first
    holds for deg_a(u) - 1 apexes (every a-neighbor of u but v), the
    second for deg_a(v) - 1, and the third for the popcount of R_u & R_v,
    where the row R_u = OR over colors x of adj[x][u] << (x-1)*n puts
    each color's neighborhood of u in its own block of n bits, so a bit
    common to R_u and R_v is a w with c(uw) = c(vw).  u and v never
    count there: no vertex is its own neighbor, so v lies in R_u but in
    no block of R_v, and likewise u.  With no common a-neighbor the
    third case holds no a-colored apex, so the three are disjoint, and
    uv is protected iff all n - 2 apexes fall in one of them:
    deg_a(u) - 1 + deg_a(v) - 1 + popcount(R_u & R_v) = n - 2, that is
    deg_a(u) + deg_a(v) + popcount(R_u & R_v) = n.
    """
    n = coloring.n
    adj = coloring.adjacency()
    deg = coloring.degrees()
    rows = [0] * (n + 1)
    for x, adj_x in enumerate(adj[1:]):
        shift = x * n
        for u in range(1, n + 1):
            rows[u] |= adj_x[u] << shift
    protected = 0
    colors = iter(coloring.colors)
    for u in range(1, n + 1):
        row_u = rows[u]
        for v, a in zip(range(u + 1, n + 1), colors):
            adj_a, deg_a = adj[a], deg[a]
            if (
                not adj_a[u] & adj_a[v]
                and deg_a[u] + deg_a[v] + (row_u & rows[v]).bit_count() == n
            ):
                protected += 1
    return protected


def count_nim_star_edges(coloring: Coloring, h: int) -> int:
    """Edges lying in no monochromatic star with h leaves.

    An edge uv of color q lies in a monochromatic K_{1,h} iff one of its
    endpoints has q-degree >= h, so it counts exactly when both
    endpoints have q-degree <= h-1.  With L_q the bitset of those
    vertices, each such edge is counted once from each end as a bit of
    adj[q][u] & L_q for u in L_q: one AND and popcount per vertex and
    color present.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    adj = coloring.adjacency()
    deg = coloring.degrees()
    n = coloring.n
    twice = 0
    # the colors present: k may be far larger
    for q in set(coloring.colors):
        adj_q, deg_q = adj[q], deg[q]
        low = [u for u in range(1, n + 1) if deg_q[u] < h]
        low_q = sum(1 << (u - 1) for u in low)
        twice += sum((adj_q[u] & low_q).bit_count() for u in low)
    return twice // 2
