"""Triangle censuses and monochromatic-subgraph detection.

The triangle census classifies every vertex triple of K_n as
monochromatic (one color on its three edges), bichromatic (exactly two
colors) or rainbow (three colors).  A coloring is a Gallai coloring when
its rainbow count is zero.

Counting strategy: the monochromatic triangles of each color are
counted while the coloring's derived tables are built
(`Coloring.mono_triangles`).  The pairs are added in lexicographic
order, and just before pair (u, v) is added the common c-neighbors of u
and v are the apexes w < u, so each c-colored triangle is counted once,
at its last pair.  Every non-monochromatic triangle has exactly one
vertex where its two same-colored edges meet, so the "monochromatic
cherry" sum
    sum_v sum_c C(deg_c(v), 2)
equals 3*mono + bichromatic, which yields the bichromatic count without
triple enumeration; the rainbow count follows from the total C(n,3).
So only the derived tables walk the pairs, and the census itself is
O(n) per color in use.  A color not in use has no cherries and no
triangles; its zero is filled in without a loop over the vertices.
Each c-colored triangle holds three c-cherries, so
3*mono_c <= sum_v C(deg_c(v), 2) for every color, and the census checks
it.

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

The K4 and K4+e walks also skip each u whose higher neighborhood holds
no triangle.  At the first v of u with two or more common neighbors
above it, the first step that could find an x, they 2-color the graph
that color c induces on u's higher neighbors from v up, once per u, by
a breadth-first search with one AND per vertex.  If that succeeds the
set holds no triangle, so no K4 has u as its lowest vertex, and the walk
goes on to the next u; if it meets an odd cycle, u is walked in full.
A skipped u is the lowest vertex of no clique, so the order in which
the walk reaches cliques, and with it every witness and the K4 record,
is the same as without the test.  On a dense triangle-rich class with
no K4, such as color 2 of the Goodman construction, every u is skipped,
and the walk and the test take at most one step per c-edge instead of
one per triangle; on a sparse class with triangles the test meets an
odd cycle after a few vertices.  A K3 hunt returns at its first common
neighbor and never reaches the test.

A color with no triangle, as the derived tables count them, has no K3,
K4 or K4+e, and its hunts walk nothing.  Each color is walked for a K4
at most once per coloring: its first K4, or None, goes into the
coloring's K4 record (`Coloring.k4_record`), which the K4 and K4+e
hunts read.  Beside it, the twin record (`Coloring.twin_record`) keeps
each color's twin representatives from its first walk, so the K3, K4
and K4+e walks of a color find the twin classes once.  A color without
a K4 has no K4+e.
When the first K4 has a vertex of color-degree above 3 it is also the
smallest K4 with one, so the K4+e witness is read off it.  Only
otherwise does the K4+e hunt walk, on past the K4s whose four vertices
all have color-degree 3, each a whole component of the color class.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb
from operator import mul

from .coloring import Coloring

MONO_KINDS = ("K3", "K4", "K4+e")


class TriangleCensus(namedtuple("TriangleCensus", "mono_per_color bichromatic rainbow")):
    """Counts of monochromatic/bichromatic/rainbow triangles."""

    __slots__ = ()

    @property
    def mono_total(self) -> int:
        return sum(self.mono_per_color.values())


class MonoSubgraphReport(namedtuple("MonoSubgraphReport", "color kind witness")):
    """Outcome of a monochromatic K3/K4/K4+e hunt in one color.

    For kind "K4+e" a witness lists the four clique vertices in
    ascending order followed by the pendant vertex; for the cliques the
    witness is sorted.  Each witness is the lexicographically smallest
    of its kind (see the module docstring).
    """

    __slots__ = ()

    @property
    def present(self) -> bool:
        return self.witness is not None


def triangle_census(coloring: Coloring) -> TriangleCensus:
    tri = coloring.mono_triangles()
    mono = dict.fromkeys(range(1, coloring.k + 1), 0)
    for c in coloring.used_colors():
        mono[c] = tri[c]
    bichromatic, rainbow = _bichromatic_rainbow(coloring)
    return TriangleCensus(mono, bichromatic, rainbow)


def _bichromatic_rainbow(coloring: Coloring) -> tuple[int, int]:
    """The bichromatic and rainbow triangle counts, from the triangle
    counts and the degree tables of the colors in use."""
    tri = coloring.mono_triangles()
    deg = coloring.degrees()
    mono_total = cherries = 0
    for c in coloring.used_colors():
        d = deg[c]
        cherries_c = (sum(map(mul, d, d)) - sum(d)) // 2
        if 3 * tri[c] > cherries_c:
            raise RuntimeError(
                f"color {c}: {tri[c]} triangles need more than its {cherries_c} cherries"
            )
        mono_total += tri[c]
        cherries += cherries_c
    bichromatic = cherries - 3 * mono_total
    rainbow = comb(coloring.n, 3) - mono_total - bichromatic
    if bichromatic < 0 or rainbow < 0:
        raise RuntimeError(
            f"inconsistent census: bichromatic={bichromatic} rainbow={rainbow}"
        )
    return bichromatic, rainbow


def is_gallai(coloring: Coloring) -> bool:
    """True iff the coloring has no rainbow triangle."""
    return _bichromatic_rainbow(coloring)[1] == 0


def find_rainbow_triangle(coloring: Coloring) -> tuple[int, int, int] | None:
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


def _first_mono_clique(coloring: Coloring, c: int, kind: str) -> tuple[int, ...] | None:
    """Lexicographically smallest witness of `kind` in color c, or None:
    the first K4 of color c comes from the coloring's K4 record, walked
    for on its first use (see the module docstring)."""
    if not coloring.mono_triangles()[c]:
        return None
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


def _clique_walk(coloring: Coloring, c: int, kind: str) -> tuple[int, ...] | None:
    """The first witness of `kind` in color c that the walk reaches.

    Every edge is oriented from its lower vertex to its higher one, and
    only the lowest vertex of each c-twin class takes part, so
    u < v < w < x runs over each clique of such vertices exactly once,
    in lexicographic order; the first clique reached is the smallest of
    all (see the module docstring).  The K4+e pendant is read from the
    full neighborhood.

    For K4 and K4+e, the first time u's loop over w would take a step,
    su from v up must hold an odd cycle for u to be walked: if it
    2-colors, it holds no triangle, so u is the lowest vertex of no K4,
    and the walk moves on to the next u.  Skipping a u with no clique
    changes neither which clique is reached first nor the witness.  The
    loop over w stops at the last w, which has no x above it.
    """
    adj_c = coloring.adjacency()[c]
    deg_c = coloring.degrees()[c]
    k3 = kind == "K3"
    k4 = kind == "K4"
    reps = _twin_representatives(coloring, c)
    todo = reps
    while todo:
        bu = todo & -todo
        todo ^= bu
        u = bu.bit_length()
        su = (adj_c[u] >> u << u) & reps  # lowest twins among the neighbors above u
        unchecked = True
        while su:
            bv = su & -su
            su ^= bv
            v = bv.bit_length()
            rest = adj_c[v] & su  # common neighbors above v
            if rest and k3:
                return (u, v, (rest & -rest).bit_length())
            if unchecked and rest & (rest - 1):
                # the first step of the loop over w for this u: each
                # earlier v had at most one common neighbor above it,
                # so every triangle of u's higher neighbors lies in su
                # and v
                unchecked = False
                if _two_colorable(adj_c, su, rest):
                    break
            while rest & (rest - 1):  # the last w has no x above it
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


def _twin_representatives(coloring: Coloring, c: int) -> int:
    """The bitmask of the lowest vertex of each c-twin class, from the
    coloring's twin record, found on the color's first walk."""
    record = coloring.twin_record()
    reps = record.get(c)
    if reps is None:
        adj_c = coloring.adjacency()[c]
        # each c-neighborhood -> its lowest vertex: the pairs run from n
        # down to 1, and the last write of a key wins
        lowest = dict(zip(reversed(adj_c[1:]), range(coloring.n, 0, -1)))
        reps = (1 << coloring.n) - 1
        if len(lowest) < coloring.n:  # some vertex has a lower c-twin
            reps = sum(1 << (r - 1) for r in lowest.values())
        record[c] = reps
    return reps


def _two_colorable(adj_c, left, layer):
    """True iff color c induces a bipartite graph on the bitset left
    and a root outside it whose neighbors in left are the bitset layer.

    A breadth-first search builds one layer at a time, from the root's
    layer and then from the lowest vertex of each component left;
    an edge inside a layer closes an odd cycle, and without one every
    edge joins consecutive layers.  One AND per vertex tests its row
    against its own layer.
    """
    while layer:
        left ^= layer
        reach = 0
        todo = layer
        while todo:
            b = todo & -todo
            todo ^= b
            row = adj_c[b.bit_length()]
            if row & layer:
                return False
            reach |= row
        layer = (reach & left) or left & -left
    return True


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
    a-neighborhoods.  When the census shows no rainbow triangle, that
    test alone decides: every edge of a color without a triangle is
    protected and is counted from the degrees, and every other edge
    takes one AND.

    Otherwise, without a common a-neighbor, the triangle uvw on an apex
    w is not rainbow iff c(uw) = a, c(vw) = a, or c(uw) = c(vw) != a.
    The first holds for deg_a(u) - 1 apexes (every a-neighbor of u but
    v), the second for deg_a(v) - 1, and the third for the popcount of
    R_u & R_v, where the row R_u, the OR of adj[x][u] << i*n over the
    colors x in use, x the i-th of them from 0, puts each used color's
    neighborhood of u in its own block of n bits, so a bit common to
    R_u and R_v is a w with c(uw) = c(vw).  u and v never count there:
    no vertex is its own neighbor, so v lies in R_u but in no block of
    R_v, and likewise u.  With no common a-neighbor the third case holds
    no a-colored apex, so the three are disjoint, and uv is protected
    iff all n - 2 apexes fall in one of them:
    deg_a(u) - 1 + deg_a(v) - 1 + popcount(R_u & R_v) = n - 2, that is
    deg_a(u) + deg_a(v) + popcount(R_u & R_v) = n.
    """
    n = coloring.n
    adj = coloring.adjacency()
    deg = coloring.degrees()
    used = coloring.used_colors()
    colors = iter(coloring.colors)
    protected = 0
    if not _bichromatic_rainbow(coloring)[1]:
        tri = coloring.mono_triangles()
        hot = adj[:]  # the colors with a triangle keep their rows
        for a in used:
            if not tri[a]:
                protected += sum(deg[a]) // 2
                hot[a] = None
        if any(tri[a] for a in used):
            for u in range(1, n + 1):
                for v, a in zip(range(u + 1, n + 1), colors):
                    adj_a = hot[a]
                    if adj_a is not None and not adj_a[u] & adj_a[v]:
                        protected += 1
        return protected
    rows = [0] * (n + 1)
    for i, x in enumerate(used):
        adj_x, shift = adj[x], i * n
        for u in range(1, n + 1):
            rows[u] |= adj_x[u] << shift
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
    for q in coloring.used_colors():
        adj_q, deg_q = adj[q], deg[q]
        low = [u for u in range(1, n + 1) if deg_q[u] < h]
        low_q = sum(1 << (u - 1) for u in low)
        twice += sum((adj_q[u] & low_q).bit_count() for u in low)
    return twice // 2
