"""Triangle censuses and monochromatic-subgraph detection.

The triangle census classifies every vertex triple of K_n as
monochromatic (one color on its three edges), bichromatic (exactly two
colors) or rainbow (three colors).  A coloring is a Gallai coloring when
its rainbow count is zero.

Counting strategy: the monochromatic triangles of each color are
counted on first use by the coloring's codegree walk
(`Coloring.mono_triangles`), one pass over the pairs with the finished
adjacency bitsets.  The codegree of a c-edge uv, the popcount of
adj[c][u] & adj[c][v], is the number of c-colored triangles on it, and
each such triangle has three c-edges, so the triangles of color c are
the codegree sum of its edges over 3.  The same walk counts each
color's edges of codegree 0, the edges in no monochromatic triangle
(`Coloring.free_edges`).  Every non-monochromatic triangle has exactly
one vertex where its two same-colored edges meet, so the
"monochromatic cherry" sum
    sum_v sum_c C(deg_c(v), 2)
equals 3*mono + bichromatic, which yields the bichromatic count without
triple enumeration; the rainbow count follows from the total C(n,3).
So only the codegree walk visits the pairs, and the census itself is
O(n) per color in use.  A color not in use has no cherries and no
triangles; its zero is filled in without a loop over the vertices.
Each c-colored triangle holds three c-cherries, so
3*mono_c <= sum_v C(deg_c(v), 2) for every color, and the census checks
it.  Which triangles are rainbow, not just how many, takes one more walk
over the pairs: the first rainbow triangle and, on a coloring with a
rainbow triangle, the protected edges count each pair's rainbow apexes
by the identity of `_block_rows`, from the degrees, the codegree and one
row per vertex, with per-color work only for the colors in use.

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

A color with no triangle, as the codegree walk counts them, has no K3,
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
from itertools import repeat
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


def _block_rows(coloring: Coloring) -> list:
    """The row R_u of each vertex u, its neighborhoods in the colors in
    use side by side.  A bit common to R_u and R_v is a vertex w with
    c(uw) = c(vw), never u or v, since no vertex is its own neighbor.
    Such a w meets two edges of that color, so a color whose every
    vertex has degree at most 1 adds no common bit and gets no block;
    with x the i-th of the other colors in use and b = floor(n/8) + 1,
    adj[x][u] fills bytes i*b to i*b + b - 1 of R_u.  No unused color's
    row is read, and each row is one join of its blocks' bytes, built
    in time linear in its length however many colors are in use.

    An edge uv of color a has
        n - deg_a(u) - deg_a(v) - popcount(R_u & R_v) + 2*codeg_a(uv)
    rainbow apexes, where codeg_a(uv) = popcount(adj[a][u] & adj[a][v])
    counts the common a-neighbors.  Of the n - 2 apexes w, the triangle
    uvw is not rainbow iff c(uw) = a (for deg_a(u) - 1 of them, every
    a-neighbor of u but v), c(vw) = a (deg_a(v) - 1) or c(uw) = c(vw)
    (popcount(R_u & R_v)).  Any two of these sets, and all three, meet
    in the codeg_a(uv) common a-neighbors, so by inclusion-exclusion
    their union holds deg_a(u) + deg_a(v) - 2 + popcount(R_u & R_v)
    - 2*codeg_a(uv) apexes, and the rest are rainbow.

    `find_rainbow_triangle` and the rainbow branch of
    `count_protected_edges` each walk the pairs with this count in a
    loop of their own: the protected count skips the row AND of every
    edge with common a-neighbors, and a shared generator of per-pair
    counts made it four to five times slower on nim_star(200, 4, 4, 1).
    """
    n, adj, deg = coloring.n, coloring.adjacency(), coloring.degrees()
    used = [x for x in coloring.used_colors() if max(deg[x]) > 1]
    blocks = [map(int.to_bytes, adj[x], repeat(n // 8 + 1), repeat("little")) for x in used]
    # zip takes one block of each color per vertex; its first column of
    # empty blocks makes the n + 1 rows 0 when no color gets a block
    return [int.from_bytes(b"".join(row), "little") for row in zip(repeat(b"", n + 1), *blocks)]


def find_rainbow_triangle(coloring: Coloring) -> tuple[int, int, int] | None:
    """First rainbow triangle in lexicographic order, or None.

    It is the first pair uv, in lexicographic order, with a rainbow apex
    (counted as in `_block_rows`), and that pair's lowest apex.  Every
    apex w of the pair lies above v: with w < v the triangle has the
    earlier pair (min(u, w), max(u, w)), which would have counted it.
    With fewer than three colors in use there is none, and no row is
    built.
    """
    if len(coloring.used_colors()) < 3:
        return None
    n = coloring.n
    adj = coloring.adjacency()
    deg = coloring.degrees()
    rows = _block_rows(coloring)
    colors = iter(coloring.colors)
    for u, row_u in enumerate(rows[1:], 1):
        for v, a in zip(range(u + 1, n + 1), colors):
            adj_a, deg_a = adj[a], deg[a]
            codeg = (adj_a[u] & adj_a[v]).bit_count()
            if n - deg_a[u] - deg_a[v] - (row_u & rows[v]).bit_count() + 2 * codeg > 0:
                color = coloring.color
                apexes = range(v + 1, n + 1)
                w = next(w for w in apexes if len({a, color(u, w), color(v, w)}) == 3)
                return u, v, w
    return None


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

    An edge uv of color a lies in a monochromatic triangle iff its
    codegree popcount(adj[a][u] & adj[a][v]) is positive.  When the
    census shows no rainbow triangle, that test alone decides, so the
    count is the sum over the colors in use of their edges of codegree
    0, which the coloring's codegree walk counts beside the triangles
    (`Coloring.free_edges`); no pair is walked here.  Otherwise an edge
    of codegree 0 is protected iff it has no rainbow apex, and by the
    identity of `_block_rows` its rainbow apexes number
    n - deg_a(u) - deg_a(v) - popcount(R_u & R_v).
    """
    used = coloring.used_colors()
    if not _bichromatic_rainbow(coloring)[1]:
        return sum(map(coloring.free_edges().__getitem__, used))
    n = coloring.n
    adj = coloring.adjacency()
    deg = coloring.degrees()
    rows = _block_rows(coloring)
    colors = iter(coloring.colors)
    protected = 0
    for u, row_u in enumerate(rows[1:], 1):
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
