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
lexicographic order finds the first one.  The components outside S
depend on the colors of S that the coloring uses alone, so each distinct
used part of a candidate set is tried once, where its first candidate
comes, and unused colors cost nothing.

Coarsening.  Let R be the reduced coloring of a Gallai partition with
t >= 3 parts, in at most two colors a < b.  A module of R is a vertex
set M that every vertex outside M sees in one color.  Two disjoint
modules are joined in one color, so the valid coarsenings of the
partition are exactly its groupings into at least two modules of R.

Lemma.  If the a-graph or the b-graph of R is disconnected (as the
b-graph is when R uses one color), each of its components is a module,
and two groups suffice.  Otherwise R's maximal proper modules are
disjoint, so they form the unique minimum coarsening: every group of a
valid one is a proper module and lies inside one of them (Gallai 1967).

Proof.  A component of the a-graph sees every outside vertex in b, so
it and its complement are modules.  Now let both graphs be connected,
and let maximal proper modules M and N overlap.  Then M | N is a module,
so it is the whole vertex set, and M - N and N - M are not empty.  Take
y in N - M.  Each x in M - N sees N in one color, and y sees M in one
color; the pair xy has both, so every x in M - N sees N in y's color c.
So M - N and its complement N are joined in c alone, and the other
color's graph is disconnected: a contradiction.

Two-group rule: the component holding the last part (the one with the
largest lowest vertex) is one group, and every other part merges into
the other.  On a one-colored R this leaves the last part alone.

Verification.  The coloring that one vertex of each part induces is the
partition's quotient when the partition is valid, and one helper,
`_quotient`, reads it for the finder, the coarsening and the verifier.
The verifier needs no pair of parts, by one lemma.

Lemma.  Let parts P_1, ..., P_t cover the vertices, and let R be a
coloring of K_t.  Every pair of parts P_i, P_j is joined in the single
color R(i, j) exactly when R is the coloring that the parts' first
members induce and, for each color c of R, the members of each part
have the same c-neighbors outside it.

Proof.  If every pair of parts is joined in its color of R, the first
members see each other in it, and a vertex y outside a part A sees all
of A in one color, so the members of A agree outside A in every color.
Conversely, take x in A and y in B, with first members a and b, and let
c = R(A, B), the color of ab.  b is a c-neighbor of a outside A, so of
x too; then x is a c-neighbor of b outside B, so of y too.  So every
pair of A and B has color c.

So a singleton part needs no test, and the others take one AND per
member and color of R.  When R uses every color the coloring uses, the
last of them needs none: a vertex outside a part sees each member in
exactly one color, so members that agree in all other colors agree in
it too.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain, compress, count
from operator import itemgetter

from .census import find_rainbow_triangle, is_gallai
from .coloring import Coloring


class NotGallaiError(ValueError):
    """Input coloring has a rainbow triangle; carries one witness."""

    def __init__(self, witness: tuple[int, int, int]):
        self.witness = witness
        super().__init__(f"coloring has a rainbow triangle at {witness}")


class GallaiPartition(namedtuple("GallaiPartition", "parts between_colors reduced")):
    """A vertex partition with monochromatic part-pairs.

    parts are sorted vertex tuples, ordered by smallest member; reduced
    is the coloring on one vertex per part recording each pair's
    between-color.
    """

    __slots__ = ()


# binary digits to 0/1 flags, for compress
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _candidate_color_sets(used: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The sets S & used for the candidate color sets S, the subsets of
    size 1 or 2 of 1..k in lexicographic order: each distinct non-empty
    one once, in the order of its first candidate.

    These are the u(u+1)/2 sets of size 1 or 2 of the u used colors, and
    used = 1..k gives every candidate.  With gap the least unused color,
    each used a < gap comes with its own candidates (a,) and (a, b); the
    candidates (gap, b) are the first to give (b,) for each used b > gap;
    and each used a > gap adds only its pairs (a, b)."""
    used = sorted(used)
    gap = next((i for i, c in enumerate(used, 1) if c != i), len(used) + 1)
    # used[:gap - 1] is 1..gap-1, and the rest lies above gap
    for i, a in enumerate(used):
        if i == gap - 1:
            yield from ((b,) for b in used[i:])
        if a < gap:
            yield (a,)
        yield from ((a, b) for b in used[i + 1 :])


def _vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask (vertex v <-> bit v-1), ascending: one
    vertex is its bit length, and more are read by compress from the
    binary digits, lowest first, as 0/1 flags."""
    if mask and not mask & (mask - 1):
        return (mask.bit_length(),)
    return tuple(compress(count(1), bin(mask)[:1:-1].encode().translate(_DIGITS)))


def _components_outside(coloring: Coloring, s: tuple[int, ...]) -> list[int]:
    """Vertex bitmasks of the components of the graph formed by edges
    whose color is not in s, in order of their lowest vertex."""
    adj = coloring.adjacency()
    # rows[v - 1]: the vertices v sees in a color of s
    rows = adj[s[0]][1:]
    for c in s[1:]:
        rows = list(map(int.__or__, rows, adj[c][1:]))
    comps = []
    unseen = (1 << coloring.n) - 1
    while unseen:
        comp = _component(rows, unseen, unseen & -unseen, -1)
        unseen ^= comp
        comps.append(comp)
    return comps


def find_gallai_partition(coloring: Coloring) -> GallaiPartition:
    """Produce a Gallai partition of a rainbow-triangle-free coloring.

    Deterministic: the parts are the components of the graph of edges
    whose color lies outside the first candidate color set S (subsets of
    size 1 or 2 of 1..k in lexicographic order) with at least two of them, in
    order of their lowest vertex.  By the module's lemma every pair of
    parts is monochromatic, so the reduced color of parts A and B is the
    color of their lowest vertices; on the n singletons, in vertex
    order, the reduced coloring is the coloring itself.  Raises
    NotGallaiError with a witness triangle on non-Gallai input,
    ValueError for n < 2.
    """
    if coloring.n < 2:
        raise ValueError("partition needs n >= 2")
    if not is_gallai(coloring):
        raise NotGallaiError(find_rainbow_triangle(coloring))
    for s in _candidate_color_sets(coloring.used_colors()):
        comps = _components_outside(coloring, s)
        if len(comps) >= 2:
            break
    else:
        raise AssertionError("no Gallai partition found for a Gallai coloring")
    parts = tuple(_vertices(comp) for comp in comps)
    if len(parts) == coloring.n:
        reduced = coloring
    else:
        rows = _quotient(coloring, [part[0] for part in parts])
        reduced = Coloring(len(parts), coloring.k, chain.from_iterable(rows))
    return GallaiPartition(
        parts=parts,
        between_colors=frozenset(reduced.colors),
        reduced=reduced,
    )


def verify_gallai_partition(coloring: Coloring, partition: GallaiPartition) -> bool:
    """Check every partition invariant against the coloring: at least
    two non-empty parts that cover 1..n once, the reduced coloring that
    the parts' first members induce, in at most two colors that
    between_colors names, and in each of them, parts whose members have
    the same neighbors outside (the module docstring's verification
    lemma).  The parts may come in any order, and the members of a part
    too."""
    parts = partition.parts
    if len(parts) < 2 or not all(parts):
        return False
    # one sort of the members instead of a set insert per vertex
    if sorted(chain.from_iterable(parts)) != list(range(1, coloring.n + 1)):
        return False
    reduced = partition.reduced
    if reduced.n != len(parts) or reduced.k != coloring.k:
        return False
    between = set(reduced.colors)
    if len(between) > 2 or between != set(partition.between_colors):
        return False
    reps = [part[0] for part in parts]
    order = sorted(reps)
    if order != reps:  # R on the parts in order of their first members
        rank = {v: i for i, v in enumerate(order, 1)}
        reduced = reduced.permute_vertices({i: rank[v] for i, v in enumerate(reps, 1)})
    if tuple(chain.from_iterable(_quotient(coloring, order))) != reduced.colors:
        return False
    tested = sorted(between)
    if len(tested) == len(coloring.used_colors()):
        del tested[-1]  # members that agree in every other color agree in this one
    adj = coloring.adjacency()
    for part in parts:
        if len(part) > 1:
            outside = ~(sum(map((1).__lshift__, part)) >> 1)
            for c in tested:
                if len(set(map(outside.__and__, itemgetter(*part)(adj[c])))) > 1:
                    return False
    return True


def _quotient(coloring: Coloring, reps: list[int]) -> Iterator[tuple]:
    """The rows of the coloring that the ascending vertices reps induce:
    for each reps[i], the colors of the pairs (reps[i], reps[j]), j > i,
    in order, so that the rows run through the pairs in pair order.

    Row u of the coloring's pairs, (u, u+1) to (u, n), is one run of its
    colors.  When the reps after u are u+1 onwards without a gap they
    are a slice of it; otherwise one gather reads them from the row,
    sliced from pair (u, 2)'s place so that vertex v sits at v - 2 for
    every u."""
    n, colors = coloring.n, coloring.colors
    t, last = len(reps), reps[-1]
    offsets = [v - 2 for v in reps]
    for a, u in enumerate(reps, 1):
        row = (u - 1) * n - u * (u + 1) // 2 - 1  # index of pair (u, v) is row + v
        if last - u == t - a:  # the t - a reps after u are u+1..last
            yield colors[row + u + 1 : row + last + 1]
        else:
            yield tuple(map(colors[row + 2 : row + n + 1].__getitem__, offsets[a:]))


def _component(rows: list[int], vertices: int, start: int, flip: int) -> int:
    """The vertices that the bitmask start, a subset of the bitmask
    vertices, reaches in the graph on vertices whose edges are the pairs
    set in rows (flip 0) or the other pairs (flip -1), bit x of rows[x]
    aside: the union of the components that meet start.  The partition
    layer's one reachability search."""
    frontier = start
    left = vertices ^ start  # the vertices not reached yet
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        fresh = (rows[low.bit_length() - 1] ^ flip) & left
        left ^= fresh
        frontier |= fresh
    return vertices ^ left


def _module_children(rows: list[int], vertices: int) -> list[int]:
    """The root step of the modular decomposition of a 2-coloring: the
    children, as bitmasks, of the 2-coloring that rows (the a-pairs: the
    reduced coloring's a-rows, part x + 1 at bit x) induces on the
    vertices of the bitmask vertices, at least two of them.

    A disconnected a- or b-graph gives two modules, by the module
    docstring's two-group rule.  Otherwise the root is prime, and its
    children are the maximal proper modules.  With v the lowest vertex:

    - Refine the other vertices, from v's a- and b-neighbors, into
      M(R, v), the maximal modules without v: split a block whenever an
      outside vertex sees two of its vertices in different colors.
    - Orient block X -> Y when Y sees X and v in different colors; a
      module that holds v and X then holds Y.  So the blocks that reach
      every block are the children without v, and they are the blocks
      that reach one such child, found by one backward search from the
      first block the refinement finalises, which is one (below).
    - v's module is v and every other block.

    Claim.  With both color graphs connected, the first block that the
    refinement finalises is a child other than v's child C_v.

    Proof.  Let A and B be v's a- and b-neighbors.  The stack pops B
    first, and each split by a vertex w pushes w's b-side last, so the
    first finalised block X0 ends a chain B = S0 > S1 > ... of b-sides.
    B meets a child other than C_v: otherwise C_v sees every other child
    in a, and the b-graph is disconnected.  v sees all of B in b, so it
    splits no S_i.  While S_i meets C_v, every vertex split off so far
    lies in C_v, so w lies in C_v or in A - C_v.  If w lies in C_v, it
    sees each vertex of S_i outside C_v in that vertex's color to v,
    which is b, so each stays in S_(i+1).  If w lies in A - C_v, it sees
    all of C_v in a, so S_(i+1) leaves C_v for good.  Either way X0
    holds a vertex of a child Y other than C_v.  A module without v lies
    inside one child, so Y is a block, and X0 = Y."""
    last = 1 << (vertices.bit_length() - 1)
    for flip in (0, -1):
        comp = _component(rows, vertices, last, flip)
        if comp != vertices:
            return [vertices ^ comp, comp]

    v_bit = vertices & -vertices
    row_v = rows[v_bit.bit_length() - 1]
    rest = vertices ^ v_bit
    stack = [block for block in (rest & row_v, rest & ~row_v) if block]
    blocks = {}  # lowest vertex -> block of M(R, v), in order of finalising
    while stack:
        block = stack.pop()
        low = block & -block
        outside = vertices & ~block
        row0 = rows[low.bit_length() - 1] & outside
        others = block ^ low
        while others:
            x = others & -others
            others ^= x
            apart = (rows[x.bit_length() - 1] & outside) ^ row0
            if apart:
                row_w = rows[(apart & -apart).bit_length() - 1]
                stack += (block & row_w, block & ~row_w)
                break
        else:
            blocks[low.bit_length() - 1] = block

    reps = sum(1 << x for x in blocks)
    # X -> Y backwards: X's representative lies in rows[y], complemented
    # when v sees Y in a
    back = [row ^ -(row_v >> y & 1) for y, row in enumerate(rows)]
    reach = _component(back, reps, 1 << next(iter(blocks)), 0)
    children = [block for x, block in blocks.items() if reach >> x & 1]
    return children + [vertices ^ sum(children)]


def coarsen_to_min_parts(coloring: Coloring, partition: GallaiPartition) -> GallaiPartition:
    """The coarsening of the partition with the fewest parts (at least
    two) whose part-pairs stay monochromatic.

    Its groups are the children of the root of the modular decomposition
    of the reduced coloring R, by the module docstring's lemma: two
    groups when R uses one color or one of its color graphs is
    disconnected, the component holding the last part against the rest;
    otherwise R's maximal proper modules, the unique minimum.  Parts are
    ordered by smallest member, and a partition that cannot merge comes
    back as it is.
    """
    parts = partition.parts
    t = len(parts)
    if t <= 2:  # two parts are always a valid floor
        return partition
    reduced = partition.reduced
    # the a-rows of R, a its lowest color, part x + 1 at bit x
    rows = reduced.adjacency()[reduced.used_colors()[0]][1:]
    groups = _module_children(rows, (1 << t) - 1)
    if len(groups) == t:
        return partition
    # each group as its sorted vertices and its first part, the part
    # holding its smallest vertex
    merged = sorted(
        (
            tuple(sorted(v for i in _vertices(group) for v in parts[i - 1])),
            (group & -group).bit_length() - 1,
        )
        for group in groups
    )
    # the groups are modules of R, so R on their first parts is the
    # merged partition's reduced coloring
    firsts = [x + 1 for _, x in merged]
    order = sorted(firsts)
    rows = _quotient(reduced, order)
    reduced = Coloring(len(merged), coloring.k, chain.from_iterable(rows))
    if order != firsts:  # parts out of order of their smallest members
        rank = {v: i for i, v in enumerate(order, 1)}
        reduced = reduced.permute_vertices({rank[v]: i for i, v in enumerate(firsts, 1)})
    return GallaiPartition(
        parts=tuple(part for part, _ in merged),
        between_colors=frozenset(reduced.colors),
        reduced=reduced,
    )
