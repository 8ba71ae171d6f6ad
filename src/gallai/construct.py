"""Generators for the extremal colorings: base gadgets (monochromatic
cliques, and the pentagon and Paley-17 two-colorings, both Paley
colorings from one writer: the pentagon's cycle differences +-1 are the
quadratic residues mod 5), the blow-up operator, and the construction
families built from them:

  * colorings of maximum order avoiding monochromatic K4+e in the first
    s colors and monochromatic triangles in the rest (17-fold Paley
    blow-ups, then pentagon blow-ups, then a final join).  Its member
    s = 0 is the triangle-free Gallai coloring of maximum order for k
    colors (iterated pentagon blow-ups, odd k finished by a
    monochromatic join), and this recursion is the only builder of
    iterated Paley blow-ups;
  * Gallai colorings meeting the minimum monochromatic-triangle-count
    upper bound (clique or near-optimal 2-colored inserts in the
    triangle-free base);
  * 2-colorings of K_n attaining the minimum monochromatic-triangle
    count exactly (near-regular circulants; the count depends only on
    the degree sequence, so regularity is all that is needed);
  * Turan-style colorings maximizing edges outside all rainbow and
    monochromatic triangles;
  * star-free layer packings certifying the nim lower bound, with the
    distance-3 relabeling repair making layers pairwise edge-disjoint.

One rule, `_star_free_rows`, gives both the Goodman 2-colorings' first
color and the nim-star layers' pattern: the extremal star-free graph of
a maximum degree.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from itertools import compress
from math import comb

from .coloring import Coloring, lex_pairs
from .formulas import ex_star, gr_k3, mixed_k4e_extremal_order


# ---------------------------------------------------------------------------
# base gadgets


def single_vertex(k: int = 1) -> Coloring:
    return Coloring(1, k, ())


def mono_clique(n: int, color: int, k: int | None = None) -> Coloring:
    """K_n with every edge in one color."""
    k = color if k is None else k
    return Coloring(n, k, (color,) * comb(n, 2))


def _paley_coloring(q: int, a: int, b: int, name: str) -> Coloring:
    """K_q, q a prime = 1 mod 4, colored a on the differences that are
    quadratic residues mod q and b on the rest: each color class is the
    self-complementary Paley graph of order q."""
    if a == b:
        raise ValueError(f"{name} colors must differ")
    residues = {x * x % q for x in range(1, q)}
    return Coloring(q, max(a, b), [a if (v - u) % q in residues else b for u, v in lex_pairs(q)])


def pentagon_coloring(a: int, b: int) -> Coloring:
    """K_5 with the 5-cycle {i,i+1} in color a and the diagonals in
    color b; the unique 2-coloring of K_5 with no monochromatic
    triangle."""
    return _paley_coloring(5, a, b, "pentagon")


def paley17_coloring(a: int, b: int) -> Coloring:
    """K_17 colored a on quadratic-residue differences mod 17 and b
    otherwise; neither color class contains a K4."""
    return _paley_coloring(17, a, b, "paley")


# ---------------------------------------------------------------------------
# blow-up


def blow_up(base: Coloring, inserts: Sequence[Coloring]) -> Coloring:
    """Replace base vertex i by the complete colored graph inserts[i-1];
    edges between copies i and j inherit the base color of {i,j}.

    Copies are laid out consecutively in base-vertex order.  All inputs
    must share one color universe.
    """
    inserts = list(inserts)
    if not inserts:
        raise ValueError("empty insert list")
    if len(inserts) != base.n:
        raise ValueError(f"need {base.n} inserts, got {len(inserts)}")
    ks = {base.k} | {h.k for h in inserts}
    if len(ks) != 1:
        raise ValueError(f"mismatched color universes: {sorted(ks)}")

    sizes = [h.n for h in inserts]
    base_colors = iter(base.colors)
    out: list[int] = []
    for i, h in enumerate(inserts):
        # the colors from a vertex of copy i to every later copy, which
        # end the row of each of its vertices
        tail: list[int] = []
        for size, c in zip(sizes[i + 1 :], base_colors):
            tail += [c] * size
        # each vertex's row starts with its pairs inside the copy
        start = 0
        for later in range(h.n - 1, -1, -1):
            out += h.colors[start : start + later]
            out += tail
            start += later
    return Coloring(sum(sizes), base.k, out)


# ---------------------------------------------------------------------------
# colorings with no K4+e in the first s colors, no K3 in the rest


def construct_gr_k4e_extremal(k: int, s: int) -> Coloring:
    """Gallai-k-coloring of maximum order with no monochromatic K4+e in
    colors 1..s and no monochromatic triangle in colors s+1..k.

    Start from a single vertex (s even) or a color-1 K4 (s odd), then
    while colors remain: blow a 2-colored Paley K_17 up with 17 copies
    while at most s-2 colors are used, a triangle-free K_5 while at most
    k-2 are used, and finish an odd tail by joining two copies with the
    last color, which neither copy uses.  At s = 0 that is the
    triangle-free family of construct_gr_k3_extremal."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= s <= k:
        raise ValueError(f"s must satisfy 0 <= s <= k, got s={s} k={k}")
    if s % 2 == 0:
        g, i = single_vertex(k), 0
    else:
        g, i = mono_clique(4, 1, k), 1
    while i < k:
        if i <= s - 2:
            base = paley17_coloring(i + 1, i + 2).with_k(k)
            g = blow_up(base, [g] * 17)
            i += 2
        elif i <= k - 2:
            base = pentagon_coloring(i + 1, i + 2).with_k(k)
            g = blow_up(base, [g] * 5)
            i += 2
        else:  # i == k-1
            g = blow_up(mono_clique(2, k, k), [g, g])
            i += 1
    if g.n != mixed_k4e_extremal_order(k, s):
        raise RuntimeError(
            f"built n={g.n}, expected {mixed_k4e_extremal_order(k, s)} for k={k} s={s}"
        )
    return g


def construct_gr_k3_extremal(k: int) -> Coloring:
    """Gallai-k-coloring with no monochromatic triangle on the largest
    possible vertex count (one less than the Gallai-Ramsey threshold):
    the s = 0 member of the K4+e family, iterated pentagon blow-ups on
    color pairs (1,2),(3,4),..., two copies joined in color k for odd k."""
    return construct_gr_k4e_extremal(k, 0)


# ---------------------------------------------------------------------------
# minimum monochromatic-triangle-count extremal colorings


def _star_free_rows(n: int, d: int, edge, other):
    """The rows of the 0-based n-vertex graph of maximum degree d < n
    with floor(dn/2) edges, the extremal star-free graph: row u holds,
    for v = u+1..n-1, edge when {u, v} is an edge and other when not.

    {u, v} is an edge at circulant distance at most d // 2 and, when d
    is odd, when v = u + n // 2 for u < n // 2: an antipodal matching
    for even n, one covering all vertices but the last for odd n."""
    half = n // 2
    pattern = [edge if min(t, n - t) <= d // 2 else other for t in range(n)]
    matched = half if d % 2 else 0
    for u in range(n):
        row = pattern[1 : n - u]
        if u < matched:
            row[half - 1] = edge
        yield row


def goodman_extremal_2coloring(n: int, color_a: int, color_b: int) -> Coloring:
    """2-coloring of K_n with the minimum possible number of
    monochromatic triangles.

    The monochromatic count of a 2-coloring is C(n,3) minus half the sum
    of d(v)(n-1-d(v)) over the color-a degrees d(v), so any coloring
    whose color-a degrees all sit at the feasible maximizers of
    d(n-1-d) is extremal.  Color a here is the extremal star-free graph
    of maximum degree floor(n/2), _star_free_rows(n, n // 2): each of
    its degrees is floor or ceil of (n-1)/2, except that for n = 3 mod 4,
    where n vertices of odd degree (n-1)/2 cannot be, one vertex has
    degree (n-3)/2."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if color_a == color_b:
        raise ValueError("colors must differ")
    colors = []
    for row in _star_free_rows(n, n // 2, color_a, color_b):
        colors += row
    return Coloring(n, max(color_a, color_b), colors)


def construct_multiplicity_extremal(k: int, n: int) -> Coloring:
    """Gallai-k-coloring of K_n whose monochromatic-triangle count meets
    the minimum-count upper bound.

    Odd k: blow the (k-1)-color triangle-free base on 5^((k-1)/2)
    vertices up with color-k cliques of near-equal sizes.  Even k: blow
    the (k-2)-color base up with extremal 2-colorings in colors k-1, k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < gr_k3(k):
        raise ValueError(f"n={n} below threshold {gr_k3(k)} for k={k}")
    j = k - 1 if k % 2 else k - 2  # the colors of the triangle-free base
    base = construct_gr_k3_extremal(j).with_k(k) if j else single_vertex(k)

    def insert(size):
        if k % 2 == 1:
            return mono_clique(size, k, k)
        return goodman_extremal_2coloring(size, k - 1, k).with_k(k)

    m, r = divmod(n, base.n)
    # r of the inserts take m + 1 vertices, the rest m
    big = [insert(m + 1)] * r if r else []
    return blow_up(base, big + [insert(m)] * (base.n - r))


# ---------------------------------------------------------------------------
# protected-edge lower-bound colorings


def turan_parts(n: int, r: int) -> list[list[int]]:
    """Balanced partition of {1..n} into r classes, vertex v going to
    class ((v-1) mod r) + 1."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r} n={n}")
    parts: list[list[int]] = [[] for _ in range(r)]
    for v in range(1, n + 1):
        parts[(v - 1) % r].append(v)
    return parts


def construct_f_lower(n: int, k: int) -> Coloring:
    """k-coloring of K_n in which every edge between the N = gr_k3(k-1) - 1
    Turan classes avoids all rainbow and monochromatic triangles.

    The classes blow up the (k-1)-color triangle-free base of maximum
    order; edges inside a class take color k.  The one edge inside a
    class of size 2 is protected too, while every edge inside a larger
    class lies in a monochromatic triangle.  So the coloring protects
    turan_count(n, N) edges plus one per class of size 2, which is more
    than turan_count(n, N) exactly when N < n < 3N."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    t = gr_k3(k - 1) - 1
    if n < t:
        raise ValueError(f"n={n} too small: need at least {t} nonempty parts")
    base = construct_gr_k3_extremal(k - 1).with_k(k)
    q, p = divmod(n, t)
    sizes = [q + 1] * p + [q] * (t - p)
    inserts = [mono_clique(size, k, k) for size in sizes]
    return blow_up(base, inserts)


# ---------------------------------------------------------------------------
# star-free layer packings (nim lower bound)


def _relabel(edges: set[tuple[int, int]], mapping: Sequence[int]) -> set[tuple[int, int]]:
    out = set()
    for a, b in edges:
        x, y = mapping[a], mapping[b]
        out.add((min(x, y), max(x, y)))
    return out


def _far_vertex(n: int, adjacency: list[dict[int, int]], u: int) -> int | None:
    """Smallest vertex at graph distance >= 3 from u, or None; adjacency[x]
    holds x's neighbours as keys."""
    near = {u, *adjacency[u]}
    for w in adjacency[u]:
        near.update(adjacency[w])
    for v in range(n):
        if v not in near:
            return v
    return None


def construct_nim_star(n: int, h: int, k: int, seed: int = 0) -> Coloring:
    """k-coloring of K_n certifying the nim lower bound for stars with
    h leaves: k-1 pairwise edge-disjoint star-free layers, remaining
    edges in color k.

    Layers start as seeded random relabelings of one extremal star-free
    graph; overlapping layers are repaired by relabeling one layer with
    a transposition (u v) where v is at distance >= 3 from u in the
    union of all layers, which removes every shared edge at u and v
    from that layer without creating new overlaps.  Requires n to
    exceed the square of the union's maximum degree plus one, so such a
    v always exists."""
    if h < 2:
        raise ValueError(f"h must be >= 2, got {h}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < (k - 1) ** 2 * (h - 1) ** 2 + 2:
        raise ValueError(
            f"n={n} too small for the distance-3 repair: need n >= {(k - 1) ** 2 * (h - 1) ** 2 + 2}"
        )
    rng = random.Random(seed)
    pattern = {
        (u, v)
        for u, row in enumerate(_star_free_rows(n, h - 1, True, False))
        for v in compress(range(u + 1, n), row)
    }
    if len(pattern) != ex_star(n, h):
        raise RuntimeError(
            f"star-free pattern has {len(pattern)} edges, expected ex_star={ex_star(n, h)}"
        )

    layers = []
    for _ in range(k - 1):
        mapping = list(range(n))
        rng.shuffle(mapping)
        layers.append(_relabel(pattern, mapping))

    # union[x]: x's neighbours in the union of the layers, each with the
    # number of layers that hold the edge; shared[i, j] (i < j): the edges
    # layers i and j share.  A switch moves only edges of one layer at
    # its two vertices, so it updates both at those edges alone
    union: list[dict[int, int]] = [{} for _ in range(n)]

    def count(e, step):
        a, b = e
        for x, y in ((a, b), (b, a)):
            union[x][y] = union[x].get(y, 0) + step
            if not union[x][y]:
                del union[x][y]

    for layer in layers:
        for e in layer:
            count(e, 1)
    shared = {
        (i, j): layers[i] & layers[j] for i in range(k - 1) for j in range(i + 1, k - 1)
    }

    max_switches = n * n
    switches = 0
    while True:
        conflict = next(((i, min(edges)) for (i, _), edges in shared.items() if edges), None)
        if conflict is None:
            break
        if switches >= max_switches:
            raise RuntimeError(
                f"layer repair exceeded {max_switches} switches; "
                "precondition on n violated"
            )
        i, (u, _) = conflict
        v = _far_vertex(n, union, u)
        if v is None:
            raise RuntimeError(
                "no vertex at distance >= 3 available; precondition on n violated"
            )
        layer = layers[i]
        swap = list(range(n))
        swap[u], swap[v] = v, u
        moved = {(min(x, w), max(x, w)) for x in (u, v) for w in union[x]} & layer
        image = _relabel(moved, swap)
        gone, came = moved - image, image - moved
        layer -= gone
        layer |= came
        for edges, step in ((gone, -1), (came, 1)):
            for e in edges:
                count(e, step)
                # e leaves or joins each pair's shared set with layer i
                for j, other in enumerate(layers):
                    if j != i and e in other:
                        shared[min(i, j), max(i, j)] ^= {e}
        switches += 1

    colors = []
    layer_of: dict[tuple[int, int], int] = {}
    for i, layer in enumerate(layers, start=1):
        for e in layer:
            if e in layer_of:
                raise RuntimeError(f"edge {e} shared by layers {layer_of[e]} and {i}")
            layer_of[e] = i
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            colors.append(layer_of.get((u - 1, v - 1), k))
    return Coloring(n, k, colors)


# ---------------------------------------------------------------------------
# randomized Gallai colorings (blow-up process), used for property checks


def random_gallai_coloring(n: int, k: int, rng: random.Random) -> Coloring:
    """Random Gallai coloring built by recursive blow-ups of 2-colored
    bases; any coloring produced this way is rainbow-triangle-free.

    Each blow-up of n >= 2 vertices draws a base of t = 2..min(n, 5)
    vertices, its palette of at most two colors, the base colors and
    the copy sizes, then builds its copies in order.  The rows are
    written in one pass over that tree: every vertex of a copy has the
    same colors to the vertices after the copy, so a copy passes its
    vertices that suffix, and a single vertex's row is its suffix."""
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n} k={k}")
    colors: list[int] = []

    def rows(n, suffix):
        if n == 1:
            colors.extend(suffix)
            return
        t = rng.randint(2, min(n, 5))
        palette = rng.sample(range(1, k + 1), min(k, 2))
        base_colors = iter([rng.choice(palette) for _ in range(comb(t, 2))])
        sizes = [1] * t
        for _ in range(n - t):
            sizes[rng.randrange(t)] += 1
        for i, size in enumerate(sizes):
            # the colors from copy i to the later copies, as in blow_up
            tail: list[int] = []
            for later, c in zip(sizes[i + 1 :], base_colors):
                tail += [c] * later
            rows(size, tail + suffix)

    rows(n, [])
    return Coloring(n, k, colors)
