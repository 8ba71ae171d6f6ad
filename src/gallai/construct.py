"""Generators for the extremal colorings: base gadgets (pentagon and
Paley-17 two-colorings, monochromatic cliques), the blow-up operator,
and the construction families built from them:

  * triangle-free Gallai colorings of maximum order for k colors
    (iterated pentagon blow-ups, odd k finished by a monochromatic join);
  * colorings of maximum order avoiding monochromatic K4+e in the first
    s colors and monochromatic triangles in the rest (17-fold Paley
    blow-ups, then pentagon blow-ups, then a final join);
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
"""

from __future__ import annotations

import random
from collections.abc import Sequence
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


def pentagon_coloring(a: int, b: int) -> Coloring:
    """K_5 with the 5-cycle {i,i+1} in color a and the diagonals in
    color b; the unique 2-coloring of K_5 with no monochromatic
    triangle."""
    if a == b:
        raise ValueError("pentagon colors must differ")
    k = max(a, b)
    colors = []
    for u, v in lex_pairs(5):
        on_cycle = (v - u) in (1, 4)
        colors.append(a if on_cycle else b)
    return Coloring(5, k, colors)


_QR17 = frozenset(pow(x, 2, 17) for x in range(1, 17))


def paley17_coloring(a: int, b: int) -> Coloring:
    """K_17 colored a on quadratic-residue differences mod 17 and b
    otherwise; neither color class contains a K4 (each class is the
    self-complementary Paley graph of order 17)."""
    if a == b:
        raise ValueError("paley colors must differ")
    k = max(a, b)
    colors = []
    for u, v in lex_pairs(17):
        colors.append(a if (v - u) % 17 in _QR17 else b)
    return Coloring(17, k, colors)


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


def _join_two_copies(g: Coloring, color: int, k: int) -> Coloring:
    """Two copies of g with all cross edges in the given color."""
    base = mono_clique(2, color, k)
    g = g.with_k(k)
    return blow_up(base, [g, g])


# ---------------------------------------------------------------------------
# triangle-free Gallai colorings of maximum order


def _triangle_free_even(j: int, k: int) -> Coloring:
    """Triangle-free Gallai coloring on 5^(j/2) vertices using colors
    1..j (j even), over the color universe 1..k: iterated pentagon
    blow-ups."""
    g = single_vertex(k)
    for i in range(0, j, 2):
        base = pentagon_coloring(i + 1, i + 2).with_k(k)
        g = blow_up(base, [g] * 5)
    return g


def construct_gr_k3_extremal(k: int) -> Coloring:
    """Gallai-k-coloring with no monochromatic triangle on the largest
    possible vertex count (one less than the Gallai-Ramsey threshold).

    Even k: iterated pentagon blow-ups on color pairs (1,2),(3,4),...;
    odd k: the (k-1)-color coloring, two copies joined in color k (no
    copy has a color-k edge, so no color-k triangle arises)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k % 2 == 0:
        return _triangle_free_even(k, k)
    g = _triangle_free_even(k - 1, k)
    return _join_two_copies(g, k, k)


# ---------------------------------------------------------------------------
# colorings with no K4+e in the first s colors, no K3 in the rest


def construct_gr_k4e_extremal(k: int, s: int) -> Coloring:
    """Gallai-k-coloring of maximum order with no monochromatic K4+e in
    colors 1..s and no monochromatic triangle in colors s+1..k.

    Start from a single vertex (s even) or a color-1 K4 (s odd), then
    while colors remain: blow a 2-colored Paley K_17 up with 17 copies
    while at most s-2 colors are used, a triangle-free K_5 while at most
    k-2 are used, and finish an odd tail by joining two copies with the
    last color."""
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
            g = _join_two_copies(g, k, k)
            i += 1
    if g.n != mixed_k4e_extremal_order(k, s):
        raise RuntimeError(
            f"built n={g.n}, expected {mixed_k4e_extremal_order(k, s)} for k={k} s={s}"
        )
    return g


# ---------------------------------------------------------------------------
# minimum monochromatic-triangle-count extremal colorings


def _circulant_pairs(n: int, offsets) -> set[tuple[int, int]]:
    """0-based circulant edge set; an antipodal offset contributes a
    perfect matching."""
    edges = set()
    for d in offsets:
        for i in range(n):
            j = (i + d) % n
            edges.add((min(i, j), max(i, j)))
    return edges


def _near_antipodal_matching(n: int) -> set[tuple[int, int]]:
    """For odd n: a matching of (n-1)/2 offset-(n-1)/2 pairs covering
    all vertices but the last."""
    half = (n - 1) // 2
    return {(i, i + half) for i in range((n - 1) // 2)}


def goodman_extremal_2coloring(n: int, color_a: int, color_b: int) -> Coloring:
    """2-coloring of K_n with the minimum possible number of
    monochromatic triangles.

    The monochromatic count of a 2-coloring is C(n,3) minus half the sum
    of d(v)(n-1-d(v)) over the color-a degrees d(v), so any coloring
    whose color-a degrees all sit at the feasible maximizers of
    d(n-1-d) is extremal.  The star-free circulant of maximum degree
    floor(n/2) realizes that: its degrees are floor or ceil of (n-1)/2,
    but for the one vertex n = 3 mod 4 forces lower.

    That graph, color_a here, is _star_free_graph(n, n // 2 + 1), built
    by rows: row u is a prefix of one circulant pattern, plus the pair
    of the (near-)antipodal matching on the rows that have one."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if color_a == color_b:
        raise ValueError("colors must differ")
    k = max(color_a, color_b)
    d = n // 2  # the maximum degree
    # pattern[t]: the color of the pairs at circulant distance t, color_a
    # on the offsets 1..d//2
    pattern = [color_a if min(t, n - t) <= d // 2 else color_b for t in range(n)]
    # when d is odd, the antipodal (n even) or near-antipodal (n odd)
    # matching joins each u <= d to u + d
    matched = d if d % 2 == 1 else 0
    colors = []
    for u in range(1, n + 1):
        row = pattern[1 : n - u + 1]
        if u <= matched:
            row[d - 1] = color_a
        colors += row
    return Coloring(n, k, colors)


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
    if k % 2 == 1:
        base = _triangle_free_even(k - 1, k)

        def insert(size):
            return mono_clique(size, k, k)
    else:
        base = _triangle_free_even(k - 2, k)

        def insert(size):
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


def _star_free_graph(n: int, h: int) -> set[tuple[int, int]]:
    """0-based n-vertex graph with max degree h-1 and floor((h-1)n/2)
    edges: circulant offsets 1..floor((h-1)/2), completed by an
    antipodal (n even) or near-antipodal (n odd) matching when h-1 is
    odd."""
    d = h - 1
    if n <= d:
        raise ValueError(f"need n > h-1, got n={n} h={h}")
    edges = _circulant_pairs(n, range(1, d // 2 + 1))
    if d % 2 == 1:
        if n % 2 == 0:
            edges |= _circulant_pairs(n, [n // 2])
        else:
            edges |= _near_antipodal_matching(n)
    return edges


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
    pattern = _star_free_graph(n, h)
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
