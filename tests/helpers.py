"""Brute-force oracles: independent (triple-loop / full-enumeration)
reimplementations of the quantities the library computes cleverly."""

from collections import Counter
from itertools import combinations, product
from math import comb

from gallai import Coloring, lex_pairs
from gallai.verify import _between_colors, _set_partitions


def all_colorings(n, k):
    for colors in product(range(1, k + 1), repeat=comb(n, 2)):
        yield Coloring(n, k, colors)


def brute_census(c):
    """Classify every triple by direct enumeration."""
    mono = Counter()
    bi = rain = 0
    for u, v, w in combinations(range(1, c.n + 1), 3):
        cols = {c.color(u, v), c.color(u, w), c.color(v, w)}
        if len(cols) == 1:
            mono[cols.pop()] += 1
        elif len(cols) == 2:
            bi += 1
        else:
            rain += 1
    return dict(mono), bi, rain


def brute_first_rainbow(c):
    """First triple in `itertools.combinations` order whose three edges
    carry three colors (the lexicographically smallest rainbow
    triangle), or None."""
    for u, v, w in combinations(range(1, c.n + 1), 3):
        if len({c.color(u, v), c.color(u, w), c.color(v, w)}) == 3:
            return (u, v, w)
    return None


def brute_protected(c):
    count = 0
    for u, v in lex_pairs(c.n):
        ok = True
        for w in range(1, c.n + 1):
            if w in (u, v):
                continue
            cols = {c.color(u, v), c.color(u, w), c.color(v, w)}
            if len(cols) != 2:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_nim_star(c, h):
    count = 0
    for u, v in lex_pairs(c.n):
        q = c.color(u, v)
        du = sum(1 for w in range(1, c.n + 1) if w != u and c.color(u, w) == q)
        dv = sum(1 for w in range(1, c.n + 1) if w != v and c.color(v, w) == q)
        if du <= h - 1 and dv <= h - 1:
            count += 1
    return count


def goodman_reference(n, a, b):
    """The Goodman-extremal 2-coloring as an edge set on 0..n-1: color a
    on the circulant of offsets 1..d//2 with d = floor(n/2), plus, when
    d is odd, the antipodal (n even) or near-antipodal (n odd) matching
    {i, i + d} for i < d; color b elsewhere."""
    d = n // 2
    edges = {tuple(sorted((i, (i + t) % n))) for i in range(n) for t in range(1, d // 2 + 1)}
    if d % 2:
        edges |= {(i, i + d) for i in range(d)}
    return Coloring(n, max(a, b), [a if (u - 1, v - 1) in edges else b for u, v in lex_pairs(n)])


def min_valid_partition_size(coloring, partition):
    """Smallest part count among valid coarsenings of the partition,
    by exhaustive enumeration of groupings of its parts."""
    sizes = []
    for grouping in _set_partitions(list(partition.parts)):
        merged = [[v for part in group for v in part] for group in grouping]
        if _between_colors(coloring, merged) is not None:
            sizes.append(len(merged))
    return min(sizes, default=None)


def brute_verify_partition(coloring, partition):
    """verify_gallai_partition by definition: the parts cover 1..n
    exactly once, every part-pair is monochromatic with at most two
    between-colours in total, and reduced and between_colors record
    them."""
    parts = partition.parts
    if sorted(v for part in parts for v in part) != list(range(1, coloring.n + 1)):
        return False
    between = _between_colors(coloring, parts)
    if between is None:
        return False
    t, reduced = len(parts), partition.reduced
    if (reduced.n, reduced.k) != (t, coloring.k):
        return False
    for a, b in combinations(range(t), 2):
        if reduced.color(a + 1, b + 1) != coloring.color(parts[a][0], parts[b][0]):
            return False
    return between == partition.between_colors


def brute_min_mono(n, k, gallai_only=False):
    best = None
    for c in all_colorings(n, k):
        mono, _, rain = brute_census(c)
        if gallai_only and rain:
            continue
        total = sum(mono.values())
        if best is None or total < best:
            best = total
    return best


def brute_max_protected(n, k):
    return max(brute_protected(c) for c in all_colorings(n, k))


def brute_has_mono_clique(c, color, size):
    for vs in combinations(range(1, c.n + 1), size):
        if all(c.color(u, v) == color for u, v in combinations(vs, 2)):
            return True
    return False


def brute_has_mono_k4e(c, color):
    for vs in combinations(range(1, c.n + 1), 4):
        if not all(c.color(u, v) == color for u, v in combinations(vs, 2)):
            continue
        for pendant in range(1, c.n + 1):
            if pendant in vs:
                continue
            if any(c.color(x, pendant) == color for x in vs):
                return True
    return False


def _is_mono_clique(c, color, vs):
    return all(c.color(u, v) == color for u, v in combinations(vs, 2))


def brute_first_mono_clique(c, color, size):
    """First monochromatic clique of the given size in
    `itertools.combinations` order (the lexicographically smallest)."""
    for vs in combinations(range(1, c.n + 1), size):
        if _is_mono_clique(c, color, vs):
            return vs
    return None


def brute_first_k4e(c, color):
    """First monochromatic K4 in combinations order that has a pendant
    edge of the same color, followed by the pendant: the lowest pendant
    neighbor of the lowest clique vertex that has one."""
    for quad in combinations(range(1, c.n + 1), 4):
        if not _is_mono_clique(c, color, quad):
            continue
        for y in quad:
            for pendant in range(1, c.n + 1):
                if pendant not in quad and c.color(y, pendant) == color:
                    return quad + (pendant,)
    return None


def brute_exists_in(c, targets, gallai_only=False):
    """Whether coloring c (with no rainbow triangle, under gallai_only)
    has no monochromatic targets[q-1] in any color q."""
    if any(
        brute_has_mono_clique(c, q, 3) if target == "K3" else brute_has_mono_k4e(c, q)
        for q, target in enumerate(targets, 1)
    ):
        return False
    return not (gallai_only and brute_census(c)[2])


def brute_exists_avoiding(n, k, targets, gallai_only=False):
    """1 if some k-coloring of K_n (with no rainbow triangle, under
    gallai_only) has no monochromatic targets[c-1] in any color c, else 0."""
    return int(any(brute_exists_in(c, targets, gallai_only) for c in all_colorings(n, k)))


def misses_a_color_everywhere(c):
    """Whether every vertex's star leaves out at least one color."""
    return all(
        len({c.color(v, w) for w in range(1, c.n + 1) if w != v}) < c.k
        for v in range(1, c.n + 1)
    )


def brute_gr_star_pair_exists(n, k):
    """Whether some k-coloring of K_n has no monochromatic and no
    rainbow triangle while every vertex misses a color."""
    for c in all_colorings(n, k):
        if misses_a_color_everywhere(c):
            mono, _, rain = brute_census(c)
            if not mono and not rain:
                return True
    return False


# search._column_end in the form that walks every new swap (i, v) to its
# first difference, for the differential test: picking the swaps off the
# tie masks must give the same verdict, named[v] and carried swaps
def column_end_reference(t, col, opened, held, named, k, plan):
    """Whether coloring the last edge t of column v with col[t] leaves
    K_v no larger than its image under every vertex swap (i, j), j <= v,
    with the image's colors renamed into first-appearance order.

    The swaps compared are those held[v] holds, which tied K_{v-1} and
    go on from column v, and each new swap (i, v) from column i on, for
    i = 1, 2, ... while K_{i-1} leaves a color unused: the swap leaves
    K_{i-1} in place, so its renaming starts as the identity on K_{i-1}'s
    colors, and once K_{i-1} uses all k colors it is the identity, which
    _search's tie masks compare.  A swap whose renaming is the identity
    on the colors named so far (pi None) can differ from the coloring
    only at the edges {a, i} and {a, j}, first at the least a with
    {a, i} and {a, j} of different colors; there a color y new to the
    image above the coloring's x ties under y -> x when x is new too,
    and the swap goes on under that map, compared edge by edge.  A
    smaller image refuses the color, a larger one drops the swap, and so
    does a tie under the identity once K_v uses every color.  Writes
    named[v], the colors K_v uses, and held[v + 1], the swaps K_v ties
    as (i, j, pi, the colors pi names, where the comparison goes on: a
    vertex a while pi is None, else a depth)."""
    us, vs = plan.u, plan.v
    v = vs[t]
    named[v] = d = max(named[v - 1], *col[t - v + 2 : t + 1])
    kept = []
    for i, j, pi, mapped, p in held[v] + [
        (i, v, None, 0, 1) for i in range(1, v) if named[i - 1] < k
    ]:
        if pi is None:
            for a in range(p, v + 1):
                if a != i and a != j:
                    p = (i - 1) * (i - 2) // 2 + a - 1 if a < i else (a - 1) * (a - 2) // 2 + i - 1
                    s = (j - 1) * (j - 2) // 2 + a - 1 if a < j else (a - 1) * (a - 2) // 2 + j - 1
                    x = col[p]
                    y = col[s]
                    if x != y:
                        break
            else:
                if d < k:
                    kept.append((i, j, None, 0, v + 1))
                continue
            if y < x:
                return False
            if x != opened[p][-1]:
                continue  # x is not new, so y renames above it
            pi = [*range(x)] + [0] * (k + 1 - x)
            pi[y] = mapped = x
            p += 1
        else:
            pi = pi[:]
        while p <= t:
            a = us[p]
            b = vs[p]
            a = j if a == i else i if a == j else a
            b = j if b == i else i if b == j else b
            s = (b - 1) * (b - 2) // 2 + a - 1 if a < b else (a - 1) * (a - 2) // 2 + b - 1
            y = col[s]
            z = pi[y]
            if not z:
                mapped += 1
                z = pi[y] = mapped
            x = col[p]
            if z != x:
                if z < x:
                    return False
                break
            p += 1
        else:
            kept.append((i, j, pi, mapped, t + 1))
    held[v + 1] = kept
    return True
