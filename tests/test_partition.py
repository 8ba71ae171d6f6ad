import hashlib
import json
import random
from collections import Counter
from itertools import chain, combinations, product
from math import comb
from pathlib import Path

import pytest

import gallai.partition
import helpers
from gallai import (
    Coloring,
    GallaiPartition,
    NotGallaiError,
    blow_up,
    coarsen_to_min_parts,
    construct_f_lower,
    construct_gr_k3_extremal,
    construct_gr_k4e_extremal,
    construct_multiplicity_extremal,
    construct_nim_star,
    find_gallai_partition,
    goodman_extremal_2coloring,
    gr_k3,
    is_gallai,
    mixed_k4e_extremal_order,
    mono_clique,
    paley17_coloring,
    parse_coloring,
    pentagon_coloring,
    random_gallai_coloring,
    triangle_census,
    verify_gallai_partition,
)
from gallai.partition import (
    _candidate_color_sets,
    _color_rows,
    _components_outside,
    _module_children,
    _quotient,
    _vertices,
)

RAINBOW_K3 = parse_coloring("3 3\n1 2 1\n1 3 2\n2 3 3")


def test_k2_two_singletons():
    c = mono_clique(2, 3, k=5)
    gp = find_gallai_partition(c)
    assert gp.parts == ((1,), (2,))
    assert gp.between_colors == frozenset({3})
    assert verify_gallai_partition(c, gp)


def test_pentagon_five_singletons():
    c = pentagon_coloring(1, 2)
    gp = find_gallai_partition(c)
    assert gp.parts == tuple((v,) for v in range(1, 6))
    assert gp.between_colors == frozenset({1, 2})
    assert verify_gallai_partition(c, gp)


def test_pentagon_blow_up_recovers_copies():
    c = blow_up(
        pentagon_coloring(3, 4).with_k(4), [pentagon_coloring(1, 2).with_k(4)] * 5
    )
    gp = find_gallai_partition(c)
    assert gp.parts == tuple(
        tuple(range(5 * i + 1, 5 * i + 6)) for i in range(5)
    )
    assert gp.between_colors == frozenset({3, 4})
    assert verify_gallai_partition(c, gp)
    # the reduced coloring is the base pentagon
    assert gp.reduced == pentagon_coloring(3, 4).with_k(4)


def test_mono_clique_singletons_accepted():
    c = mono_clique(6, 2, k=3)
    gp = find_gallai_partition(c)
    assert len(gp.parts) == 6
    assert verify_gallai_partition(c, gp)


def test_not_gallai_error_carries_witness():
    with pytest.raises(NotGallaiError) as err:
        find_gallai_partition(RAINBOW_K3)
    assert err.value.witness == (1, 2, 3)


def test_rejects_single_vertex():
    with pytest.raises(ValueError):
        find_gallai_partition(Coloring(1, 2, ()))


def test_verify_rejects_rainbow_singletons():
    bogus = GallaiPartition(
        parts=((1,), (2,), (3,)),
        between_colors=frozenset({1, 2, 3}),
        reduced=RAINBOW_K3,
    )
    assert not verify_gallai_partition(RAINBOW_K3, bogus)


def test_verify_rejects_malformed():
    c = pentagon_coloring(1, 2)
    good = find_gallai_partition(c)
    missing = GallaiPartition(good.parts[:-1], good.between_colors, good.reduced)
    assert not verify_gallai_partition(c, missing)
    wrong_between = GallaiPartition(good.parts, frozenset({1}), good.reduced)
    assert not verify_gallai_partition(c, wrong_between)


def _with_parts(coloring, partition, parts):
    """The partition with new parts, its reduced colouring and between
    colours read off the lowest member of each part, as a finder would."""
    lows = [part[0] for part in parts]
    reduced = [coloring.color(u, v) for u, v in combinations(lows, 2)]
    return partition._replace(
        parts=tuple(map(tuple, parts)),
        between_colors=frozenset(reduced),
        reduced=Coloring(len(parts), coloring.k, reduced),
    )


def _perturbations(coloring, gp, rng):
    """Named variants of a valid partition, most of them invalid."""
    n, k = coloring.n, coloring.k
    parts = [list(p) for p in gp.parts]
    t = len(parts)
    reduced = list(gp.reduced.colors)
    i, j = rng.sample(range(t), 2)
    v = rng.choice(parts[i])

    moved = [list(p) for p in parts]
    moved[i].remove(v)
    moved[j] = sorted(moved[j] + [v])
    if moved[i]:
        yield "moved", gp._replace(parts=tuple(map(tuple, moved)))
        yield "moved, reduced recomputed", _with_parts(coloring, gp, moved)
    else:
        yield "moved, part left empty", gp._replace(parts=tuple(map(tuple, moved)))

    if k >= 2:
        x = rng.randrange(len(reduced))
        changed = list(reduced)
        changed[x] = rng.choice([c for c in range(1, k + 1) if c != reduced[x]])
        yield "reduced colour changed", gp._replace(reduced=Coloring(t, k, changed))
        missing = [c for c in range(1, k + 1) if c not in gp.between_colors]
        if missing:
            yield "between colour added", gp._replace(between_colors=gp.between_colors | {missing[0]})
    if len(gp.between_colors) == 2:
        yield "between colour dropped", gp._replace(between_colors=frozenset([min(gp.between_colors)]))
    yield "between colours empty", gp._replace(between_colors=frozenset())

    yield "reduced n too large", gp._replace(reduced=Coloring(t + 1, k, reduced + [1] * t))
    yield "reduced n too small", gp._replace(reduced=Coloring(t - 1, k, reduced[: comb(t - 1, 2)]))
    yield "reduced k too large", gp._replace(reduced=gp.reduced.with_k(k + 1))
    if max(reduced) < k:
        yield "reduced k too small", gp._replace(reduced=Coloring(t, k - 1, reduced))

    dup = [list(p) for p in parts]
    dup[j] = sorted(dup[j] + [v])
    yield "vertex duplicated", gp._replace(parts=tuple(map(tuple, dup)))
    gone = [list(p) for p in parts]
    gone[i].remove(v)
    yield "vertex missing", gp._replace(parts=tuple(map(tuple, gone)))
    for label, bad in (("0", 0), ("n+1", n + 1)):
        extra = [list(p) for p in parts]
        extra[j].append(bad)
        yield f"vertex {label} added", gp._replace(parts=tuple(map(tuple, extra)))
        swapped = [list(p) for p in parts]
        swapped[i][swapped[i].index(v)] = bad
        yield f"vertex replaced by {label}", gp._replace(parts=tuple(map(tuple, swapped)))

    yield "single part", gp._replace(
        parts=(tuple(range(1, n + 1)),), between_colors=frozenset(), reduced=Coloring(1, k, ())
    )

    # valid whenever gp is: the reduced colouring follows the parts' order,
    # and any member of a part stands for it
    shuffled = rng.sample(parts, t)
    if shuffled != parts:
        yield "parts out of lowest-member order", _with_parts(coloring, gp, shuffled)
    if any(len(p) > 1 for p in parts):
        yield "members of a part out of order", gp._replace(parts=tuple(tuple(rng.sample(p, len(p))) for p in parts))

    # a singleton's vertex put last in another part, so that only that
    # member can break the part's module test
    singletons = [x for x, p in enumerate(parts) if len(p) == 1]
    if t > 2 and singletons:
        x = rng.choice(singletons)
        y = rng.choice([z for z in range(t) if z != x])
        joined = [p + parts[x] if z == y else p for z, p in enumerate(parts) if z != x]
        yield "singleton put last in a part, reduced recomputed", _with_parts(coloring, gp, joined)


def test_verify_agrees_with_brute_force_on_perturbations():
    rng = random.Random(31)
    verdicts = Counter()
    for _ in range(150):
        c = random_gallai_coloring(rng.randint(2, 14), rng.randint(1, 4), rng)
        found = find_gallai_partition(c)
        for gp in (found, coarsen_to_min_parts(c, found)):
            assert verify_gallai_partition(c, gp) and helpers.brute_verify_partition(c, gp)
            for name, bad in _perturbations(c, gp, rng):
                want = helpers.brute_verify_partition(c, bad)
                assert verify_gallai_partition(c, bad) == want, (name, c.serialize(), bad)
                verdicts[name, want] += 1
    # every kind of perturbation was rejected at least once, and moving a
    # vertex sometimes leaves a valid partition
    assert {name for name, ok in verdicts if not ok} >= {
        "moved",
        "moved, reduced recomputed",
        "reduced colour changed",
        "between colour added",
        "between colour dropped",
        "between colours empty",
        "reduced n too large",
        "reduced n too small",
        "reduced k too large",
        "reduced k too small",
        "vertex duplicated",
        "vertex missing",
        "vertex 0 added",
        "vertex n+1 added",
        "vertex replaced by 0",
        "vertex replaced by n+1",
        "single part",
        "singleton put last in a part, reduced recomputed",
    }
    assert verdicts["moved, reduced recomputed", True] > 0
    for name in ("parts out of lowest-member order", "members of a part out of order"):
        assert verdicts[name, True] > 0 and not verdicts[name, False], name

    # the all-singleton partition of a prime 2-colouring is checked by its
    # quotient alone: every flipped reduced colour is caught
    c = goodman_extremal_2coloring(30, 1, 2)
    gp = find_gallai_partition(c)
    assert gp.parts == tuple((v,) for v in range(1, 31))
    assert verify_gallai_partition(c, gp)
    for x in range(comb(30, 2)):
        flipped = list(gp.reduced.colors)
        flipped[x] = 3 - flipped[x]
        bad = gp._replace(reduced=Coloring(30, 2, flipped))
        assert not verify_gallai_partition(c, bad) and not helpers.brute_verify_partition(c, bad), x


def test_quotient_matches_color():
    # random colourings with colour values up to 1000 and random ascending
    # representative sets, one and two representatives included
    rng = random.Random(38)
    for _ in range(600):
        n = rng.randint(2, 40)
        k = rng.choice([2, 5, 1000])
        c = Coloring(n, k, [rng.randint(1, k) for _ in range(comb(n, 2))])
        size = rng.choice([1, 2, rng.randint(1, n), n])
        reps = sorted(rng.sample(range(1, n + 1), size))
        want = tuple(c.color(u, v) for u, v in combinations(reps, 2))
        assert tuple(chain.from_iterable(_quotient(c, reps))) == want, (c.serialize(), reps)


def test_color_rows_match_cached_adjacency(monkeypatch):
    # on the n singletons in vertex order the reduced coloring is the
    # coloring itself, and coarsen_to_min_parts reads its cached a-rows
    # in place of _color_rows': the two must be the same rows
    rng = random.Random(39)
    for _ in range(300):
        n = rng.randint(2, 40)
        k = rng.choice([2, 5, 1000])
        c = Coloring(n, k, [rng.randint(1, k) for _ in range(comb(n, 2))])
        for a in c.used_colors():
            assert _color_rows(n, c.colors, a) == c.adjacency()[a][1:], (c.serialize(), a)
    c = goodman_extremal_2coloring(30, 1, 2)
    gp = find_gallai_partition(c)
    assert gp.parts == tuple((v,) for v in range(1, 31))
    want = coarsen_to_min_parts(c, gp)

    def refuse(*args):
        raise AssertionError("the singleton rows were rebuilt")

    monkeypatch.setattr(gallai.partition, "_color_rows", refuse)
    assert coarsen_to_min_parts(c, gp) == want


def test_vertices_of_masks():
    rng = random.Random(39)
    for _ in range(2000):
        n = rng.randint(1, 300)
        mask = rng.getrandbits(n) & rng.choice([-1, rng.getrandbits(n), 1 << rng.randrange(n)])
        assert _vertices(mask) == tuple(v for v in range(1, n + 1) if mask >> (v - 1) & 1), mask


def test_non_s_components_pairwise_monochromatic():
    # the lemma behind find_gallai_partition, checked by brute force
    rng = random.Random(60)
    for _ in range(40):
        c = random_gallai_coloring(rng.randint(2, 60), rng.randint(1, 6), rng)
        for s in _candidate_color_sets(range(1, c.k + 1)):
            groups = [_vertices(comp) for comp in _components_outside(c, s)]
            assert sorted(v for g in groups for v in g) == list(range(1, c.n + 1))
            for a, b in combinations(groups, 2):
                assert len({c.color(u, v) for u in a for v in b}) == 1, (c.serialize(), s)


def _parts_by_all_candidates(c):
    """find_gallai_partition's parts by the full enumeration of the
    candidate colour sets: every subset of size 1 or 2 of 1..k, sorted,
    until the components outside one of them number two or more."""
    k = c.k
    sets = sorted([(a,) for a in range(1, k + 1)] + list(combinations(range(1, k + 1), 2)))
    for s in sets:
        comps = _components_outside(c, s)
        if len(comps) >= 2:
            return tuple(_vertices(comp) for comp in comps)
    raise AssertionError("no candidate set splits")


def test_candidate_sets_split_as_the_full_enumeration():
    # the grid's random inputs, with unused colours above the used ones
    # and, spread out, below and between them too
    for n in range(2, 61):
        for k in range(1, 7):
            c = random_gallai_coloring(n, k, random.Random(100 * n + k))
            spread = Coloring(n, 2 * k + 3, [2 * x + 1 for x in c.colors])
            for wide in (c.with_k(k + 4), spread):
                assert find_gallai_partition(wide).parts == _parts_by_all_candidates(wide), (n, k)


def test_candidate_sets_try_each_used_restriction_once(monkeypatch):
    calls = []
    components_outside = gallai.partition._components_outside

    def counted(coloring, s):
        calls.append(s)
        return components_outside(coloring, s)

    monkeypatch.setattr(gallai.partition, "_components_outside", counted)
    k = 10**5
    # the pentagon splits only outside both of its colours
    for c, parts in [
        (Coloring(3, k, (k - 1, k - 1, k)), ((1,), (2, 3))),
        (Coloring(3, k, (k, k, k)), ((1,), (2,), (3,))),
        (pentagon_coloring(k - 1, k), tuple((v,) for v in range(1, 6))),
    ]:
        calls.clear()
        assert find_gallai_partition(c).parts == parts
        u = len(set(c.colors))
        assert len(calls) <= u * (u + 1) // 2 + 1, calls


def test_roundtrip_on_random_blow_ups():
    rng = random.Random(77)
    for _ in range(120):
        c = random_gallai_coloring(rng.randint(2, 45), rng.randint(1, 5), rng)
        gp = find_gallai_partition(c)
        assert verify_gallai_partition(c, gp)


def test_coarsen_two_parts_fixed():
    c = mono_clique(2, 1)
    gp = find_gallai_partition(c)
    assert coarsen_to_min_parts(c, gp) == gp


def test_coarsen_merges_same_color_rows():
    # 3-part partition where parts 2 and 3 see part 1 in the same color:
    # vertices {1,2}, {3}, {4} with c({1,2},3) = c({1,2},4) = 1, c(3,4) = 1
    # gives singleton-ish parts that can merge
    colors = {
        (1, 2): 2,
        (1, 3): 1,
        (2, 3): 1,
        (1, 4): 1,
        (2, 4): 1,
        (3, 4): 1,
    }
    c = Coloring(4, 2, [colors[p] for p in sorted(colors)])
    assert is_gallai(c)
    gp = find_gallai_partition(c)
    coarse = coarsen_to_min_parts(c, gp)
    assert len(coarse.parts) == 2
    assert verify_gallai_partition(c, coarse)


def test_coarsen_pentagon_stays_five():
    c = pentagon_coloring(1, 2)
    gp = find_gallai_partition(c)
    assert len(coarsen_to_min_parts(c, gp).parts) == 5


def _random_small_colorings(rng, count):
    """Random Gallai blow-ups and random 2-colorings (every one Gallai,
    and often prime) with n <= 8."""
    for i in range(count):
        n = rng.randint(2, 8)
        if i % 2:
            yield Coloring(n, 2, [rng.randint(1, 2) for _ in range(comb(n, 2))])
        else:
            yield random_gallai_coloring(n, rng.randint(1, 4), rng)


def test_coarsen_reaches_minimum_exhaustively():
    # compare against the true minimum over all valid coarsenings,
    # computed by brute force over set partitions
    rng = random.Random(5)
    for c in _random_small_colorings(rng, 300):
        gp = find_gallai_partition(c)
        coarse = coarsen_to_min_parts(c, gp)
        assert verify_gallai_partition(c, coarse), c.serialize()
        assert all(any(set(p) <= set(q) for q in coarse.parts) for p in gp.parts)
        best = helpers.min_valid_partition_size(c, gp)
        assert len(coarse.parts) == best, (c.serialize(), best)


def test_coarsen_reads_colours_of_any_value():
    # the same coarsening with the colours renamed, in order, to values
    # that no byte holds
    rng = random.Random(11)
    wide = {1: 256, 2: 700, 3: 999, 4: 1000}.__getitem__
    for c in _random_small_colorings(rng, 100):
        gp = find_gallai_partition(c)
        coarse = coarsen_to_min_parts(c, gp)
        renamed = GallaiPartition(
            gp.parts,
            frozenset(map(wide, gp.between_colors)),
            Coloring(gp.reduced.n, 1000, map(wide, gp.reduced.colors)),
        )
        got = coarsen_to_min_parts(Coloring(c.n, 1000, map(wide, c.colors)), renamed)
        assert got.parts == coarse.parts
        assert got.reduced.colors == tuple(map(wide, coarse.reduced.colors))


def test_coarsen_merges_p4_quotient_to_two_parts():
    # colour 1 is the path 5-1-3-4 and vertex 2 sees every other vertex
    # in colour 2, so {2}, {1,3,4,5} is a valid coarsening of the five
    # singletons; no pair of singletons can merge
    c = Coloring(5, 2, (2, 1, 2, 1, 2, 2, 2, 1, 2, 2))
    gp = find_gallai_partition(c)
    assert gp.parts == ((1,), (2,), (3,), (4,), (5,))
    assert helpers.min_valid_partition_size(c, gp) == 2
    assert coarsen_to_min_parts(c, gp).parts == ((1, 3, 4, 5), (2,))


def test_coarsen_keeps_the_last_part_apart_on_one_color():
    # the two-group rule: the component of the last part in the
    # disconnected colour graph is one group
    c = mono_clique(6, 2, k=3)
    coarse = coarsen_to_min_parts(c, find_gallai_partition(c))
    assert coarse.parts == ((1, 2, 3, 4, 5), (6,))
    assert coarse.reduced == Coloring(2, 3, [2])


def test_coarsen_finds_the_prime_quotient_of_a_blow_up():
    # a pentagon of modules in the pentagon's own two colours: a P4, a
    # triangle, one vertex, two joined edges and an edge.  Both colour
    # graphs are connected, so the partition is the 14 singletons, and
    # the five modules are the unique minimum; vertex 1's module, the
    # P4, is prime itself.
    inner = [
        Coloring(4, 2, (1, 2, 2, 1, 2, 1)),
        mono_clique(3, 1, k=2),
        mono_clique(1, 1, k=2),
        blow_up(Coloring(2, 2, (2,)), [mono_clique(2, 1, k=2)] * 2),
        Coloring(2, 2, (1,)),
    ]
    c = blow_up(pentagon_coloring(1, 2), inner)
    gp = find_gallai_partition(c)
    assert len(gp.parts) == 14
    coarse = coarsen_to_min_parts(c, gp)
    assert coarse.parts == ((1, 2, 3, 4), (5, 6, 7), (8,), (9, 10, 11, 12), (13, 14))
    assert coarse.reduced == pentagon_coloring(1, 2)
    assert verify_gallai_partition(c, coarse)


def _children_by_brute_force(rows, vertices):
    """_module_children by definition, on the vertices of the bitmask
    vertices with a-pairs rows: when a colour graph is disconnected, the
    component of the last vertex and the rest; otherwise the maximal
    modules among all proper vertex subsets."""
    members = [x for x in range(vertices.bit_length()) if vertices >> x & 1]
    for flip in (0, -1):
        comp = 1 << members[-1]
        grown = True
        while grown:
            grown = False
            for x, y in product(members, repeat=2):
                if comp >> x & 1 and not comp >> y & 1 and (rows[x] ^ flip) >> y & 1:
                    comp |= 1 << y
                    grown = True
        if comp != vertices:
            return sorted([comp, vertices ^ comp])
    modules = []
    sub = vertices
    while sub:
        sub = (sub - 1) & vertices
        outside = [x for x in members if not sub >> x & 1]
        if sub and all(rows[x] & sub in (0, sub) for x in outside):
            modules.append(sub)
    return sorted(m for m in modules if not any(m != w and m & w == m for w in modules))


def _rows_of(t, a_pairs):
    rows = [0] * t
    for x, y in a_pairs:
        rows[x] |= 1 << y
        rows[y] |= 1 << x
    return rows


def test_module_children_on_every_vertex_subset():
    # against brute force on every vertex subset of at least two
    # vertices, as the decomposition tree will call it
    rng = random.Random(35)
    for _ in range(300):
        t = rng.randint(2, 7)
        rows = _rows_of(t, [p for p in combinations(range(t), 2) if rng.random() < 0.5])
        for vertices in range(1, 1 << t):
            if vertices & (vertices - 1):
                want = _children_by_brute_force(rows, vertices)
                assert sorted(_module_children(rows, vertices)) == want, (rows, vertices)


def test_module_children_when_vertex_0_has_a_module_of_its_own():
    # blow-ups of P4 and of random bases whose vertex 0 becomes a module
    # of 2-4 vertices, so that the lowest vertex's child is not a single
    # vertex and lower blocks of the refinement lie inside it
    rng = random.Random(36)
    p4 = [(0, 1), (1, 2), (2, 3)]
    for i in range(1200):
        if i % 2:
            base_t, base = 4, p4
        else:
            base_t = rng.randint(3, 5)
            base = [p for p in combinations(range(base_t), 2) if rng.random() < 0.5]
        sizes = [rng.randint(2, 4)] + [rng.randint(1, 2) for _ in range(base_t - 1)]
        part = [j for j, size in enumerate(sizes) for _ in range(size)]
        t = len(part)
        a_pairs = [
            (x, y)
            for x, y in combinations(range(t), 2)
            if ((part[x], part[y]) in base if part[x] != part[y] else rng.random() < 0.5)
        ]
        rows = _rows_of(t, a_pairs)
        vertices = (1 << t) - 1
        want = _children_by_brute_force(rows, vertices)
        assert sorted(_module_children(rows, vertices)) == want, (rows, sizes)


def test_completeness_exhaustive_tiny():
    # every Gallai coloring of K_4 with 3 colors yields a verified partition
    for colors in product((1, 2, 3), repeat=comb(4, 2)):
        c = Coloring(4, 3, colors)
        if triangle_census(c).rainbow:
            continue
        gp = find_gallai_partition(c)
        assert verify_gallai_partition(c, gp)


# --- pinned outputs ---------------------------------------------------------

# Partitions, coarsenings and construction colourings recorded from the
# union-find implementation with a merge stage that the bitset
# components replaced; none of them may drift.  Regenerate with
# `PYTHONPATH=src python tests/test_partition.py` only when an output is
# meant to change.
PARTITION_GRID = Path(__file__).parent / "data" / "partition_grid.json"

GRID_CONSTRUCTIONS = {
    "pentagon_coloring(1,2)": lambda: pentagon_coloring(1, 2),
    "paley17_coloring(1,2)": lambda: paley17_coloring(1, 2),
    "mono_clique(6,2,3)": lambda: mono_clique(6, 2, k=3),
}
GRID_CONSTRUCTIONS.update(
    (f"gr_k3_extremal({k})", lambda k=k: construct_gr_k3_extremal(k))
    for k in range(1, 7)
)
GRID_CONSTRUCTIONS.update(
    (f"gr_k4e_extremal({k},{s})", lambda k=k, s=s: construct_gr_k4e_extremal(k, s))
    for k in range(1, 11)
    for s in range(k + 1)
    if mixed_k4e_extremal_order(k, s) <= 300
)
GRID_CONSTRUCTIONS.update(
    (f"multiplicity_extremal({k},{n})", lambda k=k, n=n: construct_multiplicity_extremal(k, n))
    for k in range(1, 6)
    for n in range(gr_k3(k), gr_k3(k) + 4)
)
GRID_CONSTRUCTIONS["multiplicity_extremal(5,250)"] = lambda: construct_multiplicity_extremal(5, 250)
GRID_CONSTRUCTIONS.update(
    (f"f_lower({n},{k})", lambda n=n, k=k: construct_f_lower(n, k))
    for n, k in [(6, 2), (20, 2), (30, 3), (55, 4), (250, 4)]
)
GRID_CONSTRUCTIONS.update(
    (f"goodman_extremal_2coloring({n},1,2)", lambda n=n: goodman_extremal_2coloring(n, 1, 2))
    for n in list(range(1, 21)) + [250]
)
GRID_CONSTRUCTIONS.update(
    (f"nim_star({n},{h},{k},{seed})", lambda n=n, h=h, k=k, seed=seed: construct_nim_star(n, h, k, seed))
    for n, h, k, seed in [(20, 3, 2, 0), (20, 3, 3, 0), (40, 3, 4, 5), (40, 4, 3, 9), (200, 4, 4, 1)]
)
# partitions are pinned where they stay small; colourings are pinned at every size
GRID_PARTITION_MAX_N = 60


def _partition_record(gp: GallaiPartition) -> dict:
    return {
        "parts": [list(p) for p in gp.parts],
        "between": sorted(gp.between_colors),
        "reduced": "".join(map(str, gp.reduced.colors)),
    }


def _pipeline_record(c: Coloring) -> dict:
    found = find_gallai_partition(c)
    return {
        "found": _partition_record(found),
        "coarse": _partition_record(coarsen_to_min_parts(c, found)),
    }


def _sha256(c: Coloring) -> str:
    return hashlib.sha256(c.serialize().encode()).hexdigest()


def partition_grid_records() -> dict:
    """The pinned records, computed by the code under test."""
    random_records = {}
    for n in range(2, 61):
        for k in range(1, 7):
            c = random_gallai_coloring(n, k, random.Random(100 * n + k))
            random_records[f"{n} {k}"] = {"sha256": _sha256(c), **_pipeline_record(c)}
    construction_records = {}
    for name, build in GRID_CONSTRUCTIONS.items():
        c = build()
        record = {"n": c.n, "k": c.k, "sha256": _sha256(c)}
        if 2 <= c.n <= GRID_PARTITION_MAX_N and is_gallai(c):
            record.update(_pipeline_record(c))
        construction_records[name] = record
    return {"random": random_records, "constructions": construction_records}


def test_outputs_match_pinned_grid():
    want = json.loads(PARTITION_GRID.read_text())
    got = partition_grid_records()
    assert got.keys() == want.keys()
    for section in want:
        assert got[section].keys() == want[section].keys(), section
        for name, record in want[section].items():
            assert got[section][name] == record, (section, name)


if __name__ == "__main__":
    # one record per line, so a drift shows in a diff as the records it touched
    sections = [
        "%s:{\n%s\n}" % (
            json.dumps(section),
            ",\n".join(f"{json.dumps(name)}:{json.dumps(record, separators=(',', ':'))}" for name, record in records.items()),
        )
        for section, records in partition_grid_records().items()
    ]
    PARTITION_GRID.write_text("{\n" + ",\n".join(sections) + "\n}\n")
