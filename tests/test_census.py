import inspect
import json
import random
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gallai import census
from gallai import (
    Coloring,
    blow_up,
    construct_f_lower,
    construct_gr_k3_extremal,
    construct_gr_k4e_extremal,
    construct_multiplicity_extremal,
    construct_nim_star,
    count_nim_star_edges,
    count_protected_edges,
    find_mono_subgraph,
    find_rainbow_triangle,
    goodman_extremal_2coloring,
    is_gallai,
    mono_clique,
    paley17_coloring,
    parse_coloring,
    pentagon_coloring,
    random_gallai_coloring,
    triangle_census,
)

RAINBOW_K3 = parse_coloring("3 3\n1 2 1\n1 3 2\n2 3 3")


@st.composite
def colorings(draw, min_n=1, max_n=9, max_k=4):
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, max_k))
    m = comb(n, 2)
    colors = draw(st.lists(st.integers(1, k), min_size=m, max_size=m))
    return Coloring(n, k, colors)


def test_census_mono_k4():
    cen = triangle_census(mono_clique(4, 1))
    assert cen.mono_per_color == {1: 4}
    assert cen.bichromatic == 0 and cen.rainbow == 0


def test_census_pentagon():
    cen = triangle_census(pentagon_coloring(1, 2))
    assert cen.mono_total == 0 and cen.rainbow == 0


def test_census_rainbow_k3():
    assert triangle_census(RAINBOW_K3).rainbow == 1
    assert not is_gallai(RAINBOW_K3)
    assert find_rainbow_triangle(RAINBOW_K3) == (1, 2, 3)


def test_census_refuses_inconsistent_counts():
    # mono_clique(4, 1): 4 triangles and 4 * C(3, 2) = 12 cherries
    c = mono_clique(4, 1)
    c.mono_triangles()[1] = 5  # 15 cherries needed
    with pytest.raises(RuntimeError, match="cherries"):
        triangle_census(c)
    c = mono_clique(4, 1)
    c.mono_triangles()[1] = 3  # 3 bichromatic left, so -2 rainbow
    with pytest.raises(RuntimeError, match="inconsistent census"):
        triangle_census(c)


def test_two_colorings_always_gallai():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 12)
        colors = [rng.randint(1, 2) for _ in range(comb(n, 2))]
        assert is_gallai(Coloring(n, 2, colors))


def test_degenerate_sizes():
    assert triangle_census(Coloring(1, 3, ())).mono_total == 0
    assert is_gallai(Coloring(1, 1, ()))
    assert is_gallai(Coloring(2, 5, (3,)))


@given(colorings())
@settings(max_examples=150)
def test_census_matches_brute_force(c):
    mono, bi, rain = helpers.brute_census(c)
    cen = triangle_census(c)
    assert list(cen.mono_per_color) == list(range(1, c.k + 1))
    assert {q: v for q, v in cen.mono_per_color.items() if v} == mono
    assert cen.bichromatic == bi
    assert cen.rainbow == rain
    assert cen.mono_total + bi + rain == comb(c.n, 3)
    assert is_gallai(c) == (rain == 0)
    assert (find_rainbow_triangle(c) is None) == (rain == 0)
    assert find_rainbow_triangle(c) == helpers.brute_first_rainbow(c)


def test_rainbow_witness_on_perturbed_gallai_colorings():
    # one recolored pair of a Gallai coloring: the rainbow triangles, if
    # any, all pass through that pair, so they are few and often late
    rng = random.Random(14)
    found = 0
    for _ in range(400):
        c = random_gallai_coloring(rng.randint(3, 16), rng.randint(3, 5), rng)
        colors = list(c.colors)
        colors[rng.randrange(len(colors))] = rng.randint(1, c.k)
        c = Coloring(c.n, c.k, colors)
        witness = find_rainbow_triangle(c)
        assert witness == helpers.brute_first_rainbow(c)
        found += witness is not None
    assert found > 100


def _renamed_far_below_k(c, k, rng):
    """c with its colors renamed to a sample of 1..k, gaps between them."""
    names = sorted(rng.sample(range(1, k + 1), c.k))
    return Coloring(c.n, k, [names[q - 1] for q in c.colors])


def _common_neighbors_of_first_rainbow_pair(c):
    u, v, _ = helpers.brute_first_rainbow(c)
    a = c.color(u, v)
    return sum(c.color(u, w) == c.color(v, w) == a for w in range(1, c.n + 1) if w not in (u, v))


def test_rainbow_witness_where_the_first_rainbow_pair_has_common_neighbors():
    # (1, 2, 4) is rainbow, and pair (1, 2) of color 1 has the common
    # 1-neighbor 3, so it has one rainbow apex against
    # 4 - 2 - 2 - 1 = -1 without its codegree term
    c = parse_coloring("4 3\n1 2 1\n1 3 1\n1 4 2\n2 3 1\n2 4 3\n3 4 2")
    assert find_rainbow_triangle(c) == (1, 2, 4) == helpers.brute_first_rainbow(c)
    assert _common_neighbors_of_first_rainbow_pair(c) == 1
    # blow-ups of small colorings with a rainbow triangle: the vertices
    # of a part share their colors to the other parts, so the first
    # rainbow pair often has common neighbors in its own color
    rng = random.Random(46)
    common = 0
    for _ in range(60):
        base = Coloring(4, 3, [rng.randint(1, 3) for _ in range(6)])
        if is_gallai(base):
            continue
        sizes = [rng.randint(1, 4) for _ in range(4)]
        parts = [Coloring(s, 3, [rng.randint(1, 3) for _ in range(comb(s, 2))]) for s in sizes]
        c = blow_up(base, parts)
        c = _renamed_far_below_k(c, rng.choice([3, 50, 10**6]), rng)
        assert find_rainbow_triangle(c) == helpers.brute_first_rainbow(c)
        common += _common_neighbors_of_first_rainbow_pair(c) > 0
    assert common > 10


class _UsedRowsOnly:
    """A per-color table that hands out the row of a color in use and
    raises on any other index: an unused color, 0 or a slice."""

    def __init__(self, table, used):
        self.table, self.used = table, set(used)

    def __getitem__(self, color):
        if isinstance(color, slice) or color not in self.used:
            raise AssertionError(f"read the table at {color!r}; colors in use {sorted(self.used)}")
        return self.table[color]


def test_rainbow_witness_far_below_k_reads_only_the_colors_in_use(monkeypatch):
    # random Gallai colorings, two of every three with one or two pairs
    # recolored, their colors renamed to a few of 1..k with gaps and k up
    # to 10**6; the adjacency and degree tables hand out only the rows of
    # the colors in use
    adjacency, degrees = Coloring.adjacency, Coloring.degrees
    monkeypatch.setattr(
        Coloring, "adjacency", lambda c: _UsedRowsOnly(adjacency(c), c.used_colors())
    )
    monkeypatch.setattr(Coloring, "degrees", lambda c: _UsedRowsOnly(degrees(c), c.used_colors()))
    rng = random.Random(45)
    cases = []
    for k in (6, 300, 10**4, 10**6):
        for i in range(30 if k < 10**6 else 10):
            c = random_gallai_coloring(rng.randint(3, 14), rng.randint(3, 5), rng)
            colors = list(c.colors)
            for _ in range(i % 3):
                colors[rng.randrange(len(colors))] = rng.randint(1, c.k)
            cases.append(_renamed_far_below_k(Coloring(c.n, c.k, colors), k, rng))
    cases += [RAINBOW_K3, RAINBOW_K3.with_k(10**6), construct_gr_k3_extremal(3).with_k(50)]
    rainbow = 0
    for c in cases:
        witness = find_rainbow_triangle(c)
        assert witness == helpers.brute_first_rainbow(c)
        assert count_protected_edges(c) == helpers.brute_protected(c)
        rainbow += witness is not None
    assert 30 < rainbow < len(cases) - 30


def _one_factorization(n):
    """The round-robin proper edge coloring of K_n, n even, in n - 1
    colors: every color is a perfect matching, so every triangle is
    rainbow and no color has two edges at a vertex."""
    colors = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            colors.append((u + v) % (n - 1) + 1 if v < n else 2 * u % (n - 1) + 1)
    return Coloring(n, n - 1, colors)


def test_rainbow_witness_with_thousands_of_colors_in_use():
    rng = random.Random(47)
    # pairs spread over 1..10**4: nearly every color has one or two edges
    spread = Coloring(120, 10**4, [rng.randint(1, 10**4) for _ in range(comb(120, 2))])
    # a Gallai coloring of 1..50 joined to 51..130 in color 1, with the
    # pairs of 51..130 spread over 1..10**4: every rainbow triangle lies
    # in 51..130, so the walk passes every pair with a vertex in 1..50
    late = []
    for u in range(1, 131):
        for v in range(u + 1, 131):
            late.append(2 + u % 4 if v <= 50 else 1 if u <= 50 else rng.randint(1, 10**4))
    late = Coloring(130, 10**4, late)
    assert len(spread.used_colors()) > 5000 and len(late.used_colors()) > 2500
    cases = [spread, late] + [_one_factorization(n).with_k(k) for n in (4, 6, 8) for k in (7, 10**4)]
    for c in cases:
        assert find_rainbow_triangle(c) == helpers.brute_first_rainbow(c)
        assert count_protected_edges(c) == helpers.brute_protected(c)
    assert find_rainbow_triangle(late)[0] > 50
    assert count_protected_edges(late) > 0


def test_rainbow_witness_with_fewer_than_three_colors_in_use_builds_no_rows(monkeypatch):
    def refuse(coloring):
        raise AssertionError("built the block rows of a coloring with under three colors in use")

    monkeypatch.setattr(census, "_block_rows", refuse)
    c = goodman_extremal_2coloring(300, 3, 10**6)
    assert find_rainbow_triangle(c) is None
    assert find_rainbow_triangle(Coloring(300, 5, [4] * comb(300, 2))) is None


# --- monochromatic subgraph detection -------------------------------------


def test_mono_k4e_in_clique():
    report = find_mono_subgraph(mono_clique(5, 1), 1, "K4+e")
    assert report.present
    *quad, pendant = report.witness
    assert len(set(report.witness)) == 5


def test_paley17_has_no_mono_k4_exhaustive():
    c = paley17_coloring(1, 2)
    for color in (1, 2):
        assert not find_mono_subgraph(c, color, "K4").present
        # independent check over all C(17,4) = 2380 quadruples
        assert not helpers.brute_has_mono_clique(c, color, 4)


def test_two_disjoint_k4s_have_no_k4e():
    # color 1: two disjoint K4s; color 2: everything between
    from gallai import lex_pairs

    colors = [1 if (u <= 4) == (v <= 4) else 2 for u, v in lex_pairs(8)]
    c = Coloring(8, 2, colors)
    assert find_mono_subgraph(c, 1, "K4").present
    assert not find_mono_subgraph(c, 1, "K4+e").present
    assert not helpers.brute_has_mono_k4e(c, 1)


@given(colorings(min_n=5, max_n=8, max_k=3))
@settings(max_examples=60, deadline=None)
def test_mono_detection_matches_brute(c):
    for color in range(1, c.k + 1):
        assert find_mono_subgraph(c, color, "K3").present == helpers.brute_has_mono_clique(c, color, 3)
        assert find_mono_subgraph(c, color, "K4").present == helpers.brute_has_mono_clique(c, color, 4)
        assert find_mono_subgraph(c, color, "K4+e").present == helpers.brute_has_mono_k4e(c, color)


@given(colorings(min_n=5, max_n=8, max_k=3))
@settings(max_examples=60, deadline=None)
def test_mono_implication_chain(c):
    for color in range(1, c.k + 1):
        k4e = find_mono_subgraph(c, color, "K4+e").present
        k4 = find_mono_subgraph(c, color, "K4").present
        k3 = find_mono_subgraph(c, color, "K3").present
        if k4e:
            assert k4
        if k4:
            assert k3


def test_witness_edges_carry_color():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(5, 9)
        c = Coloring(n, 2, [rng.randint(1, 2) for _ in range(comb(n, 2))])
        for kind, size in [("K3", 3), ("K4", 4)]:
            report = find_mono_subgraph(c, 1, kind)
            if report.present:
                assert all(
                    c.color(u, v) == 1 for u, v in combinations(report.witness, 2)
                )
        report = find_mono_subgraph(c, 1, "K4+e")
        if report.present:
            *quad, pendant = report.witness
            assert all(c.color(u, v) == 1 for u, v in combinations(quad, 2))
            assert any(c.color(x, pendant) == 1 for x in quad)


def _color_1(n, cliques, pendants=()):
    """K_n in color 2 but for the color-1 cliques and pendant edges."""
    ones = {frozenset(e) for vs in cliques for e in combinations(vs, 2)}
    ones |= {frozenset(e) for e in pendants}
    return Coloring(n, 2, [1 if {u, v} in ones else 2 for u, v in combinations(range(1, n + 1), 2)])


# mono cliques with and without pendant edges: the first K4 has a vertex
# of color-degree above 3, or none and a later K4 has one, or no K4 has
K4_WITH_PENDANTS = [
    mono_clique(6, 1, 2),
    _color_1(8, [(3, 5, 6, 8)], [(2, 6)]),
    _color_1(9, [(2, 4, 7, 9)], [(1, 9), (4, 5)]),
    _color_1(10, [(2, 3, 5, 9), (1, 4, 6, 7)], [(6, 10)]),
    _color_1(10, [(1, 2, 3, 4), (5, 6, 7, 8)], [(7, 10)]),
    _color_1(9, [(1, 2, 3, 4), (5, 6, 7, 8)]),
    _color_1(9, [(1, 2, 3, 4)]),
]


def _check_k4_hunts_in_any_order(c):
    """K4 and K4+e witnesses equal the brute-force ones whichever is
    asked first, each on a fresh Coloring, whose K4 record is empty."""
    for color in range(1, c.k + 1):
        want = {"K4": helpers.brute_first_mono_clique(c, color, 4), "K4+e": helpers.brute_first_k4e(c, color)}
        for order in (("K4", "K4+e"), ("K4+e", "K4")):
            fresh = Coloring(c.n, c.k, c.colors)
            for kind in order:
                assert find_mono_subgraph(fresh, color, kind).witness == want[kind], (color, order)


@given(colorings(min_n=1, max_n=9, max_k=3))
@settings(max_examples=200, deadline=None)
def test_witness_is_lexicographically_smallest(c):
    for color in range(1, c.k + 1):
        assert find_mono_subgraph(c, color, "K3").witness == helpers.brute_first_mono_clique(c, color, 3)
        assert find_mono_subgraph(c, color, "K4").witness == helpers.brute_first_mono_clique(c, color, 4)
        assert find_mono_subgraph(c, color, "K4+e").witness == helpers.brute_first_k4e(c, color)
    _check_k4_hunts_in_any_order(c)


def test_witnesses_on_blow_ups_match_brute():
    # blow-ups make whole inserts into twin classes of a colour, which
    # random colourings rarely have; relabelling the vertices keeps the
    # lowest twin from always being the first vertex of its insert
    rng = random.Random(12)
    classes = 0
    for _ in range(450):
        k = rng.randint(1, 3)
        t = rng.randint(2, 5)
        base = Coloring(t, k, [rng.randint(1, k) for _ in range(comb(t, 2))])
        sizes = [rng.randint(1, 4) for _ in range(t)]
        while sum(sizes) > 11:
            sizes[sizes.index(max(sizes))] -= 1
        inserts = [
            Coloring(s, k, [rng.randint(1, k) for _ in range(comb(s, 2))]) for s in sizes
        ]
        c = blow_up(base, inserts)
        labels = list(range(1, c.n + 1))
        rng.shuffle(labels)
        c = c.permute_vertices(dict(zip(range(1, c.n + 1), labels)))
        for color in range(1, k + 1):
            assert find_mono_subgraph(c, color, "K3").witness == helpers.brute_first_mono_clique(c, color, 3)
            assert find_mono_subgraph(c, color, "K4").witness == helpers.brute_first_mono_clique(c, color, 4)
            assert find_mono_subgraph(c, color, "K4+e").witness == helpers.brute_first_k4e(c, color)
            classes += 1
    assert classes > 800


@pytest.mark.parametrize("c", K4_WITH_PENDANTS)
def test_k4_and_k4e_witnesses_in_any_order_with_pendants(c):
    assert helpers.brute_first_mono_clique(c, 1, 4) is not None
    _check_k4_hunts_in_any_order(c)


def test_k4e_after_k4_walks_no_more(monkeypatch):
    walks = []
    walk = census._clique_walk

    def counted(coloring, color, kind):
        walks.append((color, kind))
        return walk(coloring, color, kind)

    monkeypatch.setattr(census, "_clique_walk", counted)
    c = goodman_extremal_2coloring(60, 1, 2)
    # color 1 has a K4 with a pendant, color 2 no K4
    assert [find_mono_subgraph(c, color, "K4").present for color in (1, 2)] == [True, False]
    assert walks == [(1, "K4"), (2, "K4")]
    assert [find_mono_subgraph(c, color, "K4+e").present for color in (1, 2)] == [True, False]
    assert walks == [(1, "K4"), (2, "K4")]
    # a color with no triangle starts no walk of any kind
    pentagon = pentagon_coloring(1, 2).with_k(3)
    for color in (1, 2, 3):
        for kind in ("K3", "K4", "K4+e"):
            assert not find_mono_subgraph(pentagon, color, kind).present
    assert walks == [(1, "K4"), (2, "K4")]


def test_twin_representatives_found_once_per_color(monkeypatch):
    # the K3 hunt of a colour records its twin representatives, and the
    # colour's K4 and K4+e walks read them from the record
    rng = random.Random(14)
    for _ in range(40):
        base = Coloring(4, 2, [rng.randint(1, 2) for _ in range(6)])
        c = blow_up(base, [mono_clique(rng.randint(1, 3), rng.randint(1, 2), k=2) for _ in range(4)])
        c = c.permute_vertices(dict(zip(range(1, c.n + 1), rng.sample(range(1, c.n + 1), c.n))))
        adj = c.adjacency()
        for color in c.used_colors():
            want = sum(
                1 << (v - 1)
                for v in range(1, c.n + 1)
                if all(adj[color][u] != adj[color][v] for u in range(1, v))
            )
            find_mono_subgraph(c, color, "K3")
            if c.mono_triangles()[color]:
                assert c.twin_record()[color] == want, c.serialize()
    lookups = []
    representatives = census._twin_representatives

    def counted(coloring, color):
        lookups.append(color in coloring.twin_record())
        return representatives(coloring, color)

    monkeypatch.setattr(census, "_twin_representatives", counted)
    c = goodman_extremal_2coloring(60, 1, 2)
    for kind in ("K3", "K4", "K4+e"):
        for color in (1, 2):
            find_mono_subgraph(c, color, kind)
    # K3 and K4 walks of both colours; the first of each finds the classes
    assert lookups == [False, False, True, True]


# Witnesses recorded from the pair-scanning hunts that the
# forward-oriented loop replaced; the witness rule must not drift.
HUNT_FIXTURE = Path(__file__).parent / "data" / "hunt_witnesses.json"
HUNT_FIXTURE_COLORINGS = {
    "gr_k3_extremal(6)": lambda: construct_gr_k3_extremal(6),
    "gr_k4e_extremal(4,4)": lambda: construct_gr_k4e_extremal(4, 4),
    "multiplicity_extremal(5,250)": lambda: construct_multiplicity_extremal(5, 250),
    "f_lower(250,4)": lambda: construct_f_lower(250, 4),
    "goodman_extremal_2coloring(250,1,2)": lambda: goodman_extremal_2coloring(250, 1, 2),
    "nim_star(200,4,4,1)": lambda: construct_nim_star(200, 4, 4, 1),
    "paley17_coloring(1,2)": lambda: paley17_coloring(1, 2),
    "pentagon_coloring(1,2)": lambda: pentagon_coloring(1, 2),
}


@pytest.mark.parametrize("name", sorted(HUNT_FIXTURE_COLORINGS))
def test_hunt_witnesses_match_fixture(name):
    want = json.loads(HUNT_FIXTURE.read_text())[name]
    c = HUNT_FIXTURE_COLORINGS[name]()
    got = {}
    for color in range(1, c.k + 1):
        for kind in ("K3", "K4", "K4+e"):
            witness = find_mono_subgraph(c, color, kind).witness
            got[f"{color} {kind}"] = None if witness is None else list(witness)
    assert got == want


def test_hunt_fixture_covers_every_coloring():
    assert set(json.loads(HUNT_FIXTURE.read_text())) == set(HUNT_FIXTURE_COLORINGS)


# --- the triangle-free certificate of the K4 and K4+e walks ---------------


def test_k4_witnesses_on_goodman_colorings_match_brute():
    # color 2 (the complement of the circulant) has no K4 here, so its
    # walks lean on the certificate; each graph is hunted under both
    # color names
    for n in range(4, 41):
        c = goodman_extremal_2coloring(n, 1, 2)
        want = {}
        for color in (1, 2):
            k4 = helpers.brute_first_mono_clique(c, color, 4)
            want[color] = {"K4": k4, "K4+e": k4 and helpers.brute_first_k4e(c, color)}
        for a, b, witnesses in [(1, 2, want), (2, 1, {3 - q: w for q, w in want.items()})]:
            swapped = goodman_extremal_2coloring(n, a, b)
            for color in (1, 2):
                for order in (("K4", "K4+e"), ("K4+e", "K4")):
                    fresh = Coloring(n, 2, swapped.colors)
                    for kind in order:
                        got = find_mono_subgraph(fresh, color, kind).witness
                        assert got == witnesses[color][kind], (n, a, b, color, order)


def _certified(monkeypatch):
    """Record the answer of every certificate the walks ask for."""
    answers = []
    certify = census._two_colorable

    def counted(adj_c, left, layer):
        answers.append(certify(adj_c, left, layer))
        return answers[-1]

    monkeypatch.setattr(census, "_two_colorable", counted)
    return answers


# color 1 joins vertex 1 to every vertex of its higher neighborhood S,
# which induces (a) a 6-cycle and a path, bipartite in two components,
# (b) a 5-cycle, or (c) a path whose inner vertex 2 is the lowest of S,
# then a triangle, so K4 {1, 6, 7, 8}; "later" adds the K4 {2, 12, 13,
# 14} outside S, whose lowest vertex 2 comes after 1.  No two vertices
# of S are color-1 twins, so the walk drops none of them.
_STAR = [(1, v) for v in range(2, 12)]
_NEIGHBORHOODS = {
    "bipartite": _STAR + [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 2), (8, 9), (9, 10), (10, 11)],
    "5-cycle": _STAR[:5] + [(2, 3), (3, 4), (4, 5), (5, 6), (6, 2)],
    "bipartite then triangle": _STAR[:7] + [(2, 3), (2, 4), (4, 5), (6, 7), (6, 8), (7, 8)],
}
_LATER_K4 = [(2, 12, 13, 14)]
# whether vertex 1's certificate 2-colors S
_S_TWO_COLORS = {"bipartite": True, "5-cycle": False, "bipartite then triangle": False}


@pytest.mark.parametrize("later", [False, True])
@pytest.mark.parametrize("shape", sorted(_NEIGHBORHOODS))
def test_k4_witnesses_on_built_higher_neighborhoods_match_brute(monkeypatch, shape, later):
    c = _color_1(14, _LATER_K4 if later else [], _NEIGHBORHOODS[shape])
    k4 = helpers.brute_first_mono_clique(c, 1, 4)
    assert (k4 is not None) == (later or shape == "bipartite then triangle")
    _check_k4_hunts_in_any_order(c)
    # vertex 1 is the first the K4 walk of color 1 asks about
    answers = _certified(monkeypatch)
    assert find_mono_subgraph(Coloring(c.n, c.k, c.colors), 1, "K4").witness == k4
    assert answers[0] == _S_TWO_COLORS[shape]
    # and the same graphs numbered backwards
    flipped = c.permute_vertices({v: c.n + 1 - v for v in range(1, c.n + 1)})
    _check_k4_hunts_in_any_order(flipped)


def _inner_steps(walk):
    """A line tracer counting the runs of the body of the walk's loop
    over w (the line that computes xs), and where to read the count."""
    lines, first = inspect.getsourcelines(walk)
    body = first + next(i for i, line in enumerate(lines) if "xs = adj_c[w] & rest" in line)
    count = [0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == body:
            count[0] += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is walk.__code__ else None

    return tracer, count


def test_goodman2_k4_hunt_certifies_every_vertex_and_takes_no_inner_step(monkeypatch):
    # color 2 of goodman2(250) is twin-free, K4-free and holds 162,750
    # triangles; each neighborhood is two arcs, each independent
    c = goodman_extremal_2coloring(250, 1, 2)
    adj = c.adjacency()[2]
    # the vertices u whose walk reaches a v with two or more common
    # neighbors above it: those the certificate is asked about
    asked = 0
    for u in range(1, 251):
        su = adj[u] >> u << u
        if any(((adj[v] >> v << v) & su).bit_count() >= 2 for v in range(u + 1, 251) if su >> (v - 1) & 1):
            asked += 1
    answers = _certified(monkeypatch)
    tracer, steps = _inner_steps(census._clique_walk)
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        report = find_mono_subgraph(c, 2, "K4")
    finally:
        sys.settrace(previous)
    assert report.witness is None
    assert asked == 123  # u = 1..123; above, no v has two
    assert len(answers) == asked and all(answers)
    assert steps == [0]


def test_kind_validation():
    with pytest.raises(ValueError):
        find_mono_subgraph(mono_clique(4, 1), 1, "K5")
    with pytest.raises(ValueError):
        find_mono_subgraph(mono_clique(4, 1), 2, "K3")


# --- protected edges -------------------------------------------------------


def test_protected_examples():
    assert count_protected_edges(mono_clique(3, 1)) == 0
    assert count_protected_edges(RAINBOW_K3) == 0
    assert count_protected_edges(pentagon_coloring(1, 2)) == 10


@given(colorings())
@settings(max_examples=120)
def test_protected_matches_brute(c):
    assert count_protected_edges(c) == helpers.brute_protected(c)


# counts recorded from the per-apex rainbow test that the row popcount
# replaced
PROTECTED_COUNTS = {
    "gr_k3_extremal(6)": 7750,
    "gr_k4e_extremal(4,4)": 0,
    "multiplicity_extremal(5,250)": 30000,
    "f_lower(250,4)": 28125,
    "goodman_extremal_2coloring(250,1,2)": 125,
    "nim_star(200,4,4,1)": 0,
    "paley17_coloring(1,2)": 0,
    "pentagon_coloring(1,2)": 10,
}


@pytest.mark.parametrize("name", sorted(PROTECTED_COUNTS))
def test_protected_counts_match_fixture(name):
    assert count_protected_edges(HUNT_FIXTURE_COLORINGS[name]()) == PROTECTED_COUNTS[name]


def test_protected_matches_brute_on_perturbed_constructions():
    # constructions with a few edges recolored: protected, unprotected
    # and rainbow edges side by side, at n above the hypothesis range
    rng = random.Random(5)
    for c in (construct_f_lower(22, 3), construct_multiplicity_extremal(3, 20), pentagon_coloring(4, 2)):
        colors = list(c.colors)
        for _ in range(6):
            colors[rng.randrange(len(colors))] = rng.randint(1, c.k)
        c = Coloring(c.n, c.k, colors)
        assert count_protected_edges(c) == helpers.brute_protected(c)


def test_protected_rainbow_free_count_matches_brute_on_random_gallai_colorings():
    # the census shows no rainbow triangle, so the count reads only the
    # monochromatic triangles; blow-ups hold protected edges beside
    # edges whose endpoints share a neighbor in another color
    rng = random.Random(36)
    seen = set()
    for n in range(2, 26):
        for k in range(1, 6):
            c = random_gallai_coloring(n, k, rng)
            assert is_gallai(c)
            protected = count_protected_edges(c)
            assert protected == helpers.brute_protected(c)
            seen.add(0 < protected < comb(n, 2))
    assert seen == {False, True}


def test_protected_general_count_matches_brute_on_perturbed_gallai_colorings():
    # a few recolored edges give rainbow triangles, so the row popcount
    # decides
    rng = random.Random(37)
    rainbow = 0
    for n in range(4, 22):
        for k in (3, 4):
            c = random_gallai_coloring(n, k, rng)
            colors = list(c.colors)
            for _ in range(3):
                colors[rng.randrange(len(colors))] = rng.randint(1, k)
            c = Coloring(n, k, colors)
            rainbow += not is_gallai(c)
            assert count_protected_edges(c) == helpers.brute_protected(c)
    assert rainbow > 20


# --- nim star edges --------------------------------------------------------


def test_nim_star_examples():
    assert count_nim_star_edges(mono_clique(4, 1), 4) == 6
    assert count_nim_star_edges(mono_clique(4, 1), 3) == 0


@given(colorings(), st.integers(1, 6))
@settings(max_examples=120)
def test_nim_star_matches_brute(c, h):
    assert count_nim_star_edges(c, h) == helpers.brute_nim_star(c, h)


def test_nim_star_matches_brute_far_above_the_colors_used():
    # two colors of a header k = 1000 occur; the count visits those only
    rng = random.Random(8)
    for n in (1, 2, 7, 12):
        c = Coloring(n, 1000, [rng.choice((3, 997)) for _ in range(comb(n, 2))])
        for h in range(1, 8):
            assert count_nim_star_edges(c, h) == helpers.brute_nim_star(c, h)
