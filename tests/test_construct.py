import hashlib
import json
import random
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import helpers
from gallai import construct
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
    ex_star,
    find_mono_subgraph,
    g_multiplicity_bounds,
    goodman_extremal_2coloring,
    goodman_m2,
    gr_k3,
    is_gallai,
    mixed_k4e_extremal_order,
    mono_clique,
    paley17_coloring,
    pentagon_coloring,
    random_gallai_coloring,
    single_vertex,
    triangle_census,
    turan_count,
    turan_parts,
)


# --- gadgets ---------------------------------------------------------------


def test_pentagon_properties():
    p = pentagon_coloring(1, 2)
    cen = triangle_census(p)
    assert cen.mono_total == 0 and cen.rainbow == 0
    counts = [sum(1 for c in p.colors if c == q) for q in (1, 2)]
    assert counts == [5, 5]
    # swapping the two colors gives an isomorphic coloring (C5 is
    # self-complementary): same census profile
    swapped = pentagon_coloring(2, 1)
    assert triangle_census(swapped).mono_total == 0


def test_pentagon_rejects_equal_colors():
    with pytest.raises(ValueError):
        pentagon_coloring(3, 3)


def test_paley17_vertex_transitive():
    p = paley17_coloring(1, 2)
    rotate = {v: v % 17 + 1 for v in range(1, 18)}
    assert p.permute_vertices(rotate) == p


def test_paley17_regular_and_k4_free():
    p = paley17_coloring(1, 2)
    for q in (1, 2):
        assert set(p.degrees()[q][1:]) == {8}
        assert not find_mono_subgraph(p, q, "K4").present


# --- blow-up ---------------------------------------------------------------


def test_blow_up_identity():
    k2 = mono_clique(2, 1)
    assert blow_up(k2, [single_vertex(1), single_vertex(1)]) == k2


def test_blow_up_errors():
    base = mono_clique(2, 1)
    with pytest.raises(ValueError):
        blow_up(base, [])
    with pytest.raises(ValueError):
        blow_up(base, [single_vertex(1)])
    with pytest.raises(ValueError):
        blow_up(base, [single_vertex(1), single_vertex(2)])


def test_blow_up_pentagon_of_pentagons():
    c = blow_up(
        pentagon_coloring(3, 4).with_k(4), [pentagon_coloring(1, 2).with_k(4)] * 5
    )
    assert c.n == 25 and c.k == 4
    cen = triangle_census(c)
    assert cen.mono_total == 0 and cen.rainbow == 0


def _blow_up_mono_decomposition(base, inserts):
    """Independent count: triangles inside copies, plus cherries across
    one base edge, plus fully monochromatic base triangles."""
    total = sum(triangle_census(h).mono_total for h in inserts)
    sizes = [h.n for h in inserts]
    edge_counts = []
    for h in inserts:
        per = {q: 0 for q in range(1, base.k + 1)}
        for _, _, c in h.edges():
            per[c] += 1
        edge_counts.append(per)
    for i, j in combinations(range(base.n), 2):
        q = base.color(i + 1, j + 1)
        total += edge_counts[i][q] * sizes[j] + edge_counts[j][q] * sizes[i]
    for i, j, l in combinations(range(base.n), 3):
        qs = {base.color(i + 1, j + 1), base.color(i + 1, l + 1), base.color(j + 1, l + 1)}
        if len(qs) == 1:
            total += sizes[i] * sizes[j] * sizes[l]
    return total


def test_blow_up_census_decomposition():
    rng = random.Random(3)
    for _ in range(25):
        k = rng.randint(2, 4)
        t = rng.randint(2, 5)
        base = Coloring(t, k, [rng.randint(1, k) for _ in range(comb(t, 2))])
        inserts = []
        for _ in range(t):
            m = rng.randint(1, 10)
            inserts.append(Coloring(m, k, [rng.randint(1, k) for _ in range(comb(m, 2))]))
        c = blow_up(base, inserts)
        assert c.n <= 50
        assert triangle_census(c).mono_total == _blow_up_mono_decomposition(base, inserts)


def test_blow_up_gallai_closure_both_directions():
    rng = random.Random(4)
    for _ in range(40):
        k = rng.randint(3, 5)
        t = rng.randint(2, 5)
        base = Coloring(t, k, [rng.randint(1, k) for _ in range(comb(t, 2))])
        inserts = [
            Coloring(m, k, [rng.randint(1, k) for _ in range(comb(m, 2))])
            for m in (rng.randint(1, 6) for _ in range(t))
        ]
        c = blow_up(base, inserts)
        parts_gallai = is_gallai(base) and all(is_gallai(h) for h in inserts)
        assert is_gallai(c) == parts_gallai


# --- extremal families ------------------------------------------------------


@pytest.mark.parametrize("k,order", [(1, 2), (2, 5), (3, 10), (4, 25), (5, 50)])
def test_gr_k3_extremal(k, order):
    c = construct_gr_k3_extremal(k)
    assert c.n == order == gr_k3(k) - 1
    cen = triangle_census(c)
    assert cen.mono_total == 0 and cen.rainbow == 0
    assert is_gallai(c)


@pytest.mark.parametrize(
    "k,s", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2)]
)
def test_gr_k4e_extremal(k, s):
    c = construct_gr_k4e_extremal(k, s)
    assert c.n == mixed_k4e_extremal_order(k, s)
    assert triangle_census(c).rainbow == 0
    for q in range(1, s + 1):
        assert not find_mono_subgraph(c, q, "K4+e").present
    for q in range(s + 1, k + 1):
        assert not find_mono_subgraph(c, q, "K3").present


def test_gr_k4e_21_is_two_joined_k4s():
    c = construct_gr_k4e_extremal(2, 1)
    assert c.n == 8
    assert find_mono_subgraph(c, 1, "K4").present
    assert not find_mono_subgraph(c, 1, "K4+e").present
    assert not find_mono_subgraph(c, 2, "K3").present


def test_gr_k4e_22_is_paley():
    c = construct_gr_k4e_extremal(2, 2)
    assert c == paley17_coloring(1, 2).with_k(2)


def test_goodman_extremal_matches_formula():
    for n in range(1, 41):
        c = goodman_extremal_2coloring(n, 1, 2)
        assert triangle_census(c).mono_total == goodman_m2(n), n


def test_goodman_extremal_matches_exhaustive_small():
    for n in range(3, 7):
        got = triangle_census(goodman_extremal_2coloring(n, 1, 2)).mono_total
        assert got == helpers.brute_min_mono(n, 2)


def test_goodman_extremal_pentagon_at_5():
    c = goodman_extremal_2coloring(5, 1, 2)
    assert triangle_census(c).mono_total == 0


def test_goodman_extremal_matches_edge_set_reference():
    for n in range(1, 301):
        a, b = (1, 2) if n % 2 else (4, 3)
        assert goodman_extremal_2coloring(n, a, b) == helpers.goodman_reference(n, a, b), n


def test_goodman_extremal_color_arguments():
    c = goodman_extremal_2coloring(6, 3, 5)
    assert set(c.colors) <= {3, 5}
    assert triangle_census(c).mono_total == 2
    with pytest.raises(ValueError):
        goodman_extremal_2coloring(6, 2, 2)


@pytest.mark.parametrize("k,n,want", [(3, 11, 1), (3, 13, 3), (4, 26, 2), (2, 8, 8), (1, 5, 10)])
def test_multiplicity_extremal(k, n, want):
    c = construct_multiplicity_extremal(k, n)
    assert c.n == n
    cen = triangle_census(c)
    assert cen.rainbow == 0
    assert cen.mono_total == want
    assert cen.mono_total == g_multiplicity_bounds(k, n)[0]


def test_multiplicity_builds_only_the_inserts_it_uses(monkeypatch):
    # k = 2 has a one-vertex base, so no insert takes m + 1 vertices;
    # (4, 26) blows the pentagon up with one insert of 6 and four of 5
    sizes = []
    goodman = construct.goodman_extremal_2coloring

    def recorded(n, a, b):
        sizes.append(n)
        return goodman(n, a, b)

    monkeypatch.setattr(construct, "goodman_extremal_2coloring", recorded)
    for k, n, built in [(2, 9, [9]), (4, 26, [5, 6])]:
        sizes.clear()
        assert construct_multiplicity_extremal(k, n).n == n
        assert sorted(sizes) == built, (k, n)


def test_multiplicity_rejects_small_n():
    with pytest.raises(ValueError):
        construct_multiplicity_extremal(3, 10)


def test_f_lower_small():
    c = construct_f_lower(6, 2)
    assert count_protected_edges(c) == 9 == turan_count(6, 2)
    assert is_gallai(c)
    c = construct_f_lower(30, 3)
    assert count_protected_edges(c) == 360 == turan_count(30, 5)
    assert is_gallai(c)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_f_lower_protects_turan_plus_pair_classes(k):
    # every edge between the N classes is protected, and so is the one
    # edge inside each class of size 2; a larger class holds a
    # monochromatic triangle on each of its inner edges
    parts = gr_k3(k - 1) - 1
    for n in range(parts, 4 * parts + 3):
        q, p = divmod(n, parts)  # p classes of size q + 1, the rest of size q
        pairs = p if q == 1 else parts - p if q == 2 else 0
        got = count_protected_edges(construct_f_lower(n, k))
        assert got == turan_count(n, parts) + pairs, (n, got)


def test_f_lower_rejects_small_n():
    with pytest.raises(ValueError):
        construct_f_lower(3, 3)  # needs at least 5 parts


def test_turan_parts_shapes():
    assert turan_parts(6, 2) == [[1, 3, 5], [2, 4, 6]]
    sizes = sorted(len(p) for p in turan_parts(7, 5))
    assert sizes == [1, 1, 1, 2, 2]
    with pytest.raises(ValueError):
        turan_parts(3, 4)


# --- nim star ---------------------------------------------------------------


@pytest.mark.parametrize("n,h,k", [(20, 3, 3), (40, 3, 4), (40, 4, 3)])
def test_nim_star_bound(n, h, k):
    c = construct_nim_star(n, h, k)
    assert count_nim_star_edges(c, h) >= (k - 1) * ex_star(n, h)


def test_nim_star_layers_disjoint_and_star_free():
    c = construct_nim_star(40, 4, 3, seed=9)
    for q in (1, 2):
        layer_edges = c.edges_by_color()[q]
        assert len(layer_edges) == ex_star(40, 4)
        assert max(c.degrees()[q][1:]) <= 3
    # layers are disjoint by construction: every edge has one color
    assert count_nim_star_edges(c, 4) >= 2 * ex_star(40, 4)


def test_nim_star_k2_equality():
    for n in (11, 20, 33):
        c = construct_nim_star(n, 3, 2)
        assert count_nim_star_edges(c, 3) == ex_star(n, 3)


def test_nim_star_seeded_determinism():
    assert construct_nim_star(40, 3, 4, seed=5) == construct_nim_star(40, 3, 4, seed=5)


def test_nim_star_rejects_small_n():
    with pytest.raises(ValueError):
        construct_nim_star(10, 3, 4)


# sha256 of construct_nim_star(n, h, k, seed) serialized, keyed
# "n h k seed", recorded from the repair that rebuilt the union of the
# layers and intersected every pair of layers again after each switch
NIM_STAR_PINS = Path(__file__).parent / "data" / "nim_star_sha256.json"


def test_nim_star_matches_pinned_hashes():
    pins = json.loads(NIM_STAR_PINS.read_text())
    assert "1000 2 32 0" in pins and len(pins) == 11
    for key, want in pins.items():
        c = construct_nim_star(*map(int, key.split()))
        assert hashlib.sha256(c.serialize().encode()).hexdigest() == want, key


# --- randomized Gallai generator ---------------------------------------------


def test_random_gallai_is_gallai():
    rng = random.Random(12)
    for _ in range(60):
        c = random_gallai_coloring(rng.randint(1, 40), rng.randint(1, 6), rng)
        assert is_gallai(c)


# sha256 of random_gallai_coloring(n, k, Random(seed)) serialized, keyed
# "n k seed", recorded from the builder that made and blew up a Coloring
# at every node of the recursion; partition_grid.json pins n <= 60
RANDOM_GALLAI_PINS = Path(__file__).parent / "data" / "random_gallai_sha256.json"


def test_random_gallai_matches_pinned_hashes():
    pins = json.loads(RANDOM_GALLAI_PINS.read_text())
    assert len(pins) == 3 * 140
    for key, want in pins.items():
        n, k, seed = map(int, key.split())
        c = random_gallai_coloring(n, k, random.Random(seed))
        assert hashlib.sha256(c.serialize().encode()).hexdigest() == want, key
