import random
from itertools import product
from math import comb

import pytest

import helpers
from gallai import (
    Coloring,
    GallaiPartition,
    NotGallaiError,
    blow_up,
    coarsen_to_min_parts,
    find_gallai_partition,
    is_gallai,
    mono_clique,
    parse_coloring,
    pentagon_coloring,
    random_gallai_coloring,
    triangle_census,
    verify_gallai_partition,
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


def test_coarsen_reaches_minimum_exhaustively():
    # compare against the true minimum over all valid coarsenings,
    # computed by brute force over set partitions
    rng = random.Random(5)
    for _ in range(40):
        c = random_gallai_coloring(rng.randint(2, 7), rng.randint(1, 3), rng)
        gp = find_gallai_partition(c)
        coarse = coarsen_to_min_parts(c, gp)
        assert verify_gallai_partition(c, coarse)
        best = helpers.min_valid_partition_size(c, gp)
        assert len(coarse.parts) == best, (c.serialize(), best)


def test_completeness_exhaustive_tiny():
    # every Gallai coloring of K_4 with 3 colors yields a verified partition
    for colors in product((1, 2, 3), repeat=comb(4, 2)):
        c = Coloring(4, 3, colors)
        if triangle_census(c).rainbow:
            continue
        gp = find_gallai_partition(c)
        assert verify_gallai_partition(c, gp)
