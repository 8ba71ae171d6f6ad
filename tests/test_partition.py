import hashlib
import json
import random
from collections import Counter
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

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
from gallai.partition import _candidate_color_sets, _components_outside, _vertices

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
    }
    assert verdicts["moved, reduced recomputed", True] > 0


def test_non_s_components_pairwise_monochromatic():
    # the lemma behind find_gallai_partition, checked by brute force
    rng = random.Random(60)
    for _ in range(40):
        c = random_gallai_coloring(rng.randint(2, 60), rng.randint(1, 6), rng)
        for s in _candidate_color_sets(c.k):
            groups = [_vertices(comp) for comp in _components_outside(c, s)]
            assert sorted(v for g in groups for v in g) == list(range(1, c.n + 1))
            for a, b in combinations(groups, 2):
                assert len({c.color(u, v) for u in a for v in b}) == 1, (c.serialize(), s)


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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: pairwise merging stalls when the minimum must "
    "merge a prime quotient (here a P4) in one step",
)
def test_coarsen_merges_p4_quotient_to_two_parts():
    # colour 1 is the path 5-1-3-4 and vertex 2 sees every other vertex
    # in colour 2, so {2}, {1,3,4,5} is a valid coarsening of the five
    # singletons; no pair of singletons can merge
    c = Coloring(5, 2, (2, 1, 2, 1, 2, 2, 2, 1, 2, 2))
    gp = find_gallai_partition(c)
    assert gp.parts == ((1,), (2,), (3,), (4,), (5,))
    assert helpers.min_valid_partition_size(c, gp) == 2
    assert len(coarsen_to_min_parts(c, gp).parts) == 2


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
