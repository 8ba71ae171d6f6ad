"""The result records are named tuples that keep the field order, the
keyword construction, the repr text and the immutability of the frozen
dataclasses they were, and they pickle with the colorings they hold."""

import pickle

import pytest

from gallai import (
    Coloring,
    ExtendedColoring,
    GallaiPartition,
    GrStarReport,
    GuardedValue,
    MonoSubgraphReport,
    SearchOutcome,
    TriangleCensus,
)
from gallai.verify import CheckResult

# (type, keyword arguments in the old field order, the old repr)
RECORDS = [
    (
        TriangleCensus,
        dict(mono_per_color={1: 2, 2: 0}, bichromatic=3, rainbow=1),
        "TriangleCensus(mono_per_color={1: 2, 2: 0}, bichromatic=3, rainbow=1)",
    ),
    (
        MonoSubgraphReport,
        dict(color=1, kind="K4+e", witness=(1, 2, 3, 4, 5)),
        "MonoSubgraphReport(color=1, kind='K4+e', witness=(1, 2, 3, 4, 5))",
    ),
    (
        GuardedValue,
        dict(value=8, validity="asymptotic-only"),
        "GuardedValue(value=8, validity='asymptotic-only')",
    ),
    (
        ExtendedColoring,
        dict(pairs=Coloring(3, 2, [1, 1, 2]), singleton_colors=(2, 2, 1)),
        "ExtendedColoring(pairs=Coloring(n=3, k=2), singleton_colors=(2, 2, 1))",
    ),
    (
        GrStarReport,
        dict(gallai=True, mono_triangle_free=False, singleton_clash=(1, 3)),
        "GrStarReport(gallai=True, mono_triangle_free=False, singleton_clash=(1, 3))",
    ),
    (
        GallaiPartition,
        dict(parts=((1, 2), (3,)), between_colors=frozenset({2}), reduced=Coloring(2, 2, [2])),
        "GallaiPartition(parts=((1, 2), (3,)), between_colors=frozenset({2}), "
        "reduced=Coloring(n=2, k=2))",
    ),
    (
        SearchOutcome,
        dict(
            objective="min-mono",
            value=0,
            witness=Coloring(3, 2, [1, 2, 1]),
            nodes_explored=3,
            exhaustive=True,
        ),
        "SearchOutcome(objective='min-mono', value=0, witness=Coloring(n=3, k=2), "
        "nodes_explored=3, exhaustive=True)",
    ),
    (
        CheckResult,
        dict(name="goodman-oracle-small", ok=True, detail="n <= 6", seconds=0.25),
        "CheckResult(name='goodman-oracle-small', ok=True, detail='n <= 6', seconds=0.25)",
    ),
]


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, text):
    record = cls(**fields)
    assert record._fields == tuple(fields)
    assert repr(record) == text
    assert record == cls(*fields.values()) == tuple(fields.values())
    assert record._asdict() == fields
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        record.extra = 1


def test_extended_coloring_checks_its_singletons():
    pairs = Coloring(3, 2, [1, 1, 2])
    with pytest.raises(ValueError, match="need 3 singleton colors, got 2"):
        ExtendedColoring(pairs, (1, 2))
    with pytest.raises(ValueError, match="singleton color 3 at vertex 2 outside 1..2"):
        ExtendedColoring(pairs=pairs, singleton_colors=(1, 3, 1))
    with pytest.raises(ValueError, match="singleton color 0 at vertex 1"):
        ExtendedColoring(pairs, (0, 1, 1))
    # _replace builds a new record through the same checks
    ext = ExtendedColoring(pairs, (1, 2, 1))
    assert ext._replace(singleton_colors=(2, 2, 2)) == ExtendedColoring(pairs, (2, 2, 2))
    with pytest.raises(ValueError, match="need 3 singleton colors"):
        ext._replace(singleton_colors=(1,))


def test_colorings_and_records_holding_them_pickle():
    coloring = Coloring(4, 3, [1, 2, 1, 3, 1, 2])
    coloring.adjacency()  # derived tables are not part of the pickle
    outcome = SearchOutcome("min-mono", 0, coloring, 7, True)
    partition = GallaiPartition(((1, 3), (2,), (4,)), frozenset({1, 2}), Coloring(3, 3, [1, 2, 1]))
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        for value in (coloring, outcome, partition):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value and type(back) is type(value), (protocol, value)
        back = pickle.loads(pickle.dumps(coloring, protocol))
        assert back.adjacency() == coloring.adjacency()
        with pytest.raises(AttributeError):
            back.n = 5
