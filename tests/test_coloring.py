import gc
import tracemalloc
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gallai import (
    Coloring,
    GecFormatError,
    construct_gr_k3_extremal,
    count_protected_edges,
    find_gallai_partition,
    lex_pairs,
    pair_index,
    parse_coloring,
    triangle_census,
)
from gallai.grstar import parse_extended_coloring


def test_pair_index_lexicographic():
    for n in range(2, 12):
        for i, (u, v) in enumerate(lex_pairs(n)):
            assert pair_index(n, u, v) == i


def test_parse_smallest_rainbow():
    c = parse_coloring("3 3\n1 2 1\n1 3 2\n2 3 3")
    assert (c.n, c.k) == (3, 3)
    assert c.color(1, 2) == 1 and c.color(3, 1) == 2 and c.color(2, 3) == 3


def test_parse_single_edge():
    c = parse_coloring("2 1\n1 2 1")
    assert (c.n, c.k) == (2, 1)


def test_parse_accepts_any_order_and_comments():
    c = parse_coloring("# comment\n3 2\n2 3 2\n\n1 3 1\n# another\n1 2 2")
    assert c.color(2, 3) == 2 and c.color(1, 2) == 2


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "line 1"),
        ("3\n", "header"),
        ("a b\n", "header"),
        ("3 2\n1 2 1\n1 2 2\n2 3 1\n1 3 1", "duplicate pair"),
        ("3 2\n1 2 1\n1 3 1", "missing"),
        ("4 2\n1 2 1\n1 4 1\n1 3 1\n3 4 1", "got 4 of 6 pairs; pair (2, 3) missing"),
        ("3 2\n1 2 3\n1 3 1\n2 3 1", "color 3"),
        ("3 2\n2 1 1\n1 3 1\n2 3 1", "pair"),
        ("3 2\n1 2\n1 3 1\n2 3 1", "expected 'u v c'"),
    ],
)
def test_parse_errors_report_line(text, fragment):
    with pytest.raises(GecFormatError) as err:
        parse_coloring(text)
    assert fragment in str(err.value)


def test_oversized_header_is_rejected_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(GecFormatError) as err:
            parse_coloring("1000000000 2\n1 2 1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "got 1 of 499999999500000000 pairs; pair (1, 3) missing" in str(err.value)
    assert peak < 1 << 20


_token = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from(["1000000000", "#", "x", "SINGLETONS", "1.5", ""]),
)
_gec_like = st.lists(st.lists(_token, max_size=4).map(" ".join), max_size=12).map("\n".join)


@given(st.one_of(st.text(), _gec_like))
def test_parsers_either_parse_or_raise_gec_format_error(text):
    for parse in (parse_coloring, parse_extended_coloring):
        try:
            parse(text)
        except GecFormatError:
            pass


def test_constructor_validation():
    with pytest.raises(ValueError):
        Coloring(0, 1, ())
    with pytest.raises(ValueError):
        Coloring(3, 1, (1, 1))  # wrong length
    with pytest.raises(ValueError):
        Coloring(3, 1, (1, 2, 1))  # color out of range


def test_immutability():
    c = Coloring(3, 2, (1, 2, 1))
    with pytest.raises(AttributeError):
        c.n = 5


def test_with_k():
    c = Coloring(3, 2, (1, 2, 1))
    assert c.with_k(4).k == 4 and c.with_k(4).colors == c.colors
    with pytest.raises(ValueError):
        c.with_k(1)


@st.composite
def colorings(draw, max_n=9, max_k=4):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    m = comb(n, 2)
    colors = draw(st.lists(st.integers(1, k), min_size=m, max_size=m))
    return Coloring(n, k, colors)


@given(colorings())
def test_serialize_parse_roundtrip(c):
    assert parse_coloring(c.serialize()) == c


@given(colorings(max_n=7))
def test_permutations_are_bijections(c):
    ident_v = {v: v for v in range(1, c.n + 1)}
    ident_c = {q: q for q in range(1, c.k + 1)}
    assert c.permute_vertices(ident_v) == c
    assert c.permute_colors(ident_c) == c
    rev = {v: c.n + 1 - v for v in range(1, c.n + 1)}
    assert c.permute_vertices(rev).permute_vertices(rev) == c


def test_no_pair_table_outlives_its_coloring():
    # the pair loops of parse, serialize, census and partition keep no
    # per-n table once the coloring is gone (a cached one held 0.5 MB at
    # n = 125 for the life of the process)
    tracemalloc.start()
    try:
        c = construct_gr_k3_extremal(6)
        parse_coloring(c.serialize())
        count_protected_edges(c)
        find_gallai_partition(c)
        triangle_census(c)
        del c
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 64_000
