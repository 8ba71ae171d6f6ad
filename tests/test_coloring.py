import gc
import random
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from gallai import (
    Coloring,
    GecFormatError,
    coarsen_to_min_parts,
    construct_gr_k3_extremal,
    construct_gr_k4e_extremal,
    count_nim_star_edges,
    count_protected_edges,
    find_gallai_partition,
    find_mono_subgraph,
    is_gallai,
    lex_pairs,
    pair_index,
    parse_coloring,
    random_gallai_coloring,
    triangle_census,
    verify_gallai_partition,
)
from gallai import coloring
from gallai.coloring import (
    _DIGIT,
    _gec_rows,
    _numbered_content_lines,
    _parse_body,
    _parse_canonical,
    _stride_text,
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


@given(colorings(max_k=12))
def test_serialize_parse_roundtrip(c):
    assert parse_coloring(c.serialize()) == c
    # a serialized text never falls through to the general reader
    assert _parse_canonical(c.serialize()) == c


def _outcome(parse, text):
    """parse's Coloring, or the message of its GecFormatError."""
    try:
        return parse(text)
    except GecFormatError as err:
        return f"GecFormatError: {err}"


def _general_reader(text):
    return _parse_body(_numbered_content_lines(text))


_EDITS = ("swap", "crlf", "trailing space", "no final newline", "plus", "zero", "comment", "blank", "recolor")


def _edit(lines, edit, i, arg):
    """A copy of lines with one edit at line i; arg picks the other line
    of a swap, the token prefixed by "+" or "0", or the new color."""
    lines = list(lines)
    tokens = lines[i].split(" ")
    if edit == "swap":
        h = arg % len(lines)
        lines[i], lines[h] = lines[h], lines[i]
    elif edit == "crlf":
        lines[i] += "\r"
    elif edit == "trailing space":
        lines[i] += " "
    elif edit == "no final newline":
        if lines[-1] == "":
            lines.pop()
    elif edit in ("plus", "zero"):
        j = arg % len(tokens)
        tokens[j] = ("+" if edit == "plus" else "0") + tokens[j]
        lines[i] = " ".join(tokens)
    elif edit in ("comment", "blank"):
        lines.insert(i, "# note" if edit == "comment" else "")
    else:
        tokens[-1] = str(arg)
        lines[i] = " ".join(tokens)
    return lines


@st.composite
def _perturbed_gec(draw):
    """A serialized coloring, k up to 12 so colors may take two digits,
    with one to three edits that the general reader may or may not
    accept."""
    c = draw(colorings(max_n=7, max_k=12))
    lines = c.serialize().split("\n")  # the last entry follows the final newline
    for edit in draw(st.lists(st.sampled_from(_EDITS), min_size=1, max_size=3)):
        lines = _edit(lines, edit, draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, 13)))
    return "\n".join(lines)


_one_vertex_gec = st.builds(
    "1 {}{}".format,
    st.integers(-1, 12),
    st.sampled_from(["", "\n", "\n\n", " \n", "\r\n", "\n# note\n", "\n1 2 1\n"]),
)


def _assert_readers_agree(text):
    # the canonical reading returns only what the general reader would,
    # and only on a text that serialize writes; every other text, and
    # every error, is the general reader's
    assert _outcome(parse_coloring, text) == _outcome(_general_reader, text)
    canonical = _parse_canonical(text)
    assert canonical is None or canonical.serialize() == text


@given(st.one_of(_gec_like, _perturbed_gec(), _one_vertex_gec))
def test_parse_agrees_with_general_reader(text):
    _assert_readers_agree(text)


@pytest.mark.parametrize("c", [Coloring(2, 1, (1,)), Coloring(4, 12, (1, 12, 10, 3, 11, 2))])
def test_parse_agrees_with_general_reader_on_every_single_edit(c):
    lines = c.serialize().split("\n")
    for i in range(len(lines)):
        for edit in _EDITS:
            for arg in range(14):
                _assert_readers_agree("\n".join(_edit(lines, edit, i, arg)))


def _peak_bytes(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_huge_k_is_never_enumerated():
    # with_k admits k = 10**9: colour strings come from the colours present
    c = Coloring(3, 10**9, (1, 2, 3))
    text = c.serialize()
    assert text == "3 1000000000\n1 2 1\n1 3 2\n2 3 3\n"
    assert _peak_bytes(c.serialize) < 1 << 20
    assert _peak_bytes(parse_coloring, text) < 1 << 20
    assert parse_coloring(text) == c


def test_huge_k_sizes_derived_tables_by_the_colors_in_use():
    # every unused color shares one all-zero row, and the census fills
    # in its zero without a loop over the vertices; one row of its own
    # per color would take 176 MB more here
    c = Coloring(3, 10**6, (1, 2, 3))

    def census():
        c.adjacency()
        return triangle_census(c)

    assert _peak_bytes(census) < 128 << 20
    cen = census()
    assert cen.mono_total == cen.bichromatic == 0 and cen.rainbow == 1
    assert len(cen.mono_per_color) == 10**6
    assert c.used_colors() == (1, 2, 3)
    assert c.adjacency()[4] is c.adjacency()[10**6] == [0] * 4


def test_parse_peak_memory_on_largest_construction():
    # n = 289: the general per-line reader peaks at 7.1 MB on this text
    text = construct_gr_k4e_extremal(4, 4).serialize()
    assert _peak_bytes(parse_coloring, text) < 4 << 20


@given(colorings(max_n=7))
def test_permutations_are_bijections(c):
    ident_v = {v: v for v in range(1, c.n + 1)}
    ident_c = {q: q for q in range(1, c.k + 1)}
    assert c.permute_vertices(ident_v) == c
    assert c.permute_colors(ident_c) == c
    rev = {v: c.n + 1 - v for v in range(1, c.n + 1)}
    assert c.permute_vertices(rev).permute_vertices(rev) == c


def _per_pair_recount(c):
    """The colors in use, and per color in use its adjacency rows, its
    monochromatic triangles and its edges in none, by the color of each
    pair and each triple."""
    n = c.n
    at = [[0] * (n + 1) for _ in range(n + 1)]
    for u, v in lex_pairs(n):
        at[u][v] = at[v][u] = c.color(u, v)
    used = sorted(set(c.colors))
    adj = {q: [0] * (n + 1) for q in used}
    tri = dict.fromkeys(used, 0)
    free = dict.fromkeys(used, 0)
    for u, v in lex_pairs(n):
        q = at[u][v]
        adj[q][u] |= 1 << (v - 1)
        adj[q][v] |= 1 << (u - 1)
        free[q] += not any(at[u][w] == q == at[v][w] for w in range(1, n + 1))
    for u, v, w in combinations(range(1, n + 1), 3):
        q = at[u][v]
        tri[q] += at[u][w] == q == at[v][w]
    return tuple(used), adj, tri, free


def _assert_derived_tables_match(c):
    used, adj, tri, free = _per_pair_recount(c)
    assert c.used_colors() == used
    tables = c.adjacency(), c.degrees(), c.mono_triangles(), c.free_edges()
    assert all(len(table) == c.k + 1 and table[0] is None for table in tables)
    got_adj, got_deg, got_tri, got_free = tables
    for q in used:
        assert got_adj[q] == adj[q], q
        assert got_deg[q] == [row.bit_count() for row in adj[q]], q
        assert (got_tri[q], got_free[q]) == (tri[q], free[q]), q
    # every color not in use: zero rows and zero counts, all of them
    # while k is small, the neighbors of the used colors and a sample
    # past that
    unused = set(range(1, c.k + 1)) if c.k <= 2000 else {1, c.k} | set(range(250, 262))
    unused |= {q + d for q in used for d in (-1, 1)}
    unused = {q for q in unused if 1 <= q <= c.k} - set(used)
    zero = [0] * (c.n + 1)
    for q in unused:
        assert got_adj[q] == got_deg[q] == zero and got_tri[q] == got_free[q] == 0, q
    # the free counts are the protected edges when no triangle is rainbow
    if c.n <= 12 or is_gallai(c):
        assert count_protected_edges(c) == helpers.brute_protected(c)


def _with_colors(n, k, palette, heavy, rng):
    """A coloring of K_n that uses every color of palette: each on one
    pair of its own, the other pairs in a color of heavy, so that the
    colors of heavy have monochromatic triangles."""
    colors = [rng.choice(heavy) for _ in range(comb(n, 2))]
    for i, q in zip(rng.sample(range(len(colors)), len(palette)), palette):
        colors[i] = q
    return Coloring(n, k, colors)


def test_derived_tables_match_per_pair_recount():
    rng = random.Random(3)
    for _ in range(60):
        n, k = rng.randint(1, 40), rng.randint(1, 6)
        _assert_derived_tables_match(Coloring(n, k, [rng.randint(1, k) for _ in range(comb(n, 2))]))


def test_derived_tables_match_per_pair_recount_on_small_and_wide_colorings():
    rng = random.Random(43)
    cases = []
    # n = 1 and n = 2
    for k in (1, 2, 255, 256, 10**6):
        cases.append(Coloring(1, k, ()))
        cases += [Coloring(2, k, (q,)) for q in {1, min(255, k), k}]
    # colors above 255, one window of codes
    for _ in range(20):
        n, k = rng.randint(3, 30), rng.choice([256, 300, 1000])
        palette = rng.sample(range(1, k + 1), rng.randint(1, 6))
        cases.append(_with_colors(n, k, palette, palette[:3], rng))
    # exactly 255 and 256 colors in use: 1..255, 1..256, and 255 and 256
    # of 1..1000, so that one window is full and the next holds one color;
    # 600 in use take three windows
    for m, k, n in [(255, 255, 24), (256, 256, 24), (255, 1000, 30), (256, 1000, 30), (600, 1000, 40)]:
        for _ in range(2):
            palette = sorted(rng.sample(range(1, k + 1), m)) if k > m else list(range(1, m + 1))
            # triangles in the first and the last window
            heavy = [palette[0], palette[200], palette[-1]]
            cases.append(_with_colors(n, k, palette, heavy, rng))
    # k = 10**6, few colors in use
    for _ in range(6):
        palette = rng.sample([1, 2, 255, 256, 500_000, 999_999, 10**6], 4)
        cases.append(_with_colors(rng.randint(3, 30), 10**6, palette, palette[:2], rng))
    # random Gallai colorings, their colors renamed past 255
    for _ in range(12):
        g = random_gallai_coloring(rng.randint(3, 25), rng.randint(2, 5), rng)
        names = rng.sample(range(1, 2000), g.k)
        cases.append(Coloring(g.n, 2000, [names[q - 1] for q in g.colors]))
    for c in cases:
        _assert_derived_tables_match(c)
    assert {len(c.used_colors()) for c in cases} >= {0, 1, 255, 256, 600}
    assert sum(max(c.mono_triangles()[1:], default=0) > 0 and c.used_colors()[-1] > 255 for c in cases) > 20


def test_derived_tables_are_built_once(monkeypatch):
    builds = []
    build = Coloring._build_derived

    def counted(coloring):
        builds.append(coloring)
        build(coloring)

    walks = []
    walk = Coloring._walk_codegrees

    def walked(coloring):
        walks.append(coloring)
        return walk(coloring)

    monkeypatch.setattr(Coloring, "_build_derived", counted)
    monkeypatch.setattr(Coloring, "_walk_codegrees", walked)
    c = construct_gr_k3_extremal(4)
    assert triangle_census(c).rainbow == 0
    assert is_gallai(c)
    gp = find_gallai_partition(c)
    assert verify_gallai_partition(c, gp)
    assert verify_gallai_partition(c, coarsen_to_min_parts(c, gp))
    for color in range(1, c.k + 1):
        for kind in ("K3", "K4", "K4+e"):
            find_mono_subgraph(c, color, kind)
    count_protected_edges(c)
    count_nim_star_edges(c, 2)
    assert sum(b is c for b in builds) == 1
    # the triangle counts and the free edges come from one codegree walk
    assert sum(w is c for w in walks) == 1


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


# --- the fixed-stride reading and writing of one-digit colors --------------


def _row_text(n, k, colors):
    """The .gec text that the row writer gives for colors in pair order."""
    return f"{n} {k}\n" + "".join(_gec_rows(n, map(str, colors)))


def test_stride_writer_and_reader_match_the_row_writer_and_general_reader():
    # every n in 1..120 crosses the digit-run boundaries at v = 10 and
    # 100; the general reader, the slow part, reads one k per n
    rng = random.Random(36)
    for n in range(1, 121):
        for k in range(1, 10):
            colors = [rng.randint(1, k) for _ in range(comb(n, 2))]
            text = _row_text(n, k, colors)
            assert _stride_text(n, k, bytes(colors).translate(_DIGIT)) == text
            c = Coloring(n, k, colors)
            assert c.serialize() == text
            assert _parse_canonical(text) == c
            if k == 1 + n % 9:
                assert _general_reader(text) == c


@pytest.mark.parametrize("k", [10, 12, 10**9])
def test_stride_path_takes_one_digit_colors_under_a_large_header_k(k):
    rng = random.Random(k)
    for n in (1, 2, 9, 10, 11, 14, 99, 100, 101):
        colors = [rng.randint(1, 9) for _ in range(comb(n, 2))]
        text = _row_text(n, k, colors)
        c = Coloring(n, k, colors)
        assert c.serialize() == text
        assert _parse_canonical(text) == _general_reader(text) == c


def _refuse(*args):
    raise AssertionError("this writer is for the other color widths")


@pytest.mark.parametrize("low", [10, 1])  # two-digit colors only, then mixed widths
def test_multi_digit_colors_keep_the_row_writer_and_column_reader(monkeypatch, low):
    rng = random.Random(low)
    cases = []
    for n in (2, 3, 9, 10, 11, 30, 101):
        for k in (12, 99, 150):
            colors = [rng.randint(low, k) for _ in range(comb(n, 2))]
            colors[rng.randrange(len(colors))] = k  # at least one wide color
            cases.append((n, k, colors))
    with monkeypatch.context() as patch:
        patch.setattr(coloring, "_stride_text", _refuse)
        for n, k, colors in cases:
            text = _row_text(n, k, colors)
            c = Coloring(n, k, colors)
            assert c.serialize() == text
            assert _parse_canonical(text) == _general_reader(text) == c
    # and the one-digit texts never reach the row writer
    monkeypatch.setattr(coloring, "_gec_rows", _refuse)
    for n in (1, 2, 11, 101):
        c = Coloring(n, 12, [rng.randint(1, 9) for _ in range(comb(n, 2))])
        assert parse_coloring(c.serialize()) == c


_EDIT_CHARS = "01239 \n\r#x\u00e9"


@pytest.mark.parametrize(
    "c",
    [
        Coloring(1, 3, ()),
        Coloring(4, 3, (1, 2, 3, 3, 2, 1)),
        Coloring(11, 2, [1 + (i * 7 % 5 == 0) for i in range(55)]),
        Coloring(10, 9, [1 + i % 9 for i in range(45)]),
    ],
)
def test_every_single_character_edit_reads_as_the_general_reader_reads_it(c):
    text = c.serialize()
    edited = set()
    for i in range(len(text) + 1):
        edited.add(text[:i] + text[i + 1 :])  # a deletion
        for ch in _EDIT_CHARS:
            edited.add(text[:i] + ch + text[i + 1 :])  # a replacement
            edited.add(text[:i] + ch + text[i:])  # an insertion
    edited.discard(text)
    for t in sorted(edited):
        _assert_readers_agree(t)
