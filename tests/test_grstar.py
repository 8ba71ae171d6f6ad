import pytest

from gallai import (
    Coloring,
    ExtendedColoring,
    GecFormatError,
    check_gr_star_conditions,
    construct_gr_k3_extremal,
    figure1_fixture,
    gr_star_k3,
    max_gr_star_witness,
    parse_extended_coloring,
    serialize_extended_coloring,
    triangle_census,
)


def test_figure1_passes_all_conditions():
    fx = figure1_fixture()
    assert fx.pairs.n == 10 == gr_star_k3(4) - 1
    assert fx.pairs.k == 4
    assert len(set(fx.singleton_colors)) == 2
    report = check_gr_star_conditions(fx)
    assert report.gallai and report.mono_triangle_free
    assert report.singleton_clash is None
    cen = triangle_census(fx.pairs)
    assert cen.mono_total == 0 and cen.rainbow == 0


def test_single_vertex_vacuous():
    ext = ExtendedColoring(Coloring(1, 1, ()), (1,))
    assert check_gr_star_conditions(ext).passes


def test_clash_detection():
    ext = ExtendedColoring(Coloring(2, 2, (1,)), (1, 2))
    report = check_gr_star_conditions(ext)
    assert report.singleton_clash == (1, 2)
    assert not report.passes


def test_clash_reports_first_pair():
    # both (1,2) and (1,3) clash; lexicographically first wins
    ext = ExtendedColoring(Coloring(3, 2, (1, 1, 2)), (1, 2, 2))
    assert check_gr_star_conditions(ext).singleton_clash == (1, 2)


def test_constant_singleton_color_on_triangle_free_base():
    # a triangle-free Gallai coloring in colors 1..k-1 plus singletons
    # in color k always passes
    for k in (2, 3, 4):
        pairs = construct_gr_k3_extremal(k - 1).with_k(k)
        ext = ExtendedColoring(pairs, (k,) * pairs.n)
        assert check_gr_star_conditions(ext).passes


def test_witness_flips_k2():
    found, witness = max_gr_star_witness(2, 2)
    assert found and check_gr_star_conditions(witness).passes
    found, witness = max_gr_star_witness(3, 2)
    assert not found and witness is None


def test_witness_flips_k3():
    found, witness = max_gr_star_witness(5, 3)
    assert found and check_gr_star_conditions(witness).passes
    found, _ = max_gr_star_witness(6, 3)
    assert not found


def test_witness_k1():
    # with one color every edge clashes with the singleton colors, so
    # only K_1 has a witness (test_witness_single_vertex)
    for n in range(2, 9):
        assert max_gr_star_witness(n, 1) == (False, None)


def test_witness_single_vertex():
    # K_1 has no pair, so its witness is the empty coloring with the
    # singleton color 1
    for k in (1, 2, 3):
        assert max_gr_star_witness(1, k) == (True, ExtendedColoring(Coloring(1, k, ()), (1,)))


def test_witness_bounds_enforced():
    with pytest.raises(ValueError):
        max_gr_star_witness(9, 2)
    with pytest.raises(ValueError):
        max_gr_star_witness(5, 4)


def test_gecx_roundtrip():
    fx = figure1_fixture()
    text = serialize_extended_coloring(fx)
    again = parse_extended_coloring(text)
    assert again == fx


def test_gecx_errors():
    with pytest.raises(GecFormatError):
        parse_extended_coloring("2 1\n1 2 1\n")  # no marker
    with pytest.raises(GecFormatError):
        parse_extended_coloring("2 1\n1 2 1\nSINGLETONS\n1 1\n")  # missing vertex
    with pytest.raises(GecFormatError):
        parse_extended_coloring("2 1\n1 2 1\nSINGLETONS\n1 1\n1 1\n")  # duplicate
    with pytest.raises(GecFormatError):
        parse_extended_coloring("2 1\n1 2 1\nSINGLETONS\n1 1\n2 9\n")  # bad color
