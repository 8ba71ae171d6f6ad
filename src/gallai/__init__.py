"""Gallai colorings of complete graphs: data model, closed-form values,
extremal constructions, structural decomposition, singleton-extended
variant, and exhaustive desk-scale search.

The public names below are imported on first use (PEP 562), so
`import gallai` loads no submodule, and a program that uses only
`gallai.formulas` pays for no other.  `gallai.X`, `from gallai import X`
and `from gallai import *` work as with plain imports."""

# each submodule and the public names it defines
_EXPORTS = {
    "census": (
        "MonoSubgraphReport",
        "TriangleCensus",
        "count_nim_star_edges",
        "count_protected_edges",
        "find_mono_subgraph",
        "find_rainbow_triangle",
        "is_gallai",
        "triangle_census",
    ),
    "coloring": (
        "Coloring",
        "GecFormatError",
        "lex_pairs",
        "pair_index",
        "parse_coloring",
        "serialize_coloring",
    ),
    "construct": (
        "blow_up",
        "construct_f_lower",
        "construct_gr_k3_extremal",
        "construct_gr_k4e_extremal",
        "construct_multiplicity_extremal",
        "construct_nim_star",
        "goodman_extremal_2coloring",
        "mono_clique",
        "paley17_coloring",
        "pentagon_coloring",
        "random_gallai_coloring",
        "single_vertex",
        "turan_parts",
    ),
    "formulas": (
        "GuardedValue",
        "ex_star",
        "g_multiplicity_bounds",
        "goodman_m2",
        "gr_k3",
        "gr_mixed_k4e",
        "gr_star_k3",
        "m3_formula",
        "mixed_k4e_extremal_order",
        "turan_count",
    ),
    "grstar": (
        "ExtendedColoring",
        "GrStarReport",
        "check_gr_star_conditions",
        "figure1_fixture",
        "max_gr_star_witness",
        "parse_extended_coloring",
        "serialize_extended_coloring",
    ),
    "partition": (
        "GallaiPartition",
        "NotGallaiError",
        "coarsen_to_min_parts",
        "find_gallai_partition",
        "verify_gallai_partition",
    ),
    "search": (
        "SearchOutcome",
        "exists_avoiding",
        "find_gr_star_pair_witness",
        "max_protected_edges",
        "min_mono_triangles",
    ),
}

# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name, or one of the submodules above, imported on first
    use and kept in the module globals, so each resolves once."""
    home = _HOME.get(name, name)
    if home not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which -X importtime reports; it
    # binds the submodule in these globals
    __import__(f"{__name__}.{home}")
    module = globals()[home]
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})

