"""Extended colorings: a color on every vertex as well as on every pair.

An extended coloring is a witness at its size when (a) its pair part is
a Gallai coloring with no monochromatic triangle and (b) no pair's
color coincides with the singleton color of either endpoint.  The exact
threshold where witnesses stop existing equals the ordinary
Gallai-Ramsey triangle threshold one color down; the bundled 10-vertex,
4-color fixture (two colors on its singletons) shows the singleton
colors need not all agree on an extremal witness.

The `.gecx` format extends `.gec`: the pair body first, then a line
"SINGLETONS", then n lines "v c" giving each vertex's color.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .census import triangle_census
from .coloring import Coloring, GecFormatError, _numbered_content_lines, _parse_body
from .search import DEFAULT_BUDGET, find_gr_star_pair_witness

MAX_WITNESS_N = 8
MAX_WITNESS_K = 3


class _ExtendedFields(NamedTuple):
    pairs: Coloring
    singleton_colors: tuple[int, ...]


class ExtendedColoring(_ExtendedFields):
    """A pair coloring plus one color per vertex, sharing {1..k}."""

    __slots__ = ()

    def __new__(cls, pairs: Coloring, singleton_colors: tuple[int, ...]):
        if len(singleton_colors) != pairs.n:
            raise ValueError(f"need {pairs.n} singleton colors, got {len(singleton_colors)}")
        for v, c in enumerate(singleton_colors, start=1):
            if not 1 <= c <= pairs.k:
                raise ValueError(f"singleton color {c} at vertex {v} outside 1..{pairs.k}")
        return super().__new__(cls, pairs, singleton_colors)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the checks
        return cls(*iterable)

    def singleton_color(self, v: int) -> int:
        return self.singleton_colors[v - 1]


class GrStarReport(NamedTuple):
    """Outcome of the three witness conditions."""

    gallai: bool
    mono_triangle_free: bool
    singleton_clash: Optional[tuple[int, int]]

    @property
    def passes(self) -> bool:
        return self.gallai and self.mono_triangle_free and self.singleton_clash is None


def check_gr_star_conditions(extended: ExtendedColoring) -> GrStarReport:
    """Evaluate all witness conditions; the clash reported is the
    lexicographically first pair whose color matches an endpoint's
    singleton color."""
    census = triangle_census(extended.pairs)
    clash = None
    singles = extended.singleton_colors
    for u, v, c in extended.pairs.edges():
        if c == singles[u - 1] or c == singles[v - 1]:
            clash = (u, v)
            break
    return GrStarReport(
        gallai=census.rainbow == 0,
        mono_triangle_free=census.mono_total == 0,
        singleton_clash=clash,
    )


def parse_extended_coloring(text: str) -> ExtendedColoring:
    """Parse a .gecx document (pair body, SINGLETONS marker, one line
    per vertex)."""
    lines = _numbered_content_lines(text)
    marker = next(
        (i for i, (_, content) in enumerate(lines) if content.upper() == "SINGLETONS"),
        None,
    )
    if marker is None:
        raise GecFormatError("missing SINGLETONS marker line")
    pairs = _parse_body(lines[:marker])
    singleton = [0] * pairs.n
    seen = [False] * pairs.n
    for lineno, content in lines[marker + 1 :]:
        parts = content.split()
        if len(parts) != 2:
            raise GecFormatError(f"line {lineno}: expected 'v c', got {content!r}")
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise GecFormatError(f"line {lineno}: expected two integers") from None
        if not 1 <= v <= pairs.n:
            raise GecFormatError(f"line {lineno}: vertex {v} outside 1..{pairs.n}")
        if not 1 <= c <= pairs.k:
            raise GecFormatError(f"line {lineno}: color {c} outside 1..{pairs.k}")
        if seen[v - 1]:
            raise GecFormatError(f"line {lineno}: duplicate singleton for vertex {v}")
        seen[v - 1] = True
        singleton[v - 1] = c
    if not all(seen):
        missing = seen.index(False) + 1
        raise GecFormatError(f"missing singleton color for vertex {missing}")
    return ExtendedColoring(pairs=pairs, singleton_colors=tuple(singleton))


def serialize_extended_coloring(extended: ExtendedColoring) -> str:
    lines = [extended.pairs.serialize().rstrip("\n"), "SINGLETONS"]
    lines.extend(
        f"{v} {c}" for v, c in enumerate(extended.singleton_colors, start=1)
    )
    return "\n".join(lines) + "\n"


def figure1_fixture() -> ExtendedColoring:
    """The bundled 10-vertex, 4-color extremal extended coloring with
    two distinct singleton colors; passes all witness conditions."""
    from importlib import resources  # here, so no CLI call pays for it at start-up

    text = resources.files("gallai").joinpath("data/figure1.gecx").read_text()
    return parse_extended_coloring(text)


def max_gr_star_witness(
    n: int, k: int, *, budget: int = DEFAULT_BUDGET
) -> tuple[bool, Optional[ExtendedColoring]]:
    """Decide by exhaustive search whether an n-vertex, k-color witness
    exists; the pair search is delegated to the pruned DFS and each
    vertex then takes the smallest color absent from its star.

    Restricted to desk scale (n <= 8, k <= 3)."""
    if not 1 <= n <= MAX_WITNESS_N:
        raise ValueError(f"n must be within 1..{MAX_WITNESS_N}, got {n}")
    if not 1 <= k <= MAX_WITNESS_K:
        raise ValueError(f"k must be within 1..{MAX_WITNESS_K}, got {k}")
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    if n == 1:
        return True, ExtendedColoring(Coloring(1, k, ()), (1,))
    if k == 1:
        # the lone color clashes with every edge as soon as one exists
        return False, None
    pairs = find_gr_star_pair_witness(n, k, budget=budget)
    if pairs is None:
        return False, None
    singles = []
    for v in range(1, n + 1):
        incident = {pairs.color(u, v) for u in range(1, n + 1) if u != v}
        free = next(c for c in range(1, k + 1) if c not in incident)
        singles.append(free)
    extended = ExtendedColoring(pairs=pairs, singleton_colors=tuple(singles))
    if not check_gr_star_conditions(extended).passes:
        raise RuntimeError(f"completed witness for n={n} k={k} fails the GR* conditions")
    return True, extended
