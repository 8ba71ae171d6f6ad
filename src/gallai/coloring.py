"""Edge-colorings of complete graphs and the .gec interchange format.

Vertices are labeled 1..n.  A coloring assigns one color from {1..k} to
every one of the C(n,2) unordered pairs.  Colors are stored in
lexicographic pair order (1,2),(1,3),...,(1,n),(2,3),...,(n-1,n); every
module in this package shares that convention, so serialized files and
reported witnesses are deterministic.

The `.gec` text format: first line "n k", then exactly C(n,2) lines
"u v c" with 1 <= u < v <= n and 1 <= c <= k, each pair exactly once, in
any order.  Lines starting with "#" are comments.  The serializer emits
pairs in lexicographic order.  The header's k may far exceed the colors
in use: the serializer and the derived tables do per-color work only
for the colors in use, and an unused color costs one list slot.

Neither direction walks the pairs one at a time in Python.  When every
color has one digit (always so for k <= 9), the layout of the
serializer's text is fixed by n: in row u, each run of v with one digit
count has lines of one length, so that run's colors are a strided slice
of the text.  The serializer fills a skeleton of the rows (one replace
per row) with one strided slice assignment per run (`_stride_text`),
and the canonical reading takes each run's colors out by one strided
slice.  Colors of two or more digits are written one join per row
(`_gec_rows`) and read off the color column by one regular expression.
Either reading accepts a text only if writing its colors back gives it
character for character; any other text, and every error, goes to the
general reader `_parse_body`, which is the format's only definition.
The loops of this module that still walk the pairs one at a time in
Python are the general reader, the derived tables (which count the
monochromatic triangles in the same walk, so the triangle census has no
pair loop of its own), `edges` (and `edges_by_color` on it),
`permute_vertices` and the constructor's error path.  Elsewhere, at the
sizes the constructions reach, they are the rainbow-triangle search and
the protected-edge count in `census` (which, without a rainbow
triangle, takes an AND only for the pairs of colors with a triangle),
and the nim-star construction's last step.  The nim-star count works
per vertex and color, and the Goodman and random Gallai constructions
build whole rows.
"""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Iterator, Sequence
from itertools import combinations, islice
from math import comb


class GecFormatError(ValueError):
    """Malformed .gec/.gecx input; the message names the offending line."""


def lex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (u,v) with 1 <= u < v <= n, in lexicographic order.

    Not cached, so no table per n outlives its caller.  Loops over a
    coloring's pairs walk the same order without a table: one iterator
    over the colors, and per u, ``zip(range(u + 1, n + 1), colors)``.
    zip draws from the range first, so each u takes exactly its own
    n - u colors.  The .gec writer and the canonical reading take whole
    rows, or runs of one line length, instead: row u is the next n - u
    colors, with no loop per pair."""
    return tuple(combinations(range(1, n + 1), 2))


def pair_index(n: int, u: int, v: int) -> int:
    """Position of pair {u,v} in lexicographic order (u < v required)."""
    if not 1 <= u < v <= n:
        raise ValueError(f"pair ({u},{v}) invalid for n={n}")
    return (u - 1) * n - u * (u + 1) // 2 + v - 1


class Coloring:
    """An immutable k-edge-coloring of the complete graph K_n.

    Instances are safe to share across threads.  The per-color
    adjacency bitsets, degree tables and triangle counts are computed
    once on first use and never mutated afterwards.  The per-color K4
    record beside them gains one entry per color, on that color's first
    K4 hunt, and the twin record one per color on its first hunt of any
    kind; neither changes an entry: each is an immutable tuple, int or
    None that every thread computes alike, and a dict store is atomic,
    so a reader sees either no entry or the final one.  Two threads that hunt one color
    at once may both walk it; they store the same value.
    """

    __slots__ = ("n", "k", "colors", "_derived")

    def __init__(self, n: int, k: int, colors: Sequence[int]):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        colors = tuple(colors)
        if len(colors) != comb(n, 2):
            raise ValueError(
                f"expected {comb(n, 2)} colors for n={n}, got {len(colors)}"
            )
        present = set(colors)
        if present and not 1 <= min(present) <= max(present) <= k:
            # name the first offending pair
            for (u, v), c in zip(combinations(range(1, n + 1), 2), colors):
                if not 1 <= c <= k:
                    raise ValueError(f"color {c} on pair ({u},{v}) outside 1..{k}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "_derived", None)

    def __setattr__(self, name, value):
        raise AttributeError("Coloring is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since __setattr__
        # refuses the default restore; the derived tables are rebuilt
        # on first use
        return type(self), (self.n, self.k, self.colors)

    def color(self, u: int, v: int) -> int:
        """Color of the pair {u,v} (order of arguments is irrelevant)."""
        if u > v:
            u, v = v, u
        return self.colors[pair_index(self.n, u, v)]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, v, color) in lexicographic pair order."""
        n = self.n
        colors = iter(self.colors)
        for u in range(1, n + 1):
            for v, c in zip(range(u + 1, n + 1), colors):
                yield u, v, c

    def _build_derived(self):
        # adj[c][v] is a bitmask of the c-colored neighbors of v
        # (vertex v <-> bit v-1); deg[c][v] the c-degree of v; tri[c]
        # the number of c-colored triangles.  Only the colors in use get
        # rows of their own: every unused color shares one all-zero row,
        # so k costs one list slot per color.  The K4 and twin records
        # start empty.
        #
        # The pairs are added in lexicographic order.  Just before (u, v)
        # is added, adj[c][v] holds only the c-neighbors w < u of v, so
        # adj[c][u] & adj[c][v] is the set of apexes w < u of c-colored
        # triangles uvw: each triangle is counted once, at its last pair.
        n, k = self.n, self.k
        used = tuple(sorted(set(self.colors)))
        zero = [0] * (n + 1)
        adj = [zero] * (k + 1)
        adj[0] = None
        for c in used:
            adj[c] = [0] * (n + 1)
        tri = [0] * (k + 1)
        tri[0] = None
        bits = [0] + [1 << (v - 1) for v in range(1, n + 1)]
        colors = iter(self.colors)
        for u in range(1, n + 1):
            bu = bits[u]
            for v, bv, c in zip(range(u + 1, n + 1), bits[u + 1 :], colors):
                adj_c = adj[c]
                au, av = adj_c[u], adj_c[v]
                tri[c] += (au & av).bit_count()
                adj_c[u] = au | bv
                adj_c[v] = av | bu
        deg = adj[:]
        for c in used:
            deg[c] = [mask.bit_count() for mask in adj[c]]
        object.__setattr__(self, "_derived", (adj, deg, tri, used, {}, {}))

    def _table(self, i: int):
        if self._derived is None:
            self._build_derived()
        return self._derived[i]

    def adjacency(self) -> list:
        """Per-color adjacency bitsets, indexed adj[color][vertex].  The
        colors not in use share one all-zero row."""
        return self._table(0)

    def degrees(self) -> list:
        """Per-color degree table, indexed deg[color][vertex].  The
        colors not in use share one all-zero row."""
        return self._table(1)

    def mono_triangles(self) -> list:
        """Per-color monochromatic triangle counts, indexed tri[color];
        counted while the adjacency bitsets are built."""
        return self._table(2)

    def used_colors(self) -> tuple[int, ...]:
        """The colors on at least one pair, ascending."""
        return self._table(3)

    def k4_record(self) -> dict:
        """The first monochromatic K4 of each color hunted so far: color
        -> its sorted vertex tuple, or None when the color has none.
        Filled by `census.find_mono_subgraph`, one walk per color."""
        return self._table(4)

    def twin_record(self) -> dict:
        """The c-twin representatives of each color walked so far: color
        -> the bitmask (vertex v <-> bit v-1) of the lowest vertex of each
        class of vertices with one c-neighborhood.  Filled by
        `census.find_mono_subgraph` on the color's first walk."""
        return self._table(5)

    def edges_by_color(self) -> list:
        """Lists of pairs per color, indexed by color, each in
        lexicographic order.

        Built on each call and not cached, as lex_pairs is, so no pair
        list outlives its caller."""
        by_color: list = [None] + [[] for _ in range(self.k)]
        for u, v, c in self.edges():
            by_color[c].append((u, v))
        return by_color

    def with_k(self, k: int) -> "Coloring":
        """Same coloring reinterpreted over a larger color universe."""
        if k < self.k:
            for c in self.colors:
                if c > k:
                    raise ValueError(f"color {c} present, cannot shrink k to {k}")
        if k == self.k:
            return self
        return Coloring(self.n, k, self.colors)

    def permute_colors(self, perm: dict[int, int]) -> "Coloring":
        """Rename colors via a bijection of {1..k}."""
        if sorted(perm) != list(range(1, self.k + 1)) or sorted(
            perm.values()
        ) != list(range(1, self.k + 1)):
            raise ValueError("perm must be a bijection of 1..k")
        return Coloring(self.n, self.k, tuple(perm[c] for c in self.colors))

    def permute_vertices(self, perm: dict[int, int]) -> "Coloring":
        """Relabel vertices via a bijection of {1..n}."""
        if sorted(perm) != list(range(1, self.n + 1)) or sorted(
            perm.values()
        ) != list(range(1, self.n + 1)):
            raise ValueError("perm must be a bijection of 1..n")
        out = [0] * comb(self.n, 2)
        for (u, v), c in zip(combinations(range(1, self.n + 1), 2), self.colors):
            pu, pv = perm[u], perm[v]
            if pu > pv:
                pu, pv = pv, pu
            out[pair_index(self.n, pu, pv)] = c
        return Coloring(self.n, self.k, out)

    def serialize(self) -> str:
        colors = self.colors
        try:
            values = bytes(colors)
        except ValueError:  # a color above 255
            values = None
        if values is not None and not values.translate(None, _ONE_DIGIT):
            return _stride_text(self.n, self.k, values.translate(_DIGIT))
        # the strings of the colors present: k may be far larger
        strings = {c: str(c) for c in set(colors)}
        rows = _gec_rows(self.n, map(strings.__getitem__, colors))
        return f"{self.n} {self.k}\n" + "".join(rows)

    def __eq__(self, other):
        return (
            isinstance(other, Coloring)
            and self.n == other.n
            and self.k == other.k
            and self.colors == other.colors
        )

    def __hash__(self):
        return hash((self.n, self.k, self.colors))

    def __repr__(self):
        return f"Coloring(n={self.n}, k={self.k})"


# the colors of one digit; the ASCII digit of each color 0..9, and back
_ONE_DIGIT = bytes(range(1, 10))
_DIGIT = bytes.maketrans(bytes(range(10)), b"0123456789")
_VALUE = bytes.maketrans(b"0123456789", bytes(range(10)))


def _stride_runs(n: int, start: int) -> tuple[list, int]:
    """The layout of a .gec body of one-digit colors that starts at
    offset start: a list of (offset, count, stride), one per run of
    lines "u v c" of one row u whose v have one digit count, in body
    order, and the offset where the body ends.  Every line of a run has
    the length stride, so its count colors lie at offset, offset +
    stride, ...; a row's runs start at v = u + 1, 10, 100, ..."""
    runs = []
    pos = start
    for u in range(1, n):
        du = len(str(u))
        v = u + 1
        while v <= n:
            dv = len(str(v))
            last = min(n, 10**dv - 1)  # the last v of this digit count
            count = last - v + 1
            stride = du + dv + 4
            runs.append((pos + du + dv + 2, count, stride))
            pos += count * stride
            v = last + 1
    return runs, pos


def _stride_text(n: int, k: int, digits: bytes, runs=None) -> str:
    """The .gec text of a coloring of K_n whose colors all have one
    digit; digits holds their ASCII digits in pair order, and runs, if
    a reader has them already, the runs of _stride_runs after the
    header.

    Row u's lines are those of the row "@", "@ v 0" for v > u, with u in
    place of "@": one slice of a template and one replace per row.  The
    colors then go into each run of _stride_runs by one strided slice
    assignment."""
    head = b"%d %d\n" % (n, k)
    lines = [b"@ %d 0\n" % v for v in range(2, n + 1)]
    template = b"".join(lines)
    text = bytearray(head)
    at = 0  # where row u's lines start in template
    for u in range(1, n):
        text += template[at:].replace(b"@", b"%d" % u)
        at += len(lines[u - 1])
    if runs is None:
        runs, _ = _stride_runs(n, len(head))
    i = 0
    for off, count, stride in runs:
        text[off : off + count * stride : stride] = digits[i : i + count]
        i += count
    return text.decode("ascii")


def _gec_rows(n: int, colors):
    """The .gec lines of the pairs in lexicographic order, one string
    per row u < n: the line "u v c" of every v > u.  colors iterates
    over the color strings in pair order.  serialize writes through it
    only when some color has two or more digits.

    Each row is one join over a list whose slots are filled four at a
    time by slice assignment: the prefix "u ", the strings "v ", the
    color strings and the newlines."""
    heads = [f"{v} " for v in range(n + 1)]
    for u in range(1, n):
        m = n - u
        parts = ["\n"] * (4 * m)
        parts[0::4] = [heads[u]] * m
        parts[1::4] = heads[u + 1 :]
        parts[2::4] = islice(colors, m)
        yield "".join(parts)


# the color column of canonical .gec lines "u v c"
_COLOR_COLUMN = re.compile(r" (\S+)\n")


def _parse_canonical(text: str):
    """The Coloring whose serialization is exactly text, or None.

    Sizes nothing by the header until the body holds exactly C(n,2)
    newlines.  A body of the length that one-digit colors give is read
    by one strided slice per run of _stride_runs; any other is read off
    its color column by one regular expression, each distinct token
    converted once.  Either way the text is accepted only if every color
    lies in 1..k and the serializer's writer for those colors,
    _stride_text or _gec_rows, writes it back character for character.
    So the result is serialize's inverse, which is what _parse_body
    returns on the same text."""
    end = text.find("\n") + 1
    head = text[:end]
    header = head.split()
    if len(header) != 2:
        return None
    try:
        n, k = int(header[0]), int(header[1])
    except ValueError:
        return None
    if n < 1 or k < 1 or head != f"{n} {k}\n":
        return None
    m = comb(n, 2)
    if text.count("\n", end) != m:
        return None
    runs, length = _stride_runs(n, end)
    if len(text) == length:
        # the length of a body of one-digit colors
        column = "".join([text[off : off + count * stride : stride] for off, count, stride in runs])
        # a character outside ASCII becomes "?", which is no color
        digits = column.encode("ascii", "replace")
        if digits.translate(None, b"123456789"[:k]) or _stride_text(n, k, digits, runs) != text:
            return None
        return Coloring(n, k, digits.translate(_VALUE))
    # colors of two or more digits
    tokens = _COLOR_COLUMN.findall(text, end)
    if len(tokens) != m:
        return None
    value = {}
    for token in set(tokens):
        try:
            c = int(token)
        except ValueError:
            return None
        if not 1 <= c <= k or str(c) != token:
            return None
        value[token] = c
    for row in _gec_rows(n, iter(tokens)):
        if not text.startswith(row, end):
            return None
        end += len(row)
    if end != len(text):
        return None
    return Coloring(n, k, map(value.__getitem__, tokens))


def _parse_body(lines: list[tuple[int, str]]) -> Coloring:
    """Parse .gec content given as (line_number, text) pairs, comments removed."""
    if not lines:
        raise GecFormatError("line 1: missing header 'n k'")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise GecFormatError(f"line {lineno}: header must be 'n k', got {header!r}")
    try:
        n, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise GecFormatError(
            f"line {lineno}: header must be two integers, got {header!r}"
        ) from None
    if n < 1 or k < 1:
        raise GecFormatError(f"line {lineno}: need n >= 1 and k >= 1, got n={n} k={k}")

    # colors by pair index, 0 while a pair is unseen.  A body with fewer
    # than C(n,2) lines can only fail, so it gets a dict sized by the body
    # instead of an array sized by a header that may claim any n.
    m = comb(n, 2)
    body = lines[1:]
    colors = [0] * m if m <= len(body) else defaultdict(int)
    for lineno, text in body:
        parts = text.split()
        if len(parts) != 3:
            raise GecFormatError(f"line {lineno}: expected 'u v c', got {text!r}")
        try:
            u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise GecFormatError(
                f"line {lineno}: expected three integers, got {text!r}"
            ) from None
        if not 1 <= u < v <= n:
            raise GecFormatError(f"line {lineno}: pair ({u},{v}) must satisfy 1 <= u < v <= {n}")
        if not 1 <= c <= k:
            raise GecFormatError(f"line {lineno}: color {c} outside 1..{k}")
        idx = (u - 1) * n - u * (u + 1) // 2 + v - 1  # pair_index(n, u, v)
        if colors[idx]:
            raise GecFormatError(f"line {lineno}: duplicate pair ({u},{v})")
        colors[idx] = c
    # every body line now holds a distinct pair
    if len(body) != m:
        # the first missing pair lies within the first len(body)+1 pairs
        pairs = ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))
        missing = next(p for i, p in enumerate(pairs) if not colors[i])
        raise GecFormatError(
            f"got {len(body)} of {m} pairs; pair {missing} missing"
        )
    return Coloring(n, k, colors)


def _numbered_content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((i, line))
    return out


def parse_coloring(text: str) -> Coloring:
    """Parse a .gec document into a Coloring.

    Raises GecFormatError, naming the line, on a malformed header,
    missing or duplicated pair, or out-of-range color.  A text written
    by serialize takes the canonical reading; any other goes to the
    general reader, which returns the same Coloring on every text the
    canonical reading accepts.
    """
    coloring = _parse_canonical(text)
    if coloring is not None:
        return coloring
    return _parse_body(_numbered_content_lines(text))


def serialize_coloring(coloring: Coloring) -> str:
    """Inverse of parse_coloring; emits pairs in lexicographic order."""
    return coloring.serialize()
