"""Edge-colorings of complete graphs and the .gec interchange format.

Vertices are labeled 1..n.  A coloring assigns one color from {1..k} to
every one of the C(n,2) unordered pairs.  Colors are stored in
lexicographic pair order (1,2),(1,3),...,(1,n),(2,3),...,(n-1,n); every
module in this package shares that convention, so serialized files and
reported witnesses are deterministic.

The `.gec` text format: first line "n k", then exactly C(n,2) lines
"u v c" with 1 <= u < v <= n and 1 <= c <= k, each pair exactly once, in
any order.  Lines starting with "#" are comments.  The serializer emits
pairs in lexicographic order.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from math import comb
from typing import Iterator, Sequence


class GecFormatError(ValueError):
    """Malformed .gec/.gecx input; the message names the offending line."""


def lex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (u,v) with 1 <= u < v <= n, in lexicographic order.

    Not cached, so no table per n outlives its caller.  Hot loops over
    a coloring's pairs walk the same order without a table: one iterator
    over the colors, and per u, ``zip(range(u + 1, n + 1), colors)``.
    zip draws from the range first, so each u takes exactly its own
    n - u colors."""
    return tuple(combinations(range(1, n + 1), 2))


def pair_index(n: int, u: int, v: int) -> int:
    """Position of pair {u,v} in lexicographic order (u < v required)."""
    if not 1 <= u < v <= n:
        raise ValueError(f"pair ({u},{v}) invalid for n={n}")
    return (u - 1) * n - u * (u + 1) // 2 + v - 1


class Coloring:
    """An immutable k-edge-coloring of the complete graph K_n.

    Instances are safe to share across threads: all derived data
    (per-color adjacency bitsets, degree tables) is computed once on
    first use and never mutated afterwards.
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
        for i, c in enumerate(colors):
            if not 1 <= c <= k:
                u, v = lex_pairs(n)[i]
                raise ValueError(f"color {c} on pair ({u},{v}) outside 1..{k}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "_derived", None)

    def __setattr__(self, name, value):
        raise AttributeError("Coloring is immutable")

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
        # (vertex v <-> bit v-1); deg[c][v] the c-degree of v;
        # by_color[c] the list of c-colored pairs.
        adj = [None] + [[0] * (self.n + 1) for _ in range(self.k)]
        deg = [None] + [[0] * (self.n + 1) for _ in range(self.k)]
        by_color: list = [None] + [[] for _ in range(self.k)]
        n = self.n
        colors = iter(self.colors)
        for u in range(1, n + 1):
            for v, c in zip(range(u + 1, n + 1), colors):
                adj[c][u] |= 1 << (v - 1)
                adj[c][v] |= 1 << (u - 1)
                deg[c][u] += 1
                deg[c][v] += 1
                by_color[c].append((u, v))
        object.__setattr__(self, "_derived", (adj, deg, by_color))

    def adjacency(self) -> list:
        """Per-color adjacency bitsets, indexed adj[color][vertex]."""
        if self._derived is None:
            self._build_derived()
        return self._derived[0]

    def degrees(self) -> list:
        """Per-color degree table, indexed deg[color][vertex]."""
        if self._derived is None:
            self._build_derived()
        return self._derived[1]

    def edges_by_color(self) -> list:
        """Lists of pairs per color, indexed by color."""
        if self._derived is None:
            self._build_derived()
        return self._derived[2]

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
        lines = [f"{self.n} {self.k}"]
        lines.extend(f"{u} {v} {c}" for u, v, c in self.edges())
        return "\n".join(lines) + "\n"

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
        idx = pair_index(n, u, v)
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
    missing or duplicated pair, or out-of-range color.
    """
    return _parse_body(_numbered_content_lines(text))


def serialize_coloring(coloring: Coloring) -> str:
    """Inverse of parse_coloring; emits pairs in lexicographic order."""
    return coloring.serialize()
