"""Closed-form evaluators for the quantities the rest of the package
constructs and searches for: minimum monochromatic-triangle counts of
2- and 3-colorings, Gallai-Ramsey numbers for triangles and for K4 plus
a pendant edge, the singleton-colored variant, Turan numbers, and the
star Turan number.

All arithmetic is exact integer arithmetic (Python ints), never floats:
these formulas are exact combinatorial claims and some of the
Gallai-Ramsey values (products of powers of 17 and 5) exceed 64 bits
for moderate k.  Binomials with top argument below 3 are taken to be 0,
which math.comb already does.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple


class GuardedValue(NamedTuple):
    """An integer value together with its validity regime.

    validity is "exact" for formulas that hold at every size and
    "asymptotic-only" for formulas established only for all sufficiently
    large n (no explicit threshold is known).
    """

    value: int
    validity: str  # "exact" | "asymptotic-only"


def goodman_m2(n: int) -> int:
    """Minimum number of monochromatic triangles over all 2-colorings of K_n.

    Three cases by residue: n(n-2)(n-4)/24 for even n, n(n-1)(n-5)/24
    for n = 1 mod 4, (n+1)(n-3)(n-4)/24 for n = 3 mod 4.  Clamped at 0
    for the degenerate n <= 4.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n % 2 == 0:
        val = n * (n - 2) * (n - 4) // 24
    elif n % 4 == 1:
        val = n * (n - 1) * (n - 5) // 24
    else:
        val = (n + 1) * (n - 3) * (n - 4) // 24
    return max(0, val)


def m3_formula(n: int) -> GuardedValue:
    """Minimum monochromatic-triangle count of 3-colorings of K_n, valid
    for sufficiently large n only.

    With n = 5m + r (0 <= r <= 4) the value is r*C(m+1,3) + (5-r)*C(m,3).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m, r = divmod(n, 5)
    return GuardedValue(
        value=r * comb(m + 1, 3) + (5 - r) * comb(m, 3),
        validity="asymptotic-only",
    )


def gr_k3(k: int) -> int:
    """Gallai-Ramsey number for the triangle: least n such that every
    Gallai-k-coloring of K_n has a monochromatic triangle."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k % 2 == 0:
        return 5 ** (k // 2) + 1
    return 2 * 5 ** ((k - 1) // 2) + 1


def mixed_k4e_extremal_order(k: int, s: int) -> int:
    """Largest n admitting a Gallai-k-coloring of K_n with no
    monochromatic K4+e in the first s colors and no monochromatic
    triangle in the remaining k-s colors.  Four parity cases in
    17^(s/2)-by-5^((k-s)/2) products."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= s <= k:
        raise ValueError(f"s must satisfy 0 <= s <= k, got s={s} k={k}")
    t = k - s
    if s % 2 == 0 and t % 2 == 0:
        return 17 ** (s // 2) * 5 ** (t // 2)
    if s % 2 == 0 and t % 2 == 1:
        return 2 * 17 ** (s // 2) * 5 ** ((t - 1) // 2)
    if s % 2 == 1 and t % 2 == 1:
        return 8 * 17 ** ((s - 1) // 2) * 5 ** ((t - 1) // 2)
    return 4 * 17 ** ((s - 1) // 2) * 5 ** (t // 2)


def gr_mixed_k4e(k: int, s: int) -> int:
    """Gallai-Ramsey number forcing a monochromatic K4+e in one of the
    first s colors or a monochromatic triangle in one of the last k-s."""
    return mixed_k4e_extremal_order(k, s) + 1


def gr_star_k3(k: int) -> int:
    """Singleton-colored variant for the triangle: equals the ordinary
    triangle value one color down."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return gr_k3(k - 1)


def turan_count(n: int, r: int) -> int:
    """Edge count t(n,r) of the complete r-partite graph on n vertices
    with class sizes as equal as possible."""
    if n < 1 or r < 1:
        raise ValueError(f"need n, r >= 1, got n={n} r={r}")
    q, p = divmod(n, r)  # p classes of size q+1, r-p of size q
    return comb(n, 2) - p * comb(q + 1, 2) - (r - p) * comb(q, 2)


def ex_star(n: int, h: int) -> int:
    """Maximum edges of an n-vertex graph with no star K_{1,h}:
    floor((h-1)n/2)."""
    if n < 1 or h < 1:
        raise ValueError(f"need n, h >= 1, got n={n} h={h}")
    return (h - 1) * n // 2


def g_multiplicity_bounds(k: int, n: int) -> tuple[int, int]:
    """(upper, lower) bounds on the minimum number of monochromatic
    triangles over Gallai-k-colorings of K_n, for n at or above the
    k-color Gallai-Ramsey threshold.

    Writing n = 5^floor((k-1)/2) * m + r, the upper bound is
    r*C(m+1,3) + (5^((k-1)/2) - r)*C(m,3) for odd k and
    r*M2(m+1) + (5^((k-2)/2) - r)*M2(m) for even k; the lower bound is
    ceil(s0*n(n-1)(n-2) / (N(N-1)(N-2))) with N the threshold and
    s0 = 1 (odd k) or 2 (even k).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    threshold = gr_k3(k)
    if n < threshold:
        raise ValueError(f"n={n} below threshold {threshold} for k={k}")
    base = 5 ** ((k - 1) // 2)
    m, r = divmod(n, base)
    if k % 2 == 1:
        upper = r * comb(m + 1, 3) + (base - r) * comb(m, 3)
    else:
        upper = r * goodman_m2(m + 1) + (base - r) * goodman_m2(m)
    s0 = 1 if k % 2 == 1 else 2
    num = s0 * n * (n - 1) * (n - 2)
    den = threshold * (threshold - 1) * (threshold - 2)
    lower = -(-num // den)
    return upper, lower
