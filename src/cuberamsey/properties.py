"""Decision procedures for the four structural properties of set families
over a paired ground set [2n].

Every checker returns a report; a failing report always carries a witness
that can be re-verified against the property definition directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .coloring import SetFamily
from .flipgraph import build_flip_graph
from .lattice import ElementSet, profile_table

# The per-subset table builders stay attributes of this module, where the
# tracer of perfbench/traced.py wraps them, though the checks no longer
# use them.
from .lattice import missed_count_table, pair_count_table, popcount_table  # noqa: F401

Witness = ElementSet | tuple[ElementSet, ElementSet] | None


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check.

    ``checked_count`` is the number of candidate sets the property quantifies
    over for this family (band size, family size, or transversal count up to
    the point a violation surfaced); a failing report's witness genuinely
    violates the named property and can be re-checked on its own.
    """

    name: str
    holds: bool
    witness: Witness
    checked_count: int


@dataclass(frozen=True)
class RestrictiveReport:
    """Conjunction of the four property checks, in fixed order."""

    holds: bool
    subreports: tuple[PropertyReport, ...]

    @property
    def first_failure(self) -> PropertyReport | None:
        for rep in self.subreports:
            if not rep.holds:
                return rep
        return None

    @property
    def checked_count(self) -> int:
        return sum(rep.checked_count for rep in self.subreports)


def _require_over_2n(family: SetFamily, n: int) -> int:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if family.space.m != 2 * n:
        raise ValueError(
            f"family is over [{family.space.m}] but the check needs [{2 * n}]"
        )
    return family.space.m


def _sizes_between(m: int, lo: int, hi: int) -> int:
    """How many subsets of [m] have lo..hi elements."""
    return sum(comb(m, k) for k in range(lo, hi + 1))


# The band properties in report order; property i forbids the members
# marked i + 1 in ``_band_table``.
_BAND_NAMES = ("pair-enforcing", "miss-forbidding", "not-too-high")


@lru_cache(maxsize=8)
def _band_table(n: int) -> np.ndarray:
    """The read-only uint8 table over 2^[2n] of the band property each set
    violates as a member: 1 for pair-enforcing (ceil(n/2) <= |S| < n and no
    complete pair), 2 for miss-forbidding (n < |S| <= n + n//2 and a missed
    pair), 3 for not-too-high (|S| > n + n//2), 0 for none.  The three
    bands are disjoint by size, so one value per set holds them all."""
    low, high = (n + 1) // 2, n + n // 2

    def band(size, pairs, odd):
        value = np.zeros(size.shape, dtype=np.uint8)
        value[(size >= low) & (size < n) & (pairs == 0)] = 1
        value[(size > n) & (size <= high) & (n - size + pairs > 0)] = 2
        value[size > high] = 3
        return value

    return profile_table(2 * n, band)


def _band_reports(family: SetFamily, n: int) -> tuple[PropertyReport, ...]:
    """The reports of the three band properties, from one pass over the
    family: each witness is the lowest member its property forbids."""
    m = _require_over_2n(family, n)
    band = _band_table(n)
    # Both operands uint8: a bool and a uint8 table would take numpy's
    # slower casting loop.
    hits = np.flatnonzero(np.logical_and(family.mask.view(np.uint8), band))
    values = band[hits]
    checked = (
        _sizes_between(m, (n + 1) // 2, n - 1),
        _sizes_between(m, n + 1, n + n // 2),
        family.size,
    )
    reports = []
    for value, (name, count) in enumerate(zip(_BAND_NAMES, checked), start=1):
        own = np.flatnonzero(values == value)
        if own.size:
            reports.append(PropertyReport(name, False, ElementSet(int(hits[own[0]]), m), count))
        else:
            reports.append(PropertyReport(name, True, None, count))
    return tuple(reports)


def is_pair_enforcing(family: SetFamily, n: int) -> PropertyReport:
    """Members with ceil(n/2) <= |S| < n must contain a complete pair."""
    return _band_reports(family, n)[0]


def is_miss_forbidding(family: SetFamily, n: int) -> PropertyReport:
    """Members with n < |S| <= n + n//2 must not miss any pair."""
    return _band_reports(family, n)[1]


def is_not_too_high(family: SetFamily, n: int) -> PropertyReport:
    """No member larger than n + n//2."""
    return _band_reports(family, n)[2]


def is_flip_susceptible(family: SetFamily, n: int) -> PropertyReport:
    """No two pair-free n-sets whose union has size n+1 are both members.

    Qualifying set pairs are exactly the edges of the flip graph on the
    2^n transversals (equal size n, both pair free, overlap n-1), so the
    check is over its edges.  They are sorted by lower end, then upper
    end, which is the order of a walk over the transversals in ascending
    order and the swap partners above each: the witness is the first
    edge with both ends members, and ``checked_count`` counts the
    transversals up to its lower end.
    """
    m = _require_over_2n(family, n)
    graph = build_flip_graph(n)
    both = family.mask[graph.edges].all(axis=1)
    if not both.any():
        return PropertyReport("flip-susceptible", True, None, len(graph.vertices))
    t, u = graph.edges[np.argmax(both)].tolist()
    checked = int(np.searchsorted(graph.vertices, t)) + 1
    return PropertyReport(
        "flip-susceptible", False, (ElementSet(t, m), ElementSet(u, m)), checked
    )


def is_restrictive(family: SetFamily, n: int) -> RestrictiveReport:
    """All four properties, checked in fixed order."""
    reports = (*_band_reports(family, n), is_flip_susceptible(family, n))
    return RestrictiveReport(all(r.holds for r in reports), reports)

