"""Decision procedures for the four structural properties of set families
over a paired ground set [2n], plus the deterministic completion of a member
to a maximal-top candidate.

Every checker returns a report; a failing report always carries a witness
that can be re-verified against the property definition directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .coloring import SetFamily
from .flipgraph import build_flip_graph
from .lattice import ElementSet, hit_probe, pair_probe, profile_table

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


def _band_report(name: str, bad: np.ndarray, m: int, checked: int) -> PropertyReport:
    """The report of a property whose violating members are ``bad``; the
    witness is the lowest one."""
    first = int(np.argmax(bad))
    if bad[first]:
        return PropertyReport(name, False, ElementSet(first, m), checked)
    return PropertyReport(name, True, None, checked)


def _sizes_between(m: int, lo: int, hi: int) -> int:
    """How many subsets of [m] have lo..hi elements."""
    return sum(comb(m, k) for k in range(lo, hi + 1))


def is_pair_enforcing(family: SetFamily, n: int) -> PropertyReport:
    """Members with ceil(n/2) <= |S| < n must contain a complete pair."""
    m = _require_over_2n(family, n)
    low = (n + 1) // 2

    def bad(size, pairs, odd):
        return (size >= low) & (size < n) & (pairs == 0)

    return _band_report(
        "pair-enforcing", family.mask & profile_table(m, bad), m, _sizes_between(m, low, n - 1)
    )


def is_miss_forbidding(family: SetFamily, n: int) -> PropertyReport:
    """Members with n < |S| <= n + n//2 must not miss any pair."""
    m = _require_over_2n(family, n)
    high = n + n // 2

    def bad(size, pairs, odd):
        return (size > n) & (size <= high) & (n - size + pairs > 0)

    return _band_report(
        "miss-forbidding", family.mask & profile_table(m, bad), m, _sizes_between(m, n + 1, high)
    )


def is_not_too_high(family: SetFamily, n: int) -> PropertyReport:
    """No member larger than n + n//2."""
    m = _require_over_2n(family, n)
    high = n + n // 2
    bad = family.mask & profile_table(m, lambda size, pairs, odd: size > high)
    return _band_report("not-too-high", bad, m, family.size)


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
    reports = (
        is_pair_enforcing(family, n),
        is_miss_forbidding(family, n),
        is_not_too_high(family, n),
        is_flip_susceptible(family, n),
    )
    return RestrictiveReport(all(r.holds for r in reports), reports)


def extend_to_maximal(family: SetFamily, s: ElementSet, n: int) -> ElementSet:
    """Grow a member of a restrictive family to a superset of size n + n//2
    with exactly n//2 pairs and no missed pair.

    Deterministic choice rule: complete existing singles to pairs in
    ascending pair-index order until n//2 pairs exist; if singles run out,
    add whole fresh pairs lowest index first; finally add the lower element
    of every still-missed pair.  Raises if the input already has more than
    n//2 pairs, which cannot happen for a member of a restrictive family.
    """
    _require_over_2n(family, n)
    if s.m != family.space.m:
        raise ValueError(f"set over [{s.m}] but family is over [{family.space.m}]")
    if not family.contains(s):
        raise ValueError(f"{s} is not a member of the family")

    target_pairs = n // 2
    bits = s.bits
    have = pair_probe(bits).bit_count()
    if have > target_pairs:
        raise ValueError(f"{s} has {have} pairs, more than {target_pairs}")

    for i in range(n):
        if have == target_pairs:
            break
        probe = 1 << (2 * i)
        # A single in pair i+1: hit but not complete.
        if hit_probe(bits) & probe and not pair_probe(bits) & probe:
            bits |= 3 << (2 * i)
            have += 1
    for i in range(n):
        if have == target_pairs:
            break
        probe = 1 << (2 * i)
        if not hit_probe(bits) & probe:
            bits |= 3 << (2 * i)
            have += 1
    still_missed = hit_probe(bits)
    for i in range(n):
        if not still_missed >> (2 * i) & 1:
            bits |= 1 << (2 * i)
    return ElementSet(bits, s.m)
