"""Ground-set arithmetic: subsets of [m] as bit masks, and dense per-subset
tables of a set's size, complete pairs {1,2},{3,4},... and element-sum
parity.

Elements are numbered 1..m and element j lives at bit j-1, so the encoded
value of a set doubles as its index into dense per-subset tables. Pair i
(1-based) is {2i-1, 2i}, i.e. bits 2i-2 and 2i-1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

MAX_GROUND_SIZE = 32


class CapacityError(RuntimeError):
    """An instance is beyond what the implemented strategy can enumerate."""

# Bits 0,2,4,... -- one probe position per pair, and also the positions of
# the odd-valued elements 1,3,5,...
_EVEN_POSITIONS = 0x55555555


def check_ground_size(m: int) -> int:
    """Return m; raise ValueError unless it is in 1..MAX_GROUND_SIZE."""
    if not 1 <= m <= MAX_GROUND_SIZE:
        raise ValueError(f"ground-set size must be in 1..{MAX_GROUND_SIZE}, got {m}")
    return m


@dataclass(frozen=True)
class ElementSet:
    """A subset of [m], encoded as a bit mask (element j <-> bit j-1)."""

    bits: int
    m: int

    def __post_init__(self) -> None:
        check_ground_size(self.m)
        if self.bits < 0 or self.bits >> self.m:
            raise ValueError(f"mask {self.bits:#x} has bits outside [{self.m}]")

    @classmethod
    def from_elements(cls, elements: Iterable[int], m: int) -> "ElementSet":
        bits = 0
        for j in elements:
            if not 1 <= j <= m:
                raise ValueError(f"element {j} outside 1..{m}")
            bits |= 1 << (j - 1)
        return cls(bits, m)

    def elements(self) -> tuple[int, ...]:
        return tuple(j + 1 for j in range(self.m) if self.bits >> j & 1)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def __str__(self) -> str:
        return "{" + ",".join(str(j) for j in self.elements()) + "}"

    def __repr__(self) -> str:
        return f"ElementSet({self}, m={self.m})"


def parse_set(text: str, m: int) -> ElementSet:
    """Inverse of str(ElementSet): parse "{1,2,5}" or "{}"."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a set literal: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ElementSet(0, m)
    return ElementSet.from_elements((int(part) for part in inner.split(",")), m)


# Dense per-subset tables (index = encoded value).
#
# Every table is a rule on a set's size, its complete pairs and the parity
# of its element sum (see ``profile_table``).  The three quantities add up
# (the parity by XOR) over disjoint bit ranges, and split at an even bit k
# no pair straddles the split, so the value hi << k | lo has the profile of
# hi over the high m - k bits combined with that of lo over the low k bits.
# Only the two half index tables, of 2^(m-k) and 2^k entries, are built.

# Peak bytes per subset of a command that holds dense tables over 2^[m].
# With profile tables the heaviest commands, at m = 24, peak at about 6 B
# per subset (peak RSS on Linux): `check --n 12` at 94 MB, `color --n 12`
# at 95 MB to standard output and 62 MB with --out.  The figure keeps the
# 12 B measured before them, so that an estimate just under the machine's
# memory is not taken as room for a command and a search over its family.
TABLE_BYTES_PER_SUBSET = 12


# The memory limit of this process's cgroup (cgroup v2): a byte count, or
# "max" for none.
CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"


def _cgroup_memory_limit() -> int | None:
    """The byte limit in CGROUP_MEMORY_MAX; None where the file is absent,
    unreadable, "max" or not a byte count."""
    try:
        with open(CGROUP_MEMORY_MAX, encoding="ascii") as fh:
            text = fh.read().strip()
    except (OSError, UnicodeDecodeError):
        return None
    return int(text) if text.isdigit() else None


def physical_memory() -> int | None:
    """Bytes of memory the process may use: the machine's physical memory,
    or the cgroup's limit where that is smaller; None where the platform
    does not report physical memory."""
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError):
        return None
    limit = _cgroup_memory_limit()
    return have if limit is None else min(have, limit)


def _check_capacity(m: int) -> None:
    """Raise CapacityError when dense tables over 2^[m] would not fit in
    physical memory (where the platform reports it)."""
    need, have = TABLE_BYTES_PER_SUBSET << m, physical_memory()
    if have is not None and need > have:
        raise CapacityError(
            f"dense tables over 2^[{m}] need about {need} bytes, "
            f"more than the {have} bytes of physical memory"
        )


@lru_cache(maxsize=8)
def index_table(m: int) -> np.ndarray:
    """All encoded values 0..2^m-1 as a read-only uint32 array.  Raises
    CapacityError, before allocating, when dense tables over 2^[m] would
    not fit in physical memory (where the platform reports it)."""
    _check_capacity(m)
    idx = np.arange(1 << m, dtype=np.uint32)
    idx.flags.writeable = False
    return idx


def _pair_bits(idx: np.ndarray) -> np.ndarray:
    return np.bitwise_count(idx & (idx >> np.uint32(1)) & np.uint32(_EVEN_POSITIONS))


def _odd_parity(idx: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(idx & np.uint32(_EVEN_POSITIONS)) & np.uint8(1)).astype(bool)


def _profile_classes(idx: np.ndarray):
    """The distinct (size, complete pairs, odd element sum) profiles of the
    values ``idx`` of a bit range starting at an even bit, as int, int and
    bool arrays, and the profile index of each value."""
    key = np.bitwise_count(idx).astype(np.int64) << 8 | _pair_bits(idx)
    classes, inverse = np.unique(key << 1 | _odd_parity(idx), return_inverse=True)
    return (classes >> 9, classes >> 1 & 0xFF, (classes & 1).astype(bool)), inverse


def profile_table(m: int, rule) -> np.ndarray:
    """The read-only table over 2^[m] of ``rule(size, pairs, odd)``: a
    function of a set's size, its number of complete pairs and whether its
    element sum is odd, evaluated elementwise on int, int and bool arrays.
    The table keeps the dtype of the rule's result.  The pairs are {1,2},
    {3,4}, ...; on odd m the top element is in none.  (On even m the set
    misses m // 2 - size + pairs pairs.)

    Split at the even bit k = m // 2 & ~1, the rule is evaluated once per
    pair of half profile classes (49 x 49 at m = 24), and each row of the
    table, one value of the high half, is a copy of its class's row.
    Raises CapacityError, before allocating, as ``index_table`` does."""
    _check_capacity(m)
    k = m // 2 & ~1  # even: no pair straddles the split
    (size_h, pairs_h, odd_h), high = _profile_classes(index_table(m - k))
    (size_l, pairs_l, odd_l), low = _profile_classes(index_table(k))
    rows = rule(size_h[:, None] + size_l, pairs_h[:, None] + pairs_l, odd_h[:, None] ^ odd_l)
    table = rows[:, low].take(high, axis=0).reshape(-1)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def popcount_table(m: int) -> np.ndarray:
    """Set size per encoded value (uint8)."""
    return profile_table(m, lambda size, pairs, odd: size.astype(np.uint8))


@lru_cache(maxsize=8)
def pair_count_table(m: int) -> np.ndarray:
    """Complete-pair count per encoded value (uint8)."""
    return profile_table(m, lambda size, pairs, odd: pairs.astype(np.uint8))


@lru_cache(maxsize=8)
def missed_count_table(m: int) -> np.ndarray:
    """Missed-pair count per encoded value (uint8).  Raises ValueError on
    odd m, whose top element is in no pair."""
    if m % 2:
        raise ValueError(f"missed-pair counts need an even m, got {m}")
    return profile_table(m, lambda size, pairs, odd: (m // 2 - size + pairs).astype(np.uint8))


@lru_cache(maxsize=8)
def odd_sum_table(m: int) -> np.ndarray:
    """True where the element sum of the encoded set is odd."""
    return profile_table(m, lambda size, pairs, odd: odd)
