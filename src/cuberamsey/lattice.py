"""Ground-set arithmetic: subsets of [m] as bit masks, cardinality layers,
complements, and the pairing structure {1,2},{3,4},... on even ground sets.

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


@dataclass(frozen=True)
class CubeSpace:
    """A ground set [m].  Even m carries the pairing {1,2},...,{m-1,m}."""

    m: int

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_GROUND_SIZE:
            raise ValueError(f"ground-set size must be in 1..{MAX_GROUND_SIZE}, got {self.m}")

    @property
    def paired(self) -> bool:
        return self.m % 2 == 0

    @property
    def n(self) -> int | None:
        """The cube parameter when paired (m = 2n)."""
        return self.m // 2 if self.paired else None

    @classmethod
    def with_pairs(cls, n: int) -> "CubeSpace":
        """The space [2n] with pairs {1,2},...,{2n-1,2n}."""
        return cls(m=2 * n)

    @property
    def size(self) -> int:
        """Number of subsets, 2**m."""
        return 1 << self.m

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1


@dataclass(frozen=True)
class ElementSet:
    """A subset of [m], encoded as a bit mask (element j <-> bit j-1)."""

    bits: int
    m: int

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_GROUND_SIZE:
            raise ValueError(f"ground-set size must be in 1..{MAX_GROUND_SIZE}, got {self.m}")
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

    def __contains__(self, j: int) -> bool:
        return 1 <= j <= self.m and bool(self.bits >> (j - 1) & 1)

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


def _require_paired(space: CubeSpace) -> int:
    if not space.paired:
        raise ValueError("operation needs a paired space (m = 2n)")
    assert space.n is not None
    return space.n


def _require_member(s: ElementSet, space: CubeSpace) -> None:
    if s.m != space.m:
        raise ValueError(f"set over [{s.m}] used in a space over [{space.m}]")


def partner(a: int, space: CubeSpace) -> int:
    """The other element of a's pair."""
    n = _require_paired(space)
    if not 1 <= a <= 2 * n:
        raise ValueError(f"element {a} outside 1..{2 * n}")
    return a - 1 if a % 2 == 0 else a + 1


def complement(s: ElementSet, space: CubeSpace) -> ElementSet:
    _require_member(s, space)
    return ElementSet(space.full_mask ^ s.bits, space.m)


# Dense per-subset tables (index = encoded value).
#
# Every table holds a quantity that adds up (set size, pair counts) or XORs
# up (odd-element parity) over disjoint bit ranges.  Split at an even bit k,
# no pair straddles the split, so the table over 2^[m] is the outer sum of
# the same quantity over the high m - k bits and the low k bits: the value
# hi << k | lo is row hi, column lo of the outer table read row by row.
# Only the two half index tables, of 2^(m-k) and 2^k entries, are built.

# Peak bytes per subset of a command that holds dense tables over 2^[m].
# With profile tables the heaviest, `check --n 12` (m = 24), peaks at
# 111 MB, about 7 B per subset; the figure keeps the 12 B measured before
# them, so that an estimate just under the machine's memory is not taken
# as room for a command and a search over its family.
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


def _split_table(m: int, half, combine=np.add) -> np.ndarray:
    """The read-only table over 2^[m] of a quantity that ``combine`` adds up
    over disjoint bit ranges.  ``half(idx, width)`` gives the quantity for
    the values ``idx`` of a ``width``-bit range starting at an even bit.
    Raises CapacityError, before allocating, as ``index_table`` does."""
    _check_capacity(m)
    k = m // 2 & ~1  # even: no pair straddles the split
    high, low = half(index_table(m - k), m - k), half(index_table(k), k)
    table = combine.outer(high, low).reshape(-1)
    table.flags.writeable = False
    return table


def _pair_bits(idx: np.ndarray, width: int) -> np.ndarray:
    return np.bitwise_count(idx & (idx >> np.uint32(1)) & np.uint32(_EVEN_POSITIONS))


def _missed_pairs(idx: np.ndarray, width: int) -> np.ndarray:
    hit = (idx | (idx >> np.uint32(1))) & np.uint32(_EVEN_POSITIONS)
    return width // 2 - np.bitwise_count(hit)


def _odd_parity(idx: np.ndarray, width: int) -> np.ndarray:
    return (np.bitwise_count(idx & np.uint32(_EVEN_POSITIONS)) & np.uint8(1)).astype(bool)


@lru_cache(maxsize=8)
def popcount_table(m: int) -> np.ndarray:
    """Set size per encoded value (uint8)."""
    return _split_table(m, lambda idx, width: np.bitwise_count(idx))


@lru_cache(maxsize=8)
def pair_count_table(m: int) -> np.ndarray:
    """Complete-pair count per encoded value (uint8; pairing of [m], m even)."""
    return _split_table(m, _pair_bits)


@lru_cache(maxsize=8)
def missed_count_table(m: int) -> np.ndarray:
    """Missed-pair count per encoded value (uint8; pairing of [m], m even)."""
    return _split_table(m, _missed_pairs)


@lru_cache(maxsize=8)
def odd_sum_table(m: int) -> np.ndarray:
    """True where the element sum of the encoded set is odd."""
    return _split_table(m, _odd_parity, np.bitwise_xor)


def _profile_classes(idx: np.ndarray, width: int):
    """The distinct (size, complete pairs, odd element sum) profiles of the
    values ``idx`` of a ``width``-bit range starting at an even bit, as
    int, int and bool arrays, and the profile index of each value."""
    key = np.bitwise_count(idx).astype(np.int64) << 8 | _pair_bits(idx, width)
    classes, inverse = np.unique(key << 1 | _odd_parity(idx, width), return_inverse=True)
    return (classes >> 9, classes >> 1 & 0xFF, (classes & 1).astype(bool)), inverse


def profile_table(m: int, rule) -> np.ndarray:
    """The read-only table over 2^[m], m even, of ``rule(size, pairs,
    odd)``: a function of a set's size, its number of complete pairs and
    whether its element sum is odd, evaluated elementwise on int, int and
    bool arrays.  The table keeps the dtype of the rule's result.  (The set
    misses m/2 - size + pairs pairs.)

    Split as in ``_split_table``, the three quantities add up (the parity
    by XOR) over the two halves, so the rule is evaluated once per pair of
    half profile classes (49 x 49 at m = 24), and each row of the table,
    one value of the high half, is a copy of its class's row.  Raises
    CapacityError, before allocating, as ``index_table`` does."""
    if m % 2:
        raise ValueError("profile tables need a paired space (m = 2n)")
    _check_capacity(m)
    k = m // 2 & ~1
    (size_h, pairs_h, odd_h), high = _profile_classes(index_table(m - k), m - k)
    (size_l, pairs_l, odd_l), low = _profile_classes(index_table(k), k)
    rows = rule(size_h[:, None] + size_l, pairs_h[:, None] + pairs_l, odd_h[:, None] ^ odd_l)
    table = rows[:, low].take(high, axis=0).reshape(-1)
    table.flags.writeable = False
    return table
