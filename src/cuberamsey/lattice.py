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
from typing import Iterable, Iterator

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


def pair_index(a: int, space: CubeSpace) -> int:
    """The pair that element a belongs to: ceil(a/2)."""
    n = _require_paired(space)
    if not 1 <= a <= 2 * n:
        raise ValueError(f"element {a} outside 1..{2 * n}")
    return (a + 1) // 2


def partner(a: int, space: CubeSpace) -> int:
    """The other element of a's pair."""
    n = _require_paired(space)
    if not 1 <= a <= 2 * n:
        raise ValueError(f"element {a} outside 1..{2 * n}")
    return a - 1 if a % 2 == 0 else a + 1


# Mask-level primitives.  These work on raw encoded values so that hot loops
# and numpy code can share one definition with the ElementSet API.

def pair_probe(bits: int) -> int:
    """Bit 2i-2 set iff pair i is fully contained in the mask."""
    return bits & (bits >> 1) & _EVEN_POSITIONS


def hit_probe(bits: int) -> int:
    """Bit 2i-2 set iff the mask contains at least one element of pair i."""
    return (bits | (bits >> 1)) & _EVEN_POSITIONS


def count_pairs_singles(s: ElementSet, space: CubeSpace) -> tuple[int, int]:
    """(number of complete pairs in s, number of elements whose partner is absent)."""
    _require_paired(space)
    _require_member(s, space)
    pairs = pair_probe(s.bits).bit_count()
    return pairs, s.size - 2 * pairs


def missed_pairs(s: ElementSet, space: CubeSpace) -> list[int]:
    """Indices of pairs with neither element in s, ascending."""
    n = _require_paired(space)
    _require_member(s, space)
    hit = hit_probe(s.bits)
    return [i + 1 for i in range(n) if not hit >> (2 * i) & 1]


def complement(s: ElementSet, space: CubeSpace) -> ElementSet:
    _require_member(s, space)
    return ElementSet(space.full_mask ^ s.bits, space.m)


def element_sum_parity(s: ElementSet) -> str:
    """Parity of the sum of the elements of s: "even" or "odd".

    Only odd-valued elements contribute mod 2, and those sit at the even
    bit positions.
    """
    return "odd" if (s.bits & _EVEN_POSITIONS).bit_count() & 1 else "even"


def layer_masks(m: int, k: int) -> Iterator[int]:
    """All masks of popcount k over [m] in strictly increasing value order.

    Uses the classic same-popcount successor trick, which produces the
    ascending order directly.
    """
    if not 0 <= k <= m:
        raise ValueError(f"layer {k} outside 0..{m}")
    if k == 0:
        yield 0
        return
    v = (1 << k) - 1
    limit = 1 << m
    while v < limit:
        yield v
        low = v & -v
        ripple = v + low
        v = ripple | (((v ^ ripple) >> 2) // low)


def iterate_layer(space: CubeSpace, k: int) -> Iterator[ElementSet]:
    """All size-k subsets of the space, in increasing encoded-value order."""
    for bits in layer_masks(space.m, k):
        yield ElementSet(bits, space.m)


# Vectorized counterparts over dense per-subset tables (index = encoded value).
#
# Every table holds a quantity that adds up (set size, pair counts) or XORs
# up (odd-element parity) over disjoint bit ranges.  Split at an even bit k,
# no pair straddles the split, so the table over 2^[m] is the outer sum of
# the same quantity over the high m - k bits and the low k bits: the value
# hi << k | lo is row hi, column lo of the outer table read row by row.
# Only the two half index tables, of 2^(m-k) and 2^k entries, are built.

# Peak bytes per subset of a command that holds dense tables over 2^[m]:
# the heaviest, `color --n 12` written to standard output (m = 24), peaks
# at 191 MB, about 12 B per subset.
TABLE_BYTES_PER_SUBSET = 12


def physical_memory() -> int | None:
    """Bytes of physical memory of the machine; None where the platform
    does not report it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError):
        return None


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
