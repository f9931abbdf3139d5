"""Ground-truth oracle for tiny cubes: exhaust every 2-coloring of 2^[m]
and decide whether one avoids a monochromatic copy of 2^[n].

The copy test here is deliberately independent of the pruned search
engine.  All copies of 2^[n] inside the full cube 2^[m] are enumerated
once by a literal backtracking over every value choice, checking the
order biconditional pairwise with no pruning at all; a color class
then contains a copy exactly when its membership mask covers one of the
catalogued image families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import CapacityError

MAX_BRUTE_M = 4


@dataclass(frozen=True)
class BruteForceResult:
    """Verdict for one m: the lowest good red mask, whose bit v is set when
    the set encoded by v is Red, or ``None`` when no coloring is good.

    ``colorings_checked`` counts colorings inspected in ascending red-mask
    order: ``good_mask + 1``, or the full 2^(2^m) when none is good."""

    m: int
    good_mask: int | None
    colorings_checked: int


@dataclass(frozen=True)
class RamseyScan:
    """Outcome of probing m = 1, 2, ... in order: ``value`` is the first m
    with no good coloring, or ``None`` when every probed cube has one."""

    value: int | None
    results: tuple[BruteForceResult, ...]


@lru_cache(maxsize=32)
def copy_image_masks(n: int, m: int) -> tuple[int, ...]:
    """Image families of every copy of 2^[n] inside the full cube 2^[m],
    each encoded as a bitmask over the 2^m subset values; deduplicated,
    ascending.  Literal enumeration: try every unused value for every
    source and keep assignments satisfying the subset biconditional."""
    if not 1 <= m <= MAX_BRUTE_M:
        raise CapacityError(f"copy catalog supports 1 <= m <= {MAX_BRUTE_M}, got {m}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > m:
        return ()
    size = 1 << n
    sources = sorted(range(size), key=lambda s: (s.bit_count(), s))
    values = range(1 << m)
    chosen = [0] * size
    out: set[int] = set()

    def rec(k: int) -> None:
        if k == size:
            mask = 0
            for v in chosen:
                mask |= 1 << v
            out.add(mask)
            return
        b = sources[k]
        for v in values:
            ok = True
            for j in range(k):
                a = sources[j]
                va = chosen[j]
                if v == va:
                    ok = False
                    break
                if ((a & b) == a) != ((va & v) == va):
                    ok = False
                    break
                if ((a & b) == b) != ((va & v) == v):
                    ok = False
                    break
            if ok:
                chosen[k] = v
                rec(k + 1)

    rec(0)
    return tuple(sorted(out))


def _good_mask_array(n: int, m: int) -> np.ndarray:
    """has[r] over all red masks r: does the red class of r contain a
    copy?  Vectorized superset test against the copy catalog."""
    total = 1 << (1 << m)
    arr = np.arange(total, dtype=np.uint32)
    has = np.zeros(total, dtype=bool)
    for img in copy_image_masks(n, m):
        has |= (arr & img) == img
    return has


def exists_good_coloring(n: int, m: int) -> BruteForceResult:
    """Exhaust red masks in ascending order; a coloring is good when
    neither color class covers a catalogued copy.  Returns the lowest good
    mask, or none after all 2^(2^m) masks."""
    if not 1 <= m <= MAX_BRUTE_M:
        raise CapacityError(
            f"full coloring enumeration supports 1 <= m <= {MAX_BRUTE_M}, got {m}"
        )
    has = _good_mask_array(n, m)
    good = ~has & ~has[::-1]
    idx = np.flatnonzero(good)
    if idx.size:
        r = int(idx[0])
        return BruteForceResult(m, r, r + 1)
    return BruteForceResult(m, None, len(has))


def ramsey_bruteforce(n: int, max_m: int) -> RamseyScan:
    """Probe m = 1, 2, ... and report the least m where no good coloring
    exists, or an unresolved scan when every probed cube has one."""
    if n < 1 or max_m < 1:
        raise ValueError(f"need n >= 1 and max_m >= 1, got n={n}, max_m={max_m}")
    results = []
    for m in range(1, max_m + 1):
        res = exists_good_coloring(n, m)
        results.append(res)
        if res.good_mask is None:
            return RamseyScan(m, tuple(results))
    return RamseyScan(None, tuple(results))
