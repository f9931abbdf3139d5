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

from .coloring import Coloring
from .lattice import CapacityError, CubeSpace

MAX_BRUTE_M = 4


@dataclass(frozen=True)
class BruteForceResult:
    """Verdict for one (n, m): the lowest-index good coloring if any.

    ``colorings_checked`` counts colorings inspected in ascending red-mask
    order: the index of the first good one plus one, or the full 2^(2^m)
    when none exists."""

    n: int
    m: int
    good_coloring: Coloring | None
    colorings_checked: int


@dataclass(frozen=True)
class RamseyScan:
    """Outcome of probing m = 1..max_m in order."""

    n: int
    max_m: int
    value: int | None
    results: tuple[BruteForceResult, ...]

    @property
    def status(self) -> str:
        return "resolved" if self.value is not None else "unresolved"


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


def _coloring_from_mask(r: int, m: int) -> Coloring:
    size = 1 << m
    red = np.fromiter(((r >> v) & 1 for v in range(size)), dtype=bool, count=size)
    return Coloring(CubeSpace(m), red, scheme=f"brute-{r}")


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
        return BruteForceResult(n, m, _coloring_from_mask(r, m), r + 1)
    return BruteForceResult(n, m, None, len(has))


def ramsey_bruteforce(n: int, max_m: int) -> RamseyScan:
    """Probe m = 1, 2, ... and report the least m where no good coloring
    exists, or an unresolved scan when every probed cube has one."""
    results = []
    for m in range(1, max_m + 1):
        res = exists_good_coloring(n, m)
        results.append(res)
        if res.good_coloring is None:
            return RamseyScan(n, max_m, m, tuple(results))
    return RamseyScan(n, max_m, None, tuple(results))
