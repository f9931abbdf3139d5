"""Exhaustive search for copies of the subset lattice 2^[n] inside a set
family over [m], with verification of found embeddings and auditable
absence certificates.

An embedding f maps every A in 2^[n] to a member of the family so that
A is a subset of B exactly when f(A) is a subset of f(B).  The search
assigns images in a fixed order (bottom, top, the singletons {1}..{n},
then the remaining sources by ascending size and encoded value), deriving
each candidate list from the interval between the union u of assigned
subset images and the intersection of assigned superset images: the
candidates are x = u + w for the submasks w of the free part d, in
ascending order.  So the search meets complete assignments in
lexicographic order of their image vectors (read in assignment order),
and the first find is the lexicographically smallest embedding.

With prune=True three provable reductions apply; prune=False walks the
plain tree, and outcomes, first-mode witnesses, counts and distinct image
families are the same either way.

  * root gap and cardinality window: |f(empty)| + |A| <= |f(A)| <=
    |f(full)| - (n - |A|), since a chain of length n runs through A.
  * in-window generation: only the submasks w of d with |u| + |w| inside
    the window are generated, still in ascending order.  The skipped ones
    are counted as cardinality-window hits: with k = |d| and the window
    [a, b] for |w|, that is 2^k - sum_{a <= j <= b} C(k, j), so the counter
    equals the number of rejections a submask-by-submask walk would make.
    Materialised lists stay small for every m: d is split into its lowest
    _LOW_BITS set bits and the rest; the high submasks w_h are walked
    lazily in ascending order, and each is followed by the cached list of
    low submasks whose size lies in the window shifted by |w_h|.  Every
    high bit is above every low bit, so the concatenation is ascending.
  * source symmetry: the search keeps only embeddings whose singleton
    images increase, f({1}) < f({2}) < ... < f({n}) by encoded value.
    Proof.  For a permutation s of [n], f o s (A -> f(s(A))) is again an
    embedding with the same image set, as s is an automorphism of 2^[n].
    Images are distinct, so f o s = f only for s = id: the n! permutations
    act freely, every orbit has n! members, and exactly one of them (sort
    the distinct singleton images) has increasing singleton images.  Hence
    count mode multiplies the canonical count by n!, and the set of
    distinct image families is unchanged.  First-mode witnesses are
    unchanged too: let f be the lexicographically smallest embedding and
    s the permutation that sorts its singleton images.  f o s agrees with f
    on bottom and top, and its singleton images (positions 2..n+1) are the
    sorted sequence, which is lexicographically no larger; were f's
    unsorted, f o s would be strictly smaller.  So the smallest embedding
    is canonical and the reduced search meets it first.  Candidates are
    ascending, so the test x > f({k-1}) is a bisection into the candidate
    list rather than a per-candidate comparison.

Reported node counts follow a fixed convention: one node per accepted
(bottom, top) root pair and one per accepted inner assignment.  Candidate
checks run in a fixed order (cardinality window, source symmetry,
membership, reuse, incomparability), so prune hit counts are reproducible;
they audit completed exhaustions.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

from .coloring import Color, Coloring, SetFamily
from .lattice import ElementSet

MAX_SOURCE_N = 12

_PRUNE_NAMES = ("root-gap", "cardinality-window", "source-symmetry")

# A materialised candidate list holds at most 2**_LOW_BITS entries, and an
# engine caches at most _CACHED_ENTRIES of them in total.
_LOW_BITS = 10
_CACHED_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Embedding:
    """A copy of 2^[n] inside 2^[m]: entry i of ``images`` is the image of
    the subset of [n] encoded by i."""

    n: int
    m: int
    images: tuple[ElementSet, ...]

    @classmethod
    def from_values(cls, n: int, m: int, values: tuple[int, ...]) -> "Embedding":
        return cls(n, m, tuple(ElementSet(v, m) for v in values))

    @property
    def image_values(self) -> tuple[int, ...]:
        return tuple(s.bits for s in self.images)

    def image_of(self, source: int | ElementSet) -> ElementSet:
        idx = source.bits if isinstance(source, ElementSet) else source
        return self.images[idx]


@dataclass(frozen=True)
class EmbeddingCheck:
    ok: bool
    violation: str | None


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one search run.

    ``status`` is "found", "absent", or "inconclusive" (budget hit before
    exhaustion).  "absent" always means the full tree was explored;
    ``nodes_explored`` and ``prune_hits`` then audit the exhaustion claim
    and are identical for any worker split.  ``count`` is the number of
    embeddings as labeled maps (count mode only).
    """

    status: str
    embedding: Embedding | None
    count: int | None
    nodes_explored: int
    prune_hits: dict[str, int]
    elapsed_ms: float


def verify_embedding(e: Embedding, family: SetFamily | None = None) -> EmbeddingCheck:
    """Re-check an embedding from scratch: distinct images, the subset
    biconditional over all ordered source pairs, both provable cardinality
    and top-children bounds, and membership when a family is given."""
    size = 1 << e.n
    if len(e.images) != size:
        raise ValueError(f"expected {size} images for n={e.n}, got {len(e.images)}")
    for s in e.images:
        if s.m != e.m:
            raise ValueError(f"image {s} is not over [{e.m}]")
    if family is not None:
        if family.space.m != e.m:
            raise ValueError(
                f"family over [{family.space.m}] but embedding targets [{e.m}]"
            )
        for a in range(size):
            if not family.contains(e.images[a]):
                return EmbeddingCheck(
                    False, f"image {e.images[a]} of {ElementSet(a, e.n)} not in family"
                )
    vals = [s.bits for s in e.images]
    seen: dict[int, int] = {}
    for a in range(size):
        if vals[a] in seen:
            return EmbeddingCheck(
                False,
                f"images of {ElementSet(seen[vals[a]], e.n)} and "
                f"{ElementSet(a, e.n)} coincide",
            )
        seen[vals[a]] = a
    for a in range(size):
        for b in range(size):
            if a == b:
                continue
            sub = a & b == a
            img_sub = vals[a] & vals[b] == vals[a]
            if sub != img_sub:
                return EmbeddingCheck(
                    False,
                    f"order violated on ({ElementSet(a, e.n)}, {ElementSet(b, e.n)})",
                )
            if sub:
                gap = vals[b].bit_count() - vals[a].bit_count()
                if gap < b.bit_count() - a.bit_count():
                    return EmbeddingCheck(
                        False,
                        "cardinality gap too small on "
                        f"({ElementSet(a, e.n)}, {ElementSet(b, e.n)})",
                    )
    if e.n >= 1:
        full = size - 1
        top_size = vals[full].bit_count()
        inter = [0] * size
        inter[0] = (1 << e.m) - 1
        for imask in range(1, size):
            low = imask & -imask
            child = full ^ low
            inter[imask] = inter[imask ^ low] & vals[child]
            if inter[imask].bit_count() > top_size - imask.bit_count():
                return EmbeddingCheck(
                    False,
                    f"top children over {ElementSet(imask, e.n)} intersect "
                    "in too many elements",
                )
    return EmbeddingCheck(True, None)


@lru_cache(maxsize=16)
def _prepare_sources(n: int):
    """Assignment order over 2^[n] and, per position, the earlier positions
    holding proper subsets, proper supersets, and incomparable sources."""
    if not 1 <= n <= MAX_SOURCE_N:
        raise ValueError(f"source cube parameter {n} outside 1..{MAX_SOURCE_N}")
    full = (1 << n) - 1
    order = [0, full] + sorted(range(1, full), key=lambda s: (s.bit_count(), s))
    subs, sups, incs = [], [], []
    for k, s in enumerate(order):
        sub_k, sup_k, inc_k = [], [], []
        for j in range(k):
            t = order[j]
            if t & s == t:
                sub_k.append(j)
            elif s & t == s:
                sup_k.append(j)
            else:
                inc_k.append(j)
        subs.append(sub_k)
        sups.append(sup_k)
        incs.append(inc_k)
    return order, subs, sups, incs


class _DeadlineHit(Exception):
    pass


def _submasks_in_window(d: int, lo: int, hi: int) -> list[int]:
    """The submasks of d with lo..hi bits, ascending."""
    out = []
    w = 0
    while True:
        if lo <= w.bit_count() <= hi:
            out.append(w)
        w = (w - d) & d
        if not w:
            return out


@lru_cache(maxsize=4096)
def _window_skipped(k: int, lo: int, hi: int) -> int:
    """How many of the 2^k submasks of a k-bit mask have fewer than lo or
    more than hi bits."""
    return (1 << k) - sum(comb(k, j) for j in range(max(lo, 0), min(hi, k) + 1))


class _Engine:
    """Sequential backtracking over one list of root bottoms."""

    def __init__(
        self,
        family: SetFamily,
        n: int,
        mode: str,
        prune: bool,
        deadline: float | None,
        collect: set | None = None,
    ) -> None:
        m = family.space.m
        self.all_elements = (1 << m) - 1
        self.n = n
        self.member = family.mask.tobytes() if m <= 24 else family.mask
        self.order, self.subs, self.sups, self.incs = _prepare_sources(n)
        self.positions = len(self.order)
        self.sizes = [s.bit_count() for s in self.order]
        # Positions 2..n+1 hold the singletons; each image after the first
        # must exceed its predecessor (source symmetry).
        self.floored = [prune and 3 <= k <= n + 1 for k in range(self.positions)]
        self.mode = mode
        self.prune = prune
        self.deadline = deadline
        self.collect = collect
        self.low_lists: dict[tuple[int, int, int], list[int]] = {}
        self.cached_entries = 0
        self.images = [0] * self.positions
        self.used: set[int] = set()
        self.nodes = 0
        self.prune_hits = dict.fromkeys(_PRUNE_NAMES, 0)
        self.count = 0
        self.found: tuple[int, ...] | None = None
        self._work = 0

    def run(self, bottoms: list[int], members: list[int]) -> None:
        n = self.n
        for b in bottoms:
            self._check_deadline(len(members))
            pc_b = b.bit_count()
            for t in members:
                if t & b != b or t == b:
                    continue
                if self.prune and t.bit_count() - pc_b < n:
                    self.prune_hits["root-gap"] += 1
                    continue
                self.nodes += 1
                self._check_deadline()
                self.images[0] = b
                self.images[1] = t
                self.used = {b, t}
                if self._extend(2) and self.mode == "first":
                    return

    def _check_deadline(self, work: int = 1) -> None:
        """Look at the clock once about every 256 units of work: accepted
        nodes, candidates walked, or root pairs tried."""
        if self.deadline is None:
            return
        self._work += work
        if self._work >= 256:
            self._work = 0
            if time.monotonic() > self.deadline:
                raise _DeadlineHit

    def _extend(self, k: int) -> bool:
        if k == self.positions:
            if self.mode == "first":
                self.found = tuple(self.images)
                return True
            self.count += 1
            if self.collect is not None:
                self.collect.add(tuple(sorted(self.images)))
            return False
        images = self.images
        u = 0
        for j in self.subs[k]:
            u |= images[j]
        cap = self.all_elements
        for j in self.sups[k]:
            cap &= images[j]
        if u & ~cap:
            return False
        d = cap & ~u
        hits = self.prune_hits
        if self.prune:
            # Window on |w| = |x| - |u| for the candidates x = u + w.
            pc_s = self.sizes[k]
            pc_u = u.bit_count()
            lo = images[0].bit_count() + pc_s - pc_u
            hi = images[1].bit_count() - (self.n - pc_s) - pc_u
            hits["cardinality-window"] += _window_skipped(d.bit_count(), lo, hi)
        else:
            lo, hi = 0, d.bit_count()
        floored = self.floored[k]
        member = self.member
        used = self.used
        incs = self.incs[k]
        low_lists = self.low_lists
        # Chunks: w_high walks the submasks of d above its lowest _LOW_BITS
        # set bits, each followed by the cached list of low submasks whose
        # size fits the window shifted by |w_high|.
        high = d
        for _ in range(_LOW_BITS):
            high &= high - 1
        low = d ^ high
        n_low = low.bit_count()
        w_high = 0
        while True:
            taken = w_high.bit_count()
            key = (low, max(lo - taken, 0), min(hi - taken, n_low))
            lows = low_lists.get(key)
            if lows is None:
                lows = self._low_list(key)
            self._check_deadline(len(lows) + 1)
            base = u | w_high
            if floored:
                start = bisect_right(lows, images[k - 1] - base)
                hits["source-symmetry"] += start
                lows = lows[start:]
            for w in lows:
                x = base | w
                if not member[x] or x in used:
                    continue
                ok = True
                for j in incs:
                    v = images[j]
                    xv = x & v
                    if xv == x or xv == v:
                        ok = False
                        break
                if ok:
                    self.nodes += 1
                    self._check_deadline()
                    images[k] = x
                    used.add(x)
                    stop = self._extend(k + 1)
                    used.discard(x)
                    if stop:
                        return True
            w_high = (w_high - high) & high
            if not w_high:
                return False

    def _low_list(self, key: tuple[int, int, int]) -> list[int]:
        """Build and cache one low list.  Each list counts its length plus
        one against _CACHED_ENTRIES, so empty lists are bounded too."""
        lows = _submasks_in_window(*key)
        if self.cached_entries + len(lows) + 1 > _CACHED_ENTRIES:
            self.low_lists.clear()
            self.cached_entries = 0
        self.low_lists[key] = lows
        self.cached_entries += len(lows) + 1
        return lows


def _run_engine(
    family: SetFamily,
    n: int,
    mode: str,
    prune: bool,
    deadline: float | None,
    bottoms: list[int],
    members: list[int],
    collect: set | None = None,
) -> tuple[tuple[int, ...] | None, int, int, dict[str, int], bool]:
    eng = _Engine(family, n, mode, prune, deadline, collect)
    hit = False
    try:
        eng.run(bottoms, members)
    except _DeadlineHit:
        hit = True
    # Each canonical embedding stands for its orbit of n! labeled maps.
    count = eng.count * factorial(n) if prune else eng.count
    return eng.found, count, eng.nodes, eng.prune_hits, hit


def _search_worker(args) -> tuple[tuple[int, ...] | None, int, int, dict[str, int], bool]:
    family, n, mode, prune, deadline, bottoms, members = args
    return _run_engine(family, n, mode, prune, deadline, bottoms, members)


def find_copy(
    family: SetFamily,
    n: int,
    mode: str = "first",
    prune: bool = True,
    budget_ms: float | None = None,
    workers: int = 1,
) -> SearchOutcome:
    """Search the family for a copy of 2^[n].

    mode="first" stops at the embedding minimal in the deterministic branch
    order; mode="count" exhausts the tree and counts embeddings as labeled
    maps.  A budget turns an unfinished run into status "inconclusive",
    never "absent".  With several workers the root bottoms are split round
    robin; every worker runs to completion and the lowest-bottom find wins,
    so outcomes and first-mode witnesses match the sequential run.
    """
    if mode not in ("first", "count"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    start = time.perf_counter()
    if n > family.space.m or n > MAX_SOURCE_N:
        # No injective size-respecting map exists once n exceeds m.
        elapsed = (time.perf_counter() - start) * 1000.0
        if n > MAX_SOURCE_N and n <= family.space.m:
            raise ValueError(f"source cube parameter {n} outside 1..{MAX_SOURCE_N}")
        count = 0 if mode == "count" else None
        return SearchOutcome("absent", None, count, 0, dict.fromkeys(_PRUNE_NAMES, 0), elapsed)
    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
    members = family.member_values().tolist()
    if workers <= 1 or len(members) < 2:
        found, count, nodes, hits, hit_deadline = _run_engine(
            family, n, mode, prune, deadline, members, members
        )
        results = [(found, count, nodes, hits, hit_deadline)]
    else:
        jobs = [
            (family, n, mode, prune, deadline, members[i::workers], members)
            for i in range(workers)
            if members[i::workers]
        ]
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            results = list(pool.map(_search_worker, jobs))
    nodes = sum(r[2] for r in results)
    hits = dict.fromkeys(_PRUNE_NAMES, 0)
    for r in results:
        for name in _PRUNE_NAMES:
            hits[name] += r[3][name]
    elapsed = (time.perf_counter() - start) * 1000.0
    founds = [r[0] for r in results if r[0] is not None]
    any_deadline = any(r[4] for r in results)
    if mode == "first" and founds:
        best = min(founds, key=lambda vals: (vals[0], vals[1]))
        embedding = _embedding_from_branch(family, n, best)
        check = verify_embedding(embedding, family)
        if not check.ok:
            raise AssertionError(f"engine produced an invalid embedding: {check.violation}")
        return SearchOutcome("found", embedding, None, nodes, hits, elapsed)
    if any_deadline:
        return SearchOutcome("inconclusive", None, None, nodes, hits, elapsed)
    if mode == "count":
        total = sum(r[1] for r in results)
        status = "found" if total else "absent"
        return SearchOutcome(status, None, total, nodes, hits, elapsed)
    return SearchOutcome("absent", None, None, nodes, hits, elapsed)


def _embedding_from_branch(
    family: SetFamily, n: int, branch_values: tuple[int, ...]
) -> Embedding:
    order = _prepare_sources(n)[0]
    values = [0] * (1 << n)
    for pos, source in enumerate(order):
        values[source] = branch_values[pos]
    return Embedding.from_values(n, family.space.m, tuple(values))


def verify_no_copy(
    family: SetFamily,
    n: int,
    prune: bool = True,
    budget_ms: float | None = None,
    workers: int = 1,
) -> SearchOutcome:
    """Absence certificate: a first-mode search whose "absent" outcome
    records the explored node and prune hit counts for auditing."""
    return find_copy(family, n, "first", prune, budget_ms, workers)


def contains_monochromatic_copy(
    coloring: Coloring, n: int, prune: bool = True, workers: int = 1
) -> tuple[Color, Embedding] | None:
    """Search the Red class then the Blue class, exhaustively; first hit
    wins."""
    for color in (Color.RED, Color.BLUE):
        outcome = find_copy(coloring.color_class(color), n, "first", prune, None, workers)
        if outcome.status == "found":
            return color, outcome.embedding
    return None


def count_distinct_copies(family: SetFamily, n: int, prune: bool = True) -> tuple[int, int]:
    """Count embeddings as labeled maps and as distinct image families.

    The distinct count deduplicates by image set; kept sequential and
    capped small since the collection can grow with the labeled count.
    """
    if n > 6:
        raise ValueError(f"distinct-copy collection capped at n <= 6, got {n}")
    if n > family.space.m:
        return 0, 0
    members = family.member_values().tolist()
    images: set[tuple[int, ...]] = set()
    found, count, nodes, hits, hit_deadline = _run_engine(
        family, n, "count", prune, None, members, members, images
    )
    return count, len(images)
