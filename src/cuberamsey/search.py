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

With prune=True four provable reductions apply; prune=False walks the
plain tree, and outcomes, first-mode witnesses and counts are the same
either way.

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
    count mode multiplies the canonical count by n!.  First-mode
    witnesses are unchanged too: let f be the lexicographically smallest
    embedding and s the permutation that sorts its singleton images.
    f o s agrees with f on bottom and top, and its singleton images
    (positions 2..n+1) are the sorted sequence, which is lexicographically
    no larger; were f's unsorted, f o s would be strictly smaller.  So the
    smallest embedding is canonical and the reduced search meets it first.
    Candidates are ascending, so the test x > f({k-1}) is a bisection into
    the candidate list rather than a per-candidate comparison.
  * target symmetry: only root pairs (b, t) that are the lexicographic
    minimum of their orbit under a group G of automorphisms of the family
    are searched.  G is generated by the candidate permutations of [m]
    (adjacent elements; on even m, adjacent pairs and the swap inside
    every pair) that map every member into F, each checked on F; being
    bijections, they map F onto F.  G itself is never enumerated.
    Proof.  A tau in G preserves inclusion and maps F onto F, so
    f -> tau o f is a bijection from the embeddings rooted at (b, t) onto
    those rooted at (tau b, tau t); it commutes with source symmetry
    (f -> f o s), which fixes the root.  So every embedding is moved onto
    one rooted at a representative (absence), and the pairs of an orbit
    root equally many (count mode weights each representative by its orbit
    size, then by n!).  Were tau(b, t) < (b, t), tau o f would be smaller
    than f; so the smallest embedding has an orbit-minimal root, and
    first-mode witnesses are unchanged.  Root pairs are walked in
    ascending order, so the first pair met of an orbit is its minimum; its
    orbit is closed breadth-first under the generators and the rest of it
    is skipped.

Reported node counts follow a fixed convention: one node per searched
(bottom, top) root pair and one per accepted inner assignment.  Root pairs
are checked for the root gap before target symmetry, and candidates run
their checks in a fixed order (cardinality window, source symmetry,
membership, reuse, incomparability), so prune hit counts are reproducible;
they audit completed exhaustions.  Each representative root pair is one
task; a root-pair rejection counts to the task after it in the walk (after
the last task, at exhaustion), and a found outcome counts the tasks up to
and including the find, so no counter depends on the worker count.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, takewhile
from math import comb, factorial

import numpy as np

from .coloring import SetFamily
from .lattice import ElementSet

MAX_SOURCE_N = 12

_PRUNE_NAMES = ("root-gap", "cardinality-window", "source-symmetry", "target-symmetry")

# A materialised candidate list holds at most 2**_LOW_BITS entries, and an
# engine caches at most _CACHED_ENTRIES of them in total.
_LOW_BITS = 10
_CACHED_ENTRIES = 1 << 16

# Automorphism checks gather the images of the members of a family with at
# most 2^m / _SPARSE members, and compare whole membership tables otherwise:
# at m = 24 a member costs about 14 times as much as a table entry.
_SPARSE = 16


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
    ``nodes_explored`` and ``prune_hits`` then audit the exhaustion claim.
    Found and absent outcomes have the same counters for any worker count.
    ``count`` is the number of embeddings as labeled maps (count mode only).
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
    order_arr = np.array(order, dtype=np.int64)
    subs, sups, incs = [], [], []
    for k, s in enumerate(order):
        earlier = order_arr[:k]
        meet = earlier & s
        is_sub = meet == earlier
        is_sup = ~is_sub & (meet == s)
        subs.append(np.flatnonzero(is_sub).tolist())
        sups.append(np.flatnonzero(is_sup).tolist())
        incs.append(np.flatnonzero(~(is_sub | is_sup)).tolist())
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


def _swap(x, mask: int, shift: int):
    """Exchange bit i with bit i + shift for every bit i of mask, in an int
    or elementwise in an integer array."""
    t = ((x >> shift) ^ x) & mask
    return x ^ t ^ (t << shift)


def _candidate_swaps(m: int) -> list[tuple[int, int]]:
    """Candidate automorphism generators over [m] as (mask, shift) bit
    swaps: adjacent elements and, on even m, adjacent pairs and the swap
    inside every pair at once."""
    swaps = [(1 << i, 1) for i in range(m - 1)]
    if m % 2 == 0:
        swaps += [(3 << i, 2) for i in range(0, m - 2, 2)]
        swaps.append((((1 << m) - 1) // 3, 1))
    return list(dict.fromkeys(swaps))


def _swap_axes(m: int, mask: int, shift: int) -> list[int]:
    """A swap as a permutation of the axes of a table over 2^[m] reshaped
    to (2,) * m, where bit i is axis m - 1 - i."""
    axes = list(range(m))
    for i in range(m):
        if mask >> i & 1:
            a, b = m - 1 - i, m - 1 - i - shift
            axes[a], axes[b] = axes[b], axes[a]
    return axes


def _family_swaps(family: SetFamily, deadline: float | None = None) -> list[tuple[int, int]]:
    """The candidate swaps that map every member into the family.  A swap
    g is a bijection of 2^[m], so it maps F into F exactly when it maps F
    onto F, that is when mask[g(x)] == mask[x] for every x.  A family of
    at most 2^m / _SPARSE members is checked on its members' images; any
    other on its membership table, compared with the same table read with
    the swap's axes exchanged, which copies neither.  Raises _DeadlineHit,
    between swaps, once the deadline has passed."""
    m = family.space.m
    if family.size * _SPARSE <= family.space.size:
        members = family.member_values().astype(np.uint32)

        def fixes(g):
            return family.mask[_swap(members, *g)].all()
    else:
        table = family.mask.reshape((2,) * m)

        def fixes(g):
            return np.array_equal(table, table.transpose(_swap_axes(m, *g)))

    swaps = []
    for g in _candidate_swaps(m):
        if deadline is not None and time.monotonic() > deadline:
            raise _DeadlineHit
        if fixes(g):
            swaps.append(g)
    return swaps


class _Engine:
    """Sequential backtracking below one root pair at a time."""

    def __init__(
        self,
        family: SetFamily,
        n: int,
        mode: str,
        prune: bool,
        deadline: float | None,
    ) -> None:
        m = family.space.m
        self.all_elements = (1 << m) - 1
        self.n = n
        self.member = memoryview(family.mask)
        self.members = family.member_values().astype(np.uint32)
        self.order, self.subs, self.sups, self.incs = _prepare_sources(n)
        self.positions = len(self.order)
        self.sizes = [s.bit_count() for s in self.order]
        # Positions 2..n+1 hold the singletons; each image after the first
        # must exceed its predecessor (source symmetry).
        self.floored = [prune and 3 <= k <= n + 1 for k in range(self.positions)]
        self.mode = mode
        self.prune = prune
        self.deadline = deadline
        self.low_lists: dict[tuple[int, int, int], list[int]] = {}
        self.cached_entries = 0
        self.images = [0] * self.positions
        self.used: set[int] = set()
        self._work = 0

    def run(self, task) -> tuple[tuple[int, ...] | None, int, int, dict[str, int], bool]:
        """Search one task (bottom, top, orbit size, the root-pair rejections
        walked since the previous task) and return its (find, count times
        the orbit size, nodes, prune hits, deadline hit)."""
        b, t, orbit, self.prune_hits = task
        self.nodes, self.count, self.found = 1, 0, None
        self.images[:2] = b, t
        self.used = {b, t}
        hit = False
        try:
            self._check_deadline()
            self._extend(2)
        except _DeadlineHit:
            hit = True
        # Every pair of the orbit roots as many embeddings as (b, t).
        return self.found, self.count * orbit, self.nodes, self.prune_hits, hit

    def _root_pairs(self, swaps: list[tuple[int, int]]):
        """Yield the tasks (bottom, top, orbit size, root-pair rejections
        since the previous task), ascending: pairs of members with bottom
        strictly inside top, less the root-gap rejections (prune only) and
        the pairs that are not the minimum of their orbit under the swaps.
        Rejections after the last task stay in self.rest; a deadline hit
        ends the walk and sets self.walk_hit.  The first pair met of an
        orbit is its minimum; its orbit is closed breadth-first, and the
        other members wait in pending until they are met and skipped, so
        memory grows only with the open orbits."""
        members = self.members
        sizes = np.bitwise_count(members)
        pending: set[tuple[int, int]] = set()
        hits = self.rest = dict.fromkeys(_PRUNE_NAMES, 0)
        self.walk_hit = False
        try:
            for i, b in enumerate(members.tolist()):
                self._check_deadline(len(members))
                # Supersets of b are larger than b, so only later members.
                later = members[i + 1 :]
                inside = (later & b) == b
                if self.prune:
                    fits = sizes[i + 1 :] >= sizes[i] + self.n
                    hits["root-gap"] += int(np.count_nonzero(inside & ~fits))
                    inside &= fits
                for t in later[inside].tolist():
                    if (b, t) in pending:
                        pending.remove((b, t))
                        hits["target-symmetry"] += 1
                        self._check_deadline()
                        continue
                    orbit = {(b, t)}
                    frontier = [(b, t)]
                    while swaps and frontier:
                        pb, pt = frontier.pop()
                        self._check_deadline(len(swaps))
                        for g in swaps:
                            image = (_swap(pb, *g), _swap(pt, *g))
                            if image not in orbit:
                                orbit.add(image)
                                frontier.append(image)
                    orbit.remove((b, t))
                    pending |= orbit
                    yield b, t, len(orbit) + 1, hits
                    hits = self.rest = dict.fromkeys(_PRUNE_NAMES, 0)
        except _DeadlineHit:
            self.walk_hit = True

    def _check_deadline(self, work: int = 1) -> None:
        """Look at the clock once about every 256 units of work: accepted
        nodes or candidates walked."""
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


def _start_worker(*args) -> None:
    """Pool initializer: build the worker process's engine once."""
    global _worker_engine
    _worker_engine = _Engine(*args)


def _run_in_worker(task):
    return _worker_engine.run(task)


def _pooled(args: tuple, tasks, workers: int):
    """Run the tasks on a pool of workers and yield their results in task
    order.  At most ``workers`` tasks are queued or running at a time (a
    finished task waiting for an earlier one does not count), so the walk
    stays close to the fold; closing the generator cancels the queued ones."""
    # Imported here: runs that never split a search skip loading multiprocessing.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    pool = ProcessPoolExecutor(workers, initializer=_start_worker, initargs=args)
    queued = deque()
    try:
        while True:
            running = sum(not f.done() for f in queued)
            queued += [pool.submit(_run_in_worker, t) for t in islice(tasks, workers - running)]
            if not queued:
                return
            # The head is waited on even if it finished since it was looked at.
            wait([queued[0], *(f for f in queued if not f.done())], return_when=FIRST_COMPLETED)
            while queued and queued[0].done():
                yield queued.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _search(
    family: SetFamily, n: int, mode: str, prune: bool, deadline: float | None,
    swaps: list[tuple[int, int]], workers: int,
) -> tuple[tuple[int, ...] | None, int, int, dict[str, int], bool]:
    """Walk the root pairs once, run the tasks here (one worker) or on a
    pool, and fold them in task order up to the first find: (find, count,
    nodes, prune hits, deadline hit).  A deadline hit starts no more tasks."""
    args = (family, n, mode, prune, deadline)
    engine = _Engine(*args)
    found, count, nodes, hit, hits = None, 0, 0, False, dict.fromkeys(_PRUNE_NAMES, 0)
    tasks = takewhile(lambda _: not hit, engine._root_pairs(swaps))
    results = (engine.run(t) for t in tasks) if workers <= 1 else _pooled(args, tasks, workers)
    try:
        for found, task_count, task_nodes, task_hits, task_hit in results:
            count += task_count
            nodes += task_nodes
            hits = {name: hits[name] + task_hits[name] for name in _PRUNE_NAMES}
            hit = hit or task_hit
            if found is not None:
                break
        else:
            # Exhausted, or stopped by a deadline hit in a task or the walk.
            hits = {name: hits[name] + engine.rest[name] for name in _PRUNE_NAMES}
            hit = hit or engine.walk_hit
    finally:
        results.close()
    # Each canonical embedding stands for its orbit of n! labeled maps.
    return found, count * factorial(n) if prune else count, nodes, hits, hit


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
    never "absent".  n > m is "absent" at once, with no search; otherwise
    n > MAX_SOURCE_N raises ValueError before any worker starts.  The root
    pairs to search (with prune=True only the orbit representatives under
    the verified automorphisms of the family) are walked once, ascending,
    and each is one task; the tasks run here or on a pool of workers and
    are folded in task order, so outcomes, witnesses and counters do not
    depend on the worker count.  A found outcome counts the tasks up to and
    including the find.  The budget also covers the automorphism checks
    before the walk.  A budget hit starts no more tasks, but a find by a
    task still running wins over it.
    """
    if mode not in ("first", "count"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    start = time.perf_counter()
    if n > family.space.m:
        # No injective size-respecting map exists once n exceeds m.
        found, count, nodes, hits, hit = None, 0, 0, dict.fromkeys(_PRUNE_NAMES, 0), False
    else:
        deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        _prepare_sources(n)  # Past MAX_SOURCE_N this raises before any pool starts.
        try:
            swaps = _family_swaps(family, deadline) if prune else []
        except _DeadlineHit:
            found, count, nodes, hits, hit = None, 0, 0, dict.fromkeys(_PRUNE_NAMES, 0), True
        else:
            workers = min(workers, family.size)
            found, count, nodes, hits, hit = _search(
                family, n, mode, prune, deadline, swaps, workers
            )
    elapsed = (time.perf_counter() - start) * 1000.0
    if found is not None:
        # The find lists images in assignment order; sort them by source.
        values = tuple(v for _, v in sorted(zip(_prepare_sources(n)[0], found)))
        embedding = Embedding.from_values(n, family.space.m, values)
        check = verify_embedding(embedding, family)
        if not check.ok:
            raise AssertionError(f"engine produced an invalid embedding: {check.violation}")
        return SearchOutcome("found", embedding, None, nodes, hits, elapsed)
    # First mode counts nothing, so only count mode can be found here.
    status = "inconclusive" if hit else "found" if count else "absent"
    count = count if mode == "count" and not hit else None
    return SearchOutcome(status, None, count, nodes, hits, elapsed)

