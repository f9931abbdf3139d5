"""Exhaustive search for copies of the subset lattice 2^[n] inside a set
family over [m], with verification of found embeddings and auditable
absence certificates.

An embedding f maps every A in 2^[n] to a member of the family so that
A is a subset of B exactly when f(A) is a subset of f(B).  The search
assigns images in a fixed order (bottom, top, the singletons {1}..{n},
then the remaining sources by ascending size and encoded value), deriving
each candidate list from the interval between the union u of the images
of the source's children (s - {i} for i in s) and the image of the top:
the candidates are x = u + w for the submasks w of the free part
d = f(top) - u, in ascending order.  So the search meets complete
assignments in lexicographic order of their image vectors (read in
assignment order), and the first find is the lexicographically smallest
embedding.

Each candidate must also be incomparable with the images of the earlier
sources incomparable with s; only the probes, the earlier singletons {i}
with i not in s, are tested, and this accepts exactly the same candidates.
Proof.  The assigned images are consistent: for earlier A and B, A is a
subset of B exactly when f(A) is a subset of f(B).
  1. Sources come by size after the bottom and the top, so the top is the
     only earlier proper superset of s, and u lies inside f(top): each
     child is a proper subset of the top.
  2. Every earlier proper subset of s lies inside a child (or is the
     bottom, inside every child), so the children's images have the same
     union as all earlier subset images.
  3. If f(A) is inside x for an earlier A incomparable with s, take i in
     A - s.  {i} is earlier than s (s has two or more elements, or s is a
     singleton and A an earlier singleton), and f({i}) is inside f(A),
     so inside x: the probe {i} rejects x too.
  4. If x is inside f(A) for such an A and |s| >= 2, some child C of s is
     not inside A (the children's union is s, which is not inside A).  But
     f(C) is inside u, inside x, inside f(A), against the consistency of
     the assigned pair (C, A); so this never happens.  For a singleton s
     the earlier incomparable sources are exactly its probes.
So neither candidates, nodes nor counters change; this is not a prune.

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

Work splitting.  Tasks are handed out in submissions: runs of consecutive
tasks that end at the first large one (root gap |t| - |b| above n + 1, or
n + 1 from the empty bottom) or after _BATCH tasks.  With more than one
worker the calling process runs submissions itself and forks up to
workers - 1 workers, which inherit the engine and exchange pickled
submissions and results with it over pipes.  It forks only when it is
about to run a large task or its second submission, so a search decided
by the small tasks at the head of the walk starts no process.  Each
process holds one submission at a time, so at most ``workers`` large
tasks are in flight and an idle worker is handed the next submission at
once: the calling process serves the workers at its engine's checkpoints.
Results are folded in task order whichever process ran them.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import takewhile
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

# A worker is sent at most _BATCH consecutive tasks at a time (_submission).
_BATCH = 32


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
    """Re-check an embedding from scratch: membership when a family is
    given, distinct images, then the two conditions that make a map f an
    order embedding:
      (a) f(A) is inside f(A + {i}) for every A and every i not in A, the
          n 2^(n-1) cover pairs;
      (b) f({i}) is not inside f([n] - {i}) for every i.
    Proof.  By (a) and transitivity along chains of covers, f is monotone.
    If f(A) is inside f(B) though A is not inside B, take i in A - B: then
    f({i}) is inside f(A), inside f(B), inside f([n] - {i}), against (b).
    An embedding satisfies both.  So the distinct images, the cardinality
    gaps and the top-children bounds of an embedding follow; the distinct
    images are still tested first, for their own message."""
    size = 1 << e.n
    if len(e.images) != size:
        raise ValueError(f"expected {size} images for n={e.n}, got {len(e.images)}")
    for s in e.images:
        if s.m != e.m:
            raise ValueError(f"image {s} is not over [{e.m}]")
    vals = [s.bits for s in e.images]
    if family is not None:
        if family.space.m != e.m:
            raise ValueError(
                f"family over [{family.space.m}] but embedding targets [{e.m}]"
            )
        outside = np.flatnonzero(~family.mask[vals])
        if outside.size:
            a = int(outside[0])
            return EmbeddingCheck(
                False, f"image {e.images[a]} of {ElementSet(a, e.n)} not in family"
            )
    seen: dict[int, int] = {}
    for a, v in enumerate(vals):
        if v in seen:
            return EmbeddingCheck(
                False,
                f"images of {ElementSet(seen[v], e.n)} and {ElementSet(a, e.n)} coincide",
            )
        seen[v] = a
    image = np.array(vals, dtype=np.int64)
    # (a) on the cover pairs (A, A + {i}), ordered by A, then i.
    lower, i = np.nonzero((np.arange(size)[:, None] >> np.arange(e.n) & 1) == 0)
    upper = lower | 1 << i
    broken = np.flatnonzero(image[lower] & ~image[upper])
    if broken.size:
        a, b = int(lower[broken[0]]), int(upper[broken[0]])
    else:
        # (b) on the singletons {i} and their complements [n] - {i}.
        singles = 1 << np.arange(e.n)
        nested = np.flatnonzero((image[singles] & ~image[size - 1 - singles]) == 0)
        if not nested.size:
            return EmbeddingCheck(True, None)
        a = int(singles[nested[0]])
        b = size - 1 - a
    return EmbeddingCheck(
        False, f"order violated on ({ElementSet(a, e.n)}, {ElementSet(b, e.n)})"
    )


@lru_cache(maxsize=16)
def _prepare_sources(n: int):
    """Assignment order over 2^[n] and, per position k >= 2 (source s),
    the positions of its children s - {i} (the bottom for a singleton) and
    of its probes, the singletons {i} with i not in s that come before s.
    Positions 0 and 1 have neither."""
    if not 1 <= n <= MAX_SOURCE_N:
        raise ValueError(f"source cube parameter {n} outside 1..{MAX_SOURCE_N}")
    full = (1 << n) - 1
    order = [0, full] + sorted(range(1, full), key=lambda s: (s.bit_count(), s))
    position = [0] * (full + 1)
    for k, s in enumerate(order):
        position[s] = k
    children, probes = [[], []], [[], []]
    for k, s in enumerate(order[2:], 2):
        children.append([position[s ^ 1 << i] for i in range(n) if s >> i & 1])
        singles = (position[1 << i] for i in range(n) if not s >> i & 1)
        probes.append([j for j in singles if j < k])
    return order, children, probes


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
        self.n = n
        self.member = memoryview(family.mask)
        self.members = family.member_values().astype(np.uint32)
        self.order, self.children, self.probes = _prepare_sources(n)
        self.positions = len(self.order)
        # _extend recurses once per position, 2^n deep, past the default
        # limit of 1,000 from n = 10 on.  Only ever raised, here and in
        # every pool worker, each of which builds its own engine.
        sys.setrecursionlimit(max(sys.getrecursionlimit(), self.positions + 1000))
        self.sizes = [s.bit_count() for s in self.order]
        # Positions 2..n+1 hold the singletons; each image after the first
        # must exceed its predecessor (source symmetry).
        self.floored = [prune and 3 <= k <= n + 1 for k in range(self.positions)]
        self.mode = mode
        self.prune = prune
        self.deadline = deadline
        # Run about every 256 units of work (_tick): the deadline check,
        # or a pool's service of its workers, which checks it too.
        self.checkpoint = None if deadline is None else self._check_deadline
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
            self._tick()
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
                self._tick(len(members))
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
                        self._tick()
                        continue
                    orbit = {(b, t)}
                    frontier = [(b, t)]
                    while swaps and frontier:
                        pb, pt = frontier.pop()
                        self._tick(len(swaps))
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

    def _tick(self, work: int = 1) -> None:
        """Count work (candidates walked, root pairs and orbit steps) and run
        the checkpoint once about every 256 units."""
        self._work += work
        if self._work >= 256:
            self._work = 0
            if self.checkpoint is not None:
                self.checkpoint()

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
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
        for j in self.children[k]:
            u |= images[j]
        # u lies inside the image of the top (module docstring, point 1).
        d = images[1] ^ u
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
        probes = self.probes[k]
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
            # _tick inlined: a call per chunk slows the calling process of a
            # pool, whose checkpoint is set, by several per cent.
            self._work += len(lows) + 1
            if self._work >= 256:
                self._tick(0)
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
                for j in probes:
                    v = images[j]
                    xv = x & v
                    if xv == x or xv == v:
                        ok = False
                        break
                if ok:
                    self.nodes += 1
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


def _large(task, n: int) -> bool:
    """Whether a task may be large: its root gap |t| - |b| exceeds n + 1, or
    is n + 1 from the empty bottom.  In the c0 searches up to n = 5 no
    other task takes more than 2,253 nodes."""
    b, t = task[:2]
    gap = t.bit_count() - b.bit_count()
    return gap > n + 1 or gap == n + 1 and not b


def _submission(tasks, n: int) -> list:
    """The next tasks for one process: a run of consecutive tasks that ends
    at the first large one, or after _BATCH tasks."""
    batch = []
    for task in tasks:
        batch.append(task)
        if len(batch) == _BATCH or _large(task, n):
            break
    return batch


def _send(fd: int, obj) -> None:
    """Write obj to a pipe as its pickle's 4-byte length, then the pickle."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(4, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytes:
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            break
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _receive(fd: int):
    """Read one object written by _send; None if the writer closed the pipe
    before its length.  A message cut short raises EOFError."""
    head = _read(fd, 4)
    if not head:
        return None
    size = int.from_bytes(head, "little")
    data = _read(fd, size)
    if len(head) < 4 or len(data) < size:
        raise EOFError("search worker message cut short")
    return pickle.loads(data)


def _run_batch(engine: _Engine, batch: list) -> list:
    """Run a submission's tasks in order, up to and including the first
    find or deadline hit."""
    results = []
    for task in batch:
        results.append(result := engine.run(task))
        if result[0] is not None or result[4]:
            break
    return results


def _fork(engine: _Engine, inherited: list[int], sent) -> tuple[int, int, int]:
    """Fork a worker that runs the submissions sent to it on the engine it
    inherits, until its task pipe closes, and sets sent[0] after each batch
    of results it sends; return its pid and the parent's ends of its task
    and result pipes.  The worker closes the inherited descriptors (the
    parent's ends of the other workers' pipes), so that each worker alone
    holds its own pipes, and ignores Ctrl-C, which the parent handles by
    ending it."""
    import signal

    task_read, task_write = os.pipe()
    result_read, result_write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            for fd in (task_write, result_read, *inherited):
                os.close(fd)
            while (batch := _receive(task_read)) is not None:
                _send(result_write, _run_batch(engine, batch))
                sent[0] = 1
            code = 0
        except BaseException:
            import traceback

            traceback.print_exc()
            raise
        finally:
            # Never return into the parent's stack: the exception raised
            # above ends here.
            os._exit(code)
    os.close(task_read)
    os.close(result_write)
    return pid, task_write, result_read


class _Abandon(Exception):
    """A worker found a copy in a submission before the calling process's."""


class _Pool:
    """One search's tasks run by the calling process and up to workers - 1
    forked workers, one submission at a time each, so at most ``workers``
    large tasks are in flight and the walk stays close to the fold.

    The calling process runs the small tasks at the head of the walk by
    itself; workers are forked, after the engine is built (so nothing is
    pickled at start), only when it is about to run a large task or its
    second submission.  While it runs a task it serves the workers at the
    engine's checkpoints: it reads the results they have sent and hands
    the idle ones the next submissions.  Once a find or a deadline hit has
    come back no further task is taken, and a find in an earlier
    submission abandons the calling process's own.  ``results`` yields the
    results in task order; closing it closes the pipes, kills the workers
    still running a task and reaps every worker.  A worker that exits
    before returning its results raises ChildProcessError."""

    def __init__(self, engine: _Engine, tasks, workers: int) -> None:
        import mmap
        import select

        self.select = select.select
        # A byte shared with the workers, set by one after it sends results
        # and cleared here before reading them, so that a checkpoint with
        # nothing to read makes no system call.
        self.sent = mmap.mmap(-1, 1)
        self.engine = engine
        self.tasks = tasks
        self.workers = workers
        self.clock = engine.checkpoint  # the deadline check, or None
        self.pids: list[int] = []
        self.fds: list[int] = []
        self.idle: list[tuple[int, int, int]] = []
        self.busy: dict[int, tuple[int, int, list]] = {}  # result fd -> pid, task fd, slot
        self.slots = deque()  # [number, results or None] per submission, in task order
        self.taken = 0
        self.stop = False
        self.found_at = float("inf")  # the first submission known to hold a find
        self.own = None  # the calling process's current submission

    def _take(self) -> tuple[list, list | None]:
        """The next submission and its slot; ([], None) once none is left."""
        batch = [] if self.stop else _submission(self.tasks, self.engine.n)
        if not batch:
            return batch, None
        slot = [self.taken, None]
        self.taken += 1
        self.slots.append(slot)
        return batch, slot

    def _fill(self, slot: list, results: list) -> None:
        slot[1] = results
        if results:
            found, *_, hit = results[-1]
            if found is not None:
                self.found_at = min(self.found_at, slot[0])
            self.stop = self.stop or found is not None or hit

    def _give(self, fork: bool) -> None:
        """Hand a submission to every idle worker, and with fork=True to new
        workers up to workers - 1."""
        while self.idle or fork and len(self.pids) < self.workers - 1:
            batch, slot = self._take()
            if not batch:
                return
            if self.idle:
                pid, task_fd, result_fd = self.idle.pop()
            else:
                pid, task_fd, result_fd = _fork(self.engine, self.fds, self.sent)
                self.pids.append(pid)
                self.fds += task_fd, result_fd
            _send(task_fd, batch)
            self.busy[result_fd] = pid, task_fd, slot

    def _collect(self, ready: list[int]) -> None:
        """Read the results of the workers whose result pipes are ready."""
        for result_fd in ready:
            pid, task_fd, slot = self.busy.pop(result_fd)
            self.idle.append((pid, task_fd, result_fd))
            results = _receive(result_fd)
            if results is None:
                raise ChildProcessError(f"search worker {pid} exited during a task")
            self._fill(slot, results)

    def _serve(self) -> None:
        """The engine's checkpoint while the calling process runs a task.
        The walk, advanced here, sees only the deadline check."""
        if self.sent[0] or self.idle:
            self.sent[0] = 0
            self.engine.checkpoint = self.clock
            try:
                self._collect(self.select(list(self.busy), [], [], 0)[0])
                self._give(fork=False)
            finally:
                self.engine.checkpoint = self._serve
            if self.found_at < self.own:
                raise _Abandon
        if self.clock is not None:
            self.clock()

    def _run_own(self, batch: list) -> list:
        """Run a submission here, as _run_batch does, serving the workers at
        the engine's checkpoints.  Workers are forked before a large task or
        any task after the first submission, never inside the engine."""
        results = []
        for task in batch:
            if self.own or _large(task, self.engine.n):
                self._give(fork=True)
            self.engine.checkpoint = self._serve
            try:
                results.append(result := self.engine.run(task))
            except _Abandon:
                break
            finally:
                self.engine.checkpoint = self.clock
            if result[0] is not None or result[4]:
                break
        return results

    def results(self):
        import signal

        try:
            while True:
                while self.slots and self.slots[0][1] is not None:
                    yield from self.slots.popleft()[1]
                batch, slot = self._take()
                if batch:
                    self.own = slot[0]
                    self._fill(slot, self._run_own(batch))
                elif self.busy:
                    self._collect(self.select(list(self.busy), [], [])[0])
                else:
                    return
        finally:
            self.sent.close()
            for fd in self.fds:
                os.close(fd)
            for pid, _, _ in self.busy.values():
                os.kill(pid, signal.SIGKILL)
            for pid in self.pids:
                os.waitpid(pid, 0)


def _search(
    family: SetFamily, n: int, mode: str, prune: bool, deadline: float | None,
    swaps: list[tuple[int, int]], workers: int,
) -> tuple[tuple[int, ...] | None, int, int, dict[str, int], bool]:
    """Walk the root pairs once, run the tasks here (one worker) or on a
    pool, and fold them in task order up to the first find: (find, count,
    nodes, prune hits, deadline hit).  A deadline hit starts no more tasks."""
    engine = _Engine(family, n, mode, prune, deadline)
    found, count, nodes, hit, hits = None, 0, 0, False, dict.fromkeys(_PRUNE_NAMES, 0)
    tasks = takewhile(lambda _: not hit, engine._root_pairs(swaps))
    if workers <= 1:
        results = (engine.run(t) for t in tasks)
    else:
        results = _Pool(engine, tasks, workers).results()
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
    and each is one task.  The tasks run in this process and, with
    workers > 1, on up to workers - 1 forked processes (none without
    os.fork), and are folded in task order, so outcomes, witnesses and
    counters do not depend on the worker count.  A found outcome counts
    the tasks up to and including the find; workers still running then are
    killed, and every worker is reaped before the outcome is returned.  A
    worker that dies mid-task raises ChildProcessError.  The budget also
    covers the automorphism checks before the walk.  A budget hit starts
    no more tasks, but a find by a task still running wins over it.
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
            # Worker processes are forked; without fork the search runs here.
            workers = min(workers, family.size) if hasattr(os, "fork") else 1
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

