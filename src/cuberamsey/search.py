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

Images must also be distinct, and the candidate window keeps them so:
f(bottom) and f(top) lie outside it, and every other earlier image fails
a probe or lies strictly inside u.  So a candidate is tested for
membership and against the probes, and for nothing else.
Proof.  Let A be an earlier source other than the bottom and the top,
with f(A) = x.
  * A is incomparable with s: f(A) is inside x, so a probe rejects x
    (point 3).
  * A is a proper subset of s: then |s| >= 2, and A lies inside a child C
    of s (point 2).  The two or more children of s are pairwise
    incomparable, and so are their images; so f(C) is strictly inside u,
    which is inside x.
  * The top is the only earlier proper superset of s (point 1).
That leaves the bottom and the top.  With prune=True the cardinality
window gives |f(bottom)| < |x| < |f(top)|, as 0 < |s| < n.  With
prune=False f(bottom) lies inside, and f(top) contains, every singleton
image, and every source but {1} has a probe (an i outside s comes before
s, or {1} before a later singleton), which rejects both.  At {1}, u is
f(bottom), so w = 0 gives f(bottom) and w = d gives f(top), and no other
w gives either; the window there is 1..|d| - 1.  Reuse rejections have
no counter, so nodes and counters are as with a test against every
earlier image.

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
membership, incomparability), so prune hit counts are reproducible; they
audit completed exhaustions.  Each representative root pair is one task; a
root-pair rejection counts to the task after it in the walk (after the
last task, at exhaustion), and a found outcome counts the tasks up to and
including the find, so no counter depends on the worker count.

Work splitting.  Every search runs one task loop (_results), whatever the
worker count.  The calling process runs the head of the walk itself: the
tasks before the first large one (root gap |t| - |b| above n + 1, or
n + 1 from the empty bottom), at most _BATCH of them, and with one worker
every task.  So a search decided at the head starts no process.  After
the head the calling process runs no task: it walks the root pairs,
forks up to ``workers`` workers, which inherit the engine, and hands each
one submission at a time over a pipe.  A submission is a run of
consecutive tasks that ends at the first large one or after _BATCH tasks,
so at most ``workers`` large tasks are in flight.  Results come back as
pickles and are folded in task order whichever process ran them.
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
from itertools import chain
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
    """A copy of 2^[n] inside 2^[m]: entry i of ``images`` is the encoded
    value of the image of the subset of [n] encoded by i."""

    n: int
    m: int
    images: tuple[int, ...]


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


def verify_embedding(e: Embedding, family: SetFamily | None = None) -> str | None:
    """Re-check an embedding from scratch and return the first violation
    found, or None for a valid embedding: membership when a family is
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
    images are still tested first, for their own message.  Raises
    ValueError when the image count is not 2^n, an image lies outside
    0..2^m - 1, or the family is not over [m]."""
    size = 1 << e.n
    if len(e.images) != size:
        raise ValueError(f"expected {size} images for n={e.n}, got {len(e.images)}")
    vals = list(e.images)
    for v in vals:
        # Checked before the family is indexed, where -1 would wrap.
        if v < 0 or v >> e.m:
            raise ValueError(f"image value {v} outside 0..{(1 << e.m) - 1}")
    if family is not None:
        if family.m != e.m:
            raise ValueError(f"family over [{family.m}] but embedding targets [{e.m}]")
        outside = np.flatnonzero(~family.mask[vals])
        if outside.size:
            a = int(outside[0])
            return f"image {ElementSet(vals[a], e.m)} of {ElementSet(a, e.n)} not in family"
    seen: dict[int, int] = {}
    for a, v in enumerate(vals):
        if v in seen:
            return f"images of {ElementSet(seen[v], e.n)} and {ElementSet(a, e.n)} coincide"
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
            return None
        a = int(singles[nested[0]])
        b = size - 1 - a
    return f"order violated on ({ElementSet(a, e.n)}, {ElementSet(b, e.n)})"


@lru_cache(maxsize=16)
def _prepare_sources(n: int):
    """Assignment order over 2^[n] and, per position k >= 2 (source s), one
    step record: the positions of its children s - {i} (the bottom for a
    singleton), the positions of its probes, the singletons {i} with i not
    in s that come before s, and |s|.  Positions 0 and 1 hold None."""
    if not 1 <= n <= MAX_SOURCE_N:
        raise ValueError(f"source cube parameter {n} outside 1..{MAX_SOURCE_N}")
    full = (1 << n) - 1
    order = [0, full] + sorted(range(1, full), key=lambda s: (s.bit_count(), s))
    position = [0] * (full + 1)
    for k, s in enumerate(order):
        position[s] = k
    steps = [None, None]
    for k, s in enumerate(order[2:], 2):
        children = [position[s ^ 1 << i] for i in range(n) if s >> i & 1]
        singles = (position[1 << i] for i in range(n) if not s >> i & 1)
        steps.append((children, [j for j in singles if j < k], s.bit_count()))
    return order, steps


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


def _top_bits(d: int, j: int) -> int:
    """The highest j set bits of d (none for j <= 0); j must not exceed |d|."""
    high = 0
    for _ in range(j):
        high |= 1 << (d ^ high).bit_length() - 1
    return high


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
    m = family.m
    if family.size * _SPARSE <= family.mask.size:
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
        self.family = family
        self.member = memoryview(family.mask)
        self.order, steps = _prepare_sources(n)
        self.positions = len(self.order)
        # _extend recurses once per position, 2^n deep, past the default
        # limit of 1,000 from n = 10 on.  Only ever raised; forked workers
        # inherit the raised limit with the engine.
        sys.setrecursionlimit(max(sys.getrecursionlimit(), self.positions + 1000))
        # Each record gains a floor flag.  Positions 2..n+1 hold the
        # singletons; each image after the first must exceed its
        # predecessor (source symmetry).
        self.steps = steps[:2] + [
            (*step, prune and 3 <= k <= n + 1) for k, step in enumerate(steps[2:], 2)
        ]
        self.mode = mode
        self.prune = prune
        self.deadline = deadline
        self.low_lists: dict[tuple[int, int, int], list[int]] = {}
        self.cached_entries = 0
        self.images = [0] * self.positions
        self._work = 0

    def run(self, task) -> tuple[tuple[int, ...] | None, int, int, dict[str, int], bool]:
        """Search one task (bottom, top, orbit size, the root-pair rejections
        walked since the previous task) and return its (find, count times
        the orbit size, nodes, prune hits, deadline hit)."""
        b, t, orbit, self.prune_hits = task
        self.nodes, self.count, self.found = 1, 0, None
        self.images[:2] = b, t
        # The task's part of the cardinality window |f(bottom)| + |s| <= |x|
        # <= |f(top)| - n + |s|.
        self.lo_base, self.hi_base = b.bit_count(), t.bit_count() - self.n
        hit = False
        try:
            self._tick()
            self._extend(2)
        except _DeadlineHit:
            hit = True
        # Every pair of the orbit roots as many embeddings as (b, t).
        return self.found, self.count * orbit, self.nodes, self.prune_hits, hit

    def _root_pairs(self):
        """Yield the tasks (bottom, top, orbit size, root-pair rejections
        since the previous task), ascending: pairs of members with bottom
        strictly inside top, less the root-gap rejections (prune only) and
        the pairs that are not the minimum of their orbit under the family's
        swaps, which the walk checks first (prune only; none otherwise).
        Once the walk ends, self.rest holds the rejections after the last
        task (until then, none: they belong to a task not yet yielded, and
        the dict a task carries is not reused); a deadline hit, in the swap
        checks or the walk, ends the walk and sets self.walk_hit.  The
        first pair met of an orbit is its minimum; its orbit is closed
        breadth-first, and the other members wait in pending until they
        are met and skipped.  The members and each bottom's supersets are
        read in place, through memoryviews that yield Python ints, never
        copied to lists (a list of the 8,388,146 c0 n = 12 Red members
        takes 335 MB on 64-bit CPython), so memory grows only with the
        open orbits."""
        pending: set[tuple[int, int]] = set()
        hits = dict.fromkeys(_PRUNE_NAMES, 0)
        self.rest, self.walk_hit = dict.fromkeys(_PRUNE_NAMES, 0), False
        try:
            swaps = _family_swaps(self.family, self.deadline) if self.prune else []
            members = self.family.member_values().astype(np.uint32)
            sizes = np.bitwise_count(members)
            for i, b in enumerate(memoryview(members)):
                self._tick(len(members))
                # Supersets of b are larger than b, so only later members.
                later = members[i + 1 :]
                inside = (later & b) == b
                if self.prune:
                    fits = sizes[i + 1 :] >= sizes[i] + self.n
                    hits["root-gap"] += int(np.count_nonzero(inside & ~fits))
                    inside &= fits
                for t in memoryview(later[inside]):
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
                    hits = dict.fromkeys(_PRUNE_NAMES, 0)
        except _DeadlineHit:
            self.walk_hit = True
        self.rest = hits

    def _tick(self, work: int = 1) -> None:
        """Count work (candidates walked, root pairs and orbit steps) and
        check the deadline once about every 256 units."""
        self._work += work
        if self._work >= 256:
            self._work = 0
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise _DeadlineHit

    def _extend(self, k: int) -> bool:
        if k == self.positions:
            if self.mode == "first":
                self.found = tuple(self.images)
                return True
            self.count += 1
            return False
        children, probes, size, floored = self.steps[k]
        images = self.images
        u = 0
        for j in children:
            u |= images[j]
        # u lies inside the image of the top (module docstring, point 1).
        d = images[1] ^ u
        width = d.bit_count()
        hits = self.prune_hits
        if self.prune:
            # Window on |w| = |x| - |u| for the candidates x = u + w.
            part = size - u.bit_count()
            lo, hi = self.lo_base + part, self.hi_base + part
            hits["cardinality-window"] += _window_skipped(width, lo, hi)
        else:
            # Only the first singleton's window can reach w = 0, f(bottom),
            # or w = d, f(top) (module docstring); it stops short of both.
            lo, hi = (1, width - 1) if k == 2 else (0, width)
        member = self.member
        # Chunks: w_high walks the submasks of the top width - _LOW_BITS set
        # bits of d, each followed by the cached list of low submasks whose
        # size fits the window shifted by |w_high|.
        high = _top_bits(d, width - _LOW_BITS) if width > _LOW_BITS else 0
        low = d ^ high
        w_high = 0
        while True:
            taken = w_high.bit_count()
            key = (low, lo - taken, hi - taken)
            lows = self.low_lists.get(key)
            if lows is None:
                lows = self._low_list(key)
            # _tick inlined, to save a call per chunk.
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
                if not member[x]:
                    continue
                for j in probes:
                    v = images[j]
                    xv = x & v
                    if xv == x or xv == v:
                        break
                else:
                    self.nodes += 1
                    images[k] = x
                    if self._extend(k + 1):
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


def _run_batch(engine: _Engine, batch: list) -> list:
    """Run a submission's tasks in order, up to and including the first
    find or deadline hit."""
    results = []
    for task in batch:
        results.append(result := engine.run(task))
        if result[0] is not None or result[4]:
            break
    return results


def _fork(engine: _Engine, inherited: list[int]):
    """Fork a worker that runs the submissions sent to it on the engine it
    inherits, until its task pipe closes; return its pid and the parent's
    ends of its task and result pipes, as buffered files.  Each message is
    one pickle, and a pipe holds at most one at a time: a worker is sent a
    submission only after it has returned the results of the last.  So a
    buffered reader never holds back a message that select would miss.
    The worker closes the inherited descriptors (the parent's ends of the
    other workers' pipes), so that each worker alone holds its own pipes,
    and ignores Ctrl-C, which the parent handles by ending it."""
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
            tasks, results = open(task_read, "rb"), open(result_write, "wb")
            while True:
                try:
                    batch = pickle.load(tasks)
                except EOFError:
                    break
                pickle.dump(_run_batch(engine, batch), results, pickle.HIGHEST_PROTOCOL)
                results.flush()
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
    return pid, open(task_write, "wb"), open(result_read, "rb")


def _results(engine: _Engine, tasks, workers: int):
    """Run the tasks and yield their results in task order, up to the first
    find or deadline hit that comes back.

    The calling process runs the head of the walk itself: the tasks before
    the first large one, at most _BATCH of them, or every task with one
    worker.  After the head it runs no task.  It hands each worker one
    submission at a time, forking a worker (after the engine is built, so
    nothing is pickled at start) only when a submission is ready and no
    worker is idle, up to ``workers``, and waits for results in select.
    Once a find or a deadline hit has come back no further task is taken.
    Closing the generator kills the workers still running a task, closes
    the pipes and reaps every worker.  A worker that exits before returning
    its results raises ChildProcessError."""
    for head, task in enumerate(tasks):
        if workers > 1 and (head == _BATCH or _large(task, engine.n)):
            break
        yield (result := engine.run(task))
        if result[0] is not None or result[4]:
            return
    else:
        return
    import select
    import signal

    tasks = chain([task], tasks)
    pids, files = [], []
    idle = []  # pid, task file, result file
    busy = {}  # result file -> pid, task file, slot
    slots = deque()  # [results], or [None] until they are back, in task order
    stop = False
    try:
        while True:
            while slots and slots[0][0] is not None:
                yield from slots.popleft()[0]
            while not stop and (idle or len(pids) < workers):
                batch = _submission(tasks, engine.n)
                if not batch:
                    stop = True
                    break
                if idle:
                    pid, task_file, result_file = idle.pop()
                else:
                    pid, task_file, result_file = _fork(engine, [f.fileno() for f in files])
                    pids.append(pid)
                    files += task_file, result_file
                pickle.dump(batch, task_file, pickle.HIGHEST_PROTOCOL)
                task_file.flush()
                slots.append(slot := [None])
                busy[result_file] = pid, task_file, slot
            if not busy:
                return
            for result_file in select.select(list(busy), [], [])[0]:
                pid, task_file, slot = busy.pop(result_file)
                try:
                    slot[0] = pickle.load(result_file)
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError(f"search worker {pid} exited during a task") from None
                idle.append((pid, task_file, result_file))
                found, *_, hit = slot[0][-1]
                stop = stop or found is not None or hit
    finally:
        # Kill the busy workers before closing their pipes: one that ends
        # its task in between must not die writing to a closed pipe.
        for pid, _, _ in busy.values():
            os.kill(pid, signal.SIGKILL)
        for f in files:
            f.close()
        for pid in pids:
            os.waitpid(pid, 0)


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
    never "absent".  workers < 1 raises ValueError; n > m is "absent" at
    once, with no search; otherwise n > MAX_SOURCE_N raises ValueError
    before any worker starts.  The root
    pairs to search (with prune=True only the orbit representatives under
    the verified automorphisms of the family) are walked once, ascending,
    and each is one task.  This process runs the small tasks at the head of
    the walk; with workers > 1 it then runs none, but hands the rest to up
    to ``workers`` forked processes (none without os.fork), and waits for
    their results.  A worker is forked only past the head, and only for a
    submission that finds no idle worker, so a search forks no more workers
    than it has submissions, however many are allowed.  Results are folded
    in task order, so outcomes, witnesses and counters do not depend on the
    worker count.  A found outcome counts the tasks up to and including the
    find; workers still running then are killed, and every worker is reaped
    before the outcome is returned.  A worker that dies mid-task raises
    ChildProcessError.  The walk checks the automorphisms first, within the
    budget.  A budget hit starts no more tasks, but a find by a task still
    running wins over it.
    """
    if mode not in ("first", "count"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    # No search runs when n exceeds m: no injective size-respecting map
    # exists.
    found, count, nodes, hits, hit = None, 0, 0, dict.fromkeys(_PRUNE_NAMES, 0), False
    if n <= family.m:
        deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        # Past MAX_SOURCE_N the engine raises before any worker starts.
        engine = _Engine(family, n, mode, prune, deadline)
        # Worker processes are forked; without fork the search runs here.
        workers = workers if hasattr(os, "fork") else 1
        results = _results(engine, engine._root_pairs(), workers)
        try:
            for found, task_count, task_nodes, task_hits, task_hit in results:
                count += task_count
                nodes += task_nodes
                hits = {name: hits[name] + task_hits[name] for name in _PRUNE_NAMES}
                hit = hit or task_hit
                if found is not None:
                    break
            else:
                # Exhausted, or stopped by a deadline hit in a task, the swap
                # checks or the walk.
                hits = {name: hits[name] + engine.rest[name] for name in _PRUNE_NAMES}
                hit = hit or engine.walk_hit
        finally:
            results.close()
        # Each canonical embedding stands for its orbit of n! labeled maps.
        count = count * factorial(n) if prune else count
    if found is not None:
        # The find lists images in assignment order; sort them by source.
        values = tuple(v for _, v in sorted(zip(engine.order, found)))
        embedding = Embedding(n, family.m, values)
        violation = verify_embedding(embedding, family)
        if violation is not None:
            raise AssertionError(f"engine produced an invalid embedding: {violation}")
        return SearchOutcome("found", embedding, None, nodes, hits)
    # First mode counts nothing, so only count mode can be found here.
    status = "inconclusive" if hit else "found" if count else "absent"
    count = count if mode == "count" and not hit else None
    return SearchOutcome(status, None, count, nodes, hits)
