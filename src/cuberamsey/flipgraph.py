"""The graph on pair-free n-subsets of [2n] (transversals), joined when
two of them differ by swapping one element for its partner, equivalently
when their union has n+1 elements.  Diagnostics: bipartiteness via
breadth-first layering, connectivity, and agreement of the bipartition
with the element-sum parity classes.

Everything is held in numpy arrays.  A transversal takes bit 2i or 2i+1
of each pair i, so it is the even-position mask ``(4**n - 1) // 3`` plus
the bits of a choice word c in [0, 2^n) spread to the even positions, and
the masks ascend with c, so c is also the vertex's index.  Swapping pair i
XORs ``3 << 2i``; the swap moves up exactly when the transversal holds bit
2i (bit i of c clear), and then adds ``1 << 2i`` to the mask and ``1 << i``
to the index.  Read row by row, the (vertex, pair) table of upward swaps
lists every edge once, u < v, already in lexicographic order.

The breadth-first search runs one level at a time from the lowest
unvisited vertex of each component, and a vertex's side is the parity of
its level.  That is the side a per-vertex FIFO queue assigns (the test
oracle ``bipartition_loop``): the queue starts each component at its
lowest unvisited vertex too, pops vertices in nondecreasing distance from
it, and gives each newly reached neighbour the popped vertex's side
flipped, so every side is the distance parity; the level here is that
distance.  The queue declares the graph non-bipartite when some edge has
equal sides at both ends, which is ``side[u] == side[v]`` over the edge
array.  So the sides, the bipartite and connected flags, the parity
classes and their comparison are those of the queue, and the report is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .lattice import CapacityError

MAX_FLIP_N = 20

# Edges formatted per ``%`` call in ``export_edges``: bounds the Python ints
# alive at once (about 2 x 10^7 of them for the whole n = 20 graph).
_EXPORT_CHUNK = 1 << 16


def _odd_elements_mask(n: int) -> int:
    """Bits 0, 2, ..., 2n-2: the odd elements 1, 3, ..., 2n-1 of [2n]."""
    return (4**n - 1) // 3


@dataclass(frozen=True, eq=False)
class FlipGraph:
    """Vertices are encoded transversal masks, a sorted ``int64`` array;
    edges are an ``(E, 2)`` ``int64`` array of (u, v) rows with u < v,
    sorted lexicographically.  ``ends`` holds the same rows as ``int32``
    vertex indices (positions in ``vertices``); when it is not given, as
    for a graph built by hand, it is found by binary search."""

    n: int
    vertices: np.ndarray
    edges: np.ndarray
    ends: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.ends is None:
            ends = np.searchsorted(self.vertices, self.edges).astype(np.int32)
            object.__setattr__(self, "ends", ends)

    @property
    def degree_histogram(self) -> dict[int, int]:
        degrees = np.bincount(self.ends.ravel(), minlength=len(self.vertices))
        return {d: c for d, c in enumerate(np.bincount(degrees).tolist()) if c}


@dataclass(frozen=True)
class FlipGraphReport:
    bipartite: bool
    connected: bool
    odd_class_size: int
    even_class_size: int
    matches_parity: bool


def build_flip_graph(n: int) -> FlipGraph:
    if not 1 <= n <= MAX_FLIP_N:
        raise CapacityError(f"flip graph supports 1 <= n <= {MAX_FLIP_N}, got {n}")
    choice = np.arange(1 << n, dtype=np.int32)
    vertices = np.full(1 << n, _odd_elements_mask(n), dtype=np.int64)
    up = np.empty((1 << n, n), dtype=bool)
    for i in range(n):
        bit = choice >> i & 1
        vertices += bit.astype(np.int64) << (2 * i)
        up[:, i] = bit == 0
    row, pair = np.nonzero(up)
    ends = np.empty((row.size, 2), dtype=np.int32)
    ends[:, 0] = row
    ends[:, 1] = row + (1 << pair)
    edges = vertices[ends]
    return FlipGraph(n, vertices, edges, ends)


def _levels(count: int, ends: np.ndarray) -> tuple[np.ndarray, int]:
    """Breadth-first level of each vertex index within its component, and
    the number of components, over the undirected edges ``ends`` (pairs of
    vertex indices).  Each component is searched from its lowest index."""
    src = np.concatenate((ends[:, 0], ends[:, 1]))
    offset = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=count), out=offset[1:])
    # The first half of src is sorted already, which a merge sort exploits.
    order = np.argsort(src, kind="stable")
    del src  # before the reversed copy: one edge-sized array fewer at the peak
    adjacent = np.concatenate((ends[:, 1], ends[:, 0]))[order]

    level = np.full(count, -1, dtype=np.int64)
    slot = np.empty(count, dtype=np.int64)
    components = 0
    unvisited = np.arange(count)
    while unvisited.size:
        components += 1
        frontier = unvisited[:1]
        level[frontier] = depth = 0
        while frontier.size:
            lo = offset[frontier]
            sizes = offset[frontier + 1] - lo
            first = np.cumsum(sizes) - sizes
            reached = adjacent[np.repeat(lo - first, sizes) + np.arange(sizes.sum())]
            fresh = reached[level[reached] < 0]
            # Keep one copy of each index: the one whose rank survives in its
            # slot after the scatter.
            rank = np.arange(fresh.size)
            slot[fresh] = rank
            frontier = fresh[slot[fresh] == rank]
            depth += 1
            level[frontier] = depth
        unvisited = unvisited[level[unvisited] < 0]
    return level, components


def check_bipartition(graph: FlipGraph) -> FlipGraphReport:
    """Breadth-first 2-coloring from the lowest vertex of each component,
    then comparison of the resulting sides with the parity classes."""
    vertices, ends = graph.vertices, graph.ends
    level, components = _levels(len(vertices), ends)
    side = level & 1
    bipartite = bool(np.all(side[ends[:, 0]] != side[ends[:, 1]]))
    odd = np.bitwise_count(vertices & _odd_elements_mask(graph.n)) & 1 == 1
    odd_size = int(np.count_nonzero(odd))
    matches = bipartite and (
        np.array_equal(side == 0, odd) or np.array_equal(side == 1, odd)
    )
    return FlipGraphReport(
        bipartite=bipartite,
        connected=components == 1,
        odd_class_size=odd_size,
        even_class_size=len(vertices) - odd_size,
        matches_parity=matches,
    )


def export_edges(graph: FlipGraph) -> Iterator[str]:
    """The edge list as consecutive chunks of text: one edge per line, the
    two encoded vertex values ascending."""
    edges = graph.edges
    for lo in range(0, len(edges), _EXPORT_CHUNK):
        block = edges[lo : lo + _EXPORT_CHUNK]
        yield "%d %d\n" * len(block) % tuple(block.ravel().tolist())
