"""The graph on pair-free n-subsets of [2n] (transversals), joined when
two of them differ by swapping one element for the other of its pair,
equivalently when their union has n+1 elements.  Diagnostics:
bipartiteness via breadth-first layering, connectivity, and agreement of
the bipartition with the element-sum parity classes.

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
it, and gives each newly reached neighbour the side opposite the popped
vertex's, so every side is the distance parity; the level here is that
distance.  The queue declares the graph non-bipartite when some edge has
equal sides at both ends, which is ``side[u] == side[v]`` over the edge
array.  So the sides, the bipartite and connected flags, the parity
classes and their comparison are those of the queue, and the report is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .lattice import CapacityError

MAX_FLIP_N = 20

# Edges formatted per chunk in ``export_edges``: bounds the text alive at
# once (the whole n = 20 edge list is 273 MB).
_EXPORT_CHUNK = 1 << 16


def _odd_elements_mask(n: int) -> int:
    """Bits 0, 2, ..., 2n-2: the odd elements 1, 3, ..., 2n-1 of [2n]."""
    return (4**n - 1) // 3


@dataclass(frozen=True, eq=False)
class FlipGraph:
    """Vertices are encoded transversal masks, a sorted ``int64`` array.
    Edges are ``ends``, an ``(E, 2)`` ``int32`` array of vertex indices
    (positions in ``vertices``) with u < v in each row, rows sorted
    lexicographically; ``edges`` gathers the encoded values of the same
    rows on demand."""

    n: int
    vertices: np.ndarray
    ends: np.ndarray

    @property
    def edges(self) -> np.ndarray:
        return self.vertices[self.ends]


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
    for i in range(n):
        vertices += (choice & (1 << i)).astype(np.int64) << i
    # Row r has one upward edge per clear bit i of its choice, to r + 2^i,
    # and its edges are consecutive, i ascending, from start[r] on.
    count = n - np.bitwise_count(choice).astype(np.int32)
    start = np.zeros(1 << n, dtype=np.int32)
    np.cumsum(count[:-1], out=start[1:])
    ends = np.empty((n << (n - 1), 2), dtype=np.int32)
    ends[:, 0] = np.repeat(choice, count)
    half = np.arange(1 << (n - 1), dtype=np.int32)
    for i in range(n):
        low = (1 << i) - 1
        rows = (half & ~low) << 1 | (half & low)  # the rows with bit i clear
        below = i - np.bitwise_count(rows & low)  # their clear bits below i
        ends[start[rows] + below, 1] = rows | (1 << i)
    return FlipGraph(n, vertices, ends)


def _adjacency(count: int, keys: np.ndarray, values: np.ndarray):
    """The directed edges key -> value grouped by key: offsets into the
    array of values.  Keys already in order are used as they are; the
    search needs no order within a group."""
    offset = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=count), out=offset[1:])
    if np.all(keys[:-1] <= keys[1:]):
        return offset, values
    return offset, values[np.argsort(keys)]


def _levels(count: int, ends: np.ndarray) -> tuple[np.ndarray, int]:
    """Breadth-first level of each vertex index within its component, and
    the number of components, over the undirected edges ``ends`` (pairs of
    vertex indices).  Each component is searched from its lowest index.

    Each edge is followed from either end through its own grouping by
    that end; the first ends of sorted edges need no sort."""
    sides = (_adjacency(count, ends[:, 0], ends[:, 1]), _adjacency(count, ends[:, 1], ends[:, 0]))
    level = np.full(count, -1, dtype=np.int64)
    components = 0
    unvisited = np.arange(count)
    while unvisited.size:
        components += 1
        frontier = unvisited[:1]
        level[frontier] = depth = 0
        while frontier.size:
            reached = np.zeros(count, dtype=bool)
            for offset, adjacent in sides:
                lo = offset[frontier]
                sizes = offset[frontier + 1] - lo
                first = np.cumsum(sizes) - sizes
                reached[adjacent[np.repeat(lo - first, sizes) + np.arange(sizes.sum())]] = True
            frontier = np.flatnonzero(reached & (level < 0))
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


def _vertex_text(vertices: np.ndarray) -> np.ndarray:
    """Two fixed-width ASCII rows per vertex value, interleaved: row 2i is
    value i's decimal digits and a space, row 2i + 1 its digits and a
    newline.  Digits are right-aligned; the slots left of them hold 0, a
    byte that no row keeps."""
    width = len(str(int(vertices.max()))) if vertices.size else 1
    rows = np.zeros((vertices.size, 2, width + 1), dtype=np.uint8)
    rows[:, 0, width] = ord(" ")
    rows[:, 1, width] = ord("\n")
    rest = vertices
    for col in range(width - 1, -1, -1):
        rest, digit = np.divmod(rest, 10)
        # A value's leading zero is padding, except the one digit of 0.
        shown = (rest > 0) | (digit > 0) | (col == width - 1)
        rows[:, :, col] = np.where(shown, digit + ord("0"), 0)[:, None]
    return rows.reshape(-1, width + 1)


def export_edges(graph: FlipGraph, fh: TextIO) -> None:
    """Write the edge list to an open text file, one chunk of
    _EXPORT_CHUNK edges at a time: one edge per line, the two encoded
    vertex values ascending.

    Each edge gathers two fixed-width rows of ``_vertex_text`` (one item
    copy each through a ``np.void`` view), and one boolean compress drops
    the padding."""
    text = _vertex_text(graph.vertices)
    rows = text.view(np.dtype((np.void, text.shape[1]))).ravel()
    side = np.array([0, 1], dtype=np.int32)
    for lo in range(0, len(graph.ends), _EXPORT_CHUNK):
        block = rows[graph.ends[lo : lo + _EXPORT_CHUNK] * 2 + side].view(np.uint8).ravel()
        fh.write(block[block != 0].tobytes().decode("ascii"))
