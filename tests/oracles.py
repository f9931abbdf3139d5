"""Deliberately naive reference implementations used by the tests.

Everything here favors the most literal reading of a definition over
speed and avoids the library's bit tricks, vectorization, and pruning:
sets are frozensets of 1-based elements, quantifiers are plain loops.
Values frozen in the test modules were produced by these routines.
"""

from collections import deque
from itertools import combinations, permutations, product

import numpy as np

from cuberamsey import (
    Coloring,
    ColoringFormatError,
    CubeSpace,
    ElementSet,
    FlipGraphReport,
    PropertyReport,
    copy_image_masks,
)
from cuberamsey.lattice import MAX_GROUND_SIZE


def subset_elements(bits: int) -> tuple[int, ...]:
    out = []
    j = 1
    while bits:
        if bits & 1:
            out.append(j)
        bits >>= 1
        j += 1
    return tuple(out)


def as_frozenset(bits: int) -> frozenset:
    return frozenset(subset_elements(bits))


def popcount(bits: int) -> int:
    return bin(bits).count("1")


def ground_pairs(n: int) -> list[frozenset]:
    return [frozenset({2 * i - 1, 2 * i}) for i in range(1, n + 1)]


def pairs_and_singles(bits: int, n: int) -> tuple[int, int]:
    s = as_frozenset(bits)
    pairs = sum(1 for p in ground_pairs(n) if p <= s)
    singles = sum(1 for p in ground_pairs(n) if len(p & s) == 1)
    return pairs, singles


def missed(bits: int, n: int) -> list[int]:
    s = as_frozenset(bits)
    return [i + 1 for i, p in enumerate(ground_pairs(n)) if not p & s]


def sum_parity(bits: int) -> str:
    return "odd" if sum(subset_elements(bits)) % 2 else "even"


def pair_free(bits: int, n: int) -> bool:
    return pairs_and_singles(bits, n)[0] == 0


def violates_flip_pair(s1, s2, n: int) -> bool:
    """Whether (s1, s2) is a qualifying flip pair: two pair-free n-sets
    whose union has n + 1 elements."""
    a, b = as_frozenset(s1.bits), as_frozenset(s2.bits)
    return (
        len(a) == n
        and len(b) == n
        and len(a | b) == n + 1
        and pair_free(s1.bits, n)
        and pair_free(s2.bits, n)
    )


def ceil_half(n: int) -> int:
    return -(-n // 2)


def literal_pair_enforcing(members, n: int) -> bool:
    """Every member S with ceil(n/2) <= |S| < n contains a full pair."""
    for s in members:
        k = popcount(s)
        if ceil_half(n) <= k < n and pairs_and_singles(s, n)[0] == 0:
            return False
    return True


def literal_miss_forbidding(members, n: int) -> bool:
    """Every member S with n < |S| <= n + n//2 misses no pair."""
    for s in members:
        if n < popcount(s) <= n + n // 2 and missed(s, n):
            return False
    return True


def literal_not_too_high(members, n: int) -> bool:
    return all(popcount(s) <= n + n // 2 for s in members)


def literal_flip_susceptible(members, n: int) -> bool:
    """No two members are pair-free n-sets whose union has n+1 elements."""
    tv = [s for s in members if popcount(s) == n and pair_free(s, n)]
    for a, b in combinations(tv, 2):
        if popcount(a | b) == n + 1:
            return False
    return True


def literal_restrictive(members, n: int) -> bool:
    return (
        literal_pair_enforcing(members, n)
        and literal_miss_forbidding(members, n)
        and literal_not_too_high(members, n)
        and literal_flip_susceptible(members, n)
    )


def c0_color_literal(bits: int, n: int) -> str:
    """Band-by-band restatement of the paired-scheme color, on frozensets."""
    s = as_frozenset(bits)
    k = len(s)
    has_pair = any(p <= s for p in ground_pairs(n))
    misses_one = any(not (p & s) for p in ground_pairs(n))
    if k < ceil_half(n):
        return "R"
    if k < n:
        return "R" if has_pair else "B"
    if k == n:
        return "R" if sum(s) % 2 == 1 else "B"
    if k <= n + n // 2:
        return "B" if misses_one else "R"
    return "B"


# The per-subset tables as they were built before the split-table builder:
# one vectorized expression each over the full index array 0..2^m-1.  Bits
# 0, 2, 4, ... hold one probe position per pair and the odd elements.
_EVEN_POSITIONS = np.uint32(0x55555555)


def _full_index(m: int) -> np.ndarray:
    return np.arange(1 << m, dtype=np.uint32)


def popcount_full(m: int) -> np.ndarray:
    return np.bitwise_count(_full_index(m)).astype(np.uint8)


def pair_count_full(m: int) -> np.ndarray:
    idx = _full_index(m)
    return np.bitwise_count(idx & (idx >> np.uint32(1)) & _EVEN_POSITIONS).astype(np.uint8)


def missed_count_full(m: int) -> np.ndarray:
    idx = _full_index(m)
    hit = (idx | (idx >> np.uint32(1))) & _EVEN_POSITIONS
    return (m // 2 - np.bitwise_count(hit)).astype(np.uint8)


def odd_sum_full(m: int) -> np.ndarray:
    idx = _full_index(m)
    return (np.bitwise_count(idx & _EVEN_POSITIONS) & np.uint8(1)).astype(bool)


def c0_band_masks(n: int) -> np.ndarray:
    """The c0 red table on [2n], one size band at a time: five band masks
    and a fancy-index assignment each, over the full-index tables."""
    m = 2 * n
    sizes = popcount_full(m)
    red = np.empty(1 << m, dtype=bool)

    low = sizes < (n + 1) // 2
    band_pair = (sizes >= (n + 1) // 2) & (sizes < n)
    middle = sizes == n
    band_miss = (sizes > n) & (sizes <= n + n // 2)
    high = sizes > n + n // 2

    red[low] = True
    red[band_pair] = pair_count_full(m)[band_pair] > 0
    red[middle] = odd_sum_full(m)[middle]
    red[band_miss] = missed_count_full(m)[band_miss] == 0
    red[high] = False
    return red


def count_embeddings_literal(members, n: int) -> int:
    """Labeled embedding count by brute force over ordered member tuples,
    with the subset biconditional evaluated on frozensets."""
    size = 1 << n
    sources = [as_frozenset(v) for v in range(size)]
    fams = [as_frozenset(v) for v in members]
    count = 0
    for choice in permutations(range(len(fams)), size):
        images = [fams[i] for i in choice]
        if all(
            (sources[a] <= sources[b]) == (images[a] <= images[b])
            for a in range(size)
            for b in range(size)
            if a != b
        ):
            count += 1
    return count


def has_copy_literal(members, n: int) -> bool:
    size = 1 << n
    if len(members) < size:
        return False
    sources = [as_frozenset(v) for v in range(size)]
    fams = [as_frozenset(v) for v in members]
    for choice in permutations(range(len(fams)), size):
        images = [fams[i] for i in choice]
        if all(
            (sources[a] <= sources[b]) == (images[a] <= images[b])
            for a in range(size)
            for b in range(size)
            if a != b
        ):
            return True
    return False


def check_embedding_literal(images, n: int) -> bool:
    """Full biconditional + injectivity on a complete image tuple indexed
    by encoded source value."""
    size = 1 << n
    if len(set(images)) != size:
        return False
    sources = [as_frozenset(v) for v in range(size)]
    fams = [as_frozenset(v) for v in images]
    return all(
        (sources[a] <= sources[b]) == (fams[a] <= fams[b])
        for a in range(size)
        for b in range(size)
        if a != b
    )


def family_has_copy(family_mask: int, n: int, m: int) -> bool:
    """Copy test against the brute-force catalog: does the family (as a
    bitmask over subset values) cover some catalogued image family?"""
    return any(family_mask & img == img for img in copy_image_masks(n, m))


def naive_count_embeddings(members: list[int], n: int) -> int:
    """Count embeddings of 2^[n] with images among ``members`` by testing
    every ordered selection of 2^n distinct members against the full
    biconditional on bit masks.  Exponential."""
    size = 1 << n
    if len(members) < size:
        return 0
    count = 0
    for images in permutations(members, size):
        ok = True
        for a in range(size):
            for b in range(a + 1, size):
                sub_ab = a & b == a
                sub_ba = a & b == b
                img_ab = images[a] & images[b] == images[a]
                img_ba = images[a] & images[b] == images[b]
                if sub_ab != img_ab or sub_ba != img_ba:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def prepare_sources_loop(n: int):
    """Assignment order over 2^[n] and, per position, the earlier positions
    holding proper subsets, proper supersets and incomparable sources, by a
    plain loop over every pair of positions."""
    full = (1 << n) - 1
    order = [0, full] + sorted(range(1, full), key=lambda s: (popcount(s), s))
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


def permute_elements(bits: int, perm: dict[int, int]) -> int:
    """Image of a subset under an element map given on 1-based elements
    (elements absent from ``perm`` stay fixed)."""
    out = 0
    for j in subset_elements(bits):
        out |= 1 << (perm.get(j, j) - 1)
    return out


def root_orbits_literal(members, n: int, perms) -> list[tuple[int, int, int]]:
    """Orbit-minimal root pairs (bottom, top, orbit size), ascending, of the
    pairs b < t of members with |t| - |b| >= n, under the group generated
    by the element maps ``perms``; orbits by breadth-first closure."""
    pairs = sorted(
        (b, t)
        for b in members
        for t in members
        if b != t and as_frozenset(b) <= as_frozenset(t) and popcount(t) - popcount(b) >= n
    )
    seen = set()
    out = []
    for pair in pairs:
        if pair in seen:
            continue
        orbit = {pair}
        frontier = [pair]
        while frontier:
            b, t = frontier.pop()
            for perm in perms:
                image = (permute_elements(b, perm), permute_elements(t, perm))
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        out.append((pair[0], pair[1], len(orbit)))
    return out


def parse_coloring_loop(text: str) -> Coloring:
    """QRC1 parsing one character at a time: every line is split off, and
    each payload character is checked and stored in file order, so the
    first error met is the first in the file."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline
    if not lines or lines[0] != "QRC1":
        raise ColoringFormatError("expected QRC1 magic", 1, 1)
    if len(lines) < 2 or not lines[1].startswith("m="):
        raise ColoringFormatError("expected m=<integer>", 2, 1)
    try:
        m = int(lines[1][2:])
    except ValueError:
        raise ColoringFormatError(f"bad ground-set size {lines[1][2:]!r}", 2, 3) from None
    if not 1 <= m <= MAX_GROUND_SIZE:
        raise ColoringFormatError(f"ground-set size {m} outside 1..{MAX_GROUND_SIZE}", 2, 3)
    if len(lines) < 3 or not lines[2].startswith("scheme="):
        raise ColoringFormatError("expected scheme=<label>", 3, 1)
    scheme = lines[2][7:]

    expected = 1 << m
    red = np.empty(expected, dtype=bool)
    seen = 0
    for lineno, chunk in enumerate(lines[3:], start=4):
        if seen >= expected:
            raise ColoringFormatError("unexpected extra line after payload", lineno, 1)
        want = min(64, expected - seen)
        for col, ch in enumerate(chunk, start=1):
            if ch not in "RB":
                raise ColoringFormatError(f"illegal character {ch!r}", lineno, col)
            if seen >= expected:
                raise ColoringFormatError("payload longer than 2^m entries", lineno, col)
            red[seen] = ch == "R"
            seen += 1
        if len(chunk) != want:
            raise ColoringFormatError(
                f"payload line has {len(chunk)} entries, expected {want}", lineno, len(chunk) + 1
            )
    if seen != expected:
        raise ColoringFormatError(
            f"payload has {seen} entries, expected {expected}", len(lines) + 1, 1
        )
    return Coloring(CubeSpace(m), red, scheme=scheme)


def transversals_literal(n: int) -> list[int]:
    """Encoded pair-free n-subsets of [2n], ascending: one element chosen
    from each pair {2i-1, 2i}."""
    return sorted(
        sum(1 << (j - 1) for j in choice)
        for choice in product(*(sorted(p) for p in ground_pairs(n)))
    )


def flip_graph_loop(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Vertices (transversal masks, ascending) and edges (u, v), u < v,
    sorted, of the flip graph, one partner swap at a time."""
    vertices = tuple(transversals_literal(n))
    edges = []
    for t in vertices:
        for i in range(n):
            u = t ^ (3 << (2 * i))
            if u > t:
                edges.append((t, u))
    return vertices, tuple(sorted(edges))


def flip_susceptible_loop(family, n: int) -> PropertyReport:
    """Flip-susceptibility by a walk over the transversals, ascending, and
    the partner swaps above each; stops at the first pair of members.
    ``checked_count`` counts the transversals visited."""
    m = 2 * n
    checked = 0
    for t in transversals_literal(n):
        checked += 1
        if not family.contains(t):
            continue
        for i in range(n):
            u = t ^ (3 << (2 * i))
            if u > t and family.contains(u):
                return PropertyReport(
                    "flip-susceptible", False, (ElementSet(t, m), ElementSet(u, m)), checked
                )
    return PropertyReport("flip-susceptible", True, None, checked)


def degree_histogram_loop(vertices, edges) -> dict[int, int]:
    deg = dict.fromkeys(vertices, 0)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    hist: dict[int, int] = {}
    for d in deg.values():
        hist[d] = hist.get(d, 0) + 1
    return hist


def bipartition_loop(vertices, edges) -> FlipGraphReport:
    """Breadth-first 2-coloring with a per-vertex queue from the lowest
    unvisited vertex of each component, then comparison of the sides with
    the element-sum parity classes."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side: dict[int, int] = {}
    bipartite = True
    components = 0
    for start in vertices:
        if start in side:
            continue
        components += 1
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in side:
                    side[w] = side[v] ^ 1
                    queue.append(w)
                elif side[w] == side[v]:
                    bipartite = False
    odd = frozenset(v for v in vertices if sum_parity(v) == "odd")
    even = frozenset(vertices) - odd
    side0 = frozenset(v for v in vertices if side[v] == 0)
    side1 = frozenset(vertices) - side0
    return FlipGraphReport(
        bipartite=bipartite,
        connected=components == 1,
        odd_class_size=len(odd),
        even_class_size=len(even),
        matches_parity=bipartite and {side0, side1} == {odd, even},
    )
