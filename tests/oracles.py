"""Deliberately naive reference implementations used by the tests.

Everything here favors the most literal reading of a definition over
speed and avoids the library's bit tricks, vectorization, and pruning:
sets are frozensets of 1-based elements, quantifiers are plain loops.
Values frozen in the test modules were produced by these routines.
"""

from collections import deque
from itertools import combinations, permutations, product
from math import factorial

import numpy as np

from cuberamsey import (
    Coloring,
    ColoringFormatError,
    ElementSet,
    FlipGraphReport,
    PropertyReport,
    copy_image_masks,
    find_copy,
    parse_coloring,
)
from cuberamsey.lattice import (
    MAX_GROUND_SIZE,
    missed_count_table,
    pair_count_table,
    popcount_table,
)
from cuberamsey.search import _candidate_swaps, _swap


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


def verify_embedding_loop(e, family=None) -> str | None:
    """The embedding check over all ordered source pairs, with both
    cardinality-gap and top-children bounds: membership, distinct images,
    then the subset biconditional and the gap on each pair (a, b), a then
    b ascending, then the top children.  Returns the first violation, or
    None."""
    size = 1 << e.n
    vals = e.images
    if family is not None:
        for a in range(size):
            if not family.mask[vals[a]]:
                return f"image {ElementSet(vals[a], e.m)} of {ElementSet(a, e.n)} not in family"
    seen: dict[int, int] = {}
    for a in range(size):
        if vals[a] in seen:
            return (
                f"images of {ElementSet(seen[vals[a]], e.n)} and "
                f"{ElementSet(a, e.n)} coincide"
            )
        seen[vals[a]] = a
    for a in range(size):
        for b in range(size):
            if a == b:
                continue
            sub = a & b == a
            img_sub = vals[a] & vals[b] == vals[a]
            if sub != img_sub:
                return f"order violated on ({ElementSet(a, e.n)}, {ElementSet(b, e.n)})"
            if sub:
                gap = vals[b].bit_count() - vals[a].bit_count()
                if gap < b.bit_count() - a.bit_count():
                    return (
                        "cardinality gap too small on "
                        f"({ElementSet(a, e.n)}, {ElementSet(b, e.n)})"
                    )
    full = size - 1
    top_size = vals[full].bit_count()
    inter = [0] * size
    inter[0] = (1 << e.m) - 1
    for imask in range(1, size):
        low = imask & -imask
        inter[imask] = inter[imask ^ low] & vals[full ^ low]
        if inter[imask].bit_count() > top_size - imask.bit_count():
            return (
                f"top children over {ElementSet(imask, e.n)} intersect "
                "in too many elements"
            )
    return None


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


def high_part_loop(d: int, low_bits: int) -> int:
    """d with its lowest low_bits set bits cleared, one at a time (none left
    when d has no more than low_bits set bits)."""
    high = d
    for _ in range(low_bits):
        high &= high - 1
    return high


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
    return Coloring(red, scheme=scheme)


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
        if not family.mask[t]:
            continue
        for i in range(n):
            u = t ^ (3 << (2 * i))
            if u > t and family.mask[u]:
                return PropertyReport(
                    "flip-susceptible", False, (ElementSet(t, m), ElementSet(u, m)), checked
                )
    return PropertyReport("flip-susceptible", True, None, checked)


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


# The three band checks as they were before profile tables: band masks over
# the dense per-subset tables, a full-size AND per check, and checked counts
# from count_nonzero.

def _band_report_full(name: str, bad: np.ndarray, m: int, checked: int) -> PropertyReport:
    if bad.any():
        return PropertyReport(name, False, ElementSet(int(np.flatnonzero(bad)[0]), m), checked)
    return PropertyReport(name, True, None, checked)


def pair_enforcing_tables(family, n: int) -> PropertyReport:
    m = 2 * n
    sizes = popcount_table(m)
    band = (sizes >= (n + 1) // 2) & (sizes < n)
    bad = family.mask & band & (pair_count_table(m) == 0)
    return _band_report_full("pair-enforcing", bad, m, int(np.count_nonzero(band)))


def miss_forbidding_tables(family, n: int) -> PropertyReport:
    m = 2 * n
    sizes = popcount_table(m)
    band = (sizes > n) & (sizes <= n + n // 2)
    bad = family.mask & band & (missed_count_table(m) > 0)
    return _band_report_full("miss-forbidding", bad, m, int(np.count_nonzero(band)))


def not_too_high_tables(family, n: int) -> PropertyReport:
    m = 2 * n
    bad = family.mask & (popcount_table(m) > n + n // 2)
    return _band_report_full("not-too-high", bad, m, family.size)


def qrc1_where(c: Coloring) -> str:
    """The QRC1 text as it was rendered before the in-place write: the R/B
    payload by np.where, copied into a newline-framed buffer."""
    width = min(64, c.red.size)
    lines = np.full((c.red.size // width, width + 1), ord("\n"), dtype=np.uint8)
    lines[:, :-1] = np.where(c.red, np.uint8(ord("R")), np.uint8(ord("B"))).reshape(-1, width)
    return f"QRC1\nm={c.m}\nscheme={c.scheme}\n" + lines.tobytes().decode("ascii")


def family_swaps_members(family) -> list[tuple[int, int]]:
    """The candidate swaps that map every member into the family, each
    checked by one vectorised gather of the swapped member array."""
    members = family.member_values().astype(np.uint32)
    return [
        g for g in _candidate_swaps(family.m) if family.mask[_swap(members, *g)].all()
    ]


# Helpers that once shipped in the package with no caller there: mask-level
# pair probes, layers, pair indices, member completion and the distinct
# copy count.

_EVEN_BITS = 0x55555555  # bits 0, 2, 4, ...: one probe position per pair


def pair_probe(bits: int) -> int:
    """Bit 2i-2 set iff pair i is fully contained in the mask."""
    return bits & (bits >> 1) & _EVEN_BITS


def hit_probe(bits: int) -> int:
    """Bit 2i-2 set iff the mask contains at least one element of pair i."""
    return (bits | (bits >> 1)) & _EVEN_BITS


def layer_masks(m: int, k: int):
    """All masks of popcount k over [m] in strictly increasing value order,
    by the same-popcount successor trick."""
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


def iterate_layer(m: int, k: int):
    """All size-k subsets of [m], in increasing encoded-value order."""
    for bits in layer_masks(m, k):
        yield ElementSet(bits, m)


def extend_to_maximal(family, s: ElementSet, n: int) -> ElementSet:
    """Grow a member of a restrictive family to a superset of size n + n//2
    with exactly n//2 pairs and no missed pair.

    Deterministic choice rule: complete existing singles to pairs in
    ascending pair-index order until n//2 pairs exist; if singles run out,
    add whole fresh pairs lowest index first; finally add the lower element
    of every still-missed pair.  Raises if the input already has more than
    n//2 pairs, which cannot happen for a member of a restrictive family.
    """
    if family.m != 2 * n:
        raise ValueError(f"family is over [{family.m}] but the check needs [{2 * n}]")
    if s.m != family.m:
        raise ValueError(f"set over [{s.m}] but family is over [{family.m}]")
    if not family.mask[s.bits]:
        raise ValueError(f"{s} is not a member of the family")

    target_pairs = n // 2
    bits = s.bits
    have = pair_probe(bits).bit_count()
    if have > target_pairs:
        raise ValueError(f"{s} has {have} pairs, more than {target_pairs}")

    for i in range(n):
        if have == target_pairs:
            break
        probe = 1 << (2 * i)
        # A single in pair i+1: hit but not complete.
        if hit_probe(bits) & probe and not pair_probe(bits) & probe:
            bits |= 3 << (2 * i)
            have += 1
    for i in range(n):
        if have == target_pairs:
            break
        probe = 1 << (2 * i)
        if not hit_probe(bits) & probe:
            bits |= 3 << (2 * i)
            have += 1
    still_missed = hit_probe(bits)
    for i in range(n):
        if not still_missed >> (2 * i) & 1:
            bits |= 1 << (2 * i)
    return ElementSet(bits, s.m)


def count_distinct_copies(family, n: int, prune: bool = True) -> tuple[int, int]:
    """Count embeddings as labeled maps and as distinct image families.

    Every image family is the image of exactly n! embeddings, so the
    distinct count is the labeled count divided by n!.  Proof.  Let f and g
    be embeddings with the same image family.  Both are bijections onto it
    that preserve inclusion both ways, so h = g^-1 o f is an automorphism
    of the order 2^[n].  h permutes the singletons (the sets just above the
    bottom), say by the permutation s of [n], and preserves unions (least
    upper bounds); every set is the union of its singletons, so h(A) = s(A)
    and f = g o s.  Conversely f o s is an embedding with f's image family
    for each of the n! permutations s, and these maps differ, as f is
    injective.
    """
    count = find_copy(family, n, "count", prune).count
    return count, count // factorial(n)


def export_edges_percent(graph) -> str:
    """The edge list as it was formatted before the digit tables: the edge
    values as Python ints, ``"%d %d\\n"`` per edge, 2^16 edges per ``%``."""
    edges, text = graph.edges, []
    for lo in range(0, len(edges), 1 << 16):
        block = edges[lo : lo + (1 << 16)]
        text.append("%d %d\n" * len(block) % tuple(block.ravel().tolist()))
    return "".join(text)


def load_coloring_text(path) -> Coloring:
    """A QRC1 file read as it was before the byte-level parse: decoded
    whole as UTF-8 text (no newline translation), then parsed as str."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_coloring(fh.read())


def coloring_from_mask(r: int, m: int) -> Coloring:
    """The coloring of 2^[m] whose Red sets are the values v with bit v of
    the red mask ``r`` set, as the brute-force oracle numbers colorings."""
    red = np.array([r >> v & 1 for v in range(1 << m)], dtype=bool)
    return Coloring(red, scheme=f"brute-{r}")
