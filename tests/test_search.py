"""The embedding search engine against naive oracles, plus certificates,
pruning equivalence, worker determinism, and budget semantics."""

import os
import pickle
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from itertools import islice

import numpy as np
import pytest

import oracles
from oracles import count_distinct_copies, naive_count_embeddings
from conftest import random_family
from cuberamsey import (
    Color,
    Coloring,
    ElementSet,
    Embedding,
    SetFamily,
    copy_image_masks,
    find_copy,
    make_c0,
    make_c3,
    make_layered,
    verify_embedding,
)
from cuberamsey import search
from cuberamsey.reports import parse_embedding_block, render_embedding_block

PRUNE_NAMES = ("root-gap", "cardinality-window", "source-symmetry", "target-symmetry")

# (n, m) -> (labeled embeddings, distinct image families) in the full cube.
# Derived with the permutation oracle; 19 = 3^3 - 2^3 and 6 = 3! were also
# checked by hand.
FULL_CUBE_COUNTS = {
    (1, 1): (1, 1),
    (1, 2): (5, 5),
    (1, 3): (19, 19),
    (2, 2): (2, 1),
    (2, 3): (30, 15),
    (2, 4): (302, 151),
    (3, 3): (6, 1),
    (3, 4): (444, 74),
}


def full_family(m):
    return SetFamily(np.ones(1 << m, dtype=bool))


def members_of(fam):
    return [int(v) for v in fam.member_values()]


def swap_as_perm(mask, shift):
    """The element map of a (mask, shift) bit swap, on 1-based elements."""
    perm = {}
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            perm[i + 1] = i + 1 + shift
            perm[i + 1 + shift] = i + 1
    return perm


def group_order(perms, m):
    """Order of the group of element permutations generated by ``perms``."""
    gens = [tuple(p.get(j, j) for j in range(1, m + 1)) for p in perms]
    identity = tuple(range(1, m + 1))
    group = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = tuple(h[g[j] - 1] for j in range(m))
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return len(group)


class TestVerifyEmbedding:
    def test_identity_on_full_cube(self):
        e = Embedding(2, 2, (0, 1, 2, 3))
        assert verify_embedding(e) is None
        assert verify_embedding(e, full_family(2)) is None

    def test_uniform_augmentation(self):
        # S -> S + {3} over [3]
        e = Embedding(2, 3, (4, 5, 6, 7))
        assert verify_embedding(e) is None

    def test_order_violation(self):
        e = Embedding(1, 2, (1, 0))
        assert verify_embedding(e) == "order violated on ({}, {1})"

    def test_duplicate_images(self):
        e = Embedding(1, 2, (1, 1))
        assert verify_embedding(e) == "images of {} and {1} coincide"

    def test_membership_violation(self):
        fam = SetFamily.from_sets(2, [0])
        e = Embedding(1, 2, (0, 1))
        assert verify_embedding(e, fam) == "image {1} of {1} not in family"

    def test_incomparable_sources_comparable_images(self):
        # {1} and {2} map onto nested sets
        e = Embedding(2, 3, (0, 1, 3, 7))
        assert verify_embedding(e) is not None

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            verify_embedding(Embedding(2, 2, (0, 1, 2)))
        e = Embedding(1, 3, (0, 1))
        with pytest.raises(ValueError):
            verify_embedding(e, full_family(2))
        # Images outside 0..2^m - 1 are refused before the family is
        # indexed: -1 would wrap round to its last entry, a member.
        for bad in (-1, 8):
            e = Embedding(1, 3, (0, bad))
            for family in (None, full_family(3)):
                with pytest.raises(ValueError, match=f"image value {bad} outside 0..7"):
                    verify_embedding(e, family)

    def test_agrees_with_pairwise_loop(self):
        # Seeded maps, n <= 4 and m <= 7: product embeddings (valid), the
        # same with one image replaced or two images swapped, and random
        # maps, each checked alone and against a family.
        rng = random.Random(20261019)
        verdicts = {True: 0, False: 0}
        for _ in range(3000):
            n = rng.randint(1, 4)
            m = rng.randint(n, 7)
            elements = rng.sample(range(m), m)
            parts = [1 << elements[i] for i in range(n)]
            for j in elements[n:]:
                if rng.random() < 0.5:
                    parts[rng.randrange(n)] |= 1 << j
            base = sum(1 << j for j in elements[n:] if rng.random() < 0.3) & ~sum(parts)
            values = [
                base | sum(p for i, p in enumerate(parts) if a >> i & 1) for a in range(1 << n)
            ]
            kind = rng.randrange(4)
            if kind == 1:
                values[rng.randrange(1 << n)] = rng.randrange(1 << m)
            elif kind == 2:
                a, b = rng.sample(range(1 << n), 2)
                values[a], values[b] = values[b], values[a]
            elif kind == 3:
                values = [rng.randrange(1 << m) for _ in range(1 << n)]
            e = Embedding(n, m, tuple(values))
            fam = SetFamily.from_sets(
                m, [v for v in range(1 << m) if v in values or rng.random() < 0.2]
            )
            for family in (None, fam if rng.random() < 0.9 else random_family(m, rng)):
                want = oracles.verify_embedding_loop(e, family)
                got = verify_embedding(e, family)
                assert (got is None) == (want is None), (values, family)
                verdicts[got is None] += 1
                if want is not None and "order" not in want and "gap" not in want:
                    assert got == want
        assert min(verdicts.values()) > 1000

    def test_checks_n12_in_milliseconds(self):
        e = Embedding(12, 12, tuple(range(1 << 12)))
        start = time.perf_counter()
        assert verify_embedding(e, full_family(12)) is None
        assert time.perf_counter() - start < 0.2

    def test_image_of(self):
        # Entry i is the image of the source set encoded by i, in the
        # report's block as in the embedding.
        e = Embedding(2, 3, (0, 1, 2, 7))
        lines = render_embedding_block(e)
        assert lines[3] == "{1,2} -> {1,2,3}"
        assert parse_embedding_block(lines, 2, 3) == e


class TestFindCopyBasics:
    def test_rejects_bad_mode_and_n(self):
        fam = full_family(2)
        with pytest.raises(ValueError):
            find_copy(fam, 1, mode="all")
        with pytest.raises(ValueError):
            find_copy(fam, 0)

    def test_rejects_workers_below_one(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("searched with no worker")

        # Refused before the automorphism checks and the search.
        monkeypatch.setattr(search, "_family_swaps", unreachable)
        monkeypatch.setattr(search, "_Engine", unreachable)
        red = make_c0(2).color_class(Color.RED)
        for workers in (0, -3):
            with pytest.raises(ValueError, match=f"need workers >= 1, got {workers}"):
                find_copy(red, 2, workers=workers)

    def test_source_larger_than_ground_is_absent(self):
        out = find_copy(full_family(2), 3)
        assert out.status == "absent"
        assert out.nodes_explored == 0
        out = find_copy(full_family(2), 3, mode="count")
        assert out.status == "absent" and out.count == 0

    def test_source_cap(self):
        fam = SetFamily.from_sets(13, [])
        with pytest.raises(ValueError):
            find_copy(fam, 13)
        assert find_copy(fam, 14).status == "absent"

    def test_identity_comes_first_on_full_cube(self):
        for n in (1, 2, 3):
            out = find_copy(full_family(n), n)
            assert out.status == "found"
            assert out.embedding.images == tuple(range(1 << n))

    def test_deterministic_witness(self):
        fam = make_c0(3).color_class(Color.RED)
        a = find_copy(fam, 3)
        b = find_copy(fam, 3)
        assert a.embedding == b.embedding

    def test_outcome_fields(self):
        out = find_copy(full_family(2), 2)
        assert out.status == "found"
        assert out.count is None
        assert set(out.prune_hits) == set(PRUNE_NAMES)


class TestCountsAgainstOracles:
    @pytest.mark.parametrize("n,m", sorted(FULL_CUBE_COUNTS))
    def test_full_cube_frozen_counts(self, n, m):
        labeled, distinct = FULL_CUBE_COUNTS[(n, m)]
        got_labeled, got_distinct = count_distinct_copies(full_family(m), n)
        assert (got_labeled, got_distinct) == (labeled, distinct)
        out = find_copy(full_family(m), n, mode="count")
        assert out.status == "found" and out.count == labeled
        assert len(copy_image_masks(n, m)) == distinct

    @pytest.mark.parametrize(
        "n,m", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3)]
    )
    def test_naive_routes_agree_on_full_cube(self, n, m):
        # Three ways: pruned engine, the library's permutation oracle, and
        # the test-side frozenset oracle.  (3,4) is beyond the naive routes.
        labeled = FULL_CUBE_COUNTS[(n, m)][0]
        members = list(range(1 << m))
        assert naive_count_embeddings(members, n) == labeled
        assert oracles.count_embeddings_literal(members, n) == labeled

    @pytest.mark.parametrize("n", [1, 2])
    def test_seeded_families_match_naive(self, n):
        for m in range(1, 5):
            rng = random.Random(1000 * n + m)
            for _ in range(10):
                fam = random_family(m, rng, density=rng.uniform(0.2, 0.9))
                members = members_of(fam)
                expected = naive_count_embeddings(members, n)
                out = find_copy(fam, n, mode="count")
                assert out.count == expected
                assert (out.status == "found") == (expected > 0)
                first = find_copy(fam, n)
                assert (first.status == "found") == (expected > 0)
                if first.status == "found":
                    assert verify_embedding(first.embedding, fam) is None

    def test_distinct_catalog_matches_engine_everywhere(self):
        for m in range(1, 5):
            for n in range(1, m + 1):
                _, distinct = count_distinct_copies(full_family(m), n)
                assert distinct == len(copy_image_masks(n, m))

    def test_count_distinct_caps(self):
        assert count_distinct_copies(full_family(2), 3) == (0, 0)


class TestStructuralCases:
    @pytest.mark.parametrize(
        "color,prune,nodes",
        [
            (Color.RED, True, 2234),
            (Color.RED, False, 11620),
            (Color.BLUE, True, 666),
            (Color.BLUE, False, 2830),
        ],
    )
    def test_c3_classes_hold_no_q3(self, color, prune, nodes):
        out = find_copy(make_c3().color_class(color), 3, prune=prune)
        assert out.status == "absent"
        assert out.nodes_explored == nodes

    def test_non_join_respecting_copy_is_found(self):
        # The only copies send {1,2} to {1,2,3}, a strict superset of the
        # union of the middle images; the search must not assume unions.
        fam = SetFamily.from_sets(3, [0, 1, 2, 7])
        out = find_copy(fam, 2)
        assert out.status == "found"
        e = out.embedding
        assert e.images[3] == 7
        assert e.images[1] | e.images[2] != e.images[3]
        assert find_copy(fam, 2, mode="count").count == 2

    def test_monotone_under_family_growth(self):
        rng = random.Random(77)
        for _ in range(20):
            fam = random_family(4, rng, density=0.4)
            out = find_copy(fam, 2)
            grown = fam.with_toggled(rng.randrange(16)) if rng.random() < 0.5 else fam
            bigger = SetFamily(fam.mask | grown.mask)
            if out.status == "found":
                assert find_copy(bigger, 2).status == "found"

    def test_complement_image_preserves_search(self):
        rng = random.Random(88)
        for n in (1, 2, 3):
            for _ in range(10):
                fam = random_family(2 * n, rng, density=0.5)
                comp = fam.complement_image()
                a = find_copy(fam, n, mode="count")
                b = find_copy(comp, n, mode="count")
                assert a.status == b.status
                assert a.count == b.count


class TestLayeredAbsence:
    def test_layered_q5_has_no_copy_either_side(self):
        lay = make_layered(5)
        for color in (Color.RED, Color.BLUE):
            out = find_copy(lay.color_class(color), 3)
            assert out.status == "absent"
            assert out.nodes_explored == 42
            assert out.prune_hits == {
                "root-gap": 40,
                "cardinality-window": 152,
                "source-symmetry": 168,
                "target-symmetry": 4,
            }

    def test_prune_off_explores_more_but_agrees(self):
        lay = make_layered(5)
        out = find_copy(lay.color_class(Color.RED), 3, prune=False)
        assert out.status == "absent"
        assert out.nodes_explored == 825
        assert all(v == 0 for v in out.prune_hits.values())


def assert_prune_agrees(fam, n):
    """Witness, labeled count and distinct count agree with and without
    pruning."""
    a = find_copy(fam, n, mode="count", prune=True)
    b = find_copy(fam, n, mode="count", prune=False)
    assert (a.status, a.count) == (b.status, b.count)
    a = find_copy(fam, n, prune=True)
    b = find_copy(fam, n, prune=False)
    assert (a.status, a.embedding) == (b.status, b.embedding)
    assert count_distinct_copies(fam, n, prune=True) == (
        count_distinct_copies(fam, n, prune=False)
    )


class TestPruneEquivalence:
    def test_full_cubes(self):
        # Covers the n! orbit factor for every n <= m <= 4, n = 1 included.
        for m in range(1, 5):
            for n in range(1, m + 1):
                assert_prune_agrees(full_family(m), n)

    def test_layered_families(self):
        for m in (3, 4, 5):
            for color in (Color.RED, Color.BLUE):
                for n in (1, 2, 3):
                    assert_prune_agrees(make_layered(m).color_class(color), n)

    def test_seeded_families_counts_and_witnesses(self):
        for m in range(1, 6):
            rng = random.Random(4000 + m)
            for _ in range(8):
                fam = random_family(m, rng, density=rng.uniform(0.4, 0.95))
                for n in range(1, min(m, 4) + 1):
                    a = find_copy(fam, n, mode="count", prune=True)
                    b = find_copy(fam, n, mode="count", prune=False)
                    assert (a.status, a.count) == (b.status, b.count)
                    a = find_copy(fam, n, prune=True)
                    b = find_copy(fam, n, prune=False)
                    assert (a.status, a.embedding) == (b.status, b.embedding)

    def test_random_families(self):
        rng = random.Random(55)
        for _ in range(25):
            m = rng.randint(2, 5)
            n = rng.randint(1, min(m, 3))
            fam = random_family(m, rng, density=rng.uniform(0.3, 0.9))
            a = find_copy(fam, n, prune=True)
            b = find_copy(fam, n, prune=False)
            assert a.status == b.status
            if a.status == "found":
                assert a.embedding == b.embedding
            ac = find_copy(fam, n, mode="count", prune=True)
            bc = find_copy(fam, n, mode="count", prune=False)
            assert ac.count == bc.count

    def test_paired_scheme_q6(self):
        for k in (2, 3):
            for color in (Color.RED, Color.BLUE):
                for n in range(1, k + 1):
                    assert_prune_agrees(make_c0(k).color_class(color), n)
        for color in (Color.RED, Color.BLUE):
            assert find_copy(make_c0(3).color_class(color), 3).status == "found"


class TestTargetSymmetry:
    def test_paired_scheme_q8_against_every_root_pair(self, monkeypatch):
        # prune=False takes about 20 s here, so the reference keeps the
        # other reductions and tries every root pair.
        c0 = make_c0(4)
        for color in (Color.RED, Color.BLUE):
            fam = c0.color_class(color)
            assert find_copy(fam, 4).status == "absent"
            assert find_copy(fam, 4, mode="count").count == 0
            assert count_distinct_copies(fam, 4) == (0, 0)
        monkeypatch.setattr(search, "_family_swaps", lambda family, deadline=None: [])
        for color, nodes in ((Color.RED, 36151), (Color.BLUE, 86132)):
            out = find_copy(c0.color_class(color), 4)
            assert out.status == "absent"
            assert out.nodes_explored == nodes
            assert out.prune_hits["target-symmetry"] == 0

    @pytest.mark.parametrize("n,order", [(4, 48), (5, 120), (6, 1440)])
    def test_paired_scheme_group_orders(self, n, order):
        # n! pair permutations, times the swap inside every pair for even n.
        c0 = make_c0(n)
        for color in (Color.RED, Color.BLUE):
            fam = c0.color_class(color)
            perms = [swap_as_perm(*g) for g in search._family_swaps(fam)]
            assert group_order(perms, 2 * n) == order
            members = set(members_of(fam))
            for perm in perms:
                assert {oracles.permute_elements(x, perm) for x in members} == members

    def test_swaps_match_member_gather(self):
        families = []
        for n in range(1, 9):
            c0 = make_c0(n)
            families += [c0.color_class(Color.RED), c0.color_class(Color.BLUE)]
        rng = random.Random(1700)
        for _ in range(40):
            m = rng.randint(1, 12)
            # Both sides of the member-count threshold between the two forms.
            fam = random_family(m, rng, density=rng.choice([0.01, 0.05, 0.5, 0.95]))
            families.append(fam)
            # The union with its image under a swap is closed under that swap.
            swaps = search._candidate_swaps(m)
            if swaps:
                idx = np.arange(1 << m, dtype=np.uint32)
                image = fam.mask[search._swap(idx, *rng.choice(swaps))]
                families.append(SetFamily(fam.mask | image))
        kept = 0
        for fam in families:
            swaps = search._family_swaps(fam)
            assert swaps == oracles.family_swaps_members(fam)
            kept += len(swaps)
        assert kept > len(families)

    def test_kept_generators_are_automorphisms(self):
        c0 = make_c0(4).color_class(Color.RED)
        rng = random.Random(606)
        toggles = [0, 3, 15, 85, 170, 255] + [rng.randrange(256) for _ in range(10)]
        kept_counts = set()
        for v in toggles:
            fam = c0.with_toggled(v)
            members = set(members_of(fam))
            kept = search._family_swaps(fam)
            for g in search._candidate_swaps(8):
                perm = swap_as_perm(*g)
                maps_onto = {oracles.permute_elements(x, perm) for x in members} == members
                assert (g in kept) == maps_onto, (v, g)
            kept_counts.add(len(kept))
        # The empty set is fixed by every map, so toggling it keeps all four.
        assert 4 in kept_counts and min(kept_counts) < 4

    def test_root_pairs_match_orbit_oracle(self):
        cases = [
            (make_c0(3).color_class(Color.RED), 3),
            (make_c0(4).color_class(Color.RED), 4),
            (make_c0(4).color_class(Color.BLUE), 4),
            (make_c0(4).color_class(Color.BLUE).with_toggled(0b00001111), 4),
            (make_layered(5).color_class(Color.RED), 3),
            (full_family(4), 2),
        ]
        rng = random.Random(707)
        for _ in range(10):
            m = rng.randint(2, 6)
            fam = random_family(m, rng, density=rng.uniform(0.5, 1.0))
            cases.append((fam, rng.randint(1, m)))
        for fam, n in cases:
            eng = search._Engine(fam, n, "first", True, None)
            tasks = list(eng._root_pairs())
            pairs = [(b, t, size) for b, t, size, _ in tasks]
            perms = [swap_as_perm(*g) for g in search._family_swaps(fam)]
            assert pairs == oracles.root_orbits_literal(members_of(fam), n, perms)
            skipped = sum(hits["target-symmetry"] for *_, hits in tasks)
            skipped += eng.rest["target-symmetry"]
            assert skipped == sum(size - 1 for _, _, size in pairs)


def full_source_lists(n):
    """The engine's step records with every earlier proper subset as a
    child and every earlier incomparable source as a probe."""
    order, subs, _, incs = oracles.prepare_sources_loop(n)
    steps = [(subs[k], incs[k], order[k].bit_count()) for k in range(2, len(order))]
    return order, [None, None] + steps


class TestPrepareSources:
    def test_matches_pairwise_loop(self):
        for n in range(1, 9):
            order, subs, sups, incs = oracles.prepare_sources_loop(n)
            got_order, steps = search._prepare_sources(n)
            assert got_order == order
            assert len(steps) == len(order)
            assert steps[:2] == [None, None]
            for k in range(2, len(order)):
                children, probes, size = steps[k]
                # The top is the only earlier proper superset.
                assert sups[k] == [1]
                assert size == order[k].bit_count()
                assert sorted(children) == [j for j in subs[k] if order[j].bit_count() == size - 1]
                assert sorted(probes) == [j for j in incs[k] if order[j].bit_count() == 1]
                assert len(children) <= n and len(probes) <= n

    def test_full_lists_change_no_outcome(self, monkeypatch):
        cases = [(full_family(m), n) for m in range(1, 5) for n in range(1, m + 1)]
        rng = random.Random(1515)
        for m in range(1, 7):
            for _ in range(4):
                fam = random_family(m, rng, density=rng.uniform(0.4, 0.95))
                cases.append((fam, rng.randint(1, min(m, 4))))

        def outcomes():
            return [
                find_copy(fam, n, mode=mode, prune=prune)
                for fam, n in cases
                for mode in ("first", "count")
                for prune in (True, False)
            ]

        expected = outcomes()
        monkeypatch.setattr(search, "_prepare_sources", full_source_lists)
        got = outcomes()
        assert sum(out.status == "found" for out in expected) > len(expected) // 4
        for a, b in zip(got, expected):
            assert (a.status, a.embedding, a.count) == (b.status, b.embedding, b.count)
            assert (a.nodes_explored, a.prune_hits) == (b.nodes_explored, b.prune_hits)

    def test_memory_bound(self):
        # Full pairwise lists would hold 8.4 M entries at n = 12 (290 MB traced).
        tracemalloc.start()
        try:
            search._prepare_sources.__wrapped__(12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestDeepSearch:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_cube_n10(self, workers):
        # 1,024 positions: the recursion runs past the default limit of 1,000.
        fam = full_family(10)
        out = find_copy(fam, 10, workers=workers)
        assert out.status == "found"
        assert out.embedding.images == tuple(range(1 << 10))
        assert verify_embedding(out.embedding, fam) is None


class TestInWindowGeneration:
    def test_helpers_match_brute_force_filter(self):
        for d in range(1 << 8):
            subs = [w for w in range(d + 1) if w & d == w]
            k = d.bit_count()
            for lo in range(-1, 10):
                for hi in range(-1, 10):
                    kept = [w for w in subs if lo <= w.bit_count() <= hi]
                    assert search._submasks_in_window(d, lo, hi) == kept
                    assert search._window_skipped(k, lo, hi) == len(subs) - len(kept)

    def test_high_part_matches_clearing_low_bits(self):
        # The engine's high part takes the top |d| - _LOW_BITS set bits of d.
        for low_bits in range(11):
            for d in range(1 << 14):
                high = search._top_bits(d, d.bit_count() - low_bits)
                assert high == oracles.high_part_loop(d, low_bits)

    @pytest.mark.parametrize("low_bits", [0, 1, 2, 3])
    def test_split_candidate_lists_change_nothing(self, monkeypatch, low_bits):
        # Small low parts send every level through the chunked path.
        cases = [
            (make_layered(5).color_class(Color.RED), 3),
            (make_c0(3).color_class(Color.RED), 3),
            (make_c0(3).color_class(Color.BLUE), 3),
            (full_family(4), 3),
        ]
        expected = []
        for fam, n in cases:
            for prune in (True, False):
                for mode in ("first", "count"):
                    expected.append(find_copy(fam, n, mode=mode, prune=prune))
        monkeypatch.setattr(search, "_LOW_BITS", low_bits)
        got = []
        for fam, n in cases:
            for prune in (True, False):
                for mode in ("first", "count"):
                    got.append(find_copy(fam, n, mode=mode, prune=prune))
        for a, b in zip(got, expected):
            assert (a.status, a.embedding, a.count) == (b.status, b.embedding, b.count)
            assert (a.nodes_explored, a.prune_hits) == (b.nodes_explored, b.prune_hits)


    @pytest.mark.parametrize("cached", [1, 2, 5, 50])
    def test_evicted_low_lists_change_nothing(self, monkeypatch, cached):
        # A small cache clears the engine's low lists again and again, so
        # lists are built anew for keys met before.
        cases = [
            (make_c0(3).color_class(Color.RED), 3),
            (make_c0(4).color_class(Color.RED), 4),
            (make_c0(4).color_class(Color.BLUE), 4),
            (make_layered(6).color_class(Color.RED), 3),
        ]

        def runs():
            out = []
            for fam, n in cases:
                first = find_copy(fam, n)
                count = find_copy(fam, n, mode="count").count
                out.append((first.status, first.embedding, first.nodes_explored,
                            first.prune_hits, count))
            return out

        built = []
        submasks = search._submasks_in_window

        def counted(*key):
            built.append(key)
            return submasks(*key)

        monkeypatch.setattr(search, "_submasks_in_window", counted)
        expected = runs()
        keys = len(built)
        monkeypatch.setattr(search, "_CACHED_ENTRIES", cached)
        built.clear()
        assert runs() == expected
        assert len(built) > keys


class TestC0N4Audit:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_frozen_counters(self, workers):
        expected = {
            Color.RED: (2784, 1004, 24241, 14538, 420),
            Color.BLUE: (7339, 1088, 60534, 48836, 424),
        }
        c0 = make_c0(4)
        for color, (nodes, gap, window, source, target) in expected.items():
            out = find_copy(c0.color_class(color), 4, workers=workers)
            assert out.status == "absent"
            assert out.nodes_explored == nodes
            assert out.prune_hits == {
                "root-gap": gap,
                "cardinality-window": window,
                "source-symmetry": source,
                "target-symmetry": target,
            }


def planted_c0_n4(color, mask, free):
    """c0 n = 4 with every set mask | w, w a submask of free, recolored to
    color: a planted copy of 2^[4] in that class when free has 4 elements."""
    c0 = make_c0(4)
    red = c0.red.copy()
    w = free
    while True:
        red[mask | w] = color is Color.RED
        if not w:
            break
        w = (w - 1) & free
    return Coloring(red, "planted").color_class(color)


# Planted-copy families of the kind the benchmark scans: Red copies below a
# 4-set of [6], Blue copies above {a, 8} over the two pairs of [6] that a's
# pair leaves out.
PLANTED = [
    (Color.RED, 0, 0b001111),
    (Color.RED, 0, 0b110101),
    (Color.RED, 0, 0b101110),
    (Color.BLUE, 0b10000100, 0b110011),
    (Color.BLUE, 0b10000001, 0b111100),
]


class TestWorkers:
    def test_found_witness_matches_sequential(self):
        # The fold stops at the find in task order, so the counters of a
        # found outcome do not depend on how far the pool ran ahead either.
        cases = [(make_c0(3).color_class(Color.RED), 3)]
        cases += [(planted_c0_n4(*plant), 4) for plant in PLANTED]
        for fam, n in cases:
            seq = find_copy(fam, n, workers=1)
            assert seq.status == "found"
            for workers in (2, 3):
                par = find_copy(fam, n, workers=workers)
                assert (par.status, par.embedding) == (seq.status, seq.embedding)
                assert par.nodes_explored == seq.nodes_explored
                assert par.prune_hits == seq.prune_hits

    def test_absent_audit_matches_sequential(self):
        fam = make_layered(5).color_class(Color.RED)
        seq = find_copy(fam, 3, workers=1)
        for workers in (2, 3):
            par = find_copy(fam, 3, workers=workers)
            assert par.status == "absent"
            assert par.nodes_explored == seq.nodes_explored
            assert par.prune_hits == seq.prune_hits

    def test_count_matches_sequential(self):
        fam = full_family(3)
        seq = find_copy(fam, 2, mode="count", workers=1)
        par = find_copy(fam, 2, mode="count", workers=3)
        assert par.count == seq.count == 30

    def test_monochromatic_search_with_workers(self):
        c = make_c0(3)
        for color in Color:
            seq = find_copy(c.color_class(color), 3, workers=1)
            par = find_copy(c.color_class(color), 3, workers=2)
            assert seq.status == par.status == "found"
            assert par.embedding == seq.embedding


class TestBudget:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_budget_yields_inconclusive_never_absent(self, workers):
        # The red class of the paired scheme on [10] has no copy, and full
        # exhaustion takes minutes, so tiny budgets must stop early.
        fam = make_c0(5).color_class(Color.RED)
        for budget in (1.0, 5.0, 25.0):
            out = find_copy(fam, 5, budget_ms=budget, workers=workers)
            assert out.status == "inconclusive"
            assert out.embedding is None

    def test_generous_budget_still_completes(self):
        fam = make_layered(5).color_class(Color.RED)
        out = find_copy(fam, 3, budget_ms=60000.0)
        assert out.status == "absent"
        assert out.nodes_explored == 42

    def test_budget_holds_with_no_accepted_node(self):
        # The singleton level walks 2^22 candidates, none a member; the
        # deadline is checked per candidate chunk, not only per node.
        fam = SetFamily.from_sets(22, [0, (1 << 22) - 1])
        start = time.perf_counter()
        out = find_copy(fam, 2, budget_ms=50.0)
        assert out.status == "inconclusive"
        assert out.nodes_explored == 1
        assert time.perf_counter() - start < 2.0
        # An antichain: every root pair is rejected before it becomes a
        # node, so the deadline is checked per root bottom.
        fam = SetFamily.from_sets(20, [v for v in range(1 << 20) if v.bit_count() == 10]
        )
        start = time.perf_counter()
        out = find_copy(fam, 2, budget_ms=50.0)
        assert out.status == "inconclusive"
        assert out.nodes_explored == 0
        assert time.perf_counter() - start < 2.0

    def test_deadline_is_checked_between_swaps(self, monkeypatch):
        fam = make_c0(4).color_class(Color.RED)
        clock = iter(range(100))
        monkeypatch.setattr(search.time, "monotonic", lambda: next(clock))
        # Readings 0 and 1 let two swaps be checked; reading 2 is past 1.5.
        with pytest.raises(search._DeadlineHit):
            search._family_swaps(fam, 1.5)
        assert next(clock) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_deadline_hit_in_swap_checks_searches_nothing(self, monkeypatch, workers):
        def hit(family, deadline=None):
            raise search._DeadlineHit

        def unreachable(*args):
            raise AssertionError("no task may run and no worker start")

        monkeypatch.setattr(search, "_family_swaps", hit)
        monkeypatch.setattr(search._Engine, "run", unreachable)
        monkeypatch.setattr(os, "fork", unreachable)
        red = make_c0(4).color_class(Color.RED)
        out = find_copy(red, 4, budget_ms=1000.0, workers=workers)
        assert out.status == "inconclusive"
        assert out.nodes_explored == 0
        assert set(out.prune_hits.values()) == {0}

    def test_budget_holds_in_swap_checks(self):
        # Every set of [22] with at most 11 elements: 2.4 M members, which
        # the swap checks read as a 4 MB table, one swap at a time.
        sizes = np.bitwise_count(np.arange(1 << 22, dtype=np.uint32))
        fam = SetFamily(sizes <= 11)
        start = time.perf_counter()
        out = find_copy(fam, 2, budget_ms=10.0)
        assert out.status == "inconclusive"
        assert time.perf_counter() - start < 0.4

    def test_dense_family_budget_and_memory(self):
        # Every set of [20] with at most 3 elements, and [20] itself.  The
        # first root pair is ({}, [20]); at its singleton level 784,625 of
        # the 2^20 submasks fit the window, a list of about 28 MB if it
        # were materialised whole.
        sizes = np.array([bin(v).count("1") for v in range(1 << 20)])
        fam = SetFamily((sizes <= 3) | (sizes == 20))
        start = time.perf_counter()
        out = find_copy(fam, 10, budget_ms=200.0)
        elapsed = time.perf_counter() - start
        assert out.status == "inconclusive"
        assert out.nodes_explored > 1
        assert elapsed < 5.0
        tracemalloc.start()
        try:
            out = find_copy(fam, 10, budget_ms=200.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.status == "inconclusive"
        assert out.nodes_explored > 1
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_large_full_cube_first_mode_stops_early(self, workers):
        # 43 M root pairs over [16]; the copy sits at the first
        # representative, so neither time nor memory may grow with them,
        # and a pool must not be handed every pair up front.
        fam = full_family(16)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            out = find_copy(fam, 2, workers=workers)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.status == "found"
        assert out.nodes_explored == 3
        assert elapsed < 2.0
        assert peak < 32 * 2**20

    def test_walk_reads_members_in_place(self):
        # The 2^20 members over [20] take 4 MB as an array; as a list of
        # Python ints they would take 38 MB, and the supersets of the first
        # bottom, {}, as much again.
        fam = full_family(20)
        tracemalloc.start()
        try:
            out = find_copy(fam, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.status == "found"
        assert out.nodes_explored == 3
        assert peak < 24 * 2**20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hit_counts_only_the_tasks_run(self, monkeypatch, workers):
        # A deadline hit in the third task, which the calling process runs
        # at the head of the walk: the counters are those of the first three
        # tasks, with no root-pair rejection of a task not run.
        fam = make_c0(4).color_class(Color.BLUE)
        engine = search._Engine(fam, 4, "first", True, None)
        tasks = list(islice(engine._root_pairs(), 3))
        assert not any(search._large(task, 4) for task in tasks)
        nodes, hits = 0, dict.fromkeys(PRUNE_NAMES, 0)
        for task in tasks:
            _, _, task_nodes, task_hits, _ = engine.run(task)
            nodes += task_nodes
            hits = {name: hits[name] + task_hits[name] for name in PRUNE_NAMES}
        run = search._Engine.run

        def third_task_hits(self, task):
            *result, hit = run(self, task)
            return (*result, hit or task[:2] == tasks[2][:2])

        monkeypatch.setattr(search._Engine, "run", third_task_hits)
        out = find_copy(fam, 4, workers=workers)
        assert out.status == "inconclusive"
        assert (out.nodes_explored, out.prune_hits) == (nodes, hits)

    def test_found_beats_budget(self):
        out = find_copy(full_family(3), 2, budget_ms=60000.0)
        assert out.status == "found"

    def test_running_find_beats_earlier_deadline_hit(self, monkeypatch):
        # Both root pairs below hold a copy and are large, so each is a
        # submission of its own, and each goes to a worker of its own.  The
        # first task's find is turned into a deadline hit; the second, in
        # flight when the hit comes, still finds a copy, and that find wins.
        # No further task is taken.
        fam = SetFamily.from_sets(4, [v for v in range(16) if v.bit_count() in (0, 1, 3, 4)]
        )
        engine = search._Engine(fam, 2, "first", True, None)
        first, second = [t[:2] for t in islice(engine._root_pairs(), 2)]
        run, submission = search._Engine.run, search._submission

        def first_task_hits(self, task):
            found, count, nodes, hits, hit = run(self, task)
            if task[:2] == first:
                return None, count, nodes, hits, True
            return found, count, nodes, hits, hit

        taken = []

        def recorded(tasks, n):
            batch = submission(tasks, n)
            taken.extend(task[:2] for task in batch)
            return batch

        monkeypatch.setattr(search._Engine, "run", first_task_hits)
        monkeypatch.setattr(search, "_submission", recorded)
        out = find_copy(fam, 2, workers=2)
        assert out.status == "found"
        assert out.embedding.images[-1] == second[1]
        assert taken == [first, second]


def no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def forks(monkeypatch):
    """The values os.fork returns in the test's process while it runs."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def alarm():
    """Fail a test that blocks for 30 s instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("the search blocked")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestPool:
    def test_worker_exit_raises(self, monkeypatch, alarm):
        # The first task a forked worker runs ends that worker.
        fam = make_c0(4).color_class(Color.RED)
        caller, run = os.getpid(), search._Engine.run

        def worker_exits(self, task):
            if os.getpid() != caller:
                os._exit(1)
            return run(self, task)

        monkeypatch.setattr(search._Engine, "run", worker_exits)
        with pytest.raises(ChildProcessError, match="exited during a task"):
            find_copy(fam, 4, workers=2)
        assert no_children_left()

    @staticmethod
    def run_third_task(monkeypatch, third_task):
        """A family whose first two root pairs are large, so the calling
        process runs no task and each goes to a worker as a submission of
        its own.  The first task is made to miss at once, so its worker is
        handed the next submission, whose first task, the third, calls
        ``third_task``; the other worker finds a copy in the second after
        0.2 s.  Return the family and the second root pair."""
        fam = SetFamily.from_sets(4, [v for v in range(16) if v.bit_count() in (0, 1, 3, 4)]
        )
        engine = search._Engine(fam, 2, "first", True, None)
        tasks = list(islice(engine._root_pairs(), 3))
        assert search._large(tasks[0], 2) and search._large(tasks[1], 2)
        first, second, third = [task[:2] for task in tasks]
        run = search._Engine.run

        def run_slowly(self, task):
            if task[:2] == first:
                return None, 0, 1, task[3], False
            if task[:2] == second:
                time.sleep(0.2)
            if task[:2] == third:
                third_task(self)
            return run(self, task)

        monkeypatch.setattr(search._Engine, "run", run_slowly)
        return fam, second

    def test_earlier_find_kills_running_task(self, monkeypatch, alarm):
        # The third task spins for 10 s.  The find in the second comes
        # before it in task order, so the search returns without waiting
        # for the third and kills the worker running it.
        def spin(engine):
            end = time.monotonic() + 10.0
            while time.monotonic() < end:
                engine._tick(256)

        fam, second = self.run_third_task(monkeypatch, spin)
        start = time.monotonic()
        out = find_copy(fam, 2, workers=2)
        assert time.monotonic() - start < 5.0
        assert out.status == "found"
        assert out.embedding.images[-1] == second[1]
        assert no_children_left()

    def test_task_ending_while_killed_leaves_no_traceback(self, monkeypatch, capfd, alarm):
        # The third task ends 0.3 s after it starts, while its worker is
        # being killed (os.kill waits 1 s first).  Its worker still has
        # its result pipe to write to, so it does not die on a closed pipe.
        fam, second = self.run_third_task(monkeypatch, lambda engine: time.sleep(0.3))
        kill = os.kill

        def slow_kill(pid, signum):
            time.sleep(1.0)
            kill(pid, signum)

        monkeypatch.setattr(os, "kill", slow_kill)
        out = find_copy(fam, 2, workers=2)
        assert out.status == "found"
        assert out.embedding.images[-1] == second[1]
        assert no_children_left()
        assert "Traceback" not in capfd.readouterr().err

    def test_every_worker_is_reaped(self, forks, alarm):
        cases = [
            (planted_c0_n4(*PLANTED[3]), 4, None, "found"),
            (make_c0(4).color_class(Color.BLUE), 4, None, "absent"),
            (make_c0(5).color_class(Color.RED), 5, 20.0, "inconclusive"),
        ]
        for fam, n, budget, status in cases:
            forks.clear()
            assert find_copy(fam, n, budget_ms=budget, workers=3).status == status
            assert 1 <= len(forks) <= 3
            assert no_children_left()

    def test_forks_only_past_the_head(self, forks, alarm):
        # These searches are decided by the small tasks at the head of the
        # walk, which the calling process runs itself.
        decided = [(planted_c0_n4(*plant), 4) for plant in PLANTED[:3]]
        decided.append((make_layered(5).color_class(Color.RED), 3))
        blue = make_c0(4).color_class(Color.BLUE)
        for workers in (2, 3):
            for fam, n in decided:
                forks.clear()
                find_copy(fam, n, workers=workers)
                assert forks == []
            forks.clear()
            assert find_copy(blue, 4, workers=workers).status == "absent"
            assert 1 <= len(forks) <= workers
        forks.clear()
        for fam, n in [*decided, (blue, 4)]:
            find_copy(fam, n, workers=1)
        assert forks == []

    def test_more_workers_than_members(self, monkeypatch, forks, alarm):
        # Seven members, eight workers: five of the ten tasks are large, so
        # the walk makes six submissions and the dispatch alone bounds the
        # forks by them.
        fam = SetFamily.from_sets(5, [0, 1, 2, 7, 11, 27, 31])
        seq = find_copy(fam, 2, mode="count", workers=1)
        assert forks == []
        submissions, submission = [], search._submission

        def counted(tasks, n):
            batch = submission(tasks, n)
            if batch:
                submissions.append(batch)
            return batch

        monkeypatch.setattr(search, "_submission", counted)
        par = find_copy(fam, 2, mode="count", workers=8)
        assert (par.status, par.count, par.nodes_explored, par.prune_hits) == (
            seq.status, seq.count, seq.nodes_explored, seq.prune_hits
        )
        assert (seq.status, seq.count, seq.prune_hits["target-symmetry"]) == ("found", 20, 4)
        assert len(submissions) == 6 and fam.size < 8
        assert 1 <= len(forks) <= len(submissions)
        assert no_children_left()

    def test_without_fork_the_search_runs_in_process(self, monkeypatch):
        fam = make_c0(4).color_class(Color.RED)
        seq = find_copy(fam, 4, workers=1)
        monkeypatch.delattr(os, "fork")
        par = find_copy(fam, 4, workers=2)
        assert (par.status, par.nodes_explored, par.prune_hits) == (
            seq.status, seq.nodes_explored, seq.prune_hits
        )

    def test_import_loads_no_process_pool(self):
        import cuberamsey

        code = (
            "import sys, cuberamsey.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cuberamsey.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_submissions(self):
        # n = 2: a root gap of 2, or of 3 above a non-empty bottom, is small;
        # 3 above the empty bottom, or 4, is large and ends a submission.
        tasks = iter([(1, 7), (1, 15), (0, 7), (0, 3), (0, 15), *[(0, 3)] * 40])
        assert search._submission(tasks, 2) == [(1, 7), (1, 15), (0, 7)]
        assert search._submission(tasks, 2) == [(0, 3), (0, 15)]
        assert len(search._submission(tasks, 2)) == search._BATCH
        assert len(search._submission(tasks, 2)) == 40 - search._BATCH
        assert search._submission(tasks, 2) == []

    def test_result_cut_short_raises(self, monkeypatch, alarm):
        # A worker writes the first half of its first result, then exits.
        caller, dump = os.getpid(), pickle.dump

        def cut_short(obj, file, *args):
            if os.getpid() == caller:
                return dump(obj, file, *args)
            data = pickle.dumps(obj, *args)
            file.write(data[: len(data) // 2])
            file.flush()
            os._exit(1)

        monkeypatch.setattr(pickle, "dump", cut_short)
        with pytest.raises(ChildProcessError, match="exited during a task"):
            find_copy(make_c0(4).color_class(Color.RED), 4, workers=2)
        assert no_children_left()


class TestMonochromaticSearch:
    def test_paired_scheme_q6_has_red_copy(self):
        out = find_copy(make_c0(3).color_class(Color.RED), 3)
        assert out.status == "found"
        e = out.embedding
        assert [str(ElementSet(v, 6)) for v in e.images] == [
            "{}",
            "{2}",
            "{4}",
            "{1,2,4}",
            "{6}",
            "{1,2,6}",
            "{1,4,6}",
            "{1,2,4,6}",
        ]
        assert verify_embedding(e, make_c0(3).color_class(Color.RED)) is None
        assert oracles.check_embedding_literal(e.images, 3)

    def test_layered_q3_is_copy_free_for_n2(self):
        for color in Color:
            assert find_copy(make_layered(3).color_class(color), 2).status == "absent"
