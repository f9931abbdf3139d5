"""The embedding search engine against naive oracles, plus certificates,
pruning equivalence, worker determinism, and budget semantics."""

import random
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import random_family
from cuberamsey import (
    Color,
    CubeSpace,
    Embedding,
    SetFamily,
    contains_monochromatic_copy,
    copy_image_masks,
    count_distinct_copies,
    find_copy,
    make_c0,
    make_layered,
    naive_count_embeddings,
    verify_embedding,
    verify_no_copy,
)
from cuberamsey import search

PRUNE_NAMES = ("root-gap", "cardinality-window", "source-symmetry")

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
    return SetFamily.full(CubeSpace(m))


def members_of(fam):
    return [int(v) for v in fam.member_values()]


class TestVerifyEmbedding:
    def test_identity_on_full_cube(self):
        e = Embedding.from_values(2, 2, (0, 1, 2, 3))
        assert verify_embedding(e).ok
        assert verify_embedding(e, full_family(2)).ok

    def test_uniform_augmentation(self):
        # S -> S + {3} over [3]
        e = Embedding.from_values(2, 3, (4, 5, 6, 7))
        assert verify_embedding(e).ok

    def test_order_violation(self):
        e = Embedding.from_values(1, 2, (1, 0))
        check = verify_embedding(e)
        assert not check.ok and "order" in check.violation

    def test_duplicate_images(self):
        e = Embedding.from_values(1, 2, (1, 1))
        check = verify_embedding(e)
        assert not check.ok and "coincide" in check.violation

    def test_membership_violation(self):
        fam = SetFamily.from_sets(CubeSpace(2), [0])
        e = Embedding.from_values(1, 2, (0, 1))
        check = verify_embedding(e, fam)
        assert not check.ok and "not in family" in check.violation

    def test_incomparable_sources_comparable_images(self):
        # {1} and {2} map onto nested sets
        e = Embedding.from_values(2, 3, (0, 1, 3, 7))
        assert not verify_embedding(e).ok

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            verify_embedding(Embedding.from_values(2, 2, (0, 1, 2)))
        e = Embedding.from_values(1, 3, (0, 1))
        with pytest.raises(ValueError):
            verify_embedding(e, full_family(2))

    def test_image_of(self):
        from cuberamsey import ElementSet

        e = Embedding.from_values(2, 3, (0, 1, 2, 7))
        assert e.image_of(3).bits == 7
        assert e.image_of(ElementSet(3, 2)).bits == 7
        assert e.image_values == (0, 1, 2, 7)


class TestFindCopyBasics:
    def test_rejects_bad_mode_and_n(self):
        fam = full_family(2)
        with pytest.raises(ValueError):
            find_copy(fam, 1, mode="all")
        with pytest.raises(ValueError):
            find_copy(fam, 0)

    def test_source_larger_than_ground_is_absent(self):
        out = find_copy(full_family(2), 3)
        assert out.status == "absent"
        assert out.nodes_explored == 0
        out = find_copy(full_family(2), 3, mode="count")
        assert out.status == "absent" and out.count == 0

    def test_source_cap(self):
        fam = SetFamily.from_sets(CubeSpace(13), [])
        with pytest.raises(ValueError):
            find_copy(fam, 13)
        assert find_copy(fam, 14).status == "absent"

    def test_identity_comes_first_on_full_cube(self):
        for n in (1, 2, 3):
            out = find_copy(full_family(n), n)
            assert out.status == "found"
            assert out.embedding.image_values == tuple(range(1 << n))

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
        assert out.elapsed_ms >= 0


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
                    assert verify_embedding(first.embedding, fam).ok

    def test_distinct_catalog_matches_engine_everywhere(self):
        for m in range(1, 5):
            for n in range(1, m + 1):
                _, distinct = count_distinct_copies(full_family(m), n)
                assert distinct == len(copy_image_masks(n, m))

    def test_count_distinct_caps(self):
        with pytest.raises(ValueError):
            count_distinct_copies(full_family(4), 7)
        assert count_distinct_copies(full_family(2), 3) == (0, 0)


class TestStructuralCases:
    def test_non_join_respecting_copy_is_found(self):
        # The only copies send {1,2} to {1,2,3}, a strict superset of the
        # union of the middle images; the search must not assume unions.
        fam = SetFamily.from_sets(CubeSpace(3), [0, 1, 2, 7])
        out = find_copy(fam, 2)
        assert out.status == "found"
        e = out.embedding
        assert e.image_of(3).bits == 7
        assert e.image_of(1).bits | e.image_of(2).bits != e.image_of(3).bits
        assert find_copy(fam, 2, mode="count").count == 2

    def test_monotone_under_family_growth(self):
        rng = random.Random(77)
        for _ in range(20):
            fam = random_family(4, rng, density=0.4)
            out = find_copy(fam, 2)
            grown = fam.with_toggled(rng.randrange(16)) if rng.random() < 0.5 else fam
            bigger = SetFamily(
                fam.space, fam.mask | grown.mask
            )
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
            out = verify_no_copy(lay.color_class(color), 3)
            assert out.status == "absent"
            assert out.nodes_explored == 210
            assert out.prune_hits == {
                "root-gap": 40,
                "cardinality-window": 760,
                "source-symmetry": 840,
            }

    def test_prune_off_explores_more_but_agrees(self):
        lay = make_layered(5)
        out = verify_no_copy(lay.color_class(Color.RED), 3, prune=False)
        assert out.status == "absent"
        assert out.nodes_explored == 825
        assert all(v == 0 for v in out.prune_hits.values())


class TestPruneEquivalence:
    def test_full_cubes(self):
        # Covers the n! orbit factor for every n <= m <= 4, n = 1 included.
        for m in range(1, 5):
            for n in range(1, m + 1):
                a = find_copy(full_family(m), n, mode="count", prune=True)
                b = find_copy(full_family(m), n, mode="count", prune=False)
                assert (a.status, a.count) == (b.status, b.count)
                assert count_distinct_copies(full_family(m), n, prune=True) == (
                    count_distinct_copies(full_family(m), n, prune=False)
                )

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
        c = make_c0(3)
        for color in (Color.RED, Color.BLUE):
            fam = c.color_class(color)
            a = find_copy(fam, 3, prune=True)
            b = find_copy(fam, 3, prune=False)
            assert a.status == b.status == "found"
            assert a.embedding == b.embedding


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


class TestC0N4Audit:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_frozen_counters(self, workers):
        expected = {
            Color.RED: (36151, 1004, 318991, 237332),
            Color.BLUE: (86132, 1088, 814506, 699887),
        }
        c0 = make_c0(4)
        for color, (nodes, gap, window, symmetry) in expected.items():
            out = find_copy(c0.color_class(color), 4, workers=workers)
            assert out.status == "absent"
            assert out.nodes_explored == nodes
            assert out.prune_hits == {
                "root-gap": gap,
                "cardinality-window": window,
                "source-symmetry": symmetry,
            }


class TestWorkers:
    def test_found_witness_matches_sequential(self):
        fam = make_c0(3).color_class(Color.RED)
        seq = find_copy(fam, 3, workers=1)
        par = find_copy(fam, 3, workers=2)
        assert par.status == "found"
        assert par.embedding == seq.embedding

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
        seq = contains_monochromatic_copy(c, 3, workers=1)
        par = contains_monochromatic_copy(c, 3, workers=2)
        assert seq is not None and par is not None
        assert par[0] is seq[0]
        assert par[1] == seq[1]


class TestBudget:
    def test_budget_yields_inconclusive_never_absent(self):
        # The red class of the paired scheme on [8] has no copy, and full
        # exhaustion takes seconds, so tiny budgets must stop early.
        fam = make_c0(4).color_class(Color.RED)
        for budget in (1.0, 5.0, 25.0):
            out = find_copy(fam, 4, budget_ms=budget)
            assert out.status == "inconclusive"
            assert out.embedding is None

    def test_generous_budget_still_completes(self):
        fam = make_layered(5).color_class(Color.RED)
        out = find_copy(fam, 3, budget_ms=60000.0)
        assert out.status == "absent"
        assert out.nodes_explored == 210

    def test_budget_holds_with_no_accepted_node(self):
        # The singleton level walks 2^22 candidates, none a member; the
        # deadline is checked per candidate chunk, not only per node.
        fam = SetFamily.from_sets(CubeSpace(22), [0, (1 << 22) - 1])
        start = time.perf_counter()
        out = find_copy(fam, 2, budget_ms=50.0)
        assert out.status == "inconclusive"
        assert out.nodes_explored == 1
        assert time.perf_counter() - start < 2.0
        # An antichain: every root pair is rejected before it becomes a
        # node, so the deadline is checked per root bottom.
        fam = SetFamily.from_sets(
            CubeSpace(20), [v for v in range(1 << 20) if v.bit_count() == 10]
        )
        start = time.perf_counter()
        out = find_copy(fam, 2, budget_ms=50.0)
        assert out.status == "inconclusive"
        assert out.nodes_explored == 0
        assert time.perf_counter() - start < 2.0

    def test_dense_family_budget_and_memory(self):
        # Every set of [20] with at most 3 elements, and [20] itself.  The
        # first root pair is ({}, [20]); at its singleton level 784,625 of
        # the 2^20 submasks fit the window, a list of about 28 MB if it
        # were materialised whole.
        sizes = np.array([bin(v).count("1") for v in range(1 << 20)])
        fam = SetFamily(CubeSpace(20), (sizes <= 3) | (sizes == 20))
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

    def test_found_beats_budget(self):
        out = find_copy(full_family(3), 2, budget_ms=60000.0)
        assert out.status == "found"


class TestMonochromaticSearch:
    def test_paired_scheme_q6_has_red_copy(self):
        hit = contains_monochromatic_copy(make_c0(3), 3)
        assert hit is not None
        color, e = hit
        assert color is Color.RED
        assert [str(s) for s in e.images] == [
            "{}",
            "{2}",
            "{4}",
            "{1,2,4}",
            "{6}",
            "{1,2,6}",
            "{1,4,6}",
            "{1,2,4,6}",
        ]
        assert verify_embedding(e, make_c0(3).color_class(Color.RED)).ok
        assert oracles.check_embedding_literal(e.image_values, 3)

    def test_layered_q3_is_copy_free_for_n2(self):
        assert contains_monochromatic_copy(make_layered(3), 2) is None
