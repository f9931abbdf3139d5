"""The tiny-cube ground-truth oracle: copy catalog, coloring exhaustion,
and the smallest exact values."""

import random

import pytest

import oracles
from oracles import family_has_copy, naive_count_embeddings
from conftest import random_members
from cuberamsey import (
    CapacityError,
    Color,
    CubeSpace,
    SetFamily,
    copy_image_masks,
    exists_good_coloring,
    find_copy,
    make_layered,
    ramsey_bruteforce,
    render_coloring,
)

# (n, m) -> number of distinct copies of 2^[n] in the full cube 2^[m].
CATALOG_SIZES = {
    (1, 1): 1,
    (1, 2): 5,
    (1, 3): 19,
    (2, 2): 1,
    (2, 3): 15,
    (2, 4): 151,
    (3, 3): 1,
    (3, 4): 74,
    (4, 4): 1,
}


def family_from_mask(r, m):
    return SetFamily.from_sets(CubeSpace(m), [v for v in range(1 << m) if r >> v & 1])


class TestCopyCatalog:
    @pytest.mark.parametrize("n,m", sorted(CATALOG_SIZES))
    def test_frozen_sizes(self, n, m):
        assert len(copy_image_masks(n, m)) == CATALOG_SIZES[(n, m)]

    def test_masks_are_well_formed(self):
        for (n, m), size in CATALOG_SIZES.items():
            masks = copy_image_masks(n, m)
            assert masks == tuple(sorted(set(masks)))
            assert all(oracles.popcount(img) == 1 << n for img in masks)

    def test_source_beyond_ground_is_empty(self):
        assert copy_image_masks(3, 2) == ()
        assert copy_image_masks(5, 4) == ()

    def test_capacity_and_validation(self):
        with pytest.raises(CapacityError):
            copy_image_masks(2, 5)
        with pytest.raises(CapacityError):
            copy_image_masks(1, 0)
        with pytest.raises(ValueError):
            copy_image_masks(0, 3)


class TestFamilyHasCopy:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_engine_on_all_q3_families(self, n):
        for r in range(1 << 8):
            fam = family_from_mask(r, 3)
            assert family_has_copy(r, n, 3) == (find_copy(fam, n).status == "found"), r

    @pytest.mark.parametrize("n", [1, 2])
    def test_agrees_with_literal_oracle_q2(self, n):
        for r in range(1 << 4):
            members = [v for v in range(4) if r >> v & 1]
            assert family_has_copy(r, n, 2) == oracles.has_copy_literal(members, n)

    def test_agrees_with_engine_on_sampled_q4_families(self):
        rng = random.Random(42)
        for _ in range(60):
            r = rng.randrange(1 << 16)
            fam = family_from_mask(r, 4)
            for n in (1, 2, 3, 4):
                assert family_has_copy(r, n, 4) == (
                    find_copy(fam, n).status == "found"
                ), (r, n)


class TestNaiveCounter:
    def test_matches_frozenset_oracle(self):
        rng = random.Random(5)
        for n in (1, 2):
            for _ in range(15):
                members = random_members(3, rng, density=0.6)
                assert naive_count_embeddings(members, n) == oracles.count_embeddings_literal(
                    members, n
                )

    def test_short_lists_count_zero(self):
        assert naive_count_embeddings([0, 1], 2) == 0


class TestExistsGoodColoring:
    # (n, m) -> (good red-mask index or None, colorings checked).
    FROZEN = {
        (1, 1): (1, 2),
        (1, 2): (None, 16),
        (1, 3): (None, 256),
        (2, 1): (0, 1),
        (2, 2): (1, 2),
        (2, 3): (23, 24),
        (2, 4): (None, 65536),
        (3, 1): (0, 1),
        (3, 2): (0, 1),
        (3, 3): (1, 2),
        (3, 4): (279, 280),
        (4, 4): (1, 2),
    }

    @pytest.mark.parametrize("n,m", sorted(FROZEN))
    def test_frozen_verdicts(self, n, m):
        index, checked = self.FROZEN[(n, m)]
        res = exists_good_coloring(n, m)
        assert res.colorings_checked == checked
        if index is None:
            assert res.good_coloring is None
        else:
            assert res.good_coloring is not None
            assert res.good_coloring.scheme == f"brute-{index}"

    def test_good_colorings_validated_by_engine(self):
        for (n, m), (index, _) in sorted(self.FROZEN.items()):
            if index is None:
                continue
            res = exists_good_coloring(n, m)
            for color in Color:
                fam = res.good_coloring.color_class(color)
                assert find_copy(fam, n).status == "absent"

    def test_q3_good_coloring_payload(self):
        res = exists_good_coloring(2, 3)
        assert render_coloring(res.good_coloring) == (
            "QRC1\nm=3\nscheme=brute-23\nRRRBRBBB\n"
        )

    def test_goodness_is_color_swap_invariant(self):
        rng = random.Random(9)
        full = (1 << 8) - 1
        for _ in range(30):
            r = rng.randrange(1 << 8)
            def good(mask):
                return not family_has_copy(mask, 2, 3) and not family_has_copy(
                    full ^ mask, 2, 3
                )
            assert good(r) == good(full ^ r)

    def test_capacity(self):
        for m in (0, 5):
            with pytest.raises(CapacityError):
                exists_good_coloring(1, m)


class TestRamseyScan:
    def test_smallest_value_is_two(self):
        scan = ramsey_bruteforce(1, 4)
        assert scan.status == "resolved"
        assert scan.value == 2
        assert [r.colorings_checked for r in scan.results] == [2, 16]

    def test_next_value_is_four(self):
        scan = ramsey_bruteforce(2, 4)
        assert scan.status == "resolved"
        assert scan.value == 4
        assert [r.colorings_checked for r in scan.results] == [1, 2, 24, 65536]
        assert [r.good_coloring is None for r in scan.results] == [
            False,
            False,
            False,
            True,
        ]

    def test_unresolved_within_capacity(self):
        scan = ramsey_bruteforce(3, 4)
        assert scan.status == "unresolved"
        assert scan.value is None
        assert len(scan.results) == 4
        assert all(r.good_coloring is not None for r in scan.results)

    def test_early_stop_leaves_scan_unresolved(self):
        scan = ramsey_bruteforce(1, 1)
        assert scan.value is None
        assert len(scan.results) == 1

    def test_capacity_propagates(self):
        with pytest.raises(CapacityError):
            ramsey_bruteforce(3, 5)


class TestLayeredIsGoodBelowTheBound:
    def test_layered_avoids_copies_for_small_ground_sets(self):
        # Cardinality parity gives one color only ceil(m/2) distinct sizes,
        # too few for the n+1 strictly increasing sizes a copy needs, as
        # long as m <= 2n-1.
        cases = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 3), (3, 4), (4, 4)]
        for n, m in cases:
            assert m <= 2 * n - 1
            lay = make_layered(m)
            r = 0
            for v in range(1 << m):
                if lay.color_of(v) is Color.RED:
                    r |= 1 << v
            assert not family_has_copy(r, n, m), (n, m)
            assert not family_has_copy(((1 << (1 << m)) - 1) ^ r, n, m), (n, m)
            for color in Color:
                assert find_copy(lay.color_class(color), n).status == "absent"
