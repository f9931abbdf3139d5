"""The four structural properties, their witnesses, and member completion."""

import math
import random

import numpy as np
import pytest

import oracles
from oracles import extend_to_maximal, violates_flip_pair
from conftest import random_family, tampered_c0
from cuberamsey import (
    Color,
    ElementSet,
    SetFamily,
    build_flip_graph,
    dual_coloring,
    is_flip_susceptible,
    is_restrictive,
    make_c0,
)
from cuberamsey import properties
from cuberamsey.lattice import (
    missed_count_table,
    odd_sum_table,
    pair_count_table,
    popcount_table,
)


def family_over(n, values):
    return SetFamily.from_sets(2 * n, values)


def sets_over(n, *texts):
    from cuberamsey import parse_set

    return [parse_set(t, 2 * n).bits for t in texts]


# The band checks run in one pass, inside is_restrictive; each reads its
# own report from the fixed order of the subreports.
def pair_enforcing(family, n):
    return is_restrictive(family, n).subreports[0]


def miss_forbidding(family, n):
    return is_restrictive(family, n).subreports[1]


def not_too_high(family, n):
    return is_restrictive(family, n).subreports[2]


CHECKERS = {
    "pair-enforcing": (pair_enforcing, oracles.literal_pair_enforcing),
    "miss-forbidding": (miss_forbidding, oracles.literal_miss_forbidding),
    "not-too-high": (not_too_high, oracles.literal_not_too_high),
    "flip-susceptible": (is_flip_susceptible, oracles.literal_flip_susceptible),
}


class TestValidation:
    def test_rejects_wrong_ground_set(self):
        fam = SetFamily.from_sets(7, [1])
        for checker, _ in CHECKERS.values():
            with pytest.raises(ValueError):
                checker(fam, 3)

    def test_rejects_nonpositive_n(self):
        fam = SetFamily.from_sets(2, [1])
        with pytest.raises(ValueError):
            pair_enforcing(fam, 0)


class TestPairEnforcing:
    def test_pair_free_band_member_fails(self):
        rep = pair_enforcing(family_over(4, sets_over(4, "{1,3}")), 4)
        assert not rep.holds
        assert str(rep.witness) == "{1,3}"

    def test_band_member_with_pair_holds(self):
        rep = pair_enforcing(family_over(4, sets_over(4, "{1,2,3}")), 4)
        assert rep.holds and rep.witness is None

    def test_members_outside_band_ignored(self):
        # size 1 is below ceil(4/2); size 4 is at n
        fam = family_over(4, sets_over(4, "{1}", "{1,3,5,7}"))
        assert pair_enforcing(fam, 4).holds

    def test_layered_red_class_witness(self):
        from cuberamsey import make_layered

        red = make_layered(8).color_class(Color.RED)
        rep = pair_enforcing(red, 4)
        assert not rep.holds
        assert rep.witness.bits == 21  # {1,3,5}, the lowest pair-free band member
        assert str(rep.witness) == "{1,3,5}"

    def test_checked_count_is_band_size(self):
        rep = pair_enforcing(family_over(4, []), 4)
        assert rep.checked_count == math.comb(8, 2) + math.comb(8, 3)


class TestMissForbidding:
    def test_missing_member_fails(self):
        rep = miss_forbidding(family_over(4, sets_over(4, "{1,2,3,4,5}")), 4)
        assert not rep.holds
        assert str(rep.witness) == "{1,2,3,4,5}"

    def test_full_hitting_member_holds(self):
        rep = miss_forbidding(family_over(4, sets_over(4, "{1,2,3,4,5,7}")), 4)
        assert rep.holds

    def test_checked_count_is_band_size(self):
        rep = miss_forbidding(family_over(4, []), 4)
        assert rep.checked_count == math.comb(8, 5) + math.comb(8, 6)


class TestNotTooHigh:
    def test_oversized_member_fails(self):
        fam = family_over(4, [0xFF])
        rep = not_too_high(fam, 4)
        assert not rep.holds
        assert str(rep.witness) == "{1,2,3,4,5,6,7,8}"
        assert rep.checked_count == fam.size

    def test_boundary_size_holds(self):
        assert not_too_high(family_over(4, sets_over(4, "{1,2,3,4,5,7}")), 4).holds


class TestFlipSusceptible:
    def test_transversal_masks_shape(self):
        for n in range(1, 7):
            masks = build_flip_graph(n).vertices.tolist()
            assert masks == oracles.transversals_literal(n)
            assert len(masks) == 1 << n
            assert masks == sorted(masks)
            assert len(set(masks)) == len(masks)
            for t in masks:
                assert oracles.popcount(t) == n
                assert oracles.pair_free(t, n)

    def test_transversal_masks_n1(self):
        assert build_flip_graph(1).vertices.tolist() == [1, 2]
        assert oracles.transversals_literal(1) == [1, 2]

    def test_adjacent_transversals_fail(self):
        fam = family_over(4, sets_over(4, "{1,3,5,7}", "{2,3,5,7}"))
        rep = is_flip_susceptible(fam, 4)
        assert not rep.holds
        s1, s2 = rep.witness
        assert (str(s1), str(s2)) == ("{1,3,5,7}", "{2,3,5,7}")
        assert violates_flip_pair(s1, s2, 4)

    def test_parity_class_families_hold(self):
        # A partner swap flips the element-sum parity, so a one-parity
        # family of transversals has no qualifying pair.
        for n in (2, 3, 4, 5):
            tv = oracles.transversals_literal(n)
            odd = [t for t in tv if oracles.sum_parity(t) == "odd"]
            even = [t for t in tv if oracles.sum_parity(t) == "even"]
            assert is_flip_susceptible(family_over(n, odd), n).holds
            assert is_flip_susceptible(family_over(n, even), n).holds
            rep = is_flip_susceptible(family_over(n, tv), n)
            assert not rep.holds

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_transversal_walk(self, n):
        # Random families; half keep only one parity class of transversals
        # (which holds) and then may get one planted swap pair.
        rng = np.random.default_rng(1300 + n)
        tv = np.array(oracles.transversals_literal(n))
        odd = np.array([oracles.sum_parity(int(t)) == "odd" for t in tv])
        _, edges = oracles.flip_graph_loop(n)
        outcomes = []
        for _ in range(200):
            mask = rng.random(1 << 2 * n) < rng.uniform(0, 1)
            if rng.random() < 0.5:
                mask[tv[odd == bool(rng.integers(2))]] = False
                if rng.random() < 0.5:
                    mask[list(edges[rng.integers(len(edges))])] = True
            fam = SetFamily(mask)
            rep = is_flip_susceptible(fam, n)
            assert rep == oracles.flip_susceptible_loop(fam, n)
            outcomes.append(rep.holds)
        assert 0 < sum(outcomes) < len(outcomes)

    def test_checked_count_bounded_by_transversals(self):
        rep = is_flip_susceptible(family_over(3, []), 3)
        assert rep.holds and rep.checked_count == 8

    def test_violates_flip_pair_negatives(self):
        s = ElementSet.from_elements([1, 3, 5, 7], 8)
        same = ElementSet.from_elements([1, 3, 5, 7], 8)
        far = ElementSet.from_elements([2, 4, 6, 8], 8)
        small = ElementSet.from_elements([1, 3], 8)
        paired = ElementSet.from_elements([1, 2, 5, 7], 8)
        paired_nb = ElementSet.from_elements([1, 2, 5, 8], 8)
        assert not violates_flip_pair(s, same, 4)  # union too small
        assert not violates_flip_pair(s, far, 4)  # union too large
        assert not violates_flip_pair(s, small, 4)  # wrong size
        assert not violates_flip_pair(paired, paired_nb, 4)  # not pair free


class TestAgainstLiteralOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_families_agree(self, n):
        rng = random.Random(900 + n)
        families = [random_family(2 * n, rng, density=rng.uniform(0.1, 0.9)) for _ in range(40)]
        # Subfamilies of c0's Red class, which is restrictive: removing
        # members keeps all four properties, so these hold.
        red = make_c0(n).color_class(Color.RED)
        held = [
            SetFamily(red.mask & random_family(2 * n, rng, rng.uniform(0.1, 0.9)).mask)
            for _ in range(20)
        ]
        for fam in families + held:
            members = [int(v) for v in fam.member_values()]
            for name, (checker, literal) in CHECKERS.items():
                assert checker(fam, n).holds == literal(members, n), name
            assert is_restrictive(fam, n).holds == oracles.literal_restrictive(members, n)
        assert all(is_restrictive(fam, n).holds for fam in held)

    @pytest.mark.parametrize("n", [2, 3])
    def test_witnesses_violate_literally(self, n):
        rng = random.Random(700 + n)
        seen = 0
        for _ in range(60):
            fam = random_family(2 * n, rng, density=0.6)
            members = [int(v) for v in fam.member_values()]
            rep = is_restrictive(fam, n)
            fail = next((r for r in rep.subreports if not r.holds), None)
            if fail is None:
                continue
            seen += 1
            if fail.name == "pair-enforcing":
                s = fail.witness
                assert oracles.ceil_half(n) <= s.size < n
                assert oracles.pairs_and_singles(s.bits, n)[0] == 0
                assert s.bits in members
            elif fail.name == "miss-forbidding":
                s = fail.witness
                assert n < s.size <= n + n // 2
                assert oracles.missed(s.bits, n)
                assert s.bits in members
            elif fail.name == "not-too-high":
                s = fail.witness
                assert s.size > n + n // 2
                assert s.bits in members
            else:
                s1, s2 = fail.witness
                assert violates_flip_pair(s1, s2, n)
                assert s1.bits in members and s2.bits in members
        assert seen > 10  # random families of this density do fail


class TestAgainstTableChecks:
    """The band checks on profile tables against the checks over the dense
    per-subset tables that they replace."""

    CHECKS = [
        (pair_enforcing, oracles.pair_enforcing_tables),
        (miss_forbidding, oracles.miss_forbidding_tables),
        (not_too_high, oracles.not_too_high_tables),
    ]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_same_reports(self, n):
        c0 = make_c0(n)
        families = [
            c0.color_class(Color.RED),
            dual_coloring(c0).color_class(Color.RED),
            c0.color_class(Color.BLUE),
        ]
        if n >= 3:  # tampered_c0 paints the set {1,...,5} red
            families.append(tampered_c0(n).color_class(Color.RED))
        rng = random.Random(1200 + n)
        families += [random_family(2 * n, rng, density=rng.uniform(0.05, 0.95)) for _ in range(4)]
        failed = 0
        for fam in families:
            for check, oracle in self.CHECKS:
                report = check(fam, n)
                assert report == oracle(fam, n), check.__name__
                failed += not report.holds
        assert failed > 0


    @pytest.mark.parametrize("n", range(2, 9))
    def test_all_three_bands_violated(self, n):
        """Seeded families with several violators of every band at once:
        each property still reports its own lowest witness."""
        m = 2 * n
        sizes, pairs = popcount_table(m), pair_count_table(m)
        missed = missed_count_table(m)
        low, high = (n + 1) // 2, n + n // 2
        bands = [
            np.flatnonzero((sizes >= low) & (sizes < n) & (pairs == 0)),
            np.flatnonzero((sizes > n) & (sizes <= high) & (missed > 0)),
            np.flatnonzero(sizes > high),
        ]
        rng = random.Random(1500 + n)
        for trial in range(5):
            base = make_c0(n).color_class(Color.RED) if trial % 2 else random_family(m, rng, 0.1)
            mask = base.mask.copy()
            for band in bands:
                if band.size:
                    mask[rng.sample(band.tolist(), min(3, band.size))] = True
            fam = SetFamily(mask)
            reports = is_restrictive(fam, n).subreports[:3]
            for report, (check, oracle), band in zip(reports, self.CHECKS, bands):
                assert report == oracle(fam, n), check.__name__
                assert not report.holds or band.size == 0


class TestRestrictive:
    def test_c0_and_dual_hold_for_small_and_large_n(self):
        for n in range(1, 13):
            c = make_c0(n)
            assert is_restrictive(c.color_class(Color.RED), n).holds, n
            dual_red = dual_coloring(c).color_class(Color.RED)
            assert is_restrictive(dual_red, n).holds, n
        # Release the big per-subset tables.
        for table in (popcount_table, pair_count_table, missed_count_table, odd_sum_table):
            table.cache_clear()
        properties._band_table.cache_clear()

    def test_subreport_order_is_fixed(self):
        rep = is_restrictive(family_over(4, []), 4)
        assert [r.name for r in rep.subreports] == [
            "pair-enforcing",
            "miss-forbidding",
            "not-too-high",
            "flip-susceptible",
        ]
        assert rep.holds and all(r.holds for r in rep.subreports)
        assert rep.checked_count == sum(r.checked_count for r in rep.subreports)

    def test_first_failure_name(self):
        # Toggling {1,2,3,4,5} into the red class of the paired scheme
        # breaks exactly the miss rule.
        c = make_c0(4)
        fam = c.color_class(Color.RED)
        assert not fam.mask[31]
        broken = fam.with_toggled(31)
        rep = is_restrictive(broken, 4)
        assert not rep.holds
        fail = next((r for r in rep.subreports if not r.holds), None)
        assert fail.name == "miss-forbidding"
        assert str(fail.witness) == "{1,2,3,4,5}"

    def test_closed_under_member_removal(self):
        fam = make_c0(4).color_class(Color.RED)
        rng = random.Random(11)
        members = [int(v) for v in fam.member_values()]
        for _ in range(25):
            fam = fam.with_toggled(rng.choice(members))
            members = [int(v) for v in fam.member_values()]
            assert is_restrictive(fam, 4).holds


class TestExtendToMaximal:
    def setup_method(self):
        self.n = 4
        self.family = make_c0(4).color_class(Color.RED)

    def ext(self, text):
        from cuberamsey import parse_set

        return extend_to_maximal(self.family, parse_set(text, 8), self.n)

    def test_known_completion(self):
        assert str(self.ext("{1,2,3}")) == "{1,2,3,4,5,7}"

    def test_fixed_point(self):
        assert str(self.ext("{1,2,3,4,5,7}")) == "{1,2,3,4,5,7}"

    def test_rejects_too_many_pairs(self):
        s = ElementSet.from_elements([1, 2, 3, 4, 5, 6], 8)
        fam = SetFamily.from_sets(8, [s.bits])
        with pytest.raises(ValueError, match="pairs"):
            extend_to_maximal(fam, s, 4)

    def test_rejects_non_member(self):
        from cuberamsey import parse_set

        with pytest.raises(ValueError, match="not a member"):
            self.ext("{1,3}")  # blue under the paired scheme
        assert parse_set("{1,3}", 8).bits not in self.family.member_values()

    def test_rejects_wrong_space(self):
        with pytest.raises(ValueError):
            extend_to_maximal(self.family, ElementSet(1, 6), 4)

    def test_postconditions_over_whole_red_class(self):
        n = self.n
        for v in self.family.member_values():
            s = ElementSet(int(v), 2 * n)
            ext = extend_to_maximal(self.family, s, n)
            assert ext.size == n + n // 2
            assert oracles.pairs_and_singles(ext.bits, n)[0] == n // 2
            assert oracles.missed(ext.bits, n) == []
            assert ext.bits & s.bits == s.bits  # superset
            aug = self.family if self.family.mask[ext.bits] else self.family.with_toggled(ext.bits)
            assert is_restrictive(aug, n).holds, str(s)

    def test_deterministic(self):
        a = self.ext("{1,2,3}")
        b = self.ext("{1,2,3}")
        assert a == b
