"""Ground-set arithmetic: encodings, pairing structure, layers, tables."""

import math
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from cuberamsey import (
    CapacityError,
    CubeSpace,
    ElementSet,
    complement,
    count_pairs_singles,
    element_sum_parity,
    iterate_layer,
    missed_pairs,
    pair_index,
    parse_set,
    partner,
)
from cuberamsey import lattice
from cuberamsey.lattice import (
    TABLE_BYTES_PER_SUBSET,
    hit_probe,
    index_table,
    layer_masks,
    missed_count_table,
    odd_sum_table,
    pair_count_table,
    pair_probe,
    popcount_table,
)

masks_over = lambda m: st.integers(min_value=0, max_value=(1 << m) - 1)


class TestCubeSpace:
    def test_basic_properties(self):
        space = CubeSpace(5)
        assert space.size == 32
        assert space.full_mask == 0b11111
        assert not space.paired
        assert space.n is None

    def test_paired_space(self):
        space = CubeSpace.with_pairs(4)
        assert space.m == 8
        assert space.paired
        assert space.n == 4

    @pytest.mark.parametrize("m", [0, -1, 33])
    def test_rejects_bad_ground_size(self, m):
        with pytest.raises(ValueError):
            CubeSpace(m)


class TestElementSet:
    def test_element_j_lives_at_bit_j_minus_1(self):
        s = ElementSet.from_elements([1, 3], 4)
        assert s.bits == 0b101
        assert s.elements() == (1, 3)
        assert 1 in s and 3 in s and 2 not in s and 5 not in s

    def test_str_and_repr(self):
        s = ElementSet.from_elements([1, 2, 3], 6)
        assert str(s) == "{1,2,3}"
        assert repr(s) == "ElementSet({1,2,3}, m=6)"
        assert str(ElementSet(0, 6)) == "{}"

    def test_size(self):
        assert ElementSet(0b1011, 4).size == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ElementSet.from_elements([0], 4)
        with pytest.raises(ValueError):
            ElementSet.from_elements([5], 4)
        with pytest.raises(ValueError):
            ElementSet(1 << 4, 4)
        with pytest.raises(ValueError):
            ElementSet(-1, 4)

    @given(st.integers(1, 12), st.data())
    def test_elements_roundtrip(self, m, data):
        bits = data.draw(masks_over(m))
        s = ElementSet(bits, m)
        assert ElementSet.from_elements(s.elements(), m) == s
        assert s.elements() == oracles.subset_elements(bits)


class TestParseSet:
    @pytest.mark.parametrize("text", ["{}", "{1}", "{1,2,5}", " {2, 4} "])
    def test_roundtrip(self, text):
        s = parse_set(text, 6)
        assert parse_set(str(s), 6) == s

    def test_examples(self):
        assert parse_set("{1,3}", 4).bits == 0b101
        assert parse_set("{}", 4).bits == 0

    @pytest.mark.parametrize("text", ["1,2", "{1,2", "1,2}", "{x}", "{0}", "{7}"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_set(text, 6)


class TestPairing:
    def test_pair_index(self):
        space = CubeSpace(6)
        assert [pair_index(a, space) for a in range(1, 7)] == [1, 1, 2, 2, 3, 3]

    def test_partner(self):
        space = CubeSpace(6)
        assert [partner(a, space) for a in range(1, 7)] == [2, 1, 4, 3, 6, 5]

    def test_rejects_unpaired_space(self):
        with pytest.raises(ValueError):
            pair_index(1, CubeSpace(5))
        with pytest.raises(ValueError):
            partner(1, CubeSpace(5))

    @pytest.mark.parametrize("a", [0, 7])
    def test_rejects_out_of_range_element(self, a):
        with pytest.raises(ValueError):
            pair_index(a, CubeSpace(6))
        with pytest.raises(ValueError):
            partner(a, CubeSpace(6))

    @given(st.integers(1, 8), st.data())
    def test_partner_involution(self, n, data):
        space = CubeSpace.with_pairs(n)
        a = data.draw(st.integers(1, 2 * n))
        assert partner(partner(a, space), space) == a
        assert pair_index(partner(a, space), space) == pair_index(a, space)


class TestProbes:
    @given(st.integers(1, 8), st.data())
    def test_probes_match_naive_pair_scan(self, n, data):
        bits = data.draw(masks_over(2 * n))
        pair = pair_probe(bits)
        hit = hit_probe(bits)
        for i in range(n):
            both = bits >> (2 * i) & 3 == 3
            any_elem = bits >> (2 * i) & 3 != 0
            assert bool(pair >> (2 * i) & 1) == both
            assert bool(hit >> (2 * i) & 1) == any_elem

    def test_known_example(self):
        # {1,2,3,5,6,7,8} over [8]: pairs {1,2},{5,6},{7,8}; single 3.
        s = ElementSet.from_elements([1, 2, 3, 5, 6, 7, 8], 8)
        assert count_pairs_singles(s, CubeSpace(8)) == (3, 1)

    @given(st.integers(1, 8), st.data())
    def test_pairs_singles_invariants(self, n, data):
        space = CubeSpace.with_pairs(n)
        bits = data.draw(masks_over(2 * n))
        s = ElementSet(bits, space.m)
        pairs, singles = count_pairs_singles(s, space)
        assert (pairs, singles) == oracles.pairs_and_singles(bits, n)
        assert 2 * pairs + singles == s.size
        assert pairs + singles + len(missed_pairs(s, space)) == n

    def test_missed_pairs_example(self):
        space = CubeSpace(6)
        assert missed_pairs(ElementSet.from_elements([3, 4], 6), space) == [1, 3]
        assert missed_pairs(ElementSet(space.full_mask, 6), space) == []

    def test_no_missed_pair_with_k_pairs_forces_size(self):
        # No misses and exactly k complete pairs means n - k singles.
        space = CubeSpace.with_pairs(4)
        rng = random.Random(7)
        for _ in range(50):
            bits = rng.randrange(space.size)
            s = ElementSet(bits, space.m)
            if missed_pairs(s, space):
                continue
            pairs, _ = count_pairs_singles(s, space)
            assert s.size == 4 + pairs

    def test_wrong_space_rejected(self):
        with pytest.raises(ValueError):
            count_pairs_singles(ElementSet(1, 4), CubeSpace(6))


class TestComplementParity:
    @given(st.integers(1, 10), st.data())
    def test_complement_involution(self, m, data):
        space = CubeSpace(m)
        s = ElementSet(data.draw(masks_over(m)), m)
        c = complement(s, space)
        assert complement(c, space) == s
        assert s.size + c.size == m
        assert not set(s.elements()) & set(c.elements())

    @given(st.integers(1, 10), st.data())
    def test_parity_matches_literal_sum(self, m, data):
        bits = data.draw(masks_over(m))
        assert element_sum_parity(ElementSet(bits, m)) == oracles.sum_parity(bits)

    @given(st.integers(1, 8), st.data())
    def test_partner_swap_flips_parity(self, n, data):
        space = CubeSpace.with_pairs(n)
        bits = data.draw(masks_over(2 * n))
        s = ElementSet(bits, space.m)
        singles = [a for a in s.elements() if partner(a, space) not in s]
        for a in singles:
            swapped = ElementSet(bits ^ (1 << (a - 1)) ^ (1 << (partner(a, space) - 1)), s.m)
            assert element_sum_parity(swapped) != element_sum_parity(s)


class TestLayers:
    @pytest.mark.parametrize("m", [1, 4, 7])
    def test_layer_counts_match_binomials(self, m):
        for k in range(m + 1):
            masks = list(layer_masks(m, k))
            assert len(masks) == math.comb(m, k)
            assert all(bin(v).count("1") == k for v in masks)
            assert masks == sorted(masks)
            assert len(set(masks)) == len(masks)

    def test_layers_partition_the_cube(self):
        m = 5
        seen = [v for k in range(m + 1) for v in layer_masks(m, k)]
        assert sorted(seen) == list(range(1 << m))

    def test_iterate_layer_yields_sets(self):
        space = CubeSpace(4)
        sets = list(iterate_layer(space, 2))
        assert all(isinstance(s, ElementSet) and s.size == 2 for s in sets)
        assert len(sets) == 6

    @pytest.mark.parametrize("k", [-1, 5])
    def test_rejects_bad_layer(self, k):
        with pytest.raises(ValueError):
            list(layer_masks(4, k))


class TestTables:
    @pytest.mark.parametrize("m", [2, 6])
    def test_tables_match_scalar_functions(self, m):
        space = CubeSpace(m)
        n = space.n
        pc = popcount_table(m)
        pairs = pair_count_table(m)
        miss = missed_count_table(m)
        odd = odd_sum_table(m)
        idx = index_table(m)
        for v in range(space.size):
            s = ElementSet(v, m)
            assert idx[v] == v
            assert pc[v] == s.size
            assert pairs[v] == count_pairs_singles(s, space)[0]
            assert miss[v] == len(missed_pairs(s, space))
            assert odd[v] == (element_sum_parity(s) == "odd")

    @pytest.mark.parametrize("m", range(1, 17))
    def test_split_tables_match_full_index_builders(self, m):
        for table, oracle in (
            (popcount_table, oracles.popcount_full),
            (pair_count_table, oracles.pair_count_full),
            (missed_count_table, oracles.missed_count_full),
            (odd_sum_table, oracles.odd_sum_full),
        ):
            got, want = table(m), oracle(m)
            assert got.dtype == want.dtype and got.shape == want.shape, table.__name__
            assert np.array_equal(got, want), table.__name__
            assert not got.flags.writeable

    def test_tables_are_cached(self):
        assert popcount_table(6) is popcount_table(6)


class TestMemoryGuard:
    def raises_without_allocating(self, m, builder=index_table):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as exc:
                builder.__wrapped__(m)  # past the cache: the guard must run
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        return str(exc.value)

    def test_full_ground_set_is_refused(self):
        need = TABLE_BYTES_PER_SUBSET << 32
        if lattice.physical_memory() >= need:
            pytest.skip("this machine holds dense tables over 2^[32]")
        message = self.raises_without_allocating(32)
        assert f"need about {need} bytes" in message
        assert f"the {lattice.physical_memory()} bytes of physical memory" in message

    def test_estimate_is_compared_with_physical_memory(self, monkeypatch):
        need = TABLE_BYTES_PER_SUBSET << 10
        monkeypatch.setattr(lattice, "physical_memory", lambda: need - 1)
        message = self.raises_without_allocating(10)
        assert message == (
            f"dense tables over 2^[10] need about {need} bytes, "
            f"more than the {need - 1} bytes of physical memory"
        )
        monkeypatch.setattr(lattice, "physical_memory", lambda: need)
        assert len(index_table.__wrapped__(10)) == 1 << 10

    @pytest.mark.parametrize(
        "builder",
        [popcount_table, pair_count_table, missed_count_table, odd_sum_table],
        ids=lambda f: f.__name__,
    )
    def test_table_builders_are_refused(self, monkeypatch, builder):
        need = TABLE_BYTES_PER_SUBSET << 32
        if lattice.physical_memory() < need:
            message = self.raises_without_allocating(32, builder)
            assert f"dense tables over 2^[32] need about {need} bytes" in message
        need = TABLE_BYTES_PER_SUBSET << 10
        monkeypatch.setattr(lattice, "physical_memory", lambda: need - 1)
        message = self.raises_without_allocating(10, builder)
        assert message == (
            f"dense tables over 2^[10] need about {need} bytes, "
            f"more than the {need - 1} bytes of physical memory"
        )
        monkeypatch.setattr(lattice, "physical_memory", lambda: need)
        assert len(builder.__wrapped__(10)) == 1 << 10

    def test_physical_memory_is_read_from_the_os(self):
        assert lattice.physical_memory() > TABLE_BYTES_PER_SUBSET << 24

    @pytest.mark.parametrize("platform", ["no sysconf", "unknown sysconf name"])
    def test_guard_is_skipped_where_memory_is_not_reported(self, monkeypatch, platform):
        if platform == "no sysconf":
            monkeypatch.delattr(os, "sysconf")
        else:
            def sysconf(name):
                raise ValueError("unrecognized configuration name")

            monkeypatch.setattr(os, "sysconf", sysconf)
        assert lattice.physical_memory() is None
        assert index_table.__wrapped__(4).tolist() == list(range(16))


def test_capacity_error_is_runtime_error():
    assert issubclass(CapacityError, RuntimeError)
