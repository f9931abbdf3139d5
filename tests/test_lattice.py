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
from oracles import hit_probe, iterate_layer, layer_masks, pair_index, pair_probe
from cuberamsey import (
    CapacityError,
    CubeSpace,
    ElementSet,
    complement,
    parse_set,
    partner,
)
from cuberamsey import lattice
from cuberamsey.lattice import (
    TABLE_BYTES_PER_SUBSET,
    index_table,
    missed_count_table,
    odd_sum_table,
    pair_count_table,
    popcount_table,
    profile_table,
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
        assert oracles.pairs_and_singles(s.bits, 4) == (3, 1)
        assert pair_count_table(8)[s.bits] == 3
        assert missed_count_table(8)[s.bits] == 0

    @given(st.integers(1, 8), st.data())
    def test_pairs_singles_invariants(self, n, data):
        m = 2 * n
        bits = data.draw(masks_over(m))
        pairs = int(pair_count_table(m)[bits])
        singles = int(popcount_table(m)[bits]) - 2 * pairs
        assert (pairs, singles) == oracles.pairs_and_singles(bits, n)
        assert pairs + singles + int(missed_count_table(m)[bits]) == n
        assert missed_count_table(m)[bits] == len(oracles.missed(bits, n))

    def test_missed_pairs_example(self):
        bits = ElementSet.from_elements([3, 4], 6).bits
        assert oracles.missed(bits, 3) == [1, 3]
        assert missed_count_table(6)[bits] == 2
        assert oracles.missed(63, 3) == [] and missed_count_table(6)[63] == 0

    def test_no_missed_pair_with_k_pairs_forces_size(self):
        # No misses and exactly k complete pairs means n - k singles.
        rng = random.Random(7)
        for _ in range(50):
            bits = rng.randrange(1 << 8)
            if missed_count_table(8)[bits]:
                continue
            assert popcount_table(8)[bits] == 4 + pair_count_table(8)[bits]

    def test_wrong_space_rejected(self):
        with pytest.raises(ValueError):
            complement(ElementSet(1, 4), CubeSpace(6))


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
        assert odd_sum_table(m)[bits] == (oracles.sum_parity(bits) == "odd")

    @given(st.integers(1, 8), st.data())
    def test_partner_swap_flips_parity(self, n, data):
        space = CubeSpace.with_pairs(n)
        bits = data.draw(masks_over(2 * n))
        s = ElementSet(bits, space.m)
        singles = [a for a in s.elements() if partner(a, space) not in s]
        for a in singles:
            swapped = ElementSet(bits ^ (1 << (a - 1)) ^ (1 << (partner(a, space) - 1)), s.m)
            assert odd_sum_table(2 * n)[swapped.bits] != odd_sum_table(2 * n)[bits]


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
            assert pairs[v] == oracles.pairs_and_singles(v, n)[0]
            assert miss[v] == len(oracles.missed(v, n))
            assert odd[v] == (oracles.sum_parity(v) == "odd")

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


class TestProfileTable:
    @pytest.mark.parametrize("m", range(2, 17, 2))
    def test_matches_table_composition(self, m):
        n = m // 2
        sizes, pairs, odd = popcount_table(m), pair_count_table(m), odd_sum_table(m)
        rules = [
            lambda size, pairs, odd: (size == n) & odd,
            lambda size, pairs, odd: (size >= (n + 1) // 2) & (size < n) & (pairs == 0),
            lambda size, pairs, odd: size > n + n // 2,
            lambda size, pairs, odd: (size + pairs) % 3 == 1,
            lambda size, pairs, odd: ~odd & (pairs == n // 2),
        ]
        for rule in rules:
            got = profile_table(m, rule)
            assert got.dtype == bool and got.shape == (1 << m,)
            assert not got.flags.writeable
            assert np.array_equal(got, rule(sizes, pairs, odd))
        # The missed-pair count is n - size + pairs.
        missed = missed_count_table(m)
        for k in range(n + 1):
            got = profile_table(m, lambda size, pairs, odd: n - size + pairs == k)
            assert np.array_equal(got, missed == k), k

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_keeps_rule_dtype(self, dtype):
        sizes, pairs = popcount_table(8), pair_count_table(8)
        got = profile_table(8, lambda size, pairs, odd: (size + 3 * pairs).astype(dtype))
        assert got.dtype == dtype and not got.flags.writeable
        assert np.array_equal(got, sizes + 3 * pairs)

    def test_needs_even_ground_set(self):
        with pytest.raises(ValueError):
            profile_table(5, lambda size, pairs, odd: size > 2)


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

    def test_profile_table_is_refused(self, monkeypatch):
        rule = lambda size, pairs, odd: size > 0

        def build(m):
            return profile_table(m, rule)

        build.__wrapped__ = build  # no cache to get past
        need = TABLE_BYTES_PER_SUBSET << 32
        if lattice.physical_memory() < need:
            message = self.raises_without_allocating(32, build)
            assert f"dense tables over 2^[32] need about {need} bytes" in message
        need = TABLE_BYTES_PER_SUBSET << 10
        monkeypatch.setattr(lattice, "physical_memory", lambda: need - 1)
        message = self.raises_without_allocating(10, build)
        assert message == (
            f"dense tables over 2^[10] need about {need} bytes, "
            f"more than the {need - 1} bytes of physical memory"
        )
        monkeypatch.setattr(lattice, "physical_memory", lambda: need)
        assert np.count_nonzero(profile_table(10, rule)) == (1 << 10) - 1

    @pytest.mark.parametrize("limit", ["1048576\n", "max\n", None, "garbage\n"])
    def test_cgroup_limit_bounds_physical_memory(self, monkeypatch, tmp_path, limit):
        host = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        path = tmp_path / "memory.max"
        if limit is not None:
            path.write_text(limit)
        monkeypatch.setattr(lattice, "CGROUP_MEMORY_MAX", str(path))
        want = min(host, 1 << 20) if limit == "1048576\n" else host
        assert lattice.physical_memory() == want

    def test_cgroup_limit_refuses_tables(self, monkeypatch, tmp_path):
        need = TABLE_BYTES_PER_SUBSET << 16
        path = tmp_path / "memory.max"
        path.write_text(f"{need - 1}\n")
        monkeypatch.setattr(lattice, "CGROUP_MEMORY_MAX", str(path))
        message = self.raises_without_allocating(16)
        assert message.endswith(f"more than the {need - 1} bytes of physical memory")

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
