"""Acceptance gate: one test per shipping criterion, at the stated
tolerance.  Each test prints a single PASS line on success; the pytest -v
status line doubles as the per-criterion verdict.

Criterion 2's stretch instance (the full n = 5 exhaustion) is gated
behind CUBERAMSEY_STRETCH=1 because it is specified with a 30-minute
multi-threaded allowance; its budget semantics are still asserted cheaply
in the main criterion test.
"""

import os
import random
import time
from itertools import combinations

import numpy as np
import pytest

import oracles
from oracles import extend_to_maximal, naive_count_embeddings
from conftest import random_coloring, random_family
from cuberamsey import (
    Color,
    ElementSet,
    SetFamily,
    build_flip_graph,
    check_bipartition,
    dual_coloring,
    exists_good_coloring,
    find_copy,
    is_restrictive,
    make_c0,
    make_layered,
    parse_coloring,
    ramsey_bruteforce,
    render_coloring,
    save_coloring,
)
from cuberamsey import properties
from cuberamsey.cli import EXIT_FOUND, EXIT_OK, main
from cuberamsey.lattice import (
    missed_count_table,
    odd_sum_table,
    pair_count_table,
    popcount_table,
)
from cuberamsey.reports import parse_report

# Found embeddings accumulated across the gate for criterion 7.
FOUND_POOL: list = []


def _clear_big_tables():
    for table in (popcount_table, pair_count_table, missed_count_table, odd_sum_table):
        table.cache_clear()
    properties._band_table.cache_clear()


def test_criterion_01_restrictive_construction_n4_to_n10_under_5s():
    t0 = time.perf_counter()
    for n in range(4, 11):
        coloring = make_c0(n)
        assert is_restrictive(coloring.color_class(Color.RED), n).holds, n
        dual_red = dual_coloring(coloring).color_class(Color.RED)
        assert is_restrictive(dual_red, n).holds, n
    elapsed = time.perf_counter() - t0
    _clear_big_tables()
    assert elapsed < 5.0, f"restrictiveness sweep took {elapsed:.2f}s"
    print(f"criterion 1 PASS: construction restrictive for n=4..10 in {elapsed:.2f}s")


def test_criterion_02_lower_bound_n4_exhaustive_under_60s(capsys):
    t0 = time.perf_counter()
    code = main(["verify-lower-bound", "--n", "4", "--threads", "1"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    fields, _ = parse_report(out)
    assert code == EXIT_OK
    assert fields["verdict"] == "verified"
    assert fields["bound"] == "R(Q4,Q4) >= 9"
    assert fields["red_restrictive"] == "holds"
    assert fields["dual-red_restrictive"] == "holds"
    assert fields["red"] == "absent" and fields["blue"] == "absent"
    # Node counts are only reported for completed (non-budgeted) exhaustion.
    assert int(fields["red_nodes"]) > 0 and int(fields["blue_nodes"]) > 0
    assert elapsed < 60.0, f"n=4 verification took {elapsed:.2f}s"

    # n=5 budget semantics: an unfinished run must say inconclusive, never
    # absent.
    out5 = find_copy(make_c0(5).color_class(Color.RED), 5, budget_ms=300.0)
    assert out5.status == "inconclusive"
    print(f"criterion 2 PASS: n=4 verified exhaustively in {elapsed:.2f}s")


@pytest.mark.skipif(
    not os.environ.get("CUBERAMSEY_STRETCH"),
    reason="30-minute stretch instance; set CUBERAMSEY_STRETCH=1 to run",
)
def test_criterion_02_stretch_lower_bound_n5(capsys):
    code = main(["verify-lower-bound", "--n", "5", "--budget-ms", "1800000"])
    out = capsys.readouterr().out
    fields, _ = parse_report(out)
    assert code == EXIT_OK
    assert fields["verdict"] == "verified"
    # The audit counters of both exhaustions are frozen.
    counters = {
        "red_nodes": "7880858",
        "red_prune_root-gap": "10555",
        "red_prune_cardinality-window": "74391078",
        "red_prune_source-symmetry": "6710743",
        "red_prune_target-symmetry": "2925",
        "blue_nodes": "933865",
        "blue_prune_root-gap": "10555",
        "blue_prune_cardinality-window": "12590368",
        "blue_prune_source-symmetry": "4943105",
        "blue_prune_target-symmetry": "2925",
    }
    assert {key: fields.get(key) for key in counters} == counters
    print("criterion 2 stretch PASS: n=5 verified")


def test_criterion_03_n3_copy_found_under_5s_and_recheck_passes(capsys, tmp_path):
    t0 = time.perf_counter()
    out = find_copy(make_c0(3).color_class(Color.RED), 3)
    elapsed = time.perf_counter() - t0
    assert out.status == "found"
    color, embedding = Color.RED, out.embedding
    FOUND_POOL.append(embedding)
    assert elapsed < 5.0, f"n=3 search took {elapsed:.2f}s"

    coloring_path = tmp_path / "c0n3.qrc1"
    report_path = tmp_path / "report.txt"
    save_coloring(make_c0(3), coloring_path)
    code = main(
        [
            "find-copy", "--n", "3",
            "--coloring", str(coloring_path),
            "--threads", "1", "--out", str(report_path),
        ]
    )
    capsys.readouterr()
    assert code == EXIT_FOUND
    code = main(["recheck", str(report_path), "--coloring", str(coloring_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert parse_report(out)[0]["verdict"] == "certificates-valid"
    print(f"criterion 3 PASS: {color.name} copy at n=3 in {elapsed:.2f}s, recheck OK")


def test_criterion_04_layered_absent_for_n2_n3_under_60s():
    t0 = time.perf_counter()
    for n in (2, 3):
        lay = make_layered(2 * n - 1)
        for color in (Color.RED, Color.BLUE):
            out = find_copy(lay.color_class(color), n)
            assert out.status == "absent", (n, color)
            assert out.nodes_explored >= 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 4 PASS: layered colorings copy-free for n=2,3 in {elapsed:.2f}s")


def test_criterion_05_brute_oracle_values_2_and_4_under_60s():
    t0 = time.perf_counter()
    assert exists_good_coloring(1, 1).good_mask is not None
    assert exists_good_coloring(2, 3).good_mask is not None
    no_q2 = exists_good_coloring(1, 2)
    assert no_q2.good_mask is None and no_q2.colorings_checked == 16
    no_q4 = exists_good_coloring(2, 4)
    assert no_q4.good_mask is None and no_q4.colorings_checked == 65536
    assert ramsey_bruteforce(1, 4).value == 2
    assert ramsey_bruteforce(2, 4).value == 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 5 PASS: exact values 2 and 4 certified in {elapsed:.2f}s")


def test_criterion_06_engine_matches_naive_on_seeded_families():
    checked = 0
    for n in (1, 2):
        for m in (1, 2, 3, 4):
            rng = random.Random(5000 + 10 * n + m)
            for trial in range(50):
                fam = random_family(m, rng, density=rng.uniform(0.2, 0.8))
                members = [int(v) for v in fam.member_values()]
                expected = naive_count_embeddings(members, n)
                counted = find_copy(fam, n, mode="count")
                first = find_copy(fam, n)
                assert counted.count == expected, (n, m, trial)
                assert (counted.status == "found") == (expected > 0)
                assert (first.status == "found") == (expected > 0)
                if first.status == "found":
                    FOUND_POOL.append(first.embedding)
                if trial % 10 == 0:
                    par = find_copy(fam, n, mode="count", workers=2)
                    assert par.count == expected
                    par_first = find_copy(fam, n, workers=2)
                    assert par_first.status == first.status
                    if par_first.status == "found":
                        assert par_first.embedding == first.embedding
                checked += 1
    assert checked == 400
    print(f"criterion 6 PASS: engine equals naive oracle on {checked} seeded families")


def test_criterion_07_derived_bounds_hold_on_all_found_embeddings():
    # Make the pool self-sufficient when this test runs alone.
    for m in (2, 3, 4):
        for n in range(1, min(m, 3) + 1):
            out = find_copy(SetFamily(np.ones(1 << m, dtype=bool)), n)
            assert out.status == "found"
            FOUND_POOL.append(out.embedding)
    for color in (Color.RED, Color.BLUE):
        out = find_copy(make_c0(3).color_class(color), 3)
        assert out.status == "found"
        FOUND_POOL.append(out.embedding)
    rng = random.Random(424)
    for _ in range(30):
        fam = random_family(5, rng, density=0.75)
        out = find_copy(fam, 2)
        if out.status == "found":
            FOUND_POOL.append(out.embedding)

    assert len(FOUND_POOL) > 50
    violations = 0
    for e in FOUND_POOL:
        vals = list(e.images)
        size = 1 << e.n
        for a in range(size):
            for b in range(size):
                if a != b and a & b == a:  # a is a subset of b
                    gap = oracles.popcount(vals[b]) - oracles.popcount(vals[a])
                    if gap < oracles.popcount(b) - oracles.popcount(a):
                        violations += 1
        top = vals[size - 1]
        children = [vals[(size - 1) ^ (1 << i)] for i in range(e.n)]
        for k in range(1, e.n + 1):
            for group in combinations(children, k):
                inter = top
                for c in group:
                    inter &= c
                if oracles.popcount(inter) > oracles.popcount(top) - k:
                    violations += 1
    assert violations == 0
    print(
        f"criterion 7 PASS: zero bound violations across {len(FOUND_POOL)} found embeddings"
    )


def test_criterion_08_flip_graph_invariants_to_n10_under_10s():
    t0 = time.perf_counter()
    for n in range(1, 11):
        graph = build_flip_graph(n)
        report = check_bipartition(graph)
        assert len(graph.vertices) == 1 << n
        assert len(graph.edges) == n << (n - 1)
        assert np.bincount(graph.ends.ravel(), minlength=1 << n).tolist() == [n] * (1 << n)
        assert report.bipartite and report.connected and report.matches_parity
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"flip graph sweep took {elapsed:.2f}s"
    print(f"criterion 8 PASS: flip graphs n=1..10 verified in {elapsed:.2f}s")


def test_criterion_09_extension_sweep_n4_n5_n6():
    for n in (4, 5, 6):
        family = make_c0(n).color_class(Color.RED)
        seen_tops: set[int] = set()
        for v in family.member_values():
            s = ElementSet(int(v), 2 * n)
            ext = extend_to_maximal(family, s, n)
            assert ext.size == n + n // 2, (n, str(s))
            assert oracles.pairs_and_singles(ext.bits, n)[0] == n // 2
            assert oracles.missed(ext.bits, n) == []
            assert ext.bits & s.bits == s.bits
            if ext.bits in seen_tops:
                continue  # same augmented family as an earlier member
            seen_tops.add(ext.bits)
            aug = family if family.mask[ext.bits] else family.with_toggled(ext.bits)
            assert is_restrictive(aug, n).holds, (n, str(s))
    _clear_big_tables()
    print("criterion 9 PASS: maximal completions valid over the red class, n=4..6")


def test_criterion_10_format_roundtrip_200_per_ground_set():
    for m in range(1, 9):
        rng = random.Random(8800 + m)
        for trial in range(200):
            c = random_coloring(m, rng, scheme=f"gate-{m}-{trial}")
            text = render_coloring(c)
            assert parse_coloring(text) == c
            assert render_coloring(parse_coloring(text)) == text
    # Byte-exact output for a fixed input.
    assert render_coloring(make_layered(1)) == "QRC1\nm=1\nscheme=layered\nBR\n"
    assert render_coloring(make_c0(2)) == "QRC1\nm=4\nscheme=c0 n=2\nRBBRBBRRBRBRRRRB\n"
    print("criterion 10 PASS: 1600 round-trips byte-stable")
