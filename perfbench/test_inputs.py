"""Tests of the benchmark's own generators and checkers.

    python3 -m pytest perfbench
"""

import numpy as np
import pytest

import inputs


def band_rule_red(s: int, n: int) -> bool:
    """The c0 band table, read literally, for one subset of [2n]."""
    elements = [j + 1 for j in range(2 * n) if s >> j & 1]
    k = len(elements)
    pairs = sum(1 for i in range(1, n + 1) if 2 * i - 1 in elements and 2 * i in elements)
    missed = sum(1 for i in range(1, n + 1) if 2 * i - 1 not in elements and 2 * i not in elements)
    if k < (n + 1) // 2:
        return True
    if k < n:
        return pairs > 0
    if k == n:
        return sum(elements) % 2 == 1
    if k <= n + n // 2:
        return missed == 0
    return False


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_generator_matches_c0_band_rule(n):
    red = inputs.c0_red(n)
    assert red.shape == (1 << (2 * n),)
    assert [bool(x) for x in red] == [band_rule_red(s, n) for s in range(1 << (2 * n))]


def identity_block(n: int) -> list[str]:
    """The copy A -> A of 2^[n] inside 2^[2n], as report lines."""
    def text(s):
        return "{" + ",".join(str(j + 1) for j in range(n) if s >> j & 1) + "}"
    return [f"{text(s)} -> {text(s)}" for s in range(1 << n)]


def test_witness_checker_accepts_a_copy():
    assert inputs.check_witness(identity_block(4), 4, 8, np.ones(256, dtype=bool)) is None


@pytest.mark.parametrize("corrupt, problem", [
    (lambda b: b[:3] + ["{1,2} -> {1,5}"] + b[4:], "subset order"),
    (lambda b: b[:-1], "15 sources"),
    (lambda b: b[:5] + [b[4]] + b[6:], "listed twice"),
    (lambda b: b[:1] + ["{1} -> {2}"] + b[2:], "share an image"),
    (lambda b: b[:1] + ["{1} -> {9}"] + b[2:], "outside 1..8"),
])
def test_witness_checker_rejects_a_corrupted_embedding(corrupt, problem):
    found = inputs.check_witness(corrupt(identity_block(4)), 4, 8, np.ones(256, dtype=bool))
    assert found is not None and problem in found


def test_witness_checker_requires_membership():
    member = np.ones(256, dtype=bool)
    member[0b1011] = False
    assert "not in the family" in inputs.check_witness(identity_block(4), 4, 8, member)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_perturbations_plant_the_expected_copy(seed):
    base = inputs.c0_red(4)
    for index in range(4):
        red, kind, expected = inputs.perturbed_c0_n4(seed, index)
        again = inputs.perturbed_c0_n4(seed, index)[0]
        assert np.array_equal(red, again)
        if kind == "found":
            assert expected == {"red": "found", "blue": "skipped"}
            assert not np.any(base & ~red)  # Blue -> Red flips only
        else:
            assert expected == {"red": "absent", "blue": "found"}
            assert not np.any(red & ~base)  # Red -> Blue flips only: Red stays copy-free
        assert 0 < np.count_nonzero(red != base) <= 16


def test_qrc1_rendering():
    text = inputs.render_qrc1(inputs.layered_red(5), "layered")
    payload = "".join("R" if bin(s).count("1") % 2 else "B" for s in range(32))
    assert text == f"QRC1\nm=5\nscheme=layered\n{payload}\n".encode()
    assert inputs.render_qrc1(inputs.c0_red(4), "c0 n=4").count(b"\n") == 3 + 4


def test_flip_graph_edges_small():
    assert inputs.flip_graph_edges_text(2) == b"5 6\n5 9\n6 10\n9 10\n"
