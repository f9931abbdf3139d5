"""Shared helpers: seeded random instances and report comparison."""

import random

import numpy as np

from cuberamsey import Coloring, CubeSpace, SetFamily, make_c0
from cuberamsey.reports import stable_lines

try:
    from hypothesis import settings

    settings.register_profile("suite", derandomize=True, deadline=None, max_examples=60)
    settings.load_profile("suite")
except ImportError:
    pass


def random_members(m: int, rng: random.Random, density: float = 0.5) -> list[int]:
    return [v for v in range(1 << m) if rng.random() < density]


def random_family(m: int, rng: random.Random, density: float = 0.5) -> SetFamily:
    space = CubeSpace(m)
    mask = np.zeros(space.size, dtype=bool)
    for v in random_members(m, rng, density):
        mask[v] = True
    return SetFamily(space, mask)


def random_coloring(m: int, rng: random.Random, scheme: str = "random") -> Coloring:
    space = CubeSpace(m)
    red = np.array([rng.random() < 0.5 for _ in range(space.size)], dtype=bool)
    return Coloring(space, red, scheme=scheme)


def tampered_c0(n):
    """c0 with {1,2,3,4,5} painted red: at n = 4 it misses the pair {7,8},
    so Red is not restrictive, yet neither class holds a copy of 2^[4]."""
    c = make_c0(n)
    red = c.red.copy()
    red[31] = True
    return Coloring(c.space, red, scheme="tampered")


def same_stable_report(a: str, b: str) -> bool:
    return stable_lines(a) == stable_lines(b)
