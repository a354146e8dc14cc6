import json
from functools import lru_cache
from importlib import resources
from itertools import combinations

import numpy as np
import pytest

from qsodyn.simplex import make_point
from qsodyn.specfile import parse_spec


def load_fixture(name):
    text = resources.files("qsodyn").joinpath(f"fixtures/{name}.json").read_text()
    return parse_spec(json.loads(text), source=name)


def fixture_path(name):
    return str(resources.files("qsodyn").joinpath(f"fixtures/{name}.json"))


@lru_cache(maxsize=None)
def reference_grid(n, r):
    """Lattice points built one at a time through make_point, as coordinate tuples."""
    points = []
    for cuts in combinations(range(r + n - 1), n - 1):
        parts = []
        prev = -1
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(r + n - 2 - prev)
        points.append(make_point([p / r for p in parts]).coords)
    return tuple(points)


@lru_cache(maxsize=None)
def reference_samples(n, count, seed):
    """Exponential-normalized draws passed one at a time through make_point."""
    draws = np.random.default_rng(seed).exponential(size=(count, n))
    draws /= draws.sum(axis=1, keepdims=True)
    return tuple(make_point(row).coords for row in draws)


@pytest.fixture
def three_vertex_operator():
    """n=3 operator whose fixed points are exactly the three vertices."""
    return load_fixture("attracting_not_unique").build()


@pytest.fixture
def sufficiency_gap_operator():
    """n=3 operator failing the uniqueness bounds yet with a unique fixed point."""
    return load_fixture("uniqueness_sufficiency_gap").build()


@pytest.fixture
def s2_noncontractive_operator():
    """n=3 operator with one fixed point but contraction modulus >= 1."""
    return load_fixture("unique_not_contractive_s2").build()
