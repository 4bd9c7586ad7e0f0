import os
import sys
from pathlib import Path

import numpy as np
import pytest

import rieszops
from rieszops import basis, build_bundle, explicit

#: the directory holding the rieszops package under test
PACKAGE_ROOT = str(Path(rieszops.__file__).resolve().parents[1])


def cli_command(*args):
    """`python -m rieszops.cli ARGS` for a fresh interpreter."""
    return [sys.executable, "-m", "rieszops.cli", *args]


def cli_env():
    """Environment in which a fresh interpreter imports the package under
    test, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")])
    )
    return env


def random_generator_matrix(rng, dim):
    """Well-conditioned seeded generator, same recipe as the random suite."""
    real = rng.uniform(0.0, 1.0, size=(dim, dim))
    imag = rng.uniform(0.0, 1.0, size=(dim, dim))
    return np.eye(dim) + 0.3 * (real + 1j * imag)


def random_vector(rng, dim):
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def random_pair(dim, seed):
    rng = np.random.default_rng(seed)
    return basis.from_generator(random_generator_matrix(rng, dim))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def seeded_pair():
    return random_pair(8, 3)


@pytest.fixture
def seeded_bundle(seeded_pair):
    return build_bundle(seeded_pair, explicit(np.arange(8, dtype=float)))
