import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import rieszops
from rieszops import DEFAULT_TOL, basis, build_bundle, build_ladder, factorize_from_alpha
from rieszops.report import ReportStack

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
    """Seeded generator, same recipe as the random suite."""
    real = rng.uniform(0.0, 1.0, size=(dim, dim))
    imag = rng.uniform(0.0, 1.0, size=(dim, dim))
    return np.eye(dim) + 0.3 * (real + 1j * imag)


def random_vector(rng, dim):
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def three_level_gamma(model):
    """Closed-form factorization weights (0, sqrt(eps_1), sqrt(eps_2)) of an
    admissible three-level model."""
    return np.array([0.0, np.sqrt(model.eps[1]), np.sqrt(model.eps[2])])


def results(check, tol=DEFAULT_TOL):
    """The CheckResult of a check at each point of its batch, in order, as
    the reports of a stack that records it read them."""
    stack = ReportStack("check", [{}] * np.size(check.residual))
    stack.record(tol, check)
    return [report.checks[0] for report in stack.reports()]


def result(check, tol=DEFAULT_TOL):
    """The CheckResult of a check on a single point (a batch of shape ())."""
    (single,) = results(check, tol)
    return single


def note_commutator(note: str) -> float:
    """The commutator residual max |(AB - BA) - (H_ab - H_ba)| that a
    ladder_products note records, at its printed 4 significant digits."""
    return float(re.search(r"; commutator (\S+);", note).group(1))


def factorize(bundle):
    """The ladder with gamma_n = sqrt(alpha_n) of a single point, which must
    satisfy the factorization preconditions."""
    roots, skipped, reasons = factorize_from_alpha(bundle.weights, bundle.is_real)
    assert not skipped and not reasons, reasons
    return build_ladder(bundle.pair, roots)


def solver_shapes(monkeypatch, run):
    """(argument shape, compute_uv) of every numpy.linalg.svd call that run()
    makes, in call order."""
    calls = []

    def counted(m, *args, solve=np.linalg.svd, **kwargs):
        calls.append((m.shape, kwargs.get("compute_uv", True)))
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    run()
    return calls


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
    return build_bundle(seeded_pair, np.arange(8.0))
