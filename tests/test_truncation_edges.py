"""Smallest truncation levels: the pipeline must stay consistent at the
dimensions where interior ranges collapse."""

import numpy as np
import pytest

from conftest import random_generator_matrix, result
from rieszops import (
    build_bundle,
    build_ladder,
    check_ladder_actions,
    check_ladder_adjoints,
    check_metric_pair,
    check_products,
    from_generator,
    hermitian_eig,
)


def test_dim_1_pipeline():
    pair = from_generator(np.array([[2.0 + 1.0j]]))
    bundle = build_bundle(pair, np.array([3.0]))
    assert bundle.H_phi_psi[0, 0] == pytest.approx(3.0)
    assert bundle.S_phi[0, 0] == pytest.approx(5.0)  # |2+i|^2
    assert bundle.h[0, 0] == pytest.approx(3.0)
    assert result(check_metric_pair(bundle)).passed


def test_dim_1_ladder_is_zero():
    pair = from_generator(np.array([[1.0 + 0.0j]]))
    lp = build_ladder(pair, np.array([0.0]))
    assert np.all(lp.A_phi_psi == 0) and np.all(lp.B_phi_psi == 0)
    assert result(check_ladder_actions(lp)).passed


def test_dim_2_interior_is_single_index():
    rng = np.random.default_rng(5)
    pair = from_generator(random_generator_matrix(rng, 2))
    lp = build_ladder(pair, np.array([0.0, 1.5]))
    assert result(check_ladder_actions(lp)).passed
    assert result(check_ladder_adjoints(lp)).passed
    products = result(check_products(lp))
    assert products.passed
    assert products.note.endswith("gamma |.|-monotone")
    # B annihilates the top basis vector at truncation
    assert np.linalg.norm(lp.B_phi_psi @ pair.phi[:, 1]) <= 1e-12


def test_zero_matrix_eigendecomposition():
    eig = hermitian_eig(np.zeros((3, 3), dtype=complex))
    np.testing.assert_allclose(eig.eigenvalues, np.zeros(3))
    np.testing.assert_allclose(eig.eigenvectors, np.eye(3))


def test_one_by_one_eigendecomposition():
    eig = hermitian_eig(np.array([[4.0 + 0.0j]]))
    assert eig.eigenvalues[0] == pytest.approx(4.0)
