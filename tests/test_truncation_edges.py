"""Smallest truncation levels: the pipeline must stay consistent at the
dimensions where interior ranges collapse."""

import numpy as np
import pytest

from conftest import random_generator_matrix, result
from rieszops import (
    build_bundle,
    build_ladder,
    check_ladder_actions,
    check_metric_pair,
    check_products,
    from_generator,
    rank_one_sum,
)
from rieszops.linalg import LinalgError


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
    # A* = B_{psi,phi}: one rank-one term
    b_psi_phi = rank_one_sum(lp.weights[1:], pair.psi[:, 1:], pair.phi[:, :-1])
    assert np.abs(lp.A_phi_psi.conj().T - b_psi_phi).max() <= 1e-12
    products = result(check_products(lp))
    assert products.passed
    assert products.note.endswith("gamma |.|-monotone")
    # B annihilates the top basis vector at truncation
    assert np.linalg.norm(lp.B_phi_psi @ pair.phi[:, 1]) <= 1e-12


def test_zero_generator_is_rejected_as_singular():
    with pytest.raises(LinalgError, match=r"numerically singular \(sigma_min = 0\.0+e\+00"):
        from_generator(np.zeros((3, 3), dtype=complex))


def test_one_by_one_generator_svd():
    pair = from_generator(np.array([[-2.0 + 0.0j]]))
    assert pair.frame_lower == pair.frame_upper == pytest.approx(2.0)
    assert pair.singular_values[0] == pytest.approx(2.0)
    assert abs(pair.singular_vectors[0, 0]) == pytest.approx(1.0)
    assert pair.metric[0, 0] == pytest.approx(4.0)
