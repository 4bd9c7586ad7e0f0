"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; a failure in this module means the artifact
does not meet its contract.
"""

import subprocess
import time

import numpy as np

from conftest import (
    cli_command,
    cli_env,
    note_commutator,
    random_generator_matrix,
    random_vector,
    result,
    three_level_gamma,
)
from oracles import (
    domain_inclusion,
    domain_of,
    literal_H,
    literal_lowering,
    literal_raising,
    literal_S,
)
from rieszops import (
    build_bundle,
    build_ladder,
    check_adjoint_pair,
    check_intertwining,
    check_ladder_adjoints,
    check_metric_pair,
    check_products,
    check_selfadjoint_h,
    frame_inequality_check,
    from_generator,
    geometric,
    harmonic,
    operator_norm,
    poly,
    rank_one_sum,
    sqrt_poly,
    summability_verdict,
    verify_biorthogonality,
)
from rieszops.models import (
    projection_model,
    three_level,
    three_level_hat_spectrum,
)


def announce(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_three_level_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for t in (0.0, 0.1, 0.3, 0.5, 1.0):
        model = three_level(t)
        pair = from_generator(model.T)
        bundle = build_bundle(pair, np.array(model.eps))
        for got, expected in (
            (bundle.S_phi, model.S_phi),
            (bundle.S_psi, model.S_psi),
            (bundle.S_phi_sqrt, model.S_phi_sqrt),
            (bundle.h, model.h),
        ):
            worst = max(worst, float(np.abs(got - expected).max()))
        for n in range(3):
            worst = max(
                worst,
                float(
                    np.linalg.norm(
                        bundle.H_phi_psi @ model.phi[n] - model.eps[n] * model.phi[n]
                    )
                ),
            )
        assert worst <= 1e-10, f"t = {t}: residual {worst:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    announce(1, f"closed forms at 5 parameters, worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_norm_constancy():
    start = time.perf_counter()
    expected = np.sqrt((39.0 + 7.0 * np.sqrt(29.0)) / 2.0)
    worst = 0.0
    for t in np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False):
        model = three_level(float(t))
        norm_t = operator_norm(model.T)
        norm_t_inv = operator_norm(np.linalg.inv(model.T))
        worst = max(worst, abs(norm_t - expected), abs(norm_t_inv - norm_t / 5.0))
    assert worst <= 1e-9, f"worst deviation {worst:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    announce(2, f"norms constant over 50-point sweep, worst deviation {worst:.2e}")


def test_criterion_3_three_level_ladder_suite():
    model = three_level(0.3)
    pair = from_generator(model.T)
    g = three_level_gamma(model)
    lp = build_ladder(pair, g)
    a, b = lp.A_phi_psi, lp.B_phi_psi
    worst = 0.0
    actions = [
        a @ model.phi[0],
        a @ model.phi[1] - g[1] * model.phi[0],
        a @ model.phi[2] - g[2] * model.phi[1],
        b @ model.phi[0] - g[1] * model.phi[1],
        b @ model.phi[1] - g[2] * model.phi[2],
        b @ model.phi[2],
        b.conj().T @ model.psi[0],
        b.conj().T @ model.psi[1] - g[1] * model.psi[0],
        b.conj().T @ model.psi[2] - g[2] * model.psi[1],
        a.conj().T @ model.psi[0] - g[1] * model.psi[1],
        a.conj().T @ model.psi[1] - g[2] * model.psi[2],
        a.conj().T @ model.psi[2],
    ]
    for vec in actions:
        worst = max(worst, float(np.linalg.norm(vec)))
    worst = max(worst, float(np.abs(b @ a - model.H).max()))
    hat_check = result(three_level_hat_spectrum(model, a @ b), tol=1e-10)
    worst = max(worst, hat_check.residual)
    assert worst <= 1e-10, f"worst ladder residual {worst:.3e}"
    announce(3, f"12 ladder actions, H = BA, and the AB relabeling, worst {worst:.2e}")


def test_criterion_4_projection_closed_forms():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for trial in range(10):
        dim = int(rng.integers(6, 17))
        support = int(rng.integers(2, 6))
        coeffs = random_vector(rng, support)
        coeffs /= np.linalg.norm(coeffs)
        model = projection_model(dim, coeffs, poly(1.0).terms(dim))
        pair = from_generator(model.T)
        bundle = build_bundle(pair, model.weights)
        for got, expected in (
            (pair.psi.conj().T, model.T_inv),
            (bundle.S_phi, model.S_phi),
            (bundle.S_phi_sqrt, model.S_phi_sqrt),
            (bundle.S_psi_sqrt, model.S_psi_sqrt),
        ):
            worst = max(worst, float(np.abs(got - expected).max()))
        h = bundle.h
        worst = max(worst, float(np.abs(h - h.conj().T).max()))
        weights = poly(1.0).terms(dim)
        for k in range(dim):
            if model.inside[k]:
                continue
            col = h[:, k].copy()
            col[k] -= weights[k]
            worst = max(worst, float(np.abs(col).max()))
        phi_t = bundle.Phi
        worst = max(
            worst, float(np.abs(phi_t.conj().T @ phi_t - np.eye(dim)).max())
        )
        assert worst <= 1e-10, f"trial {trial}: residual {worst:.3e}"
    announce(4, f"10 seeded projection models, worst residual {worst:.2e}")


def _property_alpha(rng, dim: int, complex_weights: bool) -> np.ndarray:
    values = rng.normal(size=dim) * 2.0
    if complex_weights:
        values = values + 1j * rng.normal(size=dim)
    return values


def _property_gamma(rng, dim: int, complex_weights: bool) -> np.ndarray:
    mags = np.sort(rng.uniform(0.1, 2.0, size=dim))
    mags[0] = 0.0
    if complex_weights:
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=dim))
        return mags * phases
    return mags


def test_criterion_5_property_suite_random_generators():
    start = time.perf_counter()
    tol = 1e-9
    worst = 0.0
    dims = (4, 8, 16, 32)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        dim = dims[seed % 4]
        complex_weights = seed % 2 == 1
        pair = from_generator(random_generator_matrix(rng, dim))
        alpha = _property_alpha(rng, dim, complex_weights)
        gamma = _property_gamma(rng, dim, complex_weights)
        bundle = build_bundle(pair, alpha)
        checks = [
            result(verify_biorthogonality(pair), tol),
            result(check_metric_pair(bundle), tol),
            result(check_adjoint_pair(bundle), tol),
            result(check_intertwining(bundle), tol),
            result(check_selfadjoint_h(bundle), tol),
        ]
        for _ in range(10):
            frame = frame_inequality_check(pair, bundle.weights, random_vector(rng, dim)[:, None])
            checks.append(result(frame, tol))
        lp = build_ladder(pair, gamma)
        checks.append(result(check_ladder_adjoints(lp), tol))
        products = result(check_products(lp), tol)
        checks.append(products)
        assert note_commutator(products.note) <= tol, products.note
        for check in checks:
            assert check.passed, f"seed {seed} dim {dim}: {check.name} {check.residual:.3e}"
            worst = max(worst, check.residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    announce(5, f"50 generators, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_brute_force_oracle_equivalence():
    rng = np.random.default_rng(64)
    pair = from_generator(random_generator_matrix(rng, 4))
    alpha = random_vector(rng, 4)
    beta = random_vector(rng, 4)
    gamma = np.concatenate([[0.0], random_vector(rng, 3)])
    lp = build_ladder(pair, gamma)
    comparisons = [
        (rank_one_sum(alpha, pair.phi, pair.psi), literal_H(pair, alpha, "phi_psi")),
        (rank_one_sum(alpha, pair.psi, pair.phi), literal_H(pair, alpha, "psi_phi")),
        (rank_one_sum(beta, pair.phi, pair.phi), literal_S(pair, beta, "phi")),
        (rank_one_sum(beta, pair.psi, pair.psi), literal_S(pair, beta, "psi")),
        (rank_one_sum(np.ones(4), pair.phi, pair.phi), literal_S(pair, np.ones(4), "phi")),
        (rank_one_sum(np.ones(4), pair.psi, pair.psi), literal_S(pair, np.ones(4), "psi")),
        (lp.A_phi_psi, literal_lowering(pair, gamma, "phi_psi")),
        (lp.A_psi_phi, literal_lowering(pair, gamma, "psi_phi")),
        (lp.B_phi_psi, literal_raising(pair, gamma, "phi_psi")),
        (lp.B_psi_phi, literal_raising(pair, gamma, "psi_phi")),
    ]
    worst = max(float(np.abs(got - oracle).max()) for got, oracle in comparisons)
    assert worst <= 1e-12, f"worst oracle gap {worst:.3e}"
    announce(6, f"10 operators vs literal summation, worst gap {worst:.2e}")


def test_criterion_7_domain_diagnostics():
    assert summability_verdict(poly(1.0), geometric(0.5)).verdict == "converged"
    assert summability_verdict(poly(1.0), harmonic()).verdict == "diverged"
    rng = np.random.default_rng(77)
    monotone_pairs = 0
    for trial in range(20):
        if trial % 2 == 0:
            p = rng.uniform(0.5, 3.0)
            w_big = poly(p)
            w_small = poly(p - rng.uniform(0.0, 0.5))
        else:
            r = rng.uniform(1.0, 1.5)
            w_big = geometric(r)
            w_small = geometric(rng.uniform(0.9, 1.0) * r)
        coeffs = geometric(rng.uniform(0.3, 0.8))
        if summability_verdict(w_big, coeffs).verdict == "converged":
            assert summability_verdict(w_small, coeffs).verdict == "converged"
            monotone_pairs += 1
    assert monotone_pairs > 0
    gamma = sqrt_poly(1.0)
    assert domain_inclusion(domain_of("AB", gamma), domain_of("BA", gamma))
    announce(
        7,
        f"verdict table and inclusion checks, {monotone_pairs} monotone pairs exercised",
    )


def test_criterion_8_byte_identical_reports():
    command = cli_command("verify", "random", "--dim", "16", "--seed", "42")
    first = subprocess.run(command, capture_output=True, check=False, env=cli_env())
    second = subprocess.run(command, capture_output=True, check=False, env=cli_env())
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
    announce(8, f"two CLI runs produced {len(first.stdout)} identical bytes")
