"""Mutation table for the check battery: which checks catch which mutants.

Each mutant is a semantic fault applied in-process by monkeypatching a
function the suites reach through its module, never by editing source:
the ladder mutants patch ladder and model functions, the battery mutants
patch what factory.build_bundle and basis.from_generator return, and the
generator mutants give both models a wrong T beside their closed forms,
which only the closed-form checks can see: every generic identity holds
for any T.  The input mutants feed the battery a wrong alpha or gamma:
alpha_1 and alpha_2 swapped against the models' closed forms, and every
ladder built from conj(gamma).  CATCHES
keeps the full mutant x check matrix on the fixed argv set below, so a
change that lets a check go blind to a mutant shows up as a diff of this
table.  Every mutant must fail some check beyond the unmutated failures,
except the known equivalent one.
"""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest

from rieszops import basis, cli, factory, ladder, models, suites
from rieszops.linalg import max_entry

ARGV = {
    "three-level t=0.3": ("verify", "three-level", "--t", "0.3"),
    "three-level t=1.2": ("verify", "three-level", "--t", "1.2"),
    "random real": ("verify", "random", "--dim", "8"),
    "random complex-gamma": ("verify", "random", "--dim", "8", "--gamma", "geometric:1.1+0.3j"),
    "random complex-alpha": ("verify", "random", "--dim", "8", "--alpha", "geometric:0.9+0.2j"),
    "projection": ("verify", "projection", "--dim", "8", "--n", "3", "--seed", "1"),
}


def swap_a_and_b(monkeypatch):
    """build_ladder returns B as A and A as B."""
    build = ladder.build_ladder

    def swapped(pair, weights):
        lp = build(pair, weights)
        return dataclasses.replace(lp, A_phi_psi=lp.B_phi_psi, B_phi_psi=lp.A_phi_psi)

    monkeypatch.setattr(ladder, "build_ladder", swapped)


def closed_forms_real_part(monkeypatch):
    """The closed-form A(t), B(t) with their imaginary parts dropped: the
    same matrices wherever gamma is real."""
    closed = models.three_level_ladder_closed_forms

    def real_part(model):
        a, b = closed(model)
        return a.real.astype(complex), b.real.astype(complex)

    monkeypatch.setattr(models, "three_level_ladder_closed_forms", real_part)


def factorize_from_alpha_1(monkeypatch):
    """factorize_from_alpha takes gamma_n = sqrt(alpha_n - alpha_1)."""
    factorize = ladder.factorize_from_alpha

    def shifted(alpha, is_real):
        _, failed, reasons = factorize(alpha, is_real)
        return np.sqrt((alpha - alpha[..., 1:2]).astype(complex)), failed, reasons

    monkeypatch.setattr(ladder, "factorize_from_alpha", shifted)


def ab_formed_as_ba(monkeypatch):
    """LadderPair.AB returns B A."""
    monkeypatch.setattr(ladder.LadderPair, "AB", property(lambda lp: lp.BA))


def bumped(m: np.ndarray) -> np.ndarray:
    """m with its top-right entry moved by 1e-8 of its largest entry modulus."""
    out = m.copy()
    out[..., 0, -1] += 1e-8 * max_entry(m)
    return out


def bundle_mutant(change):
    """A mutant whose build_bundle returns change(bundle)."""

    def apply(monkeypatch):
        build = factory.build_bundle
        monkeypatch.setattr(factory, "build_bundle", lambda pair, w: change(build(pair, w)))

    return apply


def pair_mutant(change):
    """A mutant whose from_generator returns change(pair)."""

    def apply(monkeypatch):
        build = basis.from_generator
        monkeypatch.setattr(basis, "from_generator", lambda t: change(build(t)))

    return apply


def patch_model(monkeypatch, build: str, field: str, change) -> None:
    """Models built by models.<build> carry change(x) in place of their
    field x: a stored field replaced on the built model, one the model forms
    on read (a property) changed on every read; every other field and
    closed form unchanged."""
    model_class = MODEL_ROWS[build][0]
    formed = getattr(model_class, field, None)
    if isinstance(formed, property):
        monkeypatch.setattr(model_class, field, property(lambda model: change(formed.fget(model))))
        return
    make = getattr(models, build)

    def mutated(*args):
        model = make(*args)
        return dataclasses.replace(model, **{field: change(getattr(model, field))})

    monkeypatch.setattr(models, build, mutated)


def model_mutant(change, fields):
    """A mutant whose three-level and projection models each carry
    change(x) in place of x, their field that fields names (in that order),
    every closed form unchanged."""

    def apply(monkeypatch):
        for build, field in zip(("three_level", "projection_model"), fields):
            patch_model(monkeypatch, build, field, change)

    return apply


def generator_mutant(change):
    """A mutant whose models carry change(T) as their generator."""
    return model_mutant(change, ("T", "T"))


def swap_1_2(t: np.ndarray) -> np.ndarray:
    """t with entries 1 and 2 of its last axis swapped: the columns phi_1
    and phi_2 of a generator, alpha_1 and alpha_2 of a weight vector."""
    out = t.copy()
    out[..., [1, 2]] = t[..., [2, 1]]
    return out


def alpha_1_2_swapped(monkeypatch):
    """The battery reads each model's eigenvalues with alpha_1 and alpha_2
    swapped: the three-level model carries them as its eps (which its ladder
    closed forms and hat spectrum read too); the projection battery gets
    them as its alpha, while the model, whose H closed form reads its
    weights on every read, keeps its own."""
    patch_model(monkeypatch, "three_level", "eps", swap_1_2)
    battery = suites._battery

    def swapped(stack, generator, alpha, gamma, rngs, tol, model=None, *rest):
        if isinstance(model, models.ProjectionModel):
            alpha = swap_1_2(alpha)
        return battery(stack, generator, alpha, gamma, rngs, tol, model, *rest)

    monkeypatch.setattr(suites, "_battery", swapped)


def gamma_conjugated(monkeypatch):
    """build_ladder builds every ladder from conj(gamma)."""
    build = ladder.build_ladder
    monkeypatch.setattr(ladder, "build_ladder", lambda pair, weights: build(pair, weights.conj()))


def bump_field(field: str):
    return bundle_mutant(lambda b: dataclasses.replace(b, **{field: bumped(getattr(b, field))}))


def h_from_conj_alpha(b):
    """H_{phi,psi}, and h from it, built with conj(alpha)."""
    h = factory.rank_one_sum(b.weights.conj(), b.pair.phi, b.pair.psi)
    return dataclasses.replace(b, H_phi_psi=h, h=b.S_psi_sqrt @ h @ b.S_phi_sqrt)


BUMPED_FIELDS = (
    "S_psi", "S_phi", "S_phi_sqrt", "S_psi_sqrt", "H_phi_psi", "H_psi_phi",
    "S_alpha_phi", "S_alpha_psi", "h",
)

MUTANTS = {
    "swap A and B": swap_a_and_b,
    "closed forms real part": closed_forms_real_part,
    "factorize from alpha_1": factorize_from_alpha_1,
    "AB formed as BA": ab_formed_as_ba,
    **{f"{field} bumped": bump_field(field) for field in BUMPED_FIELDS},
    "roots swapped": bundle_mutant(
        lambda b: dataclasses.replace(b, S_phi_sqrt=b.S_psi_sqrt, S_psi_sqrt=b.S_phi_sqrt)
    ),
    "h with roots swapped": bundle_mutant(
        lambda b: dataclasses.replace(b, h=b.S_phi_sqrt @ b.H_phi_psi @ b.S_psi_sqrt)
    ),
    "H_psi_phi = H_phi_psi": bundle_mutant(
        lambda b: dataclasses.replace(b, H_psi_phi=b.H_phi_psi)
    ),
    "H from conj(alpha)": bundle_mutant(h_from_conj_alpha),
    "Phi = S_phi^{1/2} psi": bundle_mutant(
        lambda b: dataclasses.replace(b, Phi=b.S_phi_sqrt @ b.pair.psi)
    ),
    "psi bumped": pair_mutant(lambda p: dataclasses.replace(p, psi=bumped(p.psi))),
    "psi without its adjoint": pair_mutant(
        lambda p: dataclasses.replace(p, psi=p.psi.conj().mT)
    ),
    "frame bounds swapped": pair_mutant(
        lambda p: dataclasses.replace(p, frame_lower=p.frame_upper, frame_upper=p.frame_lower)
    ),
    "frame_upper x 0.99": pair_mutant(
        lambda p: dataclasses.replace(p, frame_upper=0.99 * p.frame_upper)
    ),
    "T columns 1, 2 swapped": generator_mutant(swap_1_2),
    "T transposed": generator_mutant(lambda t: t.mT),
    "T conjugated": generator_mutant(np.conj),
    "T x 1.01": generator_mutant(lambda t: 1.01 * t),
    "alpha_1, alpha_2 swapped": alpha_1_2_swapped,
    "gamma conjugated": gamma_conjugated,
}

#: mutants no check can catch: S_phi psi = T T* (T*)^{-1} = phi, so
#: S_phi^{1/2} psi = S_phi^{-1/2} phi = S_psi^{1/2} phi and Phi is unchanged
#: in exact arithmetic
EQUIVALENT = {"Phi = S_phi^{1/2} psi"}

#: mutant -> argv -> the checks that fail there, in report order; None is
#: the unmutated code.  Only t = 1.2 (gamma_1 imaginary) sees the dropped
#: imaginary part, only complex alpha sees H built from conj(alpha), and
#: only three-level's closed-form norms see a frame_upper 1% low: the
#: one-sided norm_bound and frame_inequality keep their slack.  The
#: three-level T is real, so conjugating it is equivalent there.
CATCHES = {
    None: {
        "three-level t=1.2": ("admissible",),
    },
    "swap A and B": {
        "three-level t=0.3": (
            "ladder_actions", "ladder_products", "factorization", "ladder_adjoint_actions",
            "hat_spectrum", "printed_ladder_matrices",
        ),
        "three-level t=1.2": (
            "admissible", "ladder_actions", "ladder_products", "factorization",
            "ladder_adjoint_actions", "hat_spectrum", "printed_ladder_matrices",
        ),
        "random real": ("ladder_actions", "ladder_products", "factorization"),
        "random complex-gamma": ("ladder_actions", "ladder_products", "factorization"),
        "random complex-alpha": ("ladder_actions", "ladder_products", "factorization"),
        "projection": ("ladder_actions", "ladder_products", "factorization"),
    },
    "closed forms real part": {
        "three-level t=1.2": ("admissible", "printed_ladder_matrices"),
    },
    "factorize from alpha_1": {
        "three-level t=0.3": ("factorization",),
        "three-level t=1.2": ("admissible", "factorization"),
        "random real": ("factorization",),
        "random complex-gamma": ("factorization",),
        "random complex-alpha": ("factorization",),
        "projection": ("factorization",),
    },
    "AB formed as BA": {
        "three-level t=0.3": ("ladder_products", "hat_spectrum"),
        "three-level t=1.2": ("admissible", "ladder_products", "hat_spectrum"),
        "random real": ("ladder_products",),
        "random complex-gamma": ("ladder_products",),
        "random complex-alpha": ("ladder_products",),
        "projection": ("ladder_products",),
    },
    "S_psi bumped": {
        "three-level t=0.3": ("three_level_S_psi", "metric_pair", "intertwining"),
        "three-level t=1.2": ("admissible", "three_level_S_psi", "metric_pair", "intertwining"),
        "random real": ("metric_pair", "intertwining"),
        "random complex-gamma": ("metric_pair", "intertwining"),
        "random complex-alpha": ("metric_pair", "intertwining"),
        "projection": ("metric_pair", "intertwining"),
    },
    "S_phi bumped": {
        "three-level t=0.3": ("three_level_S_phi", "metric_pair", "intertwining"),
        "three-level t=1.2": ("admissible", "three_level_S_phi", "metric_pair", "intertwining"),
        "random real": ("metric_pair", "intertwining"),
        "random complex-gamma": ("metric_pair", "intertwining"),
        "random complex-alpha": ("metric_pair", "intertwining"),
        "projection": ("projection_S_phi", "metric_pair", "intertwining"),
    },
    "S_phi_sqrt bumped": {
        "three-level t=0.3": ("three_level_S_phi_sqrt", "metric_pair", "similarity_consistency"),
        "three-level t=1.2": (
            "admissible", "three_level_S_phi_sqrt", "metric_pair", "similarity_consistency",
        ),
        "random real": ("metric_pair", "similarity_consistency"),
        "random complex-gamma": ("metric_pair", "similarity_consistency"),
        "random complex-alpha": ("metric_pair", "similarity_consistency"),
        "projection": ("projection_S_phi_sqrt", "metric_pair", "similarity_consistency"),
    },
    "S_psi_sqrt bumped": {
        "three-level t=0.3": ("three_level_S_psi_sqrt", "metric_pair"),
        "three-level t=1.2": ("admissible", "three_level_S_psi_sqrt", "metric_pair"),
        "random real": ("metric_pair",),
        "random complex-gamma": ("metric_pair",),
        "random complex-alpha": ("metric_pair",),
        "projection": ("projection_S_psi_sqrt", "metric_pair"),
    },
    "H_phi_psi bumped": {
        "three-level t=0.3": (
            "three_level_H", "eigen_action", "intertwining", "similarity_consistency",
            "factorization",
        ),
        "three-level t=1.2": (
            "admissible", "three_level_H", "eigen_action", "intertwining",
            "similarity_consistency", "factorization",
        ),
        "random real": (
            "eigen_action", "intertwining", "similarity_consistency", "factorization",
        ),
        "random complex-gamma": (
            "eigen_action", "intertwining", "similarity_consistency", "factorization",
        ),
        "random complex-alpha": (
            "eigen_action", "intertwining", "similarity_consistency", "factorization",
        ),
        "projection": (
            "projection_H_split", "eigen_action", "intertwining", "similarity_consistency",
            "factorization",
        ),
    },
    "H_psi_phi bumped": {
        "three-level t=0.3": ("eigen_action", "intertwining"),
        "three-level t=1.2": ("admissible", "eigen_action", "intertwining"),
        "random real": ("eigen_action", "intertwining"),
        "random complex-gamma": ("eigen_action", "intertwining"),
        "random complex-alpha": ("eigen_action", "intertwining"),
        "projection": ("eigen_action", "intertwining"),
    },
    "S_alpha_phi bumped": {
        "three-level t=0.3": ("weighted_action", "intertwining"),
        "three-level t=1.2": ("admissible", "weighted_action", "intertwining"),
        "random real": ("weighted_action", "intertwining"),
        "random complex-gamma": ("weighted_action", "intertwining"),
        "random complex-alpha": ("weighted_action", "intertwining"),
        "projection": ("weighted_action", "intertwining"),
    },
    "S_alpha_psi bumped": {
        "three-level t=0.3": ("weighted_action", "intertwining"),
        "three-level t=1.2": ("admissible", "weighted_action", "intertwining"),
        "random real": ("weighted_action", "intertwining"),
        "random complex-gamma": ("weighted_action", "intertwining"),
        "random complex-alpha": ("weighted_action", "intertwining"),
        "projection": ("weighted_action", "intertwining"),
    },
    "h bumped": {
        "three-level t=0.3": (
            "three_level_h", "selfadjoint_h", "transported_eigenbasis", "similarity_consistency",
        ),
        "three-level t=1.2": (
            "admissible", "three_level_h", "selfadjoint_h", "transported_eigenbasis",
            "similarity_consistency",
        ),
        "random real": ("selfadjoint_h", "transported_eigenbasis", "similarity_consistency"),
        "random complex-gamma": (
            "selfadjoint_h", "transported_eigenbasis", "similarity_consistency",
        ),
        "random complex-alpha": ("transported_eigenbasis", "similarity_consistency"),
        "projection": (
            "projection_h_block", "selfadjoint_h", "transported_eigenbasis",
            "similarity_consistency",
        ),
    },
    "roots swapped": {
        "three-level t=0.3": (
            "three_level_S_phi_sqrt", "three_level_S_psi_sqrt", "metric_pair",
            "similarity_consistency",
        ),
        "three-level t=1.2": (
            "admissible", "three_level_S_phi_sqrt", "three_level_S_psi_sqrt", "metric_pair",
            "similarity_consistency",
        ),
        "random real": ("metric_pair", "similarity_consistency"),
        "random complex-gamma": ("metric_pair", "similarity_consistency"),
        "random complex-alpha": ("metric_pair", "similarity_consistency"),
        "projection": (
            "projection_S_phi_sqrt", "projection_S_psi_sqrt", "metric_pair",
            "similarity_consistency",
        ),
    },
    "h with roots swapped": {
        "three-level t=0.3": (
            "three_level_h", "selfadjoint_h", "transported_eigenbasis", "similarity_consistency",
        ),
        "three-level t=1.2": (
            "admissible", "three_level_h", "selfadjoint_h", "transported_eigenbasis",
            "similarity_consistency",
        ),
        "random real": ("selfadjoint_h", "transported_eigenbasis", "similarity_consistency"),
        "random complex-gamma": (
            "selfadjoint_h", "transported_eigenbasis", "similarity_consistency",
        ),
        "random complex-alpha": ("transported_eigenbasis", "similarity_consistency"),
        "projection": ("selfadjoint_h", "transported_eigenbasis", "similarity_consistency"),
    },
    "H_psi_phi = H_phi_psi": {
        "three-level t=0.3": ("eigen_action", "intertwining"),
        "three-level t=1.2": ("admissible", "eigen_action", "intertwining"),
        "random real": ("eigen_action", "intertwining"),
        "random complex-gamma": ("eigen_action", "intertwining"),
        "random complex-alpha": ("eigen_action", "intertwining"),
        "projection": ("eigen_action", "intertwining"),
    },
    "H from conj(alpha)": {
        "three-level t=1.2": ("admissible",),
        "random complex-alpha": (
            "eigen_action", "intertwining", "transported_eigenbasis", "factorization",
        ),
    },
    "Phi = S_phi^{1/2} psi": {
        "three-level t=1.2": ("admissible",),
    },
    "psi bumped": {
        "three-level t=0.3": (
            "three_level_H", "three_level_psi", "three_level_S_psi", "three_level_h",
            "biorthogonality", "eigen_action", "weighted_action", "metric_pair", "intertwining",
            "selfadjoint_h", "transported_eigenbasis", "ladder_actions", "ladder_products",
            "ladder_adjoint_actions", "hat_spectrum", "printed_ladder_matrices",
        ),
        "three-level t=1.2": (
            "admissible", "three_level_H", "three_level_psi", "three_level_S_psi", "three_level_h",
            "biorthogonality", "eigen_action", "weighted_action", "metric_pair", "intertwining",
            "selfadjoint_h", "transported_eigenbasis", "ladder_actions", "ladder_products",
            "ladder_adjoint_actions", "hat_spectrum", "printed_ladder_matrices",
        ),
        "random real": (
            "biorthogonality", "eigen_action", "weighted_action", "metric_pair", "intertwining",
            "selfadjoint_h", "transported_eigenbasis", "ladder_actions", "ladder_products",
        ),
        "random complex-gamma": (
            "biorthogonality", "eigen_action", "weighted_action", "metric_pair", "intertwining",
            "selfadjoint_h", "transported_eigenbasis", "ladder_actions", "ladder_products",
        ),
        "random complex-alpha": (
            "biorthogonality", "eigen_action", "weighted_action", "metric_pair",
            "intertwining", "transported_eigenbasis", "ladder_actions", "ladder_products",
            "factorization",
        ),
        "projection": (
            "projection_bases", "projection_H_split", "projection_h_block", "biorthogonality",
            "eigen_action", "weighted_action", "metric_pair", "intertwining", "selfadjoint_h",
            "transported_eigenbasis", "ladder_actions", "ladder_products",
        ),
    },
    "psi without its adjoint": {
        "three-level t=0.3": (
            "three_level_H", "three_level_psi", "three_level_S_psi", "three_level_h",
            "biorthogonality", "eigen_action", "weighted_action", "metric_pair", "intertwining",
            "selfadjoint_h", "transported_eigenbasis", "ladder_actions", "ladder_products",
            "factorization", "ladder_adjoint_actions", "hat_spectrum", "printed_ladder_matrices",
        ),
        "three-level t=1.2": (
            "admissible", "three_level_H", "three_level_psi", "three_level_S_psi", "three_level_h",
            "biorthogonality", "eigen_action", "weighted_action", "metric_pair", "intertwining",
            "selfadjoint_h", "transported_eigenbasis", "ladder_actions", "ladder_products",
            "factorization", "ladder_adjoint_actions", "hat_spectrum", "printed_ladder_matrices",
        ),
        "random real": (
            "biorthogonality", "eigen_action", "weighted_action", "metric_pair", "intertwining",
            "selfadjoint_h", "transported_eigenbasis", "ladder_actions", "ladder_products",
            "factorization",
        ),
        "random complex-gamma": (
            "biorthogonality", "eigen_action", "weighted_action", "metric_pair", "intertwining",
            "selfadjoint_h", "transported_eigenbasis", "ladder_actions", "ladder_products",
            "factorization",
        ),
        "random complex-alpha": (
            "biorthogonality", "eigen_action", "weighted_action", "metric_pair",
            "intertwining", "transported_eigenbasis", "ladder_actions", "ladder_products",
            "factorization",
        ),
        "projection": (
            "projection_bases", "projection_H_split", "biorthogonality", "eigen_action",
            "weighted_action", "intertwining", "selfadjoint_h", "transported_eigenbasis",
            "ladder_actions", "ladder_products", "factorization",
        ),
    },
    "frame bounds swapped": {
        "three-level t=0.3": ("norm_T", "frame_inequality", "norm_bound"),
        "three-level t=1.2": ("admissible", "norm_T", "frame_inequality", "norm_bound"),
        "random real": ("frame_inequality", "norm_bound"),
        "random complex-gamma": ("frame_inequality", "norm_bound"),
        "random complex-alpha": ("frame_inequality", "norm_bound"),
        "projection": ("frame_inequality", "norm_bound"),
    },
    "frame_upper x 0.99": {
        "three-level t=0.3": ("norm_T", "norm_T_inv"),
        "three-level t=1.2": ("admissible", "norm_T", "norm_T_inv"),
    },
    "T columns 1, 2 swapped": {
        "three-level t=0.3": (
            "three_level_H", "three_level_psi", "three_level_h", "three_level_Phi",
            "ladder_adjoint_actions", "hat_spectrum", "printed_ladder_matrices",
        ),
        "three-level t=1.2": (
            "admissible", "three_level_H", "three_level_psi", "three_level_h", "three_level_Phi",
            "ladder_adjoint_actions", "hat_spectrum", "printed_ladder_matrices",
        ),
        "projection": ("projection_bases", "projection_H_split"),
    },
    "T transposed": {
        "three-level t=0.3": (
            "three_level_H", "three_level_psi", "three_level_S_phi", "three_level_S_psi",
            "three_level_S_phi_sqrt", "three_level_S_psi_sqrt", "ladder_adjoint_actions",
            "hat_spectrum", "printed_ladder_matrices",
        ),
        "three-level t=1.2": (
            "admissible", "three_level_H", "three_level_psi", "three_level_S_phi",
            "three_level_S_psi", "three_level_S_phi_sqrt", "three_level_S_psi_sqrt",
            "ladder_adjoint_actions", "hat_spectrum", "printed_ladder_matrices",
        ),
        "projection": (
            "projection_S_phi", "projection_S_phi_sqrt", "projection_S_psi_sqrt",
            "projection_bases", "projection_H_split",
        ),
    },
    "T conjugated": {
        "three-level t=1.2": ("admissible",),
        "projection": (
            "projection_S_phi", "projection_S_phi_sqrt", "projection_S_psi_sqrt",
            "projection_bases", "projection_H_split",
        ),
    },
    "T x 1.01": {
        "three-level t=0.3": (
            "three_level_psi", "three_level_S_phi", "three_level_S_psi",
            "three_level_S_phi_sqrt", "three_level_S_psi_sqrt", "norm_T", "norm_T_inv",
        ),
        "three-level t=1.2": (
            "admissible", "three_level_psi", "three_level_S_phi", "three_level_S_psi",
            "three_level_S_phi_sqrt", "three_level_S_psi_sqrt", "norm_T", "norm_T_inv",
        ),
        "projection": (
            "projection_S_phi", "projection_S_phi_sqrt", "projection_S_psi_sqrt",
            "projection_bases",
        ),
    },
    # only H and h carry the eigenvalues in closed form: hat_spectrum and the
    # closed-form A(t), B(t) read the swapped eps as well, so they agree
    # with the ladder built from it.  The random suite has no model.
    "alpha_1, alpha_2 swapped": {
        "three-level t=0.3": ("three_level_H", "three_level_h"),
        "three-level t=1.2": ("admissible", "three_level_H", "three_level_h"),
        "projection": ("projection_H_split",),
    },
    # equivalent wherever gamma is real: t = 0.3, and sqrt-poly:1 in random
    # real, random complex-alpha and projection; with complex gamma (random
    # complex-gamma) every ladder identity holds for conj(gamma) as for any
    # gamma.  The closed-form A(t), B(t) see it at t = 1.2 (gamma_1
    # imaginary), and the factorization where its roots are complex: from
    # conj(roots), BA = H^{conj(alpha - alpha_0)}
    "gamma conjugated": {
        "three-level t=1.2": ("admissible", "printed_ladder_matrices"),
        "random complex-alpha": ("factorization",),
    },
}

#: where the battery before the adjoint-rule checks were deleted caught each
#: mutant (beyond the unmutated failures), and where the generator and input
#: mutants were caught when first recorded; it must still be caught there
_EVERY_ARGV = tuple(ARGV)
_MODEL_ARGV = ("three-level t=0.3", "three-level t=1.2", "projection")
CAUGHT_BEFORE = {
    **{mutant: _EVERY_ARGV for mutant in MUTANTS},
    "T columns 1, 2 swapped": _MODEL_ARGV,
    "T transposed": _MODEL_ARGV,
    "T conjugated": ("projection",),
    "T x 1.01": _MODEL_ARGV,
    "alpha_1, alpha_2 swapped": _MODEL_ARGV,
    "gamma conjugated": ("three-level t=1.2", "random complex-alpha"),
    "closed forms real part": ("three-level t=1.2",),
    "H from conj(alpha)": ("random complex-alpha",),
    "Phi = S_phi^{1/2} psi": (),
    "frame_upper x 0.99": ("three-level t=0.3", "three-level t=1.2"),
}


def failed_checks(argv) -> tuple[str, ...]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    failed = tuple(c["name"] for c in json.loads(out.getvalue())["checks"] if not c["passed"])
    assert code == (1 if failed else 0)
    return failed


def catch_row(monkeypatch, mutant) -> dict[str, tuple[str, ...]]:
    with monkeypatch.context() as patched:
        if mutant is not None:
            MUTANTS[mutant](patched)
        row = {name: failed_checks(argv) for name, argv in ARGV.items()}
    return {name: failed for name, failed in row.items() if failed}


@pytest.mark.parametrize("mutant", [None, *MUTANTS])
def test_catch_matrix(monkeypatch, mutant):
    assert catch_row(monkeypatch, mutant) == CATCHES[mutant]


def caught_at(mutant) -> set[tuple[str, str]]:
    """(argv, check) pairs where the mutant fails a check the unmutated code
    passes."""
    return {
        (name, check)
        for name, checks in CATCHES[mutant].items()
        for check in checks
        if check not in CATCHES[None].get(name, ())
    }


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_every_mutant_is_caught(mutant):
    """Beyond the unmutated failures: some check fails at some argv, unless
    the mutant is equivalent."""
    assert bool(caught_at(mutant)) == (mutant not in EQUIVALENT)


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_caught_wherever_it_was_caught_before(mutant):
    assert {name for name, _ in caught_at(mutant)} >= set(CAUGHT_BEFORE[mutant])


#: each model function, its model class and the argv whose report checks its rows
MODEL_ROWS = {
    "three_level": (models.ThreeLevelModel, "three-level t=0.3"),
    "projection_model": (models.ProjectionModel, "projection"),
}


def field_names(record) -> set[str]:
    return {field.name for field in dataclasses.fields(record)}


@pytest.mark.parametrize(
    "build, row",
    [(build, row) for build, (model, _) in MODEL_ROWS.items() for row in model.rows],
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_bumped_model_field_fails_its_row_alone(monkeypatch, build, row):
    """Each closed-form row reads the model field it names (stored, or
    formed on read), a field of the bundle or the pair too, and no other
    closed-form row reads it."""
    model_class, argv = MODEL_ROWS[build]
    name, field, _ = row
    assert field in field_names(model_class) or isinstance(getattr(model_class, field), property)
    assert field in field_names(factory.OperatorBundle) | field_names(basis.RieszBasisPair)
    patch_model(monkeypatch, build, field, bumped)
    rows = {row_name for row_name, _, _ in model_class.rows}
    assert set(failed_checks(ARGV[argv])) & rows == {name}
