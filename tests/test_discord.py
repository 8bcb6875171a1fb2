"""Vanishing-discord detection via pinching defects."""

import inspect

import numpy as np
import pytest

from inducedmaps import (
    CLASS_NON_POSITIVE,
    INDETERMINATE,
    NONZERO,
    VQD,
    EnsembleTerm,
    SearchConfig,
    SeparableEnsemble,
    ShapeError,
    ValidationError,
    assemble,
    dagger,
    haar_unitary,
    has_vqd,
    hermitian_eigen,
    induce,
    pinching_defect,
    scan,
    tensor,
    validate_density_matrix,
)
from inducedmaps.presets import (
    bell_density,
    four_block_ensemble,
    random_density,
    random_vqd_ensemble,
)

RHO_E_1 = np.diag([1.0, 0.0]).astype(complex)
RHO_E_2 = np.diag([0.3, 0.7]).astype(complex)


def bloch_basis(theta, phi):
    """Orthonormal qubit basis whose first column points along (theta, phi)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    e = np.exp(1j * phi)
    return np.array([[c, -s * e.conjugate()], [s * e, c]], dtype=complex)


def classical_quantum_state(weights, basis, env_states):
    terms = tuple(
        EnsembleTerm(w, np.outer(basis[:, k], basis[:, k].conj()), env)
        for k, (w, env) in enumerate(zip(weights, env_states))
    )
    dim_e = env_states[0].shape[0]
    return assemble(SeparableEnsemble(basis.shape[0], dim_e, terms))


def test_pinching_defect_of_bell_in_computational_basis():
    assert abs(pinching_defect(bell_density(), np.eye(2), 2, 2) - 0.5) < 1e-12


def test_pinching_defect_vanishes_for_classical_mixture():
    rho = classical_quantum_state((0.6, 0.4), np.eye(2, dtype=complex), (RHO_E_1, RHO_E_2))
    assert pinching_defect(rho, np.eye(2), 2, 2) < 1e-15


def test_pinching_defect_invariant_under_column_phases_and_order():
    rng = np.random.default_rng(31)
    rho = random_density(4, rng)
    basis = haar_unitary(2, rng)
    base = pinching_defect(rho, basis, 2, 2)
    phased = basis * np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    swapped = basis[:, ::-1]
    assert abs(pinching_defect(rho, phased, 2, 2) - base) < 1e-12
    assert abs(pinching_defect(rho, swapped, 2, 2) - base) < 1e-12


@pytest.mark.parametrize("dim_a, dim_e", [(2, 2), (3, 2), (2, 5), (8, 4)])
def test_pinching_defect_matches_the_kron_form_bit_for_bit(dim_a, dim_e):
    rng = np.random.default_rng(dim_a * 10 + dim_e)
    n = dim_a * dim_e
    rho = random_density(n, rng)
    basis = haar_unitary(dim_a, rng)
    u = np.kron(basis, np.eye(dim_e))
    rotated = (dagger(u) @ rho @ u).reshape(dim_a, dim_e, dim_a, dim_e)
    keep = np.eye(dim_a, dtype=bool)[:, None, :, None]
    pinched = u @ np.where(keep, rotated, 0.0).reshape(n, n) @ dagger(u)
    expected = float(np.abs(pinched - rho).max())
    assert repr(pinching_defect(rho, basis, dim_a, dim_e)) == repr(expected)


def test_pinching_defect_validates_basis_and_shape():
    with pytest.raises(ValidationError):
        pinching_defect(bell_density(), np.ones((2, 2)), 2, 2)
    with pytest.raises(ShapeError):
        pinching_defect(bell_density(), np.eye(3), 3, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pinching_defect_rejects_a_non_finite_basis(bad):
    basis = np.eye(2, dtype=complex)
    basis[0, 0] = bad
    with pytest.raises(ValidationError, match="basis contains non-finite entries"):
        pinching_defect(bell_density(), basis, 2, 2)


def test_classical_quantum_state_with_maximally_mixed_marginal_is_vqd():
    # ½|+><+| ⊗ |0><0| + ½|-><-| ⊗ τ has marginal I/2, so the basis must
    # come from the E-indexed blocks; taking the degenerate marginal's
    # computational eigenbasis as the only candidate called it NONZERO
    # with residual 0.1875
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    tau = np.array([[0.25, 0.25], [0.25, 0.75]], dtype=complex)
    rho = classical_quantum_state((0.5, 0.5), hadamard, (RHO_E_1, tau))
    verdict = has_vqd(rho, 2, 2)
    assert verdict.status == VQD
    assert verdict.residual <= 1e-15
    assert np.abs(np.abs(verdict.basis) - np.sqrt(0.5)).max() < 1e-12
    assert "degeneracy_gap" not in inspect.signature(has_vqd).parameters


def test_classical_mixture_with_distinct_weights_is_vqd():
    rho = classical_quantum_state((0.6, 0.4), np.eye(2, dtype=complex), (RHO_E_1, RHO_E_2))
    verdict = has_vqd(rho, 2, 2)
    assert verdict.status == VQD
    assert verdict.residual <= 1e-12
    # The pinching basis is the computational one up to column order and
    # phase, so its entrywise magnitudes form a permutation matrix.
    magnitudes = np.abs(verdict.basis)
    assert np.abs(np.sort(magnitudes, axis=0) - np.array([[0.0, 0.0], [1.0, 1.0]])).max() < 1e-9


def test_equal_weight_classical_mixture_is_vqd_despite_degeneracy():
    rho = classical_quantum_state((0.5, 0.5), np.eye(2, dtype=complex), (RHO_E_1, RHO_E_2))
    verdict = has_vqd(rho, 2, 2)
    assert verdict.status == VQD
    assert verdict.residual <= 1e-12


def test_rotated_classical_mixtures_are_vqd():
    rng = np.random.default_rng(32)
    for weights in ((0.6, 0.4), (0.5, 0.5)):
        basis = haar_unitary(2, rng)
        rho = classical_quantum_state(weights, basis, (RHO_E_1, RHO_E_2))
        verdict = has_vqd(rho, 2, 2)
        assert verdict.status == VQD, f"weights {weights}: {verdict}"
        assert verdict.residual <= 1e-10


def test_flat_block_ensemble_is_vqd():
    e = four_block_ensemble()
    verdict = has_vqd(assemble(e), e.dim_a, e.dim_e)
    assert verdict.status == VQD
    assert verdict.residual <= 1e-10


def test_orthogonal_rank_one_ensembles_are_vqd():
    rng = np.random.default_rng(33)
    for dim_a, dim_e in ((2, 2), (3, 2), (2, 3)):
        for haar_flag in (False, True):
            e = random_vqd_ensemble(dim_a, dim_e, rng, haar_basis=haar_flag)
            verdict = has_vqd(assemble(e), dim_a, dim_e)
            assert verdict.status == VQD
            assert verdict.residual <= 1e-10


def test_vqd_in_a_rotated_basis_leaves_maps_non_positive():
    # Vanishing discord gives CP induced maps only when the classical basis
    # is the computational one, up to phases and order: the maps are built
    # on the computational coherence blocks.
    e = random_vqd_ensemble(2, 2, 7, haar_basis=True)
    assert has_vqd(assemble(e), 2, 2).status == VQD
    certified = 0
    for r in scan(e, SearchConfig(trials=40, seed=1)):
        if r.classification == CLASS_NON_POSITIVE:
            out = induce(e.decomposition, r.unitary).apply(
                validate_density_matrix(r.positivity.witness)
            )
            certified += hermitian_eigen(out).eigenvalues[0] < -1e-9
    assert certified == 39


def test_vqd_verdict_is_self_certifying():
    rng = np.random.default_rng(34)
    e = random_vqd_ensemble(3, 2, rng)
    rho = assemble(e)
    verdict = has_vqd(rho, 3, 2)
    assert verdict.status == VQD
    basis = verdict.basis
    assert np.abs(dagger(basis) @ basis - np.eye(3)).max() < 1e-10
    assert abs(pinching_defect(rho, basis, 3, 2) - verdict.residual) < 1e-12


def test_bell_state_has_nonzero_discord():
    verdict = has_vqd(bell_density(), 2, 2)
    assert verdict.status == NONZERO
    # certified by non-commuting E-indexed blocks, so no single failing
    # basis is exhibited
    assert verdict.basis is None
    assert verdict.residual > 0.1


def test_nonzero_verdict_survives_environment_unitaries():
    rng = np.random.default_rng(35)
    v = haar_unitary(2, rng)
    rotated = tensor(np.eye(2, dtype=complex), v) @ bell_density() @ dagger(
        tensor(np.eye(2, dtype=complex), v)
    )
    assert has_vqd(rotated, 2, 2).status == NONZERO


def test_vqd_verdict_survives_environment_unitaries():
    rng = np.random.default_rng(36)
    e = four_block_ensemble()
    v = haar_unitary(e.dim_e, rng)
    rotated = tensor(np.eye(e.dim_a, dtype=complex), v) @ assemble(e) @ dagger(
        tensor(np.eye(e.dim_a, dtype=complex), v)
    )
    assert has_vqd(rotated, e.dim_a, e.dim_e).status == VQD


def test_nonorthogonal_mixture_has_discord_against_grid_search():
    """Mixing |0><0| and |+><+| with distinct environments leaves discord.

    A 120x120 grid over all qubit measurement bases never pushes the
    pinching defect anywhere near zero, and the verdict agrees: the
    E-indexed blocks do not commute.
    """
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho = 0.5 * tensor(np.diag([1.0, 0.0]).astype(complex), RHO_E_1) + 0.5 * tensor(
        plus, RHO_E_2
    )
    grid_min = np.inf
    for theta in np.linspace(0.0, np.pi, 120):
        for phi in np.linspace(0.0, 2.0 * np.pi, 120, endpoint=False):
            grid_min = min(grid_min, pinching_defect(rho, bloch_basis(theta, phi), 2, 2))
    assert grid_min > 1e-3
    verdict = has_vqd(rho, 2, 2)
    assert verdict.status == NONZERO
    assert verdict.residual > 1e-3


def near_gap_state(delta, eps=5e-10):
    """Classical-quantum state in a Haar basis B with weights 0.5 ± delta,
    plus an ``eps`` coherence ``(|b0><b1| + h.c.) ⊗ I/2``.

    Pinching in B leaves a defect of about ``eps``, within tolerance, but
    the coherence turns the marginal's eigenbasis away from B by about
    ``eps / delta``.
    """
    basis = haar_unitary(2, 3)
    tau = np.array([[0.25, 0.25], [0.25, 0.75]], dtype=complex)
    rho = classical_quantum_state((0.5 + delta, 0.5 - delta), basis, (RHO_E_1, tau))
    coherence = np.outer(basis[:, 0], basis[:, 1].conj())
    return rho + eps * tensor(coherence + dagger(coherence), np.eye(2) / 2.0)


@pytest.mark.parametrize("delta", [1e-8, 5e-8, 1e-6])
def test_near_gap_classical_quantum_state_is_vqd(delta):
    # the marginal's eigenbasis alone left residuals 9.3e-3, 1.9e-3 and
    # 9.4e-5 and was taken as conclusive: NONZERO
    rho = near_gap_state(delta)
    verdict = has_vqd(rho, 2, 2)
    assert verdict.status == VQD
    assert verdict.residual <= 1e-9
    assert abs(pinching_defect(rho, verdict.basis, 2, 2) - verdict.residual) < 1e-15


def test_weakly_coherent_degenerate_state_is_indeterminate():
    """A barely-perturbed maximally mixed state defeats every candidate.

    The marginal is exactly degenerate, the E-indexed blocks commute to
    within tolerance (their commutators scale with the square of the
    perturbation), and no candidate basis reaches the defect tolerance, so
    the honest verdict is INDETERMINATE rather than a guess either way.
    """
    eps = 1e-5
    rho = eps * bell_density() + (1.0 - eps) * np.eye(4, dtype=complex) / 4.0
    verdict = has_vqd(rho, 2, 2)
    assert verdict.status == INDETERMINATE
    assert verdict.basis is None
    assert 0.0 < verdict.residual < 1e-4


@pytest.mark.parametrize(
    "rho",
    [bell_density(), near_gap_state(1e-8), 1e-5 * bell_density() + (1 - 1e-5) * np.eye(4) / 4],
    ids=["nonzero", "vqd", "indeterminate"],
)
def test_has_vqd_is_seed_free(rho):
    assert "seed" not in inspect.signature(has_vqd).parameters
    first, second = has_vqd(rho, 2, 2), has_vqd(rho, 2, 2)
    assert first.status == second.status
    assert first.residual == second.residual
    assert (first.basis is None) == (second.basis is None)
    if first.basis is not None:
        assert first.basis.tobytes() == second.basis.tobytes()


def test_has_vqd_rejects_mismatched_dimensions():
    with pytest.raises(ShapeError):
        has_vqd(bell_density(), 3, 2)
