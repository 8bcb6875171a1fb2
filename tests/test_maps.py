"""Induced affine maps: construction, Choi analysis, positivity, Kraus forms."""

import warnings

import numpy as np
import pytest

from inducedmaps import (
    CP,
    NO_VIOLATION_FOUND,
    NOT_CP,
    NOT_CP_AFFINE,
    VIOLATED,
    EnsembleTerm,
    HermiticityError,
    InducedMap,
    NotPsdError,
    SeparableEnsemble,
    ShapeError,
    ValidationError,
    assemble,
    choi_matrix,
    dagger,
    decompose_blocks,
    haar_unitary,
    induce,
    is_cp,
    kraus_from_choi,
    partial_trace,
    probe_positivity,
    tensor,
    validate_density_matrix,
)
from inducedmaps import maps
from inducedmaps.linalg import check_hermitian
from inducedmaps.presets import (
    bell_density,
    cnot,
    four_block_ensemble,
    random_coherent_block_ensemble,
    random_density,
    random_vqd_ensemble,
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def product_source(rng, dim_a=2, dim_e=2):
    """Single full-rank product term: every block pair is unit-trace."""
    e = SeparableEnsemble(
        dim_a,
        dim_e,
        (EnsembleTerm(1.0, random_density(dim_a, rng), random_density(dim_e, rng)),),
    )
    return decompose_blocks(assemble(e), dim_a, dim_e)


def coherence_coupling_unitary():
    """Joint unitary flipping the system conditioned on the environment."""
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = u[3, 1] = u[2, 2] = u[1, 3] = 1.0
    return u


def weakly_coherent_bell(delta):
    """Classical 00/11 mixture plus a small cross-block coherence."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    rho[0, 3] = rho[3, 0] = delta
    return rho


def test_induce_accepts_a_unitary_and_rejects_a_non_unitary():
    d = decompose_blocks(bell_density(), 2, 2)
    assert induce(d, SWAP).images.shape == (2, 2, 2, 2)
    with pytest.raises(ValidationError, match="matrix is not unitary: deviation"):
        induce(d, np.ones((4, 4)))
    with pytest.raises(ShapeError, match="unitary must be square"):
        induce(d, np.ones((4, 2)))


def test_induce_rejects_mismatched_unitary():
    d = decompose_blocks(bell_density(), 2, 2)
    with pytest.raises(ShapeError, match="unitary has dimension 2, expected 4"):
        induce(d, np.eye(2))


def test_identity_unitary_gives_identity_map_on_full_product_source():
    rng = np.random.default_rng(41)
    d = product_source(rng)
    m = induce(d, np.eye(4))
    for _ in range(5):
        rho_prime = random_density(2, rng)
        assert np.abs(m.apply(rho_prime) - rho_prime).max() < 1e-12
    verdict = is_cp(m)
    assert verdict.status == CP
    assert verdict.shift_norm < 1e-12
    choi_eigs = np.linalg.eigvalsh(choi_matrix(m))
    assert np.abs(choi_eigs - [0.0, 0.0, 0.0, 2.0]).max() < 1e-10


def test_swap_unitary_gives_constant_map():
    rng = np.random.default_rng(42)
    rho_e = random_density(2, rng)
    e = SeparableEnsemble(
        2, 2, (EnsembleTerm(1.0, random_density(2, rng), rho_e),)
    )
    m = induce(decompose_blocks(assemble(e), 2, 2), SWAP)
    for _ in range(3):
        out = m.apply(random_density(2, rng))
        assert np.abs(out - rho_e).max() < 1e-12
    assert is_cp(m).status == CP


def test_flipped_bell_block_output_and_spectrum():
    d = decompose_blocks(bell_density(), 2, 2)
    m = induce(d, cnot())
    out = m.apply(np.diag([1.0, 0.0]).astype(complex))
    target = 0.5 * np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.abs(out - target).max() < 1e-12
    min_eig = np.linalg.eigvalsh(out)[0]
    assert abs(min_eig - (1.0 - np.sqrt(5.0)) / 4.0) < 1e-10
    verdict = is_cp(m)
    assert verdict.status == NOT_CP_AFFINE
    assert verdict.shift_norm > 0.1


def test_apply_validates_input_shape():
    d = decompose_blocks(bell_density(), 2, 2)
    m = induce(d, cnot())
    with pytest.raises(ShapeError):
        m.apply(np.eye(3))


def test_map_arrays_must_fit_dim_a():
    m = induce(decompose_blocks(bell_density(), 2, 2), cnot())
    for dim_a, images, shift in (
        (3, m.images, m.shift),
        (2, m.images[0], m.shift),
        (2, m.images, m.shift[0]),
        (0, np.zeros((0,) * 4), np.zeros((0, 0))),
    ):
        with pytest.raises(ShapeError):
            InducedMap(dim_a, images, shift)


def test_map_arrays_are_immutable():
    m = induce(decompose_blocks(bell_density(), 2, 2), cnot())
    with pytest.raises(ValueError):
        m.images[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        m.shift[0, 0] = 1.0


def test_map_is_affine_on_convex_combinations():
    rng = np.random.default_rng(43)
    sources = [
        decompose_blocks(bell_density(), 2, 2),
        product_source(rng),
        decompose_blocks(assemble(four_block_ensemble()), 4, 2),
    ]
    for d in sources:
        u = haar_unitary(d.dim_a * d.dim_e, rng)
        m = induce(d, u)
        for _ in range(5):
            rho1 = random_density(d.dim_a, rng)
            rho2 = random_density(d.dim_a, rng)
            alpha = float(rng.uniform(0.0, 1.0))
            mixed = m.apply(alpha * rho1 + (1.0 - alpha) * rho2)
            split = alpha * m.apply(rho1) + (1.0 - alpha) * m.apply(rho2)
            assert np.abs(mixed - split).max() < 1e-12


def test_map_preserves_trace_for_unit_trace_block_sources():
    rng = np.random.default_rng(44)
    sources = [
        product_source(rng),
        decompose_blocks(assemble(four_block_ensemble()), 4, 2),
        decompose_blocks(assemble(random_vqd_ensemble(3, 2, rng)), 3, 2),
    ]
    for d in sources:
        u = haar_unitary(d.dim_a * d.dim_e, rng)
        m = induce(d, u)
        for _ in range(5):
            rho_prime = random_density(d.dim_a, rng)
            out = m.apply(rho_prime)
            assert abs(np.trace(out) - 1.0) < 1e-10


def test_map_preserves_hermiticity():
    rng = np.random.default_rng(45)
    for d in (decompose_blocks(bell_density(), 2, 2), product_source(rng)):
        u = haar_unitary(d.dim_a * d.dim_e, rng)
        m = induce(d, u)
        out = m.apply(random_density(d.dim_a, rng))
        assert np.abs(out - dagger(out)).max() < 1e-12


def test_map_equals_weighted_component_conjugations():
    rng = np.random.default_rng(46)
    for _ in range(5):
        e = random_coherent_block_ensemble(rng)
        u = haar_unitary(e.dim_a * e.dim_e, rng)
        m = induce(decompose_blocks(assemble(e), e.dim_a, e.dim_e), u)
        gamma = sum(t.p * t.rho_a for t in e.terms)
        rho_prime = random_density(e.dim_a, rng)
        expected = np.zeros((e.dim_a, e.dim_a), dtype=complex)
        for t in e.terms:
            # the rescaled component rho_a / gamma, 0 off the blocks
            ratio = np.divide(t.rho_a, gamma, out=np.zeros_like(gamma), where=gamma != 0)
            joint = u @ tensor(rho_prime * ratio, t.rho_e) @ dagger(u)
            expected += t.p * partial_trace(joint, e.dim_a, e.dim_e)
        assert np.abs(m.apply(rho_prime) - expected).max() < 1e-10


def test_map_covariant_under_local_unitaries():
    rng = np.random.default_rng(47)
    d = product_source(rng)
    u = haar_unitary(4, rng)
    v_a = haar_unitary(2, rng)
    v_e = haar_unitary(2, rng)
    m = induce(d, u)
    m_rot = induce(d, tensor(v_a, v_e) @ u)
    rho_prime = random_density(2, rng)
    assert (
        np.abs(m_rot.apply(rho_prime) - v_a @ m.apply(rho_prime) @ dagger(v_a)).max()
        < 1e-12
    )


def metamorphic_source(kind, dim_a, dim_e, rng):
    """Joint state of one seeded source of ``kind`` at ``dim_a x dim_e``."""
    if kind == "bell":
        # maximally entangled on min(dim_a, dim_e) levels: NON_SL, traceless
        # off-diagonal blocks
        v = np.zeros(dim_a * dim_e, dtype=complex)
        for i in range(min(dim_a, dim_e)):
            v[i * dim_e + i] = 1.0
        return np.outer(v, v) / min(dim_a, dim_e)
    if kind == "aligned":
        return assemble(random_vqd_ensemble(dim_a, dim_e, rng))
    if kind == "coherent":
        # coherent system factors on the computational blocks {0, 1} and
        # {2, ...}, so the pairs across them are ZERO_BLOCK
        blocks = [range(min(2, dim_a)), range(2, dim_a)]
        terms = []
        for block in filter(None, blocks):
            rho_a = np.zeros((dim_a, dim_a), dtype=complex)
            rho_a[np.ix_(block, block)] = random_density(len(block), rng)
            terms.append(EnsembleTerm(len(block) / dim_a, rho_a, random_density(dim_e, rng)))
        return assemble(SeparableEnsemble(dim_a, dim_e, tuple(terms)))
    terms = [
        EnsembleTerm(p, random_density(dim_a, rng), random_density(dim_e, rng))
        for p in (0.3, 0.3, 0.4)
    ]
    return assemble(SeparableEnsemble(dim_a, dim_e, tuple(terms)))


def test_maps_follow_environment_unitaries_and_system_permutations():
    # Exact metamorphic relations of induce, for any source and unitary:
    # rho -> (I ⊗ W) rho (I ⊗ W)† with U -> U (I ⊗ W†) leaves the map as it
    # is, and rho -> (P ⊗ I) rho (P ⊗ I)ᵀ with U -> U (P ⊗ I)ᵀ gives
    # L'(X) = L(Pᵀ X P), that is images'[π(k), π(l)] = images[k, l] and the
    # same shift, where P|k> = |π(k)>.
    rng = np.random.default_rng(50)
    for kind in ("discordant", "bell", "coherent", "aligned"):
        for dim_a, dim_e in ((2, 2), (2, 3), (3, 2), (3, 3)):
            for _ in range(3):
                rho = metamorphic_source(kind, dim_a, dim_e, rng)
                u = haar_unitary(dim_a * dim_e, rng)
                m = induce(decompose_blocks(rho, dim_a, dim_e), u)

                w = tensor(np.eye(dim_a), haar_unitary(dim_e, rng))
                rho_w = w @ rho @ dagger(w)
                rotated = induce(decompose_blocks(rho_w, dim_a, dim_e), u @ dagger(w))
                assert np.abs(rotated.images - m.images).max() < 1e-12
                assert np.abs(rotated.shift - m.shift).max() < 1e-12

                perm = rng.permutation(dim_a)
                pa = np.eye(dim_a)[:, perm]
                p = tensor(pa, np.eye(dim_e))
                permuted = induce(decompose_blocks(p @ rho @ p.T, dim_a, dim_e), u @ p.T)
                assert np.abs(permuted.images[np.ix_(perm, perm)] - m.images).max() < 1e-12
                assert np.abs(permuted.shift - m.shift).max() < 1e-12
                x = random_density(dim_a, rng)
                assert np.abs(permuted.apply(x) - m.apply(pa.T @ x @ pa)).max() < 1e-12


def test_choi_blocks_are_basis_pair_responses():
    rng = np.random.default_rng(48)
    d = product_source(rng)
    m = induce(d, haar_unitary(4, rng))
    choi = choi_matrix(m)
    for k in range(2):
        for l in range(2):
            block = choi[2 * k : 2 * k + 2, 2 * l : 2 * l + 2]
            assert np.array_equal(block, m.images[k, l])


def test_is_cp_distinguishes_three_regimes():
    rng = np.random.default_rng(49)
    assert is_cp(induce(product_source(rng), haar_unitary(4, rng))).status == CP

    # an aligned-block mixture whose supports are rotated off the block
    # pattern: the map is linear (no shift) but its Choi matrix is negative
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    e = SeparableEnsemble(
        2,
        2,
        (
            EnsembleTerm(0.6, plus, np.diag([1.0, 0.0]).astype(complex)),
            EnsembleTerm(0.4, minus, np.diag([0.0, 1.0]).astype(complex)),
        ),
    )
    m = induce(
        decompose_blocks(assemble(e), 2, 2), coherence_coupling_unitary()
    )
    verdict = is_cp(m)
    assert verdict.status == NOT_CP
    assert verdict.shift_norm < 1e-12
    assert verdict.choi_min_eig < -1.0

    assert is_cp(induce(decompose_blocks(bell_density(), 2, 2), cnot())).status == (
        NOT_CP_AFFINE
    )


def test_is_cp_rejects_non_hermitian_and_non_finite_images():
    images = np.zeros((2, 2, 2, 2), dtype=complex)
    images[0, 0] = images[1, 1] = np.eye(2) / 2.0
    shift = np.zeros((2, 2), dtype=complex)
    # the Choi matrix holds images[0, 1] above the diagonal and zeros below
    skewed = images.copy()
    skewed[0, 1, 0, 1] = 1e-3
    for tol in (1e-9, 1e-4):
        with pytest.raises(HermiticityError):
            is_cp(InducedMap(2, skewed, shift), tol=tol)
    # deviations up to 1e-9 are accepted even when tol is tighter
    slight = images.copy()
    slight[0, 1, 0, 1] = 5e-10
    assert is_cp(InducedMap(2, slight, shift), tol=0.0).status == CP
    broken = images.copy()
    broken[1, 0, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        is_cp(InducedMap(2, broken, shift))
    # a NaN shift norm compares false against tol, which read as CP
    with pytest.raises(ValidationError, match="non-finite"):
        is_cp(InducedMap(2, images, np.full((2, 2), np.nan)))


@pytest.mark.parametrize(
    "value", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)], ids=["inf", "-inf", "nan", "inf*1j"]
)
@pytest.mark.parametrize("entry", [(0, 0, 1, 1), (1, 0, 0, 1)], ids=["choi-diagonal", "off"])
def test_every_choi_pass_rejects_one_non_finite_image_entry(value, entry):
    # The Choi pass checks Hermiticity only; its failing matrix is traced
    # back and reported as non-finite, so no separate scan of the images
    # is needed
    images = np.zeros((2, 2, 2, 2), dtype=complex)
    images[0, 0] = images[1, 1] = np.eye(2) / 2.0
    images[entry] = value
    shift = np.zeros((2, 2), dtype=complex)
    m = InducedMap(2, images, shift)
    calls = [
        lambda: is_cp(m),
        lambda: maps.cp_verdicts(images[None], shift[None], 1e-9),
        lambda: probe_positivity(m),
    ]
    for call in calls:
        # and without a RuntimeWarning from the deviation's inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite"):
                call()


def test_probe_accepts_a_finite_map_whose_choi_deviation_overflows():
    # The probe once checked only finiteness and proved this map positive
    # from Herm C = diag(1/2); it now shares is_cp's Hermiticity check, so
    # both reject the overflowing deviation.
    images = np.zeros((2, 2, 2, 2), dtype=complex)
    images[0, 0] = images[1, 1] = np.eye(2) / 2.0
    images[0, 1, 0, 1], images[1, 0, 1, 0] = 1e308, -1e308
    m = InducedMap(2, images, np.zeros((2, 2)))
    for call in (is_cp, probe_positivity):
        with pytest.raises(HermiticityError, match="by inf"):
            call(m)


def test_probe_rejects_a_map_that_does_not_preserve_hermiticity():
    # On |+><+| this map outputs [[.5, .5], [-.5, .5]], with eigenvalues
    # 0.5 ± 0.5i; an unchecked Choi pass read Herm C = diag(1/2) and
    # returned NO_VIOLATION_FOUND with floor 0.5.
    images = np.zeros((2, 2, 2, 2), dtype=complex)
    images[0, 0] = images[1, 1] = np.eye(2) / 2.0
    images[0, 1, 0, 1], images[1, 0, 1, 0] = 1.0, -1.0
    m = InducedMap(2, images, np.zeros((2, 2)))
    np.testing.assert_allclose(m.apply(np.full((2, 2), 0.5)), [[0.5, 0.5], [-0.5, 0.5]])
    for call in (is_cp, probe_positivity):
        with pytest.raises(HermiticityError, match="by 2.000e"):
            call(m)


def test_probe_rejects_a_shift_that_is_not_hermitian():
    # The identity channel plus an anti-Hermitian shift outputs [[1, .3],
    # [-.3, 0]] on |0><0|; a floor taken from Herm shift = 0 returned
    # NO_VIOLATION_FOUND with floor 0, a proof of positivity.
    images = np.zeros((2, 2, 2, 2), dtype=complex)
    for k in range(2):
        for l in range(2):
            images[k, l, k, l] = 1.0
    m = InducedMap(2, images, np.array([[0.0, 0.3], [-0.3, 0.0]]))
    out = m.apply(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(np.abs(out - dagger(out)).max(), 0.6)
    with pytest.raises(HermiticityError, match="shift deviates from Hermitian by 6.000e-01"):
        probe_positivity(m)
    verdict = is_cp(m)
    assert (verdict.status, verdict.shift_norm) == (NOT_CP_AFFINE, 0.3)


def test_probe_certifies_violation_for_flipped_bell_blocks():
    m = induce(decompose_blocks(bell_density(), 2, 2), cnot())
    probe = probe_positivity(m, budget=500, seed=0)
    assert probe.status == VIOLATED
    assert abs(probe.min_eig - (1.0 - np.sqrt(5.0)) / 4.0) < 1e-3
    witness = probe.witness
    validate_density_matrix(witness, name="witness")
    assert np.linalg.eigvalsh((m.apply(witness) + dagger(m.apply(witness))) / 2)[0] < -1e-9


def test_probe_is_deterministic_per_seed():
    m = induce(decompose_blocks(bell_density(), 2, 2), cnot())
    first = probe_positivity(m, budget=100, seed=3)
    second = probe_positivity(m, budget=100, seed=3)
    assert first.min_eig == second.min_eig
    assert np.array_equal(first.witness, second.witness)


def test_probe_finds_nothing_on_cp_maps():
    rng = np.random.default_rng(50)
    m = induce(product_source(rng), haar_unitary(4, rng))
    probe = probe_positivity(m, budget=200, seed=1)
    assert probe.status == NO_VIOLATION_FOUND
    assert probe.min_eig > -1e-12
    assert probe.witness is None


def test_probe_leaves_tiny_affine_dips_unflagged():
    # the shift is 1e-5, so outputs can dip only quadratically below zero
    m = induce(decompose_blocks(weakly_coherent_bell(1e-5), 2, 2), cnot())
    verdict = is_cp(m)
    assert verdict.status == NOT_CP_AFFINE
    assert 0.5e-5 < verdict.shift_norm < 2e-5
    probe = probe_positivity(m, budget=300, seed=2)
    assert probe.status == NO_VIOLATION_FOUND


def test_probe_rejects_empty_budget():
    m = induce(decompose_blocks(bell_density(), 2, 2), cnot())
    with pytest.raises(ValueError):
        probe_positivity(m, budget=0)


@pytest.mark.parametrize("budget", [2.5, float("nan"), True, "50"])
def test_probe_rejects_non_integer_budget(budget):
    m = induce(decompose_blocks(bell_density(), 2, 2), cnot())
    with pytest.raises(ValueError, match="budget must be an integer"):
        probe_positivity(m, budget=budget)


def test_probe_accepts_numpy_integer_budget():
    m = induce(decompose_blocks(bell_density(), 2, 2), cnot())
    p, q = (probe_positivity(m, budget=b, seed=1) for b in (np.int64(50), 50))
    assert (p.status, p.min_eig, p.floor) == (q.status, q.min_eig, q.floor)


def test_kraus_of_identity_map_is_single_identity_operator():
    rng = np.random.default_rng(51)
    m = induce(product_source(rng), np.eye(4))
    ops = kraus_from_choi(choi_matrix(m))
    assert len(ops) == 1
    k = ops[0]
    phase = k[0, 0] / abs(k[0, 0])
    assert np.abs(k / phase - np.eye(2)).max() < 1e-10


def test_kraus_of_constant_map_resets_to_environment_state():
    e = SeparableEnsemble(
        2,
        2,
        (
            EnsembleTerm(
                1.0,
                np.diag([0.5, 0.5]).astype(complex),
                np.eye(2, dtype=complex) / 2.0,
            ),
        ),
    )
    m = induce(decompose_blocks(assemble(e), 2, 2), SWAP)
    ops = kraus_from_choi(choi_matrix(m))
    assert len(ops) == 4
    rng = np.random.default_rng(52)
    for _ in range(3):
        rho = random_density(2, rng)
        rebuilt = sum(k @ rho @ dagger(k) for k in ops)
        assert np.abs(rebuilt - np.eye(2) / 2.0).max() < 1e-10
    completeness = sum(dagger(k) @ k for k in ops)
    assert np.abs(completeness - np.eye(2)).max() < 1e-10


def test_kraus_of_mixed_conjugation_recovers_both_operators():
    images = np.zeros((2, 2, 2, 2), dtype=complex)
    for k in range(2):
        for l in range(2):
            e_kl = np.zeros((2, 2), dtype=complex)
            e_kl[k, l] = 1.0
            images[k, l] = 0.5 * (e_kl + PAULI_X @ e_kl @ PAULI_X)
    m = InducedMap(2, images, np.zeros((2, 2), dtype=complex))
    ops = kraus_from_choi(choi_matrix(m))
    assert len(ops) == 2
    patterns = sorted(np.round(np.abs(np.sqrt(2.0) * k), 9).tolist() for k in ops)
    assert patterns == [
        [[0.0, 1.0], [1.0, 0.0]],
        [[1.0, 0.0], [0.0, 1.0]],
    ]


def test_kraus_reconstructs_random_cp_maps():
    rng = np.random.default_rng(53)
    for _ in range(10):
        e = random_vqd_ensemble(2, 2, rng)
        u = haar_unitary(4, rng)
        m = induce(decompose_blocks(assemble(e), 2, 2), u)
        assert is_cp(m).status == CP
        ops = kraus_from_choi(choi_matrix(m))
        for _ in range(5):
            rho = random_density(2, rng)
            rebuilt = sum(k @ rho @ dagger(k) for k in ops)
            assert np.abs(rebuilt - m.apply(rho)).max() < 1e-9


def test_kraus_rejects_negative_choi():
    # rotated-support mixture through the coherence-coupling unitary: the
    # induced map is linear but its Choi matrix has a deeply negative
    # eigenvalue, so no operator-sum form exists
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    e = SeparableEnsemble(
        2,
        2,
        (
            EnsembleTerm(0.6, plus, np.diag([1.0, 0.0]).astype(complex)),
            EnsembleTerm(0.4, minus, np.diag([0.0, 1.0]).astype(complex)),
        ),
    )
    m = induce(decompose_blocks(assemble(e), 2, 2), coherence_coupling_unitary())
    with pytest.raises(NotPsdError):
        kraus_from_choi(choi_matrix(m))
    with pytest.raises(ShapeError):
        kraus_from_choi(np.eye(3))


# Kraus supports of a dim_a = 7 map.  Its coherence components are
# uneven and interleaved: {0, 3}, {1}, {2, 4, 6} and {5}, where 2 and 6
# are linked only through 4 (block (2, 6) is zero).
UNEVEN_SUPPORTS = ((0, 3), (1,), (2, 4), (4, 6), (5,))


def component_map(rng, supports, dim_a=7, sign=None):
    """Map whose Kraus operators each act on the input states of one support.

    Block ``(k, l)`` of its Choi matrix is zero unless ``k`` and ``l``
    share a support.  ``sign[i]`` scales support ``i``'s blocks; a
    negative one makes the map NOT_CP.
    """
    images = np.zeros((dim_a,) * 4, dtype=complex)
    for i, states in enumerate(supports):
        for _ in range(len(states) + 1):
            a = rng.standard_normal((dim_a, dim_a)) + 1j * rng.standard_normal((dim_a, dim_a))
            for k in states:
                for l in states:
                    images[k, l] += np.outer(a[:, k], a[:, l].conj()) * (1 if sign is None else sign[i])
    return InducedMap(dim_a, images, np.zeros((dim_a, dim_a), dtype=complex))


def test_split_choi_spectrum_and_kraus_forms_match_the_whole_matrix():
    rng = np.random.default_rng(61)
    for _ in range(3):
        m = component_map(rng, UNEVEN_SUPPORTS)
        whole = np.linalg.eigvalsh(choi_matrix(m))
        verdict = is_cp(m)
        assert verdict.status == CP
        assert abs(verdict.choi_min_eig - whole[0]) <= 1e-12
        ops = kraus_from_choi(choi_matrix(m))
        assert len(ops) == np.count_nonzero(whole > maps.KRAUS_KEEP_TOL)
        for _ in range(3):
            rho = random_density(7, rng)
            rebuilt = sum(k @ rho @ dagger(k) for k in ops)
            assert np.abs(rebuilt - m.apply(rho)).max() < 1e-9


def always_sorted_kraus(choi, tol=1e-9):
    """kraus_from_choi with its spectrum always put through a stable sort."""
    da = int(np.sqrt(len(choi)))
    images = choi.reshape(da, da, da, da).swapaxes(1, 2)[None]
    w, v = maps._choi_spectra(images, tol, vectors=True)
    order = np.argsort(w[0], kind="stable")
    w, v = w[0, order], v[0][:, order]
    keep = w > maps.KRAUS_KEEP_TOL
    scaled = (v[:, keep] * np.sqrt(w[keep])).T
    return list(scaled.reshape(-1, da, da).swapaxes(1, 2))


def aligned_8x4_map(rng):
    """CP map of an aligned discord-free 8x4 source: eight one-state components."""
    d = decompose_blocks(assemble(random_vqd_ensemble(8, 4, rng)), 8, 4)
    return induce(d, haar_unitary(32, rng))


KRAUS_ORDER_MAPS = {
    # below SPLIT_MIN_SIDE: one whole-matrix eigh, already ascending
    "whole-2x2": lambda rng: induce(product_source(rng), haar_unitary(4, rng)),
    "whole-5": lambda rng: component_map(rng, ((0, 1), (2,), (3, 4)), dim_a=5),
    # from it on: one eigh per component, the union out of order
    "split-aligned-8x4": aligned_8x4_map,
    "split-interleaved-7": lambda rng: component_map(rng, UNEVEN_SUPPORTS),
}


@pytest.mark.parametrize("make", KRAUS_ORDER_MAPS.values(), ids=KRAUS_ORDER_MAPS)
def test_kraus_order_matches_an_always_sorted_spectrum_bit_for_bit(make):
    rng = np.random.default_rng(64)
    for _ in range(3):
        choi = choi_matrix(make(rng))
        da = int(np.sqrt(len(choi)))
        w = maps._choi_spectra(choi.reshape(da, da, da, da).swapaxes(1, 2)[None], 1e-9)[0]
        # the split pass returns its spectrum out of order, the whole pass never
        assert bool(np.all(w[:-1] <= w[1:])) == (len(choi) < maps.SPLIT_MIN_SIDE)
        got = kraus_from_choi(choi)
        assert [k.tobytes() for k in got] == [k.tobytes() for k in always_sorted_kraus(choi)]


def test_split_choi_keeps_the_not_cp_and_hermiticity_verdicts():
    rng = np.random.default_rng(62)
    m = component_map(rng, UNEVEN_SUPPORTS, sign=(1, -1, 1, 1, 1))
    whole = np.linalg.eigvalsh(choi_matrix(m))
    verdict = is_cp(m)
    assert verdict.status == NOT_CP
    assert abs(verdict.choi_min_eig - whole[0]) <= 1e-12
    with pytest.raises(NotPsdError):
        kraus_from_choi(choi_matrix(m))
    m = component_map(rng, UNEVEN_SUPPORTS)
    # a non-Hermitian block inside a component, and one between two
    # components that is zero the other way round
    for k, l in ((0, 3), (0, 1)):
        images = np.array(m.images)
        images[k, l, 0, 0] += 1e-6
        bad = InducedMap(7, images, m.shift)
        with pytest.raises(HermiticityError):
            is_cp(bad)
        with pytest.raises(HermiticityError):
            kraus_from_choi(choi_matrix(bad))


def raised(f, *args):
    """Class and message of the ValidationError that ``f(*args)`` raises."""
    with pytest.raises(ValidationError) as info:
        f(*args)
    return type(info.value), str(info.value)


# Defects at images[k, l, i, j] of a UNEVEN_SUPPORTS map.  State 1 is in
# the first component group checked, states 2 and 4 in the last, so a
# check that stopped at the first failing group would report 1e-6.
SPLIT_DEFECTS = {
    "deviation-then-nan": {(1, 1, 0, 1): 1e-6, (2, 2, 0, 0): np.nan},
    "small-then-large": {(1, 1, 0, 1): 1e-6, (2, 4, 0, 1): 3e-6},
}


@pytest.mark.parametrize("defects", SPLIT_DEFECTS.values(), ids=SPLIT_DEFECTS)
def test_split_choi_errors_match_the_whole_matrix_check(defects):
    images = np.array(component_map(np.random.default_rng(62), UNEVEN_SUPPORTS).images)
    for at, defect in defects.items():
        images[at] += defect
    bad = InducedMap(7, images, np.zeros((7, 7), dtype=complex))
    want = raised(check_hermitian, maps._choi_matrices(images[None]), 1e-9, "Choi matrix")
    assert raised(is_cp, bad) == want
    if np.isfinite(images).all():
        assert raised(kraus_from_choi, choi_matrix(bad)) == want
    else:
        assert want[0] is ValidationError
        assert raised(kraus_from_choi, choi_matrix(bad)) == (
            ValidationError,
            "choi contains non-finite entries",
        )


def test_split_choi_error_names_the_first_failing_map_of_a_stack():
    m = component_map(np.random.default_rng(62), UNEVEN_SUPPORTS)
    images = np.stack([m.images, m.images])
    # map 1 fails in the first component group, map 0 only in the last
    images[1, 1, 1, 0, 1] += 5e-6
    images[0, 2, 2, 0, 1] += 2e-6
    shift = np.zeros((2, 7, 7), dtype=complex)
    error = raised(maps.cp_verdicts, images, shift, 1e-9)
    assert error == raised(check_hermitian, maps._choi_matrices(images), 1e-9, "Choi matrix")
    assert error[1].startswith("Choi matrix deviates from Hermitian by 2.000e-06")


@pytest.mark.parametrize(
    "supports, calls",
    [
        # below SPLIT_MIN_SIDE (side 25): one whole-matrix call
        (((0, 1), (2,), (3, 4)), [(1, 25, 25)]),
        # at it (side 36) and above (side 49): one call per component size
        (((0,), (1, 2), (3,), (4, 5)), [(1, 2, 6, 6), (1, 2, 12, 12)]),
        (UNEVEN_SUPPORTS, [(1, 2, 7, 7), (1, 1, 14, 14), (1, 1, 21, 21)]),
        # a chain of pairs is one component: nothing to split
        (tuple((k, k + 1) for k in range(6)), [(1, 49, 49)]),
    ],
)
def test_choi_spectra_split_from_the_constant_on(supports, calls, monkeypatch):
    assert 25 < maps.SPLIT_MIN_SIDE == 36
    m = component_map(np.random.default_rng(63), supports, dim_a=1 + max(map(max, supports)))
    shapes = {"eigh": [], "eigvalsh": []}
    for name, seen in shapes.items():

        def counted(a, *args, _real=getattr(np.linalg, name), _seen=seen, **kwargs):
            _seen.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    is_cp(m)
    kraus_from_choi(choi_matrix(m))
    assert shapes == {"eigvalsh": calls, "eigh": calls}
