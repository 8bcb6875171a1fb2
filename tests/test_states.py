"""Block decompositions and the block-support condition."""

import copy
import dataclasses

import numpy as np
import pytest

from inducedmaps import states
from inducedmaps import (
    NON_SL,
    SL,
    EnsembleTerm,
    PairClass,
    SearchConfig,
    SeparableEnsemble,
    ShapeError,
    SizeError,
    ValidationError,
    assemble,
    check_condition,
    classify,
    decompose_blocks,
    has_vqd,
    haar_unitary,
    induce,
    is_cp,
    partial_trace,
    scan,
    tensor,
    validate_density_matrix,
)
from inducedmaps.presets import (
    bell_density,
    cnot,
    four_block_ensemble,
    random_coherent_block_ensemble,
    random_density,
    random_vqd_ensemble,
)

PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
ZERO = np.diag([1.0, 0.0]).astype(complex)
RHO_E_1 = np.diag([0.7, 0.3]).astype(complex)
RHO_E_2 = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)


def overlapping_support_ensemble():
    """|0><0| and |+><+| system factors: supports overlap, blocks stay SL."""
    return SeparableEnsemble(
        2, 2, (EnsembleTerm(0.5, ZERO, RHO_E_1), EnsembleTerm(0.5, PLUS, RHO_E_2))
    )


def cancelling_orthogonal_ensemble():
    """|+><+| and |-><-| with one environment state.

    The off-diagonal coefficients cancel exactly while each component is
    nonzero there, so the rescaled matrices are indeterminate; the state
    is I/2 ⊗ rho_e, so its rescaled state still decides.
    """
    return SeparableEnsemble(
        2, 2, (EnsembleTerm(0.5, PLUS, RHO_E_1), EnsembleTerm(0.5, MINUS, RHO_E_1))
    )


def cancelling_overlapping_ensemble():
    """Cancelling off-diagonal coefficients plus an overlapping third term.

    Rescaling is indeterminate and the third support overlaps the first
    two, yet the state is block diagonal, so its rescaled state is PSD.
    """
    return SeparableEnsemble(
        2,
        2,
        (
            EnsembleTerm(0.25, PLUS, RHO_E_1),
            EnsembleTerm(0.25, MINUS, RHO_E_1),
            EnsembleTerm(0.5, ZERO, RHO_E_2),
        ),
    )


def traceless_block_ensemble():
    """|+><+| and |-><-| with distinct environment states.

    The off-diagonal block traces cancel but the blocks themselves do not,
    leaving traceless nonzero coherence blocks.
    """
    return SeparableEnsemble(
        2, 2, (EnsembleTerm(0.5, PLUS, RHO_E_1), EnsembleTerm(0.5, MINUS, RHO_E_2))
    )


def test_validate_density_accepts_and_returns():
    rho = np.eye(2, dtype=complex) / 2.0
    assert np.array_equal(validate_density_matrix(rho), rho)


def test_validate_density_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        validate_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        validate_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValidationError):
        validate_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_ensemble_validates_weights_and_shapes():
    with pytest.raises(ValidationError):
        SeparableEnsemble(
            2, 2, (EnsembleTerm(0.6, ZERO, RHO_E_1), EnsembleTerm(0.6, PLUS, RHO_E_2))
        )
    with pytest.raises(ShapeError):
        SeparableEnsemble(3, 2, (EnsembleTerm(1.0, ZERO, RHO_E_1),))
    with pytest.raises(ValidationError):
        SeparableEnsemble(2, 2, ())
    with pytest.raises(ValidationError):
        EnsembleTerm(-0.5, ZERO, RHO_E_1)


def test_ensemble_state_is_validated_when_it_is_assembled():
    # weights and factors each pass within DEFAULT_DENSITY_TOL, but their
    # sum has trace 1 + 2.4e-9, which the discord test would take as it is
    x = 0.5 + 4e-10
    f = np.diag([x, x]).astype(complex)
    e = SeparableEnsemble(2, 2, (EnsembleTerm(x, f, f), EnsembleTerm(x, f, f)))
    with pytest.raises(ValidationError, match="rho_ae has trace 1.0000000024"):
        e.state


def test_ensemble_term_count_has_a_ceiling():
    one, n = np.ones((1, 1)), states.MAX_TERMS
    assert len(SeparableEnsemble(1, 1, (EnsembleTerm(1.0 / n, one, one),) * n).terms) == n
    with pytest.raises(SizeError, match=f"{n + 1} terms, above the ceiling"):
        SeparableEnsemble(1, 1, (EnsembleTerm(1.0 / (n + 1), one, one),) * (n + 1))


def test_assemble_single_product_term():
    e = SeparableEnsemble(2, 2, (EnsembleTerm(1.0, PLUS, RHO_E_1),))
    assert np.abs(assemble(e) - tensor(PLUS, RHO_E_1)).max() < 1e-15


def test_assemble_classical_mixture_is_diagonal():
    one = np.diag([0.0, 1.0]).astype(complex)
    proj0 = np.diag([1.0, 0.0]).astype(complex)
    proj1 = np.diag([0.0, 1.0]).astype(complex)
    e = SeparableEnsemble(
        2, 2, (EnsembleTerm(0.5, ZERO, proj0), EnsembleTerm(0.5, one, proj1))
    )
    assert np.abs(assemble(e) - np.diag([0.5, 0.0, 0.0, 0.5])).max() < 1e-15


def test_assemble_marginal_is_weighted_component_sum():
    rng = np.random.default_rng(21)
    e = random_coherent_block_ensemble(rng)
    marginal = partial_trace(assemble(e), e.dim_a, e.dim_e)
    expected = sum(t.p * t.rho_a for t in e.terms)
    assert np.abs(marginal - expected).max() < 1e-12


def test_decompose_bell_blocks_and_classes():
    d = decompose_blocks(bell_density(), 2, 2)
    assert d.pair_class.tolist() == [
        [PairClass.UNIT_TRACE, PairClass.TRACELESS_NONZERO],
        [PairClass.TRACELESS_NONZERO, PairClass.UNIT_TRACE],
    ]
    assert abs(d.coeffs[0, 0] - 0.5) < 1e-15
    assert abs(d.coeffs[1, 1] - 0.5) < 1e-15
    assert np.abs(d.blocks[0, 0] - np.diag([1.0, 0.0])).max() < 1e-15
    assert np.abs(d.blocks[1, 1] - np.diag([0.0, 1.0])).max() < 1e-15
    # traceless pairs keep the raw block under a unit coefficient
    assert abs(d.coeffs[0, 1] - 1.0) < 1e-15
    raw = np.zeros((2, 2), dtype=complex)
    raw[0, 1] = 0.5
    assert np.abs(d.blocks[0, 1] - raw).max() < 1e-15
    assert not d.is_sl


def test_decompose_product_state_repeats_environment_factor():
    rng = np.random.default_rng(22)
    rho_a = random_density(2, rng)
    rho_e = random_density(2, rng)
    d = decompose_blocks(tensor(rho_a, rho_e), 2, 2)
    assert np.all(d.pair_class == PairClass.UNIT_TRACE)
    for k in range(2):
        for l in range(2):
            assert abs(d.coeffs[k, l] - rho_a[k, l]) < 1e-12
            assert np.abs(d.blocks[k, l] - rho_e).max() < 1e-10


def test_decompose_flags_zero_blocks():
    d = decompose_blocks(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex), 2, 2)
    assert d.pair_class.tolist() == [
        [PairClass.UNIT_TRACE, PairClass.ZERO_BLOCK],
        [PairClass.ZERO_BLOCK, PairClass.UNIT_TRACE],
    ]
    assert d.is_sl


def test_decompose_then_reassemble_is_identity():
    rng = np.random.default_rng(23)
    states = [
        bell_density(),
        assemble(four_block_ensemble()),
        assemble(random_vqd_ensemble(3, 2, rng)),
        assemble(random_coherent_block_ensemble(rng)),
    ]
    dims = [(2, 2), (4, 2), (3, 2), (4, 2)]
    for rho, (da, de) in zip(states, dims):
        d = decompose_blocks(rho, da, de)
        # sum_kl coeffs[k,l] |k><l| ⊗ blocks[k,l], through the (k, l, e, f) view
        rebuilt = (d.coeffs[:, :, None, None] * d.blocks).swapaxes(1, 2).reshape(da * de, -1)
        assert np.abs(rebuilt - rho).max() < 1e-10


def test_ensemble_shape_errors_name_the_factor_and_its_dimension():
    with pytest.raises(ShapeError) as info:
        SeparableEnsemble(3, 2, (EnsembleTerm(1.0, ZERO, RHO_E_1),))
    assert str(info.value) == "rho_a shape (2, 2) does not match dim_a 3"
    with pytest.raises(ShapeError) as info:
        SeparableEnsemble(2, 3, (EnsembleTerm(1.0, ZERO, RHO_E_1),))
    assert str(info.value) == "rho_e shape (2, 2) does not match dim_e 3"


def test_decompose_rejects_bad_inputs():
    with pytest.raises(ShapeError):
        decompose_blocks(np.eye(4) / 4.0, 3, 2)
    with pytest.raises(ValidationError):
        decompose_blocks(np.eye(4), 2, 2)  # trace 4


def test_decomposition_arrays_are_immutable():
    d = decompose_blocks(bell_density(), 2, 2)
    with pytest.raises(ValueError):
        d.coeffs[0, 0] = 1.0
    with pytest.raises(ValueError):
        d.blocks[0, 0, 0, 0] = 1.0


def test_source_pipeline_decomposes_each_ensemble_once(monkeypatch):
    calls = []
    split = states.split_blocks

    def counting(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(states, "split_blocks", counting)
    e = random_coherent_block_ensemble(np.random.default_rng(0))
    check_condition(e)
    has_vqd(e.state, e.dim_a, e.dim_e)
    scan(e, SearchConfig(trials=2))
    assert len(calls) == 1
    assert assemble(e) is assemble(e)
    assert not assemble(e).flags.writeable


def test_deepcopy_keeps_frozen_records_and_their_read_only_arrays():
    e = random_coherent_block_ensemble(np.random.default_rng(0))
    assert not e.state.flags.writeable
    assert copy.deepcopy(e) is e
    assert copy.deepcopy(e).state is e.state
    m = induce(e.decomposition, haar_unitary(8, np.random.default_rng(1)))
    bell = decompose_blocks(bell_density(), 2, 2)
    report = classify(bell, cnot(), SearchConfig(positivity_budget=20))
    records = {
        "term": (e.terms[0], ["rho_a", "rho_e"]),
        "decomposition": (e.decomposition, ["coeffs", "blocks", "pair_class"]),
        "map": (m, ["images", "shift"]),
        "report": (report, ["unitary"]),
        "probe": (report.positivity, ["witness"]),
        "discord": (has_vqd(np.eye(4) / 4, 2, 2), ["basis"]),
        "verdict": (is_cp(m), []),
        "condition": (check_condition(e), []),
        "config": (SearchConfig(), []),
    }
    for name, (record, fields) in records.items():
        clone = copy.deepcopy(record)
        assert clone is record, name
        for field in fields:
            assert not getattr(clone, field).flags.writeable, (name, field)


def test_records_with_arrays_compare_and_hash_by_identity():
    # field-wise == on arrays has no single truth value, so these records
    # compare and hash as objects; a record without arrays compares by value
    e = random_coherent_block_ensemble(np.random.default_rng(0))
    bell = decompose_blocks(bell_density(), 2, 2)
    report = classify(bell, cnot(), SearchConfig(positivity_budget=20))
    records = [
        e.terms[0],
        e.decomposition,
        induce(bell, cnot()),
        report,
        report.positivity,
        has_vqd(np.eye(4) / 4, 2, 2),
    ]
    for r in records:
        twin = dataclasses.replace(r)
        assert (r == r, r == twin, r != twin) == (True, False, True), type(r).__name__
        assert len({r, twin, r}) == 2
    assert check_condition(e) == check_condition(e)
    assert len({check_condition(e), check_condition(e)}) == 1


def test_block_coefficients_match_weighted_components():
    rng = np.random.default_rng(24)
    for e in (
        four_block_ensemble(),
        random_coherent_block_ensemble(rng),
        random_vqd_ensemble(2, 3, rng),
    ):
        d = decompose_blocks(assemble(e), e.dim_a, e.dim_e)
        gamma = sum(t.p * t.rho_a for t in e.terms)
        unit = d.pair_class == PairClass.UNIT_TRACE
        assert np.abs((d.coeffs - gamma)[unit]).max() < 1e-12
        assert np.abs(gamma[d.pair_class == PairClass.ZERO_BLOCK]).max() < 1e-12


def test_unit_trace_blocks_are_coefficient_weighted_environment_mixtures():
    rng = np.random.default_rng(25)
    e = random_coherent_block_ensemble(rng)
    d = decompose_blocks(assemble(e), e.dim_a, e.dim_e)
    gamma = sum(t.p * t.rho_a for t in e.terms)
    for k in range(e.dim_a):
        for l in range(e.dim_a):
            if d.pair_class[k, l] != PairClass.UNIT_TRACE:
                continue
            expected = (
                sum(t.p * t.rho_a[k, l] * t.rho_e for t in e.terms) / gamma[k, l]
            )
            assert np.abs(d.blocks[k, l] - expected).max() < 1e-10


def rescaled_terms(e):
    """The rescaled components ``rho_a_i / Γ`` entrywise, ``Γ = Σ_i p_i
    rho_a_i``, 0 where ``Γ`` vanishes, as a ``(K, d, d)`` stack; or
    "CANCELLATION" when a component is nonzero where ``Γ`` vanishes."""
    rho_as = np.stack([t.rho_a for t in e.terms])
    gamma = (np.array([t.p for t in e.terms])[:, None, None] * rho_as).sum(axis=0)
    defined = np.abs(gamma) > states.BLOCK_TRACE_TOL
    if (np.abs(rho_as[:, ~defined]) > states.BLOCK_ZERO_TOL).any():
        return "CANCELLATION"
    return np.divide(rho_as, gamma, out=np.zeros_like(rho_as), where=defined)


def assert_per_term_condition(e, tol=1e-12):
    """Every rescaled component matrix of ``e`` is PSD within ``tol``."""
    lam = np.linalg.eigvalsh(rescaled_terms(e))[:, 0]
    assert (lam >= -tol).all(), lam


def test_condition_holds_on_flat_block_ensemble_via_both_routes():
    # the per-term condition and the rescaled state agree on this source
    e = four_block_ensemble()
    assert_per_term_condition(e)
    report = check_condition(e)
    assert report == states.ConditionReport(holds=True, sl_class=SL, min_eig=report.min_eig)
    assert abs(report.min_eig) < 1e-12


def test_condition_holds_on_orthogonal_rank_one_mixtures():
    rng = np.random.default_rng(27)
    e = random_vqd_ensemble(3, 2, rng)
    assert_per_term_condition(e)
    report = check_condition(e)
    assert report.holds
    assert report.sl_class == SL


def test_condition_holds_on_random_aligned_block_ensembles():
    rng = np.random.default_rng(28)
    for _ in range(10):
        e = random_coherent_block_ensemble(rng)
        assert_per_term_condition(e)
        assert check_condition(e).holds


def test_condition_at_zero_tol_accepts_rounding_in_the_rescaled_matrices():
    # The rescaled matrices of this source deviate from Hermitian by 1.6e-33
    # and 4.8e-16, and its rescaled state has smallest eigenvalue -2.2e-16.
    # The test takes the Hermiticity floor, so at tol = 0 it does not fail
    # on rounding.
    e = random_coherent_block_ensemble(np.random.default_rng(0))
    matrices = rescaled_terms(e)
    assert np.abs(matrices - matrices.conj().swapaxes(1, 2)).max(axis=(1, 2)).min() > 0.0
    report = check_condition(e, tol=0.0)
    assert report.holds
    assert -1e-15 < report.min_eig < 0.0


def test_condition_fails_on_overlapping_supports_with_witnesses():
    e = overlapping_support_ensemble()
    # the per-term condition fails on term 1 ...
    lam = np.linalg.eigvalsh(rescaled_terms(e))[:, 0]
    assert lam[0] > -1e-12 and lam[1] < -0.5
    # ... and so does the rescaled state
    # [[(2 rho_e_1 + rho_e_2) / 3, rho_e_2], [rho_e_2, rho_e_2]], whose Schur
    # complement 2 (rho_e_1 - rho_e_2) / 3 is not PSD
    report = check_condition(e)
    assert not report.holds
    rescaled_state = np.block(
        [[(2 * RHO_E_1 + RHO_E_2) / 3, RHO_E_2], [RHO_E_2, RHO_E_2]]
    )
    assert abs(report.min_eig - np.linalg.eigvalsh(rescaled_state)[0]) < 1e-12


def test_condition_survives_cancellation_when_supports_are_orthogonal():
    e = cancelling_orthogonal_ensemble()
    assert rescaled_terms(e) == "CANCELLATION"
    # the rescaled state is I ⊗ rho_e_1, with smallest eigenvalue 0.3
    report = check_condition(e)
    assert report.holds
    assert abs(report.min_eig - 0.3) < 1e-12


def test_condition_holds_when_cancellation_meets_overlap():
    # the rescaled state decides what the blocked rescaling cannot: the
    # state is diag(rho_e_1 / 4 + rho_e_2 / 2, rho_e_1 / 4)
    e = cancelling_overlapping_ensemble()
    assert rescaled_terms(e) == "CANCELLATION"
    assert check_condition(e).holds


def test_condition_fails_on_traceless_blocks():
    report = check_condition(traceless_block_ensemble())
    assert report == states.ConditionReport(holds=False, sl_class=NON_SL, min_eig=None)
