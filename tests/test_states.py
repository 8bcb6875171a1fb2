"""Block decompositions, rescaled matrices, and the block-support condition."""

import copy

import numpy as np
import pytest

from inducedmaps import states
from inducedmaps import (
    CANCELLATION,
    NON_SL,
    ROUTE_BLOCK,
    ROUTE_NONE,
    ROUTE_RESCALED,
    SL,
    CancellationError,
    EnsembleTerm,
    NonSLError,
    PairClass,
    SearchConfig,
    SeparableEnsemble,
    ShapeError,
    SizeError,
    ValidationError,
    assemble,
    check_condition,
    classify,
    classify_sl,
    component_images,
    decompose_blocks,
    has_vqd,
    haar_unitary,
    induce,
    is_psd,
    partial_trace,
    reassemble,
    rescaled_matrices,
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
    nonzero there, so the rescaled route is indeterminate; the state is
    I/2 ⊗ rho_e, so the projector route still decides.
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
    marginal = partial_trace(assemble(e), e.dim_a, e.dim_e, side="E")
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
    assert classify_sl(d) == NON_SL


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
    assert classify_sl(d) == SL


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
        assert np.abs(reassemble(d) - rho).max() < 1e-10


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
    decompose = states.decompose_blocks

    def counting(*args):
        calls.append(args)
        return decompose(*args)

    monkeypatch.setattr(states, "decompose_blocks", counting)
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
        "rescaled": (rescaled_matrices(e), ["defined_mask"]),
        "map": (m, ["images", "shift"]),
        "report": (report, ["unitary"]),
        "probe": (report.positivity, ["witness"]),
        "discord": (has_vqd(np.eye(4) / 4, 2, 2), ["basis"]),
    }
    for name, (record, fields) in records.items():
        clone = copy.deepcopy(record)
        assert clone is record, name
        for field in fields:
            assert not getattr(clone, field).flags.writeable, (name, field)


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


def test_rescaled_four_block_values_and_mask():
    rs = rescaled_matrices(four_block_ensemble())
    first = np.zeros((4, 4))
    first[:2, :2] = 2.0
    second = np.zeros((4, 4))
    second[2:, 2:] = 2.0
    assert np.abs(rs.matrices[0] - first).max() < 1e-12
    assert np.abs(rs.matrices[1] - second).max() < 1e-12
    expected_mask = (first + second) > 0
    assert np.array_equal(rs.defined_mask, expected_mask)
    for m in rs.matrices:
        ok, _ = is_psd(m, tol=1e-12)
        assert ok


def test_rescaled_single_term_is_all_ones_on_support():
    rng = np.random.default_rng(26)
    rho_a = random_density(3, rng)
    e = SeparableEnsemble(3, 2, (EnsembleTerm(1.0, rho_a, RHO_E_1),))
    rs = rescaled_matrices(e)
    assert np.array_equal(rs.defined_mask, np.full((3, 3), True))
    assert np.abs(rs.matrices[0] - np.ones((3, 3))).max() < 1e-12


def test_rescaled_orthogonal_projectors_are_scaled_indicators():
    one = np.diag([0.0, 1.0]).astype(complex)
    e = SeparableEnsemble(
        2, 2, (EnsembleTerm(0.5, ZERO, RHO_E_1), EnsembleTerm(0.5, one, RHO_E_2))
    )
    rs = rescaled_matrices(e)
    assert np.abs(rs.matrices[0] - np.diag([2.0, 0.0])).max() < 1e-15
    assert np.abs(rs.matrices[1] - np.diag([0.0, 2.0])).max() < 1e-15
    assert np.array_equal(rs.defined_mask, np.eye(2, dtype=bool))


def test_rescaled_rejects_traceless_blocks():
    with pytest.raises(NonSLError):
        rescaled_matrices(traceless_block_ensemble())


def test_rescaled_rejects_cancelling_components():
    with pytest.raises(CancellationError):
        rescaled_matrices(cancelling_orthogonal_ensemble())


def test_condition_holds_on_flat_block_ensemble_via_both_routes():
    report = check_condition(four_block_ensemble())
    assert report.holds
    assert report.routes == (ROUTE_RESCALED, ROUTE_BLOCK)
    assert report.route == ROUTE_RESCALED
    assert report.sl_class == SL
    assert report.rescaled_psd is True
    assert report.rescaled_blocked is None
    assert report.block_projector is True
    assert report.witnesses == ()


def test_condition_holds_on_orthogonal_rank_one_mixtures():
    rng = np.random.default_rng(27)
    report = check_condition(random_vqd_ensemble(3, 2, rng))
    assert report.holds
    assert report.routes == (ROUTE_RESCALED, ROUTE_BLOCK)


def test_condition_holds_on_random_aligned_block_ensembles():
    rng = np.random.default_rng(28)
    for _ in range(10):
        report = check_condition(random_coherent_block_ensemble(rng))
        assert report.holds
        assert report.routes == (ROUTE_RESCALED, ROUTE_BLOCK)


def test_condition_at_zero_tol_accepts_rounding_in_the_rescaled_matrices():
    # The rescaled matrices of this source deviate from Hermitian by 1.6e-33
    # and 4.8e-16, and its rescaled state has smallest eigenvalue -2.2e-16.
    # Both checks take the Hermiticity floor, so at tol = 0 neither route
    # fails on rounding.
    e = random_coherent_block_ensemble(np.random.default_rng(0))
    matrices = np.stack(rescaled_matrices(e).matrices)
    assert np.abs(matrices - matrices.conj().swapaxes(1, 2)).max(axis=(1, 2)).min() > 0.0
    report = check_condition(e, tol=0.0)
    assert report.holds
    assert report.routes == (ROUTE_RESCALED, ROUTE_BLOCK)
    assert report.block_projector is True
    assert report.witnesses == ()


def test_condition_fails_on_overlapping_supports_with_witnesses():
    report = check_condition(overlapping_support_ensemble())
    assert not report.holds
    assert report.route == ROUTE_NONE
    assert report.routes == ()
    assert report.rescaled_psd is False
    assert report.block_projector is False
    eig_witnesses = [w for w in report.witnesses if w.get("route") == ROUTE_RESCALED]
    assert eig_witnesses and eig_witnesses[0]["term"] == 1
    assert eig_witnesses[0]["min_eig"] < -0.5
    # the rescaled state [[(2 rho_e_1 + rho_e_2) / 3, rho_e_2], [rho_e_2, rho_e_2]]
    # has Schur complement 2 (rho_e_1 - rho_e_2) / 3, which is not PSD
    rescaled_state = np.block(
        [[(2 * RHO_E_1 + RHO_E_2) / 3, RHO_E_2], [RHO_E_2, RHO_E_2]]
    )
    (block,) = [w for w in report.witnesses if w["route"] == ROUTE_BLOCK]
    assert set(block) == {"route", "min_eig"}
    assert abs(block["min_eig"] - np.linalg.eigvalsh(rescaled_state)[0]) < 1e-12


def test_condition_survives_cancellation_when_supports_are_orthogonal():
    report = check_condition(cancelling_orthogonal_ensemble())
    assert report.holds
    assert report.routes == (ROUTE_BLOCK,)
    assert report.rescaled_psd is None
    assert report.rescaled_blocked == CANCELLATION
    assert report.block_projector is True
    assert any(w.get("error") == CANCELLATION for w in report.witnesses)


def test_condition_holds_when_cancellation_meets_overlap():
    # the rescaled state decides what the blocked rescaling cannot: the
    # state is diag(rho_e_1 / 4 + rho_e_2 / 2, rho_e_1 / 4)
    report = check_condition(cancelling_overlapping_ensemble())
    assert report.holds
    assert report.routes == (ROUTE_BLOCK,)
    assert report.rescaled_blocked == CANCELLATION
    assert report.block_projector is True


def test_condition_fails_on_traceless_blocks():
    report = check_condition(traceless_block_ensemble())
    assert not report.holds
    assert report.sl_class == NON_SL
    assert report.rescaled_blocked == NON_SL
    assert report.block_projector is False
    routes_with_errors = {w["route"] for w in report.witnesses if "error" in w}
    assert routes_with_errors == {ROUTE_RESCALED, ROUTE_BLOCK}
    # neither route is evaluated: one NON_SL witness each, rescaled first
    assert (report.route, report.routes, report.rescaled_psd) == (ROUTE_NONE, (), None)
    assert report.witnesses == (
        {"route": ROUTE_RESCALED, "error": NON_SL},
        {"route": ROUTE_BLOCK, "error": NON_SL},
    )


def test_component_images_of_all_ones_reproduce_input():
    rng = np.random.default_rng(29)
    e = SeparableEnsemble(2, 2, (EnsembleTerm(1.0, random_density(2, rng), RHO_E_1),))
    rs = rescaled_matrices(e)
    rho_prime = random_density(2, rng)
    (image,) = component_images(rho_prime, rs)
    assert np.abs(image - rho_prime).max() < 1e-12


def test_component_images_of_flat_blocks_select_scaled_corners():
    rs = rescaled_matrices(four_block_ensemble())
    rho_prime = np.eye(4, dtype=complex) / 4.0
    images = component_images(rho_prime, rs)
    assert np.abs(images[0] - np.diag([0.5, 0.5, 0.0, 0.0])).max() < 1e-12
    assert np.abs(images[1] - np.diag([0.0, 0.0, 0.5, 0.5])).max() < 1e-12


def test_component_images_stay_psd_when_condition_holds():
    rng = np.random.default_rng(30)
    for _ in range(5):
        e = random_coherent_block_ensemble(rng)
        assert check_condition(e).holds
        rs = rescaled_matrices(e)
        rho_prime = random_density(4, rng)
        for image in component_images(rho_prime, rs):
            ok, lam = is_psd(image, tol=1e-10)
            assert ok, f"component image lost positivity: min eig {lam}"
