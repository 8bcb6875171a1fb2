"""Unitary families, classification, scanning, and the gated hunt."""

import numpy as np
import pytest

from inducedmaps import (
    CLASS_AFFINE,
    CLASS_CANDIDATE,
    CLASS_CP,
    CLASS_NON_POSITIVE,
    GENERATOR,
    HAAR,
    NO_VIOLATION_FOUND,
    VIOLATED,
    CandidateReport,
    CpVerdict,
    EnsembleTerm,
    PositivityProbe,
    PreconditionTheoremError,
    PreconditionVqdError,
    SearchConfig,
    SeparableEnsemble,
    ShapeError,
    check_condition,
    classification_label,
    classify,
    dagger,
    decompose_blocks,
    filter_candidates,
    generator_unitary,
    haar_unitary,
    has_vqd,
    hermitian_eigen,
    hunt,
    scan,
)
from inducedmaps import discord, search, states
from inducedmaps.presets import (
    bell_density,
    cnot,
    four_block_ensemble,
    random_coherent_block_ensemble,
    random_density,
    random_vqd_ensemble,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def make_report(classification, choi_min_eig, trial):
    probe = PositivityProbe(NO_VIOLATION_FOUND, -1e-12, None)
    return CandidateReport(
        unitary=np.eye(2, dtype=complex),
        choi_min_eig=choi_min_eig,
        shift_norm=0.0,
        positivity=probe,
        classification=classification,
        trial=trial,
    )


def test_search_config_validates_inputs():
    with pytest.raises(ValueError):
        SearchConfig(family="SOBOL")
    with pytest.raises(ValueError):
        SearchConfig(family=GENERATOR)  # params required
    with pytest.raises(ValueError):
        SearchConfig(trials=0)
    with pytest.raises(ValueError, match="seed"):
        SearchConfig(seed=-1)
    cfg = SearchConfig(family=GENERATOR, params=[1, 2, 3, 4])
    assert cfg.params == (1.0, 2.0, 3.0, 4.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 1.5),
        ("seed", float("nan")),
        ("seed", True),
        ("seed", "7"),
        ("trials", 2.5),
        ("trials", True),
        ("positivity_budget", 2.5),
        ("positivity_budget", np.float64(50.0)),
    ],
)
def test_search_config_rejects_non_integer_settings(field, value):
    # Each of these used to construct and then fail inside scan, with a
    # bare TypeError from SeedSequence or range.
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SearchConfig(**{field: value})


def test_search_config_accepts_numpy_integers():
    seed = np.random.default_rng(0).integers(2**32)
    cfg = SearchConfig(seed=seed, trials=np.int64(3), positivity_budget=np.uint16(50))
    assert (cfg.seed, cfg.trials, cfg.positivity_budget) == (int(seed), 3, 50)
    assert all(type(v) is int for v in (cfg.seed, cfg.trials, cfg.positivity_budget))
    d = decompose_blocks(bell_density(), 2, 2)
    plain = SearchConfig(seed=int(seed), trials=3, positivity_budget=50)
    assert [r.unitary.tobytes() for r in scan(d, cfg)] == [
        r.unitary.tobytes() for r in scan(d, plain)
    ]


@pytest.mark.parametrize(
    "family, params, message",
    [
        (HAAR, [1.0, 2.0, 3.0], "no other family takes them"),
        (GENERATOR, [0.0, float("nan"), 0.0, 0.0], "finite numbers"),
        (GENERATOR, [1e308] * 4, "magnitude at most 2\\*\\*52"),
    ],
    ids=["haar", "non-finite", "overflowing"],
)
def test_search_config_rejects_params_it_cannot_use(family, params, message):
    with pytest.raises(ValueError, match=message):
        SearchConfig(family=family, params=params)


@pytest.mark.parametrize("value", [-1e-9, float("nan"), float("inf")])
@pytest.mark.parametrize(
    "field", ["cp_tol", "witness_tol", "condition_tol", "vqd_tol", "candidate_threshold"]
)
def test_search_config_rejects_negative_and_non_finite_tolerances(field, value):
    with pytest.raises(ValueError, match=field):
        SearchConfig(**{field: value})
    assert getattr(SearchConfig(**{field: 0.0}), field) == 0.0


def test_haar_unitary_is_deterministic_and_unitary():
    u1 = haar_unitary(4, seed=9)
    u2 = haar_unitary(4, seed=9)
    u3 = haar_unitary(4, seed=10)
    assert np.array_equal(u1, u2)
    assert not np.array_equal(u1, u3)
    assert np.abs(dagger(u1) @ u1 - np.eye(4)).max() < 1e-12


def test_haar_unitary_dim_one_is_a_phase():
    u = haar_unitary(1, seed=0)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_rejects_bad_dim():
    with pytest.raises(ShapeError):
        haar_unitary(0, seed=0)


def test_haar_first_entry_moment_matches_uniform_measure():
    rng = np.random.default_rng(42)
    acc = 0.0
    samples = 10000
    for _ in range(samples):
        acc += abs(haar_unitary(2, rng)[0, 0]) ** 2
    # E|u00|^2 = 1/dim for a measure-uniform unitary
    assert abs(acc / samples - 0.5) < 0.01


def test_generator_zero_params_give_identity():
    assert np.abs(generator_unitary(np.zeros(4), 2) - np.eye(2)).max() < 1e-12


def test_generator_diagonal_params_give_phases():
    u = generator_unitary([0.3, -1.2, 0.0, 0.0], 2)
    assert np.abs(u - np.diag(np.exp(1j * np.array([0.3, -1.2])))).max() < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_generator_fills_the_upper_triangle_in_row_major_pairs(dim):
    params = np.random.default_rng(dim).normal(size=dim * dim)
    h = np.zeros((dim, dim), dtype=complex)
    pos = dim
    for i in range(dim):
        h[i, i] = params[i]
        for j in range(i + 1, dim):
            h[i, j] = params[pos] + 1j * params[pos + 1]
            h[j, i] = params[pos] - 1j * params[pos + 1]
            pos += 2
    w, v = hermitian_eigen(h)
    expected = (v * np.exp(1j * w)) @ dagger(v)
    assert generator_unitary(params, dim).tobytes() == expected.tobytes()


def test_generator_quarter_turn_exponentiates_exactly():
    u = generator_unitary([0.0, 0.0, np.pi / 2.0, 0.0], 2)
    assert np.abs(u - 1j * PAULI_X).max() < 1e-12


def test_generator_is_periodic_in_diagonal_offsets():
    rng = np.random.default_rng(54)
    params = rng.normal(size=4)
    shifted = params.copy()
    shifted[:2] += 2.0 * np.pi
    u1 = generator_unitary(params, 2)
    u2 = generator_unitary(shifted, 2)
    assert np.abs(u1 - u2).max() < 1e-10


def test_generator_rejects_wrong_parameter_count():
    with pytest.raises(ShapeError):
        generator_unitary([1.0, 2.0, 3.0], 2)


def test_classification_label_precedence():
    cp = CpVerdict(status="CP", choi_min_eig=0.0, shift_norm=0.0)
    not_cp = CpVerdict(status="NOT_CP", choi_min_eig=-0.2, shift_norm=0.0)
    affine = CpVerdict(status="NOT_CP_AFFINE", choi_min_eig=-0.2, shift_norm=0.5)
    found = PositivityProbe(VIOLATED, -0.3, np.eye(2) / 2.0)
    nothing = PositivityProbe(NO_VIOLATION_FOUND, -1e-12, None)
    assert classification_label(cp, nothing) == CLASS_CP
    assert classification_label(not_cp, found) == CLASS_NON_POSITIVE
    assert classification_label(affine, found) == CLASS_NON_POSITIVE
    assert classification_label(affine, nothing) == CLASS_AFFINE
    assert classification_label(not_cp, nothing) == CLASS_CANDIDATE


def test_classify_flags_bell_cnot_as_non_positive():
    report = classify(decompose_blocks(bell_density(), 2, 2), cnot(), SearchConfig())
    assert report.classification == CLASS_NON_POSITIVE
    assert report.positivity.status == VIOLATED
    assert report.shift_norm > 0.1
    assert np.array_equal(report.unitary, cnot())


def test_classify_flags_product_evolution_as_cp():
    rng = np.random.default_rng(55)
    e = SeparableEnsemble(
        2,
        2,
        (EnsembleTerm(1.0, random_density(2, rng), random_density(2, rng)),),
    )
    report = classify(e, haar_unitary(4, rng), SearchConfig())
    assert report.classification == CLASS_CP
    assert report.choi_min_eig > -1e-9
    assert report.shift_norm < 1e-12


def test_classify_flags_weak_coherence_as_affine():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    rho[0, 3] = rho[3, 0] = 1e-5
    report = classify(decompose_blocks(rho, 2, 2), cnot(), SearchConfig())
    assert report.classification == CLASS_AFFINE
    assert report.positivity.status == NO_VIOLATION_FOUND
    assert 0.5e-5 < report.shift_norm < 2e-5


def test_classify_rejects_unknown_sources():
    with pytest.raises(TypeError):
        classify(bell_density(), cnot(), SearchConfig())


def test_scan_is_deterministic_and_orders_trials():
    e = four_block_ensemble()
    cfg = SearchConfig(trials=6, positivity_budget=60, seed=11)
    first = scan(e, cfg)
    second = scan(e, cfg)
    assert len(first) == 6
    assert [r.trial for r in first] == list(range(6))
    for a, b in zip(first, second):
        assert a.choi_min_eig == b.choi_min_eig
        assert a.shift_norm == b.shift_norm
        assert a.classification == b.classification
        assert np.array_equal(a.unitary, b.unitary)


def test_scan_on_block_aligned_sources_only_finds_cp_maps():
    e = four_block_ensemble()
    for report in scan(e, SearchConfig(trials=8, positivity_budget=60, seed=12)):
        assert report.classification == CLASS_CP
        assert report.shift_norm < 1e-10
        assert report.choi_min_eig > -1e-9


def test_scan_generator_family_repeats_one_unitary():
    e = four_block_ensemble()
    params = np.zeros(64)
    params[8] = 0.7  # one off-diagonal coupling
    cfg = SearchConfig(
        family=GENERATOR, params=params, trials=3, positivity_budget=40, seed=13
    )
    reports = scan(e, cfg)
    fixed = generator_unitary(params, 8)
    for report in reports:
        assert np.abs(report.unitary - fixed).max() < 1e-12


def test_filter_candidates_keeps_deep_negative_candidates_sorted():
    reports = (
        make_report(CLASS_CP, 0.0, 0),
        make_report(CLASS_CANDIDATE, -3e-6, 1),
        make_report(CLASS_CANDIDATE, -2e-7, 2),  # too shallow
        make_report(CLASS_NON_POSITIVE, -5e-3, 3),  # wrong class
        make_report(CLASS_CANDIDATE, -8e-5, 4),
    )
    kept = filter_candidates(reports, threshold=1e-6)
    assert [r.trial for r in kept] == [4, 1]
    assert kept[0].choi_min_eig < kept[1].choi_min_eig


def test_filter_candidates_empty_input():
    assert filter_candidates(()) == ()


def test_hunt_rejects_sources_failing_the_condition():
    plus = np.full((2, 2), 0.5, dtype=complex)
    e = SeparableEnsemble(
        2,
        2,
        (
            EnsembleTerm(0.5, np.diag([1.0, 0.0]).astype(complex), np.diag([1.0, 0.0]).astype(complex)),
            EnsembleTerm(0.5, plus, np.diag([0.3, 0.7]).astype(complex)),
        ),
    )
    with pytest.raises(PreconditionTheoremError):
        hunt(e, SearchConfig(trials=2, positivity_budget=20))


def test_hunt_rejects_discord_free_sources():
    with pytest.raises(PreconditionVqdError):
        hunt(four_block_ensemble(), SearchConfig(trials=2, positivity_budget=20))


@pytest.mark.parametrize(
    "make",
    [four_block_ensemble, lambda: random_coherent_block_ensemble(np.random.default_rng(5))],
    ids=["four-block", "coherent"],
)
def test_hunt_validates_the_ensemble_state_once(make, monkeypatch):
    e = make()
    names = []
    real = states.validate_density_matrix

    def recorded(rho, name="rho"):
        names.append(name)
        return real(rho, name)

    monkeypatch.setattr(states, "validate_density_matrix", recorded)
    monkeypatch.setattr(discord, "validate_density_matrix", recorded)
    # both gates read the state; the condition's decomposition validates it
    with pytest.raises(PreconditionVqdError):
        hunt(e, SearchConfig(trials=2, positivity_budget=20))
    assert names == ["rho_ae"]


def test_hunt_checks_the_condition_before_discord():
    # fails both gates; the condition gate must fire first
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    e = SeparableEnsemble(
        2,
        2,
        (
            EnsembleTerm(0.5, plus, np.diag([1.0, 0.0]).astype(complex)),
            EnsembleTerm(0.5, minus, np.diag([0.3, 0.7]).astype(complex)),
        ),
    )
    with pytest.raises(PreconditionTheoremError):
        hunt(e, SearchConfig(trials=2, positivity_budget=20))


PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
ZERO = np.diag([1.0, 0.0]).astype(complex)
RHO_E = (np.diag([0.6, 0.4]).astype(complex), np.diag([0.1, 0.9]).astype(complex))


def discordant_mixture():
    rng = np.random.default_rng(4)
    p = rng.uniform(0.5, 1.5, size=3)
    return SeparableEnsemble(
        3,
        2,
        tuple(
            EnsembleTerm(float(w), random_density(3, rng), random_density(2, rng))
            for w in p / p.sum()
        ),
    )


def cancelling_masked_product():
    """``|a><a| / 3 + 2 |b><b| / 3`` on one environment, with ``a ∝ (1, 1, 1)``
    and ``b ∝ (1, 2, -1)``: the (0, 2) coherences cancel, so the total is
    ``gamma ⊗ rho_e`` with ``gamma[0, 2] = 0`` but ``gamma[0, 1]`` and
    ``gamma[1, 2]`` nonzero, and its rescaled state, the 0/1 pattern of
    ``gamma`` times ``rho_e``, is not PSD."""
    a = np.full(3, 1 / np.sqrt(3), dtype=complex)
    b = np.array([1, 2, -1], dtype=complex) / np.sqrt(6)
    terms = (EnsembleTerm(w, np.outer(v, v.conj()), RHO_E[0]) for w, v in ((1 / 3, a), (2 / 3, b)))
    return SeparableEnsemble(3, 2, tuple(terms))


# Each source with the condition report it gives at every tolerance below:
# (rescaled_blocked, routes).
GATE_OUTCOMES = {
    "rescaled-psd": (
        lambda: random_vqd_ensemble(3, 2, 3),
        (None, ("RESCALED_PSD", "BLOCK_PROJECTOR")),
    ),
    # one mixed system factor twice: the rescaled matrices are all-ones,
    # and the two full supports overlap
    "overlapping-supports": (
        lambda: SeparableEnsemble(
            2, 2, tuple(EnsembleTerm(0.5, np.diag([0.6, 0.4]).astype(complex), r) for r in RHO_E)
        ),
        (None, ("RESCALED_PSD", "BLOCK_PROJECTOR")),
    ),
    # the product [[.5, .2], [.2, .5]] ⊗ rho_e written as two terms whose
    # rescaled matrices are not PSD; its rescaled state is 1 ⊗ rho_e
    "block-projector-only": (
        lambda: SeparableEnsemble(
            2,
            2,
            tuple(
                EnsembleTerm(0.5, np.array(g, dtype=complex), RHO_E[0])
                for g in ([[0.6, 0.4], [0.4, 0.4]], [[0.4, 0.0], [0.0, 0.6]])
            ),
        ),
        (None, ("BLOCK_PROJECTOR",)),
    ),
    # |+><+| and |-><-| on one environment: the coherences cancel, and
    # the state is I/2 ⊗ rho_e
    "cancellation-projector-holds": (
        lambda: SeparableEnsemble(
            2, 2, (EnsembleTerm(0.5, PLUS, RHO_E[0]), EnsembleTerm(0.5, MINUS, RHO_E[0]))
        ),
        ("CANCELLATION", ("BLOCK_PROJECTOR",)),
    ),
    "cancellation-projector-fails": (
        cancelling_masked_product,
        ("CANCELLATION", ()),
    ),
    "non-sl": (
        lambda: SeparableEnsemble(
            2, 2, (EnsembleTerm(0.5, PLUS, RHO_E[0]), EnsembleTerm(0.5, MINUS, RHO_E[1]))
        ),
        ("NON_SL", ()),
    ),
    "both-routes-fail": (discordant_mixture, (None, ())),
}


def gates_from_report(e, cfg):
    """Class and message of the error hunt's two gates raise, with the
    condition gate read off check_condition's whole report."""
    report = check_condition(e, tol=cfg.condition_tol)
    if not report.holds:
        return PreconditionTheoremError, (
            f"block-support condition does not hold: witnesses {list(report.witnesses)}"
        )
    verdict = has_vqd(e.state, e.dim_a, e.dim_e, cfg.vqd_tol)
    assert verdict.status == "VQD"
    return PreconditionVqdError, (
        f"ensemble has vanishing discord (pinching defect {verdict.residual:.3e}); "
        "every induced map is CP"
    )


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
@pytest.mark.parametrize("case", GATE_OUTCOMES)
def test_hunt_gate_matches_the_gate_of_the_whole_report(case, tol):
    make, outcome = GATE_OUTCOMES[case]
    e = make()
    report = check_condition(e, tol=tol)
    assert (report.rescaled_blocked, report.routes) == outcome
    cfg = SearchConfig(trials=1, condition_tol=tol)
    with pytest.raises((PreconditionTheoremError, PreconditionVqdError)) as info:
        hunt(e, cfg)
    # the message lists the witnesses, so they come in the report's order
    assert (type(info.value), str(info.value)) == gates_from_report(e, cfg)


def test_scan_reads_each_unitary_seed_once(monkeypatch):
    reads = []

    def counted(self, k, _real=search._TrialSeeds.__getitem__):
        reads.append((self.trials.start + k, self.stream))
        return _real(self, k)

    monkeypatch.setattr(search._TrialSeeds, "__getitem__", counted)
    cfg = SearchConfig(trials=9, positivity_budget=50, seed=3)
    reports = scan(decompose_blocks(bell_density(), 2, 2), cfg)
    # one read per trial, none past the end of a stack
    assert [k for k in reads if k[1] == 0] == [(i, 0) for i in range(cfg.trials)]
    # the unitaries are those of SeedSequence(seed).spawn(trials)[i].spawn(2)[0]
    spawned = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    want = [haar_unitary(4, child.spawn(2)[0]) for child in spawned]
    assert [r.unitary.tobytes() for r in reports] == [u.tobytes() for u in want]
