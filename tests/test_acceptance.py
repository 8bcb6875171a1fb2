"""End-to-end acceptance runs for the induced-map pipeline.

Each test covers one pinned behavioral contract, from the reference
fixtures through randomized property sweeps to the gated unitary search,
with explicit tolerances and wall-clock bounds.  Every random sweep is
seeded, so outcomes are reproducible bit for bit.
"""

import functools
import json
import time

import numpy as np
import pytest

from inducedmaps import (
    CLASS_NON_POSITIVE,
    CP,
    NO_VIOLATION_FOUND,
    VQD,
    EnsembleTerm,
    PreconditionVqdError,
    SearchConfig,
    SeparableEnsemble,
    check_condition,
    choi_matrix,
    classify,
    dagger,
    decompose_blocks,
    assemble,
    haar_unitary,
    has_vqd,
    hunt,
    induce,
    is_cp,
    kraus_from_choi,
    partial_trace,
    probe_positivity,
    tensor,
    validate_density_matrix,
)
from inducedmaps.cli import main as cli_main
from inducedmaps.presets import (
    bell_density,
    cnot,
    four_block_ensemble,
    random_coherent_block_ensemble,
    random_density,
    random_vqd_ensemble,
)


@functools.lru_cache(maxsize=1)
def discord_free_map_suite():
    """One hundred seeded (ensemble, unitary) pairs over 2x2 and 3x2 splits.

    Sources are orthogonal rank-one mixtures aligned with the coherence
    blocks; unitaries are Haar draws on the joint space.  Shared between
    the complete-positivity sweep and the operator-sum reconstruction
    sweep so both examine the identical population.
    """
    rng = np.random.default_rng(404)
    cases = []
    for index in range(100):
        dim_a, dim_e = (2, 2) if index % 2 == 0 else (3, 2)
        e = random_vqd_ensemble(dim_a, dim_e, rng)
        u = haar_unitary(dim_a * dim_e, rng)
        m = induce(decompose_blocks(assemble(e), dim_a, dim_e), u)
        cases.append((e, u, m, is_cp(m)))
    return tuple(cases)


def test_bell_state_through_conditional_flip_reproduces_pinned_output(capsys):
    """The canonical entangled fixture yields the pinned non-positive output."""
    start = time.monotonic()
    d = decompose_blocks(bell_density(), 2, 2)
    m = induce(d, cnot())
    out = m.apply(np.diag([1.0, 0.0]).astype(complex))
    target = 0.5 * np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.abs(out - target).max() <= 1e-12
    min_eig = float(np.linalg.eigvalsh(out)[0])
    assert abs(min_eig - (1.0 - np.sqrt(5.0)) / 4.0) <= 1e-10
    # the packaged reproduction command checks the same pinned values
    assert cli_main(["repro", "bell-cnot"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "PASS"
    assert time.monotonic() - start < 1.0


def test_flat_block_ensemble_rescales_to_uniform_psd_blocks():
    """Equal-weight two-block mixture rescales to flat value-2 blocks."""
    start = time.monotonic()
    matrices = rescaled_terms(four_block_ensemble())
    first = np.zeros((4, 4))
    first[:2, :2] = 2.0
    second = np.zeros((4, 4))
    second[2:, 2:] = 2.0
    assert np.abs(matrices[0] - first).max() <= 1e-12
    assert np.abs(matrices[1] - second).max() <= 1e-12
    assert np.linalg.eigvalsh(matrices)[:, 0].min() >= -1e-12
    assert time.monotonic() - start < 1.0


def test_entrywise_products_of_random_psd_pairs_stay_psd():
    """Five hundred random PSD pairs across dimensions 2-8 stay PSD entrywise."""
    start = time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(500):
        dim = int(rng.integers(2, 9))
        a = random_density(dim, rng)
        b = random_density(dim, rng)
        lam = np.linalg.eigvalsh(a * b)[0]
        assert lam >= -1e-10, f"entrywise product dipped to {lam}"
    assert time.monotonic() - start < 10.0


def test_discord_free_sources_always_induce_cp_maps():
    """Aligned rank-one mixtures induce CP, shift-free maps for any unitary."""
    start = time.monotonic()
    suite = discord_free_map_suite()
    assert len(suite) == 100
    for _, _, m, verdict in suite:
        assert verdict.choi_min_eig >= -1e-9
        assert verdict.shift_norm <= 1e-10
        assert verdict.status == CP
    assert time.monotonic() - start < 30.0


def test_condition_passing_block_ensembles_never_violate_positivity():
    """Coherent-block sources that pass the condition never lose positivity.

    Twenty seeded ensembles, fifty Haar unitaries each, two hundred sampled
    inputs plus refinement per map: no certified violation below -1e-9.
    """
    start = time.monotonic()
    root = np.random.SeedSequence(505)
    for ensemble_seed in root.spawn(20):
        child = np.random.default_rng(ensemble_seed)
        e = random_coherent_block_ensemble(child)
        assert check_condition(e).holds
        d = decompose_blocks(assemble(e), e.dim_a, e.dim_e)
        for trial in range(50):
            u = haar_unitary(e.dim_a * e.dim_e, child)
            m = induce(d, u)
            probe = probe_positivity(m, budget=200, seed=child.integers(2**32))
            assert probe.status == NO_VIOLATION_FOUND, (
                f"violation {probe.min_eig} at trial {trial}"
            )
            assert probe.min_eig >= -1e-9
    assert time.monotonic() - start < 300.0


def test_induced_maps_decompose_over_rescaled_components():
    """The map equals the weighted sum of per-component conjugations.

    Fifty seeded (ensemble, unitary, input) triples over both source
    families; the identity holds entrywise to 1e-10.
    """
    start = time.monotonic()
    rng = np.random.default_rng(606)
    for trial in range(50):
        if trial % 2 == 0:
            e = random_vqd_ensemble(2, 2, rng)
        else:
            e = random_coherent_block_ensemble(rng)
        u = haar_unitary(e.dim_a * e.dim_e, rng)
        m = induce(decompose_blocks(assemble(e), e.dim_a, e.dim_e), u)
        rho_prime = random_density(e.dim_a, rng)
        expected = np.zeros((e.dim_a, e.dim_a), dtype=complex)
        for t, ratio in zip(e.terms, rescaled_terms(e)):
            joint = u @ tensor(rho_prime * ratio, t.rho_e) @ dagger(u)
            expected += t.p * partial_trace(joint, e.dim_a, e.dim_e)
        assert np.abs(m.apply(rho_prime) - expected).max() <= 1e-10
    assert time.monotonic() - start < 60.0


def test_induced_maps_are_affine_hermiticity_and_trace_preserving():
    """Convex mixing, hermiticity, and trace survive the induced action.

    One hundred seeded triples; trace preservation is asserted for sources
    whose blocks all carry unit trace (it fails by construction for
    sources with traceless coherence blocks, whose maps are affine).
    """
    start = time.monotonic()
    rng = np.random.default_rng(707)
    bell = decompose_blocks(bell_density(), 2, 2)
    for trial in range(100):
        kind = trial % 3
        if kind == 0:
            d = bell
        elif kind == 1:
            e = random_vqd_ensemble(2, 2, rng)
            d = decompose_blocks(assemble(e), 2, 2)
        else:
            e = random_coherent_block_ensemble(rng)
            d = decompose_blocks(assemble(e), 4, 2)
        u = haar_unitary(d.dim_a * d.dim_e, rng)
        m = induce(d, u)
        rho1 = random_density(d.dim_a, rng)
        rho2 = random_density(d.dim_a, rng)
        alpha = float(rng.uniform(0.0, 1.0))
        mixed = m.apply(alpha * rho1 + (1.0 - alpha) * rho2)
        split = alpha * m.apply(rho1) + (1.0 - alpha) * m.apply(rho2)
        assert np.abs(mixed - split).max() <= 1e-12
        out = m.apply(rho1)
        assert np.abs(out - dagger(out)).max() <= 1e-12
        if d.is_sl:
            assert abs(np.trace(out) - 1.0) <= 1e-10
    assert time.monotonic() - start < 60.0


def test_cp_maps_reconstruct_from_operator_sum_forms():
    """Every CP map of the discord-free sweep rebuilds from its operators.

    Twenty random inputs per map; outputs agree entrywise to 1e-9.
    """
    start = time.monotonic()
    rng = np.random.default_rng(808)
    for _, _, m, verdict in discord_free_map_suite():
        assert verdict.status == CP
        ops = kraus_from_choi(choi_matrix(m))
        for _ in range(20):
            rho = random_density(m.dim_a, rng)
            rebuilt = sum(k @ rho @ dagger(k) for k in ops)
            assert np.abs(rebuilt - m.apply(rho)).max() <= 1e-9
    assert time.monotonic() - start < 120.0


def test_entangled_source_is_flagged_and_its_map_loses_positivity():
    """The entangled fixture is NON_SL and its conditional-flip map is
    certified non-positive with a concrete witness."""
    d = decompose_blocks(bell_density(), 2, 2)
    assert not d.is_sl
    report = classify(d, cnot(), SearchConfig())
    assert report.classification == CLASS_NON_POSITIVE
    witness = report.positivity.witness
    assert witness is not None
    validate_density_matrix(witness)
    assert report.positivity.min_eig < -1e-9
    applied = induce(d, cnot()).apply(witness)
    assert float(np.linalg.eigvalsh((applied + dagger(applied)) / 2.0)[0]) < -1e-9


def test_hunt_on_condition_passing_coherent_blocks():
    """The hunt on a condition-passing coherent-block source stops at its
    discord gate, deterministically, and the gate discards no candidate.

    Passing the block-support condition forces the source into the form
    ``⊕_b Γ_b ⊗ τ_b``, which has vanishing discord (see
    :func:`test_condition_passing_sources_have_vanishing_discord`), so
    ``hunt`` raises its documented precondition error instead of
    searching.  The gate stands for a true statement: every one of the
    configured number of Haar unitaries induces a CP, shift-free map, so
    no positive-but-not-CP candidate exists for the search to miss.
    """
    start = time.monotonic()
    e = random_coherent_block_ensemble(np.random.default_rng(1010))
    assert check_condition(e).holds
    cfg = SearchConfig(trials=1000, positivity_budget=50, seed=7)
    rho = assemble(e)
    discord = has_vqd(rho, 4, 2, tol=cfg.vqd_tol)
    assert discord.status == VQD
    assert discord.residual <= cfg.vqd_tol
    messages = []
    for _ in range(2):
        with pytest.raises(PreconditionVqdError, match="vanishing discord") as info:
            hunt(e, cfg)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    d = decompose_blocks(rho, e.dim_a, e.dim_e)
    rng = np.random.default_rng(cfg.seed)
    for trial in range(cfg.trials):
        verdict = is_cp(induce(d, haar_unitary(e.dim_a * e.dim_e, rng)), cfg.cp_tol)
        assert verdict.status == CP, (
            f"trial {trial}: Choi eigenvalue {verdict.choi_min_eig}"
        )
        assert verdict.shift_norm == 0.0
    assert time.monotonic() - start < 30.0


def test_condition_passing_sources_have_vanishing_discord():
    """Every source that passes the block-support condition has vanishing
    discord.

    The condition holds when the rescaled state ``R`` is PSD, and
    ``R ⪰ 0`` forces the state to be ``⊕_b Γ_b ⊗ τ_b`` on computational
    blocks, which is classical–quantum.  Seeded sources, all passing the
    condition and the per-term condition on their rescaled matrices:
    random coherent blocks, the flat-block fixture, and three-term
    mixtures of one fixed density per block, whose supports overlap.
    """
    start = time.monotonic()
    rng = np.random.default_rng(1111)
    cases = [random_coherent_block_ensemble(rng) for _ in range(50)]
    cases += [four_block_ensemble(p1) for p1 in (0.2, 0.35, 0.5, 0.65, 0.8)]
    g1 = np.zeros((4, 4), dtype=complex)
    g1[:2, :2] = random_density(2, rng)
    g2 = np.zeros((4, 4), dtype=complex)
    g2[2:, 2:] = random_density(2, rng)
    for _ in range(20):
        p = rng.uniform(0.5, 1.5, size=3)
        p /= p.sum()
        terms = []
        for weight in p:
            c1, c2 = rng.uniform(0.2, 1.0, size=2)
            rho_a = (c1 * g1 + c2 * g2) / (c1 + c2)
            terms.append(EnsembleTerm(float(weight), rho_a, random_density(2, rng)))
        cases.append(SeparableEnsemble(4, 2, tuple(terms)))
    for e in cases:
        assert check_condition(e).holds
        assert (np.linalg.eigvalsh(rescaled_terms(e))[:, 0] >= -1e-12).all()
        verdict = has_vqd(assemble(e), e.dim_a, e.dim_e)
        assert verdict.status == VQD
        assert verdict.residual <= 1e-10
    assert time.monotonic() - start < 10.0


def rescaled_terms(e):
    """The rescaled components ``ϱ^(i) = rho_a_i / Γ`` entrywise, ``Γ = Σ_i
    p_i rho_a_i``, 0 where ``Γ`` vanishes, as a ``(K, d, d)`` stack: the
    per-term condition asks every one to be PSD."""
    rho_as = np.stack([t.rho_a for t in e.terms])
    gamma = (np.array([t.p for t in e.terms])[:, None, None] * rho_as).sum(axis=0)
    return np.divide(rho_as, gamma, out=np.zeros_like(rho_as), where=np.abs(gamma) > 1e-10)


def rescaled_state(e):
    """Each dim_e x dim_e block of the state over its trace, 0 where the
    trace vanishes: the Choi matrix of ``X ↦ (X ⊗ 1) ∘ R`` on the span of
    ``|k>|k>``, so every induced map is CP when it is PSD."""
    da, de = e.dim_a, e.dim_e
    blocks = e.state.reshape(da, de, da, de).swapaxes(1, 2)
    tr = np.trace(blocks, axis1=2, axis2=3)
    scale = np.divide(1, tr, out=np.zeros_like(tr), where=np.abs(tr) > 1e-10)
    return (blocks * scale[:, :, None, None]).swapaxes(1, 2).reshape(da * de, -1)


def masked_product(rng):
    """One-term product whose 3x3 system factor has ``rho_a[0, 2] = 0`` with
    ``rho_a[0, 1]`` and ``rho_a[1, 2]`` nonzero: its coherence pattern is
    not PSD, so neither is its rescaled state."""
    rho_a = random_density(3, rng)
    rho_a[0, 2] = rho_a[2, 0] = 0
    shift = 0.05 - min(np.linalg.eigvalsh(rho_a)[0], 0.0)
    rho_a = (rho_a + shift * np.eye(3)) / (1 + 3 * shift)
    return SeparableEnsemble(3, 2, (EnsembleTerm(1.0, rho_a, random_density(2, rng)),))


def three_term_mixture(rng):
    dim_a, dim_e = rng.integers(2, 4, size=2)
    p = rng.dirichlet(np.ones(3))
    return SeparableEnsemble(
        int(dim_a),
        int(dim_e),
        tuple(
            EnsembleTerm(float(w), random_density(dim_a, rng), random_density(dim_e, rng))
            for w in p
        ),
    )


# Each kind of seeded source with the number of its 200 that pass.
SOUNDNESS_SOURCES = {
    "coherent": (random_coherent_block_ensemble, 200),
    "aligned-3x2": (lambda rng: random_vqd_ensemble(3, 2, rng), 200),
    "haar-3x2": (lambda rng: random_vqd_ensemble(3, 2, rng, haar_basis=True), 0),
    "discordant": (three_term_mixture, 0),
    "masked-3x2": (masked_product, 0),
}


@pytest.mark.parametrize("kind", SOUNDNESS_SOURCES)
def test_condition_passing_sources_have_psd_rescaled_states_and_cp_maps(kind):
    """Soundness oracle of the condition: every source that passes
    ``check_condition`` has a PSD rescaled state, vanishing discord, and CP
    maps for ten Haar unitaries.  The coherent and aligned sources pass,
    and no rotated, discordant or masked one does."""
    make, passing = SOUNDNESS_SOURCES[kind]
    start = time.monotonic()
    rng = np.random.default_rng([3131, list(SOUNDNESS_SOURCES).index(kind)])
    held = 0
    for _ in range(200):
        e = make(rng)
        if not check_condition(e).holds:
            continue
        held += 1
        assert np.linalg.eigvalsh(rescaled_state(e))[0] >= -1e-9
        assert has_vqd(e.state, e.dim_a, e.dim_e).status == VQD
        d = decompose_blocks(e.state, e.dim_a, e.dim_e)
        for _ in range(10):
            assert is_cp(induce(d, haar_unitary(e.dim_a * e.dim_e, rng))).status == CP
    assert held == passing
    assert time.monotonic() - start < 10.0


@functools.cache
def soundness_sources(kind):
    """The 200 seeded sources of ``kind`` that the soundness oracle draws."""
    make, _ = SOUNDNESS_SOURCES[kind]
    rng = np.random.default_rng([3131, list(SOUNDNESS_SOURCES).index(kind)])
    return tuple(make(rng) for _ in range(200))


@pytest.mark.parametrize("kind", SOUNDNESS_SOURCES)
def test_per_term_condition_implies_the_rescaled_state_test(kind):
    """The paper's per-term condition implies the one test: when every
    rescaled matrix ``ϱ^(i)`` is PSD within ``tol``, so is
    ``R = Σ p_i ϱ^(i) ⊗ rho_e_i``, and ``check_condition`` holds at
    ``tol``.  No rotated, discordant or masked source passes the per-term
    condition, so the coherent and aligned sources exercise the
    implication."""
    implied = 0
    for tol in (0.0, 1e-9, 1e-6, 1e-3):
        for e in soundness_sources(kind):
            if np.linalg.eigvalsh(rescaled_terms(e))[:, 0].min() >= -tol:
                implied += 1
                assert check_condition(e, tol).holds
    assert (implied > 0) == (SOUNDNESS_SOURCES[kind][1] > 0)


def rewritten_product():
    """``[[.5, .2], [.2, .5]] ⊗ tau`` written as two terms whose rescaled
    matrices are not PSD; its rescaled state is ``[[1, 1], [1, 1]] ⊗ tau``."""
    tau = np.diag([0.7, 0.3]).astype(complex)
    gammas = ([[0.6, 0.4], [0.4, 0.4]], [[0.4, 0.0], [0.0, 0.6]])
    return SeparableEnsemble(
        2, 2, tuple(EnsembleTerm(0.5, np.array(g, dtype=complex), tau) for g in gammas)
    )


def masked_fixture():
    """A zero inside the one support of a product: the map at ``U = I`` is
    ``X ↦ X ∘ M`` with ``M`` the 0/1 pattern of ``rho_a``, whose smallest
    eigenvalue is ``1 - √2``; the rescaled state is ``M ⊗ rho_e``."""
    rho_a = np.array([[0.4, 0.2, 0.0], [0.2, 0.3, 0.1], [0.0, 0.1, 0.3]], dtype=complex)
    rho_e = np.diag([0.7, 0.3]).astype(complex)
    return SeparableEnsemble(3, 2, (EnsembleTerm(1.0, rho_a, rho_e),))


# Each source with its verdict and its rescaled state's smallest eigenvalue.
# The per-term condition fails on all three.
CONDITION_PINS = {
    # supports orthogonal in a rotated basis, which the condition passed
    # while it compared supports; its maps are certified NON_POSITIVE
    # (test_discord.py)
    "rotated-supports": (
        lambda: random_vqd_ensemble(2, 2, 7, haar_basis=True), False, -3.138357599780305
    ),
    "masked-product": (masked_fixture, False, 0.7 * (1 - np.sqrt(2))),
    # the condition holds although the per-term condition fails: it reads
    # the state, not how the ensemble writes it
    "rewritten-product": (rewritten_product, True, 0.0),
}


@pytest.mark.parametrize("case", CONDITION_PINS)
def test_condition_holds_exactly_when_the_rescaled_state_is_psd(case):
    make, holds, min_eig = CONDITION_PINS[case]
    e = make()
    report = check_condition(e)
    assert report.holds is holds
    assert np.linalg.eigvalsh(rescaled_terms(e))[:, 0].min() < -0.1
    lam = np.linalg.eigvalsh(rescaled_state(e))[0]
    assert abs(lam - min_eig) < 1e-12
    assert abs(report.min_eig - lam) < 1e-12
    rng = np.random.default_rng(3132)
    n = e.dim_a * e.dim_e
    unitaries = [np.eye(n)] + [haar_unitary(n, rng) for _ in range(10)]
    statuses = {is_cp(induce(e.decomposition, u)).status for u in unitaries}
    assert (statuses == {CP}) == holds
