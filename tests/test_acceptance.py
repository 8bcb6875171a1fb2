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
    NON_SL,
    ROUTE_BLOCK,
    ROUTE_RESCALED,
    VQD,
    EnsembleTerm,
    PreconditionVqdError,
    SearchConfig,
    SeparableEnsemble,
    check_condition,
    choi_matrix,
    classify,
    classify_sl,
    dagger,
    decompose_blocks,
    assemble,
    hadamard,
    haar_unitary,
    has_vqd,
    hunt,
    induce,
    is_cp,
    is_psd,
    kraus_from_choi,
    partial_trace,
    probe_positivity,
    rescaled_matrices,
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
    rs = rescaled_matrices(four_block_ensemble())
    first = np.zeros((4, 4))
    first[:2, :2] = 2.0
    second = np.zeros((4, 4))
    second[2:, 2:] = 2.0
    assert np.abs(rs.matrices[0] - first).max() <= 1e-12
    assert np.abs(rs.matrices[1] - second).max() <= 1e-12
    for m in rs.matrices:
        _, lam = is_psd(m)
        assert lam >= -1e-12
    assert time.monotonic() - start < 1.0


def test_entrywise_products_of_random_psd_pairs_stay_psd():
    """Five hundred random PSD pairs across dimensions 2-8 stay PSD entrywise."""
    start = time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(500):
        dim = int(rng.integers(2, 9))
        a = random_density(dim, rng)
        b = random_density(dim, rng)
        _, lam = is_psd(hadamard(a, b))
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
        rs = rescaled_matrices(e)
        rho_prime = random_density(e.dim_a, rng)
        expected = np.zeros((e.dim_a, e.dim_a), dtype=complex)
        for t, ratio in zip(e.terms, rs.matrices):
            joint = u @ tensor(hadamard(rho_prime, ratio), t.rho_e) @ dagger(u)
            expected += t.p * partial_trace(joint, e.dim_a, e.dim_e, side="E")
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
    assert classify_sl(d) == NON_SL
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
    discord, along either route.

    The ``p_i ϱ^(i)`` sum to the all-ones pattern on each coherence block,
    so PSD rescaled components are multiples of that rank-one pattern and
    the state is ``⊕_b Γ_b ⊗ τ_b`` on computational blocks; pairwise
    orthogonal supports give that form in the supports' own basis, which
    is classical–quantum too.  Seeded sources: random coherent blocks and
    the flat-block fixture (both routes), and three-term mixtures of one
    fixed density per block, whose overlapping supports pass the
    rescaled route only.
    """
    start = time.monotonic()
    rng = np.random.default_rng(1111)
    both = (ROUTE_RESCALED, ROUTE_BLOCK)
    cases = [(random_coherent_block_ensemble(rng), both) for _ in range(50)]
    cases += [(four_block_ensemble(p1), both) for p1 in (0.2, 0.35, 0.5, 0.65, 0.8)]
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
        cases.append((SeparableEnsemble(4, 2, tuple(terms)), (ROUTE_RESCALED,)))
    for e, routes in cases:
        assert check_condition(e).routes == routes
        verdict = has_vqd(assemble(e), e.dim_a, e.dim_e)
        assert verdict.status == VQD
        assert verdict.residual <= 1e-10
    assert time.monotonic() - start < 10.0
