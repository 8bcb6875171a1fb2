"""Batched kernels of the induced-map layer (``induce``, the positivity probe),
the trial stacks ``scan`` runs them on, and the loop-free certification
gates (``check_condition``, ``has_vqd``, ``split_blocks``, ``kraus_from_choi``)."""

import tracemalloc
from functools import partial
from math import isqrt

import numpy as np
import pytest

from inducedmaps import (
    CP,
    GENERATOR,
    NO_VIOLATION_FOUND,
    ROUTE_BLOCK,
    ROUTE_NONE,
    ROUTE_RESCALED,
    VIOLATED,
    CancellationError,
    ConditionReport,
    EnsembleTerm,
    HermiticityError,
    PairClass,
    SeparableEnsemble,
    SearchConfig,
    assemble,
    check_condition,
    choi_matrix,
    classify,
    dagger,
    decompose_blocks,
    generator_unitary,
    InducedMap,
    haar_unitary,
    has_vqd,
    hermitian_eigen,
    induce,
    is_cp,
    kraus_from_choi,
    partial_trace,
    probe_positivity,
    rescaled_matrices,
    scan,
    tensor,
    validate_density_matrix,
)
from inducedmaps import discord, maps, search, states
from inducedmaps.cli import EXIT_USAGE, main
from inducedmaps.jsonio import save_ensemble, save_matrix
from inducedmaps.linalg import check_hermitian, hermitian_part
from inducedmaps.maps import min_eig_2x2
from inducedmaps.search import MAX_TRIALS, TRIAL_GROUP
from inducedmaps.presets import (
    bell_density,
    cnot,
    four_block_ensemble,
    random_coherent_block_ensemble,
    random_density,
    random_vqd_ensemble,
)

BELL_CNOT_MIN_EIG = (1.0 - np.sqrt(5.0)) / 4.0


def reference_induce(d, u):
    """Per-pair construction: embed each block, conjugate, trace out E."""
    da, de = d.dim_a, d.dim_e
    n = da * de
    images = np.zeros((da, da, da, da), dtype=complex)
    shift = np.zeros((da, da), dtype=complex)
    for k in range(da):
        for l in range(da):
            cls = d.pair_class[k, l]
            if cls == PairClass.ZERO_BLOCK:
                continue
            embedded = np.zeros((n, n), dtype=complex)
            embedded[k * de : (k + 1) * de, l * de : (l + 1) * de] = d.blocks[k, l]
            response = partial_trace(u @ embedded @ dagger(u), da, de, side="E")
            if cls == PairClass.UNIT_TRACE:
                images[k, l] = response if d.is_sl else d.coeffs[k, l] * response
            else:
                shift += d.coeffs[k, l] * response
    return images, shift


def decomposed(e):
    return decompose_blocks(assemble(e), e.dim_a, e.dim_e)


def coherent_map(seed=0):
    rng = np.random.default_rng(seed)
    return induce(decomposed(random_coherent_block_ensemble(rng)), haar_unitary(8, rng))


def product_map(seed=0):
    rng = np.random.default_rng(seed)
    rho = np.kron(random_density(2, rng), random_density(3, rng))
    return induce(decompose_blocks(rho, 2, 3), haar_unitary(6, rng))


def bell_cnot_map():
    return induce(decompose_blocks(bell_density(), 2, 2), cnot())


def herm(a):
    return (a + dagger(a)) / 2.0


def reference_apply(m, rho):
    return np.einsum("kl,klab->ab", rho, m.images) + m.shift


def reference_outputs(m, xs):
    """Hermitian parts of the outputs of ``m`` on the pure inputs ``xs``."""
    da = m.dim_a
    inputs = (xs[:, :, None] * xs.conj()[:, None, :]).reshape(len(xs), da * da)
    out = (inputs @ m.images.reshape(da * da, da * da)).reshape(-1, da, da)
    out += m.shift
    return (out + out.conj().transpose(0, 2, 1)) / 2.0


def sampled_reference(m, budget, seed, tol=1e-9, refine_iters=200):
    """One map at a time: sample, refine, certify (the probe's search stages)."""
    da = m.dim_a
    outputs = partial(reference_outputs, m)

    rng = np.random.default_rng(seed)
    best, best_x = np.inf, None
    for start in range(0, budget, 1024):
        size = min(1024, budget - start)
        xs = rng.normal(size=(size, da)) + 1j * rng.normal(size=(size, da))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        outs = outputs(xs)
        lams = min_eig_2x2(outs) if da == 2 else np.linalg.eigvalsh(outs)[:, 0]
        i = int(np.argmin(lams))
        lam = float(np.linalg.eigvalsh(outs[i])[0])
        if lam < best:
            best, best_x = lam, xs[i]
    if refine_iters > 0:
        y = np.linalg.eigh(outputs(best_x[None])[0])[1][:, 0]
    for left in range(refine_iters - 1, -1, -1):
        q = (m.images @ y) @ y.conj() + (y.conj() @ m.shift @ y) * np.eye(da)
        x = np.linalg.eigh(q)[1][:, 0].conj()
        w, v = np.linalg.eigh(outputs(x[None])[0])
        gain = best - float(w[0])
        if not gain > 0.0:
            break
        best, best_x, y = float(w[0]), x, v[:, 0]
        if best - gain * left > -tol:
            break
    return certified(m, best, best_x, tol)


def certified(m, best, best_x, tol):
    """The probe's witness check of the value ``best`` attained at ``best_x``."""
    if best < -tol:
        witness = np.outer(best_x, best_x.conj())
        lam = float(np.linalg.eigvalsh(herm(reference_apply(m, witness)))[0])
        if lam < -tol:
            return VIOLATED, lam, witness
    return NO_VIOLATION_FOUND, best, None


def shifted_spectrum(m):
    """Eigenpairs of C_L = Herm(C) + I ⊗ Herm(shift)."""
    return np.linalg.eigh(herm(choi_matrix(m) + np.kron(np.eye(m.dim_a), m.shift)))


def reference_probe(m, budget, seed, tol=1e-9, refine_iters=200):
    """One map at a time: cheap floor, spectral stage, then the search stages.

    Returns ``(status, min_eig, witness, floor)``.
    """
    da = m.dim_a
    floor = float(choi_floor(m))
    mixed = float(np.linalg.eigvalsh(herm(reference_apply(m, np.eye(da) / da)))[0])
    if floor >= -tol:
        return NO_VIOLATION_FOUND, mixed, None, floor
    w, v = shifted_spectrum(m)
    floor = max(floor, float(w[0]))
    x = np.linalg.svd(v[:, 0].reshape(da, da))[0][:, 0].conj()
    x /= np.linalg.norm(x)
    value = float(np.linalg.eigvalsh(reference_outputs(m, x[None])[0])[0])
    if value - floor <= tol:
        status, min_eig, witness = certified(m, value, x, tol)
    elif floor >= -tol:
        status, min_eig, witness = NO_VIOLATION_FOUND, mixed, None
    else:
        status, min_eig, witness = sampled_reference(m, budget, seed, tol, refine_iters)
    return status, min_eig, witness, min(floor, min_eig)


def probe_refining(m, refine_iters, **kwargs):
    """``probe_positivity`` with ``maps.REFINE_ITERS`` set to ``refine_iters``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maps, "REFINE_ITERS", refine_iters)
        return probe_positivity(m, **kwargs)


def choi_floor(m):
    """λmin(Herm C) + λmin(Herm shift): no output eigenvalue lies below it."""
    c = choi_matrix(m)
    return (
        np.linalg.eigvalsh((c + dagger(c)) / 2)[0]
        + np.linalg.eigvalsh((m.shift + dagger(m.shift)) / 2)[0]
    )


def spectral_floor(m, tol=1e-9):
    """The probe's floor before it is clipped at ``min_eig``: the cheap
    floor, raised to λmin(C_L) when the cheap floor is below ``-tol``."""
    floor = float(choi_floor(m))
    return floor if floor >= -tol else max(floor, float(shifted_spectrum(m)[0][0]))


def bloch_min_eig(m, points=4000, rounds=8, local=400):
    """Smallest output eigenvalue of a qubit map over all inputs, by search.

    Independent of the probe.  The smallest output eigenvalue of an
    affine map is concave in the input, so the minimum lies on a pure
    state: a Fibonacci grid over the Bloch sphere, then random points in
    shrinking caps around the best one.  Every value is attained, so the
    result is never below the minimum (to rounding) and lies within about
    1e-9 above it.
    """

    def lowest(r):
        x, y, z = r.T
        rho = np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]).transpose(2, 0, 1) / 2
        out = np.einsum("nkl,klab->nab", rho, m.images) + m.shift
        return np.linalg.eigvalsh((out + out.conj().transpose(0, 2, 1)) / 2)[:, 0]

    i = np.arange(points) + 0.5
    z = 1 - 2 * i / points
    phi = np.pi * (1 + 5**0.5) * i
    r = np.stack([np.sqrt(1 - z * z) * np.cos(phi), np.sqrt(1 - z * z) * np.sin(phi), z], axis=1)
    lam = lowest(r)
    best, value = r[lam.argmin()], float(lam.min())
    radius = 2 * np.sqrt(4 * np.pi / points)
    rng = np.random.default_rng(0)
    for _ in range(rounds):
        cand = best + radius * rng.normal(size=(local, 3))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        lam = lowest(cand)
        if lam.min() < value:
            best, value = cand[lam.argmin()], float(lam.min())
        radius /= 3
    return value


def no_sampling(*args, **kwargs):
    raise AssertionError("the probe sampled")


@pytest.mark.parametrize(
    "source",
    [
        lambda rng: decompose_blocks(bell_density(), 2, 2),
        lambda rng: decomposed(random_coherent_block_ensemble(rng)),
        lambda rng: decomposed(random_vqd_ensemble(8, 4, rng)),
        lambda rng: decomposed(four_block_ensemble()),
    ],
    ids=["bell", "coherent-4x2", "vqd-8x4", "four-block"],
)
def test_induce_matches_per_pair_reference(source):
    rng = np.random.default_rng(11)
    d = source(rng)
    for _ in range(3):
        u = haar_unitary(d.dim_a * d.dim_e, rng)
        images, shift = reference_induce(d, u)
        m = induce(d, u)
        assert np.abs(m.images - images).max() < 1e-12
        assert np.abs(m.shift - shift).max() < 1e-12


def dense_induce_stack(d, us):
    """All dim_a² pairs in one broadcast contraction, then a mask (the
    stacked induce before it skipped zero pairs)."""
    da, de = d.dim_a, d.dim_e
    t, n = len(us), da * de
    u_cols = us.reshape(t, n, da, de).transpose(0, 2, 1, 3)
    u_conj = us.conj().reshape(t, da, de, da, de).transpose(0, 3, 2, 4, 1)
    u_conj = u_conj.reshape(t, 1, da, de * de, da)
    resp = (u_cols[:, :, None] @ d.blocks).reshape(t, da, da, da, de * de) @ u_conj
    unit = (d.pair_class == PairClass.UNIT_TRACE)[:, :, None, None]
    if d.is_sl:
        return np.where(unit, resp, 0), np.zeros((t, da, da), dtype=complex)
    weighted = d.coeffs[:, :, None, None] * resp
    shift = weighted[:, d.pair_class == PairClass.TRACELESS_NONZERO].sum(axis=1)
    return np.where(unit, weighted, 0), shift


def two_qubit_blocks_non_sl(rng):
    """|±><±| on A levels 0 and 1 and |±i><±i| on levels 2 and 3, each
    with its own environment: four traceless pairs, zero pairs between the
    two qubits, and a unit diagonal."""
    terms = []
    for p, low, phase in ((0.2, 0, 1.0), (0.2, 0, -1.0), (0.3, 2, 1j), (0.3, 2, -1j)):
        rho_a = np.zeros((4, 4), dtype=complex)
        rho_a[low : low + 2, low : low + 2] = [[0.5, 0.5 * phase], [0.5 * np.conj(phase), 0.5]]
        terms.append(EnsembleTerm(p, rho_a, random_density(2, rng)))
    return SeparableEnsemble(4, 2, tuple(terms)).decomposition


INDUCE_SOURCES = {
    "non-sl-zero-traceless-unit": two_qubit_blocks_non_sl,
    "aligned-3x2": lambda rng: random_vqd_ensemble(3, 2, rng).decomposition,
    "aligned-8x4": lambda rng: random_vqd_ensemble(8, 4, rng).decomposition,
    "coherent-4x2": lambda rng: random_coherent_block_ensemble(rng).decomposition,
    "bell": lambda rng: decompose_blocks(bell_density(), 2, 2),
    "discordant-3x2": lambda rng: mixture(3, 2, 3, rng).decomposition,
}


@pytest.mark.parametrize("kind", INDUCE_SOURCES)
def test_induce_stack_matches_the_dense_reference_bit_for_bit(kind):
    rng = np.random.default_rng(13)
    d = INDUCE_SOURCES[kind](rng)
    classes = set(d.pair_class.ravel().tolist())
    if kind == "non-sl-zero-traceless-unit":
        assert classes == set(PairClass)
    if kind in ("bell", "discordant-3x2"):
        assert PairClass.ZERO_BLOCK not in classes
    for trials in (1, 5):
        us = np.stack([haar_unitary(d.dim_a * d.dim_e, rng) for _ in range(trials)])
        got, want = maps.induce_stack(d, us), dense_induce_stack(d, us)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_nonzero_pair_index_is_read_only_and_row_major():
    d = two_qubit_blocks_non_sl(np.random.default_rng(14))
    pairs = d.nonzero_pairs
    assert d.nonzero_pairs is pairs
    assert list(zip(pairs.k.tolist(), pairs.l.tolist())) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)
    ]
    assert pairs.unit.tolist() == [True, False, False, True] * 2
    assert pairs.blocks.tobytes() == d.blocks[pairs.k, pairs.l].tobytes()
    assert pairs.coeffs.tobytes() == d.coeffs[pairs.k, pairs.l].tobytes()
    for a in pairs:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


@pytest.mark.parametrize("kind", ["bell", "discordant-3x2"])
def test_induce_without_zero_pairs_is_no_slower_than_the_dense_reference(kind):
    # A source with no zero pair takes the dense reference's own broadcast
    # contraction; gathering its pairs would cost a copy of every column
    # block per pair.  With the gathered blocks poisoned, only a source that
    # never reads them still matches the reference.
    rng = np.random.default_rng(15)
    d = INDUCE_SOURCES[kind](rng)
    us = np.stack([haar_unitary(d.dim_a * d.dim_e, rng) for _ in range(4)])
    want = dense_induce_stack(d, us)
    pairs = d.nonzero_pairs
    assert len(pairs.k) == d.dim_a**2
    d.__dict__["nonzero_pairs"] = pairs._replace(blocks=np.full_like(pairs.blocks, np.nan))
    got = maps.induce_stack(d, us)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def unmemoised_spectra(herm, vectors=False):
    """Component spectra with the components searched on every call (the
    split before its layouts were memoised)."""
    t, side = herm.shape[:2]
    whole = np.linalg.eigh if vectors else np.linalg.eigvalsh
    if side < maps.SPLIT_MIN_SIDE:
        return whole(herm)
    da = isqrt(side)
    linked = herm.reshape(t, da, da, da, da).any(axis=(0, 2, 4))
    reach = linked | linked.T | np.eye(da, dtype=bool)
    while not np.array_equal(grown := reach @ reach, reach):
        reach = grown
    label = reach.argmax(axis=1)
    if not label.any():
        return whole(herm)
    size = np.bincount(label)[label]
    order = np.lexsort((label, size))
    cuts = np.flatnonzero(np.diff(size[order])) + 1
    w = np.empty((t, side))
    v = np.zeros((t, side, side), dtype=complex) if vectors else None
    for members in np.split(order, cuts):
        c = size[members[0]]
        rows = (members.reshape(-1, c, 1) * da + np.arange(da)).reshape(-1, c * da)
        sub = herm[:, rows[:, :, None], rows[:, None, :]]
        if vectors:
            w[:, rows], v[:, rows[:, :, None], rows[:, None, :]] = np.linalg.eigh(sub)
        else:
            w[:, rows] = np.linalg.eigvalsh(sub)
    return (w, v) if vectors else w


def unmemoised_choi_spectra(images, tol, vectors=False):
    """The Choi pass with the components read from the Hermitian part and
    searched on every call."""
    herm = check_hermitian(maps._choi_matrices(images), tol, "Choi matrix")
    return unmemoised_spectra(herm, vectors)


def labelled_images(rng, labels, t=2):
    """``(t, d, d, d, d)`` images of Hermitian Choi matrices whose block
    ``(k, l)`` is nonzero exactly when ``labels[k] == labels[l]``."""
    da = len(labels)
    side = da * da
    g = rng.normal(size=(t, side, side)) + 1j * rng.normal(size=(t, side, side))
    linked = np.equal.outer(labels, labels)
    g.reshape(t, da, da, da, da)[...] *= linked[None, :, None, :, None]
    choi = g + g.conj().swapaxes(1, 2)
    return choi.reshape(t, da, da, da, da).swapaxes(2, 3)


def test_memoised_choi_layouts_match_the_unmemoised_split():
    rng = np.random.default_rng(16)
    for da in (6, 7, 8):
        for _ in range(4):
            images = labelled_images(rng, rng.integers(0, 3, size=da))
            for _ in range(2):  # the second call reads the memo
                for stack in (images, np.ascontiguousarray(images)):
                    want = unmemoised_choi_spectra(stack, 1e-9, vectors=True)
                    got = maps._choi_spectra(stack, 1e-9, vectors=True)
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                    got = maps._choi_spectra(stack, 1e-9)
                    assert got.tobytes() == unmemoised_choi_spectra(stack, 1e-9).tobytes()


def test_one_sided_image_blocks_link_their_components():
    # Blocks (0, 1) and (4, 2) are set one way only, within the Hermiticity
    # tolerance: the Hermitian part is nonzero both ways, so the images'
    # pattern must link the same states as the Hermitian part's.
    rng = np.random.default_rng(19)
    images = labelled_images(rng, np.array([0, 1, 2, 0, 1, 2]))
    images[0, 0, 1] = 4e-10 * rng.uniform(0.5, 1.0, size=(6, 6))
    images[1, 4, 2] = 4e-10j * rng.uniform(0.5, 1.0, size=(6, 6))
    assert not images[:, 1, 0].any() and not images[:, 2, 4].any()
    want = unmemoised_choi_spectra(images, 1e-9, vectors=True)
    got = maps._choi_spectra(images, 1e-9, vectors=True)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    # one component: everything is diagonalised whole
    assert maps._component_layout(6, np.any(images, axis=(0, 3, 4)).tobytes()) is None
    images[1, 4, 2] = 0
    want = unmemoised_choi_spectra(images, 1e-9)
    assert maps._choi_spectra(images, 1e-9).tobytes() == want.tobytes()
    groups = maps._component_layout(6, np.any(images, axis=(0, 3, 4)).tobytes())
    assert [rows.tolist() for rows in groups] == [
        [list(range(12, 18)) + list(range(30, 36))],
        [list(range(0, 12)) + list(range(18, 30))],
    ]


def test_memoised_kraus_forms_match_the_unmemoised_split(monkeypatch):
    rng = np.random.default_rng(17)
    chois = [
        choi_matrix(induce(decomposed(random_vqd_ensemble(da, 2, rng)), haar_unitary(2 * da, rng)))
        for da in (6, 7, 8)
    ]
    got = [kraus_from_choi(c) for c in chois + chois]
    monkeypatch.setattr(maps, "_choi_spectra", unmemoised_choi_spectra)
    want = [kraus_from_choi(c) for c in chois + chois]
    for g, w in zip(got, want):
        assert [k.tobytes() for k in g] == [k.tobytes() for k in w]


def test_choi_layout_memo_is_bounded_and_read_only():
    rng = np.random.default_rng(18)
    layout = maps._component_layout
    assert layout.cache_info().maxsize == maps.LAYOUT_MEMO
    patterns = set()
    while len(patterns) < maps.LAYOUT_MEMO + 16:
        labels = rng.integers(0, 4, size=6)
        maps._choi_spectra(labelled_images(rng, labels, t=1), 1e-9)
        patterns.add(np.equal.outer(labels, labels).tobytes())
        assert layout.cache_info().currsize <= maps.LAYOUT_MEMO
    groups = layout(6, np.equal.outer(np.arange(6) % 2, np.arange(6) % 2).tobytes())
    assert [rows.shape for rows in groups] == [(2, 18)]
    for rows in groups:
        with pytest.raises(ValueError, match="read-only"):
            rows[...] = 0


def test_probe_reaches_exact_bell_cnot_minimum():
    m = bell_cnot_map()
    probe = probe_positivity(m, budget=500, seed=0)
    assert probe.status == VIOLATED
    assert abs(probe.min_eig - BELL_CNOT_MIN_EIG) < 1e-8


def discordant_qubit_map():
    """A discordant SL qubit map that loses positivity; the bottom
    eigenvector of its Choi matrix is entangled, so its bracket stays open."""
    return induce(discordant(2, 2, 0), haar_unitary(4, np.random.default_rng(0)))


def test_bell_cnot_probe_closes_at_the_exact_minimum_without_sampling(monkeypatch):
    monkeypatch.setattr(maps, "_sample", no_sampling)
    probe = probe_positivity(bell_cnot_map())
    assert probe.status == VIOLATED
    assert abs(probe.min_eig - BELL_CNOT_MIN_EIG) < 1e-12
    assert abs(probe.floor - BELL_CNOT_MIN_EIG) < 1e-12
    assert probe.floor <= probe.min_eig


def test_shallow_violation_closes_as_an_exact_negative_minimum(monkeypatch):
    # Bell coherence c through CNOT: the minimum output eigenvalue is
    # (1 - sqrt(1 + 4c²)) / 4 = -c² / (1 + sqrt(1 + 4c²)), about -5e-11 here,
    # shallower than tol: no witness, but the bracket shows it exactly
    monkeypatch.setattr(maps, "_sample", no_sampling)
    c = 1e-5
    exact = -(c**2) / (1 + np.sqrt(1 + 4 * c**2))
    probe = probe_positivity(induce(weak_bell(c), cnot()))
    assert probe.status == NO_VIOLATION_FOUND and probe.witness is None
    assert probe.floor == pytest.approx(exact, rel=1e-9)
    assert probe.min_eig == pytest.approx(exact, rel=1e-9)
    assert 0.0 <= probe.min_eig - probe.floor <= 1e-20


@pytest.mark.parametrize("coherence", [1.0, 0.3], ids=["bell", "weak-bell"])
def test_probe_brackets_the_bloch_sphere_minimum(coherence):
    d = weak_bell(coherence)
    rng = np.random.default_rng(31)
    closed = 0
    for _ in range(16):
        m = induce(d, haar_unitary(4, rng))
        probe = probe_positivity(m, budget=50, seed=2)
        exact = bloch_min_eig(m)
        # floor <= true minimum <= exact, and exact - 1e-8 <= true minimum <= min_eig
        assert probe.floor <= exact + 1e-12
        assert probe.min_eig >= exact - 1e-8
        assert probe.floor <= probe.min_eig
        # the spectral stage ran and closed the bracket
        closed += choi_floor(m) < -1e-9 and probe.min_eig - probe.floor <= 1e-9
    assert closed >= 12


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 2)], ids=["2x2", "3x2", "4x2"])
def test_discordant_stacks_sample_and_refine_as_before(dims):
    # SL discordant maps whose bottom Choi eigenvector is entangled keep
    # today's search, bit for bit, with the spectral stage only raising
    # the floor
    d = discordant(*dims, 5)
    rng = np.random.default_rng(37)
    group = [induce(d, haar_unitary(d.dim_a * d.dim_e, rng)) for _ in range(8)]
    images, shift = np.stack([m.images for m in group]), np.stack([m.shift for m in group])
    seeds = list(range(len(group)))
    searched = 0
    _, probes = maps.probe_stack(images, shift, 1e-9, seeds, 200, 1e-9)
    for m, seed, probe in zip(group, seeds, probes):
        if probe.floor < -1e-9 and probe.min_eig - probe.floor > 1e-9:
            searched += 1
            status, min_eig, witness = sampled_reference(m, 200, seed)
            assert (probe.status, probe.min_eig) == (status, min_eig)
            assert (witness is None) == (probe.witness is None)
            if witness is not None:
                assert probe.witness.tobytes() == witness.tobytes()
            assert probe.floor == max(choi_floor(m), shifted_spectrum(m)[0][0])
    assert searched >= 2


def test_probe_without_refine_returns_sampled_minimum():
    m = discordant_qubit_map()
    sampled = probe_refining(m, 0, budget=50, seed=4)
    refined = probe_positivity(m, budget=50, seed=4)
    exact = bloch_min_eig(m)
    assert sampled.status == refined.status == VIOLATED
    assert refined.min_eig - refined.floor > 1e-3  # the spectral stage did not close it
    # sampling alone stops short of the exact minimum; refining closes the gap
    assert sampled.min_eig - exact > 1e-3
    assert abs(refined.min_eig - exact) < 1e-8
    out = m.apply(sampled.witness)
    assert abs(np.linalg.eigvalsh((out + dagger(out)) / 2)[0] - sampled.min_eig) < 1e-12


def test_probe_runs_on_a_single_sample():
    m = bell_cnot_map()
    for seed in range(5):
        probe = probe_refining(m, 0, budget=1, seed=seed)
        assert probe.min_eig >= BELL_CNOT_MIN_EIG - 1e-12
        refined = probe_positivity(m, budget=1, seed=seed)
        assert refined.min_eig <= probe.min_eig + 1e-12
        if refined.status == VIOLATED:
            validate_density_matrix(refined.witness, name="witness")


def test_probe_refine_never_certifies_cp_maps():
    m = coherent_map(3)
    for refine_iters in (0, 200):
        probe = probe_refining(m, refine_iters, budget=1, seed=2)
        assert probe.status == NO_VIOLATION_FOUND
        assert probe.min_eig > -1e-12


@pytest.mark.parametrize(
    "make_map",
    [partial(coherent_map, seed) for seed in range(5)] + [product_map],
    ids=[f"coherent-{seed}" for seed in range(5)] + ["product"],
)
def test_probe_skips_refine_once_choi_floor_clears_tol(make_map):
    m = make_map()
    assert choi_floor(m) >= -1e-9
    probe = probe_positivity(m)
    sampled = probe_refining(m, 0)
    assert probe.status == sampled.status == NO_VIOLATION_FOUND
    # not a refined value driven towards the true minimum
    assert probe.min_eig == sampled.min_eig
    assert probe.witness is None and sampled.witness is None


@pytest.mark.parametrize(
    "make_map",
    [partial(coherent_map, seed) for seed in range(3)] + [product_map],
    ids=[f"coherent-{seed}" for seed in range(3)] + ["product"],
)
def test_floor_certified_probe_reports_the_maximally_mixed_output(make_map):
    m = make_map()
    out = m.apply(np.eye(m.dim_a) / m.dim_a)
    mixed = np.linalg.eigvalsh((out + dagger(out)) / 2)[0]
    for seed, budget in [(0, 500), (1, 1), (7, 50), (123, 3000)]:
        probe = probe_positivity(m, budget=budget, seed=seed)
        assert probe.status == NO_VIOLATION_FOUND
        # no sample is drawn, so neither the seed nor the budget matters
        assert probe.min_eig == mixed
        assert -1e-9 <= probe.floor <= probe.min_eig


def random_hermitian_2x2(rng, size):
    h = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    return (h + h.conj().transpose(0, 2, 1)) / 2


def off_diagonal_2x2(rng, size):
    h = np.zeros((size, 2, 2), dtype=complex)
    h[:, 0, 1] = rng.normal(size=size) + 1j * rng.normal(size=size)
    h[:, 1, 0] = h[:, 0, 1].conj()
    return h


@pytest.mark.parametrize(
    "stack",
    [
        lambda rng: random_hermitian_2x2(rng, 1000),
        lambda rng: 1e6 * random_hermitian_2x2(rng, 100),
        lambda rng: rng.normal(size=(100, 2, 1)) * np.eye(2),
        lambda rng: rng.normal(size=(100, 1, 1)) * np.eye(2),
        lambda rng: off_diagonal_2x2(rng, 100),
        lambda rng: np.zeros((10, 2, 2)),
    ],
    ids=["random", "large", "diagonal", "scalar", "off-diagonal", "zero"],
)
def test_qubit_closed_form_matches_eigvalsh(stack):
    h = np.asarray(stack(np.random.default_rng(17)), dtype=complex)
    got = min_eig_2x2(h)
    want = np.linalg.eigvalsh(h)[:, 0]
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(h).max(axis=(1, 2)))


def test_probe_refines_shift_free_maps_whose_choi_floor_is_negative():
    # rho -> Tr(rho) I - 2 rho: zero shift, Choi floor 1 - 2 * 2 = -3, and
    # every pure input has output eigenvalues {-1, 1}
    eye = np.eye(2)
    images = np.einsum("kl,ab->klab", eye, eye) - 2 * np.einsum("ka,lb->klab", eye, eye)
    m = InducedMap(2, images, np.zeros((2, 2)))
    assert abs(choi_floor(m) + 3.0) < 1e-12
    probe = probe_positivity(m, budget=1, seed=0)
    assert probe.status == VIOLATED
    assert abs(probe.min_eig + 1.0) < 1e-12


def test_probe_never_reports_below_choi_floor():
    rng = np.random.default_rng(21)
    bell = decompose_blocks(bell_density(), 2, 2)
    maps = [induce(bell, haar_unitary(4, rng)) for _ in range(20)]
    maps += [coherent_map(seed) for seed in range(5, 10)]
    statuses = set()
    for m in maps:
        for refine_iters in (0, 200):
            probe = probe_refining(m, refine_iters, budget=100, seed=1)
            assert probe.min_eig >= choi_floor(m) - 1e-12
            assert probe.floor == pytest.approx(spectral_floor(m), abs=1e-15)
            assert probe.floor <= probe.min_eig
            statuses.add(probe.status)
    assert statuses == {VIOLATED, NO_VIOLATION_FOUND}


SOURCES = {
    "bell-2x2": lambda: decompose_blocks(bell_density(), 2, 2),
    "coherent-4x2": lambda: decomposed(
        random_coherent_block_ensemble(np.random.default_rng(7))
    ),
}


@pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES.keys())
def test_classify_diagonalises_the_choi_matrix_once(source, monkeypatch):
    d = source()
    rng = np.random.default_rng(8)
    unitaries = [haar_unitary(d.dim_a * d.dim_e, rng) for _ in range(4)]
    open_floors = np.cumsum([choi_floor(induce(d, u)) < -1e-9 for u in unitaries])
    shapes = {"eigh": [], "eigvalsh": []}
    for name, calls in shapes.items():

        def counted(a, *args, _real=getattr(np.linalg, name), _calls=calls, **kwargs):
            _calls.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    # classify runs the stacked kernels on a one-element stack; a single
    # Choi matrix or a stack of one counts alike
    choi_shape = (d.dim_a**2, d.dim_a**2)
    count = lambda calls: sum(s in (choi_shape, (1, *choi_shape)) for s in calls)
    for calls, (u, spectral) in enumerate(zip(unitaries, open_floors), start=1):
        classify(d, u, SearchConfig(positivity_budget=50))
        assert count(shapes["eigvalsh"]) == calls
        # plus one eigh of C_L for each map whose cheap floor is open
        assert count(shapes["eigh"]) == spectral


@pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES.keys())
def test_probe_floor_adds_the_reported_choi_eigenvalue(source):
    d = source()
    for r in scan(d, SearchConfig(trials=12, positivity_budget=50, seed=4)):
        m = induce(d, r.unitary)
        shift_min = np.linalg.eigvalsh((m.shift + dagger(m.shift)) / 2)[0]
        floor = r.choi_min_eig + shift_min
        if floor < -1e-9:
            floor = max(floor, shifted_spectrum(m)[0][0])
        # clipped at min_eig, which a closed bracket's floor can exceed by rounding
        assert r.positivity.floor == min(floor, r.positivity.min_eig)


def coherent_ensemble():
    return random_coherent_block_ensemble(np.random.default_rng(0))


# Each library entry point that takes a tolerance, called with that tolerance.
TOLERANCE_CALLS = {
    "probe_positivity": lambda tol: probe_positivity(bell_cnot_map(), tol=tol),
    "is_cp": lambda tol: is_cp(coherent_map(0), tol=tol),
    "kraus_from_choi": lambda tol: kraus_from_choi(choi_matrix(coherent_map(0)), tol=tol),
    "has_vqd": lambda tol: has_vqd(coherent_ensemble().state, 4, 2, tol=tol),
    "check_condition": lambda tol: check_condition(coherent_ensemble(), tol=tol),
    "filter_candidates": lambda tol: search.filter_candidates((), tol),
}


@pytest.mark.parametrize(
    "call, tol",
    [
        pytest.param(call, tol, id=str(tol) if call == "probe_positivity" else f"{call}-{tol}")
        for call in TOLERANCE_CALLS
        for tol in (-1e-9, float("nan"), float("inf"))
    ],
)
def test_probe_rejects_invalid_tolerance(call, tol):
    # Unchecked, a negative tolerance turned a VQD state NONZERO and a NaN
    # one made is_cp report CP and kraus_from_choi return no operators.
    with pytest.raises(ValueError, match="must be a finite number"):
        TOLERANCE_CALLS[call](tol)


def test_probe_memory_does_not_grow_with_budget(monkeypatch):
    # a discordant 4x2 map: its bracket stays open, so it samples the budget
    m = induce(discordant(4, 2, 1), haar_unitary(8, np.random.default_rng(1)))
    sampled = []

    def spied_sample(images, shift, seeds, budget, _real=maps._sample):
        sampled.append(budget)
        return _real(images, shift, seeds, budget)

    monkeypatch.setattr(maps, "_sample", spied_sample)
    tracemalloc.start()
    try:
        probe_positivity(m, budget=200_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sampled == [200_000]
    # 200k fully batched 4x4 outputs alone would take about 50 MiB
    assert peak < 4 * 2**20


def test_search_config_rejects_empty_probe_budget():
    with pytest.raises(ValueError, match="positivity_budget"):
        SearchConfig(positivity_budget=0)


def test_probe_budget_has_a_ceiling():
    m = bell_cnot_map()
    assert SearchConfig(positivity_budget=maps.MAX_BUDGET).positivity_budget == maps.MAX_BUDGET
    with pytest.raises(ValueError, match=f"positivity_budget must be at most {maps.MAX_BUDGET}"):
        SearchConfig(positivity_budget=maps.MAX_BUDGET + 1)
    with pytest.raises(ValueError, match=f"budget must be at most {maps.MAX_BUDGET}"):
        probe_positivity(m, budget=maps.MAX_BUDGET + 1)
    with pytest.raises(ValueError, match=f"budget must be at most {maps.MAX_BUDGET}"):
        maps.probe_stack(m.images[None], m.shift[None], 1e-9, [0], maps.MAX_BUDGET + 1, 1e-9)


def test_induce_cli_rejects_a_budget_above_the_ceiling_before_reading_files(tmp_path, capsys):
    # the files do not exist: the budget is refused before any is opened
    paths = [str(tmp_path / name) for name in ("rho.json", "u.json", "in.json")]
    argv = ["induce", *paths, "--dim-a", "2", "--budget", str(maps.MAX_BUDGET + 1)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"budget must be at most {maps.MAX_BUDGET}" in captured.err
    assert "No such file" not in captured.err


def test_hunt_cli_rejects_a_budget_above_the_ceiling(tmp_path, capsys):
    path = tmp_path / "e.json"
    save_ensemble(path, four_block_ensemble())
    assert main(["hunt", str(path), "--budget", str(maps.MAX_BUDGET + 1)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --budget: budget must be at most {maps.MAX_BUDGET}" in captured.err


def test_induce_cli_rejects_empty_budget_as_usage_error(tmp_path, capsys):
    paths = [tmp_path / "bell.json", tmp_path / "u.json", tmp_path / "in.json"]
    for path, matrix in zip(paths, [bell_density(), cnot(), np.diag([1.0, 0.0])]):
        save_matrix(path, np.asarray(matrix, dtype=complex))
    argv = ["induce", *map(str, paths), "--dim-a", "2", "--budget", "0"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget must be >= 1" in captured.err


def discordant(dim_a, dim_e, seed):
    """Decomposition of a mixture of random products; it carries discord."""
    rng = np.random.default_rng(seed)
    terms = [
        EnsembleTerm(p, random_density(dim_a, rng), random_density(dim_e, rng))
        for p in (0.3, 0.3, 0.4)
    ]
    return SeparableEnsemble(dim_a, dim_e, tuple(terms)).decomposition


def discordant_8x4():
    return discordant(8, 4, 5)


STACK_SOURCES = {
    "bell-2x2": lambda: decompose_blocks(bell_density(), 2, 2),
    "coherent-4x2": SOURCES["coherent-4x2"],
    "four-block": lambda: decomposed(four_block_ensemble()),
    "vqd-8x4": lambda: decomposed(random_vqd_ensemble(8, 4, np.random.default_rng(3))),
    # qubit probes refine to the same point from any sample; these do not,
    # so they show each trial drawing from its own stream
    "mixture-8x4": discordant_8x4,
    "generator-bell": lambda: decompose_blocks(bell_density(), 2, 2),
}


def trial_seeds(cfg):
    """Unitary and probe seed of every trial, as scan spawns them."""
    return [child.spawn(2) for child in np.random.SeedSequence(cfg.seed).spawn(cfg.trials)]


@pytest.mark.parametrize("budget", [50, 2500])
@pytest.mark.parametrize("source", STACK_SOURCES, ids=STACK_SOURCES.keys())
def test_scan_stack_equals_one_trial_classify(source, budget):
    d = STACK_SOURCES[source]()
    n = d.dim_a * d.dim_e
    family = {}
    if source.startswith("generator"):
        params = np.random.default_rng(2).normal(size=n * n)
        family = {"family": GENERATOR, "params": params}
    # six trials span a full stack and a partial one
    cfg = SearchConfig(trials=TRIAL_GROUP + 2, positivity_budget=budget, seed=9, **family)
    reports = scan(d, cfg)
    assert [r.trial for r in reports] == list(range(cfg.trials))
    for r, (u_seed, probe_seed) in zip(reports, trial_seeds(cfg)):
        if family:
            u = generator_unitary(params, n)
        else:
            u = haar_unitary(n, u_seed)
        alone = classify(d, u, cfg, probe_seed=probe_seed)
        assert r.unitary.tobytes() == alone.unitary.tobytes()
        assert (r.choi_min_eig, r.shift_norm) == (alone.choi_min_eig, alone.shift_norm)
        assert r.classification == alone.classification
        p, q = r.positivity, alone.positivity
        assert (p.status, p.min_eig, p.floor) == (q.status, q.min_eig, q.floor)
        if p.witness is None:
            assert q.witness is None
        else:
            assert p.witness.tobytes() == q.witness.tobytes()


@pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES.keys())
def test_scan_runs_one_qr_and_one_choi_diagonalisation_per_stack(source, monkeypatch):
    d = source()
    n, choi_dim = d.dim_a * d.dim_e, d.dim_a**2
    calls = {"qr": [], "eigvalsh": [], "eigh": []}
    for name, shapes in calls.items():

        def counted(a, *args, _real=getattr(np.linalg, name), _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    trials = 2 * TRIAL_GROUP + 1
    reports = scan(d, SearchConfig(trials=trials, positivity_budget=50))
    choi = {
        name: [s for s in shapes if s[-2:] == (choi_dim, choi_dim)] for name, shapes in calls.items()
    }
    sizes = [TRIAL_GROUP, TRIAL_GROUP, 1]
    assert calls["qr"] == [(size, n, n) for size in sizes]
    assert choi["eigvalsh"] == [(size, choi_dim, choi_dim) for size in sizes]
    # one eigh of C_L per stack, over the maps whose cheap floor is open
    spectral = [choi_floor(induce(d, r.unitary)) < -1e-9 for r in reports]
    stacks = [sum(spectral[i : i + TRIAL_GROUP]) for i in range(0, trials, TRIAL_GROUP)]
    assert choi["eigh"] == [(k, choi_dim, choi_dim) for k in stacks if k]


@pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES.keys())
def test_classify_and_scan_build_one_choi_matrix_per_stack(source, monkeypatch):
    d = source()
    built, shifted = [], []

    def counted_choi(images, _real=maps._choi_matrices):
        built.append(len(images))
        return _real(images)

    def counted_shifted(images, shift, _real=maps._shifted):
        shifted.append(len(images))
        return _real(images, shift)

    monkeypatch.setattr(maps, "_choi_matrices", counted_choi)
    monkeypatch.setattr(maps, "_shifted", counted_shifted)
    cfg = SearchConfig(trials=2 * TRIAL_GROUP + 1, positivity_budget=50)
    # the Choi check of cp_verdicts and the probe's floor share one build;
    # the spectral stage builds C + I ⊗ shift for the maps it runs on
    classify(d, haar_unitary(d.dim_a * d.dim_e, np.random.default_rng(8)), cfg)
    assert sorted(built) == sorted([1] + shifted)
    built.clear()
    shifted.clear()
    scan(d, cfg)
    assert sorted(built) == sorted([TRIAL_GROUP, TRIAL_GROUP, 1] + shifted)


def test_generator_scan_induces_and_diagonalises_per_stack(monkeypatch):
    d = decompose_blocks(bell_density(), 2, 2)
    cfg = SearchConfig(
        family=GENERATOR,
        params=np.random.default_rng(2).normal(size=16),
        trials=2 * TRIAL_GROUP + 1,
        positivity_budget=50,
    )
    induced, choi, spectral = [], [], []
    real_induce_stack = search.induce_stack

    def counted_induce_stack(d, us):
        induced.append(len(us))
        return real_induce_stack(d, us)

    def counted_eigvalsh(a, _real=np.linalg.eigvalsh):
        if np.shape(a)[-2:] == (4, 4):
            choi.append(np.shape(a))
        return _real(a)

    def counted_eigh(a, _real=np.linalg.eigh):
        if np.shape(a)[-2:] == (4, 4):
            spectral.append(np.shape(a))
        return _real(a)

    monkeypatch.setattr(search, "induce_stack", counted_induce_stack)
    monkeypatch.setattr(maps, "induce_stack", counted_induce_stack)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    reports = scan(d, cfg)
    # like a HAAR scan: one induce and one Choi pass per stack, and one eigh
    # of C_L per stack (the map's cheap floor is open); eigh also serves
    # exp(iH) of the 4x4 generator, once
    sizes = [TRIAL_GROUP, TRIAL_GROUP, 1]
    assert induced == sizes
    assert choi == [(size, 4, 4) for size in sizes]
    assert spectral == [(4, 4)] + [(size, 4, 4) for size in sizes]
    assert len({(r.unitary.tobytes(), r.choi_min_eig, r.positivity.floor) for r in reports}) == 1


@pytest.mark.parametrize("source", ["bell-2x2", "coherent-4x2", "mixture-8x4", "generator-bell"])
def test_scan_builds_a_probe_stream_only_for_a_map_that_samples(source, monkeypatch):
    d = STACK_SOURCES[source]()
    n = d.dim_a * d.dim_e
    family = {}
    if source.startswith("generator"):
        family = {"family": GENERATOR, "params": np.random.default_rng(2).normal(size=n * n)}
    keys, rngs, sampled = [], [], []

    def counted_seed_sequence(*args, _real=np.random.SeedSequence, **kwargs):
        keys.append(kwargs.get("spawn_key"))
        return _real(*args, **kwargs)

    def counted_rng(seed, _real=np.random.default_rng):
        rngs.append(seed)
        return _real(seed)

    def spied_sample(images, shift, seeds, budget, _real=maps._sample):
        sampled.append(len(seeds))
        return _real(images, shift, seeds, budget)

    monkeypatch.setattr(np.random, "SeedSequence", counted_seed_sequence)
    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    monkeypatch.setattr(maps, "_sample", spied_sample)
    trials = 2 * TRIAL_GROUP + 1
    reports = scan(d, SearchConfig(trials=trials, positivity_budget=50, seed=3, **family))
    draws = 0 if family else trials
    # one seed and one generator per Haar draw and per map that samples
    assert len(keys) == len(rngs) == draws + sum(sampled)
    assert sorted(k for k in keys if k[1] == 0) == [(i, 0) for i in range(draws)]
    # Bell maps close in the spectral stage and coherent-block maps on
    # their floor; the discordant mixture's brackets stay open
    probes = [r.positivity for r in reports]
    opened = [i for i, p in enumerate(probes) if p.floor < -1e-9 and p.min_eig - p.floor > 1e-9]
    assert sum(sampled) == (trials if source == "mixture-8x4" else 0) == len(opened)
    assert sorted(k for k in keys if k[1] == 1) == [(i, 1) for i in opened]


def test_probe_stack_takes_one_seed_per_map():
    m = bell_cnot_map()
    for seeds in ([0, 1], []):
        with pytest.raises(ValueError, match="one seed per map"):
            maps.probe_stack(m.images[None], m.shift[None], 1e-9, seeds, 50, 1e-9)


def test_probe_stack_verdicts_are_the_cp_verdicts_of_its_choi_pass():
    rng = np.random.default_rng(41)
    group = [bell_cnot_map(), discordant_qubit_map()]
    group += [induce(discordant(2, 2, 3), haar_unitary(4, rng)) for _ in range(2)]
    images, shift = np.stack([m.images for m in group]), np.stack([m.shift for m in group])
    for cp_tol in (0.0, 1e-9, 1e-3):
        verdicts, probes = maps.probe_stack(images, shift, cp_tol, [0, 1, 2, 3], 50, 1e-9)
        assert verdicts == maps.cp_verdicts(images, shift, cp_tol)
        assert len(probes) == len(group)


def test_probe_stack_checks_the_choi_pass_at_cp_tol_before_sampling(monkeypatch):
    # a 1e-6 asymmetry fails the Choi check at cp_tol 1e-9, although the
    # probe's own tol would admit it; the map would sample, but draws nothing
    m = discordant_qubit_map()
    images = m.images.copy()
    images[0, 1, 0, 0] += 1e-6
    drawn = []
    monkeypatch.setattr(maps, "_sample", lambda *args: drawn.append(args))
    with pytest.raises(HermiticityError, match="Choi matrix"):
        maps.probe_stack(images[None], m.shift[None], 1e-9, [0], 50, 1e-3)
    assert drawn == []


@pytest.mark.parametrize("seed", [-1, 1.5, "x", None, True])
@pytest.mark.parametrize(
    "make_map", [bell_cnot_map, discordant_qubit_map], ids=["closes", "samples"]
)
def test_probe_positivity_validates_its_seed_whether_or_not_it_samples(make_map, seed):
    # Bell+CNOT closes in the spectral stage and never reads its seed
    with pytest.raises(ValueError, match="seed must be"):
        probe_positivity(make_map(), budget=50, seed=seed)


def test_probe_positivity_takes_a_numpy_integer_seed():
    m = discordant_qubit_map()
    p, q = (probe_positivity(m, budget=50, seed=s) for s in (np.int64(4), 4))
    assert p.floor < -1e-9 and p.min_eig - p.floor > 1e-9  # the probe sampled
    assert (p.status, p.min_eig, p.floor) == (q.status, q.min_eig, q.floor)


def test_choi_passes_leave_nothing_on_the_map():
    m = discordant_qubit_map()
    is_cp(m)
    probe_positivity(m, budget=50)
    assert set(vars(m)) == {"dim_a", "images", "shift"}


def test_scan_memory_does_not_grow_with_trials():
    d = discordant_8x4()
    transient = {}
    for trials in (4, 64):
        cfg = SearchConfig(trials=trials, positivity_budget=200, seed=1)
        tracemalloc.start()
        try:
            reports = scan(d, cfg)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert any(r.positivity.floor < -1e-9 for r in reports)  # the probe sampled
        # the reports themselves are the result, not working memory
        transient[trials] = peak - current
    # 64 trials evaluated as one stack would need about 16 times as much
    assert transient[64] < 1.25 * transient[4]


def test_search_config_caps_the_trial_count():
    assert SearchConfig(trials=MAX_TRIALS).trials == MAX_TRIALS
    with pytest.raises(ValueError, match="trials"):
        SearchConfig(trials=MAX_TRIALS + 1)


def test_hunt_cli_rejects_trials_above_the_cap_before_searching(tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(search, "scan", no_search)
    path = tmp_path / "e.json"
    save_ensemble(path, coherent_ensemble())
    assert main(["hunt", str(path), "--trials", str(MAX_TRIALS + 1)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --trials: trials must be at most {MAX_TRIALS}" in captured.err


def choi_positive_map():
    images = np.zeros((3, 3, 3, 3), dtype=complex)
    for k in range(3):
        for l in range(3):
            images[k, l, k, l] = -1.0
        images[k, k, k, k] = 1.0
        images[k, k, (k + 1) % 3, (k + 1) % 3] = 1.0
    return InducedMap(3, images, np.zeros((3, 3)))


def weak_bell(coherence):
    rho = (1 - coherence) * np.diag([0.5, 0.0, 0.0, 0.5]) + coherence * bell_density()
    return decompose_blocks(rho, 2, 2)


@pytest.mark.parametrize(
    "budget, refine_iters", [(1, 200), (50, 0), (50, 3), (500, 200), (2500, 200)]
)
def test_probe_stack_matches_the_one_map_reference(budget, refine_iters, monkeypatch):
    monkeypatch.setattr(maps, "REFINE_ITERS", refine_iters)
    rng = np.random.default_rng(13)
    # qubit maps, positive qubit maps, 3x3 maps whose refine can stop
    # early without a witness, and 8x4 maps that lose positivity
    sources = (
        decompose_blocks(bell_density(), 2, 2),
        weak_bell(0.2),
        discordant(3, 3, 1),
        discordant_8x4(),
    )
    groups = [
        [induce(d, haar_unitary(d.dim_a * d.dim_e, rng)) for _ in range(3)]
        for d in sources
    ]
    # Choi's positive map on 3x3 inputs, which is not CP: the refine's
    # gains shrink towards its minimum 0, so it stops on the reach test
    groups.append([choi_positive_map()] * 3)
    statuses = set()
    for group in groups:
        for stacked in (group[:2], group[2:], group):
            images = np.stack([m.images for m in stacked])
            shift = np.stack([m.shift for m in stacked])
            seeds = [int(rng.integers(1 << 30)) for _ in stacked]
            _, probes = maps.probe_stack(images, shift, 1e-9, seeds, budget, 1e-9)
            for m, seed, probe in zip(stacked, seeds, probes):
                status, min_eig, witness, floor = reference_probe(
                    m, budget, seed, 1e-9, refine_iters
                )
                assert (probe.status, probe.min_eig, probe.floor) == (status, min_eig, floor)
                if witness is None:
                    assert probe.witness is None
                else:
                    assert probe.witness.tobytes() == witness.tobytes()
                statuses.add((status, floor < -1e-9, min_eig - floor <= 1e-9))
    # maps closed by the spectral stage, and sampled maps (open bracket)
    # both with and without a witness
    assert {
        (VIOLATED, True, True),
        (VIOLATED, True, False),
        (NO_VIOLATION_FOUND, True, False),
    } <= statuses


def reference_split_blocks(rho, dim_a, dim_e):
    """One block at a time (the decomposition before it was vectorised)."""
    coeffs = np.zeros((dim_a, dim_a), dtype=complex)
    blocks = np.zeros((dim_a, dim_a, dim_e, dim_e), dtype=complex)
    pair_class = np.zeros((dim_a, dim_a), dtype=np.int8)
    for k in range(dim_a):
        for l in range(dim_a):
            block = rho[k * dim_e : (k + 1) * dim_e, l * dim_e : (l + 1) * dim_e]
            tr = complex(np.trace(block))
            if abs(tr) > states.BLOCK_TRACE_TOL:
                coeffs[k, l], blocks[k, l] = tr, block / tr
                pair_class[k, l] = PairClass.UNIT_TRACE
            elif np.abs(block).max() > states.BLOCK_ZERO_TOL:
                coeffs[k, l], blocks[k, l] = 1.0, block
                pair_class[k, l] = PairClass.TRACELESS_NONZERO
    return coeffs, blocks, pair_class


def reference_rescaled(e):
    """Ratios term by term, with a running total (before vectorising)."""
    gamma = np.zeros((e.dim_a, e.dim_a), dtype=complex)
    for t in e.terms:
        gamma += t.p * t.rho_a
    defined = np.abs(gamma) > states.BLOCK_TRACE_TOL
    ratios = []
    for t in e.terms:
        ratio = np.zeros_like(gamma)
        np.divide(t.rho_a, gamma, out=ratio, where=defined)
        ratios.append(ratio)
    return ratios, defined


def reference_rescaled_state(e):
    """The rescaled state filled block by block: each block of the state
    over its trace, 0 where the trace vanishes."""
    da, de = e.dim_a, e.dim_e
    r = np.zeros((da * de, da * de), dtype=complex)
    for k in range(da):
        for l in range(da):
            rows, cols = slice(k * de, (k + 1) * de), slice(l * de, (l + 1) * de)
            tr = np.trace(e.state[rows, cols])
            if abs(tr) > states.BLOCK_TRACE_TOL:
                r[rows, cols] = e.state[rows, cols] / tr
    return r


def reference_condition(e, tol=1e-9):
    """Per term: one eigvalsh per rescaled matrix; then one eigvalsh of the
    rescaled state filled block by block."""
    witnesses = []
    sl = e.decomposition.is_sl
    rescaled_psd = blocked = None
    if not sl:
        blocked = "NON_SL"
        witnesses.append({"route": ROUTE_RESCALED, "error": "NON_SL"})
    else:
        try:
            rs = rescaled_matrices(e)
        except CancellationError as exc:
            blocked = "CANCELLATION"
            witnesses.append({"route": ROUTE_RESCALED, "error": blocked, "detail": str(exc)})
        else:
            rescaled_psd = True
            for i, m in enumerate(rs.matrices):
                lam = float(np.linalg.eigvalsh(check_hermitian(m, tol, "m"))[0])
                if not lam >= -tol:
                    rescaled_psd = False
                    witnesses.append({"route": ROUTE_RESCALED, "term": i, "min_eig": lam})
    block_projector = sl
    if not sl:
        witnesses.append({"route": ROUTE_BLOCK, "error": "NON_SL"})
    else:
        lam = float(np.linalg.eigvalsh(reference_rescaled_state(e))[0])
        if lam < -max(tol, 1e-9):
            block_projector = False
            witnesses.append({"route": ROUTE_BLOCK, "min_eig": lam})
    routes = tuple(
        name for name, ok in ((ROUTE_RESCALED, rescaled_psd), (ROUTE_BLOCK, block_projector)) if ok
    )
    return ConditionReport(
        bool(routes),
        routes[0] if routes else ROUTE_NONE,
        routes,
        "SL" if sl else "NON_SL",
        rescaled_psd,
        blocked,
        block_projector,
        tuple(witnesses),
    )


def coherence_components(herm):
    """States of each coherence component, in order of their lowest state,
    by a search over the pairs whose Choi block is nonzero either way."""
    da = isqrt(len(herm))
    blocks = herm.reshape(da, da, da, da)
    seen, components = set(), []
    for k in range(da):
        if k in seen:
            continue
        seen.add(k)
        todo, component = [k], []
        while todo:
            j = todo.pop()
            component.append(j)
            for l in range(da):
                if l not in seen and (blocks[j, :, l].any() or blocks[l, :, j].any()):
                    seen.add(l)
                    todo.append(l)
        components.append(sorted(component))
    return components


def reference_kraus(choi):
    """One operator per kept eigenvalue (before vectorising); from side
    ``SPLIT_MIN_SIDE`` on, one ``eigh`` per coherence component in a loop."""
    herm = hermitian_part(choi)
    da = isqrt(len(choi))
    components = coherence_components(herm)
    if len(choi) < maps.SPLIT_MIN_SIDE or len(components) == 1:
        w, v = hermitian_eigen(choi)
    else:
        w, v = np.empty(len(choi)), np.zeros_like(herm)
        for component in components:
            rows = [k * da + a for k in component for a in range(da)]
            w[rows], v[np.ix_(rows, rows)] = np.linalg.eigh(herm[np.ix_(rows, rows)])
        order = np.argsort(w, kind="stable")
        w, v = w[order], v[:, order]
        # the union of the component spectra is the whole spectrum
        np.testing.assert_allclose(w, np.linalg.eigvalsh(herm), rtol=0, atol=1e-12)
    return [
        np.sqrt(lam) * vec.reshape(da, da).T
        for lam, vec in zip(w, v.T)
        if lam > maps.KRAUS_KEEP_TOL
    ]


def reference_pinching_defect(rho, basis, dim_a, dim_e):
    """Sum of the dim_a pinched terms, one Kronecker projector each."""
    pinched = np.zeros_like(rho)
    for k in range(dim_a):
        pk = tensor(np.outer(basis[:, k], basis[:, k].conj()), np.eye(dim_e))
        pinched += pk @ rho @ pk
    return float(np.abs(pinched - rho).max())


PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
RHO_E_0 = np.diag([1.0, 0.0]).astype(complex)


def mixture(dim_a, dim_e, terms, rng):
    """Mixture of random full-rank products; it carries discord."""
    p = rng.uniform(0.5, 1.5, size=terms)
    return SeparableEnsemble(
        dim_a,
        dim_e,
        tuple(
            EnsembleTerm(float(w), random_density(dim_a, rng), random_density(dim_e, rng))
            for w in p / p.sum()
        ),
    )


GATE_SOURCES = {
    "aligned-2x2": lambda rng: random_vqd_ensemble(2, 2, rng),
    "aligned-3x2": lambda rng: random_vqd_ensemble(3, 2, rng),
    "aligned-8x4": lambda rng: random_vqd_ensemble(8, 4, rng),
    "haar-4x4": lambda rng: random_vqd_ensemble(4, 4, rng, haar_basis=True),
    "four-block": lambda rng: four_block_ensemble(rng.uniform(0.2, 0.8)),
    "coherent": random_coherent_block_ensemble,
    "discordant-3x2": lambda rng: mixture(3, 2, 3, rng),
    "discordant-4x4": lambda rng: mixture(4, 4, 8, rng),
    "single-term": lambda rng: mixture(2, 3, 1, rng),
    # |+><+| and |-><-| with distinct environments: traceless coherence blocks
    "non-sl": lambda rng: SeparableEnsemble(
        2, 2, (EnsembleTerm(0.5, PLUS, RHO_E_0), EnsembleTerm(0.5, MINUS, random_density(2, rng)))
    ),
    # the same factors with one environment: the coherences cancel exactly
    "cancellation": lambda rng: SeparableEnsemble(
        2, 2, (EnsembleTerm(0.5, PLUS, RHO_E_0), EnsembleTerm(0.5, MINUS, RHO_E_0))
    ),
}


# Tolerances of the condition: 0, where the rescaled state's rounding
# meets the Hermiticity floor, the default, and one above that floor
CONDITION_TOLS = [0.0, 1e-9, 1e-6]


@pytest.mark.parametrize("kind", GATE_SOURCES)
def test_gates_match_the_per_term_references_bit_for_bit(kind):
    source = GATE_SOURCES[kind]
    rng = np.random.default_rng(17)
    kraus_sets = 0
    for _ in range(4):
        e = source(rng)
        d = states.split_blocks(e.state, e.dim_a, e.dim_e)
        want = reference_split_blocks(e.state, e.dim_a, e.dim_e)
        for got, ref in zip((d.coeffs, d.blocks, d.pair_class), want):
            assert got.tobytes() == ref.tobytes()
        for tol in CONDITION_TOLS:
            report = check_condition(e, tol)
            assert report == reference_condition(e, tol)
            assert repr(report) == repr(reference_condition(e, tol))
        if report.rescaled_blocked is None:
            rs = rescaled_matrices(e)
            ratios, defined = reference_rescaled(e)
            assert [m.tobytes() for m in rs.matrices] == [m.tobytes() for m in ratios]
            assert np.array_equal(rs.defined_mask, defined)
        for _ in range(2):
            m = induce(d, haar_unitary(e.dim_a * e.dim_e, rng))
            if is_cp(m).status == CP:
                kraus_sets += 1
                got = kraus_from_choi(choi_matrix(m))
                want = reference_kraus(choi_matrix(m))
                assert [k.tobytes() for k in got] == [k.tobytes() for k in want]
    if kind.startswith("aligned"):
        # every map of an aligned discord-free source is CP
        assert kraus_sets == 8


def test_condition_reference_covers_every_witness_kind():
    # the sources above reach each branch of the condition: both routes
    # fail on a rescaled spectrum, and the rescaled route is blocked by
    # each of its two errors
    rng = np.random.default_rng(17)
    kinds = set()
    for source in GATE_SOURCES.values():
        for _ in range(4):
            e = source(rng)
            for tol in CONDITION_TOLS:
                for w in check_condition(e, tol).witnesses:
                    kinds.add((w["route"], w.get("error", "min_eig")))
    assert kinds == {
        (ROUTE_RESCALED, "min_eig"),
        (ROUTE_RESCALED, "CANCELLATION"),
        (ROUTE_RESCALED, "NON_SL"),
        (ROUTE_BLOCK, "min_eig"),
        (ROUTE_BLOCK, "NON_SL"),
    }


@pytest.mark.parametrize("source", GATE_SOURCES.values(), ids=GATE_SOURCES.keys())
def test_pinching_matches_the_kronecker_reference(source, monkeypatch):
    rng = np.random.default_rng(19)
    ensembles = [source(rng) for _ in range(4)]
    got = [has_vqd(e.state, e.dim_a, e.dim_e) for e in ensembles]
    monkeypatch.setattr(discord, "_pinching_defect", reference_pinching_defect)
    want = [has_vqd(e.state, e.dim_a, e.dim_e) for e in ensembles]
    for g, w in zip(got, want):
        assert g.status == w.status
        assert (g.basis is None) == (w.basis is None)
        if g.basis is not None:
            assert g.basis.tobytes() == w.basis.tobytes()
        assert abs(g.residual - w.residual) <= 1e-15


@pytest.mark.parametrize("k, d", [(1, 2), (4, 3), (64, 8)])
def test_block_commutator_matches_the_pairwise_reference(k, d):
    rng = np.random.default_rng(k)
    g = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    stack = (g + g.conj().swapaxes(1, 2)) / 2.0
    want = max(
        (np.abs(x @ y - y @ x).max() for i, x in enumerate(stack) for y in stack[i + 1 :]),
        default=0.0,
    )
    assert abs(discord._max_commutator(stack) - want) <= 1e-14 * max(want, 1.0)


@pytest.mark.parametrize(
    "make, built",
    [
        (lambda rng: random_vqd_ensemble(3, 2, rng), 0),
        (lambda rng: random_vqd_ensemble(8, 4, rng), 0),
        (lambda rng: four_block_ensemble(rng.uniform(0.2, 0.8)), 1),
        (lambda rng: mixture(3, 2, 3, rng), 1),
    ],
    ids=["aligned-3x2", "aligned-8x4", "four-block", "discordant-3x2"],
)
def test_discord_builds_the_block_stack_only_when_it_reads_it(make, built, monkeypatch):
    # A nondegenerate marginal whose eigenbasis pinches (aligned sources)
    # needs no block; a degenerate marginal (four blocks) or a failed
    # pinch (discordant) builds the stack once
    ensembles = [make(np.random.default_rng(seed)) for seed in range(3)]
    want = [has_vqd(e.state, e.dim_a, e.dim_e) for e in ensembles]
    calls = []
    real = discord._block_stack

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(discord, "_block_stack", counted)
    for e, w in zip(ensembles, want):
        calls.clear()
        got = has_vqd(e.state, e.dim_a, e.dim_e)
        assert len(calls) == built
        assert (got.status, got.residual) == (w.status, w.residual)
        assert (got.basis is None) == (w.basis is None)
        if got.basis is not None:
            assert got.basis.tobytes() == w.basis.tobytes()


@pytest.mark.parametrize("eps", [0.0, 1e-7], ids=["maximally-mixed", "weak-bell"])
def test_discord_skips_blocks_that_refine_nothing(eps, monkeypatch):
    # Every E-indexed block of these 2x16 states lies within
    # DEGENERACY_GAP / 2 of a multiple of I, so none can split a cluster
    # and only the marginal is diagonalised; refining against all 256
    # blocks from each of 256 starts would take seconds.
    rho = eps * np.kron(bell_density(), np.eye(8) / 8) + (1 - eps) * np.eye(32) / 32
    calls = []

    def counted(a, *args, _real=np.linalg.eigh, **kwargs):
        calls.append(a.shape)
        return _real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    verdict = has_vqd(rho, 2, 16)
    assert verdict.status == ("VQD" if eps == 0.0 else "INDETERMINATE")
    assert calls == [(2, 2)]


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: random_vqd_ensemble(2, 2, rng),
        lambda rng: mixture(3, 2, 3, rng),
        lambda rng: random_vqd_ensemble(8, 4, rng),
        lambda rng: mixture(4, 2, 8, rng),
    ],
    ids=["2-terms", "3-terms", "8-terms", "8-terms-discordant"],
)
def test_check_condition_makes_a_fixed_number_of_spectral_calls(make, monkeypatch):
    e = make(np.random.default_rng(23))
    e.decomposition  # the state's validation is not part of the condition
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):

        def counted(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    check_condition(e)
    # one for the stack of rescaled matrices, one for the rescaled state,
    # whatever the term count and whether the condition holds
    assert calls == ["eigvalsh", "eigvalsh"]
