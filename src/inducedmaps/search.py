"""Search for joint unitaries whose induced maps fail complete positivity.

The search space is the joint unitary; the source ensemble is fixed and
must satisfy the block-support condition while carrying nonzero discord
(both preconditions are enforced, in that order).  :func:`scan` and
:func:`hunt` draw one seeded Haar unitary per trial; :func:`classify`
takes any one unitary, such as a :func:`generator_unitary` of chosen
parameters, which is how a search steered over parameters runs.  Each
trial induces the map, takes the Choi spectrum and shift norm, and
probes positivity (spectrally, or on random pure inputs where that
leaves the bracket open); reports classify as CP, NON_POSITIVE
(certified witness), AFFINE (nonzero shift), or
POSITIVE_NOT_CP_CANDIDATE.

For exact inputs the two preconditions exclude each other.  The
condition holds when the rescaled state ``R`` (each coherence block over
its trace) is positive semidefinite, and ``R ⪰ 0`` forces
``rho_AE = ⊕_b Γ_b ⊗ τ_b`` on computational blocks: a state that is
classical–quantum in the computational basis, up to a rotation inside
each block, whose induced maps are all CP (Shabani & Lidar, PRL 102,
100402 (2009)).  The discord gate
therefore rejects every source the condition gate admits, and the search
stage runs only when :func:`has_vqd` does not certify VQD (NONZERO or
INDETERMINATE) for a source that passes the condition within tolerance.
The discord gate is deterministic and takes no seed; ``SearchConfig.seed``
seeds the unitary draws and positivity probes of the search alone.
"""

import numpy as np

from .errors import PreconditionTheoremError, PreconditionVqdError, ShapeError
from .discord import VQD, discord_verdict
from .linalg import (
    DEFAULT_TOL,
    check_count,
    check_seed,
    check_tolerance,
    complex_normals,
    dagger,
    hermitian_eigen,
    record,
)
from .maps import (
    CP,
    DEFAULT_BUDGET,
    MAX_BUDGET,
    NOT_CP_AFFINE,
    VIOLATED,
    induce,
    induce_stack,
    probe_stack,
)
from .states import SeparableEnsemble, SLDecomposition, check_condition

CLASS_CP = "CP"
CLASS_CANDIDATE = "POSITIVE_NOT_CP_CANDIDATE"
CLASS_NON_POSITIVE = "NON_POSITIVE"
CLASS_AFFINE = "AFFINE"

# Ceiling on ``SearchConfig.trials``: a scan keeps one report, with its
# unitary, per trial, so the count bounds the memory of its result.
MAX_TRIALS = 10_000

# Default magnitude a negative Choi eigenvalue must exceed for a report to
# survive :func:`filter_candidates`.
CANDIDATE_THRESHOLD = 1e-6

# Trials that :func:`scan` evaluates as one stack.  Fixed, so the peak
# memory of a scan grows with neither its trial count nor its budget.
TRIAL_GROUP = 4


@record()
class SearchConfig:
    """Settings for unitary searches.

    :func:`scan` and :func:`hunt` draw ``trials`` seeded Haar unitaries;
    :func:`classify` reads the tolerances, budget and seed for a unitary
    of the caller's choosing.  ``trials`` must be an integer from 1 to
    ``MAX_TRIALS`` and ``positivity_budget`` one from 1 to ``MAX_BUDGET``
    (:func:`~inducedmaps.linalg.check_count`), and ``seed`` an integer
    >= 0 (:func:`~inducedmaps.linalg.check_seed`), else ValueError.
    ``candidate_threshold`` is the magnitude a negative Choi eigenvalue
    must exceed for a report to survive the candidate filter in
    :func:`hunt`.
    """

    trials: int = 100
    positivity_budget: int = DEFAULT_BUDGET
    seed: int = 0
    cp_tol: float = DEFAULT_TOL
    witness_tol: float = DEFAULT_TOL
    condition_tol: float = DEFAULT_TOL
    vqd_tol: float = DEFAULT_TOL
    candidate_threshold: float = CANDIDATE_THRESHOLD

    def __post_init__(self):
        object.__setattr__(self, "trials", check_count(self.trials, "trials", MAX_TRIALS))
        object.__setattr__(self, "seed", check_seed(self.seed))
        budget = check_count(self.positivity_budget, "positivity_budget", MAX_BUDGET)
        object.__setattr__(self, "positivity_budget", budget)
        for name in ("cp_tol", "witness_tol", "condition_tol", "vqd_tol", "candidate_threshold"):
            check_tolerance(getattr(self, name), name)


@record()
class CandidateReport:
    """Classification of one joint unitary against a fixed source state."""

    unitary: np.ndarray
    choi_min_eig: float
    shift_norm: float
    positivity: object
    classification: str
    trial: int | None = None


def haar_unitaries(dim: int, seeds) -> np.ndarray:
    """Stack of Haar-distributed random unitaries, one per seed.

    Each matrix is drawn from its own ``default_rng(seed)``; one stacked QR
    decomposition serves them all, and the phases of each triangular
    factor's diagonal are absorbed into its unitary factor, which makes
    the distribution exactly Haar.  Each result is a QR unitary factor
    times unit phases, so ``U†U = I`` holds to rounding.
    """
    if dim < 1:
        raise ShapeError(f"dim must be >= 1, got {dim}")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    q, r = np.linalg.qr(complex_normals(rngs, (dim, dim)) / np.sqrt(2))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed random unitary, deterministic per seed.

    The one-element case of :func:`haar_unitaries`.
    """
    return haar_unitaries(dim, [seed])[0]


def generator_unitary(params, dim: int) -> np.ndarray:
    """Unitary ``exp(iH)`` from a real parameter vector of length ``dim**2``.

    Layout: the first ``dim`` entries are the diagonal of the Hermitian
    generator ``H``; the remaining pairs fill the strict upper triangle in
    row-major order as (real, imaginary) parts, mirrored by conjugation.
    A search steered over ``params`` passes each unitary to
    :func:`classify`.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (dim * dim,):
        raise ShapeError(
            f"params must have length {dim * dim} for dim {dim}, got {params.shape}"
        )
    h = np.zeros((dim, dim), dtype=complex)
    h[np.diag_indices(dim)] = params[:dim]
    upper = np.triu_indices(dim, 1)
    re, im = params[dim:].reshape(-1, 2).T
    h[upper] = re + 1j * im
    h[upper[::-1]] = re - 1j * im
    w, v = hermitian_eigen(h)
    return (v * np.exp(1j * w)) @ dagger(v)


def classification_label(verdict, probe) -> str:
    """Combine a CP verdict and a positivity probe into one label.

    Precedence: CP when the Choi spectrum is clean and the shift vanishes;
    NON_POSITIVE when probing certified a witness; AFFINE when the shift is
    nonzero but no witness was found in budget; otherwise the map is a
    POSITIVE_NOT_CP_CANDIDATE.
    """
    if verdict.status == CP:
        return CLASS_CP
    if probe.status == VIOLATED:
        return CLASS_NON_POSITIVE
    if verdict.status == NOT_CP_AFFINE:
        return CLASS_AFFINE
    return CLASS_CANDIDATE


def _as_decomposition(source) -> SLDecomposition:
    if isinstance(source, SLDecomposition):
        return source
    if isinstance(source, SeparableEnsemble):
        return source.decomposition
    raise TypeError(f"source must be a decomposition or ensemble, got {type(source)}")


def _reports(images, shift, unitaries, cfg: SearchConfig, seed_of, trials) -> list:
    """Classify the maps of a stack, probing map ``j`` with ``seed_of(j)``."""
    verdicts, probes = probe_stack(
        images, shift, cfg.cp_tol, seed_of, cfg.positivity_budget, cfg.witness_tol
    )
    return [
        CandidateReport(
            unitary=u,
            choi_min_eig=verdict.choi_min_eig,
            shift_norm=verdict.shift_norm,
            positivity=probe,
            classification=classification_label(verdict, probe),
            trial=trial,
        )
        for u, verdict, probe, trial in zip(unitaries, verdicts, probes, trials)
    ]


def classify(source, u, cfg: SearchConfig, probe_seed=None) -> CandidateReport:
    """Induce the map of one unitary and classify its positivity.

    ``u`` is any joint unitary, for instance a Haar draw or a
    :func:`generator_unitary`; the probe reads ``cfg.seed`` unless
    ``probe_seed`` is given.  The label follows
    :func:`classification_label`.  This is the one-trial case of the
    stacked path :func:`scan` takes: with ``probe_seed`` set to a trial's
    probe seed it returns that trial's report bit for bit (apart from
    ``trial``).
    """
    m = induce(_as_decomposition(source), u)
    seed = cfg.seed if probe_seed is None else probe_seed
    return _reports(m.images[None], m.shift[None], [u], cfg, lambda _: seed, [None])[0]


def scan(source, cfg: SearchConfig) -> tuple[CandidateReport, ...]:
    """Classify ``cfg.trials`` seeded Haar unitaries.

    Trial ``i`` draws its unitary from ``SeedSequence(cfg.seed,
    spawn_key=(i, 0))`` and its probe inputs from ``SeedSequence(cfg.seed,
    spawn_key=(i, 1))``: the streams of the spawn tree
    ``SeedSequence(cfg.seed).spawn(cfg.trials)[i].spawn(2)``.  The trials
    run in stacks of ``TRIAL_GROUP``: one QR and one ``induce``
    contraction per stack, then one :func:`~inducedmaps.maps.probe_stack`
    call, whose one Choi pass serves both the CP verdicts and the probes.
    A stack's unitary seeds are built as a list; its probe seeds come from
    the ``seed_of`` callback, which ``probe_stack`` calls only for a map
    that samples, so a map closed by its floor or by the spectral stage
    builds neither probe seed nor generator.  The draws are unitary by
    construction (:func:`haar_unitaries`), so they are not checked again.
    The report list is deterministic and order-stable for a fixed
    configuration.  Every trial keeps its own random streams, so each
    report equals :func:`classify` of its unitary with its probe seed.
    """
    d = _as_decomposition(source)
    n = d.dim_a * d.dim_e
    reports = []
    for start in range(0, cfg.trials, TRIAL_GROUP):
        trials = range(start, min(start + TRIAL_GROUP, cfg.trials))
        seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(i, 0)) for i in trials]
        us = haar_unitaries(n, seeds)
        reports += _reports(
            *induce_stack(d, us),
            us,
            cfg,
            lambda j: np.random.SeedSequence(cfg.seed, spawn_key=(trials[j], 1)),
            trials,
        )
    return tuple(reports)


def filter_candidates(
    reports, threshold: float = CANDIDATE_THRESHOLD
) -> tuple[CandidateReport, ...]:
    """Keep POSITIVE_NOT_CP_CANDIDATE reports whose Choi eigenvalue is
    below ``-threshold`` (a finite number >= 0, else ValueError), sorted
    most negative first."""
    check_tolerance(threshold, "threshold")
    kept = [
        r
        for r in reports
        if r.classification == CLASS_CANDIDATE and r.choi_min_eig < -threshold
    ]
    return tuple(sorted(kept, key=lambda r: r.choi_min_eig))


def hunt(e: SeparableEnsemble, cfg: SearchConfig) -> tuple[CandidateReport, ...]:
    """Gated search for positive-but-not-CP candidates over an ensemble.

    Preconditions, enforced in order: the ensemble must pass
    :func:`check_condition` at ``cfg.condition_tol`` (else
    :class:`PreconditionTheoremError`, whose message gives that report's
    ``min_eig``, or says that the state is NON_SL) and its assembled
    state must not verify as vanishing-discord (else
    :class:`PreconditionVqdError`).  Surviving reports are filtered to
    POSITIVE_NOT_CP_CANDIDATE entries whose Choi eigenvalue is below
    ``-cfg.candidate_threshold`` and sorted most negative first.  An empty
    result is a valid outcome, not an error.

    Passing the condition makes the assembled state
    classical–quantum in the computational basis (see the module
    docstring), so for exact inputs every source that clears the first
    gate is stopped by the second.  The search itself runs only when
    :func:`has_vqd` returns NONZERO or INDETERMINATE on a source that
    passes the condition within tolerance.
    """
    condition = check_condition(e, cfg.condition_tol)
    if not condition.holds:
        reason = (
            "the state is NON_SL"
            if condition.min_eig is None
            else f"rescaled state has min_eig {condition.min_eig:.3e}"
        )
        raise PreconditionTheoremError(f"block-support condition does not hold: {reason}")
    verdict = discord_verdict(e.state, e.dim_a, e.dim_e, cfg.vqd_tol)
    if verdict.status == VQD:
        raise PreconditionVqdError(
            "ensemble has vanishing discord (pinching defect "
            f"{verdict.residual:.3e}); every induced map is CP"
        )
    return filter_candidates(scan(e, cfg), cfg.candidate_threshold)
