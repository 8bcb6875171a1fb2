"""Induced dynamical maps on the A factor of a jointly evolving pair.

Given a coherence-block decomposition of the initial joint state and a
joint unitary, the reduced dynamics of A is affine: a linear part acting
on the input's matrix entries plus an input-independent shift collected
from the traceless coherence blocks.  SL-class sources have zero shift
and a trace-preserving linear part.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPsdError, ShapeError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    as_square,
    check_count,
    check_hermitian,
    check_seed,
    check_tolerance,
    check_unitaries,
    complex_normals,
    frozen,
    hermitian_part,
    share_on_deepcopy,
)
from .states import SLDecomposition, check_densities

CP = "CP"
NOT_CP = "NOT_CP"
NOT_CP_AFFINE = "NOT_CP_AFFINE"

VIOLATED = "VIOLATED"
NO_VIOLATION_FOUND = "NO_VIOLATION_FOUND"

# Eigenvalues of the Choi matrix below this are dropped when extracting
# operator-sum terms; their total contribution is far below the 1e-9
# reconstruction contract.
KRAUS_KEEP_TOL = 1e-12

# Choi side from which a spectrum is taken one coherence component at a
# time.  Timed with is_cp and kraus_from_choi on aligned discord-free maps
# (one component per input state; one BLAS thread, 2-core x86-64), the
# split costs about 2x at sides 9 and 16 and 1.5x at 25, and saves about
# 12 % at 36 and 35-40 % at 64.
SPLIT_MIN_SIDE = 36

# Block patterns whose coherence components are memoised.
LAYOUT_MEMO = 64

# Pure inputs per batched pass of the positivity probe; caps the probe's
# memory independently of its sampling budget.
PROBE_CHUNK = 1024

# Default sampling budget of one probe: Haar-random pure inputs drawn when
# neither floor decides.
DEFAULT_BUDGET = 500

# Largest sampling budget of one probe: a PROBE_CHUNK batch takes 0.5 ms at
# 2x2 and 12 ms at 8x4 (one BLAS thread, x86-64), so a probe takes seconds.
MAX_BUDGET = 10**6

# Most alternating-minimisation steps the probe takes from its best sample.
REFINE_ITERS = 200


@dataclass(frozen=True)
class InducedMap:
    """Affine reduced dynamics: ``rho' -> sum_kl rho'[k,l] images[k,l] + shift``.

    ``images[k, l]`` is the response to the basis pair ``|k><l|`` and
    ``shift`` the contribution of the source state's traceless coherence
    blocks.  For SL sources the images are unit-trace on the diagonal and
    traceless off it, so the map preserves trace; for non-SL sources the
    images absorb the source block coefficients and the shift is nonzero.
    Shapes other than ``(d, d, d, d)`` and ``(d, d)``, ``d = dim_a >= 1``,
    raise ShapeError.  The map keeps only these arrays: :func:`is_cp`
    builds its Choi matrix per call, and so does :func:`probe_positivity`
    (:func:`probe_stack`).
    """

    dim_a: int
    images: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "images", frozen(self.images))
        object.__setattr__(self, "shift", frozen(self.shift))
        d, shapes = self.dim_a, (self.images.shape, self.shift.shape)
        if d < 1 or shapes != ((d,) * 4, (d, d)):
            raise ShapeError(f"images and shift of shapes {shapes} do not fit dim_a {d}")

    __deepcopy__ = share_on_deepcopy

    def apply(self, rho_prime) -> np.ndarray:
        """Evaluate the map on an input matrix."""
        rho_prime = np.asarray(rho_prime, dtype=complex)
        if rho_prime.shape != (self.dim_a, self.dim_a):
            raise ShapeError(
                f"input shape {rho_prime.shape}, expected {(self.dim_a, self.dim_a)}"
            )
        return _apply(self.images, self.shift, rho_prime)


@dataclass(frozen=True)
class CpVerdict:
    """Complete-positivity verdict for an induced map.

    ``status`` is CP, NOT_CP (negative Choi eigenvalue), or NOT_CP_AFFINE
    (nonzero shift, reported distinctly because the map is not even
    linear).  ``choi_min_eig`` is ``λmin((C + C†)/2)``, ``C =
    choi_matrix(m)``.
    """

    status: str
    choi_min_eig: float
    shift_norm: float


@dataclass(frozen=True)
class PositivityProbe:
    """Outcome of a positivity probe.

    Every probe brackets the true minimum output eigenvalue over valid
    inputs: ``floor <= true minimum <= min_eig``.  ``floor`` is a
    certified lower bound (``-inf`` on hand-built records): the cheap
    floor ``λmin(Herm C) + λmin(Herm shift)``, raised to
    ``λmin(Herm C + I ⊗ Herm shift)`` when the cheap one is below ``-tol``
    and clipped at ``min_eig``; ``min_eig`` is an eigenvalue attained at a
    valid input.  A closed bracket, ``min_eig - floor <= tol``, makes
    ``min_eig`` the exact minimum to ``tol``.

    VIOLATED comes with a certified witness: a valid input density matrix
    whose output has smallest eigenvalue ``min_eig`` below tolerance.
    NO_VIOLATION_FOUND with ``floor >= -tol`` is a proof that no input
    reaches ``-tol``; ``min_eig`` is then the output's smallest eigenvalue
    on the maximally mixed input, unless the spectral stage closed the
    bracket.  With a closed bracket and ``floor < 0`` it is a violation
    shallower than ``tol``, shown exactly.  With an open bracket and
    ``floor < -tol`` it is an exhausted search, not a proof of positivity,
    and ``min_eig`` is the best sampled or refined value.
    """

    status: str
    min_eig: float
    witness: np.ndarray | None
    floor: float = -np.inf

    def __post_init__(self):
        if self.witness is not None:
            object.__setattr__(self, "witness", frozen(self.witness))

    __deepcopy__ = share_on_deepcopy


def validate_unitary(u, dim: int | None = None):
    """Return ``u`` if ``U†U = I`` to ``DEFAULT_UNITARITY_TOL`` (max-entry norm)."""
    u = as_square(u, "unitary")
    if dim is not None and u.shape[0] != dim:
        raise ShapeError(f"unitary has dimension {u.shape[0]}, expected {dim}")
    check_unitaries(u[None])
    return u


def induce_stack(d: SLDecomposition, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(images, shift)`` of the maps :func:`induce` builds, for a ``(T, n,
    n)`` stack of unitaries.

    ``images`` has shape ``(T, da, da, da, da)`` and ``shift`` shape ``(T,
    da, da)``; entry ``t`` is the map of ``us[t]``.  Two stacked matmuls
    serve every unitary, over the decomposition's nonzero pairs only
    (``SLDecomposition.nonzero_pairs``), whose responses are scattered
    into zeroed images; a source with no zero pair broadcasts over all
    pairs instead of gathering them.  The shift sums the traceless pairs
    in row-major order.  The caller checks unitarity
    (:func:`check_unitaries`).
    """
    da, de = d.dim_a, d.dim_e
    t, n = len(us), da * de
    pairs = d.nonzero_pairs
    # Block (k, l) of the source sits in columns k and l of U, so its
    # response is Tr_E(U_k B_kl U_l†) with U_k = U[:, k-block].  Contract
    # the environment trace straight into U_l†: no temporary exceeds
    # n x n entries per nonzero pair and unitary.
    u_cols = us.reshape(t, n, da, de).transpose(0, 2, 1, 3)
    u_conj = us.conj().reshape(t, da, de, da, de).transpose(0, 3, 2, 4, 1)
    u_conj = u_conj.reshape(t, da, de * de, da)
    dense = len(pairs.k) == da * da
    if dense:
        # No zero pair: broadcasting over all pairs beats gathering them.
        left = (u_cols[:, :, None] @ d.blocks).reshape(t, da, da, da, de * de)
        resp = (left @ u_conj[:, None]).reshape(t, da * da, da, da)
    else:
        left = (u_cols[:, pairs.k] @ pairs.blocks).reshape(t, -1, da, de * de)
        resp = left @ u_conj[:, pairs.l]
    if d.is_sl:
        shift = np.zeros((t, da, da), dtype=complex)
    else:
        resp = pairs.coeffs[:, None, None] * resp
        shift = resp[:, ~pairs.unit].sum(axis=1)
    images = np.where(pairs.unit[:, None, None], resp, 0)
    if not dense:
        images, kept = np.zeros((t, da * da, da, da), dtype=complex), images
        images[:, pairs.k * da + pairs.l] = kept
    return images.reshape(t, da, da, da, da), shift


def induce(d: SLDecomposition, u) -> InducedMap:
    """Build the induced map of a joint unitary over a block decomposition.

    Every stored block is conjugated through the unitary and traced over
    the environment.  UNIT_TRACE pairs feed the linear images (weighted by
    the block coefficients when the decomposition is not SL class, so the
    affine convention reproduces the reference non-SL outputs);
    TRACELESS_NONZERO pairs accumulate into the shift; ZERO_BLOCK pairs
    contribute nothing.  ``u`` must be unitary to ``DEFAULT_UNITARITY_TOL``.
    This is the one-element case of :func:`induce_stack`.
    """
    u = validate_unitary(u, dim=d.dim_a * d.dim_e)
    images, shift = induce_stack(d, u[None])
    return InducedMap(d.dim_a, images[0], shift[0])


def _choi_matrices(images: np.ndarray) -> np.ndarray:
    """Choi matrix of each map in a stack of ``images``; see :func:`choi_matrix`."""
    t, da = images.shape[:2]
    return images.transpose(0, 1, 3, 2, 4).reshape(t, da * da, da * da)


def choi_matrix(m: InducedMap) -> np.ndarray:
    """Choi matrix with block ``(k, l)`` equal to ``images[k, l]``.

    Row block ``k``, column block ``l``; the shift is excluded (the Choi
    construction characterizes the linear part only).
    """
    return _choi_matrices(m.images[None])[0]


@functools.lru_cache(maxsize=LAYOUT_MEMO)
def _component_layout(da: int, pattern: bytes):
    """Coherence components of a ``(da, da)`` block pattern, or None when
    there is one; see :func:`_choi_spectra`.

    ``pattern`` holds the bytes of a bool array, True where block ``(k,
    l)`` is nonzero; it is symmetrised here, so a block that is nonzero
    one way only links its two states.  The components come in groups of
    equal size, in the order they are diagonalised; ``rows[j]`` of a
    group lists the Choi rows of its ``j``-th component.  The arrays are
    read-only, as the memo hands the same ones to every call.
    """
    linked = np.frombuffer(pattern, dtype=bool).reshape(da, da)
    reach = linked | linked.T | np.eye(da, dtype=bool)
    while not np.array_equal(grown := reach @ reach, reach):
        reach = grown
    # Each state's component is named by its lowest state; all 0 is one.
    label = reach.argmax(axis=1)
    if not label.any():
        return None
    size = np.bincount(label)[label]
    # States by component size, then by component, ascending within each.
    order = np.lexsort((label, size))
    cuts = np.flatnonzero(np.diff(size[order])) + 1
    groups = []
    for members in np.split(order, cuts):
        c = size[members[0]]
        rows = (members.reshape(-1, c, 1) * da + np.arange(da)).reshape(-1, c * da)
        rows.flags.writeable = False
        groups.append(rows)
    return tuple(groups)


def _choi_spectra(images: np.ndarray, tol: float, vectors: bool = False):
    """Eigenvalues (and, with ``vectors``, eigenvectors) of the Hermitian
    parts of the Choi matrices of a ``(T, d, d, d, d)`` stack of images.

    This is the package's one Choi pass.  A non-finite Choi matrix raises
    ValidationError, one further than ``tol`` from Hermitian
    HermiticityError (:func:`check_hermitian`).  From side
    ``SPLIT_MIN_SIDE`` on, the Choi matrices are checked and diagonalised
    one coherence component at a time: input states ``k`` and ``l`` share
    a component when ``images[k, l]`` or ``images[l, k]`` is nonzero in
    some map of the stack.  ``any`` counts NaN and inf as nonzero, so
    every block between components is exactly zero both ways round: it
    deviates from Hermitian by 0, is 0 in ``(C + C†)/2``, and each map's
    spectrum is the union of its components' spectra.  Components with
    the same number of states are gathered straight from the images,
    checked and diagonalised together, so a stack that passes never
    builds a whole Choi matrix.  If a component fails its check, the
    whole stack is built with :func:`_choi_matrices` and checked again,
    so the error names the same first failing map and worst deviation as
    a whole-matrix check.  The component on rows ``R`` puts its
    eigenvalues, ascending, at ``w[:, R]`` and its eigenvectors at rows
    and columns ``R`` of ``v`` (zero elsewhere).  A side below
    ``SPLIT_MIN_SIDE``, or a stack with one component, is built, checked
    and diagonalised whole, so ``w`` is sorted.  Each call from side
    ``SPLIT_MIN_SIDE`` on reads the block pattern from the images (one
    ``any``); the components of a pattern are found once and memoised
    for the last ``LAYOUT_MEMO`` patterns (:func:`_component_layout`).
    """
    t, da = images.shape[:2]
    side = da * da
    layout = None
    if side >= SPLIT_MIN_SIDE:
        layout = _component_layout(da, np.any(images, axis=(0, 3, 4)).tobytes())
    if layout is None:
        herm = check_hermitian(_choi_matrices(images), tol, "Choi matrix")
        return np.linalg.eigh(herm) if vectors else np.linalg.eigvalsh(herm)
    w = np.empty((t, side))
    v = np.zeros((t, side, side), dtype=complex) if vectors else None
    for rows in layout:
        g, width = rows.shape
        # Row a*da + i of a component is Choi row states[a]*da + i.
        states = rows[:, ::da] // da
        gathered = images[:, states[:, :, None], states[:, None, :]]
        gathered = gathered.transpose(0, 1, 2, 4, 3, 5).reshape(t, g, width, width)
        try:
            herm = check_hermitian(gathered, tol, "Choi matrix")
        except ValidationError:
            # A later group may hold an earlier map's failure, or a worse
            # deviation: the whole check names the error a whole pass gives.
            check_hermitian(_choi_matrices(images), tol, "Choi matrix")
            raise
        if vectors:
            w[:, rows], v[:, rows[:, :, None], rows[:, None, :]] = np.linalg.eigh(herm)
        else:
            w[:, rows] = np.linalg.eigvalsh(herm)
    return (w, v) if vectors else w


def cp_verdicts(images: np.ndarray, shift: np.ndarray, tol: float) -> list[CpVerdict]:
    """:func:`is_cp` of every map in a stack; ``tol`` is checked by the caller.

    ``images`` and ``shift`` are stacked as :func:`induce_stack` returns
    them.  ``choi_min_eig`` is the least eigenvalue from the Choi pass
    (:func:`_choi_spectra`), which raises ValidationError for a
    non-finite Choi matrix and HermiticityError for one further than
    ``tol`` from Hermitian, naming the first failing map of the stack;
    :func:`probe_stack` shares that pass with the positivity probe.  A
    non-finite shift raises ValidationError; a non-Hermitian one is not
    checked here, as any shift above ``tol`` already makes the verdict
    NOT_CP_AFFINE.
    """
    # _choi_spectra rejects non-finite images; a NaN shift norm would
    # compare false against tol and read as CP.
    if not np.isfinite(shift).all():
        raise ValidationError("induced map contains non-finite entries")
    choi_min = _choi_spectra(images, tol).min(axis=1)
    verdicts = []
    for lam, norm in zip(choi_min.tolist(), np.abs(shift).max(axis=(1, 2)).tolist()):
        if norm > tol:
            status = NOT_CP_AFFINE
        elif lam < -tol:
            status = NOT_CP
        else:
            status = CP
        verdicts.append(CpVerdict(status, lam, norm))
    return verdicts


def is_cp(m: InducedMap, tol: float = DEFAULT_TOL) -> CpVerdict:
    """Classify complete positivity of the map's linear part.

    CP requires the Choi matrix to have smallest eigenvalue >= ``-tol``
    and the shift to vanish within ``tol`` (max-entry norm); a nonzero
    shift yields NOT_CP_AFFINE regardless of the Choi spectrum.  This is
    the one-element case of :func:`cp_verdicts`, whose Choi pass keeps
    nothing on the map.  From side ``SPLIT_MIN_SIDE`` on, that pass
    checks and diagonalises the Choi matrix one coherence component at a
    time (checking it whole again only to report a failure), and
    ``choi_min_eig`` may differ from a whole-matrix ``eigvalsh`` by
    rounding.  ``tol`` must be a finite number >= 0, else ValueError.
    """
    check_tolerance(tol)
    return cp_verdicts(m.images[None], m.shift[None], tol)[0]


def _apply(images: np.ndarray, shift: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Outputs ``sum_kl rho[k,l] images[k,l] + shift``, stacked over leading axes."""
    return np.einsum("...kl,...klab->...ab", rho, images) + shift


def _outputs(images: np.ndarray, shift: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Hermitian parts of the outputs of map ``t`` on the pure inputs ``xs[t, j]``."""
    t, da = images.shape[:2]
    out = (xs[..., :, None] * xs.conj()[..., None, :]).reshape(t, -1, da * da)
    out = (out @ images.reshape(t, da * da, da * da)).reshape(t, -1, da, da)
    out += shift[:, None]
    return hermitian_part(out)


def min_eig_2x2(h: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian 2x2 matrix in the stack ``h``.

    Closed form ``(a+d)/2 - hypot((a-d)/2, |b|)`` for ``[[a, b], [b̄, d]]``;
    it agrees with ``eigvalsh`` to rounding (relative to the matrix norm)
    without a LAPACK call per matrix.
    """
    a, d = h[..., 0, 0].real, h[..., 1, 1].real
    return (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(h[..., 0, 1]))


def _batch_minima(images, shift, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each map's smallest output eigenvalue over its batch of inputs, and where."""
    outs = _outputs(images, shift, xs)
    if outs.shape[-1] == 2:
        lams = min_eig_2x2(outs)
    else:
        lams = np.linalg.eigvalsh(outs)[..., 0]
    i = lams.argmin(axis=1)
    # The closed form only picks each batch's winner; its value comes
    # from eigvalsh, so min_eig never carries the closed form's rounding.
    return np.linalg.eigvalsh(outs[np.arange(len(i)), i])[:, 0], i


def _sample(images, shift, seeds, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Best sampled value and input of each map, map ``t`` drawing from ``seeds[t]``.

    Each map draws ``budget`` Haar-random pure inputs from its own stream,
    in batches of ``PROBE_CHUNK``; every batch is evaluated for all maps
    at once.
    """
    t, da = images.shape[:2]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows = np.arange(t)
    best, best_x = np.full(t, np.inf), np.zeros((t, da), dtype=complex)
    for start in range(0, budget, PROBE_CHUNK):
        xs = complex_normals(rngs, (min(PROBE_CHUNK, budget - start), da))
        xs /= np.linalg.norm(xs, axis=-1, keepdims=True)
        lam, i = _batch_minima(images, shift, xs)
        better = lam < best
        best[better] = lam[better]
        best_x[better] = xs[rows, i][better]
    return best, best_x


def _refine(images, shift, best, best_x, tol: float) -> None:
    """Alternating minimisation from each map's best input, in lock-step.

    Updates ``best`` and ``best_x`` in place over at most
    ``REFINE_ITERS`` steps.  A map leaves the stack on a step that gains
    nothing, or once the remaining steps at its last gain could not reach
    ``-tol``.
    """
    da = images.shape[1]
    active = np.arange(len(images))
    # Column 0 of each v is y, the lowest output eigenvector at the input.
    v = np.linalg.eigh(_outputs(images, shift, best_x[:, None]))[1][:, 0]
    for left in range(REFINE_ITERS - 1, -1, -1):
        y = v[:, :, 0]
        yc = y.conj()
        q = (images @ y[:, None, None, :, None])[..., 0] @ yc[:, None, :, None]
        q = q[..., 0] + (yc[:, None, :] @ shift @ y[:, :, None]) * np.eye(da)
        x = np.linalg.eigh(q)[1][:, :, 0].conj()
        w, v = np.linalg.eigh(_outputs(images, shift, x[:, None]))
        w, v = w[:, 0, 0], v[:, 0]
        gain = best[active] - w
        up = gain > 0.0
        best[active[up]] = w[up]
        best_x[active[up]] = x[up]
        go = up & ~(w - gain * left > -tol)
        if not go.all():
            active, images, shift, v = active[go], images[go], shift[go], v[go]
            if not len(active):
                return


def _shifted(images: np.ndarray, shift: np.ndarray):
    """``λmin(C_L)``, a candidate input ``x`` and the output's ``λmin`` at ``x``.

    ``C_L = Herm C + I ⊗ Herm shift``: every output eigenvalue is some
    ``<x̄⊗y|C_L|x̄⊗y>`` with unit ``x`` and ``y``, so none lies below
    ``λmin(C_L)``, which by Weyl is never below ``λmin(Herm C) +
    λmin(Herm shift)``.  ``x`` is the conjugated leading left singular
    vector of the bottom eigenvector reshaped to ``(da, da)``; when that
    eigenvector is a product ``x̄⊗y``, the output at ``x`` attains the
    floor.  One ``eigh``, one ``svd`` and one ``eigvalsh`` serve the stack.
    """
    t, da = images.shape[:2]
    # I ⊗ shift adds the shift to every diagonal image before the reshape.
    c_l = _choi_matrices(images + np.eye(da)[:, :, None, None] * shift[:, None, None])
    c_l = hermitian_part(c_l)
    w, v = np.linalg.eigh(c_l)
    x = np.linalg.svd(v[:, :, 0].reshape(t, da, da))[0][:, :, 0].conj()
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    value = np.linalg.eigvalsh(_outputs(images, shift, x[:, None]))[:, 0, 0]
    return w[:, 0], x, value


def probe_stack(
    images, shift, cp_tol, seeds, budget: int, tol: float
) -> tuple[list[CpVerdict], list[PositivityProbe]]:
    """CP verdicts and positivity probes of every map in a stack.

    ``images`` and ``shift`` are stacked as :func:`induce_stack` returns
    them.  The verdicts are :func:`cp_verdicts` at ``cp_tol``, and probe
    ``t`` is :func:`probe_positivity` of map ``t`` with seed ``seeds[t]``
    at ``tol``.  Both answers come from one Choi pass
    (:func:`_choi_spectra`): it checks each Choi matrix ``C`` at
    ``cp_tol`` and diagonalises it once, and its least eigenvalue
    ``λmin((C + C†)/2)`` is both the verdict's ``choi_min_eig`` and the
    Choi term of the probe's cheap floor.  A map that fails that pass
    raises (ValidationError if non-finite, else HermiticityError) before
    any probe stage runs or any sample is drawn.  Every probe stage then
    runs on the whole stack: the cheap floors, the spectral stage
    (:func:`_shifted`) of the maps whose cheap floor is below ``-tol``,
    the maximally mixed outputs of the floor-certified maps, each
    sampling batch of the maps whose bracket stays open, the refine steps
    (in lock-step over the maps still refining) and the witness checks.
    Map ``t`` draws from its own stream exactly as it would alone, so its
    probe is the same bit for bit.  ``seeds`` is a sequence with one seed
    per map, else ValueError; only the seeds of the maps that sample are
    read, so a sequence that builds each seed on read builds none for a
    map the floor or the spectral stage closes.  A shift further than
    ``tol`` from Hermitian raises HermiticityError
    (:func:`check_hermitian`): the floors bound the outputs' Hermitian
    parts only.  ``budget`` must be an integer from 1 to ``MAX_BUDGET``,
    and ``cp_tol`` and ``tol`` finite numbers >= 0, else ValueError.
    """
    budget = check_count(budget, "budget", MAX_BUDGET)
    n, da = images.shape[:2]
    if len(seeds) != n:
        raise ValueError(f"need one seed per map: {len(seeds)} seeds for {n} maps")
    check_tolerance(tol)
    check_tolerance(cp_tol, "cp_tol")
    verdicts = cp_verdicts(images, shift, cp_tol)
    choi_min = np.array([verdict.choi_min_eig for verdict in verdicts])

    # Every output eigenvalue is some <x̄⊗y|C|x̄⊗y> + <y|shift|y> with unit
    # x and y, so none lies below the cheap floor.
    floors = choi_min + np.linalg.eigvalsh(check_hermitian(shift, tol, "shift"))[:, 0]
    lam, x = np.zeros(n), np.zeros((n, da), dtype=complex)
    spectral = floors < -tol
    closed = np.zeros(n, dtype=bool)
    if spectral.any():
        lowest, x[spectral], lam[spectral] = _shifted(images[spectral], shift[spectral])
        floors[spectral] = np.maximum(floors[spectral], lowest)
        closed[spectral] = lam[spectral] - floors[spectral] <= tol

    witness = [None] * n
    done = ~closed & (floors >= -tol)
    if done.any():
        outs = _apply(images[done], shift[done], np.eye(da) / da)
        lam[done] = np.linalg.eigvalsh(hermitian_part(outs))[:, 0]
    rest = np.flatnonzero(~closed & ~done)
    if len(rest):
        sub_images, sub_shift = images[rest], shift[rest]
        best, best_x = _sample(sub_images, sub_shift, [seeds[j] for j in rest.tolist()], budget)
        _refine(sub_images, sub_shift, best, best_x, tol)
        lam[rest], x[rest] = best, best_x
    # A value below -tol counts only once its input passes as a density
    # matrix and its recomputed output eigenvalue is still below -tol.
    hit = np.flatnonzero(~done & (lam < -tol))
    if len(hit):
        inputs = check_densities(x[hit, :, None] * x[hit].conj()[:, None, :], name="witness")
        outs = _apply(images[hit], shift[hit], inputs)
        recheck = np.linalg.eigvalsh(hermitian_part(outs))[:, 0]
        for j, rho, value in zip(hit.tolist(), inputs, recheck.tolist()):
            if value < -tol:
                lam[j], witness[j] = value, rho
    # min_eig is attained, so a floor above it is rounding on a closed bracket.
    np.minimum(floors, lam, out=floors)
    return verdicts, [
        PositivityProbe(NO_VIOLATION_FOUND if w is None else VIOLATED, value, w, floor)
        for value, w, floor in zip(lam.tolist(), witness, floors.tolist())
    ]


def probe_positivity(
    m: InducedMap, budget: int = DEFAULT_BUDGET, seed: int = 0, tol: float = DEFAULT_TOL
) -> PositivityProbe:
    """Search for an input whose output loses positivity.

    The probe starts from the Choi pass that :func:`probe_stack` shares
    with :func:`is_cp`, at ``tol``: a non-finite map raises
    ValidationError, and a ``C = choi_matrix(m)`` or a ``shift`` further
    than ``tol`` from Hermitian HermiticityError, before any stage runs:
    such a map has non-Hermitian outputs, whose eigenvalues no floor
    bounds.  Each stage ends the probe once it decides:

    - The cheap floor ``λmin(Herm C) + λmin(Herm shift)``, with
      ``λmin(Herm C)`` the verdict's ``choi_min_eig``: no output
      eigenvalue lies below it, and as the shift is traceless it is at
      most ``λmin(C)``.  At least ``-tol``, it proves that no input
      reaches ``-tol``: NO_VIOLATION_FOUND, with no samples drawn and
      ``min_eig`` the smallest output eigenvalue on ``I/dim_a``.
    - The spectral stage raises the floor to ``λmin(C_L)``, ``C_L = Herm
      C + I ⊗ Herm shift``, and evaluates the output at the input read off
      its bottom eigenvector.  Within ``tol`` of the floor, that input is
      the result (a closed bracket); a raised floor of at least ``-tol``
      ends as above.
    - ``budget`` Haar-random pure inputs in batches of ``PROBE_CHUNK``
      (one stacked eigenvalue call per batch, or :func:`min_eig_2x2` when
      ``dim_a == 2``), then alternating minimisation of ``<y|Φ(xx†)|y>``
      from the best one: ``y`` is the lowest output eigenvector at ``x``,
      and ``x`` the conjugated lowest eigenvector of ``Q[k,l] =
      <y|images[k,l]|y> + <y|shift|y> δ_kl``.  Both half-steps are exact,
      so the value never rises.  Refining stops after ``REFINE_ITERS``
      steps, on a step that gains nothing, or once the remaining steps at
      the last gain could not reach ``-tol``.  NO_VIOLATION_FOUND here is
      an exhausted search, not a proof, with the best value as ``min_eig``.

    VIOLATED comes only with a certified witness (a valid density matrix
    whose recomputed output eigenvalue is below ``-tol``), and every probe
    carries its floor: ``floor <= true minimum <= min_eig``
    (:class:`PositivityProbe`).  ``budget`` and ``seed`` must be integers
    (numpy integers pass, ``bool`` does not), ``1 <= budget <=
    MAX_BUDGET``, ``seed >= 0`` (:func:`~inducedmaps.linalg.check_seed`)
    and ``tol`` a finite number >= 0, else ValueError, whether or not the
    map samples.  This is the one-element case of :func:`probe_stack`,
    which :func:`~inducedmaps.search.scan` runs on stacks of trials with
    the same random streams.
    """
    seed = check_seed(seed)
    return probe_stack(m.images[None], m.shift[None], tol, [seed], budget, tol)[1][0]


def kraus_from_choi(choi, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Operator-sum terms of a completely positive linear part.

    Eigenvectors of the Choi matrix, scaled by the square roots of their
    eigenvalues, reshaped so that ``sum_j K_j rho K_j†`` reproduces the
    map's linear action.  ``choi`` must be a finite square matrix of
    perfect-square side (else ValidationError or ShapeError); it goes
    through the Choi pass of :func:`is_cp` (:func:`_choi_spectra`, on the
    images read back from its blocks), so it must be within ``tol`` of
    Hermitian (else HermiticityError, with the worst deviation of the
    whole matrix).  From side ``SPLIT_MIN_SIDE`` on it is checked
    and diagonalised one coherence component at a time, and checked
    whole again only on a failure; the spectrum is the union over
    components.  A Choi eigenvalue below ``-tol`` raises
    :class:`NotPsdError`; eigenvalues up to ``KRAUS_KEEP_TOL`` are
    discarded.  The kept eigenvectors are scaled and reshaped as one
    array, and the operators come in ascending eigenvalue order across
    components (a stable sort, so ties keep their row order).  ``tol``
    must be a finite number >= 0, else ValueError.
    """
    check_tolerance(tol)
    choi = as_square(choi, "choi")
    da = math.isqrt(choi.shape[0])
    if da * da != choi.shape[0]:
        raise ShapeError(f"Choi dimension {choi.shape[0]} is not a perfect square")
    images = choi.reshape(da, da, da, da).swapaxes(1, 2)[None]
    w, v = _choi_spectra(images, tol, vectors=True)
    w, v = w[0], v[0]
    # Only the split pass leaves the spectrum out of order, and a stable
    # sort of an ascending spectrum changes nothing.
    if not (w[:-1] <= w[1:]).all():
        order = np.argsort(w, kind="stable")
        w, v = w[order], v[:, order]
    if float(w[0]) < -tol:
        raise NotPsdError(f"Choi matrix has negative eigenvalue {float(w[0]):.3e}")
    keep = w > KRAUS_KEEP_TOL
    # Column j of v, reshaped to (da, da) and transposed, is operator j.
    scaled = (v[:, keep] * np.sqrt(w[keep])).T
    return list(scaled.reshape(-1, da, da).swapaxes(1, 2))
