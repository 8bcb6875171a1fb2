"""Induced dynamical maps on the A factor of a jointly evolving pair.

Given a coherence-block decomposition of the initial joint state and a
joint unitary, the reduced dynamics of A is affine: a linear part acting
on the input's matrix entries plus an input-independent shift collected
from the traceless coherence blocks.  SL-class sources have zero shift
and a trace-preserving linear part.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HermiticityError, NotPsdError, ShapeError, ValidationError
from .linalg import (
    DEFAULT_UNITARITY_TOL,  # re-exported: unitarity is checked in linalg
    as_square,
    check_tolerance,
    check_unitaries,
    frozen,
    hermitian_eigen,
    hermitian_part,
    share_on_deepcopy,
)
from .states import PairClass, SLDecomposition, check_densities

CP = "CP"
NOT_CP = "NOT_CP"
NOT_CP_AFFINE = "NOT_CP_AFFINE"

VIOLATED = "VIOLATED"
NO_VIOLATION_FOUND = "NO_VIOLATION_FOUND"

# Eigenvalues of the Choi matrix below this are dropped when extracting
# operator-sum terms; their total contribution is far below the 1e-9
# reconstruction contract.
KRAUS_KEEP_TOL = 1e-12

# Pure inputs per batched pass of the positivity probe; caps the probe's
# memory independently of its sampling budget.
PROBE_CHUNK = 1024


@dataclass(frozen=True)
class MapStack:
    """Induced maps stacked along a leading axis.

    ``images`` has shape ``(T, da, da, da, da)`` and ``shift`` shape
    ``(T, da, da)``; entry ``t`` is one :class:`InducedMap`.  The stacked
    kernels (:func:`cp_verdicts`, :func:`probe_stack`) evaluate all ``T``
    maps with one numpy call per step instead of one per map.  The arrays
    are stored as given, not copied; ``choi`` is derived once.
    """

    images: np.ndarray
    shift: np.ndarray

    def __len__(self) -> int:
        return len(self.images)

    @cached_property
    def choi(self) -> tuple[np.ndarray, np.ndarray]:
        """``(max|C - C†|, λmin((C + C†)/2))`` per map, ``C`` its Choi matrix.

        One pass builds every Choi matrix (see :func:`choi_matrix`) and
        serves both the Hermiticity check of :func:`cp_verdicts` and the
        probe's floor.  Non-finite images or shifts raise ValidationError.
        """
        if not (np.isfinite(self.images).all() and np.isfinite(self.shift).all()):
            raise ValidationError("induced map contains non-finite entries")
        choi = _choi_matrices(self.images)
        dev = np.abs(choi - choi.conj().swapaxes(-1, -2)).max(axis=(1, 2))
        return dev, np.linalg.eigvalsh(hermitian_part(choi))[:, 0]


@dataclass(frozen=True)
class InducedMap:
    """Affine reduced dynamics: ``rho' -> sum_kl rho'[k,l] images[k,l] + shift``.

    ``images[k, l]`` is the response to the basis pair ``|k><l|`` and
    ``shift`` the contribution of the source state's traceless coherence
    blocks.  For SL sources the images are unit-trace on the diagonal and
    traceless off it, so the map preserves trace; for non-SL sources the
    images absorb the source block coefficients and the shift is nonzero.
    The map's one-element ``stack`` caches its Choi data, which serves
    both :func:`is_cp` and the probe.
    """

    dim_a: int
    images: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "images", frozen(self.images))
        object.__setattr__(self, "shift", frozen(self.shift))

    __deepcopy__ = share_on_deepcopy

    def apply(self, rho_prime) -> np.ndarray:
        """Evaluate the map on an input matrix."""
        rho_prime = np.asarray(rho_prime, dtype=complex)
        if rho_prime.shape != (self.dim_a, self.dim_a):
            raise ShapeError(
                f"input shape {rho_prime.shape}, expected {(self.dim_a, self.dim_a)}"
            )
        return _apply(self.images, self.shift, rho_prime)

    @cached_property
    def stack(self) -> MapStack:
        """This map as a one-element :class:`MapStack` (read-only views)."""
        return MapStack(self.images[None], self.shift[None])

    @property
    def choi_min_eig(self) -> float:
        """``λmin((C + C†)/2)`` with ``C = choi_matrix(self)``, computed once."""
        return float(self.stack.choi[1][0])


@dataclass(frozen=True)
class CpVerdict:
    """Complete-positivity verdict for an induced map.

    ``status`` is CP, NOT_CP (negative Choi eigenvalue), or NOT_CP_AFFINE
    (nonzero shift, reported distinctly because the map is not even
    linear).  ``choi_min_eig`` is the map's cached ``InducedMap.choi_min_eig``.
    """

    status: str
    choi_min_eig: float
    shift_norm: float


@dataclass(frozen=True)
class PositivityProbe:
    """Outcome of a positivity probe.

    Every probe brackets the true minimum output eigenvalue over valid
    inputs: ``floor <= true minimum <= min_eig``.  ``floor`` is the Choi
    floor, a certified lower bound (``-inf`` on hand-built records);
    ``min_eig`` is an eigenvalue attained at a valid input.

    VIOLATED comes with a certified witness: a valid input density matrix
    whose output has smallest eigenvalue ``min_eig`` below tolerance.
    NO_VIOLATION_FOUND with ``floor >= -tol`` is a proof that no input
    reaches ``-tol``, and ``min_eig`` is then the output's smallest
    eigenvalue on the maximally mixed input.  With ``floor < -tol`` it is
    an exhausted search, not a proof of positivity, and ``min_eig`` is the
    best sampled or refined value.
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


def induce_stack(d: SLDecomposition, us: np.ndarray) -> MapStack:
    """The maps :func:`induce` builds, for a ``(T, n, n)`` stack of unitaries.

    One stacked contraction per row block serves every unitary.  The
    caller checks unitarity (:func:`check_unitaries`).
    """
    da, de = d.dim_a, d.dim_e
    t, n = len(us), da * de
    # Block (k, l) of the source sits in columns k and l of U, so its
    # response is Tr_E(U_k B_kl U_l†) with U_k = U[:, k-block].  Contract
    # the environment trace straight into U_l†: no temporary exceeds
    # dim_a x n x n entries per unitary.
    u_cols = us.reshape(t, n, da, de).transpose(0, 2, 1, 3)
    u_conj = us.conj().reshape(t, da, de, da, de).transpose(0, 3, 2, 4, 1)
    u_conj = u_conj.reshape(t, 1, da, de * de, da)
    left = (u_cols[:, :, None] @ d.blocks).reshape(t, da, da, da, de * de)
    resp = left @ u_conj
    unit = (d.pair_class == PairClass.UNIT_TRACE)[:, :, None, None]
    if d.is_sl:
        return MapStack(np.where(unit, resp, 0), np.zeros((t, da, da), dtype=complex))
    weighted = d.coeffs[:, :, None, None] * resp
    shift = weighted[:, d.pair_class == PairClass.TRACELESS_NONZERO].sum(axis=1)
    return MapStack(np.where(unit, weighted, 0), shift)


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
    s = induce_stack(d, u[None])
    return InducedMap(d.dim_a, s.images[0], s.shift[0])


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


def cp_verdicts(s: MapStack, tol: float) -> list[CpVerdict]:
    """:func:`is_cp` of every map in a stack; ``tol`` is checked by the caller.

    Any Choi matrix further than ``max(tol, 1e-9)`` from Hermitian raises
    HermiticityError.
    """
    dev, choi_min = s.choi
    herm_tol = max(tol, 1e-9)
    bad = dev > herm_tol
    if bad.any():
        raise HermiticityError(
            f"hermiticity deviation {dev[bad][0]:.3e} exceeds tolerance {herm_tol:.3e}"
        )
    verdicts = []
    for lam, norm in zip(choi_min.tolist(), np.abs(s.shift).max(axis=(1, 2)).tolist()):
        if norm > tol:
            status = NOT_CP_AFFINE
        elif lam < -tol:
            status = NOT_CP
        else:
            status = CP
        verdicts.append(CpVerdict(status, lam, norm))
    return verdicts


def is_cp(m: InducedMap, tol: float = 1e-9) -> CpVerdict:
    """Classify complete positivity of the map's linear part.

    CP requires the Choi matrix to have smallest eigenvalue >= ``-tol``
    and the shift to vanish within ``tol`` (max-entry norm).  A nonzero
    shift yields NOT_CP_AFFINE regardless of the Choi spectrum.  The
    Hermiticity check at ``max(tol, 1e-9)`` and ``choi_min_eig`` come from
    the map's one cached Choi pass.  ``tol`` must be a finite number >= 0,
    else ValueError.
    """
    check_tolerance(tol)
    return cp_verdicts(m.stack, tol)[0]


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


def _batch_minima(s: MapStack, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each map's smallest output eigenvalue over its batch of inputs, and where."""
    outs = _outputs(s.images, s.shift, xs)
    if outs.shape[-1] == 2:
        lams = min_eig_2x2(outs)
    else:
        lams = np.linalg.eigvalsh(outs)[..., 0]
    i = lams.argmin(axis=1)
    # The closed form only picks each batch's winner; its value comes
    # from eigvalsh, so min_eig never carries the closed form's rounding.
    return np.linalg.eigvalsh(outs[np.arange(len(i)), i])[:, 0], i


def _sample(s: MapStack, seeds, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Best sampled value and input of each map, map ``t`` drawing from ``seeds[t]``.

    Each map draws ``budget`` Haar-random pure inputs from its own stream,
    in batches of ``PROBE_CHUNK``; every batch is evaluated for all maps
    at once.
    """
    t, da = s.images.shape[:2]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows = np.arange(t)
    best, best_x = np.full(t, np.inf), np.zeros((t, da), dtype=complex)
    for start in range(0, budget, PROBE_CHUNK):
        size = min(PROBE_CHUNK, budget - start)
        draws = np.empty((2, t, size, da))
        for rng, re, im in zip(rngs, draws[0], draws[1]):
            rng.standard_normal(out=re)
            rng.standard_normal(out=im)
        xs = draws[0] + 1j * draws[1]
        xs /= np.linalg.norm(xs, axis=-1, keepdims=True)
        lam, i = _batch_minima(s, xs)
        better = lam < best
        best[better] = lam[better]
        best_x[better] = xs[rows, i][better]
    return best, best_x


def _refine(s: MapStack, best, best_x, tol: float, iters: int) -> None:
    """Alternating minimisation from each map's best input, in lock-step.

    Updates ``best`` and ``best_x`` in place.  A map leaves the stack on a
    step that gains nothing, or once the remaining steps at its last gain
    could not reach ``-tol``.
    """
    if iters < 1:
        return
    da = s.images.shape[1]
    active = np.arange(len(s))
    images, shift = s.images, s.shift
    # Column 0 of each v is y, the lowest output eigenvector at the input.
    v = np.linalg.eigh(_outputs(images, shift, best_x[:, None]))[1][:, 0]
    for left in range(iters - 1, -1, -1):
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


def probe_stack(
    s: MapStack, seeds, budget: int, tol: float, refine_iters: int = 200
) -> list[PositivityProbe]:
    """:func:`probe_positivity` of map ``t`` of ``s`` with seed ``seeds[t]``.

    Every stage runs on the whole stack: the floors, the maximally mixed
    outputs of the floor-certified maps, each sampling batch of the rest,
    the refine steps (in lock-step over the maps still refining) and the
    witness checks.  Map ``t`` draws from its own stream exactly as it
    would alone, so its probe is the same bit for bit.  A one-element
    stack is probed under every seed.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    check_tolerance(tol)
    n = len(seeds)
    images = np.broadcast_to(s.images, (n, *s.images.shape[1:]))
    shift = np.broadcast_to(s.shift, (n, *s.shift.shape[1:]))
    da = images.shape[1]

    # Every output eigenvalue is some <x̄⊗y|C|x̄⊗y> + <y|shift|y> with unit
    # x and y, so none lies below the floor.
    floors = s.choi[1] + np.linalg.eigvalsh(hermitian_part(shift))[:, 0]
    lam, witness = np.empty(n), [None] * n
    done = floors >= -tol
    if done.any():
        outs = _apply(images[done], shift[done], np.eye(da) / da)
        lam[done] = np.linalg.eigvalsh(hermitian_part(outs))[:, 0]
    rest = np.flatnonzero(~done)
    if len(rest):
        sub = MapStack(images[rest], shift[rest])
        best, best_x = _sample(sub, [seeds[j] for j in rest.tolist()], budget)
        _refine(sub, best, best_x, tol, refine_iters)
        lam[rest] = best
        # A value below -tol counts only once its input passes as a density
        # matrix and its recomputed output eigenvalue is still below -tol.
        hit = np.flatnonzero(best < -tol)
        if len(hit):
            x = best_x[hit]
            inputs = check_densities(x[:, :, None] * x.conj()[:, None, :], name="witness")
            outs = _apply(sub.images[hit], sub.shift[hit], inputs)
            recheck = np.linalg.eigvalsh(hermitian_part(outs))[:, 0]
            for j, rho, value in zip(rest[hit].tolist(), inputs, recheck.tolist()):
                if value < -tol:
                    lam[j], witness[j] = value, rho
    return [
        PositivityProbe(NO_VIOLATION_FOUND if w is None else VIOLATED, value, w, floor)
        for value, w, floor in zip(lam.tolist(), witness, floors.tolist())
    ]


def probe_positivity(
    m: InducedMap,
    budget: int = 500,
    seed: int = 0,
    tol: float = 1e-9,
    refine_iters: int = 200,
) -> PositivityProbe:
    """Search for an input whose output loses positivity.

    First computes the Choi floor ``λmin(Herm C) + λmin(Herm shift)``,
    ``C = choi_matrix(m)``, with ``λmin(Herm C)`` the cached
    ``m.choi_min_eig``: no output eigenvalue lies below it, and the shift is
    traceless, so it is at most ``λmin(C)``.  When the floor is at least
    ``-tol`` the probe returns NO_VIOLATION_FOUND at once, which proves
    that no input reaches ``-tol``; it draws no samples, and ``min_eig`` is
    the smallest output eigenvalue on ``I/dim_a``.
    Otherwise it samples ``budget`` Haar-random pure inputs in batches of
    ``PROBE_CHUNK`` (one stacked eigenvalue call per batch, or the closed
    form :func:`min_eig_2x2` when ``dim_a == 2``), then refines the worst
    sample by alternating minimisation of ``<y|Φ(xx†)|y>``: ``y`` is the
    lowest output eigenvector at ``x``, and ``x`` the conjugated lowest
    eigenvector of ``Q[k,l] = <y|images[k,l]|y> + <y|shift|y> δ_kl``.
    Both half-steps are exact, so the value never rises.  Refining stops
    after ``refine_iters`` steps, on a step that gains nothing, or once
    the remaining steps at the last gain could not reach ``-tol``.
    VIOLATED is reported only with a certified witness (a valid density
    matrix whose recomputed output eigenvalue is below ``-tol``);
    NO_VIOLATION_FOUND after sampling is an exhausted search, not a proof
    of positivity, with the best value found as ``min_eig``.  Every probe
    carries the floor, so ``floor <= true minimum <= min_eig``.
    ``budget`` must be at least 1 and ``tol`` a finite number >= 0;
    anything else raises ValueError.  This is the one-element case of
    :func:`probe_stack`, which :func:`~inducedmaps.search.scan` runs on
    stacks of trials with the same random streams.
    """
    return probe_stack(m.stack, [seed], budget, tol, refine_iters)[0]


def kraus_from_choi(choi, tol: float = 1e-9) -> list[np.ndarray]:
    """Operator-sum terms of a completely positive linear part.

    Eigenvectors of the Choi matrix, scaled by the square roots of their
    eigenvalues, reshaped so that ``sum_j K_j rho K_j†`` reproduces the
    map's linear action.  A Choi eigenvalue below ``-tol`` raises
    :class:`NotPsdError`; eigenvalues up to ``KRAUS_KEEP_TOL`` are discarded.
    The kept eigenvectors are scaled and reshaped as one array, and the
    operators come in ascending eigenvalue order.  ``tol`` must be a
    finite number >= 0, else ValueError.
    """
    check_tolerance(tol)
    choi = as_square(choi, "choi")
    da = int(round(np.sqrt(choi.shape[0])))
    if da * da != choi.shape[0]:
        raise ShapeError(f"Choi dimension {choi.shape[0]} is not a perfect square")
    w, v = hermitian_eigen(choi, tol=max(tol, 1e-9))
    if float(w[0]) < -tol:
        raise NotPsdError(f"Choi matrix has negative eigenvalue {float(w[0]):.3e}")
    keep = w > KRAUS_KEEP_TOL
    # Column j of v, reshaped to (da, da) and transposed, is operator j.
    scaled = (v[:, keep] * np.sqrt(w[keep])).T
    return list(scaled.reshape(-1, da, da).swapaxes(1, 2))
