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

from .errors import NotPsdError, ShapeError, ValidationError
from .linalg import (
    as_square,
    check_hermitian,
    check_tolerance,
    dagger,
    frozen,
    hermitian_eigen,
    share_on_deepcopy,
)
from .states import PairClass, SLDecomposition, validate_density_matrix

CP = "CP"
NOT_CP = "NOT_CP"
NOT_CP_AFFINE = "NOT_CP_AFFINE"

VIOLATED = "VIOLATED"
NO_VIOLATION_FOUND = "NO_VIOLATION_FOUND"

DEFAULT_UNITARITY_TOL = 1e-10

# Eigenvalues of the Choi matrix below this are dropped when extracting
# operator-sum terms; their total contribution is far below the 1e-9
# reconstruction contract.
KRAUS_KEEP_TOL = 1e-12

# Pure inputs per batched pass of the positivity probe; caps the probe's
# memory independently of its sampling budget.
PROBE_CHUNK = 1024


@dataclass(frozen=True)
class InducedMap:
    """Affine reduced dynamics: ``rho' -> sum_kl rho'[k,l] images[k,l] + shift``.

    ``images[k, l]`` is the response to the basis pair ``|k><l|`` and
    ``shift`` the contribution of the source state's traceless coherence
    blocks.  For SL sources the images are unit-trace on the diagonal and
    traceless off it, so the map preserves trace; for non-SL sources the
    images absorb the source block coefficients and the shift is nonzero.
    The cached ``choi_min_eig`` serves both :func:`is_cp` and the probe.
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
        return np.einsum("kl,klab->ab", rho_prime, self.images) + self.shift

    @cached_property
    def choi_min_eig(self) -> float:
        """``λmin((C + C†)/2)`` with ``C = choi_matrix(self)``, computed once."""
        choi = choi_matrix(self)
        return float(np.linalg.eigvalsh((choi + dagger(choi)) / 2.0)[0])


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
    dev = float(np.abs(dagger(u) @ u - np.eye(u.shape[0])).max())
    if dev > DEFAULT_UNITARITY_TOL:
        raise ValidationError(f"matrix is not unitary: deviation {dev:.3e}")
    return u


def induce(d: SLDecomposition, u) -> InducedMap:
    """Build the induced map of a joint unitary over a block decomposition.

    Every stored block is conjugated through the unitary and traced over
    the environment.  UNIT_TRACE pairs feed the linear images (weighted by
    the block coefficients when the decomposition is not SL class, so the
    affine convention reproduces the reference non-SL outputs);
    TRACELESS_NONZERO pairs accumulate into the shift; ZERO_BLOCK pairs
    contribute nothing.  ``u`` must be unitary to ``DEFAULT_UNITARITY_TOL``.
    """
    da, de = d.dim_a, d.dim_e
    n = da * de
    u = validate_unitary(u, dim=n)
    # Block (k, l) of the source sits in columns k and l of U, so its
    # response is Tr_E(U_k B_kl U_l†) with U_k = U[:, k-block].  Contract
    # the environment trace straight into U_l† per row k: no temporary
    # exceeds n x n.
    u_cols = u.reshape(n, da, de).transpose(1, 0, 2)
    u_conj = u.conj().reshape(da, de, da, de).transpose(2, 1, 3, 0)
    u_conj = u_conj.reshape(da, de * de, da)
    resp = np.empty((da, da, da, da), dtype=complex)
    for k in range(da):
        left = (u_cols[k] @ d.blocks[k]).reshape(da, da, de * de)
        resp[k] = left @ u_conj
    weighted = resp if d.is_sl else d.coeffs[:, :, None, None] * resp
    unit = (d.pair_class == PairClass.UNIT_TRACE)[:, :, None, None]
    images = np.where(unit, weighted, 0)
    shift = weighted[d.pair_class == PairClass.TRACELESS_NONZERO].sum(axis=0)
    return InducedMap(da, images, shift)


def choi_matrix(m: InducedMap) -> np.ndarray:
    """Choi matrix with block ``(k, l)`` equal to ``images[k, l]``.

    Row block ``k``, column block ``l``; the shift is excluded (the Choi
    construction characterizes the linear part only).
    """
    da = m.dim_a
    return m.images.transpose(0, 2, 1, 3).reshape(da * da, da * da)


def is_cp(m: InducedMap, tol: float = 1e-9) -> CpVerdict:
    """Classify complete positivity of the map's linear part.

    CP requires the Choi matrix to have smallest eigenvalue >= ``-tol``
    and the shift to vanish within ``tol`` (max-entry norm).  A nonzero
    shift yields NOT_CP_AFFINE regardless of the Choi spectrum, which is
    read from the cached ``m.choi_min_eig`` once the Choi matrix passes
    :func:`check_hermitian` at ``max(tol, 1e-9)``.  ``tol`` must be a
    finite number >= 0, else ValueError.
    """
    check_tolerance(tol)
    check_hermitian(choi_matrix(m), tol=max(tol, 1e-9))
    choi_min = m.choi_min_eig
    shift_norm = float(np.abs(m.shift).max())
    if shift_norm > tol:
        status = NOT_CP_AFFINE
    elif choi_min < -tol:
        status = NOT_CP
    else:
        status = CP
    return CpVerdict(status, choi_min, shift_norm)


def _outputs(m: InducedMap, xs: np.ndarray) -> np.ndarray:
    """Hermitian parts of the map's outputs on the pure inputs in rows of ``xs``."""
    da = m.dim_a
    inputs = (xs[:, :, None] * xs.conj()[:, None, :]).reshape(len(xs), da * da)
    out = (inputs @ m.images.reshape(da * da, da * da)).reshape(-1, da, da)
    out += m.shift
    return (out + out.conj().transpose(0, 2, 1)) / 2.0


def min_eig_2x2(h: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian 2x2 matrix in the stack ``h``.

    Closed form ``(a+d)/2 - hypot((a-d)/2, |b|)`` for ``[[a, b], [b̄, d]]``;
    it agrees with ``eigvalsh`` to rounding (relative to the matrix norm)
    without a LAPACK call per matrix.
    """
    a, d = h[:, 0, 0].real, h[:, 1, 1].real
    return (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(h[:, 0, 1]))


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
    anything else raises ValueError.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    check_tolerance(tol)
    da = m.dim_a

    # Every output eigenvalue is some <x̄⊗y|C|x̄⊗y> + <y|shift|y> with unit
    # x and y, so none lies below the floor.
    shift_min = np.linalg.eigvalsh((m.shift + dagger(m.shift)) / 2.0)[0]
    floor = float(m.choi_min_eig + shift_min)
    if floor >= -tol:
        out = m.apply(np.eye(da) / da)
        lam = float(np.linalg.eigvalsh((out + dagger(out)) / 2.0)[0])
        return PositivityProbe(NO_VIOLATION_FOUND, lam, None, floor)

    rng = np.random.default_rng(seed)
    best, best_x = np.inf, None
    for start in range(0, budget, PROBE_CHUNK):
        size = min(PROBE_CHUNK, budget - start)
        xs = rng.normal(size=(size, da)) + 1j * rng.normal(size=(size, da))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        outs = _outputs(m, xs)
        lams = min_eig_2x2(outs) if da == 2 else np.linalg.eigvalsh(outs)[:, 0]
        i = int(np.argmin(lams))
        # The closed form only picks the chunk's winner; its value comes
        # from eigvalsh, so min_eig never carries the closed form's rounding.
        lam = float(np.linalg.eigvalsh(outs[i])[0])
        if lam < best:
            best, best_x = lam, xs[i]

    if refine_iters > 0:
        y = np.linalg.eigh(_outputs(m, best_x[None])[0])[1][:, 0]
    for left in range(refine_iters - 1, -1, -1):
        q = (m.images @ y) @ y.conj() + (y.conj() @ m.shift @ y) * np.eye(da)
        x = np.linalg.eigh(q)[1][:, 0].conj()
        w, v = np.linalg.eigh(_outputs(m, x[None])[0])
        gain = best - float(w[0])
        if not gain > 0.0:
            break
        best, best_x, y = float(w[0]), x, v[:, 0]
        if best - gain * left > -tol:
            break

    if best < -tol:
        witness = np.outer(best_x, best_x.conj())
        witness = validate_density_matrix(witness, name="witness")
        out = m.apply(witness)
        lam = float(np.linalg.eigvalsh((out + dagger(out)) / 2.0)[0])
        if lam < -tol:
            return PositivityProbe(VIOLATED, lam, witness, floor)
    return PositivityProbe(NO_VIOLATION_FOUND, best, None, floor)


def kraus_from_choi(choi, tol: float = 1e-9) -> list[np.ndarray]:
    """Operator-sum terms of a completely positive linear part.

    Eigenvectors of the Choi matrix, scaled by the square roots of their
    eigenvalues, reshaped so that ``sum_j K_j rho K_j†`` reproduces the
    map's linear action.  A Choi eigenvalue below ``-tol`` raises
    :class:`NotPsdError`; eigenvalues up to ``KRAUS_KEEP_TOL`` are discarded.
    ``tol`` must be a finite number >= 0, else ValueError.
    """
    check_tolerance(tol)
    choi = as_square(choi, "choi")
    da = int(round(np.sqrt(choi.shape[0])))
    if da * da != choi.shape[0]:
        raise ShapeError(f"Choi dimension {choi.shape[0]} is not a perfect square")
    w, v = hermitian_eigen(choi, tol=max(tol, 1e-9))
    if float(w[0]) < -tol:
        raise NotPsdError(f"Choi matrix has negative eigenvalue {float(w[0]):.3e}")
    ops = []
    for lam, vec in zip(w, v.T):
        if lam > KRAUS_KEEP_TOL:
            ops.append(np.sqrt(lam) * vec.reshape(da, da).T)
    return ops
