"""Vanishing-discord detection for bipartite states.

A state has vanishing discord (measured on the A side) exactly when some
orthonormal A basis pinches it invariantly:
``sum_k (P_k ⊗ I) rho (P_k ⊗ I) = rho`` with rank-1 projectors ``P_k``.
Candidate bases are common eigenbases of the state's E-indexed blocks.
The checker is sound by construction: it only ever reports VQD after
verifying that identity for a concrete basis, and NONZERO only when two
blocks fail to commute by more than the tolerance.
"""

from functools import cache
from itertools import chain

import numpy as np

from .errors import ShapeError
from .linalg import (
    DEFAULT_TOL,
    as_square,
    check_factors,
    check_tolerance,
    check_unitaries,
    dagger,
    hermitian_part,
    record,
)
from .states import validate_density_matrix

VQD = "VQD"
NONZERO = "NONZERO"
INDETERMINATE = "INDETERMINATE"

# Eigenvalue gaps below this make a spectrum degenerate for basis purposes.
DEGENERACY_GAP = 1e-8


@record()
class DiscordVerdict:
    """Outcome of the vanishing-discord check.

    ``basis`` holds the verified measurement basis (orthonormal columns,
    read-only) for VQD and is None for NONZERO and INDETERMINATE.  ``residual``
    is the pinching defect of the best basis actually tested.
    """

    status: str
    basis: np.ndarray | None
    residual: float


def pinching_defect(rho_ae, basis, dim_a: int, dim_e: int) -> float:
    """Max-norm defect of pinching ``rho_ae`` in an orthonormal A basis.

    ``basis`` must be finite and unitary (columns are the measurement
    directions), else :class:`ValidationError`.  Returns
    ``max| sum_k (P_k ⊗ I) rho (P_k ⊗ I) - rho |``, computed by rotating
    ``rho`` into the basis once, keeping its diagonal A blocks and
    rotating back.
    """
    rho = validate_density_matrix(rho_ae, name="rho_ae")
    basis = as_square(basis, "basis")
    if basis.shape != (dim_a, dim_a):
        raise ShapeError(f"basis shape {basis.shape}, expected {(dim_a, dim_a)}")
    check_unitaries(basis[None])
    return _pinching_defect(check_factors(rho, dim_a, dim_e), basis, dim_a, dim_e)


def _pinching_defect(rho: np.ndarray, basis, dim_a: int, dim_e: int) -> float:
    # Kernel of pinching_defect for a validated state and unitary basis:
    # in the rotated frame (B ⊗ I)† rho (B ⊗ I) the pinching keeps the
    # blocks on the A diagonal and zeroes the others.
    n = dim_a * dim_e
    # B ⊗ I, entry for entry the broadcast product that np.kron takes.
    u = (basis[:, None, :, None] * np.eye(dim_e)[:, None, :]).reshape(n, n)
    u_dagger = dagger(u)
    rotated = (u_dagger @ rho @ u).reshape(dim_a, dim_e, dim_a, dim_e)
    diagonal = np.eye(dim_a, dtype=bool)[:, None, :, None]
    pinched = u @ np.where(diagonal, rotated, 0.0).reshape(n, n) @ u_dagger
    return float(np.abs(pinched - rho).max())


def _block_stack(rho: np.ndarray, dim_a: int, dim_e: int) -> np.ndarray:
    """Hermitian parts of ``M_ef`` (``e <= f``) and ``i·M_ef`` (``e < f``).

    ``M_ef = Tr_E[rho (I ⊗ |f><e|)]`` has entries ``rho[(i, e), (j, f)]``
    and ``M_ef† = M_fe``, so these ``dim_e**2`` Hermitian matrices span
    the same real space as every ``M_ef`` and its adjoint.
    """
    m = rho.reshape(dim_a, dim_e, dim_a, dim_e).transpose(1, 3, 0, 2)
    index = np.arange(dim_e)
    e, f = np.nonzero(index[:, None] <= index)
    blocks = m[e, f]
    return hermitian_part(np.concatenate([blocks, 1j * blocks[e < f]]))


def _max_commutator(stack: np.ndarray) -> float:
    """Largest max-entry commutator over all pairs of a Hermitian stack.

    For Hermitian ``X`` and ``Y``, ``[X, Y] = XY - (XY)†``, so one product
    per pair suffices.  Each matrix meets all later ones as one stacked
    product, so the memory in use never exceeds the stack's own.  The
    stack holds Hermitian parts of blocks of a validated density matrix,
    so every entry, and every product's, is bounded and nothing overflows.
    """
    worst = 0.0
    for i in range(len(stack) - 1):
        p = stack[i] @ stack[i + 1 :]
        worst = max(worst, float(np.abs(p - np.conjugate(p).swapaxes(-1, -2)).max()))
    return worst


def _can_split(stack: np.ndarray) -> np.ndarray:
    """Mask of the Hermitian matrices in ``stack`` that can split a cluster.

    A matrix within ``DEGENERACY_GAP / 2`` (Frobenius norm) of a multiple
    ``cI`` has every eigenvalue of every compression within that distance
    of ``c`` (Weyl), so no gap above ``DEGENERACY_GAP``: it refines nothing.
    """
    d = stack.shape[-1]
    centre = np.trace(stack, axis1=-2, axis2=-1).real / d
    deviation = np.linalg.norm(stack - centre[:, None, None] * np.eye(d), axis=(-2, -1))
    return 2 * deviation > DEGENERACY_GAP


def _clusters(w: np.ndarray, idx: np.ndarray) -> list[np.ndarray]:
    """Split ``idx`` wherever consecutive ascending eigenvalues ``w`` are
    more than ``DEGENERACY_GAP`` apart."""
    w = w.tolist()
    cuts = [0, *(p for p in range(1, len(w)) if w[p] - w[p - 1] > DEGENERACY_GAP), len(w)]
    return [idx[a:b] for a, b in zip(cuts, cuts[1:])]


def _refined_eigenbasis(mats) -> np.ndarray:
    """Simultaneous eigenbasis by successive block refinement.

    Diagonalizes the first matrix, then re-diagonalizes each cluster of
    eigenvalues within ``DEGENERACY_GAP`` under the next matrix, and so on.
    A single-vector cluster is never changed again, so the refinement
    stops, without drawing another matrix, once every cluster is one.
    Deterministic for fixed inputs.
    """
    mats = iter(mats)
    w, v = np.linalg.eigh(hermitian_part(next(mats)))
    blocks = _clusters(w, np.arange(len(w)))
    while len(blocks) < len(w) and (m := next(mats, None)) is not None:
        new_blocks = []
        for idx in blocks:
            if len(idx) == 1:
                new_blocks.append(idx)
                continue
            sub = dagger(v[:, idx]) @ m @ v[:, idx]
            w_sub, s = np.linalg.eigh(hermitian_part(sub))
            v[:, idx] = v[:, idx] @ s
            new_blocks += _clusters(w_sub, idx)
        blocks = new_blocks
    return v


def _deferred(make):
    """Iterate over ``make()``, calling it only once an item is asked for."""
    yield from make()


def has_vqd(rho_ae, dim_a: int, dim_e: int, tol: float = DEFAULT_TOL) -> DiscordVerdict:
    """Decide whether a bipartite state has vanishing discord on A.

    A state has zero discord on A exactly when its E-indexed blocks
    ``M_ef = Tr_E[rho (I ⊗ |f><e|)]`` are normal and commute pairwise
    (Datta, arXiv:1003.5256; Dakić, Vedral & Brukner, PRL 105, 190502
    (2010)); their common eigenbasis is then a pinching basis.  The test
    works on the Hermitian parts of ``M_ef`` and ``i·M_ef``, which commute
    pairwise under the same condition:

    1. the A marginal's eigenbasis, refined against the stack, is pinched
       and a defect within ``tol`` gives VQD;
    2. otherwise a pair of stack matrices whose commutator exceeds ``tol``
       in max-entry norm shows that no pinching basis exists: NONZERO;
    3. otherwise the refined basis that starts from each stack matrix in
       turn is pinched, and the first within ``tol`` gives VQD;
       if none is, the verdict is INDETERMINATE, never a guess.

    Refinements skip the stack matrices that can split no cluster.  The
    verdict is deterministic and needs no seed.  ``tol`` must be a finite
    number >= 0, else ValueError.  ``rho_ae`` is validated to
    ``DEFAULT_DENSITY_TOL``; for a state that already passed
    :func:`validate_density_matrix`, call :func:`discord_verdict`.
    """
    check_tolerance(tol)
    rho = validate_density_matrix(rho_ae, name="rho_ae")
    return discord_verdict(rho, dim_a, dim_e, tol)


def discord_verdict(rho, dim_a: int, dim_e: int, tol: float) -> DiscordVerdict:
    """:func:`has_vqd` of a matrix that already passed
    :func:`validate_density_matrix`, at a ``tol`` already checked, without
    validating either again."""
    # The block stack is built only once a marginal cluster needs refining
    # or the marginal's eigenbasis fails to pinch.
    stack = cache(lambda: _block_stack(rho, dim_a, dim_e))
    refiners = cache(lambda: stack()[_can_split(stack())])
    # The A marginal, as partial_trace takes it, without checking rho again.
    t = check_factors(rho, dim_a, dim_e).reshape(dim_a, dim_e, dim_a, dim_e)
    rho_a = np.einsum("iaja->ij", t)
    basis = _refined_eigenbasis(chain([rho_a], _deferred(refiners)))
    best = _pinching_defect(rho, basis, dim_a, dim_e)
    if best <= tol:
        return DiscordVerdict(VQD, basis, best)
    if _max_commutator(stack()) > tol:
        return DiscordVerdict(NONZERO, None, best)
    for k in range(len(refiners())):
        basis = _refined_eigenbasis(np.roll(refiners(), -k, axis=0))
        defect = _pinching_defect(rho, basis, dim_a, dim_e)
        if defect <= tol:
            return DiscordVerdict(VQD, basis, defect)
        best = min(best, defect)
    return DiscordVerdict(INDETERMINATE, None, best)
