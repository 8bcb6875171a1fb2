"""Vanishing-discord detection for bipartite states.

A state has vanishing discord (measured on the A side) exactly when some
orthonormal A basis pinches it invariantly:
``sum_k (P_k ⊗ I) rho (P_k ⊗ I) = rho`` with rank-1 projectors ``P_k``.
The checker below is sound by construction: it only ever reports VQD
after verifying that identity for a concrete basis.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import (
    check_tolerance,
    check_unitaries,
    dagger,
    hermitian_eigen,
    hermitian_part,
    partial_trace,
)
from .states import validate_density_matrix

VQD = "VQD"
NONZERO = "NONZERO"
INDETERMINATE = "INDETERMINATE"

# Eigenvalue gaps below this make a spectrum degenerate for basis purposes.
DEGENERACY_GAP = 1e-8


@dataclass(frozen=True)
class DiscordVerdict:
    """Outcome of the vanishing-discord check.

    ``basis`` holds the measurement basis (orthonormal columns) for VQD
    (verified) and NONZERO (the unique nondegenerate candidate that
    failed); it is None for INDETERMINATE.  ``residual`` is the pinching
    defect of the best basis actually tested.
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
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (dim_a, dim_a):
        raise ShapeError(f"basis shape {basis.shape}, expected {(dim_a, dim_a)}")
    if not np.isfinite(basis).all():
        raise ValidationError("basis contains non-finite entries")
    check_unitaries(basis[None])
    if rho.shape[0] != dim_a * dim_e:
        raise ShapeError(f"shape {rho.shape} does not factor as {dim_a}x{dim_e}")
    return _pinching_defect(rho, basis, dim_a, dim_e)


def _pinching_defect(rho: np.ndarray, basis, dim_a: int, dim_e: int) -> float:
    # Kernel of pinching_defect for a validated state and unitary basis:
    # in the rotated frame (B ⊗ I)† rho (B ⊗ I) the pinching keeps the
    # blocks on the A diagonal and zeroes the others.
    n = dim_a * dim_e
    u = np.kron(basis, np.eye(dim_e))
    rotated = (dagger(u) @ rho @ u).reshape(dim_a, dim_e, dim_a, dim_e)
    diagonal = np.eye(dim_a, dtype=bool)[:, None, :, None]
    pinched = u @ np.where(diagonal, rotated, 0.0).reshape(n, n) @ dagger(u)
    return float(np.abs(pinched - rho).max())


def _probe_marginal(rho4: np.ndarray, g: np.ndarray) -> np.ndarray:
    # Tr_E[rho (I ⊗ G)]; Hermitian for Hermitian G because the partial
    # trace is cyclic in operators acting on the traced factor only.
    return hermitian_part(np.einsum("iejf,fe->ij", rho4, g))


def _random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = hermitian_part(g)
    return h / np.linalg.norm(h)


def _refined_eigenbasis(mats: list[np.ndarray]) -> np.ndarray:
    """Simultaneous eigenbasis by successive block refinement.

    Diagonalizes the first matrix, then re-diagonalizes each cluster of
    eigenvalues within ``DEGENERACY_GAP`` under the next matrix, and so on.
    Deterministic for fixed inputs.
    """
    dim = mats[0].shape[0]
    v = np.eye(dim, dtype=complex)
    blocks = [np.arange(dim)]
    for m in mats:
        new_blocks = []
        for idx in blocks:
            if len(idx) == 1:
                new_blocks.append(idx)
                continue
            sub = dagger(v[:, idx]) @ m @ v[:, idx]
            w, s = hermitian_eigen(sub, tol=np.inf)
            v[:, idx] = v[:, idx] @ s
            start = 0
            for pos in range(1, len(idx)):
                if w[pos] - w[pos - 1] > DEGENERACY_GAP:
                    new_blocks.append(idx[start:pos])
                    start = pos
            new_blocks.append(idx[start:])
        blocks = new_blocks
    return v


def has_vqd(
    rho_ae,
    dim_a: int,
    dim_e: int,
    tol: float = 1e-9,
    seed: int = 0,
) -> DiscordVerdict:
    """Decide whether a bipartite state has vanishing discord on A.

    Candidate bases come from two places: when the A marginal is
    nondegenerate (all eigenvalue gaps above ``DEGENERACY_GAP``) its
    eigenbasis is the only basis any invariant pinching could use, so it
    is tested directly and a failure is conclusive (NONZERO).  Otherwise
    two seeded random Hermitian probes on E are contracted against the
    state; if their A-side marginals commute within ``tol`` their
    simultaneous eigenbasis (refined against the A marginal) is tested,
    with the bare marginal eigenbasis as fallback.  VQD is reported only
    when a tested basis achieves a pinching defect within ``tol``.

    A vanishing-discord state pinches every probe marginal into the same
    basis, so all probe marginals commute; a commutator above ``tol`` is
    therefore a certificate that no basis exists and the verdict is
    NONZERO even though no single failing basis can be exhibited.
    Degenerate cases with commuting probes whose candidates all fail are
    INDETERMINATE — never a guessed NONZERO.  ``tol`` must be a finite
    number >= 0, else ValueError.  ``rho_ae`` is validated to
    ``DEFAULT_DENSITY_TOL``; for a state that already passed
    :func:`validate_density_matrix`, call :func:`discord_verdict`.
    """
    check_tolerance(tol)
    rho = validate_density_matrix(rho_ae, name="rho_ae")
    return discord_verdict(rho, dim_a, dim_e, tol, seed)


def discord_verdict(rho, dim_a: int, dim_e: int, tol: float, seed: int) -> DiscordVerdict:
    """:func:`has_vqd` of a matrix that already passed
    :func:`validate_density_matrix`, at a ``tol`` already checked, without
    validating either again."""
    if rho.shape[0] != dim_a * dim_e:
        raise ShapeError(f"shape {rho.shape} does not factor as {dim_a}x{dim_e}")
    rho_a = partial_trace(rho, dim_a, dim_e, side="E")
    w, v_a = hermitian_eigen(rho_a)
    nondegenerate = bool(np.all(np.diff(w) > DEGENERACY_GAP))

    if nondegenerate:
        defect = _pinching_defect(rho, v_a, dim_a, dim_e)
        if defect <= tol:
            return DiscordVerdict(VQD, v_a, defect)
        return DiscordVerdict(NONZERO, v_a, defect)

    rng = np.random.default_rng(seed)
    rho4 = rho.reshape(dim_a, dim_e, dim_a, dim_e)
    t1 = _probe_marginal(rho4, _random_hermitian(dim_e, rng))
    t2 = _probe_marginal(rho4, _random_hermitian(dim_e, rng))
    commutator = float(np.abs(t1 @ t2 - t2 @ t1).max())
    candidates = []
    if commutator <= tol:
        candidates.append(_refined_eigenbasis([t1, t2, rho_a]))
    candidates.append(v_a)

    best_defect = np.inf
    best_basis = None
    for basis in candidates:
        defect = _pinching_defect(rho, basis, dim_a, dim_e)
        if defect < best_defect:
            best_defect, best_basis = defect, basis
    if best_defect <= tol:
        return DiscordVerdict(VQD, best_basis, float(best_defect))
    if commutator > tol:
        return DiscordVerdict(NONZERO, None, float(best_defect))
    return DiscordVerdict(INDETERMINATE, None, float(best_defect))
