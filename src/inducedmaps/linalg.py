"""Dense complex linear algebra for small bipartite operator problems.

Everything here is a pure function over 2-D complex128 numpy arrays.
Matrices are small (dims well below 100), so dense LAPACK routines are
used throughout and no sparse or structured paths exist.
"""

from typing import NamedTuple

import numpy as np

from .errors import HermiticityError, ShapeError, SizeError, ValidationError

# Ceiling on tensor-product output rows; guards against runaway dimensions.
MAX_TENSOR_ROWS = 4096

# Default tolerance for hermiticity checks, in max-entry norm.
DEFAULT_HERM_TOL = 1e-9


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix."""

    eigenvalues: np.ndarray
    """Real eigenvalues in ascending order."""

    eigenvectors: np.ndarray
    """Orthonormal eigenvectors as columns, aligned with ``eigenvalues``."""


def check_tolerance(value, name: str = "tol") -> float:
    """Return ``value`` if it is a finite number >= 0, else raise ValueError.

    A negative or NaN tolerance turns every ``x < -tol`` test upside down
    and an infinite one makes it vacuous, so verdicts built on them are
    meaningless.
    """
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value}")
    return value


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def frozen(a, dtype=complex) -> np.ndarray:
    """Read-only copy of ``a`` as an array of ``dtype``."""
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


def share_on_deepcopy(record, memo):
    """``__deepcopy__`` of a frozen record whose arrays are all read-only.

    The record cannot change, so a deep copy is the record itself; a real
    copy would only rebuild its arrays as writeable ones.
    """
    return record


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D complex array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ShapeError(f"{name} must be a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a square 2-D complex array with finite entries."""
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {m.shape}")
    return m


def hermitian_deviation(m: np.ndarray) -> float:
    """Max-entry norm of ``m - m†``."""
    return float(np.abs(m - dagger(m)).max())


def tensor(a, b) -> np.ndarray:
    """Kronecker product ``a ⊗ b``.

    Entry ``((i*rb + k), (j*cb + l))`` of the result is ``a[i, j] * b[k, l]``
    where ``(rb, cb)`` is the shape of ``b``.  Raises :class:`SizeError` when
    the output would have more than ``MAX_TENSOR_ROWS`` rows.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    rows = a.shape[0] * b.shape[0]
    if rows > MAX_TENSOR_ROWS:
        raise SizeError(
            f"tensor product would have {rows} rows, above the ceiling {MAX_TENSOR_ROWS}"
        )
    return np.kron(a, b)


def partial_trace(m, dim_a: int, dim_e: int, side: str = "E") -> np.ndarray:
    """Trace out one tensor factor of an operator on a ``dim_a * dim_e`` space.

    ``side="E"`` traces over the second (environment) factor and returns a
    ``dim_a x dim_a`` matrix; ``side="A"`` traces over the first factor and
    returns ``dim_e x dim_e``.
    """
    m = as_square(m, "m")
    n = dim_a * dim_e
    if dim_a < 1 or dim_e < 1 or m.shape[0] != n:
        raise ShapeError(
            f"matrix of shape {m.shape} does not factor as {dim_a}x{dim_e}"
        )
    t = m.reshape(dim_a, dim_e, dim_a, dim_e)
    if side == "E":
        return np.einsum("iaja->ij", t)
    if side == "A":
        return np.einsum("iaib->ab", t)
    raise ValueError(f"side must be 'A' or 'E', got {side!r}")


def check_hermitian(m, tol: float) -> np.ndarray:
    """:func:`as_square` of ``m``; HermiticityError if ``max|m - m†| > tol``."""
    m = as_square(m, "m")
    dev = hermitian_deviation(m)
    if dev > tol:
        raise HermiticityError(
            f"hermiticity deviation {dev:.3e} exceeds tolerance {tol:.3e}"
        )
    return m


def hermitian_eigen(m, tol: float = DEFAULT_HERM_TOL) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``m`` must pass :func:`check_hermitian` at ``tol``; the decomposition is
    taken of the Hermitian part ``(m + m†)/2``, which keeps the result
    deterministic and exactly reconstructible.
    """
    m = check_hermitian(m, tol)
    w, v = np.linalg.eigh((m + dagger(m)) / 2.0)
    return Spectrum(w, v)


def is_psd(m, tol: float = DEFAULT_HERM_TOL) -> tuple[bool, float]:
    """Positive-semidefiniteness check for a Hermitian matrix.

    Returns ``(ok, min_eig)`` where ``ok`` is true iff the smallest
    eigenvalue is at least ``-tol``.  The eigenvalue is always returned so
    callers can report how badly positivity fails.
    """
    w, _ = hermitian_eigen(m, tol)
    lam = float(w[0])
    return lam >= -tol, lam


def hadamard(a, b) -> np.ndarray:
    """Entrywise (Schur) product of two same-shape matrices.

    The Schur product of two positive semidefinite matrices is again
    positive semidefinite: it is a principal submatrix of their tensor
    product, taken on the paired index ``(k, k)``.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return a * b
