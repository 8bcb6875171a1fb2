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

# Tolerance for ``U†U = I`` in max-entry norm.
DEFAULT_UNITARITY_TOL = 1e-10


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


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Hermitian parts ``(a + a†)/2`` of the matrices in the last two axes of ``a``.

    Built in place in one new array, so a stack of matrices needs one copy
    rather than three.
    """
    h = np.conjugate(a).swapaxes(-1, -2)
    h += a
    h /= 2.0
    return h


def check_unitaries(us: np.ndarray) -> np.ndarray:
    """Return the stack ``us`` if every ``U†U = I`` to ``DEFAULT_UNITARITY_TOL``.

    Max-entry norm, one stacked product for the whole stack; the first
    failing deviation is reported.  A non-finite matrix has a NaN
    deviation and fails too.
    """
    dev = np.abs(us.conj().swapaxes(-1, -2) @ us - np.eye(us.shape[-1]))
    dev = dev.max(axis=(-2, -1))
    bad = ~(dev <= DEFAULT_UNITARITY_TOL)
    if bad.any():
        raise ValidationError(f"matrix is not unitary: deviation {dev[bad][0]:.3e}")
    return us


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


def hermitian_spectra(ms: np.ndarray, tol: float = DEFAULT_HERM_TOL) -> Spectrum:
    """Eigendecompositions of the matrices in a ``(T, d, d)`` stack.

    Every matrix must be finite (else ValidationError) and within ``tol``
    of Hermitian, ``max|m - m†| <= tol`` (else HermiticityError); the first
    failing matrix is reported.  Each decomposition is taken of the
    Hermitian part ``(m + m†)/2``, which keeps the result deterministic and
    exactly reconstructible; one ``eigh`` call serves the stack, and
    ``eigenvalues[t]`` is ascending for each ``t``.
    """
    dev = np.abs(ms - ms.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    # A non-finite entry makes its deviation inf or NaN, so it fails too.
    if not dev.max() <= tol:
        i = int(np.argmax(~(dev <= tol)))
        if not np.isfinite(ms[i]).all():
            raise ValidationError("m contains non-finite entries")
        raise HermiticityError(f"hermiticity deviation {dev[i]:.3e} exceeds tolerance {tol:.3e}")
    return Spectrum(*np.linalg.eigh(hermitian_part(ms)))


def hermitian_eigen(m, tol: float = DEFAULT_HERM_TOL) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    The one-element case of :func:`hermitian_spectra`, for a nonempty
    square ``m`` (else ShapeError).
    """
    w, v = hermitian_spectra(as_square(m, "m")[None], tol)
    return Spectrum(w[0], v[0])


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
