"""Dense complex linear algebra for small bipartite operator problems.

Pure functions over complex128 numpy arrays: 2-D matrices, and for
:func:`hermitian_part`, :func:`check_hermitian` and :func:`check_unitaries`
also ``(T, d, d)`` stacks.  Matrices are small (dims well below 100), so
dense LAPACK routines are used throughout.
"""

import operator
from typing import NamedTuple

import numpy as np

from .errors import HermiticityError, ShapeError, SizeError, ValidationError

# Ceiling on tensor-product output rows; guards against runaway dimensions.
MAX_TENSOR_ROWS = 4096

# Hermiticity floor, in max-entry norm: check_hermitian gates every matrix
# at the larger of its tol and this, so rounding in products of unit-trace
# operators never fails a check at a tighter tol.
DEFAULT_HERM_TOL = 1e-9

# Default decision tolerance on eigenvalues, shift norms and pinching
# defects, in absolute units.  It assumes unit-trace inputs and outputs,
# whose entries and eigenvalues are at most 1 in magnitude.
DEFAULT_TOL = 1e-9

# Tolerance for ``U†U = I`` in max-entry norm.
DEFAULT_UNITARITY_TOL = 1e-10

_FLOAT_MAX = float(np.finfo(float).max)


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


def check_integer(value, name: str) -> int:
    """Return ``value`` as an ``int`` if it is an integer, else raise ValueError.

    numpy integers pass and ``bool`` does not.  A float or NaN count or
    seed would pass a range test and fail later, inside ``range`` or
    ``SeedSequence``.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_seed(value) -> int:
    """Return ``value`` as an ``int`` if it is an integer >= 0, as numpy
    seeds must be, else raise ValueError (see :func:`check_integer`)."""
    seed = check_integer(value, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def check_count(value, name: str, most: int) -> int:
    """Return ``value`` as an ``int`` if it is an integer from 1 to
    ``most``, else raise ValueError (see :func:`check_integer`)."""
    count = check_integer(value, name)
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    if count > most:
        raise ValueError(f"{name} must be at most {most}, got {count}")
    return count


def check_factors(m: np.ndarray, dim_a: int, dim_e: int) -> np.ndarray:
    """Return ``m`` if its side is ``dim_a * dim_e`` with both factors >= 1,
    else raise ShapeError."""
    if dim_a < 1 or dim_e < 1 or m.shape[0] != dim_a * dim_e:
        raise ShapeError(f"shape {m.shape} does not factor as {dim_a}x{dim_e}")
    return m


def complex_normals(rngs, shape: tuple[int, ...]) -> np.ndarray:
    """``(len(rngs), *shape)`` complex standard normals, row ``t`` from ``rngs[t]``.

    Each generator fills its row's real parts, then its imaginary parts,
    so a row is the same draw whatever the other rows hold.
    """
    draws = np.empty((2, len(rngs), *shape))
    for rng, re, im in zip(rngs, draws[0], draws[1]):
        rng.standard_normal(out=re)
        rng.standard_normal(out=im)
    return draws[0] + 1j * draws[1]


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
    h *= 0.5
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
    m = check_factors(as_square(m, "m"), dim_a, dim_e)
    t = m.reshape(dim_a, dim_e, dim_a, dim_e)
    if side == "E":
        return np.einsum("iaja->ij", t)
    if side == "A":
        return np.einsum("iaib->ab", t)
    raise ValueError(f"side must be 'A' or 'E', got {side!r}")


def check_hermitian(ms: np.ndarray, tol: float, name: str) -> np.ndarray:
    """Hermitian parts of a ``(d, d)`` matrix or of a ``(T, d, d)`` stack.

    Every matrix must be finite and within ``max(DEFAULT_HERM_TOL, tol)``
    of Hermitian in max-entry norm, at any ``tol`` up to ``inf``: the
    floor is the package's one Hermiticity rule, so rounding never fails
    a check at a tighter ``tol``.  The first failing matrix raises
    ValidationError if it has a non-finite entry, else HermiticityError
    (also when a finite matrix's deviation overflows), naming that bound.
    """
    # One conjugate transpose serves the deviation and then, in place, the
    # Hermitian part, with the arithmetic of hermitian_part.
    ct = np.conjugate(ms).swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs(ms - ct)
    bound = max(DEFAULT_HERM_TOL, tol)
    # Capping the bound at the largest float makes the one comparison fail
    # on an infinite or NaN deviation too; an empty stack deviates by 0.
    limit = min(bound, _FLOAT_MAX)
    if not dev.max(initial=0.0) <= limit:
        # Only a failure is traced back to its matrix.
        stack = ms.reshape(-1, *ms.shape[-2:])
        worst = dev.reshape(len(stack), -1).max(axis=1)
        i = int(np.argmin(worst <= limit))
        if not np.isfinite(stack[i]).all():
            raise ValidationError(f"{name} contains non-finite entries")
        raise HermiticityError(f"{name} deviates from Hermitian by {worst[i]:.3e}, above {bound:.3e}")
    ct += ms
    ct *= 0.5
    return ct


def hermitian_eigen(m, tol: float = DEFAULT_HERM_TOL) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``m`` is a nonempty square matrix (else ShapeError) that passes
    :func:`check_hermitian` at ``tol`` (floored at ``DEFAULT_HERM_TOL``);
    the decomposition of its Hermitian part is deterministic and exactly
    reconstructible.
    """
    return Spectrum(*np.linalg.eigh(check_hermitian(as_square(m, "m"), tol, "m")))


def is_psd(m, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Positive-semidefiniteness check for a Hermitian matrix.

    Returns ``(ok, min_eig)`` where ``ok`` is true iff the smallest
    eigenvalue is at least ``-tol``.  The eigenvalue is always returned so
    callers can report how badly positivity fails.  ``m`` goes through
    :func:`hermitian_eigen` at the same ``tol``: only that Hermiticity
    check is floored at ``DEFAULT_HERM_TOL``, not the eigenvalue test.
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
