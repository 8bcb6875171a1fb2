"""Separable ensembles, coherence-block decompositions, and the
block-support positivity condition.

A bipartite density matrix on A ⊗ E decomposes into dim_a x dim_a blocks
indexed by the A basis pair ``(k, l)``.  Each block is stored as a trace
coefficient together with a normalized environment factor; blocks whose
trace vanishes while the block itself does not cannot be divided by their
trace, so a state with one has no rescaled state, and they are tracked as
a class of their own.
"""

from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ShapeError, SizeError, ValidationError
from .linalg import (
    DEFAULT_HERM_TOL,
    DEFAULT_TOL,
    as_square,
    check_factors,
    check_hermitian,
    check_tolerance,
    record,
    tensor,
)

# Trace-1 / hermiticity / positivity tolerance for density matrix validation.
DEFAULT_DENSITY_TOL = 1e-9

# A block trace below this magnitude counts as zero.
BLOCK_TRACE_TOL = 1e-10

# A block with every entry below this magnitude counts as the zero block.
BLOCK_ZERO_TOL = 1e-10

# Ceiling on the terms of an ensemble.  Validating the terms and
# assembling the state touch every term, so the term count bounds their
# time and memory.
MAX_TERMS = 256

SL = "SL"
NON_SL = "NON_SL"


class PairClass(IntEnum):
    """Classification of one coherence block of a bipartite state."""

    ZERO_BLOCK = 0
    UNIT_TRACE = 1
    TRACELESS_NONZERO = 2


class NonzeroPairs(NamedTuple):
    """Read-only index of the nonzero coherence blocks of a decomposition.

    Pair ``p`` is block ``(k[p], l[p])``, in row-major order; ``blocks``
    and ``coeffs`` are gathered from the decomposition, and ``unit`` is
    True for UNIT_TRACE pairs and False for TRACELESS_NONZERO ones.
    """

    k: np.ndarray
    l: np.ndarray
    blocks: np.ndarray
    coeffs: np.ndarray
    unit: np.ndarray


def validate_density_matrix(rho, name: str = "rho"):
    """Check hermiticity, unit trace, and positivity; return the matrix.

    All three checks use ``DEFAULT_DENSITY_TOL`` (hermiticity in max-entry
    norm; its failure raises HermiticityError).  This is the one-element
    case of :func:`check_densities`.
    """
    rho = as_square(rho, name)
    check_densities(rho[None], name)
    return rho


def check_densities(rhos: np.ndarray, name: str) -> np.ndarray:
    """:func:`validate_density_matrix` of every matrix in a ``(T, n, n)`` stack.

    Each check runs once on the whole stack, in the same order, and the
    first matrix that fails it is reported (Hermiticity by
    :func:`~inducedmaps.linalg.check_hermitian`).  Returns ``rhos``.
    """
    herm = check_hermitian(rhos, DEFAULT_DENSITY_TOL, name)
    tr = rhos.trace(axis1=1, axis2=2)
    bad = np.abs(tr - 1.0) > DEFAULT_DENSITY_TOL
    if bad.any():
        raise ValidationError(f"{name} has trace {complex(tr[bad][0]):.12g}, expected 1")
    lam = np.linalg.eigvalsh(herm)[:, 0]
    bad = ~(lam >= -DEFAULT_DENSITY_TOL)
    if bad.any():
        raise ValidationError(f"{name} has negative eigenvalue {lam[bad][0]:.3e}")
    return rhos


def check_term_count(count: int) -> None:
    """Raise SizeError if an ensemble of ``count`` terms is above ``MAX_TERMS``."""
    if count > MAX_TERMS:
        raise SizeError(f"ensemble has {count} terms, above the ceiling {MAX_TERMS}")


@record()
class EnsembleTerm:
    """One weighted product term ``p * (rho_a ⊗ rho_e)``."""

    p: float
    rho_a: np.ndarray
    rho_e: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.p) or self.p < 0:
            raise ValidationError(f"term weight must be >= 0, got {self.p}")
        validate_density_matrix(self.rho_a, name="rho_a")
        validate_density_matrix(self.rho_e, name="rho_e")


@record()
class SeparableEnsemble:
    """Finite mixture of product states on A ⊗ E.

    Terms are validated on construction: there are 1 to ``MAX_TERMS`` of
    them (more raise SizeError), weights are nonnegative and sum to 1
    within ``DEFAULT_DENSITY_TOL``, and every factor is a valid density
    matrix of the declared dimension.  The assembled ``state`` and its
    coherence-block ``decomposition`` are derived on first use and cached;
    both are read-only and the terms are immutable, so the cache cannot
    go stale.  The state is validated as ``rho_ae`` when it is assembled,
    so valid terms whose sum rounds outside ``DEFAULT_DENSITY_TOL`` raise
    on the first read of either.
    """

    dim_a: int
    dim_e: int
    terms: tuple[EnsembleTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValidationError("ensemble needs at least one term")
        check_term_count(len(self.terms))
        for t in self.terms:
            for side, rho, dim in (("a", t.rho_a, self.dim_a), ("e", t.rho_e, self.dim_e)):
                if rho.shape != (dim, dim):
                    raise ShapeError(f"rho_{side} shape {rho.shape} does not match dim_{side} {dim}")
        total = sum(t.p for t in self.terms)
        if abs(total - 1.0) > DEFAULT_DENSITY_TOL:
            raise ValidationError(f"term weights sum to {total:.12g}, expected 1")

    @cached_property
    def state(self) -> np.ndarray:
        """Read-only total density matrix ``sum_i p_i (rho_a_i ⊗ rho_e_i)``,
        validated as ``rho_ae`` (:func:`validate_density_matrix`)."""
        n = self.dim_a * self.dim_e
        rho = np.zeros((n, n), dtype=complex)
        for t in self.terms:
            rho += t.p * tensor(t.rho_a, t.rho_e)
        validate_density_matrix(rho, name="rho_ae")
        rho.flags.writeable = False
        return rho

    @cached_property
    def decomposition(self) -> "SLDecomposition":
        """``decompose_blocks(state, dim_a, dim_e)``, computed once; the
        state was validated when it was assembled."""
        return split_blocks(self.state, self.dim_a, self.dim_e)


@record(pair_class=np.int8)
class SLDecomposition:
    """Coherence-block decomposition of a bipartite density matrix.

    ``coeffs[k, l]`` carries the trace of block ``(k, l)`` and
    ``blocks[k, l]`` the matching dim_e x dim_e factor, normalized so that
    the physical block is always ``coeffs[k, l] * blocks[k, l]``:

    - UNIT_TRACE: ``coeffs`` holds the block trace, ``blocks`` is unit trace;
    - TRACELESS_NONZERO: ``coeffs`` is fixed to 1, ``blocks`` is the raw
      block (only the product is meaningful for these pairs);
    - ZERO_BLOCK: both are zero.
    """

    dim_a: int
    dim_e: int
    coeffs: np.ndarray
    blocks: np.ndarray
    pair_class: np.ndarray

    @cached_property
    def is_sl(self) -> bool:
        """True when no block is traceless yet nonzero (computed once)."""
        return not bool(np.any(self.pair_class == PairClass.TRACELESS_NONZERO))

    @cached_property
    def nonzero_pairs(self) -> NonzeroPairs:
        """The pairs whose block is not ZERO_BLOCK (computed once)."""
        k, l = np.nonzero(self.pair_class != PairClass.ZERO_BLOCK)
        unit = self.pair_class[k, l] == PairClass.UNIT_TRACE
        pairs = NonzeroPairs(k, l, self.blocks[k, l], self.coeffs[k, l], unit)
        for a in pairs:
            a.flags.writeable = False
        return pairs


@record()
class ConditionReport:
    """Outcome of the block-support condition: whether it holds, the SL
    class of the state, and ``λmin`` of its rescaled state (None for a
    NON_SL state, which has no rescaled state).
    """

    holds: bool
    sl_class: str
    min_eig: float | None


def assemble(e: SeparableEnsemble) -> np.ndarray:
    """Total density matrix of ``e``: its cached, read-only ``e.state``."""
    return e.state


def decompose_blocks(rho_ae, dim_a: int, dim_e: int) -> SLDecomposition:
    """Split a bipartite density matrix into classified coherence blocks.

    ``rho_ae`` is validated to ``DEFAULT_DENSITY_TOL``.  Block ``(k, l)``
    is the dim_e x dim_e submatrix at row block ``k`` and column block
    ``l``.  Its trace decides the class: above ``BLOCK_TRACE_TOL`` in
    magnitude the block divides through and is UNIT_TRACE; otherwise a
    block with any entry above ``BLOCK_ZERO_TOL`` is TRACELESS_NONZERO
    (stored raw with coefficient 1), and the rest are ZERO_BLOCK.  For an
    ensemble, read the cached ``SeparableEnsemble.decomposition`` instead.
    """
    return split_blocks(validate_density_matrix(rho_ae, name="rho_ae"), dim_a, dim_e)


def split_blocks(rho, dim_a: int, dim_e: int) -> SLDecomposition:
    """:func:`decompose_blocks` of a matrix that already passed
    :func:`validate_density_matrix`, without validating it again.

    All ``dim_a²`` blocks are classified at once on a ``(k, l, e, f)``
    view of ``rho``; each block trace is summed along its own diagonal, as
    ``np.trace`` of the block would, so the result is bit for bit that of
    a per-block loop.
    """
    view = check_factors(rho, dim_a, dim_e).reshape(dim_a, dim_e, dim_a, dim_e).swapaxes(1, 2)
    # A contiguous diagonal makes the trace a reduction along the last axis.
    tr = np.ascontiguousarray(view.diagonal(axis1=2, axis2=3)).sum(axis=-1)
    unit = np.abs(tr) > BLOCK_TRACE_TOL
    raw = ~unit & (np.abs(view).max(axis=(2, 3)) > BLOCK_ZERO_TOL)
    coeffs = np.where(unit, tr, np.where(raw, 1.0, 0.0))
    scaled = view / np.where(unit, tr, 1.0)[:, :, None, None]
    blocks = np.where(unit[:, :, None, None], scaled, np.where(raw[:, :, None, None], view, 0.0))
    pair_class = np.where(
        unit, PairClass.UNIT_TRACE, np.where(raw, PairClass.TRACELESS_NONZERO, PairClass.ZERO_BLOCK)
    )
    return SLDecomposition(dim_a, dim_e, coeffs, blocks, pair_class)


def check_condition(e: SeparableEnsemble, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Evaluate the block-support positivity condition on the rescaled state.

    The condition holds when the assembled state is SL class and its
    *rescaled state* ``R`` (block ``(k, l)`` divided by its trace, 0 on
    ZERO_BLOCK pairs) is positive semidefinite within
    ``max(tol, DEFAULT_HERM_TOL)``, the rounding floor of
    :func:`~inducedmaps.linalg.check_hermitian`: an exact block state
    rounds to eigenvalues of order -1e-16.  ``min_eig`` is ``λmin(R)``,
    from one ``eigvalsh``; a NON_SL source fails with ``min_eig`` None.
    ``tol`` must be a finite number >= 0, else ValueError.

    ``R ⪰ 0`` holds exactly when ``rho_AE = ⊕_b Γ_b ⊗ τ_b`` on
    computational-basis block projectors: ``Tr_E R`` is the 0/1 pattern of
    the nonzero blocks, which is PSD only as an all-ones pattern on each
    part of a partition of the basis, and by Cauchy–Schwarz each rank-one
    piece of ``R`` is then ``1_b ⊗ w``.  So a passing source is
    classical–quantum in the computational basis, up to a rotation inside
    each block ``b``.  The map of ``U`` is ``Tr_E[U ((X ⊗ 1) ∘ R) U†]``,
    and a Schur multiplier by a PSD matrix is CP, so ``R ⪰ 0`` makes
    every induced map CP.  For an ensemble ``Σ_i p_i rho_a_i ⊗ rho_e_i``
    with ``Γ = Σ_i p_i rho_a_i``, term ``i`` rescales entrywise to
    ``ϱ^(i)[k, l] = rho_a_i[k, l] / Γ[k, l]`` (0 where both vanish), and
    ``R = Σ_i p_i ϱ^(i) ⊗ rho_e_i``.  So the paper's per-term condition
    (every ``ϱ^(i)`` PSD within ``tol``) gives ``λmin(R) >= -tol``: it
    implies this test, which reads the state alone and not how the
    ensemble writes it.
    """
    check_tolerance(tol)
    d = e.decomposition
    if not d.is_sl:
        return ConditionReport(holds=False, sl_class=NON_SL, min_eig=None)
    n = d.dim_a * d.dim_e
    # R is sum_kl |k><l| ⊗ blocks[k,l]: the state rebuilt without the
    # coefficients, through the inverse of split_blocks' (k, l, e, f) view.
    lam = float(np.linalg.eigvalsh(d.blocks.swapaxes(1, 2).reshape(n, n))[0])
    return ConditionReport(holds=lam >= -max(tol, DEFAULT_HERM_TOL), sl_class=SL, min_eig=lam)
