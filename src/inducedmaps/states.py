"""Separable ensembles, coherence-block decompositions, and the
block-support positivity condition.

A bipartite density matrix on A ⊗ E decomposes into dim_a x dim_a blocks
indexed by the A basis pair ``(k, l)``.  Each block is stored as a trace
coefficient together with a normalized environment factor; blocks whose
trace vanishes while the block itself does not are the obstruction to
entrywise rescaling and are tracked as a class of their own.
"""

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CancellationError, NonSLError, ShapeError, SizeError, ValidationError
from .linalg import (
    DEFAULT_HERM_TOL,
    DEFAULT_TOL,
    as_square,
    check_hermitian,
    check_tolerance,
    frozen,
    hadamard,
    hermitian_part,
    share_on_deepcopy,
    tensor,
)

# Trace-1 / hermiticity / positivity tolerance for density matrix validation.
DEFAULT_DENSITY_TOL = 1e-9

# A block trace below this magnitude counts as zero.
BLOCK_TRACE_TOL = 1e-10

# A block with every entry below this magnitude counts as the zero block.
BLOCK_ZERO_TOL = 1e-10

# Eigenvalue cutoff defining the support projector of a component state.
SUPPORT_CUTOFF = 1e-9

# Operator-norm tolerance for pairwise orthogonality of support projectors.
ORTHO_TOL = 1e-9

# Ceiling on the terms of an ensemble.  check_condition compares every pair
# of terms and keeps a witness per overlapping pair, and full-rank factors
# overlap in every pair, so the term count bounds its time and memory.
MAX_TERMS = 256

SL = "SL"
NON_SL = "NON_SL"

CANCELLATION = "CANCELLATION"

ROUTE_RESCALED = "RESCALED_PSD"
ROUTE_BLOCK = "BLOCK_PROJECTOR"
ROUTE_NONE = "NONE"


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


@dataclass(frozen=True)
class EnsembleTerm:
    """One weighted product term ``p * (rho_a ⊗ rho_e)``."""

    p: float
    rho_a: np.ndarray
    rho_e: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.p) or self.p < 0:
            raise ValidationError(f"term weight must be >= 0, got {self.p}")
        object.__setattr__(
            self, "rho_a", frozen(validate_density_matrix(self.rho_a, name="rho_a"))
        )
        object.__setattr__(
            self, "rho_e", frozen(validate_density_matrix(self.rho_e, name="rho_e"))
        )

    __deepcopy__ = share_on_deepcopy


@dataclass(frozen=True)
class SeparableEnsemble:
    """Finite mixture of product states on A ⊗ E.

    Terms are validated on construction: there are 1 to ``MAX_TERMS`` of
    them (more raise SizeError), weights are nonnegative and sum to 1
    within ``DEFAULT_DENSITY_TOL``, and every factor is a valid density
    matrix of the declared dimension.  The assembled ``state`` and its
    coherence-block ``decomposition`` are derived on first use and cached;
    both are read-only and the terms are immutable, so the cache cannot
    go stale.
    """

    dim_a: int
    dim_e: int
    terms: tuple[EnsembleTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValidationError("ensemble needs at least one term")
        if len(self.terms) > MAX_TERMS:
            raise SizeError(f"ensemble has {len(self.terms)} terms, above the ceiling {MAX_TERMS}")
        for t in self.terms:
            for side, rho, dim in (("a", t.rho_a, self.dim_a), ("e", t.rho_e, self.dim_e)):
                if rho.shape != (dim, dim):
                    raise ShapeError(f"rho_{side} shape {rho.shape} does not match dim_{side} {dim}")
        total = sum(t.p for t in self.terms)
        if abs(total - 1.0) > DEFAULT_DENSITY_TOL:
            raise ValidationError(f"term weights sum to {total:.12g}, expected 1")

    __deepcopy__ = share_on_deepcopy

    @cached_property
    def state(self) -> np.ndarray:
        """Read-only total density matrix ``sum_i p_i (rho_a_i ⊗ rho_e_i)``."""
        n = self.dim_a * self.dim_e
        rho = np.zeros((n, n), dtype=complex)
        for t in self.terms:
            rho += t.p * tensor(t.rho_a, t.rho_e)
        rho.flags.writeable = False
        return rho

    @cached_property
    def decomposition(self) -> "SLDecomposition":
        """``decompose_blocks(state, dim_a, dim_e)``, computed once."""
        return decompose_blocks(self.state, self.dim_a, self.dim_e)


@dataclass(frozen=True)
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

    def __post_init__(self):
        object.__setattr__(self, "coeffs", frozen(self.coeffs))
        object.__setattr__(self, "blocks", frozen(self.blocks))
        object.__setattr__(self, "pair_class", frozen(self.pair_class, np.int8))

    __deepcopy__ = share_on_deepcopy

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


@dataclass(frozen=True)
class RescaledSet:
    """Per-component entrywise ratios against the total block coefficients.

    ``matrices[i][k, l]`` is ``rho_a_i[k, l] / gamma[k, l]`` where ``gamma``
    is the weighted sum of all component matrices.  ``defined_mask`` is True
    where the ratio is a genuine quotient and False where the 0/0
    convention (entry set to 0) applied.
    """

    matrices: tuple[np.ndarray, ...]
    defined_mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(frozen(m) for m in self.matrices))
        object.__setattr__(self, "defined_mask", frozen(self.defined_mask, bool))

    __deepcopy__ = share_on_deepcopy


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the block-support condition with per-route detail.

    ``routes`` lists every route that holds; ``route`` is the first of
    them or ``"NONE"``.  ``rescaled_psd`` is None when that route could
    not be evaluated (``rescaled_blocked`` then names the reason,
    CANCELLATION or NON_SL).
    """

    holds: bool
    route: str
    routes: tuple[str, ...]
    sl_class: str
    rescaled_psd: bool | None
    rescaled_blocked: str | None
    block_projector: bool
    witnesses: tuple[dict, ...]


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
    n = dim_a * dim_e
    if dim_a < 1 or dim_e < 1 or rho.shape[0] != n:
        raise ShapeError(f"shape {rho.shape} does not factor as {dim_a}x{dim_e}")
    view = rho.reshape(dim_a, dim_e, dim_a, dim_e).swapaxes(1, 2)
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


def reassemble(d: SLDecomposition) -> np.ndarray:
    """Rebuild the bipartite matrix ``sum_kl coeffs[k,l] |k><l| ⊗ blocks[k,l]``."""
    # The inverse of split_blocks' (k, l, e, f) view.
    return (d.coeffs[:, :, None, None] * d.blocks).swapaxes(1, 2).reshape(d.dim_a * d.dim_e, -1)


def classify_sl(d: SLDecomposition) -> str:
    """``"SL"`` when every block is unit-trace or zero, else ``"NON_SL"``."""
    return SL if d.is_sl else NON_SL


def rescaled_matrices(e: SeparableEnsemble) -> RescaledSet:
    """Entrywise component-to-total ratios for an SL-class ensemble.

    With ``gamma = sum_i p_i rho_a_i``, component ``i`` rescales to
    ``rho_a_i[k, l] / gamma[k, l]`` wherever ``|gamma[k, l]|`` exceeds
    ``BLOCK_TRACE_TOL``.  Entries where both numerator and denominator
    vanish are set to 0 and flagged in ``defined_mask``; a vanishing
    denominator with a numerator above ``BLOCK_ZERO_TOL`` means the
    components cancel and raises :class:`CancellationError`.  The
    ensemble's cached ``decomposition`` must be SL class, else
    :class:`NonSLError` is raised.
    """
    d = e.decomposition
    if not d.is_sl:
        pairs = np.argwhere(d.pair_class == PairClass.TRACELESS_NONZERO)
        raise NonSLError(
            f"assembled state has traceless nonzero blocks at {pairs.tolist()}"
        )
    rho_as = np.stack([t.rho_a for t in e.terms])
    weights = np.array([t.p for t in e.terms])
    # The sum over the leading axis adds the terms in order.
    gamma = (weights[:, None, None] * rho_as).sum(axis=0)
    defined = np.abs(gamma) > BLOCK_TRACE_TOL
    stray = ~defined & (np.abs(rho_as) > BLOCK_ZERO_TOL)
    if stray.any():
        i = int(np.argmax(stray.any(axis=(1, 2))))
        raise CancellationError(
            f"component {i} is nonzero at {np.argwhere(stray[i]).tolist()} where the "
            "total coefficient vanishes; rescaling is indeterminate"
        )
    ratios = np.zeros_like(rho_as)
    np.divide(rho_as, gamma, out=ratios, where=defined)
    return RescaledSet(tuple(ratios), defined)


def _support_projectors(rhos: np.ndarray, cutoff: float) -> np.ndarray:
    # Projector onto the eigenvectors above cutoff of each validated matrix
    # in a (T, d, d) stack.  One eigh serves the stack; the products are
    # taken per rank, so each projector is the same matmul of the same
    # (d, rank) factor that a one-matrix projector would be.
    w, v = np.linalg.eigh(hermitian_part(rhos))
    ranks = (w > cutoff).sum(axis=1)
    projectors = np.empty_like(rhos)
    for r in set(ranks.tolist()):
        # eigh sorts ascending, so the kept eigenvectors are the last r.
        same = ranks == r
        keep = np.ascontiguousarray(v[same, :, v.shape[-1] - r :])
        projectors[same] = keep @ keep.conj().swapaxes(-1, -2)
    return projectors


def check_condition(
    e: SeparableEnsemble,
    tol: float = DEFAULT_TOL,
    support_cutoff: float = SUPPORT_CUTOFF,
    ortho_tol: float = ORTHO_TOL,
) -> ConditionReport:
    """Evaluate the block-support positivity condition along both routes.

    Route RESCALED_PSD holds when every rescaled component matrix is
    positive semidefinite (smallest eigenvalue >= ``-tol``).  Route
    BLOCK_PROJECTOR holds when the assembled state is SL class, each
    ``rho_a`` factor is its projection onto its support within
    ``max(tol, DEFAULT_HERM_TOL)`` in max-entry norm (the rounding floor
    of :func:`~inducedmaps.linalg.check_hermitian`), and the component
    supports are pairwise orthogonal (operator norm of each
    projector product <= ``ortho_tol``); orthogonal supports always extend
    to a complete family of orthogonal block projectors, so this matches
    the projector formulation exactly.  The condition holds when either
    route does.  Cancellation blocks the rescaled route only; the
    projector route is still evaluated.  A NON_SL source is reported
    without evaluating either route: ``rescaled_blocked`` is NON_SL, and
    each route has one NON_SL witness.  Every tolerance must be a finite
    number >= 0, else ValueError.

    One Hermiticity check and one ``eigh`` serve the rescaled matrices, and
    one ``eigh`` the support projectors of the ``rho_a`` factors.  The
    products of term ``i``'s projector with those of all terms ``j > i``
    are screened first: as ``‖P_i P_j‖₂ <= ‖P_i P_j‖_F <= dim_a
    max|(P_i P_j)_kl|``, a product whose bound is at most ``ortho_tol /
    2`` is never a witness.  One singular-value call per term takes the
    exact norms of the rest, so orthogonal supports take none and every
    reported overlap is that of the unscreened product.  Witnesses list
    failing terms, then failing pairs, in index order.
    """
    check_tolerance(tol)
    check_tolerance(support_cutoff, "support_cutoff")
    check_tolerance(ortho_tol, "ortho_tol")
    if not e.decomposition.is_sl:
        witnesses = tuple({"route": r, "error": NON_SL} for r in (ROUTE_RESCALED, ROUTE_BLOCK))
        return ConditionReport(
            holds=False, route=ROUTE_NONE, routes=(), sl_class=NON_SL, rescaled_psd=None,
            rescaled_blocked=NON_SL, block_projector=False, witnesses=witnesses,
        )

    witnesses = []
    rescaled_psd: bool | None = None
    rescaled_blocked: str | None = None
    try:
        rs = rescaled_matrices(e)
    except CancellationError as exc:
        rescaled_blocked = CANCELLATION
        witnesses.append({"route": ROUTE_RESCALED, "error": CANCELLATION, "detail": str(exc)})
    else:
        herm = check_hermitian(np.stack(rs.matrices), tol, "rescaled matrix")
        lam = np.linalg.eigh(herm)[0][:, 0]
        failing = np.flatnonzero(~(lam >= -tol))
        rescaled_psd = not failing.size
        witnesses += (
            {"route": ROUTE_RESCALED, "term": int(i), "min_eig": float(lam[i])}
            for i in failing
        )

    # The factors passed validate_density_matrix, whose Hermiticity gate
    # is check_hermitian at the same tolerance, so none is rechecked.
    rho_as = np.stack([t.rho_a for t in e.terms])
    projectors = _support_projectors(rho_as, support_cutoff)
    residual = np.abs(rho_as - projectors @ rho_as @ projectors).max(axis=(1, 2))
    start = len(witnesses)
    witnesses += (
        {"route": ROUTE_BLOCK, "term": int(i), "projection_residual": float(residual[i])}
        for i in np.flatnonzero(residual > max(tol, DEFAULT_HERM_TOL))
    )
    for i in range(len(projectors) - 1):
        products = projectors[i] @ projectors[i + 1 :]
        # Bounding the Frobenius norm by the largest entry, not by a sum
        # of squares, cannot underflow and drop a tiny overlap.
        near = np.flatnonzero(np.abs(products).max(axis=(1, 2)) * e.dim_a > ortho_tol / 2)
        if not len(near):
            continue
        overlap = np.linalg.svd(products[near], compute_uv=False).max(axis=-1)
        witnesses += (
            {"route": ROUTE_BLOCK, "pair": [i, i + 1 + k], "overlap": float(value)}
            for k, value in zip(near.tolist(), overlap.tolist())
            if value > ortho_tol
        )
    # The route holds when it adds no witness.
    block_projector = len(witnesses) == start

    routes = tuple(
        name
        for name, ok in ((ROUTE_RESCALED, rescaled_psd), (ROUTE_BLOCK, block_projector))
        if ok
    )
    return ConditionReport(
        holds=bool(routes),
        route=routes[0] if routes else ROUTE_NONE,
        routes=routes,
        sl_class=SL,
        rescaled_psd=rescaled_psd,
        rescaled_blocked=rescaled_blocked,
        block_projector=block_projector,
        witnesses=tuple(witnesses),
    )


def component_images(rho_prime, rescaled: RescaledSet) -> tuple[np.ndarray, ...]:
    """Entrywise products of an input state with each rescaled component.

    These are the effective per-component inputs in the decomposition of
    an induced map over an ensemble: when every rescaled matrix is
    positive semidefinite, each product is too (Schur product of positive
    semidefinite factors).
    """
    rho_prime = validate_density_matrix(rho_prime, name="rho_prime")
    return tuple(hadamard(rho_prime, m) for m in rescaled.matrices)
