"""Reference fixtures and seeded random generators for states and ensembles.

The fixed fixtures back the reproduction commands: the Bell state with a
CNOT is the canonical non-positive affine map, and the four-dimensional
two-block ensemble is the worked example whose rescaled matrices are
manifestly PSD.  The random generators produce the ensemble families the
acceptance suite samples from; all take an explicit seed or Generator.
"""

import numpy as np

from .linalg import complex_normals
from .search import haar_unitary
from .states import EnsembleTerm, SeparableEnsemble


def bell_density() -> np.ndarray:
    """Density matrix of (|00> + |11>)/sqrt(2) on two qubits."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def cnot() -> np.ndarray:
    """CNOT with the first (system) qubit as control."""
    u = np.eye(4, dtype=complex)
    u[[2, 3]] = u[[3, 2]]
    return u


def check_weight(p1) -> float:
    """Return ``p1`` if it lies strictly between 0 and 1, as the first
    weight of :func:`four_block_ensemble` must, else raise ValueError."""
    if not 0.0 < p1 < 1.0:
        raise ValueError(f"p1 must lie strictly between 0 and 1, got {p1}")
    return p1


def four_block_ensemble(p1: float = 0.5) -> SeparableEnsemble:
    """Two-term d=4 ensemble with coherent system blocks {0,1} and {2,3}.

    The first system factor is the pure state (|0>+|1>)/sqrt(2), the second
    (|2>-|3>)/sqrt(2), so the supports are orthogonal 2-dimensional-block
    aligned and every within-block entry is nonzero.  The environment
    factors are the qubit |0><0| and a mixed 2x2 matrix.  ``p1`` must
    pass :func:`check_weight`.
    """
    check_weight(p1)
    plus = np.zeros(4, dtype=complex)
    plus[0] = plus[1] = 1.0 / np.sqrt(2.0)
    minus = np.zeros(4, dtype=complex)
    minus[2] = 1.0 / np.sqrt(2.0)
    minus[3] = -1.0 / np.sqrt(2.0)
    rho_e_first = np.diag([1.0, 0.0]).astype(complex)
    rho_e_second = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    terms = (
        EnsembleTerm(p1, np.outer(plus, plus.conj()), rho_e_first),
        EnsembleTerm(1.0 - p1, np.outer(minus, minus.conj()), rho_e_second),
    )
    return SeparableEnsemble(4, 2, terms)


def random_density(dim: int, rng) -> np.ndarray:
    """Full-rank random density matrix (normalized Wishart draw)."""
    g = complex_normals([np.random.default_rng(rng)], (dim, dim))[0]
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_vqd_ensemble(
    dim_a: int, dim_e: int, rng, haar_basis: bool = False
) -> SeparableEnsemble:
    """Classical-quantum ensemble: orthonormal rank-1 system factors.

    Weights are drawn away from zero and each term carries an independent
    random environment state, so the assembled state has vanishing discord
    in the chosen measurement basis.  By default that basis is the
    computational one, which keeps the coherence-block decomposition
    aligned with the classical structure (the alignment the CP guarantee
    for induced maps depends on); ``haar_basis=True`` rotates the system
    factors into a random orthonormal basis instead, which preserves the
    discord verdict but not the alignment.
    """
    rng = np.random.default_rng(rng)
    weights = rng.uniform(0.5, 1.5, size=dim_a)
    weights /= weights.sum()
    basis = haar_unitary(dim_a, rng) if haar_basis else np.eye(dim_a, dtype=complex)
    terms = tuple(
        EnsembleTerm(
            float(weights[k]),
            np.outer(basis[:, k], basis[:, k].conj()),
            random_density(dim_e, rng),
        )
        for k in range(dim_a)
    )
    return SeparableEnsemble(dim_a, dim_e, terms)


def random_coherent_block_ensemble(rng) -> SeparableEnsemble:
    """Two-term d=4 ensemble with random coherent states on aligned blocks.

    Term 1 lives on computational block {0,1}, term 2 on {2,3}; each block
    factor is a full-rank random 2x2 density matrix (generically nonzero
    in every entry, hence internally coherent), and the weights stay away
    from the boundary; each term's environment factor is a random qubit
    state.  The block-support condition holds for these ensembles, and
    so does the per-term condition: every rescaled matrix is PSD.
    """
    rng = np.random.default_rng(rng)
    p1 = float(rng.uniform(0.3, 0.7))
    rho_a_1 = np.zeros((4, 4), dtype=complex)
    rho_a_1[:2, :2] = random_density(2, rng)
    rho_a_2 = np.zeros((4, 4), dtype=complex)
    rho_a_2[2:, 2:] = random_density(2, rng)
    terms = (
        EnsembleTerm(p1, rho_a_1, random_density(2, rng)),
        EnsembleTerm(1.0 - p1, rho_a_2, random_density(2, rng)),
    )
    return SeparableEnsemble(4, 2, terms)
