"""Induced dynamical maps of open quantum systems.

Build bipartite system-environment states from separable ensembles,
decompose them into coherence blocks, evaluate a block-support condition
sufficient for every induced map to be CP, detect vanishing quantum
discord, induce the map of any joint unitary in affine form (linear images
plus shift), classify it via the Choi spectrum and positivity probing, and
search unitary families for positive-but-not-CP candidates.
"""

import types

from .discord import (
    INDETERMINATE,
    NONZERO,
    VQD,
    DiscordVerdict,
    has_vqd,
    pinching_defect,
)
from .errors import (
    HermiticityError,
    InducedMapsError,
    NotPsdError,
    PreconditionTheoremError,
    PreconditionVqdError,
    ShapeError,
    SizeError,
    ValidationError,
)
from .linalg import (
    Spectrum,
    dagger,
    hermitian_eigen,
    partial_trace,
    tensor,
)
from .maps import (
    CP,
    NO_VIOLATION_FOUND,
    NOT_CP,
    NOT_CP_AFFINE,
    VIOLATED,
    CpVerdict,
    InducedMap,
    PositivityProbe,
    choi_matrix,
    induce,
    is_cp,
    kraus_from_choi,
    probe_positivity,
    validate_unitary,
)
from .presets import (
    bell_density,
    cnot,
    four_block_ensemble,
    random_coherent_block_ensemble,
    random_density,
    random_vqd_ensemble,
)
from .search import (
    CLASS_AFFINE,
    CLASS_CANDIDATE,
    CLASS_CP,
    CLASS_NON_POSITIVE,
    CandidateReport,
    SearchConfig,
    classification_label,
    classify,
    filter_candidates,
    generator_unitary,
    haar_unitary,
    hunt,
    scan,
)
from .states import (
    NON_SL,
    SL,
    ConditionReport,
    EnsembleTerm,
    PairClass,
    SeparableEnsemble,
    SLDecomposition,
    assemble,
    check_condition,
    classify_sl,
    decompose_blocks,
    reassemble,
    validate_density_matrix,
)

__version__ = "0.1.0"

# Every name imported above except the submodules, plus __version__.
__all__ = sorted(
    name
    for name, value in globals().items()
    if (name == "__version__" or not name.startswith("_"))
    and not isinstance(value, types.ModuleType)
)
