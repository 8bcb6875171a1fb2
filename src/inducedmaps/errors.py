"""Exception types shared across the package."""


class InducedMapsError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(InducedMapsError):
    """Input fails a structural or numerical validity contract."""


class HermiticityError(ValidationError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class ShapeError(InducedMapsError):
    """Dimensions are inconsistent with the requested operation."""


class SizeError(ShapeError):
    """Result would exceed the configured dense-size ceiling."""


class NonSLError(InducedMapsError):
    """State carries a traceless nonzero coherence block, so entrywise
    rescaling against the block-trace coefficients is undefined."""


class CancellationError(InducedMapsError):
    """Ensemble components cancel on a coherence entry (zero total
    coefficient with nonzero per-component weight); the rescaled
    matrices, and with them the entrywise condition, are indeterminate."""


class NotPsdError(InducedMapsError):
    """Matrix expected to be positive semidefinite is not."""


class PreconditionTheoremError(InducedMapsError):
    """Search input does not satisfy the block-support condition."""


class PreconditionVqdError(InducedMapsError):
    """Search input has vanishing discord.  When its classical basis is
    the computational one, up to phases and order, every induced map is
    completely positive and the search is vacuous."""
