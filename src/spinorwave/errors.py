"""Exception hierarchy shared by all subpackages."""


class SpinorWaveError(Exception):
    """Base class for every error raised by this package."""


class ContractionError(SpinorWaveError):
    """Contraction requested over incompatible slots."""


class IndexPlacementError(SpinorWaveError):
    """Index kind/variance does not admit the requested operation."""


class DegenerateMetricError(SpinorWaveError):
    """Connecting objects do not define an invertible metric."""


class BivectorError(SpinorWaveError):
    """Input violates bivector antisymmetry."""


class SpinorSymmetryError(SpinorWaveError):
    """Input violates the required spinor symmetry."""


class GridError(SpinorWaveError):
    """Sampling grid too small or inconsistent for the requested stencil."""


class ParseError(SpinorWaveError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class WeightError(SpinorWaveError):
    """Sum or rule mixes incompatible gauge weights."""


class IdentityError(SpinorWaveError):
    """Identity is ill-posed (mismatched free indices or weights)."""


class UnsupportedExpressionError(SpinorWaveError):
    """Expression contains constructs the requested evaluation cannot handle."""


class IntegrationError(SpinorWaveError):
    """Adaptive integration could not proceed; carries the last good point."""

    def __init__(self, message: str, last_eta: float | None = None):
        self.last_eta = last_eta
        super().__init__(message)


class ConfigError(SpinorWaveError):
    """Run configuration violates the documented schema."""


class DomainError(SpinorWaveError):
    """Evaluation point lies outside a model's declared domain."""
