"""Concrete two-component spinor algebra and connecting objects.

The submodules load on first use of one of their names: ``indices`` is the
only one the symbolic rewriter needs, and every other one imports numpy.
"""

from .. import _lazy_getattr

# Each public name and the submodule that defines it.
_SUBMODULES = {
    "SpinAffinity": "affinity",
    "affinity_from_metric": "affinity",
    "covariant_derivative_forms": "affinity",
    "metric_compatibility_residual": "affinity",
    "ConnectingObjects": "connecting",
    "FLAT": "connecting",
    "FLAT_SYMBOLS": "connecting",
    "MINKOWSKI": "connecting",
    "PAULI": "connecting",
    "levi_civita4": "connecting",
    "EPS_LOW": "convention",
    "EPS_UP": "convention",
    "IndexKind": "indices",
    "IndexSignature": "indices",
    "Slot": "indices",
    "Variance": "indices",
    "spinor_signature": "indices",
    "ComponentSpinor": "spinor",
    "random_spinor": "spinor",
}

__all__ = list(_SUBMODULES)
__getattr__ = _lazy_getattr(__name__, _SUBMODULES)
