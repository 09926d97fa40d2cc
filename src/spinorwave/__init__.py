"""spinorwave: two-spinor electromagnetic identities and conformal-time modes.

Subpackages:

* ``core``     -- concrete epsilon-formalism spinor algebra (the brute-force
  oracle for every algebraic identity),
* ``symbolic`` -- abstract-index expression engine and derivation verifier,
* ``em``       -- Maxwell bivector / wave-function conversions and diagnostics,
* ``frw``      -- conformal-time mode integration on FRW backgrounds.
"""

import importlib
import sys

__version__ = "0.1.0"


def _lazy_getattr(package: str, submodules: dict[str, str]):
    """A module ``__getattr__`` (PEP 562) for ``package``, whose public names
    are the keys of ``submodules``: the first access to a name imports the
    submodule that defines it and caches the value in the package, so a
    caller that uses only the numpy-free submodules never imports numpy."""

    def __getattr__(name: str):
        if name not in submodules:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodules[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
