"""Electromagnetic sector: bivector/wave-function conversions, residuals, I/O.

The submodules load on first use of one of their names, so ``em`` never
loads ``analytic`` and ``check`` never loads ``csvio``.
"""

from .. import _lazy_getattr

# Each public name and the submodule that defines it.
_SUBMODULES = {
    "AnalyticWaveFunction": "analytic",
    "field_from_potential": "analytic",
    "interior": "analytic",
    "massless_residual": "analytic",
    "massless_residual_grid": "analytic",
    "null_wavevector": "analytic",
    "plane_wave_potential": "analytic",
    "plane_wave_wavefunction": "analytic",
    "pure_gauge_potential": "analytic",
    "BIVECTOR_HEADER": "csvio",
    "WAVEFUNCTION_HEADER": "csvio",
    "NonFiniteRowError": "csvio",
    "data_line_number": "csvio",
    "read_bivector_csv": "csvio",
    "read_wavefunction_csv": "csvio",
    "write_bivector_csv": "csvio",
    "write_wavefunction_csv": "csvio",
    "BivectorField": "fields",
    "PhotonWaveFunction": "fields",
    "bivector_from_spinors": "fields",
    "dual": "fields",
    "invariants": "fields",
    "spinors_from_bivector": "fields",
    "stress_energy": "fields",
}

__all__ = list(_SUBMODULES)
__getattr__ = _lazy_getattr(__name__, _SUBMODULES)
