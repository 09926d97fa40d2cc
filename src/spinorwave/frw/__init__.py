"""Conformal-time mode solver on FRW backgrounds."""

from .models import (
    ScaleFactorModel,
    de_sitter,
    matter,
    radiation,
    ricci_scalar,
    tabulated,
)
from .modes import (
    ModeSolution,
    ModeSpec,
    integrate_mode,
    mode_residual,
    positive_frequency_data,
    wronskian_drift,
)
from .spectrum import (
    SPECTRUM_HEADER,
    SpectrumRow,
    k_grid_from_config,
    model_from_config,
    render_csv,
    spectrum,
    spectrum_from_config,
)

__all__ = [
    "ModeSolution",
    "ModeSpec",
    "SPECTRUM_HEADER",
    "ScaleFactorModel",
    "SpectrumRow",
    "de_sitter",
    "integrate_mode",
    "k_grid_from_config",
    "matter",
    "mode_residual",
    "model_from_config",
    "positive_frequency_data",
    "radiation",
    "render_csv",
    "ricci_scalar",
    "spectrum",
    "spectrum_from_config",
    "tabulated",
    "wronskian_drift",
]
