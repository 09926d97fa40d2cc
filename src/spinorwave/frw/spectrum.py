"""Mode spectra: per-k endpoint values and the energy-density proxy.

Output rows are ordered by the k grid; failed modes are marked and do not
stop the remaining ones.  The CSV schema is fixed:

    k,eta_end,re_f,im_f,abs_f2,energy_proxy,wronskian_drift,status
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, IntegrationError
from .models import ScaleFactorModel, model_from_config
from .modes import DEFAULT_ATOL, DEFAULT_RTOL, DEFAULT_SAMPLES, ModeSpec, integrate_mode

SPECTRUM_HEADER = "k,eta_end,re_f,im_f,abs_f2,energy_proxy,wronskian_drift,status"

# Largest k grid a config may ask for.  The grid and one spec per mode are
# built before the first mode runs, and at about 1 ms per mode this many
# modes already take about a minute.
MAX_K_COUNT = 2**16


@dataclass(frozen=True)
class SpectrumRow:
    k: float
    eta_end: float
    f: complex
    abs_f2: float
    energy_proxy: float
    wronskian_drift: float
    status: str
    failure: str = ""   # why and where a failed mode stopped; not in the CSV

    def render(self) -> str:
        if self.status != "ok":
            return ",".join(
                [repr(float(self.k)), repr(float(self.eta_end))]
                + ["nan"] * 5
                + [self.status]
            )
        return ",".join(
            [
                repr(float(self.k)),
                repr(float(self.eta_end)),
                repr(float(self.f.real)),
                repr(float(self.f.imag)),
                repr(float(self.abs_f2)),
                repr(float(self.energy_proxy)),
                repr(float(self.wronskian_drift)),
                "ok",
            ]
        )


def k_grid_from_config(config: dict) -> np.ndarray:
    try:
        lo, hi = float(config["min"]), float(config["max"])
        count = _integer(config["count"], "k_grid count")
        spacing = config.get("spacing", "lin")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad k_grid: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"k_grid min and max must be finite, got {lo!r}, {hi!r}")
    if not 0 <= count <= MAX_K_COUNT:
        raise ConfigError(f"k_grid count must be an integer from 0 to {MAX_K_COUNT}")
    if count == 0:
        return np.zeros(0)
    if count > 1 and not lo < hi:
        raise ConfigError("k_grid needs min < max")
    if lo <= 0:
        raise ConfigError("k must be positive")
    if spacing == "lin":
        return np.linspace(lo, hi, count)
    if spacing == "log":
        return np.geomspace(lo, hi, count)
    raise ConfigError(f"unknown k_grid spacing {spacing!r}")


def _integer(value, what: str) -> int:
    """A count from a config: an integer, or a float with an integral value."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from exc


def _one_row(model: ScaleFactorModel, spec: ModeSpec) -> SpectrumRow:
    try:
        sol = integrate_mode(model, spec)
    except IntegrationError as exc:
        return SpectrumRow(spec.k, spec.eta1, 0j, math.nan, math.nan, math.nan, "failed",
                           f"{exc} (last_eta={exc.last_eta!r})")
    f_end = complex(sol.f[-1])
    fp_end = complex(sol.f_prime[-1])
    a_end = model.a(spec.eta1)
    energy = (abs(fp_end) ** 2 + spec.k ** 2 * abs(f_end) ** 2) / (
        2.0 * math.pi * a_end ** 4
    )
    return SpectrumRow(
        spec.k, spec.eta1, f_end, abs(f_end) ** 2, energy, sol.wronskian_drift, "ok"
    )


def spectrum(model: ScaleFactorModel, k_values: np.ndarray, eta0: float,
             eta1: float, ic: dict | None = None, rtol: float = DEFAULT_RTOL,
             atol: float = DEFAULT_ATOL, samples: int = DEFAULT_SAMPLES) -> list[SpectrumRow]:
    """Integrate every mode and collect the endpoint table, ordered by k."""
    ic = ic or {"kind": "positive_frequency"}
    kind = ic.get("kind", "positive_frequency")
    if kind == "explicit":
        try:
            f0 = complex(ic["f"][0], ic["f"][1])
            df0 = complex(ic["df"][0], ic["df"][1])
        except (KeyError, TypeError, IndexError) as exc:
            raise ConfigError(f"explicit initial data needs f=[re,im], df=[re,im]: {exc}") from exc
    elif kind == "positive_frequency":
        f0 = df0 = 0j
    else:
        raise ConfigError(f"unknown initial-condition kind {kind!r}")

    specs = [
        ModeSpec(float(k), eta0, eta1, kind, f0, df0, rtol, atol, samples)
        for k in k_values
    ]
    for spec in specs:
        spec.validate(model)
    model.check_values(eta0, eta1)
    return [_one_row(model, spec) for spec in specs]


def render_csv(rows: list[SpectrumRow]) -> str:
    return "\n".join([SPECTRUM_HEADER] + [row.render() for row in rows]) + "\n"


def spectrum_from_config(config: dict) -> tuple[list[SpectrumRow], str]:
    """Run the documented JSON config; returns (rows, csv_text)."""
    for key in ("model", "k_grid", "eta"):
        if key not in config:
            raise ConfigError(f"config missing {key!r}")
    for key in ("tol", "ic"):
        if not isinstance(config.get(key) or {}, dict):
            raise ConfigError(f"config {key!r} must be an object")
    model = model_from_config(config["model"])
    ks = k_grid_from_config(config["k_grid"])
    try:
        eta0, eta1 = float(config["eta"]["start"]), float(config["eta"]["end"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad eta range: {exc}") from exc
    model.check_range(eta0, eta1)
    tol = config.get("tol") or {}
    try:
        rtol = float(tol.get("rel", DEFAULT_RTOL))
        atol = float(tol.get("abs", DEFAULT_ATOL))
        samples = _integer(config.get("samples", DEFAULT_SAMPLES), "samples")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad tol or samples: {exc}") from exc
    rows = spectrum(model, ks, eta0, eta1, ic=config.get("ic"), rtol=rtol, atol=atol,
                    samples=samples)
    return rows, render_csv(rows)
