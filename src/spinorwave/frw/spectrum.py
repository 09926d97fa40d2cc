"""Mode spectra: per-k endpoint values and the energy-density proxy.

This is the only module that reads the ``cosmo`` JSON config; its readers
check each field's JSON type once and hand typed values to the solver.
Output rows are ordered by the k grid; failed modes are marked and do not
stop the remaining ones.  The CSV schema is fixed:

    k,eta_end,re_f,im_f,abs_f2,energy_proxy,wronskian_drift,status
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, IntegrationError
from .models import ScaleFactorModel, de_sitter, matter, radiation, tabulated
from .modes import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    DEFAULT_SAMPLES,
    ModeSpec,
    integrate_mode,
    validate_settings,
)

SPECTRUM_HEADER = "k,eta_end,re_f,im_f,abs_f2,energy_proxy,wronskian_drift,status"

# Each model kind's factory and its params, in the factory's argument order.
_FACTORIES = {
    "radiation": (radiation, ("a0",)),
    "matter": (matter, ("a0",)),
    "de_sitter": (de_sitter, ("hubble",)),
    "tabulated": (tabulated, ("eta", "a")),
}

# Largest k grid a config may ask for.  The grid and one spec per mode are
# built before the first mode runs.  A mode that succeeds takes 0.5, 1.9 and
# 2.9 ms on radiation, matter and de Sitter (64 modes, k 0.1-100, eta 1 to
# 10 or -10 to -0.1, default tol and samples, one pinned core of a 2-vCPU
# Xeon), so this many modes take 0.5 to 3.2 minutes; a mode that fails at
# the substep budget costs 0.3-1.2 s, and the run has no time bound.
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
        values = (self.f.real, self.f.imag, self.abs_f2, self.energy_proxy,
                  self.wronskian_drift) if self.status == "ok" else (math.nan,) * 5
        return ",".join([repr(float(v)) for v in (self.k, self.eta_end) + values]
                        + [self.status])


def _number(value, what: str) -> float:
    """A JSON number (int or float, not a bool or a string) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} must be a number within float range") from None


def _numbers(value, what: str, length: int | None = None) -> list[float]:
    """A JSON array of numbers, with exactly ``length`` items if given."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f"{length} "
        raise ConfigError(f"{what} must be an array of {size}numbers, got {value!r}")
    return [_number(item, what) for item in value]


def _integer(value, what: str) -> int:
    """A count: a JSON integer, or a float with an integral value."""
    if isinstance(value, int) and not isinstance(value, bool) \
            or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _object(value, what: str, keys: tuple[str, ...] = ()) -> dict:
    """A JSON object that holds every key in ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    for key in keys:
        if key not in value:
            raise ConfigError(f"{what} missing {key!r}")
    return value


def model_from_config(config) -> ScaleFactorModel:
    """The scale-factor model of a config's ``model`` object."""
    config = _object(config, "model")
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in _FACTORIES:
        raise ConfigError(f"unknown model kind {kind!r}")
    factory, names = _FACTORIES[kind]
    sampled = kind == "tabulated"  # two sample arrays, both required
    params = _object(config.get("params", {}), "model.params", names if sampled else ())
    if not params.keys() <= set(names):
        raise ConfigError(f"{kind} params are {', '.join(names)}, got {', '.join(params)}")
    read = _numbers if sampled else _number
    return factory(*(read(params[key], f"model.params.{key}") for key in names if key in params))


def k_grid_from_config(config) -> np.ndarray:
    config = _object(config, "k_grid", ("min", "max", "count"))
    lo, hi = _number(config["min"], "k_grid.min"), _number(config["max"], "k_grid.max")
    count = _integer(config["count"], "k_grid.count")
    spacing = config.get("spacing", "lin")
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


def _one_row(model: ScaleFactorModel, spec: ModeSpec) -> SpectrumRow:
    try:
        sol = integrate_mode(model, spec)
    except IntegrationError as exc:
        return SpectrumRow(spec.k, spec.eta1, 0j, math.nan, math.nan, math.nan, "failed",
                           f"{exc} (last_eta={exc.last_eta!r})")
    f_end = complex(sol.f[-1])
    fp_end = complex(sol.f_prime[-1])
    a_end = model.a(spec.eta1)
    try:
        abs_f2 = abs(f_end) ** 2
        energy = (abs(fp_end) ** 2 + spec.k ** 2 * abs_f2) / (2.0 * math.pi * a_end ** 4)
    except (OverflowError, ZeroDivisionError):  # a, f or f' near the ends of float range
        energy = math.inf
    if not math.isfinite(energy):
        return SpectrumRow(spec.k, spec.eta1, 0j, math.nan, math.nan, math.nan, "failed",
                           f"abs_f2 or energy_proxy out of float range at eta_end "
                           f"(last_eta={spec.eta1!r})")
    return SpectrumRow(spec.k, spec.eta1, f_end, abs_f2, energy, sol.wronskian_drift, "ok")


def spectrum(model: ScaleFactorModel, k_values: np.ndarray, eta0: float,
             eta1: float, ic_kind: str = "positive_frequency", f0: complex = 0j,
             df0: complex = 0j, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
             samples: int = DEFAULT_SAMPLES) -> list[SpectrumRow]:
    """Integrate every mode and collect the endpoint table, ordered by k."""
    validate_settings(model, eta0, eta1, ic_kind, f0, df0, rtol, atol, samples)
    model.check_values(eta0, eta1)
    return [_one_row(model, ModeSpec(float(k), eta0, eta1, ic_kind, f0, df0, rtol, atol,
                                     samples)) for k in k_values]


def render_csv(rows: list[SpectrumRow]) -> str:
    return "\n".join([SPECTRUM_HEADER] + [row.render() for row in rows]) + "\n"


def spectrum_from_config(config: dict) -> tuple[list[SpectrumRow], str]:
    """Run the documented JSON config; returns (rows, csv_text)."""
    config = _object(config, "config", ("model", "k_grid", "eta"))
    model = model_from_config(config["model"])
    ks = k_grid_from_config(config["k_grid"])
    eta = _object(config["eta"], "eta", ("start", "end"))
    eta0, eta1 = _number(eta["start"], "eta.start"), _number(eta["end"], "eta.end")
    model.check_range(eta0, eta1)
    ic = _object(config.get("ic", {}), "ic")
    ic_kind = ic.get("kind", "positive_frequency")
    f0 = df0 = 0j
    if ic_kind == "explicit":
        _object(ic, "ic", ("f", "df"))
        f0 = complex(*_numbers(ic["f"], "ic.f", 2))
        df0 = complex(*_numbers(ic["df"], "ic.df", 2))
    tol = _object(config.get("tol", {}), "tol")
    rows = spectrum(model, ks, eta0, eta1, ic_kind, f0, df0,
                    rtol=_number(tol.get("rel", DEFAULT_RTOL), "tol.rel"),
                    atol=_number(tol.get("abs", DEFAULT_ATOL), "tol.abs"),
                    samples=_integer(config.get("samples", DEFAULT_SAMPLES), "samples"))
    return rows, render_csv(rows)
