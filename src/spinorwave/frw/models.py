"""Conformal-time scale-factor models a(eta) with exact derivatives.

Spatially flat backgrounds only; the curvature scalar under (+---) is
R(eta) = 6 a''(eta) / a(eta)^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigError, DomainError


@dataclass(frozen=True)
class ScaleFactorModel:
    """a(eta) and its derivatives.  Each callable takes a float or an array
    of eta; a constant one may return a float for an array."""

    kind: str
    a: Callable[[float], float]
    a_prime: Callable[[float], float]
    a_second: Callable[[float], float]
    domain: tuple[float, float]          # open interval
    params: dict = field(default_factory=dict)

    def check_eta(self, eta: float) -> None:
        lo, hi = self.domain
        if not (lo < eta < hi):
            raise DomainError(f"eta={eta} outside the {self.kind} domain ({lo}, {hi})")

    def check_range(self, eta0: float, eta1: float) -> None:
        self.check_eta(eta0)
        self.check_eta(eta1)
        if not eta0 < eta1:
            raise ConfigError(f"eta range [{eta0}, {eta1}] is not increasing")


def radiation(a0: float = 1.0) -> ScaleFactorModel:
    """a(eta) = a0 * eta on eta > 0; a'' = 0, so modes are exactly
    exp(-i k eta)/a."""
    if a0 <= 0:
        raise ConfigError("a0 must be positive")
    return ScaleFactorModel(
        "radiation",
        lambda eta: a0 * eta,
        lambda eta: a0,
        lambda eta: 0.0,
        (0.0, math.inf),
        {"a0": a0},
    )


def matter(a0: float = 1.0) -> ScaleFactorModel:
    """a(eta) = a0 * eta^2 on eta > 0."""
    if a0 <= 0:
        raise ConfigError("a0 must be positive")
    return ScaleFactorModel(
        "matter",
        lambda eta: a0 * eta * eta,
        lambda eta: 2.0 * a0 * eta,
        lambda eta: 2.0 * a0,
        (0.0, math.inf),
        {"a0": a0},
    )


def de_sitter(hubble: float = 1.0) -> ScaleFactorModel:
    """a(eta) = -1/(H eta) on eta < 0; R = 12 H^2 identically."""
    if hubble <= 0:
        raise ConfigError("H must be positive")
    return ScaleFactorModel(
        "de_sitter",
        lambda eta: -1.0 / (hubble * eta),
        lambda eta: 1.0 / (hubble * eta * eta),
        lambda eta: -2.0 / (hubble * eta * eta * eta),
        (-math.inf, 0.0),
        {"H": hubble},
    )


def tabulated(eta_samples, a_samples) -> ScaleFactorModel:
    """C^2 cubic-spline interpolation of sampled a(eta) (natural cubic,
    local interpolation error O(h^4)).  The spline must stay positive
    between the knots as well as at them."""
    from scipy.interpolate import CubicSpline  # costs ~0.5 s of import time

    try:
        eta_samples = np.asarray(eta_samples, dtype=float)
        a_samples = np.asarray(a_samples, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"tabulated samples must be numbers: {exc}") from exc
    if eta_samples.ndim != 1 or eta_samples.size < 4:
        raise ConfigError("tabulated model needs at least 4 samples")
    if a_samples.shape != eta_samples.shape:
        raise ConfigError("tabulated eta and a need the same number of samples")
    if not (np.isfinite(eta_samples).all() and np.isfinite(a_samples).all()):
        raise ConfigError("tabulated samples must be finite")
    if np.any(np.diff(eta_samples) <= 0):
        raise ConfigError("tabulated eta samples must be strictly increasing")
    if np.any(a_samples <= 0):
        raise ConfigError("tabulated a(eta) must be positive")
    spline = CubicSpline(eta_samples, a_samples)
    roots = spline.roots(extrapolate=False)
    if roots.size:
        raise ConfigError("tabulated a(eta) is not positive between the knots "
                          f"(zero at eta={roots[0]:.6g})")
    return ScaleFactorModel(
        "tabulated",
        _evaluator(spline),
        _evaluator(spline.derivative(1)),
        _evaluator(spline.derivative(2)),
        (float(eta_samples[0]), float(eta_samples[-1])),
        {"n": int(eta_samples.size)},
    )


def _evaluator(poly):
    """A spline as a model callable: float for a float, array for an array."""
    def evaluate(eta):
        value = poly(eta)
        return float(value) if np.ndim(value) == 0 else value

    return evaluate


_FACTORIES = {
    "radiation": radiation,
    "matter": matter,
    "de_sitter": de_sitter,
}


def model_from_config(config: dict) -> ScaleFactorModel:
    if not isinstance(config, dict) or not isinstance(config.get("params", {}), dict):
        raise ConfigError("model must be an object {kind, params} with object params")
    kind = config.get("kind")
    params = config.get("params", {})
    if kind == "tabulated":
        try:
            return tabulated(params["eta"], params["a"])
        except KeyError as exc:
            raise ConfigError(f"tabulated model missing {exc.args[0]!r}") from exc
    factory = _FACTORIES.get(kind) if isinstance(kind, str) else None
    if factory is None:
        raise ConfigError(f"unknown model kind {kind!r}")
    try:
        return factory(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {kind!r}: {exc}") from exc


def ricci_scalar(model: ScaleFactorModel, eta: float) -> float:
    """R(eta) = 6 a''/a^3 for the spatially flat background."""
    model.check_eta(eta)
    a = model.a(eta)
    return 6.0 * model.a_second(eta) / a ** 3
