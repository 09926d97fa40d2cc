"""Conformal-time scale-factor models a(eta) with exact derivatives.

Spatially flat backgrounds only; the curvature scalar under (+---) is
R(eta) = 6 a''(eta) / a(eta)^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def check_eta(self, eta: float) -> None:
        lo, hi = self.domain
        if not (lo < eta < hi):
            raise DomainError(f"eta={eta} outside the {self.kind} domain ({lo}, {hi})")

    def check_range(self, eta0: float, eta1: float) -> None:
        self.check_eta(eta0)
        self.check_eta(eta1)
        if not eta0 < eta1:
            raise ConfigError(f"eta range [{eta0}, {eta1}] is not increasing")

    def check_values(self, *etas: float) -> None:
        """Raise unless a > 0 and a, a', a'' are finite at each eta; finite
        parameters can still overflow them (de Sitter with a denormal H) or
        divide by an eta^2 that underflows to 0."""
        for eta in etas:
            values = tuple(_value_or_nan(fn, eta) for fn in (self.a, self.a_prime, self.a_second))
            if not (values[0] > 0 and all(map(math.isfinite, values))):
                raise ConfigError(f"{self.kind} (a, a', a'') at eta={eta} is {values}: "
                                  "a must be positive and all three finite")


def _value_or_nan(fn: Callable[[float], float], eta: float) -> float:
    """fn(eta), or NaN where evaluating it raises an arithmetic error."""
    try:
        return fn(eta)
    except ArithmeticError:
        return math.nan


def _positive_finite(value: float, name: str) -> float:
    """A model parameter; it must be positive and finite."""
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    return value


def radiation(a0: float = 1.0) -> ScaleFactorModel:
    """a(eta) = a0 * eta on eta > 0; a'' = 0, so modes are exactly
    exp(-i k eta)/a."""
    a0 = _positive_finite(a0, "a0")
    return ScaleFactorModel(
        "radiation",
        lambda eta: a0 * eta,
        lambda eta: a0,
        lambda eta: 0.0,
        (0.0, math.inf),
    )


def matter(a0: float = 1.0) -> ScaleFactorModel:
    """a(eta) = a0 * eta^2 on eta > 0."""
    a0 = _positive_finite(a0, "a0")
    return ScaleFactorModel(
        "matter",
        lambda eta: a0 * eta * eta,
        lambda eta: 2.0 * a0 * eta,
        lambda eta: 2.0 * a0,
        (0.0, math.inf),
    )


def de_sitter(hubble: float = 1.0) -> ScaleFactorModel:
    """a(eta) = -1/(H eta) on eta < 0; R = 12 H^2 identically."""
    hubble = _positive_finite(hubble, "hubble")
    return ScaleFactorModel(
        "de_sitter",
        lambda eta: -1.0 / (hubble * eta),
        lambda eta: 1.0 / (hubble * eta * eta),
        lambda eta: -2.0 / (hubble * eta * eta * eta),
        (-math.inf, 0.0),
    )


def tabulated(eta_samples, a_samples) -> ScaleFactorModel:
    """Not-a-knot cubic spline through sampled a(eta): C^2, with a''' also
    continuous at the second and the second-to-last knot; local
    interpolation error O(h^4).  The spline must stay positive between the
    knots as well as at them."""
    eta_samples = np.asarray(eta_samples, dtype=float)
    a_samples = np.asarray(a_samples, dtype=float)
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
    coeffs = _not_a_knot(eta_samples, a_samples)
    _check_positive_between_knots(eta_samples, coeffs)
    first = coeffs[:-1] * np.array([[3.0], [2.0], [1.0]])
    second = first[:-1] * np.array([[2.0], [1.0]])
    return ScaleFactorModel(
        "tabulated",
        _piecewise(eta_samples, coeffs),
        _piecewise(eta_samples, first),
        _piecewise(eta_samples, second),
        (float(eta_samples[0]), float(eta_samples[-1])),
    )


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients, shape (4, n-1), of the not-a-knot cubic spline through
    n >= 4 points: on [x[i], x[i+1]] it is sum_j c[j, i] (eta - x[i])^(3-j).

    The knot slopes solve the tridiagonal system for them: interior rows
    make a'' continuous, the two end rows make a''' continuous at x[1] and
    x[-2].  A Thomas sweep solves it; that is LAPACK gtsv's elimination
    whenever no row needs a pivot."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    lower = np.r_[dx[1:], x[-1] - x[-3]]              # row i + 1, column i
    diag = np.r_[dx[1], 2.0 * (dx[:-1] + dx[1:]), dx[-2]]
    upper = np.r_[x[2] - x[0], dx[:-1]]               # row i, column i + 1
    rhs = np.empty(x.size)
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d

    lower, diag, upper, s = (v.tolist() for v in (lower, diag, upper, rhs))
    for i in range(len(s) - 1):
        factor = lower[i] / diag[i]
        diag[i + 1] -= factor * upper[i]
        s[i + 1] -= factor * s[i]
    s[-1] /= diag[-1]
    for i in range(len(s) - 2, -1, -1):
        s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]

    s = np.array(s)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    return np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])


def _check_positive_between_knots(x: np.ndarray, coeffs: np.ndarray) -> None:
    """Raise unless every piece is positive at its interior critical points,
    the roots in (0, h) of 3 c0 s^2 + 2 c1 s + c2.  The knot values are
    positive, so a piece can only reach zero through such a minimum."""
    a, b, c = 3.0 * coeffs[0], 2.0 * coeffs[1], coeffs[2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # divided by the piece's largest coefficient, the discriminant
        # cannot overflow, and the roots stay the same
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
        a, b, c = a / scale, b / scale, c / scale
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        roots = np.stack([q / a, c / q], axis=1)  # NaN or inf where there is none
    inside = (roots > 0) & (roots < np.diff(x)[:, None])
    piece = np.nonzero(inside)[0]
    s = roots[inside]
    values = _horner(coeffs, piece, s)
    if np.any(values <= 0):
        bad = np.argmax(values <= 0)
        raise ConfigError("tabulated a(eta) is not positive between the knots "
                          f"(a={values[bad]:.6g} at eta={x[piece[bad]] + s[bad]:.6g})")


def _horner(coeffs: np.ndarray, piece, s):
    """sum_j coeffs[j, piece] s^(m-j), highest power first."""
    value = coeffs[0][piece]
    for row in coeffs[1:]:
        value *= s
        value += row[piece]
    return value


def _piecewise(knots: np.ndarray, coeffs: np.ndarray):
    """Piecewise polynomial on the knots as a model callable: a float for a
    float, an array for an array.  The last piece is closed at knots[-1];
    outside the knots the end pieces extend."""
    interior = knots[1:-1]

    def evaluate(eta):
        eta = np.asarray(eta, dtype=float)
        piece = np.searchsorted(interior, eta, side="right")
        value = _horner(coeffs, piece, eta - knots[piece])
        return float(value) if value.ndim == 0 else value

    return evaluate


def ricci_scalar(model: ScaleFactorModel, eta: float) -> float:
    """R(eta) = 6 a''/a^3 for the spatially flat background."""
    model.check_eta(eta)
    a = model.a(eta)
    return 6.0 * model.a_second(eta) / a ** 3
