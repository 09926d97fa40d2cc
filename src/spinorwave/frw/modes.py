"""Per-mode integration of the conformally flat wave equation.

Writing the field as f(eta) exp(i k x) componentwise, the equation
(wave operator + R/3) phi = 0 separates into

    f'' + 2 (a'/a) f' + (k^2 + 2 a''/a) f = 0,

equivalently u'' + (k^2 + a''/a) u = 0 for u = a f.  The solver propagates
(u, u') with the fourth-order Magnus method on two Gauss points (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470 (2009)).  Each step is the closed-form
exponential of a traceless 2x2 matrix, so every step has determinant 1 and
the Wronskian is conserved to round-off; the accuracy signal is the
step-doubling estimate reported as ``ModeSolution.error_estimate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, GridError, IntegrationError
from .models import ScaleFactorModel

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12
DEFAULT_SAMPLES = 201

# Gauss-Legendre nodes on [0, 1] and the weight of the commutator term of
# the fourth-order Magnus expansion.
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_COMMUTATOR = math.sqrt(3.0) / 12.0

# Substep control.  An interval whose error estimate misses its share of the
# tolerance gets SAFETY * (estimate / share)^(1/4) times as many substeps
# (the local error of n substeps falls as n^-4), at most MAX_GROWTH times as
# many per pass, because a single coarse substep can be far outside the
# asymptotic regime.
_SAFETY = 1.1
_MAX_GROWTH = 8.0
# Per-interval estimates at this level are round-off; asking for less could
# never be met.
_ROUNDOFF = 1e-14
# A mode needing more coarse substeps than this fails; numpy evaluates at
# most CHUNK substeps at a time, which bounds memory whatever the count.
_MAX_SUBSTEPS = 2**20
_CHUNK = 2**15


@dataclass(frozen=True)
class ModeSpec:
    k: float
    eta0: float
    eta1: float
    ic_kind: str = "positive_frequency"          # or "explicit"
    f0: complex = 0.0 + 0.0j                     # used by explicit data
    df0: complex = 0.0 + 0.0j
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    samples: int = DEFAULT_SAMPLES

    def validate(self, model: ScaleFactorModel) -> None:
        validate_k(self.k)
        validate_settings(model, self.eta0, self.eta1, self.ic_kind, self.f0, self.df0,
                          self.rtol, self.atol, self.samples)


def validate_k(k: float) -> None:
    if not 0 < k < math.inf:
        raise ConfigError(f"k must be positive and finite, got {k}")


def validate_settings(model: ScaleFactorModel, eta0: float, eta1: float, ic_kind: str,
                      f0: complex, df0: complex, rtol: float, atol: float,
                      samples: int) -> None:
    """The checks of a :class:`ModeSpec` that do not depend on k.  ``spectrum``
    runs them once before its k loop, so they hold for an empty k grid too."""
    if ic_kind not in ("positive_frequency", "explicit"):
        raise ConfigError(f"unknown initial-condition kind {ic_kind!r}")
    if samples < 2:
        raise ConfigError("need at least 2 sample points")
    # Every sample interval takes at least one coarse substep.
    if samples - 1 > _MAX_SUBSTEPS:
        raise ConfigError(f"samples must be at most {_MAX_SUBSTEPS + 1}, got {samples}")
    if not np.isfinite([f0, df0]).all():
        raise ConfigError(f"initial data must be finite, got f={f0!r}, df={df0!r}")
    if not all(0 <= tol < math.inf for tol in (rtol, atol)):
        raise ConfigError(f"tolerances must be finite and nonnegative, "
                          f"got rel={rtol!r}, abs={atol!r}")
    if rtol == 0 and atol == 0:
        raise ConfigError("tol.rel and tol.abs cannot both be zero")
    model.check_range(eta0, eta1)
    if not (np.diff(np.linspace(eta0, eta1, samples)) > 0).all():
        raise ConfigError(f"eta range [{eta0!r}, {eta1!r}] is too narrow "
                          f"for {samples} distinct samples")


@dataclass(frozen=True)
class ModeSolution:
    """Sampled mode.  ``steps`` counts the Magnus substeps of the returned
    solution.  ``error_estimate`` bounds its relative error in
    (u, u'/omega), with u = a f and omega^2 = max(|k^2 + a''/a|,
    (eta1 - eta0)^-2): the sum over the sample intervals of the undivided
    step-doubling difference, each against half as many substeps."""

    k: float
    eta: np.ndarray
    f: np.ndarray
    f_prime: np.ndarray
    wronskian_drift: float
    steps: int
    error_estimate: float = 0.0

    def __post_init__(self):
        if np.any(np.diff(self.eta) <= 0):
            raise GridError("eta samples must be strictly increasing")


def mode_residual(model: ScaleFactorModel, k: float, f: complex, fp: complex,
                  fpp: complex, eta: float) -> complex:
    """f'' + 2(a'/a) f' + (k^2 + 2 a''/a) f at one point."""
    model.check_eta(eta)
    a = model.a(eta)
    return fpp + 2.0 * (model.a_prime(eta) / a) * fp + (
        k * k + 2.0 * model.a_second(eta) / a
    ) * f


def positive_frequency_data(model: ScaleFactorModel, k: float, eta0: float) -> tuple[complex, complex]:
    """f, f' from u(eta0) = exp(-i k eta0)/sqrt(2k), u' = -i k u, with f = u/a."""
    u0 = np.exp(-1j * k * eta0) / math.sqrt(2.0 * k)
    du0 = -1j * k * u0
    a0 = model.a(eta0)
    ap0 = model.a_prime(eta0)
    f0 = u0 / a0
    df0 = du0 / a0 - (ap0 / a0) * f0
    return complex(f0), complex(df0)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def integrate_mode(model: ScaleFactorModel, spec: ModeSpec) -> ModeSolution:
    """Integrate the mode over [eta0, eta1] and sample f, f' at ``samples``
    equally spaced points.

    The relative error of (u, u'/omega) is held to about rtol + atol/|state
    at eta0|, shared out over the sample intervals in proportion to their
    length.  Raises :class:`IntegrationError` with the start of the first
    unresolved interval as ``last_eta`` when that takes more than
    ``_MAX_SUBSTEPS`` substeps, or when the solution overflows.  numpy
    warns of no float overflow here: an inf or NaN fails the error test (a
    singular a''/a overflows cosh) or the finiteness test of the solution.
    """
    spec.validate(model)
    if spec.ic_kind == "positive_frequency":
        f0, df0 = positive_frequency_data(model, spec.k, spec.eta0)
    else:
        f0, df0 = complex(spec.f0), complex(spec.df0)

    eta = np.linspace(spec.eta0, spec.eta1, spec.samples)
    k2 = spec.k * spec.k
    a = _evaluate(model.a, eta)
    ap = _evaluate(model.a_prime, eta)
    omega = np.sqrt(np.maximum(np.abs(k2 + _evaluate(model.a_second, eta) / a),
                               (spec.eta1 - spec.eta0) ** -2))
    u0 = a[0] * f0
    du0 = ap[0] * f0 + a[0] * df0
    size0 = math.hypot(abs(u0), abs(du0) / omega[0])
    tol = spec.rtol + spec.atol / size0 if size0 > 0 else math.inf

    propagators, error, steps = _interval_propagators(
        model, k2, eta, np.maximum(omega[:-1], omega[1:]), tol)
    u, du = _propagate(propagators, u0, du0, eta)
    f = u / a
    fp = (du - ap * f) / a
    # the drift of W(u, conj u) for u = a f; real data have W = 0, and
    # then the absolute deviation is reported
    u, up = _u_and_uprime(a, ap, f, fp)
    drift = _drift(u * np.conj(up) - np.conj(u) * up)
    return ModeSolution(spec.k, eta, f, fp, drift, steps, error)


def _evaluate(fn, eta: np.ndarray) -> np.ndarray:
    """A model callable on an array of eta; constant callables broadcast."""
    return np.broadcast_to(np.asarray(fn(eta), dtype=float), eta.shape)


def _interval_propagators(model: ScaleFactorModel, k2: float, eta: np.ndarray,
                          omega: np.ndarray, tol: float):
    """Propagator of every sample interval, as rows (m00, m01, m10, m11) of
    shape (4, n); the sum of the local error estimates; the substep count.

    Interval i takes n_i coarse substeps and 2 n_i fine ones, and the fine
    product is its propagator.  Its local error estimate is the infinity
    norm of the fine-minus-coarse product in the (u, u'/omega_i) scaling,
    a bound on the relative change it makes to any state; n_i grows until
    the estimate is within the interval's share of ``tol``.
    """
    widths = np.diff(eta)
    share = np.maximum(tol * widths / (eta[-1] - eta[0]), _ROUNDOFF)
    counts = np.ones(widths.size, dtype=np.int64)
    fine = np.empty((4, widths.size))
    local = np.empty(widths.size)
    todo = np.arange(widths.size)
    while todo.size:
        n = counts[todo]
        starts = np.tile(eta[todo], 2)
        products = _products(model, k2, starts, np.tile(widths[todo], 2),
                             np.concatenate([n, 2 * n]))
        fine[:, todo] = products[:, todo.size:]
        diff = np.abs(products[:, todo.size:] - products[:, :todo.size])
        scale = omega[todo]
        error = np.maximum(diff[0] + diff[1] * scale, diff[2] / scale + diff[3])
        local[todo] = error
        missed = ~(error <= share[todo])          # NaN misses too
        todo, n = todo[missed], n[missed]
        growth = np.fmin(_SAFETY * (error[missed] / share[todo]) ** 0.25, _MAX_GROWTH)
        counts[todo] = np.maximum(np.ceil(n * growth), n + 1)
        if counts.sum() > _MAX_SUBSTEPS:
            raise IntegrationError(
                f"tolerance not met within {_MAX_SUBSTEPS} substeps",
                last_eta=float(eta[todo[0]]))
    return fine, float(local.sum()), 2 * int(counts.sum())


def _products(model: ScaleFactorModel, k2: float, starts: np.ndarray,
              widths: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Product of counts[i] equal Magnus steps across [starts[i],
    starts[i] + widths[i]] for every i, evaluated CHUNK substeps at a time."""
    offsets = np.concatenate([[0], np.cumsum(counts)])
    parts, owners = [], []
    for lo in range(0, int(offsets[-1]), _CHUNK):
        index = np.arange(lo, min(lo + _CHUNK, int(offsets[-1])))
        owner = np.searchsorted(offsets, index, side="right") - 1
        h = widths[owner] / counts[owner]
        t = starts[owner] + (index - offsets[owner]) * h
        product, owner = _run_products(_magnus_steps(model, k2, t, h), owner)
        parts.append(product)
        owners.append(owner)
    return _run_products(np.concatenate(parts, axis=1), np.concatenate(owners))[0]


def _magnus_steps(model: ScaleFactorModel, k2: float, t: np.ndarray,
                  h: np.ndarray) -> np.ndarray:
    """exp(Omega) for the steps [t, t + h], as rows (m00, m01, m10, m11).

    Omega = [[alpha, h], [-beta, -alpha]] with beta = h (k^2 + (q1 + q2)/2),
    alpha = (sqrt 3 / 12) h^2 (q2 - q1) and q = a''/a at the Gauss points.
    Omega^2 = d I with d = alpha^2 - h beta, so exp(Omega) = C I + S Omega
    with C = cos, S = sin(r)/r (r = sqrt(-d)), or cosh and sinh(r)/r when
    d > 0.
    """
    x1, x2 = t + _GAUSS[0] * h, t + _GAUSS[1] * h
    q1 = _evaluate(model.a_second, x1) / _evaluate(model.a, x1)
    q2 = _evaluate(model.a_second, x2) / _evaluate(model.a, x2)
    alpha = _COMMUTATOR * h * h * (q2 - q1)
    beta = h * (k2 + 0.5 * (q1 + q2))
    d = alpha * alpha - h * beta
    r = np.sqrt(np.abs(d))
    oscillating = d <= 0.0
    c = np.where(oscillating, np.cos(r), np.cosh(r))
    s = np.where(oscillating, np.sinc(r / np.pi), np.sinh(r) / np.where(oscillating, 1.0, r))
    return np.stack([c + s * alpha, s * h, -s * beta, c - s * alpha])


def _run_products(m: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered product of each run of equal ``owner`` among the matrices
    (columns of rows m00, m01, m10, m11), later factors on the left, by
    pairwise reduction: each pass multiplies neighbours within a run and
    halves every run."""
    first = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    length = np.diff(np.r_[first, owner.size])
    pos = np.arange(owner.size) - np.repeat(first, length)
    length = np.repeat(length, length)
    while length.max() > 1:
        lead = np.flatnonzero(pos % 2 == 0)
        has_next = pos[lead] + 1 < length[lead]
        paired = lead[has_next]
        reduced = m[:, lead]
        reduced[:, has_next] = _multiply(m[:, paired + 1], m[:, paired])
        m, owner = reduced, owner[lead]
        pos, length = pos[lead] // 2, (length[lead] + 1) // 2
    return m, owner


def _multiply(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Columnwise 2x2 products b a."""
    b00, b01, b10, b11 = b
    a00, a01, a10, a11 = a
    return np.stack([b00 * a00 + b01 * a10, b00 * a01 + b01 * a11,
                     b10 * a00 + b11 * a10, b10 * a01 + b11 * a11])


def _propagate(propagators: np.ndarray, u0: complex, du0: complex,
               eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, u') at every sample, one pass through the interval propagators."""
    u, du = u0, du0
    us, dus = [u], [du]
    for a, b, c, d in zip(*propagators.tolist()):
        u, du = a * u + b * du, c * u + d * du
        us.append(u)
        dus.append(du)
    us, dus = np.array(us, dtype=complex), np.array(dus, dtype=complex)
    finite = np.isfinite(us) & np.isfinite(dus)
    if not finite.all():
        raise IntegrationError("solution overflowed",
                               last_eta=float(eta[max(np.argmin(finite) - 1, 0)]))
    return us, dus


def _u_and_uprime(a: np.ndarray, ap: np.ndarray, f: np.ndarray,
                  fp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = a f and u' = a' f + a f' from a, a' on the samples."""
    return a * f, ap * f + a * fp


def _drift(w: np.ndarray) -> float:
    w0 = w[0]
    dev = np.max(np.abs(w - w0))
    if abs(w0) < 1e-12 * max(1.0, float(np.max(np.abs(w)))) or w0 == 0:
        return float(dev)  # degenerate pair: absolute drift
    return float(dev / abs(w0))


def wronskian_drift(sol1: ModeSolution, sol2: ModeSolution,
                    model: ScaleFactorModel) -> float:
    """max |W(eta) - W(eta0)| / |W(eta0)| for u = a f; absolute if W(eta0) = 0."""
    if sol1.eta.shape != sol2.eta.shape or not np.array_equal(sol1.eta, sol2.eta):
        raise GridError("solutions sampled on different eta grids")
    a, ap = _evaluate(model.a, sol1.eta), _evaluate(model.a_prime, sol1.eta)
    u1, up1 = _u_and_uprime(a, ap, sol1.f, sol1.f_prime)
    u2, up2 = _u_and_uprime(a, ap, sol2.f, sol2.f_prime)
    return _drift(u1 * up2 - u2 * up1)
