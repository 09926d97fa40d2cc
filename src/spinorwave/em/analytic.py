"""Analytic field closures with exact derivatives.

Plane waves and pure gauges are first-class inputs so the massless field
equation can be checked to machine precision instead of discretization
error.  A potential is given by its exact gradient, the one thing the field
F_ab = d_a Phi_b - d_b Phi_a reads.  Points are arrays of shape (..., 4) in
(t, x, y, z).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.connecting import FLAT
from ..core.convention import EPS_UP
from ..errors import GridError
from .fields import BivectorField


def _phase(x, k: np.ndarray) -> np.ndarray:
    """k.x = k_a x^a at points x of shape (..., 4), for a covector k."""
    return np.einsum("...a,a->...", np.asarray(x, dtype=float), k)


def plane_wave_potential(amplitude: np.ndarray,
                         wavevector: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The gradient of Phi_b(x) = p_b sin(k.x), k.x = k_a x^a (covector k)."""
    p = np.asarray(amplitude, dtype=float)
    k = np.asarray(wavevector, dtype=float)

    def grad(x):
        return np.cos(_phase(x, k))[..., None, None] * np.einsum("a,b->ab", k, p)

    return grad


def pure_gauge_potential(k: np.ndarray,
                         scale: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """The gradient of Phi = d(chi), chi = scale * cos(k.x); F vanishes
    identically."""
    k = np.asarray(k, dtype=float)

    def grad(x):
        return -scale * np.cos(_phase(x, k))[..., None, None] * np.einsum("a,b->ab", k, k)

    return grad


def field_from_potential(grad: Callable[[np.ndarray], np.ndarray],
                         points: np.ndarray) -> BivectorField:
    """F_ab = d_a Phi_b - d_b Phi_a from ``grad``, the exact d_a Phi_b of
    shape (..., 4, 4) at points of shape (..., 4)."""
    d = grad(points)
    return BivectorField(d - np.swapaxes(d, -1, -2))


def _central_gradient(values: np.ndarray, spacing: float) -> np.ndarray:
    """Second-order central differences over the four grid axes of
    ``values`` (shape (nt, nx, ny, nz, ...)), stacked as axis 4 of the result
    (shape (nt, nx, ny, nz, 4, ...)).  Boundary samples carry zeros; so does
    a singleton axis, along which the field is taken as constant."""
    grid = values.shape[:4]
    d = np.zeros(grid + (4,) + values.shape[4:], dtype=values.dtype)
    for axis in range(4):
        if grid[axis] == 1:
            continue
        if grid[axis] < 3:
            raise GridError(f"axis {axis} too small for the central stencil")

        def along(sl: slice) -> tuple[slice, ...]:
            return tuple(sl if n == axis else slice(None) for n in range(4))

        d[along(slice(1, -1)) + (axis,)] = (
            values[along(slice(2, None))] - values[along(slice(0, -2))]
        ) / (2.0 * spacing)
    return d


def interior(shape: tuple[int, ...]) -> tuple[slice, ...]:
    """Slices selecting interior points of a grid (singleton axes kept whole)."""
    return tuple(slice(1, -1) if n >= 3 else slice(None) for n in shape)


@dataclass(frozen=True)
class AnalyticWaveFunction:
    """phi_{AB}(x) of shape (..., 2, 2) with exact d_a phi_{AB} (..., 4, 2, 2)."""

    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]


def null_wavevector(alpha: np.ndarray) -> np.ndarray:
    """k_a from the principal spinor: k_{AA'} = alpha_A conj(alpha)_{A'}."""
    alpha = np.asarray(alpha, dtype=complex)
    k_pair = np.einsum("A,B->AB", alpha, np.conj(alpha))
    k = np.einsum("aAB,AB->a", FLAT.s, k_pair)
    return k.real


def plane_wave_wavefunction(alpha: np.ndarray, wavevector: np.ndarray) -> AnalyticWaveFunction:
    """phi_{AB}(x) = alpha_A alpha_B exp(-i k.x) for a covector k."""
    alpha = np.asarray(alpha, dtype=complex)
    k = np.asarray(wavevector, dtype=float)
    outer = np.einsum("A,B->AB", alpha, alpha)

    def phi(x):
        return np.exp(-1j * _phase(x, k))[..., None, None] * outer

    def dphi(x):
        return -1j * np.einsum("a,...AB->...aAB", k, phi(x))

    return AnalyticWaveFunction(phi, dphi)


def _massless_operator(d: np.ndarray) -> np.ndarray:
    """nabla^{AB'} phi_A^B from d_a phi_{AB} of shape (..., 4, 2, 2)."""
    # d_{CD'} phi = S^a_{CD'} d_a phi; raise to nabla^{AB'} and contract into
    # the mixed wave function phi_A^B = eps^{BX} phi_{AX}
    d_spinor = np.einsum("aCD,...aAB->...CDAB", FLAT.s_inv, d)
    return np.einsum("AC,ED,BX,...CDAX->...EB", EPS_UP, EPS_UP, EPS_UP, d_spinor)


def massless_residual(wf: AnalyticWaveFunction, points: np.ndarray) -> float:
    """Max-norm of nabla^{AB'} phi_A^B over the sample points (flat space)."""
    res = _massless_operator(wf.dphi(np.asarray(points, dtype=float)))
    return float(np.max(np.abs(res))) if res.size else 0.0


def massless_residual_grid(phi_values: np.ndarray, spacing: float) -> float:
    """Interior max-norm massless residual from sampled phi_{AB} on a grid.

    ``phi_values`` has shape (nt, nx, ny, nz, 2, 2); central differences of
    order 2, boundary samples excluded.
    """
    phi_values = np.asarray(phi_values, dtype=complex)
    if phi_values.ndim != 6 or phi_values.shape[-2:] != (2, 2):
        raise GridError("grid wave function must have shape (nt,nx,ny,nz,2,2)")
    res = _massless_operator(_central_gradient(phi_values, spacing))
    core = res[interior(phi_values.shape[:4])]
    return float(np.max(np.abs(core))) if core.size else 0.0
