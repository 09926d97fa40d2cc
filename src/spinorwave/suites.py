"""Seeded property suites behind the ``check`` subcommand.

Every suite draws its random inputs from a generator seeded by the run seed,
reports its worst error against the documented tolerance, and never raises:
an exception is itself a failure (negative-control hooks corrupt the algebra
on purpose).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .core import affinity as aff
from .core.connecting import FLAT, FLAT_SYMBOLS, MINKOWSKI, ConnectingObjects
from .core.convention import EPS_LOW, EPS_UP
from .core.indices import spinor_signature
from .core.spinor import ComponentSpinor, random_spinor
from .em import (
    BivectorField,
    PhotonWaveFunction,
    bivector_from_spinors,
    dual,
    massless_residual,
    null_wavevector,
    plane_wave_potential,
    plane_wave_wavefunction,
    pure_gauge_potential,
    field_from_potential,
    spinors_from_bivector,
    stress_energy,
)
from .symbolic import KernelTable, Parser, component_eval


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    max_error: float
    tolerance: float
    detail: str = ""


def _worse(worst: float, error) -> float:
    """The larger of two errors; a NaN or infinite error is infinite, so it
    fails every tolerance (max() would keep ``worst`` past a NaN)."""
    error = float(error)
    return max(worst, error) if math.isfinite(error) else math.inf


def _suite_eps_algebra(rng: np.random.Generator) -> tuple[float, float, str]:
    worst = 0.0
    delta = np.einsum("ab,cb->ac", EPS_UP, EPS_LOW)
    worst = _worse(worst, float(np.max(np.abs(delta - np.eye(2)))))
    worst = _worse(worst, abs(np.einsum("ab,ab->", EPS_UP, EPS_LOW) - 2.0))
    for _ in range(50):
        xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        # raise xi^A = eps^{AB} xi_B, then lower xi_B = xi^A eps_{AB}
        worst = _worse(worst, float(np.max(np.abs((EPS_UP @ xi) @ EPS_LOW - xi))))
    s = random_spinor(spinor_signature("uuu"), rng)
    worst = _worse(worst, s.symmetrize((0, 1, 2), antisym=True).max_abs())
    return worst, 1e-14, ""


def _suite_decomposition(rng: np.random.Generator) -> tuple[float, float, str]:
    worst = 0.0
    for _ in range(100):
        theta = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        sym = 0.5 * (theta + theta.T)
        trace = np.einsum("CB,CB->", EPS_UP, theta)
        recon = sym + 0.5 * EPS_LOW * trace
        worst = _worse(worst, float(np.max(np.abs(theta - recon))))
    return worst, 1e-14, ""


def _suite_conjugation(rng: np.random.Generator) -> tuple[float, float, str]:
    worst = 0.0
    for _ in range(25):
        s = random_spinor(spinor_signature("uUpP"), rng)
        worst = _worse(worst, (s.conjugate().conjugate() - s).max_abs())
        c1 = s.contract(0, 1).conjugate()
        c2 = s.conjugate().contract(0, 1)
        worst = _worse(worst, (c1 - c2).max_abs())
    return worst, 1e-14, ""


_INDEX_DISPLACEMENT_DRAWS = 1000


def _suite_index_displacement(rng: np.random.Generator) -> tuple[float, float, str]:
    # one row of 72 normals per draw, in the order a loop of single draws
    # takes them: theta, phi_{AB} and its derivative, each real then
    # imaginary part; the forms are then compared once over the batch
    draws = _INDEX_DISPLACEMENT_DRAWS
    parts = rng.standard_normal((draws, 72))
    theta = parts[:, :32].reshape(draws, 2, 4, 2, 2)
    low = parts[:, 32:40].reshape(draws, 2, 2, 2)
    dphi = parts[:, 40:].reshape(draws, 2, 4, 2, 2)
    theta, low, dphi = (x[:, 0] + 1j * x[:, 1] for x in (theta, low, dphi))
    phi_low = 0.5 * (low + np.swapaxes(low, -1, -2))
    phi = np.einsum("BX,...AX->...AB", EPS_UP, phi_low)
    direct, rearranged = aff.covariant_derivative_forms(phi, aff.SpinAffinity(theta), dphi)
    worst = _worse(0.0, np.max(np.abs(direct - rearranged)))
    return worst, 1e-12, f"{draws} draws"


def _conformal_family(a0: float, a1: float, eta: float):
    """S, dg, ds for a(eta) = a0 + a1*eta with exact derivatives."""
    a = a0 + a1 * eta
    ds = np.zeros((4, 4, 2, 2), dtype=complex)
    ds[0] = a1 * FLAT_SYMBOLS
    dg = np.zeros((4, 4, 4))
    dg[0] = 2.0 * a * a1 * MINKOWSKI
    return ConnectingObjects.conformal(a), dg, ds


def _suite_affinity_metric(rng: np.random.Generator) -> tuple[float, float, str]:
    worst = 0.0
    zero_sym = aff.affinity_from_metric(FLAT, np.zeros((4, 4, 4)), np.zeros((4, 4, 2, 2)))
    worst = _worse(worst, float(np.max(np.abs(zero_sym))))
    objects, dg, ds = _conformal_family(1.0, 0.3, 0.7)
    sym = aff.affinity_from_metric(objects, dg, ds)
    worst = _worse(worst, float(np.max(np.abs(sym - np.transpose(sym, (0, 2, 1))))))
    affinity = aff.SpinAffinity.from_symmetric_part(sym)
    worst = _worse(worst, affinity.split_residual())
    worst = _worse(worst, aff.metric_compatibility_residual(objects, dg, ds, affinity))
    return worst, 1e-12, ""


def _suite_connecting(rng: np.random.Generator) -> tuple[float, float, str]:
    worst = 0.0
    worst = _worse(worst, float(np.max(np.abs(FLAT.metric - MINKOWSKI))))
    for _ in range(50):
        v = rng.standard_normal(4)
        m = FLAT.vector_to_spinor(v)
        worst = _worse(worst, float(np.max(np.abs(FLAT.spinor_to_vector(m) - v))))
    cc = ConnectingObjects.conformal(2.5)
    worst = _worse(worst, float(np.max(np.abs(cc.metric - 6.25 * MINKOWSKI))))
    return worst, 1e-12, ""


def _suite_bivector_roundtrip(rng: np.random.Generator) -> tuple[float, float, str]:
    worst = 0.0
    raw = rng.standard_normal((100, 4, 4))
    F = BivectorField(raw - np.swapaxes(raw, -1, -2))
    wf = spinors_from_bivector(F)
    worst = _worse(worst, float(np.max(np.abs(wf.phi_conj - np.conj(wf.phi)))))
    back = bivector_from_spinors(wf)
    worst = _worse(worst, float(np.max(np.abs(back.values - F.values))))
    return worst, 1e-12, "100 draws"


def _suite_duality(rng: np.random.Generator) -> tuple[float, float, str]:
    raw = rng.standard_normal((20, 4, 4))
    F = BivectorField(raw - np.swapaxes(raw, -1, -2))
    wf = spinors_from_bivector(F)
    rotated = BivectorField(
        math.cos(math.pi / 2) * F.values + math.sin(math.pi / 2) * dual(F).values
    )
    wf_rot = spinors_from_bivector(rotated)
    expected = np.exp(-1j * math.pi / 2) * wf.phi
    worst = _worse(0.0, np.max(np.abs(wf_rot.phi - expected)))
    return worst, 1e-12, "theta = pi/2"


def _suite_massless(rng: np.random.Generator) -> tuple[float, float, str]:
    alpha = np.array([0.8 + 0.3j, -0.2 + 0.5j])
    k = null_wavevector(alpha)
    wf = plane_wave_wavefunction(alpha, k)
    pts = rng.standard_normal((60, 4))
    worst = _worse(0.0, massless_residual(wf, pts))
    # negative control: a non-null wave must be rejected loudly
    k_bad = k + np.array([0.5, 0.0, 0.0, 0.0])
    wf_bad = plane_wave_wavefunction(alpha, k_bad)
    bound = 0.1 * float(np.linalg.norm(k_bad)) * float(np.max(np.abs(wf_bad.phi(pts))))
    if massless_residual(wf_bad, pts) <= bound:
        return math.inf, 1e-12, "non-null wave not rejected"
    return worst, 1e-12, ""


def _suite_gauge_invariance(rng: np.random.Generator) -> tuple[float, float, str]:
    k = np.array([0.9, 0.4, -0.2, 0.1])
    gauge = pure_gauge_potential(k, scale=1.3)
    pts = rng.standard_normal((40, 4))
    F = field_from_potential(gauge, pts)
    worst = _worse(0.0, np.max(np.abs(F.values)))
    wave = plane_wave_potential(np.array([0.0, 1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0]))
    F1 = field_from_potential(wave, pts)
    F2 = field_from_potential(lambda x: wave(x) + gauge(x), pts)
    worst = _worse(worst, float(np.max(np.abs(F1.values - F2.values))))
    return worst, 1e-12, ""


def _suite_trace_free(rng: np.random.Generator) -> tuple[float, float, str]:
    worst = 0.0
    t = np.array([1.0, 0.0, 0.0, 0.0])
    inverse_metric = np.linalg.inv(MINKOWSKI)
    for _ in range(100):
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        wf = PhotonWaveFunction.physical(0.5 * (raw + raw.T))
        T = stress_energy(wf)
        worst = _worse(worst, float(np.max(np.abs(T - T.T))))
        worst = _worse(worst, abs(float(np.einsum("ab,ab->", inverse_metric, T))))
        density = float(t @ T @ t)
        if density < -1e-12:
            return abs(density), 1e-12, "negative energy density"
    return worst, 1e-12, "100 draws"


def _suite_symbolic_numeric(rng: np.random.Generator) -> tuple[float, float, str]:
    table = KernelTable()
    parser = Parser(table)
    worst = 0.0
    # an eps bridge and a delta contraction, both zero for every theta
    diffs = [lhs - rhs for lhs, rhs in (
        parser.parse_identity("theta_{A B} == theta_{(A B)} + 1/2 eps_{A B} theta_{C}^{C}"),
        parser.parse_identity("theta_{A B} == delta^{C}_{A} theta_{C B}"),
    )]
    for _ in range(100):
        theta = random_spinor(spinor_signature("uu"), rng)
        for diff in diffs:
            value = component_eval(diff, {"theta": theta}, table)
            worst = _worse(worst, value.max_abs())
    # graviton-coupling contraction against a direct nested loop
    expr = parser.parse_expression("2 Psi_{A D}^{B C} phi_{C}^{D}")
    for _ in range(25):
        psi = random_spinor(spinor_signature("uuuu"), rng).symmetrize((0, 1, 2, 3))
        low = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        phi = ComponentSpinor(spinor_signature("uu"), 0.5 * (low + low.T))
        got = component_eval(expr, {"Psi": psi, "phi": phi}, table).data
        want = np.zeros((2, 2), dtype=complex)  # free labels A (down), B (up)
        # direct loop with the same displacement reading: Psi_{AD}^{BC} phi_C^D
        for A in range(2):
            for B in range(2):
                acc = 0j
                for C in range(2):
                    for D in range(2):
                        psi_mixed = 0j
                        for x in range(2):
                            for y in range(2):
                                psi_mixed += psi.data[A, D, x, y] * EPS_UP[B, x] * EPS_UP[C, y]
                        phi_mixed = 0j
                        for u in range(2):
                            phi_mixed += phi.data[C, u] * EPS_UP[D, u]
                        acc += 2.0 * psi_mixed * phi_mixed
                want[A, B] = acc
        worst = _worse(worst, float(np.max(np.abs(got - want))))
    return worst, 1e-10, "nested-loop oracle"


# name -> suite; a suite returns its worst error, its tolerance and a detail
SUITES: dict[str, Callable[[np.random.Generator], tuple[float, float, str]]] = {
    "eps-algebra": _suite_eps_algebra,
    "decomposition": _suite_decomposition,
    "conjugation": _suite_conjugation,
    "index-displacement": _suite_index_displacement,
    "affinity-metric": _suite_affinity_metric,
    "connecting-objects": _suite_connecting,
    "bivector-roundtrip": _suite_bivector_roundtrip,
    "duality-rotation": _suite_duality,
    "massless-null-wave": _suite_massless,
    "gauge-invariance": _suite_gauge_invariance,
    "trace-free": _suite_trace_free,
    "symbolic-numeric": _suite_symbolic_numeric,
}


def run_suites(seed: int, names: list[str] | None = None) -> list[SuiteResult]:
    selected = names or sorted(SUITES)
    results = []
    for name in selected:
        rng = np.random.default_rng([seed, _stable_hash(name)])
        try:
            max_error, tolerance, detail = SUITES[name](rng)
        except Exception as exc:  # a crash is a failed suite, not a crash of the run
            max_error, tolerance, detail = math.inf, 0.0, f"{type(exc).__name__}: {exc}"
        results.append(SuiteResult(name, bool(max_error < tolerance), float(max_error),
                                   tolerance, detail))
    return results


def _stable_hash(name: str) -> int:
    out = 0
    for ch in name:
        out = (out * 131 + ord(ch)) % (2**31 - 1)
    return out
