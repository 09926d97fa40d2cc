"""Spin affinity: symmetric/trace split, displacement identity, metric formula.

The two covariant-derivative forms implemented by
:func:`covariant_derivative_forms` agree identically for any affinity and any
wave function given in the mixed form of a symmetric spinor (equivalently: a
trace-free mixed array).  The agreement is convention-covariant; with this
package's raise/lower orientation the affinity pieces of the rearranged form
enter with the signs used below (the opposite lowering orientation for the
affinity flips both signs and reproduces the same value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateMetricError, IndexPlacementError
from .connecting import ConnectingObjects
from .convention import EPS_LOW, EPS_UP


@dataclass(frozen=True)
class SpinAffinity:
    """Components ``theta_{aA}^{C}``: world x unprimed-down x unprimed-up,
    batched over an arbitrary leading sample shape."""

    theta: np.ndarray  # (..., 4, 2, 2)

    def __post_init__(self):
        arr = np.asarray(self.theta, dtype=complex)
        if arr.shape[-3:] != (4, 2, 2):
            raise IndexPlacementError(
                f"affinity trailing axes must be (4,2,2), got {arr.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "theta", arr)

    def lowered(self) -> np.ndarray:
        """theta_{aAC} = theta_{aA}^{X} eps_{XC}."""
        return np.einsum("...aAX,XC->...aAC", self.theta, EPS_LOW)

    def symmetric_part(self) -> np.ndarray:
        """theta_{a(AC)} of the lowered components."""
        low = self.lowered()
        return 0.5 * (low + np.swapaxes(low, -1, -2))

    def trace(self) -> np.ndarray:
        """theta_{aB}^{B}."""
        return np.einsum("...aBB->...a", self.theta)

    def split_residual(self) -> float:
        """Max deviation of theta_{aAC} - theta_{a(AC)} - (1/2) eps_{AC} theta_{aB}^{B}."""
        recon = self.symmetric_part() + 0.5 * np.einsum("AC,...a->...aAC", EPS_LOW, self.trace())
        return float(np.max(np.abs(self.lowered() - recon)))

    @classmethod
    def from_symmetric_part(cls, sym: np.ndarray) -> "SpinAffinity":
        """Rebuild the trace-free theta_{aA}^{C} from theta_{a(AC)}."""
        low = np.asarray(sym, dtype=complex)
        mixed = np.einsum("CX,...aAX->...aAC", EPS_UP, low)
        return cls(mixed)


def covariant_derivative_forms(
    phi: np.ndarray, affinity: SpinAffinity, dphi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both displayed forms of ``nabla_a phi_A^B``; they must agree.

    ``phi``: (..., 2, 2) mixed wave function, trace-free (mixed form of a
    symmetric spinor).  ``dphi``: (..., 4, 2, 2) coordinate derivative.  The
    leading sample shape of ``phi``, ``dphi`` and the affinity must be the
    same.  Returns the direct form (affinity contracted as written) and the
    rearranged form built from the symmetric affinity pieces alone; the
    trace part drops out of the direct form for this weight-zero field,
    which is why the two agree.
    """
    phi = np.asarray(phi, dtype=complex)
    dphi = np.asarray(dphi, dtype=complex)
    th = affinity.theta
    if phi.shape[-2:] != (2, 2) or dphi.shape[-3:] != (4, 2, 2):
        raise IndexPlacementError("phi must be (..., 2, 2) and dphi (..., 4, 2, 2)")
    if not phi.shape[:-2] == dphi.shape[:-3] == th.shape[:-3]:
        raise IndexPlacementError(
            f"sample shapes differ: phi {phi.shape}, dphi {dphi.shape}, affinity {th.shape}"
        )
    direct = (
        dphi
        - np.einsum("...aAC,...CB->...aAB", th, phi)
        + np.einsum("...aCB,...AC->...aAB", th, phi)
    )
    sig = affinity.symmetric_part()
    sig_up = np.einsum("BX,CY,...aXY->...aBC", EPS_UP, EPS_UP, sig)
    rearranged = (
        dphi
        + np.einsum("...aAC,BD,...DC->...aAB", sig, EPS_UP, phi)
        - np.einsum("...aBC,...AD,DC->...aAB", sig_up, phi, EPS_LOW)
    )
    return direct, rearranged


def affinity_from_metric(
    objects: ConnectingObjects, dg: np.ndarray, ds: np.ndarray
) -> np.ndarray:
    """Symmetric affinity part ``theta_{a(BC)}`` from connecting-object data.

    ``dg[c,a,b]`` holds the coordinate derivative of the reconstructed metric
    and ``ds[c,b,B,B']`` that of ``S_b^{BB'}``.  Implements

        theta_{a(BC)} = 1/2 ( S_(B^{bD'} d_{C)D'} g_{ab}
                              + S_{b(B}^{D'} d_{|a|} S_{C)D'}^{b} ),

    which induces a metric-annihilating covariant derivative together with a
    vanishing affinity trace.
    """
    dg = np.asarray(dg, dtype=float)
    ds = np.asarray(ds, dtype=complex)
    if dg.shape != (4, 4, 4) or ds.shape != (4, 4, 2, 2):
        raise IndexPlacementError("dg must be (4,4,4) and ds (4,4,2,2)")
    s, s_inv, g_inv = objects.s, objects.s_inv, objects.metric_inv
    if abs(np.linalg.det(objects.metric)) < 1e-20:
        raise DegenerateMetricError("metric is singular")

    # derivative of the inverse objects via the product rule
    s_low = np.einsum("bXY,XA,YB->bAB", s, EPS_LOW, EPS_LOW)
    ds_low = np.einsum("cbXY,XA,YB->cbAB", ds, EPS_LOW, EPS_LOW)
    dg_inv = -np.einsum("ae,ced,db->cab", g_inv, dg, g_inv)
    ds_inv = np.einsum("cab,bAB->caAB", dg_inv, s_low) + np.einsum(
        "ab,cbAB->caAB", g_inv, ds_low
    )

    t1_conv = np.einsum("DX,bBX->bBD", EPS_UP, s_inv)    # S_B^{bD'}
    dg_spinor = np.einsum("cCD,cab->CDab", s_inv, dg)    # d_{CD'} g_{ab}
    term1 = np.einsum("bBD,CDab->aBC", t1_conv, dg_spinor)
    t2_conv = np.einsum("bXD,XB->bBD", s, EPS_LOW)       # S_{bB}^{D'}
    term2 = np.einsum("bBD,abCD->aBC", t2_conv, ds_inv)  # S_{bB}^{D'} d_a S^b_{CD'}
    raw = 0.5 * (term1 + term2)
    return 0.5 * (raw + np.transpose(raw, (0, 2, 1)))


def induced_world_connection(
    objects: ConnectingObjects, ds: np.ndarray, affinity: SpinAffinity
) -> np.ndarray:
    """Gamma^d_{ca} defined by covariant constancy of the connecting objects.

    The primed-sector affinity is taken as the complex conjugate of the
    unprimed one, which is the physical choice for real metric families.
    """
    ds = np.asarray(ds, dtype=complex)
    m = affinity.theta
    inner = (
        ds
        + np.einsum("cXA,aXB->caAB", m, objects.s)
        + np.einsum("cXB,aAX->caAB", np.conj(m), objects.s)
    )
    return np.einsum("dAB,caAB->dca", objects.s_inv, inner)


def metric_compatibility_residual(
    objects: ConnectingObjects, dg: np.ndarray, ds: np.ndarray, affinity: SpinAffinity
) -> float:
    """Max abs of ``nabla_c g_{ab}`` for the induced world connection."""
    gamma = induced_world_connection(objects, ds, affinity)
    g = objects.metric
    nabla_g = (
        np.asarray(dg, dtype=complex)
        - np.einsum("dca,db->cab", gamma, g)
        - np.einsum("dcb,ad->cab", gamma, g)
    )
    return float(np.max(np.abs(nabla_g)))
