"""Connecting objects between world and spinor indices, signature (+---).

The flat family is ``S_a^{AA'} = (id, sigma_x, sigma_y, sigma_z)/sqrt(2)``,
which reconstructs ``g_ab = diag(+1,-1,-1,-1)`` through the epsilon pair;
``FLAT`` is its one instance.  A conformally flat family scales ``S`` by
``a(eta)`` (so ``g = a^2 eta_ab``) and the inverse objects by ``1/a``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateMetricError
from .convention import EPS_LOW
from .indices import permutation_sign

# sigma_0 the identity and sigma_1..3 the Pauli matrices: entries 0, +-1, +-i.
PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
PAULI.setflags(write=False)

# The flat Infeld-van der Waerden symbols S_a^{AA'} = sigma_a / sqrt(2): the
# factor sqrt(2) / 2 is the double nearest 1/sqrt(2), which 1 / sqrt(2) is not.
FLAT_SYMBOLS = PAULI * (np.sqrt(2.0) / 2)
FLAT_SYMBOLS.setflags(write=False)

MINKOWSKI = np.diag([1.0, -1.0, -1.0, -1.0])
MINKOWSKI.setflags(write=False)


def _reconstruct_metric(s: np.ndarray) -> np.ndarray:
    """g_ab = eps_AB eps_A'B' S_a^{AA'} S_b^{BB'}."""
    return np.einsum("AB,CD,aAC,bBD->ab", EPS_LOW, EPS_LOW, s, s)


@dataclass(frozen=True, eq=False)
class ConnectingObjects:
    """World-index family of 2x2 matrices ``S_a^{AA'}`` plus inverses.

    Instances compare and hash by identity."""

    s: np.ndarray        # (4, 2, 2): S_a^{AA'}
    s_inv: np.ndarray    # (4, 2, 2): S^a_{AA'}
    metric: np.ndarray   # (4, 4): g_ab reconstructed from S
    metric_inv: np.ndarray

    def __post_init__(self):
        for name in ("s", "s_inv", "metric", "metric_inv"):
            getattr(self, name).setflags(write=False)

    @classmethod
    def from_matrices(cls, s: np.ndarray) -> "ConnectingObjects":
        s = np.asarray(s, dtype=complex)
        g = _reconstruct_metric(s).real
        if abs(np.linalg.det(g)) < 1e-20:
            raise DegenerateMetricError("connecting objects give a singular metric")
        g_inv = np.linalg.inv(g)
        # S^a_{AA'} = g^{ab} S_b^{XX'} eps_XA eps_X'A'
        s_low = np.einsum("bXY,XA,YB->bAB", s, EPS_LOW, EPS_LOW)
        s_inv = np.einsum("ab,bAB->aAB", g_inv, s_low)
        return cls(s, s_inv, g, g_inv)

    @classmethod
    def conformal(cls, scale: float) -> "ConnectingObjects":
        if scale <= 0.0:
            raise DegenerateMetricError("conformal factor must be positive")
        return cls.from_matrices(FLAT_SYMBOLS * scale)

    # -- conversions ----------------------------------------------------------

    def vector_to_spinor(self, v: np.ndarray) -> np.ndarray:
        """v^a -> v^{AA'} = S_a^{AA'} v^a."""
        return np.einsum("aAB,a->AB", self.s, v)

    def spinor_to_vector(self, m: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`vector_to_spinor`: v^a = S^a_{AA'} v^{AA'}."""
        return np.einsum("aAB,AB->a", self.s_inv, m)


# PAULI gives the metric 2 eta and the inverse symbols sigma_a eta / 2 exactly
PAULI_OBJECTS = ConnectingObjects.from_matrices(PAULI)
FLAT = ConnectingObjects(FLAT_SYMBOLS, PAULI_OBJECTS.s_inv * np.sqrt(2.0),
                         PAULI_OBJECTS.metric / 2, PAULI_OBJECTS.metric_inv * 2)


def levi_civita4() -> np.ndarray:
    """Totally antisymmetric world tensor with eps_{0123} = +1."""
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        eps[perm] = permutation_sign(perm)
    return eps
