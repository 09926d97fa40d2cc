"""Dense multi-index complex arrays with explicit index signatures.

All operations are pure: they return new :class:`ComponentSpinor` instances
and never mutate their inputs, so values are safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ContractionError, IndexPlacementError
from .convention import EPS_LOW, EPS_UP
from .indices import (
    IndexKind,
    IndexSignature,
    Slot,
    Variance,
    permutation_sign,
)


@dataclass(frozen=True)
class ComponentSpinor:
    """Complex component array, one axis per slot of ``signature``."""

    signature: IndexSignature
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=complex)
        if arr.shape != self.signature.shape:
            raise IndexPlacementError(
                f"data shape {arr.shape} does not match signature {self.signature.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, signature: IndexSignature) -> "ComponentSpinor":
        return cls(signature, np.zeros(signature.shape, dtype=complex))

    # -- algebra ---------------------------------------------------------------

    def tensor(self, other: "ComponentSpinor") -> "ComponentSpinor":
        sig = IndexSignature(self.signature.slots + other.signature.slots)
        return ComponentSpinor(sig, np.tensordot(self.data, other.data, axes=0))

    def contract(self, i: int, j: int) -> "ComponentSpinor":
        """Sum slots ``i`` and ``j`` over their shared index.

        The slots must agree in kind and carry opposite variance.
        """
        try:
            self.signature.check_contractible(i, j)
        except IndexPlacementError as exc:
            raise ContractionError(str(exc)) from exc
        data = np.trace(self.data, axis1=i, axis2=j)
        return ComponentSpinor(self.signature.drop(i, j), data)

    def raise_lower(self, i: int, direction: Variance) -> "ComponentSpinor":
        """Displace spinor slot ``i`` to ``direction`` with the fixed convention."""
        slot = self.signature.slots[i]
        if slot.kind is IndexKind.WORLD:
            raise IndexPlacementError("raise_lower applies to spinor slots only")
        if slot.variance is direction:
            raise IndexPlacementError(
                f"slot {i} already has variance {direction.value}"
            )
        if direction is Variance.UP:
            # xi^A = eps^{AB} xi_B: new axis comes out in front, move it back.
            data = np.tensordot(EPS_UP, self.data, axes=([1], [i]))
            data = np.moveaxis(data, 0, i)
        else:
            # xi_B = xi^A eps_{AB}: new axis comes out last, move it back.
            data = np.tensordot(self.data, EPS_LOW, axes=([i], [0]))
            data = np.moveaxis(data, -1, i)
        slots = list(self.signature.slots)
        slots[i] = Slot(slot.kind, direction)
        return ComponentSpinor(IndexSignature(tuple(slots)), data)

    def symmetrize(self, positions: tuple[int, ...], antisym: bool = False) -> "ComponentSpinor":
        """Average over (signed) permutations of the listed slots.

        Idempotent; antisymmetrizing three or more dimension-2 slots gives zero.
        """
        positions = tuple(positions)
        self.signature.check_symmetrizable(positions)
        n = len(positions)
        acc = np.zeros_like(self.data)
        axes_base = list(range(self.signature.rank))
        for perm in itertools.permutations(range(n)):
            axes = axes_base[:]
            for dest, src in zip(positions, perm):
                axes[dest] = positions[src]
            sign = permutation_sign(perm) if antisym else 1
            acc = acc + sign * np.transpose(self.data, axes)
        return ComponentSpinor(self.signature, acc / math.factorial(n))

    def conjugate(self) -> "ComponentSpinor":
        """Complex conjugation; swaps unprimed and primed slot kinds in place."""
        return ComponentSpinor(self.signature.conjugate(), np.conj(self.data))

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "ComponentSpinor") -> "ComponentSpinor":
        if self.signature != other.signature:
            raise IndexPlacementError("signatures differ in addition")
        return ComponentSpinor(self.signature, self.data + other.data)

    def __sub__(self, other: "ComponentSpinor") -> "ComponentSpinor":
        if self.signature != other.signature:
            raise IndexPlacementError("signatures differ in subtraction")
        return ComponentSpinor(self.signature, self.data - other.data)

    def __mul__(self, scalar: complex) -> "ComponentSpinor":
        return ComponentSpinor(self.signature, self.data * scalar)

    __rmul__ = __mul__

    # -- diagnostics ---------------------------------------------------------------

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0

    def allclose(self, other: "ComponentSpinor", atol: float = 1e-12) -> bool:
        return self.signature == other.signature and bool(
            np.allclose(self.data, other.data, rtol=0.0, atol=atol)
        )


def random_spinor(signature: IndexSignature, rng: np.random.Generator) -> ComponentSpinor:
    """Unit-scale random complex components for property suites."""
    shape = signature.shape
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ComponentSpinor(signature, data)
