"""Kernel table for the abstract-index expression engine.

Every kernel has a fixed template of slots; writing a spinor index against
the template variance is sugar for contraction with an explicit
metric-spinor factor (``KernelTable.eps_bridge``), so weights, symmetries
and component evaluation always see kernels in template position.  The
derivative operators are no exception: ``nabla^{A A'}`` is
``nabla_{X X'}`` contracted with ``eps^{A X}`` and ``eps^{A' X'}``.  A
world index has no metric spinor and is written in its template variance.
The metric spinors and deltas are the constant kernels: their written
variance must match the template, and their components are the integer
tables of :mod:`spinorwave.core.indices`.

A kernel declares its (weight, antiweight) under the generalized Weyl
gauge group in template position, and a displaced index adds its metric
spinor's declared weight.  ``nabla`` and ``partial`` weigh (-1/2, -1/2),
the weight of the connecting object in nabla_{AA'} = Sigma^a_{AA'} nabla_a
that keeps g^{ab} = Sigma^a_{AA'} Sigma^{bAA'} invariant (Penrose &
Rindler Vol. 1, section 4.12).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from ..core.indices import DELTA, EPS, IndexKind, Slot, Variance, spinor_signature
from .expr import Factor, Idx

# the weight and the antiweight of the connecting object Sigma^a_{AA'}
_MINUS_HALF = Fraction(-1, 2)


class Kernel(NamedTuple):
    name: str
    slots: tuple[Slot, ...]
    weight: tuple[int | Fraction, int | Fraction] = (0, 0)
    # totally symmetric sets; a kernel whose components are EPS, a metric
    # spinor, is antisymmetric on its pair of slots instead
    sym_groups: tuple[tuple[int, ...], ...] = ()
    operator: bool = False
    # the integer components of a constant kernel (transparent to operators),
    # None for every other kernel
    components: tuple[tuple[int, ...], ...] | None = None

    @property
    def rank(self) -> int:
        return len(self.slots)


_U, _UU, _P, _PU, _W = spinor_signature("uUpPw").slots


# The builtin kernels by name, built once; each table starts from a copy.
_BUILTIN = {k.name: k for k in (
    # constant kernels: fixed variance; the metric spinors carry the weights
    Kernel("eps_lo", (_U, _U), (-1, 0), components=EPS),
    Kernel("eps_up", (_UU, _UU), (1, 0), components=EPS),
    Kernel("eps_lo_p", (_P, _P), (0, -1), components=EPS),
    Kernel("eps_up_p", (_PU, _PU), (0, 1), components=EPS),
    Kernel("delta", (_UU, _U), (0, 0), components=DELTA),
    Kernel("delta_p", (_PU, _P), (0, 0), components=DELTA),
    # wave functions and curvature objects
    Kernel("phi", (_U, _U), (-1, 0), sym_groups=((0, 1),)),
    Kernel("phi_p", (_P, _P), (0, -1), sym_groups=((0, 1),)),
    Kernel("theta", (_U, _U), (0, 0)),
    Kernel("omega", (_U, _U, _U, _U), (-2, 0)),
    Kernel("Psi", (_U, _U, _U, _U), (-2, 0), sym_groups=((0, 1, 2, 3),)),
    Kernel("W", (_U, _P, _U, _P, _U, _U), (-2, -1)),
    Kernel("Phi", (_W,), (0, 0)),
    Kernel("R", (), (0, 0)),
    Kernel("vartheta_sym", (_W, _U, _U), (-1, 0), sym_groups=((1, 2),)),
    # derivative operators
    Kernel("nabla", (_U, _P), (_MINUS_HALF, _MINUS_HALF), operator=True),
    Kernel("partial", (_U, _P), (_MINUS_HALF, _MINUS_HALF), operator=True),
    Kernel("Box", (), (0, 0), operator=True),
    Kernel("Delta", (_UU, _UU), (1, 0), sym_groups=((0, 1),), operator=True),
)}


class KernelTable:
    """Builtin kernels plus expression-scoped auto-registered generics."""

    def __init__(self):
        self.kernels: dict[str, Kernel] = dict(_BUILTIN)
        # name -> kernel, or None for a name not yet registered: the dict's
        # own lookup, since every factor of every term is looked up.  The
        # parser registers each name it meets, so every factor of a parsed
        # term names a kernel of its table.
        self.get = self.kernels.get

    def resolve_eps(self, kind: IndexKind, variance: Variance) -> Kernel:
        """The metric spinor whose two slots have this (spinor) kind and
        variance."""
        primed = kind is IndexKind.PRIMED
        up = variance is Variance.UP
        name = f"eps_{'up' if up else 'lo'}{'_p' if primed else ''}"
        return self.kernels[name]

    def eps_bridge(self, idx: Idx, fresh: str) -> tuple[Factor, Idx]:
        """The metric-spinor factor that displaces the written spinor index
        ``idx`` through the fresh label ``fresh``, and the index its kernel
        slot takes: an up ``idx`` is raised, xi^L = eps^{L X} xi_X, a down
        one lowered, xi_L = xi^X eps_{X L}."""
        kind = idx.kind
        if idx.up:
            eps = self.resolve_eps(kind, Variance.UP)
            return Factor(eps.name, (idx, Idx(fresh, kind, True))), Idx(fresh, kind, False)
        eps = self.resolve_eps(kind, Variance.DOWN)
        return Factor(eps.name, (Idx(fresh, kind, False), idx)), Idx(fresh, kind, True)

    def resolve_delta(self, kind: IndexKind) -> Kernel:
        """The delta whose two slots have this (spinor) kind."""
        return self.kernels["delta_p" if kind is IndexKind.PRIMED else "delta"]

    def auto_register(self, name: str, slots: tuple[Slot, ...]) -> Kernel:
        """Unknown kernels become generic: template = first written position."""
        kernel = Kernel(name, slots)
        self.kernels[name] = kernel
        return kernel
