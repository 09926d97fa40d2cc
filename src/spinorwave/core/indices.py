"""Index kinds, variances and slot bookkeeping for spinor/world indices.

Spinor slots have dimension 2, world slots dimension 4.  A signature is an
ordered list of slots; component data is stored row-major over the slots.
The kinds, variances, permutation signs and metric-spinor components defined
here are shared by the component algebra and the abstract-index expression
engine.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from ..errors import IndexPlacementError


class IndexKind(Enum):
    UNPRIMED = "unprimed"
    PRIMED = "primed"
    WORLD = "world"


class Variance(Enum):
    UP = "up"
    DOWN = "down"


DIMENSION = {IndexKind.UNPRIMED: 2, IndexKind.PRIMED: 2, IndexKind.WORLD: 4}

# The one definition of the metric spinor and the delta, as integer tables:
# eps_{AB} and eps^{AB} share the components EPS (eps_{01} = eps^{01} = +1),
# delta^A_B is the identity, and the primed ones are the same tables.
EPS = ((0, 1), (-1, 0))
DELTA = ((1, 0), (0, 1))


def permutation_sign(perm: tuple[int, ...]) -> int:
    """+1 for an even permutation of ``range(len(perm))``, -1 for an odd one
    (a cycle of even length is an odd number of transpositions)."""
    sign, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        j, length = start, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


_CONJUGATE_KIND = {
    IndexKind.UNPRIMED: IndexKind.PRIMED,
    IndexKind.PRIMED: IndexKind.UNPRIMED,
    IndexKind.WORLD: IndexKind.WORLD,
}


class Slot(NamedTuple):
    kind: IndexKind
    variance: Variance

    @property
    def dimension(self) -> int:
        return DIMENSION[self.kind]

    @property
    def conjugate(self) -> "Slot":
        return Slot(_CONJUGATE_KIND[self.kind], self.variance)

    def __repr__(self) -> str:
        arrow = "^" if self.variance is Variance.UP else "_"
        tag = {IndexKind.UNPRIMED: "S", IndexKind.PRIMED: "S'", IndexKind.WORLD: "w"}[self.kind]
        return f"{arrow}{tag}"


class IndexSignature(NamedTuple):
    slots: tuple[Slot, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(s.dimension for s in self.slots)

    @property
    def rank(self) -> int:
        return len(self.slots)

    def check_contractible(self, i: int, j: int) -> None:
        """Slots i, j must share a kind and carry opposite variance."""
        a, b = self.slots[i], self.slots[j]
        if a.kind is not b.kind or a.variance is b.variance:
            raise IndexPlacementError(
                f"cannot contract slot {i} {a!r} with slot {j} {b!r}"
            )

    def check_symmetrizable(self, positions: tuple[int, ...]) -> None:
        """All listed slots must be identical in kind and variance."""
        ref = self.slots[positions[0]]
        for p in positions[1:]:
            if self.slots[p] != ref:
                raise IndexPlacementError(
                    f"slots {positions} are not homogeneous: {self.slots[p]!r} vs {ref!r}"
                )

    def drop(self, *positions: int) -> "IndexSignature":
        keep = [s for n, s in enumerate(self.slots) if n not in positions]
        return IndexSignature(tuple(keep))

    def conjugate(self) -> "IndexSignature":
        return IndexSignature(tuple(s.conjugate for s in self.slots))


def spinor_signature(spec: str) -> IndexSignature:
    """Build a signature from a compact string, one token per slot.

    Tokens: ``U``/``u`` unprimed up/down, ``P``/``p`` primed up/down,
    ``W``/``w`` world up/down.  Example: ``"uU"`` is one unprimed-down and
    one unprimed-up slot.
    """
    table = {
        "U": Slot(IndexKind.UNPRIMED, Variance.UP),
        "u": Slot(IndexKind.UNPRIMED, Variance.DOWN),
        "P": Slot(IndexKind.PRIMED, Variance.UP),
        "p": Slot(IndexKind.PRIMED, Variance.DOWN),
        "W": Slot(IndexKind.WORLD, Variance.UP),
        "w": Slot(IndexKind.WORLD, Variance.DOWN),
    }
    try:
        return IndexSignature(tuple(table[c] for c in spec))
    except KeyError as exc:
        raise IndexPlacementError(f"unknown slot token {exc.args[0]!r}") from exc
