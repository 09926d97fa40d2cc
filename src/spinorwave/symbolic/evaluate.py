"""Numeric evaluation of derivative-free expressions by index enumeration.

This is the brute-force oracle for the algebraic layer: bindings supply
concrete :class:`~spinorwave.core.spinor.ComponentSpinor` values for each
kernel (in template slot positions) and the expression is summed literally
over every index assignment.  Metric spinors and deltas are bound
automatically from the package convention.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..core.convention import CONVENTION
from ..core.indices import DIMENSION, IndexSignature, Slot
from ..core.spinor import ComponentSpinor
from ..errors import UnsupportedExpressionError
from .expr import Expr, expand_groups
from .kernels import KernelTable


def _auto_bindings() -> dict[str, np.ndarray]:
    lo = np.asarray(CONVENTION.eps_low)
    up = np.asarray(CONVENTION.eps_up)
    delta = np.eye(2, dtype=complex)
    return {
        "eps_lo": lo, "eps_up": up, "eps_lo_p": lo, "eps_up_p": up,
        "delta": delta, "delta_p": delta,
    }


def component_eval(expr: Expr, bindings: dict[str, ComponentSpinor | complex],
                   table: KernelTable | None = None) -> ComponentSpinor:
    """Evaluate a derivative-free expression against concrete components.

    Returns a spinor over the free indices, slots ordered by label name.
    """
    table = table or KernelTable()
    auto = _auto_bindings()
    arrays: dict[str, np.ndarray | complex] = {}

    free = expr.free_indices()
    free_names = sorted(free)
    out_sig = IndexSignature(
        tuple(Slot(free[name].kind, free[name].variance) for name in free_names)
    )
    out = np.zeros(out_sig.shape, dtype=complex)

    for raw in expr.terms:
        for term in expand_groups(raw):
            for factor in term.factors:
                kernel = table.get(factor.kernel)
                if kernel is not None and kernel.operator:
                    raise UnsupportedExpressionError(
                        f"derivative operator {factor.kernel!r} cannot be evaluated"
                    )
                if factor.kernel in arrays:
                    continue
                if factor.kernel in auto:
                    arrays[factor.kernel] = auto[factor.kernel]
                    continue
                if factor.kernel not in bindings:
                    raise UnsupportedExpressionError(
                        f"unbound kernel {factor.kernel!r}"
                    )
                bound = bindings[factor.kernel]
                arrays[factor.kernel] = (
                    bound.data if isinstance(bound, ComponentSpinor) else complex(bound)
                )
            labels = sorted({idx.name for _, idx in term.all_indices()})
            kinds = {idx.name: idx.kind for _, idx in term.all_indices()}
            dims = [DIMENSION[kinds[l]] for l in labels]
            coeff = complex(term.coeff)
            for assignment in itertools.product(*(range(d) for d in dims)):
                value = dict(zip(labels, assignment))
                prod = coeff
                for factor in term.factors:
                    arr = arrays[factor.kernel]
                    if isinstance(arr, complex):
                        prod *= arr
                    else:
                        prod *= arr[tuple(value[i.name] for i in factor.indices)]
                    if prod == 0:
                        break
                if prod == 0:
                    continue
                out[tuple(value[name] for name in free_names)] += prod
    return ComponentSpinor(out_sig, out)
