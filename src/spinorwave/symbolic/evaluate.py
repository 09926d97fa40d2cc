"""Numeric evaluation of derivative-free expressions by tensor contraction.

This is the numeric oracle for the algebraic layer: bindings supply
concrete :class:`~spinorwave.core.spinor.ComponentSpinor` values for each
kernel (in template slot positions) and each group-expanded term is one
``np.einsum`` call, one letter per index label.  Metric spinors and deltas
are bound automatically to their kernels' components.
"""

from __future__ import annotations

from functools import cache
from string import ascii_letters

import numpy as np

from ..core.indices import IndexSignature, Slot
from ..core.spinor import ComponentSpinor
from ..errors import UnsupportedExpressionError
from .expr import Expr, Factor, expand_groups
from .kernels import KernelTable


@cache
def _constant(components: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """A constant kernel's integer components as a read-only complex array,
    built once for each table."""
    array = np.array(components, dtype=complex)
    array.setflags(write=False)
    return array


def _operand(factor: Factor, bindings: dict[str, ComponentSpinor | complex],
             table: KernelTable) -> np.ndarray:
    """The components of a factor's kernel, a kernel of ``table``: the
    constant's own, or the binding's, checked against the template."""
    name, kernel = factor.kernel, table.get(factor.kernel)
    if kernel.operator:
        raise UnsupportedExpressionError(f"derivative operator {name!r} cannot be evaluated")
    if kernel.components is not None:
        return _constant(kernel.components)
    if name not in bindings:
        raise UnsupportedExpressionError(f"unbound kernel {name!r}")
    bound = bindings[name]
    template = IndexSignature(kernel.slots)
    if isinstance(bound, ComponentSpinor) and bound.signature == template:
        return bound.data
    if not isinstance(bound, ComponentSpinor) and not template.slots:
        return np.asarray(complex(bound))
    raise UnsupportedExpressionError(f"binding for kernel {name!r} does not match its "
                                     f"template {template!r}")


def component_eval(expr: Expr, bindings: dict[str, ComponentSpinor | complex],
                   table: KernelTable) -> ComponentSpinor:
    """Evaluate a derivative-free expression against concrete components,
    ``table`` holding the kernel of every factor (the parser's table).

    Returns a spinor over the free indices, slots ordered by label name.
    """
    arrays: dict[str, np.ndarray] = {}
    for term in expr.terms:
        for f in term.factors:
            if f.kernel not in arrays:
                arrays[f.kernel] = _operand(f, bindings, table)
    free = expr.free_indices()
    free_names = sorted(free)
    out_sig = IndexSignature(tuple(Slot(free[n].kind, free[n].variance) for n in free_names))
    out = np.zeros(out_sig.shape, dtype=complex)
    for raw in expr.terms:
        for term in expand_groups(raw):
            labels = sorted({idx.name for _, idx in term.all_indices()})
            if len(labels) > len(ascii_letters):
                raise UnsupportedExpressionError(f"a term with {len(labels)} index labels "
                                                 "exceeds the 52 einsum letters")
            letter = dict(zip(labels, ascii_letters))
            inputs = ("".join(letter[i.name] for i in f.indices) for f in term.factors)
            spec = ",".join(["", *inputs]) + "->" + "".join(letter[n] for n in free_names)
            out += np.einsum(spec, complex(term.coeff), *(arrays[f.kernel] for f in term.factors))
    return ComponentSpinor(out_sig, out)
