"""Gauge-weight bookkeeping and well-formedness checks for expressions.

Weights are declared per kernel in template position, and the parser
writes every displaced spinor index, of a field or of an operator, as the
kernel in template position times a metric spinor, which carries its own
weight.  So a term's weight is the sum of its factors' declared weights.
The operators ``nabla`` and ``partial`` weigh (-1/2, -1/2) (see
:mod:`.kernels`), so weights are ``int`` or ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import ParseError, WeightError
from .expr import Expr, Term
from .kernels import KernelTable

Weight = tuple[int | Fraction, int | Fraction]


def term_weight(term: Term, table: KernelTable) -> Weight:
    w, aw = 0, 0
    for factor in term.factors:
        fw, faw = table.get(factor.kernel).weight
        w += fw
        aw += faw
    return (w, aw)


def expr_weight(expr: Expr, table: KernelTable) -> Weight:
    """The homogeneous (weight, antiweight) of the expression; (0,0) if zero."""
    if expr.is_zero:
        return (0, 0)
    weights = {term_weight(t, table) for t in expr.terms}
    if len(weights) > 1:
        # str prints a half weight as -1/2 and an integral one as an int does
        listed = ", ".join(f"({w}, {aw})" for w, aw in sorted(weights))
        raise WeightError(f"weight-inhomogeneous sum: [{listed}]")
    return weights.pop()


def _free_signature(census: dict) -> dict[str, tuple]:
    """Kind and variance of each index that a term's census holds once."""
    return {name: (occs[0][1].kind, occs[0][1].variance)
            for name, occs in census.items() if len(occs) == 1}


def validate_expr(expr: Expr, table: KernelTable) -> None:
    """Dummy balance, identical free sets across the sum, weight homogeneity."""
    free_sets = []
    for term in expr.terms:
        census = term.index_census()
        for name, occs in census.items():
            if len(occs) > 2:
                raise ParseError(f"unbalanced dummy index {name!r} ({len(occs)} occurrences)")
            if len(occs) == 2:
                a, b = occs[0][1], occs[1][1]
                if a.kind is not b.kind:
                    raise ParseError(f"dummy index {name!r} changes kind")
                if a.variance is b.variance:
                    raise ParseError(f"dummy index {name!r} repeated with equal variance")
        free_sets.append(_free_signature(census))
    for other in free_sets[1:]:
        if other != free_sets[0]:
            raise ParseError(
                f"mixed free-index sets in sum: {sorted(free_sets[0])} vs {sorted(other)}"
            )
    expr_weight(expr, table)


def free_signature(expr: Expr) -> dict[str, tuple]:
    return _free_signature(expr.terms[0].index_census()) if expr.terms else {}
