"""Canonicalization: deterministic normal form and an exact zero decision.

The syntactic pipeline expands symmetrization groups into signed permutation
sums, applies declared kernel symmetries, eliminates delta/epsilon
contractions, orders factors (constants first; fields sorted within operator
scopes), renames dummies canonically and collects like terms.

Dimension-2 facts that relate differently wired epsilon products (the
three-term epsilon shuffle) are not reachable by those local rewrites, so
the zero decision is completed by an exact expansion over all component
assignments with opaque kernel symbols.  Under one assignment every factor
of a group-expanded term is +1, -1 or 0 (metric spinors, deltas, and kernel
components sorted by their declared symmetries), so the expansion sums
integer sign counts per symbol and weights them once by the term's rational
coefficient.  An expression canonicalizes to literal zero precisely when
that expansion vanishes identically; ``canonicalize`` expands each collected
term once and decides the whole result from the sum of those expansions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ..core.indices import DIMENSION, IndexKind, Variance, permutation_sign
from ..errors import UnsupportedExpressionError
from .expr import Expr, Factor, Idx, Term
from .kernels import Displacement, KernelTable

_EPS_NUM = ((0, 1), (-1, 0))
_DELTA_NUM = ((1, 0), (0, 1))

_EPS_FAMILY = {"eps_lo", "eps_up", "eps_lo_p", "eps_up_p"}
_DELTA_FAMILY = {"delta", "delta_p"}


def _is_constant(factor: Factor, table: KernelTable) -> bool:
    k = table.get(factor.kernel)
    return bool(k and k.constant)


def _is_operator(factor: Factor, table: KernelTable) -> bool:
    k = table.get(factor.kernel)
    return bool(k and k.operator)


# -- symmetrization groups ----------------------------------------------------


def expand_groups(term: Term) -> list[Term]:
    """Replace every symmetrization group by its signed permutation average."""
    if not term.groups:
        return [term]
    (mode, positions), rest = term.groups[0], term.groups[1:]
    n = len(positions)
    labels = [term.factors[f].indices[s] for f, s in positions]
    out = []
    for perm in itertools.permutations(range(n)):
        sign = permutation_sign(perm) if mode == "antisym" else 1
        factors = list(term.factors)
        for (f, s), src in zip(positions, perm):
            indices = list(factors[f].indices)
            indices[s] = labels[src]
            factors[f] = Factor(factors[f].kernel, tuple(indices))
        out.extend(
            expand_groups(
                Term(term.coeff * Fraction(sign, math.factorial(n)), tuple(factors), rest)
            )
        )
    return out


# -- kernel symmetries ----------------------------------------------------------


def sort_kernel_slots(term: Term, table: KernelTable, skip: set[int] | None = None) -> Term | None:
    """Order indices inside declared symmetric/antisymmetric slot groups.

    Returns None when an antisymmetric group carries a repeated label.
    """
    coeff = term.coeff
    factors = list(term.factors)
    for fpos, factor in enumerate(factors):
        if skip and fpos in skip:
            continue
        kernel = table.get(factor.kernel)
        if kernel is None:
            continue
        indices = list(factor.indices)
        changed = False
        for group in kernel.sym_groups:
            names = sorted(range(len(group)), key=lambda i: indices[group[i]].name)
            if names != list(range(len(group))):
                new = [indices[group[i]] for i in names]
                for slot, idx in zip(group, new):
                    indices[slot] = idx
                changed = True
        for group in kernel.antisym_groups:
            labels = [indices[s].name for s in group]
            if len(set(labels)) != len(labels):
                return None
            order = sorted(range(len(group)), key=lambda i: labels[i])
            if order != list(range(len(group))):
                coeff *= permutation_sign(order)
                new = [indices[group[i]] for i in order]
                for slot, idx in zip(group, new):
                    indices[slot] = idx
                changed = True
        if changed:
            factors[fpos] = Factor(factor.kernel, tuple(indices))
    return Term(coeff, tuple(factors), term.groups)


# -- delta / epsilon elimination ---------------------------------------------------


def _remove_factor(term: Term, pos: int) -> Term:
    factors = term.factors[:pos] + term.factors[pos + 1 :]
    groups = tuple(
        (mode, tuple((f - 1 if f > pos else f, s) for f, s in positions))
        for mode, positions in term.groups
    )
    return Term(term.coeff, factors, groups)


def _replace_factor(term: Term, pos: int, factor: Factor) -> Term:
    factors = list(term.factors)
    factors[pos] = factor
    return Term(term.coeff, tuple(factors), term.groups)


def _substitute_label(term: Term, skip_pos: int, old: Idx, new: Idx) -> Term | None:
    """Rename the single other occurrence of ``old`` (same variance) to ``new``."""
    for fpos, factor in enumerate(term.factors):
        if fpos == skip_pos:
            continue
        for spos, idx in enumerate(factor.indices):
            if idx.name == old.name and idx.up == old.up:
                indices = list(factor.indices)
                indices[spos] = Idx(new.name, new.kind, old.up)
                return _replace_factor(term, fpos, Factor(factor.kernel, tuple(indices)))
    return None


def eliminate_constants(term: Term, table: KernelTable, skip: set[int] | None = None) -> Term | None:
    """Fixpoint of delta substitution and epsilon-pair contraction."""
    current: Term | None = term
    for _ in range(200):
        if current is None:
            return None
        skip_now = {f for _, positions in current.groups for f, _ in positions} if current.groups else None
        current = sort_kernel_slots(current, table, skip=skip_now)
        if current is None:
            return None
        changed = False
        for fpos, factor in enumerate(current.factors):
            if factor.kernel in _DELTA_FAMILY:
                up, down = factor.indices
                if up.name == down.name:
                    current = _remove_factor(current, fpos).with_coeff(current.coeff * 2)
                    changed = True
                    break
                swapped = _substitute_label(current, fpos, Idx(up.name, up.kind, False), down)
                if swapped is not None:
                    current = _remove_factor(swapped, fpos)
                    changed = True
                    break
                swapped = _substitute_label(current, fpos, Idx(down.name, down.kind, True), up)
                if swapped is not None:
                    current = _remove_factor(swapped, fpos)
                    changed = True
                    break
        if changed:
            continue
        pair = _find_eps_pair(current)
        if pair is None:
            return current
        current = _contract_eps_pair(current, *pair)
    raise UnsupportedExpressionError("constant elimination did not terminate")


def _find_eps_pair(term: Term):
    eps_positions = [
        (fpos, f) for fpos, f in enumerate(term.factors) if f.kernel in _EPS_FAMILY
    ]
    for i, (p1, f1) in enumerate(eps_positions):
        for p2, f2 in eps_positions[i + 1 :]:
            if f1.kernel.endswith("_p") != f2.kernel.endswith("_p"):
                continue
            if ("up" in f1.kernel) == ("up" in f2.kernel):
                continue
            shared = {x.name for x in f1.indices} & {x.name for x in f2.indices}
            if shared:
                return p1, f1, p2, f2, sorted(shared)[0]
    return None


def _contract_eps_pair(term: Term, p1: int, f1: Factor, p2: int, f2: Factor, name: str) -> Term:
    """eps^{AB} eps_{CB} = delta^A_C, with antisymmetry signs for other wirings."""
    up_pos, up = (p1, f1) if "up" in f1.kernel else (p2, f2)
    lo_pos, lo = (p2, f2) if "up" in f1.kernel else (p1, f1)
    sign = 1
    if up.indices[0].name == name:
        sign, up_rem = -sign, up.indices[1]
    else:
        up_rem = up.indices[0]
    if lo.indices[0].name == name:
        sign, lo_rem = -sign, lo.indices[1]
    else:
        lo_rem = lo.indices[0]
    primed = up.kernel.endswith("_p")
    delta = Factor("delta_p" if primed else "delta", (up_rem, lo_rem))
    new = _replace_factor(term, up_pos, delta)
    new = _remove_factor(new, lo_pos)
    return new.with_coeff(new.coeff * sign)


# -- ordering and renaming ------------------------------------------------------------


def _factor_key(factor: Factor) -> tuple:
    return (factor.kernel, tuple((i.up, i.name) for i in factor.indices))


def _term_key(term: Term) -> tuple:
    """Like-term key: the ordered factors with their labels, coefficient aside."""
    return tuple(_factor_key(f) for f in term.factors)


def _collect_like_terms(terms) -> dict[tuple, tuple[Fraction, Term]]:
    """Term key -> (summed coefficient, first term with that key)."""
    collected: dict[tuple, tuple[Fraction, Term]] = {}
    for term in terms:
        key = _term_key(term)
        coeff, first = collected.get(key, (0, term))
        collected[key] = (coeff + term.coeff, first)
    return collected


def normal_order(term: Term, table: KernelTable) -> Term:
    """Constants first; fields sorted within each operator scope (groups must
    already be expanded)."""
    constants, word = [], []
    for f in term.factors:
        (constants if _is_constant(f, table) else word).append(f)
    constants.sort(key=_factor_key)
    ordered: list[Factor] = []
    segment: list[Factor] = []
    for f in word:
        if _is_operator(f, table):
            segment.sort(key=_factor_key)
            ordered.extend(segment)
            ordered.append(f)
            segment = []
        else:
            segment.append(f)
    segment.sort(key=_factor_key)
    ordered.extend(segment)
    return Term(term.coeff, tuple(constants + ordered))


_LABEL_TAG = {IndexKind.UNPRIMED: "!U", IndexKind.PRIMED: "!P", IndexKind.WORLD: "!w"}


def rename_dummies(term: Term) -> Term:
    dummies = term.dummy_names()
    mapping: dict[str, str] = {}
    counter = 0
    factors = []
    for factor in term.factors:
        indices = []
        for idx in factor.indices:
            if idx.name in dummies:
                if idx.name not in mapping:
                    counter += 1
                    name = f"{_LABEL_TAG[idx.kind]}{counter}"
                    if idx.kind is IndexKind.PRIMED:
                        name += "'"
                    mapping[idx.name] = name
                indices.append(Idx(mapping[idx.name], idx.kind, idx.up))
            else:
                indices.append(idx)
        factors.append(Factor(factor.kernel, tuple(indices)))
    return Term(term.coeff, tuple(factors), term.groups)


def _rename_with(term: Term, mapping: dict[str, str]) -> Term:
    factors = []
    for factor in term.factors:
        indices = tuple(
            Idx(mapping.get(i.name, i.name), i.kind, i.up) for i in factor.indices
        )
        factors.append(Factor(factor.kernel, indices))
    return Term(term.coeff, tuple(factors), term.groups)


def _normalize_term(term: Term, table: KernelTable) -> Term:
    """Canonical dummy labeling: exact (minimum over relabelings) for small
    terms, iterative otherwise.  Relabeling the input's dummies never changes
    the result of the exact path."""
    dummies = sorted(term.dummy_names())
    kinds = {idx.name: idx.kind for _, idx in term.all_indices()}
    if len(dummies) <= 7:
        best = None
        for perm in itertools.permutations(dummies):
            mapping = {
                name: f"{_LABEL_TAG[kinds[name]]}{pos}" for pos, name in enumerate(perm)
            }
            candidate = sort_kernel_slots(_rename_with(term, mapping), table)
            if candidate is None:
                return Term(Fraction(0), ())
            candidate = normal_order(candidate, table)
            key = (_term_key(candidate), candidate.coeff > 0)
            if best is None or key < best[0]:
                best = (key, candidate)
        return best[1]
    current = term
    for _ in range(4):
        step = sort_kernel_slots(current, table)
        if step is None:
            return Term(Fraction(0), ())
        nxt = rename_dummies(normal_order(step, table))
        if nxt == current:
            break
        current = nxt
    return current


# -- exact component expansion ------------------------------------------------------


def _expand_operator_displacement(term: Term, table: KernelTable, fresh: list[int]) -> Term:
    """Turn freely displaced (up) operator indices into epsilon bridges."""
    factors = list(term.factors)
    extra: list[Factor] = []
    for fpos, factor in enumerate(factors):
        kernel = table.get(factor.kernel)
        if kernel is None or kernel.displacement is not Displacement.FREE:
            continue
        indices = list(factor.indices)
        for spos, idx in enumerate(indices):
            if idx.variance is Variance.DOWN:
                continue
            fresh[0] += 1
            name = f"!op{fresh[0]}"
            if idx.kind is IndexKind.PRIMED:
                name += "'"
            primed = idx.kind is IndexKind.PRIMED
            extra.append(
                Factor(
                    "eps_up_p" if primed else "eps_up",
                    (idx, Idx(name, idx.kind, True)),
                )
            )
            indices[spos] = Idx(name, idx.kind, False)
        factors[fpos] = Factor(factor.kernel, tuple(indices))
    return Term(term.coeff, tuple(factors) + tuple(extra))


def _canonical_component(kernel, values: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Sort component indices inside declared symmetry groups; None if killed."""
    vals = list(values)
    sign = 1
    for group in kernel.sym_groups:
        sub = sorted(vals[s] for s in group)
        for slot, v in zip(group, sub):
            vals[slot] = v
    for group in kernel.antisym_groups:
        sub = [vals[s] for s in group]
        if len(set(sub)) != len(sub):
            return None
        order = tuple(sorted(range(len(sub)), key=lambda i: sub[i]))
        sign *= permutation_sign(order)
        for slot, v in zip(group, sorted(sub)):
            vals[slot] = v
    return tuple(vals), sign


def _sign_counts(term: Term, table: KernelTable, fresh: list[int]) -> dict[tuple, int]:
    """Symbol -> integer sign count of one group-free term, coefficient aside.

    Every factor is a metric spinor, a delta or a symmetry-sorted kernel
    component, so each assignment adds +1, -1 or nothing to one symbol.
    """
    term = _expand_operator_displacement(term, table, fresh)
    kinds = {idx.name: idx.kind for _, idx in term.all_indices()}
    labels = sorted(kinds)
    position = {label: n for n, label in enumerate(labels)}
    constant_plan, op_plan, field_plan = [], [], []
    for factor in term.factors:
        kernel = table.get(factor.kernel)
        where = tuple(position[idx.name] for idx in factor.indices)
        if kernel.constant:
            numbers = _EPS_NUM if factor.kernel in _EPS_FAMILY else _DELTA_NUM
            constant_plan.append((numbers, *where))
        elif kernel.operator:
            op_plan.append((factor.kernel, where))
        else:
            # a field component is told apart by the operators acting on it
            field_plan.append((len(op_plan), kernel, where))
    free = sorted(term.free_indices())
    free_slots = [position[label] for label in free]
    counts: dict[tuple, int] = {}
    for value in itertools.product(*(range(DIMENSION[kinds[l]]) for l in labels)):
        sign = 1
        for numbers, i, j in constant_plan:
            sign *= numbers[value[i]][value[j]]
        if not sign:
            continue
        fields = []
        for scope, kernel, where in field_plan:
            canon = _canonical_component(kernel, tuple(value[s] for s in where))
            if canon is None:
                break
            sign *= canon[1]
            fields.append((scope, kernel.name, canon[0]))
        else:
            symbol = (
                tuple((name, tuple(value[s] for s in where)) for name, where in op_plan),
                tuple(sorted(fields)),
                tuple((label, value[s]) for label, s in zip(free, free_slots)),
            )
            counts[symbol] = counts.get(symbol, 0) + sign
    return counts


def _accumulate(acc: dict[tuple, Fraction], symbol: tuple, value: Fraction) -> None:
    """Add ``value`` at ``symbol``; a first value is stored as is, which
    saves a Fraction addition to zero per new symbol."""
    previous = acc.get(symbol)
    acc[symbol] = value if previous is None else previous + value


def component_map(expr: Expr, table: KernelTable) -> dict[tuple, Fraction]:
    """Exact multilinear expansion: symbol -> rational coefficient.

    Integer sign counts are summed per group-expanded term and weighted
    once by the term's rational coefficient.
    """
    acc: dict[tuple, Fraction] = {}
    fresh = [0]
    for raw in expr.terms:
        for term in expand_groups(raw):
            for symbol, count in _sign_counts(term, table, fresh).items():
                if count:
                    _accumulate(acc, symbol, term.coeff * count)
    return {k: v for k, v in acc.items() if v != 0}


def is_identically_zero(expr: Expr, table: KernelTable) -> bool:
    return not component_map(expr, table)


# -- public pipeline ------------------------------------------------------------------


def canonicalize(expr: Expr, table: KernelTable) -> Expr:
    """Deterministic normal form; literal zero iff the expression vanishes."""
    flat: list[Term] = []
    for term in expr.terms:
        flat.extend(expand_groups(term))
    cleaned: list[Term] = []
    for term in flat:
        term2 = sort_kernel_slots(term, table)
        if term2 is None:
            continue
        term2 = eliminate_constants(term2, table)
        if term2 is None:
            continue
        cleaned.append(_normalize_term(term2, table))
    collected = _collect_like_terms(cleaned)
    result = []
    total: dict[tuple, Fraction] = {}
    for key in sorted(collected):
        coeff, term = collected[key]
        if coeff == 0:
            continue
        candidate = term.with_coeff(coeff)
        # the expansion is additive: the sum of the surviving terms' maps
        # decides whether the whole result vanishes
        components = component_map(Expr((candidate,)), table)
        if not components:
            continue
        result.append(candidate)
        for symbol, value in components.items():
            _accumulate(total, symbol, value)
    if not any(total.values()):
        return Expr.zero()
    return Expr(tuple(result))


def light_fold(expr: Expr, table: KernelTable) -> Expr:
    """Group-preserving cleanup between rewrite steps: kernel-symmetry sort,
    delta/epsilon elimination and like-term collection for groupless terms."""
    grouped: list[Term] = []
    plain: list[Term] = []
    for term in expr.terms:
        skip = {f for mode, positions in term.groups for f, _ in positions}
        term2 = sort_kernel_slots(term, table, skip=skip)
        if term2 is None:
            continue
        term2 = eliminate_constants(term2, table)
        if term2 is None:
            continue
        if term2.groups:
            grouped.append(term2)
        else:
            plain.append(rename_dummies(term2))
    collected = _collect_like_terms(plain).values()
    return Expr(tuple(grouped) + tuple(
        term.with_coeff(coeff) for coeff, term in collected if coeff != 0
    ))
