"""Oriented rewrite rules, matching, and the identity verifier.

A rule's pattern is a single term.  Matching a pattern against a host term
unifies the pattern's non-constant factors with a contiguous run of the
host's non-constant factors (operator application order is significant) and
the pattern's constant factors with any of the host's constant factors
(metric spinors commute with everything).  Pattern labels are match
variables; a pattern dummy must map onto a host dummy contracted entirely
inside the matched region.

Matching is one backtracking unifier over (pattern factor, candidate host
positions) pairs, modulo each kernel's declared slot symmetries: a word
factor's only candidate is its place in the window of host word factors, a
constant factor's candidates are all host constants.  The chosen positions
map pattern factors to host factors; host symmetrization groups on the
matched factors must be exactly the images of the pattern's groups.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from ..core.indices import EPS, permutation_sign
from ..errors import IdentityError, UnsupportedExpressionError, WeightError
from .canon import canonicalize, collect_folded, light_fold
from .expr import Expr, Factor, Idx, Term, fresh_label, slot_map
from .kernels import KernelTable
from .weights import expr_weight, free_signature


class RewriteRule(NamedTuple):
    name: str
    pattern: Term
    replacement: Expr

    def validate(self, table: KernelTable) -> None:
        pattern_expr = Expr((self.pattern,))
        pat_free = free_signature(pattern_expr)
        if not self.replacement.is_zero:
            if free_signature(self.replacement) != pat_free:
                raise IdentityError(
                    f"rule {self.name!r}: pattern and replacement free indices differ"
                )
            if expr_weight(pattern_expr, table) != expr_weight(self.replacement, table):
                raise WeightError(
                    f"rule {self.name!r}: pattern and replacement weights differ"
                )


class Match(NamedTuple):
    word_slice: tuple[int, int]          # positions into the host word list
    const_used: tuple[int, ...]          # host factor positions of the constants
    mapping: dict[str, str]
    sign: int = 1


def _split(term: Term, table: KernelTable) -> tuple[list[int], list[int]]:
    word, consts = [], []
    for pos, factor in enumerate(term.factors):
        if table.get(factor.kernel).components is not None:
            consts.append(pos)
        else:
            word.append(pos)
    return word, consts


def _pattern_arrangements(factor: Factor, table: KernelTable):
    """All index arrangements of a pattern factor allowed by the kernel's
    slot symmetries, with the associated sign.  The slots of a group share
    one variance and no label repeats with equal variance, so the
    arrangements are distinct."""
    kernel = table.get(factor.kernel)
    groups = [(group, False) for group in kernel.sym_groups]
    if kernel.components == EPS:  # the metric spinor's antisymmetric pair
        groups.append(((0, 1), True))
    arrangements = [(factor.indices, 1)]
    for group, antisym in groups:
        new = []
        for indices, sign in arrangements:
            for perm in itertools.permutations(range(len(group))):
                out = list(indices)
                for slot, src in zip(group, perm):
                    out[slot] = indices[group[src]]
                s = permutation_sign(perm) if antisym else 1
                new.append((tuple(out), sign * s))
        arrangements = new
    return arrangements


def _unify_options(pat: Factor, host: Factor, mapping: dict[str, str],
                   table: KernelTable):
    """Yield (mapping, sign) for every way the pattern factor unifies with the
    host factor modulo the kernel's declared symmetries.  Each slot of both
    holds the kernel template's kind and variance, so only labels bind."""
    if pat.kernel != host.kernel:
        return
    for indices, sign in _pattern_arrangements(pat, table):
        new_map = dict(mapping)
        ok = True
        for p, h in zip(indices, host.indices):
            bound = new_map.get(p.name)
            if bound is None:
                new_map[p.name] = h.name
            elif bound != h.name:
                ok = False
                break
        if ok:
            yield new_map, sign


def _unify(pairs: list, term: Term, table: KernelTable, used: tuple[int, ...],
           mapping: dict[str, str], sign: int):
    """Backtracking unifier: yield (used, mapping, sign) for every way the
    pattern factors of ``pairs`` unify, in turn, with distinct host factors
    from their candidate positions; ``used`` holds the chosen positions."""
    if len(used) == len(pairs):
        yield used, mapping, sign
        return
    pat, candidates = pairs[len(used)]
    for pos in candidates:
        if pos in used:
            continue
        for new_map, s in _unify_options(pat, term.factors[pos], mapping, table):
            yield from _unify(pairs, term, table, used + (pos,), new_map, sign * s)


def _groups_fit(pattern: Term, term: Term, used: tuple[int, ...],
                mapping: dict[str, str]) -> bool:
    """Host groups touching the matched factors ``used`` lie inside them and
    are exactly the pattern's groups with their labels mapped."""
    if not (term.groups or pattern.groups):
        return True
    where = slot_map(term.factors)
    inside = set()
    for mode, members in term.groups:
        touched = {where[idx][0] for idx in members}
        if touched.issubset(used):
            inside.add((mode, frozenset(members)))
        elif not touched.isdisjoint(used):
            return False
    images = {(mode, frozenset([idx._replace(name=mapping[idx.name]) for idx in members]))
              for mode, members in pattern.groups}
    return images == inside


def match_term(term: Term, rule: RewriteRule, table: KernelTable) -> Match | None:
    """The first match of the rule's pattern in the host term, or None.

    A pattern word factor's only candidate is its slot in the window of
    host word factors; a pattern constant's candidates are all host
    constants.  Windows are tried left to right."""
    pattern = rule.pattern
    host_word, host_consts = _split(term, table)
    pat_word, pat_consts = _split(pattern, table)
    census = term.index_census()
    dummies = [name for name, occs in pattern.index_census().items() if len(occs) == 2]
    pw = len(pat_word)
    for start in range(len(host_word) - pw + 1):
        pairs = [(pattern.factors[p], (h,)) for p, h in zip(pat_word, host_word[start:])]
        pairs += [(pattern.factors[p], host_consts) for p in pat_consts]
        for used, mapping, sign in _unify(pairs, term, table, (), {}, 1):
            if not _groups_fit(pattern, term, used, mapping):
                continue
            # a pattern dummy maps onto a host dummy contracted inside the match
            if all(
                len(census.get(mapping[name], ())) == 2
                and all(pos[0] in used for pos, _ in census[mapping[name]])
                for name in dummies
            ):
                return Match((start, start + pw), used[pw:], mapping, sign)
    return None


def apply_match(term: Term, rule: RewriteRule, match: Match, table: KernelTable,
                fresh: Iterator[int]) -> list[Term]:
    """Replace the matched factors by the rule's replacement; replacement
    dummies get labels ``~r<n>`` numbered from ``fresh``."""
    host_word, _ = _split(term, table)
    i, j = match.word_slice
    # every rule's pattern holds a word factor: the replacement goes where
    # the first matched one was
    anchor = host_word[i]
    removed = set(host_word[i:j]) | set(match.const_used)

    prefix = [p for p in range(len(term.factors)) if p < anchor and p not in removed]
    suffix = [p for p in range(len(term.factors)) if p >= anchor and p not in removed]

    # a host group on a matched factor lies inside the match (_groups_fit)
    # and goes with it
    gone = {idx for p in removed for idx in term.factors[p].indices}
    kept = tuple(group for group in term.groups if gone.isdisjoint(group[1]))
    mapping = dict(match.mapping)
    out: list[Term] = []
    for repl in rule.replacement.terms:
        local = dict(mapping)
        new_factors: list[Factor] = []
        for factor in repl.factors:
            indices = []
            for idx in factor.indices:
                name = local.get(idx.name)
                if name is None:
                    name = fresh_label("~r", idx.kind, next(fresh))
                    local[idx.name] = name
                indices.append(Idx(name, idx.kind, idx.up))
            new_factors.append(Factor(factor.kernel, tuple(indices)))
        factors = (
            [term.factors[p] for p in prefix]
            + new_factors
            + [term.factors[p] for p in suffix]
        )
        groups = kept + tuple((mode, tuple([idx._replace(name=local[idx.name]) for idx in members]))
                              for mode, members in repl.groups)
        coeff = term.coeff * repl.coeff * match.sign / rule.pattern.coeff
        out.append(Term(coeff, tuple(factors), groups))
    return out


class TraceStep(NamedTuple):
    step: int
    rule: str
    term_index: int
    terms_after: int

    def render(self) -> str:
        return f"step {self.step}: {self.rule} on term {self.term_index} -> {self.terms_after} terms"


class VerificationReport(NamedTuple):
    name: str
    success: bool
    trace: list[TraceStep]
    residual: Expr

    def render(self) -> str:
        lines = [f"identity: {self.name}", f"status: {'ok' if self.success else 'FAILED'}"]
        for step in self.trace:
            lines.append(step.render())
        if not self.success and not self.residual.is_zero:
            lines.append(f"residual: {self.residual!r}")
        return "\n".join(lines) + "\n"


# rewrite steps per identity: termination of a rule set is undecidable, so
# a rewrite that still matches after this many steps is refused
_MAX_STEPS = 200


def apply_rules(expr: Expr, rules: list[RewriteRule],
                table: KernelTable) -> tuple[Expr, list[TraceStep]]:
    """Fire the first rule that matches, on the first term it matches, until
    none matches; UnsupportedExpressionError when a rule still matches after
    ``_MAX_STEPS`` steps, a cycle included.  The expression is folded once
    and then only the terms each step adds are, the fold being a
    projection; like terms are collected once per step.
    Without rules the input comes back as it is, for ``canonicalize``."""
    trace: list[TraceStep] = []
    if not rules:
        return expr, trace
    fresh = itertools.count(1)
    expr = collect_folded(light_fold(expr, table).terms)
    for step in itertools.count(1):
        hit = None
        for rule in rules:
            for ti, term in enumerate(expr.terms):
                match = match_term(term, rule, table)
                if match is not None:
                    hit = (rule, ti, term, match)
                    break
            if hit:
                break
        if hit is None:
            break
        if step > _MAX_STEPS:
            raise UnsupportedExpressionError(
                f"rewriting did not finish within {_MAX_STEPS} steps")
        rule, ti, term, match = hit
        added = light_fold(Expr(tuple(apply_match(term, rule, match, table, fresh))), table)
        expr = collect_folded(expr.terms[:ti] + added.terms + expr.terms[ti + 1 :])
        trace.append(TraceStep(step, rule.name, ti, len(expr.terms)))
    return expr, trace


def verify_identity(lhs: Expr, rhs: Expr, rules: list[RewriteRule],
                    table: KernelTable, name: str = "identity") -> VerificationReport:
    """Success iff canonicalize(rewrite(lhs - rhs)) vanishes."""
    if not lhs.is_zero and not rhs.is_zero:
        if free_signature(lhs) != free_signature(rhs):
            raise IdentityError(f"{name}: free indices differ between sides")
        if expr_weight(lhs, table) != expr_weight(rhs, table):
            raise WeightError(f"{name}: weights differ between sides")
    try:
        rewritten, trace = apply_rules(lhs - rhs, rules, table)
    except UnsupportedExpressionError as exc:
        raise UnsupportedExpressionError(f"{name}: {exc}") from None
    residual = canonicalize(rewritten, table)
    return VerificationReport(name, residual.is_zero, trace, residual)
