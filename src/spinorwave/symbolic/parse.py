"""Parser for the abstract-index expression language.

Grammar (whitespace separates tokens; ``#`` starts a comment):

    identity  :=  expr '==' expr
    expr      :=  ['+'|'-'] product ( ('+'|'-') product )*
    product   :=  [rational ['*']] unit*
    unit      :=  kernel block*  |  '(' expr ')'
    block     :=  ('_'|'^') '{' item+ '}'
    item      :=  label  |  '('  |  ')'  |  '['  |  ']'
    rational  :=  int [ '/' int ]

Labels ending in a prime are primed-spinor indices, other capitalised
labels are unprimed-spinor indices, lowercase labels are world indices.
Round/square brackets inside index blocks open and close symmetrization /
antisymmetrization groups; a group may span several factors of one product
but must not nest, and its indices share one kind and one variance.  ``M``
is the abstract metric spinor and parses to the same concrete kernel as
``eps``.  Writing a spinor index of a field or an operator against its
template variance inserts the corresponding metric-spinor factor.  A
product's groups are settled once its last factor is written, so the order of
its factors, metric spinors included, does not change the result.  Every
factor made here names a kernel of the table, each slot in the template's
kind and variance.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from ..core.indices import EPS, IndexKind, Slot, Variance
from ..errors import ParseError
from .expr import Expr, Factor, Idx, SymGroup, Term, fresh_label, slot_map
from .kernels import KernelTable
from .weights import validate_expr

# whitespace matches no alternative, so finditer skips it; any other
# character that starts no token is ``bad``
_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z][A-Za-z0-9]*(?:_(?!\{)[A-Za-z0-9]+)*'*)"
    r"|(?P<num>\d+)|(?P<sym>==|[-+*/^_{}()\[\]])|(?P<bad>\S)"
)

# Parentheses nest at most this deep: the descent recurses once per level,
# so a bound far below the interpreter's recursion limit makes deeper input
# a ParseError instead of a RecursionError.
MAX_NESTING = 100

_ONE = Fraction(1)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, position) per token, then ``("end", "", len(text))``.
    The kind is ``name``, ``num`` or ``sym``; the parser tells the symbols
    and ``==`` apart by their value, which no name or number shares."""
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, value, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


_FRESH_PREFIX = {IndexKind.UNPRIMED: "~U", IndexKind.PRIMED: "~P", IndexKind.WORLD: "~w"}


class _PendingGroup(NamedTuple):
    mode: str
    members: list[Idx]


class Parser:
    def __init__(self, table: KernelTable):
        self.table = table
        self._fresh = 0
        # (label, up) -> its index; an Idx is never changed once made, so
        # each written label has its kind worked out once
        self._indices: dict[tuple[str, bool], Idx] = {}

    def fresh_label(self, kind: IndexKind) -> str:
        self._fresh += 1
        return fresh_label(_FRESH_PREFIX[kind], kind, self._fresh)

    # -- public entry points -------------------------------------------------

    def parse_expression(self, text: str) -> Expr:
        tokens = _tokenize(text)
        expr, stop = self._parse_expr(tokens, 0, 0)
        kind, value, pos = tokens[stop]
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", pos)
        validate_expr(expr, self.table)
        return expr

    def parse_identity(self, text: str) -> tuple[Expr, Expr]:
        tokens = _tokenize(text)
        lhs, stop = self._parse_expr(tokens, 0, 0)
        if tokens[stop][1] != "==":
            raise ParseError("expected '==' between identity sides", tokens[stop][2])
        rhs, stop = self._parse_expr(tokens, stop + 1, 0)
        kind, value, pos = tokens[stop]
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", pos)
        validate_expr(lhs, self.table)
        validate_expr(rhs, self.table)
        return lhs, rhs

    # -- recursive descent -----------------------------------------------------

    def _parse_expr(self, tokens: list, at: int, depth: int) -> tuple[Expr, int]:
        """A signed sum of products; ``depth`` counts the enclosing parentheses."""
        terms: list[Term] = []
        value = tokens[at][1]
        negative = value == "-"
        if negative or value == "+":
            at += 1
        while True:
            at = self._parse_product(tokens, at, negative, terms, depth)
            value = tokens[at][1]
            if value != "+" and value != "-":
                return Expr(tuple(terms)), at
            negative = value == "-"
            at += 1

    def _parse_product(self, tokens: list, at: int, negative: bool, out: list[Term],
                       depth: int) -> int:
        """Append the terms of one product, its sign applied, to ``out``;
        a zero coefficient appends none."""
        coeff = None
        if tokens[at][0] == "num":
            coeff, at = self._parse_rational(tokens, at)
            if tokens[at][1] == "*":
                at += 1
        # each unit is either a factor-with-groups or a parenthesized sum
        parts: list[Expr] = []
        open_groups: list[_PendingGroup] = []
        factors: list[Factor] = []
        groups: list[SymGroup] = []
        while True:
            kind, value, pos = tokens[at]
            if kind == "name":
                at = self._parse_factor(tokens, at, factors, groups, open_groups)
            elif value == "(":
                # parenthesized sum, e.g. (Box + 1/3 R) phi
                if open_groups:
                    raise ParseError(
                        "symmetrization bracket may not span a parenthesized sum", pos
                    )
                if factors:
                    parts.append(Expr((_term(_ONE, factors, groups, self.table),)))
                    factors, groups = [], []
                sub, at = self._parse_paren(tokens, at, depth)
                parts.append(sub)
            else:
                break
        if open_groups:
            raise ParseError("unclosed symmetrization bracket", pos)
        if coeff is None:
            if not parts and not factors:
                raise ParseError("expected a term", pos)
            coeff = _ONE
        elif not coeff:
            return at
        if negative:
            coeff = -coeff
        if not parts:
            out.append(_term(coeff, factors, groups, self.table))
            return at
        if factors:
            parts.append(Expr((_term(_ONE, factors, groups, self.table),)))
        result = parts[0]
        for nxt in parts[1:]:
            result = _expr_product(result, nxt)
        if coeff == 1:
            out.extend(result.terms)
        else:
            out.extend(t.with_coeff(t.coeff * coeff) for t in result.terms)
        return at

    def _parse_paren(self, tokens: list, at: int, depth: int) -> tuple[Expr, int]:
        if depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tokens[at][2])
        expr, stop = self._parse_expr(tokens, at + 1, depth + 1)
        if tokens[stop][1] != ")":
            raise ParseError("expected ')'", tokens[stop][2])
        return expr, stop + 1

    def _parse_rational(self, tokens: list, at: int) -> tuple[Fraction, int]:
        numerator, pos = tokens[at][1], tokens[at][2]
        if tokens[at + 1][1] != "/":
            denominator, stop = None, at + 1
        else:
            if tokens[at + 2][0] != "num":
                raise ParseError("expected denominator", tokens[at + 2][2])
            denominator, stop = tokens[at + 2][1], at + 3
        try:
            if denominator is None:
                return Fraction(int(numerator)), stop
            return Fraction(int(numerator), int(denominator)), stop
        except (ValueError, ZeroDivisionError) as exc:  # too many digits, or n/0
            raise ParseError(f"bad rational: {exc}", pos) from None

    # -- factors -------------------------------------------------------------------

    def _parse_factor(self, tokens, at, factors, groups, open_groups) -> int:
        _, name, name_pos = tokens[at]
        at += 1
        indices: list[Idx] = []
        known = self._indices
        while True:
            value = tokens[at][1]
            if value != "_" and value != "^":
                break
            up = value == "^"
            if tokens[at + 1][1] != "{":
                raise ParseError("expected '{' after variance marker", tokens[at + 1][2])
            at += 2
            while True:
                kind, value, pos = tokens[at]
                if kind == "name":
                    idx = known.get((value, up))
                    if idx is None:
                        idx = known[value, up] = Idx.from_label(value, up)
                    if open_groups:
                        open_groups[-1].members.append(idx)
                    indices.append(idx)
                elif value == "}":
                    break
                elif value == "(" or value == "[":
                    if open_groups:
                        raise ParseError("nested symmetrization brackets", pos)
                    open_groups.append(_PendingGroup("sym" if value == "(" else "antisym", []))
                elif value == ")" or value == "]":
                    if not open_groups:
                        raise ParseError("unmatched closing bracket", pos)
                    mode, members = open_groups.pop()
                    if mode != ("sym" if value == ")" else "antisym"):
                        raise ParseError("mismatched bracket kind", pos)
                    if len({(idx.kind, idx.up) for idx in members}) > 1:
                        raise ParseError(
                            "symmetrization group mixes index kinds or variances", pos)
                    groups.append((mode, tuple(members)))
                else:
                    raise ParseError(f"unexpected token {value!r} in index block", pos)
                at += 1
            at += 1
        self._assemble_factor(name, name_pos, tuple(indices), factors)
        return at

    def _assemble_factor(self, name, pos, indices, factors) -> None:
        table = self.table
        if name in ("eps", "M"):
            if len(indices) != 2 or indices[0].kind is not indices[1].kind or \
                    indices[0].up != indices[1].up:
                raise ParseError("metric spinor needs two indices of equal kind and variance", pos)
            if indices[0].kind is IndexKind.WORLD:
                raise ParseError("metric spinor takes spinor indices only", pos)
            kernel = table.resolve_eps(indices[0].kind, indices[0].variance)
            factors.append(Factor(kernel.name, indices))
            return
        kernel = table.get(name)
        if kernel is None:
            slots = tuple(Slot(i.kind, i.variance) for i in indices)
            kernel = table.auto_register(name, slots)
        if len(indices) != kernel.rank:
            raise ParseError(
                f"kernel {name!r} takes {kernel.rank} indices, got {len(indices)}", pos
            )
        if kernel.operator and len(indices) == 2 and indices[0].kind is IndexKind.PRIMED \
                and indices[1].kind is IndexKind.UNPRIMED:
            # the unprimed/primed pair of a derivative operator is one world
            # index; written order is free, storage order is (unprimed, primed)
            indices = (indices[1], indices[0])
        new_indices = list(indices)
        bridges: list[Factor] = []
        for slot, idx in enumerate(indices):
            want = kernel.slots[slot]
            if idx.kind is not want.kind:
                raise ParseError(
                    f"index {idx.name!r} has kind {idx.kind.value}, "
                    f"slot {slot} of {name!r} wants {want.kind.value}", pos
                )
            if idx.up == (want.variance is Variance.UP):
                continue
            # a constant kernel has no displaced form, and a world index no
            # metric spinor to displace it
            if kernel.components is not None or idx.kind is IndexKind.WORLD:
                raise ParseError(
                    f"kernel {name!r} slot {slot} must be written {want.variance.value}", pos
                )
            bridge, new_indices[slot] = table.eps_bridge(idx, self.fresh_label(idx.kind))
            bridges.append(bridge)
        # a group that names a displaced label names its occurrence on the bridge
        factors.append(Factor(kernel.name, tuple(new_indices)))
        factors += bridges


def _term(coeff: Fraction, factors: list[Factor], groups: list[SymGroup],
          table: KernelTable) -> Term:
    """The term of a run of factors, its groups settled over the whole run
    (no bracket spans a parenthesized sum): a group living on displacement
    bridges moves onto the bridged kernel, and a group that a declared
    kernel symmetry already covers goes."""
    if not groups:
        return Term(coeff, tuple(factors))
    where = slot_map(factors)
    settled = []
    for mode, members in groups:
        # a member on a metric spinor moves to where the bridge's other
        # label occurs with the other variance
        moved = []
        for idx in members:
            f, s = where[idx]
            factor = factors[f]
            if table.get(factor.kernel).components != EPS:
                break
            partner = factor.indices[1 - s]
            partner = partner._replace(up=not partner.up)
            if partner not in where:
                break
            moved.append(partner)
        else:
            if len({where[idx][0] for idx in moved}) == 1:
                members = tuple(moved)
        if mode == "sym":
            positions = [where[idx] for idx in members]
            if len({f for f, _ in positions}) == 1:
                slots = {s for _, s in positions}
                kernel = table.get(factors[positions[0][0]].kernel)
                if any(slots <= set(group) for group in kernel.sym_groups):
                    continue
        settled.append((mode, members))
    return Term(coeff, tuple(factors), tuple(settled))


def _expr_product(a: Expr, b: Expr) -> Expr:
    return Expr(tuple(Term(ta.coeff * tb.coeff, ta.factors + tb.factors, ta.groups + tb.groups)
                      for ta in a.terms for tb in b.terms))
