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
but must not nest.  ``M`` is the abstract metric spinor and parses to the
same concrete kernel as ``eps``.  Writing a field index against its
template variance inserts the corresponding metric-spinor factor.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from ..core.indices import EPS, IndexKind, Slot, Variance
from ..errors import ParseError
from .expr import Expr, Factor, Idx, Term, fresh_label
from .kernels import Displacement, KernelTable
from .weights import validate_expr

# whitespace matches no alternative, so finditer skips it; any other
# character that starts no token is ``bad``
_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z][A-Za-z0-9]*(?:_(?!\{)[A-Za-z0-9]+)*'*)"
    r"|(?P<num>\d+)|(?P<eq>==)|(?P<sym>[-+*/^_{}()\[\]])|(?P<bad>\S)"
)


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: str, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    """Tokens of kind ``name`` or ``num``, or of a kind spelled as the
    token itself (``==`` and the symbols), then an ``end`` token."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", m.start())
        tokens.append(_Token(kind if kind in ("name", "num") else value, value, m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


_FRESH_PREFIX = {IndexKind.UNPRIMED: "~U", IndexKind.PRIMED: "~P", IndexKind.WORLD: "~w"}


class _PendingGroup(NamedTuple):
    mode: str
    positions: list[tuple[int, int]]


class Parser:
    def __init__(self, table: KernelTable):
        self.table = table
        self._fresh = 0

    def fresh_label(self, kind: IndexKind) -> str:
        self._fresh += 1
        return fresh_label(_FRESH_PREFIX[kind], kind, self._fresh)

    # -- public entry points -------------------------------------------------

    def parse_expression(self, text: str) -> Expr:
        tokens = _tokenize(text)
        expr, stop = self._parse_expr(tokens, 0)
        if tokens[stop].kind != "end":
            raise ParseError(f"trailing input {tokens[stop].value!r}", tokens[stop].pos)
        validate_expr(expr, self.table)
        return expr

    def parse_identity(self, text: str) -> tuple[Expr, Expr]:
        tokens = _tokenize(text)
        lhs, stop = self._parse_expr(tokens, 0)
        if tokens[stop].kind != "==":
            raise ParseError("expected '==' between identity sides", tokens[stop].pos)
        rhs, stop = self._parse_expr(tokens, stop + 1)
        if tokens[stop].kind != "end":
            raise ParseError(f"trailing input {tokens[stop].value!r}", tokens[stop].pos)
        validate_expr(lhs, self.table)
        validate_expr(rhs, self.table)
        return lhs, rhs

    # -- recursive descent -----------------------------------------------------

    def _parse_expr(self, tokens: list[_Token], at: int) -> tuple[Expr, int]:
        terms: list[Term] = []
        sign = Fraction(1)
        if tokens[at].kind in ("+", "-"):
            sign = Fraction(-1) if tokens[at].kind == "-" else Fraction(1)
            at += 1
        prod, at = self._parse_product(tokens, at)
        terms.extend(t.with_coeff(t.coeff * sign) for t in prod.terms)
        while tokens[at].kind in ("+", "-"):
            sign = Fraction(-1) if tokens[at].kind == "-" else Fraction(1)
            prod, at = self._parse_product(tokens, at + 1)
            terms.extend(t.with_coeff(t.coeff * sign) for t in prod.terms)
        return Expr(tuple(t for t in terms if t.coeff != 0)), at

    def _parse_product(self, tokens: list[_Token], at: int) -> tuple[Expr, int]:
        coeff = Fraction(1)
        saw_coeff = False
        if tokens[at].kind == "num":
            coeff, at = self._parse_rational(tokens, at)
            saw_coeff = True
            if tokens[at].kind == "*":
                at += 1
        # each unit is either a factor-with-groups or a parenthesized sum
        parts: list[Expr] = []
        open_groups: list[_PendingGroup] = []
        factors: list[Factor] = []
        groups: list = []

        def flush_factors():
            nonlocal factors, groups
            if factors or groups:
                parts.append(Expr((Term(Fraction(1), tuple(factors), tuple(groups)),)))
                factors, groups = [], []

        while True:
            tok = tokens[at]
            if tok.kind == "name":
                at = self._parse_factor(tokens, at, factors, groups, open_groups)
            elif tok.kind == "(":
                # parenthesized sum, e.g. (Box + 1/3 R) phi
                if open_groups:
                    raise ParseError(
                        "symmetrization bracket may not span a parenthesized sum",
                        tok.pos,
                    )
                flush_factors()
                sub, at = self._parse_paren(tokens, at)
                parts.append(sub)
            else:
                break
        if open_groups:
            raise ParseError("unclosed symmetrization bracket", tokens[at].pos)
        flush_factors()
        if not parts:
            if not saw_coeff:
                raise ParseError("expected a term", tokens[at].pos)
            result = Expr((Term(coeff, ()),)) if coeff != 0 else Expr.zero()
            return result, at
        result = parts[0]
        for nxt in parts[1:]:
            result = _expr_product(result, nxt)
        return result.scaled(coeff), at

    def _parse_paren(self, tokens: list[_Token], at: int) -> tuple[Expr, int]:
        expr, stop = self._parse_expr(tokens, at + 1)
        if tokens[stop].kind != ")":
            raise ParseError("expected ')'", tokens[stop].pos)
        return expr, stop + 1

    def _parse_rational(self, tokens: list[_Token], at: int) -> tuple[Fraction, int]:
        stop = at + 1
        if tokens[stop].kind == "/":
            if tokens[stop + 1].kind != "num":
                raise ParseError("expected denominator", tokens[stop + 1].pos)
            stop += 2
        try:
            return Fraction("".join(t.value for t in tokens[at:stop])), stop
        except (ValueError, ZeroDivisionError) as exc:  # too many digits, or n/0
            raise ParseError(f"bad rational: {exc}", tokens[at].pos) from None

    # -- factors -------------------------------------------------------------------

    def _parse_factor(self, tokens, at, factors, groups, open_groups) -> int:
        name = tokens[at].value
        name_pos = tokens[at].pos
        at += 1
        written: list[tuple[Idx, bool]] = []
        while tokens[at].kind in ("_", "^"):
            up = tokens[at].kind == "^"
            if tokens[at + 1].kind != "{":
                raise ParseError("expected '{' after variance marker", tokens[at + 1].pos)
            at += 2
            while tokens[at].kind != "}":
                tok = tokens[at]
                if tok.kind in ("(", "["):
                    if open_groups:
                        raise ParseError("nested symmetrization brackets", tok.pos)
                    open_groups.append(
                        _PendingGroup("sym" if tok.kind == "(" else "antisym", [])
                    )
                elif tok.kind in (")", "]"):
                    if not open_groups:
                        raise ParseError("unmatched closing bracket", tok.pos)
                    want = "sym" if tok.kind == ")" else "antisym"
                    if open_groups[-1].mode != want:
                        raise ParseError("mismatched bracket kind", tok.pos)
                    groups.append(
                        (open_groups[-1].mode, tuple(open_groups[-1].positions))
                    )
                    open_groups.pop()
                elif tok.kind == "name":
                    idx = Idx.from_label(tok.value, up)
                    slot = len(written)
                    written.append((idx, up))
                    if open_groups:
                        open_groups[-1].positions.append((len(factors), slot))
                else:
                    raise ParseError(f"unexpected token {tok.value!r} in index block", tok.pos)
                at += 1
            at += 1
        indices = tuple(idx for idx, _ in written)
        self._assemble_factor(name, name_pos, indices, factors, groups, open_groups)
        return at

    def _assemble_factor(self, name, pos, indices, factors, groups, open_groups) -> None:
        table = self.table
        if name in ("eps", "M"):
            if len(indices) != 2 or indices[0].kind is not indices[1].kind or \
                    indices[0].up != indices[1].up:
                raise ParseError("metric spinor needs two indices of equal kind and variance", pos)
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
        fpos = len(factors)

        def remap(slot_map: dict[int, tuple[int, int]]) -> None:
            def move(f: int, s: int) -> tuple[int, int]:
                if f == fpos and s in slot_map:
                    return slot_map[s]
                return (f, s)

            for g, (mode, positions) in enumerate(groups):
                groups[g] = (mode, tuple(move(f, s) for f, s in positions))
            for pending in open_groups:
                pending.positions[:] = [move(f, s) for f, s in pending.positions]

        if kernel.displacement is Displacement.FREE and len(indices) == 2:
            # the unprimed/primed pair of a derivative operator is one world
            # index; written order is free, storage order is (unprimed, primed)
            if indices[0].kind is IndexKind.PRIMED and indices[1].kind is IndexKind.UNPRIMED:
                indices = (indices[1], indices[0])
                remap({0: (fpos, 1), 1: (fpos, 0)})
        new_indices = list(indices)
        inserted: list[tuple[int, Factor]] = []  # (host slot, eps factor)
        for slot, idx in enumerate(indices):
            want = kernel.slots[slot]
            if idx.kind is not want.kind:
                raise ParseError(
                    f"index {idx.name!r} has kind {idx.kind.value}, "
                    f"slot {slot} of {name!r} wants {want.kind.value}", pos
                )
            if idx.variance is want.variance:
                continue
            if kernel.displacement is Displacement.FREE:
                continue
            if kernel.components is not None:
                raise ParseError(
                    f"kernel {name!r} slot {slot} must be written {want.variance.value}", pos
                )
            fresh = self.fresh_label(want.kind)
            if want.variance is Variance.DOWN:
                # raising: xi^L = eps^{L X} xi_X
                eps = table.resolve_eps(want.kind, Variance.UP)
                bridge = Factor(eps.name, (idx, Idx.from_label(fresh, True)))
                new_indices[slot] = Idx.from_label(fresh, False)
            else:
                # lowering: xi_L = xi^X eps_{X L}
                eps = table.resolve_eps(want.kind, Variance.DOWN)
                bridge = Factor(eps.name, (Idx.from_label(fresh, False), idx))
                new_indices[slot] = Idx.from_label(fresh, True)
            inserted.append((slot, bridge))
        factors.append(Factor(kernel.name, tuple(new_indices)))
        # displaced labels now live on the bridges; retarget group positions
        bridge_of_slot: dict[int, tuple[int, int]] = {}
        for slot, bridge in inserted:
            bridge_pos = len(factors)
            factors.append(bridge)
            bridge_slot = 0 if bridge.indices[0].name != new_indices[slot].name else 1
            bridge_of_slot[slot] = (bridge_pos, bridge_slot)
        if bridge_of_slot:
            remap(bridge_of_slot)
        _pullback_and_prune_groups(groups, factors, table)


def _pullback_and_prune_groups(groups: list, factors: list[Factor], table: KernelTable) -> None:
    """Move groups living on displacement bridges onto the bridged kernel,
    then drop groups matching a declared kernel symmetry."""
    # map: (factor containing dummy partner) for eps bridge factors
    for g, (mode, positions) in enumerate(groups):
        retarget = []
        for f, s in positions:
            factor = factors[f]
            kernel = table.get(factor.kernel)
            if not (kernel and kernel.components == EPS):
                retarget = None
                break
            partner = factor.indices[1 - s]
            hit = None
            for f2, other in enumerate(factors):
                if f2 == f:
                    continue
                for s2, idx in enumerate(other.indices):
                    if idx.name == partner.name:
                        hit = (f2, s2)
                        break
                if hit:
                    break
            if hit is None:
                retarget = None
                break
            retarget.append(hit)
        if retarget and len({f for f, _ in retarget}) == 1:
            groups[g] = (mode, tuple(retarget))
    keep = []
    for mode, positions in groups:
        if mode == "sym" and len({f for f, _ in positions}) == 1:
            f = positions[0][0]
            kernel = table.get(factors[f].kernel)
            slots = {s for _, s in positions}
            if kernel and any(slots <= set(gr) for gr in kernel.sym_groups):
                continue
        keep.append((mode, positions))
    groups[:] = keep


def _expr_product(a: Expr, b: Expr) -> Expr:
    terms = []
    for ta in a.terms:
        offset = len(ta.factors)
        for tb in b.terms:
            shifted = tuple(
                (mode, tuple((f + offset, s) for f, s in positions))
                for mode, positions in tb.groups
            )
            terms.append(
                Term(ta.coeff * tb.coeff, ta.factors + tb.factors, ta.groups + shifted)
            )
    return Expr(tuple(terms))
