"""Expression trees: sums of rational-coefficient products of indexed kernels.

A term's factor list is ordered; derivative-operator factors act on every
factor to their right.  Metric-spinor and delta factors are numeric
constants and commute with everything, including operators (the metric
spinors are covariantly constant here, which is what licenses the index
gymnastics the rewrite rules encode).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from ..core.indices import IndexKind, Variance, permutation_sign


def kind_of_label(label: str) -> IndexKind:
    if label.endswith("'"):
        return IndexKind.PRIMED
    head = label.lstrip("~!")
    if head[:1].isupper():
        return IndexKind.UNPRIMED
    return IndexKind.WORLD


def fresh_label(prefix: str, kind: IndexKind, n: int) -> str:
    """A generated label: ``prefix`` and ``n``, with a trailing prime when
    ``kind`` is primed, as ``kind_of_label`` expects of every primed label."""
    label = f"{prefix}{n}"
    return label + "'" if kind is IndexKind.PRIMED else label


class Idx(NamedTuple):
    """One index occurrence.  The kind is stored, since generated labels
    (the rewrite's ``~r<n>``) carry a kind that ``kind_of_label`` would not
    give; every label has one kind wherever it occurs."""

    name: str
    kind: IndexKind
    up: bool

    @classmethod
    def from_label(cls, label: str, up: bool) -> "Idx":
        return cls(label, kind_of_label(label), up)

    @property
    def variance(self) -> Variance:
        return Variance.UP if self.up else Variance.DOWN

    def __repr__(self) -> str:
        return f"{'^' if self.up else '_'}{self.name}"


class Factor(NamedTuple):
    kernel: str
    indices: tuple[Idx, ...]

    def __repr__(self) -> str:
        return self.kernel + "".join(repr(i) for i in self.indices)


# ("sym" | "antisym", (index occurrence, ...)).  A label occurs at most
# once with each variance in a term, so a member names one slot, and the
# group follows its labels however the factors move.  The members share one
# kind and one variance.
SymGroup = tuple[str, tuple[Idx, ...]]


class Term(NamedTuple):
    coeff: Fraction
    factors: tuple[Factor, ...]
    groups: tuple[SymGroup, ...] = ()

    def all_indices(self):
        for fpos, f in enumerate(self.factors):
            for spos, idx in enumerate(f.indices):
                yield (fpos, spos), idx

    def index_census(self) -> dict[str, list[tuple[tuple[int, int], Idx]]]:
        census: dict[str, list] = {}
        for fpos, f in enumerate(self.factors):
            for spos, idx in enumerate(f.indices):
                occs = census.get(idx.name)
                if occs is None:
                    census[idx.name] = [((fpos, spos), idx)]
                else:
                    occs.append(((fpos, spos), idx))
        return census

    def free_indices(self) -> dict[str, Idx]:
        return {
            name: occs[0][1]
            for name, occs in self.index_census().items()
            if len(occs) == 1
        }

    def dummy_names(self) -> set[str]:
        return {
            name for name, occs in self.index_census().items() if len(occs) == 2
        }

    def with_coeff(self, coeff: Fraction) -> "Term":
        return Term(coeff, self.factors, self.groups)

    def __repr__(self) -> str:
        head = str(self.coeff)
        body = " ".join(repr(f) for f in self.factors) or "1"
        tail = f" groups={list(self.groups)}" if self.groups else ""
        return f"{head} * {body}{tail}"


def slot_map(factors) -> dict[Idx, tuple[int, int]]:
    """Each index occurrence of ``factors`` -> its (factor, slot) position:
    the slot that a symmetrization group member names."""
    return {idx: (fpos, spos) for fpos, f in enumerate(factors)
            for spos, idx in enumerate(f.indices)}


def expand_groups(term: Term) -> list[Term]:
    """Replace every symmetrization group by its signed permutation average."""
    if not term.groups:
        return [term]
    (mode, members), rest = term.groups[0], term.groups[1:]
    where = slot_map(term.factors)
    positions = [where[idx] for idx in members]
    n = len(members)
    out = []
    for perm in itertools.permutations(range(n)):
        sign = permutation_sign(perm) if mode == "antisym" else 1
        factors = list(term.factors)
        for (f, s), src in zip(positions, perm):
            indices = list(factors[f].indices)
            indices[s] = members[src]
            factors[f] = Factor(factors[f].kernel, tuple(indices))
        out.extend(
            expand_groups(
                Term(term.coeff * Fraction(sign, math.factorial(n)), tuple(factors), rest)
            )
        )
    return out


class Expr(NamedTuple):
    terms: tuple[Term, ...]

    @classmethod
    def zero(cls) -> "Expr":
        return cls(())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def free_indices(self) -> dict[str, Idx]:
        return self.terms[0].free_indices() if self.terms else {}

    def __add__(self, other: "Expr") -> "Expr":
        return Expr(self.terms + other.terms)

    def __sub__(self, other: "Expr") -> "Expr":
        return Expr(self.terms + tuple(t.with_coeff(-t.coeff) for t in other.terms))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return "  +  ".join(repr(t) for t in self.terms)
