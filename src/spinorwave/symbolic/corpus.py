"""Builtin rewrite rules and the shipped identity corpus.

Identity files hold one ``lhs == rhs`` per line with ``#`` comments.  A
directive comment of the form

    #@ name=wave_equation rules=box_extraction,curvature_action

before an identity (``#`` comments may come between) names it and selects
the rewrite pipeline (referencing the rule registry below); without a
directive the identity is checked by pure canonicalization.  A directive
that another directive or the end of the file follows is an error.  Each
name is also a file name (``verify --out`` writes ``<name>.trace.txt``), so
it must be an ASCII word of letters, digits, ``_``, ``.`` and ``-`` that
does not start with ``.`` or ``-``, and no two identities in a file may
share one; an identity without a name is called ``line<N>`` after its line
number.
"""

from __future__ import annotations

import importlib.resources
import re
from typing import NamedTuple

from ..errors import ParseError
from .kernels import KernelTable
from .parse import Parser
from .rewrite import RewriteRule, VerificationReport, verify_identity

_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")

_RULE_SOURCES: list[tuple[str, str, str]] = [
    # the massless free-field statement
    ("field_equation", "nabla^{A A'} phi_{A}^{B}", "0"),
    # splitting of the contracted second derivative into its symmetric part
    # and the metric-spinor trace part
    ("splitting",
     "nabla_{A'}^{C} nabla^{A A'} phi_{A}^{B}",
     "Delta^{A C} phi_{A}^{B} - 1/2 M^{A C} Box phi_{A}^{B}"),
    ("splitting_reversed",
     "Delta^{A C} phi_{A}^{B}",
     "nabla_{X'}^{C} nabla^{A X'} phi_{A}^{B} + 1/2 M^{A C} Box phi_{A}^{B}"),
    # wave operator extracted from the splitting via the field equation
    ("box_extraction",
     "Box phi_{E}^{B}",
     "2 M_{E C} Delta^{A C} phi_{A}^{B}"),
    # action of the symmetrized second derivative: Ricci trace plus the
    # totally symmetric curvature piece
    ("curvature_action",
     "Delta^{A B} phi_{A}^{C}",
     "1/6 R M^{B D} phi_{D}^{C} - omega^{(A B C D)} phi_{A}^{H} M_{H D}"),
    # the totally symmetric curvature spinor is the graviton wave function
    ("graviton_symbol", "omega_{(A B C D)}", "Psi_{A B C D}"),
    # operator definitions
    ("delta_definition", "Delta^{A B}", "nabla_{X'}^{(A} nabla^{B) X'}"),
    ("box_definition", "Box", "nabla_{X X'} nabla^{X X'}"),
]


def builtin_rules(table: KernelTable | None = None) -> dict[str, RewriteRule]:
    table = table or KernelTable()
    parser = Parser(table)
    rules: dict[str, RewriteRule] = {}
    for name, pat_text, repl_text in _RULE_SOURCES:
        pattern = parser.parse_expression(pat_text)
        if len(pattern.terms) != 1:
            raise ParseError(f"rule {name!r}: pattern must be a single term")
        replacement = parser.parse_expression(repl_text)
        rule = RewriteRule(name, pattern.terms[0], replacement)
        rule.validate(table)
        rules[name] = rule
    return rules


class IdentityCase(NamedTuple):
    name: str
    line_number: int
    text: str
    rule_names: tuple[str, ...]


def parse_identity_file(text: str) -> list[IdentityCase]:
    cases: list[IdentityCase] = []
    pending: dict | None = None
    pending_line = 0
    names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#@"):
            _check_no_pending(pending, pending_line)
            pending, pending_line = _parse_directive(line, lineno), lineno
            continue
        if line.startswith("#"):
            continue
        if "==" not in line:
            raise ParseError(f"line {lineno}: expected 'lhs == rhs'")
        name = f"line{lineno}"
        rule_names: tuple[str, ...] = ()
        if pending is not None:
            name = pending.get("name", name)
            rule_names = pending.get("rules", ())
            pending = None
        if name in names:
            raise ParseError(f"line {lineno}: identity name {name!r} is already taken")
        names.add(name)
        cases.append(IdentityCase(name, lineno, line, rule_names))
    _check_no_pending(pending, pending_line)
    return cases


def _check_no_pending(pending: dict | None, lineno: int) -> None:
    """A directive applies to the next identity; one that another directive
    or the end of the file follows instead would be dropped unseen."""
    if pending is not None:
        raise ParseError(f"line {lineno}: directive is not followed by an identity")


def _parse_directive(line: str, lineno: int) -> dict:
    out: dict = {}
    for chunk in line[2:].split():
        if "=" not in chunk:
            raise ParseError(f"line {lineno}: malformed directive {chunk!r}")
        key, _, value = chunk.partition("=")
        if key == "name":
            if not _NAME.fullmatch(value):
                raise ParseError(
                    f"line {lineno}: bad identity name {value!r}; a name is letters, "
                    "digits, '_', '.' and '-' (ASCII), not starting with '.' or '-'")
            out["name"] = value
        elif key == "rules":
            out["rules"] = tuple(r for r in value.split(",") if r)
        else:
            raise ParseError(f"line {lineno}: unknown directive key {key!r}")
    return out


def run_identity_cases(cases: list[IdentityCase]) -> list[VerificationReport]:
    """Verify each case with a fresh kernel table (auto-registered generic
    kernels stay scoped to their own identity).  The rules name builtin
    kernels only and leave the table they are parsed with unchanged, so
    they are parsed once for all cases."""
    reports: list[VerificationReport] = []
    rules = builtin_rules(KernelTable())
    for case in cases:
        table = KernelTable()
        parser = Parser(table)
        unknown = [r for r in case.rule_names if r not in rules]
        if unknown:
            raise ParseError(f"{case.name}: unknown rules {unknown}")
        lhs, rhs = parser.parse_identity(case.text)
        report = verify_identity(
            lhs, rhs, [rules[r] for r in case.rule_names], table, name=case.name
        )
        reports.append(report)
    return reports


def shipped_corpus_text(which: str = "identities") -> str:
    resource = importlib.resources.files("spinorwave.symbolic") / "data" / f"{which}.txt"
    return resource.read_text(encoding="utf-8")
