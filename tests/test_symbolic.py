"""Parser, weight bookkeeping, canonicalizer, and numeric evaluation."""

import importlib
import itertools
import math
import pathlib
import random
import re
import sys
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorwave.core.convention import EPS_LOW, EPS_UP
from spinorwave.core.spinor import ComponentSpinor, random_spinor
from spinorwave.core.indices import (
    DIMENSION,
    IndexKind,
    IndexSignature,
    Variance,
    permutation_sign,
    spinor_signature,
)
from spinorwave.errors import (
    ParseError,
    UnsupportedExpressionError,
    WeightError,
)
from spinorwave.symbolic import (
    Expr,
    KernelTable,
    Parser,
    builtin_rules,
    canon,
    canonicalize,
    component_eval,
    component_map,
    expr_weight,
    parse_identity_file,
    run_identity_cases,
    shipped_corpus_text,
    verify_identity,
)
from spinorwave.symbolic import parse as parse_module
from spinorwave.symbolic import rewrite as rewrite_module
from spinorwave.symbolic.expr import Factor, Idx, Term, fresh_label, kind_of_label

RNG = np.random.default_rng(99)


def fresh():
    table = KernelTable()
    return table, Parser(table)


class TestParser:
    def test_scalar_contraction_has_no_free_indices(self):
        table, parser = fresh()
        expr = parser.parse_expression("eps^{A B} eps_{A B}")
        assert expr.free_indices() == {}

    def test_mixed_phi_free_set_and_weight(self):
        table, parser = fresh()
        expr = parser.parse_expression("phi_{A}^{B}")
        free = expr.free_indices()
        assert sorted(free) == ["A", "B"]
        assert not free["A"].up and free["B"].up
        assert expr_weight(expr, table) == (0, 0)

    def test_mixed_free_sets_rejected(self):
        table, parser = fresh()
        with pytest.raises(ParseError, match="mixed free-index"):
            parser.parse_expression("phi_{A}^{B} + psi_{A C}")

    def test_unbalanced_dummy_rejected(self):
        table, parser = fresh()
        with pytest.raises(ParseError, match="unbalanced|equal variance"):
            parser.parse_expression("theta_{A A}")

    def test_syntax_error_carries_position(self):
        table, parser = fresh()
        # a zero denominator, and an integer longer than int() converts
        for text in ("phi_{A}^{B} +", "2/0 R", "1" * 5000 + " R"):
            with pytest.raises(ParseError, match="position"):
                parser.parse_expression(text)

    # One input per ParseError raised in parse.py: (entry point, text,
    # message, position); each must keep its message and position.
    PARSE_ERRORS = [
        ("expression", "phi_{A B} $", "unexpected character '$'", 10),
        ("expression", "R )", "trailing input ')'", 2),
        ("identity", "R )", "expected '==' between identity sides", 2),
        ("identity", "R == R )", "trailing input ')'", 7),
        ("expression", "Ua_{(A} (Vb_{B)})",
         "symmetrization bracket may not span a parenthesized sum", 8),
        ("expression", "Ua_{(A B}", "unclosed symmetrization bracket", 9),
        ("expression", "+", "expected a term", 1),
        ("expression", "(R", "expected ')'", 2),
        ("expression", "1/ R", "expected denominator", 3),
        ("expression", "2/0 R", "bad rational: Fraction(2, 0)", 0),
        ("expression", "phi_(A B)", "expected '{' after variance marker", 4),
        ("expression", "Ua_{((A B))}", "nested symmetrization brackets", 5),
        ("expression", "Ua_{A)}", "unmatched closing bracket", 5),
        ("expression", "Ua_{(A B]}", "mismatched bracket kind", 8),
        ("expression", "Ua_{A +}", "unexpected token '+' in index block", 6),
        ("expression", "eps_{A}^{B}",
         "metric spinor needs two indices of equal kind and variance", 0),
        ("expression", "phi_{A}", "kernel 'phi' takes 2 indices, got 1", 0),
        ("expression", "phi_{a b}", "index 'a' has kind world, slot 0 of 'phi' wants unprimed", 0),
        ("expression", "delta_{A B}", "kernel 'delta' slot 0 must be written up", 0),
        ("identity", "Phi^{a} == Phi^{a}", "kernel 'Phi' slot 0 must be written down", 0),
        ("identity", "Ka_{a b} Kb^{b} == Ka_{a}^{b} Kb_{b}",
         "kernel 'Ka' slot 1 must be written down", 19),
        ("expression", "eps_{a b}", "metric spinor takes spinor indices only", 0),
    ]

    @pytest.mark.parametrize("entry, text, message, position", PARSE_ERRORS)
    def test_each_parse_error_keeps_its_message_and_position(self, entry, text, message,
                                                             position):
        table, parser = fresh()
        parse = parser.parse_expression if entry == "expression" else parser.parse_identity
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position

    def test_rational_past_int_digit_limit_keeps_its_position(self):
        table, parser = fresh()
        with pytest.raises(ParseError, match=r"^bad rational: Exceeds the limit") as info:
            parser.parse_expression("2 R + " + "1" * 5000 + " R")
        assert info.value.position == 6

    def test_deep_parentheses_raise_parse_error(self):
        """Nesting up to parse.MAX_NESTING parses; one level more is a
        ParseError at the opening bracket that passes it."""
        table, parser = fresh()
        depth = parse_module.MAX_NESTING
        assert parser.parse_expression("(" * depth + "R" + ")" * depth).terms
        with pytest.raises(ParseError, match="nested deeper than") as info:
            parser.parse_expression("(" * (depth + 1) + "R" + ")" * (depth + 1))
        assert info.value.position == depth

    def test_weight_inhomogeneous_sum_rejected(self):
        table, parser = fresh()
        with pytest.raises(WeightError):
            parser.parse_expression("theta_{A B} + phi_{A B}")

    def test_rational_coefficients(self):
        table, parser = fresh()
        expr = parser.parse_expression("2/3 R - 1/6 R")
        out = canonicalize(expr, table)
        assert len(out.terms) == 1
        assert str(out.terms[0].coeff) == "1/2"

    @pytest.mark.parametrize("coefficient", ["2", "1/2"])
    def test_star_after_a_coefficient_is_optional(self, coefficient):
        _, parser = fresh()
        assert parser.parse_expression(f"{coefficient} * phi_{{A B}}") == \
            parser.parse_expression(f"{coefficient} phi_{{A B}}")

    def test_parenthesized_operator_sum(self):
        table, parser = fresh()
        a = parser.parse_expression("(Box + 1/3 R) phi_{A}^{B}")
        b = parser.parse_expression("Box phi_{A}^{B} + 1/3 R phi_{A}^{B}")
        assert canonicalize(a - b, table).is_zero


class TestKernelTable:
    def test_the_kernels_with_eps_components_are_the_skew_ones(self):
        """``sort_kernel_slots`` swaps a reversed pair with a sign on exactly
        the kernels whose components are the metric spinor's, drops such a
        factor whose pair repeats a label, and sorts a symmetric pair
        without a sign; every other two-slot kernel keeps its order."""
        table = KernelTable()
        skew = set()
        for name, kernel in table.kernels.items():
            if kernel.rank != 2 or kernel.slots[0] != kernel.slots[1]:
                continue
            slot = kernel.slots[0]
            a, b = (Idx(fresh_label(n, slot.kind, 1), slot.kind, slot.variance is Variance.UP)
                    for n in ("A", "B"))
            term = Term(Fraction(1), (Factor(name, (b, a)),))
            got = canon.sort_kernel_slots(term, table)
            if CONSTANT_TABLES.get(name) == EPS_TABLE:
                skew.add(name)
                assert (got.coeff, got.factors) == (-1, (Factor(name, (a, b)),)), name
                assert canon.sort_kernel_slots(
                    Term(Fraction(1), (Factor(name, (a, a)),)), table) is None, name
            elif (0, 1) in kernel.sym_groups:
                assert (got.coeff, got.factors) == (1, (Factor(name, (a, b)),)), name
            else:
                assert got == term, name
        assert skew == {"eps_lo", "eps_up", "eps_lo_p", "eps_up_p"}

    def test_auto_registered_kernels_have_no_slot_groups(self):
        table = KernelTable()
        kernel = table.auto_register("Gx", spinor_signature("uUpw").slots)
        assert (kernel.sym_groups, kernel.components) == ((), None)


def displaced_operator_line(rng):
    """(displaced, explicit): one or two derivative operators on a generic
    field, their indices written up or down and contracted with each other,
    with the field or not, and the same product with one operator index L
    moved through an explicit metric spinor: nabla^{L} as eps^{L X}
    nabla_{X}, nabla_{L} as eps_{X L} nabla^{X}."""
    count = rng.randint(1, 2)
    ops = [[None, None] for _ in range(count)]  # (label, up) per spinor kind
    field = [("F", False)]
    letters = iter("ABCDEGH")
    for o in range(count):
        for k, prime in enumerate(("", "'")):
            if ops[o][k] is not None:
                continue
            label, up, r = next(letters) + prime, rng.random() < 0.5, rng.random()
            ops[o][k] = (label, up)
            if o + 1 < count and r < 0.3:
                ops[o + 1][k] = (label, not up)
            elif r < 0.6:
                field.append((label, not up))
    rng.shuffle(field)
    o, k = rng.randrange(count), rng.randrange(2)
    label, up = ops[o][k]
    moved = "X" + ("'" if k else "")
    eps = f"eps^{{{label} {moved}}}" if up else f"eps_{{{moved} {label}}}"

    names = rng.choices(["nabla", "partial"], k=count)
    # the written order of an operator's pair is free
    orders = [rng.choice((slice(None), slice(None, None, -1))) for _ in range(count)]

    def product(slots):
        def block(indices):
            return "".join(f"{'^' if raised else '_'}{{{text}}}" for text, raised in indices)
        words = [name + block(pair[order]) for name, pair, order in zip(names, slots, orders)]
        return " ".join(words + ["Ua" + block(field)])

    displaced = product(ops)
    ops[o][k] = (moved, not up)
    return displaced, f"{eps} {product(ops)}"


class TestWeights:
    def test_declared_weights(self):
        table, parser = fresh()
        half = Fraction(1, 2)
        cases = {
            "phi_{A}^{B}": (0, 0),
            "phi_{A B}": (-1, 0),
            "Delta^{A B}": (1, 0),
            "vartheta_sym_{a (B C)}": (-1, 0),
            "vartheta_sym_{a}^{(B C)}": (1, 0),
            "eps_{A B}": (-1, 0),
            "eps^{A B}": (1, 0),
            "Box phi_{A}^{B}": (0, 0),
            # nabla and partial weigh (-1/2, -1/2), and a displaced index adds
            # its metric spinor's weight: (+1, 0) unprimed, (0, +1) primed
            "nabla_{A A'}": (-half, -half),
            "partial_{A' A}": (-half, -half),
            "nabla^{A}_{A'}": (half, -half),
            "nabla_{A}^{A'}": (-half, half),
            "nabla^{A A'}": (half, half),
            "nabla_{A A'} nabla^{A A'}": (0, 0),
        }
        for text, weight in cases.items():
            assert expr_weight(parser.parse_expression(text), table) == weight, text

    def test_primed_sector_antiweight(self):
        table, parser = fresh()
        assert expr_weight(parser.parse_expression("phi_p_{A' B'}"), table) == (0, -1)
        assert expr_weight(parser.parse_expression("eps^{A' B'}"), table) == (0, 1)

    def test_inhomogeneous_sum_prints_half_weights_as_fractions(self):
        table, parser = fresh()
        for text, message in (
            ("Box phi_{A B} + nabla_{A A'} Ua_{B}^{A'}",
             "weight-inhomogeneous sum: [(-1, 0), (-1/2, -1/2)]"),
            # a sum of half weights that is whole prints as an integer
            ("Box theta_{A B} + nabla_{A A'} nabla_{B}^{A'}",
             "weight-inhomogeneous sum: [(-1, 0), (0, 0)]"),
            ("Box phi_{A B} + theta_{A B}", "weight-inhomogeneous sum: [(-1, 0), (0, 0)]"),
        ):
            with pytest.raises(WeightError) as info:
                parser.parse_expression(text)
            assert str(info.value) == message, text

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_displaced_operator_index_weighs_as_an_explicit_metric_spinor(self, seed):
        displaced, explicit = displaced_operator_line(random.Random(seed))
        table, parser = fresh()
        lhs, rhs = parser.parse_identity(f"{displaced} == {explicit}")
        assert expr_weight(lhs, table) == expr_weight(rhs, table), (displaced, explicit)
        assert verify_identity(lhs, rhs, [], table).success, (displaced, explicit)


class TestCanonicalize:
    def test_eps_contraction_scalar(self):
        table, parser = fresh()
        out = canonicalize(parser.parse_expression("eps^{A B} eps_{A B}"), table)
        assert len(out.terms) == 1 and out.terms[0].coeff == 2 and not out.terms[0].factors

    def test_antisymmetrized_symmetric_kernel_vanishes(self):
        table, parser = fresh()
        assert canonicalize(parser.parse_expression("phi_{[A B]}"), table).is_zero

    def test_decomposition_identity(self):
        table, parser = fresh()
        lhs, rhs = parser.parse_identity(
            "theta_{A B} == theta_{(A B)} + 1/2 eps_{A B} theta_{C}^{C}"
        )
        assert canonicalize(lhs - rhs, table).is_zero

    def test_idempotent(self):
        table, parser = fresh()
        expr = parser.parse_expression(
            "theta_{A B} - theta_{(A B)} + eps_{A B} theta_{C}^{C}"
        )
        once = canonicalize(expr, table)
        assert canonicalize(once, table) == once

    @settings(max_examples=20, deadline=None)
    @given(perm=st.permutations(["C", "D", "H"]))
    def test_dummy_relabel_invariance(self, perm):
        table, parser = fresh()
        c, d, _ = perm
        base = f"Psi_{{A {d}}}^{{B {c}}} phi_{{{c}}}^{{{d}}}"
        ref = "Psi_{A D}^{B C} phi_{C}^{D}"
        e1 = canonicalize(parser.parse_expression(base), table)
        e2 = canonicalize(parser.parse_expression(ref), table)
        assert e1 == e2

    def test_eps_symmetric_contraction_term_dropped(self):
        table, parser = fresh()
        out = canonicalize(parser.parse_expression("phi_{A B} eps^{A B}"), table)
        assert out.is_zero


def entrywise_sum(*maps):
    total = {}
    for m in maps:
        for symbol, value in m.items():
            total[symbol] = total.get(symbol, 0) + value
    return {symbol: value for symbol, value in total.items() if value != 0}


class TestComponentMap:
    """The exact expansion behind the zero decision: symbol -> coefficient,
    a symbol being (operators, sorted field components, free values)."""

    def test_additive_with_zero_entries_dropped(self):
        table, parser = fresh()
        a = parser.parse_expression("2 Ua_{A B} Vb_{C} - 1/3 eps_{A B} Ua_{D}^{D} Vb_{C}")
        b = parser.parse_expression("- 2 Ua_{A B} Vb_{C} + 5/7 Ua_{B A} Vb_{C}")
        map_a, map_b = component_map(a, table), component_map(b, table)
        total = component_map(a + b, table)
        assert total == entrywise_sum(map_a, map_b)
        # the 2 Ua_{A B} Vb_{C} entries cancel and are dropped
        assert len(total) < len(map_a) + len(map_b)
        assert all(value != 0 for value in total.values())

    def test_symmetrization_groups_match_hand_expansion(self):
        table, parser = fresh()
        grouped = parser.parse_expression("3 Ua_{(A} Vb_{B} Tc_{C)}")
        hand = parser.parse_expression(" + ".join(
            f"1/2 Ua_{{{p}}} Vb_{{{q}}} Tc_{{{r}}}" for p, q, r in itertools.permutations("ABC")
        ))
        assert component_map(grouped, table) == component_map(hand, table)
        grouped = parser.parse_expression("Ua_{[A} Vb_{B]} Tc_{C}")
        hand = parser.parse_expression("1/2 Ua_{A} Vb_{B} Tc_{C} - 1/2 Ua_{B} Vb_{A} Tc_{C}")
        assert component_map(grouped, table) == component_map(hand, table)

    def test_epsilon_shuffle_maps_to_empty(self):
        table, parser = fresh()
        shuffle = parser.parse_expression(
            "eps_{A B} Ua_{C} + eps_{B C} Ua_{A} + eps_{C A} Ua_{B}"
        )
        assert component_map(shuffle, table) == {}
        assert component_map(Expr(shuffle.terms[:2]), table)

    def test_small_terms_by_hand(self):
        table, parser = fresh()
        assert component_map(parser.parse_expression("2/3 eps_{A B} Ua_{C}"), table) == {
            ((), ((0, "Ua", (c,)),), (("A", a), ("B", b), ("C", c))): Fraction(2, 3) * sign
            for a, b, sign in ((0, 1, 1), (1, 0, -1))
            for c in (0, 1)
        }
        # phi is symmetric: both orders of a mixed component are one symbol
        assert component_map(parser.parse_expression("phi_{B A}"), table) == {
            ((), ((0, "phi", (min(a, b), max(a, b))),), (("A", a), ("B", b))): Fraction(1)
            for a in (0, 1)
            for b in (0, 1)
        }
        # a field records how many operators act on it
        assert component_map(parser.parse_expression("-1/4 Box R"), table) == {
            ((("Box", ()),), ((1, "R", ()),), ()): Fraction(-1, 4)
        }


class TestComponentEval:
    def test_constant_kernels_are_the_convention_arrays(self):
        """The six constant kernels' components are EPS_LOW, EPS_UP or the
        identity, and EPS_UP and EPS_LOW give delta^A_C = eps^{AB} eps_{CB}."""
        want = {"eps_lo": EPS_LOW, "eps_up": EPS_UP, "eps_lo_p": EPS_LOW, "eps_up_p": EPS_UP,
                "delta": np.eye(2), "delta_p": np.eye(2)}
        constants = {name: kernel.components for name, kernel in KernelTable().kernels.items()
                     if kernel.components is not None}
        assert sorted(constants) == sorted(want)
        for name, components in constants.items():
            assert np.array_equal(np.array(components), want[name]), name
        assert np.array_equal(np.einsum("AB,CB->AC", EPS_UP, EPS_LOW), np.eye(2))

    def test_eps_contraction_value(self):
        table, parser = fresh()
        out = component_eval(parser.parse_expression("eps^{A B} eps_{A B}"), {}, table)
        assert out.data == pytest.approx(2.0)

    def test_curvature_action_reduces_at_unit_coefficient(self):
        # with the totally symmetric curvature set to zero and R = 6 the
        # curvature action is the bare metric-spinor term
        table, parser = fresh()
        rhs = parser.parse_expression(
            "1/6 R M^{B D} phi_{D}^{C} - omega^{(A B C D)} phi_{A}^{H} M_{H D}"
        )
        bare = parser.parse_expression("M^{B D} phi_{D}^{C}")
        low = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        phi = ComponentSpinor(spinor_signature("uu"), 0.5 * (low + low.T))
        bindings = {
            "R": 6.0,
            "phi": phi,
            "omega": ComponentSpinor.zeros(spinor_signature("uuuu")),
        }
        got = component_eval(rhs, bindings, table)
        want = component_eval(bare, {"phi": phi}, table)
        assert got.allclose(want, atol=1e-12)

    def test_verified_identity_holds_numerically(self):
        table, parser = fresh()
        lhs, rhs = parser.parse_identity(
            "theta_{A B} == theta_{(A B)} + 1/2 eps_{A B} theta_{C}^{C}"
        )
        diff = lhs - rhs
        worst = 0.0
        for _ in range(100):
            theta = random_spinor(spinor_signature("uu"), RNG)
            worst = max(worst, component_eval(diff, {"theta": theta}, table).max_abs())
        assert worst < 1e-10

    def test_unbound_kernel_rejected(self):
        table, parser = fresh()
        with pytest.raises(UnsupportedExpressionError, match="unbound"):
            component_eval(parser.parse_expression("phi_{A B}"), {}, table)

    def test_derivative_rejected(self):
        table, parser = fresh()
        expr = parser.parse_expression("Box phi_{A}^{B}")
        with pytest.raises(UnsupportedExpressionError, match="operator"):
            component_eval(expr, {"phi": ComponentSpinor.zeros(spinor_signature("uu"))}, table)

    @pytest.mark.parametrize("binding", [
        ComponentSpinor.zeros(spinor_signature("uuu")),  # one slot too many
        ComponentSpinor.zeros(spinor_signature("w")),    # a world vector
        ComponentSpinor.zeros(spinor_signature("UU")),   # up-up, not the down-down template
        2.0,                                             # a scalar for a rank-2 kernel
    ], ids=["uuu", "w", "UU", "scalar"])
    def test_binding_must_match_the_template(self, binding):
        table, parser = fresh()
        with pytest.raises(UnsupportedExpressionError, match="binding for kernel 'phi'"):
            component_eval(parser.parse_expression("phi_{A B}"), {"phi": binding}, table)

    def test_scalar_kernel_takes_a_number_or_a_rank_zero_spinor(self):
        table, parser = fresh()
        expr = parser.parse_expression("1/2 R")
        rank0 = ComponentSpinor(IndexSignature(()), np.array(4.0 + 2.0j))
        for binding in (4.0 + 2.0j, rank0):
            assert component_eval(expr, {"R": binding}, table).data == 2.0 + 1.0j

    def test_terms_without_factors(self):
        table, parser = fresh()
        assert component_eval(parser.parse_expression("3"), {}, table).data == 3.0
        zero = component_eval(parser.parse_expression("eps^{A B} eps_{A B} - 2"), {}, table)
        assert zero.signature == IndexSignature(()) and zero.data == 0.0

    def test_more_labels_than_einsum_letters_rejected(self):
        # a ring delta^{L0}_{L1} delta^{L1}_{L2} ... delta^{L52}_{L0}: 53 dummies
        up_down = [(Idx(f"L{n}", IndexKind.UNPRIMED, True),
                    Idx(f"L{(n + 1) % 53}", IndexKind.UNPRIMED, False)) for n in range(53)]
        ring = Term(Fraction(1), tuple(Factor("delta", pair) for pair in up_down))
        with pytest.raises(UnsupportedExpressionError, match="53 index labels"):
            component_eval(Expr((ring,)), {}, KernelTable())


# -- differential test against the numeric oracle ------------------------------
#
# A generated case is a derivative-free sum of terms over one base product X
# of generic kernels (free labels A-C written down, dummies D-G).  Each
# rewrite below turns X into terms that sum to zero in dimension 2; a case
# adds one or two of them with random rational weights, and a mutant then
# perturbs one coefficient.  The test does not trust that construction: it
# asserts that canonicalize returns zero, on the expression and on its fold
# between rewrite steps, exactly when the expression evaluates to about zero
# on random complex components.


def _render_term(coeff, factors, groups=()):
    """``+ c K_{..}^{..} ...``; ``groups`` are (mode, first, stop) runs of
    occurrences in written order, bracketed inside the index blocks."""
    opens = {first: "(" if mode == "sym" else "[" for mode, first, _ in groups}
    closes = {stop - 1: ")" if mode == "sym" else "]" for mode, _, stop in groups}
    parts, n = [], 0
    for name, indices in factors:
        blocks = []
        for label, up in indices:
            item = opens.get(n, "") + label + closes.get(n, "")
            if blocks and blocks[-1][0] == up:
                blocks[-1][1].append(item)
            else:
                blocks.append((up, [item]))
            n += 1
        parts.append(name + "".join(
            f"{'^' if up else '_'}{{{' '.join(items)}}}" for up, items in blocks
        ))
    return f"{'-' if coeff < 0 else '+'} {abs(coeff)} {' '.join(parts)}"


def _with_labels(factors, changes):
    """Copy of ``factors`` with occurrence n (written order) set to changes[n]."""
    out, n = [], 0
    for name, indices in factors:
        new = []
        for occurrence in indices:
            new.append(changes.get(n, occurrence))
            n += 1
        out.append((name, new))
    return out


def _vanishing_terms(draw, factors):
    """(coeff, factors, groups) terms that sum to zero, built from X."""
    occurrences = [occ for _, indices in factors for occ in indices]
    down = [n for n, (_, up) in enumerate(occurrences) if not up]
    # runs of two or three consecutive down occurrences, for groups
    runs = [(a, b) for a in range(len(occurrences)) for b in (a + 2, a + 3)
            if b <= len(occurrences) and all(n in down for n in range(a, b))]
    # consecutive occurrences of opposite variance, for a group over a
    # displaced slot and an undisplaced one
    mixed = [n for n in range(len(occurrences) - 1)
             if occurrences[n][1] != occurrences[n + 1][1]]
    choices = ["lower", "delta"] + ["swap"] * (len(down) >= 2) + ["group"] * bool(runs) \
        + ["displaced_group"] * bool(mixed)
    kind = draw(st.sampled_from(choices))
    one = Fraction(1)
    if kind == "lower":
        # xi_P = xi^T eps_{T P}
        n = draw(st.sampled_from(down))
        label = occurrences[n][0]
        lowered = _with_labels(factors, {n: ("T", True)})
        return [(one, factors, ()),
                (-one, lowered + [("eps", [("T", False), (label, False)])], ())]
    if kind == "delta":
        # xi_P = delta^T_P xi_T
        n = draw(st.sampled_from(down))
        label = occurrences[n][0]
        renamed = _with_labels(factors, {n: ("T", False)})
        return [(one, factors, ()),
                (-one, [("delta", [("T", True), (label, False)])] + renamed, ())]
    if kind == "swap":
        # X_{..P..Q..} - X_{..Q..P..} = eps_{P Q} X_{..R..}^{..R..}
        i, j = sorted(draw(st.lists(st.sampled_from(down), min_size=2, max_size=2, unique=True)))
        p, q = occurrences[i][0], occurrences[j][0]
        return [(one, factors, ()),
                (-one, _with_labels(factors, {i: (q, False), j: (p, False)}), ()),
                (-one, [("eps", [(p, False), (q, False)])]
                 + _with_labels(factors, {i: ("R", False), j: ("R", True)}), ())]
    mode = draw(st.sampled_from(["sym", "antisym"]))
    if kind == "displaced_group":
        # X = X' c, where X' writes one of the pair n, n + 1 against its
        # variance in X, as T, and c contracts T back through M or eps, by
        # way of a delta or not: xi_P = xi^T eps_{T P} = xi^T eps_{T S}
        # delta^S_P, and xi^P = eps^{P T} xi_T = delta^P_S eps^{S T} xi_T.
        # Then a group over the pair in X' c, both of one variance there
        n = draw(st.sampled_from(mixed))
        d = n + draw(st.integers(0, 1))
        label, up = occurrences[d]
        outer, constants = label, []
        if draw(st.booleans()):
            outer = "S"
            constants = [("delta", [(label, True), ("S", False)] if up
                          else [("S", True), (label, False)])]
        metric = draw(st.sampled_from(["eps", "M"]))
        constants.append((metric, [(outer, True), ("T", True)] if up
                          else [("T", False), (outer, False)]))
        displaced = _with_labels(factors, {d: ("T", not up)}) + constants
        return [(one, factors, ()), (-one, displaced, ())] + _group_average(displaced, mode, n, n + 2)
    # a (anti)symmetrization group over consecutive down occurrences equals
    # its signed permutation average written out
    return _group_average(factors, mode, *draw(st.sampled_from(runs)))


def _group_average(factors, mode, first, stop):
    """``factors`` with a ``mode`` group over occurrences first..stop - 1,
    less its signed permutation average written out: terms that sum to zero."""
    occurrences = [occ for _, indices in factors for occ in indices]
    size = stop - first
    terms = [(Fraction(1), factors, ((mode, first, stop),))]
    for perm in itertools.permutations(range(size)):
        sign = permutation_sign(perm) if mode == "antisym" else 1
        changes = {first + m: occurrences[first + src] for m, src in enumerate(perm)}
        terms.append((Fraction(-sign, math.factorial(size)), _with_labels(factors, changes), ()))
    return terms


@st.composite
def differential_cases(draw):
    ranks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    total = sum(ranks)
    nfree = draw(st.sampled_from([n for n in range(4) if n <= total and (total - n) % 2 == 0]))
    ndummy = (total - nfree) // 2
    dummies = [d for d in "DEFG"[:ndummy] for _ in (0, 1)]
    labels = draw(st.permutations(list("ABC"[:nfree]) + dummies))
    first_up = dict(zip("DEFG", draw(st.lists(st.booleans(), min_size=ndummy, max_size=ndummy))))
    seen, occurrences = set(), []
    for label in labels:
        # free labels are written down, a dummy once up and once down
        occurrences.append((label, label in first_up and first_up[label] != (label in seen)))
        seen.add(label)
    factors, at = [], 0
    for name, rank in zip(("Ka", "Kb"), ranks):
        factors.append((name, occurrences[at:at + rank]))
        at += rank
    weights = st.sampled_from([Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2, 3)])
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        weight = draw(weights)
        terms += [(weight * c, f, g) for c, f, g in _vanishing_terms(draw, factors)]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(terms) - 1))
        c, f, g = terms[k]
        terms[k] = (c + draw(st.sampled_from([Fraction(1, 2), Fraction(-1), Fraction(2)])), f, g)
    return " ".join(_render_term(*t) for t in terms if t[0] != 0) or "0"


class TestOracleAgreement:
    @settings(max_examples=60, deadline=None)
    @given(text=differential_cases(), seed=st.integers(0, 2**32 - 1))
    def test_canonical_zero_iff_numeric_zero(self, text, seed):
        table, parser = fresh()
        expr = parser.parse_expression(text)
        rng = np.random.default_rng(seed)
        value = scale = 0.0
        for _ in range(2):
            bindings = {
                name: random_spinor(IndexSignature(kernel.slots), rng)
                for name, kernel in table.kernels.items() if name in ("Ka", "Kb")
            }
            value = max(value, component_eval(expr, bindings, table).max_abs())
            for term in expr.terms:
                scale = max(scale, component_eval(Expr((term,)), bindings, table).max_abs())
        zero = value <= 1e-9 * scale
        assert canonicalize(expr, table).is_zero == zero, text
        # verify's route: the fold between rewrite steps meets the groups first
        folded = canon.collect_folded(canon.light_fold(expr, table).terms)
        assert canonicalize(folded, table).is_zero == zero, text


# -- references for the fast expansion, relabeling and contraction -------------
#
# canon enumerates each cluster of a term alone and ranks relabelings on a
# tuple plan of the term, and component_eval makes each term one einsum.
# These are the plain forms those replace: one loop over every assignment of
# all of a term's labels, and a term built for every relabeling of its
# dummies.  The exact ones must give equal results, the numeric one equal
# values up to round-off.

GOLDEN = pathlib.Path(__file__).parent / "golden"

# The metric spinors and deltas by kernel name, written out here so that the
# references borrow no table from the code they check.
EPS_TABLE = ((0, 1), (-1, 0))
DELTA_TABLE = ((1, 0), (0, 1))
CONSTANT_TABLES = {"eps_lo": EPS_TABLE, "eps_up": EPS_TABLE, "eps_lo_p": EPS_TABLE,
                   "eps_up_p": EPS_TABLE, "delta": DELTA_TABLE, "delta_p": DELTA_TABLE}


def reference_slot_groups(kernel):
    """(group, antisymmetric) per slot group of ``kernel``: its symmetric
    groups, and the pair of slots of a metric spinor."""
    skew = [((0, 1), True)] if CONSTANT_TABLES.get(kernel.name) == EPS_TABLE else []
    return [(group, False) for group in kernel.sym_groups] + skew


def reference_component(kernel, values):
    """A field component sorted within each of the kernel's symmetric and
    antisymmetric slot groups, whatever their size, and the sign of the
    antisymmetric sorts; None where an antisymmetric group repeats a value."""
    values, sign = list(values), 1
    for group, antisym in reference_slot_groups(kernel):
        order = sorted(range(len(group)), key=lambda i: values[group[i]])
        moved = [values[group[i]] for i in order]
        if antisym:
            if len(set(moved)) < len(moved):
                return None
            sign *= permutation_sign(order)
        for slot, value in zip(group, moved):
            values[slot] = value
    return tuple(values), sign


def reference_component_map(expr, table):
    acc = {}
    for raw in expr.terms:
        for term in canon.expand_groups(raw):
            kinds = {idx.name: idx.kind for _, idx in term.all_indices()}
            labels = sorted(kinds)
            position = {label: n for n, label in enumerate(labels)}
            constant_plan, op_plan, field_plan = [], [], []
            for factor in term.factors:
                kernel = table.get(factor.kernel)
                where = tuple(position[idx.name] for idx in factor.indices)
                if factor.kernel in CONSTANT_TABLES:
                    constant_plan.append((CONSTANT_TABLES[factor.kernel], *where))
                elif kernel.operator:
                    op_plan.append((factor.kernel, where))
                else:
                    field_plan.append((len(op_plan), kernel, where))
            free = sorted(term.free_indices())
            counts = {}
            for value in itertools.product(*(range(DIMENSION[kinds[l]]) for l in labels)):
                sign = 1
                for numbers, i, j in constant_plan:
                    sign *= numbers[value[i]][value[j]]
                if not sign:
                    continue
                fields = []
                for scope, kernel, where in field_plan:
                    canonical = reference_component(kernel, tuple(value[s] for s in where))
                    if canonical is None:
                        break
                    sign *= canonical[1]
                    fields.append((scope, kernel.name, canonical[0]))
                else:
                    symbol = (
                        tuple((name, tuple(value[s] for s in where)) for name, where in op_plan),
                        tuple(sorted(fields)),
                        tuple((label, value[position[label]]) for label in free),
                    )
                    counts[symbol] = counts.get(symbol, 0) + sign
            for symbol, count in counts.items():
                if count:
                    acc[symbol] = acc.get(symbol, 0) + term.coeff * count
    return {symbol: value for symbol, value in acc.items() if value != 0}


def reference_component_eval(expr, bindings, table):
    """The numeric oracle as a sum over every index assignment of each term."""
    auto = {name: np.array(numbers, dtype=complex) for name, numbers in CONSTANT_TABLES.items()}
    arrays = {**{name: value.data if isinstance(value, ComponentSpinor) else complex(value)
                 for name, value in bindings.items()}, **auto}
    free = expr.free_indices()
    free_names = sorted(free)
    out = np.zeros([DIMENSION[free[name].kind] for name in free_names], dtype=complex)
    for raw in expr.terms:
        for term in canon.expand_groups(raw):
            kinds = {idx.name: idx.kind for _, idx in term.all_indices()}
            labels = sorted(kinds)
            for assignment in itertools.product(*(range(DIMENSION[kinds[l]]) for l in labels)):
                value = dict(zip(labels, assignment))
                prod = complex(term.coeff)
                for factor in term.factors:
                    arr = arrays[factor.kernel]
                    prod *= arr if isinstance(arr, complex) else arr[
                        tuple(value[i.name] for i in factor.indices)]
                out[tuple(value[name] for name in free_names)] += prod
    return out


def random_bindings(expr, table, rng):
    """Random components for every field kernel of ``expr``."""
    names = {f.kernel for term in expr.terms for f in term.factors}
    return {name: random_spinor(IndexSignature(table.get(name).slots), rng)
            for name in sorted(names) if table.get(name).components is None}


def assert_matches_reference(expr, bindings, table):
    """component_eval equals the reference to 1e-12 of the largest term."""
    got = component_eval(expr, bindings, table)
    want = reference_component_eval(expr, bindings, table)
    scale = max([1.0] + [np.max(np.abs(reference_component_eval(Expr((term,)), bindings, table)))
                         for term in expr.terms])
    assert got.data.shape == want.shape
    assert np.max(np.abs(got.data - want), initial=0.0) <= 1e-12 * scale, expr


def derivative_free_corpus_expressions():
    """lhs and rhs of every derivative-free identity in the shipped corpora and
    in ``golden/kernel_sums.txt``, each with its parser's table."""
    out = []
    for text in (shipped_corpus_text("identities"),
                 shipped_corpus_text("identities_negative"),
                 (GOLDEN / "kernel_sums.txt").read_text(encoding="utf-8")):
        for case in parse_identity_file(text):
            table, parser = fresh()
            lhs, rhs = parser.parse_identity(case.text)
            kernels = {f.kernel for term in (lhs - rhs).terms for f in term.factors}
            if not any(table.get(name).operator for name in kernels):
                out += [(case.name, lhs, table), (case.name, rhs, table)]
    return out


class TestContractionMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(text=differential_cases(), seed=st.integers(0, 2**32 - 1))
    def test_generated_cases(self, text, seed):
        table, parser = fresh()
        expr = parser.parse_expression(text)
        assert_matches_reference(expr, random_bindings(expr, table, np.random.default_rng(seed)),
                                 table)

    def test_derivative_free_corpus_identities(self):
        cases = derivative_free_corpus_expressions()
        assert len({name for name, _, _ in cases}) >= 10
        rng = np.random.default_rng(17)
        for _, expr, table in cases:
            for _ in range(3):
                assert_matches_reference(expr, random_bindings(expr, table, rng), table)


def rename_with(term, mapping):
    factors = []
    for factor in term.factors:
        indices = tuple(Idx(mapping.get(i.name, i.name), i.kind, i.up) for i in factor.indices)
        factors.append(Factor(factor.kernel, indices))
    return Term(term.coeff, tuple(factors), term.groups)


def normal_order(term, table):
    """Constants first; fields sorted within each operator scope."""
    constants, ordered, segment = [], [], []
    for f in term.factors:
        kernel = table.get(f.kernel)
        if kernel and kernel.components is not None:
            constants.append(f)
        elif kernel and kernel.operator:
            ordered += sorted(segment, key=canon._factor_key) + [f]
            segment = []
        else:
            segment.append(f)
    ordered += sorted(segment, key=canon._factor_key)
    return Term(term.coeff, tuple(sorted(constants, key=canon._factor_key) + ordered))


def reference_normalize_term(term, table):
    """The least of all k! relabelings of the dummies, each slot-sorted and
    put in normal order, by factor keys and then the sign (negative first);
    for few dummies only, as it ranks every relabeling."""
    dummies = sorted(term.dummy_names())
    kinds = {idx.name: idx.kind for _, idx in term.all_indices()}
    best = None
    for perm in itertools.permutations(dummies):
        mapping = {name: canon._dummy_label(kinds[name], pos) for pos, name in enumerate(perm)}
        candidate = canon.sort_kernel_slots(rename_with(term, mapping), table)
        if candidate is None:
            return Term(Fraction(0), ())
        candidate = normal_order(candidate, table)
        key = (canon._term_key(candidate), candidate.coeff > 0)
        if best is None or key < best[0]:
            best = (key, candidate)
    return best[1]


def labels_and_kinds(term):
    return [(idx.name, idx.kind, idx.up) for _, idx in term.all_indices()]


def checked_against_references(mp, calls):
    """Make every canon.component_map and canon._normalize_term call check
    its result against the reference, counting the terms mapped and the
    terms normalized."""
    real_map, real_normalize = canon.component_map, canon._normalize_term

    def component_map_checked(expr, table):
        result = real_map(expr, table)
        assert result == reference_component_map(expr, table), expr
        calls["mapped_terms"] += len(expr.terms)
        return result

    def normalize_checked(term, table):
        result = real_normalize(term, table)
        if len(term.dummy_names()) <= 7:
            reference = reference_normalize_term(term, table)
            assert result == reference, term
            assert labels_and_kinds(result) == labels_and_kinds(reference), term
            assert type(result.coeff) is type(reference.coeff)
        else:
            # too many dummies to rank every relabeling: a relabeled input
            # must give the same result
            relabeled = shuffled_variant(term, table, random.Random(calls["normalize"]))
            assert repr(real_normalize(relabeled, table)) == repr(result), term
            calls["relabeled"] = calls.get("relabeled", 0) + 1
        calls["normalize"] += 1
        return result

    mp.setattr(canon, "component_map", component_map_checked)
    mp.setattr(canon, "_normalize_term", normalize_checked)


# Operators at several positions (one cluster holding operators on both
# sides of another's), factors without labels, world labels, primed labels
# and a term without factors.
OPERATOR_CASES = [
    "nabla_{A'}^{C} nabla^{A A'} phi_{A}^{B}",
    "Delta^{A C} phi_{A}^{B} - 1/2 M^{A C} Box phi_{A}^{B}",
    "nabla_{A X'} nabla^{B X'} phi_{C}^{A} + 2 nabla_{A Y'} nabla^{B Y'} phi_{C}^{A}",
    "nabla_{A A'} nabla_{B B'} nabla_{C}^{A'} R",
    "nabla_{A A'} Ua_{B} nabla_{C C'} Vb_{D}",
    "Box R phi_{A}^{B} - 1/3 R Box phi_{A}^{B}",
    "Phi_{a} vartheta_sym_{b A B} + 2 Phi_{b} vartheta_sym_{a B A}",
    "Tc_{A' B'} Kd_{C} - 1/2 eps_{A' B'} Tc_{E'}^{E'} Kd_{C}",
    "Psi_{A D}^{B C} phi_{C}^{D} + 2 Psi_{A E}^{B F} phi_{F}^{E}",
    "eps^{A B} eps_{A B} - 2",
]


class TestFastExpansionMatchesReference:
    def test_shipped_negative_and_kernel_sum_corpora(self):
        calls = {"mapped_terms": 0, "normalize": 0}
        with pytest.MonkeyPatch.context() as mp:
            checked_against_references(mp, calls)
            for text in (shipped_corpus_text("identities"),
                         shipped_corpus_text("identities_negative"),
                         (GOLDEN / "kernel_sums.txt").read_text(encoding="utf-8")):
                run_identity_cases(parse_identity_file(text))
        # canonicalize maps all its collected terms in one call: every
        # term's expansion is still checked against the reference
        assert calls["mapped_terms"] > 50 and calls["normalize"] > 50

    @settings(max_examples=60, deadline=None)
    @given(text=differential_cases())
    def test_generated_cases(self, text):
        table, parser = fresh()
        expr = parser.parse_expression(text)
        assert component_map(expr, table) == reference_component_map(expr, table)
        calls = {"mapped_terms": 0, "normalize": 0}
        with pytest.MonkeyPatch.context() as mp:
            checked_against_references(mp, calls)
            canon.canonicalize(expr, table)

    @pytest.mark.parametrize("text", OPERATOR_CASES)
    def test_operator_world_and_scalar_cases(self, text):
        table, parser = fresh()
        expr = parser.parse_expression(text)
        assert component_map(expr, table) == reference_component_map(expr, table)
        calls = {"mapped_terms": 0, "normalize": 0}
        with pytest.MonkeyPatch.context() as mp:
            checked_against_references(mp, calls)
            canon.canonicalize(expr, table)

    def test_term_without_factors(self):
        table = KernelTable()
        expr = Expr((Term(Fraction(3, 4), ()), Term(Fraction(-1, 6), ())))
        assert component_map(expr, table) == {((), (), ()): Fraction(7, 12)}
        assert component_map(expr, table) == reference_component_map(expr, table)


def with_coefficient_mutant(expr, data):
    """``expr`` and, unless it is zero, a mutant: one coefficient moved by a
    rational with a new denominator."""
    if not expr.terms:
        return [expr]
    k = data.draw(st.integers(0, len(expr.terms) - 1))
    shift = data.draw(st.sampled_from([Fraction(1, 7), Fraction(-2, 5), Fraction(3, 4)]))
    terms = list(expr.terms)
    terms[k] = terms[k].with_coeff(terms[k].coeff + shift)
    return [expr, Expr(tuple(terms))]


class TestIntegerZeroDecision:
    """canonicalize sums the collected terms' expansions in integers over the
    common denominator of their coefficients; that sum vanishes exactly
    when the reference map of the whole expression does."""

    @settings(max_examples=60, deadline=None)
    @given(text=differential_cases(), data=st.data())
    def test_zero_iff_reference_map_vanishes(self, text, data):
        table, parser = fresh()
        for case in with_coefficient_mutant(parser.parse_expression(text), data):
            assert canonicalize(case, table).is_zero == (reference_component_map(case, table) == {})


def canonicalize_with_collected(expr, table):
    """canonicalize(expr) and the collected terms its one component_map call
    was given."""
    seen, real = [], canon.component_map
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canon, "component_map", lambda e, t: seen.append(e) or real(e, t))
        out = canonicalize(expr, table)
    (collected,) = seen
    return out, collected.terms


class TestResidualFilter:
    """A nonzero canonical form keeps exactly the collected terms whose own
    expansion does not vanish."""

    @settings(max_examples=60, deadline=None)
    @given(text=differential_cases(), data=st.data())
    def test_kept_terms_are_the_terms_with_a_reference_map(self, text, data):
        table, parser = fresh()
        expr = parser.parse_expression(text)
        # spectators with a metric spinor, one vanishing (a skew pair on a
        # symmetric field) and one not, on the free labels of the case
        spectators = [parser.parse_expression(spectator).terms[0]
                      for spectator in ("eps^{X Y} phi_{X Y}", "eps^{X Y} Ua_{X} Vb_{Y}")]
        first = expr.terms[0] if expr.terms else Term(Fraction(1), ())
        expr = Expr(expr.terms + tuple(Term(Fraction(c), s.factors + first.factors, first.groups)
                                       for c, s in zip((2, -1), spectators)))
        for case in with_coefficient_mutant(expr, data):
            out, collected = canonicalize_with_collected(case, table)
            if out.is_zero:
                continue
            assert set(out.terms) <= set(collected)
            for term in collected:
                assert (term in out.terms) == (reference_component_map(Expr((term,)), table) != {}), term

    @pytest.mark.parametrize("line, residual", [
        ("Ua_{C} == 2 Ua_{C} + eps^{A B} phi_{A B} Ua_{C}", "-1 * Ua_C"),
        # the vanishing term has two clusters
        ("Ua_{C} Vb_{D} == 3 Ua_{C} Vb_{D} + eps^{A B} phi_{A B} Ua_{C} Vb_{D}"
         " + eps^{A B} phi_{A B} eps^{E F} phi_{E F} Vb_{D} Ua_{C}", "-2 * Ua_C Vb_D"),
    ])
    def test_vanishing_terms_leave_the_residual(self, line, residual):
        (report,) = run_identity_cases(parse_identity_file(f"#@ name=filter\n{line}\n"))
        assert report.render().splitlines()[1:] == ["status: FAILED", f"residual: {residual}"]
        table, parser = fresh()
        lhs, rhs = parser.parse_identity(line)
        out, collected = canonicalize_with_collected(lhs - rhs, table)
        assert len(out.terms) == 1 and len(collected) > 1
        assert all(reference_component_map(Expr((term,)), table) == {}
                   for term in collected if term not in out.terms)


class TestGeneratedCorpora:
    @pytest.mark.parametrize("seed", [5, 301, 7, 1, 2, 3])
    def test_verdicts_match_the_generator(self, seed, monkeypatch):
        """The benchmark's generated corpora beyond the golden seeds: each
        verdict is the status the generator expects."""
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1]))
        workloads = importlib.import_module("perfbench.workloads")
        text, expected = workloads.generate_identity_corpus(
            seed, shipped_corpus_text("identities"), shipped_corpus_text("identities_negative"))
        reports = run_identity_cases(parse_identity_file(text))
        assert {r.name: "ok" if r.success else "failed" for r in reports} == expected


# One auto-registered kernel name at several ranks and slot kinds, one
# identity each; the second is false (the trace coefficient is 1).
REUSED_NAMES_CORPUS = """\
#@ name=rank2
Ka_{A B} - Ka_{B A} == eps_{A B} Ka_{C}^{C}
#@ name=rank1_pair_mutant
Ka_{A} Kb_{B} - Ka_{B} Kb_{A} == 2 eps_{A B} Ka_{C} Kb^{C}
#@ name=rank3
Ka_{A B D} - Ka_{B A D} == eps_{A B} Ka_{C}^{C}_{D}
#@ name=rank2_primed
Ka_{A' B'} Kb_{C} - Ka_{B' A'} Kb_{C} == eps_{A' B'} Ka_{D'}^{D'} Kb_{C}
#@ name=rank1_pair
Ka_{A} Kb_{B} - Ka_{B} Kb_{A} == eps_{A B} Ka_{C} Kb^{C}
"""


class TestSharedFieldTables:
    """The field tables of the exact expansion are built once per process
    and shared by every identity: a kernel name that comes back with
    another rank gets its own table, and one with other slot kinds but
    the same shape shares a table that does not depend on the kinds."""

    def test_reused_kernel_names_match_each_identity_alone(self, monkeypatch):
        cases = parse_identity_file(REUSED_NAMES_CORPUS)
        together = [report.success for report in run_identity_cases(cases)]
        assert together == [True, False, True, True, True]
        alone = []
        for case in reversed(cases):
            # no table of an earlier identity is there to be reused
            monkeypatch.setattr(canon, "_FIELD_TABLES", {})
            alone.append(run_identity_cases([case])[0].success)
        assert alone[::-1] == together


class TestExpansionMemory:
    """The exact expansion keeps no cluster counts past their term: a
    symmetrization group of n slots costs n! expanded terms in time, and
    one term's counts in memory."""

    def test_five_slot_group_holds_one_term_at_a_time(self):
        cases = parse_identity_file("Ua_{(A0 A1 A2 A3 A4)} == Ua_{A0 A1 A2 A3 A4}\n")
        tracemalloc.start()
        try:
            [report] = run_identity_cases(cases)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a generic kernel is not symmetric
        assert report.render().splitlines()[1] == "status: FAILED"
        # a cache of the counts of all 120 expanded cluster shapes takes 2 MiB
        assert peak < 2**20


class TestDummyLabels:
    def test_printed_dummies_read_back_their_kind(self):
        """A canonical dummy's label tells its kind by the label rule, so a
        printed residual can be read back (primed dummies end in a prime)."""
        terms = []
        for text in OPERATOR_CASES:
            table, parser = fresh()
            terms += canonicalize(parser.parse_expression(text), table).terms
        for text in (shipped_corpus_text("identities_negative"),
                     (GOLDEN / "kernel_sums.txt").read_text(encoding="utf-8")):
            for report in run_identity_cases(parse_identity_file(text)):
                terms += report.residual.terms
        dummies = [idx for term in terms for _, idx in term.all_indices()
                   if idx.name in term.dummy_names()]
        assert any(label.endswith("'") for label in (idx.name for idx in dummies))
        for idx in dummies:
            assert idx.name.startswith("!")
            assert kind_of_label(idx.name) is idx.kind, idx.name


class TestManyDummies:
    """Terms with eight dummies, more than the k! reference ranks, take the
    same exact labeling as smaller terms."""

    FORWARD, BACKWARD = "A B C D E F G H", "H G F E D C B A"

    def canonical(self, text, monkeypatch):
        seen = []
        real = canon._normalize_term

        def spy(term, table):
            seen.append(len(term.dummy_names()))
            return real(term, table)

        monkeypatch.setattr(canon, "_normalize_term", spy)
        table, parser = fresh()
        expr = parser.parse_expression(text)
        first, second = canonicalize(expr, table), canonicalize(expr, table)
        assert seen and max(seen) == 8, seen
        assert repr(first) == repr(second)
        return first

    def test_zero_sum(self, monkeypatch):
        f, b = self.FORWARD, self.BACKWARD
        text = f"Ka_{{{f}}} Kb^{{{f}}} - Ka_{{{b}}} Kb^{{{b}}}"
        assert self.canonical(text, monkeypatch).is_zero

    @pytest.mark.parametrize("text, terms", [
        (f"Ka_{{{FORWARD}}} Kb^{{{FORWARD}}} + Ka_{{{BACKWARD}}} Kb^{{{BACKWARD}}}", 1),
        (f"Ka_{{{FORWARD}}} Kb^{{{FORWARD}}} - Ka_{{{BACKWARD}}} Kb^{{{FORWARD}}}", 2),
    ])
    def test_nonzero_sums_keep_canonical_labels(self, text, terms, monkeypatch):
        out = self.canonical(text, monkeypatch)
        assert not out.is_zero and len(out.terms) == terms
        for term in out.terms:
            labels = {idx.name for _, idx in term.all_indices()}
            assert len(labels) == 8 and all(re.fullmatch(r"!U\d+", label) for label in labels)


def relabeled_name(kind, n):
    """A generated label of ``kind``, apart from the parser's (``~U``, ``~P``,
    ``~w``), so it never meets a written label."""
    head = "~q" if kind is IndexKind.WORLD else "~Q"
    return f"{head}{n}'" if kind is IndexKind.PRIMED else f"{head}{n}"


def shuffled_variant(term, table, rng):
    """The same term with its dummies renamed at random, its factors in a
    random order and the slots of each symmetry group permuted (an
    antisymmetric permutation carrying its sign).  The factors commute: the
    terms it is used on hold no operator, or keep them in place."""
    dummies = sorted(term.dummy_names())
    numbers = rng.sample(range(100), len(dummies))
    kinds = {idx.name: idx.kind for _, idx in term.all_indices()}
    mapping = {name: relabeled_name(kinds[name], n) for name, n in zip(dummies, numbers)}
    coeff, factors = term.coeff, []
    for factor in rename_with(term, mapping).factors:
        kernel = table.get(factor.kernel)
        indices = list(factor.indices)
        for group, antisym in reference_slot_groups(kernel):
            order = rng.sample(range(len(group)), len(group))
            moved = [indices[group[i]] for i in order]
            for slot, idx in zip(group, moved):
                indices[slot] = idx
            if antisym:
                coeff *= permutation_sign(order)
        factors.append(Factor(factor.kernel, tuple(indices)))
    if not any(table.get(f.kernel).operator for f in factors):
        rng.shuffle(factors)
    return Term(coeff, tuple(factors))


# Generic kernels of mixed templates next to the builtin symmetric ones.
GENERIC_TEMPLATES = {"Ga": "uUu", "Gb": "UUuu", "Gc": "Uu", "Gp": "uPp"}
PROPERTY_KERNELS = [*GENERIC_TEMPLATES, "phi", "Psi", "omega", "eps_lo", "eps_up"]
# upper slots are scarcer: the kernels that carry them are drawn more often
PROPERTY_WEIGHTS = [2, 4, 2, 1, 1, 1, 1, 1, 4]


def property_table():
    table = KernelTable()
    for name, spec in GENERIC_TEMPLATES.items():
        table.auto_register(name, spinor_signature(spec).slots)
    return table


def random_term(rng, table):
    """A product of one to nine kernels with up to twelve dummies (slots of
    one kind and opposite variance paired at random), the rest free, passed
    through ``eliminate_constants`` as ``canonicalize`` passes it."""
    budget = rng.randint(0, 12)
    kernels = rng.choices(PROPERTY_KERNELS, PROPERTY_WEIGHTS, k=rng.randint(1, 3 + budget // 2))
    slots = [(f, slot.kind, slot.variance is Variance.UP)
             for f, name in enumerate(kernels) for slot in table.get(name).slots]
    order = rng.sample(range(len(slots)), len(slots))
    labels, dummies = {}, 0
    for i in order:
        if i in labels:
            continue
        labels[i] = relabeled_name(slots[i][1], 500 + i)
        partner = next((j for j in order if j not in labels
                        and slots[j][1] is slots[i][1] and slots[j][2] != slots[i][2]), None)
        if partner is not None and dummies < budget:
            labels[partner] = labels[i]
            dummies += 1
    factors = tuple(
        Factor(name, tuple(Idx(labels[n], kind, up)
                           for n, (f, kind, up) in enumerate(slots) if f == position))
        for position, name in enumerate(kernels))
    return canon.eliminate_constants(Term(Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5])),
                                          factors), table)


def first_appearance_numbers(term):
    """The numbers of the term's dummy labels in order of first appearance."""
    dummies, seen = term.dummy_names(), []
    for _, idx in term.all_indices():
        if idx.name in dummies and idx.name not in seen:
            seen.append(idx.name)
    return [int(re.fullmatch(r"!(?:U|P|w)(\d+)'?", name).group(1)) for name in seen]


def assert_canonical(term, table, rng, variants=3):
    """Every shuffled variant of ``term`` labels to the same printed term,
    whose dummies are numbered 0, 1, ... in order of first appearance."""
    canonical = repr(canon._normalize_term(term, table))
    for _ in range(variants):
        variant = shuffled_variant(term, table, rng)
        assert repr(canon._normalize_term(variant, table)) == canonical, (term, variant)
    result = canon._normalize_term(term, table)
    assert first_appearance_numbers(result) == list(range(len(result.dummy_names())))
    if len(term.index_census()) <= 12:
        # the same tensor: the exact expansions agree
        assert component_map(Expr((result,)), table) == component_map(Expr((term,)), table)
    return result


class TestCanonicalLabeling:
    """One labeling for any number of dummies: a relabeling, a shuffle of
    commuting factors or a permutation inside a slot group never changes
    the printed term."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_terms(self, seed):
        rng = random.Random(seed)
        table = property_table()
        term = random_term(rng, table)
        if term is not None:
            assert_canonical(term, table, rng)

    def test_random_terms_reach_twelve_dummies(self):
        table = property_table()
        counts = {len(term.dummy_names()) for term in
                  (random_term(random.Random(seed), table) for seed in range(300)) if term}
        assert set(range(13)) <= counts

    @pytest.mark.parametrize("text, dummies", [
        ("Psi_{A B C D} Psi^{A B C D}", 8),
        ("Psi_{A B C D} Psi^{C D E F} Psi_{E F}^{A B}", 12),
        ("phi_{A}^{B} phi_{B}^{C} phi_{C}^{D} phi_{D}^{A}", 8),
        ("omega_{A B C D} omega^{A B C D}", 8),
        ("Ka_{A B C D E F G} Kb^{A B C D E F G}", 7),
    ])
    def test_probes(self, text, dummies):
        table, parser = fresh()
        (raw,) = parser.parse_expression(text).terms
        term = canon.eliminate_constants(raw, table)
        assert len(term.dummy_names()) == dummies
        assert_canonical(term, table, random.Random(dummies), variants=8)

    def test_terms_beyond_the_reference_are_checked_by_relabeling(self):
        calls = {"mapped_terms": 0, "normalize": 0}
        with pytest.MonkeyPatch.context() as mp:
            checked_against_references(mp, calls)
            for text in ("Psi_{A B C D} Psi^{A B C D} - omega_{A B C D} omega^{A B C D}",
                         "phi_{A}^{B} phi_{B}^{C} phi_{C}^{D} phi_{D}^{A}"):
                table, parser = fresh()
                canon.canonicalize(parser.parse_expression(text), table)
        assert calls["relabeled"] == 3


def reference_eliminate_constants(term, table):
    """Constant elimination by whole-term rebuilds: each pass sorts every
    factor's slots, removes the first delta that can go (a trace, or a label
    substituted into the first other occurrence of its partner) or else
    contracts the first two metric spinors of opposite variance that share a
    label, on the least shared label, and rebuilds the term without the
    removed factor.  A group member that a substitution renames is renamed
    in the group too."""

    def remove(term, pos):
        return Term(term.coeff, term.factors[:pos] + term.factors[pos + 1:], term.groups)

    def replace(term, pos, factor):
        factors = list(term.factors)
        factors[pos] = factor
        return Term(term.coeff, tuple(factors), term.groups)

    def substitute(term, skip, name, up, new):
        for fpos, factor in enumerate(term.factors):
            for spos, idx in enumerate(factor.indices):
                if fpos != skip and (idx.name, idx.up) == (name, up):
                    indices = list(factor.indices)
                    indices[spos] = renamed = Idx(new.name, new.kind, up)
                    groups = tuple((mode, tuple(renamed if member == idx else member
                                                for member in members))
                                   for mode, members in term.groups)
                    return replace(term, fpos, Factor(factor.kernel, tuple(indices)))._replace(
                        groups=groups)
        return None

    current = term
    while True:
        current = canon.sort_kernel_slots(current, table)
        if current is None:
            return None
        named = {fpos for fpos, f in enumerate(current.factors)
                 for _, members in current.groups if set(f.indices) & set(members)}
        components = [None if fpos in named or table.get(f.kernel) is None
                      else table.get(f.kernel).components
                      for fpos, f in enumerate(current.factors)]
        step = None
        for fpos, factor in enumerate(current.factors):
            if components[fpos] != DELTA_TABLE:
                continue
            up, down = factor.indices
            if up.name == down.name:
                step = remove(current, fpos).with_coeff(current.coeff * 2)
                break
            swapped = (substitute(current, fpos, up.name, False, down)
                       or substitute(current, fpos, down.name, True, up))
            if swapped is not None:
                step = remove(swapped, fpos)
                break
        if step is not None:
            current = step
            continue
        eps = [(fpos, f) for fpos, f in enumerate(current.factors)
               if components[fpos] == EPS_TABLE]
        pair = next(((p1, f1, p2, f2, sorted(shared)[0])
                     for n, (p1, f1) in enumerate(eps) for p2, f2 in eps[n + 1:]
                     if f1.indices[0].kind is f2.indices[0].kind
                     and f1.indices[0].up != f2.indices[0].up
                     and (shared := {x.name for x in f1.indices} & {x.name for x in f2.indices})),
                    None)
        if pair is None:
            return current
        p1, f1, p2, f2, name = pair
        (up_pos, up), (lo_pos, lo) = ((p1, f1), (p2, f2)) if f1.indices[0].up else ((p2, f2),
                                                                                   (p1, f1))
        sign = 1
        if up.indices[0].name == name:
            sign, up_rem = -sign, up.indices[1]
        else:
            up_rem = up.indices[0]
        if lo.indices[0].name == name:
            sign, lo_rem = -sign, lo.indices[1]
        else:
            lo_rem = lo.indices[0]
        delta = Factor(table.resolve_delta(up_rem.kind).name, (up_rem, lo_rem))
        current = remove(replace(current, up_pos, delta), lo_pos)
        current = current.with_coeff(current.coeff * sign)


CONSTANT_PRODUCT_KERNELS = ["delta", "delta_p", "eps_up", "eps_lo", "eps_up_p", "eps_lo_p",
                            "phi", "phi_p", *GENERIC_TEMPLATES]


def random_constant_product(rng, table):
    """A product of deltas, metric spinors and fields of both kinds, its
    slots of one kind and opposite variance paired at random (a delta may
    pair with itself, a trace), the rest free.  Half of them carry a ``( )``
    group over two slots of one kind and variance, one of them on a metric
    spinor or delta where there is one: a group over a bridge."""
    kernels = rng.choices(CONSTANT_PRODUCT_KERNELS, [3, 2, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1],
                          k=rng.randint(1, 12))
    slots = [(f, slot.kind, slot.variance is Variance.UP)
             for f, name in enumerate(kernels) for slot in table.get(name).slots]
    labels = {}
    for i in rng.sample(range(len(slots)), len(slots)):
        if i in labels:
            continue
        labels[i] = relabeled_name(slots[i][1], i)
        partners = [j for j in range(len(slots)) if j not in labels
                    and slots[j][1:] == (slots[i][1], not slots[i][2])]
        if partners and rng.random() < 0.8:
            labels[rng.choice(partners)] = labels[i]
    occurrences = [Idx(labels[n], *slot[1:]) for n, slot in enumerate(slots)]
    factors = [Factor(name, tuple(occurrences[n] for n, slot in enumerate(slots)
                                  if slot[0] == position))
               for position, name in enumerate(kernels)]
    groups = ()
    constant = [n for n, (f, _, _) in enumerate(slots)
                if table.get(kernels[f]).components is not None]
    if rng.random() < 0.5 and constant:
        first = rng.choice(constant)
        others = [n for n, slot in enumerate(slots)
                  if slot[0] != slots[first][0] and slot[1:] == slots[first][1:]]
        if others:
            pair = sorted([first, rng.choice(others)])
            groups = (("sym", tuple(occurrences[n] for n in pair)),)
    coeff = Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5]))
    return Term(coeff, tuple(factors), groups)


def parsed_delta_chain(n):
    """delta^{A0}_{A1} delta^{A1}_{A2} ... delta^{A(n-1)}_{An}, parsed."""
    table, parser = fresh()
    (term,) = parser.parse_expression(
        " ".join(f"delta^{{A{k}}}_{{A{k + 1}}}" for k in range(n))).terms
    return term, table


def corpus_texts():
    """The shipped, negative, kernel-sum and seed-4242 and seed-77 generated
    corpora."""
    return [shipped_corpus_text("identities"), shipped_corpus_text("identities_negative")] + [
        (GOLDEN / name).read_text(encoding="utf-8")
        for name in ("kernel_sums.txt", "generated_4242.txt", "generated_77.txt")]


def verify_corpora():
    """Run ``verify``'s cases on the corpora of ``corpus_texts``."""
    for text in corpus_texts():
        run_identity_cases(parse_identity_file(text))


def assert_groups_well_formed(term):
    """Each member of each group of ``term`` occurs in it exactly once, and
    the members of a group share one kind and one variance."""
    occurrences = [idx for factor in term.factors for idx in factor.indices]
    for _, members in term.groups:
        assert all(occurrences.count(idx) == 1 for idx in members), term
        assert len({(idx.kind, idx.up) for idx in members}) <= 1, term


def traced_lines(path, call):
    """The lines that code in ``path`` runs during ``call()``, and what it
    returns.  Lines, not seconds: a count does not depend on the host."""
    count = [0]

    def local(frame, event, arg):
        count[0] += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == path else None)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return count[0], result


class TestConstantElimination:
    def test_corpus_inputs_match_the_reference(self, monkeypatch):
        """Every term that ``verify`` passes to ``eliminate_constants`` on
        the shipped, negative, kernel-sum and seed-4242 and seed-77
        generated corpora gives the reference's result."""
        real, seen = canon.eliminate_constants, []

        def checked(term, table):
            result = real(term, table)
            assert result == reference_eliminate_constants(term, table), term
            seen.append(term)
            return result

        monkeypatch.setattr(canon, "eliminate_constants", checked)
        verify_corpora()
        assert len(seen) > 1000
        assert any(term.groups for term in seen)

    def test_corpus_groups_name_present_occurrences(self, monkeypatch):
        """Every group on a term that ``verify`` parses, rewrites,
        canonicalizes or eliminates constants from, on the same corpora,
        names occurrences of that term, each once, of one kind and one
        variance."""
        real_fold, real_canon, real_expand, seen = (
            rewrite_module.light_fold, rewrite_module.canonicalize, canon.expand_groups, [])

        def check(terms):
            for term in terms:
                assert_groups_well_formed(term)
                seen.append(term)

        def checked_fold(expr, table):
            result = real_fold(expr, table)
            check(expr.terms + result.terms)
            return result

        def checked_canon(expr, table):
            check(expr.terms)
            return real_canon(expr, table)

        def checked_expand(term):
            check((term,))
            return real_expand(term)

        monkeypatch.setattr(rewrite_module, "light_fold", checked_fold)
        monkeypatch.setattr(rewrite_module, "canonicalize", checked_canon)
        monkeypatch.setattr(canon, "expand_groups", checked_expand)
        verify_corpora()
        assert sum(len(term.groups) for term in seen) > 500

    def test_random_products_match_the_reference(self):
        table = property_table()
        results = []
        for seed in range(3000):
            term = random_constant_product(random.Random(seed), table)
            result = canon.eliminate_constants(term, table)
            assert result == reference_eliminate_constants(term, table), (seed, term)
            results.append((term, result))
        # the draws reach traces, group members renamed by a substitution
        # and terms left as they are
        assert any(result.coeff == 2 * term.coeff for term, result in results)
        assert any(result.groups and result.groups != term.groups for term, result in results)
        assert any(result == term for term, result in results)

    def test_lookups_grow_linearly_along_a_delta_chain(self):
        """Each removed delta costs a bounded number of kernel lookups, so
        doubling the chain at most about doubles them (a whole-term rebuild
        per removed delta quadruples them)."""
        lookups = []
        for n in (200, 400):
            term, table = parsed_delta_chain(n)
            real, count = table.get, [0]

            def counted(name, real=real, count=count):
                count[0] += 1
                return real(name)

            table.get = counted
            result = canon.eliminate_constants(term, table)
            assert [f.indices for f in result.factors] == [
                (Idx("A0", IndexKind.UNPRIMED, True), Idx(f"A{n}", IndexKind.UNPRIMED, False))]
            lookups.append(count[0])
        assert lookups[1] <= 2.5 * lookups[0]

    def test_lines_grow_linearly_along_a_metric_spinor_chain(self):
        """eps^{A0 A1} eps_{A1 A2} eps^{A2 A3} ... contracts to one delta, and
        doubling the chain at most about doubles the lines that ``canon``
        runs (a search of every metric spinor per contraction quadruples
        them).  Lines, not seconds: a count does not depend on the host."""
        lines = []
        for n in (1000, 2000):
            table, parser = fresh()
            (term,) = parser.parse_expression(" ".join(
                f"eps^{{A{k} A{k + 1}}}" if k % 2 == 0 else f"eps_{{A{k} A{k + 1}}}"
                for k in range(n))).terms
            count, result = traced_lines(
                canon.__file__, lambda: canon.eliminate_constants(term, table))
            assert (result.coeff, [f.indices for f in result.factors]) == (1, [
                (Idx("A0", IndexKind.UNPRIMED, True), Idx(f"A{n}", IndexKind.UNPRIMED, False))])
            lines.append(count)
        assert lines[1] <= 2.5 * lines[0]


class TestLightFold:
    def test_folding_twice_folds_once_on_corpus_terms(self):
        """``light_fold`` is a projection on every term of lhs - rhs of every
        line of the corpora of ``corpus_texts`` and on every term that
        ``expand_groups`` makes from one, so a rewrite step need fold only
        the terms it adds."""
        checked = 0
        for text in corpus_texts():
            for case in parse_identity_file(text):
                table, parser = fresh()
                lhs, rhs = parser.parse_identity(case.text)
                for raw in (lhs - rhs).terms:
                    for term in [raw] + (canon.expand_groups(raw) if raw.groups else []):
                        once = canon.light_fold(Expr((term,)), table)
                        assert canon.light_fold(once, table) == once, term
                        checked += 1
        assert checked > 1800


class TestGroupSettlement:
    def test_lines_grow_linearly_along_grouped_factors(self):
        """``Ga_{(A0 B0)} M^{C0 D0} Ga_{(A1 B1)} ...`` keeps all n groups,
        and doubling n at most about doubles the lines that ``parse`` runs
        (settling every closed group after each factor quadruples them)."""
        lines = []
        for n in (250, 500):
            text = " ".join(f"Ga_{{(A{k} B{k})}} M^{{C{k} D{k}}}" for k in range(n))
            count, expr = traced_lines(
                parse_module.__file__, lambda: Parser(KernelTable()).parse_expression(text))
            (term,) = expr.terms
            assert len(term.groups) == n
            lines.append(count)
        assert lines[1] <= 2.5 * lines[0]


class TestParsedFactors:
    def test_corpus_factors_are_registered_and_in_template_position(self, monkeypatch):
        """Every factor that ``light_fold``, ``match_term`` and
        ``canonicalize`` receive on the shipped, negative, kernel-sum and
        seed-4242 and seed-77 generated corpora, rule patterns included,
        names a kernel of its table, each slot in the template's kind and
        variance."""
        seen = []

        def check(terms, table):
            for term in terms:
                for factor in term.factors:
                    kernel = table.kernels.get(factor.kernel)
                    assert kernel is not None, factor
                    assert [(idx.kind, idx.variance)
                            for idx in factor.indices] == list(kernel.slots), factor
                    seen.append(factor)

        real_fold, real_match, real_canon = (
            rewrite_module.light_fold, rewrite_module.match_term, rewrite_module.canonicalize)

        def checked_fold(expr, table):
            check(expr.terms, table)
            return real_fold(expr, table)

        def checked_match(term, rule, table):
            check((term, rule.pattern), table)
            return real_match(term, rule, table)

        def checked_canon(expr, table):
            check(expr.terms, table)
            return real_canon(expr, table)

        monkeypatch.setattr(rewrite_module, "light_fold", checked_fold)
        monkeypatch.setattr(rewrite_module, "match_term", checked_match)
        monkeypatch.setattr(rewrite_module, "canonicalize", checked_canon)
        verify_corpora()
        assert len(seen) > 4000
        # the corpora displace field and operator indices, so bridges are checked too
        assert {factor.kernel for factor in seen} >= {"eps_up", "eps_lo", "eps_up_p", "nabla"}

    def test_every_rule_pattern_holds_a_word_factor(self):
        """``apply_match`` puts a replacement where the first matched
        non-constant factor was: every builtin pattern has one."""
        table = KernelTable()
        for name, rule in builtin_rules(table).items():
            assert any(table.get(factor.kernel).components is None
                       for factor in rule.pattern.factors), name


class TestCanonicalizeSeam:
    def test_calls_component_map_through_the_module_global(self):
        """The benchmark times ``canon.component_map`` by replacing the module
        attribute; canonicalize must call it once, on the collected terms."""
        table, parser = fresh()
        expr = parser.parse_expression("2 Ua_{A B} Vb_{C} + eps_{A B} Ua_{D}^{D} Vb_{C}"
                                       " + Ua_{A B} Vb_{C}")
        out, collected = canonicalize_with_collected(expr, table)
        assert collected == out.terms and len(out.terms) == 2
        assert Fraction(3) in [term.coeff for term in out.terms]


@pytest.mark.parametrize("package", ["spinorwave.core", "spinorwave.symbolic"])
class TestLazyExports:
    """Both packages load a submodule on first use of one of its names; the
    public names are the ones the eager imports gave."""

    def test_names_are_the_submodule_objects(self, package):
        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            submodule = importlib.import_module(f"{package}.{pkg._SUBMODULES[name]}")
            assert getattr(pkg, name) is getattr(submodule, name), name

    def test_star_import_binds_every_name(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            assert namespace[name] is getattr(pkg, name), name

    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match=re.escape(f"{package!r} has no attribute")):
            pkg.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})

    def test_from_import_of_a_submodule(self, package):
        pkg = importlib.import_module(package)
        for submodule in sorted(set(pkg._SUBMODULES.values())):
            namespace = {}
            exec(f"from {package} import {submodule}", namespace)
            assert isinstance(namespace[submodule], types.ModuleType)
            assert namespace[submodule].__name__ == f"{package}.{submodule}"
