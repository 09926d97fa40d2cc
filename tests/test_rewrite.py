"""Rewrite rules, the identity verifier, traces, and negative controls."""

import math

import pytest

from spinorwave.errors import IdentityError, UnsupportedExpressionError, WeightError
from spinorwave.symbolic import (
    Expr,
    KernelTable,
    Parser,
    RewriteRule,
    builtin_rules,
    parse_identity_file,
    run_identity_cases,
    shipped_corpus_text,
    verify_identity,
)
from spinorwave.symbolic import canon
from spinorwave.symbolic.expr import Factor, Term
from spinorwave.symbolic.rewrite import Match, _pattern_arrangements, apply_rules, match_term


GROUP_OVER_BRIDGE = ("Ua^{(A} phi^{B)}_{C} M_{B D} Wz_{E} == 1/2 Ua^{A} phi^{B}_{C} M_{B D} Wz_{E}"
                     " + 1/2 Ua^{B} phi^{A}_{C} M_{B D} Wz_{E}")
FIELD_EQUATION_GROUPED = "nabla^{C A'} delta^{A}_{C} phi_{A}^{B} chi_{(D} psi_{E)} == 0"


def delta_chain(n):
    """delta^{A0}_{A1} delta^{A1}_{A2} ... delta^{A(n-1)}_{An} == delta^{A0}_{An}."""
    return " ".join(f"delta^{{A{k}}}_{{A{k + 1}}}" for k in range(n)) + f" == delta^{{A0}}_{{A{n}}}"


def eps_chain(n):
    """eps^{A0 A1} eps_{A1 A2} eps^{A2 A3} ... over an even number n of
    metric spinors: each pair eps^{X Y} eps_{Y Z} is -delta^{X}_{Z}."""
    factors = [f"eps{'^' if k % 2 == 0 else '_'}{{A{k} A{k + 1}}}" for k in range(n)]
    return " ".join(factors) + f" == {(-1) ** (n // 2)} delta^{{A0}}_{{A{n}}}"


def setup_engine():
    table = KernelTable()
    rules = builtin_rules(table)
    return table, rules, Parser(table)


class TestRuleValidation:
    def test_builtin_rules_validate(self):
        table, rules, _ = setup_engine()
        for rule in rules.values():
            rule.validate(table)

    def test_parsing_rules_leaves_a_fresh_table_unchanged(self):
        # run_identity_cases parses the rules once and uses them with each
        # identity's own fresh table, which relies on this
        table = KernelTable()
        before = dict(table.kernels)
        builtin_rules(table)
        assert table.kernels == before

    def test_weight_violating_rule_rejected(self):
        # theta carries weight (0,0), so its raised form differs from phi's
        table, _, parser = setup_engine()
        pattern = parser.parse_expression("phi_{A}^{B}")
        replacement = parser.parse_expression("theta_{A}^{B}")
        with pytest.raises(WeightError):
            RewriteRule("bad-weight", pattern.terms[0], replacement).validate(table)

    def test_free_index_violating_rule_rejected(self):
        table, _, parser = setup_engine()
        pattern = parser.parse_expression("phi_{A}^{B}")
        replacement = parser.parse_expression("phi_{A}^{C}")
        with pytest.raises(IdentityError):
            RewriteRule("bad-free", pattern.terms[0], replacement).validate(table)


class TestShippedCorpus:
    def test_all_identities_verify(self):
        reports = run_identity_cases(parse_identity_file(shipped_corpus_text("identities")))
        assert {r.name: r.success for r in reports} == {
            "metric_contraction": True,
            "decomposition": True,
            "symmetric_antisym": True,
            "splitting": True,
            "box_extraction": True,
            "wave_equation": True,
        }

    def test_negative_controls_fail_with_residual(self):
        reports = run_identity_cases(
            parse_identity_file(shipped_corpus_text("identities_negative"))
        )
        assert len(reports) == 2
        for report in reports:
            assert not report.success
            assert not report.residual.is_zero  # nonzero residual reported

    def test_wave_equation_trace_replays_deterministically(self):
        def run():
            reports = run_identity_cases(
                parse_identity_file(shipped_corpus_text("identities"))
            )
            return {r.name: r.render() for r in reports}

        assert run() == run()

    def test_verification_independent_of_process_history(self):
        for corpus in ("identities", "identities_negative"):
            cases = parse_identity_file(shipped_corpus_text(corpus))
            alone = [run_identity_cases([case])[0] for case in cases]
            after_corpus = run_identity_cases(cases)
            assert alone == after_corpus
            assert [r.render() for r in alone] == [r.render() for r in after_corpus]

    def test_rule_sets_that_undo_each_other(self):
        """Shipped lines under rule sets whose rules undo each other: a line
        reads ok where one firing leaves lhs - rhs folded to nothing, a
        cycle is refused at the step bound, and a true line that the rules
        cannot finish reads failed with the derivatives left over."""
        cases = {case.name: case for case in
                 parse_identity_file(shipped_corpus_text("identities"))}

        def run(name, *rules):
            return run_identity_cases([cases[name]._replace(rule_names=rules)])[0]

        for rules in (("splitting", "splitting_reversed"),
                      ("splitting_reversed", "box_extraction")):
            report = run("splitting", *rules)
            assert (report.success, len(report.trace)) == (True, 1), rules
        report = run("box_extraction", "box_extraction", "splitting_reversed")
        assert (report.success, len(report.trace)) == (True, 1)
        report = run("box_extraction", "splitting_reversed", "box_extraction")
        assert not report.success and "nabla" in repr(report.residual)
        # box_extraction reads Box phi through the other slot of the
        # symmetric phi, which the field equation alone makes equal; which
        # slot it reads follows the folded term's arrangement (the
        # match_term FOUND in CHANGES.md), so a move here is a changed match
        for rules in (("field_equation", "box_extraction"),
                      ("box_extraction", "field_equation")):
            report = run("splitting", *rules)
            assert (report.success, len(report.trace)) == (False, 2), rules
            assert "Delta" in repr(report.residual), rules
        with pytest.raises(UnsupportedExpressionError,
                           match="wave_equation: rewriting did not finish within 200 steps"):
            run("wave_equation", "splitting_reversed", "box_extraction")

    def test_wave_equation_uses_the_full_chain(self):
        reports = run_identity_cases(parse_identity_file(shipped_corpus_text("identities")))
        wave = next(r for r in reports if r.name == "wave_equation")
        rules_used = [step.rule for step in wave.trace]
        assert rules_used == ["box_extraction", "curvature_action", "graviton_symbol"]


class TestVerifyIdentity:
    def test_splitting_from_definitions(self):
        table, rules, parser = setup_engine()
        lhs, rhs = parser.parse_identity(
            "nabla_{A'}^{C} nabla^{A A'} phi_{A}^{B} == "
            "Delta^{A C} phi_{A}^{B} - 1/2 M^{A C} Box phi_{A}^{B}"
        )
        report = verify_identity(
            lhs, rhs, [rules["delta_definition"], rules["box_definition"]], table
        )
        assert report.success

    def test_mutated_ricci_coefficient_fails(self):
        table, rules, parser = setup_engine()
        lhs, rhs = parser.parse_identity(
            "(Box + 1/2 R) phi_{A}^{B} + 2 Psi_{A D}^{B C} phi_{C}^{D} == 0"
        )
        chain = [rules["box_extraction"], rules["curvature_action"], rules["graviton_symbol"]]
        report = verify_identity(lhs, rhs, chain, table)
        assert not report.success
        assert not report.residual.is_zero

    @pytest.mark.parametrize("sign, success", [("-", True), ("+", False)])
    def test_lowering_bridge_of_a_kernel_first_written_up(self, sign, success):
        # Ua and Vb take their first written slot, upper, as their template:
        # each lowered slot is a bridge, and swapping the contraction's
        # variance costs a sign
        table, _, parser = setup_engine()
        lhs, rhs = parser.parse_identity(f"Ua^{{A}} Vb_{{A}} == {sign} Ua_{{A}} Vb^{{A}}")
        assert verify_identity(lhs, rhs, [], table).success is success

    @pytest.mark.parametrize("identity, rule_names, success", [
        # the group's second slot is displaced: its bridge and M are a
        # contractible eps pair, which must wait for expand_groups
        pytest.param(GROUP_OVER_BRIDGE, (), True, id="group_over_bridge"),
        pytest.param(GROUP_OVER_BRIDGE.replace(" Wz_{E}", ""), (), True,
                     id="group_over_bridge_last"),
        pytest.param(GROUP_OVER_BRIDGE.replace("(", "").replace(")", ""), (), False,
                     id="group_over_bridge_unbracketed_mutant"),
        # a delta that no group names is substituted in a grouped term, so
        # the rule matches; without the rule the term stays
        pytest.param(FIELD_EQUATION_GROUPED, ("field_equation",), True,
                     id="group_on_untouched_fields"),
        pytest.param(FIELD_EQUATION_GROUPED.replace("chi_{(D} psi_{E)}",
                                                    "Ua^{(D} phi^{E)}_{F} M_{E G}"),
                     ("field_equation",), True, id="group_over_bridge_beside_a_delta"),
        pytest.param(FIELD_EQUATION_GROUPED, (), False, id="group_on_untouched_fields_no_rule"),
        # constant elimination has no step bound, and each removed delta
        # costs bounded work: a long chain verifies in well under a second
        pytest.param(delta_chain(250), (), True, id="delta_chain_250"),
        pytest.param(delta_chain(2000), (), True, id="delta_chain_2000"),
        pytest.param(eps_chain(1000), (), True, id="eps_chain_1000"),
        pytest.param(eps_chain(1000).replace("== 1", "== -1"), (), False,
                     id="eps_chain_1000_sign_mutant"),
    ])
    def test_constant_elimination_cases(self, identity, rule_names, success):
        table, rules, parser = setup_engine()
        lhs, rhs = parser.parse_identity(identity)
        chain = [rules[name] for name in rule_names]
        assert verify_identity(lhs, rhs, chain, table).success is success

    def test_free_index_mismatch_is_ill_posed(self):
        table, rules, parser = setup_engine()
        lhs = parser.parse_expression("phi_{A}^{B}")
        rhs = parser.parse_expression("phi_{A}^{C}")
        with pytest.raises(IdentityError):
            verify_identity(lhs, rhs, [], table)

    def test_weight_inhomogeneous_identity_rejected(self):
        table, rules, parser = setup_engine()
        lhs = parser.parse_expression("theta_{A B}")
        rhs = parser.parse_expression("phi_{A B}")
        with pytest.raises(WeightError):
            verify_identity(lhs, rhs, [], table)


class TestMatchTerm:
    """``match_term`` on parsed host terms: the first match found, or None.

    The builtin rules are parsed first, so their own dummies are ``~U<n>``
    from the rule parser (``~U16`` in ``box_extraction``)."""

    def match(self, host: str, rule: str):
        table, rules, parser = setup_engine()
        (term,) = parser.parse_expression(host).terms
        return match_term(term, rules[rule], table)

    def test_word_factors_must_be_adjacent(self):
        assert self.match("Box theta_{E F} phi_{G}^{B}", "box_extraction") is None
        found = self.match("theta_{E F} Box phi_{G}^{B}", "box_extraction")
        assert found.word_slice == (1, 3)
        assert found.mapping["E"] == "G"

    def test_constant_binds_to_second_metric_spinor_with_sign(self):
        # host factors: Box phi_E_X eps_up^C^D eps_up^X^B; the first metric
        # spinor cannot take the pattern's eps_up^B^~U16 once ~U16 is bound to X,
        # the second takes it swapped, an odd arrangement
        found = self.match("Box phi_{E X} M^{C D} M^{X B}", "box_extraction")
        assert found.const_used == (3,)
        assert found.sign == -1

    def test_full_match(self):
        found = self.match("Box phi_{E X} M^{X B} M^{C D}", "box_extraction")
        assert found == Match(word_slice=(0, 2), const_used=(2,),
                              mapping={"E": "E", "~U16": "X", "B": "B"}, sign=-1)

    def test_host_group_straddling_the_match(self):
        # the group names the bridge of phi's B, which the pattern's metric
        # spinor takes, and the bridge of theta's F, which it does not
        assert self.match("Box phi_{E}^{(B} theta^{F)}_{G}", "box_extraction") is None
        assert self.match("Box phi_{E}^{B} theta^{F}_{G}", "box_extraction") is not None

    def test_host_group_inside_the_match_must_be_a_pattern_image(self):
        # box_extraction has no groups; graviton_symbol has one on all four slots
        assert self.match("Box phi_{[E X]} M^{X B}", "box_extraction") is None
        assert self.match("Box phi_{(E X)} M^{X B}", "box_extraction") is not None
        assert self.match("omega_{(A B C) D}", "graviton_symbol") is None
        assert self.match("omega_{A B C D}", "graviton_symbol") is None
        found = self.match("omega_{(A B C D)} omega_{(E F G H)}", "graviton_symbol")
        assert found.word_slice == (0, 1)

    def test_pattern_dummy_used_outside_the_match(self):
        # the image X of the pattern dummy ~U16 is used again outside the
        # matched factors, so it is not contracted inside them
        table, rules, parser = setup_engine()
        (term,) = parser.parse_expression("Box phi_{E X} M^{X B} theta_{F G}").terms
        box, phi, eps, theta = term.factors
        x = phi.indices[1]
        bad = Term(term.coeff, (box, phi, eps, Factor(theta.kernel, (x, theta.indices[1]))))
        assert match_term(term, rules["box_extraction"], table) is not None
        assert match_term(bad, rules["box_extraction"], table) is None

    def test_pattern_free_label_may_bind_a_host_dummy(self):
        # curvature_action's free C binds the host's B, and the free B binds
        # the host's C, a dummy contracted with theta outside the match
        found = self.match("Delta^{A C} phi_{A}^{B} theta_{C D}", "curvature_action")
        assert found.word_slice == (0, 2)
        assert found.const_used == (2,)
        assert found.mapping["B"] == "C" and found.mapping["C"] == "B"
        assert found.sign == 1

    def test_pattern_arrangements_are_distinct(self):
        # the matcher tries each arrangement of a pattern factor once, with
        # no pass to remove repeats: a factor of every builtin pattern has
        # as many distinct arrangements as its slot groups have orders, two
        # of them with opposite signs for a metric spinor
        table, rules, _ = setup_engine()
        for rule in rules.values():
            for factor in rule.pattern.factors:
                kernel = table.get(factor.kernel)
                skew = factor.kernel in ("eps_lo", "eps_up", "eps_lo_p", "eps_up_p")
                order = math.prod(math.factorial(len(g)) for g in kernel.sym_groups)
                arrangements = _pattern_arrangements(factor, table)
                assert len({indices for indices, _ in arrangements}) == len(arrangements) \
                    == order * (2 if skew else 1), (rule.name, factor.kernel)
                if skew:
                    assert sorted(sign for _, sign in arrangements) == [-1, 1]


class TestApplyRules:
    def test_a_cycle_is_refused_at_the_step_bound(self):
        # the rank-0 kernel T_a prints as T_{a} does, and U_a as U_{a}: the
        # two rules turn the terms into each other for ever, and a cycle is
        # no verdict
        table, _, parser = setup_engine()
        there = parser.parse_expression("T_{a} U_a").terms[0]
        back = parser.parse_expression("T_a U_{a}").terms[0]
        assert repr(there) == repr(back) and there != back
        rules = [RewriteRule("there", there, Expr((back,))),
                 RewriteRule("back", back, Expr((there,)))]
        with pytest.raises(UnsupportedExpressionError, match="within 200 steps"):
            apply_rules(Expr((there,)), rules, table)

    def test_eliminations_grow_linearly_along_box_terms(self, monkeypatch):
        """n ``Box`` terms under ``box_definition`` take n steps, and each
        step folds only the term it adds: doubling n at most about doubles
        the ``eliminate_constants`` calls (refolding every term at every
        step quadruples them)."""
        real, calls = canon.eliminate_constants, []

        def counted(term, table):
            calls.append(term)
            return real(term, table)

        monkeypatch.setattr(canon, "eliminate_constants", counted)
        counts = []
        for n in (100, 200):
            lhs = " + ".join(f"Box K{k}_{{A}}" for k in range(n))
            rhs = " + ".join(f"nabla_{{X X'}} nabla^{{X X'}} K{k}_{{A}}" for k in range(n))
            calls.clear()
            [report] = run_identity_cases(parse_identity_file(
                f"#@ name=box{n} rules=box_definition\n{lhs} == {rhs}\n"))
            assert report.success and len(report.trace) == n
            counts.append(len(calls))
        assert counts[1] <= 2.5 * counts[0]
