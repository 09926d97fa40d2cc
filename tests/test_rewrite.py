"""Rewrite rules, the identity verifier, traces, and negative controls."""

import pytest

from spinorwave.errors import IdentityError, WeightError
from spinorwave.symbolic import (
    KernelTable,
    Parser,
    RewriteRule,
    builtin_rules,
    parse_identity_file,
    run_identity_cases,
    shipped_corpus_text,
    verify_identity,
)


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
