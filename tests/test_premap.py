"""Premappability analysis, the pushdown rewrite, and its surfaces.

The model-equivalence of the rewrite is pinned separately, on generated
programs under every evaluator, in ``tests/test_generated_programs.py``;
this module covers the analysis verdicts, the rewrite's shape, and the
CLI/telemetry surfaces.
"""

import pytest

from repro.analysis.diagnostics import lint_program
from repro.analysis.premap import (
    APPLIED,
    AUX_SUFFIX,
    BLOCKED,
    CHANGES_SEMANTICS,
    analyze_premappability,
    apply_pushdown,
)
from repro.cli import main
from repro.datalog.parser import parse_program
from repro.obs import Tracer, validate_events
from repro.programs import company_control, shortest_path

ARCS = [("a", "b", 1), ("b", "c", 2), ("c", "a", 3), ("a", "c", 10)]

SP = """
@cost arc/3  : reals_ge.
@cost path/4 : reals_ge.
@cost s/3    : reals_ge.
@constraint arc(direct, Z, C).
path(X, direct, Y, C) <- arc(X, Y, C).
path(X, Z, Y, C) <- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
s(X, Y, C) <- C =r min{D : path(X, Z, Y, D)}.
"""


def analyze(source):
    return analyze_premappability(parse_program(source))


class TestVerdicts:
    def test_shortest_path_applies(self):
        report = analyze(SP)
        (v,) = report.verdicts
        assert v.status == APPLIED
        assert (v.head, v.predicate, v.function) == ("s", "path", "min")
        assert v.plan is not None
        assert v.plan.auxiliary == f"path{AUX_SUFFIX}"
        # path(X, Z, Y, C): grouping key (X, Y) keeps positions 0 and 2.
        assert v.plan.kept_positions == (0, 2)
        assert all(w.ok for w in v.witnesses)
        assert "pushdown applied" in str(v)

    def test_sum_changes_semantics(self):
        report = analyze_premappability(
            company_control.database().program
        )
        assert report.verdicts, "company-control recurses through sum"
        assert all(v.status == CHANGES_SEMANTICS for v in report.verdicts)
        assert any(
            "extremum" in v.witness for v in report.verdicts
        ), "the witness names the failing condition"

    def test_wrong_orientation_never_applies(self):
        # max over a ≥-ordered chain: the lattice join computes min, so
        # eagerly collapsing per-key costs would lose the maximum.  The
        # occurrence dies on classification (max is not monotone w.r.t.
        # reals_ge) before the lattice-alignment check even runs.
        report = analyze(SP.replace("min{", "max{"))
        (v,) = report.verdicts
        assert v.status in (BLOCKED, CHANGES_SEMANTICS)
        assert not apply_pushdown(parse_program(SP.replace("min{", "max{"))).changed

    def test_unrestricted_form_blocked(self):
        report = analyze(SP.replace("=r min", "= min"))
        (v,) = report.verdicts
        assert v.status == BLOCKED
        assert "=r" in v.witness

    def test_left_linear_interior_blocked(self):
        # An extra left-linear rule makes path read itself: the frontier
        # cannot be collapsed while the interior consumes its own local
        # column.
        left = SP + (
            "path(X, W, Y, C) <- path(X, W, Z, C1), arc(Z, Y, C2),"
            " C = C1 + C2.\n"
        )
        report = analyze(left)
        (v,) = report.verdicts
        assert v.status == BLOCKED
        assert not apply_pushdown(parse_program(left)).changed

    def test_constant_in_conjunct_blocked(self):
        report = analyze(SP.replace("path(X, Z, Y, D)}", "path(a, Z, Y, D)}"))
        (v,) = report.verdicts
        assert v.status == BLOCKED
        assert "distinct variables" in v.witness

    def test_stratified_aggregation_skipped(self):
        # The aggregate reads a lower stratum: nothing to push into.
        report = analyze(
            """
            @cost e/3 : reals_ge.
            @cost best/3 : reals_ge.
            best(X, Y, C) <- C =r min{D : e(X, Z, Y, D)}.
            """.replace("e(X, Z, Y, D)", "e(X, Y, D)")
        )
        assert report.verdicts == []
        assert "no recursive aggregate occurrences" in str(report)

    def test_extra_scc_member_blocked(self):
        extra = SP + "path(X, Z, Y, C) <- hop(X, Z, Y, C).\n" + (
            "@cost hop/4 : reals_ge.\n"
            "hop(X, Z, Y, C) <- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2,"
            " path(X, Z, Y, C3), C3 > 0.\n"
        )
        report = analyze(extra)
        assert report.verdicts
        assert all(v.status == BLOCKED for v in report.verdicts)


class TestRewrite:
    def test_rewrite_shape(self):
        program = parse_program(SP)
        result = apply_pushdown(program)
        assert result.changed
        assert result.aux_predicates == {"path__frontier"}
        heads = [rule.head.predicate for rule in result.program.rules]
        # Each interior rule gains an aux projection *before* it, and
        # the original stays as the reconstruction stratum.
        assert heads == [
            "path__frontier",
            "path",
            "path__frontier",
            "path",
            "s",
        ]
        decl = result.program.decl("path__frontier")
        assert decl.arity == 3
        assert decl.lattice is program.decl("path").lattice
        (agg_rule,) = [
            r for r in result.program.rules if r.head.predicate == "s"
        ]
        (sg,) = agg_rule.aggregate_subgoals()
        assert sg.conjuncts[0].predicate == "path__frontier"
        assert len(sg.conjuncts[0].args) == 3

    def test_rewrite_is_idempotent(self):
        once = apply_pushdown(parse_program(SP))
        twice = apply_pushdown(once.program)
        # The collapsed frontier has no local column left to drop.
        assert not twice.changed
        assert twice.program is once.program

    def test_aux_name_collision_avoided(self):
        source = SP + "@cost path__frontier/3 : reals_ge.\n"
        result = apply_pushdown(parse_program(source))
        assert result.changed
        assert result.aux_predicates == {"path__frontier1"}

    def test_rendered_program_reparses(self, tmp_path, capsys):
        """What ``repro optimize`` prints parses back to the rewrite."""
        source = SP + "@pred node/1.\n"
        rules = tmp_path / "sp.mad"
        rules.write_text(source)
        assert main(["optimize", str(rules)]) == 0
        rendered = capsys.readouterr().out
        program = parse_program(source)
        result = apply_pushdown(program)
        assert "@cost path__frontier/3 : reals_ge." in rendered
        reparsed = parse_program(rendered)
        assert [str(r) for r in reparsed.rules] == [
            str(r) for r in result.program.rules
        ]
        aux = reparsed.decl("path__frontier")
        assert aux.lattice is result.program.decl("path__frontier").lattice
        # Every explicit declaration survives, ordinary ones included.
        assert program.explicit_declarations == {"arc", "path", "s", "node"}
        assert program.explicit_declarations <= reparsed.explicit_declarations
        for name in program.explicit_declarations:
            assert reparsed.decl(name) == program.decl(name)


class TestSolverIntegration:
    def test_aux_is_stripped_from_model(self):
        db = shortest_path.database({"arc": ARCS})
        result = db.solve(method="seminaive", pushdown="auto")
        assert "path__frontier" not in result.model.relations
        off = shortest_path.database({"arc": ARCS}).solve(
            method="seminaive", pushdown="off"
        )
        assert result.model["s"] == off.model["s"]
        assert result.model["path"] == off.model["path"]

    def test_bad_pushdown_mode_rejected(self):
        db = shortest_path.database({"arc": ARCS})
        with pytest.raises(ValueError, match="unknown pushdown"):
            db.solve(pushdown="sideways")

    def test_rewrite_applied_event(self):
        db = shortest_path.database({"arc": ARCS})
        tracer = Tracer()
        db.solve(method="seminaive", tracer=tracer)
        assert validate_events(tracer.events) == []
        (event,) = [
            e for e in tracer.events if e["type"] == "rewrite_applied"
        ]
        assert event["head"] == "s"
        assert event["predicate"] == "path"
        assert event["auxiliary"] == "path__frontier"
        assert event["aggregate"] == "min"

    def test_no_event_when_pushdown_off(self):
        db = shortest_path.database({"arc": ARCS})
        tracer = Tracer()
        db.solve(method="seminaive", tracer=tracer, pushdown="off")
        assert not [
            e for e in tracer.events if e["type"] == "rewrite_applied"
        ]

    def test_pushdown_composes_with_budget(self):
        from repro.engine.supervisor import Budget

        db = shortest_path.database({"arc": ARCS})
        result = db.solve(
            method="seminaive",
            pushdown="auto",
            budget=Budget(max_iterations=10_000),
        )
        assert result.status == "complete"


class TestDiagnostics:
    def test_mad801_on_shortest_path(self):
        diags = lint_program(shortest_path.database().program)
        assert any(d.code == "MAD801" for d in diags)
        assert not any(d.code in ("MAD802", "MAD803") for d in diags)

    def test_mad803_on_company_control(self):
        diags = lint_program(company_control.database().program)
        assert any(d.code == "MAD803" for d in diags)

    def test_mad802_on_blocked_program(self):
        diags = lint_program(parse_program(SP.replace("=r min", "= min")))
        assert any(d.code == "MAD802" for d in diags)

    def test_mad8xx_never_error(self):
        from repro.analysis.diagnostics import Severity

        for source in (SP, SP.replace("=r min", "= min")):
            diags = lint_program(parse_program(source))
            mad8 = [d for d in diags if d.code.startswith("MAD8")]
            assert mad8
            assert all(d.severity is Severity.INFO for d in mad8)


class TestOptimizeCli:
    def test_optimize_prints_rewritten_program(self, tmp_path, capsys):
        rules = tmp_path / "sp.mad"
        rules.write_text(SP + "arc(a, b, 1).\n")
        assert main(["optimize", str(rules)]) == 0
        captured = capsys.readouterr()
        assert "pushdown applied" in captured.err
        assert "path__frontier" in captured.out
        # The printed program is loadable source.
        parse_program(captured.out)

    def test_optimize_reports_no_occurrences(self, tmp_path, capsys):
        rules = tmp_path / "plain.mad"
        rules.write_text("p(X) <- e(X).\ne(a).\n")
        assert main(["optimize", str(rules)]) == 0
        captured = capsys.readouterr()
        assert "no recursive aggregate occurrences" in captured.err

    def test_optimize_reports_unchanged(self, tmp_path, capsys):
        rules = tmp_path / "cc.mad"
        rules.write_text(company_control.source)
        assert main(["optimize", str(rules)]) == 0
        captured = capsys.readouterr()
        assert "pushdown changes-semantics" in captured.err
        assert "program unchanged" in captured.err

    def test_solve_pushdown_off_flag(self, tmp_path, capsys):
        rules = tmp_path / "sp.mad"
        rules.write_text(SP + "arc(a, b, 1).\narc(b, c, 2).\n")
        assert main(["solve", str(rules), "--query", "s"]) == 0
        on = capsys.readouterr().out
        assert (
            main(["solve", str(rules), "--query", "s", "--pushdown", "off"])
            == 0
        )
        off = capsys.readouterr().out
        assert on == off
