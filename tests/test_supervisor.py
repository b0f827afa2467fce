"""Solve supervision: budgets, cancellation, divergence, checkpoint/resume.

Covers the runtime-only MAD7xx diagnostics (which the lint corpus test
deliberately exempts) and the acceptance properties of
docs/ROBUSTNESS.md: a diverging program under a budget stops in bounded
time with a sound partial model and a resumable checkpoint, and a
resumed solve reproduces the uninterrupted model exactly, per evaluator.
"""

import json
import signal
import threading
import time
from pathlib import Path

import pytest

from repro import Budget, CancelToken, Checkpoint, Database, sigint_cancels
from repro.datalog.errors import NonTerminationError
from repro.engine.checkpoint import CheckpointError
from repro.engine.supervisor import (
    NULL_SUPERVISOR,
    SolveInterrupt,
    Supervisor,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SHORTEST_PATH = (EXAMPLES / "shortest_path.mad").read_text(encoding="utf-8")
DIVERGING = (EXAMPLES / "diverging.mad").read_text(encoding="utf-8")

METHODS = ("naive", "seminaive", "greedy")


def make_db(source: str) -> Database:
    db = Database()
    db.load(source)
    return db


def snapshot(model) -> dict:
    """Canonical {predicate: sorted rows} view of an interpretation."""
    return {
        name: sorted(rel.rows(), key=repr)
        for name, rel in model.relations.items()
        if len(rel)
    }


class TestBudgetValidation:
    def test_rejects_bad_on_divergence(self):
        with pytest.raises(ValueError):
            Budget(on_divergence="explode")

    @pytest.mark.parametrize(
        "bad",
        [
            # At the parent a NaN deadline never fired, and a limit
            # below 1 "exhausted" at round 1.
            {"timeout": float("nan")},
            {"timeout": -1.0},
            {"timeout": "5"},
            {"max_iterations": 0},
            {"max_iterations": True},
            {"max_iterations": 2.5},
            {"max_atoms": -5},
        ],
        ids=repr,
    )
    def test_rejects_limits_that_mean_nothing(self, bad):
        ((name, value),) = bad.items()
        with pytest.raises(ValueError) as caught:
            Budget(**bad)
        assert str(caught.value).startswith(f"{name} must be a ")
        assert str(caught.value).endswith(f", got {value!r}")

    def test_integer_limits_read_as_solve_options_does(self):
        for name in ("max_iterations", "max_atoms"):
            with pytest.raises(ValueError) as caught:
                Budget(**{name: 0})
            assert str(caught.value) == f"{name} must be a positive integer, got 0"

    def test_accepts_the_edges_of_each_range(self):
        Budget(timeout=0.0)
        Budget(timeout=float("inf"))
        Budget(max_iterations=1, max_atoms=1)

    def test_bounded_property(self):
        assert not Budget().bounded
        assert Budget(timeout=1.0).bounded
        assert Budget(max_atoms=10).bounded
        assert not Budget(on_divergence="abort").bounded

    def test_null_supervisor_is_inert(self):
        assert not NULL_SUPERVISOR.active
        # The inactive fast paths must be no-ops, not raises.
        NULL_SUPERVISOR.poll()
        NULL_SUPERVISOR.on_round(
            scc=0, iteration=1, new_atoms=0, changed_atoms=0, total_atoms=0
        )
        assert Supervisor.disabled().active is False


class TestTimeoutOnDivergingProgram:
    def test_bounded_time_partial_model_and_checkpoint(self):
        db = make_db(DIVERGING)
        t0 = time.monotonic()
        result = db.solve(budget=Budget(timeout=0.5))
        elapsed = time.monotonic() - t0
        assert elapsed < 30  # bounded, with generous CI slack
        assert result.status == "timeout"
        assert not result.complete
        assert "wall-clock" in result.reason
        # The partial model is a sound lower bound: the direct arcs are in.
        assert len(result.model.relation("s")) >= 3
        assert result.checkpoint is not None
        assert result.checkpoint.total_atoms > 0
        # The cost-spiral heuristic saw the negative cycle on the way.
        codes = {d.code for d in result.runtime_diagnostics}
        assert "MAD701" in codes

    def test_divergence_abort_stops_without_timeout(self):
        db = make_db(DIVERGING)
        result = db.solve(budget=Budget(on_divergence="abort"))
        assert result.status == "diverging"
        assert "MAD701" in result.reason
        assert result.checkpoint is not None

    def test_divergence_warn_keeps_diagnostic_structured(self):
        db = make_db(DIVERGING)
        result = db.solve(budget=Budget(timeout=0.5))
        spiral = [
            d for d in result.runtime_diagnostics if d.code == "MAD701"
        ]
        assert spiral
        assert spiral[0].severity.name == "WARNING"
        assert "unbounded cost domain" in spiral[0].message


class TestIterationAndAtomBudgets:
    @pytest.mark.parametrize("method", METHODS)
    def test_iteration_budget_gives_partial(self, method):
        db = make_db(SHORTEST_PATH)
        result = db.solve(method=method, budget=Budget(max_iterations=1))
        assert result.status == "partial"
        assert "fixpoint-round budget" in result.reason
        assert result.checkpoint is not None
        assert result.interrupted_component is not None

    def test_atom_budget_gives_partial(self):
        db = make_db(DIVERGING)
        result = db.solve(budget=Budget(max_atoms=6))
        assert result.status == "partial"
        assert "derived-atom budget" in result.reason

    def test_ample_budget_still_completes(self):
        db = make_db(SHORTEST_PATH)
        result = db.solve(
            budget=Budget(timeout=120.0, max_iterations=10_000)
        )
        assert result.status == "complete"
        assert result.complete
        assert result.checkpoint is None
        full = make_db(SHORTEST_PATH).solve()
        assert snapshot(result.model) == snapshot(full.model)


class TestRoundCapRule:
    """One budget, one outcome: ``solve()`` lifts the evaluators' round
    cap exactly when the budget stops every run (a round cap or a finite
    deadline).  ``max_iterations=200`` keeps the capped cases fast."""

    @pytest.mark.parametrize(
        "budget, status",
        [
            (Budget(max_iterations=300), "partial"),
            (Budget(timeout=0.3), "timeout"),
            (Budget(on_divergence="abort"), "diverging"),
        ],
        ids=("max_iterations", "timeout", "abort"),
    )
    def test_a_budget_that_stops_the_run_returns(self, budget, status):
        result = make_db(DIVERGING).solve(max_iterations=200, budget=budget)
        assert result.status == status
        assert result.checkpoint is not None
        if status == "partial":
            assert result.total_iterations == 300
            assert "fixpoint-round budget of 300" in result.reason
        if status == "diverging":
            assert "MAD701" in result.reason

    @pytest.mark.parametrize(
        "budget",
        [Budget(max_atoms=10**6), Budget(timeout=float("inf")), None],
        ids=("max_atoms", "timeout_inf", "no_budget"),
    )
    def test_any_other_budget_keeps_the_cap(self, budget):
        db = make_db(DIVERGING)
        with pytest.raises(
            NonTerminationError, match="no fixpoint after 200 iterations"
        ):
            db.solve(max_iterations=200, budget=budget)


class TestCancellation:
    def test_pre_cancelled_token(self):
        db = make_db(SHORTEST_PATH)
        token = CancelToken()
        token.cancel("told you so")
        result = db.solve(cancel=token)
        assert result.status == "cancelled"
        assert result.reason == "told you so"
        assert result.checkpoint is not None

    def test_cancel_from_another_thread(self):
        db = make_db(DIVERGING)
        token = CancelToken()
        timer = threading.Timer(0.2, token.cancel, args=("timer",))
        timer.start()
        try:
            t0 = time.monotonic()
            result = db.solve(cancel=token)
        finally:
            timer.cancel()
        assert result.status == "cancelled"
        assert time.monotonic() - t0 < 30
        # The database stays queryable after cancellation.
        assert db.query("s") is not None

    def test_cancel_reason_is_idempotent(self):
        token = CancelToken()
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled
        assert token.reason == "first"

    def test_sigint_mid_solve_cancels_gracefully(self):
        from repro.testing import Fault, FaultPlan, inject

        db = make_db(DIVERGING)
        token = CancelToken()
        plan = FaultPlan(
            [
                Fault(
                    "rule_firing",
                    action="call",
                    at=40,
                    call=lambda seam, detail: signal.raise_signal(
                        signal.SIGINT
                    ),
                )
            ]
        )
        with sigint_cancels(token):
            with inject(plan):
                result = db.solve(cancel=token)
        assert result.status == "cancelled"
        assert result.reason == "SIGINT"
        assert result.checkpoint is not None
        # Still queryable: cancellation landed at a safe boundary.
        assert db.query("s") is not None

    def test_sigint_handler_is_restored(self):
        previous = signal.getsignal(signal.SIGINT)
        with sigint_cancels(CancelToken()):
            assert signal.getsignal(signal.SIGINT) is not previous
        assert signal.getsignal(signal.SIGINT) is previous

    def test_sigterm_mid_solve_cancels_gracefully(self):
        """An orchestrator's SIGTERM lands exactly like Ctrl-C: the
        solve stops at a cooperative boundary with a checkpoint instead
        of the process dying mid-mutation."""
        from repro.testing import Fault, FaultPlan, inject

        db = make_db(DIVERGING)
        token = CancelToken()
        plan = FaultPlan(
            [
                Fault(
                    "rule_firing",
                    action="call",
                    at=40,
                    call=lambda seam, detail: signal.raise_signal(
                        signal.SIGTERM
                    ),
                )
            ]
        )
        with sigint_cancels(token):
            with inject(plan):
                result = db.solve(cancel=token)
        assert result.status == "cancelled"
        assert result.reason == "SIGTERM"
        assert result.checkpoint is not None
        assert db.query("s") is not None

    def test_sigterm_handler_is_restored(self):
        previous = signal.getsignal(signal.SIGTERM)
        with sigint_cancels(CancelToken()):
            assert signal.getsignal(signal.SIGTERM) is not previous
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_resume_after_cancel_matches_uninterrupted(self):
        db = make_db(SHORTEST_PATH)
        token = CancelToken()
        token.cancel()
        partial = db.solve(cancel=token)
        assert partial.status == "cancelled"
        resumed = make_db(SHORTEST_PATH).resume(partial.checkpoint)
        assert resumed.status == "complete"
        full = make_db(SHORTEST_PATH).solve()
        assert snapshot(resumed.model) == snapshot(full.model)


class TestCheckpointResume:
    @pytest.mark.parametrize("method", METHODS)
    def test_resume_matches_uninterrupted(self, method, tmp_path):
        db = make_db(SHORTEST_PATH)
        partial = db.solve(method=method, budget=Budget(max_iterations=1))
        assert partial.status == "partial"
        path = tmp_path / "solve.ckpt.json"
        partial.checkpoint.save(str(path))

        resumed = make_db(SHORTEST_PATH).resume(str(path), method=method)
        assert resumed.status == "complete"
        full = make_db(SHORTEST_PATH).solve(method=method)
        assert snapshot(resumed.model) == snapshot(full.model)

    def test_checkpoint_roundtrips_through_dict(self):
        db = make_db(SHORTEST_PATH)
        partial = db.solve(budget=Budget(max_iterations=1))
        checkpoint = partial.checkpoint
        clone = Checkpoint.from_dict(checkpoint.to_dict())
        assert clone.to_dict() == checkpoint.to_dict()
        assert clone.fingerprint == checkpoint.fingerprint
        assert clone.total_atoms == checkpoint.total_atoms

    def test_checkpoint_rejects_wrong_program(self):
        db = make_db(SHORTEST_PATH)
        partial = db.solve(budget=Budget(max_iterations=1))
        other = Database()
        other.load("p(X) <- q(X). q(a).")
        with pytest.raises(CheckpointError):
            other.resume(partial.checkpoint)

    def test_same_rules_different_facts_share_fingerprint(self):
        # Facts live in the EDB, not the program: a checkpoint from one
        # extension resumes under another (the rules are what must match).
        from repro.engine.checkpoint import program_fingerprint

        assert program_fingerprint(
            make_db(SHORTEST_PATH).program
        ) == program_fingerprint(make_db(DIVERGING).program)

    def test_checkpoint_rejects_unknown_format(self):
        db = make_db(SHORTEST_PATH)
        partial = db.solve(budget=Budget(max_iterations=1))
        payload = partial.checkpoint.to_dict()
        payload["format"] = 999
        with pytest.raises(CheckpointError):
            Checkpoint.from_dict(payload)

    @pytest.mark.parametrize("method", METHODS)
    def test_a_v1_file_carrying_a_frontier_resumes(self, method, tmp_path):
        """Format 1 files once carried the pending delta as an advisory
        ``frontier``; such a file still loads, the field is ignored, and
        resume reaches the uninterrupted model."""
        db = make_db(SHORTEST_PATH)
        partial = db.solve(method=method, budget=Budget(max_iterations=1))
        payload = partial.checkpoint.to_dict()
        assert payload["format"] == 1 and "frontier" not in payload
        payload["frontier"] = {
            name: [key + [cost] for key, cost in relation["rows"]]
            for name, relation in payload["relations"].items()
            if relation["kind"] == "costs"
        }
        path = tmp_path / "v1-with-frontier.ckpt.json"
        path.write_text(json.dumps(payload))

        resumed = make_db(SHORTEST_PATH).resume(str(path), method=method)
        assert resumed.status == "complete"
        full = make_db(SHORTEST_PATH).solve(method=method)
        assert snapshot(resumed.model) == snapshot(full.model)

    @pytest.mark.parametrize(
        "rows, complaint",
        [
            # a cost value outside the lattice (once restored as 'abc')
            ([[["a", "b"], "abc"]], "'abc' is not an element of lattice"),
            ([[["a", "b"], float("nan")]], "nan is not an element of lattice"),
            # a key of the wrong arity (once restored as a 4-ary s atom)
            ([[["a", "b", "c"], 1.0]], "not of arity 3"),
            ([[["a"], 1.0]], "not of arity 3"),
        ],
    )
    def test_restore_does_not_trust_the_file(self, rows, complaint, tmp_path):
        """A hand-edited checkpoint goes through the validated write
        and the arity check, and fails as a ``CheckpointError`` — not as
        a ``LatticeValueError`` from inside the resumed fixpoint, and
        not as a silently wrong seed."""
        db = make_db(SHORTEST_PATH)
        partial = db.solve(budget=Budget(max_iterations=1))
        payload = partial.checkpoint.to_dict()
        payload["relations"]["s"] = {"kind": "costs", "rows": rows}
        path = tmp_path / "tampered.ckpt.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=complaint):
            make_db(SHORTEST_PATH).resume(str(path))
        payload["relations"]["arc"] = {"kind": "tuples", "rows": [["a", "b"]]}
        with pytest.raises(CheckpointError, match="arc is a cost predicate now"):
            Checkpoint.from_dict(payload).restore(db.program)

    @pytest.mark.parametrize(
        "relation, complaint",
        [
            (5, "checkpoint relation s is not an object"),
            # a cost row without its cost
            ({"kind": "costs", "rows": [[["a", "b"]]]}, "row of s: .* is not"),
            # a key that is not a list
            ({"kind": "costs", "rows": [[7, 1.0]]}, "row of s: .* is not"),
            ({"kind": "costs", "rows": 7}, "row of s: 'int' object"),
        ],
    )
    def test_a_malformed_checkpoint_is_a_checkpoint_error(
        self, relation, complaint, tmp_path, capsys
    ):
        """A file of the wrong shape fails as a ``CheckpointError`` naming
        the predicate — not as an ``AttributeError``, ``ValueError`` or
        ``TypeError`` from inside the decoder — and ``--resume`` turns it
        into one ``error:`` line and exit 3."""
        from repro.cli import main

        db = make_db(SHORTEST_PATH)
        payload = db.solve(budget=Budget(max_iterations=1)).checkpoint.to_dict()
        payload["relations"]["s"] = relation
        path = tmp_path / "malformed.ckpt.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=complaint):
            make_db(SHORTEST_PATH).resume(str(path))

        program = str(EXAMPLES / "shortest_path.mad")
        assert main(["solve", program, "--resume", str(path)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: checkpoint ")

    def test_resume_on_diverging_program_continues_descent(self):
        db = make_db(DIVERGING)
        first = db.solve(budget=Budget(max_iterations=40))
        assert first.status == "partial"
        costs_before = dict(first.model.relation("s").costs)
        resumed = make_db(DIVERGING).solve(
            budget=Budget(max_iterations=40), resume=first.checkpoint
        )
        costs_after = dict(resumed.model.relation("s").costs)
        # reals_ge: ⊑-later means numerically smaller — strictly better
        # on the negative cycle, never worse anywhere.
        assert any(
            costs_after[k] < costs_before[k]
            for k in costs_before
            if k in costs_after
        )


class TestSupervisionTelemetry:
    def _trace_types(self, path) -> set:
        return {
            json.loads(line)["type"]
            for line in Path(path).read_text().splitlines()
        }

    def test_budget_events_validate_against_schema(self, tmp_path):
        from repro.obs import JsonlSink, Tracer, validate_jsonl

        out = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(str(out)))
        db = make_db(DIVERGING)
        result = db.solve(budget=Budget(timeout=0.5), tracer=tracer)
        tracer.close()
        assert result.status == "timeout"
        assert validate_jsonl(str(out)) == []
        types = self._trace_types(out)
        assert "budget_exceeded" in types
        assert "divergence_warning" in types
        assert "checkpoint" in types

    def test_cancelled_event_validates(self, tmp_path):
        from repro.obs import JsonlSink, Tracer, validate_jsonl

        out = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(str(out)))
        token = CancelToken()
        token.cancel("test")
        db = make_db(SHORTEST_PATH)
        db.solve(cancel=token, tracer=tracer)
        tracer.close()
        assert validate_jsonl(str(out)) == []
        assert "cancelled" in self._trace_types(out)


class TestSolveInterruptProtocol:
    def test_attach_keeps_first_partial(self):
        interrupt = SolveInterrupt("partial", "test")
        interrupt.attach("first")
        interrupt.attach("second")
        assert interrupt.partial == "first"

    def test_interrupt_never_escapes_solve(self):
        # Even an instantly-expiring deadline surfaces as a result, not
        # as an exception.
        db = make_db(SHORTEST_PATH)
        result = db.solve(budget=Budget(timeout=0.0))
        assert result.status in ("timeout", "complete")


class TestNaiveInterrupts:
    """Kleene iteration under interrupts, on party_invitations: a count
    threshold, not an extremum, so the naive rounds are the evaluator."""

    @staticmethod
    def party():
        from repro.programs import party_invitations
        from repro.workloads import random_party

        knows, requires = random_party(16, seed=1)
        return party_invitations.database(
            {"knows": knows, "requires": list(requires.items())}
        )

    @staticmethod
    def typed(model) -> dict:
        """Rows with their value types: ``1`` and ``1.0`` differ here."""
        return {
            name: sorted(map(repr, rel.rows()))
            for name, rel in model.relations.items()
            if len(rel)
        }

    def test_resume_from_every_round_boundary(self):
        full = self.party().solve(method="naive")
        rounds = full.total_iterations
        assert rounds >= 5
        for k in range(1, rounds + 1):
            partial = self.party().solve(
                method="naive", budget=Budget(max_iterations=k)
            )
            assert partial.status == "partial", k
            resumed = self.party().resume(partial.checkpoint, method="naive")
            assert resumed.status == "complete"
            assert self.typed(resumed.model) == self.typed(full.model), k

    def test_resume_from_every_mid_round_poll(self):
        from repro.testing.faults import Fault, FaultPlan, inject

        full = self.party().solve(method="naive")
        firings = 2 * (full.total_iterations + 1)  # two rules, every round
        cancelled = 0
        for at in range(1, firings):
            token = CancelToken()
            plan = FaultPlan(
                [Fault("rule_firing", action="cancel", at=at, token=token)]
            )
            with inject(plan):
                partial = self.party().solve(method="naive", cancel=token)
            if partial.status == "complete":
                continue
            assert partial.status == "cancelled"
            cancelled += 1
            resumed = self.party().resume(partial.checkpoint, method="naive")
            assert self.typed(resumed.model) == self.typed(full.model), at
        assert cancelled >= firings - 2

    def test_mid_round_cancel_names_its_round(self):
        """A cancel landing inside round 3 reports the rounds completed
        before it, in the interrupt and in the ``cancelled`` event, as
        the semi-naive and greedy rounds do."""
        from repro.engine.fixpoint import fixpoint
        from repro.obs import Tracer
        from repro.testing.faults import Fault, FaultPlan, inject

        db = self.party()
        tracer = Tracer()
        token = CancelToken()
        supervisor = Supervisor(cancel=token, tracer=tracer)
        # Rule firings 1-2 are round 1, 3-4 round 2, 5 opens round 3.
        plan = FaultPlan([Fault("rule_firing", action="cancel", at=5, token=token)])
        with inject(plan), pytest.raises(SolveInterrupt) as info:
            fixpoint(
                db.program,
                frozenset({"coming", "kc"}),
                db.edb(),
                write="replace",
                tracer=tracer,
                supervisor=supervisor,
            )
        interrupt = info.value
        assert interrupt.iteration == 2
        assert interrupt.partial.iterations == 2
        (event,) = [e for e in tracer.events if e["type"] == "cancelled"]
        assert event["iteration"] == 2
