"""The Section 6.2 termination classifier."""

from repro.analysis import (
    ProgramFacts,
    TerminationVerdict,
    check_component_termination,
)
from repro.datalog.parser import parse_program
from repro.programs import (
    circuit,
    company_control,
    halfsum_limit,
    party_invitations,
    shortest_path,
    two_minimal_models,
)


def termination(program):
    return [
        check_component_termination(component, program)
        for component in ProgramFacts(program).components
    ]


def verdicts(paper_program):
    return [r.verdict for r in termination(paper_program.database().program)]


class TestPaperPrograms:
    def test_circuit_terminates(self):
        """Finite boolean lattice: the §6.2 finite-cost-domain condition."""
        assert all(v is TerminationVerdict.TERMINATES for v in verdicts(circuit))

    def test_party_terminates(self):
        """No cost predicates in the recursive component: plain Datalog
        over the active domain — and the component is monotonic."""
        assert all(
            v is TerminationVerdict.TERMINATES for v in verdicts(party_invitations)
        )

    def test_halfsum_unknown(self):
        """The paper's own beyond-ω example must not be classified as
        terminating."""
        assert TerminationVerdict.UNKNOWN in verdicts(halfsum_limit)

    def test_shortest_path_unknown(self):
        """Real-valued min chains are dense; the classifier abstains (the
        engine budget handles actual instances)."""
        assert TerminationVerdict.UNKNOWN in verdicts(shortest_path)

    def test_company_control_unknown(self):
        assert TerminationVerdict.UNKNOWN in verdicts(company_control)

    def test_two_minimal_models_unknown_despite_finite_space(self):
        """Finite Herbrand base is NOT enough: a non-monotonic component
        can oscillate forever, so the classifier must abstain."""
        assert all(
            v is TerminationVerdict.UNKNOWN for v in verdicts(two_minimal_models)
        )


class TestConstructedCases:
    def test_finite_chain_lattice_terminates(self):
        from repro.core.database import Database
        from repro.lattices import FiniteChain

        db = Database()
        db.register_lattice("level", FiniteChain(["low", "mid", "high"]))
        db.load(
            "@cost lvl/2 : level.\n"
            "lvl(X, L) <- src(X, L).\n"
        )
        reports = termination(db.program)
        assert all(r.verdict is TerminationVerdict.TERMINATES for r in reports)

    def test_powerset_lattice_terminates(self):
        """Reachable-set accumulation over a powerset lattice: finite."""
        from repro.aggregates import LatticeJoin
        from repro.core.database import Database
        from repro.lattices import PowersetUnion

        universe = PowersetUnion(["t1", "t2", "t3"], name="tags")
        db = Database()
        db.register_lattice("tags", universe)
        db.register_aggregate(LatticeJoin(universe, name="tagjoin"))
        db.load(
            "@cost taint/2 : tags.\n@cost src/2 : tags.\n@pred flow/2.\n"
            "taint(X, T) <- src(X, T).\n"
        )
        reports = termination(db.program)
        assert all(r.verdict is TerminationVerdict.TERMINATES for r in reports)

    def test_mixed_components(self):
        program = parse_program(
            "@cost a/2 : bool_le.\n@cost b/2 : nonneg_reals_le.\n"
            "a(X, C) <- e(X, C).\n"
            "b(X, C) <- C =r sum{D : b2(X, D)}.\n"
            "@cost b2/2 : nonneg_reals_le.\nb2(X, C) <- b(X, C)."
        )
        reports = {
            tuple(sorted(r.component.cdb)): r.verdict
            for r in termination(program)
        }
        assert reports[("a",)] is TerminationVerdict.TERMINATES
        assert reports[("b", "b2")] is TerminationVerdict.UNKNOWN
