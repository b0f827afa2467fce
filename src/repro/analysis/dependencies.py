"""Predicate dependency graph, SCC condensation, program components.

A *program component* is "the subset of rules for a set of mutually
recursive predicates" (Definition 2.2).  Within a component, its head
predicates form the CDB and everything else it reads forms the LDB
(Section 2.2).  The iterated minimal-model construction (Section 6.3)
processes components bottom-up in topological order.

Dependency edges are labelled with how the body predicate is used —
positively, under negation, or inside an aggregate subgoal — so that the
stratification checks (aggregate-stratified / stratified-with-negation,
Section 5.1) fall out of the same graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.datalog.atoms import AggregateSubgoal, AtomSubgoal
from repro.datalog.program import Program
from repro.datalog.rules import Rule


class EdgeKind(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    AGGREGATE = "aggregate"


@dataclass(frozen=True)
class DependencyEdge:
    """``head_predicate`` depends on ``body_predicate`` via ``kind``."""

    head: str
    body: str
    kind: EdgeKind


def dependency_edges(program: Program) -> List[DependencyEdge]:
    """All dependency edges of the program (with duplicates removed)."""
    seen: Set[DependencyEdge] = set()
    out: List[DependencyEdge] = []
    for rule in program.rules:
        head = rule.head.predicate
        for sg in rule.body:
            if isinstance(sg, AtomSubgoal):
                kind = EdgeKind.NEGATIVE if sg.negated else EdgeKind.POSITIVE
                edge = DependencyEdge(head, sg.atom.predicate, kind)
                if edge not in seen:
                    seen.add(edge)
                    out.append(edge)
            elif isinstance(sg, AggregateSubgoal):
                for conjunct in sg.conjuncts:
                    edge = DependencyEdge(
                        head, conjunct.predicate, EdgeKind.AGGREGATE
                    )
                    if edge not in seen:
                        seen.add(edge)
                        out.append(edge)
    return out


def _tarjan_scc(
    vertices: Sequence[str], successors: Dict[str, Set[str]]
) -> List[List[str]]:
    """Tarjan's algorithm, iterative.  Returns SCCs in reverse topological
    order (callees before callers)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = 0

    for root in vertices:
        if root in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = []
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work.append((root, iter(successors.get(root, ()))))
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                component: List[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                sccs.append(sorted(component))
    return sccs


@dataclass
class Component:
    """One strongly connected component of the predicate dependency graph.

    ``cdb`` is the set of mutually recursive predicates defined here;
    ``rules`` are the rules whose heads are in ``cdb``; ``ldb`` is every
    predicate those rules read that is *not* in ``cdb`` (defined by lower
    components or by the EDB).
    """

    cdb: FrozenSet[str]
    rules: Tuple[Rule, ...]
    ldb: FrozenSet[str]
    #: Edge kinds that occur *within* the component (recursion structure).
    internal_kinds: FrozenSet[EdgeKind] = field(default_factory=frozenset)

    @property
    def recursive_through_aggregation(self) -> bool:
        """True iff some aggregate subgoal aggregates a CDB predicate."""
        return EdgeKind.AGGREGATE in self.internal_kinds

    @property
    def recursive_through_negation(self) -> bool:
        return EdgeKind.NEGATIVE in self.internal_kinds

    def __str__(self) -> str:
        flags = []
        if self.recursive_through_aggregation:
            flags.append("agg-recursive")
        if self.recursive_through_negation:
            flags.append("neg-recursive")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"component({', '.join(sorted(self.cdb))}){suffix}"


def condense(program: Program) -> List[Component]:
    """Split the program into components in bottom-up topological order.

    Only IDB predicates appear as component CDBs; EDB predicates are pure
    LDB everywhere.
    """
    edges = dependency_edges(program)
    vertices = sorted(program.idb_predicates)
    successors: Dict[str, Set[str]] = {v: set() for v in vertices}
    for edge in edges:
        # Only IDB→IDB edges shape the SCCs; EDB bodies are leaves.
        if edge.head in successors and edge.body in successors:
            successors[edge.head].add(edge.body)

    sccs = _tarjan_scc(vertices, successors)  # reverse topological order

    components: List[Component] = []
    for scc in sccs:
        cdb = frozenset(scc)
        rules = tuple(r for r in program.rules if r.head.predicate in cdb)
        used: Set[str] = set()
        for rule in rules:
            used.update(rule.body_predicates())
        internal = frozenset(
            edge.kind for edge in edges if edge.head in cdb and edge.body in cdb
        )
        components.append(
            Component(
                cdb=cdb,
                rules=rules,
                ldb=frozenset(used) - cdb,
                internal_kinds=internal,
            )
        )
    return components
