"""Generated programs for the property tests, and the helpers they share.

:func:`programs` *builds* admissible (Def. 4.5), conflict-free
(Def. 2.10) rule text over a small EDB, block by block: joins and
closures with constants, repeated variables and negation; joins deeper
than the kernel's 16-loop split; premappable min/max paths with negative
arcs but no negative cycle; recursion through ``count``, ``sum`` and a
``@default`` circuit; ``=`` and ``=r`` aggregates over lower blocks.

Value types.  Python-equal values of different types (``True``, ``1``,
``1.0``) share one slot in every hashed container, so which one a model
stores depends on its derivation order (the strict xfail in
``tests/test_generated_programs.py``).  Until the value domain is
decided (refuse mixed columns at the write, or keep one canonical
representative), no column drawn here holds two of them: a program's
keys take one of bool, int, float and string, each cost column one of
int and float.  :func:`random_program` is the unfiltered grammar.  Not
a test module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from hypothesis import strategies as st

from repro.core.builder import V, agg, agg_r, atom, not_, rule
from repro.core.database import Database
from repro.datalog.atoms import AtomSubgoal
from repro.datalog.program import PredicateDecl
from repro.programs import shortest_path
from repro.programs.catalog import PaperProgram
from repro.lattices import NONNEG_REALS_LE, REALS_GE


@dataclass
class Case:
    """Rule text, its EDB rows, and the features drawn.  ``conflicts``:
    rules may derive two costs for one key, which only the lattice join
    of a component's drivers accepts (every generated program passes
    ``check="strict"``)."""

    source: str
    facts: Dict[str, List[Tuple]]
    features: FrozenSet[str] = field(default_factory=frozenset)
    conflicts: bool = False

    def database(self) -> Database:
        return PaperProgram("generated", "", self.source).database(self.facts)


def case(source: str, conflicts: bool = False, **facts: List[Tuple]) -> Case:
    """A hand-written case: ``case(text, arc=[...])``."""
    return Case(source, facts, conflicts=conflicts)


def typed(row: Tuple) -> Tuple:
    """``row`` with each value as ``(type name, repr)``."""
    return tuple((type(v).__name__, repr(v)) for v in row)


def typed_rows(model, order=sorted) -> Dict[str, List[Tuple]]:
    """Every relation's typed rows in ``order`` (stored order with
    ``order=list``): equal only if two models agree bit for bit,
    ``True`` vs ``1`` and ``1.0`` vs ``1`` included."""
    return {name: order(map(typed, rel.rows())) for name, rel in model.relations.items()}


#: Key values by type; a program's key columns draw from one.
SORTS = {"int": [0, 1, 2, 3, 4], "str": list("abcde"), "bool": [False, True],
         "float": [0.5, 1.5, 2.5, 3.5, 4.5]}
LATTICE = {"min": "reals_ge", "max": "reals_le", "sum": "nonneg_reals_le"}
FORM = st.sampled_from(["=", "=r"])


class _Builder:
    """Rule lines, EDB rows and features, and the predicates so far.

    A block draws the same number of choices whatever it draws
    (:meth:`rows` draws all ``most`` rows, :meth:`choose` one fixed
    range): Hypothesis replays and mutates an example under a cap on
    its choice count, and discards a run that needs more."""

    def __init__(self, draw):
        self.draw = draw
        self.sort = draw(st.sampled_from(sorted(SORTS)))
        self.nodes = SORTS[self.sort][: draw(st.integers(3, 5))]
        self.node = st.integers(0, 4).map(lambda i: self.nodes[i % len(self.nodes)])
        self.lines: List[str] = []
        self.features = {f"{self.sort} keys"}
        self.binary = ["e"]  # predicates keyed by two key values
        self.weighted: List[Tuple[str, str]] = []  # (p/3, its aggregate)
        self.negated: set = set()  # predicates a rule with ``not`` defines
        self.serial = itertools.count(1)
        pairs = self.rows(st.tuples(self.node, self.node), 8)
        self.facts = {"v": [(x,) for x in self.nodes], "e": pairs}

    def name(self, stem: str) -> str:
        return f"{stem}{next(self.serial)}"

    def rows(self, row, most: int, least: int = 0) -> List[Tuple]:
        """Up to ``most`` distinct rows."""
        drawn = [self.draw(row) for _ in range(most)]
        return list(dict.fromkeys(drawn[: self.draw(st.integers(least, most))]))

    def choose(self, seq):
        return seq[self.draw(st.integers(0, 11)) % len(seq)]

    def pick(self, pool: List[str]) -> str:
        """A pool member, the newest half the time (so blocks stack)."""
        return self.choose([pool[-1], *pool])

    def per_node(self, value) -> Dict:
        return dict(zip(self.nodes, [self.draw(value) for _ in range(5)]))

    def arcs(self, shift: int) -> List[Tuple]:
        """Up to ten weighted arcs, one cost per pair, all int or all
        float (exact halves), in ``shift`` .. ``shift + 7``."""
        half = 0.5 if self.draw(st.booleans()) else 0
        self.features.add("float costs" if half else "int costs")
        weight = st.integers(0, 7).map(lambda w: w + shift + half)
        rows = self.rows(st.tuples(self.node, self.node, weight), 10, least=3)
        return list({(u, v): (u, v, w) for u, v, w in rows}.values())

    def source(self) -> str:
        """A binary predicate to aggregate over: most often one a rule
        with ``not`` defines, made here if there is none."""
        fresh, a, c = self.draw(st.integers(0, 3)), self.pick(self.binary), self.pick(self.binary)
        if fresh and not self.negated:
            p = self.name("n")
            self.lines.append(f"{p}(X, Y) <- {a}(X, Y), not {c}(Y, X).")
            self.binary.append(p)
            self.negated.add(p)
            self.features.add("negation")
        name = self.choose(self.binary + sorted(self.negated) * 3)
        if name in self.negated:
            self.features.add("negation below aggregation")
        return name


def _join(b: _Builder) -> None:
    """A join or a transitive closure, with a constant, a repeated
    variable and a negated lower predicate, each drawn."""
    p, a, c = b.name("j"), b.pick(b.binary), b.pick(b.binary)
    constant, anchor, looped, negated = b.draw(b.node), *[b.pick(b.binary) for _ in range(3)]
    body = [f"{a}(X, Z)", f"{c}(Z, Y)"]
    if b.draw(st.booleans()):
        b.lines.append(f"{p}(X, Y) <- {a}(X, Y).")
        body[0] = f"{p}(X, Z)"
        b.features.add("recursion")
    if b.draw(st.integers(0, 3)) and b.sort != "bool":  # rule text has no bool
        body.append(f"{anchor}({constant}, Y)")
        b.features.add("constant")
    if b.draw(st.booleans()):
        body.append(f"{looped}(Z, Z)")
        b.features.add("repeated variable")
    if b.draw(st.booleans()):
        body.append(f"not {negated}(Y, X)")
        b.negated.add(p)
        b.features.add("negation")
    b.lines.append(f"{p}(X, Y) <- {', '.join(body)}.")
    b.binary.append(p)


def _deep(b: _Builder) -> None:
    """A chain of more nested loops than one kernel function holds."""
    successor = dict(b.rows(st.tuples(b.node, b.node), 5))  # one walk per start
    b.facts.setdefault("nxt", list(successor.items()))
    p, n = b.name("deep"), b.draw(st.integers(17, 19))
    chain = ", ".join(f"nxt(X{k}, X{k + 1})" for k in range(n))
    b.lines.append(f"{p}(X0, X{n}) <- {chain}.")
    b.binary.append(p)
    b.features.add("deep join")


def _path(b: _Builder) -> None:
    """Example 2.6's shortest path, or longest path on a DAG: premappable
    min/max recursion.  Min arcs take node potentials (``w + p(u) - p(v)``,
    Johnson's trick): arcs that climb in rank may be negative, every cycle
    weighs what the non-negative original does."""
    extremum = b.draw(st.sampled_from(["min", "max"]))
    arc, path, s = b.name("arc"), b.name("path"), b.name("s")
    rank = b.nodes.index
    potential = {x: p + 3 * rank(x) for x, p in b.per_node(st.integers(0, 3)).items()}
    if extremum == "max":
        arcs = [(u, v, w) for u, v, w in b.arcs(-3) if rank(u) < rank(v)]
    else:
        arcs = [(u, v, w + potential[u] - potential[v]) for u, v, w in b.arcs(0)]
    if any(w < 0 for _, _, w in arcs):
        b.features.add("negative weight")
    b.facts[arc] = arcs
    lattice = LATTICE[extremum]
    b.lines += [
        f"@cost {arc}/3 : {lattice}.  @cost {path}/4 : {lattice}.  @cost {s}/3 : {lattice}.",
        f"@constraint {arc}(direct, Z, C).",
        f"{path}(X, direct, Y, C) <- {arc}(X, Y, C).",
        f"{path}(X, Z, Y, C) <- {s}(X, Z, C1), {arc}(Z, Y, C2), C = C1 + C2.",
        f"{s}(X, Y, C) <- C =r {extremum}{{D : {path}(X, Z, Y, D)}}.",
    ]
    b.weighted += [(arc, extremum), (s, extremum)]
    b.features |= {extremum, "=r", "@constraint"}


def _party(b: _Builder) -> None:
    """Example 4.3: recursion through an ``=`` count and a threshold."""
    req, coming, kc = b.name("req"), b.name("coming"), b.name("kc")
    knows = b.source()
    b.facts[req] = b.rows(st.tuples(b.node, st.integers(0, 3)), 5)
    b.lines += [
        f"{coming}(X) <- {req}(X, K), N = count{{{kc}(X, Y)}}, N >= K.",
        f"{kc}(X, Y) <- {knows}(X, Y), {coming}(Y).",
    ]
    b.binary.append(kc)
    b.features |= {"count", "=", "recursion"}


def _control(b: _Builder) -> None:
    """Company control: recursion through ``sum`` and a threshold.
    Shares are tenths, inexact in binary, so the order a sum is folded
    in reaches its float value."""
    sh, cv, m, c = b.name("sh"), b.name("cv"), b.name("m"), b.name("c")
    rows = b.rows(st.tuples(b.node, b.node, st.integers(1, 9).map(lambda k: k / 10)), 8)
    b.facts[sh] = list({(u, v): (u, v, w) for u, v, w in rows if u != v}.values())
    b.lines += [
        f"@cost {sh}/3 : nonneg_reals_le.  @cost {cv}/4 : nonneg_reals_le.",
        f"@cost {m}/3 : nonneg_reals_le.",
        f"{cv}(X, X, Y, N) <- {sh}(X, Y, N).",
        f"{cv}(X, Z, Y, N) <- {c}(X, Z), {sh}(Z, Y, N).",
        f"{m}(X, Y, N) <- N =r sum{{M : {cv}(X, Z, Y, M)}}.",
        f"{c}(X, Y) <- {m}(X, Y, N), N > 0.5.",
    ]
    b.binary.append(c)
    b.weighted.append((m, "sum"))
    b.features |= {"sum", "=r", "recursion", "float costs"}


def _circuit(b: _Builder) -> None:
    """Example 2.8's circuit: a ``@default`` predicate under ``or`` and
    ``and_le``, and the ``@constraint``\\ s that make it conflict-free."""
    gate, wire, given, t = b.name("gate"), b.name("wire"), b.name("in"), b.name("t")
    roles = b.per_node(st.sampled_from(["or", "and", "in", None]))
    values = b.per_node(st.booleans())
    b.facts[gate] = [(x, r) for x, r in roles.items() if r in ("or", "and")]
    b.facts[given] = [(x, values[x]) for x, r in roles.items() if r == "in"]
    b.facts[wire] = b.rows(st.tuples(b.node, b.node), 8)
    b.lines += [
        f"@cost {given}/2 : bool_le.  @default {t}/2 : bool_le.",
        f"@constraint {gate}(G, or), {gate}(G, and).",
        f"@constraint {given}(W, C), {gate}(W, T).",
        f"{t}(W, C) <- {given}(W, C).",
        f"{t}(G, C) <- {gate}(G, or), C = or{{D : {wire}(G, W), {t}(W, D)}}.",
        f"{t}(G, C) <- {gate}(G, and), C = and_le{{D : {wire}(G, W), {t}(W, D)}}.",
    ]
    b.features |= {"@default", "@constraint", "=", "recursion", "bool costs"}


def _aggregate(b: _Builder) -> None:
    """A count over a lower predicate and, if a cost relation is below,
    its extremum (or sum) in the same rule; each form drawn."""
    source, p, forms = b.source(), b.name("agg"), [b.draw(FORM), b.draw(FORM)]
    weighted, function = b.choose(b.weighted or [(None, "count")])
    body = f"v(X), N {forms[0]} count{{{source}(X, Y)}}"
    b.features |= {"count", forms[0]}
    if weighted is None:
        b.lines += [f"@cost {p}/2 : naturals_le.", f"{p}(X, N) <- {body}."]
        return
    form = "=r" if function == "sum" else forms[1]  # an empty sum is the int 0
    b.lines += [
        f"@cost {p}/2 : {LATTICE[function]}.",
        f"{p}(X, C) <- {body}, N >= 1, C {form} {function}{{D : {weighted}(X, Z, D)}}.",
    ]
    b.features |= {function, form}


BLOCKS = [_join, _join, _deep, _deep, _path, _path, _path, _party, _control, _circuit]


@st.composite
def programs(draw) -> Case:
    """An admissible, conflict-free program and its EDB: 2–4 blocks,
    then (drawn) aggregates over what they derived."""
    b = _Builder(draw)
    blocks = [draw(st.sampled_from(BLOCKS)) for _ in range(4)][: draw(st.integers(2, 4))]
    for block in blocks + [_aggregate] * draw(st.integers(0, 2)):
        block(b)
    return Case("\n".join(b.lines), b.facts, frozenset(b.features))


# -- hand-written templates ---------------------------------------------------

#: min over (R ∪ {±∞}, ≥), the paper's shortest-path idiom, read from
#: above; and over (R ∪ {±∞}, ≤), longest path, terminating on DAGs only.
MIN_PROGRAM = shortest_path.source + "reach(X, Y) <- s(X, Y, C), C < 1000000.\n"
MAX_PROGRAM = shortest_path.source.replace("reals_ge", "reals_le").replace("min{", "max{")

#: Two local columns dropped at once (the frontier shrinks 5 -> 3).
WIDE_PROGRAM = """
@cost arc/3  : reals_ge.
@cost path/5 : reals_ge.
@cost s/3    : reals_ge.
@constraint arc(direct, Z, C).
path(X, direct, direct, Y, C) <- arc(X, Y, C).
path(X, Z, Z, Y, C) <- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
s(X, Y, C) <- C =r min{D : path(X, U, V, Y, D)}.
"""

#: The catalog's recursive components change one predicate per round.
#: Here ``a``, ``b``, ``t``, ``near`` and ``sym`` change together, two
#: rules share each head, and ``sym`` has two seed sources of one shape
#: — so rule-major derivation order and cross-source dedup both matter.
BRAIDED = """
    @cost e/2 : reals_ge.
    @cost a/2 : reals_ge.
    @cost b/2 : reals_ge.
    @cost t/2 : reals_ge.
    a(X, C) <- e(X, C).
    b(X, C) <- e(X, C1), C = C1 + 1.
    a(Y, C) <- t(X, C1), f(X, Y), C = C1 + 1.
    b(Y, C) <- t(X, C1), g(X, Y), C = C1 + 2.
    t(X, C) <- a(X, C).
    t(X, C) <- b(X, C).
    near(X, Y) <- f(X, Y), t(X, C).
    near(X, Y) <- g(X, Y), t(Y, C).
    sym(X, Y) <- near(X, Y), near(Y, X).
    a(X, C) <- sym(X, Y), e(Y, C).
"""

#: ``BRAIDED`` without its cost-free predicates, so the three cost
#: predicates form one component the cost order applies to: a slice
#: spans predicates.  The max-oriented twin counts down.
BRAIDED_MIN = BRAIDED[: BRAIDED.index("    near(")]
BRAIDED_MAX = BRAIDED_MIN.replace("reals_ge", "reals_le").replace("+", "-")


# -- the unfiltered grammar ---------------------------------------------------

var_names = st.sampled_from(["X", "Y", "Z", "C", "D", "E", "N"])
pred_names = st.sampled_from(["p", "q", "r", "w"])
consts = st.one_of(st.integers(0, 5), st.sampled_from(["a", "b"]))
term = st.one_of(var_names.map(V), consts)


@st.composite
def random_atom(draw):
    name, arity = draw(pred_names), draw(st.integers(1, 3))
    return atom(name, *[draw(term) for _ in range(arity)])


@st.composite
def random_subgoal(draw):
    kind = draw(st.integers(0, 3))
    if kind < 2:
        inner = draw(random_atom())
        return AtomSubgoal(inner) if kind == 0 else not_(inner)
    if kind == 2:
        left, right = draw(term), draw(term)
        op = draw(st.sampled_from(["__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__"]))
        proxy = left if hasattr(left, "node") else V("Tmp")
        return getattr(proxy, op)(right)
    function = draw(st.sampled_from(["sum", "min", "count"]))
    result = V(draw(st.sampled_from(["Agg", "C", "N"])))
    inner = draw(random_atom())
    builder = agg if draw(st.booleans()) else agg_r
    if function == "count":
        return builder(result, "count", None, inner)
    ms = V("E")
    return builder(result, function, ms, atom(inner.predicate, *inner.args[:-1], ms))


@st.composite
def random_program(draw):
    """Arbitrary rules (unsafe, non-monotonic, ill-typed alike) and
    random cost declarations for some heads."""
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        head = draw(random_atom())
        body = [draw(random_subgoal()) for _ in range(draw(st.integers(0, 3)))]
        try:
            rules.append(rule(head, *body))
        except (TypeError, ValueError):
            continue
    if not rules:
        rules.append(rule(atom("p", V("X")), atom("q", V("X"))))
    arities = {}
    for r in rules:
        arities.setdefault(r.head.predicate, r.head.arity)
    # Randomly declare some predicates as cost predicates (consistently
    # with one observed arity; Program validation may still reject).
    declarations = []
    for name, arity in arities.items():
        if draw(st.booleans()):
            lattice = draw(st.sampled_from([REALS_GE, NONNEG_REALS_LE]))
            declarations.append(PredicateDecl(name, arity, lattice))
    return rules, declarations
