"""Seeded input generators and engine-independent oracles.

Everything the engine is given by the benchmark is made here from a
``random.Random`` (same seed, same inputs): program text, fact rows and
CSV files.  The oracles are plain Python over the generated data and
share no code with ``repro``, so a wrong model is caught whatever the
engine does internally.

Generators are shaped so that the *amount* of work barely depends on the
seed (fixed degrees, fixed layer counts, fixed row counts): the seed
changes which rows exist and what they cost, not how many there are.  A
free-form random digraph moved ``solve_s`` by 25% between seeds, which
would drown every bound in BENCHMARK.json.
"""

from __future__ import annotations

import heapq
import random
import re
from typing import Dict, Iterable, List, Sequence, Set, Tuple

Arc = Tuple[int, int, float]

# -- program text ----------------------------------------------------------------
# The paper's four recursive-aggregation programs (Examples 2.6/3.1, 2.7,
# 4.3, 4.4) and the k-source road-network variant of Example 2.6.

SHORTEST_PATH = """
@cost arc/3  : reals_ge.
@cost path/4 : reals_ge.
@cost s/3    : reals_ge.
@constraint arc(direct, Z, C).
path(X, direct, Y, C) <- arc(X, Y, C).
path(X, Z, Y, C) <- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
s(X, Y, C) <- C =r min{D : path(X, Z, Y, D)}.
"""

ROAD_NETWORK = """
@pred source/1.
@cost arc/3  : reals_ge.
@cost step/4 : reals_ge.
@cost d/3    : reals_ge.
@constraint arc(direct, Z, C).
step(X, direct, Y, C) <- source(X), arc(X, Y, C).
step(X, Z, Y, C) <- d(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
d(X, Y, C) <- C =r min{D : step(X, Z, Y, D)}.
"""

COMPANY_CONTROL = """
@cost s/3  : nonneg_reals_le.
@cost cv/4 : nonneg_reals_le.
@cost m/3  : nonneg_reals_le.
cv(X, X, Y, N) <- s(X, Y, N).
cv(X, Z, Y, N) <- c(X, Z), s(Z, Y, N).
m(X, Y, N) <- N =r sum{M : cv(X, Z, Y, M)}.
c(X, Y) <- m(X, Y, N), N > 0.5.
"""

PARTY = """
@pred requires/2.
@pred knows/2.
@pred coming/1.
@pred kc/2.
coming(X) <- requires(X, K), N = count{kc(X, Y)}, N >= K.
kc(X, Y) <- knows(X, Y), coming(Y).
"""

CIRCUIT = """
@pred gate/2.
@pred connect/2.
@cost input/2 : bool_le.
@default t/2 : bool_le.
@constraint gate(G, or), gate(G, and).
@constraint input(W, C), gate(W, T).
t(W, C) <- input(W, C).
t(G, C) <- gate(G, or), C = or{D : connect(G, W), t(W, D)}.
t(G, C) <- gate(G, and), C = and_le{D : connect(G, W), t(W, D)}.
"""

ARC_ONLY = "@cost arc/3 : reals_ge.\n"


def fact_text(predicate: str, rows: Iterable[Sequence]) -> str:
    """Ground facts as rule text, one per line."""
    return "".join(
        f"{predicate}({', '.join(str(v) for v in row)}).\n" for row in rows
    )


# -- graphs -------------------------------------------------------------------------


def regular_digraph(
    rng: random.Random, n: int, degree: int = 3, max_weight: int = 2
) -> List[Arc]:
    """A random strongly connected digraph, every in- and out-degree
    exactly ``degree``, integer weights in ``1..max_weight``.

    The union of one random Hamiltonian cycle and ``degree - 1`` random
    permutations.  Fixed degrees pin the model size of Example 3.1 at
    ``n*n + n*n*degree`` atoms for every seed; weights of 1 or 2 still
    make the fixpoint revise costs, but keep the number of rule firings
    within 4% between seeds (11% with weights up to 4).
    """
    order = list(range(n))
    rng.shuffle(order)
    successor = {order[i]: order[(i + 1) % n] for i in range(n)}
    taken = set(successor.items())
    arcs = [(u, v, float(rng.randint(1, max_weight))) for u, v in successor.items()]
    for _ in range(degree - 1):
        while True:
            perm = list(range(n))
            rng.shuffle(perm)
            if all(perm[u] != u and (u, perm[u]) not in taken for u in range(n)):
                break
        for u in range(n):
            taken.add((u, perm[u]))
            arcs.append((u, perm[u], float(rng.randint(1, max_weight))))
    rng.shuffle(arcs)
    return arcs


def grid_roads(
    rng: random.Random, side: int, highway_share: float = 0.02
) -> List[Arc]:
    """A ``side x side`` road grid: both directions of every street with
    independent lengths in ``[1, 10)``, plus ``highway_share * side^2``
    long shortcuts between distinct random junction pairs."""
    arcs: Dict[Tuple[int, int], float] = {}

    def length() -> float:
        return round(rng.uniform(1.0, 9.9), 1)

    for row in range(side):
        for col in range(side):
            node = row * side + col
            if col + 1 < side:
                arcs[(node, node + 1)] = length()
                arcs[(node + 1, node)] = length()
            if row + 1 < side:
                arcs[(node, node + side)] = length()
                arcs[(node + side, node)] = length()
    total = side * side
    highways = int(total * highway_share)
    while highways:
        u, v = rng.randrange(total), rng.randrange(total)
        if u != v and (u, v) not in arcs:
            arcs[(u, v)] = round(rng.uniform(5.0, 50.0), 1)
            highways -= 1
    return [(u, v, w) for (u, v), w in arcs.items()]


def straggler_graph(
    rng: random.Random, hubs: int, depth: int, fan: int = 12
) -> List[Arc]:
    """One deep unit-weight chain (the slow-converging straggler) beside
    ``hubs`` one-hop stars of ``fan`` leaves (the bulk of the model).
    Only the star weights depend on the seed, so the shard geometry —
    which decides the sharded solve's critical path — does not."""
    arcs: List[Arc] = [(i, i + 1, 1.0) for i in range(depth)]
    base = depth + 1
    for j in range(hubs):
        hub = base + j * (fan + 1)
        for k in range(fan):
            arcs.append((hub, hub + 1 + k, float(rng.randint(1, 9))))
    return arcs


def write_arc_csv(path: str, arcs: Iterable[Arc]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for u, v, w in arcs:
            handle.write(f"{u},{v},{w}\n")


def arc_checksum(rows: Iterable[Sequence]) -> int:
    """Order-independent checksum of ``(u, v, cost)`` rows."""
    total = 0
    for u, v, w in rows:
        total += (u * 1_000_003 + v * 10_007 + int(round(w * 10))) % 2_147_483_647
    return total


def shortest_distances(
    arcs: Iterable[Arc], sources: Iterable[int] | None = None
) -> Dict[Tuple[int, int], float]:
    """Dijkstra from every source (default: every node with an outgoing
    arc).  Distances are over *non-empty* paths, as in the paper's ``s``:
    ``(x, x)`` is the shortest cycle through ``x``, not 0."""
    adjacency: Dict[int, List[Tuple[int, float]]] = {}
    for u, v, w in arcs:
        adjacency.setdefault(u, []).append((v, w))
    out: Dict[Tuple[int, int], float] = {}
    for source in adjacency if sources is None else sources:
        dist: Dict[int, float] = {}
        heap: List[Tuple[float, int]] = []
        for v, w in adjacency.get(source, ()):
            if w < dist.get(v, float("inf")):
                dist[v] = w
                heapq.heappush(heap, (w, v))
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adjacency.get(u, ()):
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        for target, d in dist.items():
            out[(source, target)] = d
    return out


# -- party invitations (Example 4.3) ---------------------------------------------


def layered_party(
    rng: random.Random,
    n: int,
    layers: int = 20,
    friends: int = 4,
    absent_share: float = 0.1,
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """``(knows, requires)`` for guests ``0..n-1`` in a cascade of fixed
    depth: layer 0 requires nobody, a guest of layer ``k`` requires 1-3
    acquaintances out of the ``friends`` it knows in layer ``k - 1``, so
    it accepts in round ``k`` exactly.  ``absent_share`` of the guests
    require one more than they know and never come.  A free-form random
    party has a cascade depth — and a naive-evaluation cost — that
    swings with the seed; here the seed picks who knows whom."""
    guests = list(range(n))
    rng.shuffle(guests)
    absent = guests[: int(n * absent_share)]
    present = guests[len(absent):]
    per_layer = len(present) // layers
    knows: Set[Tuple[int, int]] = set()
    requires: List[Tuple[int, int]] = []
    previous: List[int] = []
    for k in range(layers):
        members = present[k * per_layer:] if k == layers - 1 else present[
            k * per_layer: (k + 1) * per_layer
        ]
        for guest in members:
            if previous:
                for friend in rng.sample(previous, min(friends, len(previous))):
                    knows.add((guest, friend))
                requires.append((guest, rng.randint(1, min(3, len(previous)))))
            else:
                requires.append((guest, 0))
        previous = members
    for guest in absent:
        known = rng.sample(present, friends)
        for friend in known:
            knows.add((guest, friend))
        requires.append((guest, friends + 1))
    return sorted(knows), sorted(requires)


def party_oracle(
    knows: Iterable[Tuple[int, int]], requires: Iterable[Tuple[int, int]]
) -> Set[int]:
    """Who comes: least fixpoint of the threshold cascade."""
    known: Dict[int, Set[int]] = {}
    for a, b in knows:
        known.setdefault(a, set()).add(b)
    coming: Set[int] = set()
    changed = True
    while changed:
        changed = False
        for guest, k in requires:
            if guest not in coming and len(known.get(guest, set()) & coming) >= k:
                coming.add(guest)
                changed = True
    return coming


# -- company control (Example 2.7) and circuits (Example 4.4), toy sized --------


def toy_ownership(rng: random.Random, n: int = 5) -> List[Tuple[int, int, float]]:
    """Shares ``(owner, company, fraction)``: a planted control chain
    ``0 -> 1 -> ... `` (0.6 each) plus small random holdings."""
    shares: Dict[Tuple[int, int], float] = {(i, i + 1): 0.6 for i in range(n - 1)}
    for company in range(n):
        owner = rng.choice([o for o in range(n) if o != company])
        if (owner, company) not in shares:
            shares[(owner, company)] = round(rng.uniform(0.05, 0.3), 2)
    return [(o, c, f) for (o, c), f in sorted(shares.items())]


def control_oracle(shares: Iterable[Tuple[int, int, float]]) -> Set[Tuple[int, int]]:
    """``controls(x, y)`` iff x plus the companies x controls hold more
    than half of y; iterated to the least fixpoint."""
    held: Dict[int, Dict[int, float]] = {}
    companies: Set[int] = set()
    for owner, company, fraction in shares:
        held.setdefault(owner, {})[company] = fraction
        companies.update((owner, company))
    controls: Set[Tuple[int, int]] = set()
    changed = True
    while changed:
        changed = False
        for x in companies:
            holders = {x} | {z for (cx, z) in controls if cx == x}
            totals: Dict[int, float] = {}
            for holder in holders:
                for company, fraction in held.get(holder, {}).items():
                    totals[company] = totals.get(company, 0.0) + fraction
            for company, total in totals.items():
                if total > 0.5 and (x, company) not in controls:
                    controls.add((x, company))
                    changed = True
    return controls


Circuit = Tuple[List[Tuple[str, str]], List[Tuple[str, str]], List[Tuple[str, int]]]


def toy_circuit(rng: random.Random, gates: int = 4, inputs: int = 3) -> Circuit:
    """``(gate rows, connect rows, input rows)`` of an acyclic AND/OR
    circuit wired to earlier wires."""
    wires = [f"w{i}" for i in range(inputs)]
    input_rows = [(w, rng.randint(0, 1)) for w in wires]
    gate_rows, connect_rows = [], []
    for i in range(gates):
        gate = f"g{i}"
        gate_rows.append((gate, rng.choice(["and", "or"])))
        for source in rng.sample(wires, min(2, len(wires))):
            connect_rows.append((gate, source))
        wires.append(gate)
    return gate_rows, sorted(connect_rows), input_rows


def circuit_oracle(circuit: Circuit) -> Dict[str, int]:
    """Least-fixpoint wire values, iterating from all-zero."""
    gate_rows, connect_rows, input_rows = circuit
    values = dict(input_rows)
    fan_in: Dict[str, List[str]] = {}
    for gate, wire in connect_rows:
        fan_in.setdefault(gate, []).append(wire)
    for gate, _ in gate_rows:
        values.setdefault(gate, 0)
    changed = True
    while changed:
        changed = False
        for gate, kind in gate_rows:
            sources = [values[w] for w in fan_in.get(gate, [])]
            new = int(all(sources)) if kind == "and" else int(any(sources))
            if values[gate] != new:
                values[gate] = new
                changed = True
    return values


# -- wide program ------------------------------------------------------------------


def rename_predicates(source: str, suffix: str) -> str:
    """Append ``suffix`` to every predicate name of ``source`` (names
    directly followed by ``(`` or ``/``; aggregates use ``{``)."""
    return re.sub(r"\b([a-z]\w*)(?=[(/])", lambda m: m.group(1) + suffix, source)


def wide_program(
    rng: random.Random, copies: int
) -> Tuple[str, Dict[str, object]]:
    """``copies`` renamed copies of each of the four paper programs over
    toy EDBs, as one program text with inline facts.

    Returns ``(text, expected)`` where ``expected`` maps each query
    predicate to its oracle answer: a ``{key: cost}`` dict for cost
    predicates, a set of key tuples otherwise.
    """
    blocks: List[str] = []
    expected: Dict[str, object] = {}
    for k in range(copies):
        arcs = regular_digraph(rng, 5, degree=2)
        sfx = f"_sp{k}"
        blocks.append(rename_predicates(SHORTEST_PATH, sfx) + fact_text(f"arc{sfx}", arcs))
        expected[f"s{sfx}"] = shortest_distances(arcs)

        shares = toy_ownership(rng)
        sfx = f"_cc{k}"
        blocks.append(rename_predicates(COMPANY_CONTROL, sfx) + fact_text(f"s{sfx}", shares))
        expected[f"c{sfx}"] = control_oracle(shares)

        knows, requires = layered_party(rng, 8, layers=3, friends=2, absent_share=0.25)
        sfx = f"_pa{k}"
        blocks.append(
            rename_predicates(PARTY, sfx)
            + fact_text(f"knows{sfx}", knows)
            + fact_text(f"requires{sfx}", requires)
        )
        expected[f"coming{sfx}"] = {(g,) for g in party_oracle(knows, requires)}

        circuit = toy_circuit(rng)
        sfx = f"_ci{k}"
        blocks.append(
            rename_predicates(CIRCUIT, sfx)
            + fact_text(f"gate{sfx}", circuit[0])
            + fact_text(f"connect{sfx}", circuit[1])
            + fact_text(f"input{sfx}", circuit[2])
        )
        # Wires at the default value 0 are implicit in a @default relation.
        expected[f"t{sfx}"] = {
            (w,): v for w, v in circuit_oracle(circuit).items() if v
        }
    rng.shuffle(blocks)
    return "".join(blocks), expected
