"""Synthetic weighted digraphs + independent shortest-path oracles.

The generators are deterministic in their seed.  The oracles (Dijkstra,
Bellman–Ford) are written directly against the arc list — they share no
code with the engine, so benchmark comparisons are meaningful.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional, Tuple

Arc = Tuple[int, int, float]


def random_digraph(
    n: int,
    *,
    arcs_per_node: float = 3.0,
    seed: int = 0,
    max_weight: float = 10.0,
    negative_fraction: float = 0.0,
    integer_weights: bool = True,
) -> List[Arc]:
    """A random weighted digraph on nodes ``0..n-1`` (cycles very likely).

    ``negative_fraction`` of the arcs get negative weights (only safe with
    DAGs unless you enjoy negative cycles — see :func:`random_dag`).
    """
    rng = random.Random(seed)
    m = int(n * arcs_per_node)
    seen = set()
    arcs: List[Arc] = []
    while len(arcs) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        w = rng.uniform(0, max_weight)
        if integer_weights:
            w = float(int(w)) + 1.0
        if rng.random() < negative_fraction:
            w = -w
        arcs.append((u, v, w))
    return arcs


def random_dag(
    n: int,
    *,
    arcs_per_node: float = 3.0,
    seed: int = 0,
    max_weight: float = 10.0,
    negative_fraction: float = 0.0,
    integer_weights: bool = True,
) -> List[Arc]:
    """A random weighted DAG (arcs go from lower to higher node ids)."""
    rng = random.Random(seed)
    m = int(n * arcs_per_node)
    seen = set()
    arcs: List[Arc] = []
    attempts = 0
    while len(arcs) < m and attempts < 50 * m:
        attempts += 1
        u = rng.randrange(n - 1)
        v = rng.randrange(u + 1, n)
        if (u, v) in seen:
            continue
        seen.add((u, v))
        w = rng.uniform(0, max_weight)
        if integer_weights:
            w = float(int(w)) + 1.0
        if rng.random() < negative_fraction:
            w = -w
        arcs.append((u, v, w))
    return arcs


def revision_chain(m: int, *, width: int = 18) -> List[Arc]:
    """A revision-cascade graph: the adversarial workload for the
    aggregate pushdown (docs/OPTIMIZATION.md).

    Three deterministic arc groups on nodes ``0..m+width``:

    * a unit-weight chain ``a_0 -> a_1 -> ... -> a_m`` (nodes ``0..m``);
    * "decoy" shortcuts ``a_0 -> a_i`` of weight ``10*i - 9``, so the
      first distance derived for ``(a_0, a_i)`` is the shortcut and the
      chain path (cost ``i``) *undercuts it at round i* — the solve is a
      long cascade of ~m revision waves, each touching few pairs;
    * a unit-weight blanket ``a_i -> b_k`` from every chain node to
      ``width`` sink nodes (``m+1 .. m+width``).

    Every revision wave re-derives paths into the blanket.  Without the
    pushdown each wave forces the grouped ``min`` aggregate to re-scan
    entire ``(source, sink)`` path groups (width ~m/2 conjuncts each);
    with the pushdown the wave is absorbed into the collapsed
    ``path__frontier`` relation in O(1) per pair.  The gap grows with
    ``m``, reaching ~6x at ``m = 260``.
    """
    arcs: List[Arc] = [(i, i + 1, 1.0) for i in range(m)]
    arcs += [(0, i, float(10 * i - 9)) for i in range(2, m + 1)]
    arcs += [
        (i, m + 1 + k, 1.0) for i in range(m + 1) for k in range(width)
    ]
    return arcs


def straggler_graph(
    hubs: int,
    *,
    depth: Optional[int] = None,
    fan: int = 12,
    seed: int = 0,
) -> List[Arc]:
    """A convergence-skewed graph: the showcase for ``plan="sharded"``
    (docs/PARALLELISM.md).

    Two disconnected arc groups:

    * one deep unit-weight chain ``a_0 -> ... -> a_depth`` (the
      *straggler*: its sources need up to ``depth`` fixpoint rounds);
    * ``hubs`` shallow stars ``h_j -> l_{j,k}`` (``fan`` leaves each,
      random weights): the bulk of the model, converging in one round.

    Under sequential naive evaluation every round re-applies ``T_P`` to
    the *whole* interpretation, so the long-converging chain drags the
    huge already-stable star blob through ~``depth`` rounds.  Sharded
    evaluation partitions by source vertex: star-only shards converge
    immediately and stop, and only the chain's shards keep iterating —
    total work drops from ``depth x (blob + chain)`` to roughly
    ``blob + depth x chain`` even on a single core.

    ``depth`` defaults to ``max(8, hubs // 10)`` so quick benchmark
    sizes stay shallow.  Node ids: chain ``0..depth``, hub ``j`` is
    ``depth + 1 + j * (fan + 1)``, its leaves follow it.
    """
    if depth is None:
        depth = max(8, hubs // 10)
    rng = random.Random(seed)
    arcs: List[Arc] = [(i, i + 1, 1.0) for i in range(depth)]
    base = depth + 1
    for j in range(hubs):
        hub = base + j * (fan + 1)
        for k in range(fan):
            arcs.append((hub, hub + 1 + k, float(rng.randrange(1, 10))))
    return arcs


def cycle_graph(n: int, *, weight: float = 1.0) -> List[Arc]:
    """A single directed n-cycle — the minimal stress test for semantics
    that go three-valued on cyclic data."""
    return [(i, (i + 1) % n, weight) for i in range(n)]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def dijkstra_all_pairs(arcs: List[Arc]) -> Dict[Tuple[int, int], float]:
    """All-pairs shortest distances via per-source Dijkstra.

    Requires non-negative weights.  Distances exclude the trivial empty
    path, matching the paper's ``s`` relation: ``s(x, x, c)`` is the
    shortest *non-empty* cycle through x, not 0.
    """
    adjacency: Dict[int, List[Tuple[int, float]]] = {}
    nodes = set()
    for u, v, w in arcs:
        if w < 0:
            raise ValueError("Dijkstra requires non-negative weights")
        adjacency.setdefault(u, []).append((v, w))
        nodes.add(u)
        nodes.add(v)

    out: Dict[Tuple[int, int], float] = {}
    for source in nodes:
        # Seed with the outgoing arcs so the empty path does not count.
        dist: Dict[int, float] = {}
        heap: List[Tuple[float, int]] = []
        for v, w in adjacency.get(source, []):
            if w < dist.get(v, float("inf")):
                dist[v] = w
                heapq.heappush(heap, (w, v))
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, float("inf")):
                continue
            for v, w in adjacency.get(u, []):
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        for target, d in dist.items():
            out[(source, target)] = d
    return out


def bellman_ford_all_pairs(arcs: List[Arc]) -> Dict[Tuple[int, int], float]:
    """All-pairs shortest distances allowing negative weights (no negative
    cycles — guaranteed when the input is a DAG).  Same non-empty-path
    convention as :func:`dijkstra_all_pairs`."""
    nodes = sorted({u for u, _, _ in arcs} | {v for _, v, _ in arcs})
    out: Dict[Tuple[int, int], float] = {}
    for source in nodes:
        dist: Dict[int, float] = {}
        for _ in range(len(nodes)):
            changed = False
            for u, v, w in arcs:
                base: Optional[float]
                if u == source:
                    base = 0.0
                else:
                    base = dist.get(u)
                if base is None:
                    continue
                nd = base + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    changed = True
            if not changed:
                break
        for target, d in dist.items():
            out[(source, target)] = d
    return out
