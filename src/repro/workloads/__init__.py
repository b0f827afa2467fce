"""Deterministic synthetic workloads + engine-independent oracles."""

from repro.workloads.circuits import CircuitInstance, circuit_oracle, random_circuit
from repro.workloads.datasets import ROAD_NETWORK_PROGRAM
from repro.workloads.graphs import (
    bellman_ford_all_pairs,
    cycle_graph,
    dijkstra_all_pairs,
    random_dag,
    random_digraph,
    revision_chain,
    straggler_graph,
)
from repro.workloads.ownership import company_control_oracle, random_ownership
from repro.workloads.social import party_oracle, random_party

__all__ = [
    "ROAD_NETWORK_PROGRAM",
    "random_digraph",
    "random_dag",
    "revision_chain",
    "straggler_graph",
    "cycle_graph",
    "dijkstra_all_pairs",
    "bellman_ford_all_pairs",
    "random_ownership",
    "company_control_oracle",
    "random_party",
    "party_oracle",
    "CircuitInstance",
    "random_circuit",
    "circuit_oracle",
]
