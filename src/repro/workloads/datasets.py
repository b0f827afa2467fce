"""Rule text for dataset-backed workloads.

The bulk data plane (:mod:`repro.data.loader`, docs/STORAGE.md) exists
for workloads whose facts arrive as *files*, not Python literals; the
program here is the one the checked-in road-network sample
(``examples/data/roads.csv``) and the loader tests solve.
"""

#: Rule text for k-source shortest paths over a road network — the
#: paper's Example 2.6 idiom with the seed rule filtered through a
#: ``source/1`` query relation, so the solve cost scales with the number
#: of query sources instead of all pairs.
ROAD_NETWORK_PROGRAM = """
    @pred source/1.
    @cost arc/3  : reals_ge.
    @cost step/4 : reals_ge.
    @cost d/3    : reals_ge.
    @constraint arc(direct, Z, C).
    step(X, direct, Y, C) <- source(X), arc(X, Y, C).
    step(X, Z, Y, C) <- d(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
    d(X, Y, C) <- C =r min{D : step(X, Z, Y, D)}.
"""
