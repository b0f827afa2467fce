"""Empirical merge-algebra verification for two-phase aggregates.

Sharded evaluation (docs/PARALLELISM.md) splits a group's multiset ``I``
across shards as ``I = I₁ ⊎ … ⊎ Iₖ``, folds each partition independently,
and combines partial states at the barrier.  That equals the monolithic
``F(I)`` exactly when the state algebra ``(S, merge, state_create())`` is
a commutative monoid that :meth:`~AggregateFunction.process` acts on
compatibly:

* **soundness**     ``convert(merge(fold(A), fold(B))) = F(A ⊎ B)``
* **commutativity** ``merge(s, t) ≡ merge(t, s)``
* **associativity** ``merge(merge(s, t), u) ≡ merge(s, merge(t, u))``
* **identity**      ``merge(s, state_create()) ≡ s ≡ merge(state_create(), s)``

These are checked *empirically* over multisets drawn from the domain
lattice's sample — the same methodology as
:mod:`repro.aggregates.monotonicity` for the declared monotonicity class.
Partial states are opaque, so two states are compared through
:meth:`~AggregateFunction.convert` under the range lattice's ulp-tolerant
:meth:`~repro.lattices.base.Lattice.close` (float addition is associative
only up to rounding; an ulp of noise must not fail ``sum``).

The shard-safety analyzer (:mod:`repro.analysis.sharding`) runs
:func:`verify_merge_algebra` per aggregate occurrence and records the
verdicts in its witness chain; the hypothesis suite in
``tests/test_merge_algebra.py`` stresses the same properties with
randomized multisets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.aggregates.base import AggregateFunction, EmptyAggregateError
from repro.lattices.base import Lattice
from repro.util.multiset import FrozenMultiset

#: The properties checked, in report order.
MERGE_PROPERTIES = ("soundness", "commutativity", "associativity", "identity")


@dataclass
class MergeAlgebraVerdict:
    """Result of empirically probing one merge-algebra property."""

    function_name: str
    property_checked: str  # one of MERGE_PROPERTIES
    cases_checked: int
    holds: bool
    counterexample: Optional[str] = None

    def __str__(self) -> str:
        status = "HOLDS" if self.holds else "FAILS"
        line = (
            f"{self.function_name}: merge {self.property_checked} {status} "
            f"({self.cases_checked} cases)"
        )
        if self.counterexample:
            line += f"  counterexample: {self.counterexample}"
        return line


def sample_multisets(
    lattice: Lattice,
    *,
    max_size: int = 3,
    rng: Optional[random.Random] = None,
    extra_random: int = 24,
) -> List[FrozenMultiset]:
    """Small multisets over the lattice's sample, systematic + randomized.

    Mirrors :func:`repro.aggregates.monotonicity.related_multiset_pairs`
    but without the ⊑-relatedness constraint — the merge algebra must hold
    for *arbitrary* partitions, not just ordered ones.
    """
    rng = rng or random.Random(92)  # deterministic: PODS '92
    provided = lattice.sample()
    if provided is None:
        raise ValueError(
            f"lattice {lattice.name} has no sample; cannot probe empirically"
        )
    elements = list(itertools.islice(provided, 8))
    small = elements[:4]

    multisets: List[FrozenMultiset] = []
    for size in range(0, max_size + 1):
        for combo in itertools.combinations_with_replacement(small, size):
            multisets.append(FrozenMultiset(combo))
    for _ in range(extra_random):
        picks = [rng.choice(elements) for _ in range(rng.randint(1, max_size))]
        multisets.append(FrozenMultiset(picks))
    return multisets


def multiset_union(a: FrozenMultiset, b: FrozenMultiset) -> FrozenMultiset:
    """The multiset (bag) union ``A ⊎ B`` — counts add."""
    counts: Dict[Any, int] = {}
    for value, count in a.items():
        counts[value] = counts.get(value, 0) + count
    for value, count in b.items():
        counts[value] = counts.get(value, 0) + count
    return FrozenMultiset.from_counts(counts)


def states_equivalent(function: AggregateFunction, s: Any, t: Any) -> bool:
    """Observational equivalence of two partial states.

    States are opaque (and may be order-dependent representations of the
    same value, e.g. float partial sums), so they are compared through
    :meth:`convert` under the range lattice's ulp-tolerant ``close``.
    Two states whose ``convert`` both raise
    :class:`~repro.aggregates.base.EmptyAggregateError` are equivalent
    (both represent the empty multiset).
    """
    try:
        vs = function.convert(s)
    except EmptyAggregateError:
        try:
            function.convert(t)
        except EmptyAggregateError:
            return True
        return False
    try:
        vt = function.convert(t)
    except EmptyAggregateError:
        return False
    return function.range_.close(vs, vt)


def _verdict(
    function: AggregateFunction,
    prop: str,
    cases: int,
    counterexample: Optional[str],
) -> MergeAlgebraVerdict:
    return MergeAlgebraVerdict(
        function_name=function.name,
        property_checked=prop,
        cases_checked=cases,
        holds=counterexample is None,
        counterexample=counterexample,
    )


def check_soundness(
    function: AggregateFunction, multisets: List[FrozenMultiset]
) -> MergeAlgebraVerdict:
    """``convert(merge(fold(A), fold(B))) = F(A ⊎ B)`` over sampled pairs."""
    cases = 0
    for a, b in itertools.product(multisets, repeat=2):
        union = multiset_union(a, b)
        if not union:
            continue  # F(∅) is empty_value territory, not the merge path
        cases += 1
        merged = function.merge(function.fold(a), function.fold(b))
        direct = function.apply_nonempty(union)
        sharded = function.convert(merged)
        if not function.range_.close(sharded, direct):
            return _verdict(
                function,
                "soundness",
                cases,
                f"fold({sorted(a, key=repr)}) ⊎ fold({sorted(b, key=repr)}) "
                f"merges to {sharded!r} but F(A ⊎ B) = {direct!r}",
            )
    return _verdict(function, "soundness", cases, None)


def check_commutativity(
    function: AggregateFunction, multisets: List[FrozenMultiset]
) -> MergeAlgebraVerdict:
    """``merge(s, t) ≡ merge(t, s)`` over sampled partial states."""
    states = [function.fold(m) for m in multisets]
    cases = 0
    for s, t in itertools.combinations(states, 2):
        cases += 1
        if not states_equivalent(
            function, function.merge(s, t), function.merge(t, s)
        ):
            return _verdict(
                function,
                "commutativity",
                cases,
                f"merge({s!r}, {t!r}) ≢ merge({t!r}, {s!r})",
            )
    return _verdict(function, "commutativity", cases, None)


def check_associativity(
    function: AggregateFunction, multisets: List[FrozenMultiset]
) -> MergeAlgebraVerdict:
    """``merge(merge(s, t), u) ≡ merge(s, merge(t, u))`` over sampled triples.

    Cubic in the sample, so the state pool is truncated to keep the whole
    verdict suite interactive (the hypothesis suite covers the long tail).
    """
    states = [function.fold(m) for m in multisets[:12]]
    cases = 0
    for s, t, u in itertools.product(states, repeat=3):
        cases += 1
        left = function.merge(function.merge(s, t), u)
        right = function.merge(s, function.merge(t, u))
        if not states_equivalent(function, left, right):
            return _verdict(
                function,
                "associativity",
                cases,
                f"states {s!r}, {t!r}, {u!r}: "
                f"(s·t)·u = {left!r} ≢ s·(t·u) = {right!r}",
            )
    return _verdict(function, "associativity", cases, None)


def check_identity(
    function: AggregateFunction, multisets: List[FrozenMultiset]
) -> MergeAlgebraVerdict:
    """``state_create()`` is a two-sided identity of ``merge``."""
    cases = 0
    for m in multisets:
        cases += 1
        s = function.fold(m)
        empty = function.state_create()
        if not states_equivalent(function, function.merge(s, empty), s):
            return _verdict(
                function, "identity", cases, f"merge({s!r}, ∅-state) ≢ {s!r}"
            )
        if not states_equivalent(function, function.merge(empty, s), s):
            return _verdict(
                function, "identity", cases, f"merge(∅-state, {s!r}) ≢ {s!r}"
            )
    return _verdict(function, "identity", cases, None)


#: Default-parameter verdicts, memoized per concrete function.  The
#: sweep is deterministic and the behavior of an aggregate is fully
#: determined by its class and lattice pair, but it probes ~10^4
#: fold/merge cases per function — expensive enough that an uncached
#: analyzer would dominate small solves (the shard-safety pass runs this
#: on every ``plan="sharded"`` solve, lint and ``analyze_program``).
_VERDICT_CACHE: Dict[
    Tuple[type, str, str, str], List[MergeAlgebraVerdict]
] = {}


def verify_merge_algebra(
    function: AggregateFunction,
    *,
    max_size: int = 3,
    rng: Optional[random.Random] = None,
) -> List[MergeAlgebraVerdict]:
    """Probe all four merge-algebra properties of one aggregate function.

    Returns one verdict per property in :data:`MERGE_PROPERTIES` order.
    Sharded evaluation is licensed only when *all four* hold — the
    shard-safety analyzer treats any failure as a BLOCKED witness.
    """
    cacheable = max_size == 3 and rng is None
    key = (
        type(function),
        function.name,
        function.domain.name,
        function.range_.name,
    )
    if cacheable and key in _VERDICT_CACHE:
        return list(_VERDICT_CACHE[key])
    multisets = sample_multisets(function.domain, max_size=max_size, rng=rng)
    verdicts = [
        check_soundness(function, multisets),
        check_commutativity(function, multisets),
        check_associativity(function, multisets),
        check_identity(function, multisets),
    ]
    if cacheable:
        _VERDICT_CACHE[key] = list(verdicts)
    return verdicts
