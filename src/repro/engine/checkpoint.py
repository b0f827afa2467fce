"""Resumable solve checkpoints: the serialized sound-so-far interpretation.

A :class:`Checkpoint` captures the sound-so-far state of an interrupted
solve — for monotonic programs every intermediate ``T_P`` iterate is a
⊑-lower bound of the minimal model (Theorem 3.1 / Lemma 4.1), so the
snapshot is both a meaningful partial answer *and* a valid restart
point: the solver re-seeds each component's fixpoint from the
checkpointed atoms and iterates the inflationary ``J ← J ⊔ T_P(J)``
from there, which converges to the same least fixpoint an uninterrupted
run reaches.

The on-disk format is JSON (``Checkpoint.save`` / ``Checkpoint.load``):

* ``format`` — :data:`CHECKPOINT_FORMAT`;
* ``program`` — a fingerprint of the rules + declarations the snapshot
  was taken against; resuming against a different program is refused;
* ``status`` / ``reason`` / ``component`` / ``iterations`` — why and
  where the producing solve stopped;
* ``relations`` — per predicate, the tuples (ordinary) or
  ``key ↦ cost`` rows (cost predicates, core only).

No pending delta is stored: resume re-derives it with one full ``T_P``
round over the restored atoms.  Files written when the format still
carried a ``frontier`` field load unchanged; the field is ignored.

Cost values are plain Python scalars most of the time; ``frozenset`` and
``tuple`` values (set lattices, product lattices) are round-tripped
through a small tagged encoding.  Anything else is refused loudly at
checkpoint time rather than mis-restored at resume time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.datalog.errors import ProgramError, ReproError
from repro.datalog.program import Program
from repro.engine.interpretation import Interpretation
from repro.lattices.base import LatticeValueError

#: Bump when the serialized layout changes incompatibly.
CHECKPOINT_FORMAT = 1


class CheckpointError(ReproError):
    """A checkpoint could not be produced, parsed, or safely restored."""


# -- value codec ----------------------------------------------------------------
#
# JSON can carry numbers, strings, bools and None natively (the stdlib
# encoder also round-trips ±inf/nan).  Tuples and frozensets — legal
# constants and lattice values in this engine — are wrapped in
# single-key tag objects; plain dicts never appear as values, so the
# tags cannot collide with data.

_TUPLE_TAG = "__tuple__"
_FROZENSET_TAG = "__frozenset__"


def _encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_value(v) for v in value]}
    if isinstance(value, frozenset):
        return {
            _FROZENSET_TAG: sorted(
                (_encode_value(v) for v in value), key=repr
            )
        }
    raise CheckpointError(
        f"cannot checkpoint value {value!r} of type "
        f"{type(value).__name__}; supported: numbers, strings, bools, "
        f"None, tuples, frozensets"
    )


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if _TUPLE_TAG in value:
            return tuple(_decode_value(v) for v in value[_TUPLE_TAG])
        if _FROZENSET_TAG in value:
            return frozenset(
                _decode_value(v) for v in value[_FROZENSET_TAG]
            )
        raise CheckpointError(f"unknown tagged value {value!r}")
    if isinstance(value, list):
        raise CheckpointError(f"bare list {value!r} in checkpoint")
    return value


def _decode_row(row: Any, costs: bool) -> Tuple[Any, ...]:
    """One encoded row: ``[key, cost]`` for a cost relation, else a key
    (a list of encoded values)."""
    key, *cost = row if costs else (row,)
    if not isinstance(key, list) or len(cost) != costs:
        raise ValueError(f"{row!r} is not {'[key, cost]' if costs else 'a list'}")
    return tuple(map(_decode_value, key + cost))


def program_fingerprint(program: Program) -> str:
    """A stable digest of the program's rules and declarations.

    Facts are part of the rule set when they concern rule-defined
    predicates (see ``Database.program``), so resuming after the logic
    changed is refused while resuming with the same program text — the
    supported workflow — matches.
    """
    parts: List[str] = sorted(str(rule) for rule in program.rules)
    for name in sorted(program.declarations):
        decl = program.declarations[name]
        lattice = decl.lattice.name if decl.lattice is not None else "-"
        parts.append(f"@{name}/{decl.arity}:{lattice}:{decl.has_default}")
    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass
class Checkpoint:
    """A resumable snapshot of an interrupted (or partial) solve."""

    fingerprint: str
    status: str
    reason: str
    #: Bottom-up index of the component the solve stopped inside.
    component: int
    #: Global fixpoint rounds completed before the interrupt.
    iterations: int
    #: predicate → {"kind": "tuples"|"costs", "rows": [...]}.
    relations: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    # -- construction ------------------------------------------------------------

    @classmethod
    def capture(
        cls,
        program: Program,
        state: Interpretation,
        *,
        status: str,
        reason: str,
        component: int,
        iterations: int,
    ) -> "Checkpoint":
        """Serialize ``state`` (the joined interpretation so far)."""
        relations: Dict[str, Dict[str, Any]] = {}
        for name, rel in state.relations.items():
            if not len(rel):
                continue
            if rel.is_cost:
                rows = [
                    [[_encode_value(k) for k in key], _encode_value(value)]
                    for key, value in sorted(rel.costs.items(), key=repr)
                ]
                relations[name] = {"kind": "costs", "rows": rows}
            else:
                rows = [
                    [_encode_value(k) for k in key]
                    for key in sorted(rel.tuples, key=repr)
                ]
                relations[name] = {"kind": "tuples", "rows": rows}
        return cls(
            fingerprint=program_fingerprint(program),
            status=status,
            reason=reason,
            component=component,
            iterations=iterations,
            relations=relations,
        )

    # -- restore -----------------------------------------------------------------

    def restore(self, program: Program) -> Interpretation:
        """The checkpointed atoms as an interpretation over ``program``.

        Refuses a fingerprint mismatch (the rules or declarations
        changed since the snapshot) and unknown predicates, so a stale
        checkpoint fails loudly instead of seeding a wrong model.
        """
        expected = program_fingerprint(program)
        if self.fingerprint != expected:
            raise CheckpointError(
                f"checkpoint was taken against a different program "
                f"(fingerprint {self.fingerprint}, current {expected}); "
                f"re-solve from scratch"
            )
        state = Interpretation(program.declarations)
        kinds = ("ordinary", "a cost predicate")
        for name, payload in self.relations.items():
            try:
                rel = state.relation(name)
            except ProgramError as exc:
                raise CheckpointError(str(exc)) from exc
            # The file is input, not state: its shape is checked here and
            # its rows take the validated bulk write, never a bare
            # container write.
            if not isinstance(payload, dict):
                raise CheckpointError(f"checkpoint relation {name} is not an object")
            costs = payload.get("kind") == "costs"
            if costs != rel.is_cost:
                raise CheckpointError(
                    f"{name} is {kinds[rel.is_cost]} now but was "
                    f"{kinds[costs]} in the checkpoint"
                )
            try:
                rows = [_decode_row(row, costs) for row in payload.get("rows", ())]
            except (TypeError, ValueError) as exc:
                raise CheckpointError(f"checkpoint row of {name}: {exc}") from exc
            if set(map(len, rows)) - {rel.decl.arity}:
                raise CheckpointError(
                    f"checkpoint holds a row of {name} that is not of "
                    f"arity {rel.decl.arity}"
                )
            try:
                rel.join_rows(rows)
            except LatticeValueError as exc:
                raise CheckpointError(f"checkpoint row of {name}: {exc}") from exc
        return state

    # -- (de)serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": CHECKPOINT_FORMAT,
            "program": self.fingerprint,
            "status": self.status,
            "reason": self.reason,
            "component": self.component,
            "iterations": self.iterations,
            "relations": self.relations,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Checkpoint":
        if not isinstance(payload, dict):
            raise CheckpointError("checkpoint is not a JSON object")
        version = payload.get("format")
        if version != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"checkpoint format {version!r} not supported "
                f"(expected {CHECKPOINT_FORMAT})"
            )
        try:
            return cls(
                fingerprint=str(payload["program"]),
                status=str(payload["status"]),
                reason=str(payload.get("reason", "")),
                component=int(payload["component"]),
                iterations=int(payload.get("iterations", 0)),
                relations=dict(payload.get("relations", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint: {exc}"
            ) from exc

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"{path} is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)

    @property
    def total_atoms(self) -> int:
        return sum(
            len(payload.get("rows", ()))
            for payload in self.relations.values()
        )
