"""Boolean cost lattices (Figure 1 rows 5, 6, 8).

The paper makes boolean cost arguments explicit (``1`` for *true*, ``0``
for *false*; Section 2.3.1) and uses *both* orientations of the two-point
lattice:

* ``(B, ≤)`` with bottom 0 — the ``OR`` aggregate is monotonic here, and
  ``AND`` is pseudo-monotonic (Example 4.4's circuit program).
* ``(B, ≥)`` with bottom 1, the dual of ``(B, ≤)`` — the ``AND``
  aggregate is monotonic here (Figure 1 row 5): this is the "maximal
  circuit behaviour" orientation.

Values are the ints 0 and 1 (Python ``bool`` is accepted and normalised by
``validate`` since ``bool`` is an ``int`` subclass, but the canonical
carrier is {0, 1} to match the paper's notation).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.lattices.base import Lattice
from repro.lattices.combinators import DualLattice


def _is_boolean(value: Any) -> bool:
    return value in (0, 1)


class BooleanOr(Lattice):
    """``(B, ≤)``: 0 ⊑ 1.  The home of monotonic ``OR`` and the range of ``P``."""

    name = "bool_le"
    is_chain = True
    numeric_direction = 1

    def leq(self, a: Any, b: Any) -> bool:
        return int(a) <= int(b)

    def join(self, a: Any, b: Any) -> Any:
        return int(a) | int(b)

    def meet(self, a: Any, b: Any) -> Any:
        return int(a) & int(b)

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return 1

    def __contains__(self, value: Any) -> bool:
        return _is_boolean(value)

    def sample(self) -> Optional[Iterator[Any]]:
        return iter([0, 1])


class BooleanAnd(DualLattice):
    """``(B, ≥)``: 1 ⊑ 0.  The home of monotonic ``AND`` (Figure 1 row 5),
    the dual of :class:`BooleanOr`."""

    name = "bool_ge"

    def __init__(self) -> None:
        super().__init__(BooleanOr(), self.name)
