"""One wording for every numeric limit a solve or a server is given."""

from __future__ import annotations

from typing import Any, Callable, Dict, Type

#: A limit's kind → the test its value must pass (NaN fails every one).
_KINDS: Dict[str, Callable[[Any], bool]] = {
    "positive integer": lambda v: isinstance(v, int) and v >= 1,
    "non-negative integer": lambda v: isinstance(v, int) and v >= 0,
    "positive number": lambda v: isinstance(v, (int, float)) and v > 0,
    "non-negative number": lambda v: isinstance(v, (int, float)) and v >= 0,
}


def require(
    name: str, value: Any, kind: str, error: Type[ValueError] = ValueError
) -> None:
    """Raise ``error("<name> must be a <kind>, got <value>")`` unless
    ``value`` is a ``kind`` (a bool never is)."""
    if isinstance(value, bool) or not _KINDS[kind](value):
        raise error(f"{name} must be a {kind}, got {value!r}")
