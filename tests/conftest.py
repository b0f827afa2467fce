"""Shared fixtures: paper programs, small canonical instances."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.programs import (
    circuit,
    company_control,
    company_control_r_monotonic,
    halfsum_limit,
    party_invitations,
    shortest_path,
    student_averages,
    two_minimal_models,
)

#: ``pytest --hypothesis-profile=ci-long`` (a CI step): the property tests
#: that take their budget from :func:`examples` draw this many examples
#: instead of their tier-1 count.
settings.register_profile("ci-long", max_examples=300)


def examples(tier1: int) -> int:
    """A property test's example count: ``tier1``, or the loaded
    profile's when that asks for more than the default profile does."""
    loaded = settings.default.max_examples
    return loaded if loaded > settings.get_profile("default").max_examples else tier1


@pytest.fixture
def sp_program():
    """The shortest-path program (Example 2.6) as a Program."""
    return shortest_path.database().program


@pytest.fixture
def example_3_1_db():
    """Example 3.1's instance: arc(a,b,1), arc(b,b,0)."""
    return shortest_path.database({"arc": [("a", "b", 1), ("b", "b", 0)]})


@pytest.fixture
def cc_program():
    return company_control.database().program


@pytest.fixture
def van_gelder_edb():
    """The §5.6 company-control EDB."""
    return {
        "s": [
            ("a", "b", 0.3),
            ("a", "c", 0.3),
            ("b", "c", 0.6),
            ("c", "b", 0.6),
        ]
    }


CATALOG = {
    "shortest_path": shortest_path,
    "company_control": company_control,
    "company_control_r_monotonic": company_control_r_monotonic,
    "party_invitations": party_invitations,
    "circuit": circuit,
    "student_averages": student_averages,
    "halfsum_limit": halfsum_limit,
    "two_minimal_models": two_minimal_models,
}
