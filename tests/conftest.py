"""Shared fixtures: the paper's running examples and small helper objects."""

import pytest
from hypothesis import settings

from repro.schema import Schema
from repro.workloads import medical, fhir, social

# tier-1 must not depend on the run: every property test replays the same
# examples (pinned @example cases still run first)
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
# fresh random examples on every run, for exploration outside tier-1; select
# it with ``--hypothesis-profile=randomized`` (a failure prints the blob that
# reproduces it)
settings.register_profile("randomized", derandomize=False, print_blob=True)


@pytest.fixture(scope="session")
def medical_source_schema():
    return medical.source_schema()


@pytest.fixture(scope="session")
def medical_target_schema():
    return medical.target_schema()


@pytest.fixture(scope="session")
def medical_migration():
    return medical.migration()


@pytest.fixture(scope="session")
def medical_graph():
    return medical.sample_graph()


@pytest.fixture(scope="session")
def example52_schema():
    """The schema of Example 5.2 / Figure 2: s is '+ outgoing, at most one
    incoming', r is unconstrained."""
    schema = Schema(["A"], ["s", "r"], name="S52")
    schema.set_edge("A", "s", "A", "+", "?")
    schema.set_edge("A", "r", "A", "*", "*")
    return schema


@pytest.fixture(scope="session")
def fhir_schemas():
    return fhir.schema_v3(), fhir.schema_v4()


@pytest.fixture(scope="session")
def social_schemas():
    return social.schema_v1(), social.schema_v2()
