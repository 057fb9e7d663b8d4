import pytest
from hypothesis import settings

from palg import lattice
from palg.fields import FieldSpec

settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def cold_discovery_cache():
    """Every test starts from an empty discovery cache, so no test is handed
    a result another test computed, whatever the order."""
    lattice.lattice_profile.cache_clear()


@pytest.fixture(scope="session")
def gf2():
    return FieldSpec.prime(2)


@pytest.fixture(scope="session")
def gf3():
    return FieldSpec.prime(3)


@pytest.fixture(scope="session")
def gf5():
    return FieldSpec.prime(5)


@pytest.fixture(scope="session")
def rationals():
    return FieldSpec.rationals()
