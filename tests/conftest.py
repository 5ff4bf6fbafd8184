import pytest
from hypothesis import settings

from gmdkit import suites

# Every property test runs the same examples on every run and host: no
# deadline, no example database, derandomized.  A test's own @settings
# sets only its max_examples on top of this profile.
settings.register_profile("tier1", deadline=None, database=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def ring_cases():
    return {case.name: case for case in suites.ring_suite()}


@pytest.fixture(scope="session")
def ex1_profile(ring_cases):
    return ring_cases["f2-onedim-three-primes"].build()


@pytest.fixture(scope="session")
def ex2_profile(ring_cases):
    return ring_cases["f3-plane-with-two-lines"].build()


@pytest.fixture(scope="session")
def complex_cases():
    return {case.name: case for case in suites.complex_suite()}
