import pytest
from hypothesis import HealthCheck, settings

import support
from geninv import square

settings.register_profile(
    "geninv",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("geninv")


@pytest.fixture(autouse=True)
def cold_rank_sequence():
    """Start each test with no kept rank sequence, so that what a test counts
    does not depend on the matrix the test before it left behind."""
    square._index_and_skeleton.cache_clear()


@pytest.fixture
def ex1():
    return support.EX1


@pytest.fixture
def ex1_pinv():
    return support.EX1_PINV


@pytest.fixture
def ex3():
    return support.EX3


@pytest.fixture
def ex3_pinv():
    return support.EX3_PINV
