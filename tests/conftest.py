import numpy as np
import pytest
from hypothesis import settings

from prodcodes.gf import GF


@pytest.fixture(scope="session")
def gf4():
    return GF(4)


@pytest.fixture(scope="session")
def gf5():
    return GF(5)


@pytest.fixture(scope="session")
def gf8():
    return GF(8)


@pytest.fixture(scope="session")
def gf16():
    return GF(16)


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0DE)


# property tests draw the same examples on every run
settings.register_profile("prodcodes", derandomize=True, deadline=None, database=None)
settings.load_profile("prodcodes")
