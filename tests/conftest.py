import numpy as np
import pytest

from gkpstab import (
    GkpParams,
    build_code,
    logical_operators,
    stabilizer_model,
)
from gkpstab.codes import ETA_SENSOR


# --- small, rule-compliant parameter set for fast functional tests ---------

@pytest.fixture(scope="session")
def small_code():
    """Certified-regime working point at the 20/eps truncation (dim=143),
    small enough for seconds-scale builds and evolutions."""
    return build_code(GkpParams(0.14))


@pytest.fixture(scope="session")
def small_model(small_code):
    return stabilizer_model(small_code)


# --- production-scale objects shared by the acceptance criteria ------------

@pytest.fixture(scope="session")
def code200():
    """The acceptance working point: eps=0.1, dim=200."""
    return build_code(GkpParams(0.1, dim=200))


@pytest.fixture(scope="session")
def model200(code200):
    return stabilizer_model(code200)


@pytest.fixture(scope="session")
def logicals200(code200, model200):
    return logical_operators(model200, code200)


@pytest.fixture(scope="session")
def sensor_code200():
    return build_code(GkpParams(0.1, eta=ETA_SENSOR, dim=200))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
