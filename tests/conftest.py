import numpy as np
import pytest

from gkpstab import (
    GkpParams,
    build_code,
    logical_operators,
    stabilizer_model,
)
from gkpstab import lindblad
from gkpstab.codes import ETA_SENSOR, logical_basis


# --- small, rule-compliant parameter set for fast functional tests ---------

@pytest.fixture(scope="session")
def small_code():
    """Certified-regime working point at the 20/eps truncation (dim=143),
    small enough for seconds-scale builds and evolutions."""
    return build_code(GkpParams(0.14))


@pytest.fixture(scope="session")
def small_basis(small_code):
    """(S_x, S_y, S_z) of the small code's two codewords."""
    return logical_basis(small_code.codewords)


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


# --- test-owned readers of what the package does not keep -------------------

@pytest.fixture()
def recorded_states(monkeypatch):
    """The states that evolve and pure_loss_trajectory pass to their
    recorder, which keeps none: one dict {time: state} per run, in call
    order."""
    runs = []
    recorder = lindblad._recorder

    def keeping(*args):
        stops, on_record, finish = recorder(*args)
        states = {}
        runs.append(states)

        def on_record_keeping(t, rho):
            states[t] = np.array(rho)
            on_record(t, rho)

        return stops, on_record_keeping, finish

    monkeypatch.setattr(lindblad, "_recorder", keeping)
    return runs


@pytest.fixture(scope="session")
def full_rank_state():
    """draw(dim, rng): a random density matrix of full rank dim, drawn from
    the same rng calls as analysis.random_density_matrix, whose support is
    only the leading dim//2 Fock states."""
    def draw(dim, rng):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        return rho / np.real(np.trace(rho))

    return draw
