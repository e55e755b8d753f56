import numpy as np
import pytest

from pathmeter import hilbert, timegrid


@pytest.fixture
def qubit_h():
    """Two-level Hamiltonian with level splitting 1 and coupling 0.5."""
    return np.array([[0.0, 0.5], [0.5, 1.0]], dtype=complex)


@pytest.fixture
def coord_a():
    """The 'coordinate' observable assigning positions 1 and 2."""
    return np.diag([1.0, 2.0]).astype(complex)


@pytest.fixture
def coord_decomp(coord_a):
    return hilbert.spectral_decompose(coord_a)


@pytest.fixture
def psi_plus():
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


@pytest.fixture
def grid12():
    return timegrid.TimeGrid(1.0, 12)


@pytest.fixture
def beta_avg():
    """Finite-time meter profile beta = 1/T for T = 1."""
    return timegrid.SwitchingFunction.constant(1.0)


def random_hermitian(rng, dim):
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (M + M.conj().T) / 2


def count_calls(monkeypatch, fn, modules) -> list:
    """Replace fn by a counting wrapper in every module that holds it;
    returns the list that each call appends to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted)
    return calls
