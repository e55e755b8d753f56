"""1-d lattice particle: split-operator evolution with meter coupling.

A particle on a periodic lattice plays the continuum role of the finite
systems elsewhere in the package: position histories are the paths, and
a meter registering a functional of the coordinate couples through an
extra potential lam * beta(t) * F(x) per slice. Sweeping lam and
Fourier-transforming gives the readout amplitude field for, e.g., the
time a trajectory dwells inside a region (F = indicator, beta = 1/T) or
the mean position (F = x).

Evolution is first-order split: kinetic step in momentum space (spectral
p^2/2m dispersion, or the 3-point finite-difference dispersion
(1 - cos k dx)/(m dx^2) when matching the dense lattice oracle), then
all position-diagonal phases. Real couplings keep the evolution exactly
unitary, so the lattice norm is conserved to rounding.

Domains must be sized so nothing reaches the periodic boundary;
boundary_mass provides the runtime check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .fourier import centered_idft
from .meters import AmplitudeField, LambdaGrid, _check_grids
from .pathsum import PATH_CAP, BinnedAmplitudes, _class_sum, _functional_inc
from .timegrid import SwitchingFunction, TimeGrid, slice_weights


@dataclass(frozen=True)
class LatticeWavefunction:
    """Complex amplitudes on a uniform periodic grid."""

    x_min: float
    dx: float
    values: np.ndarray
    mass: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        n = values.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"lattice size must be a power of two, got {n}")
        if not (self.mass > 0):
            raise ValueError(f"mass must be positive, got {self.mass}")
        # the largest kinetic energy on the lattice is about pi^2 / (mass dx^2)
        if not self.mass * self.dx * self.dx > np.pi**2 / np.finfo(float).max:
            raise ValueError(f"kinetic energy overflows at mass {self.mass}, dx {self.dx}")
        if not np.all(np.isfinite(values)):
            raise ValueError("wavefunction has non-finite values")

    @property
    def n_x(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_x)

    def norm2(self) -> float:
        """Lattice norm sum |psi|^2 dx."""
        return float(np.sum(np.abs(self.values) ** 2) * self.dx)

    @classmethod
    def gaussian(cls, x_min: float, dx: float, n_x: int, center: float,
                 width: float, momentum: float = 0.0,
                 mass: float = 1.0) -> "LatticeWavefunction":
        x = x_min + dx * np.arange(n_x)
        psi = np.exp(-((x - center) ** 2) / (4 * width**2) + 1j * momentum * x)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
        return cls(x_min, dx, psi, mass)


@dataclass(frozen=True)
class CoordinateFunctional:
    """Bounded map F on the lattice plus the meter switching function."""

    values: np.ndarray
    beta: SwitchingFunction

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if not np.all(np.isfinite(values)):
            raise ValueError("coordinate functional must be bounded on the grid")

    @classmethod
    def region_indicator(cls, psi: LatticeWavefunction, lo: float, hi: float,
                         beta: SwitchingFunction) -> "CoordinateFunctional":
        x = psi.x
        return cls(((x >= lo) & (x <= hi)).astype(float), beta)

    @classmethod
    def position(cls, psi: LatticeWavefunction,
                 beta: SwitchingFunction) -> "CoordinateFunctional":
        return cls(psi.x.copy(), beta)


def _dispersion(psi: LatticeWavefunction, kinetic: str) -> np.ndarray:
    k = 2 * np.pi * np.fft.fftfreq(psi.n_x, d=psi.dx)
    if kinetic == "spectral":
        return k**2 / (2 * psi.mass)
    if kinetic == "finite_difference":
        return (1.0 - np.cos(k * psi.dx)) / (psi.mass * psi.dx**2)
    raise ValueError(f"unknown kinetic discretisation {kinetic!r}")


def _check_lattice(psi: LatticeWavefunction, arrays) -> None:
    for name, arr in arrays:
        if np.asarray(arr).shape != (psi.n_x,):
            raise GridMismatch(
                f"{name} has shape {np.asarray(arr).shape}, lattice has {psi.n_x} sites"
            )


def _split_step_batch(values: np.ndarray, kin_angle: np.ndarray,
                      base: np.ndarray, coupling: np.ndarray, F: np.ndarray,
                      symmetric: bool) -> np.ndarray:
    """Advance a (batch, n_x) stack through all slices: slice j applies the
    kinetic step (kin_angle is the full-step phase angle), then the
    position-diagonal factor base * exp(-i coupling[j, b] F) on row b, with
    half kinetic steps on both sides when symmetric. coupling is (N, batch);
    the factor is rebuilt only when coupling[j] differs from coupling[j-1]."""
    kin = np.exp(-0.5j * kin_angle if symmetric else -1j * kin_angle)
    psi, prev = values, None
    for c in coupling:
        psi = np.fft.fft(psi, axis=-1)
        np.multiply(kin, psi, out=psi)
        psi = np.fft.ifft(psi, axis=-1)
        if prev is None or not np.array_equal(c, prev):
            fac, prev = base * np.exp(-1j * np.outer(c, F)), c
        psi *= fac
        if symmetric:
            psi = np.fft.fft(psi, axis=-1)
            np.multiply(kin, psi, out=psi)
            psi = np.fft.ifft(psi, axis=-1)
    return psi


def split_step_evolve(psi: LatticeWavefunction, V, grid: TimeGrid,
                      lam: float, cf: CoordinateFunctional,
                      kinetic: str = "spectral",
                      symmetric: bool = False) -> LatticeWavefunction:
    """N split-operator steps under p^2/2m + V(x) + lam beta(t) F(x)."""
    V = np.asarray(V, dtype=float)
    _check_lattice(psi, [("potential", V), ("functional", cf.values)])
    w = slice_weights(cf.beta, grid)
    kin_angle = _dispersion(psi, kinetic) * grid.eps
    base = np.exp(-1j * V * grid.eps)
    out = _split_step_batch(psi.values[None, :], kin_angle, base,
                            (lam * w)[:, None], cf.values, symmetric)[0]
    return LatticeWavefunction(psi.x_min, psi.dx, out, psi.mass)


def coordinate_amplitude_field(psi0: LatticeWavefunction, V, grid: TimeGrid,
                               cf: CoordinateFunctional, lgrid: LambdaGrid,
                               kinetic: str = "spectral",
                               symmetric: bool = False) -> AmplitudeField:
    """Readout amplitude field for the coordinate functional.

    Runs the coupled split-operator evolution for every lambda grid
    point and inverse-transforms, exactly as in the finite-dimensional
    pointer route; the component axis of the returned field is the
    position lattice.
    """
    V = np.asarray(V, dtype=float)
    _check_lattice(psi0, [("potential", V), ("functional", cf.values)])
    w = slice_weights(cf.beta, grid)
    _check_grids(w[None, :], np.array([cf.values.min(), cf.values.max()]), (lgrid,))
    kin_angle = _dispersion(psi0, kinetic) * grid.eps
    base = np.exp(-1j * V * grid.eps)
    states = _split_step_batch(np.tile(psi0.values, (lgrid.lam.size, 1)), kin_angle,
                               base, np.outer(w, lgrid.lam), cf.values, symmetric)
    field = centered_idft(states, axis=0) * (lgrid.dlam / (2 * np.pi))
    return AmplitudeField((lgrid,), field, kind="fine")


def boundary_mass(psi: LatticeWavefunction, cells: int = 4) -> float:
    """Probability mass in the outermost cells (periodic-wrap check)."""
    p = np.abs(psi.values) ** 2 * psi.dx
    return float(p[:cells].sum() + p[-cells:].sum())


def dense_lattice_hamiltonian(psi: LatticeWavefunction, V) -> np.ndarray:
    """3-point finite-difference kinetic term plus V, periodic."""
    V = np.asarray(V, dtype=float)
    _check_lattice(psi, [("potential", V)])
    n = psi.n_x
    t = 1.0 / (2 * psi.mass * psi.dx**2)
    H = np.diag(V + 2 * t).astype(complex)
    idx = np.arange(n)
    H[idx, (idx + 1) % n] -= t
    H[idx, (idx - 1) % n] -= t
    return H


def _dense_slice_operator(psi: LatticeWavefunction, V, grid: TimeGrid,
                          split_kinetic: bool) -> np.ndarray:
    V = np.asarray(V, dtype=float)
    if split_kinetic:
        K = dense_lattice_hamiltonian(psi, np.zeros(psi.n_x))
        vals, vecs = np.linalg.eigh(K)
        u_kin = (vecs * np.exp(-1j * vals * grid.eps)) @ vecs.conj().T
        return np.exp(-1j * V * grid.eps)[:, None] * u_kin
    H = dense_lattice_hamiltonian(psi, V)
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(-1j * vals * grid.eps)) @ vecs.conj().T


def tiny_lattice_feynman_sum(psi0: LatticeWavefunction, V, grid: TimeGrid,
                             cap: int = PATH_CAP,
                             split_kinetic: bool = False) -> np.ndarray:
    """Sum over every position history on a tiny lattice.

    Path weights are products of one-slice matrix elements of the dense
    lattice Hamiltonian (finite-difference kinetic term); the complete
    sum telescopes to the N-fold slice-operator product applied to psi0,
    which is what this returns when the position basis resolves the
    identity -- the desk-scale consistency anchor for the split-operator
    route. split_kinetic=True uses the kinetic/potential split slice
    operator instead of the single exponential.
    """
    V = np.asarray(V, dtype=float)
    _check_lattice(psi0, [("potential", V)])
    u = _dense_slice_operator(psi0, V, grid, split_kinetic)
    _, states = _class_sum(u, u @ psi0.values, grid.steps, cap)
    return states.sum(axis=0)


def tiny_lattice_feynman_bins(psi0: LatticeWavefunction, V, grid: TimeGrid,
                              cf: CoordinateFunctional, cap: int = PATH_CAP,
                              split_kinetic: bool = False,
                              bin_tol: float | None = None) -> BinnedAmplitudes:
    """Position histories grouped by their coordinate functional."""
    V = np.asarray(V, dtype=float)
    _check_lattice(psi0, [("potential", V), ("functional", cf.values)])
    u = _dense_slice_operator(psi0, V, grid, split_kinetic)
    w = slice_weights(cf.beta, grid)
    if bin_tol is None:
        scale = max(1.0, float(np.abs(cf.values).max()))
        bin_tol = 1e-6 * float(np.abs(w).max()) * scale
    keys, states = _class_sum(u, u @ psi0.values, grid.steps, cap,
                              _functional_inc(w, cf.values), bin_tol)
    return BinnedAmplitudes(keys, states, bin_tol)
