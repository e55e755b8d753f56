"""1-d lattice particle: split-operator evolution with meter coupling.

A particle on a periodic lattice plays the continuum role of the finite
systems elsewhere in the package: position histories are the paths, and
a meter registering a functional of the coordinate couples through an
extra potential lam * beta(t) * F(x) per slice. Sweeping lam and
Fourier-transforming gives the readout amplitude field for, e.g., the
time a trajectory dwells inside a region (F = indicator, beta = 1/T) or
the mean position (F = x).

Each slice is a kinetic step in momentum space (spectral p^2/2m
dispersion, or the 3-point finite-difference dispersion
(1 - cos k dx)/(m dx^2) when matching the dense lattice oracle), then all
position-diagonal phases, run by meters._sliced, the one sliced-evolution
loop of every system; symmetric splitting adds a half step at either end.
Real couplings keep the evolution exactly unitary, so the lattice norm is
conserved to rounding. The lambda rows evolve in contiguous blocks, one
per usable CPU, each on its own thread, with the bytes of one thread.

split_step_evolve writes one evolution out as the literal split-operator
product, with none of the engine's code; the sum rule holds the field's
marginal to it, so a run evolves its lambda grid once and checks it against
a reference that does not share the engine's faults.

Domains must be sized so nothing reaches the periodic boundary;
boundary_mass provides the runtime check.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .meters import AmplitudeField, LambdaGrid, _check_grids, _sliced, _to_readout
from .pathsum import BinnedAmplitudes, _binned, _class_sum
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
        four_w2 = 4 * width**2
        if not four_w2 > 0:
            raise ValueError(f"packet width {width!r} squares to zero")
        # the sites and their distances to the centre are monotone in the
        # site index, so the end sites bound them
        x_last = x_min + dx * (n_x - 1)
        if not math.isfinite(x_last):
            raise ValueError(f"the last lattice site x_min + dx (n_x - 1) = {x_last!r} "
                             "is past float range")
        if not (math.isfinite(x_min - center) and math.isfinite(x_last - center)):
            raise ValueError(f"the distance from the lattice to the packet centre "
                             f"{center!r} is past float range")
        x = x_min + dx * np.arange(n_x)
        d = np.minimum(np.abs(x - center), 60 * width)  # capped: exp(-900) is 0.0
        psi = np.exp(-(d**2) / four_w2 + 1j * momentum * x)
        norm2 = np.sum(np.abs(psi) ** 2) * dx
        if not norm2 > 0:
            raise ValueError("the packet has no normalisable mass on the lattice")
        psi /= np.sqrt(norm2)
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


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_blocks(evolve, rows: int) -> None:
    """Call evolve(lo, hi) on max(1, min(usable CPUs, rows)) contiguous
    row blocks; block i holds rows cuts[i]:cuts[i + 1].

    The calling thread runs the first block and short-lived threads the
    others; all are joined before return, and a worker's exception is
    re-raised here. One block spawns nothing.
    """
    import threading

    blocks = max(1, min(usable_cpus(), rows))
    cuts = [rows * i // blocks for i in range(blocks + 1)]
    errors = []

    def guarded(lo, hi):
        try:
            evolve(lo, hi)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(lo, hi))
               for lo, hi in zip(cuts[1:-1], cuts[2:])]
    for t in threads:
        t.start()
    try:
        evolve(cuts[0], cuts[1])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def _kinetic(p: np.ndarray, kin: np.ndarray) -> np.ndarray:
    """The kinetic step with phases kin, in place on the row stack p."""
    np.fft.fft(p, axis=-1, out=p)
    np.multiply(kin, p, out=p)  # kin first: `p *= kin` rounds differently
    return np.fft.ifft(p, axis=-1, out=p)


def _evolve_block(p: np.ndarray, fac: np.ndarray, kin: np.ndarray, base: np.ndarray,
                  coupling: np.ndarray, F: np.ndarray) -> None:
    """Evolve the row block p in place; fac is its factor buffer."""
    def factor(c):
        np.multiply.outer(c, F, out=fac)
        np.multiply(-1j, fac, out=fac)
        np.exp(fac, out=fac)
        return np.multiply(base, fac, out=fac)

    _sliced(lambda q: _kinetic(q, kin), p, coupling, factor, out=p)


def _split_step_batch(start: np.ndarray, kin_angle: np.ndarray,
                      base: np.ndarray, coupling: np.ndarray, F: np.ndarray,
                      symmetric: bool) -> np.ndarray:
    """Advance a (batch, n_x) stack through all slices: slice j applies the
    kinetic step K (kin_angle is the full-step phase angle), then the
    position-diagonal factor V_j = base * exp(-i coupling[j, b] F) on row b.
    coupling is (N, batch) and `start` broadcasts to the stack (one row
    serves every lambda); it is not modified. Symmetric (Strang) slices
    K_h V_j K_h, K_h a half step, are the same loop between two end points:
    prod_j K_h V_j K_h = K_h (prod_j V_j K) K_-h.

    Rows are independent, so contiguous row blocks evolve in place on
    separate threads (see _run_blocks); every row gets the same bytes
    whatever the split. All buffers are allocated before any thread starts.
    """
    fac = np.empty((coupling.shape[1], F.size), dtype=complex)
    psi = np.empty_like(fac)
    psi[...] = start
    if symmetric:
        _kinetic(psi, np.exp(0.5j * kin_angle))
    kin = np.exp(-1j * kin_angle)
    _run_blocks(lambda lo, hi: _evolve_block(psi[lo:hi], fac[lo:hi], kin, base,
                                             coupling[:, lo:hi], F), psi.shape[0])
    if symmetric:
        _kinetic(psi, np.exp(-0.5j * kin_angle))
    return psi


def split_step_evolve(psi: LatticeWavefunction, V, grid: TimeGrid,
                      lam: float, cf: CoordinateFunctional,
                      kinetic: str = "spectral",
                      symmetric: bool = False) -> LatticeWavefunction:
    """N split-operator steps under p^2/2m + V(x) + lam beta(t) F(x) as the literal
    product: per slice a kinetic step K, then the phase exp(-i (V eps + lam w_j F));
    K_h V_j K_h when symmetric. It shares no code with _split_step_batch, the engine."""
    V = np.asarray(V, dtype=float)
    _check_lattice(psi, [("potential", V), ("functional", cf.values)])
    kin = np.exp((-0.5j if symmetric else -1j) * (_dispersion(psi, kinetic) * grid.eps))
    out = psi.values
    for w in slice_weights(cf.beta, grid):
        out = np.fft.ifft(kin * np.fft.fft(out))
        out *= np.exp(-1j * (V * grid.eps + lam * w * cf.values))
        if symmetric:
            out = np.fft.ifft(kin * np.fft.fft(out))
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
    states = _split_step_batch(psi0.values, kin_angle, base, np.outer(w, lgrid.lam),
                               cf.values, symmetric)
    return AmplitudeField((lgrid,), _to_readout(states, (lgrid,)), kind="fine")


def boundary_mass(psi: LatticeWavefunction) -> float:
    """Probability mass in the 4 outermost cells per side (periodic-wrap check)."""
    p = np.abs(psi.values) ** 2 * psi.dx
    return float(p[:4].sum() + p[-4:].sum())


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
    _, states = _class_sum(u, u @ psi0.values, grid.steps)
    return states.sum(axis=0)


def tiny_lattice_feynman_bins(psi0: LatticeWavefunction, V, grid: TimeGrid,
                              cf: CoordinateFunctional,
                              split_kinetic: bool = False) -> BinnedAmplitudes:
    """Position histories grouped by their coordinate functional."""
    V = np.asarray(V, dtype=float)
    _check_lattice(psi0, [("potential", V), ("functional", cf.values)])
    u = _dense_slice_operator(psi0, V, grid, split_kinetic)
    return _binned(u, u @ psi0.values, grid.steps, slice_weights(cf.beta, grid), cf.values)
