"""Transformations between readout histories of two observables.

Two finite-time measurements of observables A and B (one meter each, a
shared conjugate grid) are connected by the operator-valued convolution
kernel

    U(df) = (dlam / 2 pi) sum_lam e^{+i lam df} U_B(lam) U_A(lam)^dag,

where U_Z(lam) is the sliced evolution coupled to Z. Circular convolution
of the A-field with the kernel produces the B-field; it is applied as a
per-frequency product of FFTs. On the periodic grid the construction is
exactly unitary, so the round trip A -> B -> A is lossless up to rounding.

The instantaneous (impulse) limit collapses the kernel to the familiar
basis-change comb, and projecting everything onto a single readout gives
the plain amplitude transformation <b|psi> = sum_a <b|a><a|psi>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch
from .hilbert import SpectralDecomposition, as_state
from .meters import (AmplitudeField, LambdaGrid, _as_decomp, _check_grids, _slice_transfer,
                     _sliced)
from .pathsum import PATH_CAP, _class_sum
from .timegrid import SwitchingFunction, TimeGrid, slice_weights

KERNEL_TOL = 1e-6


@dataclass(frozen=True)
class OperatorKernel:
    """Operator samples on the readout difference lattice.

    ops[d] is U(d * df); the sampled function is periodic with period
    L * df, so one period determines every difference.
    """

    grid: LambdaGrid
    ops: np.ndarray

    def __post_init__(self):
        L = self.grid.n_points
        if self.ops.shape[0] != L or self.ops.shape[1] != self.ops.shape[2]:
            raise GridMismatch(f"kernel table shape {self.ops.shape} vs L={L}")

    @property
    def dim(self) -> int:
        return self.ops.shape[1]

    def at_difference(self, d: int) -> np.ndarray:
        return self.ops[d % self.grid.n_points]

    def unitarity_residual(self) -> float:
        """Max over every difference d of |sum_k U(k)^dag U(k+d) df -
        delta_d0 / df|, with the autocorrelation taken by FFT."""
        df = self.grid.df
        S = np.fft.fft(self.ops, axis=0)
        acc = np.fft.ifft(np.einsum("mba,mbc->mac", S.conj(), S), axis=0) * df
        acc[0] -= np.eye(self.dim) / df
        return float(np.abs(acc).max())


def finite_time_kernel(H, A, B, grid: TimeGrid, betaA: SwitchingFunction,
                       betaB: SwitchingFunction, lgrid: LambdaGrid) -> OperatorKernel:
    """Kernel mapping the A-readout field to the B-readout field."""
    decA = _as_decomp(A)
    decB = _as_decomp(B)
    if decA.dim != decB.dim:
        raise DimensionMismatch(f"A dim {decA.dim} vs B dim {decB.dim}")
    uA = _coupled_propagators(H, decA, grid, betaA, lgrid)
    uB = _coupled_propagators(H, decB, grid, betaB, lgrid)
    sym = np.einsum("mab,mcb->mac", uB, uA.conj())  # U_B U_A^dag per lambda

    # table over one period of the difference lattice:
    # ops[d] = (dlam/2pi) sum_m sym_m e^{2i pi (m - L/2) d / L}
    L = lgrid.n_points
    phase = (-1.0) ** np.arange(L)  # e^{-i pi d}
    table = np.fft.ifft(sym, axis=0) * L
    table = table * phase[:, None, None] * (lgrid.dlam / (2 * np.pi))
    return OperatorKernel(lgrid, table)


def _coupled_propagators(H, decomp: SpectralDecomposition, grid: TimeGrid,
                         beta: SwitchingFunction, lgrid: LambdaGrid) -> np.ndarray:
    """Full sliced propagators with coupling lam * beta * Z, one per grid
    point, shape (L, dim, dim), in the computational basis; the identity
    columns of all points evolve as one (L * dim, dim) row stack."""
    weights = slice_weights(beta, grid)
    _check_grids(weights[None, :], decomp.eigenvalues, (lgrid,))
    d = decomp.dim
    lam, a = np.repeat(lgrid.lam, d), decomp.eigenvalues
    eyes = np.tile(np.eye(d, dtype=complex), (lgrid.n_points, 1))
    cols = _sliced(_slice_transfer(H, decomp, grid), eyes, weights,
                   lambda w: np.exp(-1j * np.outer(lam * w, a)))
    V = decomp.eigenvectors
    return np.einsum("ab,mcb,dc->mad", V, cols.reshape(-1, d, d), V.conj())


def apply_kernel(kernel: OperatorKernel, field: AmplitudeField) -> AmplitudeField:
    """Circular convolution field_B(f) = sum_f' U(f - f') field_A(f') df',
    computed as the inverse FFT of the per-frequency products."""
    if field.n_meters != 1:
        raise GridMismatch("operator kernels act on single-meter fields")
    g = field.grids[0]
    if g.n_points != kernel.grid.n_points or not np.isclose(
        g.dlam, kernel.grid.dlam, rtol=1e-12
    ):
        raise GridMismatch("kernel and field live on different grids")
    prod = np.einsum("nab,nb->na", np.fft.fft(kernel.ops, axis=0),
                     np.fft.fft(field.states, axis=0))
    out = np.fft.ifft(prod, axis=0) * g.df
    return AmplitudeField(field.grids, out, field.kind)


def von_neumann_basis_change(psi, decompA: SpectralDecomposition,
                             decompB: SpectralDecomposition) -> np.ndarray:
    """Amplitudes <b|psi> via the A-resolution sum_a <b|a><a|psi>.

    Also verifies the sum against direct projection onto the B-basis;
    the two must agree to near-rounding by construction.
    """
    if decompA.dim != decompB.dim:
        raise DimensionMismatch(f"A dim {decompA.dim} vs B dim {decompB.dim}")
    psi = as_state(psi, decompA.dim)
    overlap = decompB.eigenvectors.conj().T @ decompA.eigenvectors  # <b|a>
    via_a = overlap @ (decompA.eigenvectors.conj().T @ psi)
    direct = decompB.eigenvectors.conj().T @ psi
    dev = float(np.abs(via_a - direct).max())
    if dev > 1e-12 * max(1.0, float(np.linalg.norm(psi))):
        raise ArithmeticError(f"basis-change identity violated by {dev:.3e}")
    return via_a


def completeness_identity_check(H, decompA: SpectralDecomposition,
                                grid: TimeGrid, cap: int = PATH_CAP) -> float:
    """|sum over eigenpaths of U[a]^dag U[a] - 1|_max.

    Every path operator factorises as c[a] |a_kN><row(k1)|, so the sum
    collapses to U_eps^dag diag(s) U_eps with s_k the total squared path
    weight starting from k; the identity holds because the jump-weight
    matrix is doubly stochastic. s is a class sum of the squared
    transfer |u|^2 keyed by the start label, with the first-slice factor
    deferred to the end.
    """
    d, N = decompA.dim, grid.steps
    u = _slice_transfer(H, decompA, grid)
    start = (np.arange(N) == 0)[:, None, None, None] * np.arange(d)[:, None]
    keys, weights = _class_sum(np.abs(u) ** 2, np.ones(d), N, cap, start)
    start_weight = np.zeros(d)
    start_weight[keys[:, 0]] = weights.sum(axis=1)
    total = u.conj().T @ np.diag(start_weight) @ u
    return float(np.abs(total - np.eye(d)).max())
