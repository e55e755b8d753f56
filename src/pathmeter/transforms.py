"""Transformations between readout histories of two observables.

Two finite-time measurements of observables A and B (one meter each, a
shared conjugate grid) are connected by the operator-valued symbol
S(lam) = U_B(lam) U_A(lam)^dag, where U_Z(lam) is the sliced evolution
coupled to Z. Its readout transform is the convolution kernel

    U(df) = (dlam / 2 pi) sum_lam e^{+i lam df} S(lam),

and circular convolution of the A-field with it, a per-lambda product
between the pointer route's transforms, produces the B-field. On the
periodic grid the construction is exactly unitary, so the round trip
A -> B -> A is lossless up to rounding.

The instantaneous (impulse) limit collapses the kernel to the familiar
basis-change comb, and projecting everything onto a single readout gives
the plain amplitude transformation <b|psi> = sum_a <b|a><a|psi>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch
from .hilbert import SpectralDecomposition, as_state
from .meters import (AmplitudeField, LambdaGrid, _as_decomp, _check_grids, _coupled,
                     _same_grids, _slice_transfer, _to_lambda, _to_readout)
from .pathsum import _class_sum
from .timegrid import SwitchingFunction, TimeGrid, slice_weights

KERNEL_TOL = 1e-6


@dataclass(frozen=True)
class OperatorKernel:
    """A transform kernel held as its lambda-space symbol.

    symbol[m] is the operator S(lam_m), shape (L, dim, dim); the readout
    kernel U(d * df) is its transform, periodic with period L * df.
    """

    grid: LambdaGrid
    symbol: np.ndarray

    def __post_init__(self):
        L = self.grid.n_points
        if self.symbol.shape[0] != L or self.symbol.shape[1] != self.symbol.shape[2]:
            raise GridMismatch(f"kernel symbol shape {self.symbol.shape} vs L={L}")

    @property
    def dim(self) -> int:
        return self.symbol.shape[1]

    def at_difference(self, d: int) -> np.ndarray:
        """U(d * df) = (dlam / 2 pi) sum_m S(lam_m) e^{i lam_m d df}."""
        g = self.grid
        phase = np.exp(1j * g.lam * d * g.df)
        return np.einsum("m,mab->ab", phase, self.symbol) * (g.dlam / (2 * np.pi))

    def adjoint(self) -> "OperatorKernel":
        """The reverse kernel, S(lam) -> S(lam)^dag: built from A -> B, it
        is the B -> A kernel, since U_A U_B^dag is the adjoint of U_B U_A^dag
        at every lambda."""
        return OperatorKernel(self.grid, self.symbol.conj().transpose(0, 2, 1))

    def unitarity_residual(self) -> float:
        """Max over every difference d of |sum_k U(k)^dag U(k+d) df -
        delta_d0 / df|; by Parseval that autocorrelation is the readout
        transform of S^dag S, and delta_d0 / df that of the identity."""
        gram = np.einsum("mba,mbc->mac", self.symbol.conj(), self.symbol)
        return float(np.abs(_to_readout(gram - np.eye(self.dim), (self.grid,))).max())


def finite_time_kernel(H, A, B, grid: TimeGrid, betaA: SwitchingFunction,
                       betaB: SwitchingFunction, lgrid: LambdaGrid) -> OperatorKernel:
    """Kernel mapping the A-readout field to the B-readout field."""
    decA = _as_decomp(A)
    decB = _as_decomp(B)
    if decA.dim != decB.dim:
        raise DimensionMismatch(f"A dim {decA.dim} vs B dim {decB.dim}")
    uA = _coupled_propagators(H, decA, grid, betaA, lgrid)
    uB = _coupled_propagators(H, decB, grid, betaB, lgrid)
    return OperatorKernel(lgrid, np.einsum("mab,mcb->mac", uB, uA.conj()))


def _coupled_propagators(H, decomp: SpectralDecomposition, grid: TimeGrid,
                         beta: SwitchingFunction, lgrid: LambdaGrid) -> np.ndarray:
    """Full sliced propagators with coupling lam * beta * Z, one per grid
    point, shape (L, dim, dim), in the computational basis. The identity
    columns start as one (dim, 1, dim) stack that broadcasts against the
    (L, dim) coupling phases, so every grid point's dim columns share its
    slice operator, and a constant beta's U(lam) is that operator's power."""
    W = slice_weights(beta, grid)[None, :]
    _check_grids(W, decomp.eigenvalues, (lgrid,))
    d = decomp.dim
    cols = _coupled(H, decomp, grid, W, lgrid.lam[:, None],
                    np.eye(d, dtype=complex)[:, None, :])
    V = decomp.eigenvectors
    return np.einsum("ak,imk,ei->mae", V, cols, V.conj())


def apply_kernel(kernel: OperatorKernel, field: AmplitudeField) -> AmplitudeField:
    """Circular convolution field_B(f) = sum_f' U(f - f') field_A(f') df',
    computed as the symbol times the field's lambda-space samples."""
    grids = field.grids
    if not _same_grids(grids, (kernel.grid,)):
        raise GridMismatch("kernel and field live on different grids")
    lam_states = np.einsum("mab,mb->ma", kernel.symbol, _to_lambda(field.states, grids))
    return AmplitudeField(grids, _to_readout(lam_states, grids), field.kind)


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


def completeness_identity_check(H, decompA: SpectralDecomposition, grid: TimeGrid) -> float:
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
    keys, weights = _class_sum(np.abs(u) ** 2, np.ones(d), N, start)
    start_weight = np.zeros(d)
    start_weight[keys[:, 0]] = weights.sum(axis=1)
    total = u.conj().T @ np.diag(start_weight) @ u
    return float(np.abs(total - np.eye(d)).max())
