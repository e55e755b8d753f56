"""Record-conditioned evolution for continuous measurement.

Conditioning the path decomposition on a pointer record phi(t) with a
Gaussian tube of width sigma replaces the functional sum by a single
effective Schroedinger problem with the non-Hermitian damping term
-i (phi - A)^2 / sigma^2. Discretised to first order, every slice
applies exp(-i H eps) followed by the diagonal damping factor
exp(-(phi_j - A)^2 eps / sigma^2); the state's norm can only shrink.

The identical factor product arises from an array of one weak von
Neumann meter per slice, each prepared with Gaussian accuracy
sigma / sqrt(eps): reading meter j at phi_j weights the eigencomponents
by exp(-(phi_j - a_k)^2 eps / sigma^2). weak_meter_array builds the
state that way as an independent cross-check of the factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyRecordSet, LengthMismatch
from .hilbert import as_state
from .meters import LambdaGrid, _as_decomp, _sliced
from .pathsum import _slice_transfer
from .timegrid import SwitchingFunction, TimeGrid, square_integral


@dataclass(frozen=True)
class ReadoutRecord:
    """Discretised pointer record phi(t_j), in units of the observable."""

    grid: TimeGrid
    phi: tuple

    def __post_init__(self):
        phi = tuple(float(v) for v in self.phi)
        object.__setattr__(self, "phi", phi)
        if len(phi) != self.grid.steps:
            raise LengthMismatch(
                f"record has {len(phi)} samples, grid has {self.grid.steps} slices"
            )
        if not np.all(np.isfinite(phi)):
            raise ValueError("record contains non-finite samples")

    @classmethod
    def constant(cls, grid: TimeGrid, value: float) -> "ReadoutRecord":
        return cls(grid, (float(value),) * grid.steps)


@dataclass(frozen=True)
class MenskyConfig:
    """Tube width sigma for the quadratic damping -i phi^2 / sigma^2."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError(f"tube width must be positive, got {self.sigma}")
        if not (0 < self.sigma * self.sigma < np.inf):
            raise ValueError(f"tube width sigma = {self.sigma!r} puts sigma^2 out of float range")


def record_states(H, A, grid: TimeGrid, records, cfg: MenskyConfig, psi0) -> np.ndarray:
    """Conditioned states prod_j D_j exp(-i H eps) |psi0>, one row per
    record, shape (R, dim): the records evolve as the rows of one sliced
    evolution, and slice j multiplies row r by the diagonal damping
    D_rj = exp(-(phi_rj - A)^2 eps / sigma^2) in A's eigenbasis."""
    decomp = _as_decomp(A)
    if any(rec.grid != grid for rec in records):
        raise DimensionMismatch("record built on a different time grid")
    phi = np.array([rec.phi for rec in records])
    a = decomp.eigenvalues
    scale = grid.eps / cfg.sigma**2
    if not (0 < scale < np.inf):
        raise ValueError(f"damping rate eps / sigma^2 = {scale!r} (eps = {grid.eps!r}, "
                         f"sigma = {cfg.sigma!r}) is not finite and > 0")
    rows = _sliced(_slice_transfer(H, decomp, grid),
                   decomp.to_eigenbasis(as_state(psi0, decomp.dim)), phi.T,
                   lambda p: np.exp(-((p[:, None] - a) ** 2) * scale))
    return rows @ decomp.eigenvectors.T


def record_evolve(H, A, grid: TimeGrid, record: ReadoutRecord,
                  cfg: MenskyConfig, psi0) -> np.ndarray:
    """Evolve conditioned on one record (see record_states)."""
    return record_states(H, A, grid, [record], cfg, psi0)[0]


def weak_meter_array(H, A, grid: TimeGrid, sigma: float, psi0,
                     record: ReadoutRecord) -> np.ndarray:
    """Record-conditioned state built from one weak meter per slice.

    Per slice: evolve, decompose into eigencomponents (the instantaneous
    von Neumann comb), weight each component by the meter's Gaussian
    acceptance around the recorded value, and recombine. Must agree with
    record_evolve to rounding: the factor products are identical, only
    the derivation differs.
    """
    decomp = _as_decomp(A)
    if record.grid != grid:
        raise DimensionMismatch("record built on a different time grid")
    if not (sigma > 0):
        raise ValueError(f"meter width scale must be positive, got {sigma}")
    u = _slice_transfer(H, decomp, grid)
    d = decomp.dim
    width = sigma / np.sqrt(grid.eps)  # per-slice Gaussian accuracy
    psi = decomp.to_eigenbasis(as_state(psi0, d))
    for phi_j in record.phi:
        psi = u @ psi
        parts = [psi[k] * np.exp(-((phi_j - decomp.eigenvalues[k]) / width) ** 2)
                 for k in range(d)]
        psi = np.array(parts, dtype=complex)
    return decomp.from_eigenbasis(psi)


def record_probability_scan(H, A, grid: TimeGrid, cfg: MenskyConfig, psi0,
                            records) -> list:
    """Squared norms of the conditioned states, one per record.

    Returns (record, norm^2) pairs in input order. Records tracking a
    dominant eigencomponent damp least and score highest. The raw norms
    are reported as-is; no measure over record space is implied.
    """
    records = list(records)
    if not records:
        raise EmptyRecordSet("record scan needs at least one record")
    states = record_states(H, A, grid, records, cfg, psi0)
    return [(rec, float(np.vdot(psi, psi).real)) for rec, psi in zip(records, states)]


def weak_limit_check(H, A, grid: TimeGrid, beta: SwitchingFunction,
                     sigma_sequence, psi0, lgrid: LambdaGrid) -> np.ndarray:
    """Residuals of the tube-regularised finite-time transform.

    The record-conditioned construction reaches the finite-time
    amplitudes through the regularised lambda states
    exp(-lambda^2 sigma^2 I_beta / 4) * state(lambda), I_beta = int beta^2 dt.
    For each sigma, returns the max over the lambda grid of the distance
    to the bare states; shrinks as sigma^2 at fixed lambda. The coupled
    evolution is unitary, so no state is evolved: each has psi0's norm.
    """
    i_beta = square_integral(beta, grid)  # impulses rejected here
    sigmas = np.atleast_1d(np.asarray(sigma_sequence, dtype=float))
    if np.any(sigmas < 0):
        raise ValueError("tube widths must be >= 0")
    norm = np.linalg.norm(as_state(psi0, _as_decomp(A).dim))
    lam2 = lgrid.lam**2
    return np.array([np.max(np.abs(np.exp(-lam2 * s**2 * i_beta / 4) - 1.0)) * norm
                     for s in sigmas])
