"""Uniform time slicing and meter switching functions.

The window [0, T] is cut into N slices of width eps = T/N with left
endpoints t_j = (j-1) eps, j = 1..N; all per-slice data are left-endpoint
samples. A switching function beta(t) describes when a meter couples:

  impulse(t0)   -- fires once, at the first slice end >= t0 (von Neumann),
  constant(c)   -- couples uniformly (finite-time / time-average meter),
  sampled(v_j)  -- arbitrary per-slice profile (continuous-measurement limit).

Slice weights w_j turn a path functional int beta(t) phi(t) dt into the
Riemann sum sum_j w_j phi(t_j). The endpoint value phi(T) is carried by
the last slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ImpulseNotSquareIntegrable,
    ImpulseOutOfRange,
    LengthMismatch,
)


@dataclass(frozen=True)
class TimeGrid:
    total_time: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"slice count must be >= 1, got {self.steps}")
        # a subnormal slice width loses precision and overflows 1/eps
        if not (self.eps >= np.finfo(float).tiny and np.isfinite(self.total_time)):
            raise ValueError(f"total time must give a normal slice width, got {self.total_time}")

    @property
    def eps(self) -> float:
        return self.total_time / self.steps

    @property
    def nodes(self) -> np.ndarray:
        """Left slice endpoints t_j = (j-1) eps."""
        return np.arange(self.steps) * self.eps


@dataclass(frozen=True)
class SwitchingFunction:
    """Tagged union over the three meter coupling profiles."""

    kind: str
    t0: float = 0.0
    c: float = 0.0
    values: tuple = field(default=())

    @classmethod
    def impulse(cls, t0: float) -> "SwitchingFunction":
        return cls(kind="impulse", t0=float(t0))

    @classmethod
    def constant(cls, c: float) -> "SwitchingFunction":
        return cls(kind="constant", c=float(c))

    @classmethod
    def sampled(cls, values) -> "SwitchingFunction":
        return cls(kind="sampled", values=tuple(float(v) for v in values))


def slice_weights(beta: SwitchingFunction, grid: TimeGrid) -> np.ndarray:
    """Per-slice weights w_j with sum_j w_j phi(t_j) ~ int beta phi dt.

    Impulses get weight exactly 1 on one slice (no smearing): the meter
    reads off the instantaneous value. A slice's coupling acts at its end,
    so an impulse at t0 goes on slice m - 1 (slice 0 if m = 0), m the least
    node index with m eps >= t0, counting t0 / eps within 1e-9 of an integer
    as that integer: an impulse on a node acts there whatever the rounding.
    Constant and sampled profiles get plain left-endpoint Riemann weights
    beta(t_j) * eps.
    """
    N = grid.steps
    if beta.kind == "impulse":
        if not (0.0 <= beta.t0 <= grid.total_time):
            raise ImpulseOutOfRange(
                f"impulse at t0={beta.t0} outside [0, {grid.total_time}]"
            )
        w = np.zeros(N)
        w[np.clip(int(np.ceil(beta.t0 / grid.eps - 1e-9)) - 1, 0, N - 1)] = 1.0
        return w
    if beta.kind == "constant":
        return np.full(N, beta.c * grid.eps)
    if beta.kind == "sampled":
        if len(beta.values) != N:
            raise LengthMismatch(
                f"sampled profile has {len(beta.values)} values, grid has {N} slices"
            )
        return np.asarray(beta.values) * grid.eps
    raise ValueError(f"unknown switching kind {beta.kind!r}")


def square_integral(beta: SwitchingFunction, grid: TimeGrid) -> float:
    """int beta(t)^2 dt; undefined (raises) for an impulse."""
    if beta.kind == "impulse":
        raise ImpulseNotSquareIntegrable("square integral of an impulse diverges")
    if beta.kind == "constant":
        return beta.c**2 * grid.total_time
    vals = np.asarray(beta.values)
    if vals.size != grid.steps:
        raise LengthMismatch(
            f"sampled profile has {vals.size} values, grid has {grid.steps} slices"
        )
    return float(np.sum(vals**2) * grid.eps)


@dataclass(frozen=True)
class PathFunctionalSpec:
    """A time grid plus one switching function per meter."""

    grid: TimeGrid
    betas: tuple

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(self.betas))
        if not self.betas:
            raise ValueError("need at least one meter")

    @property
    def n_meters(self) -> int:
        return len(self.betas)

    def weight_matrix(self) -> np.ndarray:
        """Stacked slice weights, shape (M, N)."""
        return np.stack([slice_weights(b, self.grid) for b in self.betas])


def functional_value(spec: PathFunctionalSpec, path, decomp) -> np.ndarray:
    """Meter functionals F_i = sum_j w_ij * a(t_j) of one eigenpath.

    `path` is a sequence of eigenvalue indices (or an object with an
    `indices` attribute); `decomp` supplies the eigenvalues.
    """
    indices = np.asarray(getattr(path, "indices", path), dtype=int)
    if indices.size != spec.grid.steps:
        raise LengthMismatch(
            f"path has {indices.size} slices, grid has {spec.grid.steps}"
        )
    values = decomp.eigenvalues[indices]
    return spec.weight_matrix() @ values
