"""Pointer-variable (lambda) route to measurement amplitudes.

Coupling M meters to an observable A turns the evolution into a family
of ordinary Schroedinger problems labelled by conjugate variables
lambda_i: per slice, evolve with exp(-i H eps) and then apply the
coupling phase exp(-i (sum_i lambda_i w_ij) A), where w_ij are the slice
weights of meter i's switching function. The readout-space amplitude
field is the Fourier transform back to pointer values,

    field(f) = (2 pi)^-M  integral dlambda  e^{+i lambda . f} state(lambda),

discretised on symmetric conjugate grids. The normalisation is anchored
by marginal completeness: summing the field over the readout grid times
the cell volume reproduces the lambda = 0 (undisturbed) evolution
exactly, which fixes every eps/2pi factor at once.

Every lambda point is one row of a stack that evolves through one loop,
_sliced, shared with the transform and record routes and the lattice
particle. It splits the slices into runs of equal weights. For a finite
system's matrix map, an operation count from n and d decides, with no
setting, whether a run of n slices is raised to its length by binary
powering, so a constant coupling costs floor(log2 N) operator products,
not N slice maps. Other runs loop the slice map: a real product over
interleaved (re, im) pairs (twice the complex product's speed at d = 2),
or the lattice's FFT kinetic step.

Fine fields are delta combs on the lattice of attainable functional
values and are never interpreted as probabilities; convolving with a
square-integrable kernel (coarse graining) models finite meter accuracy
and makes the squared norms a genuine readout distribution. Unitary
kernels (pointer shift, quadratic phase a.k.a. free pointer spreading)
transform the field without making it any more normalisable, so they
preserve the field's kind.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumWarning,
    DimensionMismatch,
    FineFieldNotNormalizable,
    GridMismatch,
    GridTooSmall,
    NonPositiveAlpha,
    NyquistViolation,
)
from .fourier import centered_dft, centered_idft
from .hilbert import SpectralDecomposition, as_state, spectral_decompose
from .pathsum import BinnedAmplitudes, _slice_transfer
from .timegrid import SwitchingFunction, TimeGrid, slice_weights

_MAX_GRID_POINTS = 2**24


@dataclass(frozen=True)
class LambdaGrid:
    """Symmetric conjugate grids: L lambda points spaced dlam, readout
    points spaced df = 2 pi / (L dlam)."""

    n_points: int
    dlam: float

    def __post_init__(self):
        L = self.n_points
        if L < 2 or (L & (L - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 2, got {L}")
        if not (self.dlam > 0 and np.isfinite(self.dlam)):
            raise ValueError(f"lambda spacing must be positive, got {self.dlam}")

    @classmethod
    def from_df(cls, n_points: int, df: float) -> "LambdaGrid":
        return cls(n_points, 2 * np.pi / (n_points * df))

    @property
    def df(self) -> float:
        return 2 * np.pi / (self.n_points * self.dlam)

    @property
    def lam(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_points // 2) * self.dlam

    @property
    def f(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_points // 2) * self.df

    def f_index(self, f: float) -> int:
        """Grid index of readout value f; raises if off-grid."""
        x = f / self.df + self.n_points // 2
        n = int(np.round(x))
        if abs(x - n) > 1e-6 or not (0 <= n < self.n_points):
            raise GridTooSmall(f"readout value {f} not on the grid")
        return n


@dataclass(frozen=True)
class AmplitudeField:
    """State-valued amplitude over the readout product grid.

    `states` has one axis per meter plus a trailing component axis;
    kind is "fine" (delta comb) or "coarse" (square-integrable).
    """

    grids: tuple
    states: np.ndarray
    kind: str = "fine"

    def __post_init__(self):
        object.__setattr__(self, "grids", tuple(self.grids))
        expected = tuple(g.n_points for g in self.grids)
        if self.states.shape[:-1] != expected:
            raise GridMismatch(
                f"state array shape {self.states.shape[:-1]} vs grids {expected}"
            )

    @property
    def n_meters(self) -> int:
        return len(self.grids)

    @property
    def cell(self) -> float:
        """Readout-space quadrature cell, prod_i df_i."""
        return float(np.prod([g.df for g in self.grids]))

    def marginal(self) -> np.ndarray:
        """sum over the readout grid x cell; equals the undisturbed state."""
        return self.states.sum(axis=tuple(range(self.n_meters))) * self.cell

    def mass(self) -> float:
        """Total |state|^2 weight on the grid (grid-scale for fine fields)."""
        return float(np.sum(np.abs(self.states) ** 2) * self.cell)


def _as_decomp(A) -> SpectralDecomposition:
    if isinstance(A, SpectralDecomposition):
        return A
    with warnings.catch_warnings():
        # degeneracy is harmless for coupling exponentials
        warnings.simplefilter("ignore", DegenerateSpectrumWarning)
        return spectral_decompose(A)


def _as_betas(betas) -> tuple:
    if isinstance(betas, SwitchingFunction):
        return (betas,)
    return tuple(betas)


def _as_grids(lgrids, n: int) -> tuple:
    if isinstance(lgrids, LambdaGrid):
        lgrids = (lgrids,) * n
    lgrids = tuple(lgrids)
    if len(lgrids) != n:
        raise GridMismatch(f"{len(lgrids)} lambda grids for {n} meters")
    return lgrids


def _real_form(m: np.ndarray) -> np.ndarray:
    """The real (2d, 2d) matrix that acts on rows of interleaved (re, im)
    pairs as m acts on complex rows: block (j, k) is [[Re, Im], [-Im, Re]]
    of m[j, k]."""
    d = m.shape[0]
    out = np.empty((d, 2, d, 2))
    out[:, 0, :, 0] = out[:, 1, :, 1] = m.real
    out[:, 0, :, 1] = m.imag
    out[:, 1, :, 0] = -m.imag
    return out.reshape(2 * d, 2 * d)


# cells of one (d, d, rows) operator stack in a row block of a powered run.
# A block holds three such stacks (two operator buffers and a product
# temporary) and three row buffers no larger: at most 768 KiB of
# complex128 while d * max(d, e) <= 2^13, e the rows per factor row. Past
# that a block holds one factor row: operator buffers of d^2 cells and row
# buffers of d e. Blocks of 2^12 to 2^14 cells ran fastest.
_BLOCK_CELLS = 2**13


def _power_pays(n: int, d: int) -> bool:
    """Whether a run of n equal slices costs less per row as a power than
    as n slice maps. Counted in d^2 cells per row: floor(log2 n) squarings
    of d^3 and popcount(n) row products of d^2, against n slice maps of
    d^2. A batch-last product runs elementwise, not through BLAS, and
    costs about 4 + d/2 times as much per cell (measured 3 to 12 times
    for d = 1 to 16), which the count weighs in."""
    return (8 + d) * ((n.bit_length() - 1) * d + bin(n).count("1")) < 2 * n


def _product(p: np.ndarray, x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out[k, i, r] = sum_j p[k, j, r] x[j, i, r]: a batch-last stack of
    d x d operators, shape (d, d, rows), times x of shape (d, m, rows).
    Each step is one elementwise product over m x rows cells, so the
    rows stay contiguous and no call runs per matrix."""
    np.multiply(p[:, 0, None], x[0], out=out)
    for j in range(1, p.shape[0]):
        np.multiply(p[:, j, None], x[j], out=tmp)
        out += tmp
    return out


def _power_rows(u: np.ndarray, fac: np.ndarray, n: int, a: np.ndarray) -> None:
    """a[..., r, :] <- (diag(fac[r]) u)^n a[..., r, :] in place, by binary
    powering: rows share their factor row's operator stack, which is
    squared floor(log2 n) times and applied once per set bit of n, one
    block of at most _BLOCK_CELLS operator cells at a time. `a`'s leading
    shape ends with fac's leading shape."""
    d = u.shape[0]
    fac = fac.reshape(-1, d)
    x = a.reshape(-1, len(fac), d)
    e = x.shape[0]
    step = max(1, _BLOCK_CELLS // (d * max(d, e)))
    for s in range(0, len(fac), step):
        blk = fac[s:s + step]
        p = np.multiply(u[:, :, None], blk.T[:, None, :])
        q, tmp = np.empty_like(p), np.empty_like(p)
        rows = np.ascontiguousarray(x[:, s:s + step].transpose(2, 0, 1))
        out, rtmp = np.empty_like(rows), np.empty_like(rows)
        bits = n
        while True:
            if bits & 1:
                rows, out = _product(p, rows, out, rtmp), rows
            bits >>= 1
            if not bits:
                break
            p, q = _product(p, p, q, tmp), p
        x[:, s:s + step] = rows.transpose(1, 2, 0)


def _sliced(u, states: np.ndarray, weights, factor, out: np.ndarray | None = None) -> np.ndarray:
    """Sliced evolution of a stack of rows: slice j applies the slice map u
    to each row, then multiplies by the diagonal factor(weights[j]).
    `states` broadcasts against the factor's shape (one start row serves
    every lambda; (d, 1, d) identity columns give the propagators); the
    rows evolve in `out` if given, which may be `states` itself.

    u is a callable that maps a row stack in place (the lattice's FFT
    kinetic step), or a d x d matrix, applied to rows of interleaved
    (re, im) pairs as the real form of u.T, two buffers taking turns. The
    factor is built once per run of equal weights. A matrix run of n
    slices with _power_pays(n, d) applies (diag(factor) u)^n by binary
    powering (_power_rows); every other run loops the slice map.
    """
    weights = np.asarray(weights)
    rows = weights.reshape(len(weights), -1)
    starts = np.flatnonzero(np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1))))
    fac = factor(weights[0])
    a = np.empty(np.broadcast_shapes(np.shape(states), fac.shape), complex) if out is None else out
    a[...] = states
    step = u
    if not callable(u):
        uT, pair = _real_form(u.T), (a, np.empty_like(a))
        flat = [z.reshape(-1, u.shape[0]).view(np.float64) for z in pair]

        def step(src):
            i = src is pair[1]
            np.matmul(flat[i], uT, out=flat[1 - i])
            return pair[1 - i]

    for j, n in zip(starts, np.diff(np.append(starts, len(weights)))):
        if j:
            fac = factor(weights[j])
        n = int(n)
        if not callable(u) and n > 1 and _power_pays(n, u.shape[0]):
            if a.shape[a.ndim - fac.ndim:] != fac.shape:
                fac = np.broadcast_to(fac, a.shape)
            _power_rows(u, fac, n, a)
        else:
            for _ in range(n):
                a = step(a)
                np.multiply(a, fac, out=a)
    if out is not None and a is not out:  # a matrix map's spare buffer holds the rows
        out[...] = a
    return a if out is None else out


def _coupled(H, decomp: SpectralDecomposition, grid: TimeGrid, W: np.ndarray,
             lam_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sliced evolution of eigenbasis rows coupled to the histories
    lam_rows @ W, lam_rows of shape (..., M): each slice j applies
    exp(-i H eps), then exp(-i (lam_rows @ W[:, j]) A). `rows` broadcasts
    against lam_rows' leading shape plus the component axis."""
    return _sliced(_slice_transfer(H, decomp, grid), rows, W.T,
                   lambda w: np.exp(-1j * ((lam_rows @ w)[..., None] * decomp.eigenvalues)))


def _to_readout(values: np.ndarray, grids) -> np.ndarray:
    """Lambda samples to readout field: per axis, centred inverse DFT x dlam/2pi."""
    for i, g in enumerate(grids):
        values = centered_idft(values, axis=i)
        values *= g.dlam / (2 * np.pi)
    return values


def _to_lambda(values: np.ndarray, grids) -> np.ndarray:
    """Readout field to lambda samples (inverse of _to_readout): centred DFT x df."""
    for i, g in enumerate(grids):
        values = centered_dft(values, axis=i) * g.df
    return values


def lambda_evolve(H, A, grid: TimeGrid, betas, lambdas, psi0) -> np.ndarray:
    """Evolution with meter couplings folded in per slice.

    Returns prod_j exp(-i (sum_i lambda_i w_ij) A) exp(-i H eps) |psi0>;
    an impulse meter contributes one exp(-i lambda A) factor on its
    slice, the others contribute Riemann-weighted phases.
    """
    betas = _as_betas(betas)
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if lambdas.size != len(betas):
        raise DimensionMismatch(
            f"{lambdas.size} lambda values for {len(betas)} meters"
        )
    decomp = _as_decomp(A)
    W = np.stack([slice_weights(b, grid) for b in betas])
    out = _coupled(H, decomp, grid, W, lambdas[None, :],
                   decomp.to_eigenbasis(psi0)[None, :])[0]
    return decomp.from_eigenbasis(out)


def _attainable_range(W: np.ndarray, eigenvalues: np.ndarray):
    """Per-meter [min, max] of sum_j w_j a(t_j) over all eigenpaths."""
    lo = np.where(W >= 0, W * eigenvalues.min(), W * eigenvalues.max()).sum(axis=1)
    hi = np.where(W >= 0, W * eigenvalues.max(), W * eigenvalues.min()).sum(axis=1)
    return lo, hi


def _check_grids(W: np.ndarray, eigenvalues: np.ndarray, lgrids) -> None:
    a_max = float(np.abs(eigenvalues).max())
    lo, hi = _attainable_range(W, eigenvalues)
    for i, g in enumerate(lgrids):
        w_max = float(np.abs(W[i]).max())
        if g.dlam * w_max * a_max > np.pi * (1 + 1e-12):
            raise NyquistViolation(
                f"meter {i}: dlam={g.dlam:.4g} too coarse for per-slice "
                f"increment {w_max * a_max:.4g}; need dlam <= "
                f"{np.pi / (w_max * a_max):.4g}"
            )
        f_lo = -(g.n_points // 2) * g.df
        f_hi = (g.n_points // 2 - 1) * g.df
        if lo[i] < f_lo - 1e-12 or hi[i] > f_hi + 1e-12:
            raise GridTooSmall(
                f"meter {i}: attainable values [{lo[i]:.4g}, {hi[i]:.4g}] "
                f"exceed readout range [{f_lo:.4g}, {f_hi:.4g}]"
            )


def aligned_grid(beta: SwitchingFunction, grid: TimeGrid,
                 decomp, L: int, margin_bins: int | None = None) -> LambdaGrid:
    """Readout grid whose nodes hit every attainable functional value.

    Works when the nonzero slice weights are uniform and the eigenvalue
    gaps are integer multiples of the smallest gap: attainable values
    then form the lattice {offset + m * w * gap}. Picks the finest df
    that still covers the attainable range with `margin_bins` spare bins
    per side; the default keeps a quarter of the grid free on each side
    so circular convolution with resolved kernels cannot wrap.
    """
    if margin_bins is None:
        margin_bins = max(2, L // 4)
    decomp = _as_decomp(decomp)
    w = slice_weights(beta, grid)
    a = decomp.eigenvalues
    nz = w[np.abs(w) > 0]
    if nz.size == 0:
        raise GridTooSmall("switching function is identically zero")
    wc = nz[0]
    if not np.allclose(nz, wc, rtol=1e-12, atol=0):
        raise GridTooSmall("slice weights are not uniform; no alignment lattice")
    # repeated eigenvalues collapse onto one lattice point, so the lattice
    # is set by the distinct values only
    scale = max(float(np.abs(a).max()), 1e-300)
    distinct = a[np.concatenate(([True], np.diff(a) > 1e-9 * scale))]
    if distinct.size < 2:
        raise GridTooSmall("all eigenvalues coincide; no alignment lattice")
    gaps = np.diff(distinct)
    g = float(gaps.min())
    if g <= 0 or not np.allclose(gaps / g, np.round(gaps / g), atol=1e-9):
        raise GridTooSmall("eigenvalue gaps not commensurate; no alignment lattice")
    d = abs(wc) * g
    lo, hi = _attainable_range(w[None, :], a)
    lo, hi = float(lo[0]), float(hi[0])

    k_cov = np.inf
    if hi > 0:
        k_cov = min(k_cov, (L // 2 - 1 - margin_bins) * d / hi)
    if lo < 0:
        k_cov = min(k_cov, (L // 2 - margin_bins) * d / (-lo))
    k_max = int(min(k_cov, 4 * L))
    for k in range(max(k_max, 0), 0, -1):
        df = d / k
        if abs(lo / df - np.round(lo / df)) < 1e-9:
            return LambdaGrid.from_df(L, df)
    raise GridTooSmall(
        f"no grid of {L} points covers [{lo:.4g}, {hi:.4g}] on the "
        f"attainable lattice (spacing {d:.4g})"
    )


def _lambda_states(H, A, grid, betas, lgrids, psi0) -> np.ndarray:
    """Raw coupled evolutions over the full lambda product grid,
    shape (L_1, ..., L_M, dim), once the grids pass _check_grids."""
    betas = _as_betas(betas)
    decomp = _as_decomp(A)
    lgrids = _as_grids(lgrids, len(betas))
    W = np.stack([slice_weights(b, grid) for b in betas])
    _check_grids(W, decomp.eigenvalues, lgrids)
    shape = tuple(g.n_points for g in lgrids)
    if int(np.prod(shape)) > _MAX_GRID_POINTS:
        raise GridTooSmall(f"lambda product grid of {np.prod(shape)} points is too large")
    mesh = np.meshgrid(*[g.lam for g in lgrids], indexing="ij")
    lam_rows = np.stack([m.reshape(-1) for m in mesh], axis=1)  # (G, M)
    states = _coupled(H, decomp, grid, W, lam_rows, decomp.to_eigenbasis(psi0))
    states = states @ decomp.eigenvectors.T
    return states.reshape(shape + (decomp.dim,))


def amplitude_field(H, A, grid: TimeGrid, betas, lgrids, psi0) -> AmplitudeField:
    """Fine-grained amplitude field over the readout product grid.

    Evolves on every lambda grid point and inverse-transforms each meter
    axis with weight dlam_i / (2 pi), so the field obeys the marginal
    completeness identity sum_f field * cell = undisturbed state.
    """
    lgrids = _as_grids(lgrids, len(_as_betas(betas)))
    states = _lambda_states(H, A, grid, betas, lgrids, psi0)
    return AmplitudeField(lgrids, _to_readout(states, lgrids), kind="fine")


@dataclass(frozen=True)
class CoarseGrainKernel:
    """Convolution kernel for the readout field.

    gaussian(widths)        exp(-sum_i f_i^2 / width_i^2), normalizable
    shift(offsets)          translates pointer zeros, unitary
    quadratic_phase(curvs)  free pointer spreading exp(-i b lambda^2), unitary
    custom(samples)         arbitrary square-integrable samples on the grid
    """

    kind: str
    grids: tuple
    params: tuple = ()
    samples: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "grids", tuple(self.grids))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        M = len(self.grids)
        if self.kind in ("gaussian", "shift", "quadratic_phase"):
            if len(self.params) != M:
                raise GridMismatch(f"{len(self.params)} params for {M} meters")
        if self.kind == "gaussian" and any(p <= 0 for p in self.params):
            raise ValueError("gaussian widths must be positive")
        if self.kind == "custom":
            shape = tuple(g.n_points for g in self.grids)
            if self.samples is None or self.samples.shape != shape:
                raise GridMismatch("custom kernel samples must cover the grid")

    @classmethod
    def gaussian(cls, grids, widths) -> "CoarseGrainKernel":
        return cls("gaussian", _tuple_grids(grids), tuple(np.atleast_1d(widths)))

    @classmethod
    def shift(cls, grids, offsets) -> "CoarseGrainKernel":
        return cls("shift", _tuple_grids(grids), tuple(np.atleast_1d(offsets)))

    @classmethod
    def quadratic_phase(cls, grids, curvatures) -> "CoarseGrainKernel":
        return cls("quadratic_phase", _tuple_grids(grids),
                   tuple(np.atleast_1d(curvatures)))

    @classmethod
    def custom(cls, grids, samples) -> "CoarseGrainKernel":
        return cls("custom", _tuple_grids(grids), (),
                   np.asarray(samples, dtype=complex))

    @property
    def normalizable(self) -> bool:
        return self.kind in ("gaussian", "custom")

    def symbol(self) -> np.ndarray:
        """Multiplier in lambda space, int df e^{-i lambda f} G(f)."""
        axes = []
        for i, g in enumerate(self.grids):
            lam = g.lam
            if self.kind == "gaussian":
                wdt = self.params[i]
                axes.append(wdt * np.sqrt(np.pi) * np.exp(-(lam * wdt) ** 2 / 4))
            elif self.kind == "shift":
                axes.append(np.exp(-1j * self.params[i] * lam))
            elif self.kind == "quadratic_phase":
                axes.append(np.exp(-1j * self.params[i] * lam**2))
        if self.kind == "custom":
            return _to_lambda(self.samples, self.grids)
        out = axes[0]
        for ax in axes[1:]:
            out = np.multiply.outer(out, ax)
        return out

    def f_samples(self) -> np.ndarray:
        """Readout-space samples G(f); only for normalizable kernels."""
        if self.kind == "gaussian":
            axes = [np.exp(-(g.f / self.params[i]) ** 2)
                    for i, g in enumerate(self.grids)]
            out = axes[0]
            for ax in axes[1:]:
                out = np.multiply.outer(out, ax)
            return out.astype(complex)
        if self.kind == "custom":
            return self.samples
        raise FineFieldNotNormalizable(
            f"{self.kind} kernel has no square-integrable sample representation"
        )

    def squared_mass(self) -> float:
        """int |G(f)|^2 df on the grid."""
        cell = float(np.prod([g.df for g in self.grids]))
        return float(np.sum(np.abs(self.f_samples()) ** 2) * cell)


def _tuple_grids(grids):
    if isinstance(grids, LambdaGrid):
        return (grids,)
    return tuple(grids)


def _same_grids(a, b) -> bool:
    return len(a) == len(b) and all(
        ga.n_points == gb.n_points and np.isclose(ga.dlam, gb.dlam, rtol=1e-12)
        for ga, gb in zip(a, b)
    )


def coarse_grain(field: AmplitudeField, kernel: CoarseGrainKernel) -> AmplitudeField:
    """Convolve the field with the kernel along every meter axis.

    Implemented as multiplication by the kernel's lambda-space symbol
    (circular convolution on the periodic grid). Square-integrable
    kernels yield a coarse field; unitary kernels keep the input's kind.
    """
    if not _same_grids(field.grids, kernel.grids):
        raise GridMismatch("kernel and field live on different grids")
    sym = kernel.symbol()
    states = _to_lambda(field.states, field.grids) * sym.reshape(sym.shape + (1,))
    states = _to_readout(states, field.grids)
    kind = "coarse" if kernel.normalizable else field.kind
    return AmplitudeField(field.grids, states, kind)


@dataclass(frozen=True)
class ProbabilityTable:
    """Pointer readout distribution W(f) >= 0 with its quadrature cell."""

    grids: tuple
    weights: np.ndarray
    cell: float

    def total_mass(self) -> float:
        return float(self.weights.sum() * self.cell)


def probabilities(field: AmplitudeField) -> ProbabilityTable:
    """W(f) = <state(f)|state(f)> for a coarse-grained field.

    Fine fields are delta combs with divergent normalisation and are
    rejected. The total mass equals int |G|^2 df x |psi0|^2 for the
    kernel G that produced the field.
    """
    if field.kind != "coarse":
        raise FineFieldNotNormalizable(
            "fine fields are delta combs; coarse-grain before forming probabilities"
        )
    W = np.sum(np.abs(field.states) ** 2, axis=-1)
    return ProbabilityTable(field.grids, W, field.cell)


def fourier_consistency_check(field: AmplitudeField, H, A, grid: TimeGrid,
                              betas) -> float:
    """Max residual between the field's forward transform and fresh
    coupled evolutions on the lambda grid.

    The forward transform of a fine readout field must reproduce, point
    by point, the evolution driven by the coupling history
    lambda(t) = sum_i lambda_i beta_i(t). The initial state is recovered
    from the field itself: the marginal is the undisturbed evolution of
    psi0, which is inverted by the N-th power of the adjoint slice map.
    """
    if field.kind != "fine":
        raise ValueError("consistency check is defined for fine fields")
    decomp = _as_decomp(A)
    lam_states = _to_lambda(field.states, field.grids)
    u = _slice_transfer(H, decomp, grid)
    psi0_eig = np.linalg.matrix_power(u.conj().T, grid.steps) @ decomp.to_eigenbasis(
        field.marginal())
    psi0 = decomp.from_eigenbasis(psi0_eig)
    direct = _lambda_states(H, decomp, grid, betas, field.grids, psi0)
    return float(np.max(np.linalg.norm(lam_states - direct, axis=-1)))


def marginal_residual(field: AmplitudeField, reference_state) -> float:
    """|sum_f field * cell - reference| (completeness check)."""
    ref = as_state(reference_state, field.states.shape[-1])
    return float(np.linalg.norm(field.marginal() - ref))


# complex cells of the spike images and their fold for one block of bins
_IMAGE_CELLS = 2**16


def _spike_image(g: LambdaGrid, keys: np.ndarray) -> np.ndarray:
    """(L, B) field x df of unit spikes at `keys` through g's lambda band:
    (1/L) sum_lambda e^{i lambda x}, x = f - F, a periodic sinc that is 1 at
    x = 0 and 0 at every other node."""
    x = g.f[:, None] - keys
    y = x / (g.n_points * g.df)
    return np.exp(-1j * np.pi * y) * np.sinc(x / g.df) / np.sinc(y)


def binned_field_residual(field: AmplitudeField, binned: BinnedAmplitudes) -> float:
    """Agreement between a fine field and path-binned amplitudes, keys on
    grid nodes or not: the max over nodes of |field * cell - sum_a psi_a
    prod_i K_i(f_i - F_a,i)|, K_i meter i's _spike_image. Per block of bins
    the leading axes' images fold into one Khatri-Rao matrix, so each
    component is one matrix product with the last axis' image.
    """
    if field.n_meters != binned.f_values.shape[1]:
        raise GridMismatch("field and bins have different meter counts")
    shape = field.states.shape
    d, lead = shape[-1], int(np.prod(shape[:-2]))
    image = np.zeros((d, lead, shape[-2]), complex)
    step = max(1, _IMAGE_CELLS // ((d + 1) * lead + sum(shape[:-1])))
    for s in range(0, binned.n_bins, step):
        keys = binned.f_values[s:s + step]
        images = [_spike_image(g, keys[:, i]) for i, g in enumerate(field.grids)]
        fold = np.ones((1, len(keys)))
        for k in images[:-1]:
            fold = (fold[:, None, :] * k).reshape(-1, len(keys))
        image += (fold * binned.states[s:s + step].T[:, None, :]) @ images[-1].T
    res = field.states * field.cell - np.moveaxis(image, 0, -1).reshape(shape)
    return float(np.max(np.linalg.norm(res, axis=-1)))


def resolution_rescale(kernel: CoarseGrainKernel, alpha: float) -> CoarseGrainKernel:
    """G(f) -> G(alpha f): alpha > 1 sharpens the meter.

    The sharpened measurement is equivalent to the original kernel with
    the meter coupling amplified alpha-fold, after relabelling readouts
    f -> f/alpha and renormalising the mass by alpha^M.
    """
    if not (alpha > 0):
        raise NonPositiveAlpha(f"rescale factor must be > 0, got {alpha}")
    if kernel.kind != "gaussian":
        raise ValueError("resolution rescale is defined for gaussian kernels")
    widths = tuple(wdt / alpha for wdt in kernel.params)
    return CoarseGrainKernel.gaussian(kernel.grids, widths)
