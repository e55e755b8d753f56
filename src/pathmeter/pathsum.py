"""Eigenpath enumeration, path amplitudes and restricted sums.

An eigenpath assigns one eigenvalue index of the measured observable to
every time slice. Its amplitude operator is the left-ordered product

    P_{k_N} U_eps ... P_{k_1} U_eps,    U_eps = exp(-i H eps),

(slice 1 acts first). Because each projector is rank one, a path's
substate is always amp * |a_{k_N}>, with amp a telescoping product of
one-slice transition elements in the observable's eigenbasis.

Restricted sums run over every path that shares a key: the meter
functional F = sum_j w_j a(t_j), the number of jumps, or nothing (the
complete sum, which reproduces the sliced propagator). Path sums are
associative, so the engine never lists the dim**N paths. It carries
classes (partial key, end label) -> summed amplitude through the slices
and merges classes that agree after every slice, the direct-space dual
of the pointer (lambda) route. Commensurate eigenvalues keep the class
count polynomial in N; generic values merge nothing and cost as much as
listing the paths. Grouping by jumps recovers the nested time-ordered
perturbation series in the off-diagonal coupling.

Every binned sum goes through _binned, which holds the one bin-tolerance
rule: per meter i, BIN_TOL_FACTOR times its largest key increment
|w_ij F(a_l)|, so it scales with that meter's keys. Every reduction runs
in a fixed order, so results are reproducible bit for bit for a given
configuration.
enumerate_eigenpaths and path_amplitude stay as the literal
one-path-at-a-time oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroSubstates,
    CapExceeded,
    DegenerateSpectrum,
    DimensionMismatch,
    QuadratureBudgetExceeded,
)
from .hilbert import (
    SpectralDecomposition,
    as_state,
    exact_propagator,
    require_hermitian,
)
from .timegrid import PathFunctionalSpec, TimeGrid

PATH_CAP = 2**22  # most candidate classes a path sum may hold after any slice
MAX_QUADRATURE_CELLS = 2**22
BIN_TOL_FACTOR = 1e-6  # bin tolerance per unit of a meter's largest key increment
SNAP_SPREAD = 1e-6  # column clusters narrower than this times bin_tol are one value


@dataclass(frozen=True)
class EigenPath:
    """One history: eigenvalue index per time slice."""

    indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(k) for k in self.indices))

    @property
    def jump_count(self) -> int:
        return sum(a != b for a, b in zip(self.indices, self.indices[1:]))


@dataclass(frozen=True)
class PathAmplitude:
    path: EigenPath
    state: np.ndarray
    jump_count: int


@dataclass(frozen=True)
class BinnedAmplitudes:
    """Path amplitudes grouped by quantised meter-functional values.

    `f_values` has one row per bin (columns = meters), lexicographically
    ordered; `states` holds the coherent sum of the member substates;
    `bin_tol` holds one tolerance per column.
    """

    f_values: np.ndarray
    states: np.ndarray
    bin_tol: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.f_values.shape[0]

    def total(self) -> np.ndarray:
        # pairwise summation runs along the contiguous axis only
        return np.ascontiguousarray(self.states.T).sum(axis=1)

    def state_at(self, f, tol=None) -> np.ndarray:
        """State of the bin whose key matches `f` within tol (per column)."""
        f = np.atleast_1d(np.asarray(f, dtype=float))
        tol = self.bin_tol if tol is None else tol
        hit = np.all(np.abs(self.f_values - f[None, :]) <= tol, axis=1)
        where = np.flatnonzero(hit)
        if where.size != 1:
            raise KeyError(f"no unique bin at f={f} (matches: {where.size})")
        return self.states[where[0]]


def _require_labeling(decomp: SpectralDecomposition):
    if decomp.degenerate:
        raise DegenerateSpectrum(
            "observable spectrum is degenerate; relabel through a function "
            "of the observable instead of raw eigenpath labels"
        )


def _slice_transfer(H, decomp: SpectralDecomposition, grid: TimeGrid):
    """One-slice propagator in the labeling eigenbasis, plus psi0 hook."""
    H = require_hermitian(H, "Hamiltonian")
    if H.shape[0] != decomp.dim:
        raise DimensionMismatch(
            f"Hamiltonian dim {H.shape[0]} vs observable dim {decomp.dim}"
        )
    u_full = exact_propagator(H, grid.eps)
    return decomp.eigenvectors.conj().T @ u_full @ decomp.eigenvectors


def enumerate_eigenpaths(dim: int, grid: TimeGrid):
    """Yield all dim**N eigenpaths in lexicographic order."""
    if dim < 2:
        raise ValueError(f"need dim >= 2 to label paths, got {dim}")
    if dim**grid.steps > PATH_CAP:
        raise CapExceeded(dim**grid.steps, PATH_CAP)
    for indices in itertools.product(range(dim), repeat=grid.steps):
        yield EigenPath(indices)


def path_amplitude(H, decomp: SpectralDecomposition, grid: TimeGrid, path,
                   psi0) -> PathAmplitude:
    """Substate of a single eigenpath, by the literal projector product."""
    _require_labeling(decomp)
    H = require_hermitian(H, "Hamiltonian")
    if H.shape[0] != decomp.dim:
        raise DimensionMismatch(
            f"Hamiltonian dim {H.shape[0]} vs observable dim {decomp.dim}"
        )
    path = path if isinstance(path, EigenPath) else EigenPath(path)
    if len(path.indices) != grid.steps:
        raise DimensionMismatch(
            f"path length {len(path.indices)} vs {grid.steps} slices"
        )
    if any(not 0 <= k < decomp.dim for k in path.indices):
        raise DimensionMismatch(
            f"path indices must lie in [0, {decomp.dim})"
        )
    u_eps = exact_propagator(H, grid.eps)
    psi = as_state(psi0, decomp.dim)
    for k in path.indices:
        psi = u_eps @ psi
        v = decomp.eigenvectors[:, k]
        psi = v * (v.conj() @ psi)
    return PathAmplitude(path, psi, path.jump_count)


def path_sum_total(H, decomp: SpectralDecomposition, grid: TimeGrid, psi0) -> np.ndarray:
    """Coherent sum over every eigenpath; equals exp(-iHT) psi0."""
    _require_labeling(decomp)
    u = _slice_transfer(H, decomp, grid)
    _, states = _class_sum(u, u @ decomp.to_eigenbasis(psi0), grid.steps)
    return decomp.from_eigenbasis(states.sum(axis=0))


def _cluster_columns(F: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Quantise each column into gap-separated clusters.

    Assumes genuinely distinct functional values are separated by much
    more than the column's tol[i] (they live on the attainable-value
    lattice), so a gap split on the sorted column is unambiguous. Returns
    integer cluster ids per row, increasing with the column value.
    """
    P, M = F.shape
    ids = np.empty((P, M), dtype=np.int64)
    for i in range(M):
        order = np.argsort(F[:, i], kind="stable")
        starts = np.empty(P, dtype=bool)
        starts[0] = True
        np.greater(np.diff(F[order, i]), tol[i], out=starts[1:])
        ids[order, i] = np.cumsum(starts) - 1
    return ids


def _snap(keys: np.ndarray, ids: np.ndarray, bins: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Every row's float key replaced by one representative per bin.

    A column cluster that spans at most SNAP_SPREAD * tol[i] holds one
    attainable value up to rounding, and all its rows get the cluster
    mean. A wider cluster chains distinct values, and each bin (the full
    cluster-id tuple) gets the mean over its own rows. Columns are summed
    in ascending value order, so a bin that is one column cluster gets the
    same value either way.
    """
    out = np.empty_like(keys)
    for i in range(keys.shape[1]):
        order = np.argsort(keys[:, i], kind="stable")
        col, cid = keys[order, i], ids[order, i]
        starts = np.flatnonzero(np.diff(cid, prepend=-1))
        wide = col[np.append(starts[1:], col.size) - 1] - col[starts] > SNAP_SPREAD * tol[i]
        group = np.where(wide[cid], starts.size + bins[order], cid)
        out[order, i] = np.bincount(group, weights=col)[group] / np.bincount(group)[group]
    return out


def _merge(keys, ends, amps, tol, snap):
    """Sum the classes that share a key and an end label; drop exact zeros.

    A merged float key is the mean of its members, so an unmerged class
    keeps its exact partial key; snap=True replaces every float key by a
    representative of its bin (all classes with the same cluster ids,
    whatever their end labels) instead, see _snap, which makes the keys of
    a bin bit-identical.
    """
    ids = keys
    if keys.dtype.kind == "f" and keys.size:
        ids = _cluster_columns(keys, tol)
    order = np.lexsort((ends, *ids.T[::-1]))
    ids, keys, ends, amps = ids[order], keys[order], ends[order], amps[order]
    new_bin = np.ones(ends.size, dtype=bool)
    new_bin[1:] = np.any(ids[1:] != ids[:-1], axis=1)
    first = new_bin.copy()
    first[1:] |= ends[1:] != ends[:-1]
    starts = np.flatnonzero(first)
    amps = np.add.reduceat(amps, starts)
    if keys.dtype.kind != "f" or not keys.size:
        keys = keys[starts]
    elif snap:
        keys = _snap(keys, ids, np.cumsum(new_bin) - 1, tol)[starts]
    else:
        keys = np.add.reduceat(keys, starts) / np.diff(np.append(starts, ends.size))[:, None]
    keep = amps != 0
    return keys[keep], ends[starts][keep], amps[keep]


def _class_sum(u, v0, steps: int, inc=None, tol=0.0):
    """Restricted path sums by prefix classes: the engine behind every sum.

    A class (key, end label l) holds the summed amplitude of every history
    that ends on l with that partial key. Slice 1 seeds class (inc[0, 0, l],
    l) with amplitude v0[l]; each later slice j sends (k, l) to
    (k + inc[j, l, l'], l') with factor u[l', l]. After every slice,
    classes with equal end labels and keys merge: float keys by gap
    clustering within tol, one value or one per key column (snapped to one
    value per bin after the last slice), integer keys only when exactly
    equal. `inc` broadcasts to (steps, d, d, M); None means no key (M = 0).
    PATH_CAP bounds the candidate classes of the next slice, which equal
    the paths when nothing merges. Returns the distinct keys (K, M), in
    lexicographic order, and the summed states (K, d) in the labeling
    basis.
    """
    d = u.shape[0]
    inc = np.zeros((1, 1, 1, 0), dtype=np.int64) if inc is None else inc
    M = inc.shape[-1]
    inc = np.broadcast_to(inc, (steps, d, d, M))
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (M,))
    keys = np.zeros((1, M), dtype=inc.dtype)
    ends = np.zeros(1, dtype=np.int64)
    amps = np.ones(1, dtype=np.result_type(u, v0))
    for j in range(steps):
        n = ends.size * d
        if n > PATH_CAP:
            raise CapExceeded(n, PATH_CAP)
        step = u.T if j else v0[None, :]
        keys = (keys[:, None, :] + inc[j][ends]).reshape(n, M)
        amps = (amps[:, None] * step[ends]).reshape(n)
        ends = np.tile(np.arange(d), ends.size)
        keys, ends, amps = _merge(keys, ends, amps, tol, snap=j == steps - 1)
    # one row per key, in lexicographic order (cluster ids can chain values
    # closer than tol). Classes of different bins can snap to one key with
    # one end label: they are summed, and a class alone in its (key, end)
    # slot keeps its bits.
    order = np.lexsort((ends, *keys.T[::-1]))
    keys, ends, amps = keys[order], ends[order], amps[order]
    first = np.ones(ends.size, dtype=bool)
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    slot = first.copy()
    slot[1:] |= ends[1:] != ends[:-1]
    starts = np.flatnonzero(slot)
    states = np.zeros((int(first.sum()), d), dtype=amps.dtype)
    states[(np.cumsum(first) - 1)[starts], ends[starts]] = np.add.reduceat(amps, starts)
    return keys[first], states


def _binned(u, v0, steps: int, weights, values, basis=None) -> BinnedAmplitudes:
    """Path sum binned by the meter functionals F_i = sum_j w_ij values[l_j].

    The bin tolerance of meter i is BIN_TOL_FACTOR times its largest key
    increment |w_ij values[l]|: it absorbs float non-associativity at the
    scale of that meter's keys without merging distinct lattice values,
    whatever the scale of the other meters. `basis` maps the states out
    of the labeling basis (None keeps them there).
    """
    inc = np.atleast_2d(weights).T[:, None, :] * np.asarray(values, float)[:, None]
    tol = BIN_TOL_FACTOR * np.abs(inc).max(axis=(0, 1))
    keys, states = _class_sum(u, v0, steps, inc[:, None], tol)
    return BinnedAmplitudes(keys, states if basis is None else states @ basis.T, tol)


def binned_measurement_amplitude(H, decomp: SpectralDecomposition,
                                 grid: TimeGrid, psi0,
                                 spec: PathFunctionalSpec) -> BinnedAmplitudes:
    """Group path substates by their meter-functional values.

    Bin keys are the quantised values F_i = sum_j w_ij a(t_j); the bins
    partition the path set, so summing all bin states reproduces
    path_sum_total up to summation-order rounding.
    """
    return relabel_by_function(H, decomp, grid, psi0, spec, lambda a: a)


def relabel_by_function(H, decomp: SpectralDecomposition, grid: TimeGrid,
                        psi0, spec: PathFunctionalSpec, eigenvalue_map) -> BinnedAmplitudes:
    """Restricted sum for a function of the observable.

    `eigenvalue_map` maps each eigenvalue a_k to the measured value
    F(a_k); paths are re-grouped by sum_j w_j F(a(t_j)). Degenerate maps
    merge histories (their substates add coherently); a constant map
    collapses everything into a single bin holding the full evolved
    state. Re-grouping needs path-level keys, so this reruns the class
    sum with the mapped values rather than regrouping existing bins.
    """
    _require_labeling(decomp)
    if spec.grid != grid:
        raise DimensionMismatch("functional spec built on a different time grid")
    mapped = [eigenvalue_map(a) for a in decomp.eigenvalues]
    u = _slice_transfer(H, decomp, grid)
    return _binned(u, u @ decomp.to_eigenbasis(psi0), grid.steps,
                   spec.weight_matrix(), mapped, decomp.eigenvectors)


def group_paths_by_jumps(H, decomp: SpectralDecomposition, grid: TimeGrid,
                         psi0) -> dict:
    """Partial path sums keyed by the number of jumps along the path."""
    _require_labeling(decomp)
    N, d = grid.steps, decomp.dim
    u = _slice_transfer(H, decomp, grid)
    # key increment [l != l'] on every slice after the first
    jumps = (np.arange(N) > 0)[:, None, None, None] * (1 - np.eye(d, dtype=np.int64))[..., None]
    keys, states = _class_sum(u, u @ decomp.to_eigenbasis(psi0), N, jumps)
    by_count = np.zeros((N, d), dtype=complex)
    by_count[keys[:, 0]] = states
    states = by_count @ decomp.eigenvectors.T
    return {n: states[n] for n in range(N)}


def jump_series_term(H0, V, T: float, n: int, n_q: int = 64,
                     literal_full_h: bool = False) -> np.ndarray:
    """n-th nested time-ordered integral of the jump expansion.

    Term n is (-i)^n integral over 0 <= t_1 <= ... <= t_n <= T of
    exp(-i H0 (T-t_n)) V ... V exp(-i H0 t_1). The free evolution between
    jumps uses the diagonal part H0 (set literal_full_h=True to put the
    full H0+V in the exponents instead). The rule is the trapezoid product
    grid restricted to the ordered simplex, n_q nodes per axis, with a
    1/r! weight on every run of r equal nodes (the simplex measure on the
    faces shared by several cube cells).

    In the interaction picture U(t_a - t_b) = U(t_a) U(t_b)^dag, so the
    sum over node tuples is a recursion over (last node i, length r of the
    last run) with A_i = w_i U(t_i)^dag V U(t_i): each order either starts
    a run on i from the strict prefix sum over earlier nodes, or extends
    the run on i by A_i / (r+1). Work and memory grow as n * n_q * d^2;
    QuadratureBudgetExceeded is raised before allocating when that many
    cells exceed MAX_QUADRATURE_CELLS.
    """
    H0 = require_hermitian(H0, "H0")
    V = np.asarray(V, dtype=complex)
    if V.shape != H0.shape:
        raise DimensionMismatch(f"V shape {V.shape} vs H0 shape {H0.shape}")
    if n < 0:
        raise ValueError("order must be >= 0")
    H_exp = H0 + V if literal_full_h else H0
    if n == 0:
        return exact_propagator(H_exp, T)
    if n_q < 2:
        raise ValueError("need at least 2 quadrature points per axis")
    cells = n * n_q * V.size
    if cells > MAX_QUADRATURE_CELLS:
        raise QuadratureBudgetExceeded(
            f"{cells} recursion cells at order {n}, n_q={n_q} "
            f"(budget {MAX_QUADRATURE_CELLS})"
        )

    h = T / (n_q - 1)
    w = np.full(n_q, h)
    w[0] = w[-1] = h / 2
    vals, vecs = np.linalg.eigh(H_exp)
    phases = np.exp(-1j * np.outer(np.arange(n_q) * h, vals))  # (n_q, d)
    props = np.einsum("ak,tk,bk->tab", vecs, phases, vecs.conj())
    A = w[:, None, None] * (props.conj().transpose(0, 2, 1) @ V @ props)

    runs = A[:, None]  # (node, run length - 1, d, d)
    for k in range(1, n):
        before = np.zeros_like(A)  # strict prefix sums over earlier nodes
        np.cumsum(runs[:-1].sum(axis=1), axis=0, out=before[1:])
        runs = np.concatenate(
            [(A @ before)[:, None], A[:, None] @ runs / np.arange(2, k + 2)[:, None, None]],
            axis=1)
    return (-1j) ** n * props[-1] @ runs.sum(axis=(0, 1))


def two_slit_weights(substates) -> np.ndarray:
    """Exclusive-route probabilities from substate norms.

    W_n = <phi_n|phi_n> / sum_m <phi_m|phi_m>; the splitter/recombiner
    picture where decohered routes are weighted by their squared norms.
    """
    states = [as_state(s) for s in substates]
    if not states:
        raise AllZeroSubstates("no substates given")
    norms = np.array([float(np.vdot(s, s).real) for s in states])
    total = norms.sum()
    if total <= 0.0:
        raise AllZeroSubstates("all substates have zero norm")
    return norms / total
