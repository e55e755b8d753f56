"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured value and pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
All tolerances are fixed here; nothing is calibrated at runtime.
"""

import time

import numpy as np
import pytest

from pathmeter import hilbert, mensky, meters, particle1d, pathsum, timegrid, transforms
from pathmeter.meters import CoarseGrainKernel, LambdaGrid
from pathmeter.mensky import MenskyConfig, ReadoutRecord
from pathmeter.particle1d import CoordinateFunctional, LatticeWavefunction
from pathmeter.timegrid import PathFunctionalSpec, SwitchingFunction, TimeGrid

QUBIT_H = np.array([[0.0, 0.5], [0.5, 1.0]], dtype=complex)
COORD_A = np.diag([1.0, 2.0]).astype(complex)
PSI0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
BETA_AVG = SwitchingFunction.constant(1.0)  # beta = 1/T at T = 1

# every fine field built in this suite is registered here together with
# its undisturbed reference state; criterion 3 sweeps the registry
FINE_FIELDS = []


def _register_field(name, field, reference):
    FINE_FIELDS.append((name, field, reference))
    return field


def report(criterion, name, value, tol, passed=None):
    passed = (value <= tol) if passed is None else passed
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:>2}] {name}: value={value:.3e} tol={tol:.1e} {status}")
    assert passed, f"criterion {criterion} ({name}): {value} vs {tol}"


@pytest.fixture(scope="module")
def coord_decomp():
    return hilbert.spectral_decompose(COORD_A)


@pytest.fixture(scope="module")
def grid12():
    return TimeGrid(1.0, 12)


def test_criterion_01_path_sum_completeness(coord_decomp, grid12):
    """4096-path sum reproduces the exact propagator, under a second."""
    t0 = time.perf_counter()
    total = pathsum.path_sum_total(QUBIT_H, coord_decomp, grid12, PSI0)
    elapsed = time.perf_counter() - t0
    exact = hilbert.exact_propagator(QUBIT_H, 1.0) @ PSI0
    res = float(np.linalg.norm(total - exact))
    report(1, "path-sum completeness", res, 1e-12)
    report(1, "runtime_seconds", elapsed, 1.0)


def test_criterion_02_dual_route_equivalence(coord_decomp, grid12):
    """Binned path amplitudes match the pointer-route field at every
    attainable readout, within five seconds."""
    t0 = time.perf_counter()
    spec = PathFunctionalSpec(grid12, (BETA_AVG,))
    bins = pathsum.binned_measurement_amplitude(
        QUBIT_H, coord_decomp, grid12, PSI0, spec)
    lg = meters.aligned_grid(BETA_AVG, grid12, coord_decomp, 256, margin_bins=2)
    field = meters.amplitude_field(QUBIT_H, coord_decomp, grid12, BETA_AVG, lg, PSI0)
    res = meters.binned_field_residual(field, bins)
    elapsed = time.perf_counter() - t0
    _register_field("dual-route qubit", field,
                    hilbert.exact_propagator(QUBIT_H, 1.0) @ PSI0)
    report(2, "binned paths vs pointer field", res, 1e-10)
    report(2, "runtime_seconds", elapsed, 5.0)


def test_criterion_04_probability_normalisation(coord_decomp, grid12):
    """Total readout mass equals int |G|^2 df times the state norm."""
    lg = meters.aligned_grid(BETA_AVG, grid12, coord_decomp, 256)
    field = meters.amplitude_field(QUBIT_H, coord_decomp, grid12, BETA_AVG, lg, PSI0)
    _register_field("finite-time qubit (criterion 4)", field,
                    hilbert.exact_propagator(QUBIT_H, 1.0) @ PSI0)
    kern = CoarseGrainKernel.gaussian((lg,), (0.15,))
    table = meters.probabilities(meters.coarse_grain(field, kern))
    expected = kern.squared_mass() * float(np.vdot(PSI0, PSI0).real)
    report(4, "readout mass identity", abs(table.total_mass() - expected), 1e-6)


def test_criterion_05_born_rule(coord_decomp):
    """Instantaneous meter on a free system: the two coarse bumps carry
    the squared amplitudes of the initial state."""
    grid = TimeGrid(1.0, 4)
    beta = SwitchingFunction.impulse(0.5)
    lg = LambdaGrid.from_df(512, 1.0 / 64.0)
    field = meters.amplitude_field(np.zeros((2, 2)), coord_decomp, grid, beta, lg, PSI0)
    _register_field("instantaneous comb", field, PSI0)
    out = meters.coarse_grain(field, CoarseGrainKernel.gaussian((lg,), (0.1,)))
    W = meters.probabilities(out).weights
    split = lg.f_index(1.5)
    low = W[:split].sum()
    high = W[split:].sum()
    report(5, "bump mass deviation from 1/2 (readout 1)",
           abs(low / (low + high) - 0.5), 1e-10)
    report(5, "bump mass deviation from 1/2 (readout 2)",
           abs(high / (low + high) - 0.5), 1e-10)


def test_criterion_06_perturbation_series(coord_decomp):
    """Nested-integral terms sum to the propagator; jump classes of the
    path sum converge to the matching terms at first order in 1/N."""
    H0 = np.diag([0.0, 1.0]).astype(complex)
    V = QUBIT_H - H0
    n_q = {1: 1024, 2: 256, 3: 128, 4: 64, 5: 32, 6: 16, 7: 12, 8: 8, 9: 8, 10: 6}
    total = pathsum.jump_series_term(H0, V, 1.0, 0)
    for n in range(1, 11):
        total = total + pathsum.jump_series_term(H0, V, 1.0, n, n_q=n_q[n])
    exact = hilbert.exact_propagator(QUBIT_H, 1.0)
    report(6, "series sum through order 10", float(np.abs(total - exact).max()), 1e-6)

    classes12 = pathsum.group_paths_by_jumps(QUBIT_H, coord_decomp, TimeGrid(1.0, 12), PSI0)
    classes24 = pathsum.group_paths_by_jumps(
        QUBIT_H, coord_decomp, TimeGrid(1.0, 24), PSI0)
    for n in range(4):
        term = pathsum.jump_series_term(H0, V, 1.0, n, n_q=n_q.get(n)) @ PSI0
        e12 = np.linalg.norm(classes12[n] - term)
        e24 = np.linalg.norm(classes24[n] - term)
        ratio = e12 / e24
        report(6, f"jump class {n} halving ratio", abs(ratio - 2.0), 0.3,
               passed=abs(ratio - 2.0) <= 0.3)


def test_criterion_07_record_conditioned_closed_form(coord_decomp, grid12):
    """Free-system record damping in closed form, and the per-slice weak
    meter construction agrees with the effective evolution on random
    records."""
    rec = ReadoutRecord.constant(grid12, 1.0)
    out = mensky.record_evolve(np.zeros((2, 2)), coord_decomp, grid12, rec,
                               MenskyConfig(1.0), PSI0)
    norm2 = float(np.vdot(out, out).real)
    expected = 0.5 + 0.5 * np.exp(-2.0)
    report(7, "closed-form record norm", abs(norm2 - expected), 1e-12)

    rng = np.random.default_rng(123)
    dev = 0.0
    for _ in range(100):
        rec = ReadoutRecord(grid12, rng.uniform(0.0, 3.0, size=12))
        a = mensky.record_evolve(QUBIT_H, coord_decomp, grid12, rec,
                                 MenskyConfig(1.0), PSI0)
        b = mensky.weak_meter_array(QUBIT_H, coord_decomp, grid12, 1.0, PSI0, rec)
        dev = max(dev, float(np.linalg.norm(a - b)))
    report(7, "effective evolution vs weak meter array", dev, 1e-13)


def test_criterion_08_weak_limit_scaling(coord_decomp, grid12):
    """Tube regularisation residual scales as sigma^2."""
    lg = meters.aligned_grid(BETA_AVG, grid12, coord_decomp, 256, margin_bins=2)
    res = mensky.weak_limit_check(QUBIT_H, coord_decomp, grid12, BETA_AVG,
                                  [2e-3, 1e-3, 5e-4], PSI0, lg)
    for a, b in zip(res, res[1:]):
        report(8, "sigma-halving residual ratio", abs(a / b - 4.0), 0.6,
               passed=abs(a / b - 4.0) <= 0.6)


def test_criterion_09_fourier_consistency(coord_decomp, grid12):
    """Forward transform of the readout field reproduces the coupled
    evolutions point by point on the conjugate grid."""
    lg = meters.aligned_grid(BETA_AVG, grid12, coord_decomp, 256, margin_bins=2)
    field = meters.amplitude_field(QUBIT_H, coord_decomp, grid12, BETA_AVG, lg, PSI0)
    _register_field("consistency qubit", field,
                    hilbert.exact_propagator(QUBIT_H, 1.0) @ PSI0)
    res = meters.fourier_consistency_check(field, QUBIT_H, coord_decomp, grid12, BETA_AVG)
    report(9, "transform consistency", res, 1e-10)


def test_criterion_10_transform_kernel(coord_decomp, grid12):
    """Kernel maps the coordinate-readout field onto the field of a
    non-commuting observable; path completeness and the instantaneous
    basis change hold at desk scale."""
    B = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    lg = LambdaGrid.from_df(256, 1.0 / 48.0)
    fieldA = meters.amplitude_field(QUBIT_H, COORD_A, grid12, BETA_AVG, lg, PSI0)
    fieldB = meters.amplitude_field(QUBIT_H, B, grid12, BETA_AVG, lg, PSI0)
    undisturbed = hilbert.exact_propagator(QUBIT_H, 1.0) @ PSI0
    _register_field("transform source", fieldA, undisturbed)
    _register_field("transform target", fieldB, undisturbed)
    ker = transforms.finite_time_kernel(QUBIT_H, COORD_A, B, grid12,
                                        BETA_AVG, BETA_AVG, lg)
    out = transforms.apply_kernel(ker, fieldA)
    report(10, "kernel-mapped field vs direct", float(np.abs(out.states - fieldB.states).max()), 1e-8)

    res_c = transforms.completeness_identity_check(
        QUBIT_H, coord_decomp, TimeGrid(1.0, 6))
    report(10, "path-operator completeness", res_c, 1e-12)

    decB = hilbert.spectral_decompose(B)
    via = transforms.von_neumann_basis_change(PSI0, coord_decomp, decB)
    direct = decB.eigenvectors.conj().T @ PSI0
    report(10, "instantaneous basis change", float(np.abs(via - direct).max()), 1e-12)


def test_criterion_11_function_of_observable_binning():
    """Three-level system, doubly degenerate relabelling map: merged bins
    are coherent sums of the raw bins; a constant map collapses to the
    single bin holding the full evolved state."""
    rng = np.random.default_rng(77)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H = (M + M.conj().T) / 2
    dec = hilbert.spectral_decompose(np.diag([1.0, 2.0, 10.0]))
    psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    grid = TimeGrid(1.0, 6)
    spec = PathFunctionalSpec(grid, (SwitchingFunction.constant(1.0),))
    fmap = {1.0: 5.0, 2.0: 5.0, 10.0: 7.0}

    raw = pathsum.binned_measurement_amplitude(H, dec, grid, psi0, spec)
    merged = pathsum.relabel_by_function(H, dec, grid, psi0, spec,
                                         lambda a: fmap[round(a, 6)])
    # regroup the raw bins by the relabelled functional each one implies;
    # with gaps 1, 1 and 8 and N=6, a raw key determines its eigenvalue
    # multiset, hence a unique merged key
    w = spec.weight_matrix()[0]
    regrouped = {}
    for path in pathsum.enumerate_eigenpaths(3, grid):
        f_raw = round(float(np.dot(w, dec.eigenvalues[list(path.indices)])), 9)
        f_new = round(float(np.dot(w, [fmap[dec.eigenvalues[k]] for k in path.indices])), 9)
        regrouped.setdefault(f_raw, f_new)
    dev = 0.0
    for row, state in zip(merged.f_values, merged.states):
        key = round(float(row[0]), 9)
        acc = np.zeros(3, dtype=complex)
        for raw_row, raw_state in zip(raw.f_values, raw.states):
            if regrouped[round(float(raw_row[0]), 9)] == key:
                acc = acc + raw_state
        dev = max(dev, float(np.abs(acc - state).max()))
    report(11, "merged bins vs coherent raw sums", dev, 1e-12)

    collapsed = pathsum.relabel_by_function(H, dec, grid, psi0, spec, lambda a: 3.0)
    total = hilbert.exact_propagator(H, 1.0) @ psi0
    report(11, "single bin count", float(collapsed.n_bins - 1), 0.0,
           passed=collapsed.n_bins == 1)
    report(11, "constant map full state", float(np.linalg.norm(collapsed.states[0] - total)), 1e-12)


def test_criterion_12_lattice_particle():
    """Region dwell measurement of a packet held inside a wide region:
    unitarity, readout support, sum rule, and the tiny-lattice history
    enumeration against the dense propagator."""
    t0 = time.perf_counter()
    n_x, N, L = 512, 256, 128
    dx = 1.0 / 16.0
    psi = LatticeWavefunction.gaussian(-16.0, dx, n_x, 0.0, 1.0, 0.0)
    grid = TimeGrid(1.0, N)
    cf = CoordinateFunctional.region_indicator(psi, -8.0, 8.0, BETA_AVG)
    V = np.zeros(n_x)

    free = particle1d.split_step_evolve(psi, V, grid, 0.0, cf)
    report(12, "norm drift", abs(free.norm2() - 1.0), 1e-10)

    lg = LambdaGrid.from_df(L, 1.0 / 32.0)
    field = particle1d.coordinate_amplitude_field(psi, V, grid, cf, lg)
    _register_field("dwell field", field, free.values)
    report(12, "sum rule", meters.marginal_residual(field, free.values), 1e-8)

    weight = np.sum(np.abs(field.states) ** 2, axis=1) * lg.df * dx
    lo = lg.f_index(0.0) - 2
    hi = lg.f_index(1.0) + 2
    outside = weight[:lo].sum() + weight[hi + 1:].sum()
    report(12, "readout support leakage", float(outside / weight.sum()), 1e-6)

    tiny = LatticeWavefunction(0.0, 1.0, np.array([1.0, 1j, 0.2, 0.0]) / 1.5)
    tiny_grid = TimeGrid(0.8, 4)
    Vt = np.array([0.0, 0.3, 0.0, -0.2])
    total = particle1d.tiny_lattice_feynman_sum(tiny, Vt, tiny_grid)
    Hd = particle1d.dense_lattice_hamiltonian(tiny, Vt)
    step = hilbert.exact_propagator(Hd, tiny_grid.eps)
    ref = np.linalg.matrix_power(step, 4) @ tiny.values
    report(12, "tiny-lattice history sum", float(np.abs(total - ref).max()), 1e-12)
    report(12, "runtime_seconds", time.perf_counter() - t0, 180.0)


def test_criterion_13_resolution_covariance(coord_decomp, grid12):
    """Sharpening the kernel alpha-fold equals amplifying the coupling
    alpha-fold after relabelling readouts and renormalising the mass."""
    alpha = 2.0
    g1 = meters.aligned_grid(BETA_AVG, grid12, coord_decomp, 256)
    kern = CoarseGrainKernel.gaussian((g1,), (0.3,))
    field1 = meters.amplitude_field(QUBIT_H, coord_decomp, grid12, BETA_AVG, g1, PSI0)
    out1 = meters.coarse_grain(field1, meters.resolution_rescale(kern, alpha))

    g2 = LambdaGrid(g1.n_points, g1.dlam / alpha)
    field2 = meters.amplitude_field(QUBIT_H, alpha * COORD_A, grid12, BETA_AVG, g2, PSI0)
    out2 = meters.coarse_grain(field2, CoarseGrainKernel.gaussian((g2,), (0.3,)))
    report(13, "rescaled kernel vs amplified coupling",
           float(np.abs(out2.states - out1.states).max()), 1e-9)
    report(13, "mass rescaling", abs(out2.mass() / out1.mass() - alpha), 1e-9)


def test_criterion_03_marginal_completeness():
    """Every fine field produced in this suite integrates back to its
    undisturbed evolution."""
    grid = TimeGrid(1.0, 10)
    dec = hilbert.spectral_decompose(COORD_A)
    lg = meters.aligned_grid(BETA_AVG, grid, dec, 128, margin_bins=2)
    field = meters.amplitude_field(QUBIT_H, dec, grid, BETA_AVG, lg, PSI0)
    _register_field("fresh qubit field", field,
                    hilbert.exact_propagator(QUBIT_H, 1.0) @ PSI0)
    assert len(FINE_FIELDS) >= 2
    worst = max(meters.marginal_residual(f, ref) for _, f, ref in FINE_FIELDS)
    report(3, f"marginal completeness over {len(FINE_FIELDS)} fields", worst, 1e-10)
