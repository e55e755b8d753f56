import sys
import threading

import numpy as np
import pytest

from pathmeter import hilbert, meters, particle1d
from pathmeter.errors import GridMismatch
from pathmeter.meters import LambdaGrid
from pathmeter.particle1d import CoordinateFunctional, LatticeWavefunction
from pathmeter.timegrid import SwitchingFunction, TimeGrid, slice_weights


def free_packet(n_x=256, dx=1 / 8, width=1.0, center=0.0, momentum=0.0):
    return LatticeWavefunction.gaussian(
        -n_x * dx / 2, dx, n_x, center, width, momentum, mass=1.0)


class TestSplitStep:
    def test_norm_conserved(self):
        psi = free_packet(momentum=1.0)
        grid = TimeGrid(2.0, 128)
        cf = CoordinateFunctional(np.zeros(psi.n_x), SwitchingFunction.constant(0.5))
        out = particle1d.split_step_evolve(psi, np.zeros(psi.n_x), grid, 0.0, cf)
        assert abs(out.norm2() - 1.0) < 1e-12

    def test_free_packet_moves_at_group_velocity(self):
        """Analytic free dispersion: <x>(T) = x0 + p0 T / m."""
        p0 = 1.5
        psi = free_packet(n_x=512, dx=1 / 16, width=1.0, momentum=p0)
        grid = TimeGrid(2.0, 256)
        cf = CoordinateFunctional(np.zeros(psi.n_x), SwitchingFunction.constant(0.5))
        out = particle1d.split_step_evolve(psi, np.zeros(psi.n_x), grid, 0.0, cf)
        mean_x = np.sum(out.x * np.abs(out.values) ** 2) * out.dx
        assert mean_x == pytest.approx(p0 * 2.0, rel=0.01)

    def test_constant_functional_is_global_phase(self):
        psi = free_packet()
        grid = TimeGrid(1.0, 32)
        cf = CoordinateFunctional(np.ones(psi.n_x), SwitchingFunction.constant(1.0))
        lam = 0.7
        base = particle1d.split_step_evolve(psi, np.zeros(psi.n_x), grid, 0.0, cf)
        out = particle1d.split_step_evolve(psi, np.zeros(psi.n_x), grid, lam, cf)
        assert np.abs(out.values - np.exp(-1j * lam) * base.values).max() < 1e-12

    def test_coupling_derivative_matches_perturbation(self):
        """Central difference in lam equals the first-order insertion sum
        -i sum_j U(T - t_{j+1}) w_j F U(t_{j+1}) psi0 (oracle built from
        dense finite-difference propagators)."""
        n_x, dx = 16, 0.5
        psi = LatticeWavefunction.gaussian(-4.0, dx, n_x, 0.0, 1.0, 0.0)
        V = 0.2 * np.cos(np.arange(n_x))
        grid = TimeGrid(0.5, 8)
        F = np.linspace(-1, 1, n_x)
        cf = CoordinateFunctional(F, SwitchingFunction.constant(2.0))
        w = 2.0 * grid.eps

        Hd = particle1d.dense_lattice_hamiltonian(psi, V)
        Kd = particle1d.dense_lattice_hamiltonian(psi, np.zeros(n_x))
        u = np.diag(np.exp(-1j * V * grid.eps)) @ hilbert.exact_propagator(Kd, grid.eps)
        states = [psi.values]
        for _ in range(8):
            states.append(u @ states[-1])
        oracle = np.zeros(n_x, dtype=complex)
        tail = np.eye(n_x, dtype=complex)
        for j in reversed(range(8)):
            oracle += tail @ (-1j * w * F * states[j + 1])
            tail = tail @ u
        h = 1e-5
        plus = particle1d.split_step_evolve(psi, V, grid, h, cf,
                                            kinetic="finite_difference")
        minus = particle1d.split_step_evolve(psi, V, grid, -h, cf,
                                             kinetic="finite_difference")
        diff = (plus.values - minus.values) / (2 * h)
        assert np.abs(diff - oracle).max() < 1e-8

    def test_grid_mismatch(self):
        psi = free_packet(n_x=64)
        cf = CoordinateFunctional(np.zeros(64), SwitchingFunction.constant(1.0))
        with pytest.raises(GridMismatch):
            particle1d.split_step_evolve(psi, np.zeros(32), TimeGrid(1.0, 4), 0.0, cf)


class TestCoordinateField:
    def test_packet_inside_region_reads_full_dwell(self):
        """Wide region: every relevant history dwells the whole time, so
        the field concentrates at readout 1."""
        psi = free_packet(n_x=256, dx=1 / 8, width=1.0)
        grid = TimeGrid(1.0, 64)
        cf = CoordinateFunctional.region_indicator(
            psi, -12.0, 12.0, SwitchingFunction.constant(1.0))
        lgrid = LambdaGrid.from_df(64, 1 / 16)
        field = particle1d.coordinate_amplitude_field(
            psi, np.zeros(psi.n_x), grid, cf, lgrid)
        free = particle1d.split_step_evolve(psi, np.zeros(psi.n_x), grid, 0.0, cf)
        assert meters.marginal_residual(field, free.values) < 1e-8
        spike = field.states[lgrid.f_index(1.0)] * lgrid.df
        assert np.linalg.norm(spike - free.values) < 1e-6

    def test_packet_outside_region_reads_zero(self):
        psi = free_packet(n_x=256, dx=1 / 8, width=1.0)
        grid = TimeGrid(1.0, 64)
        cf = CoordinateFunctional.region_indicator(
            psi, 14.0, 15.0, SwitchingFunction.constant(1.0))
        lgrid = LambdaGrid.from_df(64, 1 / 16)
        field = particle1d.coordinate_amplitude_field(
            psi, np.zeros(psi.n_x), grid, cf, lgrid)
        free = particle1d.split_step_evolve(psi, np.zeros(psi.n_x), grid, 0.0, cf)
        spike = field.states[lgrid.f_index(0.0)] * lgrid.df
        assert np.linalg.norm(spike - free.values) < 1e-6

    def test_barrier_dwell_distribution(self):
        """Dwell fraction through a barrier: support inside [0, 1] with
        aligned readout lattice, mass outside within two bins <= 1e-6,
        and the field sums back to the undisturbed state. The barrier is
        smooth so no high-momentum ringing reaches the periodic edge."""
        n_x, dx = 256, 1 / 4
        psi = LatticeWavefunction.gaussian(-32.0, dx, n_x, -6.0, 1.0, 2.0)
        x = psi.x
        V = 1.0 * (np.tanh(x + 1.5) - np.tanh(x - 1.5))
        N = 32
        grid = TimeGrid(4.0, N)
        cf = CoordinateFunctional.region_indicator(
            psi, -1.5, 1.5, SwitchingFunction.constant(1 / 4.0))
        lgrid = LambdaGrid.from_df(128, 1.0 / N)  # attainable lattice m/N
        field = particle1d.coordinate_amplitude_field(psi, V, grid, cf, lgrid)
        free = particle1d.split_step_evolve(psi, V, grid, 0.0, cf)
        assert meters.marginal_residual(field, free.values) < 1e-8
        weight = np.sum(np.abs(field.states) ** 2, axis=1) * lgrid.df * psi.dx
        lo = lgrid.f_index(0.0) - 2
        hi = lgrid.f_index(1.0) + 2
        outside = weight[:lo].sum() + weight[hi + 1:].sum()
        assert outside / weight.sum() < 1e-6
        assert particle1d.boundary_mass(free) < 1e-10

    def test_coverage_guard(self):
        psi = free_packet(n_x=64)
        grid = TimeGrid(1.0, 16)
        cf = CoordinateFunctional.region_indicator(
            psi, -2.0, 2.0, SwitchingFunction.constant(1.0))
        with pytest.raises(Exception):
            particle1d.coordinate_amplitude_field(
                psi, np.zeros(64), grid, cf, LambdaGrid.from_df(16, 0.01))


class TestTinyLatticeFeynman:
    def _tiny(self):
        psi = LatticeWavefunction(0.0, 1.0, np.array([1.0, 1j, 0.2, 0.0]) / 1.5)
        V = np.array([0.0, 0.3, 0.0, -0.2])
        return psi, V, TimeGrid(0.8, 4)

    def test_free_matches_dense_product(self):
        psi = LatticeWavefunction(0.0, 1.0, np.array([1.0, 1j, 0.0, 0.0]) / np.sqrt(2))
        grid = TimeGrid(0.8, 4)
        total = particle1d.tiny_lattice_feynman_sum(psi, np.zeros(4), grid)
        K = particle1d.dense_lattice_hamiltonian(psi, np.zeros(4))
        ref = hilbert.exact_propagator(K, 0.8) @ psi.values
        assert np.abs(total - ref).max() < 1e-12

    def test_with_potential_matches_dense_product(self):
        psi, V, grid = self._tiny()
        total = particle1d.tiny_lattice_feynman_sum(psi, V, grid)
        H = particle1d.dense_lattice_hamiltonian(psi, V)
        step = hilbert.exact_propagator(H, grid.eps)
        ref = np.linalg.matrix_power(step, 4) @ psi.values
        assert np.abs(total - ref).max() < 1e-12

    def test_bins_partition_total(self):
        psi, V, grid = self._tiny()
        cf = CoordinateFunctional(
            np.array([0.0, 1.0, 1.0, 0.0]), SwitchingFunction.constant(1 / 0.8))
        bins = particle1d.tiny_lattice_feynman_bins(psi, V, grid, cf)
        total = particle1d.tiny_lattice_feynman_sum(psi, V, grid)
        assert np.abs(bins.total() - total).max() < 1e-12

    def test_cross_check_against_split_operator_field(self):
        """Dual route on a matched tiny discretisation: dense enumeration
        with the split slice operator vs the FFT split-operator field."""
        psi, V, grid = self._tiny()
        cf = CoordinateFunctional(
            np.array([0.0, 1.0, 1.0, 0.0]), SwitchingFunction.constant(1 / 0.8))
        bins = particle1d.tiny_lattice_feynman_bins(
            psi, V, grid, cf, split_kinetic=True)
        lgrid = LambdaGrid.from_df(32, 1.0 / 8.0)
        field = particle1d.coordinate_amplitude_field(
            psi, V, grid, cf, lgrid, kinetic="finite_difference")
        assert meters.binned_field_residual(field, bins) < 1e-9


def test_symmetric_splitting_is_second_order():
    psi = free_packet(n_x=64, dx=0.25, width=1.0)
    x = psi.x
    V = 0.5 * x**2
    cf = CoordinateFunctional(np.zeros(64), SwitchingFunction.constant(1.0))
    H = particle1d.dense_lattice_hamiltonian(psi, V)
    errs = {}
    for N in (64, 128):
        grid = TimeGrid(1.0, N)
        out = particle1d.split_step_evolve(
            psi, V, grid, 0.0, cf, kinetic="finite_difference", symmetric=True)
        ref = hilbert.exact_propagator(H, 1.0) @ psi.values
        errs[N] = np.abs(out.values - ref).max()
    assert errs[64] / errs[128] == pytest.approx(4.0, rel=0.2)


def rebuild_every_slice(values, kin_angle, base, coupling, F, symmetric):
    """Reference split-step loop that builds the position factor on every
    slice; symmetric puts a half kinetic step on both sides of every
    slice."""
    kin = np.exp(-0.5j * kin_angle if symmetric else -1j * kin_angle)
    psi = values
    for c in coupling:
        psi = np.fft.ifft(kin * np.fft.fft(psi, axis=-1), axis=-1)
        psi *= base * np.exp(-1j * np.outer(c, F))
        if symmetric:
            psi = np.fft.ifft(kin * np.fft.fft(psi, axis=-1), axis=-1)
    return psi


def end_point_reference(values, kin_angle, base, coupling, F, symmetric):
    """rebuild_every_slice's first-order loop; symmetric puts an inverse
    half kinetic step before it and a half step after it, the end points of
    prod K_h V K_h = K_h (prod V K) K_-h."""
    if not symmetric:
        return rebuild_every_slice(values, kin_angle, base, coupling, F, False)
    psi = np.fft.ifft(np.exp(0.5j * kin_angle) * np.fft.fft(values, axis=-1), axis=-1)
    psi = rebuild_every_slice(psi, kin_angle, base, coupling, F, False)
    return np.fft.ifft(np.exp(-0.5j * kin_angle) * np.fft.fft(psi, axis=-1), axis=-1)


PIECEWISE = SwitchingFunction.sampled(np.repeat([0.3, 1.7, 0.3, 1.1], 3))
PROFILES = pytest.mark.parametrize("beta", [
    SwitchingFunction.constant(1.0),
    SwitchingFunction.impulse(0.5),
    SwitchingFunction.sampled(np.linspace(0.3, 1.7, 12)),
    PIECEWISE,
], ids=["constant", "impulse", "sampled", "piecewise"])


def batch_args(beta, symmetric):
    """An 8-row split-step stack on a 64-site lattice, N = 12, with lambda
    from -3 to 3 across the rows."""
    psi = free_packet(n_x=64, dx=0.25, width=1.0, momentum=0.5)
    grid = TimeGrid(1.0, 12)
    w = slice_weights(beta, grid)
    kin_angle = particle1d._dispersion(psi, "spectral") * grid.eps
    base = np.exp(-1j * 0.1 * psi.x**2 * grid.eps)
    F = (np.abs(psi.x) < 2.0).astype(float)
    return (np.tile(psi.values, (8, 1)), kin_angle, base,
            np.outer(w, np.linspace(-3.0, 3.0, 8)), F, symmetric)


@pytest.mark.parametrize("symmetric", [False, True])
@PROFILES
def test_split_step_factor_reuse_is_bit_identical(beta, symmetric):
    """Reusing the position factor while the slice couplings repeat gives
    the same bytes as rebuilding it on every slice."""
    args = batch_args(beta, symmetric)
    got = particle1d._split_step_batch(*args)
    assert np.array_equal(got, end_point_reference(*args))


@PROFILES
def test_symmetric_end_points_match_per_slice_strang(beta):
    """Symmetric splitting by its end-point rule is, to rounding, the loop
    with half kinetic steps on both sides of every slice."""
    args = batch_args(beta, True)
    got = particle1d._split_step_batch(*args)
    ref = rebuild_every_slice(*args)
    norm = np.linalg.norm(ref, axis=-1)
    assert np.all(np.linalg.norm(got - ref, axis=-1) <= 1e-12 * norm)


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("cpus", [2, 3, 5, 16])
def test_split_step_row_blocks_are_bit_identical(monkeypatch, cpus, symmetric):
    """8 rows in 2 blocks, 3 (2+3+3), 5 (1+2+1+2+2) and, with more CPUs
    than rows, 8 blocks of one row: the bytes of one block and of the
    out-of-place loop, with threads switching as often as the interpreter
    allows."""
    args = batch_args(PIECEWISE, symmetric)
    monkeypatch.setattr(particle1d, "usable_cpus", lambda: 1)
    one = particle1d._split_step_batch(*args)
    monkeypatch.setattr(particle1d, "usable_cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = particle1d._split_step_batch(*args)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got.view(np.uint64), one.view(np.uint64))
    ref = end_point_reference(*args)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_split_step_leaves_the_start_alone(monkeypatch):
    """Neither a start row nor a start stack of the caller is written to."""
    monkeypatch.setattr(particle1d, "usable_cpus", lambda: 3)
    stack, *rest = batch_args(PIECEWISE, False)
    for start in (stack[0], stack):
        kept = start.copy()
        out = particle1d._split_step_batch(start, *rest)
        assert np.array_equal(start, kept)
        assert not np.shares_memory(out, start)


def test_split_step_worker_error_reaches_the_caller(monkeypatch):
    """An exception in a worker thread is raised in the calling thread, after
    every worker has been joined."""
    caller, evolve = threading.current_thread(), particle1d._evolve_block

    def fail_in_workers(*block):
        if threading.current_thread() is not caller:
            raise FloatingPointError("worker block failed")
        evolve(*block)

    monkeypatch.setattr(particle1d, "usable_cpus", lambda: 3)
    monkeypatch.setattr(particle1d, "_evolve_block", fail_in_workers)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="worker block failed"):
        particle1d._split_step_batch(*batch_args(PIECEWISE, False))
    assert threading.active_count() == before


def test_single_row_spawns_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a single row started a thread")

    monkeypatch.setattr(particle1d, "usable_cpus", lambda: 4)
    monkeypatch.setattr(threading, "Thread", no_thread)
    psi = free_packet(n_x=64, dx=0.25)
    cf = CoordinateFunctional(np.zeros(64), SwitchingFunction.constant(1.0))
    out = particle1d.split_step_evolve(psi, np.zeros(64), TimeGrid(1.0, 8), 0.5, cf)
    assert out.norm2() == pytest.approx(1.0, abs=1e-12)
