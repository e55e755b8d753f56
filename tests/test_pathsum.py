import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pathmeter import hilbert, pathsum, timegrid, transforms
from pathmeter.errors import AllZeroSubstates, CapExceeded, DegenerateSpectrum, QuadratureBudgetExceeded
from pathmeter.timegrid import PathFunctionalSpec, SwitchingFunction, TimeGrid

from conftest import random_hermitian


def brute_force_substate(H, decomp, grid, indices, psi0):
    """Oracle: literal projector/propagator matrix product for one path."""
    U = hilbert.exact_propagator(H, grid.eps)
    psi = np.asarray(psi0, dtype=complex)
    for k in indices:
        P = decomp.projector(k)
        psi = P @ (U @ psi)
    return psi


def brute_force_bins(H, decomp, grid, psi0, spec, ndigits=9):
    """Oracle: group per-path oracle substates by rounded functional values."""
    bins = {}
    for path in pathsum.enumerate_eigenpaths(decomp.dim, grid):
        f = timegrid.functional_value(spec, path, decomp)
        key = tuple(np.round(f, ndigits))
        state = brute_force_substate(H, decomp, grid, path.indices, psi0)
        bins[key] = bins.get(key, 0) + state
    return bins


def separated(F, tol):
    """Distinct functional values in every column lie far beyond tol: the
    class engine's clustering assumption, also what 9-digit oracle keys need."""
    gaps = np.diff(np.sort(np.atleast_2d(F), axis=0), axis=0)
    return bool(np.all((gaps < 1e-12) | (gaps > 1e3 * tol)))


class TestEnumeration:
    def test_counts_and_order(self):
        paths = list(pathsum.enumerate_eigenpaths(2, TimeGrid(1.0, 3)))
        assert len(paths) == 8
        assert paths[0].indices == (0, 0, 0)
        assert paths[-1].indices == (1, 1, 1)
        assert len(list(pathsum.enumerate_eigenpaths(3, TimeGrid(1.0, 2)))) == 9

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            list(pathsum.enumerate_eigenpaths(2, TimeGrid(1.0, 40)))

    def test_jump_count(self):
        assert pathsum.EigenPath((0, 0, 1, 1, 0)).jump_count == 2


class TestPathAmplitude:
    def test_diagonal_hamiltonian_kills_jumps(self, coord_a, coord_decomp):
        H = np.diag([0.3, 1.1]).astype(complex)
        grid = TimeGrid(1.0, 4)
        psi0 = np.array([0.6, 0.8])
        out = pathsum.path_amplitude(H, coord_decomp, grid, (0, 0, 1, 1), psi0)
        assert np.linalg.norm(out.state) == 0.0
        assert out.jump_count == 1

    def test_constant_path_accumulates_phase(self, coord_decomp):
        e1, e2 = 0.3, 1.1
        H = np.diag([e1, e2]).astype(complex)
        grid = TimeGrid(1.0, 6)
        psi0 = np.array([0.6, 0.8])
        for k, ek in ((0, e1), (1, e2)):
            out = pathsum.path_amplitude(H, coord_decomp, grid, (k,) * 6, psi0)
            expected = np.exp(-1j * ek) * psi0[k]
            assert abs(out.state[k] - expected) < 1e-14

    def test_single_jump_path_vs_matrix_product(self, qubit_h, coord_decomp):
        grid = TimeGrid(1.0, 8)
        psi0 = np.array([1.0, 0.0])
        indices = (0, 0, 0, 1, 1, 1, 1, 1)
        out = pathsum.path_amplitude(qubit_h, coord_decomp, grid, indices, psi0)
        oracle = brute_force_substate(qubit_h, coord_decomp, grid, indices, psi0)
        assert np.abs(out.state - oracle).max() < 1e-14

    def test_contraction_bound(self, qubit_h, coord_decomp, psi_plus):
        grid = TimeGrid(1.0, 5)
        for path in pathsum.enumerate_eigenpaths(2, grid):
            out = pathsum.path_amplitude(qubit_h, coord_decomp, grid, path, psi_plus)
            assert np.linalg.norm(out.state) <= 1.0 + 1e-10

    def test_degenerate_observable_rejected(self, qubit_h):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dec = hilbert.spectral_decompose(np.diag([1.0, 1.0]))
        with pytest.raises(DegenerateSpectrum):
            pathsum.path_amplitude(qubit_h, dec, TimeGrid(1.0, 2), (0, 0), [1, 0])


class TestPathSumTotal:
    def test_qubit_completeness(self, qubit_h, coord_decomp, psi_plus):
        grid = TimeGrid(1.0, 10)
        total = pathsum.path_sum_total(qubit_h, coord_decomp, grid, psi_plus)
        exact = hilbert.exact_propagator(qubit_h, 1.0) @ psi_plus
        assert np.linalg.norm(total - exact) < 1e-12

    def test_three_level_completeness(self):
        rng = np.random.default_rng(9)
        H = random_hermitian(rng, 3)
        A = np.diag([1.0, 2.0, 3.0])
        dec = hilbert.spectral_decompose(A)
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        grid = TimeGrid(0.7, 6)
        total = pathsum.path_sum_total(H, dec, grid, psi0)
        exact = hilbert.exact_propagator(H, 0.7) @ psi0
        assert np.linalg.norm(total - exact) < 1e-12

    def test_zero_state(self, qubit_h, coord_decomp):
        grid = TimeGrid(1.0, 4)
        total = pathsum.path_sum_total(qubit_h, coord_decomp, grid, np.zeros(2))
        assert np.linalg.norm(total) == 0.0


class TestBinnedAmplitudes:
    def test_total_is_pairwise(self):
        """2^20 bins: adding rows one after another drifts by ~3e-14
        relative; the pairwise sum stays at the rounding of the result."""
        rng = np.random.default_rng(5)
        states = rng.uniform(size=(2**20, 2)) + 1j * rng.uniform(size=(2**20, 2))
        bins = pathsum.BinnedAmplitudes(np.zeros((2**20, 1)), states, 1e-6)
        exact = [complex(math.fsum(c.real), math.fsum(c.imag)) for c in states.T]
        assert np.abs(bins.total() - exact).max() <= 4e-15 * np.abs(exact).max()

    def test_diagonal_hamiltonian_two_bins(self, coord_decomp):
        """No coupling: only the two constant paths survive."""
        e1, e2 = 0.3, 1.1
        H = np.diag([e1, e2]).astype(complex)
        grid = TimeGrid(1.0, 8)
        psi0 = np.array([0.6, 0.8])
        spec = PathFunctionalSpec(grid, (SwitchingFunction.constant(1.0),))
        bins = pathsum.binned_measurement_amplitude(H, coord_decomp, grid, psi0, spec)
        assert bins.n_bins == 2
        assert np.allclose(bins.f_values[:, 0], [1.0, 2.0])
        assert abs(bins.state_at(1.0)[0] - 0.6 * np.exp(-1j * e1)) < 1e-13
        assert abs(bins.state_at(2.0)[1] - 0.8 * np.exp(-1j * e2)) < 1e-13

    def test_impulse_gives_instantaneous_decomposition(self, coord_decomp, psi_plus):
        """Zero Hamiltonian + impulse meter: one bin per eigenvalue holding
        the projected component."""
        grid = TimeGrid(1.0, 4)
        spec = PathFunctionalSpec(grid, (SwitchingFunction.impulse(0.5),))
        bins = pathsum.binned_measurement_amplitude(
            np.zeros((2, 2)), coord_decomp, grid, psi_plus, spec)
        assert bins.n_bins == 2
        assert np.allclose(bins.f_values[:, 0], [1.0, 2.0])
        assert np.abs(bins.state_at(1.0) - [psi_plus[0], 0]).max() < 1e-13
        assert np.abs(bins.state_at(2.0) - [0, psi_plus[1]]).max() < 1e-13

    def test_bins_partition_the_path_sum(self, qubit_h, coord_decomp, psi_plus):
        grid = TimeGrid(1.0, 12)
        spec = PathFunctionalSpec(grid, (SwitchingFunction.constant(1.0),))
        bins = pathsum.binned_measurement_amplitude(
            qubit_h, coord_decomp, grid, psi_plus, spec)
        total = pathsum.path_sum_total(qubit_h, coord_decomp, grid, psi_plus)
        assert np.linalg.norm(bins.total() - total) < 1e-12

    def test_against_brute_force_grouping(self, qubit_h, coord_decomp, psi_plus):
        grid = TimeGrid(1.0, 6)
        spec = PathFunctionalSpec(grid, (SwitchingFunction.constant(1.0),))
        bins = pathsum.binned_measurement_amplitude(
            qubit_h, coord_decomp, grid, psi_plus, spec)
        oracle = brute_force_bins(qubit_h, coord_decomp, grid, psi_plus, spec)
        assert bins.n_bins == len(oracle)
        for row, state in zip(bins.f_values, bins.states):
            key = tuple(np.round(row, 9))
            assert np.abs(state - oracle[key]).max() < 1e-13

    def test_generic_keys_are_their_functional_values(self):
        """Generic dim-3 system, two sampled meters: all 3^10 paths keep
        their own bins, and each key is that path's F = W @ a[path], not the
        mean of a column cluster that chains neighbouring bins."""
        rng = np.random.default_rng(7)
        H = random_hermitian(rng, 3)
        dec = hilbert.spectral_decompose(random_hermitian(rng, 3))
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        grid = TimeGrid(1.0, 10)
        spec = PathFunctionalSpec(grid, tuple(
            SwitchingFunction.sampled(rng.uniform(0.5, 1.5, size=10)) for _ in range(2)))
        bins = pathsum.binned_measurement_amplitude(H, dec, grid, psi0, spec)
        paths = np.indices((3,) * 10).reshape(10, -1)
        exact = spec.weight_matrix() @ dec.eigenvalues[paths]
        assert bins.n_bins == paths.shape[1]
        dev = np.abs(np.sort(bins.f_values, axis=0) - np.sort(exact.T, axis=0)).max()
        assert dev <= 1e-12 * np.abs(exact).max()

    @pytest.mark.parametrize("seed", range(8))
    def test_bins_come_in_lexicographic_order(self, seed):
        """Generic dim-3 system, two sampled meters, N = 9: the rows are
        sorted by value, even where one column cluster chains values closer
        than the bin tolerance."""
        rng = np.random.default_rng(seed)
        H = random_hermitian(rng, 3)
        dec = hilbert.spectral_decompose(random_hermitian(rng, 3))
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        grid = TimeGrid(1.0, 9)
        spec = PathFunctionalSpec(grid, tuple(
            SwitchingFunction.sampled(rng.uniform(0.5, 1.5, size=9)) for _ in range(2)))
        bins = pathsum.binned_measurement_amplitude(H, dec, grid, psi0, spec)
        assert np.array_equal(np.lexsort(bins.f_values.T[::-1]), np.arange(bins.n_bins))

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_bin_tolerance_follows_the_key_scale(self, qubit_h, psi_plus, scale):
        """Observable diag(1, 2) * scale, N = 12: 13 bins at every scale,
        for the raw labels and for a function of them, and the bins still
        sum to the evolved state."""
        dec = hilbert.spectral_decompose(np.diag([1.0, 2.0]) * scale)
        grid = TimeGrid(1.0, 12)
        spec = PathFunctionalSpec(grid, (SwitchingFunction.constant(1.0),))
        exact = hilbert.exact_propagator(qubit_h, 1.0) @ psi_plus
        for bins in (pathsum.binned_measurement_amplitude(qubit_h, dec, grid, psi_plus, spec),
                     pathsum.relabel_by_function(
                         qubit_h, dec, grid, psi_plus, spec, lambda a: -3 * a)):
            assert bins.n_bins == 13
            assert np.linalg.norm(bins.total() - exact) <= 1e-12

    def test_each_meter_has_its_own_bin_tolerance(self, qubit_h, coord_decomp, psi_plus):
        """An impulse meter next to a constant meter of value 1e-9, N = 6:
        the small meter keeps its resolution, giving the 12 bins (and the
        same states) of a constant meter of value 1."""
        grid = TimeGrid(1.0, 6)
        bins = {v: pathsum.binned_measurement_amplitude(
                    qubit_h, coord_decomp, grid, psi_plus, PathFunctionalSpec(
                        grid, (SwitchingFunction.impulse(0.5), SwitchingFunction.constant(v))))
                for v in (1.0, 1e-9)}
        assert bins[1e-9].n_bins == bins[1.0].n_bins == 12
        assert np.allclose(bins[1e-9].f_values[:, 1], 1e-9 * bins[1.0].f_values[:, 1],
                           rtol=1e-12, atol=0.0)
        assert np.abs(bins[1e-9].states - bins[1.0].states).max() <= 1e-15

    def test_classes_snapped_to_one_key_are_summed(self, qubit_h, psi_plus):
        """A tolerance below the float spacing of the keys (observable
        diag(1, 2) * 1e9, N = 12) leaves classes of different bins that snap
        to one key with one end label; the final scatter adds them, so the
        bins still sum to the evolved state."""
        dec = hilbert.spectral_decompose(np.diag([1.0, 2.0]) * 1e9)
        grid = TimeGrid(1.0, 12)
        u = pathsum._slice_transfer(qubit_h, dec, grid)
        inc = (grid.eps * dec.eigenvalues)[:, None]
        _, states = pathsum._class_sum(u, u @ dec.to_eigenbasis(psi_plus), grid.steps,
                                       inc, tol=1e-6 * grid.eps)
        exact = dec.to_eigenbasis(hilbert.exact_propagator(qubit_h, 1.0) @ psi_plus)
        assert np.linalg.norm(states.sum(axis=0) - exact) <= 1e-12

    def test_lone_class_keeps_its_bits(self):
        """A class alone in its (key, end) slot is placed, not added to
        zero, so a signed zero in its amplitude survives."""
        v0 = np.array([complex(-0.0, 1.0), complex(2.0, 1.0)])
        inc = np.array([0, 1])[None, None, :, None]
        keys, states = pathsum._class_sum(np.eye(2, dtype=complex), v0, 1, inc)
        assert keys.ravel().tolist() == [0, 1]
        assert np.array_equal(states, np.diag(v0))
        assert np.signbit(states[0, 0].real)

    def test_three_level_two_meters_brute_force(self):
        rng = np.random.default_rng(21)
        H = random_hermitian(rng, 3)
        dec = hilbert.spectral_decompose(np.diag([1.0, 2.0, 4.0]))
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        grid = TimeGrid(1.0, 4)
        spec = PathFunctionalSpec(
            grid,
            (SwitchingFunction.constant(1.0), SwitchingFunction.impulse(0.9)),
        )
        bins = pathsum.binned_measurement_amplitude(H, dec, grid, psi0, spec)
        oracle = brute_force_bins(H, dec, grid, psi0, spec)
        assert bins.n_bins == len(oracle)
        for row, state in zip(bins.f_values, bins.states):
            key = tuple(np.round(row, 9))
            assert np.abs(state - oracle[key]).max() < 1e-12


class TestRelabelByFunction:
    def test_constant_map_single_bin(self, qubit_h, coord_decomp, psi_plus):
        grid = TimeGrid(1.0, 8)
        spec = PathFunctionalSpec(grid, (SwitchingFunction.constant(1.0),))
        out = pathsum.relabel_by_function(
            qubit_h, coord_decomp, grid, psi_plus, spec, lambda a: 5.0)
        assert out.n_bins == 1
        assert out.f_values[0, 0] == pytest.approx(5.0)  # F0 * int beta dt
        total = pathsum.path_sum_total(qubit_h, coord_decomp, grid, psi_plus)
        assert np.linalg.norm(out.states[0] - total) < 1e-12

    def test_injective_map_is_key_bijection(self, qubit_h, coord_decomp, psi_plus):
        grid = TimeGrid(1.0, 8)
        spec = PathFunctionalSpec(grid, (SwitchingFunction.constant(1.0),))
        base = pathsum.binned_measurement_amplitude(
            qubit_h, coord_decomp, grid, psi_plus, spec)
        doubled = pathsum.relabel_by_function(
            qubit_h, coord_decomp, grid, psi_plus, spec, lambda a: 2 * a)
        assert doubled.n_bins == base.n_bins
        assert np.allclose(doubled.f_values, 2 * base.f_values, atol=1e-12)
        # same paths, same enumeration, same summation order: identical floats
        assert np.array_equal(doubled.states, base.states)

    def test_degenerate_map_merges_histories(self):
        """F(a1) = F(a2) != F(a3): each merged bin is the coherent sum of
        the raw-label bins that map onto it (brute-force regrouping)."""
        rng = np.random.default_rng(31)
        H = random_hermitian(rng, 3)
        dec = hilbert.spectral_decompose(np.diag([1.0, 2.0, 10.0]))
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        grid = TimeGrid(1.0, 5)
        spec = PathFunctionalSpec(grid, (SwitchingFunction.constant(1.0),))
        fmap = {1.0: 5.0, 2.0: 5.0, 10.0: 7.0}
        merged = pathsum.relabel_by_function(
            H, dec, grid, psi0, spec, lambda a: fmap[round(a, 6)])

        oracle = {}
        for path in pathsum.enumerate_eigenpaths(3, grid):
            vals = [fmap[dec.eigenvalues[k]] for k in path.indices]
            key = round(sum(vals) / grid.steps, 9)
            state = brute_force_substate(H, dec, grid, path.indices, psi0)
            oracle[key] = oracle.get(key, 0) + state
        assert merged.n_bins == len(oracle)
        for row, state in zip(merged.f_values, merged.states):
            assert np.abs(state - oracle[round(row[0], 9)]).max() < 1e-12


def expm(M):
    """Matrix exponential by Taylor series with scaling and squaring."""
    s = max(0, int(np.ceil(np.log2(max(np.abs(M).sum(axis=1).max(), 1e-300)))) + 1)
    A = M / 2**s
    out = term = np.eye(len(M), dtype=complex)
    for k in range(1, 19):
        term = term @ A / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def van_loan_terms(H, V, T, n):
    """Terms 0..n of the time-ordered series of exp(-i(H+V)T) around H."""
    d = len(H)
    M = np.kron(np.eye(n + 1), -1j * H) + np.kron(np.eye(n + 1, k=1), -1j * V)
    E = expm(T * M)
    return [E[:d, k * d:(k + 1) * d] for k in range(n + 1)]


class TestJumpSeries:
    def test_order_zero_is_free_propagator(self):
        H0 = np.diag([0.0, 1.0]).astype(complex)
        V = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        term = pathsum.jump_series_term(H0, V, 1.0, 0)
        assert np.abs(term - hilbert.exact_propagator(H0, 1.0)).max() < 1e-14

    def test_order_one_with_free_h_zero(self):
        V = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        term = pathsum.jump_series_term(np.zeros((2, 2)), V, 2.0, 1, n_q=64)
        assert np.abs(term - (-1j * V * 2.0)).max() < 1e-12

    def test_order_one_closed_form(self):
        """Entry-wise analytic integral for diagonal free evolution:
        term1[j,k] = -i V[j,k] int_0^T e^{-i e_j (T-t)} e^{-i e_k t} dt."""
        e = np.array([0.0, 1.0])
        H0 = np.diag(e).astype(complex)
        V = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        T = 1.0
        expected = np.zeros((2, 2), dtype=complex)
        for j in range(2):
            for k in range(2):
                if j == k:
                    continue
                de = e[k] - e[j]
                integral = np.exp(-1j * e[j] * T) * (np.exp(-1j * de * T) - 1) / (-1j * de)
                expected[j, k] = -1j * V[j, k] * integral
        term = pathsum.jump_series_term(H0, V, T, 1, n_q=4096)
        assert np.abs(term - expected).max() < 1e-7

    def test_partial_sum_approaches_full_propagator(self):
        """Matrix-exponential oracle; quadrature-limited tolerance."""
        H0 = np.diag([0.0, 1.0]).astype(complex)
        V = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        n_q = {1: 512, 2: 256, 3: 96, 4: 48, 5: 24, 6: 16}
        total = sum(pathsum.jump_series_term(H0, V, 1.0, n, n_q=n_q.get(n))
                    for n in range(7))
        exact = hilbert.exact_propagator(H0 + V, 1.0)
        # remainder above order 6 is (VT)^7/7! ~ 1.6e-6; quadrature is finer
        assert np.abs(total - exact).max() < 4e-6

    def test_literal_reading_uses_full_h(self):
        H0 = np.diag([0.0, 1.0]).astype(complex)
        V = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        lit = pathsum.jump_series_term(H0, V, 1.0, 0, literal_full_h=True)
        assert np.abs(lit - hilbert.exact_propagator(H0 + V, 1.0)).max() < 1e-14

    def test_budget_guard(self):
        """The recursion holds n * n_q * d^2 cells; 64 * 2^16 * 4 = 2^24 is
        over the budget and is refused before the n_q propagators exist."""
        H0 = np.zeros((2, 2))
        V = np.eye(2)
        assert pathsum.jump_series_term(H0, V, 1.0, 7).shape == (2, 2)
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureBudgetExceeded):
                pathsum.jump_series_term(H0, V, 1.0, 64, n_q=2**16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the propagator table alone would be 4 MiB

    @pytest.mark.parametrize("literal_full_h", [False, True])
    def test_terms_match_van_loan_exponential(self, literal_full_h):
        """Block (0, n) of exp(T M), M block-bidiagonal with -iH on the
        diagonal and -iV above it, is term n exactly (Van Loan 1978). The
        product-trapezoid rule is second order: its error against the
        oracle falls fourfold when the node spacing halves."""
        H0 = np.diag([0.0, 1.0]).astype(complex)
        V = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        H = H0 + V if literal_full_h else H0
        exact = van_loan_terms(H, V, 1.0, 10)
        if not literal_full_h:  # the series then sums to the full propagator
            assert np.abs(sum(exact) - hilbert.exact_propagator(H0 + V, 1.0)).max() < 1e-10
        term = pathsum.jump_series_term(H0, V, 1.0, 0, literal_full_h=literal_full_h)
        assert np.abs(term - exact[0]).max() < 1e-14
        n_q = {1: 1024, 2: 256, 3: 128, 4: 64, 5: 32, 6: 16, 7: 12, 8: 8, 9: 8, 10: 6}
        for n in range(1, 11):
            coarse, fine = (
                np.abs(pathsum.jump_series_term(H0, V, 1.0, n, n_q=q,
                                                literal_full_h=literal_full_h)
                       - exact[n]).max()
                for q in (n_q[n], 2 * n_q[n] - 1))
            assert coarse < 5e-7
            assert 3.0 < coarse / fine < 4.2

    def test_term_norm_bound(self):
        """|term_n| <= |V|^n T^n / n!"""
        H0 = np.diag([0.0, 1.0]).astype(complex)
        V = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        for n in (1, 2, 3):
            term = pathsum.jump_series_term(H0, V, 1.0, n)
            bound = 0.5**n / math.factorial(n)
            assert np.linalg.norm(term, 2) <= bound * (1 + 1e-6)


class TestJumpClasses:
    def test_no_coupling_means_no_jumps(self, coord_decomp):
        H = np.diag([0.3, 1.1]).astype(complex)
        grid = TimeGrid(1.0, 6)
        psi0 = np.array([0.6, 0.8])
        classes = pathsum.group_paths_by_jumps(H, coord_decomp, grid, psi0)
        assert np.linalg.norm(classes[0]) > 0.9
        for n in range(1, 6):
            assert np.linalg.norm(classes[n]) < 1e-14

    def test_classes_partition_total(self, qubit_h, coord_decomp, psi_plus):
        grid = TimeGrid(1.0, 10)
        classes = pathsum.group_paths_by_jumps(qubit_h, coord_decomp, grid, psi_plus)
        total = pathsum.path_sum_total(qubit_h, coord_decomp, grid, psi_plus)
        assert np.linalg.norm(sum(classes.values()) - total) < 1e-12

    def test_zero_jump_class_dominates_for_weak_coupling(self, coord_decomp, psi_plus):
        H = np.array([[0.0, 0.3], [0.3, 1.0]], dtype=complex)  # |V| T < 1
        grid = TimeGrid(1.0, 8)
        classes = pathsum.group_paths_by_jumps(H, coord_decomp, grid, psi_plus)
        norms = [np.linalg.norm(classes[n]) for n in range(8)]
        assert norms[0] == max(norms)

    def test_against_transfer_matrix_recursion(self, qubit_h, coord_decomp, psi_plus):
        """Oracle built without enumeration: propagate per-(jumps, level)
        partial sums slice by slice through the transfer matrix."""
        grid = TimeGrid(1.0, 10)
        N, d = 10, 2
        u = hilbert.exact_propagator(qubit_h, grid.eps)  # labeling basis = diag
        table = np.zeros((N, d), dtype=complex)
        table[0] = u @ psi_plus
        for _ in range(N - 1):
            nxt = np.zeros_like(table)
            for n in range(N):
                nxt[n] += np.diag(u) * table[n]
                if n > 0:
                    stay = np.diag(np.diag(u))
                    nxt[n] += (u - stay) @ table[n - 1]
            table = nxt
        classes = pathsum.group_paths_by_jumps(qubit_h, coord_decomp, grid, psi_plus)
        for n in range(N):
            assert np.abs(classes[n] - table[n]).max() < 1e-13

    def test_class_converges_to_series_term(self, qubit_h, coord_decomp, psi_plus):
        """Halving the slice width halves the class-vs-term error."""
        H0 = np.diag(np.diag(qubit_h))
        V = qubit_h - H0
        term1 = pathsum.jump_series_term(H0, V, 1.0, 1, n_q=512) @ psi_plus
        errs = []
        for N in (8, 16):
            classes = pathsum.group_paths_by_jumps(
                qubit_h, coord_decomp, TimeGrid(1.0, N), psi_plus)
            errs.append(np.linalg.norm(classes[1] - term1))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)


class TestTwoSlitWeights:
    def test_equal_norms(self):
        w = pathsum.two_slit_weights([np.array([1.0, 0]), np.array([0, 1.0])])
        assert np.allclose(w, [0.5, 0.5])

    def test_unequal_norms(self):
        w = pathsum.two_slit_weights(
            [np.sqrt(0.2) * np.array([1.0, 0]), np.sqrt(0.8) * np.array([0, 1.0])])
        assert np.allclose(w, [0.2, 0.8])

    def test_three_routes(self):
        states = [np.array([1.0]), np.array([1.0]), np.array([np.sqrt(2.0)])]
        assert np.allclose(pathsum.two_slit_weights(states), [0.25, 0.25, 0.5])

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroSubstates):
            pathsum.two_slit_weights([np.zeros(2), np.zeros(2)])


@st.composite
def path_problems(draw):
    """Small system, observable, state and one or two meters; the floats
    come from a drawn seed so every draw is non-degenerate."""
    d = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = random_hermitian(rng, d)
    if draw(st.booleans()):  # commensurate spectrum: classes merge
        eig = np.arange(1.0, d + 1)
    else:
        eig = np.cumsum(rng.uniform(0.3, 1.5, size=d)) - 1.0
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    dec = hilbert.spectral_decompose((Q * eig) @ Q.conj().T)
    psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    grid = TimeGrid(draw(st.sampled_from([0.5, 1.0, 1.7])), N)
    betas = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["impulse", "constant", "sampled"]))
        if kind == "impulse":
            betas.append(SwitchingFunction.impulse(rng.uniform(0, grid.total_time)))
        elif kind == "constant":
            betas.append(SwitchingFunction.constant(rng.uniform(0.5, 2.0)))
        else:
            betas.append(SwitchingFunction.sampled(rng.uniform(-1.0, 2.0, size=N)))
    mapped = rng.choice([0.0, 1.0, 2.5], size=d)  # degenerate or constant maps
    return H, dec, grid, psi0, PathFunctionalSpec(grid, betas), mapped


@settings(max_examples=40, deadline=None, derandomize=True)
@given(path_problems())
def test_class_engine_matches_literal_paths(problem):
    """Binned, relabelled, jump-class, total and completeness sums of the
    class engine against the one-path-at-a-time literal oracle."""
    H, dec, grid, psi0, spec, mapped = problem
    W = spec.weight_matrix()
    paths = list(pathsum.enumerate_eigenpaths(dec.dim, grid))
    F = np.array([W @ dec.eigenvalues[list(p.indices)] for p in paths])
    G = np.array([W[0] @ mapped[list(p.indices)] for p in paths])
    bins = pathsum.binned_measurement_amplitude(H, dec, grid, psi0, spec)
    spec1 = PathFunctionalSpec(grid, spec.betas[:1])
    merged = pathsum.relabel_by_function(
        H, dec, grid, psi0, spec1,
        lambda a: mapped[np.argmin(np.abs(dec.eigenvalues - a))])
    assume(separated(F, bins.bin_tol) and separated(G[:, None], merged.bin_tol))
    subs = [pathsum.path_amplitude(H, dec, grid, p, psi0) for p in paths]

    oracle = brute_force_bins(H, dec, grid, psi0, spec)
    assert bins.n_bins == len(oracle)
    assert np.all(np.diff(bins.f_values[:, 0]) >= 0)
    for row, state in zip(bins.f_values, bins.states):
        assert np.abs(state - oracle[tuple(np.round(row, 9))]).max() < 1e-12

    regrouped = {}
    for g, sub in zip(G, subs):
        key = round(g, 9)
        regrouped[key] = regrouped.get(key, 0) + sub.state
    assert merged.n_bins == len(regrouped)
    for row, state in zip(merged.f_values, merged.states):
        assert np.abs(state - regrouped[round(row[0], 9)]).max() < 1e-12

    classes = pathsum.group_paths_by_jumps(H, dec, grid, psi0)
    for n in range(grid.steps):
        expected = sum((s.state for s in subs if s.jump_count == n), np.zeros(dec.dim))
        assert np.abs(classes[n] - expected).max() < 1e-12

    total = pathsum.path_sum_total(H, dec, grid, psi0)
    assert np.abs(total - sum(s.state for s in subs)).max() < 1e-12

    # literal sum over paths of U[a]^dag U[a], one operator per path
    U = hilbert.exact_propagator(H, grid.eps)
    acc = np.zeros((dec.dim, dec.dim), dtype=complex)
    for p in paths:
        op = np.eye(dec.dim)
        for k in p.indices:
            op = dec.projector(k) @ U @ op
        acc += op.conj().T @ op
    literal = float(np.abs(acc - np.eye(dec.dim)).max())
    engine = transforms.completeness_identity_check(H, dec, grid)
    assert engine < 1e-12 and literal < 1e-12
