import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from pathmeter import cli, fourier, hilbert, mensky, meters, pathsum, timegrid, transforms
from pathmeter.errors import (
    FineFieldNotNormalizable,
    GridMismatch,
    GridTooSmall,
    NonPositiveAlpha,
    NyquistViolation,
)
from pathmeter.meters import CoarseGrainKernel, LambdaGrid
from pathmeter.timegrid import PathFunctionalSpec, SwitchingFunction, TimeGrid

from conftest import random_hermitian
from test_pathsum import brute_force_substate

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def oracle_lambda_state(H, decomp, grid, spec, lam, psi0):
    """Exhaustive oracle: sum_paths e^{-i lam . F[a]} (path substate)."""
    out = np.zeros(decomp.dim, dtype=complex)
    for path in pathsum.enumerate_eigenpaths(decomp.dim, grid):
        f = timegrid.functional_value(spec, path, decomp)
        phase = np.exp(-1j * np.dot(np.atleast_1d(lam), f))
        out = out + phase * brute_force_substate(H, decomp, grid, path.indices, psi0)
    return out


def lookup_residual(field, binned):
    """Node-lookup oracle for bin keys on grid nodes: field * cell against
    each bin state at its key's node, and no weight on nodes without a bin."""
    cell = field.cell
    covered = np.zeros(field.states.shape[:-1], dtype=bool)
    res = 0.0
    for row, state in zip(binned.f_values, binned.states):
        idx = tuple(g.f_index(f) for g, f in zip(field.grids, row))
        res = max(res, float(np.linalg.norm(field.states[idx] * cell - state)))
        covered[idx] = True
    leak = np.linalg.norm(field.states[~covered], axis=-1)
    if leak.size:
        res = max(res, float(leak.max() * cell))
    return res


def aligned_residual(field, binned):
    """binned_field_residual on aligned keys, held to the lookup oracle."""
    res = meters.binned_field_residual(field, binned)
    assert abs(res - lookup_residual(field, binned)) < 1e-13
    return res


class TestLambdaGrid:
    def test_conjugate_spacing(self):
        g = LambdaGrid(8, 0.5)
        assert g.df == pytest.approx(2 * np.pi / 4.0)
        assert g.lam[0] == -2.0 and g.lam[-1] == 1.5
        assert g.f[4] == 0.0

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            LambdaGrid(12, 0.5)

    def test_f_index(self):
        g = LambdaGrid.from_df(16, 0.25)
        assert g.f_index(0.0) == 8
        assert g.f_index(-0.5) == 6
        with pytest.raises(GridTooSmall):
            g.f_index(0.37)


class TestAlignedGrid:
    def test_nodes_hit_attainable_lattice(self, qubit_h, coord_decomp, beta_avg):
        grid = TimeGrid(1.0, 12)
        g = meters.aligned_grid(beta_avg, grid, coord_decomp, 256)
        for m in range(13):
            f = 1.0 + m / 12.0  # attainable time averages
            g.f_index(f)  # raises if off-grid

    def test_too_small_raises(self, coord_decomp, beta_avg):
        with pytest.raises(GridTooSmall):
            meters.aligned_grid(beta_avg, TimeGrid(1.0, 12), coord_decomp, 2)


class TestLambdaEvolve:
    def test_zero_coupling_is_sliced_free_evolution(self, qubit_h, coord_decomp, psi_plus):
        grid = TimeGrid(1.0, 9)
        out = meters.lambda_evolve(qubit_h, coord_decomp, grid,
                                   SwitchingFunction.constant(1.0), 0.0, psi_plus)
        assert np.linalg.norm(out - hilbert.exact_propagator(qubit_h, 1.0) @ psi_plus) < 1e-12

    def test_free_hamiltonian_pure_phases(self, coord_decomp):
        """H = 0: amplitudes pick up e^{-i lam a_k} only."""
        grid = TimeGrid(1.0, 6)
        psi0 = np.array([0.6, 0.8])
        lam = 1.37
        out = meters.lambda_evolve(np.zeros((2, 2)), coord_decomp, grid,
                                   SwitchingFunction.constant(1.0), lam, psi0)
        expected = psi0 * np.exp(-1j * lam * np.array([1.0, 2.0]))
        assert np.abs(out - expected).max() < 1e-13

    @pytest.mark.parametrize("lam", [-2.0, 0.3, 5.0])
    def test_against_exhaustive_path_sum(self, qubit_h, coord_decomp, psi_plus, lam):
        grid = TimeGrid(1.0, 8)
        spec = PathFunctionalSpec(grid, (SwitchingFunction.constant(1.0),))
        out = meters.lambda_evolve(qubit_h, coord_decomp, grid,
                                   spec.betas[0], lam, psi_plus)
        oracle = oracle_lambda_state(qubit_h, coord_decomp, grid, spec, lam, psi_plus)
        assert np.abs(out - oracle).max() < 1e-12

    @pytest.mark.parametrize("t0, m", [(0.3, 3), (0.5, 5), (1.0, 10)])
    def test_impulse_on_a_node_is_the_literal_product(self, qubit_h, coord_decomp,
                                                      psi_plus, t0, m):
        """An impulse at t0 = m eps acts after m slices:
        sum_k e^{-i lam a_k} U^(N-m) P_k U^m psi0."""
        grid, lam = TimeGrid(1.0, 10), 1.7
        u = hilbert.exact_propagator(qubit_h, grid.eps)
        out = meters.lambda_evolve(qubit_h, coord_decomp, grid,
                                   SwitchingFunction.impulse(t0), lam, psi_plus)
        before = np.linalg.matrix_power(u, m) @ psi_plus
        after = np.linalg.matrix_power(u, 10 - m)
        want = sum(np.exp(-1j * lam * a) * after @ coord_decomp.projector(k) @ before
                   for k, a in enumerate(coord_decomp.eigenvalues))
        assert np.abs(out - want).max() < 1e-13

    def test_norm_preserved(self, qubit_h, coord_decomp, psi_plus):
        grid = TimeGrid(1.0, 7)
        out = meters.lambda_evolve(qubit_h, coord_decomp, grid,
                                   SwitchingFunction.constant(1.0), 3.1, psi_plus)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-13)


class TestAmplitudeField:
    def test_instantaneous_comb(self, coord_decomp, psi_plus):
        """H = 0 with an impulse meter: spikes of height <a_k|psi0>/df."""
        grid = TimeGrid(1.0, 4)
        beta = SwitchingFunction.impulse(0.5)
        g = meters.aligned_grid(beta, grid, coord_decomp, 64)
        field = meters.amplitude_field(np.zeros((2, 2)), coord_decomp, grid,
                                       beta, g, psi_plus)
        for a, comp in ((1.0, 0), (2.0, 1)):
            spike = field.states[g.f_index(a)]
            expected = np.zeros(2, dtype=complex)
            expected[comp] = psi_plus[comp] / g.df
            assert np.abs(spike - expected).max() < 1e-10
        mask = np.ones(64, dtype=bool)
        mask[[g.f_index(1.0), g.f_index(2.0)]] = False
        assert np.abs(field.states[mask]).max() < 1e-12

    def test_marginal_is_zero_coupling_row(self, qubit_h, coord_decomp, psi_plus, beta_avg):
        grid = TimeGrid(1.0, 10)
        g = meters.aligned_grid(beta_avg, grid, coord_decomp, 128)
        field = meters.amplitude_field(qubit_h, coord_decomp, grid, beta_avg, g, psi_plus)
        ref = meters.lambda_evolve(qubit_h, coord_decomp, grid, beta_avg, 0.0, psi_plus)
        assert meters.marginal_residual(field, ref) < 1e-10

    def test_matches_binned_paths(self, qubit_h, coord_decomp, psi_plus, beta_avg):
        grid = TimeGrid(1.0, 10)
        spec = PathFunctionalSpec(grid, (beta_avg,))
        bins = pathsum.binned_measurement_amplitude(
            qubit_h, coord_decomp, grid, psi_plus, spec)
        g = meters.aligned_grid(beta_avg, grid, coord_decomp, 256)
        field = meters.amplitude_field(qubit_h, coord_decomp, grid, beta_avg, g, psi_plus)
        assert aligned_residual(field, bins) < 1e-10

    def test_two_meters(self, qubit_h, coord_decomp, psi_plus):
        """Joint field of a time-average meter and an impulse meter."""
        grid = TimeGrid(1.0, 6)
        betas = (SwitchingFunction.constant(1.0), SwitchingFunction.impulse(0.9))
        spec = PathFunctionalSpec(grid, betas)
        grids = tuple(meters.aligned_grid(b, grid, coord_decomp, 32, margin_bins=2) for b in betas)
        field = meters.amplitude_field(qubit_h, coord_decomp, grid, betas, grids, psi_plus)
        undisturbed = hilbert.exact_propagator(qubit_h, 1.0) @ psi_plus
        assert meters.marginal_residual(field, undisturbed) < 1e-10
        bins = pathsum.binned_measurement_amplitude(
            qubit_h, coord_decomp, grid, psi_plus, spec)
        assert aligned_residual(field, bins) < 1e-10
        assert meters.fourier_consistency_check(
            field, qubit_h, coord_decomp, grid, betas) < 1e-10

    def test_nyquist_guard(self, qubit_h, coord_decomp, beta_avg, psi_plus):
        grid = TimeGrid(1.0, 12)
        coarse = LambdaGrid(256, 30.0)  # dlam * w_max * a_max >> pi
        with pytest.raises(NyquistViolation):
            meters.amplitude_field(qubit_h, coord_decomp, grid, beta_avg, coarse, psi_plus)

    def test_coverage_guard(self, qubit_h, coord_decomp, beta_avg, psi_plus):
        grid = TimeGrid(1.0, 12)
        tiny = LambdaGrid.from_df(256, 0.01)  # range [-1.28, 1.28) misses f=2
        with pytest.raises(GridTooSmall):
            meters.amplitude_field(qubit_h, coord_decomp, grid, beta_avg, tiny, psi_plus)


class TestDegenerateObservableRoute:
    def test_relabelled_bins_match_function_observable_field(self):
        """Independent route for functions of the observable: measuring
        F(A) through the pointer route (degenerate coupling spectrum is
        fine there) must reproduce the path-level relabelled bins."""
        import warnings

        from pathmeter import pathsum

        rng = np.random.default_rng(19)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H = (M + M.conj().T) / 2
        A = np.diag([1.0, 2.0, 10.0])
        decA = hilbert.spectral_decompose(A)
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        grid = TimeGrid(1.0, 5)
        spec = PathFunctionalSpec(grid, (SwitchingFunction.constant(1.0),))
        fmap = {1.0: 5.0, 2.0: 5.0, 10.0: 7.0}
        bins = pathsum.relabel_by_function(H, decA, grid, psi0, spec,
                                           lambda a: fmap[round(a, 6)])
        FA = np.diag([5.0, 5.0, 7.0])  # same eigenvectors, mapped values
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            decFA = hilbert.spectral_decompose(FA)
        g = meters.aligned_grid(spec.betas[0], grid, decFA, 256, margin_bins=2)
        field = meters.amplitude_field(H, FA, grid, spec.betas[0], g, psi0)
        assert aligned_residual(field, bins) < 1e-10


def periodic_sinc_field(grids, keys, states):
    """Brute-force fine field of spikes psi_a at keys F_a: per node and
    axis, the lambda band's (1/L) sum_lambda e^{i lambda (f - F)}, over the
    cell."""
    mesh = np.meshgrid(*[g.f for g in grids], indexing="ij")
    out = np.zeros(mesh[0].shape + (states.shape[1],), dtype=complex)
    for key, psi in zip(keys, states):
        weight = 1.0
        for g, f, F in zip(grids, mesh, key):
            weight = weight * np.exp(1j * np.multiply.outer(f - F, g.lam)).sum(axis=-1) / g.n_points
        out += weight[..., None] * psi
    return meters.AmplitudeField(grids, out / np.prod([g.df for g in grids]))


class TestBinnedFieldResidual:
    """The bins' spike image against fields on grids whose nodes the keys
    need not hit."""

    @pytest.mark.parametrize("cells", [meters._IMAGE_CELLS, 1], ids=["blocks", "one_bin"])
    @pytest.mark.parametrize("shape", [(16, 8), (8, 4, 16)], ids=["two", "three"])
    def test_image_matches_brute_force_sum(self, shape, cells, monkeypatch):
        monkeypatch.setattr(meters, "_IMAGE_CELLS", cells)
        rng = np.random.default_rng(len(shape))
        grids = tuple(LambdaGrid.from_df(L, rng.uniform(0.2, 0.5)) for L in shape)
        keys = np.stack([rng.uniform(g.f[0], g.f[-1], 7) for g in grids], axis=1)
        states = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        bins = pathsum.BinnedAmplitudes(keys, states, np.full(len(shape), 1e-9))
        field = periodic_sinc_field(grids, keys, states)
        assert meters.binned_field_residual(field, bins) < 1e-13

    def _qubit_case(self, qubit_h, coord_decomp, psi_plus, beta_avg, g):
        grid = TimeGrid(1.0, 10)
        bins = pathsum.binned_measurement_amplitude(
            qubit_h, coord_decomp, grid, psi_plus, PathFunctionalSpec(grid, (beta_avg,)))
        field = meters.amplitude_field(qubit_h, coord_decomp, grid, beta_avg, g, psi_plus)
        return field, bins

    def test_unaligned_grid_passes(self, qubit_h, coord_decomp, psi_plus, beta_avg):
        """The keys 1 + m / 10 fall between the nodes of df = 0.0173."""
        g = LambdaGrid.from_df(256, 0.0173)
        field, bins = self._qubit_case(qubit_h, coord_decomp, psi_plus, beta_avg, g)
        assert meters.binned_field_residual(field, bins) < 1e-10

    @pytest.mark.parametrize("edit", ["scale_one_bin", "spike_on_empty_node"])
    def test_an_edited_bin_is_seen(self, qubit_h, coord_decomp, psi_plus, beta_avg, edit):
        g = meters.aligned_grid(beta_avg, TimeGrid(1.0, 10), coord_decomp, 256)
        field, bins = self._qubit_case(qubit_h, coord_decomp, psi_plus, beta_avg, g)
        keys, states = bins.f_values, bins.states.copy()
        if edit == "scale_one_bin":
            states[np.argmax(np.linalg.norm(states, axis=1))] *= 1.01
        else:  # a node far below the attainable [1, 2]
            keys = np.vstack([keys, [[g.f[10]]]])
            states = np.vstack([states, [[0.01, 0.0]]])
        edited = pathsum.BinnedAmplitudes(keys, states, bins.bin_tol)
        assert meters.binned_field_residual(field, bins) < 1e-10
        assert meters.binned_field_residual(field, edited) > 1e-3

    @pytest.mark.parametrize("fixture", ["qubit_crosscheck", "generic_crosscheck"])
    def test_mirrored_readout_axis_fails(self, fixture, monkeypatch):
        """Swapping the centred transforms mirrors the readout axis; the
        swapped pair still inverts itself, so only the bins can see it."""
        cfg = json.loads((CONFIGS / f"{fixture}.json").read_text())
        assert cli.run(cfg).residuals["paths_vs_lambda"]["value"] < 1e-10
        monkeypatch.setattr(meters, "centered_idft", fourier.centered_dft)
        monkeypatch.setattr(meters, "centered_dft", fourier.centered_idft)
        residuals = cli.run(cfg).residuals
        assert residuals["paths_vs_lambda"]["value"] > 0.1
        assert residuals["marginal_completeness"]["pass"]
        assert residuals["fourier_consistency"]["pass"]


class TestFourierConsistency:
    def test_qubit(self, qubit_h, coord_decomp, psi_plus, beta_avg):
        grid = TimeGrid(1.0, 10)
        g = meters.aligned_grid(beta_avg, grid, coord_decomp, 256)
        field = meters.amplitude_field(qubit_h, coord_decomp, grid, beta_avg, g, psi_plus)
        assert meters.fourier_consistency_check(
            field, qubit_h, coord_decomp, grid, beta_avg) < 1e-10

    def test_free_diagonal_case(self, coord_decomp, psi_plus, beta_avg):
        grid = TimeGrid(1.0, 8)
        g = meters.aligned_grid(beta_avg, grid, coord_decomp, 64, margin_bins=2)
        field = meters.amplitude_field(np.zeros((2, 2)), coord_decomp, grid,
                                       beta_avg, g, psi_plus)
        assert meters.fourier_consistency_check(
            field, np.zeros((2, 2)), coord_decomp, grid, beta_avg) < 1e-13


def _born_field(coord_decomp, psi_plus, L=512):
    # df = 1/64 puts the eigenvalue spikes on-grid with range +-4 and
    # resolves width-0.1 kernels (~6 bins) so their symbols decay well
    # inside the lambda window
    grid = TimeGrid(1.0, 4)
    beta = SwitchingFunction.impulse(0.5)
    g = LambdaGrid.from_df(L, 1.0 / 64.0)
    field = meters.amplitude_field(np.zeros((2, 2)), coord_decomp, grid,
                                   beta, g, psi_plus)
    return field, g


class TestCoarseGrain:
    def test_shift_translates(self, coord_decomp, psi_plus):
        field, g = _born_field(coord_decomp, psi_plus)
        shift = CoarseGrainKernel.shift((g,), (4 * g.df,))
        out = meters.coarse_grain(field, shift)
        assert out.kind == "fine"  # unitary kernels do not coarsen
        assert np.abs(out.states - np.roll(field.states, 4, axis=0)).max() < 1e-9

    def test_gaussian_on_comb_is_sum_of_bumps(self, coord_decomp, psi_plus):
        field, g = _born_field(coord_decomp, psi_plus)
        width = 0.1
        kern = CoarseGrainKernel.gaussian((g,), (width,))
        out = meters.coarse_grain(field, kern)
        assert out.kind == "coarse"
        # oracle: spikes at 1 and 2 with weights <a_k|psi0> convolved with G
        expected = np.zeros_like(out.states)
        for a, comp in ((1.0, 0), (2.0, 1)):
            expected[:, comp] = psi_plus[comp] * np.exp(-((g.f - a) / width) ** 2)
        assert np.abs(out.states - expected).max() < 1e-9

    def test_quadratic_phase_preserves_mass(self, coord_decomp, psi_plus):
        field, g = _born_field(coord_decomp, psi_plus)
        kern = CoarseGrainKernel.quadratic_phase((g,), (0.3,))
        out = meters.coarse_grain(field, kern)
        assert out.kind == "fine"
        assert out.mass() == pytest.approx(field.mass(), rel=1e-10)

    def test_shift_preserves_mass(self, coord_decomp, psi_plus):
        field, g = _born_field(coord_decomp, psi_plus)
        kern = CoarseGrainKernel.shift((g,), (0.5,))
        out = meters.coarse_grain(field, kern)
        assert out.mass() == pytest.approx(field.mass(), rel=1e-10)

    def test_grain_and_shift_commute(self, coord_decomp, psi_plus):
        field, g = _born_field(coord_decomp, psi_plus)
        gauss = CoarseGrainKernel.gaussian((g,), (0.1,))
        shift = CoarseGrainKernel.shift((g,), (0.25,))
        a = meters.coarse_grain(meters.coarse_grain(field, gauss), shift)
        b = meters.coarse_grain(meters.coarse_grain(field, shift), gauss)
        assert np.abs(a.states - b.states).max() < 1e-12

    def test_grid_mismatch(self, coord_decomp, psi_plus):
        field, g = _born_field(coord_decomp, psi_plus)
        other = LambdaGrid(64, g.dlam)
        with pytest.raises(GridMismatch):
            meters.coarse_grain(field, CoarseGrainKernel.gaussian((other,), (0.1,)))

    def test_unitary_kernels_have_unit_modulus_symbols(self, coord_decomp, psi_plus):
        _, g = _born_field(coord_decomp, psi_plus)
        for kern in (CoarseGrainKernel.shift((g,), (0.7,)),
                     CoarseGrainKernel.quadratic_phase((g,), (0.3,))):
            assert np.abs(np.abs(kern.symbol()) - 1.0).max() < 1e-14

    def test_gaussian_symbol_real_positive_peaked(self, coord_decomp, psi_plus):
        _, g = _born_field(coord_decomp, psi_plus)
        kern = CoarseGrainKernel.gaussian((g,), (0.2,))
        sym = kern.symbol()
        vals = kern.f_samples()
        assert np.all(sym.real > 0) and np.abs(sym.imag).max() == 0.0
        assert vals[g.f_index(0.0)].real == 1.0  # peak at zero readout

    def test_custom_kernel_matches_gaussian(self, coord_decomp, psi_plus):
        field, g = _born_field(coord_decomp, psi_plus)
        width = 0.1
        gauss = CoarseGrainKernel.gaussian((g,), (width,))
        custom = CoarseGrainKernel.custom((g,), np.exp(-((g.f / width) ** 2)))
        a = meters.coarse_grain(field, gauss)
        b = meters.coarse_grain(field, custom)
        # analytic symbol vs sampled-DFT symbol agree once G is resolved
        assert np.abs(a.states - b.states).max() < 1e-9


class TestProbabilities:
    def test_fine_field_rejected(self, coord_decomp, psi_plus):
        field, _ = _born_field(coord_decomp, psi_plus)
        with pytest.raises(FineFieldNotNormalizable):
            meters.probabilities(field)

    def test_born_masses(self, coord_decomp, psi_plus):
        field, g = _born_field(coord_decomp, psi_plus)
        out = meters.coarse_grain(field, CoarseGrainKernel.gaussian((g,), (0.1,)))
        table = meters.probabilities(out)
        W = table.weights
        split = g.f_index(1.5)
        low = W[:split].sum() * g.df
        high = W[split:].sum() * g.df
        assert low / (low + high) == pytest.approx(0.5, abs=1e-10)

    def test_all_mass_on_occupied_level(self, coord_decomp):
        field, g = _born_field(coord_decomp, np.array([1.0, 0.0]))
        out = meters.coarse_grain(field, CoarseGrainKernel.gaussian((g,), (0.1,)))
        W = meters.probabilities(out).weights
        split = g.f_index(1.5)
        assert W[split:].sum() * g.df < 1e-12
        assert W[:split].sum() * g.df > 0

    def test_total_mass_identity(self, qubit_h, coord_decomp, psi_plus, beta_avg):
        """Total readout mass equals int |G|^2 df x |psi0|^2."""
        grid = TimeGrid(1.0, 10)
        g = meters.aligned_grid(beta_avg, grid, coord_decomp, 256)
        field = meters.amplitude_field(qubit_h, coord_decomp, grid, beta_avg, g, psi_plus)
        kern = CoarseGrainKernel.gaussian((g,), (0.15,))
        table = meters.probabilities(meters.coarse_grain(field, kern))
        assert abs(table.total_mass() - kern.squared_mass() * 1.0) < 1e-6


class TestResolutionRescale:
    def test_identity_and_halving(self, coord_decomp, psi_plus):
        _, g = _born_field(coord_decomp, psi_plus)
        kern = CoarseGrainKernel.gaussian((g,), (0.2,))
        assert meters.resolution_rescale(kern, 1.0).params == kern.params
        assert meters.resolution_rescale(kern, 2.0).params[0] == pytest.approx(0.1)
        with pytest.raises(NonPositiveAlpha):
            meters.resolution_rescale(kern, 0.0)

    def test_rescale_equals_amplified_coupling(self, qubit_h, coord_decomp,
                                               psi_plus, beta_avg):
        """Sharpening the kernel alpha-fold = amplifying the coupling
        alpha-fold on the alpha-relabelled grid, with mass ratio alpha."""
        alpha = 2.0
        grid = TimeGrid(1.0, 10)
        g1 = meters.aligned_grid(beta_avg, grid, coord_decomp, 256)
        kern = CoarseGrainKernel.gaussian((g1,), (0.3,))
        field1 = meters.amplitude_field(qubit_h, coord_decomp, grid, beta_avg, g1, psi_plus)
        out1 = meters.coarse_grain(field1, meters.resolution_rescale(kern, alpha))

        g2 = LambdaGrid(g1.n_points, g1.dlam / alpha)  # df_2 = alpha df_1
        field2 = meters.amplitude_field(qubit_h, alpha * np.asarray(coord_decomp.reconstruct()),
                                        grid, beta_avg, g2, psi_plus)
        kern2 = CoarseGrainKernel.gaussian((g2,), (0.3,))
        out2 = meters.coarse_grain(field2, kern2)
        # node n of grid 2 sits at alpha * f_n: relabelling is index identity
        assert np.abs(out2.states - out1.states).max() < 1e-9
        assert out2.mass() / out1.mass() == pytest.approx(alpha, rel=1e-9)


# meter profiles on 12 slices and the number of distinct runs of equal
# slice weights, which is how often the factor must be built
PROFILES = {
    "constant": ((SwitchingFunction.constant(1.0),), 1),
    "impulse": ((SwitchingFunction.impulse(0.5),), 3),
    "sampled": ((SwitchingFunction.sampled(np.linspace(0.3, 1.7, 12)),), 12),
    "piecewise": ((SwitchingFunction.sampled(np.repeat([0.3, 1.7, 0.3, 1.1], 3)),), 4),
    "constant+impulse": ((SwitchingFunction.constant(1.0),
                          SwitchingFunction.impulse(0.5)), 3),
}
EPS = np.finfo(float).eps


def rebuild_every_slice(u, states, weights, factor):
    """Reference sliced evolution that builds the factor and applies the
    real slice map of meters._sliced on every slice, with no powering."""
    uT = meters._real_form(u.T)
    for w in weights:
        states = (states.view(np.float64) @ uT).view(complex)
        states = states * factor(w)
    return states


def power_bound(states, n_slices, d):
    """Agreement bound of powered runs with the slice-by-slice loop:
    2 N d eps times the largest start entry. Binary powering rounds about
    as often per slice as the loop does (measured below 0.6 N d eps over
    TestPowering's cases, unitary slices, up to N = 4096)."""
    return 2 * n_slices * d * EPS * np.abs(states).max()


class TestSlicedReuse:
    """Reusing the factor while the slice weights repeat is bit-identical
    to rebuilding it on every slice. On 12 slices the operation count
    powers no run, so every profile loops."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_lambda_phases(self, profile):
        rng = np.random.default_rng(4)
        H = random_hermitian(rng, 3)
        decomp = hilbert.spectral_decompose(np.diag([1.0, 2.0, 3.5]).astype(complex))
        grid = TimeGrid(1.0, 12)
        betas, runs = PROFILES[profile]
        W = np.stack([timegrid.slice_weights(b, grid) for b in betas])
        lam_rows = rng.normal(size=(16, len(betas)))
        a = decomp.eigenvalues
        u = pathsum._slice_transfer(H, decomp, grid)
        start = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
        builds = []

        def factor(w):
            builds.append(w)
            return np.exp(-1j * np.outer(lam_rows @ w, a))

        got = meters._sliced(u, start, W.T, factor)
        assert len(builds) == runs
        assert np.array_equal(got, rebuild_every_slice(u, start, W.T, factor))


def slice_weights_of(kind, n):
    """Slice weights of n slices: one run, three runs of which two have
    zero weight, four runs, or n runs."""
    if kind == "constant":
        return np.full(n, 0.25)
    if kind == "impulse":
        return (np.arange(n) == n // 2) * 1.0
    if kind == "piecewise":
        return np.array([0.3, 1.7, 0.3, 1.1])[np.arange(n) * 4 // n]
    return np.linspace(0.3, 1.7, n)


def run_lengths(weights):
    edges = np.flatnonzero(np.diff(weights)) + 1
    return np.diff(np.concatenate(([0], edges, [len(weights)])))


@pytest.fixture
def always_power(monkeypatch):
    """Power every run longer than one slice, whatever the operation count."""
    monkeypatch.setattr(meters, "_power_pays", lambda n, d: True)


class TestPowering:
    """Runs of equal weights raised to their length agree with the
    slice-by-slice loop, whether the operation count picks the power or
    the power is forced."""

    @pytest.mark.parametrize("kind", ["constant", "impulse", "piecewise", "sampled"])
    @pytest.mark.parametrize("n", [1, 2, 3, 511, 512, 513, 4096])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_matches_the_loop(self, d, n, kind, monkeypatch):
        u, start, factor = slice_case(d, 16)
        W = slice_weights_of(kind, n)
        want = rebuild_every_slice(u, start, W, factor)
        got = meters._sliced(u, start, W, factor)
        assert np.abs(got - want).max() <= power_bound(start, n, d)
        monkeypatch.setattr(meters, "_power_pays", lambda n, d: True)
        forced = meters._sliced(u, start, W, factor)
        assert np.abs(forced - want).max() <= power_bound(start, n, d)
        if kind == "sampled":
            assert got.tobytes() == want.tobytes() == forced.tobytes()

    @pytest.mark.parametrize("kind", ["constant", "impulse", "piecewise"])
    def test_broadcast_start_row(self, kind, always_power):
        u, start, factor = slice_case(3, 300)
        row = start[0].copy()
        W = slice_weights_of(kind, 513)
        got = meters._sliced(u, row, W, factor)
        want = meters._sliced(u, np.tile(row, (300, 1)), W, factor)
        assert np.abs(got - want).max() <= power_bound(row, 513, 3)
        assert np.array_equal(row, start[0])

    def test_factor_broadcast_inside_the_stack(self, always_power):
        """A factor of shape (4, 1, d) on a (4, 7, d) stack: the 7 rows of
        each group share their group's factor row."""
        rng = np.random.default_rng(6)
        u, _, _ = slice_case(3, 1)
        start = rng.normal(size=(4, 7, 3)) + 1j * rng.normal(size=(4, 7, 3))
        lam, a = rng.normal(size=(4, 1, 1)), rng.normal(size=3)

        def factor(w):
            return np.exp(-1j * lam * w * a)

        W = slice_weights_of("constant", 513)
        want = rebuild_every_slice(u, start, W, factor)
        got = meters._sliced(u, start, W, factor)
        assert np.abs(got - want).max() <= power_bound(start, 513, 3)

    @pytest.mark.parametrize("kind", ["constant", "impulse", "piecewise"])
    def test_row_blocks_do_not_change_the_bytes(self, kind, monkeypatch):
        u, start, factor = slice_case(3, 300)
        W = slice_weights_of(kind, 4096)
        whole = meters._sliced(u, start, W, factor)
        monkeypatch.setattr(meters, "_BLOCK_CELLS", 9 * 7)  # 43 blocks of 7 rows
        assert meters._sliced(u, start, W, factor).tobytes() == whole.tobytes()

    def test_operation_count(self):
        """The count's choice at measured points (512 and 4,096 equal
        slices, 2,048 rows at d = 8, 8,192 at d = 2): the finite-time
        readout (N = 512, d = 2) powers, and so does d = 8 at N = 4,096
        (32 ms against 183 ms looped); a single slice, a short run
        (N = 18) and d = 8 or 16 at N = 512 loop."""
        assert meters._power_pays(512, 2) and meters._power_pays(4096, 8)
        assert not any(meters._power_pays(1, d) for d in (1, 2, 3, 5, 8))
        assert not meters._power_pays(18, 2)
        assert not meters._power_pays(512, 8) and not meters._power_pays(512, 16)

    @pytest.mark.parametrize("kind", ["constant", "impulse", "piecewise", "sampled"])
    @pytest.mark.parametrize("d", [2, 5])
    def test_counts(self, d, kind, monkeypatch):
        """One factor build per run, and floor(log2 n) squarings for each
        run that the operation count powers."""
        u, start, factor = slice_case(d, 16)
        W = slice_weights_of(kind, 4096)
        builds, squarings = [], []
        product = meters._product

        def counted(p, x, out, tmp):
            squarings.append(p is x)
            return product(p, x, out, tmp)

        monkeypatch.setattr(meters, "_product", counted)
        meters._sliced(u, start, W, lambda w: builds.append(w) or factor(w))
        runs = run_lengths(W)
        assert len(builds) == len(runs)
        assert sum(squarings) == sum(int(n).bit_length() - 1 for n in runs
                                     if meters._power_pays(int(n), d))

    def test_transform_stack(self, always_power):
        """_coupled_propagators' U(lam) is the ordered slice product."""
        rng = np.random.default_rng(8)
        H = random_hermitian(rng, 3)
        decomp = hilbert.spectral_decompose(random_hermitian(rng, 3))
        grid = TimeGrid(1.0, 40)
        lgrid = LambdaGrid.from_df(16, 0.5)
        for beta in (SwitchingFunction.constant(0.7), SwitchingFunction.impulse(0.3)):
            got = transforms._coupled_propagators(H, decomp, grid, beta, lgrid)
            u = pathsum._slice_transfer(H, decomp, grid)
            w = timegrid.slice_weights(beta, grid)
            V = decomp.eigenvectors
            for m, lam in enumerate(lgrid.lam):
                U = np.eye(3, dtype=complex)
                for wj in w:
                    U = np.exp(-1j * lam * wj * decomp.eigenvalues)[:, None] * (u @ U)
                assert np.abs(got[m] - V @ U @ V.conj().T).max() <= power_bound(U, 40, 3)

    def test_record_route(self, qubit_h, coord_decomp, psi_plus):
        """Constant records make one run, which the operation count powers
        at N = 512; the weak meter array evolves slice by slice."""
        grid = TimeGrid(1.0, 512)
        recs = [mensky.ReadoutRecord.constant(grid, v) for v in (0.2, 1.0, 1.7)]
        cfg = mensky.MenskyConfig(2.0)
        got = mensky.record_states(qubit_h, coord_decomp, grid, recs, cfg, psi_plus)
        for rec, state in zip(recs, got):
            want = mensky.weak_meter_array(qubit_h, coord_decomp, grid, 2.0, psi_plus, rec)
            assert np.abs(state - want).max() <= power_bound(psi_plus, 512, 2)

    def test_block_memory(self, always_power):
        """A powered run adds at most one row block's buffers to the peak of
        the loop, which is the evolution without powering."""
        u, start, factor = slice_case(16, 4096)
        peaks = []
        for W in (slice_weights_of("sampled", 512), slice_weights_of("constant", 512)):
            tracemalloc.start()
            meters._sliced(u, start, W, factor)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        budget = 6 * meters._BLOCK_CELLS * 16  # six complex128 buffers of a block
        assert peaks[1] <= peaks[0] + budget


def complex_slices(u, states, weights, factor):
    """Reference sliced evolution with the plain complex product states @ u.T."""
    for w in weights:
        states = (states @ u.T) * factor(w)
    return states


SLICE_WEIGHTS = {
    "constant": np.full(12, 0.25),
    "impulse": (np.arange(12) == 5) * 1.0,
    "sampled": np.linspace(0.3, 1.7, 12),
}


def slice_case(d, batch, seed=5):
    """Random unitary u, start rows and a lambda-style factor."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    start = rng.normal(size=(batch, d)) + 1j * rng.normal(size=(batch, d))
    lam, a = rng.normal(size=batch), rng.normal(size=d)
    return u, start, lambda w: np.exp(-1j * np.outer(lam * w, a))


class TestSliceMap:
    """The real slice map in _sliced is the complex row product."""

    @pytest.mark.parametrize("weights", sorted(SLICE_WEIGHTS))
    @pytest.mark.parametrize("batch", [1, 7, 300])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_matches_complex_product(self, d, batch, weights):
        u, start, factor = slice_case(d, batch)
        kept = start.copy()
        W = SLICE_WEIGHTS[weights]
        got = meters._sliced(u, start, W, factor)
        assert np.abs(got - complex_slices(u, start, W, factor)).max() <= 1e-13
        assert np.array_equal(start, kept)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_broadcast_start_row_is_the_tiled_stack(self, d):
        u, start, factor = slice_case(d, 300)
        row = start[0].copy()
        W = SLICE_WEIGHTS["sampled"]
        got = meters._sliced(u, row, W, factor)
        assert got.tobytes() == meters._sliced(u, np.tile(row, (300, 1)), W, factor).tobytes()
        assert np.array_equal(row, start[0])


class TestCallableMap:
    """_sliced with a slice map given as a callable, and with out=."""

    @pytest.mark.parametrize("weights", sorted(SLICE_WEIGHTS))
    def test_matches_complex_product(self, weights):
        u, start, factor = slice_case(3, 7)
        W = SLICE_WEIGHTS[weights]

        def step(rows):
            rows[...] = rows @ u.T
            return rows

        out = start.copy()
        got = meters._sliced(step, out, W, factor, out=out)
        assert got is out
        assert np.abs(got - complex_slices(u, start, W, factor)).max() <= 1e-13

    def test_callable_is_never_powered(self):
        """A run that a matrix map powers loops a callable map slice by slice."""
        u, start, factor = slice_case(2, 7)
        assert meters._power_pays(4096, 2)
        calls = []

        def step(rows):
            calls.append(1)
            rows[...] = rows @ u.T
            return rows

        meters._sliced(step, start, np.full(4096, 0.25), factor)
        assert len(calls) == 4096

    @pytest.mark.parametrize("n", [11, 12, 4096])
    def test_out_holds_the_rows_of_a_matrix_map(self, n):
        """The matrix map's two buffers alternate, so after an odd or even
        number of slices, or a powered run, out holds the result's bytes."""
        u, start, factor = slice_case(2, 7)
        W = np.linspace(0.3, 1.7, n) if n < 100 else np.full(n, 0.25)
        want = meters._sliced(u, start, W, factor)
        out = np.empty_like(want)
        got = meters._sliced(u, start, W, factor, out=out)
        assert got is out
        assert got.tobytes() == want.tobytes()
