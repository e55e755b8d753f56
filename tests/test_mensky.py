import numpy as np
import pytest

from pathmeter import hilbert, mensky, meters
from pathmeter.errors import EmptyRecordSet, ImpulseNotSquareIntegrable, LengthMismatch
from pathmeter.mensky import MenskyConfig, ReadoutRecord
from pathmeter.timegrid import SwitchingFunction, TimeGrid, square_integral


def closed_form_free(psi0, eigenvalues, phi, T, sigma):
    """Oracle for H = 0: plain product of diagonal damping factors."""
    damp = np.exp(-((phi - np.asarray(eigenvalues)) ** 2) * T / sigma**2)
    return np.asarray(psi0) * damp


class TestRecordEvolve:
    def test_free_closed_form(self, coord_decomp):
        grid = TimeGrid(1.0, 16)
        psi0 = np.array([0.6, 0.8], dtype=complex)
        rec = ReadoutRecord.constant(grid, 1.0)
        out = mensky.record_evolve(np.zeros((2, 2)), coord_decomp, grid, rec,
                                   MenskyConfig(1.0), psi0)
        oracle = closed_form_free(psi0, [1.0, 2.0], 1.0, 1.0, 1.0)
        assert np.abs(out - oracle).max() < 1e-12
        norm2 = float(np.vdot(out, out).real)
        assert norm2 == pytest.approx(0.36 + 0.64 * np.exp(-2.0), abs=1e-12)

    def test_record_on_followed_level_is_transparent(self, coord_decomp):
        grid = TimeGrid(1.0, 8)
        psi0 = np.array([0.0, 1.0], dtype=complex)
        rec = ReadoutRecord.constant(grid, 2.0)  # phi tracks a_2
        out = mensky.record_evolve(np.zeros((2, 2)), coord_decomp, grid, rec,
                                   MenskyConfig(0.5), psi0)
        assert np.abs(out - psi0).max() < 1e-14

    def test_huge_tube_recovers_free_evolution(self, qubit_h, coord_decomp, psi_plus):
        grid = TimeGrid(1.0, 10)
        rec = ReadoutRecord.constant(grid, 1.3)
        out = mensky.record_evolve(qubit_h, coord_decomp, grid, rec,
                                   MenskyConfig(1e6), psi_plus)
        free = hilbert.exact_propagator(qubit_h, 1.0) @ psi_plus
        assert np.linalg.norm(out - free) < 1e-10

    def test_norm_non_increasing_slice_by_slice(self, qubit_h, coord_decomp, psi_plus):
        rng = np.random.default_rng(4)
        phi = rng.uniform(0.5, 2.5, size=12)
        norms = []
        for j in range(1, 13):
            grid_j = TimeGrid(j / 12.0, j)
            rec = ReadoutRecord(grid_j, phi[:j])
            out = mensky.record_evolve(qubit_h, coord_decomp, grid_j, rec,
                                       MenskyConfig(0.8), psi_plus)
            norms.append(np.linalg.norm(out))
        assert all(a >= b - 1e-13 for a, b in zip(norms, norms[1:]))
        assert norms[0] <= 1.0 + 1e-13

    @pytest.mark.parametrize("sigma", [1e-200, 1e300])
    def test_sigma_squared_out_of_range_rejected(self, sigma):
        """sigma^2 underflows to 0 or overflows: the config refuses it, before
        the record route divides by it (ZeroDivisionError, OverflowError)."""
        with pytest.raises(ValueError, match="sigma"):
            MenskyConfig(sigma)

    @pytest.mark.parametrize("total, sigma", [(1.0, 1e-160), (4e-300, 1e150)])
    def test_damping_rate_out_of_range_rejected(self, coord_decomp, total, sigma):
        """sigma^2 is in range but eps / sigma^2 is inf (subnormal sigma^2)
        or 0."""
        grid = TimeGrid(total, 4)
        rec = ReadoutRecord.constant(grid, 1.0)
        with pytest.raises(ValueError, match="eps / sigma"):
            mensky.record_evolve(np.zeros((2, 2)), coord_decomp, grid, rec,
                                 MenskyConfig(sigma), [1, 0])

    def test_record_length_checked(self):
        with pytest.raises(LengthMismatch):
            ReadoutRecord(TimeGrid(1.0, 4), (1.0, 2.0))


class TestWeakMeterArray:
    def test_identical_to_record_evolve(self, qubit_h, coord_decomp, psi_plus):
        grid = TimeGrid(1.0, 10)
        rng = np.random.default_rng(8)
        for _ in range(20):
            rec = ReadoutRecord(grid, rng.uniform(0.0, 3.0, size=10))
            a = mensky.record_evolve(qubit_h, coord_decomp, grid, rec,
                                     MenskyConfig(2.0), psi_plus)
            b = mensky.weak_meter_array(qubit_h, coord_decomp, grid, 2.0,
                                        psi_plus, rec)
            assert np.linalg.norm(a - b) <= 1e-13

    def test_single_slice_is_one_weak_meter(self, coord_decomp):
        grid = TimeGrid(0.5, 1)
        psi0 = np.array([0.6, 0.8], dtype=complex)
        rec = ReadoutRecord(grid, (1.5,))
        out = mensky.weak_meter_array(np.zeros((2, 2)), coord_decomp, grid,
                                      1.0, psi0, rec)
        width = 1.0 / np.sqrt(grid.eps)
        expected = psi0 * np.exp(-((1.5 - np.array([1.0, 2.0])) / width) ** 2)
        assert np.abs(out - expected).max() < 1e-14


class TestRecordScan:
    def test_free_particle_scores(self, coord_decomp):
        grid = TimeGrid(1.0, 12)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        recs = [ReadoutRecord.constant(grid, 1.0), ReadoutRecord.constant(grid, 2.0)]
        out = mensky.record_probability_scan(
            np.zeros((2, 2)), coord_decomp, grid, MenskyConfig(1.0), psi0, recs)
        assert out[0][1] == pytest.approx(1.0, abs=1e-12)
        assert out[1][1] == pytest.approx(np.exp(-2.0), abs=1e-12)

    def test_ordering_reverses_with_state(self, coord_decomp):
        grid = TimeGrid(1.0, 12)
        psi0 = np.array([0.0, 1.0], dtype=complex)
        recs = [ReadoutRecord.constant(grid, 1.0), ReadoutRecord.constant(grid, 2.0)]
        out = mensky.record_probability_scan(
            np.zeros((2, 2)), coord_decomp, grid, MenskyConfig(1.0), psi0, recs)
        assert out[1][1] > out[0][1]

    def test_projective_limit(self, coord_decomp, psi_plus):
        """sigma -> 0 with an eigenvalue-tracking record picks out the
        squared overlap with that eigenstate."""
        grid = TimeGrid(1.0, 8)
        rec = ReadoutRecord.constant(grid, 1.0)
        for sigma in (0.3, 0.1, 0.03):
            out = mensky.record_probability_scan(
                np.zeros((2, 2)), coord_decomp, grid, MenskyConfig(sigma),
                psi_plus, [rec])
        assert out[0][1] == pytest.approx(0.5, abs=1e-6)

    def test_stacked_records_match_one_at_a_time(self, qubit_h, coord_decomp, psi_plus):
        """All records evolve as rows of one sliced evolution; each row is
        the single-record evolution and the weak-meter oracle."""
        grid = TimeGrid(1.0, 10)
        rng = np.random.default_rng(9)
        recs = [ReadoutRecord(grid, rng.uniform(0.0, 3.0, size=10)) for _ in range(6)]
        cfg = MenskyConfig(2.0)
        rows = mensky.record_states(qubit_h, coord_decomp, grid, recs, cfg, psi_plus)
        scan = mensky.record_probability_scan(qubit_h, coord_decomp, grid, cfg, psi_plus, recs)
        for rec, row, (_, norm2) in zip(recs, rows, scan):
            one = mensky.record_evolve(qubit_h, coord_decomp, grid, rec, cfg, psi_plus)
            weak = mensky.weak_meter_array(qubit_h, coord_decomp, grid, 2.0, psi_plus, rec)
            assert np.linalg.norm(row - one) <= 1e-13
            assert np.linalg.norm(row - weak) <= 1e-13
            assert norm2 == pytest.approx(float(np.vdot(one, one).real), abs=1e-13)

    def test_empty_rejected(self, coord_decomp, psi_plus):
        with pytest.raises(EmptyRecordSet):
            mensky.record_probability_scan(
                np.zeros((2, 2)), coord_decomp, TimeGrid(1.0, 4),
                MenskyConfig(1.0), psi_plus, [])


class TestWeakLimit:
    def _setup(self, qubit_h, coord_decomp, beta_avg):
        grid = TimeGrid(1.0, 12)
        g = meters.aligned_grid(beta_avg, grid, coord_decomp, 256, margin_bins=2)
        return grid, g

    def test_zero_width_no_residual(self, qubit_h, coord_decomp, psi_plus, beta_avg):
        grid, g = self._setup(qubit_h, coord_decomp, beta_avg)
        res = mensky.weak_limit_check(qubit_h, coord_decomp, grid, beta_avg,
                                      [0.0], psi_plus, g)
        assert res[0] == 0.0

    def test_quadratic_scaling(self, qubit_h, coord_decomp, psi_plus, beta_avg):
        grid, g = self._setup(qubit_h, coord_decomp, beta_avg)
        sigmas = [4e-3, 2e-3, 1e-3]
        res = mensky.weak_limit_check(qubit_h, coord_decomp, grid, beta_avg,
                                      sigmas, psi_plus, g)
        for a, b in zip(res, res[1:]):
            assert a / b == pytest.approx(4.0, rel=0.15)

    def test_explicit_bound(self, qubit_h, coord_decomp, psi_plus, beta_avg):
        """residual <= 1.1 * lam_max^2 sigma^2 / (4 T) for beta = 1/T."""
        grid, g = self._setup(qubit_h, coord_decomp, beta_avg)
        sigma = 1e-3
        res = mensky.weak_limit_check(qubit_h, coord_decomp, grid, beta_avg,
                                      [sigma], psi_plus, g)
        lam_max = np.abs(g.lam).max()
        assert res[0] < 1.1 * lam_max**2 * sigma**2 / 4.0

    def test_matches_the_evolved_states(self, qubit_h, coord_decomp, beta_avg):
        """The residual taken from psi0's norm is the one taken from the
        norms of the evolved lambda states, for a start of norm 3."""
        grid, g = self._setup(qubit_h, coord_decomp, beta_avg)
        psi0 = np.array([1.0 + 2.0j, 2.0])
        sigmas = [4e-3, 1e-3]
        norms = np.linalg.norm(
            meters._lambda_states(qubit_h, coord_decomp, grid, beta_avg, g, psi0), axis=-1)
        i_beta = square_integral(beta_avg, grid)
        want = [np.max(np.abs(np.exp(-g.lam**2 * s**2 * i_beta / 4) - 1.0) * norms)
                for s in sigmas]
        got = mensky.weak_limit_check(qubit_h, coord_decomp, grid, beta_avg, sigmas, psi0, g)
        assert got == pytest.approx(want, rel=1e-13)

    def test_impulse_rejected(self, qubit_h, coord_decomp, psi_plus):
        grid = TimeGrid(1.0, 8)
        g = meters.LambdaGrid.from_df(64, 0.25)
        with pytest.raises(ImpulseNotSquareIntegrable):
            mensky.weak_limit_check(qubit_h, coord_decomp, grid,
                                    SwitchingFunction.impulse(0.5),
                                    [0.1], psi_plus, g)
