import numpy as np
import pytest

from pathmeter import hilbert, meters, transforms
from pathmeter.errors import DimensionMismatch, GridMismatch
from pathmeter.meters import LambdaGrid
from pathmeter.timegrid import SwitchingFunction, TimeGrid

from conftest import random_hermitian


@pytest.fixture
def exchange_b():
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _field(H, obs, grid, beta, lgrid, psi0):
    return meters.amplitude_field(H, obs, grid, beta, lgrid, psi0)


class TestFiniteTimeKernel:
    def setup_method(self):
        self.grid = TimeGrid(1.0, 12)
        self.beta = SwitchingFunction.constant(1.0)
        self.lgrid = LambdaGrid.from_df(256, 1.0 / 48.0)
        self.psi0 = np.array([0.6, 0.8], dtype=complex)

    def test_same_observable_is_identity_on_fields(self, qubit_h, coord_a):
        fieldA = _field(qubit_h, coord_a, self.grid, self.beta, self.lgrid, self.psi0)
        ker = transforms.finite_time_kernel(
            qubit_h, coord_a, coord_a, self.grid, self.beta, self.beta, self.lgrid)
        out = transforms.apply_kernel(ker, fieldA)
        assert np.abs(out.states - fieldA.states).max() < 1e-9

    def test_maps_a_field_to_b_field(self, qubit_h, coord_a, exchange_b):
        fieldA = _field(qubit_h, coord_a, self.grid, self.beta, self.lgrid, self.psi0)
        fieldB = _field(qubit_h, exchange_b, self.grid, self.beta, self.lgrid, self.psi0)
        ker = transforms.finite_time_kernel(
            qubit_h, coord_a, exchange_b, self.grid, self.beta, self.beta, self.lgrid)
        out = transforms.apply_kernel(ker, fieldA)
        assert np.abs(out.states - fieldB.states).max() < 1e-8

    def test_round_trip(self, qubit_h, coord_a, exchange_b):
        fieldA = _field(qubit_h, coord_a, self.grid, self.beta, self.lgrid, self.psi0)
        there = transforms.finite_time_kernel(
            qubit_h, coord_a, exchange_b, self.grid, self.beta, self.beta, self.lgrid)
        back = transforms.finite_time_kernel(
            qubit_h, exchange_b, coord_a, self.grid, self.beta, self.beta, self.lgrid)
        out = transforms.apply_kernel(back, transforms.apply_kernel(there, fieldA))
        assert np.abs(out.states - fieldA.states).max() < 1e-6

    def test_discrete_unitarity(self, qubit_h, coord_a, exchange_b):
        ker = transforms.finite_time_kernel(
            qubit_h, coord_a, exchange_b, self.grid, self.beta, self.beta,
            LambdaGrid.from_df(64, 1.0 / 12.0))
        assert ker.unitarity_residual() < transforms.KERNEL_TOL

    def test_instantaneous_limit_is_basis_change_comb(self, coord_a, exchange_b):
        """H = 0 with impulse profiles: spikes at eigenvalue differences
        b - a carrying |b><b|a><a| / df."""
        beta = SwitchingFunction.impulse(0.5)
        lgrid = LambdaGrid.from_df(128, 0.25)
        ker = transforms.finite_time_kernel(
            np.zeros((2, 2)), coord_a, exchange_b, self.grid, beta, beta, lgrid)
        decA = hilbert.spectral_decompose(coord_a)
        decB = hilbert.spectral_decompose(exchange_b)
        expected = {}
        for a_i in range(2):
            for b_i in range(2):
                diff = decB.eigenvalues[b_i] - decA.eigenvalues[a_i]
                d = int(round(diff / lgrid.df))
                va, vb = decA.eigenvectors[:, a_i], decB.eigenvectors[:, b_i]
                op = np.outer(vb, vb.conj()) @ np.outer(va, va.conj()) / lgrid.df
                expected[d] = expected.get(d, 0) + op
        for d in range(-16, 17):
            want = expected.get(d, np.zeros((2, 2)))
            assert np.abs(ker.at_difference(d) - want).max() < 1e-10

    def test_zero_field_maps_to_zero(self, qubit_h, coord_a, exchange_b):
        ker = transforms.finite_time_kernel(
            qubit_h, coord_a, exchange_b, self.grid, self.beta, self.beta, self.lgrid)
        zero = meters.AmplitudeField(
            (self.lgrid,), np.zeros((256, 2), dtype=complex), "fine")
        out = transforms.apply_kernel(ker, zero)
        assert np.abs(out.states).max() == 0.0

    def test_grid_mismatch(self, qubit_h, coord_a, exchange_b):
        ker = transforms.finite_time_kernel(
            qubit_h, coord_a, exchange_b, self.grid, self.beta, self.beta, self.lgrid)
        other = meters.AmplitudeField(
            (LambdaGrid.from_df(128, 1.0 / 48.0),),
            np.zeros((128, 2), dtype=complex), "fine")
        with pytest.raises(GridMismatch):
            transforms.apply_kernel(ker, other)


def table_apply_kernel(kernel, field):
    """Reference convolution through the explicit (L, L, d, d) table
    ops[(n - m) % L]."""
    L = kernel.grid.n_points
    diff = (np.arange(L)[:, None] - np.arange(L)[None, :]) % L
    return np.einsum("nmab,mb->na", kernel.ops[diff], field.states) * kernel.grid.df


def roll_unitarity_residual(kernel):
    """Reference unitarity residual: one rolled product per difference d."""
    df = kernel.grid.df
    eye = np.eye(kernel.dim) / df
    res = 0.0
    for d in range(kernel.grid.n_points):
        rolled = np.roll(kernel.ops, -d, axis=0)
        acc = np.einsum("kba,kbc->ac", kernel.ops.conj(), rolled) * df
        res = max(res, float(np.abs(acc - (eye if d == 0 else 0.0)).max()))
    return res


class TestKernelByFFT:
    """The FFT routes against the literal difference-table routes, on a
    generic dim-3 pair with sampled profiles."""

    def setup_method(self):
        rng = np.random.default_rng(23)
        self.H, self.A, self.B = (random_hermitian(rng, 3) for _ in range(3))
        self.grid = TimeGrid(1.0, 16)
        self.betaA = SwitchingFunction.sampled(rng.uniform(0.5, 1.5, 16))
        self.betaB = SwitchingFunction.sampled(rng.uniform(0.5, 1.5, 16))
        self.lgrid = LambdaGrid.from_df(64, 0.25)
        self.ker = transforms.finite_time_kernel(
            self.H, self.A, self.B, self.grid, self.betaA, self.betaB, self.lgrid)
        # a far-from-unitary table whose worst difference is d = +-1, not 0
        self.skewed = transforms.OperatorKernel(
            self.lgrid, self.ker.ops + 0.1 * np.roll(self.ker.ops, 1, axis=0))
        states = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
        self.field = meters.AmplitudeField((self.lgrid,), states, "fine")

    @pytest.mark.parametrize("which", ["ker", "skewed"])
    def test_apply_kernel_matches_difference_table(self, which):
        ker = getattr(self, which)
        ref = table_apply_kernel(ker, self.field)
        out = transforms.apply_kernel(ker, self.field).states
        assert np.abs(out - ref).max() < 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("which", ["ker", "skewed"])
    def test_unitarity_residual_matches_roll_loop(self, which):
        ker = getattr(self, which)
        ref = roll_unitarity_residual(ker)
        scale = max(ref, 1.0 / self.lgrid.df)
        assert abs(ker.unitarity_residual() - ref) < 1e-12 * scale

    def test_adjoint_is_the_reverse_kernel(self):
        """ops[-d]^dag equals the B -> A kernel built from scratch; the round
        trip through the adjoint restores a field only if the kernel is
        unitary, so it still checks something."""
        rev = transforms.finite_time_kernel(
            self.H, self.B, self.A, self.grid, self.betaB, self.betaA, self.lgrid)
        assert np.abs(self.ker.adjoint().ops - rev.ops).max() < 1e-12 * np.abs(rev.ops).max()

        def round_trip(ker):
            there = transforms.apply_kernel(ker, self.field)
            return transforms.apply_kernel(ker.adjoint(), there).states

        scale = np.abs(self.field.states).max()
        assert np.abs(round_trip(self.ker) - self.field.states).max() < 1e-10 * scale
        assert np.abs(round_trip(self.skewed) - self.field.states).max() > 0.05 * scale


class TestVonNeumannBasisChange:
    def test_same_basis_identity(self, coord_a):
        dec = hilbert.spectral_decompose(coord_a)
        psi = np.array([0.3 + 0.1j, 0.9])
        out = transforms.von_neumann_basis_change(psi, dec, dec)
        assert np.abs(out - dec.to_eigenbasis(psi)).max() < 1e-14

    def test_balanced_basis(self, coord_a, exchange_b):
        decA = hilbert.spectral_decompose(coord_a)
        decB = hilbert.spectral_decompose(exchange_b)
        out = transforms.von_neumann_basis_change(np.array([1.0, 0.0]), decA, decB)
        assert np.allclose(np.abs(out), [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_random_three_level_pair(self):
        rng = np.random.default_rng(13)
        decA = hilbert.spectral_decompose(random_hermitian(rng, 3))
        decB = hilbert.spectral_decompose(random_hermitian(rng, 3))
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        out = transforms.von_neumann_basis_change(psi, decA, decB)
        direct = decB.eigenvectors.conj().T @ psi
        assert np.abs(out - direct).max() < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(14)
        decA = hilbert.spectral_decompose(random_hermitian(rng, 4))
        decB = hilbert.spectral_decompose(random_hermitian(rng, 4))
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        out = transforms.von_neumann_basis_change(psi, decA, decB)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(
            float(np.linalg.norm(psi) ** 2), rel=1e-12)

    def test_dim_mismatch(self, coord_a):
        decA = hilbert.spectral_decompose(coord_a)
        decB = hilbert.spectral_decompose(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(DimensionMismatch):
            transforms.von_neumann_basis_change(np.array([1.0, 0]), decA, decB)


class TestCompletenessIdentity:
    def test_uncoupled_qubit(self, coord_decomp):
        H = np.diag([0.3, 1.1]).astype(complex)
        res = transforms.completeness_identity_check(H, coord_decomp, TimeGrid(1.0, 4))
        assert res < 1e-14

    def test_coupled_qubit(self, qubit_h, coord_decomp):
        res = transforms.completeness_identity_check(
            qubit_h, coord_decomp, TimeGrid(1.0, 6))
        assert res < 1e-12

    def test_three_level(self):
        rng = np.random.default_rng(17)
        H = random_hermitian(rng, 3)
        dec = hilbert.spectral_decompose(np.diag([1.0, 2.0, 3.0]))
        res = transforms.completeness_identity_check(H, dec, TimeGrid(0.9, 4))
        assert res < 1e-12
