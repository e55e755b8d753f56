import numpy as np
import pytest

from pathmeter import hilbert, timegrid
from pathmeter.errors import (
    ImpulseNotSquareIntegrable,
    ImpulseOutOfRange,
    LengthMismatch,
)
from pathmeter.timegrid import PathFunctionalSpec, SwitchingFunction, TimeGrid


def test_grid_nodes_are_left_endpoints():
    g = TimeGrid(2.0, 4)
    assert g.eps == 0.5
    assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5])


class TestSliceWeights:
    def test_constant_uniform(self):
        g = TimeGrid(1.0, 4)
        w = timegrid.slice_weights(SwitchingFunction.constant(1.0), g)
        assert np.allclose(w, [0.25, 0.25, 0.25, 0.25])

    def test_impulse_hits_containing_slice(self):
        g = TimeGrid(1.0, 4)
        w = timegrid.slice_weights(SwitchingFunction.impulse(0.6), g)
        assert np.allclose(w, [0, 0, 1, 0])

    def test_impulse_at_endpoint_uses_last_slice(self):
        g = TimeGrid(1.0, 4)
        w = timegrid.slice_weights(SwitchingFunction.impulse(1.0), g)
        assert np.allclose(w, [0, 0, 0, 1])

    def test_impulse_on_a_node_acts_at_that_node(self):
        """0.3 / 0.1 rounds below 3 and 0.5 / 0.1 is exactly 5: both land on
        the slice whose end is t0, and so do 0.6 and 0.7."""
        g = TimeGrid(1.0, 10)
        for t0, slice_ in ((0.3, 2), (0.5, 4), (0.6, 5), (0.7, 6)):
            w = timegrid.slice_weights(SwitchingFunction.impulse(t0), g)
            assert np.flatnonzero(w).tolist() == [slice_], t0

    @pytest.mark.parametrize("N", [1, 3, 7, 16])
    def test_impulse_weight_sums_to_one(self, N):
        g = TimeGrid(1.0, N)
        w = timegrid.slice_weights(SwitchingFunction.impulse(0.37), g)
        assert w.sum() == 1.0

    def test_sampled(self):
        g = TimeGrid(1.0, 4)
        w = timegrid.slice_weights(SwitchingFunction.sampled([1, 0, 0, 1]), g)
        assert np.allclose(w, [0.25, 0, 0, 0.25])

    def test_sampled_length_checked(self):
        with pytest.raises(LengthMismatch):
            timegrid.slice_weights(SwitchingFunction.sampled([1, 2]), TimeGrid(1.0, 4))

    def test_impulse_out_of_range(self):
        with pytest.raises(ImpulseOutOfRange):
            timegrid.slice_weights(SwitchingFunction.impulse(1.5), TimeGrid(1.0, 4))

    def test_weight_sums_match_integral(self):
        """sum w_j equals int beta dt for each profile kind."""
        g = TimeGrid(2.0, 8)
        assert timegrid.slice_weights(SwitchingFunction.constant(0.7), g).sum() == pytest.approx(1.4)
        vals = np.linspace(0, 1, 8)
        assert timegrid.slice_weights(SwitchingFunction.sampled(vals), g).sum() == pytest.approx(
            vals.sum() * 0.25
        )

    def test_linearity_in_beta(self):
        g = TimeGrid(1.0, 6)
        w1 = timegrid.slice_weights(SwitchingFunction.constant(0.4), g)
        w2 = timegrid.slice_weights(SwitchingFunction.constant(1.2), g)
        assert np.allclose(3 * w1, w2)


class TestFunctionalValue:
    def setup_method(self):
        self.dec = hilbert.spectral_decompose(np.diag([1.0, 2.0]))

    def test_constant_path_time_average(self):
        g = TimeGrid(1.0, 5)
        spec = PathFunctionalSpec(g, (SwitchingFunction.constant(1.0),))
        f = timegrid.functional_value(spec, [1] * 5, self.dec)
        assert f[0] == pytest.approx(2.0)

    def test_two_slice_mean(self):
        g = TimeGrid(1.0, 2)
        spec = PathFunctionalSpec(g, (SwitchingFunction.constant(1.0),))
        f = timegrid.functional_value(spec, [0, 1], self.dec)
        assert f[0] == pytest.approx(1.5)

    def test_impulse_reads_one_slice(self):
        g = TimeGrid(1.0, 4)
        spec = PathFunctionalSpec(g, (SwitchingFunction.impulse(0.6),))
        for rest in ([0, 0], [1, 0], [1, 1]):
            f = timegrid.functional_value(spec, [rest[0], rest[1], 1, 0], self.dec)
            assert f[0] == pytest.approx(2.0)

    def test_time_average_bounded_by_spectrum(self):
        g = TimeGrid(1.0, 10)
        spec = PathFunctionalSpec(g, (SwitchingFunction.constant(1.0),))
        rng = np.random.default_rng(5)
        for _ in range(50):
            path = rng.integers(0, 2, size=10)
            f = timegrid.functional_value(spec, path, self.dec)[0]
            assert 1.0 - 1e-12 <= f <= 2.0 + 1e-12

    def test_length_checked(self):
        g = TimeGrid(1.0, 4)
        spec = PathFunctionalSpec(g, (SwitchingFunction.constant(1.0),))
        with pytest.raises(LengthMismatch):
            timegrid.functional_value(spec, [0, 1], self.dec)


def test_square_integral():
    g = TimeGrid(2.0, 8)
    assert timegrid.square_integral(SwitchingFunction.constant(0.5), g) == pytest.approx(0.5)
    vals = [1.0] * 4 + [0.0] * 4
    assert timegrid.square_integral(SwitchingFunction.sampled(vals), g) == pytest.approx(1.0)
    with pytest.raises(ImpulseNotSquareIntegrable):
        timegrid.square_integral(SwitchingFunction.impulse(0.5), g)
