"""Arrival processes."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sim.sources import (
    DeterministicArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TraceArrivals,
    arrival_stream,
    arrival_times,
)


class TestPoisson:
    def test_rate_approximately_honored(self):
        times = PoissonArrivals(10.0).generate(200.0, seed=1)
        assert len(times) / 200.0 == pytest.approx(10.0, rel=0.1)

    def test_strictly_increasing(self):
        times = PoissonArrivals(5.0).generate(50.0, seed=2)
        assert np.all(np.diff(times) > 0)

    def test_within_horizon(self):
        times = PoissonArrivals(5.0).generate(10.0, seed=3)
        assert times.max() < 10.0

    def test_deterministic_given_seed(self):
        a = PoissonArrivals(5.0).generate(10.0, seed=4)
        b = PoissonArrivals(5.0).generate(10.0, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_exponential_gaps(self):
        times = PoissonArrivals(10.0).generate(500.0, seed=5)
        gaps = np.diff(times)
        # CV of exponential is 1
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.1)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            PoissonArrivals(0.0)
        with pytest.raises(ConfigError):
            PoissonArrivals(1.0).generate(0.0)


@pytest.mark.parametrize("arrival", ["poisson", "deterministic", "mmpp"])
@pytest.mark.parametrize("rate,horizon", [(3.0, 5.0), (10.0, 100.0), (100.0, 200.0)])
def test_stream_replays_one_shot(arrival, rate, horizon):
    """Chunked arrivals equal the one-shot array for any window split, also
    past the first generation block (the last case needs ~20k arrivals)."""
    whole = arrival_times(rate, horizon, arrival, 4.0, 7)
    for windows in (1, 7, 50):
        stream = arrival_stream(rate, horizon, arrival, 4.0, 7)
        chunked = np.concatenate(
            [stream.take_until(t) for t in np.linspace(horizon / windows, horizon, windows)]
        )
        np.testing.assert_array_equal(chunked, whole)


class TestDeterministic:
    def test_even_spacing(self):
        times = DeterministicArrivals(4.0).generate(2.0, seed=0)
        np.testing.assert_allclose(times, [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75])

    def test_count(self):
        assert len(DeterministicArrivals(10.0).generate(1.0)) == 9  # last lands at horizon


class TestMMPP:
    def test_mean_rate_formula(self):
        m = MMPPArrivals(low_rate=2.0, high_rate=10.0, mean_low_s=3.0, mean_high_s=1.0)
        assert m.mean_rate == pytest.approx((2 * 3 + 10 * 1) / 4)

    def test_empirical_rate_near_mean(self):
        m = MMPPArrivals(low_rate=2.0, high_rate=10.0, mean_low_s=3.0, mean_high_s=1.0)
        times = m.generate(2000.0, seed=6)
        assert len(times) / 2000.0 == pytest.approx(m.mean_rate, rel=0.15)

    def test_burstier_than_poisson(self):
        m = MMPPArrivals(low_rate=1.0, high_rate=20.0, mean_low_s=5.0, mean_high_s=1.0)
        times = m.generate(2000.0, seed=7)
        gaps = np.diff(times)
        assert gaps.std() / gaps.mean() > 1.2  # CV > 1 = burstier

    def test_high_below_low_raises(self):
        with pytest.raises(ConfigError):
            MMPPArrivals(low_rate=5.0, high_rate=2.0)


class TestTrace:
    def test_replay_clipped_to_horizon(self):
        t = TraceArrivals([0.5, 1.5, 2.5])
        np.testing.assert_array_equal(t.generate(2.0), [0.5, 1.5])

    def test_non_increasing_raises(self):
        with pytest.raises(ConfigError):
            TraceArrivals([1.0, 1.0])

    def test_negative_raises(self):
        with pytest.raises(ConfigError):
            TraceArrivals([-1.0, 1.0])
