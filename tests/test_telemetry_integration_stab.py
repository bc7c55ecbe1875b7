"""Energy integration and the stabilisation rule."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TraceError
from repro.telemetry import StabilizationRule, integrate_power, is_stable


class TestIntegratePower:
    def test_constant_power(self):
        t = np.arange(0, 11, 1.0)
        w = np.full_like(t, 100.0)
        assert integrate_power(t, w, 0.0, 10.0) == pytest.approx(1000.0)

    def test_linear_ramp_exact(self):
        # Trapezoid is exact for piecewise-linear signals.
        t = np.arange(0, 11, 1.0)
        w = 10.0 * t
        assert integrate_power(t, w, 0.0, 10.0) == pytest.approx(500.0)

    def test_boundary_interpolation(self):
        t = np.array([0.0, 1.0])
        w = np.array([0.0, 100.0])
        # Integral over [0.25, 0.75] of a 0->100 ramp = 25 J.
        assert integrate_power(t, w, 0.25, 0.75) == pytest.approx(25.0)

    def test_zero_width(self):
        t = np.array([0.0, 1.0])
        w = np.array([50.0, 50.0])
        assert integrate_power(t, w, 0.5, 0.5) == 0.0

    def test_additive_over_subintervals(self):
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(0, 10, 50))
        t[0], t[-1] = 0.0, 10.0
        w = rng.uniform(100, 900, 50)
        total = integrate_power(t, w, 0.0, 10.0)
        split = integrate_power(t, w, 0.0, 4.3) + integrate_power(t, w, 4.3, 10.0)
        assert split == pytest.approx(total)

    def test_out_of_span_rejected(self):
        t = np.array([0.0, 1.0])
        w = np.array([1.0, 1.0])
        with pytest.raises(TraceError):
            integrate_power(t, w, -1.0, 0.5)

    def test_reversed_bounds_rejected(self):
        t = np.array([0.0, 1.0])
        w = np.array([1.0, 1.0])
        with pytest.raises(TraceError):
            integrate_power(t, w, 0.8, 0.2)

    def test_non_monotone_times_rejected(self):
        with pytest.raises(TraceError):
            integrate_power(np.array([0.0, 0.0, 1.0]), np.ones(3), 0.0, 1.0)

    @given(st.floats(min_value=10.0, max_value=1000.0), st.floats(min_value=0.1, max_value=100.0))
    def test_constant_power_closed_form(self, watts, duration):
        t = np.linspace(0.0, duration, 23)
        w = np.full_like(t, watts)
        assert integrate_power(t, w, 0.0, duration) == pytest.approx(watts * duration)


class TestStabilizationRule:
    def test_paper_default(self):
        rule = StabilizationRule()
        assert rule.n_readings == 20
        assert rule.rel_tolerance == 0.003

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            StabilizationRule(n_readings=1)
        with pytest.raises(ConfigurationError):
            StabilizationRule(rel_tolerance=0.0)

    def test_flat_signal_stable(self):
        assert is_stable(np.full(25, 500.0))

    def test_short_signal_unstable(self):
        assert not is_stable(np.full(10, 500.0))

    def test_spike_breaks_stability(self):
        signal = np.full(25, 500.0)
        signal[-5] = 600.0
        assert not is_stable(signal)

    def test_small_ripple_within_tolerance(self):
        rng = np.random.default_rng(1)
        signal = 500.0 + rng.normal(0, 0.2, 30)  # 0.04 % ripple
        assert is_stable(signal)

    def test_custom_rule(self):
        signal = np.full(6, 42.0)
        assert is_stable(signal, StabilizationRule(n_readings=5, rel_tolerance=0.01))
