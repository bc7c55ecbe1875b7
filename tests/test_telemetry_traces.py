"""Trace containers: append discipline, windows, interpolation, energy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.telemetry import PowerTrace, SeriesTrace


class TestPowerTrace:
    def test_append_and_read(self):
        trace = PowerTrace("t")
        trace.append(0.5, 455.0)
        trace.append(1.0, 460.0)
        assert trace.times.tolist() == [0.5, 1.0]
        assert trace.watts.tolist() == [455.0, 460.0]
        assert len(trace) == 2

    def test_rejects_non_increasing_time(self):
        trace = PowerTrace()
        trace.append(1.0, 100.0)
        with pytest.raises(TraceError):
            trace.append(1.0, 101.0)

    def test_extend_strict_zip(self):
        trace = PowerTrace()
        with pytest.raises(ValueError):
            trace.extend([1.0, 2.0], [100.0])

    def test_window(self):
        trace = PowerTrace()
        trace.extend([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0])
        sub = trace.window(2.0, 3.0)
        assert sub.times.tolist() == [2.0, 3.0]

    def test_window_reversed_rejected(self):
        with pytest.raises(TraceError):
            PowerTrace().window(3.0, 2.0)

    def test_shifted(self):
        trace = PowerTrace()
        trace.append(1.0, 10.0)
        assert trace.shifted(-0.5).times.tolist() == [0.5]

    def test_value_at_interpolates(self):
        trace = PowerTrace()
        trace.extend([0.0, 1.0], [100.0, 200.0])
        assert trace.value_at(0.5) == pytest.approx(150.0)

    def test_value_at_clamps(self):
        trace = PowerTrace()
        trace.extend([0.0, 1.0], [100.0, 200.0])
        assert trace.value_at(-5.0) == 100.0
        assert trace.value_at(5.0) == 200.0

    def test_mean_power(self):
        trace = PowerTrace()
        trace.extend([0.0, 1.0, 2.0], [100.0, 200.0, 300.0])
        assert trace.mean_power() == pytest.approx(200.0)

    def test_empty_mean_rejected(self):
        with pytest.raises(TraceError):
            PowerTrace().mean_power()

    def test_energy_constant_power(self):
        trace = PowerTrace()
        trace.extend(np.arange(0, 10.5, 0.5), np.full(21, 500.0))
        assert trace.energy_joules() == pytest.approx(5000.0)

    def test_energy_subwindow(self):
        trace = PowerTrace()
        trace.extend(np.arange(0, 10.5, 0.5), np.full(21, 500.0))
        assert trace.energy_joules(2.0, 4.0) == pytest.approx(1000.0)

    def test_cache_invalidation_on_append(self):
        trace = PowerTrace()
        trace.append(1.0, 10.0)
        _ = trace.times
        trace.append(2.0, 20.0)
        assert len(trace.times) == 2


class TestTrim:
    """A stopped instrument releases its traces' spare capacity."""

    def test_power_trace_trim_keeps_exact_size_and_values(self):
        trace = PowerTrace("t")
        for i in range(70):  # 70 samples in a 128-slot block
            trace.append(float(i), 100.0 + i)
        before = trace.watts
        assert trace._t.size > len(trace)
        trace.trim()
        assert trace._t.size == trace._w.size == len(trace) == 70
        assert np.array_equal(trace.watts, before)
        assert before[-1] == 169.0  # an earlier view stays valid

    def test_append_after_trim_grows_again(self):
        trace = PowerTrace("t")
        trace.extend([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        trace.trim()
        trace.append(3.0, 4.0)
        trace.extend([4.0, 5.0], [5.0, 6.0])
        assert trace.times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert trace.watts.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        with pytest.raises(TraceError):
            trace.append(5.0, 7.0)

    def test_series_trace_trims_every_column(self):
        trace = SeriesTrace(["a", "b"])
        for i in range(5):
            trace.append(float(i), a=float(i), b=-float(i))
        trace.trim()
        assert trace._t.size == len(trace) == 5
        assert {c: buf.size for c, buf in trace._cols.items()} == {"a": 5, "b": 5}
        assert trace.column("b").tolist() == [0.0, -1.0, -2.0, -3.0, -4.0]
        trace.append(5.0, a=5.0, b=-5.0)
        assert trace.column("a").tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


_TIMES = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    max_size=40, unique=True,
).map(sorted)


class TestWindowSlice:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), times=_TIMES)
    def test_slice_equals_the_inclusive_mask(self, data, times):
        """Bounds on sample instants, between them, before the first and
        after the last sample all select what the boolean mask selects."""
        bound = st.floats(min_value=-2e3, max_value=2e3, allow_nan=False)
        if times:
            bound = st.one_of(bound, st.sampled_from(times))
        ms, me = sorted((data.draw(bound), data.draw(bound)))
        trace = PowerTrace("t")
        trace.extend(times, np.arange(len(times), dtype=float))
        span = trace.window_slice(ms, me)
        arr = np.asarray(times, dtype=float)
        expected = arr[(arr >= ms) & (arr <= me)]
        assert np.array_equal(trace.times[span], expected)
        assert np.array_equal(trace.watts[span], np.flatnonzero((arr >= ms) & (arr <= me)))


class TestSeriesTrace:
    def test_round_trip(self):
        trace = SeriesTrace(("a", "b"))
        trace.append(1.0, a=1.0, b=2.0)
        trace.append(2.0, a=3.0, b=4.0)
        assert trace.column("a").tolist() == [1.0, 3.0]
        assert trace.times.tolist() == [1.0, 2.0]

    def test_missing_column_rejected(self):
        trace = SeriesTrace(("a", "b"))
        with pytest.raises(TraceError):
            trace.append(1.0, a=1.0)

    def test_extra_column_rejected(self):
        trace = SeriesTrace(("a",))
        with pytest.raises(TraceError):
            trace.append(1.0, a=1.0, z=2.0)

    def test_unknown_column_read_rejected(self):
        trace = SeriesTrace(("a",))
        with pytest.raises(TraceError):
            trace.column("z")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(TraceError):
            SeriesTrace(("a", "a"))

    def test_empty_columns_rejected(self):
        with pytest.raises(TraceError):
            SeriesTrace(())

    def test_value_at(self):
        trace = SeriesTrace(("x",))
        trace.append(0.0, x=0.0)
        trace.append(2.0, x=10.0)
        assert trace.value_at("x", 1.0) == pytest.approx(5.0)

    def test_window(self):
        trace = SeriesTrace(("x",))
        for t in range(5):
            trace.append(float(t), x=float(t * t))
        sub = trace.window(1.0, 3.0)
        assert sub.times.tolist() == [1.0, 2.0, 3.0]
        assert sub.column("x").tolist() == [1.0, 4.0, 9.0]

    def test_non_increasing_time_rejected(self):
        trace = SeriesTrace(("x",))
        trace.append(1.0, x=0.0)
        with pytest.raises(TraceError):
            trace.append(0.5, x=0.0)
