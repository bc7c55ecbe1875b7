"""Phase timelines and trace-based phase detection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PhaseError
from repro.phases import MigrationPhase, PhaseTimeline, RoundRecord, detect_phases
from repro.telemetry import PowerTrace


def complete_timeline(ms=10.0, ts=13.0, te=50.0, me=53.0):
    return PhaseTimeline(ms=ms, ts=ts, te=te, me=me)


class TestTimelineValidity:
    def test_complete_flag(self):
        tl = PhaseTimeline()
        assert not tl.complete
        tl.ms, tl.ts, tl.te, tl.me = 1.0, 2.0, 3.0, 4.0
        assert tl.complete

    def test_ordering_enforced(self):
        tl = PhaseTimeline(ms=5.0, ts=4.0, te=6.0, me=7.0)
        with pytest.raises(PhaseError):
            tl.validate()

    def test_incomplete_rejected(self):
        with pytest.raises(PhaseError):
            PhaseTimeline(ms=1.0).validate()

    def test_half_downtime_rejected(self):
        tl = complete_timeline()
        tl.downtime_start = 20.0
        with pytest.raises(PhaseError):
            tl.validate()

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=4, max_size=4))
    def test_sorted_instants_always_valid(self, instants):
        ms, ts, te, me = sorted(instants)
        PhaseTimeline(ms=ms, ts=ts, te=te, me=me).validate()


class TestTimelineQueries:

    def test_durations(self):
        tl = complete_timeline()
        assert tl.initiation_duration == pytest.approx(3.0)
        assert tl.transfer_duration == pytest.approx(37.0)
        assert tl.activation_duration == pytest.approx(3.0)
        assert tl.total_duration == pytest.approx(43.0)

    def test_phase_interval(self):
        tl = complete_timeline()
        assert tl.phase_interval(MigrationPhase.TRANSFER) == (13.0, 50.0)
        with pytest.raises(PhaseError):
            tl.phase_interval(MigrationPhase.NORMAL)

    def test_downtime(self):
        tl = complete_timeline()
        assert tl.downtime == 0.0
        tl.downtime_start, tl.downtime_end = 48.0, 52.0
        assert tl.downtime == pytest.approx(4.0)


class TestRounds:
    def test_round_accounting(self):
        tl = complete_timeline()
        tl.add_round(RoundRecord(0, 13.0, 30.0, 1000, 4096000))
        tl.add_round(RoundRecord(1, 43.0, 5.0, 100, 409600, stop_and_copy=True))
        assert tl.n_rounds == 2
        assert tl.pages_total == 1100
        assert tl.bytes_total == 4505600

    def test_round_indices_consecutive(self):
        tl = PhaseTimeline()
        tl.add_round(RoundRecord(0, 0.0, 1.0, 1, 4096))
        with pytest.raises(PhaseError):
            tl.add_round(RoundRecord(2, 1.0, 1.0, 1, 4096))

    def test_first_round_must_be_zero(self):
        with pytest.raises(PhaseError):
            PhaseTimeline().add_round(RoundRecord(1, 0.0, 1.0, 1, 4096))

    def test_negative_duration_rejected(self):
        with pytest.raises(PhaseError):
            RoundRecord(0, 0.0, -1.0, 1, 4096)

    def test_round_end(self):
        assert RoundRecord(0, 10.0, 2.5, 1, 4096).end == 12.5


class TestDetection:
    def _synthetic_trace(self, baseline=455.0, excursion=120.0, ts=30.0, te=70.0):
        trace = PowerTrace("synthetic")
        rng = np.random.default_rng(3)
        for t in np.arange(0.5, 100.0, 0.5):
            level = baseline + (excursion if ts <= t <= te else 0.0)
            trace.append(float(t), level + rng.normal(0, 0.8))
        return trace

    def test_detects_migration_window(self):
        trace = self._synthetic_trace()
        tl = detect_phases(trace)
        assert tl.ms == pytest.approx(30.0, abs=3.5)
        assert tl.me == pytest.approx(70.0, abs=3.5)
        assert tl.ms <= tl.ts <= tl.te <= tl.me

    def test_agrees_with_ground_truth_run(self, nonlive_cpu_run):
        measured = detect_phases(nonlive_cpu_run.source_trace)
        truth = nonlive_cpu_run.timeline
        # Window endpoints within a few seconds of the engine truth.
        assert measured.ms == pytest.approx(truth.ms, abs=8.0)
        assert measured.me == pytest.approx(truth.me, abs=8.0)

    def test_robust_to_post_migration_level_shift(self):
        # The source idles lower after the VM leaves; the detector must
        # not extend the window into the shifted steady state.
        trace = PowerTrace()
        rng = np.random.default_rng(5)
        for t in np.arange(0.5, 120.0, 0.5):
            if t < 40.0:
                level = 500.0
            elif t <= 80.0:
                level = 620.0
            else:
                level = 450.0  # new, lower steady state
            trace.append(float(t), level + rng.normal(0, 0.8))
        tl = detect_phases(trace)
        assert tl.me == pytest.approx(80.0, abs=4.0)

    def test_flat_trace_rejected(self):
        trace = PowerTrace()
        rng = np.random.default_rng(0)
        for t in np.arange(0.5, 50.0, 0.5):
            trace.append(float(t), 455.0 + rng.normal(0, 0.5))
        with pytest.raises(PhaseError):
            detect_phases(trace)

    def test_short_trace_rejected(self):
        trace = PowerTrace()
        for t in range(5):
            trace.append(float(t) + 0.5, 455.0)
        with pytest.raises(PhaseError):
            detect_phases(trace)

    def test_detected_timeline_is_valid(self):
        tl = detect_phases(self._synthetic_trace())
        tl.validate()
