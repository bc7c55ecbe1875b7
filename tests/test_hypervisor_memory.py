"""Guest memory: dirty logging and random-write occupancy statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hypervisor import VmMemory, expected_distinct_pages


class TestExpectedDistinctPages:
    def test_zero_writes(self):
        assert expected_distinct_pages(0, 1000) == 0.0

    def test_zero_working_set(self):
        assert expected_distinct_pages(100, 0) == 0.0

    def test_single_page(self):
        assert expected_distinct_pages(50, 1) == 1.0

    def test_few_writes_nearly_all_distinct(self):
        # With writes << W the collision probability is negligible.
        assert expected_distinct_pages(10, 10**6) == pytest.approx(10.0, rel=1e-3)

    def test_many_writes_saturate(self):
        w = 1000
        assert expected_distinct_pages(100 * w, w) == pytest.approx(w, rel=1e-3)

    @given(
        st.floats(min_value=0, max_value=1e7),
        st.integers(min_value=1, max_value=10**7),
    )
    def test_bounds(self, writes, working):
        distinct = expected_distinct_pages(writes, working)
        assert 0.0 <= distinct <= min(writes, working) + 1e-6

    @given(st.integers(min_value=2, max_value=10**5))
    def test_monotone_in_writes(self, working):
        low = expected_distinct_pages(working / 2, working)
        high = expected_distinct_pages(working * 2, working)
        assert high >= low


class TestVmMemory:
    def test_page_count_of_4gb(self):
        assert VmMemory(4096).n_pages == 1048576

    def test_image_bytes(self):
        assert VmMemory(4096).image_bytes == 4 * 1024**3

    def test_rejects_zero_ram(self):
        with pytest.raises(ConfigurationError):
            VmMemory(0)

    def test_logging_lifecycle(self):
        mem = VmMemory(64)
        assert not mem.logging
        mem.enable_logging()
        assert mem.logging and mem.dirty_count() == 0
        mem.disable_logging()
        assert not mem.logging

    def test_advance_without_log_records_nothing(self):
        mem = VmMemory(64)
        mem.set_dirty_process(10000, 0.5)
        assert mem.advance(1.0, np.random.default_rng(0)) == 0

    def test_advance_marks_expected_fraction(self):
        mem = VmMemory(64)  # 16384 pages
        mem.set_dirty_process(write_rate_pages_s=5000, working_set_fraction=0.5)
        mem.enable_logging()
        rng = np.random.default_rng(1)
        new = mem.advance(1.0, rng)
        working = mem.working_pages
        expected = expected_distinct_pages(5000, working)
        assert new == pytest.approx(expected, rel=0.1)
        assert mem.dirty_count() == new

    def test_dirty_never_exceeds_working_set(self):
        mem = VmMemory(16)
        mem.set_dirty_process(10**6, 0.25)
        mem.enable_logging()
        rng = np.random.default_rng(2)
        for _ in range(10):
            mem.advance(5.0, rng)
        assert mem.dirty_count() <= mem.working_pages

    def test_clear_dirty_returns_count(self):
        mem = VmMemory(16)
        mem.set_dirty_process(10**6, 0.5)
        mem.enable_logging()
        mem.advance(10.0, np.random.default_rng(3))
        count = mem.dirty_count()
        assert mem.clear_dirty() == count
        assert mem.dirty_count() == 0

    def test_stop_dirty_process(self):
        mem = VmMemory(16)
        mem.set_dirty_process(1000, 0.5)
        mem.stop_dirty_process()
        mem.enable_logging()
        assert mem.advance(10.0, np.random.default_rng(0)) == 0

    def test_rejects_negative_dt(self):
        mem = VmMemory(16)
        with pytest.raises(ConfigurationError):
            mem.advance(-1.0, np.random.default_rng(0))

    def test_rejects_bad_working_fraction(self):
        with pytest.raises(ConfigurationError):
            VmMemory(16).set_dirty_process(100, 1.5)


class TestDirtyingRatio:
    def test_idle_ratio_zero(self):
        mem = VmMemory(4096)
        assert mem.dirtying_ratio_percent() == 0.0

    def test_fast_writer_saturates_at_working_fraction(self):
        # pagedirtier semantics: DR == the touched percentage of memory.
        mem = VmMemory(4096)
        mem.set_dirty_process(write_rate_pages_s=10**7, working_set_fraction=0.75)
        assert mem.dirtying_ratio_percent() == pytest.approx(75.0, rel=0.01)

    def test_slow_writer_below_working_fraction(self):
        mem = VmMemory(4096)
        mem.set_dirty_process(write_rate_pages_s=1000, working_set_fraction=0.75)
        assert mem.dirtying_ratio_percent() < 10.0

    def test_memload_sweep_maps_onto_dr(self):
        # The experiment-design premise: DR tracks the 5-95 % sweep.
        previous = -1.0
        for pct in (5, 15, 35, 55, 75, 95):
            mem = VmMemory(4096)
            mem.set_dirty_process(42_000, pct / 100.0)
            dr = mem.dirtying_ratio_percent()
            assert dr > previous  # strictly increasing over the sweep
            assert dr <= pct + 0.01  # one-page rounding headroom
            if pct <= 35:
                assert dr == pytest.approx(pct, rel=0.1)
            previous = dr

    @settings(max_examples=25)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_ratio_bounded_by_working_fraction(self, fraction):
        mem = VmMemory(1024)
        mem.set_dirty_process(42_000, fraction)
        one_page_pct = 100.0 / mem.n_pages
        assert mem.dirtying_ratio_percent() <= fraction * 100.0 + one_page_pct

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            VmMemory(16).dirtying_ratio_percent(window_s=0.0)

    def test_stochastic_advance_matches_analytic(self):
        """Newly dirtied counts follow the occupancy formula: every one of
        200 seeds lands within 6σ of it, and their mean within 3σ/√200."""
        seeds = 200
        counts = []
        for seed in range(seeds):
            mem = VmMemory(256)
            mem.set_dirty_process(write_rate_pages_s=20_000, working_set_fraction=0.8)
            mem.enable_logging()
            counts.append(mem.advance(2.0, np.random.default_rng(seed)))
        expected = expected_distinct_pages(40_000, mem.working_pages)
        sigma = math.sqrt(expected)  # bounds the binomial spread sqrt(n·p·(1-p))
        assert all(abs(count - expected) < 6 * sigma for count in counts)
        assert abs(np.mean(counts) - expected) < 3 * sigma / math.sqrt(seeds)
