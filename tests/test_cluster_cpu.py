"""CPU accountant: proportional sharing, multiplexing, invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import CpuAccountant
from repro.errors import CapacityError, ConfigurationError


class TestRegistration:
    def test_set_and_read(self):
        cpu = CpuAccountant(32)
        cpu.set_demand("vm:a", 4.0)
        assert cpu.demand("vm:a") == 4.0

    def test_unregistered_demand_zero(self):
        assert CpuAccountant(32).demand("ghost") == 0.0

    def test_remove(self):
        cpu = CpuAccountant(32)
        cpu.set_demand("vm:a", 4.0)
        cpu.remove("vm:a")
        assert cpu.total_demand() == 0.0

    def test_remove_missing_silent(self):
        CpuAccountant(32).remove("ghost")

    def test_rejects_negative_demand(self):
        with pytest.raises(CapacityError):
            CpuAccountant(32).set_demand("x", -1.0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            CpuAccountant(0)


class TestAggregates:
    def test_paper_load_levels(self):
        # CPULOAD-SOURCE: n load VMs x 4 vCPUs + migrating 4 vCPUs on 32
        # threads -> 12.5 % steps, multiplexed at 8 VMs.
        for n_vms, expected in [(0, 12.5), (1, 25.0), (3, 50.0), (5, 75.0), (7, 100.0), (8, 100.0)]:
            cpu = CpuAccountant(32)
            cpu.set_demand("vm:migrating", 4.0)
            for i in range(n_vms):
                cpu.set_demand(f"vm:load{i}", 4.0)
            assert cpu.utilisation_percent() == pytest.approx(expected)

    def test_multiplexing_flag(self):
        cpu = CpuAccountant(32)
        cpu.set_demand("a", 32.0)
        assert not cpu.multiplexing
        cpu.set_demand("b", 0.1)
        assert cpu.multiplexing

    def test_headroom(self):
        cpu = CpuAccountant(32)
        cpu.set_demand("a", 20.0)
        assert cpu.headroom_threads() == pytest.approx(12.0)
        cpu.set_demand("b", 20.0)
        assert cpu.headroom_threads() == 0.0

    def test_total_demand_excluding(self):
        cpu = CpuAccountant(32)
        cpu.set_demand("vm:a", 4.0)
        cpu.set_demand("migr:x", 1.5)
        assert cpu.total_demand_excluding("migr:x") == pytest.approx(4.0)


class TestProportionalSharing:
    def test_full_allocation_without_contention(self):
        cpu = CpuAccountant(32)
        cpu.set_demand("a", 10.0)
        assert cpu.allocation("a") == pytest.approx(10.0)
        assert cpu.allocation_fraction("a") == 1.0

    def test_scaled_allocation_under_multiplexing(self):
        cpu = CpuAccountant(32)
        cpu.set_demand("a", 24.0)
        cpu.set_demand("b", 24.0)
        assert cpu.allocation("a") == pytest.approx(16.0)
        assert cpu.allocation_fraction("a") == pytest.approx(2.0 / 3.0)

    def test_zero_demand_fraction_is_one(self):
        cpu = CpuAccountant(32)
        cpu.set_demand("a", 0.0)
        assert cpu.allocation_fraction("a") == 1.0

    @given(
        st.lists(st.floats(min_value=0.0, max_value=64.0), min_size=1, max_size=10),
        st.floats(min_value=1.0, max_value=128.0),
    )
    def test_allocations_never_exceed_capacity(self, demands, capacity):
        cpu = CpuAccountant(capacity)
        for i, d in enumerate(demands):
            cpu.set_demand(f"c{i}", d)
        total_alloc = sum(cpu.allocation(f"c{i}") for i in range(len(demands)))
        assert total_alloc <= capacity + 1e-9
        assert 0.0 <= cpu.utilisation_fraction() <= 1.0

    @given(
        st.lists(st.floats(min_value=0.01, max_value=64.0), min_size=2, max_size=8)
    )
    def test_sharing_is_proportional(self, demands):
        cpu = CpuAccountant(8.0)
        for i, d in enumerate(demands):
            cpu.set_demand(f"c{i}", d)
        fractions = {cpu.allocation_fraction(f"c{i}") for i in range(len(demands))}
        # All entries are slowed by the same factor.
        assert max(fractions) - min(fractions) < 1e-9
