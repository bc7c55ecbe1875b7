"""Machine catalog (Table IIc) and the ground-truth power model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import (
    HostPowerModel,
    MACHINE_CATALOG,
    PowerModelParams,
    TransientPool,
    machine_pair,
    machine_spec,
    switch_spec,
)
from repro.cluster.power import Transient
from repro.errors import ConfigurationError


def _peak_w(params: PowerModelParams) -> float:
    """Upper bound of the steady-state envelope (all terms at 100 %)."""
    return (
        params.idle_w + params.cpu_linear_w + params.cpu_curved_w + params.memory_w
        + params.nic_w + params.interaction_w + params.fan_power(1.0)
    )


class TestCatalog:
    def test_four_machines(self):
        assert sorted(MACHINE_CATALOG) == ["m01", "m02", "o1", "o2"]

    def test_m_pair_threads(self):
        # Table IIc: 32 virtual cpus (16 x Opteron 8356, dual threaded).
        assert machine_spec("m01").capacity_threads == 32

    def test_o_pair_threads(self):
        # Table IIc: 40 virtual cpus (20 x Xeon E5-2690, dual threaded).
        assert machine_spec("o1").capacity_threads == 40

    def test_ram_sizes(self):
        assert machine_spec("m01").ram_mb == 32 * 1024
        assert machine_spec("o2").ram_mb == 128 * 1024

    def test_pair_compatibility(self):
        m01, m02 = machine_pair("m")
        o1, _ = machine_pair("o")
        assert m01.compatible_with(m02)
        assert not m01.compatible_with(o1)

    def test_unknown_machine(self):
        with pytest.raises(ConfigurationError):
            machine_spec("z9")

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            machine_pair("x")

    def test_switches(self):
        assert "Cisco" in switch_spec("m").model
        assert "HP" in switch_spec("o").model

    def test_idle_difference_drives_bias(self):
        # The C1->C2 correction exists because the pairs idle differently.
        m_idle = machine_spec("m01").power.idle_w
        o_idle = machine_spec("o1").power.idle_w
        assert m_idle - o_idle > 200.0

    def test_nic_goodput_below_line_rate(self):
        for spec in MACHINE_CATALOG.values():
            assert spec.nic.goodput_bps < spec.nic.rate_bps


class TestPowerModelParams:
    def test_envelope_band_matches_figures(self):
        # Figs. 3-7 show the m-pair between ~420 and ~950 W.
        params = machine_spec("m01").power
        assert 400 < params.idle_w < 500
        assert _peak_w(params) < 1200

    def test_cpu_power_monotone(self):
        params = machine_spec("m01").power
        values = [params.cpu_power(u / 10) for u in range(11)]
        assert values == sorted(values)
        assert values[0] == 0.0

    def test_cpu_power_convex_tail(self):
        params = machine_spec("m01").power
        # Super-linear: the last decile adds more than the first.
        assert params.cpu_power(1.0) - params.cpu_power(0.9) > params.cpu_power(0.1)

    def test_fan_steps_cumulative(self):
        params = PowerModelParams(
            idle_w=100, cpu_linear_w=50, cpu_curved_w=0,
            fan_steps=((0.3, 10.0), (0.6, 20.0)),
        )
        assert params.fan_power(0.1) == 0.0
        assert params.fan_power(0.4) == 10.0
        assert params.fan_power(0.9) == 30.0

    def test_rejects_negative_idle(self):
        with pytest.raises(ConfigurationError):
            PowerModelParams(idle_w=-5, cpu_linear_w=10, cpu_curved_w=0)

    def test_rejects_sublinear_exponent(self):
        with pytest.raises(ConfigurationError):
            PowerModelParams(idle_w=100, cpu_linear_w=10, cpu_curved_w=5, cpu_curve_exponent=0.5)

    def test_rejects_bad_fan_step(self):
        with pytest.raises(ConfigurationError):
            PowerModelParams(
                idle_w=100, cpu_linear_w=10, cpu_curved_w=0, fan_steps=((1.5, 10.0),)
            )


class TestTransients:
    def test_rect_shape(self):
        tr = Transient(t0=10.0, duration=2.0, amplitude_w=20.0, shape="rect")
        assert tr.value(9.9) == 0.0
        assert tr.value(11.0) == 20.0
        assert tr.value(12.1) == 0.0

    def test_decay_shape(self):
        tr = Transient(t0=0.0, duration=3.0, amplitude_w=30.0)
        assert tr.value(0.0) == pytest.approx(30.0)
        assert 0 < tr.value(1.0) < 30.0
        assert tr.value(3.0) < 2.0  # ~95 % gone

    def test_negative_amplitude_is_dip(self):
        tr = Transient(t0=0.0, duration=1.0, amplitude_w=-15.0, shape="rect")
        assert tr.value(0.5) == -15.0

    def test_pool_sums_and_prunes(self):
        pool = TransientPool()
        pool.add_peak(0.0, 1.0, 10.0, shape="rect")
        pool.add_peak(0.5, 1.0, 5.0, shape="rect")
        assert pool.value(0.7) == pytest.approx(15.0)
        assert pool.value(5.0) == 0.0
        assert pool.live(5.0) == ()
        assert [item.t0 for item in pool.live(1.2)] == [0.5]
        # Reads are pure: a later read leaves an earlier one unchanged.
        assert pool.value(0.7) == pytest.approx(15.0)

    def test_rejects_zero_duration(self):
        with pytest.raises(ConfigurationError):
            Transient(t0=0.0, duration=0.0, amplitude_w=1.0)


class TestHostPowerModel:
    @pytest.fixture()
    def model(self):
        return HostPowerModel(machine_spec("m01").power)

    def test_idle_power(self, model):
        power = model.instantaneous_power(0.0, 0.0, 0.0, 0.0)
        assert power == pytest.approx(model.params.idle_w)

    def test_components_additive(self, model):
        base = model.instantaneous_power(0.0, 0.0, 0.0, 0.0)
        with_nic = model.instantaneous_power(0.0, 0.0, 0.0, 1.0)
        assert with_nic - base == pytest.approx(model.params.nic_w)

    def test_interaction_term(self, model):
        solo = (
            model.instantaneous_power(0.0, 1.0, 0.0, 0.0)
            + model.instantaneous_power(0.0, 0.0, 1.0, 0.0)
            - model.params.idle_w
        )
        joint = model.instantaneous_power(0.0, 1.0, 1.0, 0.0)
        assert joint - solo == pytest.approx(model.params.interaction_w)

    @given(
        st.floats(min_value=-0.5, max_value=1.5),
        st.floats(min_value=-0.5, max_value=1.5),
        st.floats(min_value=-0.5, max_value=1.5),
    )
    def test_power_within_envelope(self, u, mem, nic):
        model = HostPowerModel(machine_spec("m01").power)
        power = model.instantaneous_power(0.0, u, mem, nic)
        assert 0.3 * model.params.idle_w <= power <= _peak_w(model.params) + 1e-9
