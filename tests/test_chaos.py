"""The deterministic chaos harness and the chaos soak suite.

Unit tests pin the spec grammar, the seeded trip decisions and the
byte-corruption seam; the soak test runs a real 2-worker queue campaign
with faults injected at several seams and asserts
the standing guarantee: campaign samples stay **byte-identical** to a
fault-free run.
"""

import pathlib
import threading

import pytest

from repro.errors import ExperimentError
from repro.experiments.chaos import (
    CHAOS_ENV_VAR,
    ChaosError,
    ChaosRule,
    ChaosSchedule,
    _corrupt_bytes,
    activate,
    active_schedule,
    chaos_bytes,
    chaos_trip,
    deactivate,
)
from repro.experiments.design import MigrationScenario
from repro.experiments.executor import CampaignExecutor
from repro.experiments.queue_backend import run_worker
from repro.experiments.runner import ScenarioRunner
from repro.io import save_samples_json

SEED = 20150901
_SCENARIOS = [
    MigrationScenario("CPULOAD-SOURCE", "chaos/lv/1vm", live=True, load_vm_count=1),
    MigrationScenario("CPULOAD-SOURCE", "chaos/lv/2vm", live=True, load_vm_count=2),
]


@pytest.fixture(autouse=True)
def _chaos_off():
    """No schedule leaks into or out of any test in this module."""
    deactivate()
    yield
    deactivate()


def _samples_bytes(result, path: pathlib.Path) -> bytes:
    save_samples_json(result.samples(), path)
    return path.read_bytes()


class TestSpecGrammar:
    def test_parse_full_clause(self):
        schedule = ChaosSchedule.from_spec(
            "seed=7; execute:crash:rate=0.5:max=2; cache-put:corrupt:max=1;"
            " claim:delay:delay=0.01:tag=w0"
        )
        assert schedule.seed == 7
        assert schedule.rules == (
            ChaosRule("execute", "crash", rate=0.5, max_trips=2),
            ChaosRule("cache-put", "corrupt", max_trips=1),
            ChaosRule("claim", "delay", delay_s=0.01, tag="w0"),
        )

    def test_describe_round_trips(self):
        spec = "seed=7;execute:crash:rate=0.5:max=2;cache-put:corrupt:max=1"
        schedule = ChaosSchedule.from_spec(spec)
        again = ChaosSchedule.from_spec(schedule.describe())
        assert again.seed == schedule.seed
        assert again.rules == schedule.rules

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "   ;  ",
            "seed=3",                      # no fault clauses
            "seed=x;execute:crash",        # bad seed
            "execute",                     # missing action
            "teleport:crash",              # unknown seam
            "execute:vanish",              # unknown action
            "claim:corrupt",               # corrupt off a byte seam
            "execute:crash:rate=2.0",      # rate out of range
            "execute:crash:max=-1",
            "execute:crash:bogus=1",       # unknown option
            "execute:crash:rate=abc",
            "execute:crash:rate",          # option without '='
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ExperimentError):
            ChaosSchedule.from_spec(spec)


class TestTripDecisions:
    def test_same_seed_same_sequence(self):
        outcomes = []
        for _ in range(2):
            schedule = ChaosSchedule.from_spec("seed=11;execute:crash:rate=0.5")
            trace = []
            for i in range(200):
                try:
                    schedule.trip("execute", tag=f"run#{i}")
                    trace.append(False)
                except ChaosError:
                    trace.append(True)
            outcomes.append(trace)
        assert outcomes[0] == outcomes[1]
        hits = sum(outcomes[0])
        assert 60 < hits < 140  # rate=0.5 actually thins the sequence

    def test_different_seeds_diverge(self):
        def trace(seed):
            schedule = ChaosSchedule.from_spec(f"seed={seed};execute:crash:rate=0.5")
            out = []
            for _ in range(64):
                try:
                    schedule.trip("execute")
                    out.append(False)
                except ChaosError:
                    out.append(True)
            return out

        assert trace(1) != trace(2)

    def test_max_caps_total_trips(self):
        schedule = ChaosSchedule.from_spec("seed=1;execute:crash:max=2")
        crashes = 0
        for _ in range(50):
            try:
                schedule.trip("execute")
            except ChaosError:
                crashes += 1
        assert crashes == 2
        assert schedule.trips() == 2

    def test_tag_filter_restricts_rule(self):
        schedule = ChaosSchedule.from_spec("seed=1;heartbeat:crash:tag=w7")
        schedule.trip("heartbeat", tag="w1-claim")  # no match, no trip
        schedule.trip("heartbeat", tag=None)
        with pytest.raises(ChaosError):
            schedule.trip("heartbeat", tag="w7-claim")

    def test_other_seams_untouched(self):
        schedule = ChaosSchedule.from_spec("seed=1;execute:crash")
        schedule.trip("claim")
        schedule.trip("publish")
        assert schedule.trips() == 0

    def test_delay_action_sleeps_and_returns(self):
        schedule = ChaosSchedule.from_spec("seed=1;claim:delay:delay=0")
        schedule.trip("claim")  # no exception
        assert schedule.trips() == 1

    def test_at_least_one_rule_required(self):
        with pytest.raises(ExperimentError):
            ChaosSchedule([])


class TestByteSeam:
    def test_corrupt_mangles_head_only_and_is_involutive(self):
        data = bytes(range(200))
        bad = _corrupt_bytes(data)
        assert bad != data
        assert bad[64:] == data[64:]
        assert bad[:64] == bytes(b ^ 0xFF for b in data[:64])
        assert _corrupt_bytes(bad) == data

    def test_mangle_corrupts_then_runs_dry(self):
        schedule = ChaosSchedule.from_spec("seed=1;cache-put:corrupt:max=1")
        payload = b"x" * 100
        first = schedule.mangle("cache-put", payload)
        assert first != payload
        assert schedule.mangle("cache-put", payload) == payload  # max spent

    def test_mangle_crash_rule_raises(self):
        schedule = ChaosSchedule.from_spec("seed=1;cache-put:crash:max=1")
        with pytest.raises(ChaosError, match="cache-put"):
            schedule.mangle("cache-put", b"payload")


class TestProcessGlobalState:
    def test_trip_and_bytes_are_noops_when_off(self):
        chaos_trip("execute")
        assert chaos_bytes("cache-put", b"data") == b"data"
        assert active_schedule() is None

    def test_activate_overrides_and_deactivate_clears(self):
        schedule = ChaosSchedule.from_spec("seed=1;execute:crash:max=1")
        activate(schedule)
        assert active_schedule() is schedule
        with pytest.raises(ChaosError):
            chaos_trip("execute")
        deactivate()
        chaos_trip("execute")  # no-op again

    def test_env_var_parsed_lazily(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "seed=5;publish:crash:max=1")
        deactivate()  # forget the cached "no env" verdict
        schedule = active_schedule()
        assert schedule is not None
        assert schedule.seed == 5
        with pytest.raises(ChaosError):
            chaos_trip("publish")

    def test_bad_env_spec_raises_loudly(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "teleport:crash")
        deactivate()
        with pytest.raises(ExperimentError):
            active_schedule()


class TestChaosSoak:
    """2-worker campaigns under seeded faults at >= 3 seams, byte-identical
    to the fault-free reference (ISSUE 9 acceptance)."""

    def _reference_bytes(self, tmp_path) -> bytes:
        # Computed with chaos OFF (the autouse fixture guarantees it at
        # entry); the serial runner never touches the executor seams.
        serial = ScenarioRunner(seed=SEED).run_campaign(
            _SCENARIOS, min_runs=2, max_runs=2
        )
        return _samples_bytes(serial, tmp_path / "reference.json")

    def test_queue_soak_byte_identical(self, tmp_path):
        reference = self._reference_bytes(tmp_path)

        # Crash faults at four seams.  Worker threads share this process's
        # schedule; every rule is max-capped so the soak terminates.
        schedule = ChaosSchedule.from_spec(
            "seed=7;"
            "claim:crash:rate=0.5:max=2;"
            "execute:crash:max=2;"
            "heartbeat:crash:max=1;"
            "publish:crash:max=2;"
            "cache-put:crash:max=1"
        )
        activate(schedule)
        executor = CampaignExecutor(
            ScenarioRunner(seed=SEED), backend="queue",
            cache_dir=tmp_path / "cache", spool_dir=tmp_path / "spool",
            queue_options={"poll_interval": 0.02, "stop_workers_on_shutdown": True},
            max_retries=5,
        )
        workers = [
            threading.Thread(
                target=run_worker,
                args=(tmp_path / "spool", tmp_path / "cache"),
                kwargs=dict(poll_interval=0.02, heartbeat_s=0.1,
                            idle_exit_s=60.0, worker_id=f"w{i}"),
                daemon=True,
            )
            for i in range(2)
        ]
        for thread in workers:
            thread.start()
        try:
            result = executor.run_campaign(_SCENARIOS, min_runs=2, max_runs=2)
        finally:
            executor._backend.shutdown()
            for thread in workers:
                thread.join(timeout=30)

        assert schedule.trips() >= 3  # faults genuinely fired
        assert not executor.stats.degraded  # retries absorbed every fault
        assert _samples_bytes(result, tmp_path / "chaos.json") == reference
