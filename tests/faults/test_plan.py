"""FaultPlan: seeded schedules must replay bit-identically everywhere."""

import os
import subprocess
import sys

import pytest

from repro.errors import ConfigError
from repro.faults.plan import (COMPONENT_KINDS, FAULT_KINDS, FailureClock,
                               FaultEvent, FaultPlan)
from repro.harness.scales import PAPER, SMALL


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultEvent(1.0, "meteor_strike")

    def test_negative_times_rejected(self):
        with pytest.raises(ConfigError):
            FaultEvent(-1.0, "osd_outage")
        with pytest.raises(ConfigError):
            FaultEvent(1.0, "osd_outage", duration=-0.5)
        with pytest.raises(ConfigError):
            FaultEvent(1.0, "osd_outage", target=-1)

    def test_component_kinds_subset(self):
        assert COMPONENT_KINDS < FAULT_KINDS
        assert "writer_kill" in FAULT_KINDS - COMPONENT_KINDS

    @pytest.mark.parametrize("scale", [SMALL, PAPER], ids=lambda s: s.name)
    def test_every_kind_is_injected_by_the_experiment(self, scale):
        """Census: a fault kind lands only with the resilience experiment
        (``harness faults``) injecting it, at every scale."""
        injected = [k for k in scale.faults_kinds if k != "none"]
        assert len(injected) == len(set(injected))
        assert set(injected) == FAULT_KINDS


class TestPlanViews:
    def test_events_sorted_and_immutable(self):
        plan = FaultPlan([FaultEvent(5.0, "mds_crash"),
                          FaultEvent(1.0, "osd_outage")], seed=7)
        assert [ev.time for ev in plan.events] == [1.0, 5.0]
        assert len(plan) == 2

    def test_component_split(self):
        plan = FaultPlan([FaultEvent(1.0, "osd_outage"),
                          FaultEvent(2.0, "writer_kill", target=3)], seed=0)
        assert len(plan.component_events) == 1
        assert plan.component_events[0].kind == "osd_outage"

    def test_writer_kills_first_per_rank_wins(self):
        plan = FaultPlan([FaultEvent(2.0, "writer_kill", target=1, magnitude=9),
                          FaultEvent(1.0, "writer_kill", target=1, magnitude=4),
                          FaultEvent(1.5, "writer_kill", target=2)], seed=0)
        kills = plan.writer_kills()
        assert set(kills) == {1, 2}
        assert kills[1].magnitude == 4  # the earlier kill


class TestGeneration:
    def test_same_seed_same_schedule(self):
        kw = dict(horizon=100.0, mtbf=10.0,
                  kinds=["osd_outage", "mds_crash"], n_osds=8)
        a = FaultPlan.generate(42, **kw)
        b = FaultPlan.generate(42, **kw)
        assert a.events == b.events
        assert a.signature() == b.signature()
        assert len(a) > 0

    def test_different_seed_different_schedule(self):
        kw = dict(horizon=200.0, mtbf=10.0, kinds=["osd_outage"], n_osds=8)
        assert (FaultPlan.generate(1, **kw).signature()
                != FaultPlan.generate(2, **kw).signature())

    def test_kind_substreams_independent(self):
        """Adding a kind to the mix never perturbs the others' schedules."""
        solo = FaultPlan.generate(9, horizon=300.0, mtbf=20.0,
                                  kinds=["osd_outage"], n_osds=4)
        mixed = FaultPlan.generate(9, horizon=300.0, mtbf=20.0,
                                   kinds=["osd_outage", "mds_crash"], n_osds=4)
        assert tuple(ev for ev in mixed.events if ev.kind == "osd_outage") == solo.events

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.generate(0, horizon=0.0, mtbf=1.0)
        with pytest.raises(ConfigError):
            FaultPlan.generate(0, horizon=1.0, mtbf=1.0, kinds=["nope"])

    def test_writer_kills_are_not_generated(self):
        """Writer kills are placed by byte offset, never drawn by time."""
        with pytest.raises(ConfigError):
            FaultPlan.generate(0, horizon=100.0, mtbf=10.0, kinds=["writer_kill"])

    def test_signature_stable_across_processes(self):
        """Substreams use crc32, not salted hash(): a --jobs worker process
        must derive the identical schedule from the same seed."""
        code = ("from repro.faults.plan import FaultPlan; "
                "print(FaultPlan.generate(42, horizon=100.0, mtbf=10.0, "
                "kinds=['osd_outage','mds_crash'], n_osds=8).signature(), "
                "float(FaultPlan((), seed=42).rng('retry-jitter').random()))")
        env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="12345")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             cwd=os.path.join(os.path.dirname(__file__), "..", ".."))
        sig, draw = out.stdout.split()
        here = FaultPlan.generate(42, horizon=100.0, mtbf=10.0,
                                  kinds=["osd_outage", "mds_crash"], n_osds=8)
        assert sig == here.signature()
        assert float(draw) == float(FaultPlan((), seed=42).rng("retry-jitter").random())


class TestFailureClock:
    def test_no_mtbf_means_no_failures(self):
        clock = FaultPlan((), seed=0).failure_clock(None)
        assert clock.next_failure(0.0) == float("inf")

    def test_renewal_deterministic_per_seed(self):
        a = FaultPlan((), seed=11).failure_clock(50.0)
        b = FaultPlan((), seed=11).failure_clock(50.0)
        ta = [a.next_failure(i * 10.0) for i in range(5)]
        tb = [b.next_failure(i * 10.0) for i in range(5)]
        assert ta == tb
