"""Unit tests for phase clocks and job metrics."""

import pytest

from repro.sim import JobMetrics, PhaseClock


class TestPhaseClock:
    def test_basic_phase(self):
        clk = PhaseClock()
        clk.start("open", t=1.0)
        assert clk.stop("open", t=3.5) == 2.5
        assert clk.total("open") == 2.5

    def test_phases_accumulate(self):
        clk = PhaseClock()
        clk.start("write", t=0.0)
        clk.stop("write", t=1.0)
        clk.start("write", t=5.0)
        clk.stop("write", t=7.0)
        assert clk.total("write") == 3.0

    def test_double_start_rejected(self):
        clk = PhaseClock()
        clk.start("x", t=0)
        with pytest.raises(ValueError):
            clk.start("x", t=1)

    def test_stop_without_start_rejected(self):
        with pytest.raises(ValueError):
            PhaseClock().stop("x", t=1)

    def test_wall_span_tracked(self):
        clk = PhaseClock()
        clk.start("open", t=2.0)
        clk.stop("open", t=3.0)
        clk.start("close", t=9.0)
        clk.stop("close", t=10.0)
        assert clk.first_start == 2.0
        assert clk.last_stop == 10.0

    def test_unknown_phase_total_is_zero(self):
        assert PhaseClock().total("nope") == 0.0


class TestJobMetrics:
    def make_clocks(self):
        clocks = []
        for i in range(4):
            c = PhaseClock()
            c.start("open", t=0.0)
            c.stop("open", t=1.0 + i)  # open times 1..4
            c.start("io", t=1.0 + i)
            c.stop("io", t=10.0)
            clocks.append(c)
        return clocks

    def test_phase_max_and_mean(self):
        m = JobMetrics.from_rank_clocks(self.make_clocks(), bytes_total=100)
        assert m.phase_max["open"] == 4.0
        assert m.phase_mean["open"] == pytest.approx(2.5)
        assert m.nprocs == 4

    def test_wall_and_effective_bandwidth(self):
        m = JobMetrics.from_rank_clocks(self.make_clocks(), bytes_total=1000)
        assert m.wall_start == 0.0
        assert m.wall_end == 10.0
        assert m.effective_bandwidth == pytest.approx(100.0)

    def test_empty_clock_safe(self):
        m = JobMetrics.from_rank_clocks([PhaseClock()], bytes_total=10)
        assert m.wall_time == 0.0
        assert m.effective_bandwidth == 0.0
