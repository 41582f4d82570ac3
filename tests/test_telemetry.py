"""Telemetry: phase capture, counter deltas, peak gauges, merging."""

import pytest

from repro.errors import ReproError
from repro.telemetry import PhaseStats, Telemetry, format_metric


class FakeMeter:
    def __init__(self):
        self.total = 0.0
        self.gauge = 0.0
        self._peak = 0.0

    def bump(self, amount: float) -> None:
        self.total += amount
        self.gauge += amount
        self._peak = max(self._peak, self.gauge)

    def drop(self, amount: float) -> None:
        self.gauge -= amount

    def counters(self):
        return {"bytes": self.total}

    def peaks(self):
        return {"gauge": self._peak}

    def reset_peaks(self):
        self._peak = self.gauge


class TestTelemetry:
    def test_phase_counter_deltas(self):
        telemetry = Telemetry()
        meter = FakeMeter()
        telemetry.register(meter)
        meter.bump(100)
        with telemetry.phase("map"):
            meter.bump(50)
        with telemetry.phase("sort"):
            meter.bump(25)
        assert telemetry["map"].counters["bytes"] == 50
        assert telemetry["sort"].counters["bytes"] == 25

    def test_phase_peaks_reset_per_phase(self):
        telemetry = Telemetry()
        meter = FakeMeter()
        telemetry.register(meter)
        meter.bump(1000)
        meter.drop(1000)
        with telemetry.phase("map"):
            meter.bump(10)
        assert telemetry["map"].peaks["gauge"] == 10

    def test_sequential_phases_still_isolated_after_nesting(self):
        """A later sibling phase must not inherit an earlier phase's peak."""
        telemetry = Telemetry()
        meter = FakeMeter()
        telemetry.register(meter)
        with telemetry.phase("first"):
            meter.bump(100)
            meter.drop(100)
        with telemetry.phase("second"):
            meter.bump(2)
        assert telemetry["second"].peaks["gauge"] == 2

    def test_same_phase_merges(self):
        telemetry = Telemetry()
        meter = FakeMeter()
        telemetry.register(meter)
        for bump in (10, 20):
            with telemetry.phase("sort"):
                meter.bump(bump)
                meter.drop(bump)
        assert telemetry["sort"].counters["bytes"] == 30
        assert telemetry["sort"].peaks["gauge"] == 20  # max, not sum
        assert [s.name for s in telemetry] == ["sort"]

    def test_wall_time_positive_and_total(self):
        telemetry = Telemetry()
        with telemetry.phase("a"):
            pass
        with telemetry.phase("b"):
            pass
        assert telemetry.total_wall_seconds() >= 0
        assert "a" in telemetry and "c" not in telemetry
        assert len(telemetry.phases) == 2

    def test_report_contains_phases(self):
        telemetry = Telemetry()
        with telemetry.phase("reduce"):
            pass
        report = telemetry.report()
        assert "reduce" in report and "total" in report


class ExplodingMeter(FakeMeter):
    """A meter whose counters() can be made to raise mid-run."""

    def __init__(self):
        super().__init__()
        self.explode = False

    def counters(self):
        if self.explode:
            raise RuntimeError("meter broke")
        return super().counters()


class TestPhaseFailure:
    def test_failed_phase_tagged_and_kept_out_of_totals(self):
        telemetry = Telemetry()
        meter = FakeMeter()
        telemetry.register(meter)
        with pytest.raises(ValueError):
            with telemetry.phase("sort"):
                meter.bump(10)
                raise ValueError("boom")
        assert "sort" not in telemetry
        assert telemetry.total_wall_seconds() == 0.0
        (failed,) = telemetry.failed
        assert failed.error == "ValueError: boom"
        # Best-effort snapshot still captured what the phase did.
        assert failed.counters["bytes"] == 10
        assert "FAILED(ValueError: boom)" in failed.summary()
        assert "FAILED" in telemetry.report()

    def test_failed_phase_does_not_leak_active_context(self):
        telemetry = Telemetry()
        with pytest.raises(ValueError):
            with telemetry.phase("map"):
                raise ValueError("boom")
        with telemetry.phase("map"):
            pass
        assert telemetry["map"].error is None
        assert len(telemetry.failed) == 1

    def test_broken_meter_does_not_mask_phase_exception(self):
        telemetry = Telemetry()
        meter = ExplodingMeter()
        telemetry.register(meter)
        with pytest.raises(ValueError, match="original"):
            with telemetry.phase("reduce"):
                meter.explode = True
                raise ValueError("original")
        (failed,) = telemetry.failed
        assert failed.error == "ValueError: original"

    def test_broken_meter_on_success_propagates_without_leaking(self):
        telemetry = Telemetry()
        meter = ExplodingMeter()
        telemetry.register(meter)
        with pytest.raises(RuntimeError, match="meter broke"):
            with telemetry.phase("load"):
                meter.explode = True
        # The phase was closed despite the snapshot error, so later phases
        # still work.
        meter.explode = False
        with telemetry.phase("load"):
            pass
        assert telemetry["load"].error is None

    def test_inner_failure_leaves_outer_phase_intact(self):
        """Phases do not nest: entering one inside another raises, records
        nothing for the inner name and leaves the outer phase measured."""
        telemetry = Telemetry()
        meter = FakeMeter()
        telemetry.register(meter)
        with telemetry.phase("outer"):
            meter.bump(3)
            with pytest.raises(ReproError, match="'inner'.*'outer'"):
                with telemetry.phase("inner"):
                    meter.bump(100)
            meter.bump(5)
        assert "inner" not in telemetry and telemetry.failed == []
        assert telemetry["outer"].counters["bytes"] == 8
        assert telemetry["outer"].peaks["gauge"] == 8
        with telemetry.phase("inner"):
            pass
        assert "inner" in telemetry


class TestFormatting:
    def test_format_metric_is_unit_aware(self):
        assert format_metric("host_bytes", 2048.0) == "2.05 kB"
        assert "s" in format_metric("backoff_s", 1.5)
        assert format_metric("queue_depth", 7.0) == "7"

    def test_summary_does_not_mislabel_non_byte_gauges(self):
        stats = PhaseStats("sort", 1.0,
                           peaks={"queue_depth": 7.0, "host_bytes": 2048.0})
        summary = stats.summary()
        assert "peak_queue_depth=7 " in summary + " "
        assert "peak_host_bytes=2.05 kB" in summary


class TestPhaseStats:
    def test_merge_adds_and_maxes(self):
        a = PhaseStats("x", 1.0, {"n": 1.0}, {"p": 5.0})
        b = PhaseStats("x", 2.0, {"n": 2.0, "m": 1.0}, {"p": 3.0, "q": 7.0})
        merged = a.merged_with(b)
        assert merged.wall_seconds == 3.0
        assert merged.counters == {"n": 3.0, "m": 1.0}
        assert merged.peaks == {"p": 5.0, "q": 7.0}

    def test_sim_seconds_reads_counter(self):
        stats = PhaseStats("x", 0.0, {"sim_seconds": 4.5})
        assert stats.sim_seconds == 4.5
        assert PhaseStats("y").sim_seconds == 0.0

    def test_summary_mentions_name(self):
        assert "sort" in PhaseStats("sort", 1.0).summary()


def test_unknown_phase_lookup_raises():
    with pytest.raises(KeyError):
        Telemetry()["nope"]
