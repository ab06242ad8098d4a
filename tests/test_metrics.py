"""Tests for metrics: event log, time series, recorder and report tables."""

from __future__ import annotations

import pytest

from repro.metrics.recorder import EventLog, TimeSeries, TimeSeriesRecorder
from repro.metrics.report import ComparisonTable, format_table


class TestEventLog:
    def test_record_and_query(self):
        log = EventLog()
        log.record(1.0, "failure", component="gm-0")
        log.record(2.0, "failure", component="lc-1")
        log.record(3.0, "election", winner="gm-1")
        assert len(log) == 3
        assert log.count("failure") == 2
        assert log.categories() == ["election", "failure"]
        assert log.events("election")[0].details["winner"] == "gm-1"

    def test_empty_log(self):
        log = EventLog()
        assert len(log) == 0
        assert log.count() == 0
        assert log.count("anything") == 0
        assert log.categories() == []
        assert log.events() == []

    def test_events_returns_copies_of_list(self):
        log = EventLog()
        log.record(0.0, "x")
        events = log.events()
        events.clear()
        assert len(log) == 1


class TestTimeSeries:
    def test_append_and_stats(self):
        series = TimeSeries("hosts")
        for t, v in [(0.0, 4.0), (10.0, 6.0), (20.0, 2.0)]:
            series.append(t, v)
        assert len(series) == 3
        assert series.values.tolist() == [4.0, 6.0, 2.0]
        assert series.mean() == pytest.approx(4.0)
        assert series.max() == 6.0

    def test_empty_history_statistics_are_zero(self):
        series = TimeSeries("empty")
        assert len(series) == 0
        assert series.values.size == 0
        assert series.mean() == 0.0
        assert series.max() == 0.0
        assert series.time_weighted_mean() == 0.0

    def test_single_sample_statistics(self):
        series = TimeSeries("one")
        series.append(5.0, 42.0)
        assert series.mean() == 42.0
        assert series.time_weighted_mean() == 42.0  # no duration: plain mean

    def test_constant_trace_time_weighted_mean_is_the_constant(self):
        series = TimeSeries("flat")
        for time in (0.0, 10.0, 25.0, 100.0):  # uneven spacing must not matter
            series.append(time, 7.5)
        assert series.time_weighted_mean() == pytest.approx(7.5)

    def test_equal_timestamps_are_allowed(self):
        series = TimeSeries("dense")
        series.append(1.0, 1.0)
        series.append(1.0, 2.0)  # same instant: allowed (zero-duration step)
        assert series.time_weighted_mean() == pytest.approx(1.5)  # degenerate: plain mean

    def test_non_monotonic_time_rejected(self):
        series = TimeSeries("x")
        series.append(5.0, 1.0)
        with pytest.raises(ValueError):
            series.append(4.0, 1.0)

    def test_time_weighted_mean(self):
        series = TimeSeries("power")
        series.append(0.0, 100.0)
        series.append(10.0, 200.0)  # 100 W held for 10 s
        series.append(40.0, 0.0)  # 200 W held for 30 s
        assert series.time_weighted_mean() == pytest.approx((100 * 10 + 200 * 30) / 40)


class TestTimeSeriesRecorder:
    def test_probes_sampled_periodically(self, sim):
        recorder = TimeSeriesRecorder(sim, interval=10.0)
        counter = {"value": 0}

        def probe():
            counter["value"] += 1
            return counter["value"]

        series = recorder.add_probe("counter", probe)
        sim.run(until=50.0)
        assert len(series) == 5
        assert series.values[-1] == 5

    def test_recorder_without_probes_samples_nothing(self, sim):
        recorder = TimeSeriesRecorder(sim, interval=10.0)
        recorder.sample_all()
        sim.run(until=30.0)
        with pytest.raises(KeyError):
            recorder.series("unknown")

    def test_duplicate_probe_rejected(self, sim):
        recorder = TimeSeriesRecorder(sim, interval=10.0)
        recorder.add_probe("x", lambda: 1.0)
        with pytest.raises(ValueError):
            recorder.add_probe("x", lambda: 2.0)

    def test_stop_halts_sampling(self, sim):
        recorder = TimeSeriesRecorder(sim, interval=10.0)
        series = recorder.add_probe("x", lambda: 1.0)
        sim.run(until=30.0)
        recorder.stop()
        sim.run(until=100.0)
        assert len(series) == 3


class TestReportTables:
    def test_format_table_alignment_and_content(self):
        rows = [
            {"algorithm": "ffd", "hosts": 20, "ratio": 1.0521},
            {"algorithm": "aco", "hosts": 19, "ratio": 1.0},
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert "algorithm" in lines[0]
        assert len(lines) == 4  # header + separator + 2 rows
        assert "ffd" in lines[2]
        assert "1.052" in lines[2]

    def test_format_empty(self):
        assert format_table([]) == "(no rows)"

    def test_missing_columns_filled_blank(self):
        text = format_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text

    def test_boolean_and_large_number_formatting(self):
        text = format_table([{"ok": True, "big": 1234567.0, "small": 0.00123}])
        assert "yes" in text
        assert "1,234,567" in text
        assert "0.0012" in text

    def test_comparison_table_rows_and_render(self):
        table = ComparisonTable("My experiment", columns=["name", "value"])
        table.add_row(name="x", value=1)
        table.add_row(name="y", value=2)
        assert len(table) == 2
        assert table.rows == [{"name": "x", "value": 1}, {"name": "y", "value": 2}]
        rendered = table.render()
        assert rendered.startswith("My experiment")
        assert "=" * len("My experiment") in rendered

    def test_comparison_table_print(self, capsys):
        table = ComparisonTable("T")
        table.add_row(a=1)
        table.print()
        assert "T" in capsys.readouterr().out
