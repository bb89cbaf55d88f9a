"""Tests of the OmpP-style parallel profiler over tracer spans."""

import pytest

from repro.observe.tracer import Span
from repro.parallel.barrier import InstrumentedBarrier
from repro.profiling.ompp import ParallelProfile


def _span(name, tid, seconds, step=0, cat="kernel"):
    return Span(name, cat, tid, step, -1, 0.0, seconds)


def _spans():
    return [
        _span("collision", 0, 1.0),
        _span("collision", 1, 0.5),
        _span("stream", 0, 0.2),
        _span("stream", 1, 0.2),
    ]


class TestRegionStats:
    def test_per_region_aggregation(self):
        p = ParallelProfile(_spans())
        stats = {s.name: s for s in p.region_stats()}
        assert stats["collision"].total_seconds == pytest.approx(1.5)
        assert stats["collision"].mean_thread_seconds == pytest.approx(0.75)
        assert stats["collision"].max_thread_seconds == pytest.approx(1.0)

    def test_region_imbalance(self):
        p = ParallelProfile(_spans())
        stats = {s.name: s for s in p.region_stats()}
        assert stats["collision"].imbalance == pytest.approx(0.25)
        assert stats["stream"].imbalance == pytest.approx(0.0)

    def test_sorted_by_total_time(self):
        p = ParallelProfile(_spans())
        names = [s.name for s in p.region_stats()]
        assert names == ["collision", "stream"]

    def test_only_kernel_spans_counted(self):
        spans = _spans() + [
            _span("collision", 0, 9.0, cat="cube"),
            _span("barrier:after_step", 1, 9.0, cat="barrier"),
        ]
        stats = {s.name: s for s in ParallelProfile(spans).region_stats()}
        assert set(stats) == {"collision", "stream"}
        assert stats["collision"].total_seconds == pytest.approx(1.5)

    def test_thread_without_region_counts_in_its_mean(self):
        spans = _spans() + [_span("reduce", 0, 0.4)]
        stats = {s.name: s for s in ParallelProfile(spans).region_stats()}
        assert stats["reduce"].mean_thread_seconds == pytest.approx(0.2)
        assert stats["reduce"].imbalance == pytest.approx(0.5)


class TestWholeProgram:
    def test_time_imbalance(self):
        p = ParallelProfile(_spans())
        # thread 0: 1.2s, thread 1: 0.7s -> (1.2 - 0.95)/1.2
        assert p.whole_program_imbalance() == pytest.approx((1.2 - 0.95) / 1.2)

    def test_balanced_trace(self):
        spans = [_span("k", 0, 1.0), _span("k", 1, 1.0)]
        assert ParallelProfile(spans).whole_program_imbalance() == 0.0

    def test_empty_trace(self):
        p = ParallelProfile([])
        assert p.whole_program_imbalance() == 0.0
        assert p.region_stats() == []


class TestBarriers:
    def test_barrier_wait_seconds(self):
        barrier = InstrumentedBarrier(1, "b")
        barrier.wait()
        p = ParallelProfile(_spans(), barriers={"b": barrier})
        assert p.barrier_wait_seconds() >= 0.0

    def test_table_rendering(self):
        p = ParallelProfile(_spans())
        text = p.as_table()
        assert "collision" in text
        assert "whole-program load imbalance" in text
