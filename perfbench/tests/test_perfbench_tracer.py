"""Percentiles with their sample count, self time of nested spans, and the
host-speed calibration."""

import pytest

from calibration import KERNEL_REF_S, Calibrator
from tracer import Tracer, percentile, tail_is_supported


def test_percentile_is_nearest_rank_and_reports_its_count():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == (3.0, 5)
    assert percentile(values, 90) == (5.0, 5)
    assert percentile(values, 0) == (1.0, 5)
    assert percentile(list(range(1, 101)), 90) == (90, 100)


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p90_needs_a_hundred_samples():
    assert not tail_is_supported(99, 90)
    assert tail_is_supported(100, 90)
    assert tail_is_supported(10, 0)


def fake_clock(times):
    return iter(times).__next__


def test_self_time_is_span_minus_its_direct_children():
    # A [0, 10] holds B [1, 4] and D [5, 9]; B holds C [2, 3].
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.begin("A")
    tracer.begin("B")
    tracer.begin("C")
    assert tracer.end() == 1
    tracer.end()
    tracer.begin("D")
    tracer.end()
    tracer.end()
    assert tracer.open_spans() == 0
    totals = {n: (s.count, s.total, s.self_total) for n, s in tracer.stats.items()}
    assert totals == {"A": (1, 10, 3), "B": (1, 3, 2), "C": (1, 1, 1), "D": (1, 4, 4)}
    assert tracer.edges == {("A", "B"): 3, ("B", "C"): 1, ("A", "D"): 4}


def test_repeated_spans_aggregate_and_keep_samples_on_request():
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 10, 11, 12, 16]),
                    keep_samples=("leaf",))
    for _ in range(2):
        tracer.begin("root")
        tracer.begin("leaf")
        tracer.end()
        tracer.end()
    assert tracer.stat("leaf").samples == [1, 1]
    assert tracer.stat("root").samples is None
    assert tracer.stat("root").self_total == (3 - 1) + (6 - 1)
    assert tracer.mean("root") == (3 + 6) / 2
    assert tracer.mean("missing") == 0.0


def test_slowdown_is_the_median_sample_over_the_reference():
    calibrator = Calibrator()
    calibrator.samples = [KERNEL_REF_S * f for f in (1.0, 3.0, 1.5, 9.0, 2.0)]
    assert calibrator.slowdown() == pytest.approx(2.0)
    assert calibrator.slowdown(first=3) == pytest.approx(5.5)
    assert calibrator.sample() > 0 and len(calibrator.samples) == 6
