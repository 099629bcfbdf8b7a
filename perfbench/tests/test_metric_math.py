"""The benchmark's metric arithmetic: ``python3 -m pytest perfbench/tests``."""

import math

import pytest

import pb_speed
from pb_math import Span, fold, geomean, iqr_share, predict_cached, self_times, tail


@pytest.mark.parametrize("n", [1, 2, 10])
def test_tail_with_ten_or_fewer_ops_is_the_slowest(n):
    values = [float(v) for v in range(n, 0, -1)]
    assert tail(values) == (float(n), 100.0, n)


def test_tail_with_eleven_ops_leaves_ten_beyond_the_fastest():
    assert tail(range(11)) == (0, 100.0 / 11, 11)


def test_tail_of_a_hundred_ops_is_p90():
    values = list(range(100, 0, -1))  # unsorted input
    result = tail(values)
    assert result.value == 90
    assert result.percentile == 90.0
    assert sum(v > result.value for v in values) == 10


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        tail([])


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([1.5] * 7) == pytest.approx(1.5)
    assert geomean([0.5, 2.0, 8.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_self_time_subtracts_the_union_of_nested_children():
    spans = [
        Span(1, None, "compile", 0.0, 10.0),
        Span(2, 1, "pass.a", 1.0, 4.0),
        Span(3, 1, "pass.b", 3.0, 6.0),  # overlaps pass.a
        Span(4, 2, "pass.c", 2.0, 3.0),  # grandchild
        Span(5, 1, "pass.a", 9.0, 11.0),  # runs past its parent
    ]
    own = self_times(spans)
    assert own == {
        1: pytest.approx(10.0 - (5.0 + 1.0)),
        2: pytest.approx(2.0),
        3: pytest.approx(3.0),
        4: pytest.approx(1.0),
        5: pytest.approx(2.0),
    }
    folded = fold(spans)
    assert folded["pass.a"].count == 2
    assert folded["pass.a"].inclusive == pytest.approx(5.0)
    assert folded["pass.a"].self_time == pytest.approx(4.0)
    assert folded["compile"] == (1, pytest.approx(10.0), pytest.approx(4.0))


def test_self_times_of_a_well_nested_tree_sum_to_its_root():
    spans = [
        Span("r", None, "campaign.run", 0.0, 8.0),
        Span("c", "r", "compile", 0.5, 2.0),
        Span("p", "c", "pass.pruning", 0.75, 1.5),
        Span("g", "r", "sim.run", 2.0, 3.0),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(8.0)
    assert fold(spans)["campaign.run"].self_time == pytest.approx(5.5)


def test_predict_cached_misses_first_requests_and_hits_repeats():
    assert predict_cached(["a", "b", "a", "c", "b", "b"]) == [
        False, False, True, False, True, True,
    ]
    assert predict_cached([]) == []


def test_serve_draw_requests_every_program_once_and_repeats_skewed():
    import pb_serve

    sequence = pb_serve.draw(seed=7, programs=72, requests=240)
    assert len(sequence) == 240
    assert set(sequence) == set(range(72))
    assert pb_serve.draw(seed=7, programs=72, requests=240) == sequence
    assert pb_serve.draw(seed=8, programs=72, requests=240) != sequence
    hits = sum(predict_cached(sequence))
    assert hits == 240 - 72
    counts = sorted((sequence.count(p) for p in range(72)), reverse=True)
    assert counts[0] > 5 * counts[-1]  # popular programs repeat far more


def test_iqr_share():
    assert iqr_share([10.0] * 4) == 0.0
    q1, med, q3 = 2.75, 5.5, 8.25  # statistics.quantiles(range(1, 11), n=4)
    assert iqr_share([float(v) for v in range(1, 11)]) == pytest.approx((q3 - q1) / med)
    assert math.isinf(iqr_share([0.0, 0.0, 0.0]))


def test_reference_seconds_scale_each_stretch_by_its_samples():
    meter = pb_speed.Meter()
    nominal = pb_speed.NOMINAL_S
    # the loop at nominal speed, then at half speed, taking 0.1 s
    meter.samples = [(0.0, nominal, 0.0), (1.0, 2 * nominal, 0.1), (2.0, nominal, 0.0)]
    wall, reference = meter.integrate(0.5, 1.5)
    assert wall == pytest.approx(0.5 + 0.4)  # less the sample inside
    assert reference == pytest.approx(0.9 * nominal / (1.5 * nominal))
    assert meter.integrate(1.2, 1.7) == pytest.approx((0.5, 0.5 / 1.5))
    with pytest.raises(ValueError):
        meter.integrate(-0.5, 0.5)
    with pytest.raises(ValueError):
        meter.integrate(1.5, 2.5)


def test_periodic_samples_interrupt_a_busy_op():
    import time

    meter = pb_speed.Meter()
    meter.sample()
    with meter.periodic(0.02):
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        wall = time.perf_counter() - start
    meter.sample()
    inside = [s for s in meter.samples if start < s[0] < start + wall]
    assert len(inside) >= 3
    measured, reference = meter.integrate(start, start + wall)
    assert measured == pytest.approx(wall - sum(s[2] for s in inside))
    assert reference > 0
