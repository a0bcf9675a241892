"""Times are adjusted by the speed gauge readings nearest each op, and a run's
ops depend on its seconds only."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH)]

import speed  # noqa: E402
from run import planned_rounds  # noqa: E402


def test_adjust_scales_by_the_gauge():
    assert speed.adjust(10.0, speed.REF_MS) == 10.0
    assert speed.adjust(10.0, 2 * speed.REF_MS) == 5.0
    assert speed.adjust(10.0, 4 * speed.REF_MS, slope=0.5) == 5.0


def gauge_with(readings, stretches) -> speed.Gauge:
    """A gauge with `readings` as (time, ms) and `stretches` as (op, start, end)."""
    g = speed.Gauge(calls=1)
    g.at = [t for t, _ in readings]
    g.readings = [ms for _, ms in readings]
    g.stretches = list(stretches)
    return g


def test_a_stretch_runs_at_the_mean_of_the_readings_near_it():
    r = speed.REF_MS
    # the reading at t=5 s is more than a second from the op and does not count
    g = gauge_with([(0.0, r), (0.5, 3 * r), (5.0, 100 * r)], [(0, 0.1, 0.4)])
    raw, adj = g.op_ms(1, 1.0)
    assert raw[0] == pytest.approx(300.0) and adj[0] == pytest.approx(150.0)


def test_an_op_adds_up_its_stretches_each_at_its_own_speed():
    r = speed.REF_MS
    # op 0 ran in two stretches, the first on a quiet host, the second on one
    # twice as slow; op 1 ran at half speed throughout
    g = gauge_with([(0.0, r), (0.01, r), (10.0, 2 * r), (10.02, 2 * r), (20.0, 2 * r),
                    (20.008, 2 * r)],
                   [(0, 0.0, 0.01), (0, 10.0, 10.02), (1, 20.0, 20.008)])
    raw, adj = g.op_ms(2, 1.0)
    assert raw == pytest.approx([30.0, 8.0]) and adj == pytest.approx([20.0, 4.0])


def test_reading_time_is_in_no_stretch():
    g = speed.Gauge(calls=5)
    g.read()
    g.start(0)
    g.read()
    g.stop()
    g.read()
    assert [op for op, _, _ in g.stretches] == [0, 0]
    assert sum(t1 - t0 for _, t0, t1 in g.stretches) * 1e3 < 5 * min(g.readings)
    assert len(g.readings) == len(g.at) == 3


def test_planned_rounds_depend_on_seconds_only():
    wl = type("Workload", (), {"round_s": 1.5})
    assert planned_rounds(wl, 20) == 13
    assert planned_rounds(wl, 0.01) == 1


def test_a_reading_is_positive():
    assert speed.reading(3) > 0
