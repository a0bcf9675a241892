"""The tracer puts back what it wraps and computes self time correctly."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
from amdl import active, core, families, harness, oracles, rpu  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import check_trial, measure_and_run  # noqa: E402

OWNERS = (harness, active, rpu, oracles.SamplerFamily, oracles.OracleSet,
          core.MDLInstance, families.FamilySpec)


def snapshot() -> dict:
    return {(id(owner), name): obj for owner in OWNERS for name, obj in vars(owner).items()}


def test_install_wraps_and_restore_puts_back_every_name():
    before = snapshot()
    with Tracer() as tr:
        layers.install(tr)
        wrapped = [(owner, attr) for owner, attr, _ in tr._saved]
        assert len(wrapped) >= 20
        for owner, attr in wrapped:
            assert vars(owner)[attr] is not before[(id(owner), attr)]
            assert vars(owner)[attr].__wrapped__ is before[(id(owner), attr)]
    assert snapshot() == before


def test_restore_after_an_exception_inside_a_traced_call():
    before = snapshot()
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tr:
            layers.install(tr)
            with tr.span("bench.op"):
                1 / 0
    assert snapshot() == before
    assert tr.errors == {0}


def test_install_refuses_a_missing_name():
    tr = Tracer()
    with pytest.raises(AttributeError):
        tr.install(harness, "no_such_function", "harness.none")
    assert tr._saved == []


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_on_a_synthetic_span_tree():
    # op [0, 100]: a [10, 40] holding a1 [15, 20] and a2 [25, 35]; b [50, 90]
    # holding b1 [60, 61]
    tr = Tracer(clock=fake_clock([0, 10, 15, 20, 25, 35, 40, 50, 60, 61, 90, 100]))
    with tr.span("op"):
        with tr.span("a"):
            with tr.span("a1"):
                pass
            with tr.span("a2"):
                pass
        with tr.span("b"):
            with tr.span("b1"):
                pass
    cols = tr.columns()
    assert [tr.names[i] for i in cols["name_id"]] == ["op", "a", "a1", "a2", "b", "b1"]
    assert cols["parent"].tolist() == [-1, 0, 1, 1, 0, 4]
    assert (cols["end"] - cols["start"]).tolist() == [100, 30, 5, 10, 40, 1]
    # op: 100 - 30 - 40; a: 30 - 5 - 10; b: 40 - 1
    assert cols["self_ns"].tolist() == [30, 15, 5, 10, 39, 1]
    assert int(cols["self_ns"].sum()) == 100


def test_self_times_of_a_lone_root():
    assert self_times(np.array([-1]), np.array([7])).tolist() == [7]


def test_tracing_does_not_change_the_records():
    plain = measure_and_run(5, 16, 5)
    with Tracer() as tr:
        layers.install(tr)
        traced = measure_and_run(5, 16, 5, tr)
    rows = lambda out: [rec.csv_row() for rec, _ in out.trials]
    assert rows(traced) == rows(plain)
    assert traced.measured == plain.measured
    assert len(tr) > 0 and not plain.problems and not traced.problems
    assert tr.counts["lower_bound_only"] == 0


def test_check_trial_catches_a_wrong_record():
    out = measure_and_run(5, 16, 5)
    rec, inst = out.trials[0]
    assert check_trial(rec, inst) == []
    bad = [dataclasses.replace(rec, labels_total=rec.labels_total + 1),
           dataclasses.replace(rec, nu=rec.nu + 0.5),
           dataclasses.replace(rec, success=not rec.success)]
    for b in bad:
        assert len(check_trial(b, inst)) == 1
