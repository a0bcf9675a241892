"""Experiment runner, CSV schemas, sweeps, report pivots, and the CLI."""

import copy
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amdl
from amdl import ContractViolation, RunConfig, harness
from amdl.cli import main as cli_main
from amdl.harness import (RUN_CSV_HEADER, SWEEP_CSV_HEADER, records_to_csv,
                          report, run_trials, sweep, sweep_from_csv,
                          sweep_to_csv)
from amdl.families import FAMILIES

from test_families import WRONG_TYPED_PARAMS


def _prop1_cfg(trials=2, **kw):
    return RunConfig(alg="passive-naive", eps=0.1, delta=0.1, trials=trials,
                     base_seed=0, instance=amdl.gen_prop1(2, 0.1), **kw)


def test_single_trial_success_and_ledger_consistency():
    recs = run_trials(_prop1_cfg(trials=1))
    rec = recs[0]
    assert rec.success and rec.failure_mode == ""
    assert rec.labels_total == sum(rec.labels_per_dist)
    assert rec.nu == 0.1
    assert rec.instance_id.startswith("prop1")


def test_run_trials_deterministic_bytes():
    a = records_to_csv(run_trials(_prop1_cfg(trials=3)))
    b = records_to_csv(run_trials(_prop1_cfg(trials=3)))
    assert a == b
    assert a.startswith(RUN_CSV_HEADER + "\n")
    # wall_ms suppressed by default for byte determinism
    assert all(line.endswith(",0") for line in a.strip().split("\n")[1:])


def test_run_record_quotes_fields_that_need_it():
    # an instance id or family holding a comma, a quote or a line break is
    # quoted, so the record reads back as the 14 fields written
    inst = amdl.gen_prop1(2, 0.1)
    inst.metadata.update(instance_id='a,b\nc', family='say "hi"\r')
    rec = run_trials(RunConfig(alg="passive-naive", eps=0.1, delta=0.1, instance=inst))[0]
    text = records_to_csv([rec])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == RUN_CSV_HEADER.split(",")
    assert len(rows) == 2 and len(rows[1]) == 14
    assert rows[1][:3] == ['a,b\nc', 'say "hi"\r', "passive-naive"]
    assert rows[1][7] == "|".join(map(str, rec.labels_per_dist))


def test_run_trials_workers_match_serial():
    serial = records_to_csv(run_trials(_prop1_cfg(trials=4)))
    parallel = records_to_csv(run_trials(_prop1_cfg(trials=4, workers=2)))
    assert serial == parallel


def test_run_config_validation():
    with pytest.raises(ContractViolation):
        RunConfig(alg="nope", eps=0.1, delta=0.1)
    with pytest.raises(ContractViolation):
        RunConfig(alg="passive-naive", eps=0.1, delta=0.1, trials=0)
    with pytest.raises(ContractViolation):
        RunConfig(alg="passive-naive", eps=0.1, delta=0.1, profile="warp")


@pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None], ids=repr)
@pytest.mark.parametrize("name", ["trials", "base_seed", "workers"])
def test_run_config_refuses_a_run_count_that_is_not_an_integer(name, value):
    # trials=1.5 raised TypeError inside run_trials, workers=2.5 was accepted
    with pytest.raises(ContractViolation, match=name):
        RunConfig(alg="passive-naive", eps=0.1, delta=0.1, **{name: value})
    RunConfig(alg="passive-naive", eps=0.1, delta=0.1, **{name: np.int64(2)})


@pytest.mark.parametrize("change", [("trials", 1.5), ("trials", True), ("base_seed", 0.5),
                                    ("base_seed", False)], ids=repr)
def test_sweep_refuses_a_run_count_that_is_not_integral(change):
    # int() made 1 trial of trials 1.5 and of trials true
    config = {"families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
              "algs": ["passive-naive"], "eps_grid": [0.2], "trials": 2, change[0]: change[1]}
    with pytest.raises(ContractViolation, match="integer"):
        sweep(config)
    # an integral float is a count
    rows = sweep({**config, change[0]: 2.0})
    assert [(row["skipped"], row["trials"]) for row in rows] == [(0, 2)]


@pytest.mark.parametrize("base_seed", [-1, -100])
def test_run_config_refuses_negative_base_seed(base_seed):
    # SeedSequence takes no negative entropy; the config refuses it before
    # any trial runs
    with pytest.raises(ContractViolation, match="base_seed"):
        RunConfig(alg="passive-naive", eps=0.1, delta=0.1, base_seed=base_seed)


def test_sweep_negative_base_seed_gives_skipped_rows():
    rows = sweep({
        "trials": 1, "delta": 0.1, "base_seed": -1,
        "families": [{"family": "prop1", "params": {"k": 2, "eps": 0.2}}],
        "algs": ["passive-naive", "passive-hedge"], "eps_grid": [0.2],
    })
    assert len(rows) == 2
    assert all(r["skipped"] == 1 and "base_seed must be >= 0" in r["reason"] for r in rows)


def test_run_config_plan_needs_an_instance():
    with pytest.raises(ContractViolation, match="needs an instance"):
        RunConfig(alg="passive-hedge", eps=0.1, delta=0.1).plan()
    # anything else in its place raised AttributeError in plan()
    with pytest.raises(ContractViolation, match="instance must be an MDLInstance"):
        RunConfig(alg="passive-hedge", eps=0.1, delta=0.1, instance="x")


def test_run_config_refuses_unknown_knobs():
    with pytest.raises(ContractViolation, match="c_tt"):
        RunConfig(alg="passive-hedge", eps=0.1, delta=0.1, knobs={"c_tt": 1})
    # keys that do not sort together raised TypeError
    with pytest.raises(ContractViolation, match="unknown solver knobs"):
        RunConfig(alg="passive-hedge", eps=0.1, delta=0.1, knobs={1: 0.5, "c_tt": 1.0})
    # None raised TypeError when built, a list of names TypeError in plan()
    for knobs in (None, ["c_t"], "c_t"):
        with pytest.raises(ContractViolation, match="knobs must be a mapping"):
            RunConfig(alg="passive-hedge", eps=0.1, delta=0.1, knobs=knobs)
    RunConfig(alg="passive-hedge", eps=0.1, delta=0.1, knobs={"c_t": 1e-5, "c_n": 2.0})


@pytest.mark.parametrize("knobs", [{"c_tt": 1.0}, {"c_t": float("nan")}, {"c_t": "x"},
                                   {"c_t": None}, {"c_t": True}])
def test_sweep_bad_knob_gives_skipped_rows(knobs):
    # a misspelt, non-finite or non-numeric knob skips every cell instead of
    # aborting the sweep
    rows = sweep({
        "trials": 1, "delta": 0.1, "knobs": knobs,
        "families": [{"family": "prop1", "params": {"k": 2, "eps": 0.2}}],
        "algs": ["passive-naive", "passive-hedge"], "eps_grid": [0.2],
    })
    assert len(rows) == 2 and all(r["skipped"] == 1 for r in rows)


@pytest.mark.parametrize("knobs", [[1, 2], "abc", None])
def test_sweep_refuses_knobs_that_are_not_a_mapping(knobs):
    config = {"families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
              "algs": ["passive-naive"], "eps_grid": [0.2], "trials": 1, "knobs": knobs}
    with pytest.raises(ContractViolation, match="knobs"):
        sweep(config)


@pytest.mark.parametrize("missing", ["families", "algs", "eps_grid"])
def test_sweep_refuses_a_config_without_its_grid(missing):
    config = {"families": [], "algs": [], "eps_grid": [], "trials": 1}
    del config[missing]
    with pytest.raises(ContractViolation, match=missing):
        sweep(config)
    with pytest.raises(ContractViolation):
        sweep({})


@pytest.mark.parametrize("change", [
    None, [], "families=3", "algs=passive-naive", "trials=x", "trials=None", "delta={}",
    "delta=0.1", "delta=True", "base_seed=[]", "base_seed=inf", "eps_grid=[10**400]"], ids=str)
def test_sweep_refuses_a_config_of_the_wrong_shape(change):
    # each raised TypeError or ValueError before the entry checks, but for
    # the delta "0.1", which ran, true, read as 1.0 to skip every cell, and
    # an eps too large for a float, which raised OverflowError in the cell loop
    config = {"families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
              "algs": ["passive-naive"], "eps_grid": [0.2], "trials": 1}
    if isinstance(change, str):
        key, value = change.split("=")
        config[key] = {"x": "x", "None": None, "{}": {}, "[]": [], "inf": math.inf,
                       "3": 3, "True": True, "[10**400]": [10**400]}.get(value, value)
    else:
        config = change
    with pytest.raises(ContractViolation):
        sweep(config)


def test_sweep_unhashable_profile_gives_skipped_rows():
    rows = sweep({"families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
                  "algs": ["passive-naive"], "eps_grid": [0.2], "trials": 1, "profile": []})
    assert len(rows) == 1 and rows[0]["skipped"] == 1 and "profile" in rows[0]["reason"]


@pytest.mark.parametrize("entry", [{"params": {"k": 2}}, "prop1"])
def test_sweep_refuses_a_families_entry_without_its_family(entry):
    # refused at entry, before any cell runs, instead of a KeyError mid-sweep
    config = {"families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}, entry],
              "algs": ["passive-naive"], "eps_grid": [0.2], "trials": 1}
    with pytest.raises(ContractViolation, match="family"):
        sweep(config)


def test_sweep_family_without_a_required_param_gives_skipped_rows():
    # prop1 without eps: one skipped row per cell naming the missing param,
    # and the other family's cells still run
    rows = sweep({"families": [{"family": "prop1", "params": {"k": 2}},
                               {"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
                  "algs": ["passive-naive"], "eps_grid": [0.2, 0.1], "trials": 1})
    assert [r["skipped"] for r in rows] == [1, 1, 0, 0]
    assert all("eps" in r["reason"] for r in rows[:2])


@pytest.mark.parametrize("params,field", [
    ({"k": "2", "eps": 0.1}, "'k'"), ({"k": 2, "eps": "x"}, "'eps'"), ([1, 2], "params"),
    ({"k": 2.5, "eps": 0.1}, "'k'"), ({"k": True, "eps": 0.1}, "'k'"),
    ([["k", 2], ["eps", 0.1]], "params")])
def test_sweep_family_with_a_wrong_typed_param_gives_skipped_rows(params, field, family="prop1"):
    # each bad entry skips its own cells, naming the field, and the sweep goes on
    rows = sweep({"families": [{"family": family, "params": params},
                               {"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
                  "algs": ["passive-naive"], "eps_grid": [0.2], "trials": 1})
    assert [r["skipped"] for r in rows] == [1, 0]
    assert field in rows[0]["reason"]


@pytest.mark.parametrize("case", ["flipped-index-string", "flipped-index-fractional",
                                  "realizable-string", "realizable-int"])
def test_sweep_family_with_a_wrong_typed_optional_param_gives_skipped_rows(case):
    family, params, field = WRONG_TYPED_PARAMS[case]
    test_sweep_family_with_a_wrong_typed_param_gives_skipped_rows(params, field, family)


def test_sweep_family_with_a_param_its_generator_does_not_take_gives_skipped_rows():
    # a misspelt optional param once built the default instance
    test_sweep_family_with_a_wrong_typed_param_gives_skipped_rows(
        {"k": 2, "nu": 0.4, "eps": 0.05, "flipped": 2}, "takes no params ['flipped']",
        "agnostic-lb")


def test_cli_gen_refuses_a_param_the_family_does_not_take(tmp_path):
    out = tmp_path / "p.json"
    with pytest.raises(ContractViolation, match=r"'prop1' takes no params \['seed'\]"):
        cli_main(["gen", "--family", "prop1", "--k", "2", "--eps", "0.1", "--seed", "3",
                  "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("grid", [["x"], 0.2, [0.2, None], [True]])
def test_sweep_refuses_a_non_numeric_eps_grid(grid):
    config = {"families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
              "algs": ["passive-naive"], "eps_grid": grid, "trials": 1}
    with pytest.raises(ContractViolation, match="eps_grid"):
        sweep(config)


@pytest.mark.parametrize("eps", ["0.1", math.nan, math.inf, True, None], ids=repr)
def test_can_fail_refuses_an_eps_that_is_no_finite_real(eps):
    # "0.1" raised TypeError, and NaN made every cell one that can fail
    with pytest.raises(ContractViolation, match="eps"):
        amdl.can_fail(amdl.gen_prop1(2, 0.1), eps)


@pytest.mark.parametrize("workers", [0, -1, -8])
def test_run_config_refuses_workers_below_one(workers):
    with pytest.raises(ContractViolation, match="workers"):
        RunConfig(alg="passive-naive", eps=0.1, delta=0.1, workers=workers)


# the harness global each algorithm's runner calls
LEARNERS = {"active-dd-large": "active_large_eps", "active-dd-small": "active_small_eps",
            "active-dd-auto": "active_small_eps", "active-df": "active_dist_free",
            "passive-hedge": "mdl_hedge_vc", "passive-naive": "naive_erm_baseline"}


@pytest.mark.parametrize("alg", amdl.ALGORITHMS)
def test_all_algorithms_produce_records(alg, monkeypatch):
    # a runner must look its learner up at call time, so that a wrapper set
    # on the harness module (as the benchmark's tracer does) sees the trial
    name = LEARNERS[alg]
    learner = getattr(harness, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return learner(*args, **kwargs)

    monkeypatch.setattr(harness, name, counting)
    inst = amdl.gen_agnostic_lb(2, 0.4, 0.05)
    cfg = RunConfig(alg=alg, eps=0.1, delta=0.1, trials=1, instance=inst)
    rec = run_trials(cfg)[0]
    assert rec.alg == alg
    assert rec.labels_total >= 0
    assert calls == [name]


def test_sweep_empty_grid_header_only():
    rows = sweep({"families": [], "algs": [], "eps_grid": [], "trials": 1})
    text = sweep_to_csv(rows)
    assert text == ",".join(SWEEP_CSV_HEADER) + "\n"


def test_sweep_infeasible_cell_recorded():
    rows = sweep({
        "trials": 1, "delta": 0.1,
        "families": [{"family": "agnostic-lb", "params": {"k": 2, "nu": 0.1,
                                                          "eps": 0.05}}],
        "algs": ["passive-naive"], "eps_grid": [0.05],
    })
    assert len(rows) == 1
    assert rows[0]["skipped"] == 1 and "nu >= 8 eps" in rows[0]["reason"]


def test_sweep_and_report_round_trip(tmp_path):
    rows = sweep({
        "trials": 2, "delta": 0.1, "base_seed": 0,
        "families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
        "algs": ["passive-naive"], "eps_grid": [0.2, 0.1],
    })
    text = sweep_to_csv(rows)
    back = sweep_from_csv(text)
    assert len(back) == 2
    outputs = report(back)
    import csv as _csv
    import io as _io
    rows_eps = list(_csv.reader(_io.StringIO(outputs["labels_vs_eps.csv"])))
    assert rows_eps[0] == ["family", "params", "alg", "eps", "mean_labels",
                           "ci_lo", "ci_hi"]
    assert len(rows_eps) == 3
    assert float(rows_eps[1][3]) <= float(rows_eps[2][3])  # eps ascending
    k_lines = outputs["labels_vs_k.csv"].strip().split("\n")
    assert k_lines[0] == "family,alg,k,eps,mean_labels,ci_lo,ci_hi"
    assert len(k_lines) == 3
    s_lines = outputs["success_vs_eps.csv"].strip().split("\n")
    assert s_lines[0] == "family,params,alg,eps,success_rate"


def test_report_single_row_series():
    rows = sweep({
        "trials": 1, "delta": 0.1,
        "families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
        "algs": ["passive-naive"], "eps_grid": [0.1],
    })
    outputs = report(rows)
    assert len(outputs["labels_vs_eps.csv"].strip().split("\n")) == 2


# a sweep that mixes families with a k (given first or last) and without
# one, and skips the cells at eps 1.5 and those of an infeasible entry
REPORT_SWEEP = {
    "trials": 2, "delta": 0.1, "base_seed": 3,
    "families": [{"family": "prop1", "params": {"k": 3, "eps": 0.1}},
                 {"family": "example1", "params": {"nu_prime": 0.2, "eps": 0.05, "case": "a"}},
                 {"family": "prop1", "params": {"eps": 0.1, "k": 2}},
                 {"family": "agnostic-lb", "params": {"k": 2, "nu": 0.1, "eps": 0.05}},
                 {"family": "agnostic-lb", "params": {"k": 2, "nu": 0.4, "eps": 0.05}}],
    "algs": ["passive-naive", "passive-hedge"], "eps_grid": [0.5, 0.2, 1.5]}
# sha256 of the report's three series as JSON with sorted keys
REPORT_DIGEST = "f14437570bd9595f16d95381378b9a24cd0d30b38c2348913153c98bfc0cea75"


def test_report_of_a_mixed_sweep_matches_its_pin():
    rows = sweep(REPORT_SWEEP)
    assert sum(r["skipped"] for r in rows) == 14 and len(rows) == 30
    for got in (report(rows), report(sweep_from_csv(sweep_to_csv(rows)))):
        assert sorted(got) == ["labels_vs_eps.csv", "labels_vs_k.csv", "success_vs_eps.csv"]
        assert hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest() == REPORT_DIGEST


def test_report_schema_mismatch():
    with pytest.raises(ContractViolation):
        sweep_from_csv("family,alg\nprop1,passive-naive\n")
    with pytest.raises(ContractViolation):
        report([{"family": "prop1"}])
    for rows in (None, "family,alg", ({"family": "prop1"},), [None], [["prop1"]]):
        with pytest.raises(ContractViolation, match="list of sweep rows"):
            report(rows)


# one live and one skipped row as `sweep_to_csv` writes them
SWEEP_ROWS = [
    {"family": "prop1", "params": '{"eps": 0.1, "k": 2}', "alg": "passive-naive",
     "eps": "0.1", "delta": "0.1", "trials": "2", "mean_labels": "240.0",
     "median_labels": "240.0", "ci_lo": "240.0", "ci_hi": "240.0", "success_rate": "1.0",
     "skipped": "0", "reason": ""},
    {"family": "prop1", "params": "[1]", "alg": "passive-naive", "eps": "0.1",
     "delta": "0.1", "trials": "2", "mean_labels": "", "median_labels": "", "ci_lo": "",
     "ci_hi": "", "success_rate": "", "skipped": "1", "reason": "params must be a mapping"},
]


def _sweep_text(row: int = 0, edit=lambda line: line, **fields) -> str:
    """SWEEP_ROWS as a sweep CSV, then a copy of row `row` with `fields`
    set and its line passed through `edit`."""
    lines = sweep_to_csv(SWEEP_ROWS + [{**SWEEP_ROWS[row], **fields}]).splitlines()
    return "\n".join(lines[:-1] + [edit(lines[-1])]) + "\n"


# each sweep CSV that `sweep_from_csv` refuses, and what the refusal names;
# the bad row is data row 3
MALFORMED_SWEEP_CSVS = {
    "truncated-row": (_sweep_text(edit=lambda line: line.rsplit(",", 3)[0]),
                      r"row 3 is missing fields \['success_rate', 'skipped', 'reason'\]"),
    "extra-field": (_sweep_text(edit=lambda line: line + ",x"), "row 3 has extra fields"),
    "params-not-json": (_sweep_text(params="{k: 2"), "row 3 field 'params' must be JSON"),
    "live-params-not-object": (_sweep_text(params="[2]"), "row 3 field 'params'"),
    "live-params-string-k": (_sweep_text(params='{"k": "2"}'), "row 3 field 'params'"),
    "skipped-params-not-json": (_sweep_text(row=1, params="{"), "row 3 field 'params'"),
    "params-nested-too-deep": (_sweep_text(row=1, params="[" * 100_000),
                               "row 3 field 'params' must be JSON"),
    "eps-not-number": (_sweep_text(eps="abc"), "row 3 field 'eps'"),
    "skipped-eps-not-number": (_sweep_text(row=1, eps=""), "row 3 field 'eps'"),
    "delta-not-number": (_sweep_text(delta="0.1x"), "row 3 field 'delta'"),
    "trials-not-integer": (_sweep_text(trials="2.5"), "row 3 field 'trials'"),
    "skipped-not-a-flag": (_sweep_text(skipped="2"), "row 3 field 'skipped'"),
    "skipped-empty": (_sweep_text(skipped=""), "row 3 field 'skipped'"),
    "live-statistic-empty": (_sweep_text(mean_labels=""), "row 3 field 'mean_labels'"),
    "live-statistic-not-number": (_sweep_text(ci_hi="high"), "row 3 field 'ci_hi'"),
    "bare-carriage-return": (_sweep_text(edit=lambda line: line.replace("prop1", "pr\rop1", 1)),
                             "not readable CSV"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SWEEP_CSVS))
def test_malformed_sweep_csv_raises_contract_violation(case):
    text, match = MALFORMED_SWEEP_CSVS[case]
    good = sweep_from_csv(_sweep_text())
    assert good == SWEEP_ROWS + SWEEP_ROWS[:1]
    assert report(good)["labels_vs_k.csv"].count("\n") == 3
    with pytest.raises(ContractViolation, match=match):
        sweep_from_csv(text)


# sweep CSV cells near the valid ones, and short arbitrary text
CSV_CELLS = (st.sampled_from(["0", "1", "2", "", "0.1", "nan", "1e999", "{}", "[1]",
                              '{"k": 2}', '{"k": "2"}', '{"k": 2.5}', "{k}", "null"])
             | st.text(max_size=6))


@st.composite
def sweep_csv_texts(draw):
    """Up to four rows, each a SWEEP_ROWS row with some cells replaced and
    cells cut or added, under the sweep header; or, now and then, the header
    and arbitrary text."""
    if draw(st.integers(0, 4)) == 0:
        return ",".join(SWEEP_CSV_HEADER) + "\n" + draw(st.text(max_size=80))
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        cells = list(draw(st.sampled_from(SWEEP_ROWS)).values())
        for j in draw(st.lists(st.integers(0, len(cells) - 1), max_size=3)):
            cells[j] = draw(CSV_CELLS)
        cut = len(cells) + draw(st.sampled_from([0, 0, 0, 0, 0, -1, -2, 1]))
        lines.append(cells[:cut] + [draw(CSV_CELLS) for _ in range(cut - len(cells))])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([SWEEP_CSV_HEADER] + lines)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(sweep_csv_texts())
def test_fuzzed_sweep_csv_loads_or_is_refused(text):
    # a CSV that loads can be reported, and written and read back unchanged
    try:
        rows = sweep_from_csv(text)
    except ContractViolation:
        return
    report(rows)
    assert sweep_from_csv(sweep_to_csv(rows)) == rows


# sweep configs near small valid ones: a field dropped or replaced by a value
# of the wrong kind, range or type; eps is 0.9, invalid, or so small (1e-8,
# 1e-300) that the label ceiling refuses the plan, trials at most 2 and
# instances tiny, so every config runs in milliseconds
JUNK = st.sampled_from([None, True, -1, 0, 2, 0.0, 1.0, 1.5, -0.5, math.nan, math.inf, "",
                        "x", "0.5", [], [0.9], {}, {"k": 2}])
FUZZ_FAMILIES = [
    {"family": "prop1", "params": {"k": 2, "eps": 0.1}},
    {"family": "agnostic-lb", "params": {"k": 2, "nu": 0.4, "eps": 0.05}},
    {"family": "example1", "params": {"nu_prime": 0.2, "eps": 0.1, "case": "a"}},
    {"family": "star-lb", "params": {"k": 2, "theta": 2, "i": 1, "j": 1}},
    {"family": "random", "params": {"m": 3, "n_hyp": 3, "k": 2, "seed": 0}},
]


@st.composite
def sweep_configs(draw):
    """At most one family entry, one or two algs and eps values, and one
    top-level field dropped or replaced; now and then the whole config or
    entry is replaced."""
    families = []
    if draw(st.integers(0, 3)):
        fam = copy.deepcopy(draw(st.sampled_from(FUZZ_FAMILIES)))
        names = sorted(fam["params"]) + ["flipped_index", "realizable", "zz"]
        for name in draw(st.lists(st.sampled_from(names), max_size=1)):
            fam["params"][name] = draw(JUNK | st.integers(-1, 3))
            if draw(st.booleans()):
                del fam["params"][name]
        for key in draw(st.lists(st.sampled_from(["family", "params"]), max_size=1)):
            fam[key] = draw(JUNK | st.sampled_from(FAMILIES))
            if draw(st.booleans()):
                del fam[key]
        families.append(fam if draw(st.integers(0, 5)) else draw(JUNK))
    config = {"profile": "desk", "delta": 0.1, "trials": 1, "base_seed": 0, "knobs": {},
              "families": families,
              "algs": draw(st.lists(st.sampled_from(amdl.ALGORITHMS) | JUNK,
                                    min_size=1, max_size=2)),
              "eps_grid": draw(st.lists(st.sampled_from([0.9, 1e-8, 1e-300]) | JUNK,
                                        min_size=1, max_size=2))}
    for key in draw(st.lists(st.sampled_from(sorted(config)), max_size=1)):
        config[key] = draw(JUNK | st.dictionaries(st.sampled_from(harness.KNOBS + ("zz",)),
                                                  JUNK | st.just(0.5), max_size=2))
        if draw(st.integers(0, 2)) == 0:
            del config[key]
    return config if draw(st.integers(0, 9)) else draw(JUNK)


@settings(max_examples=150, deadline=None)
@given(sweep_configs())
def test_fuzzed_sweep_config_gives_rows_or_is_refused(config):
    # every row a sweep returns, live or skipped, writes and loads back
    try:
        rows = sweep(config)
    except ContractViolation:
        return
    assert all(row["skipped"] in (0, 1) for row in rows)
    # a live row ran exactly the trials the config asked for
    trials = config.get("trials", 50)
    assert all(row["trials"] == trials and type(row["trials"]) is int
               for row in rows if not row["skipped"])
    assert len(sweep_from_csv(sweep_to_csv(rows))) == len(rows)


# `amdl` argv near valid command lines: each subcommand with its required
# options (now and then one dropped), some optional ones, and values drawn
# from small valid and invalid sets.  Input paths are existing files, valid
# or malformed, or a missing one; outputs go to a temporary directory or
# under a regular file, where they cannot be opened.  The value sets keep
# every run to a few trials of a tiny instance: the label ceiling refuses the
# plan at an eps of 1e-6 or 1e-300, and under the fidelity profile for every
# algorithm but passive-naive, which that profile sizes as desk does; the
# valid knob sets the learning rate, which leaves every size as the profile
# sets it.
CLI_COMMANDS = {
    "gen": (["--family", "--out"], ["--k", "--eps", "--nu", "--theta", "--i", "--j", "--m",
                                     "--flipped-index", "--nu-prime", "--case", "--n-hyp",
                                     "--seed", "--realizable"]),
    "measure": (["--instance"], ["--hstar", "--r0", "--cap", "--out"]),
    "run": (["--instance", "--alg", "--eps"], ["--delta", "--trials", "--seed", "--profile",
                                               "--knob", "--trace", "--timing", "--workers",
                                               "--out"]),
    "sweep": (["--config"], ["--out"]),
    "report": (["--sweep", "--outdir"], []),
}
CLI_VALUES = {
    "--family": [*FAMILIES, "zz"], "--alg": [*amdl.ALGORITHMS, "zz"],
    "--profile": ["desk", "fidelity", "zz"], "--case": ["a", "b", "c"],
    "--k": ["2", "3", "0", "-1", "x"], "--theta": ["2", "0", "-1"], "--i": ["1", "0", "-1"],
    "--j": ["1", "2", "-1"], "--flipped-index": ["0", "-1", "9"], "--m": ["3", "0", "-1"],
    "--n-hyp": ["3", "0", "1"], "--seed": ["0", "3", "-1", "x"],
    "--eps": ["0.9", "0.5", "0.1", "1e-6", "1e-300", "0", "1", "-0.1", "nan", "inf", "x"],
    "--nu": ["0.4", "0", "0.6", "-1", "nan"], "--nu-prime": ["0.2", "0", "0.5", "x"],
    "--delta": ["0.1", "0.5", "0", "1", "nan", "x"], "--trials": ["1", "2", "0", "-1", "x"],
    "--workers": ["1", "0", "-1", "x"], "--r0": ["0.1", "0", "-1", "2", "nan", "x"],
    "--cap": ["12", "0", "-1", "x"], "--hstar": ["0", "1", "-1", "99", "x"],
    "--knob": ["c_eta=0.5", "c_t=x", "c_t", "zz=1", "c_n=nan", "c_eta=-1", "=1"],
}
CLI_FILES = ("instance.json", "broken.json", "list.json", "sweep.json", "sweep.csv", "bad.csv",
             "missing.json")


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """The input files the argv fuzz reads, and where it writes."""
    root = tmp_path_factory.mktemp("cli")
    amdl.save_instance(amdl.gen_prop1(2, 0.1), str(root / "instance.json"))
    (root / "broken.json").write_text('{"m": 2, "hypotheses": [[1, 1]')
    (root / "list.json").write_text("[1, 2]")
    config = {"trials": 1, "families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
              "algs": ["passive-naive"], "eps_grid": [0.9]}
    (root / "sweep.json").write_text(json.dumps(config))
    (root / "sweep.csv").write_text(sweep_to_csv(sweep(config)))
    (root / "bad.csv").write_text("family,params\nprop1,{\n")
    paths = [str(root / name) for name in CLI_FILES]
    under_a_file = root / "list.json"
    return {"--instance": paths, "--config": paths, "--sweep": paths,
            "--out": [str(root / "out.csv"), str(root / "out"), str(under_a_file / "out.csv")],
            "--outdir": [str(root / "series"), str(under_a_file / "series")]}


@st.composite
def cli_argvs(draw, files):
    command = draw(st.sampled_from([*CLI_COMMANDS, "zz"]))
    required, optional = CLI_COMMANDS.get(command, ([], []))
    flags = [flag for flag in required if draw(st.integers(0, 9))]
    flags += [flag for flag in optional if draw(st.integers(0, 2)) == 0]
    flags += draw(st.lists(st.sampled_from(["--zz", "-x", "--trace", "--timing"]), max_size=1))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        pool = CLI_VALUES.get(flag) or files.get(flag)
        if pool and draw(st.integers(0, 19)):
            argv.append(draw(st.sampled_from(pool[:1]) | st.sampled_from(pool)))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, 1)), draw(st.sampled_from(["-", "--", "x", "1"])))
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_cli_argv_runs_or_is_refused(cli_files, data):
    argv = data.draw(cli_argvs(cli_files))
    try:
        assert cli_main(argv) == 0
    except ContractViolation:
        pass
    except SystemExit as exc:     # argparse's usage error
        assert exc.code == 2, argv


def test_sweep_csv_deterministic():
    cfg = {
        "trials": 2, "delta": 0.1,
        "families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
        "algs": ["passive-naive"], "eps_grid": [0.1],
    }
    assert sweep_to_csv(sweep(cfg)) == sweep_to_csv(sweep(cfg))


def test_cli_gen_measure_run(tmp_path):
    inst_path = tmp_path / "star.json"
    rc = cli_main(["gen", "--family", "star-lb", "--k", "2", "--theta", "3",
                   "--i", "1", "--j", "1", "--out", str(inst_path)])
    assert rc == 0 and inst_path.exists()

    measure_path = tmp_path / "measure.txt"
    rc = cli_main(["measure", "--instance", str(inst_path), "--r0", "0.1",
                   "--out", str(measure_path)])
    assert rc == 0
    # reference is the minimax optimum (a flip): its own flip point blocks the
    # rest of the set, so the reference-based value is m-1 while the
    # unqualified max over references reaches m
    assert measure_path.read_text() == "\n".join([
        "m=6", "k=2", "class_size=7", "nu=0.0",
        "vc_dimension=1", "vc_lower_bound_only=0",
        "star_reference_index=1", "star_number=5", "star_lower_bound_only=0",
        "star_number_unqualified=6", "star_unqualified_lower_bound_only=0",
        "theta_0=1.5", "theta_1=3.0", "theta_max=3.0"]) + "\n"

    out_path = tmp_path / "records.csv"
    rc = cli_main(["run", "--instance", str(inst_path), "--alg", "active-dd-large",
                   "--eps", "0.2", "--delta", "0.1", "--trials", "2",
                   "--seed", "1", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == RUN_CSV_HEADER
    assert len(lines) == 3


def test_cli_run_byte_identical(tmp_path):
    inst_path = tmp_path / "p.json"
    cli_main(["gen", "--family", "prop1", "--k", "2", "--eps", "0.1",
              "--out", str(inst_path)])
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cli_main(["run", "--instance", str(inst_path), "--alg", "passive-hedge",
                  "--eps", "0.2", "--delta", "0.1", "--trials", "2",
                  "--seed", "3", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_knob_override(tmp_path):
    inst_path = tmp_path / "p.json"
    cli_main(["gen", "--family", "prop1", "--k", "2", "--eps", "0.1",
              "--out", str(inst_path)])
    out = tmp_path / "r.csv"
    rc = cli_main(["run", "--instance", str(inst_path), "--alg", "passive-hedge",
                   "--eps", "0.2", "--trials", "1", "--knob", "c_t=6e-5",
                   "--out", str(out)])
    assert rc == 0
    base = tmp_path / "r0.csv"
    cli_main(["run", "--instance", str(inst_path), "--alg", "passive-hedge",
              "--eps", "0.2", "--trials", "1", "--out", str(base)])
    labels = [int(p.read_text().strip().split("\n")[1].split(",")[6])
              for p in (out, base)]
    assert labels[0] > labels[1]


def test_cli_sweep_and_report(tmp_path):
    cfg = {
        "trials": 1, "delta": 0.1,
        "families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
        "algs": ["passive-naive"], "eps_grid": [0.2],
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    sweep_out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(sweep_out)]) == 0
    outdir = tmp_path / "series"
    assert cli_main(["report", "--sweep", str(sweep_out), "--outdir", str(outdir)]) == 0
    assert (outdir / "labels_vs_eps.csv").exists()
    assert (outdir / "labels_vs_k.csv").exists()
    assert (outdir / "success_vs_eps.csv").exists()


@pytest.mark.parametrize("case", ["knob-without-value", "knob-not-number", "hstar-too-big",
                                  "hstar-negative", "config-not-json"])
def test_cli_refuses_bad_arguments(case, tmp_path):
    inst_path = tmp_path / "p.json"
    amdl.save_instance(amdl.gen_prop1(2, 0.1), str(inst_path))
    bad_config = tmp_path / "sweep.json"
    bad_config.write_text("{not json")
    run = ["run", "--instance", str(inst_path), "--alg", "passive-naive", "--eps", "0.2"]
    argv = {"knob-without-value": run + ["--knob", "c_t"],
            "knob-not-number": run + ["--knob", "c_t=x"],
            "hstar-too-big": ["measure", "--instance", str(inst_path), "--hstar", "3"],
            "hstar-negative": ["measure", "--instance", str(inst_path), "--hstar", "-1"],
            "config-not-json": ["sweep", "--config", str(bad_config)]}[case]
    with pytest.raises(ContractViolation):
        cli_main(argv)


@pytest.mark.parametrize("case", ["missing-instance", "missing-config", "missing-sweep",
                                  "out-under-a-file", "transcript-under-a-file",
                                  "outdir-under-a-file", "outdir-is-a-file"])
def test_cli_refuses_a_path_it_cannot_open_by_name(case, tmp_path):
    inst_path = tmp_path / "p.json"
    amdl.save_instance(amdl.gen_prop1(2, 0.1), str(inst_path))
    missing, under = tmp_path / "missing.json", inst_path / "out.csv"
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text(sweep_to_csv(sweep({
        "trials": 1, "families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
        "algs": ["passive-naive"], "eps_grid": [0.9]})))
    run = ["run", "--instance", str(inst_path), "--alg", "passive-naive", "--eps", "0.2"]
    argv, path = {
        "missing-instance": (["measure", "--instance", str(missing)], missing),
        "missing-config": (["sweep", "--config", str(missing)], missing),
        "missing-sweep": (["report", "--sweep", str(missing), "--outdir", str(tmp_path)],
                          missing),
        "out-under-a-file": (run + ["--out", str(under)], under),
        "transcript-under-a-file": (run + ["--trace", "--out", str(under)],
                                    f"{under}.transcript"),
        "outdir-under-a-file": (["report", "--sweep", str(sweep_csv), "--outdir",
                                 str(under)], under),
        "outdir-is-a-file": (["report", "--sweep", str(sweep_csv), "--outdir",
                              str(inst_path)], inst_path),
    }[case]
    with pytest.raises(ContractViolation, match=f"cannot open {re.escape(str(path))}:"):
        cli_main(argv)


@pytest.mark.parametrize("command", ["run", "run --trace", "sweep", "measure"])
@pytest.mark.parametrize("case", ["missing-dir", "is-a-dir", "under-a-file", "read-only-dir"])
def test_cli_refuses_an_out_it_cannot_write_before_any_trial(command, case, tmp_path,
                                                             monkeypatch):
    # refused with nothing run, no instance loaded and nothing created or
    # truncated; root may write into any directory, so the read-only one is
    # read-only to os.access only
    inst_path, config, ro = tmp_path / "p.json", tmp_path / "sweep.json", tmp_path / "ro"
    amdl.save_instance(amdl.gen_prop1(2, 0.1), str(inst_path))
    config.write_text(json.dumps({"trials": 1, "families": [{"family": "prop1", "params":
                                  {"k": 2, "eps": 0.1}}], "algs": ["passive-naive"],
                                  "eps_grid": [0.2]}))
    ro.mkdir()
    (ro / "x.csv").write_text("kept")
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: os.path.normpath(path) != str(ro)
                        and access(path, mode))
    for name in ("run_trials", "sweep", "load_instance"):
        monkeypatch.setattr(f"amdl.cli.{name}",
                            lambda *args, name=name: pytest.fail(f"{name} ran"))
    out = {"missing-dir": tmp_path / "missing" / "x.csv", "is-a-dir": tmp_path,
           "under-a-file": inst_path / "x.csv", "read-only-dir": ro / "x.csv"}[case]
    argv = {"run": ["run", "--instance", str(inst_path), "--alg", "passive-naive",
                    "--eps", "0.2"],
            "run --trace": ["run", "--instance", str(inst_path), "--alg", "passive-naive",
                            "--eps", "0.2", "--trace"],
            "sweep": ["sweep", "--config", str(config)],
            "measure": ["measure", "--instance", str(inst_path)]}[command]
    # the transcript, <out>.transcript, is checked first, and is no directory
    named = f"{out}.transcript" if command == "run --trace" and case != "is-a-dir" else out
    with pytest.raises(ContractViolation, match=f"cannot open {re.escape(str(named))}:"):
        cli_main(argv + ["--out", str(out)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json", "ro", "sweep.json"]
    assert [p.name for p in ro.iterdir()] == ["x.csv"] and (ro / "x.csv").read_text() == "kept"


def test_cli_choices_are_the_registries():
    # the parser takes its choices from the registries, not from copies
    from amdl.cli import build_parser
    from amdl.families import FAMILIES
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    opts = {(cmd, act.dest): act.choices for cmd, parser in sub.choices.items()
            for act in parser._actions}
    assert opts[("run", "alg")] is amdl.ALGORITHMS
    assert opts[("gen", "family")] is FAMILIES


def test_run_transcript_emission(tmp_path):
    path = tmp_path / "audit.log"
    cfg = _prop1_cfg(trials=2, transcript_path=str(path))
    recs = run_trials(cfg)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == sum(r.labels_total for r in recs)
    # columns: seed, i, x, y, cumulative_label_count
    first = lines[0].split(",")
    assert len(first) == 5 and first[0] == "0"


def test_run_trials_refuses_a_trace_with_nowhere_to_go(monkeypatch):
    # a run traces exactly when it has a transcript_path, so an empty one is
    # refused and a run without one logs no label query; a single trial
    # still takes trace=True, since it hands back its ledger
    ran, worker = [], harness._trial_worker
    monkeypatch.setattr(harness, "_trial_worker", lambda args: ran.append(args) or worker(args))
    with pytest.raises(ContractViolation, match="transcript_path"):
        run_trials(_prop1_cfg(transcript_path=""))
    # a file descriptor was written to and closed: any path not a non-empty
    # str is refused, and the descriptor stays open and empty
    read_end, write_end = os.pipe()
    try:
        for path in (write_end, b"audit.log"):
            with pytest.raises(ContractViolation, match="transcript_path"):
                run_trials(_prop1_cfg(transcript_path=path))
        os.fstat(write_end)
        os.set_blocking(read_end, False)
        with pytest.raises(BlockingIOError):
            os.read(read_end, 1)
    finally:
        os.close(read_end)
        os.close(write_end)
    assert ran == []
    run_trials(_prop1_cfg(trials=1))
    assert [traced for *_, traced in ran] == [False]
    cfg = _prop1_cfg()
    rec, _, oracles = harness.run_single_trial(cfg.instance, cfg.plan(), 0, trace=True)
    assert len(oracles.ledger.transcript) == rec.labels_total > 0


def test_cli_run_trace_without_out_is_refused(tmp_path, capsys):
    # the transcript goes to <out>.transcript, so --trace needs --out
    inst_path = tmp_path / "p.json"
    amdl.save_instance(amdl.gen_prop1(2, 0.1), str(inst_path))
    with pytest.raises(ContractViolation, match="--out"):
        cli_main(["run", "--instance", str(inst_path), "--alg", "passive-naive",
                  "--eps", "0.2", "--trace"])
    assert capsys.readouterr().out == ""


def test_cli_entry_point_subprocess(tmp_path):
    # the installed console entry point behaves like the module main
    inst_path = tmp_path / "p.json"
    res = subprocess.run(
        [sys.executable, "-m", "amdl.cli", "gen", "--family", "prop1", "--k", "2",
         "--eps", "0.1", "--out", str(inst_path)],
        capture_output=True, text=True)
    assert res.returncode == 0 and inst_path.exists()


@pytest.mark.parametrize("alg", amdl.ALGORITHMS)
def test_only_active_df_computes_the_star_number(monkeypatch, alg):
    # the star-number search is the costly instance statistic; only the
    # distribution-free learner reads s, so only its runs may pay for it
    calls = []

    def star(cls, *args, **kwargs):
        if alg != "active-df":
            raise AssertionError(f"{alg} computed the star number")
        calls.append(cls)
        return amdl.star_number_unqualified(cls, *args, **kwargs)

    monkeypatch.setattr(amdl.harness, "star_number_unqualified", star)
    inst = amdl.gen_prop1(2, 0.1)
    for base_seed in (0, 5):
        recs = run_trials(RunConfig(alg=alg, eps=0.2, delta=0.1, trials=2,
                                    base_seed=base_seed, instance=inst))
        assert [r.seed for r in recs] == [base_seed, base_seed + 1]
    assert len(calls) == (2 if alg == "active-df" else 0)
