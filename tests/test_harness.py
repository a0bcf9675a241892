"""Experiment runner, CSV schemas, sweeps, report pivots, and the CLI."""

import copy
import csv
import io
import json
import math
import subprocess
import sys

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


def test_run_config_refuses_unknown_knobs():
    with pytest.raises(ContractViolation, match="c_tt"):
        RunConfig(alg="passive-hedge", eps=0.1, delta=0.1, knobs={"c_tt": 1})
    RunConfig(alg="passive-hedge", eps=0.1, delta=0.1, knobs={"c_t": 1e-5, "c_naive": 2.0})


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
    "base_seed=[]", "base_seed=inf"], ids=str)
def test_sweep_refuses_a_config_of_the_wrong_shape(change):
    # each raised TypeError or ValueError before the entry checks
    config = {"families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
              "algs": ["passive-naive"], "eps_grid": [0.2], "trials": 1}
    if isinstance(change, str):
        key, value = change.split("=")
        config[key] = {"x": "x", "None": None, "{}": {}, "[]": [], "inf": math.inf,
                       "3": 3}.get(value, value)
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


@pytest.mark.parametrize("grid", [["x"], 0.2, [0.2, None], [True]])
def test_sweep_refuses_a_non_numeric_eps_grid(grid):
    config = {"families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
              "algs": ["passive-naive"], "eps_grid": grid, "trials": 1}
    with pytest.raises(ContractViolation, match="eps_grid"):
        sweep(config)


@pytest.mark.parametrize("workers", [0, -1, -8])
def test_run_config_refuses_workers_below_one(workers):
    with pytest.raises(ContractViolation, match="workers"):
        RunConfig(alg="passive-naive", eps=0.1, delta=0.1, workers=workers)


# the harness global each algorithm's runner calls
LEARNERS = {"active-dd-large": "active_large_eps", "active-dd-small": "active_small_eps",
            "active-dd-auto": "regime_dispatch", "active-df": "active_dist_free",
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


def test_report_schema_mismatch():
    with pytest.raises(ContractViolation):
        sweep_from_csv("family,alg\nprop1,passive-naive\n")
    with pytest.raises(ContractViolation):
        report([{"family": "prop1"}])


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
# of the wrong kind, range or type; eps stays at 0.9 or invalid, trials at
# most 2 and instances tiny, so every config runs in milliseconds
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
              "eps_grid": draw(st.lists(st.just(0.9) | JUNK, min_size=1, max_size=2))}
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
    assert len(sweep_from_csv(sweep_to_csv(rows))) == len(rows)


# `amdl` argv near valid command lines: each subcommand with its required
# options (now and then one dropped), some optional ones, and values drawn
# from small valid and invalid sets.  Paths are existing files, valid or
# malformed, and outputs go to a temporary directory.  The value sets keep
# every run to a few trials of a tiny instance at the desk profile.
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
    "--profile": ["desk", "zz"], "--case": ["a", "b", "c"],
    "--k": ["2", "3", "0", "-1", "x"], "--theta": ["2", "0", "-1"], "--i": ["1", "0", "-1"],
    "--j": ["1", "2", "-1"], "--flipped-index": ["0", "-1", "9"], "--m": ["3", "0", "-1"],
    "--n-hyp": ["3", "0", "1"], "--seed": ["0", "3", "-1", "x"],
    "--eps": ["0.9", "0.5", "0.1", "0", "1", "-0.1", "nan", "inf", "x"],
    "--nu": ["0.4", "0", "0.6", "-1", "nan"], "--nu-prime": ["0.2", "0", "0.5", "x"],
    "--delta": ["0.1", "0.5", "0", "1", "nan", "x"], "--trials": ["1", "2", "0", "-1", "x"],
    "--workers": ["1", "0", "-1", "x"], "--r0": ["0.1", "0", "-1", "2", "nan", "x"],
    "--cap": ["12", "0", "-1", "x"], "--hstar": ["0", "1", "-1", "99", "x"],
    "--knob": ["c_t=0.5", "c_t=x", "c_t", "zz=1", "c_naive=nan", "c_eta=-1", "=1"],
}
CLI_FILES = ("instance.json", "broken.json", "list.json", "sweep.json", "sweep.csv", "bad.csv")


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
    return {"--instance": paths, "--config": paths, "--sweep": paths,
            "--out": [str(root / "out.csv"), str(root / "out")],
            "--outdir": [str(root / "series")]}


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
    rc = cli_main(["run", "--instance", str(inst_path), "--alg", "passive-naive",
                   "--eps", "0.2", "--trials", "1", "--knob", "c_naive=2.0",
                   "--out", str(out)])
    assert rc == 0
    base = tmp_path / "r0.csv"
    cli_main(["run", "--instance", str(inst_path), "--alg", "passive-naive",
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
    argv = {"knob-without-value": run + ["--knob", "c_naive"],
            "knob-not-number": run + ["--knob", "c_naive=x"],
            "hstar-too-big": ["measure", "--instance", str(inst_path), "--hstar", "3"],
            "hstar-negative": ["measure", "--instance", str(inst_path), "--hstar", "-1"],
            "config-not-json": ["sweep", "--config", str(bad_config)]}[case]
    with pytest.raises(ContractViolation):
        cli_main(argv)


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
    cfg = _prop1_cfg(trials=2, trace=True, transcript_path=str(path))
    recs = run_trials(cfg)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == sum(r.labels_total for r in recs)
    # columns: trial, i, x, y, cumulative_label_count
    first = lines[0].split(",")
    assert len(first) == 5 and first[0] == "0"


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
