"""Experiment runner, CSV schemas, sweeps, report pivots, and the CLI."""

import json
import subprocess
import sys

import pytest

import amdl
from amdl import ContractViolation, RunConfig, harness
from amdl.cli import main as cli_main
from amdl.harness import (RUN_CSV_HEADER, SWEEP_CSV_HEADER, records_to_csv,
                          report, run_trials, sweep, sweep_from_csv,
                          sweep_to_csv)


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


@pytest.mark.parametrize("knobs", [{"c_tt": 1.0}, {"c_t": float("nan")}])
def test_sweep_bad_knob_gives_skipped_rows(knobs):
    # a misspelt or non-finite knob skips every cell instead of aborting the sweep
    rows = sweep({
        "trials": 1, "delta": 0.1, "knobs": knobs,
        "families": [{"family": "prop1", "params": {"k": 2, "eps": 0.2}}],
        "algs": ["passive-naive", "passive-hedge"], "eps_grid": [0.2],
    })
    assert len(rows) == 2 and all(r["skipped"] == 1 for r in rows)


@pytest.mark.parametrize("missing", ["families", "algs", "eps_grid"])
def test_sweep_refuses_a_config_without_its_grid(missing):
    config = {"families": [], "algs": [], "eps_grid": [], "trials": 1}
    del config[missing]
    with pytest.raises(ContractViolation, match=missing):
        sweep(config)
    with pytest.raises(ContractViolation):
        sweep({})


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
