"""The maintenance scripts under scripts/ run against the current API."""

import hashlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# `calibrate_profile.py --trials 2` under the desk profile, less the
# machine-dependent t/trial column; each line ends with the plan's label bound
CALIBRATE_TWO_TRIALS = """\
knobs: {'c_t': 3e-05, 'c_t1': 0.0001, 'c_eta': 50.0, 'c_eps1': 100.0, 'c_n': 0.1}
prop1 k=4 alg1           ok 2/2 fails 0 worst_err 0.1000 bound 0.2000 margin +0.1000 labels 132 plan 3768 = agreement 0 + solve 3768 + rpu 0 + naive 0
example1-a alg3          ok 2/2 fails 0 worst_err 0.2343 bound 0.4000 margin +0.1657 labels 156892 plan 173684 = agreement 153200 + solve 20484 + rpu 0 + naive 0
example1-b alg3          ok 2/2 fails 0 worst_err 0.3054 bound 0.4500 margin +0.1446 labels 176540 plan 195566 = agreement 172350 + solve 23216 + rpu 0 + naive 0
star-lb alg6             ok 2/2 fails 0 worst_err 0.0000 bound 0.1000 margin +0.1000 labels 146700 plan 1173888 = agreement 0 + solve 288 + rpu 1173600 + naive 0
agnostic alg5            ok 2/2 fails 0 worst_err 0.2107 bound 0.3500 margin +0.1393 labels 5588 plan 14416 = agreement 0 + solve 14416 + rpu 0 + naive 0
agnostic alg3            ok 2/2 fails 0 worst_err 0.2023 bound 0.3500 margin +0.1477 labels 313712 plan 377212 = agreement 306916 + solve 70296 + rpu 0 + naive 0
"""


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_profile_output(monkeypatch, capsys):
    script = _load_script("calibrate_profile")
    monkeypatch.setattr(sys, "argv", ["calibrate_profile.py", "--trials", "2"])
    script.main()
    out = re.sub(r" t/trial \S+", "", capsys.readouterr().out)
    assert out == CALIBRATE_TWO_TRIALS


# sha256 of what `run_scaling_sweeps.py --trials 2` writes
SCALING_SWEEP_TWO_TRIALS = {
    "scaling_sweep.csv": "63eda3378804fca9887cc53115ac87fa16ccb68fc3c9b5bb52dc9d8f34c54b86",
    "labels_vs_eps.csv": "705f8039140661a47de48a3c8cd542ac2920f1920cd7560722fe87d5ec500e16",
    "labels_vs_k.csv": "bafe350f9d48de5b340eac393abc6b3839242891dc4c3e2fcc6aba9fdd9528d6",
    "success_vs_eps.csv": "4b9929d42a7bd83fa9e607dffc5f39f04ae903dfd3bdcf8ee2111fae7dba935a",
}


def test_run_scaling_sweeps_output(monkeypatch, tmp_path, capsys):
    script = _load_script("run_scaling_sweeps")
    monkeypatch.setattr(sys, "argv", ["run_scaling_sweeps.py", "--trials", "2",
                                      "--outdir", str(tmp_path)])
    assert script.main() == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == SCALING_SWEEP_TWO_TRIALS
    assert "slope=466.4" in capsys.readouterr().out


# what `verify_constructions.py` prints, the quadrature gap included
VERIFY_CONSTRUCTIONS = """\
agnostic-lb (k=4, nu=0.4, eps=0.05)
  L(h1, D_1) = 0.0   (expect 0)
  L(h2, D_1) = 0.4   (expect 0.4)
  L(h1, D_i) = 0.30000000000000004   (expect 0.30000000000000004)
  L(h2, D_i) = 0.1   (expect 0.1)
  L(h1, D'_i) = 0.5  (expect 0.5)
  L(h2, D'_i) = 0.30000000000000004  (expect 0.30000000000000004)
prop1 coefficient ratio
  k=2: theta_i = [1.0], theta_avg(eps/k) = 2.0
  k=4: theta_i = [1.0], theta_avg(eps/k) = 4.0
  k=8: theta_i = [1.0], theta_avg(eps/k) = 8.0
star-lb family
  nu = 0.0 (realizable), VC = 1, star = 8
  theta_max(0.1) = 4.0 <= theta = 4
  separation (theta=2, eps=0.1): exhaustive=True analytic=True consistent=True
  separation (theta=3, eps=0.1): exhaustive=True analytic=True consistent=True
bernoulli KL: closed form vs quadrature, worst abs gap = 8.88e-16
"""


def test_verify_constructions_output(capsys):
    script = _load_script("verify_constructions")
    assert script.main() == 0
    assert capsys.readouterr().out == VERIFY_CONSTRUCTIONS


def test_paired_cells_times_the_repo_against_itself(capsys):
    # both sides load their own amdl, and the caller's amdl is back after
    import amdl
    script = _load_script("paired_cells")
    table = script.main([str(SCRIPTS.parent), str(SCRIPTS.parent), "--trials", "2"])
    assert sys.modules["amdl"] is amdl
    assert list(table) == [cell[0] for cell in script.pac_cells()] and len(table) == 6
    assert all(row["trials"] == 2 and row["median_ratio"] > 0 for row in table.values())
    assert capsys.readouterr().out.endswith("records equal on all 12 trials\n")


def test_paired_cells_refuses_to_report_unequal_records():
    script = _load_script("paired_cells")
    cells = script.pac_cells()[:1]
    a, b = (script.Side(SCRIPTS.parent, cells) for _ in range(2))
    b.trial = lambda cell, inst, seed: (1.0, "another record")
    with pytest.raises(SystemExit, match="the records differ"):
        script.compare(a, b, cells, 1)


def test_paired_cells_refuses_to_report_unequal_transcripts():
    script = _load_script("paired_cells")
    cells = script.pac_cells()[:1]
    a, b = (script.Side(SCRIPTS.parent, cells) for _ in range(2))
    traced = b.traced
    b.traced = lambda cell, inst, seed: ([(0, 0, 1, 1)], *traced(cell, inst, seed)[1:])
    with pytest.raises(SystemExit, match="the label transcripts differ"):
        script.compare(a, b, cells, 1)


@pytest.mark.parametrize("part", [1, 2])
def test_paired_cells_refuses_to_report_unequal_draws_or_positions(part):
    # a record holds only the total draws: a change that moves draws between
    # distributions, or leaves a stream elsewhere, shows in the traced trial
    script = _load_script("paired_cells")
    cells = script.pac_cells()[:1]
    a, b = (script.Side(SCRIPTS.parent, cells) for _ in range(2))
    traced = b.traced

    def other(cell, inst, seed):
        out = list(traced(cell, inst, seed))
        out[part] = [out[part][0] + 1, *out[part][1:]]
        return tuple(out)

    b.traced = other
    with pytest.raises(SystemExit, match=f"the {script.TRACED[part]} differ"):
        script.compare(a, b, cells, 1)


def test_paired_cells_times_only_the_cells_named(capsys):
    script = _load_script("paired_cells")
    table = script.main([str(SCRIPTS.parent), str(SCRIPTS.parent), "--trials", "1",
                         "--cells", "prop1", "--cells", "star-lb"])
    assert list(table) == ["prop1(4,0.1)/active-dd-large", "star-lb(2,4,1,1)/active-df"]
    assert capsys.readouterr().out.endswith("records equal on all 2 trials\n")


def test_paired_cells_refuses_a_pattern_that_matches_no_cell(capsys):
    script = _load_script("paired_cells")
    with pytest.raises(SystemExit):
        script.main([str(SCRIPTS.parent), str(SCRIPTS.parent), "--cells", "prop1",
                     "--cells", "no-such-cell"])
    assert "'no-such-cell' matches none of" in capsys.readouterr().err


def test_paired_cells_counts_b_wins_and_a_quartile_spread():
    # seeds from base_seed on; B is faster on 3 of 5 trials; A's quartiles are 1.5 and 4.5
    script = _load_script("paired_cells")
    cells = script.pac_cells()[:1]
    a, b = (script.Side(SCRIPTS.parent, cells) for _ in range(2))
    a_ms = dict(zip(range(7, 12), [1.0, 2.0, 3.0, 4.0, 5.0]))
    b_ms = dict(zip(range(7, 12), [0.5, 2.5, 2.0, 4.5, 1.0]))
    seeds = []
    a.trial = lambda cell, inst, seed: (seeds.append(seed) or a_ms[seed], "record")
    b.trial = lambda cell, inst, seed: (b_ms[seed], "record")
    for side in (a, b):
        side.traced = lambda cell, inst, seed: ([], [], [])
    (row,) = script.compare(a, b, cells, 5, base_seed=7).values()
    assert seeds == [7, 8, 9, 10, 11]
    assert row["b_wins"] == 3 and row["a_iqr_ms"] == 3.0
    assert script.compare(a, b, cells, 1, base_seed=7)[cells[0][0]]["a_iqr_ms"] == 0.0


def test_paired_cells_takes_a_base_seed(monkeypatch, capsys):
    script = _load_script("paired_cells")
    compare, seeds = script.compare, []
    monkeypatch.setattr(script, "compare", lambda *args: seeds.append(args[-1]) or compare(*args))
    table = script.main([str(SCRIPTS.parent), str(SCRIPTS.parent), "--trials", "1",
                         "--cells", "prop1", "--base-seed", "123"])
    assert seeds == [123] and [row["b_wins"] for row in table.values()] in ([0], [1])
    assert "B wins" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        script.main([str(SCRIPTS.parent), str(SCRIPTS.parent), "--base-seed", "-1"])


SMALL_SWEEP = {"trials": 2, "families": [{"family": "star-lb",
                                          "params": {"k": 2, "theta": 8, "i": 1, "j": 3}}],
               "algs": ["active-dd-large", "passive-naive"], "eps_grid": [0.2, 0.1]}


def test_paired_cells_times_whole_sweeps_of_a_config(tmp_path, capsys):
    import amdl
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(SMALL_SWEEP))
    script = _load_script("paired_cells")
    table = script.main([str(SCRIPTS.parent), str(SCRIPTS.parent), "--trials", "3",
                         "--sweep", str(config)])
    assert sys.modules["amdl"] is amdl
    (row,) = table.values()
    assert list(table) == [str(config)] and row["trials"] == 3 and row["median_ratio"] > 0
    assert 0 <= row["b_wins"] <= 3 and row["a_iqr_ms"] >= 0
    assert capsys.readouterr().out.endswith("rows and records equal on all 3 sweeps\n")


def test_paired_cells_sweeps_run_the_bench_ops_trials_a_cell(tmp_path, monkeypatch, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(SMALL_SWEEP))
    script = _load_script("paired_cells")
    sweep, seen = script.Side.sweep, []
    monkeypatch.setattr(script.Side, "sweep",
                        lambda side, cfg: seen.append(cfg["trials"]) or sweep(side, cfg))
    script.main([str(SCRIPTS.parent), str(SCRIPTS.parent), "--trials", "1",
                 "--sweep", str(config)])
    assert seen == [script.workload_constant("SWEEP_TRIALS")] * 2 != [SMALL_SWEEP["trials"]] * 2
    assert capsys.readouterr().out.endswith("rows and records equal on all 1 sweeps\n")


def test_paired_cells_sweeps_seed_each_run_and_capture_every_record():
    script = _load_script("paired_cells")
    a, b = (script.Side(SCRIPTS.parent, []) for _ in range(2))
    ms, rows, records = a.sweep(dict(SMALL_SWEEP, base_seed=7))
    assert ms > 0 and len(rows) == 4 and len(records) == 8
    assert [int(line.split(",")[5]) for line in records] == [7, 8] * 4
    seeds = []
    sweep = a.sweep
    a.sweep = lambda config: seeds.append(config["base_seed"]) or sweep(config)
    (row,) = script.compare_sweeps(a, b, "small", SMALL_SWEEP, 2, base_seed=7).values()
    assert seeds == [7, 8] and row["trials"] == 2


@pytest.mark.parametrize("differ", ["rows", "records"])
def test_paired_cells_refuses_to_report_unequal_sweeps(differ):
    script = _load_script("paired_cells")
    a, b = (script.Side(SCRIPTS.parent, []) for _ in range(2))
    sweep = b.sweep

    def other(config):
        ms, rows, records = sweep(config)
        if differ == "rows":
            rows[-1] = dict(rows[-1], mean_labels="0.0")
        else:
            records[0] += ",another"
        return ms, rows, records

    b.sweep = other
    with pytest.raises(SystemExit, match="the sweep rows or records differ"):
        script.compare_sweeps(a, b, "small", SMALL_SWEEP, 1)


def test_paired_cells_refuses_cells_with_a_sweep(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(SMALL_SWEEP))
    script = _load_script("paired_cells")
    with pytest.raises(SystemExit):
        script.main([str(SCRIPTS.parent), str(SCRIPTS.parent), "--sweep", str(config),
                     "--cells", "prop1"])
    assert "does not apply to --sweep" in capsys.readouterr().err


def test_paired_cells_times_instance_scale_ops(capsys):
    import amdl
    script = _load_script("paired_cells")
    sizes = sorted(set(script.workload_constant("INSTANCE_ROUND")))
    table = script.main([str(SCRIPTS.parent), str(SCRIPTS.parent), "--trials", "1",
                         "--measure"])
    assert sys.modules["amdl"] is amdl and "_workloads" not in sys.modules
    assert list(table) == [f"measure_and_run(|H|={n})" for n in sizes] == \
        ["measure_and_run(|H|=128)", "measure_and_run(|H|=256)"]
    assert all(row["trials"] == 1 and row["median_ratio"] > 0 for row in table.values())
    assert capsys.readouterr().out.endswith("measured values and records equal on all 2 ops\n")


def test_paired_cells_measure_op_gives_values_and_records():
    # measure_and_run of the side's own amdl: the values as a JSON line, then
    # the passive-hedge records from the op's seed on
    script = _load_script("paired_cells")
    side = script.Side(SCRIPTS.parent, [])
    ms, out = side.measure(128, 7)
    assert ms > 0 and side.workloads.core is side.modules["amdl.core"]
    assert sorted(json.loads(out[0])) == ["nu", "star", "star_unqualified", "theta", "vc"]
    assert [int(line.split(",")[5]) for line in out[1:]] == [7, 8, 9, 10]
    assert side.measure(128, 7)[1] == out


def test_paired_cells_refuses_to_report_unequal_measures():
    script = _load_script("paired_cells")
    a, b = (script.Side(SCRIPTS.parent, []) for _ in range(2))
    measure = b.measure
    b.measure = lambda n_hyp, seed: (measure(n_hyp, seed)[0], ['{"vc": 0}'])
    with pytest.raises(SystemExit, match=r"\|H\|=128 seed 7: the measured values or records"):
        script.compare_measures(a, b, [128], 1, base_seed=7)


@pytest.mark.parametrize("other", [["--cells", "prop1"], ["--sweep", "sweep.json"]])
def test_paired_cells_refuses_measure_with_cells_or_a_sweep(other, capsys):
    script = _load_script("paired_cells")
    with pytest.raises(SystemExit):
        script.main([str(SCRIPTS.parent), str(SCRIPTS.parent), "--measure", *other])
    assert "--measure" in capsys.readouterr().err
