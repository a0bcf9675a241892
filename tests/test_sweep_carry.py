"""A sweep continues each seed's epoch-halving trial from cell to cell of a
(families entry, alg) group.  Its rows, and the records `run_trials` returns
to it (as bench/workloads.py captures them), must be byte-identical to a
fresh `run_trials` per cell on a newly generated instance, and nothing may be
carried once the sweep has returned or raised."""

import types

import pytest

from amdl import ContractViolation, RunConfig, active, harness
from amdl.families import FamilySpec

STAR = {"family": "star-lb", "params": {"k": 2, "theta": 8, "i": 1, "j": 3}}
PROP1 = {"family": "prop1", "params": {"k": 8, "eps": 0.05}}
# nu = 0.001: active-dd-auto takes the large branch at eps >= 0.1, the small one below
PROP1_LOW_NU = {"family": "prop1", "params": {"k": 8, "eps": 0.001}}
RANDOM = {"family": "random", "params": {"m": 8, "n_hyp": 40, "k": 3, "seed": 1}}
AGNOSTIC = {"family": "agnostic-lb", "params": {"k": 4, "nu": 0.4, "eps": 0.05}}
REFUSED = {"family": "prop1", "params": {"k": 0, "eps": 0.05}}


def _config(families, algs, grid, trials=3, base_seed=5, **extra):
    return dict(profile="desk", delta=0.1, trials=trials, base_seed=base_seed,
                families=families, algs=algs, eps_grid=grid, **extra)


def _same(n, cfg):
    return cfg


def _captured_sweep(monkeypatch, config, change=_same):
    """The sweep's rows and, per cell that ran, its config and records; each
    cell's config goes through `change(cell number, config)` first."""
    orig, cells = harness.run_trials, []

    def run_trials(cfg):
        held = {(id(inst), p.alg) for inst, p, *_ in harness._carried.values()}
        assert len(held) <= 1 and (change is not _same or held <= {(id(cfg.instance), cfg.alg)})
        cfg = change(len(cells), cfg)
        cells.append((cfg, orig(cfg)))
        return cells[-1][1]

    monkeypatch.setattr(harness, "run_trials", run_trials)
    rows = harness.sweep(config)
    monkeypatch.setattr(harness, "run_trials", orig)
    assert harness._carried is None
    return rows, cells


def _fresh_sweep(monkeypatch, config, change=_same):
    """The sweep's rows with nothing carried from cell to cell."""
    orig, n = harness.run_trials, []

    def run_trials(cfg):
        harness._carried.clear()
        n.append(cfg)
        return orig(change(len(n) - 1, cfg))

    monkeypatch.setattr(harness, "run_trials", run_trials)
    rows = harness.sweep(config)
    monkeypatch.setattr(harness, "run_trials", orig)
    return rows


def _generated(entry: dict):
    """The entry's instance, newly generated; None where it is refused."""
    try:
        return FamilySpec(entry["family"], entry["params"]).generate()
    except ContractViolation:
        return None


def _assert_as_fresh(monkeypatch, config, change=_same):
    """Rows equal to a sweep that carries nothing, and every cell's records
    byte-identical to a fresh `run_trials` on a newly generated instance."""
    rows, cells = _captured_sweep(monkeypatch, config, change)
    assert rows == _fresh_sweep(monkeypatch, config, change)
    for cfg, recs in cells:
        inst = next(inst for inst in map(_generated, config["families"])
                    if inst is not None and inst.metadata == cfg.instance.metadata)
        fresh = RunConfig(alg=cfg.alg, eps=cfg.eps, delta=cfg.delta, trials=cfg.trials,
                          base_seed=cfg.base_seed, profile=cfg.profile, knobs=cfg.knobs,
                          instance=inst)
        assert [r.csv_row() for r in recs] == [r.csv_row() for r in harness.run_trials(fresh)]
    return rows, cells


# an eps grid and the cells of an active-dd-large group that start their
# trials afresh: the first, and each whose plan has fewer epochs than the last
GRIDS = [([0.2, 0.1, 0.05], 1), ([0.05, 0.1, 0.2], 3), ([0.1, 0.1, 0.05, 0.2, 0.025], 2),
         ([0.1, 0.2, 0.1], 2)]


@pytest.mark.parametrize("grid, fresh_cells", GRIDS)
def test_sweep_rows_and_records_match_fresh_runs_on_any_grid(monkeypatch, grid, fresh_cells):
    made, orig = [], harness.OracleSet
    monkeypatch.setattr(harness, "OracleSet", lambda inst, seed, **kw: made.append(
        inst.metadata["family"]) or orig(inst, seed, **kw))
    config = _config([STAR, PROP1], ["active-dd-large"], grid)
    _captured_sweep(monkeypatch, config)
    assert made == ["star-lb"] * 3 * fresh_cells + ["prop1"] * 3 * fresh_cells
    monkeypatch.setattr(harness, "OracleSet", orig)
    rows, cells = _assert_as_fresh(
        monkeypatch, dict(config, algs=["active-dd-large", "passive-naive"]))
    assert len(rows) == len(cells) == 4 * len(grid) and not any(r["skipped"] for r in rows)


def test_active_dd_auto_continues_across_its_branch_switch(monkeypatch):
    grid = [0.2, 0.05, 0.1, 0.4]
    config = _config([PROP1_LOW_NU], ["active-dd-auto"], grid, trials=2)
    _, cells = _assert_as_fresh(monkeypatch, config)
    assert [cfg.plan().learner for cfg, _ in cells] == ["large", "small", "large", "large"]


def test_collapsing_cells_match_fresh_runs(monkeypatch):
    config = _config([RANDOM, AGNOSTIC], ["active-dd-large"], [0.1, 0.05, 0.02], trials=10)
    _, cells = _assert_as_fresh(monkeypatch, config)
    failures = [r.failure_mode for _, recs in cells for r in recs]
    assert len(failures) == 60 and failures.count("version_space_collapse") == 26
    assert set(failures) == {"", "version_space_collapse"}


@pytest.mark.parametrize("change", [
    lambda n, cfg: RunConfig(**{**vars(cfg), "delta": (0.1, 0.05)[n % 2]}),
    lambda n, cfg: RunConfig(**{**vars(cfg), "knobs": {"c_t": 3e-5 * (1 + n % 2)}}),
    lambda n, cfg: RunConfig(**{**vars(cfg), "alg": ("active-dd-large", "active-dd-auto")[n % 2]}),
    lambda n, cfg: RunConfig(**{**vars(cfg), "instance": _generated(STAR)}),
], ids=["delta", "knobs", "alg", "instance"])
def test_cells_that_differ_in_delta_knobs_alg_or_instance_run_fresh(monkeypatch, change):
    # a wrapper of run_trials, as the benchmark installs, may hand any config
    # on; every cell here differs from the one before, so each trial runs fresh
    made, orig = [], harness.OracleSet
    monkeypatch.setattr(harness, "OracleSet", lambda *a, **kw: made.append(0) or orig(*a, **kw))
    config = _config([STAR], ["active-dd-large"], [0.2, 0.1, 0.05, 0.025])
    rows, cells = _captured_sweep(monkeypatch, config, change)
    assert len(made) == 4 * 3 and len(cells) == 4
    monkeypatch.setattr(harness, "OracleSet", orig)
    _assert_as_fresh(monkeypatch, config, change)


def test_two_equal_families_entries_are_generated_once_each(monkeypatch):
    calls = []
    generate = FamilySpec.generate
    monkeypatch.setattr(FamilySpec, "generate", lambda spec: calls.append(spec) or generate(spec))
    rows, cells = _captured_sweep(monkeypatch, _config(
        [STAR, dict(STAR)], ["active-dd-large", "passive-naive"], [0.1, 0.05]))
    assert len(calls) == 2 and cells[0][0].instance is not cells[-1][0].instance
    assert rows[:4] == rows[4:] and [cfg.instance for cfg, _ in cells[:4]] == [cells[0][0].instance] * 4
    monkeypatch.setattr(FamilySpec, "generate", generate)
    _assert_as_fresh(monkeypatch, _config([STAR, dict(STAR)], ["active-dd-large"], [0.1, 0.05]))


def test_a_refused_families_entry_gives_the_same_skipped_row_in_every_cell(monkeypatch):
    with pytest.raises(ContractViolation) as refusal:
        FamilySpec(REFUSED["family"], REFUSED["params"]).generate()
    rows, cells = _assert_as_fresh(monkeypatch, _config(
        [REFUSED, STAR], ["active-dd-large", "passive-naive"], [0.1, 0.05]))
    assert [(r["skipped"], r["reason"]) for r in rows[:4]] == [(1, str(refusal.value))] * 4
    assert len(cells) == 4 and not any(r["skipped"] for r in rows[4:])


def _counts(ledger) -> tuple:
    return ledger.label_queries.tolist(), ledger.unlabeled_draws.tolist()


def test_a_continued_trial_returns_what_a_fresh_one_does(monkeypatch):
    """Same record, result and ledger on return; its wall time counts the
    epochs it inherited (on a clock that moves 1 s a reading)."""
    clock = iter(range(10 ** 6))
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    orig, got = harness.run_single_trial, []

    def run_single_trial(inst, p, seed, trace):
        rec, res, oracles = orig(inst, p, seed, trace)
        got.append((p, seed, rec, res, _counts(oracles.ledger)))
        return rec, res, oracles

    monkeypatch.setattr(harness, "run_single_trial", run_single_trial)
    _captured_sweep(monkeypatch, _config([STAR], ["active-dd-large"], [0.2, 0.1, 0.05, 0.1],
                                         trials=2))
    assert [rec.wall_ms for _, _, rec, _, _ in got] == [1000, 1000, 2000, 2000, 3000, 3000,
                                                        1000, 1000]
    for p, seed, rec, res, ledger in got:
        f_rec, f_res, f_oracles = orig(_generated(STAR), p, seed)
        assert rec.csv_row() == f_rec.csv_row() and ledger == _counts(f_oracles.ledger)
        assert (repr(res.output), res.failure_mode, repr(res.trace), repr(res.metadata)) == \
            (repr(f_res.output), f_res.failure_mode, repr(f_res.trace), repr(f_res.metadata))
        assert res.plan is p and len(res.trace) == len(p.epochs)


def test_a_traced_trial_in_a_sweep_runs_fresh(monkeypatch):
    orig, seen = harness.run_trials, []

    def run_trials(cfg):
        inst, p = cfg.instance, cfg.plan()
        rec, _, oracles = harness.run_single_trial(inst, p, cfg.base_seed, trace=True)
        _, _, fresh = harness.run_single_trial(_generated(STAR), p, cfg.base_seed, trace=True)
        seen.append(list(oracles.ledger.transcript) == list(fresh.ledger.transcript))
        assert all(held[2] is not oracles for held in harness._carried.values())
        return orig(cfg)

    monkeypatch.setattr(harness, "run_trials", run_trials)
    harness.sweep(_config([STAR], ["active-dd-large"], [0.2, 0.1]))
    assert seen == [True, True] and harness._carried is None


def test_a_trial_refused_mid_run_is_not_continued(monkeypatch):
    # the first trial's epoch 4 (at eps 0.1, after 3 epochs at 0.2 for each of
    # 3 trials) is refused once its solve has drawn: that cell is skipped, and
    # the next cell runs that trial afresh, not from the half-run state
    solve, calls = active.mdl_hedge_vc, []

    def refused_once(*args):
        res = solve(*args)
        calls.append(res)
        if len(calls) == 3 * 3 + 1:
            raise ContractViolation("refused mid-run")
        return res

    monkeypatch.setattr(active, "mdl_hedge_vc", refused_once)
    config = _config([STAR], ["active-dd-large"], [0.2, 0.1, 0.05])
    rows, cells = _captured_sweep(monkeypatch, config)
    assert [row["reason"] for row in rows] == ["", "refused mid-run", ""] and len(cells) == 2
    fresh = RunConfig(alg="active-dd-large", eps=0.05, delta=0.1, trials=3, base_seed=5,
                      instance=_generated(STAR))
    assert [r.csv_row() for r in cells[1][1]] == [r.csv_row() for r in harness.run_trials(fresh)]


def test_nothing_is_carried_after_a_cell_raises(monkeypatch):
    orig, cells = harness.run_trials, []

    def run_trials(cfg):
        if cells:
            assert harness._carried     # the first cell's trials are held
            raise RuntimeError("a cell failed")
        cells.append(orig(cfg))
        return cells[-1]

    monkeypatch.setattr(harness, "run_trials", run_trials)
    with pytest.raises(RuntimeError, match="a cell failed"):
        harness.sweep(_config([STAR], ["active-dd-large"], [0.2, 0.1]))
    assert harness._carried is None


def test_run_trials_outside_a_sweep_continues_nothing(monkeypatch):
    inst, made = _generated(STAR), []
    orig = harness.OracleSet
    monkeypatch.setattr(harness, "OracleSet", lambda *a, **kw: made.append(orig(*a, **kw)) or made[-1])
    for eps in (0.2, 0.1):
        harness.run_trials(RunConfig(alg="active-dd-large", eps=eps, delta=0.1, trials=2,
                                     instance=inst))
    assert len(made) == 4 and harness._carried is None
