"""The run plan: each size against its literal formula, the label bound and
the planned rounds against real trials, and the refusal of a plan too large
to run."""

import functools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import amdl
from amdl import ContractViolation, RunConfig, SolverConfig, active, harness, rpu, runplan
from amdl.cli import main as cli_main
from amdl.harness import PROFILES, run_trials, sweep_from_csv
from amdl.runplan import plan

from test_golden_records import CELLS, DELTA, SEEDS

GRID = [(eps, nu, k, d, s, profile)
        for eps in (0.3, 0.1, 0.03) for nu in (0.0, 0.002, 0.02) for k in (2, 3)
        for d in (1, 2) for s in (0, 3) for profile in ("desk", "fidelity")]


def hedge_rounds(cfg, k, d):
    """A solve's rounds T and store size T1, written out."""
    eps1 = cfg.c_eps1 * cfg.eps / 100.0
    load = 1.0 / eps1 + cfg.nu / eps1 ** 2
    T = math.ceil(cfg.c_t * 20000.0 * load * math.log(k / (cfg.delta * cfg.eps)))
    cover = k * math.log(k / cfg.eps) + (d * math.log(k * d / cfg.eps) if d > 0 else 0.0) \
        + math.log(1.0 / cfg.delta)
    return T, math.ceil(cfg.c_t1 * 4000.0 * load * cover)


@functools.lru_cache(maxsize=None)
def least_batch(s, xi):
    """The least n with (10 s max(1, ln(e n / s)) + 4 ln 80) / n <= xi / 2, by scan."""
    n = 1
    while ((10 * s * max(1.0, math.log(math.e * n / s)) if s else 0.0)
           + 4 * math.log(80)) / n > xi / 2:
        n += 1
    return n


def halving_epochs(eps, delta):
    n0 = math.ceil(math.log2(1 / eps) - 1e-12)
    return [(n, 2.0 ** -n, delta / (2 * n * n)) for n in range(1, n0 + 1)]


def check_large(p, cfg, k, d):
    want = [(n, eps_n, delta_n, replace(cfg, eps=eps_n, delta=delta_n, nu=eps_n / 100))
            for n, eps_n, delta_n in halving_epochs(cfg.eps, cfg.delta)]
    assert [(e.n, e.eps_n, e.delta_n, e.solve) for e in p.epochs] == want
    assert p.warnings == ((f"regime: eps={cfg.eps} < 100.0*nu={100 * cfg.nu}",)
                          if cfg.eps < 100 * cfg.nu else ())


def check_small(p, cfg, k, d):
    eps, nu, delta = cfg.eps, cfg.nu, cfg.delta
    eps_p = min(100 * nu, 1.0)
    assert p.eps_p == eps_p
    if eps_p < 1:
        assert p.stage1.cfg == replace(cfg, eps=eps_p, delta=delta / 6)
        check_large(p.stage1, p.stage1.cfg, k, d)
    else:
        assert p.stage1 is None
    assert p.n0 == math.ceil(100 * (eps + nu) / eps ** 2 * math.log(k / (delta / 6)))
    assert p.solve == replace(cfg, eps=eps / 2, delta=delta / 6)
    assert p.warnings == ((f"regime: eps={eps} >= 100.0*nu={100 * nu}",) * (eps >= 100 * nu)
                          + ("stage1 skipped: 100*nu >= 1, V0 = full class",) * (eps_p >= 1))


def check_dist_free(p, cfg, k, d, s):
    n0 = max(1, math.ceil(math.log2((d + k) / (s * cfg.eps)) - 1e-12)) if s > 0 else 1
    epochs = halving_epochs(2.0 ** -n0, cfg.delta)
    assert [(e.n, e.eps_n, e.delta_n) for e in p.epochs] == epochs
    log2k = math.ceil(math.log2(k))
    warnings = [f"regime: eps={cfg.eps} < 100*(k+d)*nu={100 * (k + d) * cfg.nu}"] \
        * (cfg.eps < 100 * (k + d) * cfg.nu)
    for e in p.epochs[:-1]:
        r = e.robust
        assert (r.xi, r.cap) == (e.eps_n, 4 * log2k + 4)
        assert r.N == 60 * max(1, math.ceil(math.log(1 / (e.delta_n / (2 * log2k + 2)))))
        assert r.batch == max(1, math.ceil(cfg.c_n * least_batch(s, e.eps_n / 2)))
        if s > 0 and cfg.nu > 0 and e.eps_n < 100 * s * cfg.nu:
            warnings.append(f"rpu regime: epoch {e.n} target {e.eps_n} < 100*s*nu="
                            f"{100 * s * cfg.nu}")
    final = p.epochs[-1]
    assert final.robust is None and final.solve == replace(cfg, delta=final.delta_n)
    assert p.warnings == tuple(warnings)


@pytest.mark.parametrize("alg", amdl.ALGORITHMS)
def test_every_size_equals_its_formula(alg):
    for eps, nu, k, d, s, profile in GRID:
        cfg = SolverConfig(eps=eps, delta=0.1, nu=nu, **PROFILES[profile])
        if alg == "active-dd-small" and nu == 0:
            with pytest.raises(ContractViolation, match="supplied nu"):
                plan(alg, cfg, k, d)
            continue
        p = plan(alg, cfg, k, d, s)
        assert p.learner == {"active-dd-large": "large", "active-dd-small": "small",
                             "active-df": "df", "passive-hedge": "hedge",
                             "passive-naive": "naive"}.get(
            alg, "large" if eps >= 100 * nu else "small")
        if p.learner == "large":
            check_large(p, cfg, k, d)
        elif p.learner == "small":
            check_small(p, cfg, k, d)
        elif p.learner == "df":
            check_dist_free(p, cfg, k, d, s)
        elif p.learner == "hedge":
            assert p.solve == cfg and not p.epochs
        else:
            assert p.naive_n == max(1, math.ceil(
                max(d, 1) * (nu + eps) / eps ** 2 * math.log(k / (0.1 * eps))))
        assert p.label_bound == (sum(k * (k * T + T1) for T, T1 in (
                                     hedge_rounds(c, k, d) for c in p.solves())) + k * p.n0
                                 + sum(e.robust.cap * e.robust.N * e.robust.batch
                                       for e in p.epochs if e.robust) + k * p.naive_n)


def test_small_eps_agreement_sample_formula(desk_knobs):
    inst = amdl.gen_agnostic_lb(3, 0.4, 0.05)
    nu = float(inst.nu_exact())
    cfg = SolverConfig(eps=0.05, delta=0.1, nu=nu, **desk_knobs)
    n0 = plan("active-dd-small", cfg, inst.k, 1).n0
    assert n0 == math.ceil(100 * (0.05 + nu) / 0.05 ** 2 * math.log(3 / (0.1 / 6)))


def test_active_df_plan_needs_a_star_number(desk_knobs):
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, **desk_knobs)
    for s in (None, -1, 1.5, True, "2"):
        with pytest.raises(ContractViolation, match="star number"):
            plan("active-df", cfg, 2, 1, s)
    assert plan("active-df", cfg, *map(np.int64, (2, 1, 1))) == plan("active-df", cfg, 2, 1, 1)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_trials_keep_within_their_plan(cell, monkeypatch):
    # each solve a trial makes is the next one its plan lists, config and
    # rounds; a failed run stops early.  Labels stay within the plan's bound.
    gen, alg, eps = CELLS[cell]
    cfg = RunConfig(alg=alg, eps=eps, delta=DELTA, instance=gen())
    p = cfg.plan()
    solves = []
    for mod in (active, rpu, harness):
        def counted(cls, V, fam, solver_cfg, *args, _solve=mod.mdl_hedge_vc, **kw):
            res = _solve(cls, V, fam, solver_cfg, *args, **kw)
            solves.append((solver_cfg, res.rounds))
            return res
        monkeypatch.setattr(mod, "mdl_hedge_vc", counted)
    planned = [(c, hedge_rounds(c, p.k, p.d)[0]) for c in p.solves()]
    for seed in SEEDS:
        solves.clear()
        rec, res, _ = harness.run_single_trial(cfg.instance, p, seed)
        assert res.plan is p and (solves or alg == "passive-naive")
        assert solves == planned[:len(solves)] and (len(solves) == len(planned) or not res.ok)
        assert rec.labels_total <= p.label_bound
        assert res.metadata.get("agreement_label_cost", 0) <= p.label_parts()["agreement"]


# (alg, eps, profile) on prop1(2, 0.1): without the ceiling the first two ask
# numpy for 24.5 TiB and 348 TiB and the next two plan 1.0e12 and 8.3e7 Hedge
# rounds; at eps 1e-300 a size overflows or underflows
REFUSED = [("passive-naive", 1e-6, "desk"), ("active-dd-small", 1e-6, "desk"),
           ("passive-hedge", 1e-6, "desk"), ("passive-hedge", 0.9, "fidelity"),
           *((alg, 1e-300, "desk") for alg in amdl.ALGORITHMS)]


@pytest.mark.parametrize("alg,eps,profile", REFUSED)
def test_a_plan_too_large_to_run_is_refused_before_any_draw(monkeypatch, alg, eps, profile):
    built = []
    monkeypatch.setattr(harness, "OracleSet", lambda *args, **kw: built.append(args))
    with pytest.raises(ContractViolation, match="ceiling|no finite plan|underflows"):
        run_trials(RunConfig(alg=alg, eps=eps, delta=0.1, profile=profile,
                             instance=amdl.gen_prop1(2, 0.1)))
    assert built == []


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_fidelity_refuses_every_solver_run_on_the_shipped_instances(cell):
    # at the cell's eps, the literal constants plan over 10^8 labels for
    # every algorithm but passive-naive, which fidelity sizes as desk does
    gen, _, eps = CELLS[cell]
    inst = gen()
    for alg in amdl.ALGORITHMS:
        cfg = RunConfig(alg=alg, eps=eps, delta=DELTA, profile="fidelity", instance=inst)
        if alg == "passive-naive":
            assert cfg.plan().label_bound <= amdl.LABEL_CEILING
            continue
        with pytest.raises(ContractViolation):
            cfg.plan()


def test_sweep_records_a_refused_plan_as_a_skipped_row(tmp_path):
    # `amdl sweep` keeps the live row beside the refused one
    config = {"trials": 2, "families": [{"family": "prop1", "params": {"k": 2, "eps": 0.1}}],
              "algs": ["passive-naive"], "eps_grid": [0.1, 1e-6]}
    (tmp_path / "sweep.json").write_text(json.dumps(config))
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--config", str(tmp_path / "sweep.json"), "--out", str(out)]) == 0
    rows = sweep_from_csv(out.read_text())
    assert [(r["eps"], r["skipped"]) for r in rows] == [("0.1", "0"), ("1e-06", "1")]
    assert rows[0]["success_rate"] == "1.0" and "ceiling" in rows[1]["reason"]


@pytest.mark.parametrize("gen", [lambda: amdl.gen_prop1(8, 0.05),
                                 lambda: amdl.gen_agnostic_lb(4, 0.4, 0.05)])
def test_desk_active_df_plans_under_the_ceiling(gen):
    # the plan charges every pruning loop its full round cap, so these bound
    # about 28 and 17 million labels, where a trial spends under 3 million
    cfg = RunConfig(alg="active-df", eps=0.1, delta=DELTA, instance=gen())
    assert 10 ** 7 < cfg.plan().label_bound <= amdl.LABEL_CEILING


def test_run_single_trial_refuses_another_runs_plan(monkeypatch):
    # a trial takes its alg, targets and knobs from the plan alone, and
    # refuses a plan made for another k or another nu before any draw
    inst = amdl.gen_prop1(2, 0.1)
    others = [amdl.gen_prop1(3, 0.1), amdl.gen_prop1(2, 0.2), amdl.gen_agnostic_lb(2, 0.4, 0.05)]
    built = []
    monkeypatch.setattr(harness, "OracleSet", lambda *args, **kw: built.append(args))
    for other in others:
        p = RunConfig(alg="passive-hedge", eps=0.2, delta=DELTA, instance=other).plan()
        with pytest.raises(ContractViolation, match="not a plan for this instance"):
            harness.run_single_trial(inst, p, 0)
    assert built == []


def test_a_trial_reads_alg_targets_and_knobs_from_its_plan():
    inst = amdl.gen_prop1(2, 0.1)
    for cfg in (RunConfig(alg="passive-naive", eps=0.3, delta=0.2, instance=inst),
                RunConfig(alg="passive-hedge", eps=0.2, delta=DELTA, knobs={"c_t": 1e-5},
                          instance=inst)):
        p = cfg.plan()
        rec = harness.run_single_trial(inst, p, 5)[0]
        assert (rec.alg, rec.eps, rec.delta, rec.nu) == (cfg.alg, cfg.eps, cfg.delta, 0.1)
        assert rec.csv_row() == run_trials(replace(cfg, base_seed=5))[0].csv_row()


@pytest.mark.parametrize("args", [("nope", 2, 1), ("passive-hedge", 1.5, 1),
                                  ("passive-hedge", "2", 1), ("passive-hedge", 0, 1),
                                  ("passive-hedge", True, 1), ("passive-hedge", 2, None),
                                  ("passive-hedge", 2, -1), ("active-df", 2, 1.0)], ids=str)
def test_plan_refuses_bad_arguments_before_any_size(args, monkeypatch):
    # an unknown tag, a k that is not an int >= 1 and a d that is not an
    # int >= 0 are refused by name, before any size is computed
    alg, k, d = args
    sized = []
    monkeypatch.setattr(runplan, "hyperparams", lambda *a: sized.append(a))
    cfg = SolverConfig(eps=0.1, delta=DELTA, nu=0.0, **PROFILES["desk"])
    with pytest.raises(ContractViolation, match="known: |k must be|d must be") as err:
        plan(alg, cfg, k, d, 1)
    assert sized == []
    if alg == "nope":
        assert all(repr(tag) in str(err.value) for tag in amdl.ALGORITHMS)
