"""Distribution-dependent active learners."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amdl
from amdl import (ContractViolation, FeatureSpace, Hypothesis, HypothesisClass,
                  LabeledDistribution, MDLInstance, OracleSet,
                  RandomizedHypothesis, SolverConfig)
from amdl import active
from amdl.active import (EpochSchedule, _within_radius, active_large_eps,
                         active_small_eps, regime_dispatch)
from amdl.core import disagreement_exact
from amdl.families import FamilySpec
from amdl.harness import PROFILES

from closed_forms import disagreement_reference
from conftest import one_point_instance


def test_epoch_schedule_brackets_target():
    for eps in (0.3, 0.25, 0.1, 0.07, 0.03):
        sched = EpochSchedule.for_target(eps, 0.1)
        last = sched.eps_n[-1]
        assert last <= eps < 2 * last
        assert sum(sched.delta_n) <= 0.1


def test_epoch_schedule_vacuous_target():
    sched = EpochSchedule.for_target(1.0, 0.1)
    assert sched.n0 == 0


def test_one_point_realizable_run(desk_knobs):
    inst = one_point_instance()
    cfg = SolverConfig(eps=0.05, delta=0.1, nu=0.0, **desk_knobs)
    for seed in range(5):
        o = OracleSet(inst, seed)
        res = active_large_eps(inst, o, 0.05, 0.1, cfg, d=1)
        assert res.ok
        assert amdl.worst_loss(res.output, inst) == 0.0
        # the run localizes after the first epoch; label cost stays near the
        # per-epoch constant times the number of live epochs
        assert o.ledger.label_total <= 60 * res.metadata["schedule_n0"]


def test_vacuous_target_returns_immediately(desk_knobs):
    inst = one_point_instance()
    cfg = SolverConfig(eps=0.9, delta=0.1, nu=0.0, **desk_knobs)
    o = OracleSet(inst, seed=0)
    res = active_large_eps(inst, o, 1.5, 0.1, cfg, d=1)
    assert res.ok and res.output is inst.hypothesis_class[0]
    assert res.metadata["center_index"] == 0
    assert o.ledger.label_total == 0 and res.metadata["schedule_n0"] == 0


def test_version_spaces_nested_and_radius_bound(desk_knobs):
    inst = amdl.gen_star_lb(2, 8, 1, 3)
    cfg = SolverConfig(eps=0.05, delta=0.1, nu=0.0, **desk_knobs)
    o = OracleSet(inst, seed=3)
    res = active_large_eps(inst, o, 0.05, 0.1, cfg,
                           d=amdl.vc_dimension(inst.hypothesis_class).value)
    assert res.ok
    spaces = res.metadata["version_spaces"]
    assert len(spaces) == res.metadata["schedule_n0"]
    full = set(inst.hypothesis_class.full_version_space())
    prev = full
    for V in spaces:
        assert set(V) <= prev
        prev = set(V)
    # trace rows: epoch, eps_n, |V_n|, max DIS mass, passive draws, labels
    sizes = [row[2] for row in res.trace]
    assert sizes == [len(V) for V in spaces]
    masses = [row[3] for row in res.trace]
    assert all(a >= b for a, b in zip(masses, masses[1:]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.data())
def test_radius_predicate_matches_fraction_arithmetic(seed, data):
    inst = amdl.gen_random(6, 10, 3, seed=seed)
    cls = inst.hypothesis_class
    n = len(cls)
    for a in range(n):
        for b in range(n):
            for i, D in enumerate(inst.distributions):
                assert inst.pair_disagreement_exact(a, b, i) == \
                    disagreement_reference(cls[a], cls[b], D)
    support = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    mix = RandomizedHypothesis(cls, support)
    version_space = sorted(set(data.draw(st.lists(st.integers(0, n - 1), min_size=1))))
    tiny = Fraction(1, 10 ** 12)
    rho = []
    bounds = {2 * Fraction(2) ** -e for e in range(1, 7)}   # the epoch radii 2 * 2^-n
    for h in range(n):
        rhos = [disagreement_reference(cls[h], mix, D) for D in inst.distributions]
        rho.append(max(rhos))
        # every rho_i, so the bound meets the max exactly and falls below it;
        # and just off the max on either side
        bounds |= set(rhos) | {rho[h] - tiny, rho[h] + tiny}
    for bound in bounds:
        for V in (range(n), version_space):
            assert _within_radius(inst, V, mix, bound) == \
                [h for h in V if rho[h] <= bound], (list(V), bound)


SWEEP = json.loads((Path(__file__).resolve().parents[1] / "configs"
                    / "sweep_scaling.json").read_text())


@pytest.mark.parametrize("eps", SWEEP["eps_grid"])
@pytest.mark.parametrize("family", SWEEP["families"], ids=lambda f: f["family"])
def test_kept_members_lie_within_the_epoch_radius(monkeypatch, family, eps):
    """The radius invariant of active_large_eps, checked apart from the
    integer predicate that prunes: every member an epoch keeps has
    max_i rho_i(h, h_n) <= 2 eps_n for that epoch's mixture h_n, evaluated
    with core.disagreement_exact on the active-dd-large sweep cells."""
    inst = FamilySpec(family["family"], dict(family["params"])).generate()
    cls = inst.hypothesis_class
    cfg = SolverConfig(eps=eps, delta=SWEEP["delta"], nu=float(inst.nu_exact()),
                       **PROFILES[SWEEP["profile"]])
    d = amdl.vc_dimension(cls).value
    for seed in (0, 1):
        solves = []

        def capture(cls_, V, *args, _solve=active.mdl_hedge_vc, **kw):
            res = _solve(cls_, V, *args, **kw)
            solves.append((tuple(V), res.hypothesis))
            return res

        monkeypatch.setattr(active, "mdl_hedge_vc", capture)
        run = active_large_eps(inst, OracleSet(inst, seed), eps, SWEEP["delta"], cfg, d=d)
        monkeypatch.undo()
        # epoch n keeps what epoch n + 1 solves over; the last epoch keeps
        # the final version space, or nothing when the space collapsed
        final = run.metadata["final_version_space"] if run.ok else ()
        kept = [V for V, _ in solves[1:]] + [final]
        if run.ok:
            assert kept == run.metadata["version_spaces"]
        for n, ((_, mix), members) in enumerate(zip(solves, kept), start=1):
            bound = 2 * Fraction(2) ** -n
            for h in members:
                assert max(disagreement_exact(cls[h], mix, D)
                           for D in inst.distributions) <= bound, (seed, n, h)


def test_realizable_labeling_hypothesis_survives(desk_knobs):
    inst = amdl.gen_star_lb(2, 8, 1, 3)
    target_idx = inst.hypothesis_class.index_of(amdl.best_nu(inst)[0])
    cfg = SolverConfig(eps=0.05, delta=0.1, nu=0.0, **desk_knobs)
    survived = 0
    for seed in range(40):
        o = OracleSet(inst, seed)
        res = active_large_eps(inst, o, 0.05, 0.1, cfg, d=1)
        if res.ok and all(target_idx in V for V in res.metadata["version_spaces"]):
            survived += 1
    assert survived >= 36  # 1 - delta of trials at delta = 0.1


def test_version_space_collapse_reported(desk_knobs):
    # far outside the regime assumption the played mixture spreads over many
    # hypotheses and the shrinking radius can empty the version space; seed 9
    # deterministically collapses at epoch 4 under the desk profile
    inst = amdl.gen_prop1(4, 0.4)
    cfg = SolverConfig(eps=0.02, delta=0.1, nu=float(inst.nu_exact()), **desk_knobs)
    o = OracleSet(inst, seed=9)
    res = active_large_eps(inst, o, 0.02, 0.1, cfg, d=1)
    assert res.failure_mode == "version_space_collapse"
    assert res.output is None and not res.ok
    assert res.metadata["collapse_epoch"] == 4
    assert o.ledger.label_total > 0  # ledger preserved for analysis
    assert any(w.startswith("regime:") for w in res.metadata["warnings"])
    # a neighbouring seed completes and reports no failure
    o2 = OracleSet(inst, seed=0)
    res2 = active_large_eps(inst, o2, 0.02, 0.1, cfg, d=1)
    assert res2.failure_mode is None and res2.ok


def test_small_eps_stage_one_cap(desk_knobs):
    # 100 nu >= 1 caps the stage-one target at 1, so V0 is the whole class
    inst = amdl.gen_agnostic_lb(3, 0.4, 0.05)
    nu = float(inst.nu_exact())
    cfg = SolverConfig(eps=0.05, delta=0.1, nu=nu, **desk_knobs)
    o = OracleSet(inst, seed=0)
    res = active_small_eps(inst, o, 0.05, 0.1, nu, cfg, d=1)
    assert res.ok
    assert res.metadata["stage1_target"] == 1.0
    assert res.metadata["v0_size"] == len(inst.hypothesis_class)
    assert any("stage1 skipped" in w for w in res.metadata["warnings"])


def test_small_eps_agreement_label_accounting(desk_knobs):
    inst = amdl.gen_agnostic_lb(3, 0.4, 0.05)
    nu = float(inst.nu_exact())
    cfg = SolverConfig(eps=0.05, delta=0.1, nu=nu, **desk_knobs)
    o = OracleSet(inst, seed=1)
    res = active_small_eps(inst, o, 0.05, 0.1, nu, cfg, d=1)
    n0 = res.metadata["n0_agreement"]
    assert n0 == math.ceil(100 * (0.05 + nu) / 0.05 ** 2 * math.log(3 / (0.1 / 6)))
    assert res.metadata["agreement_label_cost"] == inst.k * n0
    assert res.metadata["degenerate_agreement"] == []
    # remaining labels were spent inside the solver's disagreement queries
    assert o.ledger.label_total >= inst.k * n0


def test_small_eps_degenerate_agreement_flagged(desk_knobs):
    # complementary hypotheses: the agreement region is empty, the surrogate
    # falls back to fresh labeled sampling for every distribution
    cls = HypothesisClass([Hypothesis([1, -1]), Hypothesis([-1, 1])])
    d1 = LabeledDistribution([Fraction(3, 4), Fraction(1, 4)],
                             [Fraction(9, 10), Fraction(1, 10)])
    d2 = LabeledDistribution([Fraction(1, 2), Fraction(1, 2)],
                             [Fraction(4, 5), Fraction(1, 5)])
    inst = MDLInstance(FeatureSpace(2), cls, [d1, d2])
    nu = float(inst.nu_exact())
    assert nu > 0
    cfg = SolverConfig(eps=0.05, delta=0.1, nu=nu, **desk_knobs)
    o = OracleSet(inst, seed=0)
    res = active_small_eps(inst, o, 0.05, 0.1, nu, cfg, d=1)
    assert res.metadata["degenerate_agreement"] == [0, 1]
    assert res.ok


def test_small_eps_requires_positive_nu(desk_knobs):
    inst = one_point_instance()
    cfg = SolverConfig(eps=0.05, delta=0.1, nu=0.0, **desk_knobs)
    o = OracleSet(inst, seed=0)
    with pytest.raises(ContractViolation):
        active_small_eps(inst, o, 0.05, 0.1, 0.0, cfg, d=1)


BAD_TARGETS = [("large", dict(eps=math.nan)), ("large", dict(eps=math.inf)),
               ("large", dict(delta=math.nan)), ("df", dict(eps=math.nan)),
               ("df", dict(eps=math.inf)), ("df", dict(delta=1.0)),
               ("small", dict(eps=0.0)), ("small", dict(delta=0.0)),
               ("small", dict(eps=math.nan)), ("small", dict(nu=math.nan)),
               ("small", dict(nu=math.inf)), ("small", dict(nu=1.0))]


@pytest.mark.parametrize("learner,bad", BAD_TARGETS,
                         ids=[f"{a}-{k}={v}" for a, b in BAD_TARGETS for k, v in b.items()])
def test_learners_refuse_bad_targets_at_entry(desk_knobs, learner, bad):
    # these raised ValueError, ZeroDivisionError or OverflowError from deep in
    # a learner, ran (active_large_eps at eps = inf), or were refused only after
    # stage two's sampling (nu = 1); now nothing is drawn before the refusal
    inst = amdl.gen_example1(0.2, 0.05, "a")
    t = {"eps": 0.05, "delta": 0.1, "nu": 0.2, **bad}
    cfg = SolverConfig(eps=0.05, delta=0.1, nu=0.2, **desk_knobs)
    o = OracleSet(inst, seed=0)
    with pytest.raises(ContractViolation):
        if learner == "large":
            active_large_eps(inst, o, t["eps"], t["delta"], cfg, d=1)
        elif learner == "small":
            active_small_eps(inst, o, t["eps"], t["delta"], t["nu"], cfg, d=1)
        else:
            amdl.active_dist_free(inst, o, t["eps"], t["delta"], s_star=2, d=1, cfg=cfg)
    assert o.ledger.label_total == 0 and o.ledger.unlabeled_total == 0


def test_regime_dispatch_branches(desk_knobs):
    # realizable: always the large branch
    inst = amdl.gen_star_lb(2, 4, 1, 1)
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, **desk_knobs)
    o = OracleSet(inst, seed=0)
    res = regime_dispatch(inst, o, 0.1, 0.1, cfg, d=1)
    assert res.metadata["dispatch"] == "large"
    # threshold arithmetic both ways around eps = 0.5
    assert 0.5 >= 100 * 0.004 and not 0.5 >= 100 * 0.01


def test_regime_dispatch_small_branch(desk_knobs):
    inst = amdl.gen_agnostic_lb(2, 0.4, 0.05)
    nu = float(inst.nu_exact())
    cfg = SolverConfig(eps=0.05, delta=0.1, nu=nu, **desk_knobs)
    o = OracleSet(inst, seed=0)
    res = regime_dispatch(inst, o, 0.05, 0.1, cfg, d=1)
    assert res.metadata["dispatch"] == "small"
    assert res.ok

