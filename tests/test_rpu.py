"""Reliable abstaining classifiers and the distribution-free pipeline."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import amdl
from amdl import (AbstainingClassifier, ContractViolation, OracleSet,
                  SolverConfig)
from amdl.oracles import imputed_family
from amdl.rpu import (active_dist_free, batch_size, passive_rpu_mdl,
                      robust_rpu_learn, rpu_report, threshold_majority)

from closed_forms import imputed_distribution
from conftest import empirical_tv


def test_abstaining_classifier_validation():
    AbstainingClassifier([1, 0, -1])
    with pytest.raises(ContractViolation):
        AbstainingClassifier([1, 2, 0])


def test_threshold_majority_exhaustive_small_batch_counts():
    # pure function of the vote vector: enumerate all (commit count, sum)
    # patterns for N <= 10
    for N in range(1, 11):
        for commits in range(N + 1):
            for plus in range(commits + 1):
                minus = commits - plus
                votes_nonzero = np.array([commits])
                votes_sum = np.array([plus - minus])
                out = threshold_majority(votes_nonzero, votes_sum, N)[0]
                if 5 * commits <= N:
                    assert out == 0
                elif plus > minus:
                    assert out == 1
                elif plus < minus:
                    assert out == -1
                else:
                    assert out == 0  # balanced sum abstains


def test_threshold_majority_spec_points():
    # 12 committing votes out of 60 sit exactly on the threshold: abstain
    assert threshold_majority(np.array([12]), np.array([12]), 60)[0] == 0
    # 20 committing votes, 11 plus and 9 minus: commit +1
    assert threshold_majority(np.array([20]), np.array([2]), 60)[0] == 1


def test_batch_size_satisfies_bound_and_scales():
    def load(s, n):
        dis = 10 * s * max(1.0, math.log(math.e * n / s)) if s else 0.0
        return (dis + 4 * math.log(80)) / n

    for s, xi in ((0, 0.5), (3, 0.5), (8, 0.25), (8, 0.03125)):
        n = batch_size(s, xi)
        assert load(s, n) <= xi / 2
        if n > 1:
            assert load(s, n - 1) > xi / 2  # minimality before the knob
    assert batch_size(4, 0.5, c_n=0.5) == math.ceil(0.5 * batch_size(4, 0.5))
    with pytest.raises(ContractViolation):
        batch_size(4, 0.0)


@pytest.mark.parametrize("s_star, c_n", [(-1, 1.0), (-5, 1.0), (4, 0.0), (4, -1.0),
                                         (4, math.nan), (4, math.inf)])
def test_batch_size_refuses_a_negative_star_number_or_bad_knob(s_star, c_n):
    with pytest.raises(ContractViolation):
        batch_size(s_star, 0.5, c_n)


def _noiseless_setup(seed, k=2):
    inst = amdl.gen_star_lb(k, 4, 1, 2)
    target = amdl.best_nu(inst)[0]
    o = OracleSet(inst, seed)
    return inst, target, o


def test_robust_rpu_learn_noiseless_reliable(desk_knobs):
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, **desk_knobs)
    violations = 0
    abstain_ok = 0
    trials = 30
    for seed in range(trials):
        inst, target, o = _noiseless_setup(seed)
        fam = imputed_family(o, np.zeros(inst.m, dtype=np.int8))
        f = robust_rpu_learn(inst.hypothesis_class, lambda n: fam.draw(0, n),
                             xi=0.25, delta=0.1,
                             s_star=8, cfg=cfg)
        rep = rpu_report(inst, f, target.labels, labels_used=o.ledger.label_total)
        violations += any(v > 0 for v in rep.violation_mass)
        abstain_ok += rep.abstention_mass[0] <= 0.25
    assert violations == 0
    assert abstain_ok >= 27  # 1 - delta of trials


def test_robust_rpu_learn_tolerates_corrupted_batches(desk_knobs):
    # heavy label noise: batches are frequently inconsistent and vote nothing;
    # the output must still be a valid classifier
    inst = amdl.gen_agnostic_lb(2, 0.4, 0.05)
    o = OracleSet(inst, seed=0)
    fam = imputed_family(o, np.zeros(inst.m, dtype=np.int8))
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.3, **desk_knobs)
    f = robust_rpu_learn(inst.hypothesis_class, lambda n: fam.draw(0, n),
                         xi=0.5, delta=0.2, s_star=2, cfg=cfg)
    assert set(np.unique(f.outputs)) <= {-1, 0, 1}


def test_passive_rpu_mdl_single_distribution_equals_robust(desk_knobs):
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, **desk_knobs)
    inst, target, o1 = _noiseless_setup(3, k=1)
    fam1 = imputed_family(o1, np.zeros(inst.m, dtype=np.int8))
    pr = passive_rpu_mdl(inst.hypothesis_class, fam1, o1, range(1), xi=0.25,
                         delta=0.1, s_star=8, cfg=cfg,
                         abstain_mass=lambda i, g: inst.distributions[i].mass_exact(
                             [x for x in range(inst.m) if g.outputs[x] == 0]))
    inst2, _, o2 = _noiseless_setup(3, k=1)
    fam2 = imputed_family(o2, np.zeros(inst2.m, dtype=np.int8))
    f2 = robust_rpu_learn(inst2.hypothesis_class, lambda n: fam2.draw(0, n),
                          xi=0.125, delta=0.05, s_star=8, cfg=cfg)
    assert pr.failure_mode is None and pr.rounds == 1
    assert np.array_equal(pr.classifier.outputs, f2.outputs)


def test_passive_rpu_mdl_prunes_by_halving(desk_knobs):
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, **desk_knobs)
    halved = total = 0
    for seed in range(15):
        inst, target, o = _noiseless_setup(seed, k=4)
        fam = imputed_family(o, np.zeros(inst.m, dtype=np.int8))
        pr = passive_rpu_mdl(inst.hypothesis_class, fam, o, range(4), xi=0.25,
                             delta=0.1, s_star=amdl.star_number_unqualified(
                                 inst.hypothesis_class).value,
                             cfg=cfg,
                             abstain_mass=lambda i, g, inst=inst:
                             inst.distributions[i].mass_exact(
                                 [x for x in range(inst.m) if g.outputs[x] == 0]))
        assert pr.failure_mode is None
        survivors = [4]
        for masses in pr.per_round_abstain:
            pruned = sum(1 for v in masses.values() if v <= 0.25)
            nxt = len(masses) - pruned
            total += 1
            halved += nxt <= math.ceil(len(masses) / 2)
            survivors.append(nxt)
    assert halved / total >= 0.9  # statistical halving at the 1-delta level


def test_passive_rpu_mdl_stall_reported(desk_knobs):
    # single-example batches leave the anchor-flip points under the committing
    # threshold forever, so the abstention mass never drops below the target
    # and pruning stalls at the round cap
    knobs = dict(desk_knobs, c_n=1e-9)
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, **knobs)
    inst = amdl.gen_prop1(2, 0.1)
    o = OracleSet(inst, 0)
    fam = imputed_family(o, np.zeros(inst.m, dtype=np.int8))
    pr = passive_rpu_mdl(inst.hypothesis_class, fam, o, range(2), xi=0.01,
                         delta=0.1, s_star=2, cfg=cfg,
                         abstain_mass=lambda i, g: inst.distributions[i].mass_exact(
                             [x for x in range(inst.m) if g.outputs[x] == 0]))
    assert pr.failure_mode == "pruning_stalled"
    assert pr.classifier is None
    assert pr.rounds == 4 * math.ceil(math.log2(2)) + 4


def test_imputed_distribution_consistency(desk_knobs):
    # the abstain-imputed sampler realizes the closed-form epoch distribution
    inst = amdl.gen_star_lb(2, 4, 1, 1)
    f = np.array([1, -1, 0, 0, -1, 0, 1, 0], dtype=np.int8)
    o = OracleSet(inst, seed=5)
    n = 100_000
    xs, ys = imputed_family(o, f).draw(0, n)
    counts = Counter(zip(xs.tolist(), ys.tolist()))
    exact = imputed_distribution(inst.distributions[0], f).joint_exact()
    assert empirical_tv(counts, exact, n) <= 0.02


def test_active_dist_free_schedule_degeneracy(desk_knobs):
    # s >= (d+k)/eps collapses the schedule to a single passive solve
    inst = amdl.gen_star_lb(2, 4, 1, 1)
    cfg = SolverConfig(eps=0.5, delta=0.1, nu=0.0, **desk_knobs)
    o = OracleSet(inst, seed=0)
    res = active_dist_free(inst, o, 0.5, 0.1, s_star=8, d=1, cfg=cfg)
    assert res.ok
    assert res.metadata["schedule_n0"] == 1
    assert len(res.trace) == 1


def test_active_dist_free_success_and_reliability(desk_knobs):
    inst = amdl.gen_star_lb(2, 4, 1, 3)
    target = amdl.best_nu(inst)[0]
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, **desk_knobs)
    ok = 0
    abst_ok = 0
    trials = 25
    for seed in range(trials):
        o = OracleSet(inst, seed)
        res = active_dist_free(inst, o, 0.1, 0.1, s_star=8, d=1, cfg=cfg)
        if not res.ok:
            continue
        wl = amdl.worst_loss(res.output, inst)
        ok += wl <= 0.1 + 1e-12
        # every intermediate classifier is recorded with its epoch trace row
        abst_ok += all(row[2] <= row[1] for row in res.trace[:-1])
        for outputs in res.metadata["classifiers"]:
            committed = outputs != 0
            assert np.all(outputs[committed] == target.labels[committed])
    assert ok >= trials - 2
    assert abst_ok >= trials - 2


def test_active_dist_free_final_label_cost_reconciles(desk_knobs):
    # the last epoch's label cost is the passive draw count thinned by the
    # abstention mass of the final classifier; a rare disagreement point keeps
    # that mass fractional under tiny batches, exhibiting the savings mechanism
    from amdl import (FeatureSpace, Hypothesis, HypothesisClass,
                      LabeledDistribution, MDLInstance)
    cls = HypothesisClass([Hypothesis([-1, -1, -1, -1]), Hypothesis([1, -1, -1, -1]),
                           Hypothesis([-1, 1, -1, -1]), Hypothesis([-1, -1, 1, -1])])
    d1 = LabeledDistribution([Fraction(1, 100), Fraction(99, 100), Fraction(0),
                              Fraction(0)], [Fraction(0)] * 4)
    d2 = LabeledDistribution([Fraction(0), Fraction(0), Fraction(1, 2),
                              Fraction(1, 2)], [Fraction(0)] * 4)
    inst = MDLInstance(FeatureSpace(4), cls, [d1, d2])
    knobs = dict(desk_knobs, c_n=0.01)
    cfg = SolverConfig(eps=0.2, delta=0.1, nu=0.0, **knobs)
    reconciled = 0
    fractional = 0
    for seed in range(10):
        o = OracleSet(inst, seed)
        res = active_dist_free(inst, o, 0.2, 0.1, s_star=3, d=1, cfg=cfg)
        assert res.ok
        md = res.metadata
        draws = np.array(md["final_draws_per_dist"], dtype=float)
        masses = np.array(md["final_abstain_per_dist"])
        labels = np.array(md["final_labels_per_dist"], dtype=float)
        expect = draws * masses
        sd = np.sqrt(np.maximum(draws * masses * (1 - masses), 0.0))
        reconciled += bool(np.all(np.abs(labels - expect) <= 3 * sd + 1e-9))
        fractional += bool(np.any((masses > 0) & (masses < 1)))
        assert labels.sum() <= 0.25 * draws.sum()  # the savings are real
    assert fractional >= 3  # the rare point stays below the commit threshold
    assert reconciled >= 9  # 3-sigma reconciliation


def test_active_dist_free_final_target_switch(desk_knobs):
    inst = amdl.gen_star_lb(2, 4, 1, 1)
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, **desk_knobs)
    o = OracleSet(inst, seed=0)
    res = active_dist_free(inst, o, 0.1, 0.1, s_star=8, d=1, cfg=cfg)
    assert res.metadata["final_target"] == 0.1

