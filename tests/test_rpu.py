"""Reliable abstaining classifiers and the distribution-free pipeline."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import amdl
from amdl import (AbstainingClassifier, ContractViolation, OracleSet,
                  SolverConfig)
from amdl.oracles import imputed_family, plain_family
from amdl.rpu import (active_dist_free, mixture_draw, passive_rpu_mdl, robust_rpu_learn,
                      threshold_majority)
from amdl.runplan import batch_size, plan, robust

from closed_forms import (imputed_distribution, joint_exact, mass_exact, mixture_draw_reference,
                          robust_rpu_reference, robust_sizes, rpu_report)
from conftest import empirical_tv


def test_abstaining_classifier_validation():
    AbstainingClassifier([1, 0, -1])
    with pytest.raises(ContractViolation):
        AbstainingClassifier([1, 2, 0])
    # checked before the int8 cast, which wraps 255 to -1 and -255 to +1
    # and cuts 0.5 to 0
    for value in (255, -255, 0.5, 2):
        with pytest.raises(ContractViolation, match="outputs"):
            AbstainingClassifier(np.array([value, 0]))


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
    assert batch_size(np.int64(4), 0.5) == batch_size(4, 0.5)
    with pytest.raises(ContractViolation):
        batch_size(4, 0.0)


@pytest.mark.parametrize("s_star, c_n", [(-1, 1.0), (-5, 1.0), (4, 0.0), (4, -1.0),
                                         (4, math.nan), (4, math.inf), (2.5, 1.0), (True, 1.0)])
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
        f = robust_rpu_learn(inst.hypothesis_class, mixture_draw(fam, o, (0,)),
                             *robust_sizes(0.25, 0.1, 8, cfg.c_n))
        rep = rpu_report(inst, f, target.labels, labels_used=o.ledger.label_total)
        violations += any(v > 0 for v in rep.violation_mass)
        abstain_ok += rep.abstention_mass[0] <= 0.25
    assert violations == 0
    assert abstain_ok >= 27  # 1 - delta of trials


@pytest.mark.parametrize("N, n", [(60, 0), (60, 2.5), (0, 4), (True, 4), (60, True)], ids=str)
def test_robust_rpu_learn_refuses_a_bad_batch_count_or_size(N, n):
    # n = 0 raised ZeroDivisionError, n = 2.5 TypeError; N = 0 abstained everywhere
    inst = amdl.gen_prop1(2, 0.2)
    o = OracleSet(inst, 0)
    with pytest.raises(ContractViolation, match="^N |^n "):
        robust_rpu_learn(inst.hypothesis_class, mixture_draw(plain_family(o), o, (0,)), N, n)
    assert o.ledger.unlabeled_total == 0


def test_robust_rpu_learn_takes_numpy_integers():
    outs = []
    for cast in (int, np.int64):
        inst = amdl.gen_prop1(2, 0.2)
        o = OracleSet(inst, 0)
        outs.append(robust_rpu_learn(inst.hypothesis_class, mixture_draw(plain_family(o), o, (0,)),
                                     cast(60), cast(4)).outputs.tolist())
    assert outs[0] == outs[1]


def test_robust_rpu_learn_tolerates_corrupted_batches(desk_knobs):
    # heavy label noise: batches are frequently inconsistent and vote nothing;
    # the output must still be a valid classifier
    inst = amdl.gen_agnostic_lb(2, 0.4, 0.05)
    o = OracleSet(inst, seed=0)
    fam = imputed_family(o, np.zeros(inst.m, dtype=np.int8))
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.3, **desk_knobs)
    f = robust_rpu_learn(inst.hypothesis_class, mixture_draw(fam, o, (0,)),
                         *robust_sizes(0.5, 0.2, 2, cfg.c_n))
    assert set(np.unique(f.outputs)) <= {-1, 0, 1}


def _half_abstaining(inst):
    # the first member's labels, abstaining on every other point
    out = inst.hypothesis_class.labels[0].copy()
    out[1::2] = 0
    return out


# (instance, view, members, star number, xi, delta, c_n): batches of 4886
# pairs (more than a slab), 7 pairs (each of four members draws none in about
# one batch in seven), 183 pairs (slabs of 22 batches, the last one short),
# label noise that corrupts batches, and a view that queries no point
RPU_BATCH_CASES = {
    "star-lb/abstain/large": (lambda: amdl.gen_star_lb(2, 4, 1, 1), None, (0, 1), 8, 0.25, 0.5,
                              1.0),
    "prop1/half/one": (lambda: amdl.gen_prop1(4, 0.1), _half_abstaining, (2,), 2, 0.5, 0.1, 0.3),
    "prop1/half/tiny": (lambda: amdl.gen_prop1(4, 0.1), _half_abstaining, (3, 0, 2, 1), 2, 0.5,
                        0.1, 0.01),
    "prop1/half/slabs": (lambda: amdl.gen_prop1(4, 0.1), _half_abstaining, (1, 3), 2, 0.5, 0.1,
                         0.3),
    "agnostic-lb/abstain": (lambda: amdl.gen_agnostic_lb(4, 0.4, 0.05), None, (0, 1, 2), 2, 0.5,
                            0.2, 0.3),
    "star-lb/commit": (lambda: amdl.gen_star_lb(2, 4, 1, 1),
                       lambda inst: amdl.best_nu(inst)[0].labels.copy(), (1, 0), 8, 0.5, 0.2,
                       0.3),
}


@pytest.mark.parametrize("log", [False, True])
@pytest.mark.parametrize("case", sorted(RPU_BATCH_CASES))
def test_batched_learner_equals_one_batch_at_a_time(case, log, desk_knobs):
    gen, view, members, s_star, xi, delta, c_n = RPU_BATCH_CASES[case]
    inst = gen()
    outputs = np.zeros(inst.m, dtype=np.int8) if view is None else view(inst)
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, **dict(desk_knobs, c_n=c_n))
    seen = []
    for batched in (True, False):
        o = OracleSet(inst, seed=7, log_transcript=log)
        fam = imputed_family(o, outputs)
        if batched:
            f = robust_rpu_learn(inst.hypothesis_class, mixture_draw(fam, o, members),
                                 *robust_sizes(xi, delta, s_star, c_n)).outputs
        else:
            f = robust_rpu_reference(inst.hypothesis_class,
                                     mixture_draw_reference(fam, o, members), xi, delta,
                                     s_star, cfg)
        seen.append((f.tolist(), o.ledger.label_queries.tolist(),
                     o.ledger.unlabeled_draws.tolist(),
                     [stream.consumed for stream in o._streams], o._aux.consumed,
                     o.ledger.transcript))
    assert seen[0] == seen[1]
    assert len(seen[0][5]) == (sum(seen[0][1]) if log else 0)


def test_passive_rpu_mdl_single_distribution_equals_robust(desk_knobs):
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, **desk_knobs)
    inst, target, o1 = _noiseless_setup(3, k=1)
    fam1 = imputed_family(o1, np.zeros(inst.m, dtype=np.int8))
    pr = passive_rpu_mdl(inst.hypothesis_class, fam1, o1, range(1),
                         robust(1, 0.25, 0.1, 8, cfg.c_n),
                         abstain_mass=lambda i, g: mass_exact(
                             inst.distributions[i], np.flatnonzero(g.outputs == 0)))
    inst2, _, o2 = _noiseless_setup(3, k=1)
    fam2 = imputed_family(o2, np.zeros(inst2.m, dtype=np.int8))
    f2 = robust_rpu_learn(inst2.hypothesis_class, mixture_draw(fam2, o2, (0,)),
                          *robust_sizes(0.125, 0.05, 8, cfg.c_n))
    assert pr.failure_mode is None and pr.rounds == 1
    assert np.array_equal(pr.classifier.outputs, f2.outputs)


def test_passive_rpu_mdl_prunes_by_halving(desk_knobs):
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, **desk_knobs)
    halved = total = 0
    for seed in range(15):
        inst, target, o = _noiseless_setup(seed, k=4)
        fam = imputed_family(o, np.zeros(inst.m, dtype=np.int8))
        s_star = amdl.star_number_unqualified(inst.hypothesis_class).value
        pr = passive_rpu_mdl(inst.hypothesis_class, fam, o, range(4),
                             robust(4, 0.25, 0.1, s_star, cfg.c_n),
                             abstain_mass=lambda i, g, inst=inst: mass_exact(
                                 inst.distributions[i], np.flatnonzero(g.outputs == 0)))
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
    pr = passive_rpu_mdl(inst.hypothesis_class, fam, o, range(2),
                         robust(2, 0.01, 0.1, 2, cfg.c_n),
                         abstain_mass=lambda i, g: mass_exact(
                             inst.distributions[i], np.flatnonzero(g.outputs == 0)))
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
    exact = joint_exact(imputed_distribution(inst.distributions[0], f))
    assert empirical_tv(counts, exact, n) <= 0.02


def test_active_dist_free_schedule_degeneracy(desk_knobs):
    # s >= (d+k)/eps collapses the schedule to a single passive solve
    inst = amdl.gen_star_lb(2, 4, 1, 1)
    cfg = SolverConfig(eps=0.5, delta=0.1, nu=0.0, **desk_knobs)
    o = OracleSet(inst, seed=0)
    res = active_dist_free(inst, o, plan("active-df", cfg, inst.k, 1, 8))
    assert res.ok
    assert len(res.plan.epochs) == 1
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
        res = active_dist_free(inst, o, plan("active-df", cfg, inst.k, 1, 8))
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
    from amdl import Hypothesis, HypothesisClass, LabeledDistribution, MDLInstance
    cls = HypothesisClass([Hypothesis([-1, -1, -1, -1]), Hypothesis([1, -1, -1, -1]),
                           Hypothesis([-1, 1, -1, -1]), Hypothesis([-1, -1, 1, -1])])
    d1 = LabeledDistribution([Fraction(1, 100), Fraction(99, 100), Fraction(0),
                              Fraction(0)], [Fraction(0)] * 4)
    d2 = LabeledDistribution([Fraction(0), Fraction(0), Fraction(1, 2),
                              Fraction(1, 2)], [Fraction(0)] * 4)
    inst = MDLInstance(cls, [d1, d2])
    knobs = dict(desk_knobs, c_n=0.01)
    cfg = SolverConfig(eps=0.2, delta=0.1, nu=0.0, **knobs)
    reconciled = 0
    fractional = 0
    for seed in range(10):
        o = OracleSet(inst, seed)
        res = active_dist_free(inst, o, plan("active-df", cfg, inst.k, 1, 3))
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
    # the last epoch's passive solve targets the run's eps, not 2^-n0
    inst = amdl.gen_star_lb(2, 4, 1, 1)
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, **desk_knobs)
    res = active_dist_free(inst, OracleSet(inst, seed=0), plan("active-df", cfg, inst.k, 1, 8))
    final = res.plan.epochs[-1]
    assert final.solve.eps == 0.1 and final.eps_n == 2.0 ** -len(res.plan.epochs) != 0.1
