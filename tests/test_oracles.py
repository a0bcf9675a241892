"""Metered oracles and label-efficient samplers."""

import bisect
import hashlib
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amdl
from amdl import (ContractViolation, DegenerateAgreementRegion, Hypothesis,
                  HypothesisClass, LabeledDistribution, MDLInstance, OracleSet)
from amdl import oracles
from amdl.core import loss_exact
from amdl.hedge import SolverConfig, hyperparams, mdl_hedge_vc
from amdl.harness import PROFILES, RunConfig, run_single_trial, run_trials

from closed_forms import (best_nu_index, conditional_agreement_reference, imputed_distribution,
                          induced_distribution, joint_exact, surrogate_joint_exact)
from conftest import empirical_tv, round_losses, two_point_instance


def test_draw_unlabeled_point_mass():
    cls = HypothesisClass([Hypothesis([1, 1])])
    dist = LabeledDistribution([0.0, 1.0], [0.5, 0.5])
    inst = MDLInstance(cls, [dist])
    o = OracleSet(inst, seed=0)
    # a singleton version space imputes every label: the draw queries none
    xs, _ = amdl.induced_family(o, (0,)).draw(0, 1000)
    assert np.all(xs == 1)
    assert o.ledger.unlabeled_draws[0] == 1000
    assert o.ledger.label_total == 0


def test_draw_unlabeled_uniform_frequencies():
    inst = two_point_instance()
    o = OracleSet(inst, seed=1)
    xs, _ = amdl.induced_family(o, (0,)).draw(0, 100_000)
    assert abs(np.mean(xs == 0) - 0.5) < 0.01


def test_seed_replay_identical():
    inst = two_point_instance()
    a = OracleSet(inst, seed=7)
    b = OracleSet(inst, seed=7)
    xa, ya = a.draw_labeled_batch(0, 500)
    xb, yb = b.draw_labeled_batch(0, 500)
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)


def test_query_label_deterministic_eta():
    cls = HypothesisClass([Hypothesis([1, 1])])
    dist = LabeledDistribution([0.5, 0.5], [1.0, 0.0])
    inst = MDLInstance(cls, [dist])
    o = OracleSet(inst, seed=0)
    xs, ys = amdl.plain_family(o).draw(0, 100)
    assert set(xs.tolist()) == {0, 1}
    assert np.array_equal(ys, np.where(xs == 0, 1, -1))
    assert o.ledger.label_queries[0] == 100


def test_query_label_bernoulli_rate():
    # eta_plus is 1/4 at point 0 and 3/4 at point 1
    o = OracleSet(two_point_instance(), seed=3)
    xs, ys = amdl.plain_family(o).draw(0, 200_000)
    for x, rate in ((0, 0.25), (1, 0.75)):
        assert abs(np.mean(ys[xs == x] == 1) - rate) < 0.01


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False])
def test_oracle_set_refuses_a_bad_seed(seed):
    with pytest.raises(ContractViolation, match="seed"):
        OracleSet(two_point_instance(), seed)
    OracleSet(two_point_instance(), np.int64(3))


def test_index_out_of_range():
    inst = two_point_instance()
    o = OracleSet(inst, seed=0)
    with pytest.raises(ContractViolation):
        o.draw_labeled_batch(5, 1)
    with pytest.raises(ContractViolation):
        o.sample_conditional_agreement(2, (0,), 1)


_S = (np.array([2, 3]), np.array([1, -1], dtype=np.int8))

# every public sampler with a bad count, and the family entry points
BAD_CALLS = {
    "draw_labeled_batch": lambda o: o.draw_labeled_batch(0, -1),
    "sample_conditional_agreement": lambda o: o.sample_conditional_agreement(0, (0, 1), -3),
    "aux_choice_batch-count": lambda o: o.aux_choice_batch(-1, 3),
    "aux_choice_batch-empty-range": lambda o: o.aux_choice_batch(4, 0),
    "plain_family.draw": lambda o: amdl.plain_family(o).draw(0, -3),
    "induced_family.draw": lambda o: amdl.induced_family(o, (0, 1)).draw(0, -1),
    "imputed_family.draw": lambda o: amdl.imputed_family(
        o, np.array([0, 1, 0, -1], dtype=np.int8)).draw(0, -5),
    "surrogate_family.draw": lambda o: amdl.surrogate_family(o, (0, 1), [_S]).draw(0, -1),
    "round_losses-zero-count": lambda o: round_losses(
        amdl.plain_family(o), o.instance.hypothesis_class.labels, 0, [0], 3),
    # the induced and surrogate samplers' batches: the round path a chunk runs
    "sample_induced_batch": lambda o: round_losses(
        amdl.induced_family(o, (0, 1)), o.instance.hypothesis_class.labels, 0, [-1], 3),
    "sample_surrogate_batch": lambda o: round_losses(
        amdl.surrogate_family(o, (0, 1), [_S]), o.instance.hypothesis_class.labels, 0, [-1], 3),
    # a count, index or size that is a bool or not an integer
    "draw_labeled_batch-fractional-count": lambda o: o.draw_labeled_batch(0, 2.5),
    "draw_labeled_batch-bool-index": lambda o: o.draw_labeled_batch(False, 3),
    "sample_conditional_agreement-fractional-count":
        lambda o: o.sample_conditional_agreement(0, (0, 1), 2.5),
    "aux_choice_batch-fractional-size": lambda o: o.aux_choice_batch(3, 2.5),
    "aux_choice_batch-bool-count": lambda o: o.aux_choice_batch(True, 3),
    "plain_family.draw-fractional-count": lambda o: amdl.plain_family(o).draw(0, 2.5),
    "plain_family.draw-fractional-index": lambda o: amdl.plain_family(o).draw(0.5, 3),
    "plain_family.draw-bool-count": lambda o: amdl.plain_family(o).draw(0, True),
    "round_losses-fractional-count": lambda o: round_losses(
        amdl.plain_family(o), o.instance.hypothesis_class.labels, 0, [1.5], 3),
    "round_losses-fractional-horizon": lambda o: round_losses(
        amdl.plain_family(o), o.instance.hypothesis_class.labels, 0, [2], 2.5),
    "round_losses-a-count-per-member-short": lambda o: round_losses(
        amdl.plain_family(o), o.instance.hypothesis_class.labels, 0, [2, 2], 3),
    "serve-bool": lambda o: _served(amdl.plain_family(o), True),
    # no block to serve from before the first `tables`
    "serve-before-tables": lambda o: amdl.plain_family(o).serve(1),
    # a candidate label other than -1 or +1, which the surrogate pick pass cannot score
    "row-zero-candidate-label": lambda o: amdl.surrogate_family(o, (0, 1), [_S]).row(
        o.instance.hypothesis_class.labels * 0, 0, [2], 1),
    # a stretch must draw at least one row
    "row-zero-cap": lambda o: amdl.plain_family(o).row(o.instance.hypothesis_class.labels,
                                                       0, [2], 0),
    "row-fractional-cap": lambda o: amdl.plain_family(o).row(o.instance.hypothesis_class.labels,
                                                             0, [2], 1.5),
}


def _served(fam, m):
    fam.tables(fam.oracles.instance.hypothesis_class.labels, [2], 3)
    fam.serve(m)


# the integer arguments of each sampler entry point, as Python ints and as numpy ints
INT_CALLS = {
    "draw_labeled_batch": lambda o, n: o.draw_labeled_batch(n(0), n(5)),
    "sample_conditional_agreement":
        lambda o, n: o.sample_conditional_agreement(n(0), (n(0), n(1)), n(4)),
    "aux_choice_batch": lambda o, n: o.aux_choice_batch(n(4), n(3)),
    "plain_family.draw": lambda o, n: amdl.plain_family(o).draw(n(0), n(3)),
    "draw_requests": lambda o, n: amdl.plain_family(o).draw_requests(
        [n(0)], np.array([[2, 3]])),
    "round_losses": lambda o, n: round_losses(
        amdl.plain_family(o), o.instance.hypothesis_class.labels, n(1), [n(2)], n(3)),
    "serve": lambda o, n: _served(amdl.plain_family(o), n(2)),
    "row": lambda o, n: amdl.plain_family(o).row(
        o.instance.hypothesis_class.labels, n(1), [n(2)], n(3)),
    "induced_family": lambda o, n: amdl.induced_family(o, [n(0), n(1)]).draw(n(0), n(3)),
    "agreement_labels": lambda o, n: amdl.agreement_labels(o.instance.hypothesis_class,
                                                           [n(0), n(2)]),
}


@pytest.mark.parametrize("call", sorted(INT_CALLS))
def test_numpy_integers_are_served_as_ints(call):
    got = []
    for n in (int, np.int64):
        o = OracleSet(_induced_fixture(), seed=n(0), log_transcript=True)
        out = INT_CALLS[call](o, n)
        got.append((repr(out), [s.consumed for s in (*o._streams, o._aux)],
                    o.ledger.unlabeled_draws.tolist(), o.ledger.transcript))
    assert got[0] == got[1]


@pytest.mark.parametrize("call", sorted(BAD_CALLS))
def test_bad_counts_refused_before_any_state_moves(call):
    o = OracleSet(_induced_fixture(), seed=0, log_transcript=True)
    o.draw_labeled_batch(0, 5)
    o.aux_choice_batch(2, 3)
    streams = [s.consumed for s in (*o._streams, o._aux)]
    ledger = (o.ledger.label_queries.tolist(), o.ledger.unlabeled_draws.tolist(),
              list(o.ledger.transcript))
    with pytest.raises(ContractViolation):
        BAD_CALLS[call](o)
    assert [s.consumed for s in (*o._streams, o._aux)] == streams
    assert (o.ledger.label_queries.tolist(), o.ledger.unlabeled_draws.tolist(),
            o.ledger.transcript) == ledger


# every entry point that takes version-space members, with a member that is
# negative, out of the 3-member class's range, a float, a bool or a numpy float
BAD_MEMBERS = ([-1], [3], [1.0], [True], [0, np.float64(1)])
MEMBER_CALLS = {
    "agreement_labels": lambda o, V: amdl.agreement_labels(o.instance.hypothesis_class, V),
    "induced_family": lambda o, V: amdl.induced_family(o, V).draw(0, 3),
    "surrogate_family": lambda o, V: amdl.surrogate_family(o, V, [_S]).draw(0, 3),
    "sample_conditional_agreement": lambda o, V: o.sample_conditional_agreement(0, V, 2),
    "mdl_hedge_vc": lambda o, V: mdl_hedge_vc(
        o.instance.hypothesis_class, V, amdl.plain_family(o),
        SolverConfig(eps=0.1, delta=0.1, nu=0.0, **PROFILES["desk"]), 1, 1),
}


@pytest.mark.parametrize("members", BAD_MEMBERS, ids=repr)
@pytest.mark.parametrize("call", sorted(MEMBER_CALLS))
def test_bad_version_space_members_refused_before_any_draw(call, members):
    o = OracleSet(_induced_fixture(), seed=0, log_transcript=True)
    MEMBER_CALLS[call](o, (0, 1))           # a valid space is served
    streams = [s.consumed for s in (*o._streams, o._aux)]
    ledger = (o.ledger.label_queries.tolist(), o.ledger.unlabeled_draws.tolist())
    with pytest.raises(ContractViolation, match="member"):
        MEMBER_CALLS[call](o, members)
    assert [s.consumed for s in (*o._streams, o._aux)] == streams
    assert (o.ledger.label_queries.tolist(), o.ledger.unlabeled_draws.tolist()) == ledger


def test_family_calls_unmoved_by_a_refused_draw():
    o = OracleSet(two_point_instance(), seed=0)
    fam = amdl.plain_family(o)
    fam.draw(0, 4)
    with pytest.raises(ContractViolation):
        fam.draw(0, -3)
    assert o.ledger.unlabeled_draws.tolist() == o.ledger.label_queries.tolist() == [4]


def _induced_fixture():
    # 4 points, version space pinning down points {2,3} as agreement
    cls = HypothesisClass([
        Hypothesis([1, 1, 1, -1]),
        Hypothesis([-1, -1, 1, -1]),
        Hypothesis([1, -1, 1, -1]),
    ])
    dist = LabeledDistribution([Fraction(3, 10), Fraction(2, 10), Fraction(4, 10),
                                Fraction(1, 10)],
                               [Fraction(1, 2), Fraction(1, 4), Fraction(1), Fraction(0)])
    inst = MDLInstance(cls, [dist])
    return inst


def test_sample_induced_total_disagreement_costs_every_call():
    inst = two_point_instance()
    o = OracleSet(inst, seed=0)
    V = (0, 1)  # complements: DIS = X
    amdl.induced_family(o, V).draw(0, 200)
    assert o.ledger.label_queries[0] == 200


def test_sample_induced_singleton_version_space_free():
    inst = _induced_fixture()
    o = OracleSet(inst, seed=0)
    xs, ys = amdl.induced_family(o, (0,)).draw(0, 500)
    assert o.ledger.label_total == 0
    assert np.array_equal(ys, inst.hypothesis_class.labels[0][xs])


def test_sample_induced_label_cost_law():
    # expected cost per call = Pr[DIS(V)] = mass of {0,1} = 0.5
    inst = _induced_fixture()
    o = OracleSet(inst, seed=5)
    n = 100_000
    amdl.induced_family(o, (0, 1)).draw(0, n)
    p = 0.5
    sd = (n * p * (1 - p)) ** 0.5
    assert abs(o.ledger.label_total - n * p) <= 3 * sd


def test_sample_induced_matches_closed_form_pmf():
    inst = _induced_fixture()
    V = (0, 1)
    o = OracleSet(inst, seed=9)
    n = 100_000
    xs, ys = amdl.induced_family(o, V).draw(0, n)
    counts = Counter(zip(xs.tolist(), ys.tolist()))
    exact = joint_exact(induced_distribution(inst.distributions[0], inst.hypothesis_class, V))
    assert empirical_tv(counts, exact, n) <= 0.02


def test_sample_imputed_matches_plain_when_always_abstaining():
    inst = two_point_instance()
    a = OracleSet(inst, seed=4)
    b = OracleSet(inst, seed=4)
    f0 = np.zeros(2, dtype=np.int8)
    xa, ya = amdl.imputed_family(a, f0).draw(0, 300)
    xb, yb = amdl.plain_family(b).draw(0, 300)
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
    assert a.ledger.label_total == b.ledger.label_total == 300


def test_sample_imputed_total_classifier_free():
    inst = two_point_instance()
    o = OracleSet(inst, seed=4)
    f = np.array([1, -1], dtype=np.int8)
    xs, ys = amdl.imputed_family(o, f).draw(0, 400)
    assert o.ledger.label_total == 0
    assert np.array_equal(ys, f[xs])


def test_sample_imputed_label_rate_matches_abstention_mass():
    cls = HypothesisClass([Hypothesis([1, 1])])
    dist = LabeledDistribution([0.9, 0.1], [1.0, 0.5])
    inst = MDLInstance(cls, [dist])
    o = OracleSet(inst, seed=8)
    f = np.array([1, 0], dtype=np.int8)  # abstains on mass 0.1
    n = 100_000
    amdl.imputed_family(o, f).draw(0, n)
    assert abs(o.ledger.label_total / n - 0.1) < 0.01


def test_sample_imputed_matches_closed_form_pmf():
    inst = _induced_fixture()
    o = OracleSet(inst, seed=10)
    f = np.array([0, 1, 1, 0], dtype=np.int8)
    n = 100_000
    xs, ys = amdl.imputed_family(o, f).draw(0, n)
    counts = Counter(zip(xs.tolist(), ys.tolist()))
    exact = joint_exact(imputed_distribution(inst.distributions[0], f))
    assert empirical_tv(counts, exact, n) <= 0.02


def test_sample_surrogate_reduces_to_fresh_sampling_when_dis_is_everything():
    inst = two_point_instance()
    a = OracleSet(inst, seed=12)
    b = OracleSet(inst, seed=12)
    S = (np.array([0]), np.array([1], dtype=np.int8))
    xa, ya = amdl.surrogate_family(a, (0, 1), [S]).draw(0, 250)
    xb, yb = amdl.plain_family(b).draw(0, 250)
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)


def test_sample_surrogate_zero_cost_when_dis_empty():
    inst = _induced_fixture()
    o = OracleSet(inst, seed=12)
    S = (np.array([2, 3]), np.array([1, -1], dtype=np.int8))
    xs, ys = amdl.surrogate_family(o, (0,), [S]).draw(0, 400)
    assert o.ledger.label_total == 0
    # every returned pair is an element of S
    assert set(zip(xs.tolist(), ys.tolist())) <= {(2, 1), (3, -1)}


def test_sample_surrogate_matches_closed_form_pmf():
    inst = _induced_fixture()
    V = (0, 1)
    o = OracleSet(inst, seed=13)
    S = o.sample_conditional_agreement(0, V, 40)
    o2 = OracleSet(inst, seed=14)
    n = 100_000
    xs, ys = amdl.surrogate_family(o2, V, [S]).draw(0, n)
    counts = Counter(zip(xs.tolist(), ys.tolist()))
    exact = surrogate_joint_exact(inst.distributions[0], inst.hypothesis_class, V, S)
    assert empirical_tv(counts, exact, n) <= 0.02
    assert abs(float(sum(exact.values())) - 1.0) < 1e-12


def test_sample_surrogate_needs_nonempty_sample():
    inst = _induced_fixture()
    o = OracleSet(inst, seed=1)
    with pytest.raises(ContractViolation):
        amdl.surrogate_family(o, (0, 1),
                              [(np.empty(0, dtype=int), np.empty(0, dtype=np.int8))])


# pre-labeled samples a surrogate kernel cannot read: a point past m was
# served, a label of 5 too, a short label array raised IndexError and two
# lists AttributeError; 127 * 127 wraps to 1 in int8
BAD_SAMPLES = {
    "point-past-m": (np.array([99]), np.array([1])),
    "negative-point": (np.array([-1]), np.array([1])),
    "label-5": (np.array([0]), np.array([5])),
    "label-0": (np.array([0]), np.array([0])),
    "label-127-int8": (np.array([0]), np.array([127], dtype=np.int8)),
    "short-labels": (np.array([0, 1]), np.array([1])),
    "two-lists": ([0], [1]),
    "float-points": (np.array([0.0]), np.array([1])),
    "one-array": (np.array([0]),),
}


@pytest.mark.parametrize("case", sorted(BAD_SAMPLES))
def test_surrogate_family_refuses_a_sample_it_cannot_read(case):
    inst = amdl.gen_prop1(2, 0.2)
    o = OracleSet(inst, seed=0, log_transcript=True)
    amdl.plain_family(o).draw(0, 3)
    streams, metered = [s.consumed for s in (*o._streams, o._aux)], _metered(o)
    good = (np.array([0, inst.m - 1]), np.array([1, -1], dtype=np.int8))
    with pytest.raises(ContractViolation, match="pre-labeled sample"):
        amdl.surrogate_family(o, (0, 1), [good, BAD_SAMPLES[case]])
    assert [s.consumed for s in (*o._streams, o._aux)] == streams
    assert _metered(o) == metered
    amdl.surrogate_family(o, (0, 1), [good, None]).draw(1, 2)


def test_conditional_agreement_plain_when_agreement_is_everything():
    inst = _induced_fixture()
    o = OracleSet(inst, seed=2)
    xs, ys = o.sample_conditional_agreement(0, (0,), 100)
    assert o.ledger.label_queries[0] == 100
    assert o.ledger.unlabeled_draws[0] == 100


def test_conditional_agreement_single_point_region():
    # agreement region of {0,1} is {2,3}; point 3 has mass 0.1, point 2 has 0.4
    inst = _induced_fixture()
    o = OracleSet(inst, seed=2)
    xs, ys = o.sample_conditional_agreement(0, (0, 1), 300)
    assert set(xs.tolist()) <= {2, 3}
    assert o.ledger.label_queries[0] == 300


def test_conditional_agreement_rejection_cost():
    # agreement mass is 0.5: expect about 2n unlabeled draws for n accepted
    inst = _induced_fixture()
    o = OracleSet(inst, seed=21)
    n = 20_000
    o.sample_conditional_agreement(0, (0, 1), n)
    assert o.ledger.label_queries[0] == n
    draws = o.ledger.unlabeled_draws[0]
    sd = (n * 0.5 / 0.5 ** 2) ** 0.5  # negative-binomial failure spread
    assert abs(draws - 2 * n) <= 4 * sd


def test_conditional_agreement_degenerate_region():
    inst = two_point_instance()
    o = OracleSet(inst, seed=0)
    with pytest.raises(DegenerateAgreementRegion):
        o.sample_conditional_agreement(0, (0, 1), 10)


def _agreement_mass_instance(mass: Fraction) -> MDLInstance:
    # two hypotheses that disagree on point 1 only, which carries 1 - mass
    cls = HypothesisClass([Hypothesis([1, 1, -1]), Hypothesis([1, -1, -1])])
    dist = LabeledDistribution([mass / 2, 1 - mass, mass / 2],
                               [Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)])
    return MDLInstance(cls, [dist])


def _generator_sequence(seed: int, i: int, k: int):
    """Stream i's variates of an oracle set with this seed, one at a time."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(k + 1)[i])
    while True:
        yield from rng.random(1024).tolist()


@pytest.mark.parametrize("n", [0, 1, 37, 1500, 5000])
@pytest.mark.parametrize("mass", [Fraction(999, 1000), Fraction(3, 5), Fraction(1, 2),
                                  Fraction(1, 100)], ids=str)
def test_conditional_agreement_equals_one_variate_at_a_time(monkeypatch, mass, n):
    # the points, labels, ledger and stream position of the one-at-a-time
    # rejection loop; no read ahead while rejecting takes more than a buffer
    # block or twice the points still needed
    inst = _agreement_mass_instance(mass)
    o = OracleSet(inst, seed=8)
    stream = o._streams[0]
    stream.take(5)
    reads = []
    ahead = oracles._Uniforms.ahead

    def logged(self, size):
        reads.append((self.consumed - 5, size))
        return ahead(self, size)

    monkeypatch.setattr(oracles._Uniforms, "ahead", logged)
    xs, ys = o.sample_conditional_agreement(0, (0, 1), n)
    monkeypatch.undo()
    uniforms = _generator_sequence(8, 0, inst.k)
    for _ in range(5):
        next(uniforms)
    want_xs, want_ys, accepted_at = conditional_agreement_reference(
        inst.distributions[0], inst.hypothesis_class, (0, 1), uniforms, n)
    draws = accepted_at[-1] + 1 if n else 0
    assert xs.tolist() == want_xs and ys.tolist() == want_ys
    assert o.ledger.label_queries.tolist() == [n]
    assert o.ledger.unlabeled_draws.tolist() == [draws]
    assert stream.consumed == 5 + draws + n
    rejecting = [(at, size) for at, size in reads if at < draws]
    assert bool(rejecting) == bool(n)
    for at, size in rejecting:
        need = n - bisect.bisect_left(accepted_at, at)
        assert size <= max(oracles.BLOCK, 2 * need), (at, size, need)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_favorable_bias_exact(seed):
    # when imputation agrees with the labeling hypothesis on the agreement
    # region, excess losses can only grow under the imputed distribution
    inst = amdl.gen_random(5, 6, 2, seed=seed, realizable=True)
    cls = inst.hypothesis_class
    hstar_idx = best_nu_index(inst)
    assert inst.nu_exact() == 0
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, len(cls) + 1))
    V = sorted(set(rng.choice(len(cls), size=size, replace=False).tolist())
               | {hstar_idx})
    hstar = cls[hstar_idx]
    for d in inst.distributions:
        tilde = induced_distribution(d, cls, V)
        for h in cls.hypotheses:
            lhs = loss_exact(h, d) - loss_exact(hstar, d)
            rhs = loss_exact(h, tilde) - loss_exact(hstar, tilde)
            assert lhs <= rhs


def test_ledger_isolation_between_distributions():
    inst = amdl.gen_prop1(3, 0.2)
    o = OracleSet(inst, seed=0)
    o.draw_labeled_batch(1, 50)
    assert o.ledger.label_queries.tolist() == [0, 50, 0]
    assert o.ledger.unlabeled_draws.tolist() == [0, 50, 0]


def test_transcript_records_every_label_query(tmp_path):
    inst = two_point_instance()
    o = OracleSet(inst, seed=0, log_transcript=True)
    o.draw_labeled_batch(0, 25)
    amdl.induced_family(o, (0, 1)).draw(0, 25)
    assert len(o.ledger.transcript) == o.ledger.label_total == 50
    assert [rec[3] for rec in o.ledger.transcript] == list(range(1, 51))
    # the harness writes each trial's ledger transcript, one line per label
    # query, prefixed by the trial's seed
    path = tmp_path / "transcript.log"
    cfg = RunConfig(alg="passive-naive", eps=0.2, delta=0.1, trials=2, base_seed=3,
                    instance=inst, transcript_path=str(path))
    recs = run_trials(cfg)
    p = cfg.plan()
    want = []
    for rec in recs:
        _, _, trial = run_single_trial(inst, p, rec.seed, trace=True)
        assert len(trial.ledger.transcript) == rec.labels_total > 0
        want.extend(f"{rec.seed},{i},{x},{y},{cum}"
                    for i, x, y, cum in trial.ledger.transcript)
    assert path.read_text().splitlines() == want


# -- the fused solver round -------------------------------------------------------

def _three_distribution_fixture():
    # the _induced_fixture class over three distinct distributions
    cls = _induced_fixture().hypothesis_class
    dists = [
        LabeledDistribution([Fraction(3, 10), Fraction(2, 10), Fraction(4, 10),
                             Fraction(1, 10)],
                            [Fraction(1, 2), Fraction(1, 4), Fraction(1), Fraction(0)]),
        LabeledDistribution([Fraction(1, 4)] * 4,
                            [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1, 5)]),
        LabeledDistribution([Fraction(1, 10), Fraction(1, 10), Fraction(1, 10),
                             Fraction(7, 10)],
                            [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 2)]),
    ]
    return MDLInstance(cls, dists)


_SAMPLE = (np.array([2, 3, 2], dtype=np.int64), np.array([1, -1, -1], dtype=np.int8))

# each family on the version space V, (0, 1) unless given
FAMILY_BUILDERS = {
    "plain": lambda o, V=(0, 1): amdl.plain_family(o),
    "induced": lambda o, V=(0, 1): amdl.induced_family(o, V),
    "imputed": lambda o, V=(0, 1): amdl.imputed_family(
        o, np.resize(np.array([0, 1, 0, -1], dtype=np.int8), o.instance.m)),
    "surrogate": lambda o, V=(0, 1): amdl.surrogate_family(o, V, [_SAMPLE] * o.instance.k),
    "surrogate-none": lambda o, V=(0, 1): amdl.surrogate_family(
        o, V, [None if i == 1 else _SAMPLE for i in range(o.instance.k)]),
}

TWIN_INSTANCES = {
    "three": _three_distribution_fixture,
    "prop1-k8": lambda: amdl.gen_prop1(8, 0.05),
}


class _DrawnRounds:
    """A family whose rounds are, by definition, k `draw` calls in index
    order: the reference the run and row paths must equal."""

    def __init__(self, family):
        self.family = family
        self.k, self.oracles = family.k, family.oracles

    def draw(self, i, n):
        return self.family.draw(i, n)

    def round_losses(self, labels, j, counts, rounds_left):
        losses = []
        for i, n in enumerate(counts):
            xs, ys = self.family.draw(i, n)
            losses.append(float((labels[j][xs] != ys).mean()))
        return losses

    def row(self, labels, j, counts, cap):
        # rows up to the first with a loss, or cap rows, each one k draws
        for rows in range(1, cap + 1):
            losses = self.round_losses(labels, j, counts, 1)
            if any(losses):
                break
        return losses, rows


class _BlockRounds:
    """A family whose rounds are served one at a time from its blocks
    (`round_losses`: a `tables` call, then `serve(1)`), as `hedge._play_chunk`
    serves the rounds of a chunk."""

    def __init__(self, family):
        self.family = family
        self.draw, self.row = family.draw, family.row

    def round_losses(self, labels, j, counts, rounds_left):
        return round_losses(self.family, labels, j, counts, rounds_left)


def _scripted_ops(k: int) -> list[tuple]:
    """Solves of a few rounds each, with the events that must drop a block in
    between.  Count changes hit one distribution in the middle of its block;
    the 5000s cross a buffer refill within one request, the 700s carry each
    stream across the next block boundaries two requests per block; store
    growth, agreement sampling and plain labeled draws read the streams
    between rounds; each solve's horizon ends part-way into a buffer, and
    one solve stops short of the horizon it announced.  The last solve is
    resumed on its own candidate matrix and counts after a plain draw, an
    agreement sample and an empty draw, each in the middle of its blocks."""
    small = [tuple((3 * t + i) % 4 + 1 for i in range(k)) for t in range(4)]
    grow = tuple(v + (i == 1) for i, v in enumerate(small[0]))
    big = [tuple(5000 if i == t else 1 for i in range(k)) for t in range(2)]
    return [
        ("solve", 0, [small[0]] * 3 + [grow] * 2 + [small[1]] * 2),
        ("draw", 1, 7), ("draw", k - 1, 1),
        ("solve", 1, [small[2], small[2], small[3]]),
        ("agree", 0, 25),
        ("solve", 2, [small[3]] * 2 + big + [(700,) * k] * 5),
        ("labeled", k - 1, 1),
        ("solve", 0, [small[1]] * 6 + [small[0]] * 3),
        ("draw", 0, 3000),
        ("solve", 1, [grow, grow], 4),
        ("solve", 0, [grow] * 3),
        ("solve", 2, [small[1]] * 2, 12), ("draw", 1, 7), ("resume", [small[1]], 11),
        ("agree", 0, 25), ("resume", [small[1]] * 2, 9), ("draw", 2, 0),
        ("resume", [small[1]] * 3, 6),
    ]


def _run_ops(o: OracleSet, family, ops: list[tuple]):
    """Play `ops` on one oracle set, yielding what every round and every
    other op returns as it happens."""
    labels = o.instance.hypothesis_class.labels
    for op in ops:
        if op[0] in ("solve", "resume"):
            # a solve plays one candidate matrix for len(rounds) rounds, after
            # announcing `unplayed` more; a resume plays on the last solve's
            # matrix object, as a solve does after store growth
            if op[0] == "solve":
                _, first, rounds, *unplayed = op
                cand = labels[first:]
            else:
                _, rounds, *unplayed = op
            for t, counts in enumerate(rounds):
                yield family.round_losses(cand, t % len(cand), list(counts),
                                          len(rounds) - t + sum(unplayed))
        elif op[0] == "rows":
            # stretches of rows of k requests, each made as it is drawn, up to
            # the first row with a loss or the cap: the last row's losses and
            # the rows drawn
            _, first, rounds, cap = op
            cand = labels[first:]
            for t, counts in enumerate(rounds):
                yield list(family.row(cand, t % len(cand), list(counts), cap))
        elif op[0] == "draw":
            yield family.draw(op[1], op[2])
        elif op[0] == "agree":
            yield o.sample_conditional_agreement(op[1], (0, 1), op[2])
        else:
            yield o.draw_labeled_batch(op[1], op[2])


def _metered(o: OracleSet) -> tuple:
    """What the ledger shows when read."""
    ledger = o.ledger
    return (ledger.label_queries.tolist(), ledger.unlabeled_draws.tolist(),
            list(ledger.transcript))


def _check_twin_ops(inst: MDLInstance, kind: str, log_transcript: bool, start: str,
                    ops: list[tuple], read_every_step: bool = False,
                    families: dict = FAMILY_BUILDERS) -> list[int]:
    """Play `ops` on the block path and on its twin, which draws each round's
    requests one at a time, and require equal results.  With
    `read_every_step` the ledger is also compared after every round and
    every other op.  Returns the rows each stretch of a rows op drew."""
    fused_o = OracleSet(inst, seed=31, log_transcript=log_transcript)
    twin_o = OracleSet(inst, seed=31, log_transcript=log_transcript)
    _start_streams(fused_o, start)
    _start_streams(twin_o, start)
    fused = _BlockRounds(families[kind](fused_o))
    twin = _DrawnRounds(families[kind](twin_o))
    drawn = []
    for got, want in zip(_run_ops(fused_o, fused, ops), _run_ops(twin_o, twin, ops),
                         strict=True):
        if isinstance(got, list):
            assert got == want
            if isinstance(got[0], list):    # a stretch: its last row's losses, its rows
                drawn.append(got[1])
        else:
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
        if read_every_step:
            assert _metered(fused_o) == _metered(twin_o)
    assert _metered(fused_o) == _metered(twin_o)
    assert len(fused_o.ledger.transcript) == (fused_o.ledger.label_total
                                              if log_transcript else 0)
    assert fused_o.ledger.label_total > 0
    # the blocks' read-ahead moved no stream: both sides stand at the same
    # variate and read the same ones next
    for a, b in zip(fused_o._streams, twin_o._streams):
        assert a.consumed == b.consumed
        assert np.array_equal(a.take(9000), b.take(9000))
    return drawn


def _start_streams(o: OracleSet, start: str) -> None:
    if start == "agreement":
        # a long rejection run: each stream ends on an oversized buffer
        for i in range(o.instance.k):
            o.sample_conditional_agreement(i, (0, 1), 20_000)
    elif start == "large-buffer":
        # part-way into an oversized buffer, as the rejection loop leaves a
        # stream between its read-ahead of 2 (n - got) variates and its cut
        for stream in o._streams:
            stream.take(stream.block - 5)
            stream.ahead(3 * stream.block + 11)
            stream.take(5)


@pytest.mark.parametrize("log_transcript", [False, True])
@pytest.mark.parametrize("kind", sorted(FAMILY_BUILDERS))
def test_round_losses_equals_k_draws_on_a_twin(kind, log_transcript):
    # the ledgers are compared at the end, and with `reads` after every step
    for name, start, reads in itertools.product(sorted(TWIN_INSTANCES),
                                                ("fresh", "agreement", "large-buffer"),
                                                (False, True)):
        inst = TWIN_INSTANCES[name]()
        _check_twin_ops(inst, kind, log_transcript, start, _scripted_ops(inst.k), reads)


def _rows_for_solves(ops: list[tuple], cap: int) -> list[tuple]:
    """`ops` with every other solve, from the first, played in stretches of
    rows of at most `cap` rows each."""
    solves = itertools.count()
    return [("rows", op[1], op[2], cap) if op[0] == "solve" and next(solves) % 2 == 0 else op
            for op in ops]


# a stretch's row caps: one row, two rows, and more than most stretches draw
STRETCH_CAPS = (1, 2, 64)


@pytest.mark.parametrize("log_transcript", [False, True])
@pytest.mark.parametrize("kind", sorted(FAMILY_BUILDERS))
def test_rows_equal_k_draws_on_a_twin(kind, log_transcript):
    # each row is k requests made one at a time; stretches of rows follow
    # store growth, agreement sampling, plain draws and the rounds of served runs
    longest = 0
    for n, (name, start, reads) in enumerate(itertools.product(
            sorted(TWIN_INSTANCES), ("fresh", "agreement", "large-buffer"), (False, True))):
        inst, cap = TWIN_INSTANCES[name](), STRETCH_CAPS[n % len(STRETCH_CAPS)]
        drawn = _check_twin_ops(inst, kind, log_transcript, start,
                                _rows_for_solves(_scripted_ops(inst.k), cap), reads)
        assert max(drawn) <= cap
        longest = max(longest, *drawn)
    # _SAMPLE labels point 2 both ways, so a surrogate row with picks has a
    # loss; test_surrogate_stretches_equal_k_draws_on_a_twin gives surrogate
    # rows a sample without one
    assert longest > 1 or kind.startswith("surrogate")


# surrogate families on a sample that member 0 labels without a miss
STRETCH_FAMILIES = {
    "surrogate": lambda o: amdl.surrogate_family(o, (0, 1), [_consistent(o)] * o.instance.k),
    "surrogate-none": lambda o: amdl.surrogate_family(
        o, (0, 1), [None if i == 1 else _consistent(o) for i in range(o.instance.k)]),
}


def _consistent(o: OracleSet) -> tuple[np.ndarray, np.ndarray]:
    pts = _SAMPLE[0]
    return pts, o.instance.hypothesis_class.labels[0][pts].astype(np.int8)


@pytest.mark.parametrize("log_transcript", [False, True])
@pytest.mark.parametrize("kind", sorted(STRETCH_FAMILIES))
def test_surrogate_stretches_equal_k_draws_on_a_twin(kind, log_transcript):
    # zero rows of surrogate requests, picks included, drawn in stretches
    inst = amdl.gen_prop1(8, 0.05)
    for start, cap in itertools.product(("fresh", "large-buffer"), STRETCH_CAPS):
        drawn = _check_twin_ops(inst, kind, log_transcript, start,
                                _rows_for_solves(_scripted_ops(inst.k), cap),
                                families=STRETCH_FAMILIES)
        assert max(drawn) <= cap and (max(drawn) > 1) == (cap > 1)


@pytest.mark.parametrize("kind", sorted(FAMILY_BUILDERS) + [f"{kind}-consistent"
                                                            for kind in sorted(STRETCH_FAMILIES)])
def test_rows_give_python_float_losses(kind):
    # hedge_step folds a row's losses into the Python-float weights, so no
    # numpy scalar may reach it: surrogate picks read the sample arrays
    build = FAMILY_BUILDERS.get(kind) or STRETCH_FAMILIES[kind.removesuffix("-consistent")]
    inst = amdl.gen_prop1(8, 0.05)
    labels = inst.hypothesis_class.labels
    fam = build(OracleSet(inst, seed=2))
    for j, cap in ((0, 1), (1, 3), (0, 64), (2, 1)):
        losses, rows = fam.row(labels, j, [3] * inst.k, cap)
        assert {type(v) for v in losses} == {float} and type(rows) is int


def test_row_windows_start_small_and_double_up_to_a_block(monkeypatch):
    # on streams part-way into an oversized buffer, a stream's first row lists
    # ROW_WINDOW variates, not the buffer's next BLOCK, and each window
    # after it twice the last, up to BLOCK or the buffer's end
    inst = _three_distribution_fixture()
    o = OracleSet(inst, seed=3)
    _start_streams(o, "large-buffer")
    big = [stream.buf for stream in o._streams]
    windows = [[] for _ in big]     # (variates listed, variates the buffer held from there)
    relist = OracleSet._relist

    def logged(self, i, n):
        buf, lo, hi, _, _ = lst = relist(self, i, n)
        if buf is big[i]:
            windows[i].append((hi - lo, buf.size - lo))
        return lst

    monkeypatch.setattr(OracleSet, "_relist", logged)
    fam = amdl.plain_family(o)
    labels = inst.hypothesis_class.labels
    for t in range(6500):
        fam.row(labels, t % 3, [1, 2, 1], 1)
    for got in windows:
        assert got[0][0] == oracles.ROW_WINDOW
        assert all(w == min(held, oracles.BLOCK, 2 * last)
                   for (last, _), (w, held) in zip(got, got[1:]))
        assert oracles.BLOCK in [w for w, _ in got] and got[-1][0] == got[-1][1]


@pytest.mark.parametrize("kind", sorted(FAMILY_BUILDERS))
def test_a_row_leaves_nothing_pending(kind):
    # served rounds and a row each meter what they serve as they return:
    # right after each call, with no ledger read in between, the ledger is
    # the twin's, whose rounds are k draws each
    inst = _three_distribution_fixture()
    fused_o, twin_o = (OracleSet(inst, seed=6, log_transcript=True) for _ in range(2))
    fused, twin = FAMILY_BUILDERS[kind](fused_o), _DrawnRounds(FAMILY_BUILDERS[kind](twin_o))
    labels = inst.hypothesis_class.labels
    counts = [1, 1, 1]

    def unread(o):      # the ledger's lists, not its read properties
        return o.ledger._queries, o.ledger._draws, o.ledger._transcript

    assert round_losses(fused, labels, 0, counts, 40) == twin.round_losses(labels, 0, counts, 40)
    assert unread(fused_o) == unread(twin_o)
    tables = fused.tables(labels, counts, 39)
    fused.serve(5)
    for row in tables[0][:5]:
        assert twin.round_losses(labels, 0, counts, 1) == row.tolist()
    assert unread(fused_o) == unread(twin_o)
    # the blocks serve on from where `serve` left them: the same rows, from row 5
    later = fused.tables(labels, counts, 34)
    assert all(np.array_equal(a[5:], b) for a, b in zip(tables, later, strict=True))
    for t in range(5):
        assert fused.row(labels, t % 3, [1, 3, 2], t + 1) == twin.row(labels, t % 3, [1, 3, 2],
                                                                      t + 1)
        assert unread(fused_o) == unread(twin_o)
    assert round_losses(fused, labels, 0, counts, 9) == twin.round_losses(labels, 0, counts, 9)
    assert unread(fused_o) == unread(twin_o) and sum(fused_o.ledger._queries) > 0


_ROUNDS = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 40)),
                   min_size=1, max_size=30)
_OPS = st.one_of(
    st.tuples(st.just("solve"), st.integers(0, 2), _ROUNDS, st.integers(0, 3)),
    st.tuples(st.just("draw"), st.integers(0, 2), st.integers(0, 900)),
    st.tuples(st.just("agree"), st.integers(0, 2), st.integers(0, 300)),
    st.tuples(st.just("labeled"), st.integers(0, 2), st.integers(0, 3)),
)


def _drawn_counts(ops: list[tuple]) -> list[tuple]:
    """Each solve's or row op's drawn (a, b, big) as counts: they change in the
    middle of blocks, and a large count reaches past a refill."""
    return [(op[0], op[1], [tuple(c * (1 + 29 * (big == 40)) for c in (a, b, a + b - 1))
                            for a, b, big in op[2]], *op[3:])
            if op[0] in ("solve", "rows") else op for op in ops]


@settings(max_examples=15, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=8), st.sampled_from(sorted(FAMILY_BUILDERS)),
       st.booleans())
def test_round_losses_equals_k_draws_under_random_ops(ops, kind, log_transcript):
    # a horizon can end anywhere in a buffer
    ops = _drawn_counts(ops)
    ops.append(("solve", 0, [(1, 1, 1)]))
    for reads in (False, True):
        _check_twin_ops(_three_distribution_fixture(), kind, log_transcript, "fresh", ops,
                        reads)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.one_of(_OPS, st.tuples(st.just("rows"), st.integers(0, 2), _ROUNDS,
                                          st.sampled_from(STRETCH_CAPS))),
                min_size=1, max_size=8),
       st.sampled_from(sorted(FAMILY_BUILDERS)), st.booleans())
def test_rows_equal_k_draws_under_random_ops(ops, kind, log_transcript):
    # stretches of rows between served runs, draws, agreement samples and refills
    ops = _drawn_counts(ops)
    ops.append(("rows", 0, [(1, 1, 1)], 2))
    for reads in (False, True):
        _check_twin_ops(_three_distribution_fixture(), kind, log_transcript, "fresh", ops,
                        reads)


@pytest.mark.parametrize("kind", sorted(FAMILY_BUILDERS))
def test_zero_size_requests_draw_nothing(kind):
    o = OracleSet(_three_distribution_fixture(), seed=5, log_transcript=True)
    fam = FAMILY_BUILDERS[kind](o)
    for i in range(o.instance.k):
        for xs, ys in (fam.draw(i, 0), o.draw_labeled_batch(i, 0)):
            assert xs.size == ys.size == 0
    assert [s.consumed for s in o._streams] == [0] * o.instance.k
    assert _metered(o) == ([0] * 3, [0] * 3, [])


@pytest.mark.parametrize("log_transcript", [False, True])
@pytest.mark.parametrize("kind", sorted(FAMILY_BUILDERS))
def test_zero_size_requests_equal_k_draws_on_a_twin(kind, log_transcript):
    # request ends of zero-size requests cannot step as a range; each kind is
    # played here between and after served rounds, so the case does not rest
    # on the random-ops fuzz drawing it
    ops = [("labeled", 0, 0), ("draw", 1, 0), ("solve", 0, [(1, 2, 1)] * 3),
           ("labeled", 2, 0), ("draw", 0, 0), ("agree", 1, 0), ("solve", 1, [(2, 1, 1)] * 2),
           ("labeled", 0, 0)]
    for reads in (False, True):
        _check_twin_ops(_three_distribution_fixture(), kind, log_transcript, "fresh", ops,
                        reads)


@pytest.mark.parametrize("log_transcript", [False, True])
@pytest.mark.parametrize("kind", sorted(FAMILY_BUILDERS))
def test_a_solve_refused_part_way_leaves_the_served_rounds_metered(kind, log_transcript):
    # rounds served from blocks, then a round with a zero count: the refusal
    # leaves the ledger and the streams as the served rounds made
    # one at a time leave them, and the family serves on afterwards
    inst = _three_distribution_fixture()
    fused_o = OracleSet(inst, seed=8, log_transcript=log_transcript)
    twin_o = OracleSet(inst, seed=8, log_transcript=log_transcript)
    fused = FAMILY_BUILDERS[kind](fused_o)
    twin = _DrawnRounds(FAMILY_BUILDERS[kind](twin_o))
    labels = inst.hypothesis_class.labels
    served = [(2, 1, 3)] * 5 + [(2, 2, 3)] * 4
    for t, counts in enumerate(served):
        round_losses(fused, labels, t % 3, list(counts), 40 - t)
        twin.round_losses(labels, t % 3, list(counts), 40 - t)
    with pytest.raises(ContractViolation):
        round_losses(fused, labels, 0, [2, 0, 3], 40 - len(served))
    assert _metered(fused_o) == _metered(twin_o)
    assert [s.consumed for s in fused_o._streams] == [s.consumed for s in twin_o._streams]
    ops = [("solve", 1, [(1, 2, 1)] * 6), ("draw", 2, 5), ("solve", 0, [(3, 1, 2)] * 3)]
    for got, want in zip(_run_ops(fused_o, _BlockRounds(fused), ops),
                         _run_ops(twin_o, twin, ops), strict=True):
        if isinstance(got, list):
            assert got == want
        else:
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    assert _metered(fused_o) == _metered(twin_o)


def test_a_solve_that_raises_leaves_no_rounds_unsettled(desk_knobs):
    # every round is metered as it is served, so a solve that stops on an
    # error leaves the ledger whole, whether it stops as a chunk reads its
    # tables (over two candidates) or as a stretch of rows is drawn (over
    # four, where no chunk plays); both calls take the rounds left last
    inst = amdl.gen_prop1(3, 0.2)
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=float(inst.nu_exact()), **desk_knobs)
    T = hyperparams(cfg, inst.k, 1)[2]
    for path, V in (("tables", (0, 1)), ("row", (0, 1, 2, 3))):
        o = OracleSet(inst, seed=0)
        fam = amdl.plain_family(o)
        calls = Counter()

        def stop(*args, read=getattr(fam, path)):
            calls[path] += 1
            if T - args[-1] >= 49:
                raise ContractViolation("stop part-way")
            return read(*args)

        setattr(fam, path, stop)
        with pytest.raises(ContractViolation, match="part-way"):
            mdl_hedge_vc(inst.hypothesis_class, V, fam, cfg, inst.k, 1)
        assert calls[path] > 1
        # plain sampling queries every pair, and a request takes two variates a pair
        assert o.ledger.label_total == o.ledger.unlabeled_total > 0
        assert [s.consumed for s in o._streams] == (2 * o.ledger.unlabeled_draws).tolist()


def test_a_two_candidate_solve_reads_tables_only_in_its_chunks(monkeypatch, desk_knobs):
    # every round that no chunk plays is drawn as a row, so the only tables a
    # solve reads are its chunks' (a round whose weights sit at their limit,
    # such as the first, reads none)
    inst = amdl.gen_agnostic_lb(4, 0.4, 0.05)
    cfg = SolverConfig(eps=0.05, delta=0.1, nu=float(inst.nu_exact()), **desk_knobs)
    callers = []
    tables = oracles.SamplerFamily.tables

    def logged(self, *args):
        callers.append(sys._getframe(1).f_code.co_name)
        return tables(self, *args)

    monkeypatch.setattr(oracles.SamplerFamily, "tables", logged)
    res = mdl_hedge_vc(inst.hypothesis_class, (0, 1), amdl.plain_family(OracleSet(inst, seed=3)),
                       cfg, inst.k, 1)
    assert res.rounds > 100 and set(callers) == {"_play_chunk"}


def test_settle_refuses_a_stream_moved_under_served_rounds():
    # a read of stream 1 its block did not make: serving must refuse
    # rather than consume variates that were read already, and the next
    # round rebuilds that block and matches the twin
    inst = _three_distribution_fixture()
    o, twin_o = OracleSet(inst, seed=1), OracleSet(inst, seed=1)
    fam, twin = amdl.plain_family(o), _DrawnRounds(amdl.plain_family(twin_o))
    labels = inst.hypothesis_class.labels
    for t in range(3):
        assert round_losses(fam, labels, t % 3, [1, 2, 1], 10) == \
            twin.round_losses(labels, t % 3, [1, 2, 1], 10)
    for side in (o, twin_o):
        side._streams[1].take(1)
    with pytest.raises(ContractViolation, match="moved"):
        fam.serve(1)
    assert _metered(o) == _metered(twin_o)
    assert round_losses(fam, labels, 0, [1, 2, 1], 7) == twin.round_losses(labels, 0, [1, 2, 1], 7)
    assert _metered(o) == _metered(twin_o)
    assert [s.consumed for s in o._streams] == [s.consumed for s in twin_o._streams]


# a family kind on two candidates, whose rounds are mostly played in chunks,
# or ("-rows") on three, whose rounds are all drawn as rows
SOLVE_SPACES = {**{kind: (kind, (0, 1)) for kind in FAMILY_BUILDERS},
                **{f"{kind}-rows": (kind, (0, 1, 2)) for kind in FAMILY_BUILDERS}}


@pytest.mark.parametrize("case", sorted(SOLVE_SPACES))
def test_a_solves_draws_are_the_ledgers_draws_over_it(case, desk_knobs):
    # the ledger is the one meter of draws: over a solve, what it adds per
    # distribution is reward draws plus store growth, after draws that are not
    # the solve's (agreement sampling, a plain draw); each round draws
    # ceil(k * w_bar_i) reward pairs from distribution i, w_bar the running
    # maximum of the played weight vectors
    kind, V = SOLVE_SPACES[case]
    inst = _three_distribution_fixture()
    cfg = SolverConfig(eps=0.2, delta=0.1, nu=float(inst.nu_exact()), **desk_knobs)
    o = OracleSet(inst, seed=11, log_transcript=True)    # logging keeps the solver's rows
    o.sample_conditional_agreement(0, V, 20)
    o.draw_labeled_batch(2, 7)
    before = o.ledger.unlabeled_draws.copy()
    res = mdl_hedge_vc(inst.hypothesis_class, V, FAMILY_BUILDERS[kind](o, V), cfg, inst.k, 1)
    assert res.rounds > 10 and res.reward_draws.min() > 0
    assert (res.reward_draws + res.store_draws).tolist() == (
        o.ledger.unlabeled_draws - before).tolist()
    w_bar, expected = np.zeros(inst.k), np.zeros(inst.k, dtype=np.int64)
    for row in o.ledger.solver_trace:
        w_bar = np.maximum(w_bar, row[1])
        expected += [math.ceil(inst.k * v) for v in w_bar]
    assert res.reward_draws.tolist() == expected.tolist()


def test_large_candidate_set_solve_equals_k_draws(desk_knobs):
    inst = amdl.gen_random(10, 256, 4, seed=0)
    cls = inst.hypothesis_class
    cfg = SolverConfig(eps=0.05, delta=0.1, nu=float(inst.nu_exact()), **desk_knobs)
    fused_o, twin_o = OracleSet(inst, seed=5), OracleSet(inst, seed=5)
    fused = amdl.plain_family(fused_o)
    twin = _DrawnRounds(amdl.plain_family(twin_o))
    V = cls.full_version_space()
    got = mdl_hedge_vc(cls, V, fused, cfg, inst.k, 4)
    want = mdl_hedge_vc(cls, V, twin, cfg, inst.k, 4)
    assert got.rounds > 100 and len(got.hypothesis.counts) > 1
    assert got.hypothesis.counts == want.hypothesis.counts
    assert got.reward_draws.tolist() == want.reward_draws.tolist()
    assert got.store_draws.tolist() == want.store_draws.tolist()
    assert fused_o.ledger.unlabeled_draws.tolist() == twin_o.ledger.unlabeled_draws.tolist()
    assert fused_o.ledger.label_queries.tolist() == twin_o.ledger.label_queries.tolist()


# a realizable solve: (alg, instance, eps); active-dd-large's is epoch 5's
# solve of a run, over the 10 members epoch 4 kept
ZERO_RUN_SOLVES = {
    "star-lb(2,8,1,3)-epoch-5": ("active-dd-large", lambda: amdl.gen_star_lb(2, 8, 1, 3), 0.01),
    "prop1(8,0.05)": ("passive-hedge", lambda: amdl.gen_prop1(8, 0.05), 0.05),
}


@pytest.mark.parametrize("case", sorted(ZERO_RUN_SOLVES))
def test_zero_reward_runs_equal_one_round_at_a_time(case, monkeypatch):
    # a round whose reward row is all zeros leaves every weight as it is, so
    # the solver plays the zero rows after it with it, calling neither
    # hedge_step nor the ERM for them; the twin plays every round on its own
    # from k draws
    from amdl import hedge
    alg, make, eps = ZERO_RUN_SOLVES[case]
    inst = make()
    p = RunConfig(alg=alg, eps=eps, delta=0.1, instance=inst).plan()
    if p.epochs:
        V = amdl.active_large_eps(OracleSet(inst, seed=0), p).metadata["version_spaces"][3]
        solve, build = p.epochs[4].solve, lambda o: amdl.induced_family(o, V)
    else:
        V, solve, build = inst.hypothesis_class.full_version_space(), p.solve, amdl.plain_family
    steps, stretches, step = [], [], hedge.hedge_step
    monkeypatch.setattr(hedge, "hedge_step", lambda *a: steps.append(1) or step(*a))
    fused_o, twin_o = (OracleSet(inst, seed=11, log_transcript=True) for _ in range(2))
    fused = build(fused_o)
    row = fused.row
    fused.row = lambda *a: stretches.append(out := row(*a)) or out
    got = mdl_hedge_vc(inst.hypothesis_class, V, fused, solve, inst.k, p.d)
    fused_steps = len(steps)
    want = mdl_hedge_vc(inst.hypothesis_class, V, _DrawnRounds(build(twin_o)), solve, inst.k, p.d)
    assert len(V) > 2 and got.rounds == want.rounds
    assert got.hypothesis.counts == want.hypothesis.counts
    assert got.reward_draws.tolist() == want.reward_draws.tolist()
    assert got.store_draws.tolist() == want.store_draws.tolist()
    got_rows, want_rows = fused_o.ledger.solver_trace, twin_o.ledger.solver_trace
    assert len(got_rows) == len(want_rows) == got.rounds
    for a, b in zip(got_rows, want_rows):
        assert (a[0], a[1].tobytes(), *a[2:]) == (b[0], b[1].tobytes(), *b[2:])
    assert _metered(fused_o) == _metered(twin_o) and fused_o.ledger.label_total > 0
    # every round draws one row, and steps the weights unless the row is zero;
    # a stretch ends at its first row with a loss, the last one perhaps at T
    drawn = [n for _, n in stretches]
    assert sum(drawn) == got.rounds and max(drawn) > 1
    assert all(any(r) for r, _ in stretches[:-1])
    assert sum(any(r) for r, _ in stretches) == fused_steps < got.rounds
    assert fused_steps == len(steps) - fused_steps


def test_a_zero_stretch_stops_at_its_cap_and_at_a_loss_row():
    inst = amdl.gen_star_lb(2, 8, 1, 3)
    labels = inst.hypothesis_class.labels
    target, counts = best_nu_index(inst), [1] * inst.k
    assert inst.nu_exact() == 0
    o = OracleSet(inst, seed=4)
    fam = amdl.plain_family(o)
    # the target errs nowhere: every stretch on it draws its cap of zero rows
    for cap in (1, 7, 50):
        assert fam.row(labels, target, counts, cap) == ([0.0] * inst.k, cap)
    assert o.ledger.unlabeled_draws.tolist() == [58] * inst.k
    # another member's stretches end at its first row with a loss, which may
    # be the stretch's first row, or at the cap the rounds left set; a twin
    # drawing every row on its own meters the same
    fused_o, twin_o = OracleSet(inst, seed=4), OracleSet(inst, seed=4)
    fused, twin = amdl.plain_family(fused_o), _DrawnRounds(amdl.plain_family(twin_o))
    j = len(labels) - 1         # errs with mass 1/8 under each distribution
    left, stretches = 40, []
    while left:
        got = fused.row(labels, j, counts, left)
        assert got == twin.row(labels, j, counts, left)
        stretches.append(got)
        left -= got[1]
    assert _metered(fused_o) == _metered(twin_o)
    assert all(any(r) for r, _ in stretches[:-1])
    drawn = [n for _, n in stretches]
    assert max(drawn) > 1 and 1 in drawn[:-1]


def test_blocks_hold_no_more_requests_than_the_rounds_left():
    o = OracleSet(_three_distribution_fixture(), seed=2)
    fam = amdl.induced_family(o, (0, 1))
    labels = o.instance.hypothesis_class.labels
    for left in (3, 2, 1, 40, 39):
        round_losses(fam, labels, 0, [1, 2, 1], left)
        # b counts a block's served requests: what is left fits the rounds left
        assert all(len(blk.queries) - blk.b < left for blk in fam._blocks)


def test_uniform_take_matches_one_generator_run():
    # views within a buffer and copies across read-aheads give the
    # generator's doubles in order, whatever the request sizes
    from amdl.oracles import _Uniforms
    src = _Uniforms(np.random.default_rng(5), block=8)
    got = np.concatenate([src.take(n).copy() for n in (3, 5, 0, 2, 20, 1, 7)])
    want = np.random.default_rng(5).random(got.size)
    assert np.array_equal(got, want)


def test_uniform_ahead_leaves_take_matching_a_fresh_twin():
    # read-ahead of any size, within the buffer or past it, shows the next
    # variates and consumes none: take on the source returns what take
    # returns on a fresh twin that never reads ahead
    from amdl.oracles import _Uniforms
    src = _Uniforms(np.random.default_rng(9), block=16)
    twin = _Uniforms(np.random.default_rng(9), block=16)
    sequence = np.random.default_rng(9).random(2000)
    plan = [("a", 3), ("t", 2), ("a", 16), ("t", 16), ("a", 200), ("t", 5), ("a", 1),
            ("t", 17), ("a", 0), ("t", 0), ("a", 40), ("a", 150), ("t", 150), ("t", 4),
            ("a", 30), ("t", 9), ("a", 700), ("t", 40)]
    for op, n in plan:
        at = src.consumed
        if op == "a":
            assert np.array_equal(src.ahead(n), sequence[at:at + n])
            assert src.consumed == at
        else:
            assert np.array_equal(src.take(n), twin.take(n))
            assert src.consumed == twin.consumed == at + n


def test_stream_keeps_one_block_and_one_refill_after_a_long_agreement_run():
    # after a rejection run leaves an oversized buffer, solver rounds hold a
    # block of at most one buffer block of variates, and a stream that runs
    # short keeps only its unread tail and one refill
    inst = _three_distribution_fixture()
    o = OracleSet(inst, seed=4)
    xs, _ = o.sample_conditional_agreement(2, (0, 1), 300_000)
    stream = o._streams[2]
    assert xs.size == 300_000 and stream.buf.size > 10 * stream.block
    fam = amdl.plain_family(o)
    labels = inst.hypothesis_class.labels
    for t in range(3000):
        tail = stream.buf.size - stream.pos
        buf = stream.buf
        round_losses(fam, labels, t % 3, [1, 2, 3], 10_000)
        blk = fam._blocks[2]
        assert blk.xs.size * 2 <= stream.block
        if stream.buf is not buf:
            assert stream.buf.size <= tail + stream.block
    assert stream.buf.size <= 2 * stream.block


# reads of each size on every stream of a fresh oracle set, in order: peeks
# and takes, across the generator's block size and within it
STREAM_READS = [("ahead", 0), ("take", 1), ("ahead", 5), ("take", 3), ("take", 4095),
                ("ahead", 2), ("ahead", 6000), ("take", 6000), ("take", 0), ("take", 9000),
                ("ahead", 1)]


def test_fresh_streams_read_the_generators_sequence():
    # each stream reads its generator's variates in order, whatever the read
    # sizes, and only a take consumes them
    inst = _three_distribution_fixture()
    o = OracleSet(inst, seed=9)
    children = np.random.SeedSequence(9).spawn(inst.k + 1)
    ref = [np.random.default_rng(c).random(25_000) for c in children]
    for how, n in STREAM_READS:
        for stream, want in zip((*o._streams, o._aux), ref):
            at = stream.consumed
            assert np.array_equal(getattr(stream, how)(n), want[at:at + n])
            assert stream.consumed == at + (n if how == "take" else 0)


# the variates each stream (the auxiliary one last) has consumed after one
# seed-3 trial, taken while every stream filled a buffer block at construction
TRIAL_CONSUMED = {
    "prop1(4,0.1)/passive-hedge": (lambda: amdl.gen_prop1(4, 0.1), 0.1,
                                   [366, 370, 228, 360, 0]),
    "prop1(4,0.1)/active-dd-large": (lambda: amdl.gen_prop1(4, 0.1), 0.1,
                                     [371, 417, 359, 381, 0]),
    "star-lb(2,4,1,1)/active-df": (lambda: amdl.gen_star_lb(2, 4, 1, 1), 0.1,
                                   [146760, 146784, 146700]),
    "agnostic-lb(4,0.4,0.05)/passive-naive": (lambda: amdl.gen_agnostic_lb(4, 0.4, 0.05),
                                              0.05, [1872, 1872, 1872, 1872, 0]),
    "random(6,12,3,4)/active-dd-auto": (lambda: amdl.gen_random(6, 12, 3, seed=4), 0.2,
                                        [1474, 1470, 1442, 0]),
}


@pytest.mark.parametrize("cell", sorted(TRIAL_CONSUMED))
def test_trial_leaves_pinned_stream_positions(cell):
    gen, eps, consumed = TRIAL_CONSUMED[cell]
    inst, alg = gen(), cell.split("/")[1]
    cfg = RunConfig(alg=alg, eps=eps, delta=0.1, instance=inst)
    _, _, o = run_single_trial(inst, cfg.plan(), 3)
    assert [s.consumed for s in (*o._streams, o._aux)] == consumed


def test_sampler_family_refuses_bad_index():
    fam = amdl.plain_family(OracleSet(two_point_instance(), seed=0))
    with pytest.raises(ContractViolation):
        fam.draw(1, 3)
    with pytest.raises(ContractViolation):
        fam.draw(-1, 3)


# -- single requests ---------------------------------------------------------------

# sizes of the scripted single requests: empty, one pair, a few pairs, a
# block's worth and one request larger than a whole buffer block
DRAW_SIZES = (0, 1, 7, 240, 3000)

# sha256 of (pairs, ledger and stream positions; transcript lines) of
# `_scripted_draws` on both twin instances, taken before the single-request
# route of the family kernels existed
DRAW_DIGESTS = {
    "plain": ("c9522dafdfcf6055c63d1bdbd6d8baab3eed15f756f3fe94a37083a12d0cef58",
             "cb783f311873eafb1591cca67eae986ff4fd5bd132626ffaf21b267e95ec9b4f"),
    "induced": ("958819f56081c7cc3e8b6d69ebb514e4fdaa63172102e9fed8de1bc33e2acacb",
               "fa4ba940a39eb716c32c9e03b491eeb0a7807cb55ec85b4d60a331377c472a01"),
    "imputed": ("d70a4b86f50e429ec247f89ed775d4b8c7a088d3efeeb98b3ce888eee2e11e35",
               "a1365a1513449db62c9105b120fc5d5f522b0d35be01583ace6ee1f95619e125"),
    "surrogate": ("555e98944377e5558d16ecd214f45af54e8d4b1ce828f781b5c8db0ef9872a3c",
                 "86be775b96672a12a8a254c307f035f325fee4abbeb286700d67e0a7e730b234"),
    "surrogate-none": ("93e8409cd02c018ae953f06217a6867798d83aa35b1f1614bf4276cfcdd1709a",
                      "4e99128923f805e2984e8577fa47a2cbd3308e592580cd875fb6e5a17dc741ce"),
}


def _scripted_draws(kind: str, log_transcript: bool) -> tuple[str, str]:
    """Every size of DRAW_SIZES from each distribution in turn, then three
    1500-pair requests from distribution 0, one of which crosses a buffer
    refill; digests each request's pairs with the ledger and every stream's
    consumed position after it, and separately the transcript."""
    pairs, lines = hashlib.sha256(), hashlib.sha256()
    crossed = 0
    for name in sorted(TWIN_INSTANCES):
        o = OracleSet(TWIN_INSTANCES[name](), seed=13, log_transcript=log_transcript)
        fam = FAMILY_BUILDERS[kind](o)
        ops = [(i, n) for n in DRAW_SIZES for i in range(o.instance.k)] + [(0, 1500)] * 3
        for i, n in ops:
            stream = o._streams[i]
            start, end = stream.start, stream.start + stream.buf.size
            xs, ys = fam.draw(i, n)
            assert xs.size == ys.size == n
            crossed += n > 0 and stream.start != start and stream.consumed > end
            pairs.update(repr((xs.dtype.str, xs.tolist(), ys.dtype.str, ys.tolist(),
                               o.ledger.label_queries.tolist(),
                               o.ledger.unlabeled_draws.tolist(),
                               [s.consumed for s in (*o._streams, o._aux)])).encode())
        assert o.ledger.unlabeled_draws.tolist() == [sum(n for j, n in ops if j == i)
                                                     for i in range(o.instance.k)]
        assert len(o.ledger.transcript) == (o.ledger.label_total if log_transcript else 0)
        lines.update(repr(o.ledger.transcript).encode())
    assert crossed
    return pairs.hexdigest(), lines.hexdigest()


@pytest.mark.parametrize("log_transcript", [False, True])
@pytest.mark.parametrize("kind", sorted(FAMILY_BUILDERS))
def test_single_requests_match_their_pins(kind, log_transcript):
    got_pairs, got_lines = _scripted_draws(kind, log_transcript)
    want_pairs, want_lines = DRAW_DIGESTS[kind]
    assert got_pairs == want_pairs
    if log_transcript:
        assert got_lines == want_lines
    else:
        assert got_lines == hashlib.sha256(b"[]" * len(TWIN_INSTANCES)).hexdigest()


# -- block-kernel requests -----------------------------------------------------------

def _point_map_instances() -> dict:
    """Instances whose cdfs stress how variates map to points: zero-mass
    points (leading, interior and trailing, with one marginal whose float
    cumsum reaches 1 before its last, zero-mass entries and one that passes 1
    there), dyadic cdf entries that fall on bucket edges, and m = 1,000
    points, so that most buckets of the map hold a cdf entry."""
    def build(marginals, seed):
        m = len(marginals[0])
        rng = np.random.default_rng(seed)
        rows = [[1] * m, [1 if x % 2 == 0 else -1 for x in range(m)],
                rng.choice([-1, 1], size=m).tolist()]
        etas = [[Fraction(int(v), 8) for v in rng.integers(0, 9, size=m)] for _ in marginals]
        return MDLInstance(HypothesisClass([Hypothesis(r) for r in rows]),
                           [LabeledDistribution(p, e) for p, e in zip(marginals, etas)])

    f = Fraction
    zero_mass = [
        [0, f(1, 4), 0, 0, f(1, 8), f(1, 8), 0, f(1, 2), 0, 0, 0, 0],
        [f(1, 3)] * 3 + [0] * 9,
        [f(1, 10)] * 10 + [0] * 2,
        [f(1, 4), f(1, 4) + f(1, 10 ** 13), f(1, 2), 0] + [0] * 8,
    ]
    dyadic = [
        [f(1, 8), f(1, 4), f(1, 16), f(1, 16), f(1, 64), f(3, 64), f(1, 4), f(3, 16)],
        [f(1, 8)] * 8,
    ]
    weights = np.random.default_rng(11).integers(1, 1000, size=(2, 1000))
    many = [[f(int(v), int(row.sum())) for v in row] for row in weights]
    return {"zero-mass": build(zero_mass, 1), "dyadic": build(dyadic, 2),
            "m1000": build(many, 3)}


POINT_MAP_INSTANCES = _point_map_instances()

# (c, rounds) of each block-kernel call, settled in turn: point-variate spans
# below and above 1,024, one pair a request and a request larger than a
# buffer block; the imputing kernels also draw a block of unequal sizes
KERNEL_SHAPES = ((1, 1), (1, 300), (1, 700), (2, 200), (3, 600), (7, 40), (240, 1),
                 (600, 1), (1500, 2), (5000, 1))
RAGGED_SIZES = np.array([0, 3, 1, 0, 700, 2, 513, 1])
# a two-member `draw_requests`: the last distribution, then the first, four
# requests each, zero sizes included
REQUEST_MEMBERS = (-1, 0)
REQUEST_SIZES = np.array([[0, 5, 700, 0], [3, 0, 0, 1200]])

# sha256 of every kernel call's pairs, queries and variate ends, then the
# ledger and stream positions, on each family of `FAMILY_BUILDERS` and on the
# always-abstaining imputed family ("imputed-abstain", which also draws
# REQUEST_SIZES); of `draw_labeled_batch` called `rounds` times at each
# shape ("labeled-batch"); and of conditional-agreement samples on version
# space (0, 1) ("agreement")
BLOCK_DIGESTS = {
    "zero-mass": {
        "imputed": "1ecd31b35f04434669cb7b968ae01ef7824880c1ff906b7e7e9ee7291aa5e97a",
        "imputed-abstain": "0b012b27f669988a84201b93210c5522f1c4df70583f57147dd936aebbecc517",
        "induced": "a4f1a07f89fe0b2026857edc8a8056026590e5ec7533c65f77eb2a8da962e87e",
        "labeled-batch": "d2e59b56de72aace9a886eed947a2f925615512b6be908b5c0ab34e0d8babac0",
        "plain": "eb94fa67df5d8c7895da70af1a4d6fae2ab63ef53e758cfd2cd89eff0fd2cf3c",
        "surrogate": "fcced0f28759c581f58bc5048f5a1338b8369612bf335e4bf6dae2228358d232",
        "surrogate-none": "6c15242ad4894db271b1de07f14a98edd57e1fc5178e57cb928bc0e3a73b7d2b",
        "agreement": "314ca8a6c48de56a14dbb3abe29532c87d619ff27a6c8d5cd5252251a1ac994c",
    },
    "dyadic": {
        "imputed": "4fb0357131e16ee41cfbc3fc74d37cf87c0493b4299a4cb8490af05794973975",
        "imputed-abstain": "be57a837df8f8cbcf38594d6ad4eeb561c5aa11de99c56778cb116377e99cd76",
        "induced": "b6b1d049277f1d96a8da2958ec5db1efb3a038661884a12caefc45fab3604a99",
        "labeled-batch": "e0319f9adef076ac7e2b9d8dd430c15d7ab6a698aad6bb6de9fab08955d5bf9c",
        "plain": "8a60351de6fc0cfc965a87fef2f0db28d62c8bd2a93dcf8ba9169042c5991cd6",
        "surrogate": "9e2ce6be033d4e22669561d16e889f56e04f372d6891855a6dc69d9b8e4339f2",
        "surrogate-none": "4c8e85d082a825ea61e6571d2a8368a2b5629d0090637227ef986a35545ab53e",
        "agreement": "174ba5c528e6e2da337f05edd17620621c1823091613edfb5b0f82ab9bd16ecc",
    },
    "m1000": {
        "imputed": "1d6c91023cc13d25fbe7b5464b6b407b56e6c2cc942e61ab093a7581d2466aa9",
        "imputed-abstain": "e73594aa330b4bb4c033c22559b6b33d8001c91475c2d94bc6ddd52643a07c53",
        "induced": "b2279bb52e3053481632104c68c859f621f63c9637f249f21b220da3ec8356c4",
        "labeled-batch": "1d7cd800f848f9cc376d29edea40bf5adb59e5dd0f18cb495e200caba6297914",
        "plain": "8ac444e12f79d124a4c922e12191746bd72643d784bd065a16bde9ff343b9b84",
        "surrogate": "5ccee638bfaccd6c7810ef234a215cf2b8ef939d70cb47b05aafba5f80189d72",
        "surrogate-none": "6d50459d48cedd6d91314c9586f9a73b4c4475028904e771ef02574ce171d4ad",
        "agreement": "d446d4da7e513f1d77a1cb4c9b9b0a204546df353a41c7bc3b9f908043f719f2",
    },
}


def _always_abstaining(o: OracleSet):
    return amdl.imputed_family(o, np.zeros(o.instance.m, dtype=np.int8))


def _family_digest(inst: MDLInstance, build, ragged: bool, requests: bool) -> str:
    o = OracleSet(inst, seed=29, log_transcript=True)
    fam = build(o)
    h = hashlib.sha256()
    for i in range(inst.k):
        o._streams[i].take(i)
        for c, rounds in KERNEL_SHAPES:
            blk = fam._kernels[i](c, rounds)
            o._settle([blk], rounds)
            h.update(repr((blk.xs.tolist(), blk.ys.tolist(), blk.need.tolist(),
                           list(blk.ends), list(blk.queries))).encode())
        if ragged:
            blk = fam._kernels[i](RAGGED_SIZES, RAGGED_SIZES.size)
            o._settle([blk], RAGGED_SIZES.size)
            h.update(repr((blk.xs.tolist(), blk.ys.tolist(), blk.need.tolist(),
                           list(blk.ends), list(blk.queries), blk.at.tolist())).encode())
    if requests:
        members = [j % inst.k for j in REQUEST_MEMBERS]
        xs, ys = fam.draw_requests(members, REQUEST_SIZES)
        drawn = [0] * inst.k    # the pairs the family drew: each member's row sum
        for i, row in zip(members, REQUEST_SIZES.sum(axis=1).tolist()):
            drawn[i] += row
        h.update(repr((xs.dtype.str, xs.tolist(), ys.dtype.str, ys.tolist(), drawn)).encode())
    h.update(repr((o.ledger.label_queries.tolist(), o.ledger.unlabeled_draws.tolist(),
                   [s.consumed for s in (*o._streams, o._aux)],
                   o.ledger.transcript)).encode())
    return h.hexdigest()


def _kernel_digests(inst: MDLInstance) -> dict:
    got = {kind: _family_digest(inst, FAMILY_BUILDERS[kind], kind in ("induced", "imputed"),
                                False)
           for kind in sorted(FAMILY_BUILDERS)}
    got["imputed-abstain"] = _family_digest(inst, _always_abstaining, True, True)
    o = OracleSet(inst, seed=29, log_transcript=True)
    h = hashlib.sha256()
    for i in range(inst.k):
        o._streams[i].take(i)
        for c, rounds in KERNEL_SHAPES:
            for _ in range(rounds):
                xs, ys = o.draw_labeled_batch(i, c)
                h.update(repr((xs.dtype.str, xs.tolist(), ys.dtype.str, ys.tolist())).encode())
    h.update(repr((o.ledger.label_queries.tolist(), o.ledger.unlabeled_draws.tolist(),
                   [s.consumed for s in (*o._streams, o._aux)],
                   o.ledger.transcript)).encode())
    got["labeled-batch"] = h.hexdigest()
    o = OracleSet(inst, seed=31, log_transcript=True)
    h = hashlib.sha256()
    for i in range(inst.k):
        for n in (1, 300, 5000):
            xs, ys = o.sample_conditional_agreement(i, (0, 1), n)
            h.update(repr((xs.tolist(), ys.tolist())).encode())
    h.update(repr((o.ledger.label_queries.tolist(), o.ledger.unlabeled_draws.tolist(),
                   [s.consumed for s in o._streams], o.ledger.transcript)).encode())
    got["agreement"] = h.hexdigest()
    return got


@pytest.mark.parametrize("name", sorted(POINT_MAP_INSTANCES))
def test_block_kernels_match_their_pins(name):
    assert _kernel_digests(POINT_MAP_INSTANCES[name]) == BLOCK_DIGESTS[name]


# -- requests of unequal sizes -------------------------------------------------------

# the families whose kernels take unequal sizes: imputed over a classifier that
# abstains everywhere and over one that abstains on part of the points,
# induced and plain
REQUEST_FAMILIES = {"imputed-abstain": _always_abstaining,
                    **{kind: FAMILY_BUILDERS[kind] for kind in ("imputed", "induced", "plain")}}


def _view_of(family) -> tuple:
    return family._kernels[0].args[0]


def test_views_flag_whether_they_query_every_point():
    o = OracleSet(_three_distribution_fixture(), seed=0)
    assert _view_of(amdl.plain_family(o))[2] and _view_of(_always_abstaining(o))[2]
    assert not _view_of(FAMILY_BUILDERS["imputed"](o))[2]
    assert not _view_of(FAMILY_BUILDERS["induced"](o))[2]
    assert OracleSet(two_point_instance(), seed=0)._vs_view((0, 1))[2]    # complements


_SIZE = st.one_of(st.just(0), st.integers(0, 9), st.integers(0, 3000))


@pytest.mark.parametrize("log_transcript", [False, True])
@pytest.mark.parametrize("kind", sorted(REQUEST_FAMILIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_draw_requests_equals_draws_on_a_twin(kind, log_transcript, data):
    # members in any order, sizes with zeros and requests that cross a buffer
    # refill, streams started part-way into a buffer
    inst = _three_distribution_fixture()
    members = data.draw(st.lists(st.integers(0, inst.k - 1), min_size=1, max_size=inst.k,
                                 unique=True))
    rows = data.draw(st.integers(1, 6))
    sizes = np.array(data.draw(st.lists(st.lists(_SIZE, min_size=rows, max_size=rows),
                                        min_size=len(members), max_size=len(members))))
    skip = data.draw(st.lists(st.integers(0, 5000), min_size=inst.k, max_size=inst.k))
    fused_o, twin_o = (OracleSet(inst, seed=17, log_transcript=log_transcript) for _ in "ab")
    for o in (fused_o, twin_o):
        for stream, n in zip(o._streams, skip):
            stream.take(n)
    fused, twin = REQUEST_FAMILIES[kind](fused_o), REQUEST_FAMILIES[kind](twin_o)
    xs, ys = fused.draw_requests(members, sizes)
    drawn = [[] for _ in members]
    for r in range(rows):
        for j, i in enumerate(members):
            drawn[j].append(twin.draw(i, int(sizes[j, r])))
    want_xs, want_ys = (np.concatenate([pair[side] for per in drawn for pair in per])
                        for side in (0, 1))
    assert xs.dtype == want_xs.dtype and ys.dtype == want_ys.dtype
    assert np.array_equal(xs, want_xs) and np.array_equal(ys, want_ys)
    assert _metered(fused_o) == _metered(twin_o)
    assert len(fused_o.ledger.transcript) == (fused_o.ledger.label_total
                                              if log_transcript else 0)
    for a, b in zip(fused_o._streams, twin_o._streams):
        assert a.consumed == b.consumed
        assert np.array_equal(a.take(5000), b.take(5000))


# malformed `draw_requests` calls on a 3-distribution family
BAD_REQUESTS = {
    "negative size": ([0], [[2, -1]]),
    "member out of range": ([5], [[1]]),
    "negative member": ([-1], [[1]]),
    "bool member": ([True], [[1]]),
    "float member": ([1.0], [[1]]),
    "repeated member": ([1, 1], [[1], [2]]),
    "one-dimensional sizes": ([0], [1, 2]),
    "float sizes": ([0], [[1.0, 2.0]]),
    "bool sizes": ([0], [[True]]),
    "more rows than members": ([0], [[2, 2], [2, 2]]),
    "fewer rows than members": ([0, 1], [[2, 2]]),
    "no requests": ([0], np.zeros((1, 0), dtype=np.int64)),
    "no members": ([], np.zeros((0, 2), dtype=np.int64)),
}


@pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
def test_malformed_requests_refused_before_any_draw(case):
    # the family checks a request before any kernel runs
    o = OracleSet(_three_distribution_fixture(), seed=0, log_transcript=True)
    fam = amdl.plain_family(o)
    fam.draw_requests([2, 0], np.array([[3, 0], [1, 4]]))
    streams = [s.consumed for s in (*o._streams, o._aux)]
    metered = _metered(o)
    members, sizes = BAD_REQUESTS[case]
    with pytest.raises(ContractViolation, match="requests need"):
        fam.draw_requests(members, np.array(sizes))
    assert [s.consumed for s in (*o._streams, o._aux)] == streams
    assert _metered(o) == metered


def test_surrogate_requests_refused_before_any_draw():
    # a surrogate kernel draws requests of one size, so rows of sizes are
    # refused, and no stream or count moves
    inst = amdl.gen_prop1(2, 0.2)
    o = OracleSet(inst, seed=0, log_transcript=True)
    samples = [o.sample_conditional_agreement(i, (0, 1), 4) for i in range(inst.k)]
    fam = amdl.surrogate_family(o, (0, 1), samples)
    fam.draw(1, 3)
    streams = [s.consumed for s in (*o._streams, o._aux)]
    metered = _metered(o)
    with pytest.raises(ContractViolation, match="draw_requests needs an imputing family"):
        fam.draw_requests([0], np.array([[2, 3]]))
    assert [s.consumed for s in (*o._streams, o._aux)] == streams
    assert _metered(o) == metered


# example1 has k = 2: a family with k - 1 or k + 1 views, or whose views impute
# different labelings, is refused before any stream moves
BAD_VIEWS = {
    "surrogate-k-minus-1": lambda o: amdl.surrogate_family(o, (0, 1), [_S]),
    "surrogate-k-plus-1": lambda o: amdl.surrogate_family(o, (0, 1), [_S] * 3),
    "views-k-minus-1": lambda o: oracles.SamplerFamily(o, [o._every]),
    "views-k-plus-1": lambda o: oracles.SamplerFamily(o, [o._every] * 3),
    "two-labelings": lambda o: oracles.SamplerFamily(o, [o._every, o._vs_view((0,))]),
}


@pytest.mark.parametrize("case", sorted(BAD_VIEWS))
def test_a_family_needs_one_view_per_distribution_and_one_labeling(case):
    o = OracleSet(amdl.gen_example1(0.2, 0.05, "b"), seed=0, log_transcript=True)
    amdl.plain_family(o).draw(1, 3)
    streams = [s.consumed for s in (*o._streams, o._aux)]
    metered = _metered(o)
    with pytest.raises(ContractViolation, match="one view per distribution"):
        BAD_VIEWS[case](o)
    assert [s.consumed for s in (*o._streams, o._aux)] == streams
    assert _metered(o) == metered


BAD_OUTPUTS = {
    "out of range": lambda m: np.full(m, 7),
    "a two": lambda m: np.r_[np.zeros(m - 1, dtype=np.int64), 2],
    "a fraction": lambda m: np.r_[np.zeros(m - 1), 0.5],
    "too short": lambda m: np.zeros(m - 1, dtype=np.int8),
    "too long": lambda m: np.zeros(m + 1, dtype=np.int8),
    "a column": lambda m: np.zeros((m, 1), dtype=np.int8),
}


@pytest.mark.parametrize("case", sorted(BAD_OUTPUTS))
def test_imputed_family_refuses_outputs_outside_its_contract(case):
    o = OracleSet(_three_distribution_fixture(), seed=0)
    with pytest.raises(ContractViolation, match="outputs"):
        amdl.imputed_family(o, BAD_OUTPUTS[case](o.instance.m))
    assert [s.consumed for s in o._streams] == [0] * o.instance.k


# -- the point map ---------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 2000), seed=st.integers(0, 2 ** 32 - 1), zeros=st.sampled_from([0, 0.5, 0.9]),
       dyadic=st.booleans(), n=st.integers(0, 6000), c=st.integers(1, 5),
       shape=st.sampled_from(["flat", "plain", "surrogate"]))
def test_point_map_equals_searchsorted(m, seed, zeros, dyadic, n, c, shape):
    # marginals with zero-mass points, or with every cdf entry on a bucket
    # edge; variates at 0, just below 1, on bucket edges and cdf entries and
    # just below them, in flat arrays and in the strided views that plain
    # sampling and the surrogate kernel map; sizes on both sides of the table's crossover
    rng = np.random.default_rng(seed)
    size = 1 << (8 * m - 1).bit_length()
    if dyadic:
        cuts = np.sort(rng.integers(0, size + 1, size=m - 1))
        marginal = [Fraction(int(v), size) for v in np.diff(cuts, prepend=0, append=size)]
    else:
        w = rng.integers(1, 1000, size=m) * (rng.random(m) >= zeros)
        w[rng.integers(m)] += 1
        marginal = [Fraction(int(v), int(w.sum())) for v in w]
    d = LabeledDistribution(marginal, [Fraction(1, 2)] * m)
    u = rng.random(2 * c * (n // (2 * c) + 1))
    cdf = d.cdf[d.cdf < 1]
    special = np.concatenate(([0.0, np.nextafter(1.0, 0.0)], rng.integers(0, size, 8) / size,
                              cdf, np.nextafter(cdf, 0.0)))
    at = rng.integers(0, u.size, size=special.size)
    u[at] = special
    v = {"flat": u, "plain": u.reshape(-1, 2, c)[:, 0],
         "surrogate": u.reshape(-1, 2 * c)[:, :c]}[shape]
    got, want = d.points(v), d.cdf.searchsorted(v, side="right")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_point_map_reads_its_table_from_the_crossover():
    d = _point_map_instances()["m1000"].distributions[0]
    u = np.random.default_rng(0).random(1000)
    d.points(u[:409])
    assert d._buckets is None
    assert np.array_equal(d.points(u[:410]), d.cdf.searchsorted(u[:410], side="right"))
    assert d._buckets.size == 8192 and (d._buckets < 0).sum() > 500
