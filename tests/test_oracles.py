"""Metered oracles and label-efficient samplers."""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amdl
from amdl import (ContractViolation, DegenerateAgreementRegion, FeatureSpace,
                  Hypothesis, HypothesisClass, LabeledDistribution, MDLInstance,
                  OracleSet)
from amdl.core import loss_exact
from amdl.harness import RunConfig, _instance_stats, run_single_trial, run_trials

from closed_forms import (imputed_distribution, induced_distribution,
                          surrogate_joint_exact)
from conftest import empirical_tv, two_point_instance


def test_draw_unlabeled_point_mass():
    cls = HypothesisClass([Hypothesis([1, 1])])
    dist = LabeledDistribution([0.0, 1.0], [0.5, 0.5])
    inst = MDLInstance(FeatureSpace(2), cls, [dist])
    o = OracleSet(inst, seed=0)
    xs = o.draw_unlabeled_batch(0, 1000)
    assert np.all(xs == 1)
    assert o.ledger.unlabeled_draws[0] == 1000
    assert o.ledger.label_total == 0


def test_draw_unlabeled_uniform_frequencies():
    inst = two_point_instance()
    o = OracleSet(inst, seed=1)
    xs = o.draw_unlabeled_batch(0, 100_000)
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
    inst = MDLInstance(FeatureSpace(2), cls, [dist])
    o = OracleSet(inst, seed=0)
    assert all(o.query_label(0, 0) == 1 for _ in range(50))
    assert all(o.query_label(0, 1) == -1 for _ in range(50))
    assert o.ledger.label_queries[0] == 100


def test_query_label_bernoulli_rate():
    inst = two_point_instance()
    o = OracleSet(inst, seed=3)
    ys = o._labels_for(0, np.zeros(100_000, dtype=np.int64))
    assert abs(np.mean(ys == 1) - 0.25) < 0.01


def test_query_label_zero_mass_point_still_answered():
    cls = HypothesisClass([Hypothesis([1, 1])])
    dist = LabeledDistribution([1.0, 0.0], [0.5, 1.0])
    inst = MDLInstance(FeatureSpace(2), cls, [dist])
    o = OracleSet(inst, seed=0)
    assert o.query_label(0, 1) == 1


def test_index_out_of_range():
    inst = two_point_instance()
    o = OracleSet(inst, seed=0)
    with pytest.raises(ContractViolation):
        o.draw_unlabeled(5)
    with pytest.raises(ContractViolation):
        o.query_label(2, 0)


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
    inst = MDLInstance(FeatureSpace(4), cls, [dist])
    return inst


def test_sample_induced_total_disagreement_costs_every_call():
    inst = two_point_instance()
    o = OracleSet(inst, seed=0)
    V = (0, 1)  # complements: DIS = X
    o.sample_induced_batch(0, V, 200)
    assert o.ledger.label_queries[0] == 200


def test_sample_induced_singleton_version_space_free():
    inst = _induced_fixture()
    o = OracleSet(inst, seed=0)
    xs, ys = o.sample_induced_batch(0, (0,), 500)
    assert o.ledger.label_total == 0
    assert np.array_equal(ys, inst.hypothesis_class.labels[0][xs])


def test_sample_induced_label_cost_law():
    # expected cost per call = Pr[DIS(V)] = mass of {0,1} = 0.5
    inst = _induced_fixture()
    o = OracleSet(inst, seed=5)
    n = 100_000
    o.sample_induced_batch(0, (0, 1), n)
    p = 0.5
    sd = (n * p * (1 - p)) ** 0.5
    assert abs(o.ledger.label_total - n * p) <= 3 * sd


def test_sample_induced_matches_closed_form_pmf():
    inst = _induced_fixture()
    V = (0, 1)
    o = OracleSet(inst, seed=9)
    n = 100_000
    xs, ys = o.sample_induced_batch(0, V, n)
    counts = Counter(zip(xs.tolist(), ys.tolist()))
    exact = induced_distribution(inst.distributions[0], inst.hypothesis_class,
                                 V).joint_exact()
    assert empirical_tv(counts, exact, n) <= 0.02


def test_sample_imputed_matches_plain_when_always_abstaining():
    inst = two_point_instance()
    a = OracleSet(inst, seed=4)
    b = OracleSet(inst, seed=4)
    f0 = np.zeros(2, dtype=np.int8)
    xa, ya = a.sample_imputed_batch(0, f0, 300)
    xb, yb = b.draw_labeled_batch(0, 300)
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
    assert a.ledger.label_total == b.ledger.label_total == 300


def test_sample_imputed_total_classifier_free():
    inst = two_point_instance()
    o = OracleSet(inst, seed=4)
    f = np.array([1, -1], dtype=np.int8)
    xs, ys = o.sample_imputed_batch(0, f, 400)
    assert o.ledger.label_total == 0
    assert np.array_equal(ys, f[xs])


def test_sample_imputed_label_rate_matches_abstention_mass():
    cls = HypothesisClass([Hypothesis([1, 1])])
    dist = LabeledDistribution([0.9, 0.1], [1.0, 0.5])
    inst = MDLInstance(FeatureSpace(2), cls, [dist])
    o = OracleSet(inst, seed=8)
    f = np.array([1, 0], dtype=np.int8)  # abstains on mass 0.1
    n = 100_000
    o.sample_imputed_batch(0, f, n)
    assert abs(o.ledger.label_total / n - 0.1) < 0.01


def test_sample_imputed_matches_closed_form_pmf():
    inst = _induced_fixture()
    o = OracleSet(inst, seed=10)
    f = np.array([0, 1, 1, 0], dtype=np.int8)
    n = 100_000
    xs, ys = o.sample_imputed_batch(0, f, n)
    counts = Counter(zip(xs.tolist(), ys.tolist()))
    exact = imputed_distribution(inst.distributions[0], f).joint_exact()
    assert empirical_tv(counts, exact, n) <= 0.02


def test_sample_surrogate_reduces_to_fresh_sampling_when_dis_is_everything():
    inst = two_point_instance()
    a = OracleSet(inst, seed=12)
    b = OracleSet(inst, seed=12)
    S = (np.array([0]), np.array([1], dtype=np.int8))
    xa, ya = a.sample_surrogate_batch(0, (0, 1), S, 250)
    xb, yb = b.draw_labeled_batch(0, 250)
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)


def test_sample_surrogate_zero_cost_when_dis_empty():
    inst = _induced_fixture()
    o = OracleSet(inst, seed=12)
    S = (np.array([2, 3]), np.array([1, -1], dtype=np.int8))
    xs, ys = o.sample_surrogate_batch(0, (0,), S, 400)
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
    xs, ys = o2.sample_surrogate_batch(0, V, S, n)
    counts = Counter(zip(xs.tolist(), ys.tolist()))
    exact = surrogate_joint_exact(inst.distributions[0], inst.hypothesis_class, V, S)
    assert empirical_tv(counts, exact, n) <= 0.02
    assert abs(float(sum(exact.values())) - 1.0) < 1e-12


def test_sample_surrogate_needs_nonempty_sample():
    inst = _induced_fixture()
    o = OracleSet(inst, seed=1)
    with pytest.raises(ContractViolation):
        o.sample_surrogate_batch(0, (0, 1),
                                 (np.empty(0, dtype=int), np.empty(0, dtype=np.int8)), 5)


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


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_favorable_bias_exact(seed):
    # when imputation agrees with the labeling hypothesis on the agreement
    # region, excess losses can only grow under the imputed distribution
    inst = amdl.gen_random(5, 6, 2, seed=seed, realizable=True)
    cls = inst.hypothesis_class
    hstar_idx = amdl.core.best_nu_index(inst)
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
    o.sample_induced_batch(0, (0, 1), 25)
    assert len(o.ledger.transcript) == o.ledger.label_total == 50
    assert [rec[3] for rec in o.ledger.transcript] == list(range(1, 51))
    # the harness writes each trial's ledger transcript, one line per label
    # query, prefixed by the trial's seed
    path = tmp_path / "transcript.log"
    cfg = RunConfig(alg="passive-naive", eps=0.2, delta=0.1, trials=2, base_seed=3,
                    instance=inst, trace=True, transcript_path=str(path))
    recs = run_trials(cfg)
    stats = _instance_stats(inst, cfg.alg)
    want = []
    for rec in recs:
        _, _, trial = run_single_trial(inst, cfg, rec.seed, stats)
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
    return MDLInstance(FeatureSpace(4), cls, dists)


_SAMPLE = (np.array([2, 3, 2], dtype=np.int64), np.array([1, -1, -1], dtype=np.int8))

FAMILY_BUILDERS = {
    "plain": lambda o: amdl.plain_family(o),
    "induced": lambda o: amdl.induced_family(o, (0, 1)),
    "imputed": lambda o: amdl.imputed_family(
        o, np.resize(np.array([0, 1, 0, -1], dtype=np.int8), o.instance.m)),
    "surrogate": lambda o: amdl.surrogate_family(o, (0, 1), [_SAMPLE] * o.instance.k),
    "surrogate-none": lambda o: amdl.surrogate_family(
        o, (0, 1), [None if i == 1 else _SAMPLE for i in range(o.instance.k)]),
}

TWIN_INSTANCES = {
    "three": _three_distribution_fixture,
    "prop1-k8": lambda: amdl.gen_prop1(8, 0.05),
}


def _round_counts(k: int) -> list[tuple[int, ...]]:
    """Per-round reward counts: a 5000 crosses a buffer refill within one
    request; the 700s carry every stream's running total across the next
    4096-variate boundaries in requests that each fit one block."""
    small = [tuple((3 * t + i) % 4 + 1 for i in range(k)) for t in range(4)]
    big = [tuple(5000 if i == t else 1 for i in range(k)) for t in range(2)]
    return small + big + [(700,) * k] * 6 + small


def _start_streams(o: OracleSet, start: str) -> None:
    if start == "agreement":
        # a long rejection run: each stream ends on an oversized refill
        for i in range(o.instance.k):
            o.sample_conditional_agreement(i, (0, 1), 20_000)
    elif start == "large-buffer":
        # part-way into an oversized buffer, as the rejection loop leaves a
        # stream between its refill of 2 (n - got) variates and its cut
        for stream in o._streams:
            stream.refill(3 * stream.block + 11)
            stream.take(5)


@pytest.mark.parametrize("log_transcript", [False, True])
@pytest.mark.parametrize("kind", sorted(FAMILY_BUILDERS))
def test_round_losses_equals_k_draws_on_a_twin(kind, log_transcript):
    for name, start in itertools.product(sorted(TWIN_INSTANCES),
                                         ("fresh", "agreement", "large-buffer")):
        _check_twin_rounds(TWIN_INSTANCES[name](), kind, log_transcript, start)


def _check_twin_rounds(inst: MDLInstance, kind: str, log_transcript: bool,
                       start: str) -> None:
    labels = inst.hypothesis_class.labels
    fused_o = OracleSet(inst, seed=31, log_transcript=log_transcript)
    twin_o = OracleSet(inst, seed=31, log_transcript=log_transcript)
    _start_streams(fused_o, start)
    _start_streams(twin_o, start)
    fused = FAMILY_BUILDERS[kind](fused_o)
    twin = FAMILY_BUILDERS[kind](twin_o)
    for t, counts in enumerate(_round_counts(inst.k)):
        row = labels[t % len(labels)]
        got = fused.round_losses(row.tolist(), list(counts))
        want = []
        for i, n in enumerate(counts):
            xs, ys = twin.draw(i, n)
            want.append(float((row[xs] != ys).mean()))
        assert got == want
        assert all(len(a._mirror) <= a.block for a in fused_o._streams)
    assert fused.calls.tolist() == twin.calls.tolist()
    assert fused_o.ledger.label_queries.tolist() == twin_o.ledger.label_queries.tolist()
    assert fused_o.ledger.unlabeled_draws.tolist() == twin_o.ledger.unlabeled_draws.tolist()
    assert fused_o.ledger.transcript == twin_o.ledger.transcript
    assert len(fused_o.ledger.transcript) == (fused_o.ledger.label_total
                                              if log_transcript else 0)
    assert fused_o.ledger.label_total > 0
    for a, b in zip(fused_o._streams, twin_o._streams):
        assert a.pos == b.pos and np.array_equal(a.buf, b.buf)


def test_uniform_take_matches_one_generator_run():
    # views within a block and copies across refills give the generator's
    # doubles in order, whatever the request sizes
    from amdl.oracles import _Uniforms
    src = _Uniforms(np.random.default_rng(5), block=8)
    got = np.concatenate([src.take(n).copy() for n in (3, 5, 0, 2, 20, 1, 7)])
    want = np.random.default_rng(5).random(got.size)
    assert np.array_equal(got, want)


def test_uniform_floats_match_take_and_mirror_at_most_one_block():
    # floats and take interleaved on one source read what take alone reads
    # on a twin, across refills and an oversized buffer; the float mirror
    # never holds more than one block
    from amdl.oracles import _Uniforms
    src = _Uniforms(np.random.default_rng(9), block=16)
    twin = _Uniforms(np.random.default_rng(9), block=16)
    plan = [("f", 3), ("t", 2), ("f", 16), ("f", 1), ("refill", 200), ("f", 5),
            ("f", 16), ("t", 7), ("f", 17), ("f", 0), ("f", 40), ("f", 150),
            ("f", 4), ("f", 30), ("t", 9), ("f", 12)]
    for op, n in plan:
        if op == "refill":
            src.refill(n)
            twin.refill(n)
            continue
        want = twin.take(n).tolist()
        got = src.floats(n) if op == "f" else src.take(n).tolist()
        assert got == want and all(type(v) is float for v in got)
        assert len(src._mirror) <= src.block
        assert src.pos == twin.pos and src.buf is not twin.buf
        assert np.array_equal(src.buf, twin.buf)


def test_float_mirror_stays_small_after_a_long_agreement_run():
    inst = _three_distribution_fixture()
    o = OracleSet(inst, seed=4)
    xs, _ = o.sample_conditional_agreement(2, (0, 1), 300_000)
    stream = o._streams[2]
    assert xs.size == 300_000 and stream.buf.size > 10 * stream.block
    fam = amdl.plain_family(o)
    for _ in range(50):
        fam.round_losses(inst.hypothesis_class.labels[0].tolist(), [1, 2, 3])
        assert len(stream._mirror) <= stream.block


def test_sampler_family_refuses_bad_index():
    fam = amdl.plain_family(OracleSet(two_point_instance(), seed=0))
    with pytest.raises(ContractViolation):
        fam.draw(1, 3)
    with pytest.raises(ContractViolation):
        fam.draw(-1, 3)
