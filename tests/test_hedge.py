"""The multiplicative-weights passive solver and its bookkeeping."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import amdl
from amdl import (ContractViolation, Hypothesis, HypothesisClass,
                  LabeledDistribution, MDLInstance, OracleSet, SolverConfig, hedge)
from amdl.hedge import (HedgeState, PooledStore, hedge_step, hyperparams, mdl_hedge_vc,
                        naive_erm_baseline)
from amdl.oracles import plain_family

from closed_forms import product_plays_reference, support_indices
from conftest import one_point_instance


def test_hyperparams_fidelity_head_values():
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0)
    eps1, eta, T, T1 = hyperparams(cfg, k=2, d=1)
    assert eps1 == 0.001
    assert eta == 0.01
    # frozen from a separate direct evaluation of the stated schedule
    assert (T, T1) == (105966348, 45159128)


def test_hyperparams_eta_independent_of_eps_when_realizable():
    for eps in (0.5, 0.2, 0.05, 0.01):
        cfg = SolverConfig(eps=eps, delta=0.1, nu=0.0)
        _, eta, _, _ = hyperparams(cfg, k=3, d=2)
        assert eta == 1.0 / 100.0


def test_hyperparams_agnostic_case_frozen_values():
    cfg = SolverConfig(eps=0.2, delta=0.1, nu=0.1)
    eps1, eta, T, T1 = hyperparams(cfg, k=4, d=2)
    assert eps1 == 0.002
    assert eta == 0.000196078431372549
    assert (T, T1) == (2702141857, 2209653856)


def test_hyperparams_knob_scaling():
    base = SolverConfig(eps=0.1, delta=0.1, nu=0.0)
    scaled = SolverConfig(eps=0.1, delta=0.1, nu=0.0, c_t=0.5, c_t1=0.25)
    _, _, T0, T10 = hyperparams(base, 2, 1)
    _, _, T1_, T11 = hyperparams(scaled, 2, 1)
    assert T1_ == math.ceil(T0 * 0.5)
    assert T11 == math.ceil(T10 * 0.25)


def test_solver_config_validation():
    with pytest.raises(ContractViolation):
        SolverConfig(eps=0.0, delta=0.1, nu=0.0)
    with pytest.raises(ContractViolation):
        SolverConfig(eps=0.1, delta=1.0, nu=0.0)
    with pytest.raises(ContractViolation):
        SolverConfig(eps=0.1, delta=0.1, nu=1.0)
    with pytest.raises(ContractViolation):
        SolverConfig(eps=0.1, delta=0.1, nu=0.0, c_t=0.0)


@pytest.mark.parametrize("knob", ["c_t", "c_t1", "c_eta", "c_eps1", "c_n", "c_naive"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_solver_config_refuses_non_finite_knobs(knob, value):
    # NaN passes a `<= 0` test, and hyperparams then failed in math.ceil
    with pytest.raises(ContractViolation, match="positive and finite"):
        SolverConfig(eps=0.1, delta=0.1, nu=0.0, **{knob: value})


@pytest.mark.parametrize("target,value", [("eps", "0.1"), ("eps", None), ("eps", [0.1]),
                                          ("delta", "0.1"), ("delta", True), ("nu", "0.1"),
                                          ("nu", False), ("nu", None), ("nu", 0.1j)])
def test_solver_config_refuses_a_target_that_is_not_a_number(target, value):
    # a str or None raised TypeError in the range comparisons, and nu=False
    # passed as 0
    with pytest.raises(ContractViolation, match=f"{target} must be a real number"):
        SolverConfig(**dict(dict(eps=0.1, delta=0.1, nu=0.0), **{target: value}))


def test_run_trials_refuses_a_target_that_is_not_a_number():
    inst = amdl.gen_prop1(2, 0.1)
    with pytest.raises(ContractViolation, match="eps must be a real number"):
        amdl.run_trials(amdl.RunConfig(alg="passive-naive", eps="0.2", delta=0.1,
                                       instance=inst))


def test_hyperparams_refuse_an_overflowing_schedule():
    # finite knobs whose schedule overflows to inf, which math.ceil refuses
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, c_t=1e305, c_t1=1e305)
    with pytest.raises(ContractViolation, match="infinite"):
        hyperparams(cfg, 2, 1)


@pytest.mark.parametrize("eps", [1e-300, 5e-324])
def test_hyperparams_refuse_an_underflowing_eps(desk_knobs, eps):
    # eps1 ** 2 underflows to zero, and nu / eps1 ** 2 divided by it
    cfg = SolverConfig(eps=eps, delta=0.1, nu=0.0, **desk_knobs)
    with pytest.raises(ContractViolation, match="underflows"):
        hyperparams(cfg, 2, 1)


def test_hedge_step_zero_rewards_keep_weights():
    state = HedgeState(3)
    w_before = state.normalized().copy()
    hedge_step(state, np.zeros(3), eta=0.5)
    assert np.allclose(state.w, w_before, atol=0)


def test_hedge_step_closed_form_two_arms():
    state = HedgeState(2)
    hedge_step(state, np.array([1.0, 0.0]), eta=0.5)
    e5 = math.exp(0.5)
    assert state.w[0] == pytest.approx(e5 / (e5 + 1), abs=1e-15)
    assert state.w[1] == pytest.approx(1 / (e5 + 1), abs=1e-15)


def test_hedge_step_uniform_rewards_cancel():
    state = HedgeState(4)
    hedge_step(state, np.full(4, 0.7), eta=0.3)
    assert np.allclose(state.w, 0.25, atol=1e-15)


# the solver passes round_losses' list of floats; arrays are refused alike
BAD_REWARDS = [[1.2, 0.0], [0.0, -0.1], [0.5, float("inf")], [0.5], [0.5, 0.5, 0.5]]


def _refuses(rewards) -> None:
    for r in (rewards, np.array(rewards)):
        state = HedgeState(2)
        with pytest.raises(ContractViolation):
            hedge_step(state, r, eta=0.1)
        assert state.t == 0 and state.log_w == [0.0, 0.0]


def test_hedge_step_rejects_out_of_range_rewards():
    for rewards in BAD_REWARDS:
        _refuses(rewards)


def test_hedge_step_rejects_nan_rewards():
    _refuses([float("nan"), 0.0])
    _refuses([0.3, float("nan")])


def test_hedge_step_folds_the_running_maxima():
    state = HedgeState(2)
    hedge_step(state, [1.0, 0.0], eta=0.5)
    hedge_step(state, [0.0, 1.0], eta=2.0)
    assert state.w == state.w_arr.tolist() and state.t == 2
    first = math.exp(0.5) / (math.exp(0.5) + 1)
    assert state.w_bar[0] == pytest.approx(first, abs=1e-15)
    assert state.w_bar[1] == max(state.w[1], 1 - first)


def _list_normalized(log_w: list[float]) -> np.ndarray:
    # the reference: np.exp over the shifted list, divided by its numpy sum
    top = max(log_w)
    e = np.exp([v - top for v in log_w])
    return e / e.sum()


@pytest.mark.parametrize("k", [2, 4, 8, 9, 17])
def test_hedge_step_weights_equal_the_list_formula_bit_for_bit(k):
    # k >= 8 takes numpy's pairwise sum; spreads up to 1e3 underflow some weights
    rng = np.random.default_rng(k)
    for spread in (1e-3, 1.0, 40.0, 1e3):
        state = HedgeState(k)
        state.log_w = (rng.standard_normal(k) * spread).tolist()
        for t in range(50):
            r = rng.random(k).tolist()
            eta = float(rng.uniform(0.0, 3.0))
            want_log = [v + eta * x for v, x in zip(state.log_w, r)]
            hedge_step(state, r, eta)
            want = _list_normalized(want_log)
            assert state.log_w == want_log
            assert state.w_arr.tobytes() == want.tobytes()
            assert state.w == want.tolist()


# the solver's weighted ERM: PooledStore keeps mistake counts as the store grows

def _store(cls: HypothesisClass, samples) -> PooledStore:
    store = PooledStore(cls.labels, len(samples))
    for i, (xs, ys) in enumerate(samples):
        if xs:
            store.add(i, np.array(xs), np.array(ys, dtype=np.int8))
    return store


def test_weighted_erm_consistent_sample():
    inst = one_point_instance()
    store = _store(inst.hypothesis_class, [([0, 0, 0], [1, 1, 1])])
    assert store.erm(np.array([1.0])) == 0  # the all-plus hypothesis fits perfectly


def test_weighted_erm_hand_built_store():
    cls = HypothesisClass([Hypothesis([1, 1]), Hypothesis([-1, 1])])
    # dist 0: two samples, one error for h0 at point 0 labeled -1
    # dist 1: one sample at point 1 labeled +1 (no errors for either)
    store = _store(cls, [([0, 0], [-1, 1]), ([1], [1])])
    assert store.n.tolist() == [2, 1] and store.err.tolist() == [[1, 1], [0, 0]]
    # hand evaluation: h0 score 0.5*(1/2) = 0.25; h1 score 0.5*(1/2) = 0.25 -> tie -> h0
    assert store.erm(np.array([0.5, 0.5])) == 0
    # two more samples per distribution, added in steps: h0 errs on both
    # new dist-0 samples, h1 on neither; both err on both new dist-1 samples
    store.add(0, np.array([0]), np.array([-1], dtype=np.int8))
    store.add(0, np.array([0]), np.array([-1], dtype=np.int8))
    store.add(1, np.array([1, 1]), np.array([-1, -1], dtype=np.int8))
    assert store.n.tolist() == [4, 3] and store.err.tolist() == [[3, 1], [2, 2]]
    # h0: 0.5*(3/4) + 0.5*(2/3) ; h1: 0.5*(1/4) + 0.5*(2/3) -> h1
    assert store.erm(np.array([0.5, 0.5])) == 1
    # all weight on dist 1, where both err twice: tie -> h0
    assert store.erm(np.array([0.0, 1.0])) == 0


def test_weighted_erm_tie_breaks_by_class_order():
    cls = HypothesisClass([Hypothesis([1]), Hypothesis([-1])])
    store = _store(cls, [([0, 0], [1, -1])])
    assert store.erm(np.array([1.0])) == 0


def test_weighted_erm_requires_samples_for_weighted_dist():
    cls = HypothesisClass([Hypothesis([1])])
    with pytest.raises(ContractViolation):
        _store(cls, [([], [])]).erm(np.array([1.0]))
    with pytest.raises(ContractViolation):
        _store(cls, [([0], [1]), ([], [])]).erm(np.array([0.5, 0.5]))


def test_weighted_erm_equals_the_int64_formula_on_random_stores():
    # the reference keeps n and the mistake counts as int64, as they are drawn
    rng = np.random.default_rng(3)
    for _ in range(60):
        k, m = int(rng.integers(1, 10)), int(rng.integers(1, 12))
        labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=(int(rng.integers(1, 40)), m))
        labels = labels[rng.integers(0, len(labels), size=len(labels) + 5)]  # tied rows
        store = PooledStore(labels, k)
        n = np.zeros(k, dtype=np.int64)
        err = np.zeros((k, len(labels)), dtype=np.int64)
        for i in range(k):
            for _ in range(int(rng.integers(1, 4))):
                xs = rng.integers(0, m, size=int(rng.integers(1, 400)))
                ys = rng.choice(np.array([-1, 1], dtype=np.int8), size=xs.size)
                store.add(i, xs, ys)
                err[i] += (labels[:, xs] != ys).sum(axis=1)
                n[i] += xs.size
        assert store.n.dtype == np.int64 and store.n.tolist() == n.tolist()
        for w in [rng.dirichlet(np.ones(k)) for _ in range(20)] + [np.full(k, 1.0 / k)]:
            assert store.erm(w) == int(((w / n) @ err).argmin())


def test_round_losses_realizable_is_zero():
    inst = one_point_instance()
    o = OracleSet(inst, seed=0)
    fam = plain_family(o)
    r = fam.round_losses(inst.hypothesis_class.labels, 0, [1], 1)
    assert r == [0.0]
    assert o.ledger.unlabeled_draws.tolist() == [1] and o.ledger.label_total == 1


def test_round_losses_sample_count_and_noise_rate():
    cls = HypothesisClass([Hypothesis([1])])
    dist = LabeledDistribution([1.0], [0.5])
    inst = MDLInstance(cls, [dist])
    o = OracleSet(inst, seed=0)
    fam = plain_family(o)
    counts = [math.ceil(5 * 0.6)]  # the solver's ceil(k * w_bar_i)
    total, rounds = 0.0, 3000
    for t in range(rounds):
        total += fam.round_losses(cls.labels, 0, counts, rounds - t)[0]
    assert o.ledger.label_total == o.ledger.unlabeled_total == 3 * rounds
    assert abs(total / rounds - 0.5) < 0.02


# the solver's k (its sampler's) and d, and the naive baseline's n, that are
# a bool, fractional or out of range
BAD_SOLVER_INTS = {
    "mdl_hedge_vc-k-below-the-sampler's": ("k", dict(k=1)),
    "mdl_hedge_vc-k-zero": ("k", dict(k=0)),
    "mdl_hedge_vc-k-fractional": ("k", dict(k=1.5)),
    "mdl_hedge_vc-d-negative": ("d", dict(d=-1)),
    "mdl_hedge_vc-d-fractional": ("d", dict(d=1.5)),
    "mdl_hedge_vc-d-bool": ("d", dict(d=True)),
    "naive_erm_baseline-n-zero": ("n", dict(n=0)),
    "naive_erm_baseline-n-fractional": ("n", dict(n=2.5)),
    "naive_erm_baseline-n-bool": ("n", dict(n=True)),
}


def _solve_or_baseline(o: OracleSet, k=2, d=1, n=None):
    inst = o.instance
    if n is not None:
        return naive_erm_baseline(inst, o, n)
    cls = inst.hypothesis_class
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=float(inst.nu_exact()), **amdl.PROFILES["desk"])
    return mdl_hedge_vc(cls, cls.full_version_space(), plain_family(o), cfg, k, d)


@pytest.mark.parametrize("case", sorted(BAD_SOLVER_INTS))
def test_solver_and_baseline_refuse_a_bad_integer_before_any_draw(case):
    name, args = BAD_SOLVER_INTS[case]
    o = OracleSet(amdl.gen_prop1(2, 0.2), seed=0)
    with pytest.raises(ContractViolation, match=f"^{name}"):
        _solve_or_baseline(o, **args)
    assert [s.consumed for s in o._streams] == [0, 0] and o.ledger.unlabeled_total == 0


@pytest.mark.parametrize("args", [dict(k=2, d=1), dict(n=40)], ids=str)
def test_solver_and_baseline_take_numpy_integers(args):
    inst = amdl.gen_prop1(2, 0.2)
    outs = [_solve_or_baseline(OracleSet(inst, seed=3), **{key: cast(v) for key, v in args.items()})
            for cast in (int, np.int64)]
    assert repr(outs[0]) == repr(outs[1])


def test_round_losses_refuses_an_empty_count():
    inst = amdl.gen_prop1(3, 0.2)
    fam = plain_family(OracleSet(inst, seed=0))
    with pytest.raises(ContractViolation):
        fam.round_losses(inst.hypothesis_class.labels, 0, [1, 0, 1], 5)
    with pytest.raises(ContractViolation):
        fam.round_losses(inst.hypothesis_class.labels, 0, [1, 1, 1], 0)


def _alternation_instance(gamma: Fraction) -> MDLInstance:
    # no pure hypothesis beats worst-case 2*gamma, but the uniform mixture of
    # the two attains gamma
    cls = HypothesisClass([Hypothesis([1, 1, -1]), Hypothesis([1, -1, 1])])
    d1 = LabeledDistribution([1 - 2 * gamma, 2 * gamma, Fraction(0)],
                             [Fraction(1), Fraction(1), Fraction(0)])
    d2 = LabeledDistribution([1 - 2 * gamma, Fraction(0), 2 * gamma],
                             [Fraction(1), Fraction(0), Fraction(1)])
    return MDLInstance(cls, [d1, d2])


def test_mdl_hedge_vc_realizable_single_distribution(desk_knobs):
    inst = one_point_instance()
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, **desk_knobs)
    ok = 0
    for seed in range(50):
        o = OracleSet(inst, seed)
        res = mdl_hedge_vc(inst.hypothesis_class, (0, 1), plain_family(o), cfg, 1, 1)
        ok += amdl.worst_loss(res.hypothesis, inst) <= 0.1 + 1e-12
    assert ok >= 45  # delta = 0.1: at least 90 percent of 50 trials


def test_mdl_hedge_vc_mixture_beats_pure_hypotheses(desk_knobs):
    gamma = Fraction(1, 5)
    inst = _alternation_instance(gamma)
    nu = float(inst.nu_exact())
    assert nu == 0.4  # both pure hypotheses sit at 2*gamma
    cfg = SolverConfig(eps=0.05, delta=0.1, nu=nu, **desk_knobs)
    ok = 0
    for seed in range(10):
        o = OracleSet(inst, seed)
        res = mdl_hedge_vc(inst.hypothesis_class, (0, 1), plain_family(o), cfg, 2, 1)
        wl = amdl.worst_loss(res.hypothesis, inst)
        # the mixture lands near the game value gamma, strictly below both pures
        ok += wl < 0.4 and wl <= float(gamma) + 0.05
    assert ok >= 9


def test_mdl_hedge_vc_accounting_reconciles(desk_knobs):
    inst = amdl.gen_agnostic_lb(3, 0.4, 0.05)
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=float(inst.nu_exact()), **desk_knobs)
    o = OracleSet(inst, seed=0)
    fam = plain_family(o)
    res = mdl_hedge_vc(inst.hypothesis_class, (0, 1), fam, cfg, 3, 1, collect_trace=True)
    # every plain draw is one labeled pair: the ledger equals the solver's counts
    drawn = res.reward_draws + res.store_draws
    assert int(drawn.sum()) == o.ledger.label_total
    assert np.array_equal(drawn, o.ledger.unlabeled_draws)
    assert res.hypothesis.total == res.rounds
    # trace monotonicity of the running maxima l1 norm
    l1 = [row[2] for row in res.trace]
    assert all(a <= b + 1e-15 for a, b in zip(l1, l1[1:]))
    # each round draws ceil(k * w_bar_i) reward pairs from distribution i,
    # where w_bar is the running maximum of the played weight vectors
    w_bar = np.zeros(3)
    expected = np.zeros(3, dtype=np.int64)
    for row in res.trace:
        w_bar = np.maximum(w_bar, row[1])
        expected += [math.ceil(3 * v) for v in w_bar]
    assert res.reward_draws.tolist() == expected.tolist()


def test_mdl_hedge_vc_respects_version_space(desk_knobs):
    inst = amdl.gen_prop1(3, 0.2)
    cfg = SolverConfig(eps=0.2, delta=0.1, nu=0.01, **desk_knobs)
    o = OracleSet(inst, seed=1)
    res = mdl_hedge_vc(inst.hypothesis_class, (1, 2), plain_family(o), cfg, 3, 1)
    assert set(support_indices(res.hypothesis)) <= {1, 2}


def test_naive_baseline_realizable_and_label_count(desk_knobs):
    inst = amdl.gen_star_lb(2, 3, 1, 1)
    cfg = SolverConfig(eps=0.1, delta=0.1, nu=0.0, **desk_knobs)
    o = OracleSet(inst, seed=0)
    n_per = amdl.plan("passive-naive", cfg, inst.k, 1).naive_n
    h = naive_erm_baseline(inst, o, n_per)
    assert amdl.worst_loss(h, inst) == 0.0
    assert o.ledger.label_total == inst.k * n_per


# the whole-chunk formulas a solve may use in place of its per-round ones:
# each must give the per-round result bit for bit, row by row

CHUNK_KS = (2, 4, 8, 9, 17)
CHUNK_CANDIDATES = (1, 2, 3, 9, 128)


def _chunk_rows(rng, k: int, rows: int) -> np.ndarray:
    # spreads up to 1e3 underflow some weights, as in the hedge_step pin
    return rng.standard_normal((rows, k)) * float(rng.choice([1e-3, 1.0, 40.0, 1e3]))


@pytest.mark.parametrize("k", CHUNK_KS)
def test_stacked_erm_scores_equal_the_per_round_scores_bit_for_bit(k):
    # plain 2-D `(W / n) @ err` takes the gemm path and differs; the stacked
    # product runs one vector-matrix product per row, as a round does
    rng = np.random.default_rng(100 + k)
    for size in CHUNK_CANDIDATES:
        for rows in range(1, 65):
            w = rng.dirichlet(np.ones(k), size=rows)
            n = rng.integers(1, 5000, size=k).astype(float)
            err = np.floor(rng.random((k, size)) * n[:, None])
            got = np.matmul((w / n)[:, None, :], err)[:, 0, :]
            for s in range(rows):
                assert got[s].tobytes() == ((w[s] / n) @ err).tobytes(), (size, rows, s)


@pytest.mark.parametrize("k", CHUNK_KS)
def test_row_wise_normalize_equals_hedge_state_bit_for_bit(k):
    rng = np.random.default_rng(200 + k)
    for rows in range(1, 65):
        log_w = _chunk_rows(rng, k, rows)
        e = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        e /= np.add.reduce(e, axis=1)[:, None]
        for s in range(rows):
            state = HedgeState(k)
            state.log_w = log_w[s].tolist()
            assert e[s].tobytes() == state.normalized().tobytes(), (rows, s)


@pytest.mark.parametrize("k", CHUNK_KS)
def test_accumulated_log_weights_equal_repeated_updates_bit_for_bit(k):
    rng = np.random.default_rng(300 + k)
    for rows in range(1, 65):
        start = _chunk_rows(rng, k, 1)[0]
        rewards = rng.integers(0, 9, size=(rows, k)) / rng.integers(1, 9, size=k)
        rewards = np.minimum(rewards, 1.0)
        eta = float(rng.uniform(1e-5, 3.0))
        got = np.add.accumulate(np.vstack([start, eta * rewards]), axis=0)
        log_w = start.tolist()
        for s in range(rows):
            log_w = [v + eta * r for v, r in zip(log_w, rewards[s].tolist())]
            assert got[s + 1].tobytes() == np.array(log_w).tobytes(), (rows, s)


# the chunked rounds of a solve over at most two candidates

def _traced_solve(inst, V, seed: int, desk_knobs: dict, eps: float) -> tuple:
    """Every HedgeResult field of one traced solve, with the ledger and
    transcript it left."""
    cfg = SolverConfig(eps=eps, delta=0.1, nu=float(inst.nu_exact()), **desk_knobs)
    o = OracleSet(inst, seed, log_transcript=True)
    res = mdl_hedge_vc(inst.hypothesis_class, V, plain_family(o), cfg, inst.k, 1,
                       collect_trace=True)
    trace = [(t, w.tobytes(), l1, n) for t, w, l1, n in res.trace]
    return (res.rounds, res.reward_draws.tolist(), res.store_draws.tolist(),
            res.hypothesis.counts, res.hypothesis.total, trace,
            o.ledger.label_queries.tolist(), o.ledger.unlabeled_draws.tolist(),
            o.ledger.transcript)


@pytest.mark.parametrize("make,V,eps", [
    (lambda: amdl.gen_agnostic_lb(4, 0.4, 0.05), (0, 1), 0.05),
    (lambda: amdl.gen_example1(0.2, 0.05, "a"), (0, 1), 0.05),
    (lambda: amdl.gen_prop1(3, 0.2), (2,), 0.2),
], ids=["agnostic-lb", "example1", "one-candidate"])
def test_a_mispredicted_play_changes_nothing(monkeypatch, desk_knobs, make, V, eps):
    inst = make()
    chunks = []
    play_chunk = hedge._play_chunk

    def counted(*args):
        chunks.append(play_chunk(*args))
        return chunks[-1]

    monkeypatch.setattr(hedge, "_play_chunk", counted)
    want = [_traced_solve(inst, V, seed, desk_knobs, eps) for seed in range(3)]
    unforced = list(chunks)
    predict = hedge._predict_plays
    flips = []

    def flipped(*args):
        plays = predict(*args)
        if len(plays) > 2:        # one play mid-chunk goes to the other candidate
            mid = len(plays) // 2
            plays[mid] = 1 - plays[mid]
            flips.append(mid)
        return plays

    monkeypatch.setattr(hedge, "_predict_plays", flipped)
    chunks.clear()
    got = [_traced_solve(inst, V, seed, desk_knobs, eps) for seed in range(3)]
    assert sum(unforced) > 0.9 * sum(w[0] for w in want)    # most rounds ran in chunks
    assert flips and len(chunks) > len(unforced)
    assert got == want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c_eta", [50.0, 1e6], ids=["desk", "huge-eta"])
def test_chunked_solves_equal_one_round_at_a_time(monkeypatch, desk_knobs, c_eta):
    # a huge eta overflows the shadow's exp(eta r), which only ends its
    # predictions, without a warning
    knobs = dict(desk_knobs, c_eta=c_eta)
    cases = [(amdl.gen_agnostic_lb(4, 0.4, 0.05), (0, 1), 0.05),
             (amdl.gen_example1(0.2, 0.05, "b"), (0, 1), 0.05),
             (amdl.gen_prop1(4, 0.1), (1, 3), 0.1)]
    chunked = [_traced_solve(inst, V, seed, knobs, eps) for inst, V, eps in cases
               for seed in range(2)]
    monkeypatch.setattr(hedge, "_play_chunk", lambda *args: 0)
    alone = [_traced_solve(inst, V, seed, knobs, eps) for inst, V, eps in cases
             for seed in range(2)]
    assert chunked == alone


@pytest.mark.parametrize("shadow", ["alternating", "blind"])
def test_overshooting_predictions_equal_one_round_at_a_time(monkeypatch, desk_knobs, shadow):
    # the shadow's plays padded to the whole span with alternating plays, and
    # a shadow that never sees a doubling or count change: the verifier, not
    # the shadow, stops a chunk at a boundary
    predict = hedge._predict_plays

    def padded(state, store, tables, local, counts, doubled, eta, span):
        if shadow == "blind":     # every limit min(doubled_i, counts_i / k) infinite
            counts, doubled = [math.inf] * state.k, [math.inf] * state.k
        plays = predict(state, store, tables, local, counts, doubled, eta, span)
        return plays + [(len(plays) + q) % 2 for q in range(span - len(plays))]

    # at c_eta = 300 a weight of prop1(5, 0.1) doubles mid-chunk with no
    # count change, so only the verifier's doubling test stops the chunk
    fast = dict(desk_knobs, c_eta=300.0)
    cases = [(amdl.gen_agnostic_lb(4, 0.4, 0.05), (0, 1), 0.05, desk_knobs),
             (amdl.gen_example1(0.2, 0.05, "b"), (0, 1), 0.05, desk_knobs),
             (amdl.gen_prop1(4, 0.1), (1, 3), 0.1, desk_knobs),
             (amdl.gen_prop1(5, 0.1), (0, 1), 0.1, fast)]
    monkeypatch.setattr(hedge, "_predict_plays", padded)
    overshot = [_traced_solve(inst, V, seed, knobs, eps) for inst, V, eps, knobs in cases
                for seed in range(2)]
    monkeypatch.setattr(hedge, "_play_chunk", lambda *args: 0)
    alone = [_traced_solve(inst, V, seed, knobs, eps) for inst, V, eps, knobs in cases
             for seed in range(2)]
    assert overshot == alone


def _weights(log_w) -> list[float]:
    state = HedgeState(len(log_w))
    state.log_w = list(log_w)
    return state.normalized().tolist()


def _plays_by_definition(log_w, gap, tables, j, eta, rounds) -> tuple[list[int], list[float]]:
    """The plays of `rounds` rounds, candidate 1 iff w . gap > 0 with w the
    normalized weights, and the smallest |w . gap| on the way."""
    plays, margins, log_w = [j], [], list(log_w)
    for s in range(rounds):
        log_w = [v + eta * r for v, r in zip(log_w, tables[j][s].tolist())]
        score = sum(a * b for a, b in zip(_weights(log_w), gap))
        margins.append(abs(score))
        j = 1 if score > 0 else 0
        plays.append(j)
    return plays, margins


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([[1.0, 1.0], [0.3, 0.8], [0.55, 0.6]]))
def test_threshold_shadow_predicts_the_product_shadow_plays(seed, lim):
    # k = 2 inputs whose margin |w . gap| stays above 1e-9: both forms predict
    # the same plays; with limits at or above one neither stops before the span
    rng = np.random.default_rng(seed)
    span = int(rng.integers(1, 90))
    tables = [rng.integers(0, 9, size=(span, 2)) / 8.0 for _ in range(2)]
    log_w = rng.uniform(-3, 3, size=2).tolist()
    gap = (rng.integers(-6, 7, size=2) / rng.integers(1, 9, size=2)).tolist()
    eta, local = float(rng.uniform(1e-3, 2.0)), int(rng.integers(0, 2))
    want, margins = _plays_by_definition(log_w, gap, tables, local, eta, span - 1)
    assume(min(margins, default=1.0) > 1e-9)
    got = hedge._threshold_plays(log_w, gap, lim, tables, local, eta, span)
    product = hedge._product_plays(_weights(log_w), gap, lim, tables, local, eta, span)
    n = min(len(got), len(product))
    assert got[:n] == product[:n] == want[:n]
    if min(lim) >= 1.0:
        assert got == product == want


@pytest.mark.parametrize("gap", [(0.3, 0.2), (-0.3, 0.2), (0.0, 0.2), (0.3, -0.2), (-0.3, -0.2),
                                 (0.0, -0.2), (0.3, 0.0), (-0.3, 0.0), (0.0, 0.0)])
def test_threshold_shadow_sign_cases(gap):
    # each sign case of (g0, g1): D moves in steps of 0.5 over [-2, 2], and
    # the plays follow the sign of w . gap
    steps = [1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1, -1, 1, 1, 1, 1]
    tables = [np.array([[0.0, 1.0] if q > 0 else [1.0, 0.0] for q in steps])] * 2
    want, margins = _plays_by_definition([0.0, 0.0], list(gap), tables, 0, 0.5, len(steps))
    assert min(margins) > 1e-3 or gap[1] == 0.0
    got = hedge._threshold_plays([0.0, 0.0], list(gap), [1.0, 1.0], tables, 0, 0.5,
                                 len(steps) + 1)
    assert got == want
    if gap[1] == 0.0:
        assert set(got[1:]) == {1 if gap[0] > 0 else 0}
    elif gap[0] * gap[1] >= 0:       # never crosses: one play throughout
        assert set(got[1:]) == {1 if gap[1] > 0 else 0}
    else:
        assert set(got[1:]) == {0, 1}


@pytest.mark.parametrize("lim,plays", [([1.0, 1.0], 15), ([2.0, 1.0], 15), ([1.0, 0.9], 3),
                                       ([0.9, 1.0], 9), ([0.0, 1.0], 1), ([1.0, -1.0], 1)])
def test_threshold_shadow_limits(lim, plays):
    # D climbs by 1 for three rounds, then falls by 1: a limit at or above one
    # never stops the shadow, one at or below zero stops it at once, and
    # otherwise it stops on the round w_1 reaches lim_1 (D = 3 > log 9) or w_0
    # reaches lim_0 (D = -3 < log 1/9)
    tables = [np.array([[0.0, 1.0]] * 3 + [[1.0, 0.0]] * 12)] * 2
    got = hedge._threshold_plays([0.0, 0.0], [-0.5, 1.0], lim, tables, 0, 1.0, 15)
    assert len(got) == plays


@pytest.mark.filterwarnings("error")
def test_threshold_shadow_stops_on_infinite_or_nan_ratio():
    # a huge eta makes D infinite on the second round, and a NaN log weight a
    # NaN D: the shadow stops there, without a warning
    state, store = HedgeState(2), PooledStore(np.array([[1, -1], [-1, 1]]), 2)
    for i in range(2):
        store.add(i, np.array([0, 1]), np.array([1, 1]))
    tables = [np.array([[0.0, 1.0]] * 8)] * 2
    plays = hedge._predict_plays(state, store, tables, 0, [2, 2], [2.0, 2.0], 1e308, 8)
    assert plays == [0, 0]
    state.log_w = [0.0, math.nan]
    assert hedge._predict_plays(state, store, tables, 0, [2, 2], [2.0, 2.0], 0.1, 8) == [0]


def _product_shadow_cases():
    """Seeded `_product_plays` inputs: k in {1, 3, 4, 5, 8, 9, 16}, spans 1 to
    120, both local plays, limits from {0, 0.3, 0.9, 1, 2} (one value for all
    k, or one each), eta from 1e-3 to 1e308, and one NaN weight per k."""
    rng = np.random.default_rng(24)
    for k in (1, 3, 4, 5, 8, 9, 16):
        for n, (eta, local) in enumerate((e, j) for e in (1e-3, 0.05, 2.0, 1e308) for j in (0, 1)):
            for case in range(4):
                span = 1 if case == n == 0 else int(rng.integers(1, 121))
                tables = [rng.integers(0, 9, size=(span, k)) / 8.0 for _ in range(2)]
                w = rng.uniform(0.05, 1.0, size=k)
                w = (w / w.sum()).tolist()
                if case == 3 and n == 1:
                    w[k // 2] = math.nan
                gap = (rng.integers(-6, 7, size=k) / rng.integers(1, 9, size=k)).tolist()
                limits = [0.0, 0.3, 0.9, 1.0, 2.0]
                lim = (rng.choice(limits, size=k) if case % 2 else
                       np.full(k, rng.choice(limits))).tolist()
                yield w, gap, lim, tables, local, eta, span


# sha256 of repr([plays of each _product_shadow_cases() input]), taken with
# the list-based product shadow on CPython 3.11
PRODUCT_SHADOW_SHA256 = "5fbd69c74f321094a7a2a02e3e4d3fd243a352126cdf3f4d93914236ad671cc2"


def test_product_shadow_plays_match_their_pin():
    import hashlib
    with np.errstate(over="ignore"):        # as _predict_plays runs it
        plays = [hedge._product_plays(*case) for case in _product_shadow_cases()]
    assert len(plays) == 7 * 8 * 4
    # some stop at once, some run for blocks
    assert min(map(len, plays)) == 1 and max(map(len, plays)) > 6 * hedge.SHADOW_BLOCK
    assert hashlib.sha256(repr(plays).encode()).hexdigest() == PRODUCT_SHADOW_SHA256


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 17), st.integers(0, 2 ** 32 - 1))
def test_product_shadow_kernel_equals_the_list_reference(k, seed):
    # inputs whose margin |w . gap| stays above 1e-9, so that a `sum` that
    # compensates (CPython 3.12) leaves the reference's plays as they are;
    # the second call reads the kernel that the first one built or found
    rng = np.random.default_rng(seed)
    span = int(rng.integers(1, 90))
    tables = [rng.integers(0, 9, size=(span, k)) / 8.0 for _ in range(2)]
    log_w = rng.uniform(-3, 3, size=k).tolist()
    gap = (rng.integers(-6, 7, size=k) / rng.integers(1, 9, size=k)).tolist()
    lim = (rng.choice([0.0, 0.3, 0.9, 1.0, 2.0], size=k) if rng.random() < 0.5
           else np.full(k, 2.0)).tolist()
    eta, local = float(rng.uniform(1e-3, 2.0)), int(rng.integers(0, 2))
    _, margins = _plays_by_definition(log_w, gap, tables, local, eta, span - 1)
    assume(min(margins, default=1.0) > 1e-9)
    args = (_weights(log_w), gap, lim, tables, local, eta, span)
    first = hedge._product_plays(*args)
    kernel = hedge._PRODUCT_KERNELS[k]
    assert hedge._product_plays(*args) == first == product_plays_reference(*args)
    assert hedge._PRODUCT_KERNELS[k] is kernel


@pytest.mark.parametrize("gap,play", [([0.0], 0), ([0.0, 0.0, 0.0], 0),
                                      ([1.0, 2.0 ** 60, -2.0 ** 60], 0),
                                      ([2.0 ** 60, -2.0 ** 60, 1.0], 1)])
def test_product_shadow_adds_the_score_left_to_right(gap, play):
    # equal weights that never move: a zero score plays 0, and w_0 g_0 + w_1
    # g_1 + w_2 g_2 is added left to right, as sum(map(mul, w, gap)) adds it
    # on CPython 3.11, so a weight times 1 is lost against 2^60 only before it
    k = len(gap)
    tables = [np.zeros((20, k))] * 2
    plays = hedge._product_plays([1.0 / k] * k, gap, [2.0] * k, tables, 1 - play, 0.1, 20)
    assert plays == [1 - play] + [play] * 19


def test_product_shadow_adds_the_block_total_left_to_right():
    # 1 + 2^-53 rounds to 1, and so does its sum with another 2^-53: w_0 / tot
    # stays 1, reaches its limit of 1 and stops the shadow after one block
    tables = [np.zeros((40, 3))] * 2
    plays = hedge._product_plays([1.0, 2.0 ** -53, 2.0 ** -53], [0.0] * 3, [1.0, 2.0, 2.0],
                                 tables, 0, 0.1, 40)
    assert plays == [0] * (1 + hedge.SHADOW_BLOCK)


@pytest.mark.parametrize("case", ["a", "b"])
def test_two_distribution_shadow_stops_at_the_boundary(monkeypatch, case):
    # on the example1 acceptance cell's solves the k = 2 shadow predicts at
    # most one round past each chunk that `_play_chunk` keeps (a shadow that
    # predicts one round plays it alone); each prediction is paired with the
    # chunk that made it, since a chunk at a weight's limit predicts nothing
    from amdl import harness
    inst = amdl.gen_example1(0.2, 0.05, case)
    assert inst.k == 2
    predicted, pairs = [], []
    predict, play_chunk = hedge._predict_plays, hedge._play_chunk

    def counted_predict(*args):
        plays = predict(*args)
        predicted.append(len(plays))
        return plays

    def counted_chunk(*args):
        before = len(predicted)
        kept = play_chunk(*args)
        assert len(predicted) - before <= 1
        pairs.extend((m, kept) for m in predicted[before:])
        return kept

    monkeypatch.setattr(hedge, "_predict_plays", counted_predict)
    monkeypatch.setattr(hedge, "_play_chunk", counted_chunk)
    cfg = harness.RunConfig(alg="active-dd-small", eps=0.05, delta=0.1, instance=inst)
    p = cfg.plan()
    for seed in range(3):
        harness.run_single_trial(inst, p, seed)
    assert len(pairs) == len(predicted) and sum(c for _, c in pairs) > 3 * 2000  # ~3,250 a solve
    assert all(m <= c + 1 for m, c in pairs)


def _stops_before_products(r, w, bars, erm, p, doubled, counts):
    """The chunk stop tests as row reductions, as `_play_chunk` computed them
    before `_chunk_stops`."""
    stop = ~(((r >= 0.0) & (r <= 1.0)).all(axis=1)
             & (np.abs(np.add.reduce(w, axis=1) - 1.0) <= hedge.WEIGHT_SUM_TOL / 2))
    stop[1:] |= ((w[:-1] >= doubled).any(axis=1) | (erm != p[1:])
                 | (np.ceil(len(counts) * bars[1:]) != counts).any(axis=1))
    return stop


def _trip(case, s, r, w, bars, erm):
    """Make row s fail one stop test (or, for the `inside` cases, come near one)."""
    if case == "nan reward":
        r[s, 1] = math.nan
    elif case == "negative reward":
        r[s, 0] = -1e-300
    elif case == "reward above one":
        r[s, 2] = np.nextafter(1.0, 2.0)
    elif case == "nan weight":
        w[s, 1] = math.nan
    elif case == "weight sum above":
        w[s] *= 1 + 1e-12
    elif case == "weight sum below":
        w[s] *= 1 - 1e-12
    elif case == "weight sum inside":
        w[s] *= 1 + 1e-13
    elif case == "doubling":
        w[s - 1] = [0.25, 0.5, 0.25]
    elif case == "doubling inside":
        w[s - 1] = [0.25, np.nextafter(0.5, 0.0), 0.25]
    elif case == "count change":
        bars[s, 0] = 0.34
    elif case == "mispredicted":
        erm[s - 1] ^= 1


STOP_CASES = ("nan reward", "negative reward", "reward above one", "nan weight",
              "weight sum above", "weight sum below", "weight sum inside", "doubling",
              "doubling inside", "count change", "mispredicted")


@pytest.mark.parametrize("case", STOP_CASES)
def test_chunk_stops_equal_the_row_reductions(case):
    # rows that pass every test, then one row built to trip (or just miss) each
    # test, at each row a test applies to; the chunk stops at the same rows
    m, k = 7, 3
    rng = np.random.default_rng(STOP_CASES.index(case))
    p = np.array([0, 1, 1, 0, 1, 0, 0])
    doubled, counts = [0.5, 0.5, 0.9], [1, 1, 2]
    for s in range(m):
        if s == 0 and case in ("doubling", "doubling inside", "count change", "mispredicted"):
            continue
        r = rng.random((m, k))
        w = np.tile([0.2, 0.3, 0.5], (m, 1))
        bars, erm = w.copy(), p[1:].copy()
        _trip(case, s, r, w, bars, erm)
        got = hedge._chunk_stops(r, w, bars, erm, p, doubled, counts)
        assert np.array_equal(got, _stops_before_products(r, w, bars, erm, p, doubled, counts))
        assert got.tolist() == [t == s and "inside" not in case for t in range(m)]
