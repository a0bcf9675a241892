"""Multiplicative-weights passive multi-distribution solver and baselines.

The solver simulates a zero-sum game: a column player reweights the k
distributions with Hedge while a row player best-responds with a weighted ERM
over a pooled sample store.  The store grows lazily under a doubling rule on
the weight vector, and the output is the uniform mixture of the played
hypotheses.  The same solver, fed with different injected samplers, serves as
the passive subroutine of every active algorithm in this package.

A round of `mdl_hedge_vc`: grow the store when some weight reaches twice its
threshold, play the weighted ERM over the store's float64 mistake counts,
estimate the rewards from ceil(k * w_bar_i) fresh pairs per distribution (a
row), and update the weights with `hedge_step`.  A zero reward row changes no
weight, so the doubling test, the ERM and the counts stay as they were: one
`SamplerFamily.row` call draws a zero-row stretch with the same play, up to
the first row with a loss, which is played as the next round, or to T, with
no `hedge_step` or ERM for the zero rows.  The running maxima w_bar seldom
grow, so the counts are recomputed, and the reward draws totalled, only when
they do.  A solve over at most two candidates plays stretches of rounds at
once, as a shadow in Python floats predicts them, each round verified bit
for bit (`_play_chunk`), on the loss tables the sampler reads from its
blocks (`SamplerFamily.tables`).  So a round is either played in a chunk or
drawn as a row: every round that no chunk plays comes from `row`, as does
every round of a larger solve, whose tables would mostly hold rows it never
plays (see `amdl.oracles`).
The sampler meters each round as it serves it, so the ledger is whole
whenever the solve stops, on an error too.  Over two distributions the
shadow steps one log-weight ratio against fixed thresholds;
otherwise it multiplies the weights a block of rounds at a time, in
straight-line code over k local floats built once per k (`_PRODUCT_SOURCE`): a
round then makes no list and calls no map or sum, which halves the shadow's
time per round.

`hyperparams` gives a solve its (eps1, eta, T, T1) schedule; README's
"Knob profiles" table states it with the run plan's other sizes
(`amdl.runplan`), and how the `desk` profile scales its literal constants.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import reduce
from operator import ge
from typing import Sequence

import numpy as np

from .core import (ContractViolation, Hypothesis, HypothesisClass,
                   RandomizedHypothesis, check_int, check_members, check_real)
from .oracles import OracleSet, SamplerFamily, plain_family

WEIGHT_SUM_TOL = 1e-12
SHADOW_BLOCK = 16      # product-shadow rounds per boundary test; first threshold-shadow window


@dataclass
class SolverConfig:
    """Target error, confidence, the (supplied) optimal error, and scale knobs (`KNOBS`)."""

    eps: float
    delta: float
    nu: float
    c_t: float = 1.0
    c_t1: float = 1.0
    c_eta: float = 1.0
    c_eps1: float = 1.0
    c_n: float = 1.0       # batch-size knob of the RPU learner

    def __post_init__(self):
        for name in ("eps", "delta"):
            check_real(name, getattr(self, name), 0, 1)
        if not 0 <= check_real("nu", self.nu) < 1:
            raise ContractViolation(f"nu must lie in [0,1), got {self.nu!r}")
        for name in KNOBS:
            check_real(f"scale knob {name}", getattr(self, name), 0)


KNOBS = tuple(f.name for f in fields(SolverConfig) if f.default is not MISSING)


def hyperparams(cfg: SolverConfig, k: int, d: int) -> tuple[float, float, int, int]:
    """(eps1, eta, T, T1) from the stated schedule, for ints k >= 1 and d >= 0;
    errors on nonpositive, underflowing or overflowing results."""
    k, d = check_int("k", k, 1), check_int("d", d)
    eps1 = cfg.c_eps1 * cfg.eps / 100.0
    if not eps1 ** 2 > 0:
        raise ContractViolation(f"eps1 = {eps1!r} underflows when squared")
    eta = cfg.c_eta * eps1 / (100.0 * (eps1 + cfg.nu))
    load = 1.0 / eps1 + cfg.nu / eps1 ** 2
    t = cfg.c_t * 20000.0 * load * math.log(k / (cfg.delta * cfg.eps))
    cover = k * math.log(k / cfg.eps) + (d * math.log(k * d / cfg.eps) if d > 0 else 0.0) \
        + math.log(1.0 / cfg.delta)
    t1 = cfg.c_t1 * 4000.0 * load * cover
    if not (eps1 > 0 and eta > 0 and 0 < t < math.inf and 0 < t1 < math.inf):
        raise ContractViolation("hyperparameter schedule produced a nonpositive or infinite value")
    return eps1, eta, math.ceil(t), math.ceil(t1)


def _fold_max(acc: list[float], w: list[float]) -> list[float]:
    """Elementwise max, as np.maximum gives it for non-NaN floats; `acc`
    itself when no weight exceeds it, so callers can tell a growth by
    identity.  A NaN weight never exceeds: the weight-sum check refuses it."""
    for a, b in zip(acc, w):
        if b > a:
            return [a if a >= b else b for a, b in zip(acc, w)]
    return acc


@dataclass
class HedgeState:
    """Column-player bookkeeping: weights, doubled thresholds, running maxima.

    The k-vectors are Python floats.  `w_arr` holds the weights `w` as the
    array numpy normalized them into, which is what the ERM scores read."""

    k: int
    t: int = 0
    log_w: list[float] = field(init=False)
    w: list[float] = field(init=False)
    w_arr: np.ndarray = field(init=False)
    w_hat: list[float] = field(init=False)
    w_bar: list[float] = field(init=False)

    def __post_init__(self):
        self.k = check_int("k", self.k, 1)
        self.log_w = [0.0] * self.k
        self.w_arr = np.full(self.k, 1.0 / self.k)
        self.w = self.w_arr.tolist()
        self.w_hat = [0.0] * self.k
        self.w_bar = [0.0] * self.k

    def normalized(self) -> np.ndarray:
        # np.exp and numpy's add.reduce (what e.sum() runs; pairwise for
        # k >= 8) fix the rounding; dividing in place gives the same quotients
        top = max(self.log_w)
        e = np.array([v - top for v in self.log_w])
        np.exp(e, out=e)
        e /= np.add.reduce(e)
        return e


def hedge_step(state: HedgeState, r_hat: Sequence[float], eta: float) -> HedgeState:
    """Multiplicative update W_i <- W_i e^{eta r_i} (log-space), renormalize,
    and fold the new weight vector into the running maxima."""
    if type(eta) is not float or not 0.0 < eta < math.inf:     # a float passes with no call
        check_real("eta", eta, 0)
    if len(r_hat) != state.k or not all(0.0 <= r <= 1.0 for r in r_hat):   # refuses NaN
        raise ContractViolation("reward estimates must be k values in [0,1]")
    state.log_w = [v + eta * r for v, r in zip(state.log_w, r_hat)]
    state.w_arr = state.normalized()
    state.w = state.w_arr.tolist()
    state.w_bar = _fold_max(state.w_bar, state.w)
    state.t += 1
    if not abs(math.fsum(state.w) - 1.0) <= WEIGHT_SUM_TOL:
        raise ContractViolation("Hedge weights no longer sum to one")
    return state


class PooledStore:
    """The row player's pooled sample store, kept as per-distribution sample
    counts and mistake counts of every candidate.

    `err[i, j]` counts the mistakes of candidate j on the samples stored for
    distribution i, so the weighted ERM is one weighted sum per call."""

    def __init__(self, labels: np.ndarray, k: int):
        self.labels = labels                  # candidates x points
        self.n = np.zeros(k, dtype=np.int64)
        # the counts as float64, exact below 2**53, so the ERM casts nothing
        self._n = np.zeros(k)
        self.err = np.zeros((k, len(labels)))
        self._empty = k                       # distributions with no samples

    def add(self, i: int, xs: np.ndarray, ys: np.ndarray) -> None:
        if self.n[i] == 0 and xs.size:
            self._empty -= 1
        self.err[i] += (self.labels[:, xs] != ys).sum(axis=1)
        self.n[i] += xs.size
        self._n[i] = self.n[i]

    def erm(self, w: np.ndarray) -> int:
        """argmin over candidates j of sum_i (w_i / n_i) err[i, j], ties to the
        first candidate.  Hedge weights are positive, so every distribution
        must hold samples."""
        if self._empty:
            raise ContractViolation("a distribution has positive weight but no samples")
        return int(((w / self._n) @ self.err).argmin())


def _predict_plays(state: HedgeState, store: PooledStore, tables: list[np.ndarray], local: int,
                   counts: list[int], doubled: list[float], eta: float, span: int) -> list[int]:
    """This round's play (`local`) and up to `span` - 1 next ones as a shadow
    in Python floats predicts them: candidate 1 where w . (err_0 - err_1) / n
    > 0, until some w_i reaches lim_i = min(2 w_hat_i, counts_i / k), where
    a doubling or count change is due.  `_play_chunk` cuts any overshoot."""
    gap = ((store.err[:, 0] - store.err[:, -1]) / store._n).tolist()
    lim = [min(a, c / state.k) for a, c in zip(doubled, counts)]
    with np.errstate(over="ignore"):        # an overflow only ends the shadow
        if state.k == 2:
            return _threshold_plays(state.log_w, gap, lim, tables, local, eta, span)
        return _product_plays(state.w, gap, lim, tables, local, eta, span)


def _threshold_plays(log_w: list[float], gap: list[float], lim: list[float],
                     tables: list[np.ndarray], j: int, eta: float, span: int) -> list[int]:
    """The shadow at k = 2, where w is proportional to (1, e^D) with D =
    log_w[1] - log_w[0]: a round adds eta (r_1 - r_0) to D, the play is 1 iff
    a < D < b (g_0 + g_1 e^D > 0), and the shadow stops on the round D leaves
    (lo, hi) (w_i < lim_i) or is NaN.  It reads rewards in windows that start
    at SHADOW_BLOCK rows and double."""
    (g0, g1), (l0, l1), plays = gap, lim, [j]
    if not (l0 > 0.0 and l1 > 0.0):
        return plays
    lo = math.log((1.0 - l0) / l0) if l0 < 1.0 else -math.inf
    hi = math.log(l1 / (1.0 - l1)) if l1 < 1.0 else math.inf
    r = -g0 / g1 if g1 else 0.0
    x = math.log(r) if r > 0.0 else -math.inf      # e^x = -g0 / g1
    a, b = ((x, math.inf) if g1 > 0.0 else (-math.inf, x) if g1 < 0.0
            else (-math.inf, math.inf) if g0 > 0.0 else (math.inf, -math.inf))
    d, s, n = log_w[1] - log_w[0], 0, SHADOW_BLOCK
    while s < span - 1:
        e = min(s + n, span - 1)
        for d0, d1 in zip(*[(eta * (t[s:e, 1] - t[s:e, 0])).tolist()
                             for t in (tables[0], tables[-1])]):
            d += d1 if j else d0
            if not lo < d < hi:
                return plays
            j = 1 if a < d < b else 0
            plays.append(j)
        s, n = e, 2 * n
    return plays


# Filled only with names made from k; it adds in the order of the list form
# `sum(map(mul, w, gap))` on CPython 3.11 (tests/closed_forms.py keeps it).
_PRODUCT_SOURCE = """
def product_plays(w, gap, lim, tables, j, eta, span):
    {w} = w
    {g} = gap
    {l} = lim
    plays = [j]
    append = plays.append
    for s in range(0, span - 1, SHADOW_BLOCK):
        rows0, rows1 = [np.exp(eta * t[s:min(s + SHADOW_BLOCK, span - 1)]).tolist()
                        for t in (tables[0], tables[-1])]
        for row0, row1 in zip(rows0, rows1):
            {f} = row1 if j else row0
            {update}
            j = 1 if {score} > 0 else 0
            append(j)
        tot = {total}
        if not 0.0 < tot < math.inf:
            break
        {normalize}
        if {stop}:
            break
    return plays
"""
_PRODUCT_KERNELS: dict = {}


def _product_plays(w: list[float], gap: list[float], lim: list[float],
                   tables: list[np.ndarray], j: int, eta: float, span: int) -> list[int]:
    """The shadow at any k: blocks of SHADOW_BLOCK rounds carry unnormalized
    weights times exp(eta r); it stops after a block that ends on a non-finite
    sum or a weight at its limit, so it may overshoot a boundary by a block."""
    k = len(w)
    if k not in _PRODUCT_KERNELS:
        n = [str(i) for i in range(k)]
        scope = {"np": np, "math": math, "SHADOW_BLOCK": SHADOW_BLOCK}
        exec(_PRODUCT_SOURCE.format(
            **{c: "".join(f"{c}{i}, " for i in n) for c in "wglf"},
            update="; ".join(f"w{i} *= f{i}" for i in n),
            score=" + ".join(f"w{i} * g{i}" for i in n),
            total=" + ".join(f"w{i}" for i in n),
            normalize="; ".join(f"w{i} /= tot" for i in n),
            stop=" or ".join(f"w{i} >= l{i}" for i in n)), scope)
        _PRODUCT_KERNELS[k] = scope["product_plays"]
    return _PRODUCT_KERNELS[k](w, gap, lim, tables, j, eta, span)


def _chunk_stops(r: np.ndarray, w: np.ndarray, bars: np.ndarray, erm: np.ndarray, p: np.ndarray,
                 doubled: list[float], counts: list[int]) -> np.ndarray:
    """Row s ends a chunk if its reward or weights fail a check (a product sums
    them within k ulp of fsum, far inside half the tolerance) or, past row 0, if
    its weights double, its w_bar (bars[s]) changes the counts or it mispredicts."""
    fail = ~((r >= 0.0) & (r <= 1.0))
    fail[1:] |= (w[:-1] >= doubled) | (np.ceil(len(counts) * bars[1:]) != counts)
    ones = np.ones(len(counts))
    stop = (fail @ ones > 0) | ~(np.abs(w @ ones - 1.0) <= WEIGHT_SUM_TOL / 2)
    stop[1:] |= erm != p[1:]
    return stop


def _play_chunk(state: HedgeState, store: PooledStore, sampler: SamplerFamily, tally: list[int],
                local: int, counts: list[int], doubled: list[float], eta: float,
                rounds_left: int) -> int:
    """Play this round (ERM pick `local`) and the next ones of a solve over at
    most two candidates as `_predict_plays` predicts them, up to the last row
    of the sampler's tables or T, in one numpy pass that computes each round
    as `hedge_step` and `erm` would, bit for bit.  The longest prefix whose
    plays match and that crosses no boundary or check is played and its
    length returned.  None is tried, and no table built, while a weight sits
    at its limit min(doubled_i, counts_i / k), where the shadow stops (at 1/k
    in a solve's first round, or over the k = 2 empty interval): it seldom
    plays past this round there."""
    if any(w >= min(a, c / state.k) for w, a, c in zip(state.w, doubled, counts)):
        return 0
    tables = sampler.tables(store.labels, counts, rounds_left)
    p = np.array(_predict_plays(state, store, tables, local, counts, doubled, eta,
                                min(len(tables[0]), rounds_left)))
    m = len(p)
    if m == 1:
        return 0
    r = np.where(p[:, None] == 1, tables[-1][:m], tables[0][:m])
    log_w = np.add.accumulate(np.vstack([state.log_w, eta * r]), axis=0)
    w = np.exp(log_w[1:] - reduce(np.maximum, log_w[1:].T)[:, None])  # row maxima by columns
    w /= np.add.reduce(w, axis=1)[:, None]
    bars = np.maximum.accumulate(np.vstack([state.w_bar, w]), axis=0)   # w_bar at t + s
    # `erm` of each row: one vector-matrix product per row (a 2-D product rounds otherwise)
    erm = np.matmul((w[:-1] / store._n)[:, None, :], store.err)[:, 0, :].argmin(axis=1)
    stop = _chunk_stops(r, w, bars[:m], erm, p, doubled, counts)
    c = int(stop.argmax()) if stop.any() else m
    if c:
        sampler.serve(c)
        for j, n in enumerate(np.bincount(p[:c]).tolist()):
            tally[j] += n
        ledger = sampler.oracles.ledger
        if ledger.log_transcript:
            ledger.solver_trace.extend(
                (state.t + 1 + s, w_s, float(np.sum(bars[s])), int(store.n.sum()))
                for s, w_s in enumerate([state.w_arr, *w[:c - 1]]))
        state.log_w = log_w[c].tolist()
        state.w_arr = w[c - 1]
        state.w = state.w_arr.tolist()
        state.w_bar = bars[c].tolist()      # a new list: the caller recounts
        state.t += c
    return c


@dataclass
class HedgeResult:
    """A solve's mixture of plays and its draws per distribution: reward
    draws plus store draws are the ledger's draws over the solve."""
    hypothesis: RandomizedHypothesis
    rounds: int
    reward_draws: np.ndarray
    store_draws: np.ndarray


def mdl_hedge_vc(cls: HypothesisClass, version_space: Sequence[int],
                 sampler: SamplerFamily, cfg: SolverConfig, k: int, d: int) -> HedgeResult:
    """Run the full Hedge/ERM game and return the uniform mixture of plays.

    The doubling rule necessarily fires at t=1 (thresholds start at zero), so
    every distribution holds at least one sample before the first ERM.  When
    the sampler's ledger logs, each round appends its row (t, w, |w_bar|_1,
    store size) to the ledger's `solver_trace`.
    """
    V = sorted(check_members("version spaces", version_space, len(cls)))
    k = check_int(f"k (the sampler serves {sampler.k})", k, sampler.k, sampler.k + 1)
    eps1, eta, T, T1 = hyperparams(cfg, k, d)
    state = HedgeState(k)
    # hedge_step checks the sum after each step, and a solve may make none
    if not abs(math.fsum(state.w) - 1.0) <= WEIGHT_SUM_TOL:
        raise ContractViolation("Hedge weights no longer sum to one")
    store = PooledStore(cls.labels[V], k)
    tally = [0] * len(V)       # plays of each candidate
    ledger = sampler.oracles.ledger
    drawn = ledger.unlabeled_draws     # the ledger meters the solve's draws
    trace = ledger.solver_trace if ledger.log_transcript else None
    doubled = [0.0] * k        # 2 * w_hat, the doubling thresholds
    # hedge_step folds every later round's weights into w_bar as it makes them
    state.w_bar = _fold_max(state.w_bar, state.w)
    # the reward counts ceil(k * w_bar_i) change only when w_bar grows, which
    # _fold_max shows by handing back a new list
    bar = None
    chunked = len(V) <= 2      # see _play_chunk; a larger solve draws rows

    while state.t < T:
        # hedge_step leaves state.w normalized and checks its sum
        w = state.w
        if any(map(ge, w, doubled)):
            state.w_hat = _fold_max(state.w_hat, w)
            for i, v in enumerate(state.w_hat):
                grow = math.ceil(T1 * v) - int(store.n[i])
                if grow > 0:
                    store.add(i, *sampler.draw(i, grow))
            doubled = [2.0 * v for v in state.w_hat]
            if not all(a < b + 1e-15 for a, b in zip(w, doubled)):
                raise ContractViolation(
                    "doubling rule left a weight above twice its threshold")
        local = store.erm(state.w_arr)
        # reward: the played hypothesis' empirical loss on ceil(k * w_bar_i)
        # fresh draws from each distribution, unbiased for the sampled one
        if state.w_bar is not bar:
            bar = state.w_bar
            counts = [math.ceil(k * v) for v in bar]
        if chunked and _play_chunk(state, store, sampler, tally, local, counts, doubled, eta,
                                   T - state.t):
            continue
        # a zero reward changes no weight, so the rounds after it repeat its
        # play: zero rows, then the first row with a loss, all played with `local`
        r, played = sampler.row(store.labels, local, counts, T - state.t)
        tally[local] += played
        if trace is not None:
            trace.extend((state.t + 1 + s, state.w_arr, float(np.sum(state.w_bar)),
                          int(store.n.sum())) for s in range(played))
        if any(r):
            state.t += played - 1
            hedge_step(state, r, eta)
        else:
            state.t += played

    return HedgeResult(RandomizedHypothesis(cls, {h: n for h, n in zip(V, tally) if n}), T,
                       ledger.unlabeled_draws - drawn - store.n, store.n.copy())


def naive_erm_baseline(oracles: OracleSet, n: int) -> Hypothesis:
    """Per-distribution sampling at the textbook passive rate, then minimax ERM.

    Draws n labeled pairs from each distribution (the run plan's `naive_n`)
    and minimizes the worst empirical error; a comparison baseline only.
    """
    n = check_int("n", n, 1)
    fam = plain_family(oracles)
    inst = oracles.instance
    cls = inst.hypothesis_class
    worst = np.zeros(len(cls))
    for i in range(inst.k):
        xs, ys = fam.draw(i, n)
        err = (cls.labels[:, xs] != ys).mean(axis=1)
        worst = np.maximum(worst, err)
    return cls[int(np.argmin(worst))]
