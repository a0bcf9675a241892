"""Multiplicative-weights passive multi-distribution solver and baselines.

The solver simulates a zero-sum game: a column player reweights the k
distributions with Hedge while a row player best-responds with a weighted ERM
over a pooled sample store.  The store grows lazily under a doubling rule on
the weight vector, and the output is the uniform mixture of the played
hypotheses.  The same solver, fed with different injected samplers, serves as
the passive subroutine of every active algorithm in this package.

A round of `mdl_hedge_vc`: grow the store when some weight reaches twice its
threshold, play the weighted ERM over the store's float64 mistake counts,
estimate the rewards from ceil(k * w_bar_i) fresh pairs per distribution
(one `SamplerFamily.round_losses` call), and update the weights with
`hedge_step`.  The running maxima w_bar seldom grow, so the counts are
recomputed, and the reward draws totalled, only when they do.  The sampler
meters served rounds in bulk; the solve settles the last of them as it
ends, on an error too.

Hyperparameters follow the schedule
    eps1 = c_eps1 * eps / 100
    eta  = c_eta * eps1 / (100 (eps1 + nu))
    T    = ceil(c_t * 20000 (1/eps1 + nu/eps1^2) ln(k / (delta eps)))
    T1   = ceil(c_t1 * 4000 (1/eps1 + nu/eps1^2) (k ln(k/eps) + d ln(kd/eps) + ln(1/delta)))
with all four scale knobs defaulting to 1 (fidelity).  The literal constants
are analysis artifacts and impractical to run; the `desk` profile scales them
down while preserving the algorithm's structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from operator import ge
from typing import Sequence

import numpy as np

from .core import (ContractViolation, Hypothesis, HypothesisClass, MDLInstance,
                   RandomizedHypothesis)
from .oracles import OracleSet, SamplerFamily, plain_family

WEIGHT_SUM_TOL = 1e-12
KNOBS = ("c_t", "c_t1", "c_eta", "c_eps1", "c_n", "c_naive")   # SolverConfig's scale knobs


@dataclass
class SolverConfig:
    """Target error, confidence, the (supplied) optimal error, and scale knobs."""

    eps: float
    delta: float
    nu: float
    c_t: float = 1.0
    c_t1: float = 1.0
    c_eta: float = 1.0
    c_eps1: float = 1.0
    c_n: float = 1.0       # batch-size knob of the RPU learner
    c_naive: float = 1.0   # sample-size knob of the naive ERM baseline

    def __post_init__(self):
        if not (0 < self.eps < 1 and 0 < self.delta < 1):
            raise ContractViolation("eps and delta must lie in (0,1)")
        if not 0 <= self.nu < 1:
            raise ContractViolation("nu must lie in [0,1)")
        for name in KNOBS:   # refuses NaN, bools and non-numbers
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Real) or not 0 < v < math.inf:
                raise ContractViolation(f"scale knob {name} must be positive and finite, got {v!r}")


def hyperparams(cfg: SolverConfig, k: int, d: int) -> tuple[float, float, int, int]:
    """(eps1, eta, T, T1) from the stated schedule; errors on nonpositive or
    overflowing results."""
    eps1 = cfg.c_eps1 * cfg.eps / 100.0
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


@dataclass
class HedgeResult:
    hypothesis: RandomizedHypothesis
    rounds: int
    reward_draws: np.ndarray
    store_draws: np.ndarray
    play_counts: dict[int, int]
    trace: list | None = None

    @property
    def total_draws(self) -> int:
        return int(self.reward_draws.sum() + self.store_draws.sum())


def mdl_hedge_vc(cls: HypothesisClass, version_space: Sequence[int],
                 sampler: SamplerFamily, cfg: SolverConfig, k: int, d: int,
                 collect_trace: bool = False) -> HedgeResult:
    """Run the full Hedge/ERM game and return the uniform mixture of plays.

    The doubling rule necessarily fires at t=1 (thresholds start at zero), so
    every distribution holds at least one sample before the first ERM.
    """
    V = sorted(version_space)
    if not V:
        raise ContractViolation("solver needs a non-empty candidate set")
    eps1, eta, T, T1 = hyperparams(cfg, k, d)
    state = HedgeState(k)
    store = PooledStore(cls.labels[V], k)
    play_counts: dict[int, int] = {}
    reward_draws = [0] * k
    doubled = [0.0] * k        # 2 * w_hat, the doubling thresholds
    trace = [] if collect_trace else None
    # hedge_step folds every later round's weights into w_bar as it makes them
    state.w_bar = _fold_max(state.w_bar, state.w)
    # the reward counts ceil(k * w_bar_i) change only when w_bar grows, which
    # _fold_max shows by handing back a new list; the draws of a run of
    # rounds on one w_bar are added when the run ends
    bar, counts, since = None, [0] * k, 0

    try:
        for t in range(T):
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
            h_index = V[local]
            play_counts[h_index] = play_counts.get(h_index, 0) + 1
            # reward: the played hypothesis' empirical loss on ceil(k * w_bar_i)
            # fresh draws from each distribution, unbiased for the sampled one
            if state.w_bar is not bar:
                reward_draws = [a + (t - since) * b for a, b in zip(reward_draws, counts)]
                bar, since = state.w_bar, t
                counts = [math.ceil(k * v) for v in bar]
            r = sampler.round_losses(store.labels, local, counts, T - t)
            if trace is not None:
                trace.append((state.t + 1, state.w_arr, float(np.sum(state.w_bar)),
                              int(store.n.sum())))
            hedge_step(state, r, eta)
    finally:
        # meter the rounds served since the last settle, also on an error
        sampler.settle()

    reward_draws = [a + (T - since) * b for a, b in zip(reward_draws, counts)]
    support: list[int] = []
    for idx, cnt in sorted(play_counts.items()):
        support.extend([idx] * cnt)
    final = RandomizedHypothesis(cls, support)
    return HedgeResult(final, T, np.array(reward_draws, dtype=np.int64), store.n.copy(),
                       play_counts, trace)


def naive_erm_baseline(inst: MDLInstance, oracles: OracleSet, eps: float, delta: float,
                       d: int, cfg: SolverConfig) -> tuple[Hypothesis, int]:
    """Per-distribution sampling at the textbook passive rate, then minimax ERM.

    Draws ceil(c_naive * max(d,1) * (nu + eps) / eps^2 * ln(k/(delta eps)))
    labeled pairs from each distribution and minimizes the worst empirical
    error; a comparison baseline only.
    """
    nu = float(inst.nu_exact())
    n = math.ceil(cfg.c_naive * max(d, 1) * (nu + eps) / eps ** 2
                  * math.log(inst.k / (delta * eps)))
    n = max(n, 1)
    fam = plain_family(oracles)
    cls = inst.hypothesis_class
    worst = np.zeros(len(cls))
    for i in range(inst.k):
        xs, ys = fam.draw(i, n)
        err = (cls.labels[:, xs] != ys).mean(axis=1)
        worst = np.maximum(worst, err)
    return cls[int(np.argmin(worst))], n
