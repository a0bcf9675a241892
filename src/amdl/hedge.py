"""Multiplicative-weights passive multi-distribution solver and baselines.

The solver simulates a zero-sum game: a column player reweights the k
distributions with Hedge while a row player best-responds with a weighted ERM
over a pooled sample store.  The store grows lazily under a doubling rule on
the weight vector, and the output is the uniform mixture of the played
hypotheses.  The same solver, fed with different injected samplers, serves as
the passive subroutine of every active algorithm in this package.

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
from typing import Sequence

import numpy as np

from .core import (ContractViolation, Hypothesis, HypothesisClass, MDLInstance,
                   RandomizedHypothesis)
from .oracles import OracleSet, SamplerFamily, plain_family

WEIGHT_SUM_TOL = 1e-12


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
        if min(self.c_t, self.c_t1, self.c_eta, self.c_eps1, self.c_n, self.c_naive) <= 0:
            raise ContractViolation("scale knobs must be positive")


def hyperparams(cfg: SolverConfig, k: int, d: int) -> tuple[float, float, int, int]:
    """(eps1, eta, T, T1) from the stated schedule; errors on nonpositive results."""
    eps1 = cfg.c_eps1 * cfg.eps / 100.0
    eta = cfg.c_eta * eps1 / (100.0 * (eps1 + cfg.nu))
    load = 1.0 / eps1 + cfg.nu / eps1 ** 2
    T = math.ceil(cfg.c_t * 20000.0 * load * math.log(k / (cfg.delta * cfg.eps)))
    cover = k * math.log(k / cfg.eps) + (d * math.log(k * d / cfg.eps) if d > 0 else 0.0) \
        + math.log(1.0 / cfg.delta)
    T1 = math.ceil(cfg.c_t1 * 4000.0 * load * cover)
    if eps1 <= 0 or eta <= 0 or T <= 0 or T1 <= 0:
        raise ContractViolation("hyperparameter schedule produced a nonpositive value")
    return eps1, eta, T, T1


@dataclass
class HedgeState:
    """Column-player bookkeeping: weights, doubled thresholds, running maxima."""

    k: int
    t: int = 0
    log_w: np.ndarray = field(init=False)
    w: np.ndarray = field(init=False)
    w_hat: np.ndarray = field(init=False)
    w_bar: np.ndarray = field(init=False)
    n_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.log_w = np.zeros(self.k)
        self.w = np.full(self.k, 1.0 / self.k)
        self.w_hat = np.zeros(self.k)
        self.w_bar = np.zeros(self.k)
        self.n_counts = np.zeros(self.k, dtype=np.int64)

    def normalized(self) -> np.ndarray:
        z = self.log_w - self.log_w.max()
        e = np.exp(z)
        return e / e.sum()


def hedge_step(state: HedgeState, r_hat: np.ndarray, eta: float) -> HedgeState:
    """Multiplicative update W_i <- W_i e^{eta r_i} (log-space), renormalize,
    and fold the new weight vector into the running maxima."""
    r = np.asarray(r_hat, dtype=float)
    if not (r.min() >= 0 and r.max() <= 1):   # also refuses NaN
        raise ContractViolation("reward estimates must lie in [0,1]")
    state.log_w = state.log_w + eta * r
    state.w = state.normalized()
    state.w_bar = np.maximum(state.w_bar, state.w)
    state.t += 1
    if not abs(state.w.sum() - 1.0) <= WEIGHT_SUM_TOL:
        raise ContractViolation("Hedge weights no longer sum to one")
    return state


def weighted_erm(cls: HypothesisClass, store: Sequence[tuple[np.ndarray, np.ndarray]],
                 w: np.ndarray, n: np.ndarray,
                 candidates: Sequence[int] | None = None) -> int:
    """argmin over the class of sum_i (w_i / n_i) sum_{j<=n_i} loss on the j-th
    stored example of distribution i; ties broken by class order.  Returns the
    class index."""
    idxs = list(candidates) if candidates is not None else list(range(len(cls)))
    k = len(store)
    scores = np.zeros(len(idxs))
    for i in range(k):
        if w[i] == 0 and n[i] == 0:
            continue
        if n[i] == 0:
            raise ContractViolation(f"distribution {i} has positive weight but no samples")
        xs, ys = store[i]
        xs, ys = xs[: int(n[i])], ys[: int(n[i])]
        err = (cls.labels[np.ix_(idxs, xs)] != ys).sum(axis=1)
        scores += (w[i] / n[i]) * err
    return idxs[int(np.argmin(scores))]


@dataclass
class HedgeResult:
    hypothesis: RandomizedHypothesis
    rounds: int
    store_sizes: np.ndarray
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
    store: list[list] = [[np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8)]
                         for _ in range(k)]
    err_counts = np.zeros((k, len(V)), dtype=np.int64)
    sub_labels = cls.labels[V]
    play_counts: dict[int, int] = {}
    reward_draws = np.zeros(k, dtype=np.int64)
    store_draws = np.zeros(k, dtype=np.int64)
    trace = [] if collect_trace else None

    for _ in range(T):
        # hedge_step leaves state.w normalized and checks its sum
        w = state.w
        if (w >= 2.0 * state.w_hat).any():
            state.w_hat = np.maximum(state.w_hat, w)
            for i in range(k):
                target = math.ceil(T1 * state.w_hat[i])
                if target > state.n_counts[i]:
                    grow = target - int(state.n_counts[i])
                    xs, ys = sampler.draw(i, grow)
                    store[i][0] = np.concatenate([store[i][0], xs])
                    store[i][1] = np.concatenate([store[i][1], ys])
                    err_counts[i] += (sub_labels[:, xs] != ys).sum(axis=1)
                    state.n_counts[i] = target
                    store_draws[i] += grow
            if not np.all(w < 2.0 * state.w_hat + 1e-15):
                raise ContractViolation("doubling rule left a weight above twice its threshold")
        scores = (w / state.n_counts) @ err_counts
        local = int(scores.argmin())
        h_index = V[local]
        play_counts[h_index] = play_counts.get(h_index, 0) + 1
        state.w_bar = np.maximum(state.w_bar, w)
        # reward: the played hypothesis' empirical loss on ceil(k * w_bar_i)
        # fresh draws from each distribution, unbiased for the sampled one
        counts = np.ceil(k * state.w_bar).astype(np.int64)
        r = sampler.round_losses(cls.labels[h_index], counts)
        reward_draws += counts
        if trace is not None:
            trace.append((state.t + 1, w.copy(), float(state.w_bar.sum()),
                          int(state.n_counts.sum())))
        hedge_step(state, r, eta)

    support: list[int] = []
    for idx, cnt in sorted(play_counts.items()):
        support.extend([idx] * cnt)
    final = RandomizedHypothesis(cls, support)
    return HedgeResult(final, T, state.n_counts.copy(), reward_draws, store_draws,
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
