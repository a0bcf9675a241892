"""Distribution-free active learning via reliable abstaining classifiers.

A noise-robust single-distribution learner builds many per-batch consistent
version spaces and combines them by a thresholded majority vote; a pruning
loop lifts it to k distributions; an epoch loop halves the abstention mass and
finishes with one passive solve over the abstain-imputed distributions.
The learner draws its batches together, in the order of drawing them one at
a time, and votes with integer counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import ContractViolation, HypothesisClass, MDLInstance
from .hedge import SolverConfig, mdl_hedge_vc
from .oracles import BLOCK, OracleSet, SamplerFamily, imputed_family
from .active import RunResult, check_target


class AbstainingClassifier:
    """Total map X -> {-1, +1, 0}; 0 means abstain."""

    __slots__ = ("outputs",)

    def __init__(self, outputs):
        arr = np.asarray(outputs, dtype=np.int8)
        if arr.ndim != 1 or not np.all(np.isin(arr, (-1, 0, 1))):
            raise ContractViolation("outputs must be a vector over {-1, 0, +1}")
        self.outputs = arr

    def __call__(self, x: int) -> int:
        return int(self.outputs[x])

    @staticmethod
    def always_abstain(m: int) -> "AbstainingClassifier":
        return AbstainingClassifier(np.zeros(m, dtype=np.int8))


@dataclass(frozen=True)
class RpuReport:
    """Exact per-distribution reliability-violation and abstention masses."""

    violation_mass: tuple[float, ...]
    abstention_mass: tuple[float, ...]
    labels_used: int


def rpu_report(inst: MDLInstance, f: AbstainingClassifier, hstar_labels: np.ndarray,
               labels_used: int = 0) -> RpuReport:
    rows = np.stack([(f.outputs != 0) & (f.outputs != hstar_labels), f.outputs == 0])
    viol, abst = zip(*(d._weigh(rows) / d._mden for d in inst.distributions))
    return RpuReport(tuple(map(float, viol)), tuple(map(float, abst)), labels_used)


def batch_size(s_star: int, xi: float, c_n: float = 1.0) -> int:
    """Smallest n with (10 s ln(en/s) + 4 ln 80)/n <= xi/2, scaled by the knob.

    The sizing instantiates the consistent-version-space disagreement-mass
    bound at per-batch confidence 1/40; found by doubling then bisection.  The
    log factor is clamped at 1 since the bound is vacuous below n = s.
    """
    if not 0 < xi <= 1:
        raise ContractViolation("target reliability must lie in (0, 1]")
    if s_star < 0:
        raise ContractViolation(f"star number must be >= 0, got {s_star}")
    if not 0 < c_n < math.inf:
        raise ContractViolation("batch-size knob must be positive and finite")

    def load(n: int) -> float:
        dis = 10.0 * s_star * max(1.0, math.log(math.e * n / s_star)) \
            if s_star > 0 else 0.0
        return (dis + 4.0 * math.log(80.0)) / n

    hi = 1
    while load(hi) > xi / 2.0:
        hi *= 2
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if load(mid) <= xi / 2.0:
            hi = mid
        else:
            lo = mid + 1
    return max(1, math.ceil(c_n * hi))


def threshold_majority(votes_nonzero: np.ndarray, votes_sum: np.ndarray,
                       n_batches: int) -> np.ndarray:
    """Abstain where at most N/5 batch classifiers commit, else the sign of the
    vote sum; an exactly balanced sum abstains (conservative sign convention)."""
    commit = 5 * votes_nonzero > n_batches
    return np.where(commit, np.sign(votes_sum), 0).astype(np.int8)


Batches = Callable[[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]]


def robust_rpu_learn(cls: HypothesisClass, draw: Batches, xi: float, delta: float, s_star: int,
                     cfg: SolverConfig) -> AbstainingClassifier:
    """Noise-tolerant reliable learner for a single distribution.

    Builds N = 60 ceil(ln 1/delta) per-batch consistent version spaces (an
    inconsistent batch is treated as corrupted and votes nothing) and returns
    the thresholded majority of their abstain-or-predict classifiers.
    `draw(b, n)` gives the next b batches of n pairs, as b draws of a batch
    in turn would, as flat arrays of each pair's batch, point and label; it
    is called for slabs of at most `BLOCK` pairs (or one batch).
    """
    if not 0 < xi <= 1:
        raise ContractViolation("target reliability must lie in (0, 1]")
    N = 60 * max(1, math.ceil(math.log(1.0 / delta)))
    n = batch_size(s_star, xi, cfg.c_n)
    m = cls.m
    labels = cls.labels.astype(np.int64)
    # row 2x + (y > 0): the members that do not give label y at x
    wrong = np.stack([labels.T > 0, labels.T < 0], axis=1).reshape(2 * m, -1).astype(np.int64)
    votes_nonzero, votes_sum = np.zeros((2, m), dtype=np.int64)
    slab = max(1, BLOCK // n)
    for done in range(0, N, slab):
        b = min(slab, N - done)
        batch, xs, ys = draw(b, n)
        seen = np.bincount((batch * m + xs) * 2 + (ys > 0), minlength=2 * m * b).reshape(b, 2 * m)
        consistent = (seen @ wrong == 0).astype(np.int64)
        # a batch's classifier: the sign of its consistent members' label sum
        # where they are unanimous; a corrupted batch has none and votes nothing
        sums = consistent @ labels
        f = np.where(np.abs(sums) == consistent.sum(axis=1, keepdims=True), np.sign(sums), 0)
        votes_nonzero += np.count_nonzero(f, axis=0)
        votes_sum += f.sum(axis=0)
    return AbstainingClassifier(threshold_majority(votes_nonzero, votes_sum, N))


def mixture_draw(family: SamplerFamily, oracles: OracleSet, members: Sequence[int]) -> Batches:
    """`draw(b, n)` for `robust_rpu_learn` over the uniform mixture of
    `members`: each batch picks its pairs' members on the auxiliary stream,
    then draws each member's share of it in member order."""
    def draw(b: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k = len(members)
        picks = oracles.aux_choice_batch(b * n, k).reshape(b, n) * b + np.arange(b)[:, None]
        sizes = np.bincount(picks.ravel(), minlength=k * b)     # member-major
        xs, ys = family.draw_requests(members, sizes.reshape(k, b))
        return np.repeat(np.arange(k * b) % b, sizes), xs, ys
    return draw


@dataclass
class PruneResult:
    classifier: AbstainingClassifier | None
    rounds: int
    failure_mode: str | None
    per_round_abstain: list


def passive_rpu_mdl(cls: HypothesisClass, family: SamplerFamily, oracles: OracleSet,
                    active_set: Sequence[int], xi: float, delta: float, s_star: int,
                    cfg: SolverConfig,
                    abstain_mass: Callable[[int, AbstainingClassifier], Fraction]) -> PruneResult:
    """Collaborative reliable learning by mixture training and pruning.

    Each round trains on the uniform mixture of the surviving distributions at
    reliability xi/2, then prunes every distribution whose exact abstention
    mass is already <= xi.  The returned classifier predicts with the first
    committing round in round order.  Per-round confidence is
    delta / (2 ceil(log2 k) + 2) so the union bound over the round cap holds.
    """
    k = len(active_set)
    if k == 0:
        raise ContractViolation("needs at least one distribution")
    log2k = math.ceil(math.log2(k)) if k > 1 else 0
    cap = 4 * log2k + 4
    delta_call = delta / (2 * log2k + 2)
    remaining = list(active_set)
    learned: list[AbstainingClassifier] = []
    per_round_abstain = []
    while remaining:
        if len(learned) >= cap:
            return PruneResult(None, len(learned), "pruning_stalled", per_round_abstain)
        f_r = robust_rpu_learn(cls, mixture_draw(family, oracles, tuple(remaining)), xi / 2.0,
                               delta_call, s_star, cfg)
        learned.append(f_r)
        masses = {i: abstain_mass(i, f_r) for i in remaining}
        per_round_abstain.append({i: float(v) for i, v in masses.items()})
        remaining = [i for i in remaining if masses[i] > Fraction(xi)]   # the rest are pruned
    out = np.zeros(cls.m, dtype=np.int8)
    for f_r in learned:
        fill = (out == 0) & (f_r.outputs != 0)
        out[fill] = f_r.outputs[fill]
    return PruneResult(AbstainingClassifier(out), len(learned), None, per_round_abstain)


def active_dist_free(inst: MDLInstance, oracles: OracleSet, eps: float, delta: float,
                     s_star: int, d: int, cfg: SolverConfig) -> RunResult:
    """Distribution-free active learner.

    Epochs refine an abstaining classifier whose abstention mass halves every
    round under every distribution, querying labels only where the previous
    classifier abstains; the last epoch converts to a plain classifier with
    one passive solve over the imputed distributions.  The final passive call
    targets the overall eps (the accounting reading), not the schedule value
    2^-n0.
    """
    check_target(eps, delta)
    cls = inst.hypothesis_class
    k = inst.k
    nu = float(inst.nu_exact())
    warnings = []
    if eps < 100.0 * (k + d) * nu:
        warnings.append(f"regime: eps={eps} < 100*(k+d)*nu={100.0 * (k + d) * nu}")
    if s_star > 0:
        n0 = max(1, math.ceil(math.log2((d + k) / (s_star * eps)) - 1e-12))
    else:
        n0 = 1
    f = AbstainingClassifier.always_abstain(inst.m)
    trace = []
    classifiers: list[np.ndarray] = []

    def abstain_mass_of(i: int, g: AbstainingClassifier) -> Fraction:
        d = inst.distributions[i]
        return Fraction(d._weigh(g.outputs == 0), d._mden)
    for n in range(1, n0 + 1):
        eps_n = 2.0 ** -n
        delta_n = delta / (2.0 * n * n)
        labels_before = oracles.ledger.label_total
        fam = imputed_family(oracles, f.outputs)
        if n < n0:
            # the robust learner's guarantee needs its reliability target to
            # dominate the noise by a star-number factor; warn, don't enforce
            if s_star > 0 and nu > 0 and eps_n < 100.0 * s_star * nu:
                warnings.append(
                    f"rpu regime: epoch {n} target {eps_n} < 100*s*nu="
                    f"{100.0 * s_star * nu}")
            pr = passive_rpu_mdl(cls, fam, oracles, range(k), eps_n, delta_n,
                                 s_star, cfg, abstain_mass_of)
            labels_epoch = oracles.ledger.label_total - labels_before
            if pr.failure_mode is not None:
                trace.append((n, eps_n, float("nan"), pr.rounds, labels_epoch))
                return RunResult(None, pr.failure_mode, trace,
                                 {"failed_epoch": n, "warnings": warnings,
                                  "schedule_n0": n0})
            f = pr.classifier
            classifiers.append(f.outputs.copy())
            abst = max(float(abstain_mass_of(i, f)) for i in range(k))
            trace.append((n, eps_n, abst, pr.rounds, labels_epoch))
        else:
            final_cfg = replace(cfg, eps=eps, delta=delta_n, nu=nu)
            labels_final_before = oracles.ledger.label_queries.copy()
            res = mdl_hedge_vc(cls, cls.full_version_space(), fam, final_cfg, k, d)
            labels_epoch = oracles.ledger.label_total - labels_before
            abst = max(float(abstain_mass_of(i, f)) for i in range(k))
            trace.append((n, eps_n, abst, 0, labels_epoch))
            return RunResult(res.hypothesis, None, trace,
                             {"warnings": warnings, "schedule_n0": n0,
                              "final_target": eps,
                              "final_passive_draws": res.total_draws,
                              "final_draws_per_dist":
                                  (res.reward_draws + res.store_draws).tolist(),
                              "final_labels_per_dist":
                                  (oracles.ledger.label_queries
                                   - labels_final_before).tolist(),
                              "final_abstain_per_dist":
                                  [float(abstain_mass_of(i, f)) for i in range(k)],
                              "final_abstain_mass": abst,
                              "classifiers": classifiers})
    raise ContractViolation("unreachable: schedule always ends in a passive epoch")

