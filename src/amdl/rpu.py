"""Distribution-free active learning via reliable abstaining classifiers.

A noise-robust single-distribution learner builds many per-batch consistent
version spaces and combines them by a thresholded majority vote, drawing its
batches together, in the order of drawing them one at a time, and voting with
integer counts; a pruning loop lifts it to the k distributions of its sampler
family's instance; an epoch loop halves the abstention mass and finishes with
one passive solve over the abstain-imputed distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import ContractViolation, HypothesisClass, check_int
from .hedge import mdl_hedge_vc
from .oracles import BLOCK, OracleSet, SamplerFamily, check_outputs, imputed_family
from .active import RunResult
from .runplan import Robust, RunPlan


class AbstainingClassifier:
    """Total map X -> {-1, +1, 0}; 0 means abstain."""

    __slots__ = ("outputs",)

    def __init__(self, outputs):
        self.outputs = check_outputs(outputs)

    def __call__(self, x: int) -> int:
        return int(self.outputs[check_int("point", x, 0, self.outputs.size)])

    @staticmethod
    def always_abstain(m: int) -> "AbstainingClassifier":
        return AbstainingClassifier(np.zeros(m, dtype=np.int8))


def threshold_majority(votes_nonzero: np.ndarray, votes_sum: np.ndarray,
                       n_batches: int) -> np.ndarray:
    """Abstain where at most N/5 batch classifiers commit, else the sign of the
    vote sum; an exactly balanced sum abstains (conservative sign convention)."""
    commit = 5 * votes_nonzero > n_batches
    return np.where(commit, np.sign(votes_sum), 0).astype(np.int8)


Batches = Callable[[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]]


def robust_rpu_learn(cls: HypothesisClass, draw: Batches, N: int, n: int) -> AbstainingClassifier:
    """Noise-tolerant reliable learner for a single distribution.

    Builds N per-batch consistent version spaces from batches of n pairs (an
    inconsistent batch is treated as corrupted and votes nothing) and returns
    the thresholded majority of their abstain-or-predict classifiers; the
    plan sizes N and n (`runplan.robust`).  `draw(b, n)` gives the next b
    batches of n pairs, as b draws of a batch in turn would, as flat arrays
    of each pair's batch, point and label; it is called for slabs of at most
    `BLOCK` pairs (or one batch).
    """
    N, n = check_int("N", N, 1), check_int("n", n, 1)
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


def mixture_draw(family: SamplerFamily, members: Sequence[int]) -> Batches:
    """`draw(b, n)` for `robust_rpu_learn` over the uniform mixture of
    `members`: each batch picks its pairs' members on the family's auxiliary
    stream, then draws each member's share of it in member order."""
    def draw(b: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k = len(members)
        picks = family.oracles.aux_choice_batch(b * n, k).reshape(b, n) * b + np.arange(b)[:, None]
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


def passive_rpu_mdl(family: SamplerFamily, active_set: Sequence[int], rp: Robust) -> PruneResult:
    """Collaborative reliable learning by mixture training and pruning.

    Each round trains on the uniform mixture of the family's surviving
    distributions with the plan's N batches of `rp.batch` pairs (reliability
    xi/2), then prunes every distribution whose exact abstention mass is
    already <= xi = `rp.xi`; after `rp.cap` rounds it reports a stall.  The
    returned classifier predicts with the first committing round in round order.
    """
    if len(active_set) == 0:
        raise ContractViolation("needs at least one distribution")
    inst = family.oracles.instance
    cls = inst.hypothesis_class
    remaining = list(active_set)
    learned: list[AbstainingClassifier] = []
    per_round_abstain = []
    while remaining:
        if len(learned) >= rp.cap:
            return PruneResult(None, len(learned), "pruning_stalled", per_round_abstain)
        f_r = robust_rpu_learn(cls, mixture_draw(family, tuple(remaining)), rp.N, rp.batch)
        learned.append(f_r)
        masses = inst.masses(f_r.outputs == 0)
        per_round_abstain.append({i: float(masses[i]) for i in remaining})
        remaining = [i for i in remaining if masses[i] > Fraction(rp.xi)]   # the rest are pruned
    out = np.zeros(cls.m, dtype=np.int8)
    for f_r in learned:
        fill = (out == 0) & (f_r.outputs != 0)
        out[fill] = f_r.outputs[fill]
    return PruneResult(AbstainingClassifier(out), len(learned), None, per_round_abstain)


def active_dist_free(oracles: OracleSet, p: RunPlan) -> RunResult:
    """Distribution-free active learner on the oracle set's instance, to the
    target of `p.cfg` (`p.cfg.nu` is its optimal error), over the plan's epochs.

    Epochs refine an abstaining classifier whose abstention mass halves every
    round under every distribution, querying labels only where the previous
    classifier abstains; the last epoch converts to a plain classifier with
    one passive solve over the imputed distributions, at the overall eps
    (the accounting reading), not the schedule value 2^-n0.
    """
    inst = oracles.instance
    cls, k = inst.hypothesis_class, inst.k
    f = AbstainingClassifier.always_abstain(inst.m)
    trace = []
    classifiers: list[np.ndarray] = []
    *robust_epochs, final = p.epochs
    for ep in robust_epochs:
        labels_before = oracles.ledger.label_total
        pr = passive_rpu_mdl(imputed_family(oracles, f.outputs), range(k), ep.robust)
        labels_epoch = oracles.ledger.label_total - labels_before
        if pr.failure_mode is not None:
            trace.append((ep.n, ep.eps_n, float("nan"), pr.rounds, labels_epoch))
            return RunResult(None, pr.failure_mode, trace, {"failed_epoch": ep.n}, p)
        f = pr.classifier
        classifiers.append(f.outputs.copy())
        abst = float(max(inst.masses(f.outputs == 0)))
        trace.append((ep.n, ep.eps_n, abst, pr.rounds, labels_epoch))
    before = oracles.ledger.label_queries.copy()
    res = mdl_hedge_vc(cls, cls.full_version_space(), imputed_family(oracles, f.outputs),
                       final.solve, k, p.d)
    labels = oracles.ledger.label_queries - before
    abstain = [float(v) for v in inst.masses(f.outputs == 0)]
    trace.append((final.n, final.eps_n, max(abstain), 0, int(labels.sum())))
    return RunResult(res.hypothesis, None, trace,
                     {"final_draws_per_dist": (res.reward_draws + res.store_draws).tolist(),
                      "final_labels_per_dist": labels.tolist(),
                      "final_abstain_per_dist": abstain, "classifiers": classifiers}, p)
