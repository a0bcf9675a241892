"""Distribution-free active learning via reliable abstaining classifiers.

A noise-robust learner builds many per-batch consistent version spaces over
the uniform mixture of some members of its sampler family and combines them
by a thresholded majority vote, drawing its batches together, in the order of
drawing them one at a time, and voting with integer counts; a pruning loop
lifts it to the k distributions of the family's instance; an epoch loop
halves the abstention mass and finishes with one passive solve over the
abstain-imputed distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import ContractViolation, check_int, check_members
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


def threshold_majority(votes_nonzero: np.ndarray, votes_sum: np.ndarray,
                       n_batches: int) -> np.ndarray:
    """Abstain where at most N/5 batch classifiers commit, else the sign of the
    vote sum; an exactly balanced sum abstains (conservative sign convention)."""
    commit = 5 * votes_nonzero > check_int("n_batches", n_batches, 1)
    return np.where(commit, np.sign(votes_sum), 0).astype(np.int8)


def robust_rpu_learn(family: SamplerFamily, members: Sequence[int], N: int,
                     n: int) -> AbstainingClassifier:
    """Noise-tolerant reliable learner for the uniform mixture of `members`,
    distributions of `family`.

    Builds N per-batch consistent version spaces from batches of n pairs (an
    inconsistent batch is treated as corrupted and votes nothing) and returns
    the thresholded majority of their abstain-or-predict classifiers; the
    plan sizes N and n (`runplan.robust`).  Each batch picks its pairs'
    members on the family's auxiliary stream, then draws each member's share
    of it in member order; batches are drawn in slabs of at most `BLOCK`
    pairs (or one batch), as one batch at a time would draw them.  Members
    are distinct distribution indices, refused before any stream moves.
    """
    N, n = check_int("N", N, 1), check_int("n", n, 1)
    members = check_members("requests", members, family.k, distinct=True)
    cls = family.oracles.instance.hypothesis_class
    m, k = cls.m, len(members)
    labels = cls.labels.astype(np.int64)
    # row 2x + (y > 0): the members that do not give label y at x
    wrong = np.stack([labels.T > 0, labels.T < 0], axis=1).reshape(2 * m, -1).astype(np.int64)
    votes_nonzero, votes_sum = np.zeros((2, m), dtype=np.int64)
    slab = max(1, BLOCK // n)
    for done in range(0, N, slab):
        b = min(slab, N - done)
        picks = family.oracles.aux_choice_batch(b * n, k).reshape(b, n) * b + np.arange(b)[:, None]
        sizes = np.bincount(picks.ravel(), minlength=k * b)     # member-major
        xs, ys = family.draw_requests(members, sizes.reshape(k, b))
        batch = np.repeat(np.arange(k * b) % b, sizes)
        seen = np.bincount((batch * m + xs) * 2 + (ys > 0), minlength=2 * m * b).reshape(b, 2 * m)
        consistent = (seen @ wrong == 0).astype(np.int64)
        # a batch's classifier: the sign of its consistent members' label sum
        # where they are unanimous; a corrupted batch has none and votes nothing
        sums = consistent @ labels
        f = np.where(np.abs(sums) == consistent.sum(axis=1, keepdims=True), np.sign(sums), 0)
        votes_nonzero += np.count_nonzero(f, axis=0)
        votes_sum += f.sum(axis=0)
    return AbstainingClassifier(threshold_majority(votes_nonzero, votes_sum, N))


@dataclass
class PruneResult:
    classifier: AbstainingClassifier | None
    rounds: int
    failure_mode: str | None
    per_round_abstain: list


def passive_rpu_mdl(family: SamplerFamily, active_set: Sequence[int], rp: Robust) -> PruneResult:
    """Collaborative reliable learning by mixture training and pruning.

    Each round's robust learner draws from the uniform mixture of the
    family's surviving members, the plan's N batches of `rp.batch` pairs
    (reliability xi/2); the round then prunes every distribution whose exact
    abstention mass is already <= xi = `rp.xi`.  After `rp.cap` rounds it
    reports a stall.  The returned classifier predicts with the first
    committing round in round order.
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
        f_r = robust_rpu_learn(family, remaining, rp.N, rp.batch)
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
    f = AbstainingClassifier(np.zeros(inst.m, dtype=np.int8))
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
