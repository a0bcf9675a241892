"""Distribution-dependent active learners on the instance of the oracle set
they sample: the epoch-halving disagreement algorithm (large target error) and
the two-stage agreement-querying algorithm (small target error).

Version-space updates compare exact disagreement masses against the epoch
radius, so the deterministic invariants (nested version spaces, retained
hypotheses within radius) hold bit-for-bit.  Nesting and the shrinking
disagreement region are checked every epoch; the radius holds by
construction of the filter, and the tests check it against `Fraction` sums
by definition, apart from the integer kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (ContractViolation, Hypothesis, HypothesisLike, MDLInstance,
                   RandomizedHypothesis, _exact_dot, _plus_counts, agreement_labels)
from .hedge import mdl_hedge_vc
from .oracles import (DegenerateAgreementRegion, OracleSet, induced_family,
                      surrogate_family)
from .runplan import RunPlan


@dataclass
class RunResult:
    """What every algorithm returns: the output hypothesis (None on failure),
    the failure mode, a per-epoch or per-stage trace, free-form metadata and
    the run's plan.  Label and draw counts are read from the oracle set's
    ledger."""

    output: Hypothesis | RandomizedHypothesis | None
    failure_mode: str | None = None
    trace: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    plan: RunPlan | None = None

    @property
    def ok(self) -> bool:
        return self.failure_mode is None and self.output is not None


def _within_radius(inst: MDLInstance, version_space: Sequence[int], mix: HypothesisLike,
                   bound: Fraction) -> list[int]:
    """The members h of the version space, in order, with max_i rho_i(h, mix)
    <= bound, rho_i the mean disagreement under distribution i.  h's weight
    at a point is mix's count on the other label, so one kernel call gives
    every rho_i, over mix.total times distribution i's `_mden`, as a Python int."""
    plus, total = _plus_counts(mix, inst.m)
    V = list(version_space)
    weights = np.where(inst.hypothesis_class.labels[V] > 0, total - plus, plus)
    rho = _exact_dot(weights, inst._mnums, inst._msum)     # column i over _mdens[i]
    keep = rho * bound.denominator <= bound.numerator * total * inst._mdens
    return [h for h, kept in zip(V, keep.all(axis=1).tolist()) if kept]


@dataclass
class Halving:
    """An epoch-halving run after len(trace) epochs: V is None before any, [] on collapse."""

    V: list[int] | None = None
    out: Hypothesis | RandomizedHypothesis | None = None
    trace: list = field(default_factory=list)
    version_spaces: list = field(default_factory=list)
    prev_dis: np.ndarray | None = None     # the last epoch's disagreement mask


def active_large_eps(oracles: OracleSet, p: RunPlan, state: Halving | None = None) -> RunResult:
    """Epoch-halving disagreement-based active learner on the oracle set's
    instance, to the target of `p.cfg` (`p.cfg.nu` is the instance's optimal
    error), over the plan's halving epochs; from a `state` that ran the
    plan's first epochs it runs the rest, and leaves `state` where it stops.

    Each epoch solves a passive problem over the version-space-imputed
    distributions at target eps_n, then keeps only hypotheses within exact
    max-disagreement 2 eps_n of the returned mixture.  Intended regime: the
    target error dominates the optimal error; outside it the run proceeds but
    the plan warns, and an emptied version space is reported as a failure,
    not a crash.

    The output is the last epoch's mixture h_n0 (member 0 when no epoch
    runs: eps within 1e-12 of 1).  Let h* be a nu minimizer that every filter
    keeps, and L~_i the loss under the imputed distribution i.  Imputing
    h*'s own label on the agreement region only raises a hypothesis'
    excess over h*, so L_i(h) - L_i(h*) <= L~_i(h) - L~_i(h*), mixtures
    included.  When the last solve meets its target, max_i L~_i(h_n0) <=
    max_i L~_i(h*) + eps_n0 <= nu + eps_n0, and L_i(h*) - L~_i(h*) <= nu,
    so L_i(h_n0) <= 2 nu + eps_n0: at most eps_n0 <= eps on a realizable
    instance.  A survivor gets no such bound, because the filter keeps
    members up to 2 eps_n0 from h_n0.  `metadata["center_index"]` is the
    lowest-index survivor, the single hypothesis `active_small_eps` centres
    its stage-two version space on.
    """
    inst = oracles.instance
    cls = inst.hypothesis_class
    s = Halving() if state is None else state
    s.V = list(cls.full_version_space()) if s.V is None else s.V
    for ep in p.epochs[len(s.trace):] if s.V else ():
        n, V, ledger = ep.n, s.V, oracles.ledger
        labels_before, draws_before = ledger.label_total, ledger.unlabeled_total
        h_n = mdl_hedge_vc(cls, V, induced_family(oracles, V), ep.solve, inst.k, p.d).hypothesis
        V_new = _within_radius(inst, V, h_n, Fraction(2) * Fraction(ep.eps_n))
        if not set(V_new) <= set(V):
            raise ContractViolation(f"epoch {n} version space is not nested")
        spent = (ledger.unlabeled_total - draws_before, ledger.label_total - labels_before)
        if not V_new:
            s.V = V_new
            s.trace.append((n, ep.eps_n, 0, float("nan"), *spent))
            break
        dis = agreement_labels(cls, V_new) == 0
        if s.prev_dis is not None and (dis > s.prev_dis).any():
            raise ContractViolation(f"epoch {n} disagreement region grew")
        s.prev_dis, s.V, s.out = dis, V_new, h_n
        s.version_spaces.append(tuple(V_new))
        s.trace.append((n, ep.eps_n, len(V_new), float(max(inst.masses(dis))), *spent))
    if not s.V:
        return RunResult(None, "version_space_collapse", list(s.trace),
                         {"collapse_epoch": s.trace[-1][0]}, p)
    return RunResult(s.out if s.trace else cls[s.V[0]], None, list(s.trace),
                     {"center_index": s.V[0], "version_spaces": list(s.version_spaces),
                      "final_version_space": tuple(s.V)}, p)


def active_small_eps(oracles: OracleSet, p: RunPlan) -> RunResult:
    """Two-stage learner for the noise-dominated regime on the oracle set's
    instance, to the target of `p.cfg`, given the optimal error `p.cfg.nu` > 0.

    Stage one, when the plan has it, localizes a version space around a
    coarse hypothesis: V0 holds every member within 2 eps_p of stage one's
    lowest-index survivor, or of member 0 when stage one is skipped.  Stage
    two estimates the agreement-region error of every survivor from n0
    conditional labeled samples per distribution, then solves the passive
    problem over the surrogate distributions, querying fresh labels only in
    the disagreement region.
    """
    inst = oracles.instance
    cls = inst.hypothesis_class
    if p.stage1 is not None:
        stage1 = active_large_eps(oracles, p.stage1)
        if not stage1.ok:
            stage1.metadata["failed_stage"] = 1
            stage1.plan = p
            return stage1
        h_prime_idx = stage1.metadata["center_index"]
        trace = list(stage1.trace)
    else:
        h_prime_idx = 0
        trace = []
    V0 = _within_radius(inst, cls.full_version_space(), cls[h_prime_idx],
                        Fraction(2) * Fraction(p.eps_p))
    samples: list = []
    degenerate = []
    labels_before = oracles.ledger.label_total
    for i in range(inst.k):
        try:
            samples.append(oracles.sample_conditional_agreement(i, V0, p.n0))
        except DegenerateAgreementRegion:
            # zero agreement mass: the surrogate equals the raw distribution
            samples.append(None)
            degenerate.append(i)
    agreement_labels_cost = oracles.ledger.label_total - labels_before
    draws_before = oracles.ledger.unlabeled_total
    fam = surrogate_family(oracles, V0, samples)
    res = mdl_hedge_vc(cls, V0, fam, p.solve, inst.k, p.d)
    trace.append(("stage2", p.solve.eps, len(V0),
                  float(max(inst.masses(agreement_labels(cls, V0) == 0))),
                  oracles.ledger.unlabeled_total - draws_before,
                  oracles.ledger.label_total - labels_before))
    return RunResult(
        res.hypothesis, None, trace,
        {"v0_size": len(V0), "agreement_label_cost": agreement_labels_cost,
         "degenerate_agreement": degenerate}, p)
