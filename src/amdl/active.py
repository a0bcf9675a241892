"""Distribution-dependent active learners: the epoch-halving disagreement
algorithm (large target error) and the two-stage agreement-querying algorithm
(small target error), plus the regime dispatcher.

Version-space updates compare exact disagreement masses against the epoch
radius, so the deterministic invariants (nested version spaces, retained
hypotheses within radius) hold bit-for-bit.  Nesting and the shrinking
disagreement region are checked every epoch; the radius holds by
construction of the filter, and the tests check it against `Fraction` sums
by definition, apart from the integer kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .core import (ContractViolation, Hypothesis, HypothesisLike, MDLInstance,
                   RandomizedHypothesis, _plus_counts, agreement_labels,
                   disagreement_region)
from .hedge import HedgeResult, SolverConfig, mdl_hedge_vc
from .oracles import (DegenerateAgreementRegion, OracleSet, induced_family,
                      surrogate_family)

REGIME_FACTOR = 100.0


def halving(n0: int, delta: float) -> Iterator[tuple[int, float, float]]:
    """The epoch schedule (n, eps_n, delta_n) for n = 1..n0: eps_n = 2^-n and
    delta_n = delta / (2 n^2), so the epochs' confidences sum below delta."""
    for n in range(1, n0 + 1):
        yield n, 2.0 ** -n, delta / (2.0 * n * n)


@dataclass
class RunResult:
    """What every algorithm returns: the output hypothesis (None on failure),
    the failure mode, a per-epoch or per-stage trace and free-form metadata.
    Label and draw counts are read from the oracle set's ledger."""

    output: Hypothesis | RandomizedHypothesis | None
    failure_mode: str | None = None
    trace: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure_mode is None and self.output is not None


def _within_radius(inst: MDLInstance, version_space: Sequence[int], mix: HypothesisLike,
                   bound: Fraction) -> list[int]:
    """The members h of the version space, in order, with max_i rho_i(h, mix)
    <= bound, rho_i the mean disagreement under distribution i.  h's weight
    at a point is mix's count on the other label, so one kernel call per
    distribution gives every rho_i over mix.total * _mden as a Python int."""
    plus, total = _plus_counts(mix, inst.m)
    V = list(version_space)
    weights = np.where(inst.hypothesis_class.labels[V] > 0, total - plus, plus)
    keep = np.ones(len(V), dtype=bool)
    for dist in inst.distributions:
        keep &= dist._weigh(weights) * bound.denominator <= bound.numerator * total * dist._mden
    return [h for h, kept in zip(V, keep.tolist()) if kept]


def _max_dis_mass(inst: MDLInstance, version_space: Sequence[int]) -> Fraction:
    dis = agreement_labels(inst.hypothesis_class, version_space) == 0
    return max(Fraction(d._weigh(dis), d._mden) for d in inst.distributions)


def active_large_eps(inst: MDLInstance, oracles: OracleSet, cfg: SolverConfig,
                     d: int) -> RunResult:
    """Epoch-halving disagreement-based active learner, to target `cfg.eps`
    at confidence `cfg.delta`; `cfg.nu` is the instance's optimal error.

    Each epoch solves a passive problem over the version-space-imputed
    distributions at target eps_n, then keeps only hypotheses within exact
    max-disagreement 2 eps_n of the returned mixture.  Intended regime: the
    target error dominates the optimal error; outside it the run proceeds but
    is flagged, and an emptied version space is reported as a failure, not a
    crash.

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
    cls = inst.hypothesis_class
    k = inst.k
    eps, nu = cfg.eps, cfg.nu
    warnings = []
    if eps < REGIME_FACTOR * nu:
        warnings.append(f"regime: eps={eps} < {REGIME_FACTOR}*nu={REGIME_FACTOR * nu}")
    n0 = math.ceil(math.log2(1.0 / eps) - 1e-12)
    V = list(cls.full_version_space())
    trace = []
    version_spaces = []
    prev_dis: set[int] | None = None
    out = cls[V[0]]
    for n, eps_n, delta_n in halving(n0, cfg.delta):
        labels_before = oracles.ledger.label_total
        fam = induced_family(oracles, V)
        inner = replace(cfg, eps=eps_n, delta=delta_n, nu=eps_n / REGIME_FACTOR)
        res: HedgeResult = mdl_hedge_vc(cls, V, fam, inner, k, d)
        h_n = res.hypothesis
        bound = Fraction(2) * Fraction(eps_n)
        V_new = _within_radius(inst, V, h_n, bound)
        if not set(V_new) <= set(V):
            raise ContractViolation(f"epoch {n} version space is not nested")
        labels_epoch = oracles.ledger.label_total - labels_before
        if not V_new:
            tr_row = (n, eps_n, 0, float("nan"), res.total_draws, labels_epoch)
            trace.append(tr_row)
            return RunResult(None, "version_space_collapse", trace,
                             {"collapse_epoch": n, "warnings": warnings,
                              "schedule_n0": n0})
        dis_now = set(int(x) for x in disagreement_region(cls, V_new))
        if prev_dis is not None and not dis_now <= prev_dis:
            raise ContractViolation(f"epoch {n} disagreement region grew")
        prev_dis = dis_now
        V, out = V_new, h_n
        version_spaces.append(tuple(V))
        trace.append((n, eps_n, len(V), float(_max_dis_mass(inst, V)),
                      res.total_draws, labels_epoch))
    return RunResult(out, None, trace,
                     {"warnings": warnings, "schedule_n0": n0,
                      "center_index": V[0], "version_spaces": version_spaces,
                      "final_version_space": tuple(V)})


def active_small_eps(inst: MDLInstance, oracles: OracleSet, cfg: SolverConfig,
                     d: int) -> RunResult:
    """Two-stage learner for the noise-dominated regime, to target `cfg.eps`
    at confidence `cfg.delta`, given the optimal error `cfg.nu` > 0.

    Stage one localizes a version space around a coarse hypothesis (target
    excess capped at 1): V0 holds every member within 2 eps_p of stage one's
    lowest-index survivor, or of member 0 when stage one is skipped.  Stage
    two estimates the agreement-region error of every survivor from
    conditional labeled samples, then solves the passive problem over the
    surrogate distributions, querying fresh labels only in the disagreement
    region.
    """
    eps, nu = cfg.eps, cfg.nu
    if not nu > 0:
        raise ContractViolation("the small-eps stage requires a supplied nu in (0,1)")
    cls = inst.hypothesis_class
    k = inst.k
    warnings = []
    if eps >= REGIME_FACTOR * nu:
        warnings.append(f"regime: eps={eps} >= {REGIME_FACTOR}*nu={REGIME_FACTOR * nu}")
    delta_p = cfg.delta / 6.0
    eps_p = min(REGIME_FACTOR * nu, 1.0)
    if eps_p < 1.0:
        stage1 = active_large_eps(inst, oracles, replace(cfg, eps=eps_p, delta=delta_p), d=d)
        if not stage1.ok:
            stage1.metadata["failed_stage"] = 1
            stage1.metadata.setdefault("warnings", []).extend(warnings)
            return stage1
        h_prime_idx = stage1.metadata["center_index"]
        trace = list(stage1.trace)
    else:
        # excess-error target above 1 is vacuous; stage one degenerates
        h_prime_idx = 0
        trace = []
        warnings.append("stage1 skipped: 100*nu >= 1, V0 = full class")
    bound = Fraction(2) * Fraction(eps_p)
    V0 = _within_radius(inst, cls.full_version_space(), cls[h_prime_idx], bound)
    n0 = math.ceil(REGIME_FACTOR * (eps + nu) / eps ** 2 * math.log(k / delta_p))
    samples: list = []
    degenerate = []
    labels_before = oracles.ledger.label_total
    for i in range(k):
        try:
            samples.append(oracles.sample_conditional_agreement(i, V0, n0))
        except DegenerateAgreementRegion:
            # zero agreement mass: the surrogate equals the raw distribution
            samples.append(None)
            degenerate.append(i)
    agreement_labels_cost = oracles.ledger.label_total - labels_before
    fam = surrogate_family(oracles, V0, samples)
    res = mdl_hedge_vc(cls, V0, fam, replace(cfg, eps=eps / 2.0, delta=delta_p), k, d)
    stage2_labels = oracles.ledger.label_total - labels_before
    trace.append(("stage2", eps / 2.0, len(V0), float(_max_dis_mass(inst, V0)),
                  res.total_draws, stage2_labels))
    return RunResult(
        res.hypothesis, None, trace,
        {"warnings": warnings, "v0_size": len(V0), "n0_agreement": n0,
         "agreement_label_cost": agreement_labels_cost,
         "expected_agreement_cost": k * n0 - len(degenerate) * n0,
         "degenerate_agreement": degenerate,
         "stage1_target": eps_p})


def regime_dispatch(inst: MDLInstance, oracles: OracleSet, cfg: SolverConfig,
                    d: int) -> RunResult:
    """Route on eps >= 100 nu, both read from `cfg`; records the branch."""
    if cfg.eps >= REGIME_FACTOR * cfg.nu:
        out = active_large_eps(inst, oracles, cfg, d=d)
        out.metadata["dispatch"] = "large"
    else:
        out = active_small_eps(inst, oracles, cfg, d=d)
        out.metadata["dispatch"] = "small"
    return out

