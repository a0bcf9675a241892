"""Closed-form pmfs of the distributions the label-efficient samplers draw
from: the version-space-imputed, abstain-imputed and surrogate laws, the
per-radius definition of the disagreement profile, the exact kernel's
weighted sum, loss, mass and disagreement by their definitions as
`Fraction` sums, rejection sampling from the agreement region one variate at a time, the robust RPU
learner one batch at a time, the Hedge solver's product play shadow as a
loop over lists, and the Bernoulli KL divergence by quadrature of its
integral form.  Also the exact helpers that only the tests call: a point
set's mass and the joint pmf on the exact kernel, the worst disagreement over
the distributions, the minimax member's index, a mixture's support and an
abstaining classifier's violation and abstention masses.

The lab never needs them at run time; the tests compare empirical draws and
the exact layer's fast paths against them.
"""

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import ge, mul
from typing import Iterator, Sequence

import numpy as np
from scipy.integrate import quad

from amdl.core import (ContractViolation, Hypothesis, HypothesisClass, HypothesisLike,
                       LabeledDistribution, MDLInstance, RandomizedHypothesis,
                       agreement_labels, disagreement_exact)
from amdl.hedge import SHADOW_BLOCK
from amdl.rpu import AbstainingClassifier, threshold_majority
from amdl.runplan import batch_size


def mass_reference(points, dist: LabeledDistribution) -> Fraction:
    """Mass of a set of points: the sum of their marginals, point by point."""
    return sum((dist.marginal[x] for x in points), Fraction(0))


def weighed_reference(weights, dist: LabeledDistribution) -> Fraction:
    """What `LabeledDistribution._weigh` computes for one row of per-point
    weights, by its definition: the sum of weight times marginal."""
    return sum((int(w) * p for w, p in zip(weights, dist.marginal)), Fraction(0))


def mass_exact(dist: LabeledDistribution, points) -> Fraction:
    """Mass of a set of points, given as any iterable of indices, on the
    exact kernel."""
    indicator = np.zeros(dist.m, dtype=np.int8)
    indicator[np.fromiter(points, dtype=np.intp)] = 1
    return Fraction(dist._weigh(indicator), dist._mden)


def joint_exact(dist: LabeledDistribution) -> dict[tuple[int, int], Fraction]:
    """Joint pmf over (point, label) pairs of positive mass, labels in {-1,+1}."""
    out: dict[tuple[int, int], Fraction] = {}
    den = dist._mden * dist._eden
    for x in range(dist.m):
        if dist._mnum[x] == 0:
            continue
        plus = Fraction(dist._mnum[x] * dist._enum[x], den)
        minus = Fraction(dist._mnum[x] * (dist._eden - dist._enum[x]), den)
        if plus:
            out[(x, 1)] = plus
        if minus:
            out[(x, -1)] = minus
    return out


def max_disagreement_exact(h1: HypothesisLike, h2: HypothesisLike, inst: MDLInstance) -> Fraction:
    """The largest exact disagreement of h1 and h2 over the distributions."""
    return max(disagreement_exact(h1, h2, d) for d in inst.distributions)


def max_disagreement(h1: HypothesisLike, h2: HypothesisLike, inst: MDLInstance) -> float:
    return float(max_disagreement_exact(h1, h2, inst))


def best_nu_index(inst: MDLInstance) -> int:
    """Class index of the exact minimax member, ties to the lowest index."""
    return inst._best_pair()[0]


def support_indices(h: RandomizedHypothesis) -> tuple[int, ...]:
    """The distinct members of a mixture's support, in index order."""
    return tuple(i for i, _ in h.counts)


def _members(h: HypothesisLike) -> list[Hypothesis]:
    """The support of h as a list, a mixture's members repeated by count."""
    if isinstance(h, Hypothesis):
        return [h]
    return [h.cls[i] for i, c in h.counts for _ in range(c)]


def loss_reference(h: HypothesisLike, dist: LabeledDistribution) -> Fraction:
    """0-1 loss by its definition: per member of the support and per point,
    the marginal times the probability of the label the member does not
    give, averaged over the support."""
    members = _members(h)
    total = Fraction(0)
    for g in members:
        for x in range(dist.m):
            total += dist.marginal[x] * (dist.eta_plus[x] if g(x) < 0 else 1 - dist.eta_plus[x])
    return total / len(members)


def disagreement_reference(h1: HypothesisLike, h2: HypothesisLike,
                           dist: LabeledDistribution) -> Fraction:
    """rho(h1, h2) by its definition: the support double sum, over every pair
    of members, of the mass where the pair disagrees, averaged over pairs."""
    a, b = _members(h1), _members(h2)
    total = Fraction(0)
    for f in a:
        for g in b:
            total += mass_reference([x for x in range(dist.m) if f(x) != g(x)], dist)
    return total / (len(a) * len(b))


def induced_distribution(dist: LabeledDistribution, cls: HypothesisClass,
                         version_space: Sequence[int]) -> LabeledDistribution:
    """Closed form of the version-space-imputed distribution.

    Keeps the marginal; on the agreement region the label is deterministically
    the unanimous prediction, on the disagreement region the conditional is
    untouched.
    """
    lab = agreement_labels(cls, version_space)
    eta = [dist.eta_plus[x] if lab[x] == 0 else Fraction(1 if lab[x] > 0 else 0)
           for x in range(dist.m)]
    return LabeledDistribution(dist.marginal, eta)


def imputed_distribution(dist: LabeledDistribution, outputs: Sequence[int]) -> LabeledDistribution:
    """Closed form of the abstaining-classifier-imputed distribution.

    `outputs[x]` in {-1,+1,0}; labels are imputed wherever the classifier
    commits, and untouched where it abstains.
    """
    if len(outputs) != dist.m:
        raise ContractViolation("classifier outputs must cover the feature space")
    eta = [dist.eta_plus[x] if outputs[x] == 0 else Fraction(1 if outputs[x] > 0 else 0)
           for x in range(dist.m)]
    return LabeledDistribution(dist.marginal, eta)


def surrogate_joint_exact(dist: LabeledDistribution, cls: HypothesisClass,
                          version_space: Sequence[int],
                          sample: tuple[np.ndarray, np.ndarray]) -> dict[tuple[int, int], Fraction]:
    """Exact joint pmf of the surrogate distribution given the realized S_i:
    the raw joint restricted to DIS(V0) plus Pr[AGR(V0)] times the empirical
    distribution of S_i."""
    dis = set(int(x) for x in np.flatnonzero(agreement_labels(cls, version_space) == 0))
    out: dict[tuple[int, int], Fraction] = {}
    joint = joint_exact(dist)
    for (x, y), p in joint.items():
        if x in dis:
            out[(x, y)] = out.get((x, y), Fraction(0)) + p
    agr_mass = 1 - mass_exact(dist, dis)
    sx, sy = sample
    n = sx.size
    for x, y in zip(sx, sy):
        key = (int(x), int(y))
        out[key] = out.get(key, Fraction(0)) + agr_mass * Fraction(1, n)
    return out


def disagreement_profile_reference(dist: LabeledDistribution, cls: HypothesisClass,
                                   hstar: Hypothesis) -> tuple[list[Fraction], list[Fraction]]:
    """Ball-mass profile by its definition: the distinct distances
    rho(h, h*) = Pr[h != h*] of the members as radii, and for each radius r
    the mass of DIS over the members within r, one Fraction sum per radius."""
    rhos = [disagreement_reference(h, hstar, dist) for h in cls.hypotheses]
    radii = sorted(set(rhos))
    masses = []
    for r in radii:
        ball = [i for i, rho in enumerate(rhos) if rho <= r]
        masses.append(mass_reference(np.flatnonzero(agreement_labels(cls, ball) == 0), dist))
    return radii, masses


def conditional_agreement_reference(dist: LabeledDistribution, cls: HypothesisClass,
                                    version_space: Sequence[int], uniforms: Iterator[float],
                                    n: int) -> tuple[list[int], list[int], list[int]]:
    """Rejection sampling from `dist` conditioned on the agreement region of
    the version space, one variate at a time: each variate draws a point
    (the first whose cdf exceeds it), kept if the version space agrees on it,
    until n are kept; then one label variate per kept point, in order.
    Returns the kept points, their labels and the draw index of each kept
    point, so the points drew `accepted_at[-1] + 1` variates in all."""
    agree = agreement_labels(cls, version_space) != 0
    cdf = dist.cdf.tolist()
    xs, accepted_at = [], []
    drawn = 0
    while len(xs) < n:
        x = bisect.bisect_right(cdf, next(uniforms))
        if agree[x]:
            xs.append(x)
            accepted_at.append(drawn)
        drawn += 1
    ys = [1 if next(uniforms) < dist.eta_f[x] else -1 for x in xs]
    return xs, ys, accepted_at


def mixture_draw_reference(family, oracles, members: Sequence[int]):
    """One batch of n pairs from the uniform mixture of `members`: n picks on
    the auxiliary stream, then one `draw` per member with a pick, in member
    order, each filling its picks' places."""
    def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        picks = oracles.aux_choice_batch(n, len(members))
        xs = np.empty(n, dtype=np.int64)
        ys = np.empty(n, dtype=np.int8)
        for j, i in enumerate(members):
            sel = picks == j
            cnt = int(sel.sum())
            if cnt:
                xs[sel], ys[sel] = family.draw(i, cnt)
        return xs, ys
    return draw


def robust_sizes(xi: float, delta: float, s_star: int, c_n: float) -> tuple[int, int]:
    """(N, n) of one robust learn at reliability xi and confidence delta:
    N = 60 ceil(ln 1/delta) batches of `batch_size` pairs."""
    return 60 * max(1, math.ceil(math.log(1.0 / delta))), batch_size(s_star, xi, c_n)


def robust_rpu_reference(cls: HypothesisClass, draw, xi: float, delta: float, s_star: int,
                         cfg) -> np.ndarray:
    """The robust RPU learner one batch at a time: each of the N batches
    `draw(n)` of `robust_sizes` keeps the members consistent with all of its
    pairs and, if any, votes their unanimous labels; the outputs are the
    thresholded majority of the votes."""
    N, n = robust_sizes(xi, delta, s_star, cfg.c_n)
    votes_nonzero = np.zeros(cls.m, dtype=np.int64)
    votes_sum = np.zeros(cls.m, dtype=np.int64)
    for _ in range(N):
        xs, ys = draw(n)
        consistent = np.all(cls.labels[:, xs] == ys, axis=1)
        if not consistent.any():
            continue  # corrupted batch: votes nothing
        f_i = agreement_labels(cls, np.flatnonzero(consistent))
        votes_nonzero += f_i != 0
        votes_sum += f_i
    return threshold_majority(votes_nonzero, votes_sum, N)


@dataclass(frozen=True)
class RpuReport:
    """Exact per-distribution reliability-violation and abstention masses."""

    violation_mass: tuple[float, ...]
    abstention_mass: tuple[float, ...]
    labels_used: int


def product_plays_reference(w: list[float], gap: list[float], lim: list[float],
                            tables: list[np.ndarray], j: int, eta: float, span: int) -> list[int]:
    """The product play shadow over lists, as `amdl.hedge._product_plays`
    computes it with code built for each k: blocks of SHADOW_BLOCK rounds carry
    unnormalized weights times exp(eta r); it stops after a block that ends on a
    non-finite sum or a weight at its limit."""
    plays = [j]
    for s in range(0, span - 1, SHADOW_BLOCK):
        f0, f1 = [np.exp(eta * t[s:min(s + SHADOW_BLOCK, span - 1)]).tolist()
                  for t in (tables[0], tables[-1])]
        for q in range(len(f0)):
            w = list(map(mul, w, f1[q] if j else f0[q]))
            j = 1 if sum(map(mul, w, gap)) > 0 else 0
            plays.append(j)
        tot = sum(w)
        if not 0.0 < tot < math.inf:
            break
        w = [v / tot for v in w]
        if any(map(ge, w, lim)):
            break
    return plays


def rpu_report(inst: MDLInstance, f: AbstainingClassifier, hstar_labels: np.ndarray,
               labels_used: int = 0) -> RpuReport:
    rows = np.stack([(f.outputs != 0) & (f.outputs != hstar_labels), f.outputs == 0])
    viol, abst = zip(*(d._weigh(rows) / d._mden for d in inst.distributions))
    return RpuReport(tuple(map(float, viol)), tuple(map(float, abst)), labels_used)


def kl_bernoulli_integral(p: float, q: float) -> float:
    """The Bernoulli(p) || Bernoulli(q) divergence through its integral
    representation int_p^q (x - p) / (x (1 - x)) dx, by adaptive quadrature:
    the reference for `amdl.families.kl_bernoulli`'s closed form."""
    if not (0 < p < 1 and 0 < q < 1):
        raise ContractViolation("p and q must lie in the open interval (0,1)")
    val, _ = quad(lambda x: (x - p) / (x * (1.0 - x)), p, q, epsabs=1e-13, epsrel=1e-13)
    return val
