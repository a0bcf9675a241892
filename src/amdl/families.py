"""Benchmark adversary families: generators with exact rational pmfs, the
instance-separation verifier for the star family, and the Bernoulli KL
utility.

All generators build probabilities from exact rationals so downstream loss
tables and coefficient ratios are closed-form-exact for round-decimal
parameters.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from numbers import Integral, Real

import numpy as np

from .core import (ContractViolation, Hypothesis, HypothesisClass, LabeledDistribution,
                   MDLInstance, _frac, check_int)

# the type of each generator parameter; a bool counts as neither number
PARAM_TYPES = {"k": Integral, "theta": Integral, "i": Integral, "j": Integral,
               "m": Integral, "n_hyp": Integral, "seed": Integral,
               "flipped_index": Integral, "eps": Real, "nu": Real, "nu_prime": Real,
               "case": str, "realizable": bool}
_KIND_NAMES = {Real: "a finite real number", str: "a string", bool: "a bool"}


@dataclass(frozen=True)
class FamilySpec:
    """A family tag plus its parameters (copied); validated against its
    generator's signature (every parameter without a default is given, and
    no other), the types of the parameters it has, and its ranges."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ContractViolation(f"unknown family {self.family!r}")
        if not isinstance(self.params, dict):
            raise ContractViolation(f"family {self.family!r} params must be a mapping of "
                                    f"names to values, got {self.params!r}")
        object.__setattr__(self, "params", dict(self.params))
        takes = inspect.signature(GENERATORS[self.family]).parameters
        missing = [name for name, p in takes.items()
                   if p.default is p.empty and name not in self.params]
        if missing:
            raise ContractViolation(f"family {self.family!r} needs params {missing}")
        for name in [name for name in takes if name in self.params]:
            value, kind = self.params[name], PARAM_TYPES[name]
            if kind is Integral:    # the generator checks the range
                self.params[name] = check_int(f"family {self.family!r} param {name!r}", value, None)
            elif (isinstance(value, bool) != (kind is bool) or not isinstance(value, kind)
                    or kind is Real and not math.isfinite(value)):
                raise ContractViolation(f"family {self.family!r} param {name!r} must be "
                                        f"{_KIND_NAMES[kind]}, got {value!r}")
        unknown = [name for name in self.params if name not in takes]
        if unknown:
            raise ContractViolation(f"family {self.family!r} takes no params {unknown}; "
                                    f"it takes {list(takes)}")

    def generate(self) -> MDLInstance:
        return GENERATORS[self.family](**self.params)


def _single_flip_class(m: int, flippable) -> HypothesisClass:
    """All-minus base hypothesis on m points plus the single-point flip of
    each flippable point, in the order given."""
    base = -np.ones(m, dtype=np.int8)
    flips = [np.where(np.arange(m) == x, 1, base) for x in flippable]
    return HypothesisClass([base, *flips])


def gen_prop1(k: int, eps) -> MDLInstance:
    """The averaging-adversary instance: k near-point-mass distributions whose
    per-distribution disagreement coefficient is 1 while the averaged
    distribution's coefficient is k."""
    epsF = _frac(eps)
    if not 0 < epsF < 1:
        raise ContractViolation("eps must lie in (0,1)")
    k = check_int("k", k, 1)
    m = k + 1
    # index 0: all-minus; index l >= 1: flip of point l (the anchor point 0 is
    # never flippable in this class)
    cls = _single_flip_class(m, range(1, m))
    # point 0 is the anchor; distribution i puts 1-eps there and eps on point i
    eta = [Fraction(0)] + [Fraction(1)] * k
    dists = []
    for i in range(1, k + 1):
        marg = [Fraction(0)] * m
        marg[0] = 1 - epsF
        marg[i] = epsF
        dists.append(LabeledDistribution(marg, eta))
    # anchor-flip hypothesis h_1..h_k each err at mass eps on some other
    # distribution once k >= 2; the all-minus hypothesis errs at eps everywhere
    nu = float(epsF) if k >= 2 else 0.0
    inst = MDLInstance(cls, dists, declared_nu=nu,
                       metadata={"family": "prop1", "k": k, "eps": float(epsF),
                                 "instance_id": f"prop1-k{k}-eps{float(epsF)}"})
    return inst


def gen_star_lb(k: int, theta: int, i: int, j: int) -> MDLInstance:
    """One member of the star-family: k uniform block distributions, all
    labeled by the base hypothesis except block i, labeled by the j-th flip
    inside that block (j = 0 keeps the base labeling everywhere)."""
    k, theta = check_int("k", k, 1), check_int("theta", theta, 1)
    i, j = check_int("i", i, 1, k + 1), check_int("j", j, 0, theta + 1)
    m = k * theta
    cls = _single_flip_class(m, range(m))
    flip_point = (i - 1) * theta + (j - 1) if j >= 1 else None
    dists = []
    for block in range(1, k + 1):
        marg = [Fraction(0)] * m
        for x in range((block - 1) * theta, block * theta):
            marg[x] = Fraction(1, theta)
        eta = [Fraction(0)] * m
        if block == i and flip_point is not None:
            eta[flip_point] = Fraction(1)
        dists.append(LabeledDistribution(marg, eta))
    return MDLInstance(
        cls, dists, declared_nu=0.0,
        metadata={"family": "star-lb", "k": k, "theta": theta, "i": i, "j": j,
                  "instance_id": f"star-lb-k{k}-t{theta}-i{i}-j{j}"})


def gen_agnostic_lb(k: int, nu, eps, flipped_index: int | None = None) -> MDLInstance:
    """The proper-learner adversary: two hypotheses disagreeing on two points,
    k-1 noisy agreement points whose bias hides which of the two is optimal.

    `flipped_index` in {2..k} raises the noise rate of that distribution from
    (nu-4eps)/(2-nu) to (nu+4eps)/(2-nu), flipping the identity of the optimal
    hypothesis.
    """
    nuF, epsF = _frac(nu), _frac(eps)
    k = check_int("k", k, 2)
    if not (nuF >= 8 * epsF and nuF <= Fraction(1, 2) and epsF > 0):
        raise ContractViolation("need nu >= 8 eps, nu <= 1/2, eps > 0")
    if flipped_index is not None:
        flipped_index = check_int("flipped_index", flipped_index, 2, k + 1)
    m = k + 2  # points: 0 = x1, 1 = x2, 2..k+1 = z_1..z_k
    h1 = Hypothesis(np.ones(m, dtype=np.int8))
    lab2 = np.ones(m, dtype=np.int8)
    lab2[0] = lab2[1] = -1
    h2 = Hypothesis(lab2)
    cls = HypothesisClass([h1, h2])
    p = (nuF - 4 * epsF) / (2 - nuF)
    q = (nuF + 4 * epsF) / (2 - nuF)
    base_eta = [Fraction(1), Fraction(0)] + [Fraction(1)] * k  # h1(x1), h2(x2), +1 on z's
    dists = []
    marg1 = [Fraction(0)] * m
    marg1[0] = nuF
    marg1[2] = 1 - nuF
    dists.append(LabeledDistribution(marg1, base_eta))
    for i in range(2, k + 1):
        marg = [Fraction(0)] * m
        marg[1] = nuF / 2
        marg[1 + i] = 1 - nuF / 2
        eta = list(base_eta)
        rate = q if flipped_index == i else p
        eta[1 + i] = 1 - rate  # z_i carries label +1 except at the noise rate
        dists.append(LabeledDistribution(marg, eta))
    nu_star = float(nuF) if flipped_index is not None else float(nuF - 2 * epsF)
    return MDLInstance(
        cls, dists, declared_nu=nu_star,
        metadata={"family": "agnostic-lb", "k": k, "nu": float(nuF),
                  "eps": float(epsF), "flipped_index": flipped_index,
                  "instance_id": f"agnostic-lb-k{k}-nu{float(nuF)}-eps{float(epsF)}"
                                 f"-f{flipped_index}"})


def gen_example1(nu_prime, eps, case: str) -> MDLInstance:
    """The two-hypothesis agreement-region instance on three points.

    Point 0 carries the first region (disagreement), point 1 the second
    (disagreement), point 2 the agreement region.  The first distribution
    splits its mass between points 0 and 2 with clean labels; the second puts
    nu' on point 1 (labeled against h1) and the rest on point 2 with noise
    tuned so the agreement-region error is exactly nu' - eps (case a) or
    nu' + eps (case b).
    """
    nF, eF = _frac(nu_prime), _frac(eps)
    if case not in ("a", "b"):
        raise ContractViolation("case must be 'a' or 'b'")
    if eF <= 0 or nF <= 0:
        raise ContractViolation("eps and nu_prime must be positive")
    if case == "a" and nF - eF < 0:
        raise ContractViolation("case a needs nu_prime - eps >= 0")
    if 2 * nF > 1:
        raise ContractViolation("need nu_prime <= 1/2")
    target = nF - eF if case == "a" else nF + eF
    if target > 1 - nF:
        raise ContractViolation("agreement-region error exceeds the region mass")
    h1 = Hypothesis([1, 1, 1])
    h2 = Hypothesis([-1, -1, 1])
    cls = HypothesisClass([h1, h2])
    beta = target / (1 - nF)  # noise rate on the agreement point
    d1 = LabeledDistribution([2 * nF, Fraction(0), 1 - 2 * nF],
                             [Fraction(1), Fraction(0), Fraction(1)])
    d2 = LabeledDistribution([Fraction(0), nF, 1 - nF],
                             [Fraction(1), Fraction(0), 1 - beta])
    nu_star = float(2 * nF - eF) if case == "a" else float(2 * nF)
    return MDLInstance(
        cls, [d1, d2], declared_nu=nu_star,
        metadata={"family": "example1", "nu_prime": float(nF), "eps": float(eF),
                  "case": case,
                  "instance_id": f"example1-{case}-nup{float(nF)}-eps{float(eF)}"})


def gen_random(m: int, n_hyp: int, k: int, seed: int,
               realizable: bool = False) -> MDLInstance:
    """Random desk-scale instance with exact rational pmfs (integer weights
    normalized), for oracle-equivalence and property tests."""
    m, n_hyp, k = check_int("m", m, 1), check_int("n_hyp", n_hyp, 1), check_int("k", k, 1)
    seed = check_int("seed", seed)
    if n_hyp > 2 ** m:
        raise ContractViolation("cannot have more distinct hypotheses than labelings")
    rng = np.random.default_rng(seed)
    rows: dict[bytes, np.ndarray] = {}
    while len(rows) < n_hyp:
        # one call for the missing rows draws what one call per row would,
        # and no more, so duplicates are dropped in the same draw order
        for lab in rng.choice([-1, 1], size=(n_hyp - len(rows), m)).astype(np.int8):
            rows.setdefault(lab.tobytes(), lab)
    cls = HypothesisClass(list(rows.values()))
    grid = [Fraction(j, 8) for j in range(9)]
    target = cls[int(rng.integers(n_hyp))] if realizable else None
    dists = []
    for _ in range(k):
        weights = rng.integers(0, 9, size=m)
        if weights.sum() == 0:
            weights[rng.integers(m)] = 1
        tot = int(weights.sum())
        marg = [Fraction(int(w), tot) for w in weights]
        if target is not None:
            eta = [Fraction(1) if target.labels[x] > 0 else Fraction(0) for x in range(m)]
        else:
            eta = [grid[int(g)] for g in rng.integers(0, 9, size=m)]
        dists.append(LabeledDistribution(marg, eta))
    return MDLInstance(cls, dists,
                       metadata={"family": "random", "m": m, "n_hyp": n_hyp,
                                 "k": k, "seed": seed, "realizable": realizable,
                                 "instance_id": f"random-m{m}-h{n_hyp}-k{k}-s{seed}"})


# each family's generator; its signature is the family's parameter list
GENERATORS = {"prop1": gen_prop1, "star-lb": gen_star_lb, "agnostic-lb": gen_agnostic_lb,
              "example1": gen_example1, "random": gen_random}
FAMILIES = tuple(GENERATORS)


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of the instance-separation check over a star family.

    `exhaustive_holds`: no labeling is eps-optimal on two distinct instances
    (checked over all 2^(k*theta) labelings when feasible).
    `analytic_holds`: the sufficient certificate 1/theta > 2 eps.
    `consistent`: the certificate never claims separation that the exhaustive
    check refutes (the certificate is one-sided).
    """

    exhaustive_ran: bool
    exhaustive_holds: bool | None
    analytic_holds: bool
    consistent: bool
    counterexample: tuple | None = None


MAX_EXHAUSTIVE_POINTS = 14


def verify_separation(instances: list[MDLInstance], eps) -> SeparationReport:
    """Check that no single classifier is simultaneously eps-optimal on two
    distinct members of a star family."""
    if len(instances) < 2:
        raise ContractViolation("need at least two instances")
    metas = []
    for inst in instances:
        md = inst.metadata
        if md.get("family") != "star-lb":
            raise ContractViolation("verify_separation expects star-lb instances")
        metas.append((md["k"], md["theta"], md["i"], md["j"]))
    k, theta = metas[0][0], metas[0][1]
    if any((a, b) != (k, theta) for a, b, _, _ in metas):
        raise ContractViolation("instances must share (k, theta)")
    if len({(i, j) for _, _, i, j in metas}) != len(metas):
        raise ContractViolation("instances must have distinct (i, j) parameters")
    epsF = _frac(eps)
    analytic = Fraction(1, theta) > 2 * epsF
    n_pts = k * theta
    if n_pts > MAX_EXHAUSTIVE_POINTS:
        return SeparationReport(False, None, analytic, True)
    # integer error counts: eps-optimal iff max block error count <= eps*theta
    per_inst_labels = []
    for inst in instances:
        rows = []
        for i_dist, d in enumerate(inst.distributions):
            lab = np.array([1 if d.eta_plus[x] == 1 else -1
                            for x in range(i_dist * theta, (i_dist + 1) * theta)],
                           dtype=np.int8)
            rows.append(lab)
        per_inst_labels.append(np.stack(rows))  # (k, theta)
    threshold = epsF * theta
    counterexample = None
    holds = True
    for bits in product((-1, 1), repeat=n_pts):
        hat = np.array(bits, dtype=np.int8).reshape(k, theta)
        good = []
        for idx, labs in enumerate(per_inst_labels):
            worst = int((hat != labs).sum(axis=1).max())
            if Fraction(worst) <= threshold:
                good.append(idx)
                if len(good) >= 2:
                    break
        if len(good) >= 2:
            holds = False
            counterexample = (bits, metas[good[0]], metas[good[1]])
            break
    consistent = (not analytic) or holds
    return SeparationReport(True, holds, analytic, consistent, counterexample)


def kl_bernoulli(p: float, q: float) -> float:
    """Closed-form KL divergence between Bernoulli(p) and Bernoulli(q)."""
    if not (0 < p < 1 and 0 < q < 1):
        raise ContractViolation("p and q must lie in the open interval (0,1)")
    return p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))

