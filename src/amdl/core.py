"""Finite-support domain types and exact error/disagreement metrics.

Everything downstream (samplers, solvers, verifiers) builds on the types here.
Probabilities are carried as exact rationals internally (integer numerators
over a shared per-array denominator), so loss tables, disagreement masses and
coefficient ratios computed from generator-built instances are exact, and
repeated evaluation is bit-identical.  Float views are derived for sampling.
Every exact loss, mass and disagreement is one call of the kernel
`LabeledDistribution._weigh` on integer per-point weights.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

PMF_TOL = 1e-12
NU_DECLARED_TOL = 1e-9


class ContractViolation(ValueError):
    """An operation was called outside its stated contract."""


Number = Union[int, float, Fraction, str]


def _frac(x: Number) -> Fraction:
    """Exact conversion; floats map to their exact binary value and strings
    are read as `Fraction` reads them.  Bools, NaN, infinities and anything
    else that is not a number are refused."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, bool):
        try:
            return Fraction(x)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ContractViolation(f"expected a finite number, got {x!r}")


def _integerize(values: Sequence[Fraction]) -> tuple[np.ndarray, int]:
    """Common-denominator form of a rational vector: the numerators as an
    object array of Python ints, and the denominator."""
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    nums = [int(v.numerator * (den // v.denominator)) for v in values]
    return np.array(nums, dtype=object), den


@dataclass(frozen=True)
class FeatureSpace:
    """Finite feature space; points are the indices 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ContractViolation(f"feature space size must be >= 1, got {self.size}")


def _label_rows(labels, ndim: int) -> np.ndarray:
    """`labels` (an array, or labels or hypotheses as rows) as a read-only
    int8 copy with `ndim` axes, refused unless rectangular, non-empty and
    made of the integers +1 and -1 only."""
    try:
        arr = np.array(labels if isinstance(labels, np.ndarray)
                       else [getattr(v, "labels", v) for v in labels])
    except ValueError as exc:
        raise ContractViolation(f"hypothesis labels must form equal-length rows: {exc}") from exc
    if arr.ndim != ndim or 0 in arr.shape:
        raise ContractViolation(f"hypothesis labels must be a non-empty {ndim}-d array, got {arr.shape}")
    if arr.dtype.kind not in "iu" or not np.all(np.abs(arr) == 1):
        raise ContractViolation(f"hypothesis labels must be integers +1/-1, got {arr.tolist()}")
    arr = arr.astype(np.int8)
    arr.flags.writeable = False
    return arr


class Hypothesis:
    """A total labeling of the feature space into {-1, +1}, read-only."""

    __slots__ = ("labels", "_key")

    def __init__(self, labels: Iterable[int]):
        self.labels = _label_rows(labels, 1)
        self._key = self.labels.tobytes()

    @classmethod
    def _of(cls, row: np.ndarray) -> Hypothesis:
        """A member on an already checked read-only int8 row."""
        h = object.__new__(cls)
        h.labels, h._key = row, row.tobytes()
        return h

    def __call__(self, x: int) -> int:
        return int(self.labels[x])

    def __len__(self) -> int:
        return int(self.labels.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, Hypothesis) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Hypothesis({self.labels.tolist()})"


class HypothesisClass:
    """Ordered list of distinct hypotheses, in canonical tie-break order, built
    from one (n, m) label matrix or its rows, checked once.  The matrix is
    read-only (in copies too), so `complexity` keeps its measures in `_measures`."""

    def __init__(self, hypotheses: Sequence[Hypothesis] | np.ndarray):
        self.labels: np.ndarray = _label_rows(hypotheses, 2)   # (n, m) int8
        self.hypotheses: list[Hypothesis] = [Hypothesis._of(row) for row in self.labels]
        if len(set(self.hypotheses)) < len(self.hypotheses):
            raise ContractViolation("duplicate hypothesis label vector")
        self.m = self.labels.shape[1]
        self._measures: dict = {}

    def __reduce__(self):
        return HypothesisClass, (self.labels,)

    def __len__(self) -> int:
        return len(self.hypotheses)

    def __getitem__(self, i: int) -> Hypothesis:
        return self.hypotheses[i]

    def index_of(self, h: Hypothesis) -> int:
        for i, g in enumerate(self.hypotheses):
            if g == h:
                return i
        raise KeyError("hypothesis not in class")

    def full_version_space(self) -> tuple[int, ...]:
        return tuple(range(len(self.hypotheses)))


class LabeledDistribution:
    """A finite distribution over X x {-1,+1}, stored factorized.

    `marginal` is the pmf over points, `eta_plus[x]` the probability of label
    +1 at x.  Both are kept as exact rationals; float views for the samplers
    are derived on demand.
    """

    def __init__(self, marginal: Sequence[Number], eta_plus: Sequence[Number]):
        marg = [_frac(v) for v in marginal]
        eta = [_frac(v) for v in eta_plus]
        if len(marg) != len(eta) or not marg:
            raise ContractViolation("marginal and eta_plus must be non-empty and equal length")
        if any(v < 0 for v in marg):
            raise ContractViolation("marginal entries must be non-negative")
        total = sum(marg)
        if abs(total - 1) > PMF_TOL:
            raise ContractViolation(f"marginal must sum to 1 within {PMF_TOL}, got {total}")
        if any(v < 0 or v > 1 for v in eta):
            raise ContractViolation("eta_plus entries must lie in [0, 1]")
        self.marginal: tuple[Fraction, ...] = tuple(marg)
        self.eta_plus: tuple[Fraction, ...] = tuple(eta)
        self.m = len(marg)
        self._mnum, self._mden = _integerize(self.marginal)
        self._enum, self._eden = _integerize(self.eta_plus)
        self._eta_f: np.ndarray | None = None
        self._cdf: np.ndarray | None = None

    @property
    def eta_f(self) -> np.ndarray:
        if self._eta_f is None:
            self._eta_f = np.array([float(v) for v in self.eta_plus])
        return self._eta_f

    @property
    def cdf(self) -> np.ndarray:
        if self._cdf is None:
            c = np.cumsum([float(v) for v in self.marginal])
            c[-1] = 1.0
            self._cdf = c
        return self._cdf

    def _weigh(self, weights: np.ndarray):
        """The exact kernel: integer per-point `weights` (one row per
        hypothesis or point set, the last axis the points) summed against the
        marginal, as Python-int numerators over `_mden`."""
        return weights @ self._mnum

    def mass_exact(self, points: Iterable[int]) -> Fraction:
        """Mass of a set of points, given as any iterable of indices."""
        indicator = np.zeros(self.m, dtype=np.int8)
        indicator[np.fromiter(points, dtype=np.intp)] = 1
        return Fraction(self._weigh(indicator), self._mden)

    def joint_exact(self) -> dict[tuple[int, int], Fraction]:
        """Joint pmf over (point, label) pairs, labels in {-1,+1}."""
        out: dict[tuple[int, int], Fraction] = {}
        den = self._mden * self._eden
        for x in range(self.m):
            if self._mnum[x] == 0:
                continue
            plus = Fraction(self._mnum[x] * self._enum[x], den)
            minus = Fraction(self._mnum[x] * (self._eden - self._enum[x]), den)
            if plus:
                out[(x, 1)] = plus
            if minus:
                out[(x, -1)] = minus
        return out


class RandomizedHypothesis:
    """A uniform mixture over (a multiset of) class members.

    Losses and disagreements of a randomized hypothesis are arithmetic means
    over its support; repeats carry proportional weight.  The support is
    given as its members, repeats included, or as a mapping from each member
    to its positive count.
    """

    def __init__(self, cls: HypothesisClass, support: Iterable[int] | Mapping[int, int]):
        if isinstance(support, Mapping):
            counts = {int(idx): int(n) for idx, n in support.items()}
            if any(n < 1 for n in counts.values()):
                raise ContractViolation("randomized hypothesis counts must be positive")
        else:
            counts = Counter(map(int, support))
        if any(not 0 <= idx < len(cls) for idx in counts):
            raise ContractViolation("support index out of class range")
        if not counts:
            raise ContractViolation("randomized hypothesis support must be non-empty")
        self.cls = cls
        self.counts: tuple[tuple[int, int], ...] = tuple(sorted(counts.items()))
        self.total = sum(counts.values())

    @property
    def support_indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.counts)

    def __repr__(self) -> str:
        return f"RandomizedHypothesis(total={self.total}, support={dict(self.counts)})"


HypothesisLike = Union[Hypothesis, RandomizedHypothesis]


def _plus_counts(h: HypothesisLike, m: int) -> tuple[np.ndarray, int]:
    """How many of h's support members say +1 at each of the `m` points, and
    the support's size; a member is a support of one."""
    if isinstance(h, Hypothesis):
        plus, total = (h.labels > 0).astype(np.int64), 1
    else:
        idx, cnt = zip(*h.counts)
        plus, total = np.array(cnt) @ (h.cls.labels[list(idx)] > 0), h.total
    if plus.size != m:
        raise ContractViolation(f"dimension mismatch: hypothesis has {plus.size} points, distribution {m}")
    return plus, total


def _loss_rows(dist: LabeledDistribution, plus: np.ndarray, total: int) -> np.ndarray:
    """Loss weights over `total * _eden`, the support counts times its members'
    rows (Pr[y = -1] where a member says +1, Pr[y = +1] elsewhere): Pr[y = +1]
    per member plus Pr[y = -1] - Pr[y = +1] per +1 vote."""
    return total * dist._enum + plus * (dist._eden - 2 * dist._enum)


def loss_exact(h: HypothesisLike, dist: LabeledDistribution) -> Fraction:
    """Exact 0-1 loss sum_x marginal[x] Pr[y != h(x) | x]; the mean over the
    support for a mixture."""
    plus, total = _plus_counts(h, dist.m)
    return Fraction(dist._weigh(_loss_rows(dist, plus, total)), total * dist._mden * dist._eden)


def loss(h: Hypothesis, dist: LabeledDistribution) -> float:
    return float(loss_exact(h, dist))


@dataclass
class MDLInstance:
    """k labeled distributions over a shared feature space plus a hypothesis class."""

    feature_space: FeatureSpace
    hypothesis_class: HypothesisClass
    distributions: list[LabeledDistribution]
    declared_nu: float | None = None
    metadata: dict = field(default_factory=dict)
    _best: tuple[int, Fraction] | None = field(default=None, repr=False, init=False)

    def __post_init__(self):
        m = self.feature_space.size
        if self.hypothesis_class.m != m:
            raise ContractViolation("hypothesis class does not match feature space size")
        if not self.distributions:
            raise ContractViolation("instance must have k >= 1 distributions")
        for d in self.distributions:
            if d.m != m:
                raise ContractViolation("distribution does not match feature space size")
        if self.declared_nu is not None:
            computed = self.nu_exact()
            if abs(computed - _frac(self.declared_nu)) > NU_DECLARED_TOL:
                raise ContractViolation(f"declared nu {self.declared_nu} != computed "
                                        f"{float(computed)} (tol {NU_DECLARED_TOL})")

    @property
    def k(self) -> int:
        return len(self.distributions)

    @property
    def m(self) -> int:
        return self.feature_space.size

    def worst_loss_exact(self, h: HypothesisLike) -> Fraction:
        return max(loss_exact(h, d) for d in self.distributions)

    def _best_pair(self) -> tuple[int, Fraction]:
        """The first member of least worst-case loss, and that loss: every
        member's loss row in one kernel call per distribution, the numerators
        scaled to the common denominator."""
        if self._best is None:
            plus = (self.hypothesis_class.labels > 0).astype(np.int64)
            den = math.lcm(*(d._mden * d._eden for d in self.distributions))
            worst = 0
            for d in self.distributions:
                num = d._weigh(_loss_rows(d, plus, 1))
                worst = np.maximum(worst, num * (den // (d._mden * d._eden)))
            worst = worst.tolist()
            idx = min(range(len(worst)), key=worst.__getitem__)
            self._best = (idx, Fraction(worst[idx], den))
        return self._best

    def nu_exact(self) -> Fraction:
        return self._best_pair()[1]

    def pair_disagreement_exact(self, ia: int, ib: int, i: int) -> Fraction:
        """Exact rho_i between class members ia, ib."""
        cls = self.hypothesis_class
        return disagreement_exact(cls[ia], cls[ib], self.distributions[i])


def worst_loss(h: HypothesisLike, inst: MDLInstance) -> float:
    """Worst error across the k distributions (mean over support for randomized h)."""
    return float(inst.worst_loss_exact(h))


def disagreement_exact(h1: HypothesisLike, h2: HypothesisLike, dist: LabeledDistribution) -> Fraction:
    """The mean over support pairs of the mass where the pair disagrees.  At
    a point the pairs that disagree number p1 m2 + m1 p2, where p and m are a
    support's counts on +1 and on -1."""
    (p1, total1), (p2, total2) = _plus_counts(h1, dist.m), _plus_counts(h2, dist.m)
    return Fraction(dist._weigh(p1 * (total2 - p2) + (total1 - p1) * p2),
                    total1 * total2 * dist._mden)


def disagreement(h1: HypothesisLike, h2: HypothesisLike, dist: LabeledDistribution) -> float:
    """Pr_{x~D}[h1(x) != h2(x)]; mean over support pairs for randomized arguments."""
    return float(disagreement_exact(h1, h2, dist))


def max_disagreement_exact(h1: HypothesisLike, h2: HypothesisLike, inst: MDLInstance) -> Fraction:
    return max(disagreement_exact(h1, h2, d) for d in inst.distributions)


def max_disagreement(h1: HypothesisLike, h2: HypothesisLike, inst: MDLInstance) -> float:
    return float(max_disagreement_exact(h1, h2, inst))


def agreement_labels(cls: HypothesisClass, version_space: Sequence[int]) -> np.ndarray:
    """Unanimous label V(x) on the agreement region, 0 on the disagreement region."""
    V = np.asarray(version_space, dtype=np.intp)
    if not V.size:
        raise ContractViolation("version space must be non-empty")
    sub = cls.labels[V]
    lo, hi = sub.min(axis=0), sub.max(axis=0)
    return np.where(lo == hi, lo, 0).astype(np.int8)


def disagreement_region(cls: HypothesisClass, version_space: Sequence[int]) -> np.ndarray:
    """Points where some pair in the version space disagrees."""
    return np.nonzero(agreement_labels(cls, version_space) == 0)[0]


def best_nu(inst: MDLInstance) -> tuple[Hypothesis, float]:
    """Exact minimizer of the worst-case loss; ties broken by lowest class index."""
    idx, val = inst._best_pair()
    return inst.hypothesis_class[idx], float(val)


def best_nu_index(inst: MDLInstance) -> int:
    return inst._best_pair()[0]


def mixture_distribution(dists: Sequence[LabeledDistribution],
                         weights: Sequence[Number] | None = None) -> LabeledDistribution:
    """The mixture D_w = sum_i w_i D_i as a factorized labeled distribution."""
    if not dists:
        raise ContractViolation("mixture needs at least one distribution")
    k = len(dists)
    if weights is None:
        w = [Fraction(1, k)] * k
    else:
        w = [_frac(v) for v in weights]
        tot = sum(w)
        if len(w) != k or any(v < 0 for v in w) or abs(tot - 1) > PMF_TOL:
            raise ContractViolation("mixture weights must be a probability vector over the distributions")
        w = [v / tot for v in w]
    m = dists[0].m
    marg = [Fraction(0)] * m
    num = [Fraction(0)] * m
    for wi, d in zip(w, dists):
        for x in range(m):
            px = wi * d.marginal[x]
            marg[x] += px
            num[x] += px * d.eta_plus[x]
    eta = [num[x] / marg[x] if marg[x] else Fraction(0) for x in range(m)]
    return LabeledDistribution(marg, eta)


# ---------------------------------------------------------------------------
# Canonical instance file format (JSON syntax):
#   {"m": int, "hypotheses": [[+-1,...],...],
#    "distributions": [{"marginal": [...], "eta_plus": [...]}, ...],
#    "nu": optional float, "metadata": optional object}
# ---------------------------------------------------------------------------

def instance_to_dict(inst: MDLInstance) -> dict:
    doc = {
        "m": inst.m,
        "hypotheses": [h.labels.tolist() for h in inst.hypothesis_class.hypotheses],
        "distributions": [
            {"marginal": [float(v) for v in d.marginal],
             "eta_plus": [float(v) for v in d.eta_plus]}
            for d in inst.distributions
        ],
    }
    if inst.declared_nu is not None:
        doc["nu"] = inst.declared_nu
    if inst.metadata:
        doc["metadata"] = inst.metadata
    return doc


def _field(doc: dict, key: str, kind: type, where: str = "instance", required: bool = True):
    """doc[key], refused by name if doc is no mapping, if required and
    missing, or if not of type `kind` (a real must be finite, and no bool)."""
    if not isinstance(doc, dict):
        raise ContractViolation(f"{where} must be a mapping, got {doc!r}")
    if key not in doc:
        if required:
            raise ContractViolation(f"{where} is missing {key!r}")
        return None
    value = doc[key]
    if (isinstance(value, bool) or not isinstance(value, kind)
            or isinstance(value, float) and not math.isfinite(value)):
        raise ContractViolation(f"{where} field {key!r} must be of type {kind.__name__}, "
                                f"got {value!r}")
    return value


def instance_from_dict(doc: dict) -> MDLInstance:
    """The instance a file document describes; a missing field or one of the
    wrong type is refused by name."""
    m, hyps = _field(doc, "m", int), _field(doc, "hypotheses", list)
    dists = [(_field(d, "marginal", list, f"instance distributions[{i}]"),
              _field(d, "eta_plus", list, f"instance distributions[{i}]"))
             for i, d in enumerate(_field(doc, "distributions", list))]
    if not all(isinstance(v, list) and all(type(y) is int for y in v) for v in hyps):
        raise ContractViolation("instance field 'hypotheses' must hold lists of integer labels")
    return MDLInstance(FeatureSpace(m), HypothesisClass(hyps),
                       [LabeledDistribution(marg, eta) for marg, eta in dists],
                       declared_nu=_field(doc, "nu", Real, required=False),
                       metadata=_field(doc, "metadata", dict, required=False) or {})


def save_instance(inst: MDLInstance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)
        fh.write("\n")


def load_instance(path: str) -> MDLInstance:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ContractViolation(f"instance file {path} is not valid JSON: {exc}") from exc
    return instance_from_dict(doc)
