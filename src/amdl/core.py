"""Finite-support domain types and exact error/disagreement metrics.

Everything downstream (samplers, solvers, verifiers) builds on the types here.
Probabilities are carried as exact rationals internally (integer numerators
over a shared per-array denominator), so loss tables, disagreement masses and
coefficient ratios computed from generator-built instances are exact, and
repeated evaluation is bit-identical.  Float views are derived for sampling.
A loss or disagreement comes back exact (`loss_exact`, `disagreement_exact`);
a version space's disagreement region is where `agreement_labels` is 0.
Every exact mass and disagreement is one call of `_exact_dot` on integer
per-point weights, every exact loss one `total * _A + plus @ _B` on a
support's +1 counts, and `MDLInstance`'s stacks make one call cover all k
distributions: in int64 when max(1, max |weight|) times the largest column's
sum of |numerators| is below 2^63, else on Python ints; the result is Python
ints, and Fractions are built only for outputs.
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


def check_int(name: str, value, least: int | None = 0, below: int | None = None) -> int:
    """`value` as a plain int: a Python int (no bool or other subclass) or a
    numpy integer, with least <= value < below where those bounds are given.
    Refused otherwise with a ContractViolation that names the argument."""
    if ((type(value) is int or isinstance(value, np.integer))
            and (least is None or value >= least) and (below is None or value < below)):
        return value if type(value) is int else int(value)
    bounds = "".join(f"{op} {v} and " for op, v in ((">=", least), ("<", below)) if v is not None)
    raise ContractViolation(f"{name} must be {bounds}an integer, got {value!r}")


def check_real(name: str, value, least: float = -math.inf, below: float = math.inf):
    """`value` unchanged: a real number (no bool) that is finite as a float,
    with least < value < below.  Refused otherwise with a ContractViolation
    that names the argument."""
    try:
        if (not isinstance(value, bool) and isinstance(value, Real)
                and least < value < below and math.isfinite(value)):
            return value
    except OverflowError:   # an int too large for a float
        pass
    span = (f"in ({least:g}, {below:g})" if below < math.inf else "finite" if least == -math.inf
            else "positive and finite" if least == 0 else f"finite and > {least:g}")
    raise ContractViolation(f"{name} must be a real number, {span}, got {value!r}")


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


def _exact_dot(weights: np.ndarray, nums: np.ndarray, nsum: int):
    """`weights @ nums` (object ints, one vector or a column each) exactly, as Python
    ints: in int64 when the weights are bools or signed integers and max(1, |weights|)
    times `nsum`, at least any column's sum |nums|, is below 2^63."""
    lim = int(np.abs(weights).max(initial=1)) if weights.dtype.kind == "i" else 1
    if weights.dtype.kind not in "bi" or lim * nsum >= 1 << 63:
        return weights @ nums
    out = weights @ nums.astype(np.int64)
    return int(out) if out.ndim == 0 else out.astype(object)


def _mask(mask, m: int) -> np.ndarray:
    """`mask`, refused unless a boolean array of shape (m,)."""
    if not isinstance(mask, np.ndarray) or mask.dtype != bool or mask.shape != (m,):
        raise ContractViolation(f"a mass needs a boolean mask of shape ({m},)")
    return mask


def _integerize(values: Sequence[Fraction]) -> tuple[np.ndarray, int]:
    """Common-denominator form of a rational vector: the numerators as an
    object array of Python ints, and the denominator."""
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    nums = [int(v.numerator * (den // v.denominator)) for v in values]
    return np.array(nums, dtype=object), den


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
        return int(self.labels[check_int("point", x, 0, self.labels.size)])

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
        # a loss numerator over total * _mden * _eden is total * _A + plus @ _B: Pr[y = +1]
        # per support member and Pr[y = -1] - Pr[y = +1] per +1 vote (`_plus_counts`)
        self._A = self._mnum @ self._enum
        self._B = self._mnum * (self._eden - 2 * self._enum)
        self._msum, self._bsum = sum(self._mnum), sum(map(abs, self._B))
        self._eta_f: np.ndarray | None = None
        self._cdf: np.ndarray | None = None
        self._buckets: np.ndarray | None = None

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

    def points(self, u: np.ndarray) -> np.ndarray:
        """Each variate's point, `cdf.searchsorted(u, side="right")` element for element.
        From 4,096 / bit_length(m) variates (measured crossover: 2,048 at m = 3, 1,000
        at m = 8, 400 at m = 1,000) a table over G = 2^j >= 8 m buckets gives floor(u G)'s
        point, or -1 if a cdf entry lies inside the bucket; only then is u searched."""
        if u.size * self.m.bit_length() < 4096:
            return self.cdf.searchsorted(u, side="right")
        table = self._buckets
        if table is None:
            size = 1 << (8 * self.m - 1).bit_length()
            edges = np.arange(size + 1) / size
            first = self.cdf.searchsorted(edges, side="right")
            table = self._buckets = np.where(self.cdf.searchsorted(edges[1:]) > first[:-1], -1, first[:-1])
        xs = np.multiply(u, table.size, out=np.empty(u.shape, np.intp), casting="unsafe").ravel()
        table.take(xs, out=xs, mode="clip")     # each bucket index floor(u G) becomes its entry
        miss = (xs < 0).nonzero()[0]
        xs[miss] = self.cdf.searchsorted(u.flat[miss], side="right")
        return xs.reshape(u.shape)

    def _weigh(self, weights: np.ndarray):
        """The exact kernel: integer per-point `weights` (one row per hypothesis
        or point set, the last axis the points) summed against the marginal, as
        Python-int numerators over `_mden`."""
        return _exact_dot(weights, self._mnum, self._msum)

    def mass(self, mask: np.ndarray) -> Fraction:
        """The exact mass of the points where `mask`, a boolean array of shape (m,), holds."""
        return Fraction(self._weigh(_mask(mask, self.m)), self._mden)

    def _loss_num(self, plus: np.ndarray, total: int):
        """Loss numerators over total * _mden * _eden of `total`-member supports' +1 counts;
        on an MDLInstance's stacks, a column per distribution over total * _den."""
        return total * self._A + _exact_dot(plus, self._B, self._bsum)


class RandomizedHypothesis:
    """A uniform mixture over (a multiset of) class members.

    Losses and disagreements of a randomized hypothesis are arithmetic means
    over its support; repeats carry proportional weight.  The support is
    given as its members, repeats included, or as a mapping from each member
    to its positive count.
    """

    def __init__(self, cls: HypothesisClass, support: Iterable[int] | Mapping[int, int]):
        if isinstance(support, Mapping):
            counts = {check_int("support member", idx, 0, len(cls)):
                      check_int("support count", n, 1) for idx, n in support.items()}
        else:
            counts = Counter(check_int("support member", idx, 0, len(cls)) for idx in support)
        if not counts:
            raise ContractViolation("randomized hypothesis support must be non-empty")
        self.cls = cls
        self.counts: tuple[tuple[int, int], ...] = tuple(sorted(counts.items()))
        self.total = sum(counts.values())

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


def loss_exact(h: HypothesisLike, dist: LabeledDistribution) -> Fraction:
    """Exact 0-1 loss sum_x marginal[x] Pr[y != h(x) | x]; the mean over the
    support for a mixture."""
    plus, total = _plus_counts(h, dist.m)
    return Fraction(dist._loss_num(plus, total), total * dist._mden * dist._eden)


@dataclass
class MDLInstance:
    """k labeled distributions plus a hypothesis class, all on the class's m points."""

    hypothesis_class: HypothesisClass
    distributions: list[LabeledDistribution]
    declared_nu: float | None = None
    metadata: dict = field(default_factory=dict)
    # the minimax member, nu, and every member's worst-loss numerator over `_den`
    _best: tuple[int, Fraction, list[int]] | None = field(default=None, repr=False, init=False)

    def __post_init__(self):
        if not self.distributions:
            raise ContractViolation("instance must have k >= 1 distributions")
        for d in self.distributions:
            if d.m != self.m:
                raise ContractViolation(f"a distribution has {d.m} points, the class {self.m}")
        # the k distributions side by side, for one kernel call over all: marginal numerators
        # (m x k), column i over _mdens[i], and loss coefficients _A, _B over one _den
        dists = self.distributions
        self._mnums = np.stack([d._mnum for d in dists], axis=1)
        self._mdens = np.array([d._mden for d in dists], dtype=object)
        self._den = math.lcm(*(d._mden * d._eden for d in dists))
        scale = self._den // np.array([d._mden * d._eden for d in dists], dtype=object)
        self._A = np.array([d._A for d in dists], dtype=object) * scale
        self._B = np.stack([d._B for d in dists], axis=1) * scale
        self._msum, self._bsum = max(self._mnums.sum(axis=0)), max(abs(self._B).sum(axis=0))
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
        return self.hypothesis_class.m

    def masses(self, mask: np.ndarray) -> list[Fraction]:
        """Each distribution's exact mass of the points where the boolean (m,) `mask` holds."""
        nums = _exact_dot(_mask(mask, self.m), self._mnums, self._msum).tolist()
        return list(map(Fraction, nums, self._mdens.tolist()))

    _loss_nums = LabeledDistribution._loss_num

    def worst_loss_exact(self, h: HypothesisLike) -> Fraction:
        plus, total = _plus_counts(h, self.m)
        return Fraction(max(self._loss_nums(plus, total).tolist()), total * self._den)

    def _best_pair(self) -> tuple[int, Fraction]:
        """The first member of least worst-case loss, and that loss: every
        member's loss under every distribution in one product, the worst
        numerators kept for `worst_member_loss`."""
        if self._best is None:
            plus = (self.hypothesis_class.labels > 0).astype(np.int64)
            worst = self._loss_nums(plus, 1).max(axis=1).tolist()
            idx = min(range(len(worst)), key=worst.__getitem__)
            self._best = (idx, Fraction(worst[idx], self._den), worst)
        return self._best[:2]

    def worst_member_loss(self) -> Fraction:
        """The largest worst-case loss of a member; no output (a member or mixture) exceeds it."""
        self._best_pair()
        return Fraction(max(self._best[2]), self._den)

    def nu_exact(self) -> Fraction:
        return self._best_pair()[1]

    def pair_disagreement_exact(self, ia: int, ib: int, i: int) -> Fraction:
        """Exact rho_i between class members ia, ib."""
        cls = self.hypothesis_class
        ia, ib = (check_int("class member", v, 0, len(cls)) for v in (ia, ib))
        return disagreement_exact(cls[ia], cls[ib],
                                  self.distributions[check_int("distribution index", i, 0, self.k)])


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


def check_members(what: str, members: Sequence[int], below: int,
                  distinct: bool = False) -> list[int]:
    """`members` as a non-empty list of ints of range(below), no two equal if
    `distinct` (a version space may repeat a member; requests may not)."""
    need = f"{what} need {'distinct ' if distinct else ''}members of range({below})"
    got = [check_int(f"{need}; each", v, 0, below) for v in members]
    if not got or distinct and len(set(got)) != len(got):
        raise ContractViolation(f"{need}; got {got!r}")
    return got


def agreement_labels(cls: HypothesisClass, version_space: Sequence[int]) -> np.ndarray:
    """Unanimous label V(x) on the agreement region, 0 on the disagreement region."""
    sub = cls.labels[check_members("version spaces", version_space, len(cls))]
    lo, hi = sub.min(axis=0), sub.max(axis=0)
    return np.where(lo == hi, lo, 0).astype(np.int8)


def best_nu(inst: MDLInstance) -> tuple[Hypothesis, float]:
    """Exact minimizer of the worst-case loss; ties broken by lowest class index."""
    idx, val = inst._best_pair()
    return inst.hypothesis_class[idx], float(val)


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
    missing, or if not of type `kind`: an int as `check_int` takes it, a Real
    as `check_real` does, and a bool only where `kind` is bool."""
    if not isinstance(doc, dict):
        raise ContractViolation(f"{where} must be a mapping, got {doc!r}")
    if key not in doc:
        if required:
            raise ContractViolation(f"{where} is missing {key!r}")
        return None
    value, name = doc[key], f"{where} field {key!r}"
    if kind is int:
        return check_int(name, value, None)
    if kind is Real:
        return check_real(name, value)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ContractViolation(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


def instance_from_dict(doc: dict) -> MDLInstance:
    """The instance a file document describes; a missing field, one of the
    wrong type or an `m` that is not the hypotheses' length is refused by name."""
    m, hyps = _field(doc, "m", int), _field(doc, "hypotheses", list)
    dists = [(_field(d, "marginal", list, f"instance distributions[{i}]"),
              _field(d, "eta_plus", list, f"instance distributions[{i}]"))
             for i, d in enumerate(_field(doc, "distributions", list))]
    if not all(isinstance(v, list) and all(type(y) is int for y in v) for v in hyps):
        raise ContractViolation("instance field 'hypotheses' must hold lists of integer labels")
    cls = HypothesisClass(hyps)
    if m != cls.m:
        raise ContractViolation(f"instance field 'm' must be the hypotheses' length {cls.m}, "
                                f"got {m}")
    return MDLInstance(cls,
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
