"""Exact combinatorial/metric complexity measures of an instance.

VC dimension and the unqualified star number are exhaustive searches capped
at desk scale, by one level search in numpy over the n non-constant points:
each set gives every member a pattern id, in the narrowest unsigned type that
holds 2^min(cap, n) - 1, and a child set is kept iff its ids take all values
(shattered) or hold a pattern and all its one-point flips (a star set around
some member); both properties are downward closed.
The star number around a fixed reference is a branch-and-bound on member
bitmasks: for each point, the int whose bit i says whether member i agrees
with the reference there.
The disagreement coefficient is evaluated exactly over the finite candidate
radius set (the ball-mass function is piecewise constant on finite supports,
so the sup over r >= r0 is attained at a candidate radius); its profile
(`_profile_nums`) takes one pass over the members sorted by their distance to
the reference, in integer numerators.  theta_max over the k distributions is
the max of their coefficients, as `amdl measure` prints it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps

import numpy as np

from .core import (ContractViolation, Hypothesis, HypothesisClass,
                   LabeledDistribution, _frac, check_int)

DEFAULT_VC_CAP = 12
DEFAULT_STAR_CAP = 64
_STAR_NODE_BUDGET = 2_000_000
_STAR_CELL_BUDGET = 1 << 26   # seen-table cells one unqualified star search may build
_VC_SLAB = 1 << 18      # bounds the cells built at once for a level


@dataclass(frozen=True)
class ComplexityValue:
    """A computed measure; `lower_bound_only` means the search cap bound, so the
    true value is >= `value`."""

    value: int
    lower_bound_only: bool = False

    def __int__(self) -> int:
        return self.value


def _memoized(search):
    """`search(cls, cap)` computed once per class and cap, and kept on the
    class; its label matrix is read-only, so the value cannot go stale."""
    @wraps(search)
    def measure(cls: HypothesisClass, cap: int = search.__defaults__[0]) -> ComplexityValue:
        key = (search.__name__, check_int("cap", cap))
        if key not in cls._measures:
            cls._measures[key] = search(cls, key[1])
        return cls._measures[key]
    return measure


def _varying_bits(cls: HypothesisClass) -> np.ndarray:
    """Points x members, 0/1 for the label +1, where both labels appear."""
    bits = (cls.labels.T > 0).astype(np.intp)
    plus = bits.sum(axis=1)
    return bits[(plus > 0) & (plus < len(cls))]


def _holds_star(seen: np.ndarray, size: int) -> np.ndarray:
    """Rows holding some pattern and all `size` of its one-bit flips."""
    ok = seen.copy()
    for j in range(size):
        flipped = ok.reshape(len(ok), -1, 2, 1 << j)
        flipped &= seen.reshape(len(seen), -1, 2, 1 << j)[:, :, ::-1]
    return ok.any(axis=1)


def _id_type(n: int, cap: int) -> np.dtype:
    """The narrowest unsigned type that holds 2^min(cap, n) - 1; intp above 32 bits."""
    t = np.min_scalar_type((1 << min(cap, n)) - 1)
    return t if t.itemsize <= 4 else np.dtype(np.intp)


def _children(bits: np.ndarray, last: np.ndarray, ids: np.ndarray, size: int,
              width: np.ndarray, keep) -> tuple[np.ndarray, np.ndarray]:
    """The extensions of each set of `size` points (its last point and its
    members' pattern ids; `bits`, points x members, 0/1 in the ids' type) by
    one of the `width` points after its last one whose seen ids (one flat
    fill per slab of bounded cells) `keep` passes: their last points and ids."""
    parent = np.repeat(np.arange(last.size), width)
    point = np.arange(parent.size) + np.repeat(last + 1 - (np.cumsum(width) - width), width)
    patterns = 2 << size
    step = max(1, _VC_SLAB // (patterns + bits.shape[1]))
    found = [(point[:0], ids[:0])]
    for i in range(0, parent.size, step):
        x = point[i:i + step]
        child = ids[parent[i:i + step]] | bits[x] << size
        cells = np.add(child, np.arange(0, x.size * patterns, patterns)[:, None], dtype=np.intp)
        seen = np.zeros((x.size, patterns), dtype=bool)
        seen.ravel()[cells.ravel()] = True
        kept = keep(seen, size + 1)
        found.append((x[kept], child[kept]))
    return tuple(map(np.concatenate, zip(*found)))


@_memoized
def vc_dimension(cls: HypothesisClass, cap: int = DEFAULT_VC_CAP) -> ComplexityValue:
    """Largest size of a shattered point subset, exhaustively, up to `cap`.

    Grows shattered sets a level at a time (every subset of a shattered set
    is shattered), so the work is bounded by the number of shattered sets
    rather than all subsets.
    """
    bits = _varying_bits(cls)
    if not len(bits):
        return ComplexityValue(0, lower_bound_only=False)
    bits = bits.astype(_id_type(len(bits), cap))
    last, ids, size = np.arange(len(bits)), bits, 1
    while size < cap:
        last, ids = _children(bits, last, ids, size, len(bits) - 1 - last,
                              lambda seen, size: seen.all(axis=1))
        if not last.size:
            return ComplexityValue(size, lower_bound_only=False)
        size += 1
    return ComplexityValue(cap, lower_bound_only=True)


def _column_masks(a: np.ndarray) -> list[int]:
    """Each column of `a` as an int whose bit i is set where row i is > 0."""
    cols = np.packbits(a.T > 0, axis=1, bitorder="little")
    return [int.from_bytes(col.tobytes(), "little") for col in cols]


def _greedy_star(plus: list[int], ref: np.ndarray, n: int, cap: int) -> int:
    """Size of the star set around `ref` taken greedily in point order, up to
    `cap` points, among the `n` members whose +1 masks are `plus`."""
    A = full = (1 << n) - 1
    live = []
    for p, r in zip(plus, ref.tolist()):
        if len(live) >= cap:
            break
        a = p if r > 0 else full ^ p
        witnesses = (full ^ a) & A
        if witnesses and all(w & a for w in live):
            A, live = A & a, [w & a for w in live] + [witnesses]
    return len(live)


def _star_search(plus: list[int], ref: np.ndarray, n: int, cap: int) -> ComplexityValue:
    """Branch-and-bound for the largest star set around the labeling `ref`
    of the `n` members whose +1 masks are `plus`; a search cut by the cap or
    the node budget returns its greedy completion as a lower bound.

    `agree[x]` and `diff[x]` are the members that agree and disagree with
    `ref` at x.  A node is a star set S carried as `A`, the members agreeing
    with `ref` on S, and `live`, for each x of S in order the members that
    witness x (disagree at x, agree on the rest of S).  Adding y keeps a star
    set iff some member of A disagrees at y and every live set keeps a member
    that agrees at y.
    """
    full = (1 << n) - 1
    agree = [p if r > 0 else full ^ p for p, r in zip(plus, ref.tolist())]
    diff = [full ^ a for a in agree]
    points = [x for x, d in enumerate(diff) if d]
    best = 0
    nodes = 0
    budget_hit = False

    def extend(A: int, live: list[int], pool: list[int]):
        # a star set's subsets are star sets, so a child's candidates are
        # among the later candidates of its parent
        nonlocal best, nodes, budget_hit
        if budget_hit:
            return
        nodes += 1
        if nodes > _STAR_NODE_BUDGET:
            budget_hit = True
            return
        size = len(live)
        if size > best:
            best = size
        if size >= cap:
            budget_hit = budget_hit or size == cap  # cap can truncate the search
            return
        # one filter per live set, stopped once too few candidates remain
        cands = [y for y in pool if diff[y] & A]
        for w in live:
            if size + len(cands) <= best:
                break
            cands = [y for y in cands if w & agree[y]]
        if size + len(cands) <= best:
            return
        for i, y in enumerate(cands):
            a = agree[y]
            extend(A & a, [w & a for w in live] + [diff[y] & A], cands[i + 1:])

    extend(full, [], points)
    if not budget_hit:
        return ComplexityValue(best)
    return ComplexityValue(max(best, _greedy_star(plus, ref, n, cap)), lower_bound_only=True)


def star_number(cls: HypothesisClass, hstar: Hypothesis,
                cap: int = DEFAULT_STAR_CAP) -> ComplexityValue:
    """Largest star set around `hstar`: points each flippable alone by some
    class member that agrees with `hstar` on the rest of the set.

    Exact branch-and-bound over member bitmasks (the star property is
    downward closed); degrades to a greedy lower bound with
    `lower_bound_only=True` if the cap or the node budget is hit.
    """
    cap = check_int("cap", cap)
    if len(hstar) != cls.m:
        raise ContractViolation("reference must label the class's points")
    return _star_search(_column_masks(cls.labels), hstar.labels, len(cls), cap)


@_memoized
def star_number_unqualified(cls: HypothesisClass, cap: int = DEFAULT_STAR_CAP) -> ComplexityValue:
    """Max of the reference-based star number over references in the class.

    A set is a star set around some member iff the class's projection on it
    holds a pattern and all its one-point flips.  Over the n points where
    the class is not constant, targets t run down from min(cap, n) until a
    star set of t points is found.  t = n is checked on the members; a
    smaller t by the level search, dropping a set that cannot reach t points
    with the points after its last one.  A value equal to `cap` is flagged.

    The search's tables count against one cell budget.  If it runs out at
    target t, the value is the largest greedy completion over the
    references; it is exact when that reaches t (no larger target held a
    star set) and flagged otherwise.
    """
    bits = _varying_bits(cls)
    n = len(bits)
    bits = bits.astype(_id_type(n, cap))
    cells = 0
    for t in range(min(cap, n), 0, -1):
        if t == n:
            pats = set(_column_masks(bits))
            if any(all(p ^ (1 << j) in pats for j in range(n)) for p in pats):
                break
            continue
        last, ids = np.arange(n - t + 1), bits[:n - t + 1]
        for size in range(1, t):
            width = n - t + size - last
            cells += int(width.sum()) << (size + 1)
            if cells > _STAR_CELL_BUDGET:
                plus = _column_masks(cls.labels)
                greedy = max(_greedy_star(plus, ref, len(cls), cap) for ref in cls.labels)
                return ComplexityValue(greedy, lower_bound_only=greedy < t or greedy == cap)
            last, ids = _children(bits, last, ids, size, width, _holds_star)
        if last.size:
            break
    else:
        t = 0
    return ComplexityValue(t, lower_bound_only=t == cap)


def _profile_nums(dist: LabeledDistribution, cls: HypothesisClass,
                  hstar: Hypothesis) -> tuple[list[int], list[int]]:
    """The ball-mass profile around `hstar`: the distinct distances rho to it and
    the masses of DIS(B(hstar, rho)), non-decreasing in rho, as numerators over
    `dist._mden`, in one pass over the members by rho: the disagreement region
    grows as the running min and max of their rows, read where each rho ends."""
    if len(hstar) != cls.m or dist.m != cls.m:
        raise ContractViolation("reference and distribution must cover the class's points")
    rho = dist._weigh(cls.labels != hstar.labels).tolist()
    order = sorted(range(len(rho)), key=rho.__getitem__)
    rows = cls.labels[order]
    grown = np.minimum.accumulate(rows) != np.maximum.accumulate(rows)
    ends = [j for j in range(len(order) - 1) if rho[order[j]] != rho[order[j + 1]]]
    ends.append(len(order) - 1)
    masses = dist._weigh(grown[ends]).tolist()
    if any(a > b for a, b in zip(masses, masses[1:])):
        raise ContractViolation("disagreement masses must not decrease in the radius")
    return [rho[order[j]] for j in ends], masses


def disagreement_coefficient_exact(dist: LabeledDistribution, cls: HypothesisClass,
                                   hstar: Hypothesis, r0) -> Fraction:
    r0 = _frac(r0)
    if r0 <= 0:
        raise ContractViolation("r0 must be positive")
    radii, masses = _profile_nums(dist, cls, hstar)
    p, q, den = r0.numerator, r0.denominator, dist._mden
    # numerators over den; the mass at r0 = p/q is that of the last radius <= r0,
    # a radius above r0 carries its own mass; ratios compared by cross-multiplying
    j = bisect_right(radii, p * den, key=q.__mul__)
    num, div = (masses[j - 1] * q if j else 0), den * p
    for r, mass in zip(radii[j:], masses[j:]):
        if mass * div > num * r:
            num, div = mass, r
    if num * p > div * q:
        raise ContractViolation("disagreement coefficient exceeded its 1/r0 ceiling")
    return Fraction(num, div)


def disagreement_coefficient(dist: LabeledDistribution, cls: HypothesisClass,
                             hstar: Hypothesis, r0) -> float:
    """sup_{r >= r0} Pr[DIS(B(h*, r))] / r, evaluated exactly."""
    return float(disagreement_coefficient_exact(dist, cls, hstar, r0))
