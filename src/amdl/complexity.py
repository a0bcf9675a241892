"""Exact combinatorial/metric complexity measures of an instance.

VC dimension and star number are exhaustive searches capped at desk scale.
The VC search extends a level of shattered sets at a time in numpy: each set
gives every member a pattern id, and a child set is shattered iff its ids
take all values.  The star search runs on member bitmasks: for each point,
the int whose bit i says whether member i agrees with the reference there.
The disagreement coefficient is evaluated exactly over the finite candidate
radius set (the ball-mass function is piecewise constant on finite supports,
so the sup over r >= r0 is attained at a candidate radius); its profile takes
one pass over the members sorted by their distance to the reference.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (ContractViolation, Hypothesis, HypothesisClass,
                   LabeledDistribution, MDLInstance, _frac)

DEFAULT_VC_CAP = 12
DEFAULT_STAR_CAP = 64
_STAR_NODE_BUDGET = 2_000_000
_VC_SLAB = 1 << 18      # bounds the child pattern ids built at once for a level


@dataclass(frozen=True)
class ComplexityValue:
    """A computed measure; `lower_bound_only` means the search cap bound, so the
    true value is >= `value`."""

    value: int
    lower_bound_only: bool = False

    def __int__(self) -> int:
        return self.value


def _check_cap(cap: int) -> None:
    if cap < 0:
        raise ContractViolation("cap must be non-negative")


def _shattered_children(bits: np.ndarray, last: np.ndarray, ids: np.ndarray,
                        size: int) -> tuple[np.ndarray, np.ndarray]:
    """The shattered extensions, by a point after its last one, of each
    shattered set of `size` points given as its last point and its members'
    pattern ids (`bits` is points x members, 0/1): the children's last points
    and pattern ids."""
    width = bits.shape[0] - 1 - last
    parent = np.repeat(np.arange(last.size), width)
    point = np.arange(parent.size) + np.repeat(last + 1 - (np.cumsum(width) - width), width)
    child = ids[parent] | bits[point] << size
    patterns = 2 << size
    seen = np.zeros(parent.size * patterns, dtype=bool)
    seen[(child + (np.arange(parent.size) * patterns)[:, None]).ravel()] = True
    keep = seen.reshape(parent.size, patterns).all(axis=1)
    return point[keep], child[keep]


def vc_dimension(cls: HypothesisClass, cap: int = DEFAULT_VC_CAP) -> ComplexityValue:
    """Largest size of a shattered point subset, exhaustively, up to `cap`.

    Grows shattered sets a level at a time (every subset of a shattered set
    is shattered), so the work is bounded by the number of shattered sets
    rather than all subsets.  A set is kept as its last point and the pattern
    id of each member on it; a child set is shattered iff its ids take all
    values.  A level is extended in slabs of parents, so its children's ids
    take bounded memory.
    """
    _check_cap(cap)
    bits = (cls.labels.T > 0).astype(np.intp)
    # no point is shattered unless both labels appear there
    plus = bits.sum(axis=1)
    last = np.flatnonzero((plus > 0) & (plus < len(cls)))
    ids = bits[last]
    if not last.size:
        return ComplexityValue(0, lower_bound_only=False)
    step = max(1, _VC_SLAB // bits.size)
    size = 1
    while size < cap:
        slabs = [_shattered_children(bits, last[i:i + step], ids[i:i + step], size)
                 for i in range(0, last.size, step)]
        last, ids = (np.concatenate(col) for col in zip(*slabs))
        if not last.size:
            return ComplexityValue(size, lower_bound_only=False)
        size += 1
    return ComplexityValue(cap, lower_bound_only=True)


def _member_masks(labels: np.ndarray) -> list[int]:
    """For each point, the members labelling it +1 as an int bitmask (bit i
    is member i)."""
    cols = np.packbits(labels.T > 0, axis=1, bitorder="little")
    return [int.from_bytes(col.tobytes(), "little") for col in cols]


def _star_search(plus: list[int], ref: np.ndarray, n: int, cap: int,
                 floor: int = 0) -> ComplexityValue:
    """Branch-and-bound for the largest star set around the labeling `ref`
    of the `n` members whose +1 masks are `plus`, pruning branches that
    cannot exceed `floor`; a search cut by the cap or the node budget returns
    its greedy completion as a lower bound.

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
    best = floor
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
    # greedy completion as an explicit lower bound
    A, live = full, []
    for y in points:
        if len(live) >= cap:
            break
        a = agree[y]
        if diff[y] & A and all(w & a for w in live):
            A, live = A & a, [w & a for w in live] + [diff[y] & A]
    return ComplexityValue(max(best, len(live)), lower_bound_only=True)


def star_number(cls: HypothesisClass, hstar: Hypothesis,
                cap: int = DEFAULT_STAR_CAP) -> ComplexityValue:
    """Largest star set around `hstar`: points each flippable alone by some
    class member that agrees with `hstar` on the rest of the set.

    Exact branch-and-bound over member bitmasks (the star property is
    downward closed); degrades to a greedy lower bound with
    `lower_bound_only=True` if the cap or the node budget is hit.
    """
    _check_cap(cap)
    if len(hstar) != cls.m:
        raise ContractViolation("reference must label the class's points")
    return _star_search(_member_masks(cls.labels), hstar.labels, len(cls), cap)


def star_number_unqualified(cls: HypothesisClass, cap: int = DEFAULT_STAR_CAP) -> ComplexityValue:
    """Max of the reference-based star number over references in the class.

    The unqualified star number is reported this way and flagged as such; the
    reference-based variant is the primitive.  All references share one set
    of member bitmasks.  Each reference's search only looks for star sets
    larger than the best found so far, and the value is flagged whenever a
    search was cut by the cap or the node budget.
    """
    _check_cap(cap)
    plus = _member_masks(cls.labels)
    best, exact = 0, True
    for ref in cls.labels:
        v = _star_search(plus, ref, len(cls), cap, floor=best)
        best, exact = v.value, exact and not v.lower_bound_only
        if best >= cap:
            break
    return ComplexityValue(best, lower_bound_only=not exact)


@dataclass(frozen=True)
class DisagreementProfile:
    """Ball-mass profile around a reference hypothesis under one distribution.

    `radii` are the distinct candidate radii (exact), `masses[j]` the mass of
    DIS(B(h*, radii[j])); masses are non-decreasing in the radius.
    """

    radii: tuple[Fraction, ...]
    masses: tuple[Fraction, ...]


def disagreement_profile(dist: LabeledDistribution, cls: HypothesisClass,
                         hstar: Hypothesis) -> DisagreementProfile:
    """One pass over the members in order of their distance rho to `hstar`:
    the disagreement region grows as the running min and max of their rows,
    and each distinct rho reads its mass where its last member joins.  Both
    are integer numerators over `dist._mden` until the output."""
    if len(hstar) != cls.m or dist.m != cls.m:
        raise ContractViolation("reference and distribution must cover the class's points")
    mnum = np.array(dist._mnum, dtype=object)
    rho = ((cls.labels != hstar.labels) @ mnum).tolist()
    order = sorted(range(len(rho)), key=rho.__getitem__)
    rows = cls.labels[order]
    grown = np.minimum.accumulate(rows) != np.maximum.accumulate(rows)
    ends = [j for j in range(len(order) - 1) if rho[order[j]] != rho[order[j + 1]]]
    ends.append(len(order) - 1)
    den = dist._mden
    radii = tuple(Fraction(rho[order[j]], den) for j in ends)
    masses = tuple(Fraction(v, den) for v in (grown[ends] @ mnum).tolist())
    if any(a > b for a, b in zip(masses, masses[1:])):
        raise ContractViolation("disagreement masses must not decrease in the radius")
    return DisagreementProfile(radii, masses)


def disagreement_coefficient_exact(dist: LabeledDistribution, cls: HypothesisClass,
                                   hstar: Hypothesis, r0) -> Fraction:
    try:
        r0 = _frac(r0)
    except (ValueError, OverflowError) as exc:
        raise ContractViolation(f"r0 must be a finite number, got {r0!r}") from exc
    if r0 <= 0:
        raise ContractViolation("r0 must be positive")
    prof = disagreement_profile(dist, cls, hstar)
    # the mass at r0 is that of the last radius <= r0; a radius above r0
    # carries its own mass
    j = bisect_right(prof.radii, r0)
    theta = max([(prof.masses[j - 1] if j else Fraction(0)) / r0]
                + [mass / r for r, mass in zip(prof.radii[j:], prof.masses[j:])])
    if theta * r0 > 1:
        raise ContractViolation("disagreement coefficient exceeded its 1/r0 ceiling")
    return theta


def disagreement_coefficient(dist: LabeledDistribution, cls: HypothesisClass,
                             hstar: Hypothesis, r0) -> float:
    """sup_{r >= r0} Pr[DIS(B(h*, r))] / r, evaluated exactly."""
    return float(disagreement_coefficient_exact(dist, cls, hstar, r0))


def theta_max_exact(inst: MDLInstance, hstar: Hypothesis, r0) -> Fraction:
    return max(disagreement_coefficient_exact(d, inst.hypothesis_class, hstar, r0)
               for d in inst.distributions)


def theta_max(inst: MDLInstance, hstar: Hypothesis, r0) -> float:
    return float(theta_max_exact(inst, hstar, r0))
