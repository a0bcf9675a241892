"""Exact combinatorial/metric complexity measures of an instance.

VC dimension and star number are exhaustive searches capped at desk scale;
the disagreement coefficient is evaluated exactly over the finite candidate
radius set (the ball-mass function is piecewise constant on finite supports,
so the sup over r >= r0 is attained at a candidate radius).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (ContractViolation, Hypothesis, HypothesisClass,
                   LabeledDistribution, MDLInstance, _frac,
                   disagreement_region)

DEFAULT_VC_CAP = 12
DEFAULT_STAR_CAP = 64
_STAR_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class ComplexityValue:
    """A computed measure; `lower_bound_only` means the search cap bound, so the
    true value is >= `value`."""

    value: int
    lower_bound_only: bool = False

    def __int__(self) -> int:
        return self.value


def _shattered(labels01: np.ndarray, subset: tuple[int, ...]) -> bool:
    sub = labels01[:, subset]
    codes = sub @ (1 << np.arange(len(subset)))
    return len(np.unique(codes)) == (1 << len(subset))


def vc_dimension(cls: HypothesisClass, cap: int = DEFAULT_VC_CAP) -> ComplexityValue:
    """Largest size of a shattered point subset, exhaustively, up to `cap`.

    Grows shattered sets incrementally (every subset of a shattered set is
    shattered), so the work is bounded by the number of shattered sets rather
    than all subsets.
    """
    if cap < 0:
        raise ContractViolation("cap must be non-negative")
    labels01 = (cls.labels > 0).astype(np.int64)
    m = cls.m
    # no point is shattered unless both labels appear there
    level = [(x,) for x in range(m) if 0 < labels01[:, x].sum() < len(cls)]
    if not level:
        return ComplexityValue(0, lower_bound_only=False)
    size = 1
    while size < cap:
        nxt = []
        seen = set()
        for A in level:
            for x in range(A[-1] + 1, m):
                cand = A + (x,)
                if cand in seen:
                    continue
                seen.add(cand)
                if _shattered(labels01, cand):
                    nxt.append(cand)
        if not nxt:
            return ComplexityValue(size, lower_bound_only=False)
        level = nxt
        size += 1
    return ComplexityValue(cap, lower_bound_only=True)


def _label_codes(labels: np.ndarray) -> list[int]:
    """Each row's +1 points as an int bitmask (bit x is point x)."""
    rows = np.packbits(labels > 0, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _witness_sets(codes: list[int], ref: int) -> dict[int, list[int]]:
    """For each point x that some class member flips against `ref`, the
    inclusion-minimal sets D - {x} over the difference sets D that contain x.

    A point set S is a star set iff each x in S has a witness disjoint from S;
    a superset witness is disjoint from S only if its subsets are, so the
    minimal ones decide.  A point some member flips alone gets [0].
    """
    diffs = sorted({c ^ ref for c in codes}, key=int.bit_count)
    union = 0
    for d in diffs:
        union |= d
    out = {}
    for x in range(union.bit_length()):
        bx = 1 << x
        if not union & bx:
            continue
        kept: list[int] = []
        for d in diffs:  # by size, so each set's subsets come before it
            if d & bx:
                w = d ^ bx
                for v in kept:
                    if v & w == v:
                        break
                else:
                    kept.append(w)
        out[x] = kept
    return out


def _kill_mask(S: int, members: list[int], witnesses: dict[int, list[int]]) -> int:
    """Points whose addition to the star set S leaves some member unwitnessed:
    those lying in every witness of that member that is disjoint from S."""
    kill = 0
    for x in members:
        common = -1
        for w in witnesses[x]:
            if not w & S:
                common &= w
        kill |= common
    return kill


def _star_search(codes: list[int], ref: int, cap: int, floor: int = 0) -> ComplexityValue:
    """Branch-and-bound for the largest star set around `ref`, pruning
    branches that cannot exceed `floor`; a search cut by the cap or the node
    budget returns its greedy completion as a lower bound."""
    witnesses = _witness_sets(codes, ref)
    points = sorted(witnesses)
    best = floor
    nodes = 0
    budget_hit = False

    def open_for(y: int, S: int, kill: int) -> bool:
        return not kill >> y & 1 and any(not w & S for w in witnesses[y])

    def extend(S: int, members: list[int], pool: list[int]):
        # a star set's subsets are star sets, so a child's candidates are
        # among the later candidates of its parent
        nonlocal best, nodes, budget_hit
        if budget_hit:
            return
        nodes += 1
        if nodes > _STAR_NODE_BUDGET:
            budget_hit = True
            return
        size = len(members)
        best = max(best, size)
        if size >= cap:
            budget_hit = budget_hit or size == cap  # cap can truncate the search
            return
        kill = _kill_mask(S, members, witnesses)
        cands = [y for y in pool if open_for(y, S, kill)]
        if size + len(cands) <= best:
            return
        for i, y in enumerate(cands):
            extend(S | 1 << y, members + [y], cands[i + 1:])

    extend(0, [], points)
    if not budget_hit:
        return ComplexityValue(best)
    # greedy completion as an explicit lower bound
    S, members = 0, []
    for y in points:
        if len(members) >= cap:
            break
        if open_for(y, S, _kill_mask(S, members, witnesses)):
            S |= 1 << y
            members.append(y)
    return ComplexityValue(max(best, len(members)), lower_bound_only=True)


def star_number(cls: HypothesisClass, hstar: Hypothesis,
                cap: int = DEFAULT_STAR_CAP) -> ComplexityValue:
    """Largest star set around `hstar`: points each flippable alone by some
    class member that agrees with `hstar` on the rest of the set.

    Exact branch-and-bound over label bitmasks (the star property is downward
    closed); degrades to a greedy lower bound with `lower_bound_only=True` if
    the cap or the node budget is hit.
    """
    ref = _label_codes(hstar.labels[None, :])[0]
    return _star_search(_label_codes(cls.labels), ref, cap)


def star_number_unqualified(cls: HypothesisClass, cap: int = DEFAULT_STAR_CAP) -> ComplexityValue:
    """Max of the reference-based star number over references in the class.

    The unqualified star number is reported this way and flagged as such; the
    reference-based variant is the primitive.  Each reference's search only
    looks for star sets larger than the best found so far, and the value is
    flagged whenever a search was cut by the cap or the node budget.
    """
    codes = _label_codes(cls.labels)
    best, exact = 0, True
    for ref in codes:
        v = _star_search(codes, ref, cap, floor=best)
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
    rhos = []
    for h in cls.hypotheses:
        pts = np.nonzero(h.labels != hstar.labels)[0]
        rhos.append(dist.mass_exact(int(x) for x in pts))
    radii = sorted(set(rhos))
    masses = []
    for r in radii:
        ball = [i for i, rho in enumerate(rhos) if rho <= r]
        pts = disagreement_region(cls, ball) if ball else np.array([], dtype=int)
        masses.append(dist.mass_exact(int(x) for x in pts))
    if any(a > b for a, b in zip(masses, masses[1:])):
        raise ContractViolation("disagreement masses must not decrease in the radius")
    return DisagreementProfile(tuple(radii), tuple(masses))


def disagreement_coefficient_exact(dist: LabeledDistribution, cls: HypothesisClass,
                                   hstar: Hypothesis, r0) -> Fraction:
    r0 = _frac(r0)
    if r0 <= 0:
        raise ContractViolation("r0 must be positive")
    prof = disagreement_profile(dist, cls, hstar)

    def mass_at(r: Fraction) -> Fraction:
        out = Fraction(0)
        for rad, mass in zip(prof.radii, prof.masses):
            if rad <= r:
                out = mass
            else:
                break
        return out

    candidates = [r0] + [r for r in prof.radii if r >= r0]
    theta = max(mass_at(r) / r for r in candidates)
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
