"""Shared helpers: independent brute-force oracles and tiny instance builders.

The oracles here deliberately re-derive every quantity from first principles
(plain subset enumeration, Fraction sums in a different order) so agreement
with the package is a two-route check, not a tautology.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from amdl import Hypothesis, HypothesisClass, LabeledDistribution, MDLInstance


def brute_vc(labels: np.ndarray) -> int:
    """VC dimension by plain enumeration of all subsets per size."""
    n, m = labels.shape
    best = 0
    for s in range(1, m + 1):
        found = False
        for subset in combinations(range(m), s):
            patterns = {tuple(int(v) for v in row[list(subset)]) for row in labels}
            if len(patterns) == 2 ** s:
                found = True
                break
        if not found:
            break
        best = s
    return best


def brute_star(labels: np.ndarray, ref: np.ndarray) -> int:
    """Star number by plain enumeration of all point subsets per size."""
    n, m = labels.shape
    best = 0
    for s in range(1, m + 1):
        found = False
        for subset in combinations(range(m), s):
            ok_all = True
            for x in subset:
                witnessed = False
                for row in labels:
                    if row[x] != ref[x] and all(row[y] == ref[y]
                                                for y in subset if y != x):
                        witnessed = True
                        break
                if not witnessed:
                    ok_all = False
                    break
            if ok_all:
                found = True
                break
        if not found:
            break
        best = s
    return best


def brute_loss(h: Hypothesis, dist: LabeledDistribution) -> Fraction:
    """Exact loss by per-point Fraction products, summed in reverse order."""
    total = Fraction(0)
    for x in reversed(range(dist.m)):
        err = dist.eta_plus[x] if h.labels[x] < 0 else 1 - dist.eta_plus[x]
        total += dist.marginal[x] * err
    return total


def brute_best_nu(inst: MDLInstance) -> tuple[int, Fraction]:
    best_idx, best_val = None, None
    for idx, h in enumerate(inst.hypothesis_class.hypotheses):
        worst = max(brute_loss(h, d) for d in inst.distributions)
        if best_val is None or worst < best_val:
            best_idx, best_val = idx, worst
    return best_idx, best_val


def empirical_tv(counts: dict, exact: dict, n: int) -> float:
    """Total variation between an empirical joint (counts over (x,y)) and an
    exact pmf given as Fractions."""
    keys = set(counts) | set(exact)
    return 0.5 * sum(abs(counts.get(key, 0) / n - float(exact.get(key, 0)))
                     for key in keys)


def two_point_instance() -> MDLInstance:
    """m=2, H = {all-plus, all-minus}, one noisy distribution."""
    cls = HypothesisClass([Hypothesis([1, 1]), Hypothesis([-1, -1])])
    dist = LabeledDistribution([Fraction(1, 2), Fraction(1, 2)],
                               [Fraction(1, 4), Fraction(3, 4)])
    return MDLInstance(cls, [dist])


def one_point_instance() -> MDLInstance:
    cls = HypothesisClass([Hypothesis([1]), Hypothesis([-1])])
    return MDLInstance(cls, [LabeledDistribution([Fraction(1)], [Fraction(1)])])


def round_losses(family, labels: np.ndarray, j: int, counts, rounds_left: int) -> list[float]:
    """One solver round served from `family`'s blocks, as `hedge._play_chunk`
    serves each round of a chunk: the first row of candidate j's loss table,
    then `serve(1)`."""
    losses = family.tables(labels, counts, rounds_left)[j][0]
    family.serve(1)
    return losses.tolist()


@pytest.fixture
def desk_knobs() -> dict:
    from amdl.harness import PROFILES
    return dict(PROFILES["desk"])
