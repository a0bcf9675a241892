"""Complexity measures against exhaustive-search oracles and stated bounds."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amdl
from amdl import ContractViolation, Hypothesis, HypothesisClass
from amdl.complexity import (disagreement_coefficient_exact,
                             disagreement_profile, star_number,
                             star_number_unqualified, vc_dimension)

from conftest import brute_star, brute_vc


def test_vc_single_flip_class_is_one():
    inst = amdl.gen_star_lb(2, 4, 1, 1)
    got = vc_dimension(inst.hypothesis_class)
    assert got.value == 1 and not got.lower_bound_only
    assert brute_vc(inst.hypothesis_class.labels) == 1


def test_vc_full_labelings():
    m = 3
    cls = HypothesisClass([Hypothesis(bits) for bits in product((-1, 1), repeat=m)])
    got = vc_dimension(cls)
    assert got.value == m and not got.lower_bound_only


def test_vc_single_hypothesis_is_zero():
    cls = HypothesisClass([Hypothesis([1, -1, 1])])
    assert vc_dimension(cls).value == 0


def test_vc_cap_reports_lower_bound():
    cls = HypothesisClass([Hypothesis(bits) for bits in product((-1, 1), repeat=4)])
    got = vc_dimension(cls, cap=2)
    assert got.value == 2 and got.lower_bound_only


def test_star_lb_family_reaches_k_theta():
    inst = amdl.gen_star_lb(2, 4, 2, 3)
    h0 = inst.hypothesis_class[0]
    got = star_number(inst.hypothesis_class, h0)
    assert got.value == 8 and not got.lower_bound_only


def test_star_single_hypothesis_is_zero():
    cls = HypothesisClass([Hypothesis([1, -1])])
    assert star_number(cls, cls[0]).value == 0


def test_star_thresholds_on_five_points():
    # 1-d thresholds h_t(x) = +1 iff x >= t, plus the all-minus labeling
    m = 5
    hyps = [Hypothesis([-1] * m)]
    for t in range(m):
        hyps.append(Hypothesis([-1] * t + [1] * (m - t)))
    cls = HypothesisClass(hyps)
    ref = cls[0]
    expected = brute_star(cls.labels, ref.labels)
    got = star_number(cls, ref)
    assert got.value == expected == 1


def test_star_cap_flags_lower_bound():
    inst = amdl.gen_star_lb(2, 4, 1, 0)
    got = star_number(inst.hypothesis_class, inst.hypothesis_class[0], cap=3)
    assert got.value == 3 and got.lower_bound_only


def test_theta_prop1_values_exact():
    for k in (2, 4, 8):
        inst = amdl.gen_prop1(k, 0.05)
        hstar = inst.hypothesis_class[0]
        for d in inst.distributions:
            assert amdl.disagreement_coefficient(d, inst.hypothesis_class,
                                                 hstar, 0.05) == 1.0
        bar = amdl.mixture_distribution(inst.distributions)
        assert amdl.disagreement_coefficient(bar, inst.hypothesis_class,
                                             hstar, 0.05 / k) == float(k)


def test_theta_at_r0_one():
    inst = amdl.gen_prop1(3, 0.1)
    hstar = inst.hypothesis_class[0]
    d = inst.distributions[0]
    # single candidate radius: the ratio is the full-ball DIS mass
    assert amdl.disagreement_coefficient(d, inst.hypothesis_class, hstar, 1.0) == 0.1


def test_theta_requires_positive_radius():
    inst = amdl.gen_prop1(2, 0.1)
    with pytest.raises(ContractViolation):
        amdl.disagreement_coefficient(inst.distributions[0],
                                      inst.hypothesis_class,
                                      inst.hypothesis_class[0], 0.0)


def test_theta_max_prop1_and_star_bound():
    inst = amdl.gen_prop1(4, 0.05)
    assert amdl.theta_max(inst, inst.hypothesis_class[0], 0.05) == 1.0
    star_inst = amdl.gen_star_lb(3, 4, 2, 1)
    hstar = amdl.best_nu(star_inst)[0]
    # claim: theta_max(eps) <= theta for eps < 1/(2 theta)
    assert amdl.theta_max(star_inst, hstar, 0.1) <= 4.0


def test_theta_max_single_distribution():
    inst = amdl.gen_prop1(1, 0.2)
    h = inst.hypothesis_class[0]
    assert amdl.theta_max(inst, h, 0.2) == amdl.disagreement_coefficient(
        inst.distributions[0], inst.hypothesis_class, h, 0.2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_theta_ceiling_and_monotonicity(seed):
    inst = amdl.gen_random(5, 6, 1, seed=seed)
    d = inst.distributions[0]
    cls = inst.hypothesis_class
    hstar = cls[0]
    prev = None
    for r0 in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2)):
        theta = disagreement_coefficient_exact(d, cls, hstar, r0)
        assert theta <= 1 / r0
        if prev is not None:
            assert theta <= prev  # non-increasing in r0
        prev = theta


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_theta_below_star_number(seed):
    inst = amdl.gen_random(5, 6, 1, seed=seed)
    cls = inst.hypothesis_class
    hstar = cls[0]
    star = star_number(cls, hstar)
    assert not star.lower_bound_only
    if star.value == 0:
        return
    theta = disagreement_coefficient_exact(inst.distributions[0], cls, hstar,
                                           Fraction(1, 50))
    assert theta <= star.value


def test_profile_monotone_masses():
    inst = amdl.gen_random(6, 8, 1, seed=5)
    prof = disagreement_profile(inst.distributions[0], inst.hypothesis_class,
                                inst.hypothesis_class[2])
    assert all(a < b for a, b in zip(prof.radii, prof.radii[1:]))
    assert all(a <= b for a, b in zip(prof.masses, prof.masses[1:]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_vc_and_star_match_oracles(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    n = int(rng.integers(2, 12))
    inst = amdl.gen_random(m, min(n, 2 ** m), 1, seed=seed)
    cls = inst.hypothesis_class
    assert vc_dimension(cls).value == brute_vc(cls.labels)
    ref = cls[int(rng.integers(len(cls)))]
    assert star_number(cls, ref).value == brute_star(cls.labels, ref.labels)


def test_star_unqualified_is_max_over_references():
    inst = amdl.gen_random(5, 7, 1, seed=42)
    cls = inst.hypothesis_class
    expect = max(star_number(cls, h).value for h in cls.hypotheses)
    assert star_number_unqualified(cls).value == expect


# -- star values pinned to the frozenset branch-and-bound --------------------------
# (value, lower_bound_only) as computed by the original frozenset search; the
# bitmask search must reproduce them with the same node order and budget.

def _random(n_hyp, seed):
    return amdl.FamilySpec("random", {"m": 10, "n_hyp": n_hyp, "k": 4,
                                      "seed": seed}).generate()


STAR_PINS = [
    # the benchmark's instance-scale generators
    (lambda: _random(128, 1), (7, False), (8, False)),
    (lambda: _random(128, 2), (7, False), (8, False)),
    (lambda: _random(128, 7_000_000), (7, False), (8, False)),
    (lambda: _random(256, 1), (8, False), (9, False)),
    (lambda: _random(256, 7_000_002), (7, False), (9, False)),
    # the families of the acceptance cells
    (lambda: amdl.gen_prop1(4, 0.1), (4, False), (4, False)),
    (lambda: amdl.gen_prop1(8, 0.05), (8, False), (8, False)),
    (lambda: amdl.gen_example1(0.2, 0.05, "a"), (1, False), (1, False)),
    (lambda: amdl.gen_example1(0.2, 0.05, "b"), (1, False), (1, False)),
    (lambda: amdl.gen_star_lb(2, 4, 1, 1), (7, False), (8, False)),
    (lambda: amdl.gen_star_lb(2, 4, 1, 2), (7, False), (8, False)),
    (lambda: amdl.gen_star_lb(2, 8, 1, 3), (15, False), (16, False)),
    (lambda: amdl.gen_agnostic_lb(4, 0.4, 0.05), (1, False), (1, False)),
    (lambda: amdl.gen_agnostic_lb(3, 0.4, 0.05), (1, False), (1, False)),
]


def _pair(v):
    return (v.value, v.lower_bound_only)


@pytest.mark.parametrize("gen,star,unqualified", STAR_PINS)
def test_star_values_pinned(gen, star, unqualified):
    inst = gen()
    cls = inst.hypothesis_class
    ref = amdl.best_nu(inst)[0]
    assert _pair(star_number(cls, ref)) == star
    assert _pair(star_number_unqualified(cls)) == unqualified


@pytest.mark.parametrize("n_hyp,cap,star,unqualified", [
    (128, 3, (3, True), (3, True)),
    (128, 8, (7, False), (8, True)),
    (128, 9, (7, False), (8, False)),
    (256, 9, (8, False), (9, True)),
])
def test_star_cap_values_pinned(n_hyp, cap, star, unqualified):
    inst = _random(n_hyp, 1)
    cls = inst.hypothesis_class
    ref = amdl.best_nu(inst)[0]
    assert _pair(star_number(cls, ref, cap=cap)) == star
    assert _pair(star_number_unqualified(cls, cap=cap)) == unqualified


@pytest.mark.parametrize("budget,expect", [
    (1, [(5, True), (7, True), (6, True), (7, True), (6, True), (6, True)]),
    (10, [(6, True), (7, True), (6, True), (7, True), (6, True), (7, True)]),
    (20, [(6, True), (7, True), (7, True), (7, True), (6, True), (7, True)]),
    (50, [(7, True), (7, True), (7, True), (7, True), (6, True), (7, True)]),
    (200, [(7, True), (7, True), (7, False), (7, False), (7, True), (7, True)]),
])
def test_star_node_budget_pinned(monkeypatch, budget, expect):
    # a budget-limited search reports the best of the nodes it visited, so
    # these values also pin the order in which the search visits nodes
    cls = _random(128, 1).hypothesis_class
    monkeypatch.setattr(amdl.complexity, "_STAR_NODE_BUDGET", budget)
    assert [_pair(star_number(cls, ref)) for ref in cls.hypotheses[:6]] == expect


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_star_unqualified_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    n = int(rng.integers(1, 13))
    cls = amdl.gen_random(m, min(n, 2 ** m), 1, seed=seed).hypothesis_class
    got = star_number_unqualified(cls)
    assert not got.lower_bound_only
    assert got.value == max(brute_star(cls.labels, h.labels) for h in cls.hypotheses)


def test_star_unqualified_cap_flags_lower_bound():
    cls = amdl.gen_star_lb(2, 4, 1, 0).hypothesis_class
    exact = star_number_unqualified(cls)
    assert exact.value == 8 and not exact.lower_bound_only
    assert _pair(star_number_unqualified(cls, cap=0)) == (0, True)
    assert _pair(star_number_unqualified(cls, cap=3)) == (3, True)
    # a cap the class reaches is flagged: the search stopped there
    assert _pair(star_number_unqualified(cls, cap=8)) == (8, True)
    assert _pair(star_number_unqualified(cls, cap=9)) == (8, False)
