"""Complexity measures against exhaustive-search oracles and stated bounds."""

import hashlib
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amdl
from amdl import complexity
from amdl import ContractViolation, Hypothesis, HypothesisClass
from amdl.cli import main as cli_main
from amdl.complexity import (_profile_nums, disagreement_coefficient_exact, star_number,
                             star_number_unqualified, vc_dimension)

from closed_forms import disagreement_profile_reference
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


@pytest.mark.parametrize("seed", range(4))
def test_vc_one_parent_per_slab(monkeypatch, seed):
    # a level extended one child at a time, most slabs keeping none
    monkeypatch.setattr(amdl.complexity, "_VC_SLAB", 1)
    cls = amdl.gen_random(7, 60, 1, seed=seed).hypothesis_class
    assert vc_dimension(cls).value == brute_vc(cls.labels)
    assert _pair(vc_dimension(_random(256, 1).hypothesis_class)) == (6, False)


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


def test_exact_layer_refuses_negative_cap():
    cls = amdl.gen_star_lb(2, 4, 1, 0).hypothesis_class
    for cap in (-1, True, 2.5, "3", None):
        for call in (lambda: vc_dimension(cls, cap=cap),
                     lambda: star_number(cls, cls[0], cap=cap),
                     lambda: star_number_unqualified(cls, cap=cap)):
            with pytest.raises(ContractViolation, match="cap"):
                call()
    assert vc_dimension(cls, np.int64(3)) == vc_dimension(cls, 3)
    assert star_number(cls, cls[0], np.int64(3)) == star_number(cls, cls[0], 3)
    assert star_number_unqualified(cls, np.int64(3)) == star_number_unqualified(cls, 3)
    assert all(type(cap) is int for _, cap in cls._measures)


def test_a_refused_bool_cap_leaves_no_memo():
    # True was memoized under the key of cap 1, so cap 1 then read back True
    cls = amdl.gen_star_lb(2, 4, 1, 0).hypothesis_class
    with pytest.raises(ContractViolation, match="cap"):
        vc_dimension(cls, True)
    assert vc_dimension(cls, 1) == complexity.ComplexityValue(1, lower_bound_only=True)
    assert vc_dimension(cls, 1).value is not True
    assert int(vc_dimension(cls, 1)) == 1 and type(int(vc_dimension(cls, 1))) is int


@pytest.mark.parametrize("m", [5, 7])
def test_exact_layer_refuses_mismatched_points(m):
    inst = amdl.gen_random(6, 10, 2, seed=3)
    cls, d = inst.hypothesis_class, inst.distributions[0]
    ref = Hypothesis([1] * m)
    other = amdl.gen_random(m, 4, 1, seed=3).distributions[0]
    calls = [lambda: star_number(cls, ref),
             lambda: _profile_nums(d, cls, ref),
             lambda: _profile_nums(other, cls, cls[0]),
             lambda: disagreement_coefficient_exact(d, cls, ref, 0.1),
             lambda: amdl.disagreement_coefficient(d, cls, ref, 0.1),
             lambda: amdl.disagreement_coefficient(other, cls, cls[0], 0.1)]
    for call in calls:
        with pytest.raises(ContractViolation, match="points"):
            call()


@pytest.mark.parametrize("r0", [float("nan"), float("inf"), -float("inf")])
def test_theta_refuses_non_finite_radius(r0):
    inst = amdl.gen_prop1(2, 0.1)
    with pytest.raises(ContractViolation, match="finite"):
        amdl.disagreement_coefficient(inst.distributions[0], inst.hypothesis_class,
                                      inst.hypothesis_class[0], r0)


def test_theta_max_prop1_and_star_bound():
    inst = amdl.gen_prop1(4, 0.05)
    assert max(amdl.disagreement_coefficient(d, inst.hypothesis_class, inst.hypothesis_class[0],
                                             0.05) for d in inst.distributions) == 1.0
    star_inst = amdl.gen_star_lb(3, 4, 2, 1)
    hstar = amdl.best_nu(star_inst)[0]
    # claim: theta_max(eps) <= theta for eps < 1/(2 theta)
    assert max(amdl.disagreement_coefficient(d, star_inst.hypothesis_class, hstar, 0.1)
               for d in star_inst.distributions) <= 4.0


def test_theta_max_single_distribution(tmp_path):
    # `amdl measure`'s theta_max over one distribution is that distribution's coefficient
    inst = amdl.gen_prop1(1, 0.2)
    path, out = tmp_path / "inst.json", tmp_path / "measure.txt"
    amdl.save_instance(inst, str(path))
    assert cli_main(["measure", "--instance", str(path), "--r0", "0.2", "--out", str(out)]) == 0
    values = dict(line.split("=") for line in out.read_text().splitlines())
    theta = amdl.disagreement_coefficient(inst.distributions[0], inst.hypothesis_class,
                                          amdl.best_nu(inst)[0], 0.2)
    assert values["theta_max"] == values["theta_0"] == repr(theta)


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
    radii, masses = _profile_nums(inst.distributions[0], inst.hypothesis_class,
                                  inst.hypothesis_class[2])
    assert all(a < b for a, b in zip(radii, radii[1:]))
    assert all(a <= b for a, b in zip(masses, masses[1:]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans())
def test_profile_matches_per_radius_definition(seed, outside):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 8))
    n = int(rng.integers(1, 13))
    inst = amdl.gen_random(m, min(n, 2 ** m), 1, seed=seed)
    cls = inst.hypothesis_class
    if outside:  # any labeling, usually not a class member
        ref = Hypothesis(rng.choice([-1, 1], size=m))
    else:
        ref = cls[int(rng.integers(len(cls)))]
    d = inst.distributions[0]
    radii, masses = disagreement_profile_reference(d, cls, ref)
    assert _profile_nums(d, cls, ref) == ([r * d._mden for r in radii],
                                          [m * d._mden for m in masses])


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


def _fresh(cls):
    """An equal class built anew, holding no earlier result."""
    return HypothesisClass([Hypothesis(row) for row in cls.labels])


@pytest.mark.parametrize("gen", [gen for gen, _, _ in STAR_PINS] + [
    lambda: amdl.gen_random(6, 20, 1, seed=3),
    lambda: amdl.gen_random(9, 100, 2, seed=5),
    lambda: amdl.gen_random(12, 300, 1, seed=2),
])
def test_repeated_measures_equal_fresh_ones(gen):
    # a repeated call, under each cap in turn and back, gives what a fresh
    # class gives; caps 2 and 3 cut most searches (lower_bound_only)
    cls = gen().hypothesis_class
    for measure in (vc_dimension, star_number_unqualified):
        for kw in ({}, {"cap": 2}, {"cap": 0}, {"cap": 3}, {}):
            assert measure(cls, **kw) == measure(cls, **kw) == measure(_fresh(cls), **kw)
    assert vc_dimension(cls, cap=2).lower_bound_only == (vc_dimension(cls).value >= 2)


def test_a_repeated_measure_runs_no_search(monkeypatch):
    searches = []
    varying_bits = complexity._varying_bits
    monkeypatch.setattr(complexity, "_varying_bits",
                        lambda cls: searches.append(cls) or varying_bits(cls))
    cls = amdl.gen_random(10, 128, 4, seed=1).hypothesis_class
    for measure in (vc_dimension, star_number_unqualified):
        first = measure(cls)
        runs = len(searches)
        assert runs and measure(cls) is first and measure(cls, cap=first.value + 40) is not first
        assert len(searches) == runs + 1
        assert measure(cls, cap=first.value + 40) == first and len(searches) == runs + 1
        assert measure(_fresh(cls)) == first and len(searches) == runs + 2


def test_star_unqualified_larger_cube_pinned():
    cls = amdl.gen_random(14, 256, 1, seed=1).hypothesis_class
    assert _pair(star_number_unqualified(cls)) == (9, False)


def _plus_point(cls):
    """`cls` with one more point, labelled +1 by member 0 only."""
    col = -np.ones((len(cls), 1), dtype=np.int8)
    col[0] = 1
    return HypothesisClass([Hypothesis(row) for row in np.hstack([cls.labels, col])])


@pytest.mark.parametrize("gen,unqualified", [
    # the star number is the number of non-constant points
    (lambda: amdl.gen_star_lb(2, 16, 1, 3).hypothesis_class, (32, False)),
    (lambda: amdl.gen_prop1(32, 0.02).hypothesis_class, (32, False)),
    # one short of it
    (lambda: _plus_point(amdl.gen_star_lb(2, 16, 1, 3).hypothesis_class), (32, False)),
    # far below it
    (lambda: amdl.gen_random(20, 64, 1, seed=1).hypothesis_class, (8, False)),
    (lambda: amdl.gen_random(12, 1024, 1, seed=1).hypothesis_class, (11, False)),
])
def test_star_unqualified_wide_classes_pinned(gen, unqualified):
    assert _pair(star_number_unqualified(gen())) == unqualified


def test_star_unqualified_cell_budget_falls_back_to_greedy(monkeypatch):
    # the level search gives up at its first target below the point count;
    # the greedy completion over the references answers, exact only where
    # it reaches that target
    monkeypatch.setattr(amdl.complexity, "_STAR_CELL_BUDGET", 4096)
    cls = _random(128, 1).hypothesis_class
    got = star_number_unqualified(cls)
    assert got.lower_bound_only and got.value <= 8
    assert _pair(got) == (7, True)
    # a greedy value that reaches a target equal to the cap is still flagged
    assert _pair(star_number_unqualified(cls, cap=7)) == (7, True)
    wide = _plus_point(amdl.gen_star_lb(2, 16, 1, 3).hypothesis_class)
    assert _pair(star_number_unqualified(wide)) == (32, False)


# sha256 over the distributions of each STAR_PINS instance, one line
# "r:mass r:mass ..." per distribution, and the exact theta at r0 = 1/20 per
# distribution, both around the best hypothesis; values of the per-radius
# Fraction profile
PROFILE_PINS = [
    ("501ed937e29432a4647a360b77fab5fb0c208bd2d5af1fea8906e72e342bd746",
     ["23/6", "37/10", "29/9", "15/4"]),
    ("617e16684f69a7185532fdbd080719556dacb09325bffff9dc46b981406aaae9",
     ["29/8", "4", "38/9", "37/8"]),
    ("04a4c7f06014981856afc95a0bee1c7d6c9991cd68eba6d4c867a04744be487a",
     ["52/15", "20/7", "4", "33/8"]),
    ("9adaf3bc3179ba8117216139cbbe4819be2853d0426de4a04683ef9f8b18441d",
     ["48/11", "4", "50/13", "24/7"]),
    ("65b61296dde2ef396be889faf6e2cb77a155c78f4ecd8d3ddddc02924dbc4141",
     ["31/8", "19/5", "48/13", "35/9"]),
    ("cdaeafb3f4f33f8cb3a269cb9ca0da34d9743d975719f87e58c8db5e9287d8d1",
     ["1"] * 4),
    ("cd566388195203d607b43de147c549df6f6d10b0f2131882d920783088c69c6a",
     ["1"] * 8),
    ("05371dbd68055dca385532666895acb10c04e752317b80427a68fba5563342c0",
     ["1", "1"]),
    ("05371dbd68055dca385532666895acb10c04e752317b80427a68fba5563342c0",
     ["1", "1"]),
    ("7667d955cbbdd17870a4057af2eee88398b3a8fee96aff6c31002abfebdbdebd",
     ["2", "4"]),
    ("7667d955cbbdd17870a4057af2eee88398b3a8fee96aff6c31002abfebdbdebd",
     ["2", "4"]),
    ("6865977e3fbd829e6c510cfc98e4dec940f99ea9e644a350bfe1975ada51ebcc",
     ["4", "8"]),
    ("c9fe0f23d7933fd53ae322ada5640bfe77f9fff50b1f750a6354ec383b6c5447",
     ["1"] * 4),
    ("23bf4b37d1c6ba1b445b6f63de0c0b98993982ddd5d93f68aca18a4be7ac53d2",
     ["1"] * 3),
]


@pytest.mark.parametrize("gen,pin", [(g, p) for (g, _, _), p in zip(STAR_PINS, PROFILE_PINS)])
def test_profile_and_theta_pinned(gen, pin):
    inst = gen()
    cls = inst.hypothesis_class
    ref = amdl.best_nu(inst)[0]
    h = hashlib.sha256()
    thetas = []
    for d in inst.distributions:
        radii, masses = _profile_nums(d, cls, ref)
        h.update((" ".join(f"{Fraction(r, d._mden)}:{Fraction(m, d._mden)}"
                           for r, m in zip(radii, masses)) + "\n").encode())
        thetas.append(str(disagreement_coefficient_exact(d, cls, ref, Fraction(1, 20))))
    assert (h.hexdigest(), thetas) == pin


@pytest.mark.parametrize("n_hyp,seed,exact", [
    (128, 1, 5), (128, 2, 5), (128, 7_000_000, 5), (256, 1, 6), (256, 7_000_002, 6),
])
def test_vc_cap_values_pinned(n_hyp, seed, exact):
    # the instance-scale generators; a cap the search reaches is flagged
    cls = _random(n_hyp, seed).hypothesis_class
    got = [_pair(vc_dimension(cls, cap=cap)) for cap in (0, 1, 2, 3, 12)]
    assert got == [(0, True), (1, True), (2, True), (3, True), (exact, False)]


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
    exact = max(brute_star(cls.labels, h.labels) for h in cls.hypotheses)
    assert _pair(star_number_unqualified(cls)) == (exact, False)
    # a cap at or below the value is what the search returns, flagged
    cap = int(rng.integers(0, m + 2))
    assert _pair(star_number_unqualified(cls, cap=cap)) == (min(exact, cap), exact >= cap)


def test_star_unqualified_cap_flags_lower_bound():
    cls = amdl.gen_star_lb(2, 4, 1, 0).hypothesis_class
    exact = star_number_unqualified(cls)
    assert exact.value == 8 and not exact.lower_bound_only
    assert _pair(star_number_unqualified(cls, cap=0)) == (0, True)
    assert _pair(star_number_unqualified(cls, cap=3)) == (3, True)
    # a cap the class reaches is flagged: the search stopped there
    assert _pair(star_number_unqualified(cls, cap=8)) == (8, True)
    assert _pair(star_number_unqualified(cls, cap=9)) == (8, False)
