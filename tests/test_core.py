"""Domain types and exact metrics."""

import json
import pickle
from fractions import Fraction
from functools import reduce
from operator import getitem

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amdl
from amdl import (ContractViolation, FeatureSpace, Hypothesis, HypothesisClass,
                  LabeledDistribution, MDLInstance, RandomizedHypothesis)
from amdl.core import (best_nu_index, disagreement_exact, instance_from_dict,
                       instance_to_dict, loss_exact, max_disagreement_exact)

from closed_forms import disagreement_reference, loss_reference, mass_reference
from conftest import brute_best_nu, brute_loss, two_point_instance
from test_complexity import STAR_PINS


def test_loss_prop1_reference_hypothesis():
    inst = amdl.gen_prop1(3, 0.2)
    hstar = inst.hypothesis_class[0]
    for d in inst.distributions:
        assert amdl.loss(hstar, d) == 0.2


def test_loss_fully_consistent_labels_is_zero():
    h = Hypothesis([1, -1, 1])
    dist = LabeledDistribution([Fraction(1, 3)] * 3, [1, 0, 1])
    assert amdl.loss(h, dist) == 0.0


def test_loss_hand_evaluated_two_point():
    # uniform on 2 points, eta_plus = (0.25, 0.75), h identically +1:
    # 0.5*0.75 + 0.5*0.25 = 0.5
    inst = two_point_instance()
    assert amdl.loss(inst.hypothesis_class[0], inst.distributions[0]) == 0.5


def test_loss_dimension_mismatch():
    with pytest.raises(ContractViolation):
        amdl.loss(Hypothesis([1, 1]), LabeledDistribution([1.0], [0.5]))


def test_worst_loss_agnostic_table():
    inst = amdl.gen_agnostic_lb(4, 0.4, 0.05)
    h1, h2 = inst.hypothesis_class.hypotheses
    assert amdl.worst_loss(h1, inst) == 0.4 - 2 * 0.05
    assert amdl.worst_loss(h2, inst) == 0.4
    assert amdl.loss(h1, inst.distributions[0]) == 0.0


def test_worst_loss_single_distribution_reduces_to_loss():
    inst = two_point_instance()
    h = inst.hypothesis_class[0]
    assert amdl.worst_loss(h, inst) == amdl.loss(h, inst.distributions[0])


def test_worst_loss_duplicate_support_mixture():
    inst = two_point_instance()
    mix = RandomizedHypothesis(inst.hypothesis_class, [0, 0])
    assert amdl.worst_loss(mix, inst) == amdl.worst_loss(inst.hypothesis_class[0], inst)


def test_disagreement_prop1():
    inst = amdl.gen_prop1(4, 0.1)
    cls = inst.hypothesis_class
    for i in range(4):
        assert amdl.disagreement(cls[0], cls[i + 1], inst.distributions[i]) == 0.1


def test_disagreement_identity_and_complement():
    inst = two_point_instance()
    h_plus, h_minus = inst.hypothesis_class.hypotheses
    d = inst.distributions[0]
    assert amdl.disagreement(h_plus, h_plus, d) == 0.0
    assert amdl.disagreement(h_plus, h_minus, d) == 1.0


def test_max_disagreement_prop1_pair_brute_force():
    inst = amdl.gen_prop1(3, 0.25)
    cls = inst.hypothesis_class
    # brute force over the pmfs: h_i and h_j disagree on {x_i, x_j}; under D_l
    # only its own flip point carries mass 0.25
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            expect = max(
                float(sum(d.marginal[x] for x in range(inst.m)
                          if cls[i].labels[x] != cls[j].labels[x]))
                for d in inst.distributions)
            assert amdl.max_disagreement(cls[i], cls[j], inst) == expect == 0.25


def test_max_disagreement_equal_arguments():
    inst = amdl.gen_prop1(2, 0.1)
    assert amdl.max_disagreement(inst.hypothesis_class[1],
                                 inst.hypothesis_class[1], inst) == 0.0


def test_disagreement_region_singleton_and_complements():
    inst = two_point_instance()
    cls = inst.hypothesis_class
    assert amdl.disagreement_region(cls, [0]).size == 0
    assert list(amdl.disagreement_region(cls, [0, 1])) == [0, 1]


def test_disagreement_region_prop1():
    inst = amdl.gen_prop1(5, 0.1)
    region = amdl.disagreement_region(inst.hypothesis_class,
                                      inst.hypothesis_class.full_version_space())
    assert list(region) == [1, 2, 3, 4, 5]


def test_disagreement_region_empty_version_space():
    inst = two_point_instance()
    with pytest.raises(ContractViolation):
        amdl.disagreement_region(inst.hypothesis_class, [])


def test_agreement_labels_unanimous_accessor():
    inst = amdl.gen_prop1(3, 0.1)
    lab = amdl.agreement_labels(inst.hypothesis_class, [0, 1])
    # members disagree only on x_1; elsewhere unanimous -1
    assert lab[1] == 0
    assert lab[0] == -1 and lab[2] == -1 and lab[3] == -1


def test_best_nu_agnostic_lb():
    inst = amdl.gen_agnostic_lb(3, 0.4, 0.05)
    h, nu = amdl.best_nu(inst)
    assert h == inst.hypothesis_class[0]
    assert nu == 0.4 - 2 * 0.05


def test_best_nu_realizable():
    inst = amdl.gen_star_lb(2, 3, 1, 2)
    h, nu = amdl.best_nu(inst)
    assert nu == 0.0
    assert amdl.worst_loss(h, inst) == 0.0


def test_best_nu_matches_brute_force_small_random():
    inst = amdl.gen_random(4, 4, 2, seed=7)
    idx, val = brute_best_nu(inst)
    h, nu = amdl.best_nu(inst)
    assert inst.hypothesis_class.index_of(h) == idx
    assert Fraction(nu) == Fraction(float(val))


@pytest.mark.parametrize("n_hyp", [16, 128, 256])
def test_best_nu_matches_brute_force_seeded(n_hyp):
    # 102 instances in all; their distributions have different denominators
    # and some have several minimizers, of which the first must win
    for seed in range(34):
        inst = amdl.gen_random(10, n_hyp, 4, seed=seed)
        assert (best_nu_index(inst), inst.nu_exact()) == brute_best_nu(inst)


@pytest.mark.parametrize("gen", [gen for gen, _, _ in STAR_PINS])
def test_best_nu_matches_brute_force_on_pinned_families(gen):
    inst = gen()
    assert (best_nu_index(inst), inst.nu_exact()) == brute_best_nu(inst)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rho_is_a_metric(seed):
    inst = amdl.gen_random(5, 5, 2, seed=seed)
    cls = inst.hypothesis_class
    rng = np.random.default_rng(seed)
    a, b, c = rng.integers(0, len(cls), size=3)
    ab = max_disagreement_exact(cls[a], cls[b], inst)
    ba = max_disagreement_exact(cls[b], cls[a], inst)
    ac = max_disagreement_exact(cls[a], cls[c], inst)
    cb = max_disagreement_exact(cls[c], cls[b], inst)
    assert ab == ba
    assert ab <= ac + cb
    assert max_disagreement_exact(cls[a], cls[a], inst) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_loss_disagreement_inequality_chain(seed):
    inst = amdl.gen_random(5, 6, 3, seed=seed)
    cls = inst.hypothesis_class
    rng = np.random.default_rng(seed + 1)
    a, b = rng.integers(0, len(cls), size=2)
    for i, d in enumerate(inst.distributions):
        la, lb = loss_exact(cls[a], d), loss_exact(cls[b], d)
        rho = disagreement_exact(cls[a], cls[b], d)
        assert abs(la - lb) <= rho <= la + lb


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_worst_loss_dominates_nu(seed):
    inst = amdl.gen_random(4, 5, 2, seed=seed)
    nu = inst.nu_exact()
    for h in inst.hypothesis_class.hypotheses:
        assert inst.worst_loss_exact(h) >= nu


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_disagreement_region_monotone(seed):
    inst = amdl.gen_random(6, 6, 1, seed=seed)
    cls = inst.hypothesis_class
    rng = np.random.default_rng(seed + 2)
    size = int(rng.integers(1, len(cls)))
    v1 = sorted(rng.choice(len(cls), size=size, replace=False))
    v2 = sorted(set(v1) | {int(rng.integers(0, len(cls)))})
    r1 = set(amdl.disagreement_region(cls, v1).tolist())
    r2 = set(amdl.disagreement_region(cls, v2).tolist())
    assert r1 <= r2


def test_repeated_evaluation_bit_identical():
    inst = amdl.gen_random(6, 8, 3, seed=11)
    h = inst.hypothesis_class[3]
    vals = {amdl.worst_loss(h, inst) for _ in range(5)}
    assert len(vals) == 1


def test_randomized_hypothesis_validation():
    inst = two_point_instance()
    with pytest.raises(ContractViolation):
        RandomizedHypothesis(inst.hypothesis_class, [])
    with pytest.raises(ContractViolation):
        RandomizedHypothesis(inst.hypothesis_class, [5])
    for counts in ({}, {5: 1}, {-1: 2}, {0: 0}, {0: 2, 1: -1}):
        with pytest.raises(ContractViolation):
            RandomizedHypothesis(inst.hypothesis_class, counts)


def test_randomized_hypothesis_from_counts_equals_the_expanded_support():
    cls = amdl.gen_random(6, 8, 3, seed=11).hypothesis_class
    rng = np.random.default_rng(5)
    for _ in range(20):
        members = rng.choice(len(cls), size=int(rng.integers(1, len(cls) + 1)), replace=False)
        counts = {int(h): int(rng.integers(1, 400)) for h in members}
        support = [h for h, n in counts.items() for _ in range(n)]
        rng.shuffle(support)
        want = RandomizedHypothesis(cls, support)
        got = RandomizedHypothesis(cls, counts)
        assert (got.counts, got.total) == (want.counts, want.total)
        assert got.total == sum(counts.values()) and got.counts == tuple(sorted(counts.items()))


def test_hypothesis_class_validation():
    with pytest.raises(ContractViolation):
        HypothesisClass([])
    with pytest.raises(ContractViolation):
        HypothesisClass([Hypothesis([1, 1]), Hypothesis([1, 1])])
    with pytest.raises(ContractViolation):
        Hypothesis([1, 0])


def test_distribution_validation():
    with pytest.raises(ContractViolation):
        LabeledDistribution([0.5, 0.4], [0.5, 0.5])  # does not sum to 1
    with pytest.raises(ContractViolation):
        LabeledDistribution([0.5, 0.5], [1.5, 0.0])  # eta out of range
    with pytest.raises(ContractViolation):
        LabeledDistribution([-0.5, 1.5], [0.5, 0.5])  # negative mass


def test_declared_nu_checked():
    cls = HypothesisClass([Hypothesis([1])])
    dist = LabeledDistribution([1.0], [1.0])
    MDLInstance(FeatureSpace(1), cls, [dist], declared_nu=0.0)
    with pytest.raises(ContractViolation):
        MDLInstance(FeatureSpace(1), cls, [dist], declared_nu=0.3)


def test_instance_file_round_trip(tmp_path):
    inst = amdl.gen_agnostic_lb(4, 0.4, 0.05)
    path = tmp_path / "inst.json"
    amdl.save_instance(inst, str(path))
    back = amdl.load_instance(str(path))
    assert back.m == inst.m and back.k == inst.k
    for da, db in zip(inst.distributions, back.distributions):
        assert [float(v) for v in da.marginal] == [float(v) for v in db.marginal]
        assert [float(v) for v in da.eta_plus] == [float(v) for v in db.eta_plus]
    for ha, hb in zip(inst.hypothesis_class.hypotheses,
                      back.hypothesis_class.hypotheses):
        assert ha == hb
    # a second save emits identical bytes
    path2 = tmp_path / "inst2.json"
    amdl.save_instance(back, str(path2))
    assert path.read_text() == path2.read_text()


def _instance_text(edit) -> str:
    doc = {"m": 2, "hypotheses": [[1, 1], [-1, -1]],
           "distributions": [{"marginal": [0.5, 0.5], "eta_plus": [0.25, 0.75]}]}
    edit(doc)
    return json.dumps(doc)


# malformed instance files, each with what its refusal must name
MALFORMED_INSTANCE_FILES = {
    "nan-marginal": (_instance_text(lambda d: d["distributions"][0].update(
        marginal=[float("nan"), 0.5])), "nan"),
    "infinite-marginal": (_instance_text(lambda d: d["distributions"][0].update(
        marginal=[float("inf"), 0.5])), "inf"),
    "string-eta": (_instance_text(lambda d: d["distributions"][0].update(
        eta_plus=["abc", 0.5])), "abc"),
    "zero-denominator-eta": (_instance_text(lambda d: d["distributions"][0].update(
        eta_plus=["1/0", 0.5])), "1/0"),
    "float-overflowing-marginal": (_instance_text(lambda d: d["distributions"][0].update(
        marginal=["1e999", 0.5])), "sum to 1"),
    "missing-eta": (_instance_text(lambda d: d["distributions"][0].pop("eta_plus")),
                    "eta_plus"),
    "string-nu": (_instance_text(lambda d: d.update(nu="0.1")), "'nu'"),
    "nan-nu": (_instance_text(lambda d: d.update(nu=float("nan"))), "'nu'"),
    "float-overflowing-nu": (_instance_text(lambda d: d.update(nu=10 ** 400)), "declared nu"),
    "dict-hypotheses": (_instance_text(lambda d: d.update(hypotheses={"h": [1, 1]})),
                        "hypotheses"),
    "int-distributions": (_instance_text(lambda d: d.update(distributions=3)),
                          "distributions"),
    "missing-m": (_instance_text(lambda d: d.pop("m")), "'m'"),
    "string-m": (_instance_text(lambda d: d.update(m="2")), "'m'"),
    "fractional-label": (_instance_text(lambda d: d.update(hypotheses=[[1.5, 1], [-1, -1]])),
                         "hypotheses"),
    "ragged-label-rows": (_instance_text(lambda d: d.update(hypotheses=[[[1], [1, -1]]])),
                          "hypotheses"),
    "list-metadata": (_instance_text(lambda d: d.update(metadata=[1])), "metadata"),
    "top-level-list": ("[1, 2]", "mapping"),
    "broken-json": ('{"m": 2,', "JSON"),
    "deeply-nested-json": ("[" * 100_000, "JSON"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INSTANCE_FILES))
def test_malformed_instance_file_raises_contract_violation(tmp_path, case):
    text, field = MALFORMED_INSTANCE_FILES[case]
    path = tmp_path / "inst.json"
    path.write_text(_instance_text(lambda d: None))
    assert amdl.load_instance(str(path)).k == 1
    path.write_text(text)
    with pytest.raises(ContractViolation, match=field):
        amdl.load_instance(str(path))


# -- fuzzed instance documents: each loads or is refused with ContractViolation

# JSON leaves that sit near the valid ones, including strings `Fraction`
# reads and numbers no float holds
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
               | st.floats() | st.text(max_size=4)
               | st.sampled_from(["1/0", "0.5", "1/2", "nan", "1e999", "-0", "+1"]))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda kids: st.lists(kids, max_size=4)
                           | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                           max_leaves=10)


@st.composite
def instance_docs(draw):
    """A valid instance document: at most 5 points, 6 hypotheses and 3
    distributions, with `nu` and `metadata` or without."""
    m = draw(st.integers(1, 5))
    hyps = draw(st.lists(st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m),
                         min_size=1, max_size=6, unique_by=tuple))
    dists = []
    for _ in range(draw(st.integers(1, 3))):
        weights = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any))
        dists.append({"marginal": [w / sum(weights) for w in weights],
                      "eta_plus": draw(st.lists(st.floats(0, 1), min_size=m, max_size=m))})
    doc = {"m": m, "hypotheses": hyps, "distributions": dists}
    if draw(st.booleans()):
        doc["nu"] = float(instance_from_dict(doc).nu_exact())
    if draw(st.booleans()):
        doc["metadata"] = draw(st.dictionaries(st.text(max_size=4), st.integers() | st.text(),
                                               min_size=1, max_size=3))
    return doc


def _paths(value, path=()):
    """The path of every node of the JSON `value`, the root's included."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutated(doc, data):
    """A copy of the JSON `doc` in which one or two nodes, each chosen
    uniformly, are replaced by arbitrary JSON values or, if mapping entries,
    dropped."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return data.draw(JSON_VALUES)
        parent = reduce(getitem, path[:-1], doc)
        if isinstance(parent, dict) and data.draw(st.integers(0, 3)) == 0:
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    return doc


@settings(max_examples=100, deadline=None)
@given(instance_docs())
def test_valid_instance_document_round_trips(doc):
    assert instance_to_dict(instance_from_dict(json.loads(json.dumps(doc)))) == doc


@settings(max_examples=300, deadline=None)
@given(instance_docs(), st.data())
def test_fuzzed_instance_document_loads_or_is_refused(doc, data):
    doc = _mutated(doc, data)
    try:
        inst = instance_from_dict(doc)
    except ContractViolation:
        return
    out = json.dumps(instance_to_dict(inst), sort_keys=True)
    assert json.dumps(instance_to_dict(instance_from_dict(json.loads(out))),
                      sort_keys=True) == out


# label input from the Python API, refused by the one check that
# `Hypothesis` and `HypothesisClass` share
MALFORMED_LABELS = {
    "ragged-hypothesis": lambda: Hypothesis([[1], [1, -1]]),
    "nested-hypothesis": lambda: Hypothesis([[1, -1]]),
    "empty-hypothesis": lambda: Hypothesis([]),
    "ragged-class-rows": lambda: HypothesisClass([[1, -1], [1]]),
    "ragged-class-members": lambda: HypothesisClass([Hypothesis([1, -1]), Hypothesis([1])]),
    "empty-class-row": lambda: HypothesisClass([[]]),
    "empty-class": lambda: HypothesisClass(np.empty((0, 3), dtype=np.int8)),
    "flat-class-matrix": lambda: HypothesisClass(np.array([1, -1])),
    "zero-label-row": lambda: HypothesisClass(np.array([[1, 0]])),
    "fractional-label-row": lambda: HypothesisClass([[1.0, -1.0]]),
    "bool-label-row": lambda: HypothesisClass([[True, False]]),
    "duplicate-matrix-rows": lambda: HypothesisClass(np.array([[1, -1], [-1, 1], [1, -1]])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LABELS))
def test_malformed_labels_raise_contract_violation(case):
    with pytest.raises(ContractViolation):
        MALFORMED_LABELS[case]()


def test_class_matrix_and_member_labels_are_read_only():
    rows = np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8)
    cls = HypothesisClass(rows)
    assert cls.hypotheses == [Hypothesis([1, -1, 1]), Hypothesis([-1, -1, 1])]
    assert np.array_equal(HypothesisClass(list(cls.hypotheses)).labels, rows)
    rows[0, 0] = -1                 # the class keeps its own copy
    assert cls[0] == Hypothesis([1, -1, 1])
    copy = pickle.loads(pickle.dumps(cls))      # as a trial worker receives it
    assert copy.hypotheses == cls.hypotheses
    for labels in (cls.labels, cls[0].labels, Hypothesis(rows[1]).labels,
                   copy.labels, copy[1].labels):
        with pytest.raises(ValueError, match="read-only"):
            labels[0] = -labels[0]
        with pytest.raises(ValueError, match="read-only"):
            labels *= -1
    assert cls.labels.tolist() == [[1, -1, 1], [-1, -1, 1]]


def test_mixture_distribution_prop1_average():
    inst = amdl.gen_prop1(4, 0.2)
    bar = amdl.mixture_distribution(inst.distributions)
    assert float(bar.marginal[0]) == 0.8
    assert all(float(bar.marginal[i]) == 0.2 / 4 for i in range(1, 5))
    assert bar.eta_plus[1] == 1


@pytest.mark.parametrize("weights", [["1e999", 0], [0, "1e999"], ["1e999", "-1e999"],
                                     [0.5, 0.6], [0.5, "nan"], [1.5, -0.5], [1]], ids=str)
def test_mixture_distribution_refuses_bad_weights(weights):
    # a weight sum beyond the float range is compared exactly, not overflowed
    dists = amdl.gen_prop1(2, 0.1).distributions
    with pytest.raises(ContractViolation):
        amdl.mixture_distribution(dists, weights)


def test_exact_loss_matches_independent_fraction_sum():
    inst = amdl.gen_random(7, 6, 2, seed=3)
    for h in inst.hypothesis_class.hypotheses:
        for d in inst.distributions:
            assert loss_exact(h, d) == brute_loss(h, d)


@pytest.mark.parametrize("shape", [(3, 4, 2, 0), (6, 10, 3, 1), (8, 40, 2, 2),
                                   (10, 256, 3, 3)], ids=str)
def test_exact_metrics_match_their_definitions(shape):
    """Every public exact loss, mass and disagreement against its definition
    in closed_forms, on members, mixtures with repeated members, the empty
    point set and zero-mass points."""
    m, n_hyp, k, seed = shape
    inst = amdl.gen_random(m, n_hyp, k, seed=seed)
    cls, dists = inst.hypothesis_class, inst.distributions
    assert any(p == 0 for d in dists for p in d.marginal)
    rng = np.random.default_rng(seed)
    members = sorted({0, n_hyp - 1, *rng.choice(n_hyp, size=min(n_hyp, 6), replace=False)})
    mixes = [RandomizedHypothesis(cls, rng.integers(0, n_hyp, size=size)) for size in (1, 3, 12)]
    mixes.append(RandomizedHypothesis(cls, [members[0]] * 3 + [members[-1]]))
    hs = [cls[j] for j in members] + mixes
    for d in dists:
        zero = [x for x in range(m) if d.marginal[x] == 0]
        for pts in ([], zero, [x for x in range(m) if x % 2], list(range(m)), [m - 1]):
            assert d.mass_exact(pts) == mass_reference(pts, d)
            assert d.mass_exact(iter(pts)) == mass_reference(pts, d)
    for h in hs:
        losses = [loss_reference(h, d) for d in dists]
        if isinstance(h, Hypothesis):
            assert [loss_exact(h, d) for d in dists] == losses
        assert inst.worst_loss_exact(h) == max(losses)
        assert amdl.worst_loss(h, inst) == float(max(losses))
        for g in hs:
            rhos = [disagreement_reference(h, g, d) for d in dists]
            assert [disagreement_exact(h, g, d) for d in dists] == rhos
            assert max_disagreement_exact(h, g, inst) == max(rhos)
    for a in members:
        for b in members:
            for i, d in enumerate(dists):
                assert inst.pair_disagreement_exact(a, b, i) == \
                    disagreement_reference(cls[a], cls[b], d)
    worst = [max(loss_reference(h, d) for d in dists) for h in cls.hypotheses]
    nu = min(worst)
    assert inst.nu_exact() == nu
    assert best_nu_index(inst) == worst.index(nu)
    assert amdl.best_nu(inst) == (cls[worst.index(nu)], float(nu))
