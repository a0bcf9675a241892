"""Benchmark families: exact construction tables, separation, KL utility."""

import hashlib
import inspect
import itertools
import json
import math
from numbers import Integral, Real

import numpy as np
import pytest

import amdl
from amdl import ContractViolation, FamilySpec
from amdl.families import GENERATORS, kl_bernoulli, verify_separation

from closed_forms import kl_bernoulli_integral


def test_prop1_construction():
    inst = amdl.gen_prop1(4, 0.1)
    assert inst.m == 5 and len(inst.hypothesis_class) == 5
    h, nu = amdl.best_nu(inst)
    assert nu == 0.1  # every class member errs at mass eps somewhere
    region = amdl.disagreement_region(inst.hypothesis_class,
                                      inst.hypothesis_class.full_version_space())
    assert list(region) == [1, 2, 3, 4]


def test_prop1_single_distribution_realizable():
    inst = amdl.gen_prop1(1, 0.1)
    assert amdl.best_nu(inst)[1] == 0.0


def test_star_lb_realizable_for_all_parameters():
    for i in (1, 2):
        for j in (0, 1, 3):
            inst = amdl.gen_star_lb(2, 3, i, j)
            assert amdl.best_nu(inst)[1] == 0.0
    assert amdl.vc_dimension(amdl.gen_star_lb(3, 2, 1, 1).hypothesis_class).value == 1


def test_star_lb_theta_bound():
    inst = amdl.gen_star_lb(2, 4, 1, 2)
    hstar = amdl.best_nu(inst)[0]
    # claim: every member distribution has coefficient at most theta
    assert amdl.theta_max(inst, hstar, 0.1) <= 4.0


def test_star_lb_parameter_ranges():
    with pytest.raises(ContractViolation):
        amdl.gen_star_lb(2, 3, 3, 1)  # i out of range
    with pytest.raises(ContractViolation):
        amdl.gen_star_lb(2, 3, 1, 4)  # j out of range
    for args in ((2, 3.0, 1, 1), (2, 3, 1.5, 1), (2, 3, 1, True), (True, 3, 1, 1)):
        with pytest.raises(ContractViolation):
            amdl.gen_star_lb(*args)


def test_agnostic_lb_loss_table_exact():
    k, nu, eps = 4, 0.4, 0.05
    inst = amdl.gen_agnostic_lb(k, nu, eps)
    h1, h2 = inst.hypothesis_class.hypotheses
    assert amdl.loss(h1, inst.distributions[0]) == 0.0
    assert amdl.loss(h2, inst.distributions[0]) == nu
    for i in range(1, k):
        assert amdl.loss(h1, inst.distributions[i]) == nu - 2 * eps
        assert amdl.loss(h2, inst.distributions[i]) == nu / 2 - 2 * eps
    flipped = amdl.gen_agnostic_lb(k, nu, eps, flipped_index=3)
    assert amdl.loss(h1, flipped.distributions[2]) == nu + 2 * eps
    assert amdl.loss(h2, flipped.distributions[2]) == nu / 2 + 2 * eps


def test_agnostic_lb_optima():
    inst = amdl.gen_agnostic_lb(4, 0.4, 0.05)
    h, val = amdl.best_nu(inst)
    assert h == inst.hypothesis_class[0] and val == 0.4 - 0.1
    assert amdl.worst_loss(inst.hypothesis_class[1], inst) == 0.4
    flipped = amdl.gen_agnostic_lb(4, 0.4, 0.05, flipped_index=2)
    h_f, val_f = amdl.best_nu(flipped)
    # under the flipped family only the second hypothesis is near-optimal
    assert h_f == flipped.hypothesis_class[1] and val_f == 0.4
    assert amdl.worst_loss(flipped.hypothesis_class[0], flipped) == 0.4 + 0.1


def test_agnostic_lb_parameter_ranges():
    with pytest.raises(ContractViolation):
        amdl.gen_agnostic_lb(4, 0.3, 0.05)  # nu < 8 eps
    with pytest.raises(ContractViolation):
        amdl.gen_agnostic_lb(4, 0.6, 0.05)  # nu > 1/2
    with pytest.raises(ContractViolation):
        amdl.gen_agnostic_lb(1, 0.4, 0.05)
    with pytest.raises(ContractViolation):
        amdl.gen_agnostic_lb(4, 0.4, 0.05, flipped_index=1)
    with pytest.raises(ContractViolation, match="flipped_index"):
        amdl.gen_agnostic_lb(4, 0.4, 0.05, flipped_index=2.0)
    with pytest.raises(ContractViolation, match="k"):
        amdl.gen_agnostic_lb(4.0, 0.4, 0.05)


# generator calls whose integer parameter is a bool, fractional or out of range
BAD_GENERATOR_INTS = {
    "prop1-k-bool": (lambda: amdl.gen_prop1(True, 0.1), "k"),
    "prop1-k-fractional": (lambda: amdl.gen_prop1(2.5, 0.1), "k"),
    "random-m-float": (lambda: amdl.gen_random(4.0, 3, 2, 0), "m"),
    "random-n-hyp-bool": (lambda: amdl.gen_random(4, True, 2, 0), "n_hyp"),
    "random-k-fractional": (lambda: amdl.gen_random(4, 3, 1.5, 0), "k"),
    "random-seed-negative": (lambda: amdl.gen_random(4, 3, 2, -1), "seed"),
    "random-seed-fractional": (lambda: amdl.gen_random(4, 3, 2, 1.5), "seed"),
}


@pytest.mark.parametrize("case", sorted(BAD_GENERATOR_INTS))
def test_generators_refuse_a_bad_integer_parameter(case):
    call, name = BAD_GENERATOR_INTS[case]
    with pytest.raises(ContractViolation, match=f"^{name} must be"):
        call()


@pytest.mark.parametrize("family,args", [
    ("prop1", (3, 0.1)), ("star-lb", (2, 4, 1, 2)), ("agnostic-lb", (4, 0.4, 0.05, 3)),
    ("random", (5, 6, 2, 7))], ids=str)
def test_generators_take_numpy_integers(family, args):
    gen = amdl.families.GENERATORS[family]
    as_numpy = [np.int64(v) if type(v) is int else v for v in args]
    got = amdl.instance_to_dict(gen(*as_numpy))
    assert json.dumps(got) == json.dumps(amdl.instance_to_dict(gen(*args)))


def test_example1_case_a_arithmetic():
    nu_p, eps = 0.2, 0.05
    inst = amdl.gen_example1(nu_p, eps, "a")
    h1, h2 = inst.hypothesis_class.hypotheses
    assert amdl.loss(h1, inst.distributions[0]) == 0.0
    assert amdl.loss(h2, inst.distributions[0]) == 2 * nu_p
    assert amdl.loss(h1, inst.distributions[1]) == 2 * nu_p - eps
    assert amdl.loss(h2, inst.distributions[1]) == nu_p - eps
    # h1 is the unique strictly-valid output; h2 sits exactly on the boundary
    h, nu = amdl.best_nu(inst)
    assert h == h1 and nu == 2 * nu_p - eps
    assert amdl.worst_loss(h2, inst) == nu + eps


def test_example1_case_b_arithmetic():
    nu_p, eps = 0.2, 0.05
    inst = amdl.gen_example1(nu_p, eps, "b")
    h1, h2 = inst.hypothesis_class.hypotheses
    assert amdl.loss(h1, inst.distributions[1]) == 2 * nu_p + eps
    assert amdl.loss(h2, inst.distributions[1]) == nu_p + eps
    h, nu = amdl.best_nu(inst)
    assert h == h2 and nu == 2 * nu_p
    assert amdl.worst_loss(h1, inst) == nu + eps


def test_example1_parameter_ranges():
    with pytest.raises(ContractViolation):
        amdl.gen_example1(0.03, 0.05, "a")  # nu' - eps < 0
    with pytest.raises(ContractViolation):
        amdl.gen_example1(0.2, 0.05, "c")
    with pytest.raises(ContractViolation):
        amdl.gen_example1(0.6, 0.05, "a")  # 2 nu' > 1


def test_family_spec_generate_and_validation():
    spec = FamilySpec("prop1", {"k": 3, "eps": 0.1})
    inst = spec.generate()
    assert inst.metadata["family"] == "prop1"
    with pytest.raises(ContractViolation):
        FamilySpec("unknown", {})


@pytest.mark.parametrize("family,params", [
    ("prop1", {"k": 3}), ("star-lb", {"k": 2, "theta": 4, "i": 1}),
    ("agnostic-lb", {"k": 4, "eps": 0.05}), ("example1", {"nu_prime": 0.2, "eps": 0.05}),
    ("random", {"m": 4, "n_hyp": 3, "k": 2})])
def test_family_spec_names_a_missing_param(family, params):
    takes = inspect.signature(GENERATORS[family]).parameters.values()
    missing = ({p.name for p in takes if p.default is p.empty} - set(params)).pop()
    with pytest.raises(ContractViolation, match=missing):
        FamilySpec(family, params)


# params of the wrong type, each with the field its refusal must name
WRONG_TYPED_PARAMS = {
    "k-string": ("prop1", {"k": "2", "eps": 0.1}, "'k'"),
    "eps-string": ("prop1", {"k": 2, "eps": "x"}, "'eps'"),
    "k-fractional": ("prop1", {"k": 2.5, "eps": 0.1}, "'k'"),
    "k-bool": ("prop1", {"k": True, "eps": 0.1}, "'k'"),
    "eps-nan": ("prop1", {"k": 2, "eps": float("nan")}, "'eps'"),
    "case-number": ("example1", {"nu_prime": 0.2, "eps": 0.05, "case": 1}, "'case'"),
    "params-list": ("prop1", [1, 2], "params"),
    "params-pairs": ("prop1", [("k", 2), ("eps", 0.1)], "params"),
    "flipped-index-string": ("agnostic-lb", {"k": 4, "nu": 0.4, "eps": 0.05,
                                             "flipped_index": "2"}, "'flipped_index'"),
    "flipped-index-fractional": ("agnostic-lb", {"k": 4, "nu": 0.4, "eps": 0.05,
                                                 "flipped_index": 2.5}, "'flipped_index'"),
    "realizable-string": ("random", {"m": 4, "n_hyp": 3, "k": 2, "seed": 0,
                                     "realizable": "no"}, "'realizable'"),
    "realizable-int": ("random", {"m": 4, "n_hyp": 3, "k": 2, "seed": 0,
                                  "realizable": 1}, "'realizable'"),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPED_PARAMS))
def test_family_spec_names_a_wrong_typed_param(case):
    family, params, field = WRONG_TYPED_PARAMS[case]
    with pytest.raises(ContractViolation, match=field):
        FamilySpec(family, params)


# params a family's generator does not take, each with the name its refusal
# must give: a misspelt optional param once built the default instance
UNKNOWN_PARAMS = {
    "agnostic-lb-flipped": ("agnostic-lb", {"k": 4, "nu": 0.4, "eps": 0.05, "flipped": 3},
                            "flipped"),
    "random-realisable": ("random", {"m": 4, "n_hyp": 3, "k": 2, "seed": 0, "realisable": True},
                          "realisable"),
    "prop1-seed": ("prop1", {"k": 2, "eps": 0.1, "seed": 3}, "seed"),
    "example1-k": ("example1", {"nu_prime": 0.2, "eps": 0.05, "case": "a", "k": 2}, "k"),
    "star-lb-non-string": ("star-lb", {"k": 2, "theta": 4, "i": 1, "j": 2, 7: 1}, "7"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_PARAMS))
def test_family_spec_names_a_param_its_generator_does_not_take(case):
    family, params, name = UNKNOWN_PARAMS[case]
    with pytest.raises(ContractViolation, match=f"takes no params .*{name}"):
        FamilySpec(family, params)


def test_every_generator_parameter_is_typed_and_a_gen_flag():
    # the family's parameters are its generator's signature: each one has a
    # type for FamilySpec and a flag of `amdl gen`, which parses it as such
    from amdl.cli import build_parser
    gen = next(a for a in build_parser()._actions if a.dest == "command").choices["gen"]
    flags = {act.dest: act for act in gen._actions if act.dest not in ("help", "family", "out")}
    takes = {name for g in GENERATORS.values() for name in inspect.signature(g).parameters}
    assert takes == set(amdl.families.PARAM_TYPES) == set(flags)
    for name, kind in amdl.families.PARAM_TYPES.items():
        act = flags[name]
        assert act.option_strings == ["--" + name.replace("_", "-")] and act.default is None
        parse = {Integral: int, Real: float, str: str}.get(kind)
        assert act.type is parse and (act.nargs == 0) == (kind is bool)


def test_family_spec_takes_numpy_numbers_and_copies_its_params():
    params = {"m": np.int64(4), "n_hyp": 3, "k": 2, "seed": np.uint8(1)}
    spec = FamilySpec("random", params)
    params["m"] = "changed"
    assert spec.generate().m == 4
    assert FamilySpec("prop1", {"k": 2, "eps": np.float64(0.1)}).generate().k == 2


def test_generators_pass_instance_validation_and_round_trip(tmp_path):
    gens = [
        amdl.gen_prop1(3, 0.2),
        amdl.gen_star_lb(2, 3, 1, 1),
        amdl.gen_agnostic_lb(3, 0.4, 0.05),
        amdl.gen_example1(0.2, 0.05, "b"),
        amdl.gen_random(5, 6, 2, seed=0),
    ]
    for idx, inst in enumerate(gens):
        path = tmp_path / f"inst{idx}.json"
        amdl.save_instance(inst, str(path))
        back = amdl.load_instance(str(path))
        assert back.metadata == inst.metadata
        for da, db in zip(inst.distributions, back.distributions):
            assert [float(v) for v in da.marginal] == [float(v) for v in db.marginal]
            assert [float(v) for v in da.eta_plus] == [float(v) for v in db.eta_plus]


# (m, n_hyp, k) shapes for the gen_random pin: small classes, near-saturated
# ones (n_hyp close to 2^m, many rejected duplicates) and the benchmark's
RANDOM_SHAPES = ((1, 2, 1), (2, 1, 3), (3, 8, 1), (4, 16, 2), (5, 30, 3), (5, 32, 1),
                 (6, 10, 3), (7, 60, 2), (10, 128, 4), (10, 256, 4))
# sha256 of every hypothesis' labels, marginal and eta_plus over RANDOM_SHAPES,
# seeds 0..5, realizable off and on; taken with one rng.choice call per row
RANDOM_INSTANCES_SHA256 = "4302789633c831923e84f4bbbf2722de6228b057795499da8e26dde31bde61b4"


def test_gen_random_instances_match_their_pin():
    digest = hashlib.sha256()
    for (m, n_hyp, k), seed, realizable in itertools.product(RANDOM_SHAPES, range(6),
                                                             (False, True)):
        inst = amdl.gen_random(m, n_hyp, k, seed, realizable=realizable)
        digest.update(repr((inst.hypothesis_class.labels.tolist(),
                            [[str(v) for v in d.marginal] for d in inst.distributions],
                            [[str(v) for v in d.eta_plus] for d in inst.distributions])).encode())
    assert digest.hexdigest() == RANDOM_INSTANCES_SHA256


def test_verify_separation_exhaustive():
    insts = [amdl.gen_star_lb(2, 2, i, j) for i in (1, 2) for j in (1, 2)]
    rep = verify_separation(insts, 0.2)
    assert rep.exhaustive_ran and rep.exhaustive_holds
    assert rep.analytic_holds and rep.consistent


def test_verify_separation_boundary():
    # at eps = 1/(2 theta) the sufficient certificate fails while the
    # exhaustive check still separates (the certificate is one-sided)
    insts = [amdl.gen_star_lb(2, 2, i, j) for i in (1, 2) for j in (1, 2)]
    rep = verify_separation(insts, 0.25)
    assert not rep.analytic_holds
    assert rep.exhaustive_holds
    assert rep.consistent


def test_verify_separation_fails_for_large_eps():
    insts = [amdl.gen_star_lb(2, 2, 1, 1), amdl.gen_star_lb(2, 2, 2, 1)]
    rep = verify_separation(insts, 0.5)  # eps >= 1/theta: some labeling wins twice
    assert not rep.exhaustive_holds
    assert rep.counterexample is not None
    assert rep.consistent  # the certificate fails too, so no contradiction


def test_verify_separation_input_validation():
    a = amdl.gen_star_lb(2, 2, 1, 1)
    with pytest.raises(ContractViolation):
        verify_separation([a, amdl.gen_star_lb(2, 2, 1, 1)], 0.1)  # duplicates
    with pytest.raises(ContractViolation):
        verify_separation([a, amdl.gen_star_lb(2, 3, 1, 1)], 0.1)  # mixed theta
    with pytest.raises(ContractViolation):
        verify_separation([a], 0.1)
    with pytest.raises(ContractViolation):
        verify_separation([a, amdl.gen_prop1(2, 0.1)], 0.1)


def test_verify_separation_analytic_only_when_infeasible():
    insts = [amdl.gen_star_lb(4, 4, i, 1) for i in (1, 2)]  # 16 points > cap
    rep = verify_separation(insts, 0.1)
    assert not rep.exhaustive_ran and rep.exhaustive_holds is None
    assert rep.analytic_holds and rep.consistent


def test_kl_bernoulli_closed_form():
    assert kl_bernoulli(0.3, 0.3) == 0.0
    assert kl_bernoulli(0.5, 0.25) == pytest.approx(
        0.5 * math.log(2) + 0.5 * math.log(2 / 3), abs=1e-15)
    assert kl_bernoulli(0.5, 0.25) == pytest.approx(0.14384103622589042, abs=1e-15)


def test_kl_bernoulli_grid_against_quadrature():
    grid = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95]
    checked = 0
    for p in grid:
        for q in grid:
            if p == q:
                continue
            assert abs(kl_bernoulli(p, q) - kl_bernoulli_integral(p, q)) < 1e-9
            checked += 1
    assert checked >= 20


def test_kl_bernoulli_nonnegative_iff_equal():
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    for p in grid:
        for q in grid:
            val = kl_bernoulli(p, q)
            if p == q:
                assert val == 0.0
            else:
                assert val > 0.0


def test_kl_bernoulli_boundary_rejected():
    for p, q in ((0.0, 0.5), (0.5, 1.0), (1.0, 0.5)):
        with pytest.raises(ContractViolation):
            kl_bernoulli(p, q)
        with pytest.raises(ContractViolation):
            kl_bernoulli_integral(p, q)
