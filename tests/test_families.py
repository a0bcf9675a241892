"""Benchmark families: exact construction tables, separation, KL utility."""

import math

import pytest

import amdl
from amdl import ContractViolation, FamilySpec
from amdl.families import (REQUIRED_PARAMS, kl_bernoulli, kl_bernoulli_integral,
                           verify_separation)


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
    missing = (set(REQUIRED_PARAMS[family]) - set(params)).pop()
    with pytest.raises(ContractViolation, match=missing):
        FamilySpec(family, params)


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
