"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything runs at desk scale under the `desk` knob profile (the literal
schedule constants are kept in the `fidelity` profile but are not executable
at desk scale; acceptance is by exact construction checks, statistical PAC
success rates, and scaling shapes, as stated per criterion).
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import amdl
from amdl import (OracleSet, RunConfig, SolverConfig, best_nu,
                  disagreement_coefficient, mixture_distribution, star_number,
                  vc_dimension)
from amdl.active import active_large_eps
from amdl.families import (kl_bernoulli, kl_bernoulli_integral,
                           verify_separation)
from amdl.harness import PROFILES, run_trials
from amdl.rpu import rpu_report, robust_rpu_learn
from amdl.oracles import imputed_family

from closed_forms import (imputed_distribution, induced_distribution,
                          surrogate_joint_exact)
from conftest import brute_best_nu, brute_star, brute_vc, empirical_tv

DESK = PROFILES["desk"]
DELTA = 0.1


def conclude(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- 1: exact reproduction of the agnostic construction's loss table ----------

def test_criterion_1_agnostic_loss_table():
    k, nu, eps = 4, 0.4, 0.05
    inst = amdl.gen_agnostic_lb(k, nu, eps)
    h1, h2 = inst.hypothesis_class.hypotheses
    flipped = amdl.gen_agnostic_lb(k, nu, eps, flipped_index=2)
    checks = [
        amdl.loss(h1, inst.distributions[0]) == 0.0,
        amdl.loss(h2, inst.distributions[0]) == nu,
        all(amdl.loss(h1, inst.distributions[i]) == nu - 2 * eps
            for i in range(1, k)),
        all(amdl.loss(h2, inst.distributions[i]) == nu / 2 - 2 * eps
            for i in range(1, k)),
        amdl.loss(h1, flipped.distributions[1]) == nu + 2 * eps,
        amdl.loss(h2, flipped.distributions[1]) == nu / 2 + 2 * eps,
    ]
    conclude(1, "agnostic loss table exact", all(checks),
             f"six closed-form values at k={k}, nu={nu}, eps={eps}, tolerance 0")


# -- 2: per-distribution vs averaged disagreement coefficient -----------------

def test_criterion_2_averaging_ratio():
    eps = 0.05
    ok = True
    for k in (2, 4, 8):
        inst = amdl.gen_prop1(k, eps)
        hstar = inst.hypothesis_class[0]
        ok &= all(disagreement_coefficient(d, inst.hypothesis_class, hstar, eps) == 1.0
                  for d in inst.distributions)
        bar = mixture_distribution(inst.distributions)
        ok &= disagreement_coefficient(bar, inst.hypothesis_class, hstar,
                                       eps / k) == float(k)
    conclude(2, "averaged coefficient ratio", ok,
             "theta_i(eps)=1 and theta_bar(eps/k)=k exactly for k in {2,4,8}")


# -- 3: sampler distribution correctness ---------------------------------------

def _tv_fixture():
    from amdl import (FeatureSpace, Hypothesis, HypothesisClass,
                      LabeledDistribution, MDLInstance)
    cls = HypothesisClass([
        Hypothesis([1, 1, 1, -1]),
        Hypothesis([-1, -1, 1, -1]),
        Hypothesis([1, -1, 1, -1]),
    ])
    dist = LabeledDistribution(
        [Fraction(3, 10), Fraction(2, 10), Fraction(4, 10), Fraction(1, 10)],
        [Fraction(1, 2), Fraction(1, 4), Fraction(1), Fraction(0)])
    return MDLInstance(FeatureSpace(4), cls, [dist])


def test_criterion_3_sampler_distributions():
    n = 100_000
    inst = _tv_fixture()
    V = (0, 1)
    details = []

    o = OracleSet(inst, seed=101)
    xs, ys = amdl.induced_family(o, V).draw(0, n)
    tv_ind = empirical_tv(Counter(zip(xs.tolist(), ys.tolist())),
                          induced_distribution(inst.distributions[0],
                                               inst.hypothesis_class, V).joint_exact(), n)
    cost, p = o.ledger.label_total, 0.5
    cost_ok = abs(cost - n * p) <= 3 * math.sqrt(n * p * (1 - p))
    details.append(f"induced tv={tv_ind:.4f} cost|{cost}-{int(n*p)}| within 3sd")

    o = OracleSet(inst, seed=102)
    f = np.array([0, 1, 1, 0], dtype=np.int8)
    xs, ys = imputed_family(o, f).draw(0, n)
    tv_imp = empirical_tv(Counter(zip(xs.tolist(), ys.tolist())),
                          imputed_distribution(inst.distributions[0], f).joint_exact(), n)
    details.append(f"imputed tv={tv_imp:.4f}")

    o = OracleSet(inst, seed=103)
    S = o.sample_conditional_agreement(0, V, 50)
    o2 = OracleSet(inst, seed=104)
    xs, ys = amdl.surrogate_family(o2, V, [S]).draw(0, n)
    tv_sur = empirical_tv(Counter(zip(xs.tolist(), ys.tolist())),
                          surrogate_joint_exact(inst.distributions[0],
                                                inst.hypothesis_class, V, S), n)
    details.append(f"surrogate tv={tv_sur:.4f}")

    ok = tv_ind <= 0.02 and tv_imp <= 0.02 and tv_sur <= 0.02 and cost_ok
    conclude(3, "sampler joints within TV 0.02 and cost law 3sd", ok,
             "; ".join(details))


# -- 4: PAC success suites ------------------------------------------------------

def _pac_rate(inst, alg, eps, trials=100, seed=0):
    cfg = RunConfig(alg=alg, eps=eps, delta=DELTA, trials=trials, base_seed=seed,
                    profile="desk", instance=inst)
    recs = run_trials(cfg)
    return float(np.mean([r.success for r in recs]))


def test_criterion_4_pac_suites():
    floor = 1.0 - DELTA - 0.05
    rates = {}
    rates["prop1/alg1"] = _pac_rate(amdl.gen_prop1(4, 0.1), "active-dd-large", 0.1)
    rates["example1a/alg3"] = _pac_rate(amdl.gen_example1(0.2, 0.05, "a"),
                                        "active-dd-small", 0.05)
    rates["example1b/alg3"] = _pac_rate(amdl.gen_example1(0.2, 0.05, "b"),
                                        "active-dd-small", 0.05)
    rates["star/alg6"] = _pac_rate(amdl.gen_star_lb(2, 4, 1, 1), "active-df", 0.1)
    agnostic = amdl.gen_agnostic_lb(4, 0.4, 0.05)
    rates["agnostic/alg5"] = _pac_rate(agnostic, "passive-hedge", 0.05)
    rates["agnostic/alg3"] = _pac_rate(agnostic, "active-dd-small", 0.05)
    ok = all(v >= floor for v in rates.values())
    conclude(4, "PAC success suites", ok,
             " ".join(f"{k}={v:.2f}" for k, v in rates.items())
             + f" (floor {floor:.2f}, 100 trials each)")


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
def test_star_lb_large_eps_pac_cells(eps):
    # the scaling sweep's star-lb cells of the epoch-halving learner, at
    # criterion 4's floor: a survivor of the last version space can sit at
    # 2 eps_n0 from the target, so the output must not be one
    rate = _pac_rate(amdl.gen_star_lb(2, 8, 1, 3), "active-dd-large", eps)
    assert rate >= 1.0 - DELTA - 0.05, rate


# -- 5: deterministic epoch invariants and realizable survival -----------------

def test_criterion_5_epoch_invariants():
    inst = amdl.gen_star_lb(2, 8, 1, 3)
    target_idx = inst.hypothesis_class.index_of(best_nu(inst)[0])
    cfg = SolverConfig(eps=0.05, delta=DELTA, nu=0.0, **DESK)
    trials = 100
    survived = 0
    nested_ok = True
    for seed in range(trials):
        o = OracleSet(inst, seed)
        # radius bound rho(h, h_n) <= 2 eps_n is asserted inside the update
        res = active_large_eps(inst, o, 0.05, DELTA, cfg, d=1)
        if not res.ok:
            continue
        spaces = res.metadata["version_spaces"]
        prev = set(inst.hypothesis_class.full_version_space())
        for V in spaces:
            nested_ok &= set(V) <= prev
            prev = set(V)
        survived += all(target_idx in V for V in spaces)
    ok = nested_ok and survived >= (1 - DELTA) * trials
    conclude(5, "epoch invariants + survival", ok,
             f"nested={nested_ok}, survival {survived}/{trials}")


# -- 6: reliability of the abstaining learners ---------------------------------

def test_criterion_6_rpu_reliability():
    inst = amdl.gen_star_lb(2, 4, 1, 2)
    target = best_nu(inst)[0]
    cfg = SolverConfig(eps=0.1, delta=DELTA, nu=0.0, **DESK)
    xi = 0.25
    trials = 50
    violations = 0
    abst_ok = 0
    for seed in range(trials):
        o = OracleSet(inst, seed)
        fam = imputed_family(o, np.zeros(inst.m, dtype=np.int8))
        f = robust_rpu_learn(inst.hypothesis_class, lambda n: fam.draw(0, n),
                             xi=xi, delta=DELTA, s_star=8, cfg=cfg)
        rep = rpu_report(inst, f, target.labels)
        violations += any(v > 0 for v in rep.violation_mass)
        abst_ok += rep.abstention_mass[0] <= xi
    pipeline_violations = 0
    pipe_trials = 50
    completed = 0
    for seed in range(pipe_trials):
        o = OracleSet(inst, seed)
        from amdl.rpu import active_dist_free
        res = active_dist_free(inst, o, 0.1, DELTA, s_star=8, d=1, cfg=cfg)
        if not res.ok:
            continue
        completed += 1
        for outputs in res.metadata["classifiers"]:
            committed = outputs != 0
            if not np.all(outputs[committed] == target.labels[committed]):
                pipeline_violations += 1
    ok = (violations == 0 and pipeline_violations == 0
          and abst_ok >= (1 - DELTA) * trials and completed >= 0.9 * pipe_trials)
    conclude(6, "reliable abstention", ok,
             f"violations={violations}+{pipeline_violations}, "
             f"abstention ok {abst_ok}/{trials}, completed {completed}/{pipe_trials}")


# -- 7: scaling shapes ----------------------------------------------------------

def test_criterion_7a_labels_affine_in_log_inv_eps():
    from amdl.harness import sweep
    rows = sweep({
        "trials": 50, "delta": DELTA, "base_seed": 0, "profile": "desk",
        "families": [{"family": "star-lb",
                      "params": {"k": 2, "theta": 8, "i": 1, "j": 3}}],
        "algs": ["active-dd-large"], "eps_grid": [0.2, 0.1, 0.05],
    })
    eps = np.array([float(r["eps"]) for r in rows])
    y = np.array([float(r["mean_labels"]) for r in rows])
    x = np.log(1.0 / eps)
    slope, icpt = np.polyfit(x, y, 1)
    pred = slope * x + icpt
    r2 = 1.0 - ((y - pred) ** 2).sum() / ((y - y.mean()) ** 2).sum()
    conclude(7, "labels vs ln(1/eps) affine (a)", r2 >= 0.9 and slope > 0,
             f"R2={r2:.4f} slope={slope:.1f} means={y.round(1).tolist()}")


def test_criterion_7b_labels_at_most_linear_in_k():
    from amdl.harness import sweep
    rows = sweep({
        "trials": 50, "delta": DELTA, "base_seed": 0, "profile": "desk",
        "families": [{"family": "agnostic-lb",
                      "params": {"k": k, "nu": 0.4, "eps": 0.05}}
                     for k in (2, 4, 8)],
        "algs": ["active-dd-small"], "eps_grid": [0.05],
    })
    import json as _json
    ks = np.array([_json.loads(r["params"])["k"] for r in rows], dtype=float)
    y = np.array([float(r["mean_labels"]) for r in rows])
    order = np.argsort(ks)
    expo = np.polyfit(np.log(ks[order]), np.log(y[order]), 1)[0]
    success = all(float(r["success_rate"]) >= 1 - DELTA - 0.05 for r in rows)
    conclude(7, "labels vs k at most linear (b)",
             0.7 <= expo <= 1.3 and success,
             f"log-log exponent={expo:.3f} means={y.round(0).tolist()}")


def test_criterion_7c_naive_exceeds_active():
    inst = amdl.gen_prop1(8, 0.05)
    trials = 100
    naive = run_trials(RunConfig(alg="passive-naive", eps=0.05, delta=DELTA,
                                 trials=trials, instance=inst, profile="desk"))
    active = run_trials(RunConfig(alg="active-dd-large", eps=0.05, delta=DELTA,
                                  trials=trials, instance=inst, profile="desk"))
    naive_rate = float(np.mean([r.success for r in naive]))
    active_rate = float(np.mean([r.success for r in active]))
    naive_labels = float(np.mean([r.labels_total for r in naive]))
    active_labels = float(np.mean([r.labels_total for r in active]))
    ok = (naive_rate >= 0.9 and active_rate >= 0.9
          and naive_labels > active_labels)
    conclude(7, "naive baseline costlier (c)", ok,
             f"naive {naive_labels:.0f}@{naive_rate:.2f} vs "
             f"active {active_labels:.0f}@{active_rate:.2f} on k=8")


# -- 8: lower-bound construction verification ----------------------------------

def test_criterion_8_separation_and_kl():
    sep_ok = True
    for theta in (2, 3):
        insts = [amdl.gen_star_lb(2, theta, i, j)
                 for i in (1, 2) for j in range(1, theta + 1)]
        rep = verify_separation(insts, 0.1)
        sep_ok &= rep.exhaustive_ran and rep.exhaustive_holds
        sep_ok &= rep.analytic_holds and rep.consistent
    grid = [0.05, 0.15, 0.3, 0.5, 0.7, 0.9]
    pairs = [(p, q) for p in grid for q in grid if p != q]
    assert len(pairs) >= 20
    kl_ok = all(abs(kl_bernoulli(p, q) - kl_bernoulli_integral(p, q)) < 1e-9
                for p, q in pairs)
    conclude(8, "separation + KL integral", sep_ok and kl_ok,
             f"exhaustive separation for theta in (2,3) at eps=0.1; "
             f"{len(pairs)} KL grid points within 1e-9")


# -- 9: oracle equivalence of the complexity measures ---------------------------

def test_criterion_9_measure_oracles():
    rng = np.random.default_rng(2024)
    agree = 0
    total = 50
    for t in range(total):
        m = int(rng.integers(2, 9))
        n_hyp = int(rng.integers(2, min(17, 2 ** m) + 1))
        k = int(rng.integers(1, 4))
        inst = amdl.gen_random(m, n_hyp, k, seed=int(rng.integers(10 ** 9)))
        cls = inst.hypothesis_class
        ref = cls[int(rng.integers(len(cls)))]
        vc_match = vc_dimension(cls).value == brute_vc(cls.labels)
        star_match = star_number(cls, ref).value == brute_star(cls.labels, ref.labels)
        idx, val = brute_best_nu(inst)
        h, nu = best_nu(inst)
        nu_match = (cls.index_of(h) == idx and Fraction(nu) == Fraction(float(val)))
        agree += vc_match and star_match and nu_match
    conclude(9, "exhaustive-oracle agreement", agree == total,
             f"{agree}/{total} random instances, exact agreement")


# -- 10: byte determinism --------------------------------------------------------

def test_criterion_10_run_determinism(tmp_path):
    from amdl.cli import main as cli_main
    inst_path = tmp_path / "inst.json"
    cli_main(["gen", "--family", "agnostic-lb", "--k", "3", "--nu", "0.4",
              "--eps", "0.05", "--out", str(inst_path)])
    blobs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        cli_main(["run", "--instance", str(inst_path), "--alg", "active-dd-auto",
                  "--eps", "0.05", "--delta", "0.1", "--trials", "3",
                  "--seed", "11", "--out", str(out)])
        blobs.append(out.read_bytes())
    conclude(10, "byte-identical repeated runs", blobs[0] == blobs[1],
             f"{len(blobs[0])} bytes compared")
