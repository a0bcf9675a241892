#!/usr/bin/env python3
"""Exact verification pass over the benchmark adversary constructions.

Prints the closed-form quantities each family is built to realize: the
agnostic family's loss table, the averaging family's coefficient ratio, the
star family's realizability / coefficient cap / separation certificate, and
the Bernoulli-KL closed form against quadrature.  The quadrature reference is
the tests' one (tests/closed_forms.py), so this script needs scipy, from the
`test` extra.

Usage: python scripts/verify_constructions.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import amdl
from amdl.core import loss_exact
from amdl.families import kl_bernoulli, verify_separation
from closed_forms import kl_bernoulli_integral


def main() -> int:
    k, nu, eps = 4, 0.4, 0.05
    inst = amdl.gen_agnostic_lb(k, nu, eps)
    h1, h2 = inst.hypothesis_class.hypotheses
    print(f"agnostic-lb (k={k}, nu={nu}, eps={eps})")
    d_1, d_i = inst.distributions[:2]
    print(f"  L(h1, D_1) = {float(loss_exact(h1, d_1))}   (expect 0)")
    print(f"  L(h2, D_1) = {float(loss_exact(h2, d_1))}   (expect {nu})")
    print(f"  L(h1, D_i) = {float(loss_exact(h1, d_i))}   (expect {nu - 2 * eps})")
    print(f"  L(h2, D_i) = {float(loss_exact(h2, d_i))}   (expect {nu / 2 - 2 * eps})")
    flipped = amdl.gen_agnostic_lb(k, nu, eps, flipped_index=2).distributions[1]
    print(f"  L(h1, D'_i) = {float(loss_exact(h1, flipped))}  (expect {nu + 2 * eps})")
    print(f"  L(h2, D'_i) = {float(loss_exact(h2, flipped))}  (expect {nu / 2 + 2 * eps})")

    print("prop1 coefficient ratio")
    for kk in (2, 4, 8):
        p = amdl.gen_prop1(kk, eps)
        href = p.hypothesis_class[0]
        thetas = {amdl.disagreement_coefficient(d, p.hypothesis_class, href, eps)
                  for d in p.distributions}
        bar = amdl.mixture_distribution(p.distributions)
        tbar = amdl.disagreement_coefficient(bar, p.hypothesis_class, href, eps / kk)
        print(f"  k={kk}: theta_i = {sorted(thetas)}, theta_avg(eps/k) = {tbar}")

    print("star-lb family")
    st = amdl.gen_star_lb(2, 4, 1, 2)
    print(f"  nu = {amdl.best_nu(st)[1]} (realizable), "
          f"VC = {amdl.vc_dimension(st.hypothesis_class).value}, "
          f"star = {amdl.star_number(st.hypothesis_class, st.hypothesis_class[0]).value}")
    hstar = amdl.best_nu(st)[0]
    theta_max = max(amdl.disagreement_coefficient(d, st.hypothesis_class, hstar, 0.1)
                    for d in st.distributions)
    print(f"  theta_max(0.1) = {theta_max} <= theta = 4")
    for theta in (2, 3):
        fam = [amdl.gen_star_lb(2, theta, i, j)
               for i in (1, 2) for j in range(1, theta + 1)]
        rep = verify_separation(fam, 0.1)
        print(f"  separation (theta={theta}, eps=0.1): exhaustive={rep.exhaustive_holds} "
              f"analytic={rep.analytic_holds} consistent={rep.consistent}")

    grid = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
    worst = max(abs(kl_bernoulli(p, q) - kl_bernoulli_integral(p, q))
                for p in grid for q in grid if p != q)
    print(f"bernoulli KL: closed form vs quadrature, worst abs gap = {worst:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
