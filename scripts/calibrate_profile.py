#!/usr/bin/env python3
"""Measure success margins and runtime of every acceptance suite under a
candidate knob profile; used to pin the `desk` preset.  Each line ends with
the run plan's label bound, split into its agreement, solve, RPU and naive
parts, so each constant's share shows without spending the labels."""

import argparse
import time

import numpy as np

import amdl
from amdl.harness import PROFILES, RunConfig, run_single_trial
from amdl.hedge import KNOBS

# (row name, instance builder, algorithm tag, eps)
SUITES = (
    ("prop1 k=4 alg1", lambda: amdl.gen_prop1(4, 0.1), "active-dd-large", 0.1),
    ("example1-a alg3", lambda: amdl.gen_example1(0.2, 0.05, "a"), "active-dd-small", 0.05),
    ("example1-b alg3", lambda: amdl.gen_example1(0.2, 0.05, "b"), "active-dd-small", 0.05),
    ("star-lb alg6", lambda: amdl.gen_star_lb(2, 4, 1, 1), "active-df", 0.1),
    ("agnostic alg5", lambda: amdl.gen_agnostic_lb(4, 0.4, 0.05), "passive-hedge", 0.05),
    ("agnostic alg3", lambda: amdl.gen_agnostic_lb(4, 0.4, 0.05), "active-dd-small", 0.05),
)


def bench(name, inst, alg, eps, trials, knobs):
    cfg = RunConfig(alg=alg, eps=eps, delta=0.1, trials=trials, knobs=knobs, instance=inst)
    t0 = time.perf_counter()
    p = cfg.plan()      # built once: run_trials(cfg) would build it again
    recs = [run_single_trial(inst, p, seed)[0] for seed in range(trials)]
    dt = (time.perf_counter() - t0) / trials
    parts = p.label_parts()
    bound = recs[0].nu + eps
    done = [r for r in recs if not r.failure_mode]
    errs = [r.achieved_err for r in done]
    labels = [r.labels_total for r in done]
    ok = sum(r.success for r in recs)
    margin = bound - np.max(errs) if errs else float("nan")
    print(f"{name:24s} ok {ok}/{trials} fails {trials - len(done)} "
          f"worst_err {np.max(errs) if errs else float('nan'):.4f} "
          f"bound {bound:.4f} margin {margin:+.4f} "
          f"labels {np.mean(labels) if labels else 0:.0f} t/trial {dt:.2f}s "
          f"plan {sum(parts.values())} = " + " + ".join(f"{k} {v}" for k, v in parts.items()))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--profile", default="desk")
    for knob in KNOBS:
        ap.add_argument(f"--{knob}", type=float, default=None)
    args = ap.parse_args()
    kn = dict(PROFILES[args.profile])
    for knob in KNOBS:
        v = getattr(args, knob)
        if v is not None:
            kn[knob] = v
    print("knobs:", kn)
    for name, gen, alg, eps in SUITES:
        bench(name, gen(), alg, eps, args.trials, kn)


if __name__ == "__main__":
    main()
