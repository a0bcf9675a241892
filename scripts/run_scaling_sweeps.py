#!/usr/bin/env python3
"""Label-complexity scaling sweeps over the benchmark families.

Reproduces two headline shapes at desk scale and writes both the raw sweep
CSV and the per-figure plot-data series:
  - epoch-halving active learner vs ln(1/eps) on the star family, beside the
    naive passive baseline on the same star-lb cells,
  - two-stage active learner vs k on the agnostic family, beside
    passive-hedge.

Usage: python scripts/run_scaling_sweeps.py --outdir results [--trials 50]
"""

import argparse
import json
import os

import numpy as np

from amdl.harness import report, sweep, sweep_to_csv


def scaling_config(trials: int) -> dict:
    return {
        "profile": "desk",
        "delta": 0.1,
        "trials": trials,
        "base_seed": 0,
        "families": [
            {"family": "star-lb", "params": {"k": 2, "theta": 8, "i": 1, "j": 3}},
        ],
        "algs": ["active-dd-large", "passive-naive"],
        "eps_grid": [0.2, 0.1, 0.05],
    }


def k_sweep_config(trials: int) -> dict:
    return {
        "profile": "desk",
        "delta": 0.1,
        "trials": trials,
        "base_seed": 0,
        "families": [
            {"family": "agnostic-lb", "params": {"k": k, "nu": 0.4, "eps": 0.05}}
            for k in (2, 4, 8)
        ],
        "algs": ["active-dd-small", "passive-hedge"],
        "eps_grid": [0.05],
    }


def fit_log_slope(eps: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    x = np.log(1.0 / eps)
    slope, icpt = np.polyfit(x, labels, 1)
    pred = slope * x + icpt
    r2 = 1.0 - ((labels - pred) ** 2).sum() / ((labels - labels.mean()) ** 2).sum()
    return slope, r2


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--trials", type=int, default=50)
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    rows = sweep(scaling_config(args.trials))
    rows += sweep(k_sweep_config(args.trials))
    sweep_path = os.path.join(args.outdir, "scaling_sweep.csv")
    with open(sweep_path, "w") as fh:
        fh.write(sweep_to_csv(rows))
    for name, text in report(rows).items():
        with open(os.path.join(args.outdir, name), "w") as fh:
            fh.write(text)

    star = [r for r in rows if r["family"] == "star-lb"
            and r["alg"] == "active-dd-large" and not r["skipped"]]
    eps = np.array([float(r["eps"]) for r in star])
    labels = np.array([float(r["mean_labels"]) for r in star])
    slope, r2 = fit_log_slope(eps, labels)
    print(f"star-lb / epoch-halving: labels vs ln(1/eps) slope={slope:.1f} R2={r2:.4f}")

    agn = [r for r in rows if r["family"] == "agnostic-lb"
           and r["alg"] == "active-dd-small" and not r["skipped"]]
    ks = np.array([json.loads(r["params"])["k"] for r in agn], dtype=float)
    lab = np.array([float(r["mean_labels"]) for r in agn])
    order = np.argsort(ks)
    expo = np.polyfit(np.log(ks[order]), np.log(lab[order]), 1)[0]
    print(f"agnostic-lb / two-stage: labels vs k log-log exponent={expo:.3f}")
    print(f"wrote {sweep_path} and plot series to {args.outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
