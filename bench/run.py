"""amdl benchmark: one closed-loop workload per run, checked and measured.

    python3 bench/run.py --workload pac-cells --seed 0 --seconds 16 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  A run runs a number of whole rounds fixed by `--seconds`
and the workload's round time, so every run of a seed runs the same ops.
With `--trace 0` the run measures the end-to-end metrics with no
instrumentation: it reads the speed gauge (speed.py) between ops and reports
times adjusted to the gauge's quiet speed, so that other tenants of a shared
host do not set them.  With `--trace 1` it measures the per-layer metrics:
it runs half as many rounds untraced, runs the same rounds again with every
layer wrapped, and requires both passes to produce the same records.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 2        # set-ups in fresh interpreters, besides the run's own
SETUP_GAUGE_CALLS = 25  # kernel calls in the gauge reading after a set-up
SETUP_GAUGE_SLOPE = 0.6  # imports slow less than the kernel on a busy host, as measured
CAP = 2.5               # no round starts after CAP times --seconds
TRACE_DIR = ".bench_trace"


def import_package():
    """Import amdl from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "amdl" / "__init__.py").is_file():
        raise SystemExit(f"error: no amdl package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import amdl
    if Path(amdl.__file__).resolve().parent != (src / "amdl").resolve():
        raise SystemExit(f"error: imported amdl from {amdl.__file__}, not {src}")


def set_up(workload: str, seed: int):
    """Imports, input generation and one warm-up op; returns the workload,
    the seconds it took and a speed gauge reading taken right after."""
    t0 = time.perf_counter()
    import_package()
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](seed, ROOT)
    with wl.session():
        wl.warm_up()
    seconds = time.perf_counter() - t0
    import speed
    return wl, seconds, speed.reading(SETUP_GAUGE_CALLS)


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time and gauge reading of the workload in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    return float(got["setup_s"]), float(got["gauge_ms"])


# -- the closed loop --------------------------------------------------------------

@dataclass
class Pass:
    """Whole rounds of ops, run back to back by one client."""

    op_ms: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)     # OpOutput, None where it raised
    round_sha: list[str] = field(default_factory=list)
    seconds: float = 0.0


def planned_rounds(wl, seconds: float) -> int:
    """Rounds that take `seconds` at the gauge's quiet speed.  The count
    depends on `seconds` only, so every run of a seed runs the same ops
    whatever the speed of the machine."""
    return max(1, round(seconds / wl.round_s))


def run_pass(wl, rounds: int, tr=None, gauge=None, cap_s: float = math.inf) -> Pass:
    """Run `rounds` rounds, starting none after `cap_s` seconds; with a
    `speed.Gauge`, read it before each op and after the last, and let the
    ops read it between their phases."""
    from workloads import records_digest
    p = Pass()
    wl.gauge = gauge
    t_start = time.perf_counter()
    for rnd in range(rounds):
        if time.perf_counter() - t_start >= cap_s:
            break
        round_outputs = []
        for label, op in wl.round(rnd):
            if gauge is not None:
                gauge.read()
                gauge.start(len(p.op_ms))
            if tr is not None:
                tr.op = len(p.op_ms)
            t0 = time.perf_counter()
            try:
                if tr is None:
                    out = op(None)
                else:
                    with tr.span("bench.op"):
                        out = op(tr)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out = None
            p.op_ms.append(1e3 * (time.perf_counter() - t0))
            if gauge is not None:
                gauge.stop()
            round_outputs.append(out)
        p.outputs.extend(round_outputs)
        p.round_sha.append(records_digest(round_outputs))
    if gauge is not None:
        gauge.read()
    wl.gauge = None
    p.seconds = time.perf_counter() - t_start
    return p


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def summarize(p: Pass) -> dict:
    """Counts and checks over every op of a pass."""
    from workloads import check_trial
    problems, failed = [], 0
    labels = trials = successes = 0
    for out in p.outputs:
        if out is None:
            failed += 1
            continue
        problems.extend(out.problems)
        if any(rec.failure_mode for rec, _ in out.trials):
            failed += 1
        for rec, inst in out.trials:
            problems.extend(check_trial(rec, inst))
            labels += rec.labels_total
            trials += 1
            successes += rec.success
    return {"ops": len(p.outputs), "failed": failed, "trials": trials,
            "labels": labels, "successes": successes, "problems": problems,
            "records_sha256": hashlib.sha256("".join(p.round_sha).encode()).hexdigest()}


def result_line(correct: bool, summary: dict, metrics: dict[str, float],
                kind: str) -> str:
    """The result, with every metric BENCHMARK.json lists under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return json.dumps({
        "correct": bool(correct), "attempted": summary["ops"], "failed": summary["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec}})


def report(name: str, summary: dict, extra: dict) -> None:
    """Detail for the reader, printed ahead of the result line."""
    info = {"workload": name, **{k: v for k, v in summary.items() if k != "problems"},
            **extra}
    print(json.dumps(info))
    for problem in summary["problems"][:20]:
        print(f"CHECK FAILED: {problem}")


def measure_untraced(args, wl, setup_main: tuple[float, float]) -> str:
    import speed
    gauge = speed.Gauge(wl.gauge_calls)
    with wl.session():
        p = run_pass(wl, planned_rounds(wl, args.seconds), gauge=gauge,
                     cap_s=CAP * args.seconds)
    s = summarize(p)
    setups = [setup_main] + [setup_probe(args.workload, args.seed)
                             for _ in range(SETUP_PROBES)]
    op_ms, adj = gauge.op_ms(len(p.op_ms), wl.gauge_slope)
    ops = s["ops"]
    raw = {"ops_per_s": ops / (sum(op_ms) / 1e3),
           "op_ms.p50": percentile(op_ms, 50),
           "op_ms.p90": percentile(op_ms, 90),
           "setup_s": statistics.median(sec for sec, _ in setups)}
    metrics = {
        "ops_per_s": ops / (sum(adj) / 1e3),
        "op_ms.p50": percentile(adj, 50),
        "op_ms.p90": percentile(adj, 90),
        "labels_per_trial": s["labels"] / max(1, s["trials"]),
        "success_rate": s["successes"] / max(1, s["trials"]),
        "ok_frac": (ops - s["failed"]) / ops,
        "setup_s": statistics.median(speed.adjust(sec, g, SETUP_GAUGE_SLOPE)
                                      for sec, g in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report(args.workload, s, {"rounds": len(p.round_sha), "op_ms.samples": ops,
                              "seconds": p.seconds, "unadjusted": raw,
                              "gauge_ms.median": statistics.median(gauge.readings),
                              "gauge_readings": len(gauge.readings),
                              "setup_s.samples": setups, "round_sha256": p.round_sha})
    correct = not s["problems"] and s["trials"] > 0
    return result_line(correct, s, metrics, "end_to_end")


def measure_traced(args, wl) -> str:
    import layers
    from tracer import Tracer
    micro = layers.micro_benchmarks(args.seed)
    with wl.session():
        rounds = planned_rounds(wl, args.seconds / 2.0)
        plain = run_pass(wl, rounds)
        with Tracer() as tr:
            layers.install(tr)
            traced = run_pass(wl, rounds, tr=tr)
    s_plain, s = summarize(plain), summarize(traced)
    metrics = layers.span_metrics(tr, s["ops"], s["labels"])
    metrics.update(micro)
    metrics["trace.untraced_ops_per_s"] = s_plain["ops"] / plain.seconds
    metrics["trace.traced_ops_per_s"] = s["ops"] / traced.seconds
    same = plain.round_sha == traced.round_sha
    if not same:
        s["problems"].append("traced records differ from untraced records")
    spans_file = write_spans(args, tr)
    report(args.workload, s, {"rounds": len(traced.round_sha),
                              "untraced_records_sha256": s_plain["records_sha256"],
                              "round_sha256": traced.round_sha,
                              "spans": len(tr), "spans_file": spans_file})
    correct = same and not s["problems"] and not s_plain["problems"] and s["trials"] > 0
    return result_line(correct, s, metrics, "per_layer")


def write_spans(args, tr) -> str:
    """All spans as columns, with the span names and the summed counts."""
    import numpy as np
    out = ROOT / TRACE_DIR / f"{args.workload}-seed{args.seed}.npz"
    out.parent.mkdir(exist_ok=True)
    meta = {"names": tr.names, "errors": sorted(tr.errors), "counts": tr.counts}
    np.savez_compressed(out, meta=np.array(json.dumps(meta)), **tr.columns())
    return str(out.relative_to(ROOT))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pac-cells", "sweep-scaling", "instance-scale"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, and print the set-up time")
    args = ap.parse_args(argv)
    wl, setup_s, gauge_ms = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "gauge_ms": gauge_ms}))
        return 0
    line = measure_traced(args, wl) if args.trace else \
        measure_untraced(args, wl, (setup_s, gauge_ms))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
