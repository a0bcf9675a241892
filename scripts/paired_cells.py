#!/usr/bin/env python3
"""Time two source trees of amdl against each other, trial by trial or sweep
by sweep or instance-scale op by op, in one process.

Loads `amdl` from A/src and from B/src, swapping `sys.modules` to the side
that runs, and plays single trials of each pac-cells cell (the cell list of
this repository's bench/workloads.py) at RunConfig(profile="desk",
delta=0.1, trials=1), seeds `--base-seed` (default 50000) on, alternating
which side runs first.  It refuses to report if the two sides' records
(`TrialRecord.csv_row()`, wall time left out) differ on any trial, or if
their label transcripts, per-distribution unlabeled draws or stream
positions (from one untimed traced trial per side) differ on any of a
cell's first 3 seeds: a record holds only the total draws.  It prints
each cell's median ms per side, the median of the per-trial B/A time
ratios, the number of paired trials in which B ran faster, and the distance
between the quartiles of A's times (0 for a single trial): what a claimed
gain must beat.  `--cells SUBSTR` (repeatable) times only the cells whose
names contain one of the given substrings; a substring that matches no cell
is refused.

With `--sweep CONFIG` it times whole `harness.sweep` calls of the JSON sweep
config instead, `--trials` of them per side, the n-th at base_seed
`--base-seed` + n, alternating as above, and prints the same columns for
them.  Each sweep runs the bench op's SWEEP_TRIALS (bench/workloads.py)
trials a cell in place of the config's own `trials`, so a sweep of
configs/sweep_scaling.json times the bench op.  It refuses to report if the
two sides' rows, or the records their `run_trials` returned to the sweep
(captured as bench/workloads.py captures them), differ on any sweep.

With `--measure` it times the instance-scale op instead: bench/workloads.py's
`measure_and_run`, loaded once per side on that side's amdl, for each class
size of its INSTANCE_ROUND, `--trials` ops per size, the n-th at seed
`--base-seed` + n, alternating as above.  It refuses to report if the two
sides' measured values or records differ on any op.

Usage: python scripts/paired_cells.py A B [--trials 200] [--base-seed 50000]
                                          [--cells SUBSTR ... | --sweep CONFIG | --measure]
"""

import argparse
import ast
import importlib
import importlib.util
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
BASE_SEED = 50_000
DELTA = 0.1
TRACED_SEEDS = 3        # the first seeds of each cell whose traced trials are compared
TRACED = ("label transcripts", "per-distribution draws", "stream positions")


def workload_constant(name: str):
    """The constant `name` of bench/workloads.py, read without importing it:
    it imports amdl, and each side needs its own."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise SystemExit(f"no {name} in {WORKLOADS}")


def pac_cells() -> list[tuple]:
    return workload_constant("PAC_CELLS")


def _amdl_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "amdl" or n.startswith("amdl.")}


@contextmanager
def _swapped(modules: dict):
    """`modules` as the amdl in `sys.modules`, the caller's own put back after."""
    saved = _amdl_modules()
    for name in saved:
        del sys.modules[name]
    sys.modules.update(modules)
    try:
        yield
    finally:
        for name in _amdl_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def load_side(tree: Path) -> dict:
    """The amdl modules of `tree`/src, imported afresh."""
    src = str(tree.resolve() / "src")
    sys.path.insert(0, src)
    try:
        with _swapped({}):
            importlib.import_module("amdl.harness")
            importlib.import_module("amdl.families")
            modules = _amdl_modules()
    finally:
        sys.path.remove(src)
    if not Path(modules["amdl"].__file__).resolve().is_relative_to(src):
        raise SystemExit(f"amdl did not load from {src}")
    return modules


def _load_workloads():
    """bench/workloads.py loaded afresh on the amdl in `sys.modules`, where it
    is listed while it runs, as its dataclasses need."""
    spec = importlib.util.spec_from_file_location("_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class Side:
    """One tree's amdl and the pac-cells instances it generated."""

    def __init__(self, tree: Path, cells: list[tuple]):
        self.modules = load_side(tree)
        self.workloads = None       # bench/workloads.py on this side's amdl, once loaded
        with _swapped(self.modules):
            spec = self.modules["amdl.families"].FamilySpec
            self.instances = [spec(family, dict(params)).generate()
                              for _, family, params, _, _ in cells]

    def _config(self, cell: tuple, inst, seed: int):
        _, _, _, alg, eps = cell
        return self.modules["amdl.harness"].RunConfig(
            alg=alg, eps=eps, delta=DELTA, trials=1, base_seed=seed, profile="desk",
            instance=inst, workers=1)

    def trial(self, cell: tuple, inst, seed: int) -> tuple[float, str]:
        """(ms, record) of one trial of `cell` at `seed`."""
        harness = self.modules["amdl.harness"]
        cfg = self._config(cell, inst, seed)
        with _swapped(self.modules):
            t0 = time.perf_counter()
            (rec,) = harness.run_trials(cfg)
            ms = (time.perf_counter() - t0) * 1e3
        return ms, rec.csv_row()

    def sweep(self, config: dict) -> tuple[float, list, list]:
        """(ms, rows, records) of one `harness.sweep` of `config`, with the
        records its cells' `run_trials` returned, as `csv_row()` lines."""
        harness = self.modules["amdl.harness"]
        run_trials, records = harness.run_trials, []

        def capture(cfg):
            recs = run_trials(cfg)
            records.extend(r.csv_row() for r in recs)
            return recs

        with _swapped(self.modules):
            harness.run_trials = capture
            try:
                t0 = time.perf_counter()
                rows = harness.sweep(config)
                ms = (time.perf_counter() - t0) * 1e3
            finally:
                harness.run_trials = run_trials
        return ms, rows, records

    def measure(self, n_hyp: int, seed: int) -> tuple[float, list]:
        """(ms, values and records) of bench/workloads.py's `measure_and_run`
        on the random class of `n_hyp` members at `seed`, the measured values
        as one JSON line and each record as its `csv_row()`."""
        with _swapped(self.modules):
            self.workloads = self.workloads or _load_workloads()
            t0 = time.perf_counter()
            out = self.workloads.measure_and_run(seed, n_hyp, seed)
            ms = (time.perf_counter() - t0) * 1e3
        return ms, [json.dumps(out.measured, sort_keys=True)] + [r.csv_row() for r, _ in out.trials]

    def traced(self, cell: tuple, inst, seed: int) -> tuple[list, list, list]:
        """What one traced trial of `cell` at `seed` leaves, in the order of
        TRACED: its label transcript, its unlabeled draws per distribution and
        the variates each stream consumed, the auxiliary stream's last."""
        cfg = self._config(cell, inst, seed)
        with _swapped(self.modules):
            _, _, oracles = self.modules["amdl.harness"].run_single_trial(
                inst, cfg.plan(), seed, trace=True)
        return (list(oracles.ledger.transcript), oracles.ledger.unlabeled_draws.tolist(),
                [s.consumed for s in (*oracles._streams, oracles._aux)])


def _quartile_spread(times: list[float]) -> float:
    if len(times) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(times, n=4)
    return q3 - q1


def _paired(a: Side, b: Side, runs: int, op, differ) -> dict:
    """`_summary` of `runs` paired runs: run t times `op(side, t)`, which gives
    (ms, *outputs), on A then B when t is even and on B then A when odd, and
    exits with the message `differ(t, outputs)` when the sides' outputs differ."""
    times, outs = {"a": [], "b": []}, {}
    for t in range(runs):
        for key, side in (("a", a), ("b", b)) if t % 2 == 0 else (("b", b), ("a", a)):
            ms, *outs[key] = op(side, t)
            times[key].append(ms)
        if outs["a"] != outs["b"]:
            raise SystemExit(differ(t, outs))
    return _summary(times, runs)


def compare(a: Side, b: Side, cells: list[tuple], trials: int,
            base_seed: int = BASE_SEED) -> dict:
    """Per cell: the median ms of each side, the median B/A ratio, the
    trials B won and the quartile spread of A's ms."""
    table = {}
    for c, cell in enumerate(cells):
        table[cell[0]] = _paired(
            a, b, trials, lambda side, t: side.trial(cell, side.instances[c], base_seed + t),
            lambda t, outs: f"{cell[0]} seed {base_seed + t}: the records differ\n"
                            f"  A: {outs['a'][0]}\n  B: {outs['b'][0]}")
        for seed in range(base_seed, base_seed + min(trials, TRACED_SEEDS)):
            for what, x, y in zip(TRACED, a.traced(cell, a.instances[c], seed),
                                  b.traced(cell, b.instances[c], seed)):
                if x != y:
                    raise SystemExit(f"{cell[0]} seed {seed}: the {what} differ")
    return table


def compare_sweeps(a: Side, b: Side, name: str, config: dict, runs: int,
                   base_seed: int = BASE_SEED) -> dict:
    """The columns of `compare` for `runs` whole sweeps of `config`, the
    n-th at base_seed + n."""
    return {name: _paired(
        a, b, runs, lambda side, t: side.sweep(dict(config, base_seed=base_seed + t)),
        lambda t, _: f"{name} base_seed {base_seed + t}: the sweep rows or records differ")}


def compare_measures(a: Side, b: Side, sizes: list[int], runs: int,
                     base_seed: int = BASE_SEED) -> dict:
    """The columns of `compare` for `runs` instance-scale ops per class size,
    the n-th at seed base_seed + n."""
    return {f"measure_and_run(|H|={n_hyp})": _paired(
        a, b, runs, lambda side, t: side.measure(n_hyp, base_seed + t),
        lambda t, _: f"|H|={n_hyp} seed {base_seed + t}: the measured values or records differ")
        for n_hyp in sizes}


def _summary(times: dict, trials: int) -> dict:
    return {
        "trials": trials,
        "a_ms_median": statistics.median(times["a"]),
        "b_ms_median": statistics.median(times["b"]),
        "median_ratio": statistics.median(y / x for x, y in zip(times["a"], times["b"])),
        "b_wins": sum(y < x for x, y in zip(times["a"], times["b"])),
        "a_iqr_ms": _quartile_spread(times["a"]),
    }


def main(argv: list[str] | None = None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="the reference tree (holds src/amdl)")
    ap.add_argument("b", type=Path, help="the tree to time against it")
    ap.add_argument("--trials", type=int, default=200,
                    help="trials per cell, or sweeps with --sweep (default 200)")
    ap.add_argument("--base-seed", type=int, default=BASE_SEED,
                    help=f"the first trial's seed (default {BASE_SEED})")
    ap.add_argument("--cells", action="append", metavar="SUBSTR",
                    help="time only the cells whose names contain SUBSTR (repeatable)")
    ap.add_argument("--sweep", type=Path, metavar="CONFIG",
                    help="time whole sweeps of this JSON sweep config, at the bench "
                         "op's SWEEP_TRIALS trials a cell, instead of trials")
    ap.add_argument("--measure", action="store_true",
                    help="time instance-scale ops (measure_and_run) instead of trials")
    args = ap.parse_args(argv)
    if args.trials < 1:
        ap.error("--trials must be at least 1")
    if args.base_seed < 0:
        ap.error("--base-seed must be at least 0")
    if args.cells and (args.sweep is not None or args.measure):
        ap.error("--cells times pac-cells trials; it does not apply to --sweep or --measure")
    if args.sweep is not None and args.measure:
        ap.error("--sweep and --measure time different ops; give one")
    if args.measure:
        sizes = sorted(set(workload_constant("INSTANCE_ROUND")))
        a, b = Side(args.a, []), Side(args.b, [])
        table = compare_measures(a, b, sizes, args.trials, args.base_seed)
        what = f"measured values and records equal on all {len(sizes) * args.trials} ops"
    elif args.sweep is not None:
        config = dict(json.loads(args.sweep.read_text()), trials=workload_constant("SWEEP_TRIALS"))
        a, b = Side(args.a, []), Side(args.b, [])
        table = compare_sweeps(a, b, str(args.sweep), config, args.trials, args.base_seed)
        what = f"rows and records equal on all {args.trials} sweeps"
    else:
        cells = pac_cells()
        for pattern in args.cells or ():
            if not any(pattern in cell[0] for cell in cells):
                ap.error(f"--cells {pattern!r} matches none of {[cell[0] for cell in cells]}")
        if args.cells:
            cells = [cell for cell in cells if any(pattern in cell[0] for pattern in args.cells)]
        a, b = Side(args.a, cells), Side(args.b, cells)
        table = compare(a, b, cells, args.trials, args.base_seed)
        what = f"records equal on all {len(cells) * args.trials} trials"
    print(f"{'cell':42s} {'trials':>6s} {'A ms':>9s} {'B ms':>9s} {'B/A':>7s} "
          f"{'B wins':>7s} {'A IQR ms':>9s}")
    for name, row in table.items():
        print(f"{name:42s} {row['trials']:6d} {row['a_ms_median']:9.3f} "
              f"{row['b_ms_median']:9.3f} {row['median_ratio']:7.3f} "
              f"{row['b_wins']:7d} {row['a_iqr_ms']:9.3f}")
    print(what)
    return table


if __name__ == "__main__":
    main()
