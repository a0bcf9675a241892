"""Experiment runner: algorithm dispatch, seeded multi-trial Monte Carlo,
normative CSV emission, sweep orchestration, and plot-data export.

Success is judged against the exact achieved worst-case error (the simulator
knows the pmfs), never against a held-out estimate.  Emitted bytes are fully
determined by (instance file, run config); wall time is therefore suppressed
(written as 0) unless timing is explicitly requested.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .active import RunResult, active_large_eps, active_small_eps, regime_dispatch
from .complexity import star_number_unqualified, vc_dimension
from .core import ContractViolation, MDLInstance, load_instance, worst_loss
from .hedge import KNOBS, SolverConfig, mdl_hedge_vc, naive_erm_baseline
from .oracles import OracleSet, plain_family
from .rpu import active_dist_free

SUCCESS_TOL = 1e-12

RUN_CSV_HEADER = ("instance_id,family,alg,eps,delta,seed,labels_total,"
                  "labels_per_dist,unlabeled,achieved_err,nu,success,"
                  "failure_mode,wall_ms")

# Named knob presets.  `fidelity` keeps the literal schedule constants (far too
# many rounds to execute at desk scale, kept for reference); `desk` preserves
# the schedule's shape in (eps, nu, k, d, delta) while scaling the constants
# down to desk-scale round counts.  Acceptance suites reference `desk`.
PROFILES: dict[str, dict] = {
    "fidelity": dict(c_t=1.0, c_t1=1.0, c_eta=1.0, c_eps1=1.0, c_n=1.0, c_naive=1.0),
    "desk": dict(c_t=3e-5, c_t1=1e-4, c_eta=50.0, c_eps1=100.0, c_n=0.1,
                 c_naive=1.0),
}


@dataclass
class RunConfig:
    """One metered experiment: an instance, an algorithm, and trial control."""

    alg: str
    eps: float
    delta: float
    trials: int = 1
    base_seed: int = 0
    profile: str = "desk"
    knobs: dict = field(default_factory=dict)
    instance_path: str | None = None
    instance: MDLInstance | None = None
    trace: bool = False
    transcript_path: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.alg not in ALGORITHMS:
            raise ContractViolation(f"unknown algorithm tag {self.alg!r}")
        if self.trials < 1:
            raise ContractViolation("trials must be >= 1")
        if self.base_seed < 0:
            raise ContractViolation(f"base_seed must be >= 0, got {self.base_seed}")
        if not isinstance(self.profile, str) or self.profile not in PROFILES:
            raise ContractViolation(f"unknown profile {self.profile!r}")
        if self.workers < 1:
            raise ContractViolation(f"workers must be >= 1, got {self.workers}")
        unknown = sorted(set(self.knobs) - set(KNOBS))
        if unknown:
            raise ContractViolation(f"unknown solver knobs {unknown}; known: {list(KNOBS)}")

    def load(self) -> MDLInstance:
        if self.instance is None:
            if self.instance_path is None:
                raise ContractViolation("run config needs an instance or a path")
            self.instance = load_instance(self.instance_path)
        return self.instance

    def solver_knobs(self) -> dict:
        kn = dict(PROFILES[self.profile])
        kn.update(self.knobs)
        return kn


@dataclass
class TrialRecord:
    instance_id: str
    family: str
    alg: str
    eps: float
    delta: float
    seed: int
    labels_total: int
    labels_per_dist: tuple[int, ...]
    unlabeled: int
    achieved_err: float
    nu: float
    success: bool
    failure_mode: str
    wall_ms: int

    def csv_row(self, timing: bool = False) -> str:
        per = "|".join(str(v) for v in self.labels_per_dist)
        wall = self.wall_ms if timing else 0
        return ",".join([
            self.instance_id, self.family, self.alg, repr(self.eps),
            repr(self.delta), str(self.seed), str(self.labels_total), per,
            str(self.unlabeled), repr(self.achieved_err), repr(self.nu),
            "1" if self.success else "0", self.failure_mode, str(wall),
        ])


def _instance_stats(inst: MDLInstance, alg: str) -> dict:
    """The instance constants `alg` reads: nu and the VC dimension d for every
    algorithm, the star number s only for active-df, the one that uses it."""
    cls = inst.hypothesis_class
    stats = {"nu": float(inst.nu_exact()), "d": vc_dimension(cls).value}
    if alg == "active-df":
        stats["s"] = star_number_unqualified(cls).value
    return stats


def _passive_hedge(inst, oracles, cfg, solver_cfg, stats) -> RunResult:
    # the solver's nu parameter is the exact optimum, so its guarantee
    # precondition (supplied nu >= min-max loss) holds by construction
    cls = inst.hypothesis_class
    res = mdl_hedge_vc(cls, cls.full_version_space(), plain_family(oracles), solver_cfg,
                       inst.k, stats["d"])
    return RunResult(res.hypothesis, metadata={"solver": res})


def _passive_naive(inst, oracles, cfg, solver_cfg, stats) -> RunResult:
    h, n_per = naive_erm_baseline(inst, oracles, cfg.eps, cfg.delta, stats["d"], solver_cfg)
    return RunResult(h, metadata={"samples_per_dist": n_per})


# Every runner takes (inst, oracles, cfg, solver_cfg, stats) and looks its
# learner up as a global of this module when it runs, so a wrapper set on the
# module (bench/layers.py sets them) sees every trial.
RUNNERS: dict[str, Callable[..., RunResult]] = {
    "active-dd-large": lambda inst, oracles, cfg, solver_cfg, stats: active_large_eps(
        inst, oracles, cfg.eps, cfg.delta, solver_cfg, d=stats["d"]),
    "active-dd-small": lambda inst, oracles, cfg, solver_cfg, stats: active_small_eps(
        inst, oracles, cfg.eps, cfg.delta, stats["nu"], solver_cfg, d=stats["d"]),
    "active-dd-auto": lambda inst, oracles, cfg, solver_cfg, stats: regime_dispatch(
        inst, oracles, cfg.eps, cfg.delta, solver_cfg, d=stats["d"]),
    "active-df": lambda inst, oracles, cfg, solver_cfg, stats: active_dist_free(
        inst, oracles, cfg.eps, cfg.delta, stats["s"], stats["d"], solver_cfg),
    "passive-hedge": _passive_hedge,
    "passive-naive": _passive_naive,
}

ALGORITHMS = tuple(RUNNERS)


def run_single_trial(inst: MDLInstance, cfg: RunConfig, seed: int,
                     stats: dict) -> tuple[TrialRecord, RunResult, OracleSet]:
    """Execute one seeded trial; returns the record, the algorithm's result and
    the trial's oracle set (its ledger holds the label transcript)."""
    nu = stats["nu"]
    oracles = OracleSet(inst, seed, log_transcript=cfg.trace)
    solver_cfg = SolverConfig(eps=cfg.eps, delta=cfg.delta, nu=nu, **cfg.solver_knobs())
    t0 = time.perf_counter()
    res = RUNNERS[cfg.alg](inst, oracles, cfg, solver_cfg, stats)
    wall_ms = int(round(1000.0 * (time.perf_counter() - t0)))
    achieved = worst_loss(res.output, inst) if res.output is not None else float("nan")
    success = res.ok and achieved <= nu + cfg.eps + SUCCESS_TOL
    ledger = oracles.ledger
    rec = TrialRecord(
        instance_id=str(inst.metadata.get("instance_id", "instance")),
        family=str(inst.metadata.get("family", "unknown")),
        alg=cfg.alg, eps=cfg.eps, delta=cfg.delta, seed=seed,
        labels_total=ledger.label_total,
        labels_per_dist=tuple(int(v) for v in ledger.label_queries),
        unlabeled=ledger.unlabeled_total,
        achieved_err=achieved, nu=nu, success=success,
        failure_mode=res.failure_mode or "", wall_ms=wall_ms)
    if rec.labels_total != sum(rec.labels_per_dist):
        raise ContractViolation("ledger total disagrees with its per-distribution counts")
    return rec, res, oracles


def _trial_worker(args) -> tuple[TrialRecord, list[tuple[int, int, int, int]]]:
    inst, cfg, seed, stats = args
    rec, _, oracles = run_single_trial(inst, cfg, seed, stats)
    transcript = list(oracles.ledger.transcript) if cfg.trace else []
    return rec, transcript


def run_trials(cfg: RunConfig) -> list[TrialRecord]:
    """Independent seeded trials; seeds are base_seed + trial index.

    With workers > 1 the trials run in a process pool; each trial owns its
    oracle set and records are re-sorted by seed, so aggregation is
    order-independent.
    """
    inst = cfg.load()
    stats = _instance_stats(inst, cfg.alg)
    seeds = [cfg.base_seed + t for t in range(cfg.trials)]
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outs = list(pool.map(_trial_worker,
                                 [(inst, cfg, s, stats) for s in seeds]))
    else:
        outs = [_trial_worker((inst, cfg, s, stats)) for s in seeds]
    outs.sort(key=lambda pair: pair[0].seed)
    if cfg.trace and cfg.transcript_path:
        with open(cfg.transcript_path, "w") as fh:
            for trial, (rec, transcript) in enumerate(outs):
                for (i, x, y, cum) in transcript:
                    fh.write(f"{rec.seed},{i},{x},{y},{cum}\n")
    return [rec for rec, _ in outs]


def records_to_csv(records: list[TrialRecord], timing: bool = False) -> str:
    lines = [RUN_CSV_HEADER]
    lines.extend(r.csv_row(timing=timing) for r in records)
    return "\n".join(lines) + "\n"


# -- sweeps --------------------------------------------------------------------

SWEEP_CSV_HEADER = ["family", "params", "alg", "eps", "delta", "trials",
                    "mean_labels", "median_labels", "ci_lo", "ci_hi",
                    "success_rate", "skipped", "reason"]


def _bootstrap_ci(values: np.ndarray, seed: int, reps: int = 1000) -> tuple[float, float]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, values.size]))
    means = np.sort(rng.choice(values, size=(reps, values.size), replace=True).mean(axis=1))
    return float(means[int(0.025 * reps)]), float(means[int(0.975 * reps) - 1])


def sweep(config: dict) -> list[dict]:
    """Cartesian sweep over (family cells) x (algorithms) x (eps grid).

    Config schema (JSON): profile, delta, trials, base_seed, optional knobs,
    `families` = [{"family": tag, "params": {...}}], `algs` = [tags],
    `eps_grid` = [floats].  Infeasible cells are recorded as skipped rows.
    """
    from .families import FamilySpec

    if not isinstance(config, dict):
        raise ContractViolation(f"sweep config must be a mapping, got {config!r}")
    missing = [key for key in ("families", "algs", "eps_grid") if key not in config]
    if missing:
        raise ContractViolation(f"sweep config is missing {missing}")
    for key in ("families", "algs"):
        if not isinstance(config[key], list):
            raise ContractViolation(f"sweep {key} must be a list, got {config[key]!r}")
    if any(not isinstance(fam, dict) or "family" not in fam for fam in config["families"]):
        raise ContractViolation("every sweep families entry needs a 'family' key")
    grid = config["eps_grid"]
    if not isinstance(grid, list) or not all(
            isinstance(eps, (int, float)) and not isinstance(eps, bool) for eps in grid):
        raise ContractViolation(f"sweep eps_grid must be a list of numbers, got {grid!r}")
    profile = config.get("profile", "desk")
    try:
        delta = float(config.get("delta", 0.1))
        trials = int(config.get("trials", 50))
        base_seed = int(config.get("base_seed", 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractViolation(f"sweep delta, trials and base_seed must be numbers: {exc}") from exc
    knobs = config.get("knobs", {})
    if not isinstance(knobs, dict):
        raise ContractViolation(f"sweep knobs must be a mapping, got {knobs!r}")
    rows = []
    cell_index = 0
    for fam in config["families"]:
        for alg in config["algs"]:
            for eps in config["eps_grid"]:
                cell_index += 1
                params_json = json.dumps(fam.get("params", {}), sort_keys=True)
                base_row = {
                    "family": fam["family"], "params": params_json, "alg": alg,
                    "eps": repr(float(eps)), "delta": repr(delta),
                    "trials": trials, "skipped": 0, "reason": "",
                }
                try:
                    inst = FamilySpec(fam["family"], fam.get("params", {})).generate()
                    cfg = RunConfig(alg=alg, eps=float(eps), delta=delta,
                                    trials=trials, base_seed=base_seed,
                                    profile=profile, knobs=knobs, instance=inst)
                    recs = run_trials(cfg)
                except ContractViolation as exc:
                    base_row.update({"mean_labels": "", "median_labels": "",
                                     "ci_lo": "", "ci_hi": "", "success_rate": "",
                                     "skipped": 1, "reason": str(exc)})
                    rows.append(base_row)
                    continue
                labels = np.array([r.labels_total for r in recs], dtype=float)
                lo, hi = _bootstrap_ci(labels, base_seed + cell_index)
                base_row.update({
                    "mean_labels": repr(float(labels.mean())),
                    "median_labels": repr(float(np.median(labels))),
                    "ci_lo": repr(lo), "ci_hi": repr(hi),
                    "success_rate": repr(float(np.mean([r.success for r in recs]))),
                })
                rows.append(base_row)
    return rows


def sweep_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# the statistics a live sweep row holds and a skipped row leaves empty
_SWEEP_STATS = ("mean_labels", "median_labels", "ci_lo", "ci_hi", "success_rate")


def _check_sweep_row(n: int, row: dict) -> None:
    """Refuse, naming data row `n` and the field, a row with too few or too
    many fields, a `skipped` flag other than 0 or 1, `params` that are not
    JSON (on a live row, an object whose `k`, if any, is an integer), or a
    non-numeric eps, delta, trials or, on a live row, statistic."""
    def refuse(name: str, what: str):
        raise ContractViolation(f"sweep CSV row {n} field {name!r} must be {what}, "
                                f"got {row[name]!r}")
    if None in row:
        raise ContractViolation(f"sweep CSV row {n} has extra fields {row[None]!r}")
    missing = [name for name in SWEEP_CSV_HEADER if row[name] is None]
    if missing:
        raise ContractViolation(f"sweep CSV row {n} is missing fields {missing}")
    if row["skipped"] not in ("0", "1"):
        refuse("skipped", "0 or 1")
    live = row["skipped"] == "0"
    try:
        params = json.loads(row["params"])
    except (ValueError, RecursionError):
        refuse("params", "JSON")
    if live and not (isinstance(params, dict) and type(params.get("k", 0)) is int):
        refuse("params", "a JSON object with an integer k, if any, on a live row")
    for name in ("eps", "delta", "trials") + (_SWEEP_STATS if live else ()):
        try:
            (int if name == "trials" else float)(row[name])
        except ValueError:
            refuse(name, "an integer" if name == "trials" else "a number")


def sweep_from_csv(text: str) -> list[dict]:
    """The rows of a sweep CSV, each checked by `_check_sweep_row`."""
    try:
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames != SWEEP_CSV_HEADER:
            raise ContractViolation(
                f"sweep CSV schema mismatch: {reader.fieldnames} != {SWEEP_CSV_HEADER}")
        rows = list(reader)
    except csv.Error as exc:
        raise ContractViolation(f"sweep CSV is not readable CSV: {exc}") from exc
    for n, row in enumerate(rows, 1):
        _check_sweep_row(n, row)
    return rows


def report(rows: list[dict]) -> dict[str, str]:
    """Pivot a sweep into per-figure plain-CSV series (no rendering):
    labels vs eps, labels vs k, success rate vs eps."""
    for row in rows:
        missing = [c for c in SWEEP_CSV_HEADER if c not in row]
        if missing:
            raise ContractViolation(f"sweep row missing columns {missing}")
    live = [r for r in rows if str(r["skipped"]) in ("0", "")]

    def emit(cols: list[str], data: list[list]) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows(data)
        return buf.getvalue()

    def series(cols: list[str], key_fn) -> str:
        data = [[r[c] for c in cols] for r in sorted(live, key=key_fn)]
        return emit(cols, data)

    labels_vs_eps = series(["family", "params", "alg", "eps", "mean_labels",
                            "ci_lo", "ci_hi"],
                           lambda r: (r["family"], r["params"], r["alg"], float(r["eps"])))
    k_rows = []
    for r in live:
        params = json.loads(r["params"]) if r["params"] else {}
        if "k" in params:
            k_rows.append((params["k"], r))
    k_data = [[r["family"], r["alg"], kk, r["eps"], r["mean_labels"],
               r["ci_lo"], r["ci_hi"]]
              for kk, r in sorted(k_rows, key=lambda t: (t[1]["family"], t[1]["alg"],
                                                         t[0], float(t[1]["eps"])))]
    labels_vs_k = emit(["family", "alg", "k", "eps", "mean_labels", "ci_lo", "ci_hi"],
                       k_data)
    success_vs_eps = series(["family", "params", "alg", "eps", "success_rate"],
                            lambda r: (r["family"], r["params"], r["alg"], float(r["eps"])))
    return {"labels_vs_eps.csv": labels_vs_eps,
            "labels_vs_k.csv": labels_vs_k,
            "success_vs_eps.csv": success_vs_eps}
