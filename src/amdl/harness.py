"""Experiment runner: dispatch to the learner a run's plan names, seeded
multi-trial Monte Carlo, normative CSV emission, sweeps, and plot-data export.

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
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import runplan
from .active import Halving, RunResult, active_large_eps, active_small_eps
from .complexity import star_number_unqualified, vc_dimension
from .core import ContractViolation, MDLInstance, _field, check_int, check_real, worst_loss
from .hedge import KNOBS, SolverConfig, mdl_hedge_vc, naive_erm_baseline
from .oracles import OracleSet, plain_family
from .rpu import active_dist_free
from .runplan import ALGORITHMS, RunPlan

SUCCESS_TOL = 1e-12

# Named knob presets.  `fidelity` is the knobs' defaults, the literal schedule
# constants (far too many rounds to execute at desk scale, kept for reference);
# `desk` preserves the schedule's shape in (eps, nu, k, d, delta) while scaling
# the constants down to desk-scale round counts.  Acceptance suites reference `desk`.
PROFILES: dict[str, dict] = {
    "fidelity": {},
    "desk": dict(c_t=3e-5, c_t1=1e-4, c_eta=50.0, c_eps1=100.0, c_n=0.1),
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
    instance: MDLInstance | None = None
    transcript_path: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.alg not in ALGORITHMS:
            raise ContractViolation(f"unknown algorithm tag {self.alg!r}")
        self.trials = check_int("trials", self.trials, 1)
        self.base_seed = check_int("base_seed", self.base_seed)
        self.workers = check_int("workers", self.workers, 1)
        if not isinstance(self.profile, str) or self.profile not in PROFILES:
            raise ContractViolation(f"unknown profile {self.profile!r}")
        path = self.transcript_path
        if path is not None and not (isinstance(path, str) and path):
            raise ContractViolation(f"transcript_path must name a file, got {path!r}")
        if not isinstance(self.knobs, Mapping):
            raise ContractViolation(f"knobs must be a mapping, got {self.knobs!r}")
        if self.instance is not None and not isinstance(self.instance, MDLInstance):
            raise ContractViolation(f"instance must be an MDLInstance, got {self.instance!r}")
        unknown = sorted(set(self.knobs) - set(KNOBS), key=str)    # keys of any type
        if unknown:
            raise ContractViolation(f"unknown solver knobs {unknown}; known: {list(KNOBS)}")

    def plan(self) -> RunPlan:
        """The run's plan from the exact nu, the VC dimension d and, for
        active-df only (the one learner that reads it, and a costly search),
        the star number s; refused when it may query more than LABEL_CEILING
        labels."""
        inst = self.instance
        if inst is None:
            raise ContractViolation("run config needs an instance")
        cls = inst.hypothesis_class
        s = star_number_unqualified(cls).value if self.alg == "active-df" else None
        cfg = SolverConfig(eps=self.eps, delta=self.delta, nu=float(inst.nu_exact()),
                           **{**PROFILES[self.profile], **self.knobs})
        p = runplan.plan(self.alg, cfg, inst.k, vc_dimension(cls).value, s)
        if p.label_bound > runplan.LABEL_CEILING:
            raise ContractViolation(f"{self.alg} at eps={self.eps!r} plans up to {p.label_bound:,}"
                                    f" labels, over the {runplan.LABEL_CEILING:,} ceiling")
        return p


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
        """The record as one CSV line, quoted only where a field holds a
        comma, a quote or a line break (an instance id or family name can)."""
        per = "|".join(str(v) for v in self.labels_per_dist)
        wall = self.wall_ms if timing else 0
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow([
            self.instance_id, self.family, self.alg, repr(self.eps),
            repr(self.delta), str(self.seed), str(self.labels_total), per,
            str(self.unlabeled), repr(self.achieved_err), repr(self.nu),
            "1" if self.success else "0", self.failure_mode, str(wall),
        ])
        return buf.getvalue()


RUN_CSV_HEADER = ",".join(f.name for f in fields(TrialRecord))


def _passive_hedge(oracles, p) -> RunResult:
    # the solver's nu parameter is the exact optimum, so its guarantee
    # precondition (supplied nu >= min-max loss) holds by construction
    cls = oracles.instance.hypothesis_class
    res = mdl_hedge_vc(cls, cls.full_version_space(), plain_family(oracles), p.solve, p.k, p.d)
    return RunResult(res.hypothesis, plan=p)


# The runner of each learner a plan names (`RunPlan.learner`).  A runner takes
# (oracles, plan): the oracle set holds the instance, and the plan the run's
# eps and delta, the exact nu and every size.  It looks its learner up as a
# global of this module when it runs, so a wrapper set on the module
# (bench/layers.py sets them) sees every trial.
RUNNERS: dict[str, Callable[..., RunResult]] = {
    "large": lambda oracles, p: active_large_eps(oracles, p),
    "small": lambda oracles, p: active_small_eps(oracles, p),
    "df": lambda oracles, p: active_dist_free(oracles, p),
    "hedge": _passive_hedge,
    "naive": lambda oracles, p: RunResult(naive_erm_baseline(oracles, p.naive_n), plan=p),
}


def can_fail(inst: MDLInstance, eps: float) -> bool:
    """Whether some member's worst-case loss fails `run_single_trial`'s success test."""
    eps = check_real("eps", eps)
    return not float(inst.worst_member_loss()) <= float(inst.nu_exact()) + eps + SUCCESS_TOL


_carried: dict | None = None    # in a sweep: seed -> (inst, plan, oracles, Halving, seconds)


def run_single_trial(inst: MDLInstance, p: RunPlan, seed: int,
                     trace: bool = False) -> tuple[TrialRecord, RunResult, OracleSet]:
    """Execute one seeded trial of the plan `p` on `inst`, whose k and nu it
    must have been planned for (in a sweep, an epoch-halving trial may go on
    from an earlier cell's); returns the record, the algorithm's result and
    the trial's oracle set (its ledger holds the transcript when `trace` is set)."""
    cfg = p.cfg
    if p.k != inst.k or cfg.nu != float(inst.nu_exact()):
        raise ContractViolation(f"a plan for k={p.k}, nu={cfg.nu!r} is not a plan for this "
                                f"instance (k={inst.k}, nu={float(inst.nu_exact())!r})")
    carry = _carried is not None and not trace and p.learner == "large"
    was, held_p, oracles, state, spent = (_carried.pop(seed, None) if carry else None) or (None,) * 5
    if not (was is inst and held_p.alg == p.alg and
            held_p.epochs[:len(state.trace)] == p.epochs[:len(state.trace)]):
        oracles, state, spent = OracleSet(inst, seed, log_transcript=trace), Halving(), 0.0
    t0 = time.perf_counter()
    res = active_large_eps(oracles, p, state) if carry else RUNNERS[p.learner](oracles, p)
    spent += time.perf_counter() - t0
    (_carried if carry else {})[seed] = (inst, p, oracles, state, spent)   # held once it returned
    wall_ms = int(round(1000.0 * spent))
    achieved = worst_loss(res.output, inst) if res.output is not None else float("nan")
    success = res.ok and achieved <= cfg.nu + cfg.eps + SUCCESS_TOL
    ledger = oracles.ledger
    rec = TrialRecord(
        instance_id=str(inst.metadata.get("instance_id", "instance")),
        family=str(inst.metadata.get("family", "unknown")),
        alg=p.alg, eps=cfg.eps, delta=cfg.delta, seed=seed,
        labels_total=ledger.label_total,
        labels_per_dist=tuple(int(v) for v in ledger.label_queries),
        unlabeled=ledger.unlabeled_total,
        achieved_err=achieved, nu=cfg.nu, success=success,
        failure_mode=res.failure_mode or "", wall_ms=wall_ms)
    return rec, res, oracles


def _trial_worker(args) -> tuple[TrialRecord, list[tuple[int, int, int, int]]]:
    inst, p, seed, trace = args
    rec, _, oracles = run_single_trial(inst, p, seed, trace)
    return rec, list(oracles.ledger.transcript) if trace else []


def run_trials(cfg: RunConfig, p: RunPlan | None = None) -> list[TrialRecord]:
    """Independent seeded trials; seeds are base_seed + trial index.

    With workers > 1 the trials run in a process pool; each trial owns its
    oracle set, and the pool returns the trials in seed order, as the serial
    loop does.  With a `transcript_path` the run writes the label
    transcript there; the records it returns leave it out.  The plan is
    built, and a run over the label ceiling refused, before any trial draws;
    a caller that has built it already passes it as `p`.
    """
    p = cfg.plan() if p is None else p
    trace = cfg.transcript_path is not None
    args = [(cfg.instance, p, cfg.base_seed + t, trace) for t in range(cfg.trials)]
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outs = list(pool.map(_trial_worker, args))
    else:
        outs = [_trial_worker(a) for a in args]
    if trace:
        with open(cfg.transcript_path, "w") as fh:
            for rec, transcript in outs:
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
    `eps_grid` = [floats].  Infeasible cells are recorded as skipped rows.  An
    entry is generated once, and its epoch-halving trials go on from cell to cell.
    """
    from .families import FamilySpec

    families, algs, grid = (_field(config, key, list, "sweep config")
                            for key in ("families", "algs", "eps_grid"))
    if any(not isinstance(fam, dict) or "family" not in fam for fam in families):
        raise ContractViolation("every sweep families entry needs a 'family' key")
    # checked, then made floats, so each row's repr(eps) and repr(delta) are a float's
    grid = [float(check_real("sweep eps_grid entry", eps)) for eps in grid]
    profile = config.get("profile", "desk")
    delta = float(check_real("sweep delta", config.get("delta", 0.1)))

    def count(key: str, default: int) -> int:
        v = config.get(key, default)    # an integral float is a count; RunConfig checks the range
        return check_int(f"sweep {key}", int(v) if type(v) is float and v.is_integer() else v, None)

    trials, base_seed = count("trials", 50), count("base_seed", 0)
    knobs = _field(config, "knobs", dict, "sweep config", required=False) or {}
    global _carried
    rows, _carried = [], {}
    try:
        for fam in families:
            made = None     # the entry's instance, made at its first cell
            for alg in algs:
                _carried.clear()    # one (families entry, alg) group at a time
                for eps in grid:
                    row = {"family": fam["family"],
                           "params": json.dumps(fam.get("params", {}), sort_keys=True),
                           "alg": alg, "eps": repr(eps), "delta": repr(delta),
                           "trials": trials, "skipped": 0, "reason": ""}
                    rows.append(row)
                    try:
                        made = made or FamilySpec(fam["family"], fam.get("params", {})).generate()
                        recs = run_trials(RunConfig(alg=alg, eps=eps, delta=delta,
                                                    trials=trials, base_seed=base_seed,
                                                    profile=profile, knobs=knobs, instance=made))
                    except ContractViolation as exc:
                        row.update(dict.fromkeys(_SWEEP_STATS, ""), skipped=1, reason=str(exc))
                        continue
                    labels = np.array([r.labels_total for r in recs], dtype=float)
                    lo, hi = _bootstrap_ci(labels, base_seed + len(rows))
                    row.update({"mean_labels": repr(float(labels.mean())),
                                "median_labels": repr(float(np.median(labels))),
                                "ci_lo": repr(lo), "ci_hi": repr(hi),
                                "success_rate": repr(float(np.mean([r.success for r in recs])))})
    finally:
        _carried = None
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
    labels vs eps, labels vs k (the rows whose params have a k), success
    rate vs eps."""
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ContractViolation("a report needs a list of sweep rows, each a mapping")
    for row in rows:
        missing = [c for c in SWEEP_CSV_HEADER if c not in row]
        if missing:
            raise ContractViolation(f"sweep row missing columns {missing}")
    live = [r for r in rows if str(r["skipped"]) in ("0", "")]
    with_k = []     # the live rows whose params have a k, with that k
    for r in live:
        params = json.loads(r["params"]) if r["params"] else {}
        if "k" in params:
            with_k.append({**r, "k": params["k"]})

    def pivot(rows: list[dict], cols: list[str]) -> str:
        # sorted by the columns before eps, then by eps as a number
        lead = cols[:cols.index("eps")]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([r[c] for c in cols]
                         for r in sorted(rows, key=lambda r: ([r[c] for c in lead], float(r["eps"]))))
        return buf.getvalue()

    return {"labels_vs_eps.csv": pivot(live, ["family", "params", "alg", "eps", "mean_labels",
                                              "ci_lo", "ci_hi"]),
            "labels_vs_k.csv": pivot(with_k, ["family", "alg", "k", "eps", "mean_labels",
                                              "ci_lo", "ci_hi"]),
            "success_vs_eps.csv": pivot(live, ["family", "params", "alg", "eps", "success_rate"])}
