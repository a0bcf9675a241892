"""The benchmark's three closed-loop workloads over the public amdl API.

One client runs one op at a time; the next op starts when the previous one
returns.  Ops are grouped in rounds with a fixed mix, and a run measures
whole rounds, so every run has the same share of each cell.  Every input is
derived from the workload seed.  See README.md for why each workload and mix
was chosen.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from amdl import complexity, core, harness
from amdl.families import FamilySpec
from amdl.harness import RunConfig, TrialRecord

DELTA = 0.1
SUCCESS_TOL = 1e-12


def trial_seed(seed: int, rnd: int, slot: int) -> int:
    """Seed of the op in `slot` of round `rnd`; distinct for every op of a run."""
    return seed * 1_000_000 + rnd * 100 + slot


WARM_UP_ROUND = 9_999


@dataclass
class OpOutput:
    """What one op returned: (record, instance) pairs, any sweep rows and any
    measured complexity values."""

    trials: list[tuple[TrialRecord, core.MDLInstance]] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    measured: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _run_config(inst, alg: str, eps: float, trials: int, base_seed: int) -> RunConfig:
    # workers=1: a process pool on a small machine would measure the scheduler
    return RunConfig(alg=alg, eps=eps, delta=DELTA, trials=trials,
                     base_seed=base_seed, profile="desk", instance=inst, workers=1)


def _trials_op(inst, alg: str, eps: float, trials: int, base_seed: int) -> OpOutput:
    recs = harness.run_trials(_run_config(inst, alg, eps, trials, base_seed))
    out = OpOutput(trials=[(r, inst) for r in recs])
    if [r.seed for r in recs] != [base_seed + t for t in range(trials)]:
        out.problems.append(f"run_trials returned seeds {[r.seed for r in recs]}")
    return out


# -- pac-cells ------------------------------------------------------------------

PAC_CELLS = (
    ("prop1(4,0.1)/active-dd-large", "prop1", {"k": 4, "eps": 0.1},
     "active-dd-large", 0.1),
    ("example1(0.2,0.05,a)/active-dd-small", "example1",
     {"nu_prime": 0.2, "eps": 0.05, "case": "a"}, "active-dd-small", 0.05),
    ("example1(0.2,0.05,b)/active-dd-small", "example1",
     {"nu_prime": 0.2, "eps": 0.05, "case": "b"}, "active-dd-small", 0.05),
    ("star-lb(2,4,1,1)/active-df", "star-lb", {"k": 2, "theta": 4, "i": 1, "j": 1},
     "active-df", 0.1),
    ("agnostic-lb(4,0.4,0.05)/passive-hedge", "agnostic-lb",
     {"k": 4, "nu": 0.4, "eps": 0.05}, "passive-hedge", 0.05),
    ("agnostic-lb(4,0.4,0.05)/active-dd-small", "agnostic-lb",
     {"k": 4, "nu": 0.4, "eps": 0.05}, "active-dd-small", 0.05),
)
# One round: prop1 (~25 ms) twice, star-lb (~50 ms) once, passive-hedge
# (~70 ms) fourteen times and the three slow cells (~300-500 ms) once each.
# Twenty ops a round put the median in the middle of the passive-hedge times
# and p90 in the middle of the two example1 cells, whose times move by a few
# per cent from seed to seed, instead of on the gap between two cells or
# among the agnostic active-dd-small times, which move by half.
PAC_ROUND = (0, 0, 3) + (4,) * 14 + (1, 2, 5)


class PacCells:
    """op = one trial of a criterion-4 acceptance cell at its acceptance
    parameters."""

    name = "pac-cells"
    round_s = 1.25      # seconds a round takes at the speed gauge's quiet speed,
                        # roughly: it sets only how many rounds a run plans.
                        # 1.5 s as measured; 1.25 plans 13 rounds in the
                        # benchmark's 16 s, enough slow-cell trials for p90
    gauge_calls = 3     # kernel calls per gauge reading
    gauge_slope = 1.0   # log-log slope of op time on gauge reading, as measured
    gauge = None        # the run's speed.Gauge while one is measuring

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        made: dict[str, core.MDLInstance] = {}
        self.instances = []
        for _, family, params, _, _ in PAC_CELLS:
            key = family + json.dumps(params, sort_keys=True)
            if key not in made:
                made[key] = FamilySpec(family, dict(params)).generate()
            self.instances.append(made[key])

    @contextmanager
    def session(self):
        yield

    def _op(self, cell: int, base_seed: int):
        _, _, _, alg, eps = PAC_CELLS[cell]
        inst = self.instances[cell]
        return lambda tr: _trials_op(inst, alg, eps, 1, base_seed)

    def warm_up(self) -> None:
        self._op(PAC_ROUND[0], trial_seed(self.seed, WARM_UP_ROUND, 0))(None)

    def round(self, rnd: int):
        return [(PAC_CELLS[c][0], self._op(c, trial_seed(self.seed, rnd, slot)))
                for slot, c in enumerate(PAC_ROUND)]


# -- sweep-scaling --------------------------------------------------------------

SWEEP_CONFIG = "configs/sweep_scaling.json"
SWEEP_TRIALS = 5


class SweepScaling:
    """op = one harness.sweep over every cell of the repo's scaling sweep
    config, as `amdl sweep` runs it, at SWEEP_TRIALS trials per cell."""

    name = "sweep-scaling"
    round_s = 1.0
    gauge_calls = 5
    gauge_slope = 0.85
    gauge = None

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.config = json.loads((root / SWEEP_CONFIG).read_text())
        self._captured: list = []

    @contextmanager
    def session(self):
        """harness.sweep returns only aggregated rows; capture the records
        behind each row so they can be checked too.  A sweep takes about a
        second, so the speed gauge is also read after each of its cells."""
        orig = harness.run_trials

        def run_trials(cfg):
            recs = orig(cfg)
            self._captured.append((cfg.instance, recs))
            if self.gauge is not None:
                self.gauge.read()
            return recs

        harness.run_trials = run_trials
        try:
            yield
        finally:
            harness.run_trials = orig

    def _op(self, config: dict, base_seed: int):
        def op(tr) -> OpOutput:
            self._captured.clear()
            rows = harness.sweep(dict(config, trials=SWEEP_TRIALS, base_seed=base_seed))
            out = OpOutput(rows=rows)
            for inst, recs in self._captured:
                out.trials.extend((r, inst) for r in recs)
            out.problems.extend(_check_sweep_rows(rows, self._captured))
            return out
        return op

    def warm_up(self) -> None:
        cell = dict(self.config, families=self.config["families"][:1],
                    algs=["passive-naive"], eps_grid=self.config["eps_grid"][:1])
        self._op(cell, trial_seed(self.seed, WARM_UP_ROUND, 0))(None)

    def round(self, rnd: int):
        return [(SWEEP_CONFIG, self._op(self.config, trial_seed(self.seed, rnd, 0)))]


def _check_sweep_rows(rows: list[dict], captured: list) -> list[str]:
    """Each row must aggregate exactly the records run behind it."""
    if len(rows) != len(captured):
        return [f"{len(rows)} sweep rows from {len(captured)} runs"]
    problems = []
    for row, (_, recs) in zip(rows, captured):
        if int(row["skipped"]):
            problems.append(f"sweep cell skipped: {row['reason']}")
            continue
        labels = np.array([r.labels_total for r in recs], dtype=float)
        want = {"trials": len(recs),
                "mean_labels": repr(float(labels.mean())),
                "success_rate": repr(float(np.mean([r.success for r in recs])))}
        problems.extend(f"sweep row {row['family']}/{row['alg']}/eps={row['eps']}: "
                        f"{key}={row[key]!r}, records give {val!r}"
                        for key, val in want.items() if row[key] != val)
    return problems


# -- instance-scale -------------------------------------------------------------

INSTANCE_M = 10
INSTANCE_K = 4
MEASURE_R0 = 0.05
MEASURE_VC_CAP = 12
RUN_EPS = 0.2
RUN_TRIALS = 4
# Two |H|=128 instances and one |H|=256 instance per round: the median falls
# among the smaller instances and p90 among the larger ones, not between them.
INSTANCE_ROUND = (128, 128, 256)


def measure_and_run(gen_seed: int, n_hyp: int, base_seed: int, tr=None,
                    gauge=None) -> OpOutput:
    """What `amdl measure` computes for a seeded random instance, then a short
    passive-hedge run.  With a tracer, the benchmark's own calls into
    `core` and `complexity` are recorded as spans.  With a speed gauge, it is
    read between the three phases, each of which takes about a second."""
    def call(name, fn, *args, after=None):
        return fn(*args) if tr is None else tr.wrapped(fn, name, after=after)(*args)

    inst = FamilySpec("random", {"m": INSTANCE_M, "n_hyp": n_hyp, "k": INSTANCE_K,
                                 "seed": gen_seed}).generate()
    cls = inst.hypothesis_class
    h_best, nu = call("core.best_nu", core.best_nu, inst)
    vc = call("complexity.vc_dimension", complexity.vc_dimension, cls, MEASURE_VC_CAP)
    st = call("complexity.star_number", complexity.star_number, cls, h_best,
              after=star_counts)
    st_any = call("complexity.star_number_unqualified",
                  complexity.star_number_unqualified, cls, after=star_counts)
    if gauge is not None:
        gauge.read()
    thetas = [call("complexity.theta", complexity.disagreement_coefficient,
                   d, cls, h_best, MEASURE_R0) for d in inst.distributions]
    if gauge is not None:
        gauge.read()
    out = _trials_op(inst, "passive-hedge", RUN_EPS, RUN_TRIALS, base_seed)
    out.measured = {"nu": nu, "vc": vc.value, "star": st.value,
                    "star_unqualified": st_any.value, "theta": thetas}
    if nu != float(inst.nu_exact()):
        out.problems.append(f"best_nu {nu!r} != nu_exact {float(inst.nu_exact())!r}")
    if not vc.lower_bound_only and 2 ** vc.value > len(cls):
        out.problems.append(f"vc_dimension {vc.value} exceeds log2 |H|")
    if not st_any.lower_bound_only and st.value > st_any.value:
        out.problems.append(f"star number {st.value} > unqualified {st_any.value}")
    if any(not 0 <= t * MEASURE_R0 <= 1 for t in thetas):
        out.problems.append(f"theta outside [0, 1/r0]: {thetas}")
    return out


def star_counts(args, kwargs, result, pre) -> dict:
    return {"lower_bound_only": int(result.lower_bound_only)}


class InstanceScale:
    """op = one seeded random instance: measure it, then run a few trials."""

    name = "instance-scale"
    round_s = 4.0       # 5 s as measured; 4 plans four rounds in the benchmark's 16 s
    gauge_calls = 25
    gauge_slope = 0.8
    gauge = None

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    @contextmanager
    def session(self):
        yield

    def warm_up(self) -> None:
        s = trial_seed(self.seed, WARM_UP_ROUND, 0)
        measure_and_run(s, 16, s)

    def round(self, rnd: int):
        ops = []
        for slot, n_hyp in enumerate(INSTANCE_ROUND):
            s = trial_seed(self.seed, rnd, slot)
            ops.append((f"random(m={INSTANCE_M},|H|={n_hyp},k={INSTANCE_K})",
                        lambda tr, s=s, n=n_hyp: measure_and_run(s, n, s, tr, self.gauge)))
        return ops


WORKLOADS = {w.name: w for w in (PacCells, SweepScaling, InstanceScale)}


# -- output checks --------------------------------------------------------------

def check_trial(rec: TrialRecord, inst: core.MDLInstance) -> list[str]:
    """Re-derive what a record claims from the record and the exact instance."""
    problems = []
    if rec.labels_total != sum(rec.labels_per_dist):
        problems.append("labels_total != sum(labels_per_dist)")
    if rec.nu != float(inst.nu_exact()):
        problems.append(f"nu {rec.nu!r} != exact {float(inst.nu_exact())!r}")
    want = rec.failure_mode == "" and rec.achieved_err <= rec.nu + rec.eps + SUCCESS_TOL
    if rec.success != want:
        problems.append(f"success {rec.success} but error {rec.achieved_err!r}, "
                        f"nu {rec.nu!r}, eps {rec.eps!r}, failure {rec.failure_mode!r}")
    return [f"seed {rec.seed}: {p}" for p in problems]


def records_digest(outputs: list[OpOutput | None]) -> str:
    """sha256 of the records, sweep rows and measured values of a run of ops,
    in op order."""
    h = hashlib.sha256()
    for out in outputs:
        if out is None:
            h.update(b"raised\n")
            continue
        for rec, _ in out.trials:
            h.update((rec.csv_row() + "\n").encode())
        for row in out.rows + [out.measured]:
            h.update((json.dumps(row, sort_keys=True) + "\n").encode())
    return h.hexdigest()
