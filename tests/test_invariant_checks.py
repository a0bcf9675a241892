"""Runtime invariants must survive `python -O`, which strips `assert`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import amdl

CHECKED_MODULES = sorted(path.name for path in Path(amdl.__file__).parent.glob("*.py"))


def test_every_module_is_checked():
    for name in ("core.py", "hedge.py", "active.py", "harness.py", "cli.py"):
        assert name in CHECKED_MODULES


def _raises_assertion_error(node: ast.AST) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("name", CHECKED_MODULES)
def test_module_has_no_assert_statements(name):
    path = Path(amdl.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{name} checks invariants with assert at lines {lines}"


@pytest.mark.parametrize("name", CHECKED_MODULES)
def test_module_raises_contract_violation_not_assertion_error(name):
    path = Path(amdl.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raises_assertion_error(node)]
    assert not lines, f"{name} raises AssertionError at lines {lines}"


# a solve over two candidates, which plays its rounds in chunks: every
# HedgeResult field and the ledger it leaves, as one line
_CHUNKED_SOLVE = """
import hashlib, json
import amdl
from amdl import OracleSet, plain_family
from amdl.harness import PROFILES
from amdl.hedge import SolverConfig, mdl_hedge_vc

def solve(inst, seed):
    # the k = 4 product shadow on agnostic-lb, the k = 2 threshold shadow on example1
    oracles = OracleSet(inst, seed=seed, log_transcript=True)
    res = mdl_hedge_vc(inst.hypothesis_class, (0, 1), plain_family(oracles),
                       SolverConfig(eps=0.05, delta=0.1, nu=float(inst.nu_exact()),
                                    **PROFILES["desk"]),
                       inst.k, 1)
    trace = [(t, w.tolist(), l1, n) for t, w, l1, n in oracles.ledger.solver_trace]
    return [res.rounds, res.reward_draws.tolist(), res.store_draws.tolist(),
            res.hypothesis.counts, res.hypothesis.total,
            hashlib.sha256(repr(trace).encode()).hexdigest(),
            oracles.ledger.label_queries.tolist(), len(oracles.ledger.transcript)]


SOLVE_LINE = "solve: " + json.dumps([solve(amdl.gen_agnostic_lb(4, 0.4, 0.05), 3),
                                     solve(amdl.gen_example1(0.2, 0.05, "b"), 3)])
"""

_UNDER_O = _CHUNKED_SOLVE + """
print(SOLVE_LINE)
import math
import os
import numpy as np
import amdl
from amdl import ContractViolation, OracleSet, plain_family
from amdl.core import instance_from_dict
from amdl.hedge import HedgeState, SolverConfig, hedge_step, hyperparams

assert False, "python -O keeps assert statements"   # stripped under -O
inst = amdl.gen_prop1(3, 0.2)
fam = plain_family(OracleSet(inst, seed=0))
moved = OracleSet(inst, seed=0)
served = plain_family(moved)
served.tables(inst.hypothesis_class.labels, [1, 2, 1], 5)
served.serve(1)
moved._streams[1].take(1)     # a read the blocks did not make
checks = {
    "nan reward": lambda: hedge_step(HedgeState(2), [math.nan, 0.5], 0.1),
    "negative draw": lambda: fam.draw(0, -1),
    "zero round count": lambda: fam.tables(inst.hypothesis_class.labels, [1, 0, 1], 5),
    "zero row count": lambda: fam.row(inst.hypothesis_class.labels, 0, [1, 0, 1], 1),
    "zero row cap": lambda: fam.row(inst.hypothesis_class.labels, 0, [1, 1, 1], 0),
    "nan knob": lambda: SolverConfig(eps=0.1, delta=0.1, nu=0.0, c_t=math.nan),
    "moved stream": lambda: served.serve(1),
    "fractional label": lambda: instance_from_dict(
        {"m": 1, "hypotheses": [[1.5]], "distributions": [{"marginal": [1], "eta_plus": [1]}]}),
    "ragged hypothesis": lambda: amdl.Hypothesis([[1], [1, -1]]),
    "ragged class row": lambda: amdl.HypothesisClass([[1, -1], [1]]),
    "overserved run": lambda: served.serve(5),
    "serve before tables": lambda: fam.serve(1),
    "stretch past the candidates": lambda: fam.row(inst.hypothesis_class.labels,
                                                   len(inst.hypothesis_class), [1, 1, 1], 3),
    "non-+-1 candidate": lambda: fam.row(np.zeros((1, inst.m), dtype=np.int8), 0, [1, 1, 1], 1),
    "mass of a non-mask": lambda: inst.distributions[0].mass(np.arange(inst.m)),
    "masses of a non-mask": lambda: inst.masses(np.arange(inst.m)),
    "underflowed eps": lambda: hyperparams(
        SolverConfig(eps=1e-300, delta=0.1, nu=0.0, **PROFILES["desk"]), 2, 1),
    "zero k": lambda: hyperparams(SolverConfig(eps=0.1, delta=0.1, nu=0.0), 0, 1),
    "negative d": lambda: hyperparams(SolverConfig(eps=0.1, delta=0.1, nu=0.0), 2, -1),
    "fractional k": lambda: hyperparams(SolverConfig(eps=0.1, delta=0.1, nu=0.0), 2.5, 1),
    "bool k": lambda: hyperparams(SolverConfig(eps=0.1, delta=0.1, nu=0.0), True, 1),
    "point below a hypothesis": lambda: amdl.Hypothesis([1, -1, -1])(-1),
    "point past an abstainer": lambda: amdl.AbstainingClassifier([1, 0, -1])(3),
    "negative member": lambda: amdl.agreement_labels(inst.hypothesis_class, [-1]),
    "nan target": lambda: amdl.run_trials(
        amdl.RunConfig(alg="active-dd-large", eps=math.nan, delta=0.1, instance=inst)),
    "malformed requests": lambda: fam.draw_requests([0], np.array([[1], [1]])),
    "repeated learn members": lambda: amdl.robust_rpu_learn(fam, [0, 0], 60, 4),
    "bad outputs": lambda: amdl.imputed_family(OracleSet(inst, seed=0), np.full(inst.m, 7)),
    "wrapped outputs": lambda: amdl.AbstainingClassifier(np.array([255, 0])),
    "plan ceiling": lambda: amdl.run_trials(
        amdl.RunConfig(alg="passive-naive", eps=1e-6, delta=0.1, instance=inst)),
    "another run's plan": lambda: amdl.harness.run_single_trial(
        inst, amdl.RunConfig(alg="passive-naive", eps=0.2, delta=0.1,
                             instance=amdl.gen_prop1(2, 0.1)).plan(), 0),
    "string target": lambda: SolverConfig(eps="0.1", delta=0.1, nu=0.0),
    "knobs list": lambda: amdl.sweep({"families": [], "algs": [], "eps_grid": [], "knobs": [1]}),
    "repeated request member": lambda: fam.draw_requests([0, 0], np.ones((2, 1), dtype=np.int64)),
    "string eta": lambda: hedge_step(HedgeState(2), [0.1, 0.2], "0.1"),
    "zero-weight state": lambda: HedgeState(0),
    "a view too many": lambda: amdl.surrogate_family(
        OracleSet(inst, seed=0), (0, 1), [(np.array([0]), np.array([1]))] * (inst.k + 1)),
    "non-bool realizable": lambda: amdl.gen_random(4, 3, 2, 0, realizable="no"),
    "report of no rows": lambda: amdl.harness.report(None),
    "surrogate point past m": lambda: amdl.surrogate_family(
        OracleSet(inst, seed=0), (0, 1), [(np.array([99]), np.array([1]))] * inst.k),
    "transcript descriptor": lambda: amdl.RunConfig(
        alg="passive-naive", eps=0.2, delta=0.1, instance=inst, transcript_path=os.pipe()[1]),
}
for name, check in checks.items():
    try:
        check()
    except ContractViolation:
        print("refused:", name)
"""


def test_runtime_checks_hold_under_python_O():
    # the invariants are checked by raises, so they survive -O, which drops
    # assert statements (the script's own assert False does not fire)
    src = str(Path(amdl.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env, text=True,
                         capture_output=True, timeout=120)
    assert out.returncode == 0, out.stderr
    here: dict = {}
    exec(_CHUNKED_SOLVE, here)
    assert out.stdout.splitlines() == [here["SOLVE_LINE"],
                                       "refused: nan reward", "refused: negative draw",
                                       "refused: zero round count", "refused: zero row count",
                                       "refused: zero row cap",
                                       "refused: nan knob",
                                       "refused: moved stream", "refused: fractional label",
                                       "refused: ragged hypothesis", "refused: ragged class row",
                                       "refused: overserved run",
                                       "refused: serve before tables",
                                       "refused: stretch past the candidates",
                                       "refused: non-+-1 candidate",
                                       "refused: mass of a non-mask",
                                       "refused: masses of a non-mask",
                                       "refused: underflowed eps",
                                       "refused: zero k", "refused: negative d",
                                       "refused: fractional k", "refused: bool k",
                                       "refused: point below a hypothesis",
                                       "refused: point past an abstainer",
                                       "refused: negative member", "refused: nan target",
                                       "refused: malformed requests",
                                       "refused: repeated learn members", "refused: bad outputs",
                                       "refused: wrapped outputs", "refused: plan ceiling",
                                       "refused: another run's plan",
                                       "refused: string target", "refused: knobs list",
                                       "refused: repeated request member",
                                       "refused: string eta", "refused: zero-weight state",
                                       "refused: a view too many",
                                       "refused: non-bool realizable",
                                       "refused: report of no rows",
                                       "refused: surrogate point past m",
                                       "refused: transcript descriptor"]
