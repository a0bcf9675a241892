"""What the package imports: the product path loads numpy and the standard
library only, and `pyproject.toml` declares exactly what `src/amdl` imports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amdl"
TEST_ONLY = ("scipy", "hypothesis", "pytest")


def _imported_in_fresh_interpreter(*args: str) -> set[str]:
    """Top-level names of every module a fresh `python -X importtime <args>`
    imports, with the package on PYTHONPATH=src."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, text=True,
                         capture_output=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return {line.rsplit("|", 1)[1].strip().split(".")[0]
            for line in out.stderr.splitlines() if line.startswith("import time:")}


@pytest.mark.parametrize("args", [("-c", "import amdl"), ("-m", "amdl.cli", "--help")],
                         ids=["import-amdl", "cli-help"])
def test_product_path_loads_no_test_dependency(args):
    loaded = _imported_in_fresh_interpreter(*args)
    assert "numpy" in loaded and "amdl" in loaded  # the probe sees the imports
    assert loaded.isdisjoint(TEST_ONLY), sorted(loaded.intersection(TEST_ONLY))


def _requirement_name(spec: str) -> str:
    return re.match(r"[A-Za-z0-9._-]+", spec).group().lower()


def test_declared_dependencies_are_what_the_package_imports():
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"amdl"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert third_party == {_requirement_name(d) for d in project["dependencies"]}
    assert "scipy" in {_requirement_name(d)
                       for d in project["optional-dependencies"]["test"]}


# `amdl.__all__` is every public name the package imports, so adding or dropping
# an import changes the API; this pin makes that change a visible diff
PUBLIC_API = [
    "ALGORITHMS", "AbstainingClassifier", "ComplexityValue", "ContractViolation",
    "DegenerateAgreementRegion", "FamilySpec", "HedgeResult", "HedgeState", "Hypothesis",
    "HypothesisClass", "LABEL_CEILING", "LabeledDistribution", "MDLInstance", "OracleSet",
    "PROFILES", "QueryLedger", "RandomizedHypothesis", "RunConfig", "RunPlan", "RunResult",
    "SamplerFamily", "SeparationReport", "SolverConfig", "TrialRecord", "active",
    "active_dist_free", "active_large_eps", "active_small_eps", "agreement_labels",
    "batch_size", "best_nu", "can_fail", "complexity", "core", "disagreement_coefficient",
    "families", "gen_agnostic_lb", "gen_example1", "gen_prop1", "gen_random", "gen_star_lb",
    "harness", "hedge", "hedge_step", "hyperparams", "imputed_family", "induced_family",
    "instance_from_dict", "instance_to_dict", "kl_bernoulli", "load_instance", "mdl_hedge_vc",
    "mixture_distribution", "naive_erm_baseline", "oracles", "passive_rpu_mdl",
    "plain_family", "plan", "records_to_csv", "report", "robust_rpu_learn", "rpu",
    "run_trials", "runplan", "save_instance", "star_number", "star_number_unqualified",
    "surrogate_family", "sweep", "sweep_to_csv", "threshold_majority", "vc_dimension",
    "verify_separation", "worst_loss",
]


def test_public_api_is_pinned():
    import amdl
    assert sorted(amdl.__all__) == PUBLIC_API
