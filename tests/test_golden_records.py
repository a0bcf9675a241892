"""Byte identity of run records and label transcripts for fixed seeds.

The digests pin the exact bytes the lab emits for the six criterion-4 cells
at two seeds each, and the label transcripts of five of them: all but
`example1(0.2,0.05,a)/active-dd-small`, whose transcripts the seed grid
pins.  Four more cells, records and transcripts, pin the routes no
criterion-4 cell takes: stage one of `active-dd-small` (at eps 0.5 on
`example1(0.004,0.002,a)`, where 100 nu = 0.6 < 1), both branches of
`active-dd-auto`, and `passive-naive`.  One more, `active-dd-small` on
`gen_random(6, 3, 3, 36)` at eps 0.2, solves stage two over three
candidates with one degenerate (None) and two sampled distributions, so its
rows take the surrogate pick pass.  The two cells whose solves hold two
candidates are pinned over twenty seeds as well, records and transcripts,
and so are two `active-df` cells whose robust learner runs more than once:
over eight pruning rounds on shrinking member sets, and in two epochs.  Any
change to the order in which a sampler consumes its random stream, to the
ledger, or to how a loss is rounded changes a digest; a pure speed-up must not.

The `active-dd-large` cells of `configs/sweep_scaling.json` are pinned as
well, with the version spaces and epoch trace each run keeps, so the exact
radius test that prunes them cannot drift, ties at the bound included.  The
labels, draws and transcripts of every `active-dd-large` cell are also pinned
apart from its records.

The solver's own outputs that no record shows (reward and store draws,
store sizes, play counts, traced weight rows, ledger and transcript) are
pinned per sampler family on every acceptance instance and on prop1 at k=8,
where numpy sums the weights pairwise.
"""

import hashlib
import json
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import amdl
from amdl import active
from amdl.core import disagreement_exact
from amdl.families import FamilySpec
from amdl.harness import PROFILES, RunConfig, records_to_csv, run_trials
from amdl.hedge import SolverConfig
from amdl.oracles import OracleSet

from closed_forms import support_indices

DELTA = 0.1
SEEDS = (0, 1)

CELLS = {
    "prop1(4,0.1)/active-dd-large": (lambda: amdl.gen_prop1(4, 0.1), "active-dd-large", 0.1),
    "example1(0.2,0.05,a)/active-dd-small":
        (lambda: amdl.gen_example1(0.2, 0.05, "a"), "active-dd-small", 0.05),
    "example1(0.2,0.05,b)/active-dd-small":
        (lambda: amdl.gen_example1(0.2, 0.05, "b"), "active-dd-small", 0.05),
    "star-lb(2,4,1,1)/active-df": (lambda: amdl.gen_star_lb(2, 4, 1, 1), "active-df", 0.1),
    "agnostic-lb(4,0.4,0.05)/passive-hedge":
        (lambda: amdl.gen_agnostic_lb(4, 0.4, 0.05), "passive-hedge", 0.05),
    "agnostic-lb(4,0.4,0.05)/active-dd-small":
        (lambda: amdl.gen_agnostic_lb(4, 0.4, 0.05), "active-dd-small", 0.05),
    "example1(0.004,0.002,a)/active-dd-small/0.5":
        (lambda: amdl.gen_example1(0.004, 0.002, "a"), "active-dd-small", 0.5),
    "star-lb(2,4,1,1)/active-dd-auto/0.1":
        (lambda: amdl.gen_star_lb(2, 4, 1, 1), "active-dd-auto", 0.1),
    "example1(0.2,0.05,b)/active-dd-auto/0.05":
        (lambda: amdl.gen_example1(0.2, 0.05, "b"), "active-dd-auto", 0.05),
    "agnostic-lb(4,0.4,0.05)/passive-naive/0.05":
        (lambda: amdl.gen_agnostic_lb(4, 0.4, 0.05), "passive-naive", 0.05),
    "random(6,3,3,36)/active-dd-small/0.2":
        (lambda: amdl.gen_random(6, 3, 3, 36), "active-dd-small", 0.2),
}

RECORD_SHA256 = {
    "prop1(4,0.1)/active-dd-large":
        "35ec38120f9176d84194065578d8e47f1356490e902d107244ff158c1dff0f72",
    "example1(0.2,0.05,a)/active-dd-small":
        "134f9a85005a4084e8b5bde8f8e9aacf92cc434a5b45f43967df7c95d3101900",
    "example1(0.2,0.05,b)/active-dd-small":
        "631d7ef823286820c3d9ec1e30077f98545f2407a991f28d88842dd70e5c6c58",
    "star-lb(2,4,1,1)/active-df":
        "a06677cee0042d67348bf72db262592e6497cfeab1fc65494e60bb296dc29dc0",
    "agnostic-lb(4,0.4,0.05)/passive-hedge":
        "6869be763f6afbf704e1b040e7022b11ee4aac741353aa8c9e350931ed3a1be9",
    "agnostic-lb(4,0.4,0.05)/active-dd-small":
        "54d55b439c3c59309202e33435f4a7a426acc2a5f5889459880a0fdcd2a4a09b",
    "example1(0.004,0.002,a)/active-dd-small/0.5":
        "5566d64f5333cc4378cf1210dad7c4df063dc69b545e5976d2b705fed668acfd",
    "star-lb(2,4,1,1)/active-dd-auto/0.1":
        "0fb2d8867fa46b2ca363ce72c4e1d67e413f99c7076051b59f8844900187938a",
    "example1(0.2,0.05,b)/active-dd-auto/0.05":
        "41bd4c44fedfd259280cadcca97182f84c7b21f674187a38f72f2fe06e7e174c",
    "agnostic-lb(4,0.4,0.05)/passive-naive/0.05":
        "02de5231875b9f986f583cc504109e16cd1e732f9de1ea5f21ad2e5d4febdef4",
    "random(6,3,3,36)/active-dd-small/0.2":
        "c23bda1036f4746e10f72c26624ad67c9eca5f7555a0d2f4066e1999914bd2c8",
}

TRANSCRIPT_SHA256 = {
    "prop1(4,0.1)/active-dd-large":
        "29e1a942e141247d3c3f0ec1d8417d8b6ad2a34018d69a082e920d411ce13338",
    "example1(0.2,0.05,b)/active-dd-small":
        "fb96908da6b1745dc64f8a21b83bd9863859baacbf83d8c6b3c6928918c1b719",
    "star-lb(2,4,1,1)/active-df":
        "46fd83ff021881f82d17206d9a5e101d1432965b554dd3b27836cfa3ed765a78",
    "agnostic-lb(4,0.4,0.05)/passive-hedge":
        "2faf4e06ad02846349430a53820ba4b1dcb5cf7d5e6f5890b46decf4e22bc8e0",
    "agnostic-lb(4,0.4,0.05)/active-dd-small":
        "97b83217b26933d24af4f20692fcdb5ee3e818695e07c7a55e22d1666557aa01",
    "example1(0.004,0.002,a)/active-dd-small/0.5":
        "c3808ee87e114337f21522516672db2807d04cfe8cb25d4455169375eb976df6",
    "star-lb(2,4,1,1)/active-dd-auto/0.1":
        "408fd9237769bf6c0c91903c791327e26d50dddeaf8b83c16d332af3e60cbafa",
    "example1(0.2,0.05,b)/active-dd-auto/0.05":
        "fb96908da6b1745dc64f8a21b83bd9863859baacbf83d8c6b3c6928918c1b719",
    "agnostic-lb(4,0.4,0.05)/passive-naive/0.05":
        "97b5bea8ad0b9dfc7efe3f63b7568660026b0afcac992d15aff043f1a8dba9bd",
    "random(6,3,3,36)/active-dd-small/0.2":
        "6cb2ad9a42afff4931bf5f98fee809ea4978d7be7ff702ac4805a1a252bb127d",
}


def _config(cell: str, **kw) -> RunConfig:
    gen, alg, eps = CELLS[cell]
    return RunConfig(alg=alg, eps=eps, delta=DELTA, trials=len(SEEDS),
                     base_seed=SEEDS[0], profile="desk", instance=gen(), **kw)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("cell", sorted(RECORD_SHA256))
def test_record_csv_bytes(cell):
    recs = run_trials(_config(cell))
    assert [r.seed for r in recs] == list(SEEDS)
    assert _sha256(records_to_csv(recs).encode()) == RECORD_SHA256[cell]


@pytest.mark.parametrize("cell", sorted(TRANSCRIPT_SHA256))
def test_transcript_bytes(cell, tmp_path):
    path = tmp_path / "transcript.csv"
    recs = run_trials(_config(cell, transcript_path=str(path)))
    data = path.read_bytes()
    # one line per label query, so the transcript covers every record's labels
    assert data.count(b"\n") == sum(r.labels_total for r in recs)
    assert _sha256(records_to_csv(recs).encode()) == RECORD_SHA256[cell]
    assert _sha256(data) == TRANSCRIPT_SHA256[cell]


# Records and transcripts of the two cells whose solves hold two candidates,
# over a grid of twenty seeds
SEED_GRID = tuple(range(20))

SEED_GRID_SHA256 = {
    "agnostic-lb(4,0.4,0.05)/passive-hedge":
        ("b55d19e1343ab98e71ed1be0638419cda7ac1090e675d3869ad8189ee46242b1",
         "6c221df4e73d9bbdca615e147d03f5764499e176993873dfa5d885661d610635"),
    "example1(0.2,0.05,a)/active-dd-small":
        ("ca62f7af132e8f37401926efd287a3414ff9e0dcbb5be69c38efd00a32b15d00",
         "742e9f7ed543737d14621f1bac94c7ada5a0dd51d19160fa08139f0ba0d49ab3"),
}


@pytest.mark.parametrize("cell", sorted(SEED_GRID_SHA256))
def test_seed_grid_records_and_transcripts(cell, tmp_path):
    gen, alg, eps = CELLS[cell]
    path = tmp_path / "transcript.csv"
    recs = run_trials(RunConfig(alg=alg, eps=eps, delta=DELTA, trials=len(SEED_GRID),
                                base_seed=SEED_GRID[0], profile="desk", instance=gen(),
                                transcript_path=str(path)))
    assert [r.seed for r in recs] == list(SEED_GRID)
    got = (_sha256(records_to_csv(recs).encode()), _sha256(path.read_bytes()))
    assert got == SEED_GRID_SHA256[cell]

# active-df cells whose robust learner runs more than once, records and
# transcripts: prop1(2,0.1) at eps 0.2 prunes over eight rounds on shrinking
# member sets and stalls; star-lb(2,4,1,1) at eps 0.05 learns in two epochs,
# the second over a view that commits everywhere, so it draws but queries
# nothing
RPU_CELLS = {
    "prop1(2,0.1)/active-df/0.2": (lambda: amdl.gen_prop1(2, 0.1), 0.2),
    "star-lb(2,4,1,1)/active-df/0.05": (lambda: amdl.gen_star_lb(2, 4, 1, 1), 0.05),
}

RPU_SHA256 = {
    "prop1(2,0.1)/active-df/0.2":
        ("9ee5264b1cc3e3c36eba25ddd73b28b55eaea278f621f197b2ebfd787346aac1",
         "ac1c2d0b5fcd21090296e48b626b99d6cff1a3286fce1ac410519b388afb4a21"),
    "star-lb(2,4,1,1)/active-df/0.05":
        ("bad9c5776af22860266981573b9e781d4def9582c6445215fef3e0f802b88958",
         "46fd83ff021881f82d17206d9a5e101d1432965b554dd3b27836cfa3ed765a78"),
}


@pytest.mark.parametrize("cell", sorted(RPU_CELLS))
def test_rpu_cell_records_and_transcripts(cell, tmp_path):
    gen, eps = RPU_CELLS[cell]
    path = tmp_path / "transcript.csv"
    config = partial(RunConfig, alg="active-df", eps=eps, delta=DELTA, trials=len(SEEDS),
                     base_seed=SEEDS[0], profile="desk", instance=gen())
    plain = run_trials(config())
    traced = run_trials(config(transcript_path=str(path)))
    record, transcript = RPU_SHA256[cell]
    assert _sha256(records_to_csv(plain).encode()) == record
    assert _sha256(records_to_csv(traced).encode()) == record
    assert _sha256(path.read_bytes()) == transcript


# -- active-dd-large cells of the scaling sweep ---------------------------------

SWEEP = json.loads((Path(__file__).resolve().parents[1] / "configs"
                    / "sweep_scaling.json").read_text())
SWEEP_FAMILIES = {f"{fam['family']}({','.join(map(str, fam['params'].values()))})": fam
                  for fam in SWEEP["families"]}
SWEEP_CELLS = [(name, eps) for name in SWEEP_FAMILIES for eps in SWEEP["eps_grid"]]

SWEEP_RECORD_SHA256 = {
    "star-lb(2,8,1,3)/0.2":
        "ca9de6ce7e0f7167ab5c023ab2ffae586a90ad96e77e5377bc0001b1bbb3ac8d",
    "star-lb(2,8,1,3)/0.1":
        "48e035e0a6845ff0e6e81c215bdafc729b507996566000ee1b7b87c2b1e1d4ca",
    "star-lb(2,8,1,3)/0.05":
        "1d15e3fab4815b8e4e5a033de6ae0c0730c8fddd13edb08abb727bc1bf4cd844",
    "prop1(8,0.05)/0.2":
        "90b8d4bdef293d499973bc89f362b6a0d18bb20f7a56f3761a1bb3d89cdd12d8",
    "prop1(8,0.05)/0.1":
        "89306cf4af56ef2714a81b61d3ccf8c1785fc5af981d5b7c6bcf0fcce8e3ae48",
    "prop1(8,0.05)/0.05":
        "f42c98e515a4ab97ee2d8d4ba556543ecc37b48e753fdb399598727a11b418b7",
}

SWEEP_VERSION_SPACE_SHA256 = {
    "star-lb(2,8,1,3)/0.2":
        "4cbd5e29f1832efc5266b484f98666fc02ab03ef004643ef6bdf41830ec72e05",
    "star-lb(2,8,1,3)/0.1":
        "4a4b1b47fd7384e23acc196661348a54c3cd463e23c72da41bfde2190cbb2240",
    "star-lb(2,8,1,3)/0.05":
        "f50cb08209b091720a8c9c72af83c6213e463221eefefde778f493a38af7a981",
    "prop1(8,0.05)/0.2":
        "96e8d361ec1d465f52b743595a9b46bc91fa71c98300db604ca648336091ba1b",
    "prop1(8,0.05)/0.1":
        "c3617e5e3d3aa60da506490ffa354e69bd7fdc0a30cec5f3f6f25e6d0cbad01a",
    "prop1(8,0.05)/0.05":
        "68082f1ac92cefc477ed6d2dba2bb13584bdd0fba960116de5f27b1a15644d8b",
}


def _sweep_instance(name: str) -> amdl.MDLInstance:
    fam = SWEEP_FAMILIES[name]
    return FamilySpec(fam["family"], dict(fam["params"])).generate()


def _large_eps_run(inst: amdl.MDLInstance, eps: float, seed: int):
    """One trial of `active-dd-large` exactly as `run_trials` starts it."""
    cfg = SolverConfig(eps=eps, delta=DELTA, nu=float(inst.nu_exact()),
                       **PROFILES[SWEEP["profile"]])
    d = amdl.vc_dimension(inst.hypothesis_class).value
    return active.active_large_eps(OracleSet(inst, seed), amdl.plan("active-dd-large", cfg,
                                                                          inst.k, d))


def test_sweep_cells_cover_the_config():
    assert SWEEP["algs"].count("active-dd-large") == 1
    assert SWEEP["delta"] == DELTA and SWEEP["profile"] == "desk"
    assert sorted(SWEEP_RECORD_SHA256) == sorted(f"{n}/{e}" for n, e in SWEEP_CELLS)


@pytest.mark.parametrize("name,eps", SWEEP_CELLS)
def test_sweep_large_eps_record_bytes(name, eps):
    cfg = RunConfig(alg="active-dd-large", eps=eps, delta=DELTA, trials=len(SEEDS),
                    base_seed=SEEDS[0], profile=SWEEP["profile"],
                    instance=_sweep_instance(name))
    recs = run_trials(cfg)
    assert _sha256(records_to_csv(recs).encode()) == SWEEP_RECORD_SHA256[f"{name}/{eps}"]


@pytest.mark.parametrize("name,eps", SWEEP_CELLS)
def test_sweep_large_eps_version_spaces(name, eps):
    inst = _sweep_instance(name)
    kept = []
    for seed in SEEDS:
        res = _large_eps_run(inst, eps, seed)
        kept.append((seed, res.failure_mode, res.metadata.get("version_spaces"),
                     res.trace))
    digest = _sha256(repr(kept).encode())
    assert digest == SWEEP_VERSION_SPACE_SHA256[f"{name}/{eps}"]


# Labels, draws and transcripts of every active-dd-large cell, pinned apart
# from the records: the output rule moves only achieved_err and success.
LARGE_EPS_CELLS = {
    "prop1(4,0.1)/0.1": (lambda: amdl.gen_prop1(4, 0.1), 0.1),
    **{f"{name}/{eps}": (partial(_sweep_instance, name), eps) for name, eps in SWEEP_CELLS},
}

LARGE_EPS_LEDGER_SHA256 = {
    "prop1(4,0.1)/0.1":
        ("e9eab5f4dbe3e4930c4f6b9570a4aba6b404957c1de80f7db1441d2c792fff75",
         "29e1a942e141247d3c3f0ec1d8417d8b6ad2a34018d69a082e920d411ce13338"),
    "prop1(8,0.05)/0.05":
        ("de8250a322453eb51cac0f372fb3aebd5fa615be078a54db8144e047a09d321a",
         "8137c56d0697e95ec154c0e84da7ca02415e8b32072d6cec9f247192e9d0fc9e"),
    "prop1(8,0.05)/0.1":
        ("81b22860a103d30e7e23f19abd1c43f4ffb9e36a86656d05c9f73929b317ae1c",
         "711e3ee93d5a7870433ea25eac63276ea4816ca874ae8e139c3fbc91099d41ec"),
    "prop1(8,0.05)/0.2":
        ("5c0671f1730b424934dfb066e98f63565cabb95a17aa52dbaa21b749489ac4b4",
         "b5073384f029fa1c13dbba043fa6ea493ad57ea3e423ab5b0c986a95b7403395"),
    "star-lb(2,8,1,3)/0.05":
        ("588954fd9c3b6c406a2c3d757b138298567bef5f84156b421a0387c40a6042cd",
         "c9a99f1e248a8218b84905dd00730549e377563c6449fbb0dec65b23da69d3e8"),
    "star-lb(2,8,1,3)/0.1":
        ("e51f867628b95523f5b562bd54108891168946197a1111292d19d9012d14152c",
         "d58c83f4c64da3c4e3fcdb748fcbc7c7e153b5d99badc6d2c04546095f9a5b04"),
    "star-lb(2,8,1,3)/0.2":
        ("652acb00de61dba87a336895641f06d2f19b7552b3473ffb35223b355644614b",
         "3eb2823a0cb68433f1e69c9a491de2ff30b6842f9e60bd419aab8c2d7948a386"),
}


@pytest.mark.parametrize("cell", sorted(LARGE_EPS_CELLS))
def test_large_eps_labels_draws_and_transcripts(cell, tmp_path):
    gen, eps = LARGE_EPS_CELLS[cell]
    path = tmp_path / "transcript.csv"
    recs = run_trials(RunConfig(alg="active-dd-large", eps=eps, delta=DELTA,
                                trials=len(SEEDS), base_seed=SEEDS[0], profile="desk",
                                instance=gen(), transcript_path=str(path)))
    ledger = [(r.seed, r.labels_total, r.labels_per_dist, r.unlabeled, r.failure_mode)
              for r in recs]
    got = (_sha256(repr(ledger).encode()), _sha256(path.read_bytes()))
    assert got == LARGE_EPS_LEDGER_SHA256[cell]


def test_sweep_large_eps_keeps_hypotheses_at_the_radius(monkeypatch):
    """On star-lb(2,8,1,3) at eps=0.1 some hypotheses sit exactly at the
    pruning radius 2 eps_n of the epoch mixture (epochs 3 and 4); the test
    is `rho <= 2 eps_n`, so every one of them survives the epoch."""
    inst = _sweep_instance("star-lb(2,8,1,3)")
    cls = inst.hypothesis_class
    for seed in SEEDS:
        solves = []

        def capture(cls_, V, *args, _solve=active.mdl_hedge_vc, **kw):
            res = _solve(cls_, V, *args, **kw)
            solves.append((tuple(V), res.hypothesis))
            return res

        monkeypatch.setattr(active, "mdl_hedge_vc", capture)
        run = _large_eps_run(inst, 0.1, seed)
        monkeypatch.undo()
        spaces = run.metadata["version_spaces"]
        ties = []
        for n, ((V, mix), kept) in enumerate(zip(solves, spaces), start=1):
            bound = 2 * Fraction(2) ** -n
            rho = {h: max(disagreement_exact(cls[h], mix, D) for D in inst.distributions)
                   for h in V}
            assert kept == tuple(h for h in V if rho[h] <= bound)
            at_bound = [h for h in V if rho[h] == bound]
            assert set(at_bound) <= set(kept)
            ties.append(len(at_bound))
        assert ties == [0, 0, 7, 9], seed


# -- the solver's own outputs ------------------------------------------------------

# every acceptance instance of CELLS at its cell's eps, plus prop1 at k=8
HEDGE_INSTANCES = {
    "prop1(4,0.1)": (lambda: amdl.gen_prop1(4, 0.1), 0.1),
    "example1(0.2,0.05,a)": (lambda: amdl.gen_example1(0.2, 0.05, "a"), 0.05),
    "example1(0.2,0.05,b)": (lambda: amdl.gen_example1(0.2, 0.05, "b"), 0.05),
    "star-lb(2,4,1,1)": (lambda: amdl.gen_star_lb(2, 4, 1, 1), 0.1),
    "agnostic-lb(4,0.4,0.05)": (lambda: amdl.gen_agnostic_lb(4, 0.4, 0.05), 0.05),
    "prop1(8,0.05)": (lambda: amdl.gen_prop1(8, 0.05), 0.1),
}


def _imputed_outputs(inst: amdl.MDLInstance) -> np.ndarray:
    # the first hypothesis' labels, abstaining on every third point
    out = inst.hypothesis_class.labels[0].copy()
    out[::3] = 0
    return out


def _surrogate_sample(inst: amdl.MDLInstance):
    # every point once, labeled by the last hypothesis
    return (np.arange(inst.m, dtype=np.int64), inst.hypothesis_class.labels[-1].copy())


HEDGE_FAMILIES = {
    "plain": lambda o, inst, V: amdl.plain_family(o),
    "induced": lambda o, inst, V: amdl.induced_family(o, V),
    "imputed": lambda o, inst, V: amdl.imputed_family(o, _imputed_outputs(inst)),
    "surrogate": lambda o, inst, V: amdl.surrogate_family(
        o, V, [_surrogate_sample(inst)] * inst.k),
    "surrogate-none": lambda o, inst, V: amdl.surrogate_family(
        o, V, [None] + [_surrogate_sample(inst)] * (inst.k - 1)),
}

HEDGE_RESULT_SHA256 = {
    "imputed":
        "1c5440d7d3d83f27b33a3a5ff6841e045b264e7f834743ac1e18382b35370487",
    "induced":
        "ca35830a3e719273e89546330b9187e2c11957bfae31408a9ab49fbb21dda579",
    "plain":
        "d900a3c3c43d555d56e50ea3f4f90e59dcbf0bf40b1d46c92ce1824de910d785",
    "surrogate":
        "24900ee0dc5df831611e782b8b11b934ebc4b4c34992a6a6f323217cf9e314b3",
    "surrogate-none":
        "b0eba312f1ab548b5d3f97921a4ead688c384b2948796cd3d9455c63b864f19e",
}


def _hedge_fields(inst: amdl.MDLInstance, eps: float, kind: str, seed: int) -> dict:
    """Every HedgeResult field the record digests do not cover, from one
    traced solve, with the ledger it left."""
    cls = inst.hypothesis_class
    V = tuple(range(len(cls)))
    cfg = SolverConfig(eps=eps, delta=DELTA, nu=float(inst.nu_exact()), **PROFILES["desk"])
    d = amdl.vc_dimension(cls).value
    o = OracleSet(inst, seed, log_transcript=True)
    res = amdl.mdl_hedge_vc(cls, V, HEDGE_FAMILIES[kind](o, inst, V), cfg, inst.k, d)
    return {
        "rounds": res.rounds,
        "reward_draws": [int(v) for v in res.reward_draws],
        "store_draws": [int(v) for v in res.store_draws],
        "play_counts": list(res.hypothesis.counts),
        "support": list(support_indices(res.hypothesis)),
        "trace": [(int(t), [float(v) for v in w], float(l1), int(n))
                  for t, w, l1, n in o.ledger.solver_trace],
        "labels": o.ledger.label_queries.tolist(),
        "unlabeled": o.ledger.unlabeled_draws.tolist(),
        "transcript": [tuple(int(v) for v in row) for row in o.ledger.transcript],
    }


@pytest.mark.parametrize("kind", sorted(HEDGE_FAMILIES))
def test_hedge_result_fields(kind):
    got = [(name, seed, _hedge_fields(gen(), eps, kind, seed))
           for name, (gen, eps) in sorted(HEDGE_INSTANCES.items()) for seed in SEEDS]
    assert _sha256(json.dumps(got).encode()) == HEDGE_RESULT_SHA256[kind]
