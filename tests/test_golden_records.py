"""Byte identity of run records and label transcripts for fixed seeds.

The digests pin the exact bytes the lab emits for the six criterion-4 cells
at two seeds each, and the label transcripts of two of them.  Any change to
the order in which a sampler consumes its random stream, to the ledger, or
to how a loss is rounded changes a digest; a pure speed-up must not.
"""

import hashlib

import pytest

import amdl
from amdl.harness import RunConfig, records_to_csv, run_trials

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
}

TRANSCRIPT_SHA256 = {
    "prop1(4,0.1)/active-dd-large":
        "29e1a942e141247d3c3f0ec1d8417d8b6ad2a34018d69a082e920d411ce13338",
    "agnostic-lb(4,0.4,0.05)/passive-hedge":
        "2faf4e06ad02846349430a53820ba4b1dcb5cf7d5e6f5890b46decf4e22bc8e0",
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
    recs = run_trials(_config(cell, trace=True, transcript_path=str(path)))
    data = path.read_bytes()
    # one line per label query, so the transcript covers every record's labels
    assert data.count(b"\n") == sum(r.labels_total for r in recs)
    assert _sha256(records_to_csv(recs).encode()) == RECORD_SHA256[cell]
    assert _sha256(data) == TRANSCRIPT_SHA256[cell]
