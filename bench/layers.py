"""Per-layer numbers: where the tracer hooks into amdl, what each span
counts, the metrics computed from the spans, and the layer micro-benchmarks.

A span's layer is the part of its name before the first dot.  Times named
`*_ms` are totals per op, so they add up towards `op_ms`; `*_us` and `*_ns`
are per call or per sample; counts are per op unless the name is a ratio.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from amdl import active, complexity, core, families, harness, hedge, oracles, rpu
from amdl.harness import PROFILES
from tracer import Tracer
from workloads import star_counts


def _draw_counts(args, kwargs, result, pre):
    return {"pairs": int(args[2])}


def _ledger_before(args, kwargs):
    oset, i = args[0], args[1]
    return int(oset.ledger.unlabeled_draws[i])


def _cond_agree_counts(args, kwargs, result, before):
    oset, i = args[0], args[1]
    return {"accepted": int(result[0].size),
            "unlabeled": int(oset.ledger.unlabeled_draws[i]) - before}


def _hedge_counts(args, kwargs, result, pre):
    return {"rounds": int(result.rounds),
            "store_draws": int(result.store_draws.sum()),
            "reward_draws": int(result.reward_draws.sum())}


def _epoch_counts(args, kwargs, result, pre):
    return {"epochs": len(result.trace)}


def _agreement_counts(args, kwargs, result, pre):
    return {"agreement_labels": int(result.metadata.get("agreement_label_cost", 0))}


def _prune_counts(args, kwargs, result, pre):
    return {"prune_rounds": int(result.rounds)}


def install(tr: Tracer) -> None:
    """Wrap every name a workload reaches, at each module that looks it up."""
    for mod in (harness, active, rpu):
        tr.install(mod, "mdl_hedge_vc", "hedge.solve", after=_hedge_counts)
    for mod in (harness, active):
        tr.install(mod, "active_large_eps", "active.large_eps", after=_epoch_counts)
    tr.install(harness, "active_small_eps", "active.small_eps", after=_agreement_counts)
    tr.install(harness, "active_dist_free", "rpu.dist_free")
    tr.install(harness, "naive_erm_baseline", "hedge.naive_erm")
    tr.install(harness, "worst_loss", "core.worst_loss")
    tr.install(harness, "vc_dimension", "complexity.vc_dimension")
    tr.install(harness, "star_number_unqualified", "complexity.star_number_unqualified",
               after=star_counts)
    tr.install(harness, "run_single_trial", "harness.trial")
    tr.install(harness, "run_trials", "harness.run_trials")
    tr.install(harness, "sweep", "harness.sweep")
    tr.install(rpu, "robust_rpu_learn", "rpu.learn")
    tr.install(rpu, "passive_rpu_mdl", "rpu.prune", after=_prune_counts)
    tr.install(oracles.SamplerFamily, "draw", "oracles.draw", after=_draw_counts)
    tr.install(oracles.OracleSet, "sample_conditional_agreement", "oracles.cond_agree",
               before=_ledger_before, after=_cond_agree_counts)
    tr.install(core.MDLInstance, "pair_disagreement_exact", "core.pair_dis")
    tr.install(core.MDLInstance, "nu_exact", "core.nu")
    tr.install(families.FamilySpec, "generate", "families.generate")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(tr: Tracer, ops: int, labels: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `ops` ops whose records hold
    `labels` label queries in all."""
    cols = tr.columns()
    ids = cols["name_id"]
    dur = cols["end"] - cols["start"]
    n = defaultdict(int)
    total = defaultdict(int)        # ns, inclusive
    own = defaultdict(int)          # ns, self
    layer_self = defaultdict(int)
    for nid, name in enumerate(tr.names):
        sel = ids == nid
        n[name] = int(sel.sum())
        total[name] = int(dur[sel].sum())
        own[name] = int(cols["self_ns"][sel].sum())
        layer_self[name.split(".")[0]] += own[name]
    attr = defaultdict(int, tr.counts)
    per_op = lambda v: _ratio(v, ops)
    ms = lambda ns: per_op(ns) / 1e6
    star = ("complexity.star_number", "complexity.star_number_unqualified")
    return {
        "oracles.draw_calls": per_op(n["oracles.draw"]),
        "oracles.draw_us": _ratio(own["oracles.draw"], n["oracles.draw"]) / 1e3,
        "oracles.pairs_per_call": _ratio(attr["pairs"], n["oracles.draw"]),
        # label queries made through the samplers; the agreement-region
        # estimate buys its labels outside them
        "oracles.label_fraction": _ratio(labels - attr["accepted"], attr["pairs"]),
        "oracles.cond_agree_ms": ms(total["oracles.cond_agree"]),
        "oracles.cond_agree_accept_ratio": _ratio(attr["accepted"], attr["unlabeled"]),
        "hedge.solves": per_op(n["hedge.solve"]),
        "hedge.rounds": per_op(attr["rounds"]),
        "hedge.round_us": _ratio(own["hedge.solve"], attr["rounds"]) / 1e3,
        "hedge.solve_ms": ms(total["hedge.solve"]),
        "hedge.self_ms": ms(layer_self["hedge"]),
        "hedge.store_draws": per_op(attr["store_draws"]),
        "hedge.reward_draws": per_op(attr["reward_draws"]),
        "active.self_ms": ms(layer_self["active"]),
        "active.epochs": per_op(attr["epochs"]),
        "active.agreement_label_share": _ratio(attr["agreement_labels"], labels),
        "rpu.learn_ms": ms(total["rpu.learn"]),
        "rpu.self_ms": ms(layer_self["rpu"]),
        "rpu.prune_rounds": per_op(attr["prune_rounds"]),
        "core.pair_dis_calls": per_op(n["core.pair_dis"]),
        "core.pair_dis_ms": ms(total["core.pair_dis"]),
        "core.worst_loss_ms": ms(total["core.worst_loss"]),
        "core.nu_ms": ms(total["core.nu"] + total["core.best_nu"]),
        "complexity.star_ms": ms(sum(total[s] for s in star)),
        "complexity.star_calls": per_op(sum(n[s] for s in star)),
        "complexity.star_lower_bound_only": per_op(attr["lower_bound_only"]),
        "complexity.vc_ms": ms(total["complexity.vc_dimension"]),
        "complexity.theta_ms": ms(total["complexity.theta"]),
        "families.gen_ms": ms(total["families.generate"]),
        "harness.trial_self_ms": ms(own["harness.trial"]),
        "harness.sweep_self_ms": ms(own["harness.sweep"]),
    }


# -- micro-benchmarks (untraced) --------------------------------------------------

BULK_SAMPLES = 1_000_000
SINGLE_CALLS = 20_000
HEDGE_REPEATS = 3


def micro_benchmarks(seed: int) -> dict[str, float]:
    """Oracle cost per sample in bulk and per single-pair call, and the full
    cost of one Hedge round at k=4 on the agnostic lower-bound instance."""
    inst = families.gen_agnostic_lb(4, 0.4, 0.05)
    oset = oracles.OracleSet(inst, seed)
    t0 = time.perf_counter_ns()
    oset.draw_labeled_batch(0, BULK_SAMPLES)
    bulk = (time.perf_counter_ns() - t0) / BULK_SAMPLES
    fam = oracles.plain_family(oset)
    t0 = time.perf_counter_ns()
    for j in range(SINGLE_CALLS):
        fam.draw(j % inst.k, 1)
    call = (time.perf_counter_ns() - t0) / SINGLE_CALLS / 1e3
    nu = float(inst.nu_exact())
    cfg = hedge.SolverConfig(eps=0.05, delta=0.1, nu=nu, **PROFILES["desk"])
    cls = inst.hypothesis_class
    d = complexity.vc_dimension(cls).value
    rounds = []
    for rep in range(HEDGE_REPEATS):
        fam = oracles.plain_family(oracles.OracleSet(inst, seed + rep))
        t0 = time.perf_counter_ns()
        res = hedge.mdl_hedge_vc(cls, cls.full_version_space(), fam, cfg, inst.k, d)
        rounds.append((time.perf_counter_ns() - t0) / res.rounds / 1e3)
    return {"oracles.bulk_ns_per_sample": bulk, "oracles.call_us": call,
            "hedge.micro_round_us": statistics.median(rounds)}
