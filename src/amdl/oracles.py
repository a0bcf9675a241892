"""Metered sampling access: free unlabeled draws, counted label queries.

Interaction model: per distribution i there is an example oracle (unlabeled
draws, free but counted) and a labeling oracle (the metered resource).  On top
of the raw oracles sit the label-efficient samplers: version-space-imputed,
abstain-imputed, surrogate, and conditional-agreement sampling.

RNG layout (documented split order): SeedSequence(seed).spawn(k + 1); child i
< k is distribution i's stream, child k is the auxiliary stream used only for
mixture-component selection.  All draws pull blocks from a buffered uniform
source per stream, so identical seed + identical call sequence gives an
identical transcript.

Consumption order (the contract every sampler keeps): a request for n pairs
from distribution i takes, from stream i,
  1. n point variates, one per drawn point, in draw order;
  2. one label variate per queried point, in draw order (plain sampling
     queries every point, the imputing samplers only the points they cannot
     impute);
  3. surrogate sampling only: one pick variate per non-queried point, in draw
     order, choosing a uniform element of the pre-labeled sample S_i.
A request reads no other stream, so a solver round may serve its k requests
in one call (`SamplerFamily.round_losses`) and consume exactly what k
separate `draw` calls in index order would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .core import ContractViolation, MDLInstance, agreement_labels


class DegenerateAgreementRegion(RuntimeError):
    """Conditional-agreement sampling was asked for a zero-mass agreement region."""


class _Uniforms:
    """Buffered uniform(0,1) source over one Generator; deterministic blocks."""

    __slots__ = ("rng", "buf", "pos", "block")

    def __init__(self, rng: np.random.Generator, block: int = 4096):
        self.rng = rng
        self.buf = rng.random(block)
        self.pos = 0
        self.block = block

    def take(self, n: int) -> np.ndarray:
        """The next n variates: a view of the buffer when it holds them (not
        to be written into), a fresh array only across a refill."""
        pos = self.pos
        end = pos + n
        if end <= self.buf.size:
            self.pos = end
            return self.buf[pos:end]
        out = np.empty(n)
        got = 0
        while got < n:
            avail = self.buf.size - self.pos
            if avail == 0:
                self.buf = self.rng.random(max(self.block, n - got))
                self.pos = 0
                avail = self.buf.size
            use = min(avail, n - got)
            out[got:got + use] = self.buf[self.pos:self.pos + use]
            self.pos += use
            got += use
        return out


@dataclass
class QueryLedger:
    """Per-run counters of label queries and unlabeled draws, per distribution."""

    k: int
    log_transcript: bool = False
    label_queries: np.ndarray = field(init=False)
    unlabeled_draws: np.ndarray = field(init=False)
    transcript: list = field(init=False)

    def __post_init__(self):
        self.label_queries = np.zeros(self.k, dtype=np.int64)
        self.unlabeled_draws = np.zeros(self.k, dtype=np.int64)
        self.transcript = []

    @property
    def label_total(self) -> int:
        return int(self.label_queries.sum())

    @property
    def unlabeled_total(self) -> int:
        return int(self.unlabeled_draws.sum())


_SIGN = np.array([-1, 1], dtype=np.int8)   # _SIGN[u < eta_plus[x]] is the label


def _check_surrogate_sample(sample: tuple[np.ndarray, np.ndarray]) -> None:
    if sample[0].size == 0:
        raise ContractViolation("surrogate sampling needs a non-empty pre-labeled sample")


class OracleSet:
    """Sampling access to one instance for one run, with a shared ledger."""

    def __init__(self, instance: MDLInstance, seed: int, log_transcript: bool = False):
        self.instance = instance
        self.seed = seed
        k = instance.k
        children = np.random.SeedSequence(seed).spawn(k + 1)
        self._streams = [_Uniforms(np.random.default_rng(c)) for c in children[:k]]
        self._aux = _Uniforms(np.random.default_rng(children[k]))
        self._cdf = [d.cdf for d in instance.distributions]
        self._eta = [d.eta_f for d in instance.distributions]
        self.ledger = QueryLedger(k, log_transcript)
        self._view_cache: dict = {}

    # -- raw oracles --------------------------------------------------------

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.instance.k:
            raise ContractViolation(f"distribution index {i} out of range")

    def _points(self, i: int, n: int) -> np.ndarray:
        """The example oracle: n points from n point variates of stream i."""
        xs = self._cdf[i].searchsorted(self._streams[i].take(n), side="right")
        self.ledger.unlabeled_draws[i] += n
        return xs

    def draw_unlabeled_batch(self, i: int, n: int) -> np.ndarray:
        self._check_index(i)
        return self._points(i, n)

    def draw_unlabeled(self, i: int) -> int:
        return int(self.draw_unlabeled_batch(i, 1)[0])

    def _labels_for(self, i: int, xs: np.ndarray) -> np.ndarray:
        """The labeling oracle: y = +1 with probability eta_plus[x]."""
        n = xs.size
        u = self._streams[i].take(n)
        ys = _SIGN[(u < self._eta[i][xs]).view(np.int8)]
        ledger = self.ledger
        ledger.label_queries[i] += n
        if ledger.log_transcript:
            cum = int(ledger.label_queries.sum())
            ledger.transcript.extend(zip(repeat(i, n), xs.tolist(), ys.tolist(),
                                         range(cum - n + 1, cum + 1)))
        return ys

    def query_label(self, i: int, x: int) -> int:
        self._check_index(i)
        return int(self._labels_for(i, np.array([x]))[0])

    # -- per-family pair primitives: n pairs from stream i, in the documented
    # consumption order; the batch samplers and the sampler families share them

    def _plain_pairs(self, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        xs = self._points(i, n)
        return xs, self._labels_for(i, xs)

    def _induced_pairs(self, view: tuple[np.ndarray, np.ndarray], i: int,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
        dis_mask, agr = view
        xs = self._points(i, n)
        ys = agr[xs]
        need = dis_mask[xs]
        if need.any():
            ys[need] = self._labels_for(i, xs[need])
        return xs, ys

    def _imputed_pairs(self, outputs: np.ndarray, i: int,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
        xs = self._points(i, n)
        ys = outputs[xs]
        need = ys == 0
        if need.any():
            ys[need] = self._labels_for(i, xs[need])
        return xs, ys

    def _surrogate_pairs(self, dis_mask: np.ndarray, sample: tuple[np.ndarray, np.ndarray],
                         i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        sx, sy = sample
        xs = self._points(i, n)
        ys = np.empty(n, dtype=np.int8)
        need = dis_mask[xs]
        if need.any():
            ys[need] = self._labels_for(i, xs[need])
        resample = ~need
        cnt = np.count_nonzero(resample)
        if cnt:
            u = self._streams[i].take(cnt)
            idx = np.minimum((u * sx.size).astype(np.int64), sx.size - 1)
            xs[resample] = sx[idx]
            ys[resample] = sy[idx]
        return xs, ys

    def draw_labeled_batch(self, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Plain labeled sampling: every pair costs one label query."""
        self._check_index(i)
        return self._plain_pairs(i, n)

    # -- version-space / classifier views ------------------------------------

    def _vs_view(self, version_space: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        key = tuple(version_space)
        got = self._view_cache.get(key)
        if got is None:
            cls = self.instance.hypothesis_class
            agr = agreement_labels(cls, key)
            dis_mask = agr == 0
            got = (dis_mask, agr)
            self._view_cache[key] = got
        return got

    # -- label-efficient samplers --------------------------------------------

    def sample_induced_batch(self, i: int, version_space: Sequence[int],
                             n: int) -> tuple[np.ndarray, np.ndarray]:
        """Version-space-imputed sampling: query only inside DIS(V), impute the
        unanimous label outside."""
        self._check_index(i)
        return self._induced_pairs(self._vs_view(version_space), i, n)

    def sample_induced(self, i: int, version_space: Sequence[int]) -> tuple[int, int]:
        xs, ys = self.sample_induced_batch(i, version_space, 1)
        return int(xs[0]), int(ys[0])

    def sample_imputed_batch(self, i: int, outputs: np.ndarray,
                             n: int) -> tuple[np.ndarray, np.ndarray]:
        """Abstaining-classifier-imputed sampling: query only where the
        classifier abstains."""
        self._check_index(i)
        return self._imputed_pairs(np.asarray(outputs, dtype=np.int8), i, n)

    def sample_imputed(self, i: int, outputs: np.ndarray) -> tuple[int, int]:
        xs, ys = self.sample_imputed_batch(i, outputs, 1)
        return int(xs[0]), int(ys[0])

    def sample_surrogate_batch(self, i: int, version_space: Sequence[int],
                               sample: tuple[np.ndarray, np.ndarray],
                               n: int) -> tuple[np.ndarray, np.ndarray]:
        """Surrogate sampling: fresh labeled draws inside DIS(V0); outside,
        discard the draw and return a uniform element of the pre-labeled S_i."""
        self._check_index(i)
        _check_surrogate_sample(sample)
        dis_mask, _ = self._vs_view(version_space)
        return self._surrogate_pairs(dis_mask, sample, i, n)

    def sample_surrogate(self, i: int, version_space: Sequence[int],
                         sample: tuple[np.ndarray, np.ndarray]) -> tuple[int, int]:
        xs, ys = self.sample_surrogate_batch(i, version_space, sample, 1)
        return int(xs[0]), int(ys[0])

    def sample_conditional_agreement(self, i: int, version_space: Sequence[int],
                                     n: int) -> tuple[np.ndarray, np.ndarray]:
        """n iid labeled pairs from D_i conditioned on the agreement region, by
        rejection; costs exactly n label queries, rejections count as unlabeled
        draws only (exactly the geometric number, no overshoot)."""
        self._check_index(i)
        dis_mask, _ = self._vs_view(version_space)
        d = self.instance.distributions[i]
        agr_pts = [x for x in range(d.m) if not dis_mask[x]]
        if d.mass_exact(agr_pts) == 0:
            raise DegenerateAgreementRegion(
                f"distribution {i} puts zero mass on the agreement region")
        stream = self._streams[i]
        out = np.empty(n, dtype=np.int64)
        got = 0
        while got < n:
            if stream.pos == stream.buf.size:
                stream.buf = stream.rng.random(max(stream.block, 2 * (n - got)))
                stream.pos = 0
            block = stream.buf[stream.pos:]
            xs = np.searchsorted(d.cdf, block, side="right").astype(np.int64)
            acc = ~dis_mask[xs]
            cum = np.cumsum(acc)
            need = n - got
            if cum.size and cum[-1] >= need:
                cut = int(np.searchsorted(cum, need)) + 1
                sel = xs[:cut][acc[:cut]]
                out[got:got + need] = sel
                stream.pos += cut
                self.ledger.unlabeled_draws[i] += cut
                got = n
            else:
                cnt = int(cum[-1]) if cum.size else 0
                if cnt:
                    out[got:got + cnt] = xs[acc]
                    got += cnt
                self.ledger.unlabeled_draws[i] += xs.size
                stream.pos = stream.buf.size
        ys = self._labels_for(i, out)
        return out, ys

    def aux_choice_batch(self, n: int, size: int) -> np.ndarray:
        """n uniform picks from range(size) on the auxiliary stream."""
        u = self._aux.take(n)
        return np.minimum((u * size).astype(np.int64), size - 1)


# -- sampler families ---------------------------------------------------------

PairSource = Callable[[int], tuple[np.ndarray, np.ndarray]]


class SamplerFamily:
    """A per-distribution (x, y) source injected into the solvers.

    `draw(i, n)` returns n pairs from distribution i; `round_losses` serves a
    whole solver round in one call.  `calls[i]` counts pairs drawn, which lets
    the solvers reconcile their own accounting against the ledger.
    """

    def __init__(self, sources: Sequence[PairSource], kind: str):
        self.k = len(sources)
        self._sources = tuple(sources)
        self.kind = kind
        self.calls = np.zeros(self.k, dtype=np.int64)

    def draw(self, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= i < self.k:
            raise ContractViolation(f"distribution index {i} out of range")
        self.calls[i] += n
        return self._sources[i](n)

    def round_losses(self, row: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Empirical loss of the label row `row` on counts[i] fresh pairs from
        each distribution i, unbiased for the sampled distribution.  The pairs
        are exactly those of `draw(i, counts[i])` for i = 0..k-1 in turn."""
        ns = counts.tolist()
        if len(ns) != self.k or min(ns) < 1:
            raise ContractViolation("a round needs at least one draw from every distribution")
        losses = np.empty(self.k)
        for i, (source, n) in enumerate(zip(self._sources, ns)):
            xs, ys = source(n)
            losses[i] = np.count_nonzero(row[xs] != ys) / n
        self.calls += counts
        return losses

    @property
    def total_calls(self) -> int:
        return int(self.calls.sum())


def plain_family(oracles: OracleSet) -> SamplerFamily:
    return SamplerFamily([partial(oracles._plain_pairs, i)
                          for i in range(oracles.instance.k)], "plain")


def induced_family(oracles: OracleSet, version_space: Sequence[int]) -> SamplerFamily:
    view = oracles._vs_view(version_space)
    return SamplerFamily([partial(oracles._induced_pairs, view, i)
                          for i in range(oracles.instance.k)], "induced")


def imputed_family(oracles: OracleSet, outputs: np.ndarray) -> SamplerFamily:
    outs = np.asarray(outputs, dtype=np.int8)
    return SamplerFamily([partial(oracles._imputed_pairs, outs, i)
                          for i in range(oracles.instance.k)], "imputed")


def surrogate_family(oracles: OracleSet, version_space: Sequence[int],
                     samples: Sequence[tuple[np.ndarray, np.ndarray] | None]) -> SamplerFamily:
    """Surrogate draws per distribution; a None sample means the agreement
    region has zero mass there, in which case the surrogate equals the raw
    distribution and fresh labeled draws are used (flagged by the caller)."""
    dis_mask, _ = oracles._vs_view(version_space)
    sources = []
    for i, sample in enumerate(samples):
        if sample is None:
            sources.append(partial(oracles._plain_pairs, i))
        else:
            _check_surrogate_sample(sample)
            sources.append(partial(oracles._surrogate_pairs, dis_mask, sample, i))
    return SamplerFamily(sources, "surrogate")
