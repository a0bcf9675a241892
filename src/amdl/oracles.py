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

Two paths keep that order.  `draw`, store growth and the public `*_batch`
samplers work on numpy arrays.  A solver round is a handful of pairs, so
`round_losses` runs on Python scalars instead: each family has a scalar
round source that reads the same variates through the stream's float view,
finds a point by `bisect_right` on the cdf (as `searchsorted(side="right")`
does), labels it +1 when `u < eta_plus[x]`, and picks surrogate element
`min(int(u * size), size - 1)`.  Both paths give the same pairs, ledger
counts and transcript lines.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .core import ContractViolation, MDLInstance, agreement_labels


class DegenerateAgreementRegion(RuntimeError):
    """Conditional-agreement sampling was asked for a zero-mass agreement region."""


class _Uniforms:
    """Buffered uniform(0,1) source over one Generator; deterministic blocks.

    `take` serves arrays and `floats` Python floats from one position, so
    any mix of requests reads the generator's variates in order.  `floats`
    reads a list mirror of at most `block` buffered values, never of a whole
    oversized refill."""

    __slots__ = ("rng", "buf", "pos", "block", "_mirror", "_mirror_pos")

    def __init__(self, rng: np.random.Generator, block: int = 4096):
        self.rng = rng
        self.block = block
        self.refill(block)

    def refill(self, size: int) -> None:
        """Replace the buffer with the generator's next `size` variates."""
        self.buf = self.rng.random(size)
        self.pos = 0
        self._mirror: list[float] = []
        self._mirror_pos = 0     # buffer position of _mirror[0]

    def floats(self, n: int) -> list[float]:
        """The next n variates as Python floats: the values `take(n)` would
        return."""
        pos = self.pos
        off = pos - self._mirror_pos
        end = off + n
        if end > len(self._mirror):
            if n > self.block or pos + n > self.buf.size:
                return self.take(n).tolist()
            self._mirror = self.buf[pos:pos + self.block].tolist()
            self._mirror_pos = pos
            off, end = 0, n
        self.pos = pos + n
        return self._mirror[off:end]

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
                self.refill(max(self.block, n - got))
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


def _imputed_view(outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An abstaining classifier's outputs as (abstains, labels)."""
    outs = np.asarray(outputs, dtype=np.int8)
    return outs == 0, outs


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
        self._cdf_list = [c.tolist() for c in self._cdf]
        self._eta_list = [e.tolist() for e in self._eta]
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

    def _imputing_pairs(self, view: tuple[np.ndarray, np.ndarray], i: int,
                        n: int) -> tuple[np.ndarray, np.ndarray]:
        """Induced and imputed sampling: a label query where `dis_mask[x]`,
        the imputed label `labels[x]` elsewhere."""
        dis_mask, labels = view
        xs = self._points(i, n)
        ys = labels[xs]
        need = dis_mask[xs]
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

    # -- per-family scalar round sources: the mistakes of the label row `row`
    # on the pairs the primitive above would draw, on Python scalars

    def _point_list(self, i: int, n: int) -> list[int]:
        cdf = self._cdf_list[i]
        xs = [bisect_right(cdf, u) for u in self._streams[i].floats(n)]
        self.ledger.unlabeled_draws[i] += n
        return xs

    def _label_list(self, i: int, xs: list[int]) -> list[int]:
        n = len(xs)
        eta = self._eta_list[i]
        ys = [1 if u < eta[x] else -1 for x, u in zip(xs, self._streams[i].floats(n))]
        ledger = self.ledger
        ledger.label_queries[i] += n
        if ledger.log_transcript:
            cum = int(ledger.label_queries.sum())
            ledger.transcript.extend(zip(repeat(i, n), xs, ys, range(cum - n + 1, cum + 1)))
        return ys

    def _plain_errors(self, i: int, row: Sequence[int], n: int) -> int:
        xs = self._point_list(i, n)
        return sum(row[x] != y for x, y in zip(xs, self._label_list(i, xs)))

    def _imputing_errors(self, dis: list[bool], labels: list[int], i: int,
                         row: Sequence[int], n: int) -> int:
        xs = self._point_list(i, n)
        need = [x for x in xs if dis[x]]
        errors = sum(row[x] != labels[x] for x in xs if not dis[x])
        if need:
            errors += sum(row[x] != y for x, y in zip(need, self._label_list(i, need)))
        return errors

    def _surrogate_errors(self, dis: list[bool], sample: tuple[memoryview, memoryview],
                          i: int, row: Sequence[int], n: int) -> int:
        sx, sy = sample
        xs = self._point_list(i, n)
        need = [x for x in xs if dis[x]]
        errors = 0
        if need:
            errors = sum(row[x] != y for x, y in zip(need, self._label_list(i, need)))
        if len(need) < n:
            size = len(sx)
            for u in self._streams[i].floats(n - len(need)):
                j = min(int(u * size), size - 1)
                errors += row[sx[j]] != sy[j]
        return errors

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
        return self._imputing_pairs(self._vs_view(version_space), i, n)

    def sample_imputed_batch(self, i: int, outputs: np.ndarray,
                             n: int) -> tuple[np.ndarray, np.ndarray]:
        """Abstaining-classifier-imputed sampling: query only where the
        classifier abstains."""
        self._check_index(i)
        return self._imputing_pairs(_imputed_view(outputs), i, n)

    def sample_surrogate_batch(self, i: int, version_space: Sequence[int],
                               sample: tuple[np.ndarray, np.ndarray],
                               n: int) -> tuple[np.ndarray, np.ndarray]:
        """Surrogate sampling: fresh labeled draws inside DIS(V0); outside,
        discard the draw and return a uniform element of the pre-labeled S_i."""
        self._check_index(i)
        _check_surrogate_sample(sample)
        dis_mask, _ = self._vs_view(version_space)
        return self._surrogate_pairs(dis_mask, sample, i, n)

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
                stream.refill(max(stream.block, 2 * (n - got)))
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
RoundSource = Callable[[Sequence[int], int], int]


class SamplerFamily:
    """A per-distribution (x, y) source injected into the solvers.

    `draw(i, n)` returns n pairs from distribution i; `round_losses` serves a
    whole solver round in one call, from `rounds[i]`, which counts the
    mistakes of a label row on the pairs `sources[i]` would draw.  `calls[i]`
    counts pairs drawn, which lets the solvers reconcile their own accounting
    against the ledger.
    """

    def __init__(self, sources: Sequence[PairSource], rounds: Sequence[RoundSource]):
        if len(rounds) != len(sources):
            raise ContractViolation("a family needs one round source per pair source")
        self.k = len(sources)
        self._sources = tuple(sources)
        self._rounds = tuple(rounds)
        self.calls = np.zeros(self.k, dtype=np.int64)

    def draw(self, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= i < self.k:
            raise ContractViolation(f"distribution index {i} out of range")
        self.calls[i] += n
        return self._sources[i](n)

    def round_losses(self, row: Sequence[int], counts: Sequence[int]) -> list[float]:
        """Empirical loss of the label row `row` (a list of +-1 per point) on
        counts[i] fresh pairs from each distribution i, unbiased for the
        sampled distribution.  The pairs are exactly those of
        `draw(i, counts[i])` for i = 0..k-1 in turn."""
        if len(counts) != self.k or min(counts) < 1:
            raise ContractViolation("a round needs at least one draw from every distribution")
        losses = [errors(row, n) / n for errors, n in zip(self._rounds, counts)]
        self.calls += counts
        return losses

    @property
    def total_calls(self) -> int:
        return int(self.calls.sum())


def plain_family(oracles: OracleSet) -> SamplerFamily:
    ks = range(oracles.instance.k)
    return SamplerFamily([partial(oracles._plain_pairs, i) for i in ks],
                         [partial(oracles._plain_errors, i) for i in ks])


def _imputing_family(oracles: OracleSet, view: tuple[np.ndarray, np.ndarray]) -> SamplerFamily:
    dis, labels = view[0].tolist(), view[1].tolist()
    ks = range(oracles.instance.k)
    return SamplerFamily([partial(oracles._imputing_pairs, view, i) for i in ks],
                         [partial(oracles._imputing_errors, dis, labels, i) for i in ks])


def induced_family(oracles: OracleSet, version_space: Sequence[int]) -> SamplerFamily:
    return _imputing_family(oracles, oracles._vs_view(version_space))


def imputed_family(oracles: OracleSet, outputs: np.ndarray) -> SamplerFamily:
    return _imputing_family(oracles, _imputed_view(outputs))


def surrogate_family(oracles: OracleSet, version_space: Sequence[int],
                     samples: Sequence[tuple[np.ndarray, np.ndarray] | None]) -> SamplerFamily:
    """Surrogate draws per distribution; a None sample means the agreement
    region has zero mass there, in which case the surrogate equals the raw
    distribution and fresh labeled draws are used (flagged by the caller)."""
    dis_mask, _ = oracles._vs_view(version_space)
    dis = dis_mask.tolist()
    sources, rounds = [], []
    for i, sample in enumerate(samples):
        if sample is None:
            sources.append(partial(oracles._plain_pairs, i))
            rounds.append(partial(oracles._plain_errors, i))
        else:
            _check_surrogate_sample(sample)
            sources.append(partial(oracles._surrogate_pairs, dis_mask, sample, i))
            # S_i may hold hundreds of thousands of pairs and a round picks a
            # few: index the arrays through memoryviews, which yield Python
            # ints without copying
            pairs = (memoryview(sample[0]), memoryview(sample[1]))
            rounds.append(partial(oracles._surrogate_errors, dis, pairs, i))
    return SamplerFamily(sources, rounds)
