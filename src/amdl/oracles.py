"""Metered sampling access: free unlabeled draws, counted label queries.

Interaction model: per distribution i there is an example oracle (unlabeled
draws, free but counted) and a labeling oracle (the metered resource).  The
learners sample through the sampler families: plain (`plain_family`),
version-space-imputed (`induced_family`), abstain-imputed (`imputed_family`)
and surrogate (`surrogate_family`).  `OracleSet` itself adds
conditional-agreement sampling and the auxiliary stream's picks.

RNG layout (documented split order): SeedSequence(seed).spawn(k + 1); child i
< k is distribution i's stream, child k is the auxiliary stream used only for
mixture-component selection.  All draws read a buffered uniform source per
stream, so identical seed + identical call sequence gives an identical
transcript.

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

One numpy kernel per family draws the pairs.  `kernel(c, rounds)` reads
ahead, without consuming, the variates of `rounds` successive requests of c
pairs each: a plain or surrogate request takes 2c variates, an imputing one
c plus its queried points, so each imputing request starts at a running sum
over prefix sums of dis[x].  `draw`, store growth and `draw_labeled_batch`
make one request (`rounds` = 1); the imputing kernel draws a single request
directly, as its c points and then one label variate per queried point,
without the chase of request starts or the (rounds, c) index arrays.

A solver round's request from distribution i does not depend on the played
hypothesis, and its size c_i seldom changes, so the family serves rounds
from a block of requests kept per distribution, in runs.  A run is a stretch
of rounds on one candidate matrix with unchanged counts, in which no block
is rebuilt and nothing else reads a stream; it ends at the latest when one
of its blocks runs out.  Within a run the rewards of candidate j are a
table, one row of k losses per round, built on j's first play with one
numpy pass over each block's requests in the run; a round is one lookup and
a counter step.  The served requests are settled in bulk: their variates
are consumed and their draws, queries, `calls` and transcript lines
metered, in round order and then distribution order, just as requests made
one at a time would.  They are settled when the run ends: when a block is
rebuilt, `draw` runs, or new counts or a new candidate matrix arrive; when
any other reader of a stream runs (the kernels, `_labels_for`, agreement
sampling, `draw_labeled_batch`), each of which settles the ledger's
`pending` family first; when the ledger or `calls` is read; and when the
solve ends.  A block is rebuilt when c_i changes, when stream i was read
elsewhere since it was built, or when its requests run out.  It is built
with no more requests than the caller still plays, and no more variates
than one buffer block unless a single request needs more.  Reading ahead
changes no variate: a stream that holds too few appends the generator's
next variates behind its unread tail.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .core import ContractViolation, MDLInstance, agreement_labels

BLOCK = 4096    # variates a stream draws from its generator at a time, at least
_NO_VARIATES = np.empty(0)


class DegenerateAgreementRegion(RuntimeError):
    """Conditional-agreement sampling was asked for a zero-mass agreement region."""


class _Uniforms:
    """Buffered uniform(0,1) source over one Generator.

    `buf[pos:]` holds variates drawn from the generator but not yet consumed,
    and `buf[0]` is variate number `start` of the generator's sequence, so
    `start + pos` variates have been consumed.  `ahead` shows the next
    variates without consuming them; a buffer that holds too few takes the
    generator's next variates (at least `fill` of them) behind its unread
    tail, so every reader sees the generator's sequence in order, whatever
    the request sizes.  Nothing is drawn before the first read, and `fill`
    doubles from the first read's size up to `block`."""

    __slots__ = ("rng", "buf", "pos", "start", "block", "fill")

    def __init__(self, rng: np.random.Generator, block: int = BLOCK):
        self.rng = rng
        self.block = block
        self.fill = 0
        self.buf = _NO_VARIATES
        self.pos = 0
        self.start = 0

    @property
    def consumed(self) -> int:
        return self.start + self.pos

    def ahead(self, n: int) -> np.ndarray:
        """The next n variates, not consumed: a view of the buffer (not to be
        written into)."""
        pos = self.pos
        short = pos + n - self.buf.size
        if short > 0:
            tail = self.buf.size - pos
            buf = np.empty(tail + max(self.fill, short))
            self.fill = min(self.block, 2 * max(self.fill, short))
            buf[:tail] = self.buf[pos:]
            self.rng.random(out=buf[tail:])
            self.buf = buf
            self.start += pos
            self.pos = pos = 0
        return self.buf[pos:pos + n]

    def take(self, n: int) -> np.ndarray:
        """The next n variates, consumed."""
        u = self.ahead(n)
        self.pos += n
        return u


class QueryLedger:
    """Per-run counters of label queries and unlabeled draws, per
    distribution, and the transcript of label queries when `log_transcript`.

    A sampler family that has served requests without metering them is
    `pending`.  Reading a count or the transcript settles it first, as does
    every reader of a stream, so each read sees what requests made one at a
    time would have left."""

    def __init__(self, k: int, log_transcript: bool = False):
        self.k = k
        self.log_transcript = log_transcript
        self._queries = np.zeros(k, dtype=np.int64)
        self._draws = np.zeros(k, dtype=np.int64)
        self._transcript: list = []
        self.pending: SamplerFamily | None = None

    def settle(self) -> None:
        """Meter the requests the pending family has served, if any."""
        if self.pending is not None:
            self.pending.settle()

    @property
    def label_queries(self) -> np.ndarray:
        self.settle()
        return self._queries

    @property
    def unlabeled_draws(self) -> np.ndarray:
        self.settle()
        return self._draws

    @property
    def transcript(self) -> list:
        self.settle()
        return self._transcript

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


def _check_count(n: int) -> None:
    if n < 0:
        raise ContractViolation(f"cannot draw a negative number of samples ({n})")


class _Rounds:
    """Successive requests of c pairs each that a family kernel drew ahead
    from stream i.

    Request b's pairs are `xs[b]`, `ys[b]`, `need[b]` marks the points it
    queries, and it takes the stream's variates from `ends[b]` up to
    `ends[b + 1]`, counted from the generator's first variate.  Requests
    happen in order: the first `b` have consumed their variates and been
    metered, and `OracleSet._settle` makes the next ones happen."""

    __slots__ = ("stream", "i", "c", "xs", "ys", "need", "ends", "queries", "b")

    def __init__(self, oracles: OracleSet, i: int, xs: np.ndarray, ys: np.ndarray,
                 need: np.ndarray, ends: list[int], queries: list[int]):
        self.stream = oracles._streams[i]
        self.i = i
        self.c = xs.shape[1]
        self.xs, self.ys, self.need = xs, ys, need
        self.ends = ends
        self.queries = queries
        self.b = 0


class OracleSet:
    """Sampling access to one instance for one run, with a shared ledger."""

    def __init__(self, instance: MDLInstance, seed: int, log_transcript: bool = False):
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ContractViolation(f"seed must be an integer >= 0, got {seed!r}")
        self.instance = instance
        self.seed = seed
        k = instance.k
        children = np.random.SeedSequence(seed).spawn(k + 1)
        self._streams = [_Uniforms(np.random.default_rng(c)) for c in children[:k]]
        self._aux = _Uniforms(np.random.default_rng(children[k]))
        self._cdf = [d.cdf for d in instance.distributions]
        self._eta = [d.eta_f for d in instance.distributions]
        self.ledger = QueryLedger(k, log_transcript)
        # the ledger's counts as memoryviews: metering adds Python ints
        self._asked = memoryview(self.ledger._queries)
        self._drawn = memoryview(self.ledger._draws)
        self._view_cache: dict = {}

    # -- raw oracles --------------------------------------------------------

    def _check(self, i: int, n: int) -> None:
        if not 0 <= i < self.instance.k:
            raise ContractViolation(f"distribution index {i} out of range")
        _check_count(n)

    def _labels_for(self, i: int, xs: np.ndarray) -> np.ndarray:
        """The labeling oracle: y = +1 with probability eta_plus[x]."""
        ledger = self.ledger
        ledger.settle()
        n = xs.size
        u = self._streams[i].take(n)
        ys = _SIGN[(u < self._eta[i][xs]).view(np.int8)]
        self._asked[i] += n
        if ledger.log_transcript:
            cum = int(ledger._queries.sum())
            ledger._transcript.extend(zip(repeat(i, n), xs.tolist(), ys.tolist(),
                                          range(cum - n + 1, cum + 1)))
        return ys

    def _settle(self, blocks: Sequence[_Rounds], r: int) -> None:
        """Make the next r requests of each block happen, as r rounds of one
        request per block made one at a time would: consume their variates
        and meter their draws, queries and transcript lines, in round order
        and then block order.  Refused, before anything moves, if a stream
        no longer stands where its block's next request starts."""
        for blk in blocks:
            if blk.ends[blk.b] != blk.stream.consumed:
                raise ContractViolation(f"stream {blk.i} moved under {r} served requests")
        ledger = self.ledger
        if ledger.log_transcript:
            cum = int(ledger._queries.sum())
            for t in range(r):
                for blk in blocks:
                    b = blk.b + t
                    q = blk.queries[b]
                    if q:
                        sel = blk.need[b]
                        ledger._transcript.extend(zip(repeat(blk.i, q), blk.xs[b][sel].tolist(),
                                                      blk.ys[b][sel].tolist(),
                                                      range(cum + 1, cum + q + 1)))
                        cum += q
        for blk in blocks:
            stream, b = blk.stream, blk.b + r
            stream.pos = blk.ends[b] - stream.start
            self._drawn[blk.i] += blk.c * r
            self._asked[blk.i] += sum(blk.queries[blk.b:b])
            blk.b = b

    # -- per-family kernels: `rounds` requests of c pairs from stream i, read
    # ahead in the documented consumption order; the sampler families and
    # `draw_labeled_batch` draw through them

    def _plain_rounds(self, i: int, c: int, rounds: int) -> _Rounds:
        self.ledger.settle()
        stream = self._streams[i]
        base = stream.consumed
        u = stream.ahead(2 * c * rounds).reshape(rounds, 2, c)
        xs = self._cdf[i].searchsorted(u[:, 0], side="right")
        ys = _SIGN[(u[:, 1] < self._eta[i][xs]).view(np.int8)]
        return _Rounds(self, i, xs, ys, np.ones(xs.shape, dtype=bool),
                       [base + 2 * c * b for b in range(rounds + 1)], [c] * rounds)

    def _imputing_rounds(self, view: tuple[np.ndarray, np.ndarray], i: int, c: int,
                         rounds: int) -> _Rounds:
        """Induced and imputed sampling: a label query where `dis_mask[x]`,
        the imputed label `labels[x]` elsewhere."""
        dis_mask, labels = view
        self.ledger.settle()
        stream = self._streams[i]
        base = stream.consumed
        u = stream.ahead(2 * c * rounds)
        if rounds == 1:
            # one request: its c points, then a label variate per queried point
            xs = self._cdf[i].searchsorted(u[:c], side="right")
            need = dis_mask[xs]
            ys = labels[xs]
            q = int(np.count_nonzero(need))
            if q:
                ys[need] = _SIGN[(u[c:c + q] < self._eta[i][xs[need]]).view(np.int8)]
            return _Rounds(self, i, xs[None], ys[None], need[None], [base, base + c + q], [q])
        # request b starts at most 2cb variates in and takes at most 2c, so
        # every point lies below (2 rounds - 1) c
        pts = self._cdf[i].searchsorted(u[:(2 * rounds - 1) * c], side="right")
        dis = dis_mask[pts]
        before = np.zeros(pts.size + 1, dtype=np.int64)     # queried points before p
        np.add.accumulate(dis, dtype=np.int64, out=before[1:])
        # a request starting at variate s ends c points and their queries later
        queried = memoryview(before)
        starts, queries = [], []
        s = 0
        for _ in range(rounds):
            q = queried[s + c] - queried[s]
            starts.append(s)
            queries.append(q)
            s += c + q
        at = np.array(starts)[:, None] + np.arange(c)
        xs, need = pts[at], dis[at]
        label_at = at[:, :1] + c - 1 + np.add.accumulate(need, axis=1, dtype=np.int64)
        fresh = _SIGN[(u[label_at] < self._eta[i][xs]).view(np.int8)]
        return _Rounds(self, i, xs, np.where(need, fresh, labels[xs]), need,
                       [base + v for v in starts] + [base + s], queries)

    def _surrogate_rounds(self, dis_mask: np.ndarray, sample: tuple[np.ndarray, np.ndarray],
                          i: int, c: int, rounds: int) -> _Rounds:
        sx, sy = sample
        self.ledger.settle()
        stream = self._streams[i]
        base = stream.consumed
        u = stream.ahead(2 * c * rounds).reshape(rounds, 2 * c)
        pts = self._cdf[i].searchsorted(u[:, :c], side="right")
        need = dis_mask[pts]
        queried = np.cumsum(need, axis=1)
        q = need.sum(axis=1)
        # after the points: a label variate per queried point, then a pick
        # variate per other point, each in draw order
        col = np.where(need, c - 1 + queried, c + q[:, None] + np.arange(c) - queried)
        v = np.take_along_axis(u, col, axis=1)
        pick = np.minimum((v * sx.size).astype(np.int64), sx.size - 1)
        fresh = _SIGN[(v < self._eta[i][pts]).view(np.int8)]
        return _Rounds(self, i, np.where(need, pts, sx[pick]), np.where(need, fresh, sy[pick]),
                       need, [base + 2 * c * b for b in range(rounds + 1)], q.tolist())

    def draw_labeled_batch(self, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Plain labeled sampling, one label query per pair; kept as the bulk
        sampler that `bench/layers.py` times."""
        self._check(i, n)
        blk = self._plain_rounds(i, n, 1)
        self._settle([blk], 1)
        return blk.xs[0], blk.ys[0]

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

    # -- conditional-agreement and auxiliary sampling ------------------------

    def sample_conditional_agreement(self, i: int, version_space: Sequence[int],
                                     n: int) -> tuple[np.ndarray, np.ndarray]:
        """n iid labeled pairs from D_i conditioned on the agreement region, by
        rejection; costs exactly n label queries, rejections count as unlabeled
        draws only (exactly the geometric number, no overshoot)."""
        self._check(i, n)
        dis_mask, _ = self._vs_view(version_space)
        d = self.instance.distributions[i]
        if d._weigh(~dis_mask) == 0:
            raise DegenerateAgreementRegion(
                f"distribution {i} puts zero mass on the agreement region")
        self.ledger.settle()
        stream = self._streams[i]
        out = np.empty(n, dtype=np.int64)
        got = 0
        while got < n:
            u = stream.ahead(max(stream.block, 2 * (n - got)))
            xs = d.cdf.searchsorted(u, side="right")
            acc = ~dis_mask[xs]
            cum = np.cumsum(acc)
            need = n - got
            if cum[-1] >= need:
                cut = int(np.searchsorted(cum, need)) + 1
                out[got:] = xs[:cut][acc[:cut]]
                got = n
            else:
                cut = u.size
                cnt = int(cum[-1])
                out[got:got + cnt] = xs[acc]
                got += cnt
            stream.pos += cut
            self._drawn[i] += cut
        ys = self._labels_for(i, out)
        return out, ys

    def aux_choice_batch(self, n: int, size: int) -> np.ndarray:
        """n uniform picks from range(size) on the auxiliary stream."""
        _check_count(n)
        if size < 1:
            raise ContractViolation(f"cannot pick from an empty range (size {size})")
        u = self._aux.take(n)
        return np.minimum((u * size).astype(np.int64), size - 1)


# -- sampler families ---------------------------------------------------------

Kernel = Callable[[int, int], _Rounds]      # (c, rounds) -> requests drawn ahead


class SamplerFamily:
    """A per-distribution (x, y) source injected into the solvers.

    `kernels[i](c, rounds)` draws ahead `rounds` requests of c pairs from
    distribution i.  `draw(i, n)` makes one request of n pairs;
    `round_losses` serves a whole solver round, one request per
    distribution, from blocks of requests kept per distribution, a run of
    rounds at a time (`run_table` and `serve` serve several), and `settle`
    makes the served requests happen (see the module docstring).  `calls[i]`
    counts pairs drawn, which lets the solvers reconcile their own accounting
    against the ledger.
    """

    def __init__(self, oracles: OracleSet, kernels: Sequence[Kernel]):
        self.k = len(kernels)
        self._oracles = oracles
        self._kernels = tuple(kernels)
        self._blocks: list[_Rounds | None] = [None] * self.k
        self._labels: np.ndarray | None = None
        self._calls = np.zeros(self.k, dtype=np.int64)
        self._tally = memoryview(self._calls)
        # the open run: its counts (None when none is open), its length in
        # rounds, the rounds served, and the loss table of each candidate
        # played, one row per round of the run
        self._counts: list[int] | None = None
        self._length = self._served = 0
        self._tables: dict[int, np.ndarray] = {}

    @property
    def calls(self) -> np.ndarray:
        self._oracles.ledger.settle()
        return self._calls

    def draw(self, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= i < self.k:
            raise ContractViolation(f"distribution index {i} out of range")
        _check_count(n)
        blk = self._kernels[i](n, 1)        # the kernel settles served rounds first
        self._oracles._settle([blk], 1)
        self._tally[i] += n
        return blk.xs[0], blk.ys[0]

    def round_losses(self, labels: np.ndarray, j: int, counts: Sequence[int],
                     rounds_left: int) -> list[float]:
        """Empirical loss of candidate j, row j of the label matrix `labels`,
        on counts[i] fresh pairs from each distribution i, unbiased for the
        sampled distribution.  The pairs are exactly those of
        `draw(i, counts[i])` for i = 0..k-1 in turn.  `rounds_left` counts
        this round and the later rounds the caller plays against `labels`; no
        block draws further ahead."""
        table, r = self.run_table(labels, j, counts, rounds_left)
        self._served = r + 1
        return table[r].tolist()

    def run_table(self, labels: np.ndarray, j: int, counts: Sequence[int],
                  rounds_left: int) -> tuple[np.ndarray, int]:
        """Candidate j's loss table in the run that serves this round, opened
        if need be, and this round's row in it; `serve` marks rounds served."""
        r = self._served
        if (labels is not self._labels or counts != self._counts or r == self._length
                or rounds_left < 1):
            self._open_run(labels, counts, rounds_left)
            r = 0
        table = self._tables.get(j)
        if table is None:
            table = self._tables[j] = self._table(j)
        return table, r

    def serve(self, m: int) -> None:
        """Serve the open run's next m rounds, as m `round_losses` calls would."""
        if not 0 < m <= self._length - self._served:
            raise ContractViolation(f"cannot serve {m} rounds of the open run")
        self._served += m

    def _open_run(self, labels: np.ndarray, counts: Sequence[int], rounds_left: int) -> None:
        """Settle what is served and open a run at this round, rebuilding the
        blocks that cannot serve it."""
        if len(counts) != self.k or min(counts) < 1:
            raise ContractViolation("a round needs at least one draw from every distribution")
        if rounds_left < 1:
            raise ContractViolation("a round needs a horizon of at least itself")
        self._oracles.ledger.settle()
        blocks = self._blocks
        for i, c in enumerate(counts):
            blk = blocks[i]
            # a block serves while its size holds, a request is left and the
            # stream stands where that request starts, untouched since
            if (blk is None or blk.c != c or blk.b == len(blk.queries)
                    or blk.ends[blk.b] != blk.stream.consumed):
                blocks[i] = self._kernels[i](c, min(rounds_left, max(1, BLOCK // (2 * c))))
        self._labels, self._counts = labels, list(counts)
        self._length = min(len(blk.queries) - blk.b for blk in blocks)
        self._oracles.ledger.pending = self

    def _table(self, j: int) -> np.ndarray:
        """Candidate j's losses in each round of the open run, a row per round."""
        row, length = self._labels[j], self._length
        table = np.empty((length, self.k))
        for i, blk in enumerate(self._blocks):
            run = slice(blk.b, blk.b + length)
            # count / c in numpy is the correctly rounded quotient, as in Python
            np.divide(np.add.reduce(row[blk.xs[run]] != blk.ys[run], axis=1), blk.c,
                      out=table[:, i])
        return table

    def settle(self) -> None:
        """Make the rounds served in the open run happen, and close it."""
        r = self._served
        if r:
            self._oracles._settle(self._blocks, r)
            for i, c in enumerate(self._counts):
                self._tally[i] += c * r
        self._served = self._length = 0
        self._counts, self._tables = None, {}
        if self._oracles.ledger.pending is self:
            self._oracles.ledger.pending = None


def plain_family(oracles: OracleSet) -> SamplerFamily:
    return SamplerFamily(oracles, [partial(oracles._plain_rounds, i)
                                   for i in range(oracles.instance.k)])


def _imputing_family(oracles: OracleSet, view: tuple[np.ndarray, np.ndarray]) -> SamplerFamily:
    return SamplerFamily(oracles, [partial(oracles._imputing_rounds, view, i)
                                   for i in range(oracles.instance.k)])


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
    kernels = []
    for i, sample in enumerate(samples):
        if sample is None:
            kernels.append(partial(oracles._plain_rounds, i))
        elif sample[0].size == 0:
            raise ContractViolation("surrogate sampling needs a non-empty pre-labeled sample")
        else:
            kernels.append(partial(oracles._surrogate_rounds, dis_mask, sample, i))
    return SamplerFamily(oracles, kernels)
