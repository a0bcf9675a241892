"""Metered sampling access: free unlabeled draws, counted label queries.

Interaction model: per distribution i there is an example oracle (unlabeled
draws, free but counted) and a labeling oracle (the metered resource).  The
learners sample through the sampler families: plain (`plain_family`),
version-space-imputed (`induced_family`), abstain-imputed (`imputed_family`)
and surrogate (`surrogate_family`).  `OracleSet` itself adds
conditional-agreement sampling, by rejection on variates read ahead in
reads sized by the region's mass, and the auxiliary stream's picks.

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
separate `draw` calls in index order would.  Every sampler maps point
variates with `LabeledDistribution.points` (a bucket table for large maps).

Two numpy kernels draw the pairs: the imputing kernel, which serves plain,
induced and imputed sampling, and the surrogate kernel.  Plain sampling is
the imputing kernel over the view that queries every point.  `kernel(c,
rounds)` reads ahead, without consuming, the variates of `rounds` successive
requests of c pairs each.  A surrogate request takes 2c variates, and so
does an imputing request over a view that queries every point (a flag the
view carries from when it is made): c points, then c labels, so request b
starts at variate 2 at[b], with at[b] the pairs before it, and no chase.  Any
other imputing request takes c plus its queried points, so each one starts
at a running sum over prefix sums of dis[x]; products and flat prefix sums
count per request, not reductions along a short axis.  The imputing kernel
also takes c as an array of unequal request sizes, zeros included
(`SamplerFamily.draw_requests`, which draws the robust RPU learner's
batches), and draws one request of an int size (`draw`, store growth)
directly, without the chase of request starts.

A solver round's request from distribution i does not depend on the played
hypothesis, and its size c_i seldom changes, so the family serves rounds
from a block of requests kept per distribution, in runs.  A run is a stretch
of rounds on one candidate matrix with unchanged counts, in which no block
is rebuilt and nothing else reads a stream; it ends at the latest when one
of its blocks runs out.  Within a run the rewards of candidate j are a
table, one row of k losses per round, built on j's first play with one
numpy pass over each block's requests in the run; a round is one lookup and
a counter step.  The served requests are settled in bulk: their variates
are consumed and their draws, queries and transcript lines metered, in
round order and then distribution order, just as requests made one at a
time would.  They are settled when the run ends: when a block is rebuilt,
`draw` runs, or new counts or a new candidate matrix arrive; when any other
reader of a stream runs (the kernels and agreement sampling), each of which
settles the ledger's `pending` family first; when the ledger is read; and
when the solve ends.  A block is rebuilt when c_i changes, when stream i
was read elsewhere since it was built, or when its requests run out.  It is
built with no more requests than the caller still plays, and no more
variates than one buffer block unless a single request needs more.  Reading
ahead changes no variate: a stream that holds too few appends the
generator's next variates behind its unread tail.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .core import ContractViolation, MDLInstance, agreement_labels, check_int

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
View = tuple[np.ndarray, np.ndarray, bool]  # (dis_mask, labels, queries every point)


def check_outputs(outputs, m: int | None = None) -> np.ndarray:
    """An abstaining classifier's outputs as an int8 vector over {-1, 0, +1},
    of m values when m is given.  The values are checked before the cast, so
    255 or 0.5 is refused rather than wrapped to -1 or cut to 0."""
    outs = np.asarray(outputs)
    size = outs.size if m is None else m
    if outs.shape != (size,) or not np.isin(outs, (-1, 0, 1)).all():
        raise ContractViolation(f"outputs must be a vector of {size} values in {{-1, 0, +1}}")
    return outs.astype(np.int8)


def _imputed_view(outputs, m: int) -> View:
    """An abstaining classifier's outputs over m points as (abstains,
    labels, abstains everywhere)."""
    outs = check_outputs(outputs, m)
    return outs == 0, outs, not outs.any()


def _even_ends(base: int, step: int, rounds: int) -> Sequence[int]:
    """Where `rounds` requests of `step` variates each end, from `base` on."""
    return range(base, base + step * rounds + 1, step) if step else [base] * (rounds + 1)


class _Rounds:
    """Successive requests of c pairs each (or of the sizes in the array c)
    that a family kernel drew ahead from stream i.

    Request b's pairs are `xs[b]`, `ys[b]`, `need[b]` marks the points it
    queries (flat arrays sliced at `at[b]:at[b + 1]` when sizes differ), and
    it takes the stream's variates from `ends[b]` up to `ends[b + 1]`,
    counted from the generator's first variate.  Requests happen in order:
    the first `b` have consumed their variates and been metered, and
    `OracleSet._settle` makes the next ones happen."""

    __slots__ = ("stream", "i", "c", "xs", "ys", "need", "ends", "queries", "at", "b")

    def __init__(self, oracles: OracleSet, i: int, c, xs: np.ndarray, ys: np.ndarray,
                 need: np.ndarray, ends: Sequence[int], queries: list[int], at=None):
        self.stream, self.i, self.c = oracles._streams[i], i, c
        self.xs, self.ys, self.need, self.at = xs, ys, need, at
        self.ends, self.queries, self.b = ends, queries, 0


class OracleSet:
    """Sampling access to one instance for one run, with a shared ledger."""

    def __init__(self, instance: MDLInstance, seed: int, log_transcript: bool = False):
        self.instance = instance
        k = instance.k
        children = np.random.SeedSequence(check_int("seed", seed)).spawn(k + 1)
        self._streams = [_Uniforms(np.random.default_rng(c)) for c in children[:k]]
        self._aux = _Uniforms(np.random.default_rng(children[k]))
        self._points = [d.points for d in instance.distributions]
        self._eta = [d.eta_f for d in instance.distributions]
        self.ledger = QueryLedger(k, log_transcript)
        # the ledger's counts as memoryviews: metering adds Python ints
        self._asked = memoryview(self.ledger._queries)
        self._drawn = memoryview(self.ledger._draws)
        m = instance.m
        self._every = (np.ones(m, dtype=bool), np.zeros(m, dtype=np.int8), True)  # plain sampling

    # -- raw oracles --------------------------------------------------------

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
                        pairs = b if blk.at is None else slice(blk.at[b], blk.at[b + 1])
                        sel = blk.need[pairs]
                        ledger._transcript.extend(zip(repeat(blk.i, q), blk.xs[pairs][sel].tolist(),
                                                      blk.ys[pairs][sel].tolist(),
                                                      range(cum + 1, cum + q + 1)))
                        cum += q
        for blk in blocks:
            stream, b = blk.stream, blk.b + r
            stream.pos = blk.ends[b] - stream.start
            self._drawn[blk.i] += blk.c * r if blk.at is None else blk.at[b] - blk.at[blk.b]
            self._asked[blk.i] += sum(blk.queries[blk.b:b])
            blk.b = b

    # -- per-family kernels: `rounds` requests of c pairs from stream i, read
    # ahead in the documented consumption order; the sampler families draw
    # through them

    def _imputing_rounds(self, view: View, i: int, c, rounds: int) -> _Rounds:
        """Plain, induced and imputed sampling: a label query where
        `dis_mask[x]`, the imputed label `labels[x]` elsewhere; c may be an
        array of sizes."""
        dis_mask, labels, every = view
        self.ledger.settle()
        stream = self._streams[i]
        base = stream.consumed
        ragged = isinstance(c, np.ndarray)
        at = np.concatenate(([0], np.add.accumulate(c))) if ragged else None  # pairs before b
        if every:
            # request b: c points from variate 2 at[b], then their c labels
            if ragged:
                pos = np.repeat(at[:-1], c) + np.arange(at[-1])
                u = stream.ahead(2 * int(at[-1]))
                pts, lbl, ends = u[pos], u[pos + np.repeat(c, c)], (2 * at + base).tolist()
            else:
                u = stream.ahead(2 * c * rounds).reshape(rounds, 2, c)
                pts, lbl, ends = u[:, 0], u[:, 1], _even_ends(base, 2 * c, rounds)
            xs = self._points[i](pts)
            ys = _SIGN[(lbl < self._eta[i][xs]).view(np.int8)]
            return _Rounds(self, i, c, xs, ys, np.ones(xs.shape, dtype=bool), ends,
                           c.tolist() if ragged else [c] * rounds, at)
        if rounds == 1 and not ragged:
            # one request: its c points, then a label variate per queried point
            u = stream.ahead(2 * c)
            xs = self._points[i](u[:c])
            need = dis_mask[xs]
            ys = labels[xs]
            q = int(np.count_nonzero(need))
            if q:
                ys[need] = _SIGN[(u[c:c + q] < self._eta[i][xs[need]]).view(np.int8)]
            return _Rounds(self, i, c, xs[None], ys[None], need[None], [base, base + c + q], [q])
        total, last = (int(at[-1]), int(c[-1])) if ragged else (c * rounds, c)
        u = stream.ahead(2 * total)
        # request b starts by variate 2 at[b], so every point lies below 2 total - last
        pts = self._points[i](u[:2 * total - last])
        dis = dis_mask[pts]
        before = np.zeros(pts.size + 1, dtype=np.int64)     # queried points before p
        np.add.accumulate(dis, dtype=np.int64, out=before[1:])
        # a request starting at variate s ends its points and their queries later
        queried = memoryview(before)
        starts, queries = [], []
        s = 0
        for n in c.tolist() if ragged else repeat(c, rounds):
            q = queried[s + n] - queried[s]
            starts.append(s)
            queries.append(q)
            s += n + q
        first = np.array(starts)
        # each pair's point variate; a queried pair's label variate follows its request's points
        pos = (np.repeat(first - at[:-1], c) + np.arange(total) if ragged
               else first[:, None] + np.arange(c))
        xs, need = pts[pos], dis[pos]
        row = first + c - before[first]     # plus the queries before a pair: its label variate
        label_at = (np.repeat(row, c) if ragged else row[:, None]) + before[pos]
        fresh = _SIGN[(u[label_at] < self._eta[i][xs]).view(np.int8)]
        return _Rounds(self, i, c, xs, np.where(need, fresh, labels[xs]), need,
                       [base + v for v in starts] + [base + s], queries, at)

    def _surrogate_rounds(self, dis_mask: np.ndarray, sample: tuple[np.ndarray, np.ndarray],
                          i: int, c: int, rounds: int) -> _Rounds:
        if np.ndim(c):
            raise ContractViolation("surrogate requests all take one size; "
                                    "draw_requests needs an imputing family")
        sx, sy = sample
        self.ledger.settle()
        stream = self._streams[i]
        base = stream.consumed
        u = stream.ahead(2 * c * rounds).reshape(rounds, 2 * c)
        pts = self._points[i](u[:, :c])
        need = dis_mask[pts]
        run = np.zeros(rounds * c + 1, dtype=np.int64)     # queried points before each pair
        np.add.accumulate(need.reshape(-1), out=run[1:])
        first = run[np.arange(rounds + 1) * c]             # and before each request
        queried = run[1:].reshape(rounds, c)
        # after the points: a label variate per queried point, then a pick per other point
        after = 2 * c * np.arange(rounds) + c
        v = u.reshape(-1).take(np.where(need, (after - 1 - first[:-1])[:, None] + queried,
                                        (after + first[1:])[:, None] + (np.arange(c) - queried)))
        pick = np.minimum((v * sx.size).astype(np.int64), sx.size - 1)
        fresh = _SIGN[(v < self._eta[i][pts]).view(np.int8)]
        return _Rounds(self, i, c, np.where(need, pts, sx[pick]), np.where(need, fresh, sy[pick]),
                       need, _even_ends(base, 2 * c, rounds), np.diff(first).tolist())

    def draw_labeled_batch(self, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Plain labeled sampling, one label query per pair: `draw` on the
        plain family, kept as the bulk sampler that `bench/layers.py` times."""
        return plain_family(self).draw(i, n)

    # -- version-space / classifier views ------------------------------------

    def _vs_view(self, version_space: Sequence[int]) -> View:
        agr = agreement_labels(self.instance.hypothesis_class, version_space)
        return agr == 0, agr, not agr.any()

    # -- conditional-agreement and auxiliary sampling ------------------------

    def sample_conditional_agreement(self, i: int, version_space: Sequence[int],
                                     n: int) -> tuple[np.ndarray, np.ndarray]:
        """n iid labeled pairs from D_i conditioned on the agreement region, by
        rejection; costs exactly n label queries, rejections count as unlabeled
        draws only (exactly the geometric number, no overshoot).  The rejection
        consumes the variates it reads; the sample is then one request whose
        draws are those points and whose queries take the next n variates."""
        i, n = check_int("distribution index", i, 0, self.instance.k), check_int("sample count", n)
        dis_mask = self._vs_view(version_space)[0]
        d = self.instance.distributions[i]
        agree = ~dis_mask
        weight = d._weigh(agree)
        if weight == 0:
            raise DegenerateAgreementRegion(
                f"distribution {i} puts zero mass on the agreement region")
        # each read-ahead: 5% over the draws expected to hold the points still
        # needed, at most twice as many draws (as any mass below 0.525 gives)
        mass = max(weight / d._mden, 0.5)
        self.ledger.settle()
        stream = self._streams[i]
        out = np.empty(n, dtype=np.int64)
        got = drawn = 0
        while got < n:
            need = n - got
            u = stream.ahead(max(stream.block, min(2 * need, math.ceil(1.05 * need / mass) + 64)))
            xs = d.points(u)
            idx = np.flatnonzero(agree[xs])[:need]
            out[got:got + idx.size] = xs[idx]
            got += idx.size
            cut = int(idx[-1]) + 1 if got == n else u.size
            stream.pos += cut
            drawn += cut
        base = stream.consumed
        ys = _SIGN[(stream.ahead(n) < self._eta[i][out]).view(np.int8)]
        every = np.broadcast_to(True, (1, n))   # all queried: a view, so no n-byte mask is made
        self._settle([_Rounds(self, i, drawn, out[None], ys[None], every,
                              [base, base + n], [n])], 1)
        return out, ys

    def aux_choice_batch(self, n: int, size: int) -> np.ndarray:
        """n uniform picks from range(size) on the auxiliary stream."""
        size = check_int("pick range size", size, 1)
        u = self._aux.take(check_int("pick count", n))
        return np.minimum((u * size).astype(np.int64), size - 1)


# -- sampler families ---------------------------------------------------------

Kernel = Callable[[int, int], _Rounds]      # (c, rounds) -> requests drawn ahead


class SamplerFamily:
    """A per-distribution (x, y) source injected into the solvers.

    `kernels[i](c, rounds)` draws ahead `rounds` requests of c pairs from
    distribution i.  `draw(i, n)` makes one request of n pairs, and
    `draw_requests` rows of requests of unequal sizes; `round_losses` serves
    a whole solver round, one request per distribution, from blocks of
    requests kept per distribution, a run of rounds at a time (`run_table`
    and `serve` serve several), and `settle` makes the served requests
    happen (see the module docstring).  The family keeps no count of its
    own: what it draws is metered in the oracle set's ledger.
    """

    def __init__(self, oracles: OracleSet, kernels: Sequence[Kernel]):
        self.k = len(kernels)
        self._oracles = oracles
        self._kernels = tuple(kernels)
        self._blocks: list[_Rounds | None] = [None] * self.k
        self._labels: np.ndarray | None = None
        # the open run: its counts (None when none is open), its length in
        # rounds, the rounds served, and the loss table of each candidate
        # played, one row per round of the run
        self._counts: list[int] | None = None
        self._length = self._served = 0
        self._tables: dict[int, np.ndarray] = {}

    def draw(self, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        i, n = check_int("distribution index", i, 0, self.k), check_int("sample count", n)
        blk = self._kernels[i](n, 1)        # the kernel settles served rounds first
        self._oracles._settle([blk], 1)
        return blk.xs[0], blk.ys[0]

    def draw_requests(self, members: Sequence[int],
                      sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Request r of member j draws `sizes[j, r]` pairs from distribution
        `members[j]`; the pairs, ledger and transcript are those of `draw`
        called for every r and, within r, every j in turn.  The pairs
        come back member by member, each member's in request order.
        Imputing families only (plain included): their kernels take unequal
        sizes, and a surrogate kernel refuses them before any stream moves.
        Members are distinct distribution indices and `sizes` an integer
        matrix with a row per member, refused otherwise."""
        members = [check_int("requests need distinct members; each", i, 0, self.k) for i in members]
        sizes = np.asarray(sizes)
        if (len(set(members)) != len(members) or sizes.ndim != 2 or sizes.dtype.kind not in "iu"
                or not sizes.size or sizes.shape[0] != len(members) or sizes.min() < 0):
            raise ContractViolation(
                f"requests need distinct members of range({self.k}) and a non-empty matrix "
                f"of sizes >= 0, a row per member; got {list(members)!r} and "
                f"{sizes.dtype} {sizes.shape}")
        rows = sizes.shape[1]
        blocks = [self._kernels[i](sizes[j], rows) for j, i in enumerate(members)]
        self._oracles._settle(blocks, rows)
        return (np.concatenate([blk.xs for blk in blocks]),
                np.concatenate([blk.ys for blk in blocks]))

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
            j = check_int("candidate", j, 0, len(labels))
            table = self._tables[j] = self._table(j)
        return table, r

    def serve(self, m: int) -> None:
        """Serve the open run's next m rounds, as m `round_losses` calls would."""
        self._served += check_int("rounds served", m, 1, self._length - self._served + 1)

    def _open_run(self, labels: np.ndarray, counts: Sequence[int], rounds_left: int) -> None:
        """Settle what is served and open a run at this round, rebuilding the
        blocks that cannot serve it."""
        if len(counts) != self.k:
            raise ContractViolation("a round needs a draw count for every distribution")
        counts = [check_int("a round's draw count", c, 1) for c in counts]
        check_int("rounds_left", rounds_left, 1)
        self._oracles.ledger.settle()
        blocks = self._blocks
        for i, c in enumerate(counts):
            blk = blocks[i]
            # a block serves while its size holds, a request is left and the
            # stream stands where that request starts, untouched since
            if (blk is None or blk.c != c or blk.b == len(blk.queries)
                    or blk.ends[blk.b] != blk.stream.consumed):
                blocks[i] = self._kernels[i](c, min(rounds_left, max(1, BLOCK // (2 * c))))
        self._labels, self._counts = labels, counts
        self._length = min(len(blk.queries) - blk.b for blk in blocks)
        self._oracles.ledger.pending = self

    def _table(self, j: int) -> np.ndarray:
        """Candidate j's losses in each round of the open run, a row per round."""
        row, length = self._labels[j], self._length
        table = np.empty((length, self.k))
        ones = np.ones(max(self._counts))       # a request's mistakes: a product with ones
        for i, blk in enumerate(self._blocks):
            run = slice(blk.b, blk.b + length)
            # count / c in numpy is the correctly rounded quotient, as in Python
            np.divide((row[blk.xs[run]] != blk.ys[run]) @ ones[:blk.c], blk.c, out=table[:, i])
        return table

    def settle(self) -> None:
        """Make the rounds served in the open run happen, and close it."""
        r = self._served
        if r:
            self._oracles._settle(self._blocks, r)
        self._served = self._length = 0
        self._counts, self._tables = None, {}
        if self._oracles.ledger.pending is self:
            self._oracles.ledger.pending = None


def _imputing_family(oracles: OracleSet, view: View) -> SamplerFamily:
    return SamplerFamily(oracles, [partial(oracles._imputing_rounds, view, i)
                                   for i in range(oracles.instance.k)])


def plain_family(oracles: OracleSet) -> SamplerFamily:
    return _imputing_family(oracles, oracles._every)


def induced_family(oracles: OracleSet, version_space: Sequence[int]) -> SamplerFamily:
    return _imputing_family(oracles, oracles._vs_view(version_space))


def imputed_family(oracles: OracleSet, outputs: np.ndarray) -> SamplerFamily:
    return _imputing_family(oracles, _imputed_view(outputs, oracles.instance.m))


def surrogate_family(oracles: OracleSet, version_space: Sequence[int],
                     samples: Sequence[tuple[np.ndarray, np.ndarray] | None]) -> SamplerFamily:
    """Surrogate draws per distribution; a None sample means the agreement
    region has zero mass there, in which case the surrogate equals the raw
    distribution and fresh labeled draws are used (flagged by the caller)."""
    dis_mask = oracles._vs_view(version_space)[0]
    kernels = []
    for i, sample in enumerate(samples):
        if sample is None:
            kernels.append(partial(oracles._imputing_rounds, oracles._every, i))
        elif sample[0].size == 0:
            raise ContractViolation("surrogate sampling needs a non-empty pre-labeled sample")
        else:
            kernels.append(partial(oracles._surrogate_rounds, dis_mask, sample, i))
    return SamplerFamily(oracles, kernels)
