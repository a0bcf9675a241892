"""Metered sampling access: free unlabeled draws, counted label queries.

Interaction model: per distribution i there is an example oracle (unlabeled
draws, free but counted) and a labeling oracle (the metered resource).  The
learners sample through the sampler families: plain (`plain_family`),
version-space-imputed (`induced_family`), abstain-imputed (`imputed_family`)
and surrogate (`surrogate_family`).  A family is its views, one per
distribution (see `SamplerFamily`), and every imputing view comes from one
constructor, `OracleSet._view(labels)`.  `OracleSet` itself adds
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
in one call (`SamplerFamily.row` or `serve`) and consume exactly what k
separate `draw` calls in index order would.  Every sampler maps point
variates with `LabeledDistribution.points` (a bucket table for large maps).

Two numpy kernels draw the pairs: the imputing kernel serves a view with
no sample, the surrogate kernel one with a sample.  Plain sampling is the
imputing kernel over the view that queries every point.  `kernel(c,
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
hypothesis, and its size c_i seldom changes, so for the chunks of rounds
that a solve over at most two candidates plays (`tables`, `serve`) the
family keeps a block of requests per distribution, drawn ahead, that serves
chunk after chunk until it must be rebuilt.  A chunk's `tables` gives each
candidate's rewards as a table, one row of k losses per round that every
block still holds, from the blocks' next requests on, built with one numpy
pass over each block's requests; a round of a chunk is one row.  `serve`
makes the chunk's rounds happen, and meters them as every request is
metered when it is made: their variates are consumed and their draws,
queries and transcript lines metered, in round order and then distribution
order, just as requests made one at a time would.  One rule keeps a block
true to its stream: it serves only while the stream stands where the
block's next request starts.  Any other read that consumes a stream's
variates (`draw`, a row, agreement sampling) moves it, and the next
`tables` rebuilds that block; so it does when c_i changes or the block's
requests run out.  A block is built with no more requests than the caller
still plays, and no more variates than one buffer block unless a single
request needs more.  Reading ahead changes no variate: a stream that holds
too few appends the generator's next variates behind its unread tail.

Every other solver round is a row, drawn with no block: a solve over more
than two candidates plays no chunks, as store growth and count changes
rebuild its blocks after about 20 rounds, most of whose table rows it would
never play; a round that no chunk plays would build blocks and tables for a
round or two.  One `row` call draws a zero-row stretch and the loss row that
ends it.  A row's k requests are made one after another, each consuming its
variates and metering its draws, queries and transcript lines before the
next.  One row kernel serves every family: it walks the points in Python
over lists kept per stream (a window of the buffered variates from the
stream's position and their points, remade when the buffer changes or the
window runs out).  A stream's first window lists ROW_WINDOW variates (more
if one request needs them), and each remade one twice the last, up to BLOCK,
so a stream read mostly by chunks lists little more than its rows use.  A
surrogate family imputes 0 everywhere, so against a +-1 candidate (`row`
refuses any other) each point it does not query counts one miss; a pick pass
then reads the picks that follow the request's labels, takes those misses
back and counts each pick's own, read from the sample arrays.  A family
makes its row kernel from its views on its first `row`.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat
from typing import Sequence

import numpy as np

from .core import ContractViolation, MDLInstance, agreement_labels, check_int, check_members

BLOCK = 4096    # variates a stream draws from its generator at a time, at least
ROW_WINDOW = 256    # variates a stream's first row window lists, at least
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
    distribution, and when `log_transcript` the transcript of label queries
    and the solver's rows (t, w, |w_bar|_1, store size), one per Hedge round
    in solve order (`solver_trace`, which `mdl_hedge_vc` appends to).

    Every request is metered as it is made or served, so each read sees
    what requests made one at a time would have left."""

    def __init__(self, k: int, log_transcript: bool = False):
        self.log_transcript = log_transcript
        self._queries = [0] * k     # Python ints, which metering adds to; read as arrays
        self._draws = [0] * k
        self._transcript: list = []
        self.solver_trace: list = []

    @property
    def label_queries(self) -> np.ndarray:
        return np.array(self._queries, dtype=np.int64)

    @property
    def unlabeled_draws(self) -> np.ndarray:
        return np.array(self._draws, dtype=np.int64)

    @property
    def transcript(self) -> list:
        return self._transcript

    @property
    def label_total(self) -> int:
        return sum(self._queries)

    @property
    def unlabeled_total(self) -> int:
        return sum(self._draws)


_SIGN = np.array([-1, 1], dtype=np.int8)   # _SIGN[u < eta_plus[x]] is the label
# (dis_mask, labels, queries every point, surrogate sample (sx, sy) or None)
View = tuple[np.ndarray, np.ndarray, bool, tuple[np.ndarray, np.ndarray] | None]


def check_outputs(outputs, m: int | None = None) -> np.ndarray:
    """An abstaining classifier's outputs as an int8 vector over {-1, 0, +1},
    of m values when m is given.  The values are checked before the cast, so
    255 or 0.5 is refused rather than wrapped to -1 or cut to 0."""
    outs = np.asarray(outputs)
    size = outs.size if m is None else m
    if outs.shape != (size,) or not np.isin(outs, (-1, 0, 1)).all():
        raise ContractViolation(f"outputs must be a vector of {size} values in {{-1, 0, +1}}")
    return outs.astype(np.int8)


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

    def moved(self) -> bool:
        """Whether the stream was read elsewhere since the next request was drawn."""
        return self.ends[self.b] != self.stream.consumed


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
        # per stream, (buf, lo, hi, variates, points): buf[lo:hi] and its points as lists
        self._listed = [(_NO_VARIATES, 0, 0, [], [])] * k
        self.ledger = QueryLedger(k, log_transcript)
        self._every = self._view(np.zeros(instance.m, dtype=np.int8))    # plain sampling

    # -- raw oracles --------------------------------------------------------

    def _settle(self, blocks: Sequence[_Rounds], r: int) -> None:
        """Make the next r requests of each block happen, as r rounds of one
        request per block made one at a time would: consume their variates
        and meter their draws, queries and transcript lines, in round order
        and then block order.  Refused, before anything moves, if a stream
        no longer stands where its block's next request starts."""
        for blk in blocks:
            if blk.moved():
                raise ContractViolation(f"stream {blk.i} moved under {r} served requests")
        ledger = self.ledger
        if ledger.log_transcript:
            cum = sum(ledger._queries)
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
            ledger._draws[blk.i] += blk.c * r if blk.at is None else int(blk.at[b] - blk.at[blk.b])
            ledger._queries[blk.i] += sum(blk.queries[blk.b:b])
            blk.b = b

    # -- per-view kernels: `rounds` requests of c pairs from stream i, read
    # ahead in the documented consumption order; the sampler families draw
    # through them

    def _imputing_rounds(self, view: View, i: int, c, rounds: int) -> _Rounds:
        """Plain, induced and imputed sampling: a label query where
        `dis_mask[x]`, the imputed label `labels[x]` elsewhere; c may be an
        array of sizes."""
        dis_mask, labels, every, _ = view
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

    def _surrogate_rounds(self, view: View, i: int, c: int, rounds: int) -> _Rounds:
        dis_mask, _, _, (sx, sy) = view
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

    # -- the row kernel: one request of counts[i] pairs from each stream i in
    # turn, each made as it is drawn, scored against one candidate's labels
    # (a list over the points), for every family; it reads the streams' lists

    def _relist(self, i: int, n: int) -> tuple:
        """Stream i's lists, remade to hold at least its next n variates and at
        most twice the last window's (ROW_WINDOW at first, up to BLOCK)."""
        _, lo, hi, _, _ = self._listed[i]
        width = max(n, min(BLOCK, max(ROW_WINDOW, 2 * (hi - lo))))
        stream = self._streams[i]
        stream.ahead(n)
        buf, pos = stream.buf, stream.pos
        hi = min(buf.size, pos + width)
        seg = buf[pos:hi]
        lst = self._listed[i] = (buf, pos, hi, seg.tolist(), self._points[i](seg).tolist())
        return lst

    def _row(self, entries: list[tuple[int, list[float], list[bool],
                                       tuple[np.ndarray, np.ndarray] | None]],
             lab: list[int], cand: list[int], counts: Sequence[int],
             cap: int) -> tuple[list[float], int]:
        """`row`'s rows: request i's c points, then a label variate per point where
        its entry's `dis[x]`, the imputed label `lab[x]` elsewhere; with a sample
        (sx, sy), a pick per such point after the labels, which replaces the miss
        that `lab`'s 0 counted there (see the module docstring)."""
        ledger = self.ledger
        drawn, asked = ledger._draws, ledger._queries
        log = ledger._transcript if ledger.log_transcript else None
        cum = sum(asked) if log is not None else 0
        listed = self._listed
        rows = 0
        while True:
            rows += 1
            losses = []
            for (i, eta, dis, sample), c, stream in zip(entries, counts, self._streams):
                pos = stream.pos
                buf, lo, hi, u, xs = listed[i]
                if buf is not stream.buf or pos + 2 * c > hi:
                    buf, lo, hi, u, xs = self._relist(i, 2 * c)
                    pos = stream.pos
                start = pos - lo
                a = start + c           # the next label variate
                miss = 0
                for x in xs[start:a]:
                    if dis[x]:
                        y = 1 if u[a] < eta[x] else -1
                        a += 1
                        if log is not None:
                            cum += 1
                            log.append((i, x, y, cum))
                        miss += cand[x] != y
                    elif cand[x] != lab[x]:
                        miss += 1
                if a - start > c:
                    asked[i] += a - start - c
                if sample is not None:      # a pick per unqueried point, in place of its miss on 0
                    sx, sy = sample     # read with item(), so the losses stay Python floats
                    size, b, a = sx.size, a, start + 2 * c
                    miss -= a - b
                    for v in u[b:a]:
                        p = min(int(v * size), size - 1)
                        miss += cand[sx.item(p)] != sy.item(p)
                stream.pos = lo + a
                drawn[i] += c
                losses.append(miss / c)
            if any(losses) or rows == cap:
                return losses, rows

    def draw_labeled_batch(self, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Plain labeled sampling, one label query per pair: `draw` on the
        plain family, kept as the bulk sampler that `bench/layers.py` times."""
        return plain_family(self).draw(i, n)

    # -- version-space / classifier views ------------------------------------

    def _view(self, labels: np.ndarray) -> View:
        """A labeling's imputing view: a label query where it is 0, its label elsewhere."""
        return labels == 0, labels, not labels.any(), None

    def _vs_view(self, version_space: Sequence[int]) -> View:
        return self._view(agreement_labels(self.instance.hypothesis_class, version_space))

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
        mass = d.mass(agree)
        if mass == 0:
            raise DegenerateAgreementRegion(
                f"distribution {i} puts zero mass on the agreement region")
        # each read-ahead: 5% over the draws expected to hold the points still
        # needed, at most twice as many draws (as any mass below 0.525 gives)
        share = max(float(mass), 0.5)
        stream = self._streams[i]
        out = np.empty(n, dtype=np.int64)
        got = drawn = 0
        while got < n:
            need = n - got
            u = stream.ahead(max(stream.block, min(2 * need, math.ceil(1.05 * need / share) + 64)))
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

class SamplerFamily:
    """A per-distribution (x, y) source injected into the solvers: its
    views, one per distribution of its oracle set, all imputing one labeling.

    `views[i] = (dis_mask, labels, queries_every_point, sample)`: a request
    from distribution i queries the label of each point x where
    `dis_mask[x]` and elsewhere imputes `labels[x]`, or with a pre-labeled
    sample (sx, sy) picks one of its pairs.  Every imputing view (no sample)
    is `OracleSet._view(labels)`: `_every`, the zero labeling's (plain), a
    version space's agreement labels' (induced) or a classifier's outputs'
    (imputed).  A surrogate view is `(dis_mask, _every[1], False, sample)`,
    or `_every` where the sample is None.
    `_kernels[i](c, rounds)` draws ahead `rounds` requests of c pairs from
    distribution i.  `draw(i, n)` makes one request of n pairs,
    `draw_requests` rows of requests of unequal sizes, and `row` the solver
    rounds of a zero-row stretch, one request per distribution each, through
    a row kernel made from the views.  `tables` and `serve` serve a solver's
    chunks of rounds from blocks of requests kept per distribution (see the
    module docstring).
    Every request is metered when it is made or served.  The family keeps no
    count of its own: what it draws is metered in the oracle set's ledger.
    """

    def __init__(self, oracles: OracleSet, views: Sequence[View]):
        self.k = k = oracles.instance.k
        if len(views) != k or any(v[1] is not views[0][1] and not np.array_equal(v[1], views[0][1])
                                  for v in views):
            raise ContractViolation(f"a family needs one view per distribution ({k}), all "
                                    f"imputing one labeling; got {len(views)} views")
        self.oracles = oracles      # the oracle set its kernels read, and its instance
        self._views = tuple(views)
        self._kernels = tuple(partial(oracles._imputing_rounds if v[3] is None
                                      else oracles._surrogate_rounds, v, i)
                              for i, v in enumerate(views))
        # `row`'s kernel, made on its first call, and the candidates' labels as lists
        self._row = None
        self._cand_labels: np.ndarray | None = None
        self._cands: dict[int, list[int]] = {}
        self._row_counts: list[int] = []
        self._blocks: list[_Rounds | None] = [None] * self.k   # the chunks' requests, drawn ahead

    def draw(self, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        i, n = check_int("distribution index", i, 0, self.k), check_int("sample count", n)
        blk = self._kernels[i](n, 1)
        self.oracles._settle([blk], 1)
        return blk.xs[0], blk.ys[0]

    def draw_requests(self, members: Sequence[int],
                      sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Request r of member j draws `sizes[j, r]` pairs from distribution
        `members[j]`; the pairs, ledger and transcript are those of `draw`
        called for every r and, within r, every j in turn.  The pairs
        come back member by member, each member's in request order.
        Imputing views only (plain included): their kernels take unequal
        sizes, and a member with a surrogate view is refused.  Members are
        distinct distribution indices and `sizes` an integer matrix with a
        row per member, refused otherwise; nothing moves before the checks."""
        members = check_members("requests", members, self.k, distinct=True)
        if any(self._views[i][3] is not None for i in members):
            raise ContractViolation("surrogate requests all take one size; "
                                    "draw_requests needs an imputing family")
        sizes = np.asarray(sizes)
        if (sizes.ndim != 2 or sizes.dtype.kind not in "iu" or not sizes.size
                or sizes.shape[0] != len(members) or sizes.min() < 0):
            raise ContractViolation(
                f"requests need a non-empty matrix of sizes >= 0, a row per member of "
                f"{members!r}; got {sizes.dtype} {sizes.shape}")
        rows = sizes.shape[1]
        blocks = [self._kernels[i](sizes[j], rows) for j, i in enumerate(members)]
        self.oracles._settle(blocks, rows)
        return (np.concatenate([blk.xs for blk in blocks]),
                np.concatenate([blk.ys for blk in blocks]))

    def row(self, labels: np.ndarray, j: int, counts: Sequence[int], cap: int) -> tuple[list, int]:
        """Candidate j's (row j of the label matrix `labels`) losses on counts[i]
        fresh pairs from each distribution i, the pairs of `draw(i, counts[i])`
        for i = 0..k-1 in turn, each request consumed and metered as it is drawn,
        in rows up to the first with a loss, or `cap` rows: the last row's losses
        and the rows drawn.  Counts equal to the last ones checked are served as
        those.  A candidate row is listed, and refused unless every label is -1
        or +1, once per label matrix."""
        if labels is not self._cand_labels:
            self._cand_labels, self._cands = labels, {}
        cand = self._cands.get(j)
        if cand is None:
            cand = labels[check_int("candidate", j, 0, len(labels))].tolist()
            if not set(cand) <= {-1, 1}:    # the row kernel's pick pass counts on it
                raise ContractViolation(f"candidate {j}'s labels must all be -1 or +1")
            self._cands[j] = cand
        if type(counts) is not list or counts != self._row_counts:
            self._row_counts = self._checked_counts(counts)
        if type(cap) is not int or cap < 1:
            cap = check_int("a stretch's row cap", cap, 1)
        if self._row is None:   # OracleSet._row over the views, each distinct mask listed once
            o, views = self.oracles, self._views
            listed = {id(v[0]): v[0] for v in views}
            listed = {key: mask.tolist() for key, mask in listed.items()}
            self._row = partial(o._row, [(i, eta.tolist(), listed[id(v[0])], v[3])
                                         for i, (eta, v) in enumerate(zip(o._eta, views))],
                                views[0][1].tolist())
        return self._row(cand, self._row_counts, cap)

    def _checked_counts(self, counts: Sequence[int]) -> list[int]:
        if len(counts) != self.k:
            raise ContractViolation("a round needs a draw count for every distribution")
        return [check_int("a round's draw count", c, 1) for c in counts]

    def tables(self, labels: np.ndarray, counts: Sequence[int],
               rounds_left: int) -> list[np.ndarray]:
        """Each candidate's (row of the label matrix `labels`) loss table, a
        row per round from this one on, for as many rounds as every block
        still holds: a row's losses are on counts[i] fresh pairs from each
        distribution i, the pairs of `draw(i, counts[i])` for i = 0..k-1 in
        turn.  A block that cannot serve this round is rebuilt first.
        `rounds_left` counts this round and the later rounds the caller plays
        against `labels`; no rebuilt block draws further ahead.  `serve`
        serves the tables' first rows."""
        counts = self._checked_counts(counts)
        rounds_left = check_int("rounds_left", rounds_left, 1)
        blocks = self._blocks
        for i, c in enumerate(counts):
            blk = blocks[i]
            # a block serves while its size holds, a request is left and the
            # stream stands where that request starts, untouched since
            if blk is None or blk.c != c or blk.b == len(blk.queries) or blk.moved():
                blocks[i] = self._kernels[i](c, min(rounds_left, max(1, BLOCK // (2 * c))))
        rows = self._rows_left()
        tables = [np.empty((rows, self.k)) for _ in labels]
        ones = np.ones(max(counts))     # a request's mistakes: a product with ones
        for i, blk in enumerate(blocks):
            ahead = slice(blk.b, blk.b + rows)
            xs, ys, c = blk.xs[ahead], blk.ys[ahead], blk.c
            for row, table in zip(labels, tables):
                # count / c in numpy is the correctly rounded quotient, as in Python
                np.divide((row[xs] != ys) @ ones[:c], c, out=table[:, i])
        return tables

    def serve(self, m: int) -> None:
        """Serve the blocks' next m rounds, the first m rows of `tables`,
        consuming and metering them as m rounds of k `draw` calls each would.
        Refused past the rounds the blocks hold, so before the first `tables`."""
        m = check_int("rounds served", m, 1, self._rows_left() + 1)
        self.oracles._settle(self._blocks, m)

    def _rows_left(self) -> int:
        """The rounds every block still holds."""
        blocks = self._blocks
        return 0 if None in blocks else min(len(blk.queries) - blk.b for blk in blocks)


def plain_family(oracles: OracleSet) -> SamplerFamily:
    return SamplerFamily(oracles, [oracles._every] * oracles.instance.k)


def induced_family(oracles: OracleSet, version_space: Sequence[int]) -> SamplerFamily:
    return SamplerFamily(oracles, [oracles._vs_view(version_space)] * oracles.instance.k)


def imputed_family(oracles: OracleSet, outputs: np.ndarray) -> SamplerFamily:
    view = oracles._view(check_outputs(outputs, oracles.instance.m))
    return SamplerFamily(oracles, [view] * oracles.instance.k)


def surrogate_family(oracles: OracleSet, version_space: Sequence[int],
                     samples: Sequence[tuple[np.ndarray, np.ndarray] | None]) -> SamplerFamily:
    """Surrogate draws per distribution; a None sample means the agreement
    region has zero mass there, in which case the surrogate equals the raw
    distribution and fresh labeled draws are used (flagged by the caller).
    Whole-array reductions check each sample, with no temporary array: a
    label is +-1 iff it lies in [-1, 1] and is not 0 (y * y wraps to 1 at
    y = 127 in int8)."""
    dis_mask, zeros, m = oracles._vs_view(version_space)[0], oracles._every[1], oracles.instance.m
    fam = SamplerFamily(oracles, [oracles._every if s is None else (dis_mask, zeros, False, s)
                                  for s in samples])
    for s in samples:
        xs, ys = s if isinstance(s, tuple) and len(s) == 2 else (None, None)
        if s is not None and not (isinstance(xs, np.ndarray) and isinstance(ys, np.ndarray)
                                  and {xs.dtype.kind, ys.dtype.kind} <= {"i", "u"}
                                  and xs.ndim == 1 and xs.shape == ys.shape and xs.size
                                  and 0 <= xs.min() and xs.max() < m
                                  and -1 <= ys.min() and ys.max() <= 1 and ys.all()):
            raise ContractViolation("surrogate sampling needs a non-empty pre-labeled sample: two "
                                    f"equal-length integer arrays, points of range({m}) and "
                                    f"labels +-1; got {s!r}")
    return fam
