"""In-memory span tracer that wraps amdl's public functions from outside.

A span is one call into a layer: name, start, end (perf_counter_ns), parent
span and the op it belongs to.  Counts read from a call's arguments or result
are summed per count name.  Spans are kept in compact columns in memory (a
traced run records up to about a million) and written out when the run ends.

The package binds most names with ``from .x import y``, so a function is
wrapped at every module that looks it up, not only where it is defined.
Methods are wrapped on their class.  ``install`` refuses a name that does not
exist, so a renamed function fails the traced run instead of silently going
untraced, and ``restore`` puts every original object back.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.op = -1                    # op id stamped on new spans
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")       # -1 for a root span
        self.op_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self.errors: set[int] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name: str) -> int:
        sid = len(self.start)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        sid = self._open(name)
        try:
            yield sid
        except BaseException:
            self.errors.add(sid)
            raise
        finally:
            self._close(sid)

    def count(self, counts: dict[str, int]) -> None:
        for key, val in counts.items():
            self.counts[key] = self.counts.get(key, 0) + val

    def wrapped(self, fn, name: str, before=None, after=None):
        """`fn` recording a span per call.  `before(args, kwargs)` runs ahead
        of the clock; `after(args, kwargs, result, pre)` returns counts to
        add and runs after it, so neither is charged to the span."""
        @functools.wraps(fn)
        def call(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors.add(sid)
                raise
            finally:
                self._close(sid)
            if after is not None:
                self.count(after(args, kwargs, result, pre))
            return result
        return call

    # -- installing -------------------------------------------------------

    def install(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace `owner.attr` (a module global or a class attribute) by a
        recording wrapper; the original is kept for `restore`."""
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} has no attribute {attr!r} to trace")
        orig = vars(owner)[attr]
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, self.wrapped(orig, name, before, after))

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reading ----------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """Copies of the span columns plus each span's self time in ns."""
        cols = {"name_id": np.array(self.name_id, dtype=np.int32)}
        for key in ("parent", "op_id", "start", "end"):
            cols[key] = np.array(getattr(self, key), dtype=np.int64)
        cols["self_ns"] = self_times(cols["parent"], cols["end"] - cols["start"])
        return cols


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Per span: its duration minus the time its child spans cover.

    Spans come from nested calls on one thread, so a child lies inside its
    parent and siblings do not overlap: the covered time is the sum of the
    children's durations."""
    covered = np.zeros(duration.size, dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered
