"""Host-time spans recorded from outside the simulator.

A :class:`SpanRecorder` replaces public methods on live objects with
wrappers that record one span per call: name, start, end, the enclosing
span (its parent) and the closed-loop iteration it belongs to.  Spans are
kept in flat typed arrays while the run is in flight and written out once
at the end; :meth:`SpanRecorder.layer_totals` derives each span name's
call count, hit count and self time (duration minus the time its direct
children cover).

Only the benchmark calls :meth:`SpanRecorder.wrap`; nothing under
``src/`` knows spans exist.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

import numpy as np


class SpanRecorder:
    """In-memory span store plus the instance-method wrappers feeding it."""

    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._iteration = array("i")
        self._stack: list[int] = []
        #: id shared by every span of one closed-loop iteration; bumped at
        #: each run start (set-up spans) and at each batch fetch
        self.iteration = 0
        self.hits: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.hits[name] = 0
        return nid

    def next_iteration(self) -> None:
        self.iteration += 1

    def open(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._iteration.append(self.iteration)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block."""
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(
        self,
        obj: Any,
        method: str,
        name: str,
        hit: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        """Record a span around every call of ``obj.method``.

        The wrapper is set on the instance, so only this object is
        traced.  ``hit`` classifies return values (e.g. a cache lookup
        that found something); matching calls count in :attr:`hits`.
        """
        inner = getattr(obj, method)
        nid = self.name_id(name)
        hits = self.hits

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self.open(nid)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.close(idx)
            if hit is not None and hit(result):
                hits[name] += 1
            return result

        setattr(obj, method, traced)

    def traced_iter(self, iterable: Any, name: str) -> Iterator[Any]:
        """Yield from ``iterable``, one span per item fetched.

        Each fetch starts a new iteration id: in a closed loop the next
        batch is what begins the next iteration.
        """
        nid = self.name_id(name)
        it = iter(iterable)
        while True:
            self.next_iteration()
            idx = self.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(idx)
            self.hits[name] += 1
            yield item

    # ------------------------------------------------------------ analysis

    def _columns(self) -> tuple[np.ndarray, ...]:
        names = np.frombuffer(self._name, dtype=np.int32)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        iteration = np.frombuffer(self._iteration, dtype=np.int32)
        return names, start, end, parent, iteration

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``hits``, ``total_s`` and ``self_s``."""
        names, start, end, parent, _ = self._columns()
        duration = end - start
        covered = np.zeros_like(duration)
        child = parent >= 0
        np.add.at(covered, parent[child], duration[child])
        own = duration - covered
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "calls": int(mask.sum()),
                "hits": self.hits[name],
                "total_s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out

    def write(self, path: Path, header: dict[str, Any]) -> None:
        """Write every span (columnar JSON, times in µs from recorder start)."""
        names, start, end, parent, iteration = self._columns()
        doc = dict(header)
        doc.update(
            names=self.names,
            span_count=len(start),
            name=names.tolist(),
            start_us=np.round((start - self.t0) * 1e6, 3).tolist(),
            end_us=np.round((end - self.t0) * 1e6, 3).tolist(),
            parent=parent.tolist(),
            iteration=iteration.tolist(),
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(doc, fh)


class TracedIterable:
    """Stand-in for an iterable (a data loader) whose every fetch is a span.

    Iteration protocol methods are looked up on the type, so a loader
    cannot be traced by setting a wrapper on the instance.
    """

    def __init__(self, inner: Any, recorder: SpanRecorder, name: str) -> None:
        self._inner = inner
        self._recorder = recorder
        self._name = name

    def __iter__(self) -> Iterator[Any]:
        return self._recorder.traced_iter(self._inner, self._name)

    def __len__(self) -> int:
        return len(self._inner)
