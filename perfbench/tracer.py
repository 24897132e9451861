"""Span tracing of the ``segrls`` layers from outside the program.

``Tracer.install`` wraps every public function of every ``segrls.*`` module
(and the public methods of the classes defined there) by replacing the
attribute on the class, or in every ``segrls`` namespace that binds the
function.  ``src/`` is never edited.

A span records the wrapped function, its parent span, the command (request)
it belongs to, and its start and end.  Spans live in flat in-memory arrays and
are written out once, at the end of the run.

A wrapper whose own cost swamps the call it wraps is dropped to a bare call
counter, and the drop is recorded.  The test runs at the ``PROBES``-th calls
of each function: the mean time inside its spans since the last probe, less
the time a span around a no-op shows, is the call's own cost; the wrapper is
dropped when a span costs at least ``DROP_RATIO`` of that.  The span cost is
measured again at each probe, so a change of machine speed during the run
moves both sides.  The second probe catches callers whose first probe still
included the spans of children dropped since (``profile.weight`` around
``profile.powi``).
"""

from __future__ import annotations

import sys
import time
import types
from array import array

import numpy as np

PROBES = (200, 2000)
DROP_RATIO = 0.75


def _public_callables(module):
    """(qualified name, owner, attribute, function, is_classmethod) defined in ``module``."""
    layer = module.__name__.split(".")[-1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            yield f"{layer}.{name}", None, name, obj, False
        elif isinstance(obj, type) and not issubclass(obj, BaseException):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(member, types.FunctionType):
                    yield f"{layer}.{name}.{attr}", obj, attr, member, False
                elif isinstance(member, classmethod):
                    yield f"{layer}.{name}.{attr}", obj, attr, member.__func__, True


def span_cost(calls: int = 500) -> tuple[float, float]:
    """(ns a span wrapper adds per call, ns inside the span) around a no-op."""
    def noop():
        return None

    probe = Tracer()
    probe._probe = lambda fid: None         # the calibration span is never dropped
    wrapped = probe.wrap(noop, "calibration")
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter_ns()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter_ns()
    return ((t2 - t1) - (t1 - t0)) / calls, probe.totals[0] / calls


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.fids = array("q")
        self.parents = array("q")
        self.requests = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counts: list[int] = []
        self.totals: list[int] = []
        self.dropped: dict[str, dict] = {}
        self._drop_flags: list[bool] = []
        self._stack = [-1]
        self._request = [-1]
        self._restore: list[tuple] = []
        self._probed: dict[int, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # wrapping

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.counts.append(0)
        self.totals.append(0)
        self._drop_flags.append(False)
        return len(self.names) - 1

    def wrap(self, fn, name: str, after=None):
        """A span-recording stand-in for ``fn``; ``after(args, result)`` runs outside the span."""
        fid = self._register(name)
        fids, parents, requests = self.fids, self.parents, self.requests
        starts, ends, stack, request = self.starts, self.ends, self._stack, self._request
        counts, totals, drop_flags = self.counts, self.totals, self._drop_flags
        now = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            counts[fid] += 1
            if drop_flags[fid]:
                return fn(*args, **kwargs)
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            requests.append(request[0])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                totals[fid] += t1 - t0
            if counts[fid] in PROBES:
                tracer._probe(fid)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _probe(self, fid: int) -> None:
        calls, total = self.counts[fid], self.totals[fid]
        prev_calls, prev_total = self._probed.get(fid, (0, 0))
        self._probed[fid] = (calls, total)
        cost_ns, noop_span_ns = span_cost()
        own_ns = (total - prev_total) / (calls - prev_calls) - noop_span_ns
        if cost_ns >= DROP_RATIO * own_ns:
            self._drop_flags[fid] = True
            self.dropped[self.names[fid]] = {
                "after_calls": calls,
                "own_ns": round(own_ns, 1),
                "span_cost_ns": round(cost_ns, 1),
            }

    def install(self, package: str = "segrls", after: dict | None = None) -> None:
        """Wrap every public function of ``package``'s loaded modules.

        ``after`` maps a qualified name such as ``estimator.RlsEstimator.step``
        to a hook called with (args, result) after each successful call.
        """
        after = after or {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module in modules:
            for name, owner, attr, fn, is_cm in list(_public_callables(module)):
                wrapper = self.wrap(fn, name, after.get(name))
                if owner is not None:
                    self._restore.append((owner, attr, vars(owner)[attr]))
                    setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
                    continue
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._restore.append((other, key, fn))
                            setattr(other, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def set_request(self, index: int) -> None:
        self._request[0] = index

    @property
    def request(self) -> int:
        """Index of the command the spans now being recorded belong to."""
        return self._request[0]

    # ------------------------------------------------------------------
    # analysis

    def arrays(self) -> dict:
        # copies: a live buffer view would stop the arrays from growing
        return {
            "fid": np.frombuffer(self.fids, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "request": np.frombuffer(self.requests, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.starts, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64).copy(),
        }

    def summary(self) -> dict:
        """Per function: calls, inclusive seconds, self seconds, span durations."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_ns = dur - child
        n = len(self.names)
        incl = np.bincount(a["fid"], weights=dur, minlength=n)
        own = np.bincount(a["fid"], weights=self_ns, minlength=n)
        out = {}
        for fid, name in enumerate(self.names):
            out[name] = {
                "calls": self.counts[fid],
                "s": incl[fid] * 1e-9,
                "self_s": own[fid] * 1e-9,
                "dropped": name in self.dropped,
            }
        return out

    def durations_ns(self, name: str) -> np.ndarray:
        a = self.arrays()
        fid = self.names.index(name)
        mask = a["fid"] == fid
        return a["end_ns"][mask] - a["start_ns"][mask]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
