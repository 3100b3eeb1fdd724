"""Host-time spans recorded around calls into the program's public functions.

The traced run wraps each layer's public entry points (see ``LAYER_HOOKS``)
from outside the program: a wrapper opens a span, calls the original, and
closes the span, so nothing under ``src/`` changes.  Spans live in compact
in-memory columns while the run executes and are only turned into numbers
(per-name calls, span time and self time) and a Chrome-trace file at the end.

Self time is a span's duration minus the time its child spans cover.  The
program runs on one thread and every span is opened and closed through a
stack, so children never overlap and their covered time is the sum of their
durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

_NO_PARENT = -1
_OPEN = -1
#: Spans of one trace kept in the Chrome-trace file; the thrashing ramext
#: micro-benchmark stream alone is one trace of over a million spans.
MAX_SPANS_PER_TRACE = 4000


class SpanRecorder:
    """An in-memory span store with one trace id per root span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.trace_id = array("l")
        self.parent = array("l")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._stack: List[int] = []
        self._traces = 0
        #: Counts taken at the wrapped boundaries (call arguments or
        #: results), keyed by metric name.
        self.counts: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.start_ns)

    def open(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start_ns)
        if self._stack:
            parent = self._stack[-1]
            trace = self.trace_id[parent]
        else:
            parent = _NO_PARENT
            self._traces += 1
            trace = self._traces
        self.name_id.append(nid)
        self.trace_id.append(trace)
        self.parent.append(parent)
        self.end_ns.append(_OPEN)
        self._stack.append(index)
        self.start_ns.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        """Close the innermost open span, which must be ``index``."""
        self.end_ns[index] = time.perf_counter_ns()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {index} closed while {top} is innermost")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def count(self, metric: str, amount: float) -> None:
        self.counts[metric] = self.counts.get(metric, 0.0) + amount

    # -- analysis ---------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``span_s`` and ``self_s``."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        starts, ends, parents = self.start_ns, self.end_ns, self.parent
        covered = [0] * len(starts)
        for index in range(len(starts)):
            parent = parents[index]
            if parent != _NO_PARENT:
                covered[parent] += ends[index] - starts[index]
        totals = {name: [0, 0, 0] for name in self.names}
        for index, nid in enumerate(self.name_id):
            duration = ends[index] - starts[index]
            row = totals[self.names[nid]]
            row[0] += 1
            row[1] += duration
            row[2] += duration - covered[index]
        return {name: {"calls": calls, "span_s": span_ns / 1e9,
                       "self_s": self_ns / 1e9}
                for name, (calls, span_ns, self_ns) in totals.items()}

    def chrome_trace(self) -> str:
        """The spans as Chrome-trace JSON, one ``pid`` per trace.

        Each trace keeps its first ``MAX_SPANS_PER_TRACE`` spans in start
        order.  A parent always starts before its children, so the kept
        prefix is still one connected tree rooted at the trace's root.
        """
        origin = self.start_ns[0] if len(self) else 0
        kept: Dict[int, int] = {}
        events = []
        for index in range(len(self)):
            trace = self.trace_id[index]
            if kept.get(trace, 0) >= MAX_SPANS_PER_TRACE:
                continue
            kept[trace] = kept.get(trace, 0) + 1
            name = self.names[self.name_id[index]]
            args = {"span_id": index}
            if self.parent[index] != _NO_PARENT:
                args["parent_id"] = self.parent[index]
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (self.start_ns[index] - origin) / 1e3,
                "dur": (self.end_ns[index] - self.start_ns[index]) / 1e3,
                "pid": trace, "tid": 1, "args": args,
            })
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                           "otherData": {"exporter": "zombench",
                                         "spans_recorded": len(self)}})


# -- wrapping the program's entry points ------------------------------------

#: ``(module, attribute path, span name)`` for every wrapped boundary.  Class
#: methods are patched on the class before the objects that use them are
#: built, so handlers bound at construction time go through the wrapper too.
LAYER_HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.hypervisor.kvm", "Hypervisor.access", "hypervisor.access"),
    ("repro.memory.replacement", "ReplacementPolicy.select_victim",
     "memory.replacement.select_victim"),
    ("repro.memory.buffers", "RemotePageStore.store", "memory.buffers.store"),
    ("repro.memory.buffers", "RemotePageStore.load", "memory.buffers.load"),
    ("repro.memory.buffers", "RemotePageStore.free", "memory.buffers.free"),
    ("repro.memory.frames", "FrameAllocator.alloc", "memory.frames.alloc"),
    ("repro.memory.frames", "FrameAllocator.alloc_many",
     "memory.frames.alloc_many"),
    ("repro.rdma.rpc", "RpcClient.call_timed", "rdma.rpc.call"),
    ("repro.rdma.rpc", "RpcServer.dispatch", "rdma.rpc.serve"),
    ("repro.fed.gateway", "FederationGateway.call", "fed.gateway.call"),
    ("repro.fed.lending", "LendingManager.borrow", "fed.lending.borrow"),
    ("repro.fed.directory", "FederationDirectory.refresh",
     "fed.directory.refresh"),
    ("repro.core.secondary", "SecondaryController.apply_mirror",
     "core.secondary.apply_mirror"),
    ("repro.core.server", "RackServer.go_zombie", "core.server.go_zombie"),
    ("repro.core.server", "RackServer.wake", "core.server.wake"),
    ("repro.sim.engine", "Engine.run", "sim.engine.run"),
    ("repro.traces.google", "trace_from_csv", "traces.trace_from_csv"),
    ("repro.dc.datacenter", "aggregate_demand", "dc.aggregate_demand"),
    ("repro.dc.energy_sim", "simulate_energy", "dc.simulate_energy"),
    ("repro.dc.fleet", "FederationFleet.enact", "dc.fleet.enact"),
) + tuple(
    ("repro.core.controller", f"GlobalMemoryController.{handler}",
     f"core.controller.{handler}")
    for handler in ("gs_alloc_ext", "gs_alloc_swap", "gs_release",
                    "gs_goto_zombie", "gs_wake", "gs_reclaim", "fed_borrow",
                    "fed_return", "fed_import", "fed_recall", "heartbeat"))

#: Span name -> ``(recorder, args, kwargs, result)`` hook that takes counts
#: at the boundary.
_COUNTERS: Dict[str, Callable] = {
    "sim.engine.run": lambda rec, args, kwargs, result: rec.count(
        "sim.engine.run.events", result),
    "fed.lending.borrow": lambda rec, args, kwargs, result: (
        rec.count("fed.borrow.requested",
                  args[3] if len(args) > 3 else kwargs["nb_buffers"]),
        rec.count("fed.borrow.granted", result)),
}


def _wrap(recorder: SpanRecorder, original: Callable, name: str) -> Callable:
    counter = _COUNTERS.get(name)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(index)
        if counter is not None:
            counter(recorder, args, kwargs, result)
        return result

    return traced


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Patch every hook to record into ``recorder``; restore on exit."""
    restore = []
    try:
        for module_name, path, name in LAYER_HOOKS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(recorder, original, name))
            restore.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
