"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the simulator from the outside
(the program itself carries no instrumentation). Every wrapped call is
a span: its duration goes to the span's name, and is also charged to
the enclosing span as child time, so ``self`` time (duration minus the
time covered by child spans) adds up to the wall time of the root
span. Spans nest per thread; totals are merged under one lock.

Two clocks are useful. Replays run on one thread, so wall time
(``time.perf_counter``) is exact. The in-process service runs pool
workers, HTTP handlers and the client on threads that share the
interpreter lock; there a span measures the CPU time of its own thread
(``time.thread_time``), so a span that is preempted by another thread
is not charged for that thread's work.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Tracer:
    """Collects self time, inclusive time, calls and counts per span."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run ``fn`` as one span named ``name``.

        ``count(args, result)`` (optional) returns how many units of
        work the call did; it is added to ``counts[name]``.
        """
        stack = self._stack()
        stack.append(0.0)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            child = stack.pop()
            if stack:
                stack[-1] += duration
            with self._lock:
                self.self_s[name] += duration - child
                self.total_s[name] += duration
                self.calls[name] += 1
        if count is not None:
            units = count(args, result)
            with self._lock:
                self.counts[name] += units
        return result

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a traced version until
        :meth:`restore`."""
        original = getattr(owner, attr)
        if isinstance(owner, type):
            # Keep the plain function so the wrapper binds like one.
            original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, *args, count=count,
                               **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the simulator and the service.

    Span names are ``<layer>.<part>``; :func:`layer_metrics` turns
    them into the benchmark's per-layer metrics.
    """
    from repro.network.reconfig import ReconfigurableFabric
    from repro.network.routing import BLOCKED, IndirectRouter
    from repro.network.simulator import AWGRNetworkSimulator
    from repro.network.state import PiggybackState
    from repro.scenarios.arena import ArenaReport
    from repro.scenarios.registry import available_backends, backend_info
    from repro.scenarios.runner import ScenarioReport
    from repro.scenarios.scenario import Scenario
    from repro.service import gateway
    from repro.service.sessions import Session, SessionStore

    tracer.wrap(Scenario, "flow_batch_at", "scenarios.gen",
                count=lambda args, batch: len(batch))
    tracer.wrap(Scenario, "events_at", "scenarios.events")
    for name in available_backends():
        cls = backend_info(name).cls
        tracer.wrap(cls, "step", f"{name}.step")
        tracer.wrap(cls, "apply_event", "scenarios.events")
    tracer.wrap(AWGRNetworkSimulator, "offer_batch", "network.admit",
                count=lambda args, decisions: len(decisions.kinds))
    tracer.wrap(AWGRNetworkSimulator, "step", "network.expire")
    tracer.wrap(IndirectRouter, "route_tokens", "network.overflow",
                count=lambda args, routed: int(routed[0] != BLOCKED))
    tracer.wrap(PiggybackState, "step", "network.state")
    tracer.wrap(ReconfigurableFabric, "reconfigure", "network.schedule")
    tracer.wrap(ArenaReport, "as_dict", "analysis.report")
    tracer.wrap(ScenarioReport, "as_dict", "analysis.report")
    tracer.wrap(Session, "advance", "service.advance")
    tracer.wrap(Session, "snapshot_at", "service.snapshot")
    for method in ("save", "load", "delete", "list_ids"):
        tracer.wrap(SessionStore, method, "service.store")
    tracer.wrap(gateway, "encode_json", "service.encode")
    tracer.wrap(gateway, "sse_frame", "service.encode")


#: Spans reported as inclusive time (the whole contender step), not
#: self time.
INCLUSIVE = ("awgr.step", "wss.step", "electronic.step",
             "full_mesh.step", "dragonfly.step")

#: Spans reported as self time in ms per epoch.
SELF_TIMED = ("network.overflow", "network.schedule", "network.state",
              "network.admit", "network.expire", "scenarios.events",
              "scenarios.gen", "analysis.report",
              "service.advance", "service.snapshot", "service.store",
              "service.encode")


def layer_metrics(tracer: Tracer, epochs: int, replays: int) -> dict:
    """Per-layer figures: times in ms per epoch, counts per replay.

    ``epochs`` is the number of epochs the traced work produced and
    ``replays`` how many times it ran the workload's inputs, so counts
    are those of one pass and repeat exactly at a fixed seed.
    """
    out = {}
    for name in SELF_TIMED:
        out[f"{name}_ms"] = 1e3 * tracer.self_s.get(name, 0.0) / epochs
    for name in INCLUSIVE:
        out[f"{name}_ms"] = 1e3 * tracer.total_s.get(name, 0.0) / epochs
    routed = tracer.calls.get("network.overflow", 0)
    out["network.overflow_calls"] = routed // replays
    out["network.overflow_carried_ratio"] = (
        tracer.counts.get("network.overflow", 0) / routed
        if routed else 0.0)
    out["network.schedule_calls"] = (
        tracer.calls.get("network.schedule", 0) // replays)
    out["network.admit_flows"] = (
        tracer.counts.get("network.admit", 0) // replays)
    out["scenarios.gen_flows"] = (
        tracer.counts.get("scenarios.gen", 0) // replays)
    return out
