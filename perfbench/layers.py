"""Per-layer attribution of one traced simulation's wall time.

Two sources are combined, both kept in memory until the run ends:

* **Spans** around public entry points of each layer, installed as timing
  wrappers on the classes *before* the machine is built (so every bound
  method the machine captures is the wrapper).  A span's exclusive time
  goes to its layer; a nested span of another layer is charged to that
  layer instead (a stack of open spans, one clock read per transition).
* **Kernel dispatches**, through the simulator's public ``tracer`` hook:
  a :class:`DispatchProfile` subclass receives ``(label, seconds)`` for
  every callback.  The callback's time minus the spans opened inside it
  is charged to the layer that owns the label's prefix.

What is left of the traced wall time — the event loop itself — is
``sim.self_s``.  By construction the layers plus ``sim.self_s`` account
for the wall time; the benchmark still checks the sum, so a wrapper that
loses time (an exception path, a mis-nested span) shows as a failure.
"""

from __future__ import annotations

from functools import wraps
from time import perf_counter
from typing import Dict, List, Tuple

from repro.checkpoint.agent import ValidationAgent
from repro.coherence.cache import CacheController
from repro.coherence.directory import MemoryController
from repro.core.clb import CheckpointLogBuffer
from repro.core.recovery import RecoveryManager
from repro.interconnect.network import Network
from repro.sim.profile import UNLABELLED, DispatchProfile
from repro.workloads.base import SyntheticWorkload

#: Layers, named by module.  Index 0 is the base of the span stack: time
#: outside any span, split between callbacks and the loop by the kernel
#: hook rather than by the stack.
LAYERS = ("sim", "interconnect", "coherence", "processor", "workloads",
          "checkpoint", "core.recovery")
_BASE = 0
_INDEX = {name: i for i, name in enumerate(LAYERS)}

#: Kernel event-label prefix -> layer.  A label no prefix claims is
#: kernel bookkeeping and stays in ``sim``.
LABEL_LAYERS = (
    ("net.", "interconnect"),
    ("core.", "processor"),
    ("home.", "coherence"),
    ("cache.", "coherence"),
    ("validate.", "checkpoint"),
    ("ckpt.", "checkpoint"),
    ("recovery.", "core.recovery"),
    ("fault.", "core.recovery"),
)

#: (class, method, layer, call counter).  ``start_watchdog`` runs once per
#: ``Machine.run`` and keeps the recovery layer's time non-zero on
#: fault-free runs, where ``report_fault`` never fires.
ENTRY_POINTS = (
    (Network, "send", "interconnect", "interconnect.sends"),
    (CacheController, "handle_message", "coherence", "coherence.cache_msgs"),
    (CacheController, "start_miss", "coherence", "coherence.misses"),
    (MemoryController, "handle_message", "coherence", "coherence.home_msgs"),
    (SyntheticWorkload, "op_packed", "workloads", "workloads.ops"),
    (CheckpointLogBuffer, "append", "checkpoint", "checkpoint.clb_appends"),
    (ValidationAgent, "on_edge", "checkpoint", "checkpoint.validation_calls"),
    (ValidationAgent, "announce_if_ready", "checkpoint",
     "checkpoint.validation_calls"),
    (ValidationAgent, "on_rpcn_broadcast", "checkpoint",
     "checkpoint.validation_calls"),
    (RecoveryManager, "report_fault", "core.recovery", "core.recovery.faults"),
    (RecoveryManager, "start_watchdog", "core.recovery",
     "core.recovery.watchdog_starts"),
)
COUNTERS = tuple(dict.fromkeys(counter for *_, counter in ENTRY_POINTS))


def label_layer(label: str) -> str:
    for prefix, layer in LABEL_LAYERS:
        if label.startswith(prefix):
            return layer
    return "sim"


class LayerTracer(DispatchProfile):
    """Span stack + kernel tracer for one traced simulation.

    Use as a context manager around building *and* running the machine::

        with LayerTracer() as tracer:
            machine = build(seed)
            machine.sim.tracer = tracer
            started = perf_counter()
            machine.run(n)
            wall = perf_counter() - started
        breakdown = tracer.layer_seconds(wall)

    Leaving the block restores the original methods, so machines built
    afterwards run untraced.
    """

    __slots__ = ("span_self", "_calls", "_stack", "_mark", "_pending",
                 "_inner", "_outside", "_saved")

    def __init__(self) -> None:
        super().__init__()
        self.span_self: List[float] = [0.0] * len(LAYERS)
        self._calls: List[int] = [0] * len(COUNTERS)
        self._stack: List[int] = [_BASE]
        self._mark = [0.0]
        # Top-level spans closed since the last kernel record: (end, dur).
        self._pending: List[Tuple[float, float]] = []
        # Label -> callback seconds not covered by spans.
        self._inner: Dict[str, float] = {}
        # Top-level span seconds that ran outside any kernel callback.
        self._outside = 0.0
        self._saved: List[Tuple[type, str, object]] = []

    # -- wrappers --------------------------------------------------------
    @property
    def calls(self) -> Dict[str, int]:
        """Calls per entry-point counter."""
        return dict(zip(COUNTERS, self._calls))

    def _wrap(self, fn, layer: int, counter: int):
        stack = self._stack
        span_self = self.span_self
        mark = self._mark
        pending = self._pending
        calls = self._calls
        clock = perf_counter

        @wraps(fn)
        def span(*args, **kwargs):
            t0 = clock()
            calls[counter] += 1
            outer = stack[-1]
            span_self[outer] += t0 - mark[0]
            stack.append(layer)
            mark[0] = t0
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                span_self[stack.pop()] += t1 - mark[0]
                mark[0] = t1
                if outer == _BASE:
                    pending.append((t1, t1 - t0))
        return span

    def __enter__(self) -> "LayerTracer":
        for cls, name, layer, counter in ENTRY_POINTS:
            original = cls.__dict__[name]
            self._saved.append((cls, name, original))
            setattr(cls, name, self._wrap(original, _INDEX[layer],
                                          COUNTERS.index(counter)))
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()

    # -- kernel hook -----------------------------------------------------
    def record(self, label: str, seconds: float) -> None:
        now = perf_counter()
        label = label or UNLABELLED
        self.counts[label] = self.counts.get(label, 0) + 1
        self.seconds[label] = self.seconds.get(label, 0.0) + seconds
        pending = self._pending
        if pending:
            # A span that ended before this callback began ran outside the
            # event loop (Machine.run's prologue).
            started = now - seconds
            for end, dur in pending:
                if end > started:
                    seconds -= dur
                else:
                    self._outside += dur
            pending.clear()
        inner = self._inner
        inner[label] = inner.get(label, 0.0) + seconds

    # -- results ---------------------------------------------------------
    def layer_seconds(self, wall: float) -> Dict[str, float]:
        """Self seconds per layer; ``sim`` is the loop's own time."""
        leftover = sum(dur for _, dur in self._pending)
        out = {name: self.span_self[i] for i, name in enumerate(LAYERS)
               if i != _BASE}
        for label, seconds in self._inner.items():
            layer = label_layer(label)
            out[layer] = out.get(layer, 0.0) + seconds
        out["sim"] = (out.get("sim", 0.0) + wall - self.total_seconds
                      - self._outside - leftover)
        return out
