"""Layer spans for the traced run, recorded from outside the program.

``traced(recorder)`` patches each layer's entry points (class attributes
and one import site) with a wrapper that times the call, and restores the
originals on exit.  Patching happens before the stack is built, so bound
methods the engine caches at construction (NIC handlers, pull thunks) are
the wrapped ones.

A span's *self* time is its duration minus the durations of the spans it
directly contains.  ``Simulator.run`` is the root span, so its self time is
what no layer entry point covers: the kernel's dispatch loop, process
resumption and the callbacks that belong to no wrapped entry.  The self
times of all layers therefore add up to the root span's wall time, each
interval counted once.

Spans are kept in memory for the first traced repetition and written out
(gzip CSV) when the run ends; later repetitions only add to the totals.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

__all__ = ["GATES", "LAYERS", "LAYER_NAMES", "SpanRecorder", "traced", "write_spans"]

#: Layer name -> entry points.  ``module:Owner.attr`` patches a class
#: attribute, ``module:attr`` a module attribute (an import site),
#: ``module:Owner.*`` every public method the class itself defines, and
#: ``module:Owner.select+`` the method on the class and every subclass that
#: overrides it.  A trailing ``?`` marks an internal callback the kernel
#: dispatches into the layer: it is wrapped when present, so its time is not
#: charged to the kernel, and skipped (and reported) if renamed.
LAYERS: dict[str, list[str]] = {
    "sim.core": ["repro.sim.core:Simulator.run"],
    "madmpi": ["repro.madmpi.mpi:MadMpi.isend", "repro.madmpi.mpi:MadMpi.irecv"],
    "core.collect": ["repro.core.collect:CollectLayer.submit",
                     "repro.core.collect:CollectLayer.submit_control"],
    "core.window": ["repro.core.window:OptimizationWindow.submit",
                    "repro.core.window:OptimizationWindow.take",
                    "repro.core.window:OptimizationWindow.restore"],
    "core.strategies": ["repro.core.strategy:Strategy.select+"],
    "core.tactics": ["repro.core.strategies.aggregation:plan_aggregate"],
    "core.packet": ["repro.core.packet:PacketWrap.__init__",
                    "repro.core.packet:PhysPacket.wire_size",
                    "repro.core.packet:PhysPacket.payload_size"],
    "core.transfer": ["repro.core.transfer:TransferLayer.kick",
                      "repro.core.transfer:TransferLayer.demux_frame",
                      "repro.core.transfer:TransferLayer._pull?",
                      "repro.core.transfer:TransferLayer._dispatch_item?"],
    "core.matching": ["repro.core.matching:Matcher.deliver",
                      "repro.core.matching:Matcher.post"],
    "core.rendezvous": ["repro.core.rendezvous:RendezvousManager.*"],
    "core.reliability": [
        "repro.core.reliability:ReliabilityLayer.send",
        "repro.core.reliability:ReliabilityLayer.on_frame",
        "repro.core.reliability:ReliabilityLayer._tx_done?",
        "repro.core.reliability:ReliabilityLayer._on_timer?",
        "repro.core.reliability:ReliabilityLayer._hedge_fire?",
        "repro.core.reliability:ReliabilityLayer._delayed_ack_fire?",
        "repro.core.reliability:ReliabilityLayer._reprobe?",
    ],
    "core.flowcontrol": ["repro.core.flowcontrol:FlowControlLayer.stamp",
                         "repro.core.flowcontrol:FlowControlLayer.accept",
                         "repro.core.flowcontrol:FlowControlLayer._grant_fire?",
                         "repro.core.flowcontrol:FlowControlLayer._resend?"],
    "core.sessions": ["repro.core.sessions:SessionLayer.stamp",
                      "repro.core.sessions:SessionLayer.on_frame",
                      "repro.core.sessions:SessionLayer._mon_tick?"],
    "core.rttstat": ["repro.core.rttstat:RttEstimator.sample"],
    "netsim.nic": ["repro.netsim.nic:Nic.post_send",
                   "repro.netsim.nic:Nic._finish_tx?",
                   "repro.netsim.nic:Nic._arrive?",
                   "repro.netsim.nic:Nic._handle_batch?",
                   "repro.netsim.nic:Nic._run_idle_callbacks?"],
    "netsim.link": ["repro.netsim.link:Link.transmit",
                    "repro.netsim.link:Link._deliver?"],
    "netsim.fabric": ["repro.netsim.fabric:Switch.select_port",
                      "repro.netsim.fabric:Switch._arrive?",
                      "repro.netsim.fabric:_Port._finish?"],
}

LAYER_NAMES = list(LAYERS)

#: Opt-in layers stay on the paper-mode path as pass-throughs.  A call
#: into a disabled layer is counted apart (``passthrough``), so
#: ``calls_per_msg`` counts only the work of an enabled layer; its time is
#: the layer's either way.
GATES = {
    "core.reliability": lambda layer: layer.mode != "off",
    "core.flowcontrol": lambda layer: layer.active,
    "core.sessions": lambda layer: layer.active,
}


class SpanRecorder:
    """Per-layer self time and call counts, plus the first rep's spans."""

    def __init__(self) -> None:
        n = len(LAYER_NAMES)
        self.self_s = [0.0] * n      # accumulated over every traced rep
        self.root_s = 0.0
        self.calls = [0] * n         # this rep only (deterministic)
        self.passthrough = [0] * n   # this rep: calls into a disabled layer
        self.seen: Counter = Counter()  # this rep: observer counts
        self.peak: dict[str, int] = {}  # this rep: observed maxima
        self.stack: list[list] = []
        self.spans: list[tuple] | None = None
        self._next_id = 0
        self.skipped: list[str] = []

    def begin_rep(self, capture: bool) -> None:
        self.calls = [0] * len(LAYER_NAMES)
        self.passthrough = [0] * len(LAYER_NAMES)
        self.seen = Counter()
        self.peak = {}
        self.spans = [] if capture else None
        self._next_id = 0

    def note_peak(self, key: str, value: int) -> None:
        if value > self.peak.get(key, 0):
            self.peak[key] = value


# -- what the wrappers observe at the boundary ------------------------------
def _obs_select(rec, args, result) -> None:
    rec.seen["select"] += 1
    if result is not None:
        rec.seen["select_useful"] += 1


def _obs_post_send(rec, args, result) -> None:
    nic, frame = args[0], args[1]
    rec.seen["nic_frames"] += 1
    if frame.kind == "data":
        rec.seen["nic_data_frames"] += 1
    rec.note_peak("nic_queue", nic.queued)


def _obs_select_port(rec, args, result) -> None:
    rec.seen["switch_hops"] += 1
    if result is not None:
        rec.note_peak("port_depth", args[0].ports[result].depth)


def _obs_chunk_sent(rec, args, result) -> None:
    rec.seen["rdv_chunks"] += 1


_OBSERVERS = {
    "select": _obs_select,
    "post_send": _obs_post_send,
    "select_port": _obs_select_port,
    "chunk_sent": _obs_chunk_sent,
}


def _make_span(rec: SpanRecorder, li: int, fn, root: bool, observe=None,
               gate=None):
    perf = perf_counter

    @functools.wraps(fn)
    def span(*args, **kwargs):
        stack = rec.stack
        if not stack and not root:
            return fn(*args, **kwargs)  # outside the traced region
        sid = rec._next_id
        rec._next_id = sid + 1
        parent = stack[-1][1] if stack else -1
        frame = [0.0, sid]
        stack.append(frame)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            d = t1 - t0
            rec.self_s[li] += d - frame[0]
            if gate is None or gate(args[0]):
                rec.calls[li] += 1
            else:
                rec.passthrough[li] += 1
            if stack:
                stack[-1][0] += d
            else:
                rec.root_s += d
            if rec.spans is not None:
                rec.spans.append((sid, parent, li, t0, t1))
        if observe is not None:
            observe(rec, args, result)
        return result

    return span


def _targets(spec: str) -> list[tuple[object, str]]:
    """Resolve an entry spec to (owner, attribute) pairs to patch."""
    mod_name, _, path = spec.partition(":")
    owner: object = importlib.import_module(mod_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    if attr == "*":
        return [(owner, name) for name, val in vars(owner).items()
                if not name.startswith("_") and inspect.isfunction(val)]
    if attr.endswith("+"):
        attr = attr[:-1]
        found, todo = [], [owner]
        while todo:
            cls = todo.pop()
            todo += cls.__subclasses__()
            if attr in vars(cls) and not getattr(vars(cls)[attr],
                                                 "__isabstractmethod__", False):
                found.append((cls, attr))
        return found
    return [(owner, attr)]


@contextmanager
def traced(rec: SpanRecorder):
    """Patch every layer entry point for the duration of the block."""
    importlib.import_module("repro.core")  # registers every strategy
    saved: list[tuple[object, str, object]] = []
    try:
        for li, layer in enumerate(LAYER_NAMES):
            for spec in LAYERS[layer]:
                optional = spec.endswith("?")
                spec = spec.rstrip("?")
                for owner, attr in _targets(spec):
                    raw = vars(owner).get(attr) if isinstance(owner, type) \
                        else getattr(owner, attr, None)
                    if raw is None:
                        if not optional:
                            raise AttributeError(f"entry point {spec} is gone")
                        rec.skipped.append(spec)
                        continue
                    if inspect.isgeneratorfunction(raw):
                        raise TypeError(f"{spec} is a generator; a span "
                                        "would time only its creation")
                    wrapped = _make_span(rec, li, raw, root=(li == 0),
                                         observe=_OBSERVERS.get(attr),
                                         gate=GATES.get(layer))
                    saved.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
        yield rec
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def write_spans(rec_spans: list[tuple], path: Path) -> int:
    """Write one rep's spans as gzip CSV; times in us from the root start."""
    path.parent.mkdir(parents=True, exist_ok=True)
    t_base = min((s[3] for s in rec_spans), default=0.0)
    with gzip.open(path, "wt", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["span_id", "parent_id", "layer", "start_us", "end_us"])
        for sid, parent, li, t0, t1 in sorted(rec_spans):
            out.writerow([sid, parent, LAYER_NAMES[li],
                          f"{(t0 - t_base) * 1e6:.3f}",
                          f"{(t1 - t_base) * 1e6:.3f}"])
    return len(rec_spans)
