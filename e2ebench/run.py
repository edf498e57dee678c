"""End-to-end, layer-by-layer benchmark of the NewMadeleine reproduction.

Usage, from the repository root::

    python3 e2ebench/run.py --workload aggregate-burst --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation but
the benchmark's own timestamps; ``--trace 1`` is a separate run that
records layer spans (see ``spans.py``), derives per-layer self time and
counts, replays hardened-mixed's traffic up the opt-in layer ladder, and
writes the first repetition's spans under ``e2ebench/out/``.

Each run repeats its workload (fresh inputs from the seed, fresh stack,
timed simulation, verification) until ``--seconds`` have passed and enough
closed-loop samples exist for a p99, then reports medians.  A workload with
several input variants per seed cycles through them.  Every repetition must
reproduce the first one of its variant bit for bit (simulated latencies,
event and layer counts); a difference marks the run incorrect.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import (  # noqa: E402
    GATES, LAYER_NAMES, SpanRecorder, traced, write_spans,
)
from workloads import HARDENED_STACKS, WORKLOADS  # noqa: E402

#: A p99 needs at least ten samples beyond it.
MIN_OP_SAMPLES = 1000
MIN_REPS = 3
#: Hard stop for one measuring phase, whatever the sample count.
MAX_PHASE_S = 120.0
#: Host times are reported at a reference host speed: measured time x
#: REF_CALIB_MS / (median time of ``calibrate`` in the same run).  On a
#: shared host the speed of pure-Python work drifts by up to 40% within a
#: minute; the calibration is fixed work that shares no code with the
#: program, so the drift moves both alike while a change to the program
#: moves only the measurement.
REF_CALIB_MS = 30.0


class _Ev:
    __slots__ = ("t", "seq", "fn")

    def __init__(self, t: int, seq: int, fn) -> None:
        self.t, self.seq, self.fn = t, seq, fn


def _queue_loop(n: int = 12_000) -> float:
    """Event-queue-shaped work: heap pushes/pops, slotted objects, calls."""
    queue: list = []
    counts: dict[int, int] = {}
    order: list[int] = []
    x = 12345

    def bump(k: int) -> None:
        counts[k] = counts.get(k, 0) + 1

    t0 = perf_counter()
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(queue, (x & 0xFFFF, i, _Ev(x, i, bump)))
        if len(queue) > 32:
            ev = heapq.heappop(queue)[2]
            ev.fn(ev.t & 63)
            order.append(ev.seq)
    return perf_counter() - t0


def _table_loop(n: int = 40_000) -> float:
    """Allocation- and dict-heavy work over a working set of n objects."""
    t0 = perf_counter()
    objs = [_Ev(i, i * 3, None) for i in range(n)]
    table = {o.t * 7919 % 65521: o for o in objs}
    total = 0
    for k in range(0, 65521, 3):
        o = table.get(k)
        if o is not None:
            total += o.seq
    return perf_counter() - t0


def calibrate() -> float:
    """Seconds of fixed pure-Python work (geometric mean of two kernels).

    Each kernel alone tracked the drift less well than the pair: on the
    host where the bounds were set, the run-to-run spread of the scaled
    host_us_per_msg was 7-9% with the pair against 7-13% with the queue
    loop alone and 9-20% unscaled.
    """
    return (_queue_loop() * _table_loop()) ** 0.5


def _p(values: list[float], pct: int) -> float:
    """Percentile; 0 when a broken run left fewer than two samples."""
    if len(values) < 2:
        return 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


def _chunk_p99(reps: list) -> tuple[float, int]:
    """Median over chunks of consecutive reps of each chunk's p99.

    A chunk closes once it holds MIN_OP_SAMPLES samples (10 beyond its
    p99); leftover reps join the last chunk.  On a shared host a burst of
    interference inflates the pooled p99 of a whole run; it inflates one
    chunk's here.
    """
    chunks: list[list[float]] = [[]]
    for rep in reps:
        if len(chunks[-1]) >= MIN_OP_SAMPLES:
            chunks.append([])
        chunks[-1] += rep.op_us
    if len(chunks) > 1 and len(chunks[-1]) < MIN_OP_SAMPLES:
        short = chunks.pop()
        chunks[-1] += short
    return statistics.median(_p(c, 99) for c in chunks), len(chunks)


def _tail_p99(reps: list, variants: int) -> tuple[float, int]:
    """Mean over the seed's input variants of each variant's chunk p99."""
    per = [_chunk_p99([r for r in reps if r.variant == v])
           for v in range(variants)]
    return (statistics.fmean(p for p, _ in per), sum(n for _, n in per))


def _signature(stack, rep) -> tuple:
    """Everything that must repeat exactly for one seed."""
    stats = tuple(tuple(vars(e.stats).values()) for e in stack.engines)
    return (rep.events, rep.delivered, rep.payload_bytes, rep.makespan_us,
            tuple(rep.latencies), stats)


class Runner:
    """Repeats one workload and collects per-rep results."""

    def __init__(self, wl, seed: int, variants: int = 1) -> None:
        self.wl = wl
        self.seed = seed
        self.variants = variants
        self.reps: list = []
        self.setups: list[float] = []
        self.calib_s: list[float] = []
        self.problems: list[str] = []
        self.errors: list[str] = []
        self._sigs: dict[int, tuple] = {}

    def once(self, stack_name: str | None = None, rec: SpanRecorder | None
             = None, capture: bool = False):
        wl = self.wl
        variant = len(self.reps) % self.variants
        self.calib_s.append(calibrate())
        t0 = perf_counter()
        inputs = wl.generate(self.seed, variant)
        stack = wl.build(inputs, stack_name)
        self.setups.append(perf_counter() - t0)
        gc.collect()
        if rec is not None:
            rec.begin_rep(capture)
        rep, outputs = wl.drive(stack, inputs)
        wl.verify(stack, inputs, rep, outputs)
        rep.variant = variant
        self.reps.append(rep)
        self.problems += rep.problems
        if rep.error:
            self.errors.append(rep.error)
        sig = _signature(stack, rep)
        if self._sigs.setdefault(variant, sig) != sig:
            self.problems.append("repetition differs from the first one "
                                 "of its variant (non-deterministic "
                                 "simulation)")
        return stack, rep

    def until(self, seconds: float, min_reps: int, min_ops: int = 0) -> None:
        t_end = perf_counter() + seconds
        t_stop = perf_counter() + MAX_PHASE_S
        start = len(self.reps)
        while True:
            self.once()
            done = self.reps[start:]
            # Stop only after a whole cycle of variants, each with min_ops.
            n_ops = min(sum(len(r.op_us) for r in done if r.variant == v)
                        for v in range(self.variants))
            now = perf_counter()
            if now >= t_stop:
                break
            if (now >= t_end and len(done) >= min_reps and n_ops >= min_ops
                    and len(done) % self.variants == 0):
                break

    @property
    def speed(self) -> float:
        """Factor from this run's host speed to the reference speed."""
        return REF_CALIB_MS / (statistics.median(self.calib_s) * 1e3)

    def per_msg_us(self) -> float:
        """Median host us per delivered message, at reference speed."""
        return self.speed * statistics.median(
            r.wall_s * 1e6 / max(1, r.delivered) for r in self.reps)


def measure(wl, seed: int, seconds: float):
    """The untraced run: end-to-end metrics."""
    run = Runner(wl, seed, wl.variants)
    run.until(seconds, MIN_REPS, MIN_OP_SAMPLES)
    ops = [x for r in run.reps for x in r.op_us]
    first = run.reps[0]
    attempted = sum(r.attempted for r in run.reps)
    delivered = sum(r.delivered for r in run.reps)
    speed = run.speed
    p99, n_chunks = _tail_p99(run.reps, wl.variants)
    metrics = {
        "host_us_per_msg": (run.per_msg_us(), "us"),
        "host_us_p50": (speed * _p(ops, 50), "us"),
        "host_us_p99": (speed * p99, "us"),
        "sim_latency_p50_us": (_p(first.latencies, 50), "sim_us"),
        "sim_latency_p99_us": (_p(first.latencies, 99), "sim_us"),
        "sim_goodput_mb_s": (first.payload_bytes / max(first.makespan_us, 1e-9),
                             "MB/s"),
        "setup_s": (speed * statistics.median(run.setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "delivered_ratio": (delivered / attempted, "ratio"),
    }
    notes = [
        f"{len(run.reps)} repetitions of {first.attempted} messages, "
        f"cycling through {wl.variants} input variant(s)",
        f"host times scaled by {speed:.4f} to the reference speed "
        f"(calibration median {REF_CALIB_MS / speed:.3f} ms, "
        f"reference {REF_CALIB_MS} ms); unscaled host_us_per_msg "
        f"{run.per_msg_us() / speed:.3f}",
        f"host_us_p50 over {len(ops)} samples, one per {wl.closed_op}; "
        f"host_us_p99 is, averaged over the variants, the median p99 of "
        f"{n_chunks} chunk(s) of >= {MIN_OP_SAMPLES} samples "
        f"(pooled p99 {speed * _p(ops, 99):.1f})",
        f"sim latency over the first repetition's {len(first.latencies)} "
        "messages (deterministic)",
        f"error_rate {1 - delivered / attempted:.6f} "
        f"({attempted - delivered} of {attempted} not delivered exactly "
        "once with correct bytes)",
    ]
    return run, metrics, notes, []


# -- traced run ----------------------------------------------------------------
def _layer_counts(stack, rep, rec: SpanRecorder) -> dict[str, float]:
    """Deterministic per-layer counts of one traced repetition."""
    engines = stack.engines
    msgs = max(1, rep.delivered)

    def tot(field: str) -> int:
        return sum(getattr(e.stats, field) for e in engines)

    packets = tot("phys_packets")
    selects = rec.seen["select"]
    nics = [nic for e in engines for nic in e.node.nics]
    nic_frames = sum(n.frames_sent for n in nics)
    out = {}
    for li, layer in enumerate(LAYER_NAMES):
        out[f"{layer}.calls_per_msg"] = rec.calls[li] / msgs
        if layer in GATES:
            out[f"{layer}.passthrough_calls_per_msg"] = \
                rec.passthrough[li] / msgs
    out.update({
        "sim.core.events_per_msg": rep.events / msgs,
        "core.window.peak_wraps": max(e.window.peak_wraps for e in engines),
        "core.strategies.packets_per_select": packets / max(1, selects),
        "core.strategies.useful_pull_ratio":
            rec.seen["select_useful"] / max(1, selects),
        "core.tactics.plan_calls_per_packet":
            rec.calls[LAYER_NAMES.index("core.tactics")] / max(1, packets),
        "core.packet.segments_per_packet": tot("items_sent") / max(1, packets),
        "core.transfer.frames_per_msg": packets / msgs,
        "core.matching.unexpected_per_msg":
            sum(e.matcher.unexpected_total for e in engines) / msgs,
        "core.rendezvous.chunks_per_msg": rec.seen["rdv_chunks"] / msgs,
        "core.reliability.acks_per_msg": tot("acks_sent") / msgs,
        "core.reliability.retransmits_per_msg": tot("retransmits") / msgs,
        "core.reliability.duplicates_per_msg":
            tot("duplicates_suppressed") / msgs,
        "core.flowcontrol.credit_stalls_per_msg": tot("credit_stalls") / msgs,
        "core.flowcontrol.grants_per_msg": tot("credits_granted") / msgs,
        "core.sessions.heartbeats_per_msg": tot("heartbeats_sent") / msgs,
        "core.rttstat.samples_per_msg": tot("rtt_samples") / msgs,
        "netsim.nic.frames_per_msg": nic_frames / msgs,
        "netsim.nic.data_frame_share":
            rec.seen["nic_data_frames"] / max(1, rec.seen["nic_frames"]),
        "netsim.nic.peak_queue_depth": rec.peak.get("nic_queue", 0),
        "netsim.fabric.hops_per_frame":
            rec.seen["switch_hops"] / max(1, nic_frames),
        "netsim.fabric.peak_port_depth": rec.peak.get("port_depth", 0),
    })
    return out


#: Ladder step -> the opt-in layer it adds.
LADDER_LAYER = {"ack": "core.reliability", "credit": "core.flowcontrol",
                "epoch": "core.sessions", "auto": "core.rttstat"}


def ladder(seed: int, seconds: float
           ) -> tuple[dict[str, float], list[str], list[str]]:
    """hardened-mixed's traffic at each cumulative layer stack."""
    wl = WORKLOADS["hardened-mixed"]
    runs = {name: Runner(wl, seed) for name, _ in HARDENED_STACKS}
    t_end = perf_counter() + seconds
    while True:  # interleave the stacks so drift hits them alike
        for name, run in runs.items():
            run.once(stack_name=name)
        if perf_counter() >= t_end:
            break
    host = {name: run.per_msg_us() for name, run in runs.items()}
    events = {name: run.reps[0].events / run.reps[0].delivered
              for name, run in runs.items()}
    out = {"ladder.paper.host_us_per_msg": host["paper"],
           "ladder.paper.events_per_msg": events["paper"]}
    names = [name for name, _ in HARDENED_STACKS]
    for prev, name in zip(names, names[1:]):
        layer = LADDER_LAYER[name]
        out[f"{layer}.marginal_host_us_per_msg"] = host[name] - host[prev]
        out[f"{layer}.marginal_events_per_msg"] = events[name] - events[prev]
    problems = [p for run in runs.values() for p in run.problems]
    problems += [e for run in runs.values() for e in run.errors]
    rows = "  ".join(f"{n}={host[n]:.1f}us/{events[n]:.2f}ev" for n in names)
    return out, problems, [f"ladder (host us/msg, events/msg): {rows}"]


def trace_run(wl, seed: int, seconds: float):
    """Untraced reference, traced reps, then the layer ladder."""
    ref = Runner(wl, seed)
    ref.until(seconds * 0.3, 2)
    rec = SpanRecorder()
    run = Runner(wl, seed)
    counts: dict | None = None
    spans = None
    with traced(rec):
        t_end = perf_counter() + seconds * 0.4
        while True:
            stack, rep = run.once(rec=rec, capture=not run.reps)
            if spans is None:
                spans = rec.spans
            c = _layer_counts(stack, rep, rec)
            if counts is None:
                counts = c
            elif c != counts:
                run.problems.append("layer counts differ between repetitions")
            if perf_counter() >= t_end and len(run.reps) >= 2:
                break
    msgs = sum(r.delivered for r in run.reps)
    metrics = {}
    for li, layer in enumerate(LAYER_NAMES):
        metrics[f"{layer}.self_us_per_msg"] = \
            run.speed * rec.self_s[li] * 1e6 / msgs
    metrics.update(counts)
    traced_wall = sum(r.wall_s for r in run.reps)
    metrics["trace.overhead_ratio"] = run.per_msg_us() / ref.per_msg_us()
    metrics["trace.attributed_share"] = sum(rec.self_s) / traced_wall
    lad, lad_problems, notes = ladder(seed, seconds * 0.3)
    metrics.update(lad)
    out = HERE / "out" / f"spans-{wl.name}-seed{seed}.csv.gz"
    n_spans = write_spans(spans, out)
    problems = ref.problems + ref.errors + lad_problems
    # Self times must tile the root spans exactly: no double counting.
    if abs(sum(rec.self_s) - rec.root_s) > 1e-6 * max(1.0, rec.root_s):
        problems.append("layer self times do not add up to the run spans")
    top = sorted(LAYER_NAMES, key=lambda n: -rec.self_s[LAYER_NAMES.index(n)])
    notes = [
        f"{len(run.reps)} traced and {len(ref.reps)} untraced repetitions",
        "self time, top layers: " + ", ".join(
            f"{n} {100 * rec.self_s[LAYER_NAMES.index(n)] / rec.root_s:.1f}%"
            for n in top[:5]),
        f"{n_spans} spans of the first traced repetition -> "
        f"{out.relative_to(HERE.parent)}",
    ] + notes
    if rec.skipped:
        notes.append("entry points not found (time charged to the caller): "
                     + ", ".join(sorted(set(rec.skipped))))
    units = {k: ("us" if "_us_" in k else "ratio" if "ratio" in k
                 or "share" in k else "count") for k in metrics}
    return run, {k: (v, units[k]) for k, v in metrics.items()}, notes, \
        problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]
    run, metrics, notes, problems = (trace_run if args.trace else measure)(
        wl, args.seed, args.seconds)
    problems += run.problems
    attempted = sum(r.attempted for r in run.reps)
    failed = sum(r.failed for r in run.reps)
    print(f"# {wl.name} seed={args.seed} trace={args.trace}: {wl.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  - {note}")
    for err in sorted(set(run.errors)):
        print(f"  ! {err}")
    for prob in sorted(set(problems))[:20]:
        print(f"  ! {prob}")
    correct = failed == 0 and not problems and not run.errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
