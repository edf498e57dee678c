"""The NewMadeleine engine: the three layers assembled on one node.

Instantiate one :class:`NmadEngine` per cluster node; engines communicate
exclusively through simulated frames (no shared Python state), exactly like
separate processes on separate hosts.

The opt-in hardening layers (reliability, flow control, sessions) are
built only when :class:`EngineParams` turns them on, and wired between
the transfer layer and the NICs in :meth:`NmadEngine._wire_layers` — the
one place that states their transmit and receive orders.

The native interface is deliberately small, mirroring the operations
MAD-MPI maps onto (paper §3.4): :meth:`NmadEngine.isend`,
:meth:`NmadEngine.irecv`, and the request handles' completion events for
wait/test.  The incremental pack interface of the former Madeleine library
lives in :mod:`repro.core.interface`.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass, field, fields
from typing import Any

from repro.core.collect import CollectLayer
from repro.core.data import SegmentData
from repro.core.flowcontrol import FlowControlLayer
from repro.core.matching import Incoming, Matcher
from repro.core.packet import (
    CancelItem, HeaderSpec, PacketWrap, RdvReqItem, SegItem,
)
from repro.core.peerlayer import (
    PeerLayer, ReceiveHop, SendHop, TimerService,
)
from repro.core.reliability import ReliabilityLayer
from repro.core.rendezvous import RendezvousManager
from repro.core.requests import ANY, RecvRequest, SendRequest
from repro.core.rttstat import RttEstimator
from repro.core.sessions import SessionLayer
from repro.core.strategy import Strategy, create
from repro.core.transfer import TransferLayer
from repro.core.window import OptimizationWindow
from repro.errors import (
    DeadlineExceededError, MpiError, PeerDeadError, SimulationError,
)
from repro.netsim.node import Node
from repro.netsim.profiles import NicProfile
from repro.sim import Event, Tracer
from repro.sim.core import Watchdog

__all__ = ["EngineParams", "EngineStats", "NmadEngine", "RTO_HEADROOM",
           "RX_ORDER", "TX_ORDER"]

#: Transmit order of the opt-in layers, from the transfer layer down to
#: the NIC; each entry is an ``NmadEngine`` attribute whose ``send`` is
#: the hop.  Flow control stamps its grant first.  The session gate must
#: run before reliability assigns a sequence number: a frame deferred
#: behind the handshake must not hold one, or a teardown would fail it
#: twice (once from the gate's buffer, once from the send buffer).
TX_ORDER = ("flowcontrol", "sessions", "reliability")
#: Receive order, from the NIC up to the demultiplexer, with each layer's
#: receive entry.  It is not the mirror image of :data:`TX_ORDER`: the
#: session fence must run before reliability records a sequence number,
#: so a frame from a stale incarnation is discarded instead of acked into
#: the new epoch; flow control then sees only fresh, deduplicated frames.
RX_ORDER = (("sessions", "on_frame"), ("reliability", "on_frame"),
            ("flowcontrol", "accept"))
#: Queueing headroom on the measured RTO (``rel_timeout_us="auto"``):
#: the estimator's ``srtt + 4*rttvar`` is multiplied by this before the
#: clamp, so a queue building up behind a frame does not time it out.
RTO_HEADROOM = 2.0


def _require_int(params: EngineParams, low: int, *names: str) -> None:
    """Reject a field of ``names`` that is not an ``int`` >= ``low``.

    A plain ``x < low`` check lets NaN (which fails every comparison) and
    fractions through; a NaN retry budget is never exhausted.
    """
    for name in names:
        value = getattr(params, name)
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < low:
            raise ValueError(f"{name} must be an int >= {low}, got {value!r}")


@dataclass(frozen=True)
class EngineParams:
    """Engine cost model and protocol constants.

    The two scheduler costs realize the overhead sources of paper §5.1: an
    extra header per physical packet (``hdr``), and "extra operations on
    the critical path to inspect the 'ready list'" — ``pull_cost_us`` once
    per synthesized packet plus ``per_mtu_cost_us`` per MTU of data pushed
    through the optimizer's data path (calibrated per driver, which is why
    the large-message bandwidth deficit differs between MX and Quadrics in
    Figure 2).
    """

    hdr: HeaderSpec = field(default_factory=HeaderSpec)
    pull_cost_us: float = 0.25
    demux_packet_cost_us: float = 0.30
    demux_item_cost_us: float = 0.05
    per_mtu_cost_us: float = 0.10
    #: When a NIC is refilled from an *anticipated* (pre-synthesized) packet
    #: the optimization function already ran off the critical path; only a
    #: hand-over cost remains (paper 3.2, second dispatch policy).
    anticipated_pull_cost_us: float = 0.05
    #: Dispatch policy (paper 3.2): "on_idle" = synthesize when a NIC asks;
    #: "anticipate" = while all NICs are busy keep one ready-to-send packet
    #: prepared and re-feed it instantly; "backlog" = anticipate only once
    #: the window holds at least ``backlog_flush_threshold`` wraps.
    dispatch_policy: str = "on_idle"
    backlog_flush_threshold: int = 8
    per_mtu_cost_by_tech: tuple[tuple[str, float], ...] = (
        ("mx", 0.12),
        ("elan", 0.36),
    )
    rdv_chunk_bytes: int = 512 * 1024
    eager_copy_on_recv: bool = True
    #: Transport reliability (see :mod:`repro.core.reliability`).  The
    #: paper's engine targets reliable system-area networks and performs no
    #: retransmission, so ``"off"`` is the default and builds no layer;
    #: ``"ack"`` turns on the sliding-window ack/retransmit protocol with
    #: rail failover.
    reliability: str = "off"
    #: Initial retransmit timeout, doubled
    #: (:data:`~repro.core.reliability.RTO_BACKOFF`) per retry.
    #: The string ``"auto"`` (requires ``reliability="ack"``) replaces the
    #: static constant with a measured one: per-peer Jacobson SRTT/RTTVAR
    #: estimation (see :mod:`repro.core.rttstat`) derives the RTO as
    #: :data:`RTO_HEADROOM` ``* (srtt + 4*rttvar)`` clamped into
    #: ``[rel_rto_floor_us, rel_rto_ceiling_us]``.
    rel_timeout_us: float | str = 200.0
    #: Clamp bounds for the ``"auto"`` RTO.  The ceiling doubles as the
    #: conservative pre-measurement RTO.
    rel_rto_floor_us: float = 50.0
    rel_rto_ceiling_us: float = 10_000.0
    #: Opt-in tail hedging (requires ``rel_timeout_us="auto"`` and >= 2
    #: rails): ``"tail"`` re-sends a frame on the *second-best* rail once
    #: it has been outstanding past a p99-ish quantile of that rail's
    #: observed RTT, while the original stays in flight — duplicate
    #: suppression absorbs whichever copy loses.  ``"off"`` (default)
    #: never hedges.
    rel_hedge: str = "off"
    #: Retransmissions per frame before the send fails with TransportError.
    rel_retry_budget: int = 8
    #: Reverse-silence window before a standalone ack frame is emitted.
    rel_ack_delay_us: float = 25.0
    #: Consecutive retransmit-timeouts that quarantine a rail (when another
    #: healthy rail exists).
    rel_quarantine_threshold: int = 3
    #: Half-open recovery: delay before a quarantined rail is re-probed.
    #: ``0`` derives 32x ``rel_timeout_us``; ``float("inf")`` disables
    #: probing (a quarantined rail then stays out for good, the pre-probe
    #: behaviour).  The delay doubles per re-quarantine of the same rail.
    rel_probe_after_us: float = 0.0
    #: Overload protection (see :mod:`repro.core.flowcontrol`).  The paper's
    #: engine assumes well-behaved peers and unbounded buffering, so
    #: ``"off"`` is the default and builds no layer; ``"credit"`` turns on
    #: receive-side credit flow control for eager traffic (rendezvous
    #: traffic is self-paced by its grant).
    flow_control: str = "off"
    #: Per-peer eager credit budget: payload bytes and wrap count a sender
    #: may have outstanding (unconsumed by the receiving application).
    credit_bytes: int = 256 * 1024
    credit_wraps: int = 256
    #: Reverse-silence window before a standalone credit frame carries a
    #: pending grant (grants otherwise piggyback on any reverse frame).
    credit_grant_delay_us: float = 25.0
    #: Base delay before a NACKed (receiver-refused) segment is resent;
    #: doubles per consecutive refusal from the same peer.
    nack_delay_us: float = 50.0
    #: Bounded collect layer: caps on the optimization window (0 = the
    #: paper's unbounded window).  When full, ``window_policy`` decides:
    #: ``"block"`` defers the submission FIFO until the window drains,
    #: ``"fail"`` raises :class:`~repro.errors.WindowFullError`.
    max_window_wraps: int = 0
    max_window_bytes: int = 0
    window_policy: str = "block"
    #: Receiver memory budget: cap on buffered unexpected eager payload
    #: bytes in the matcher (0 = unbounded).  Requires ``"credit"`` mode —
    #: overflow takes the NACK-and-resend path, which needs the credit
    #: machinery.
    max_unexpected_bytes: int = 0
    #: Progress watchdog period in virtual microseconds (0 = off).  While
    #: the engine has outstanding work, a progress token is sampled every
    #: interval; two consecutive unchanged samples raise
    #: :class:`~repro.errors.ProgressStallError` with a per-peer dump.
    watchdog_interval_us: float = 0.0
    #: Failure detection and session epochs (see
    #: :mod:`repro.core.sessions`).  The paper's engine assumes every peer
    #: stays alive, so ``"off"`` is the default and builds no layer;
    #: ``"epoch"`` stamps a session header on every
    #: frame, runs a hello/welcome handshake per peer, and confirms peers
    #: dead after ``hb_timeout_us`` of silence.
    sessions: str = "off"
    #: Heartbeat/monitor period: how often a watched peer's silence is
    #: re-examined and (when the line is otherwise idle) probed.
    hb_interval_us: float = 50.0
    #: Silence before a peer is confirmed dead; at half of this the peer
    #: becomes *suspected* (counted, traced, not yet acted on).
    hb_timeout_us: float = 500.0

    def __post_init__(self) -> None:
        # Every float check below is written ``not x >= 0`` / ``not x > 0``
        # so that NaN, which fails every comparison, is rejected too: a NaN
        # delay becomes a NaN deadline that no timer ever expires.
        costs = (self.pull_cost_us, self.per_mtu_cost_us,
                 self.demux_packet_cost_us, self.demux_item_cost_us,
                 self.anticipated_pull_cost_us,
                 *(cost for _, cost in self.per_mtu_cost_by_tech))
        if not all(cost >= 0 for cost in costs):
            raise ValueError("negative scheduler cost")
        if math.inf in costs:
            raise ValueError("infinite scheduler cost")
        _require_int(self, 1, "backlog_flush_threshold", "rdv_chunk_bytes",
                     "rel_retry_budget", "rel_quarantine_threshold",
                     "credit_bytes", "credit_wraps")
        _require_int(self, 0, "max_window_wraps", "max_window_bytes",
                     "max_unexpected_bytes")
        if self.dispatch_policy not in ("on_idle", "anticipate", "backlog"):
            raise ValueError(
                f"unknown dispatch policy {self.dispatch_policy!r}; "
                "expected on_idle | anticipate | backlog"
            )
        if self.reliability not in ("off", "ack"):
            raise ValueError(
                f"unknown reliability mode {self.reliability!r}; "
                "expected off | ack"
            )
        if isinstance(self.rel_timeout_us, str):
            if self.rel_timeout_us != "auto":
                raise ValueError(
                    f"unknown rel_timeout_us {self.rel_timeout_us!r}; "
                    "expected a positive number or 'auto'"
                )
            if self.reliability != "ack":
                raise ValueError(
                    "rel_timeout_us='auto' needs reliability='ack': the "
                    "RTT estimator samples the ack machinery"
                )
        elif not self.rel_timeout_us > 0:
            raise ValueError("retransmit timeout must be positive")
        if not self.rel_rto_floor_us > 0:
            raise ValueError("RTO floor must be positive")
        if not self.rel_rto_ceiling_us >= self.rel_rto_floor_us:
            raise ValueError("RTO ceiling must be >= floor")
        if self.rel_hedge not in ("off", "tail"):
            raise ValueError(
                f"unknown rel_hedge mode {self.rel_hedge!r}; "
                "expected off | tail"
            )
        if self.rel_hedge == "tail" and self.rel_timeout_us != "auto":
            raise ValueError(
                "rel_hedge='tail' needs rel_timeout_us='auto': the hedge "
                "delay is a quantile of the measured RTT"
            )
        if not self.rel_ack_delay_us >= 0:
            raise ValueError("negative ack delay")
        if not self.rel_probe_after_us >= 0:
            raise ValueError("rail probe delay must be >= 0")
        if self.flow_control not in ("off", "credit"):
            raise ValueError(
                f"unknown flow control mode {self.flow_control!r}; "
                "expected off | credit"
            )
        if not self.credit_grant_delay_us >= 0:
            raise ValueError("negative credit grant delay")
        if not self.nack_delay_us >= 0:
            raise ValueError("negative nack delay")
        if self.window_policy not in ("block", "fail"):
            raise ValueError(
                f"unknown window policy {self.window_policy!r}; "
                "expected block | fail"
            )
        if self.max_unexpected_bytes and self.flow_control != "credit":
            raise ValueError(
                "max_unexpected_bytes needs flow_control='credit': a "
                "refused message is only recoverable through the "
                "NACK-and-resend path"
            )
        if not self.watchdog_interval_us >= 0:
            raise ValueError("negative watchdog interval")
        if self.sessions not in ("off", "epoch"):
            raise ValueError(
                f"unknown sessions mode {self.sessions!r}; "
                "expected off | epoch"
            )
        if not self.hb_interval_us > 0:
            raise ValueError("heartbeat interval must be positive")
        if not self.hb_timeout_us >= 2 * self.hb_interval_us:
            raise ValueError(
                "hb_timeout_us must be at least 2*hb_interval_us: a "
                "timeout shorter than two monitor ticks declares a peer "
                "dead before a single probe could round-trip"
            )
        # Every other float field ends up as a kernel delay, and the kernel
        # cannot schedule at t=inf.  In ``rel_probe_after_us`` inf means
        # "never re-probe" and never reaches the kernel.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and math.isinf(value) \
                    and f.name != "rel_probe_after_us":
                raise ValueError(f"{f.name} must be finite, got {value}")

    @property
    def rel_adaptive(self) -> bool:
        """True when the retransmit timeout is measured, not configured."""
        return self.rel_timeout_us == "auto"

    def per_mtu_cost(self, profile: NicProfile) -> float:
        """Data-path inspection cost per MTU for this driver."""
        for tech, cost in self.per_mtu_cost_by_tech:
            if tech == profile.tech:
                return cost
        return self.per_mtu_cost_us


def _counter(group: str) -> int:
    """A zero-initialized :class:`EngineStats` counter in report ``group``."""
    return field(default=0, metadata={"group": group})


@dataclass
class EngineStats:
    """Counters the tests, benches and ablations read.

    Flat on purpose (``vars(stats)`` is every counter); each field names
    its ``repro report`` group in its metadata, and the report lists the
    groups in the order their first field appears here.
    """

    phys_packets: int = _counter("core")
    items_sent: int = _counter("core")
    #: Physical packets carrying >= 2 segments.
    aggregated_packets: int = _counter("core")
    #: Segments travelling in such packets.
    aggregated_segments: int = _counter("core")
    #: Idle NICs refilled from a prepared packet.
    anticipated_hits: int = _counter("core")
    eager_bytes: int = _counter("core")
    rdv_bytes: int = _counter("core")
    wire_bytes: int = _counter("core")
    recv_copies: int = _counter("core")
    recv_copy_bytes: int = _counter("core")
    # Reliability-layer counters (all zero in "off" mode, except
    # corrupt_discards: every engine discards a frame that fails its
    # checksum).
    retransmits: int = _counter("reliability")
    duplicates_suppressed: int = _counter("reliability")
    failovers: int = _counter("reliability")
    rails_quarantined: int = _counter("reliability")
    #: Half-open probes that lifted a quarantine.
    rails_reprobed: int = _counter("reliability")
    acks_sent: int = _counter("reliability")
    corrupt_discards: int = _counter("reliability")
    transport_failures: int = _counter("reliability")
    # Flow-control counters (all zero in "off" mode).
    #: Destination transitions to credit-blocked.
    credit_stalls: int = _counter("flow_control")
    #: Submissions deferred or refused at the cap.
    window_full_events: int = _counter("flow_control")
    #: Eager arrivals refused by the matcher.
    unexpected_overflows: int = _counter("flow_control")
    #: Grants advertising newly released credit.
    credits_granted: int = _counter("flow_control")
    #: Refused segments bounced to their sender.
    nacks_sent: int = _counter("flow_control")
    #: Bounced segments re-entered the window.
    nack_resends: int = _counter("flow_control")
    # Session-layer counters (all zero in "off" mode).
    #: Peers that crossed half the hb timeout.
    peers_suspected: int = _counter("sessions")
    #: Peers confirmed dead by the detector.
    peers_dead: int = _counter("sessions")
    #: Sessions established (first contact too).
    epochs_started: int = _counter("sessions")
    #: Frames discarded for a stale incarnation.
    stale_frames_fenced: int = _counter("sessions")
    #: Idle-path probes and probe replies.
    heartbeats_sent: int = _counter("sessions")
    # Partition-tolerance counters (all zero in "off" mode).
    #: Suspects that resumed contact (no teardown).
    peers_recovered: int = _counter("partition")
    #: Outbound frames held while a peer was suspect.
    frames_parked: int = _counter("partition")
    # Adaptive-timing counters (all zero outside rel_timeout_us="auto",
    # except deadlines_expired which any deadline_us request can bump).
    #: Acks that fed the estimator (Karn-eligible).
    rtt_samples: int = _counter("adaptive")
    #: Retransmits that doubled an adaptive RTO.
    rto_backoffs: int = _counter("adaptive")
    #: Tail re-sends on the second-best rail.
    hedges_sent: int = _counter("adaptive")
    #: Hedged frames whose ack beat the original.
    hedges_won: int = _counter("adaptive")
    #: Requests failed by their deadline_us.
    deadlines_expired: int = _counter("adaptive")


class NmadEngine:
    """One node's NewMadeleine instance."""

    def __init__(
        self,
        node: Node,
        strategy: str | Strategy = "aggregation",
        params: EngineParams | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if not node.nics:
            raise MpiError(f"{node.name}: engine needs at least one NIC")
        self.node = node
        self.sim = node.sim
        self.node_id = node.node_id
        self.params = params if params is not None else EngineParams()
        self.tracer = tracer if tracer is not None else node.tracer
        self.strategy: Strategy = (
            create(strategy) if isinstance(strategy, str) else strategy
        )
        self.stats = EngineStats()
        credit_on = self.params.flow_control == "credit"
        # Wraps above the largest rendezvous threshold never travel eagerly
        # (any rail would announce them), so credit gating exempts them —
        # and a maximal eager segment must fit the budget, or it could
        # never be sent at all.
        exempt_floor = max(n.profile.rdv_threshold for n in node.nics)
        if credit_on and self.params.credit_bytes < exempt_floor:
            raise MpiError(
                f"{node.name}: credit_bytes={self.params.credit_bytes} is "
                f"smaller than the largest rendezvous threshold "
                f"({exempt_floor}B); a maximal eager segment could never "
                "be sent"
            )
        self.window = OptimizationWindow(
            n_rails=len(node.nics),
            exempt_floor=exempt_floor if credit_on else 0,
        )
        self.matcher = Matcher(self._on_match, tracer=self.tracer,
                               name=f"node{self.node_id}.matcher",
                               dedup=(self.params.reliability != "off"),
                               max_unexpected_bytes=
                                   self.params.max_unexpected_bytes,
                               on_refuse=self._on_refuse)
        self.rendezvous = RendezvousManager(self)
        self.collect = CollectLayer(self)
        # True once this engine's node crashed: every timer closure and
        # idle callback of the dead incarnation checks it and goes silent.
        self.halted = False
        # Adaptive timing (rel_timeout_us="auto"): one estimator shared by
        # the reliability RTO, the session failure detector, and the
        # flow-control pacing timers.  None in static mode — the layers
        # check for it, so static-mode behaviour is provably untouched.
        self.rtt: RttEstimator | None = None
        if self.params.rel_adaptive:
            self.rtt = RttEstimator(
                floor_us=self.params.rel_rto_floor_us,
                ceiling_us=self.params.rel_rto_ceiling_us,
                headroom=RTO_HEADROOM,
            )
        self.transfer = TransferLayer(self)
        # The opt-in layers: built only when enabled, so paper mode has none.
        self.timers = TimerService(self.sim)
        p = self.params
        self.reliability = (ReliabilityLayer(self)
                            if p.reliability == "ack" else None)
        self.flowcontrol = (FlowControlLayer(self)
                            if p.flow_control == "credit" else None)
        self.sessions = SessionLayer(self) if p.sessions == "epoch" else None
        #: The enabled layers, in transmit order.
        self.layers: list[PeerLayer[Any]] = [
            layer for name in TX_ORDER
            if (layer := getattr(self, name)) is not None]
        self._wire_layers()
        if self.sessions is not None:
            node.add_crash_hook(self.halt)
        self.watchdog: Watchdog | None = None
        if self.params.watchdog_interval_us > 0:
            self.watchdog = Watchdog(
                self.sim, self.params.watchdog_interval_us,
                progress=self._progress_token,
                active=self._watchdog_active,
                diagnose=self._stall_report,
                name=f"node{self.node_id}.watchdog",
            )
        self.sim.add_deadlock_hint(self._deadlock_hint)

    def _wire_layers(self) -> None:
        """Chain the enabled layers in :data:`TX_ORDER` / :data:`RX_ORDER`.

        Each layer forwards to its ``down`` / ``up`` hop; the transfer
        layer's NIC post and demultiplexer close the two chains.
        """
        down: SendHop = self.transfer.post_frame
        for layer in reversed(self.layers):
            layer.down, down = down, layer.send
        self.transfer.send_frame = down
        up: ReceiveHop = self.transfer.demux_frame
        for name, entry in reversed(RX_ORDER):
            rx_layer = getattr(self, name)
            if rx_layer is not None:
                rx_layer.up, up = up, getattr(rx_layer, entry)
        self.transfer.receive_frame = up
        if self.reliability is not None:
            self.transfer.quarantined = self.reliability.quarantined

    # -- strategy management (paper abstract: dynamically extensible) -----
    def set_strategy(self, strategy: str | Strategy, **params: Any) -> None:
        """Swap the optimization function at runtime."""
        self.strategy = (
            create(strategy, **params) if isinstance(strategy, str) else strategy
        )
        self.transfer.kick()

    # -- native send/recv API ------------------------------------------------
    def isend(
        self,
        dest: int,
        data: SegmentData | bytes | bytearray | memoryview | int,
        tag: int = 0,
        flow: int = 0,
        priority: int = 0,
        rail: int | None = None,
        allow_reorder: bool = True,
        depends_on: int | None = None,
        deadline_us: float | None = None,
    ) -> SendRequest:
        """Nonblocking send; returns a handle whose ``done`` event fires
        when the data has fully left this node.

        ``deadline_us`` bounds the virtual time the request may stay
        pending: on expiry a send whose data has not left the node is
        retracted exactly like :meth:`cancel` and fails with
        :class:`~repro.errors.DeadlineExceededError`; once the data is
        mid-flight the deadline lapses (too late, like MPI_Cancel on a
        matched send).
        """
        if self.sessions is not None and self.sessions.is_dead(dest):
            raise PeerDeadError(
                f"node{self.node_id}: isend to node {dest}, a peer "
                "confirmed dead (revoke or shrink the communicator)"
            )
        wrap = self.collect.submit(
            dest, data, flow=flow, tag=tag, priority=priority, rail=rail,
            allow_reorder=allow_reorder, depends_on=depends_on,
        )
        assert wrap.completion is not None
        req = SendRequest(wrap, wrap.completion)
        if deadline_us is not None:
            self._arm_deadline(req, deadline_us)
        return req

    def irecv(
        self,
        src: int = ANY,
        tag: int = ANY,
        flow: int = 0,
        nbytes: int | None = None,
        deadline_us: float | None = None,
    ) -> RecvRequest:
        """Nonblocking receive; ``nbytes`` bounds acceptable message size.

        ``deadline_us`` bounds the virtual time the receive may stay
        unmatched: on expiry it is unposted and fails with
        :class:`~repro.errors.DeadlineExceededError`; a receive already
        matched (data landing) completes normally.
        """
        sessions = self.sessions
        if src != ANY and sessions is not None and sessions.is_dead(src):
            raise PeerDeadError(
                f"node{self.node_id}: irecv from node {src}, a peer "
                "confirmed dead (revoke or shrink the communicator)"
            )
        req = RecvRequest(
            src=src, flow=flow, tag=tag, capacity=nbytes,
            done=self.sim.event(name=f"recv:{src}/{flow}/{tag}"),
            posted_at=self.sim.now,
        )
        self.matcher.post(req)
        if src != ANY and sessions is not None:
            # A sourced receive is a liveness interest: watch the peer so
            # its death fails this request instead of hanging it forever.
            sessions.note_interest(src)
        if deadline_us is not None:
            self._arm_deadline(req, deadline_us)
        self.poke_watchdog()
        return req

    # -- per-request deadlines -----------------------------------------------
    def _arm_deadline(
        self, req: SendRequest | RecvRequest, deadline_us: float
    ) -> None:
        if deadline_us <= 0:
            raise MpiError(
                f"node{self.node_id}: deadline_us must be positive, "
                f"got {deadline_us}"
            )
        self.sim.schedule(deadline_us,
                          lambda: self._deadline_fire(req, deadline_us))

    def _deadline_fire(
        self, req: SendRequest | RecvRequest, deadline_us: float
    ) -> None:
        # A completed request (either way) or a halted engine makes the
        # timer a no-op — deadlines never fail anything retroactively.
        if self.halted or req.done.triggered:
            return
        if isinstance(req, RecvRequest):
            if not self.matcher.unpost(req, now=self.sim.now):
                return  # already matched: the data is landing, let it
            err = DeadlineExceededError(
                f"node{self.node_id}: receive (src={req.src} "
                f"flow={req.flow} tag={req.tag}) unmatched after its "
                f"{deadline_us:g}us deadline"
            )
            self.stats.deadlines_expired += 1
            req.done.fail(err)
            req.done.defuse()
            self.tracer.emit(self.sim.now, f"node{self.node_id}.engine",
                             "deadline_expired", side="recv", tag=req.tag)
            return
        err = DeadlineExceededError(
            f"node{self.node_id}: send {req.wrap!r} still pending after "
            f"its {deadline_us:g}us deadline"
        )
        if self._retract_send(req.wrap, err, trace="deadline_expired"):
            self.stats.deadlines_expired += 1

    def cancel(self, request: SendRequest) -> bool:
        """Cancel a send that has not been scheduled yet.

        A unique capability of the decoupled design: until a strategy
        commits a wrap to a physical packet *that a NIC accepted*, the data
        has not left the node, so cancellation can still succeed.  That
        covers a wrap sitting in the optimization window and a wrap held in
        an anticipated (pre-synthesized, paper §3.2) packet — the latter is
        unwound back into the window first.  Returns ``True`` in both cases
        (the request's completion then *fails* with :class:`MpiError` so
        waiters are not left hanging), ``False`` if the data already left
        or is mid-flight (rendezvous announced) — too late, like MPI_Cancel
        on a matched send.

        Because the wrap already consumed a sequence number in its
        (dest, flow) stream, a tiny tombstone record travels in its place
        so the receiver's in-order machinery never stalls on the hole.
        """
        wrap = request.wrap
        return self._retract_send(
            wrap, MpiError(f"send cancelled: {wrap!r}"), trace="cancel")

    def _retract_send(
        self, wrap: PacketWrap, err: MpiError, trace: str
    ) -> bool:
        """Pull an unscheduled wrap back out of the engine and fail it.

        The shared back-out machinery of :meth:`cancel` and the
        per-request deadline path: a deferred submission is simply
        dropped; a wrap in the optimization window (or inside an
        anticipated packet, unwound first) is taken out and replaced by a
        tombstone for its consumed sequence number.  Returns ``False`` —
        and fails nothing — when the data already left the node.
        """
        from repro.errors import StrategyError

        if self.collect.cancel_deferred(wrap):
            # Never admitted: no sequence number consumed, no tombstone due.
            if wrap.completion is not None and not wrap.completion.triggered:
                wrap.completion.fail(err)
                wrap.completion.defuse()
            self.tracer.emit(self.sim.now, f"node{self.node_id}.collect",
                             trace, wrap=wrap.wrap_id)
            return True
        try:
            self.window.take(wrap)
        except StrategyError:
            if not self.transfer.uncommit_anticipated(wrap):
                return False
            # The wrap (and any packet-mates) are back in the window; the
            # tombstone submission below re-kicks scheduling for the rest.
            self.window.take(wrap)
        if wrap.completion is not None and not wrap.completion.triggered:
            wrap.completion.fail(err)
            wrap.completion.defuse()
        tombstone = CancelItem(src=self.node_id, flow=wrap.flow,
                               tag=wrap.tag, seq=wrap.seq)
        self.collect.submit_control(dest=wrap.dest, item=tombstone)
        self.tracer.emit(self.sim.now, f"node{self.node_id}.collect",
                         trace, wrap=wrap.wrap_id)
        return True

    # -- blocking helpers for simulator processes -----------------------------
    def send(
        self,
        dest: int,
        data: SegmentData | bytes | bytearray | memoryview | int,
        **kwargs: Any,
    ) -> Generator[Event, None, SendRequest]:
        """Process-style blocking send: ``yield from engine.send(...)``."""
        req = self.isend(dest, data, **kwargs)
        yield req.done
        return req

    def recv(
        self, src: int = ANY, tag: int = ANY, **kwargs: Any
    ) -> Generator[Event, None, RecvRequest]:
        """Process-style blocking receive; returns the completed request."""
        req = self.irecv(src=src, tag=tag, **kwargs)
        yield req.done
        return req

    # -- match dispatch -----------------------------------------------------------
    def _on_match(self, inc: Incoming, req: RecvRequest) -> None:
        if self.flowcontrol is not None and isinstance(inc.item, SegItem):
            # The eager bytes vacate the receive buffer on the match — every
            # admitted segment funnels through here exactly once (whether it
            # matched a posted receive or waited unexpected), so the credit
            # releases exactly once, truncation failures included.
            self.flowcontrol.release(inc.src, inc.item.data.nbytes)
        if req.capacity is not None and inc.nbytes > req.capacity:
            err = MpiError(
                f"node{self.node_id}: truncation — {inc.nbytes}B message "
                f"(src={inc.src} flow={inc.flow} tag={inc.tag}) into a "
                f"{req.capacity}B receive"
            )
            # Defused like cancel() and TransferLayer._plan_failed: the
            # non-raising failed/error API must stay usable — an application
            # polling via test() would otherwise crash at run() end with the
            # unobserved-failure re-raise despite having handled the error.
            req.done.fail(err)
            req.done.defuse()
            return
        if isinstance(inc.item, RdvReqItem):
            self.rendezvous.grant(inc.item, req)
            return
        item = inc.item
        assert isinstance(item, SegItem)
        if self.params.eager_copy_on_recv and item.data.nbytes > 0:
            # Eager data lands in a driver buffer and is copied out to the
            # user buffer; the request completes after the copy, and copies
            # serialize on the host memory engine.
            delay = self.node.serialize_copy(
                self.node.memory.copy_time(item.data.nbytes))
            self.stats.recv_copies += 1
            self.stats.recv_copy_bytes += item.data.nbytes
            self.sim.schedule(
                delay,
                lambda: req.finish(item.data, src=inc.src, tag=inc.tag),
            )
        else:
            req.finish(item.data, src=inc.src, tag=inc.tag)

    def _on_refuse(self, inc: Incoming) -> None:
        """The matcher's unexpected-bytes budget refused an eager arrival."""
        # The matcher budget needs flow_control="credit" (EngineParams).
        assert self.flowcontrol is not None
        self.stats.unexpected_overflows += 1
        self.flowcontrol.on_local_refuse(inc)

    # -- crash / drain lifecycle ---------------------------------------------
    def halt(self) -> None:
        """Silence this engine: its node crashed (fail-stop).

        Registered as a node crash hook in ``sessions="epoch"`` mode.  A
        dead process must not tick into its successor's incarnation, so
        every layer timer — retransmit and delayed-ack timers, credit grant
        and NACK-resend timers, session monitors — is fenced in the timer
        service, and the progress watchdog is disarmed.  No completion
        callbacks run: from the dead node's perspective the world simply
        stops, exactly like a real crash.
        """
        if self.halted:
            return
        self.halted = True
        if self.watchdog is not None:
            self.watchdog.disarm()
        self.timers.halt()
        for layer in self.layers:
            layer.halt()
        self.tracer.emit(self.sim.now, f"node{self.node_id}.engine", "halt")

    def quiesce(
        self, poll_us: float = 5.0, timeout_us: float = 1_000_000.0
    ) -> Generator[Event, None, None]:
        """Process-style drain: block until the engine holds no deferred
        work (``yield from engine.quiesce()``).

        The clean-teardown counterpart of crash recovery: an application
        that learned of a peer's death (:class:`PeerDeadError`,
        ``Comm.shrink``) drains its engine before carrying on, so no
        half-sent aggregate or pending grant leaks into the next phase.
        Raises :class:`~repro.errors.SimulationError` after ``timeout_us``.
        """
        deadline = self.sim.now + timeout_us
        while not self.quiesced():
            if self.sim.now >= deadline:
                raise SimulationError(
                    f"node{self.node_id}: quiesce() still not drained "
                    f"after {timeout_us:g}us"
                )
            yield self.sim.timeout(poll_us)

    # -- progress watchdog ---------------------------------------------------
    def poke_watchdog(self) -> None:
        """(Re)arm the watchdog on new work; no-op when it is disabled."""
        wd = self.watchdog
        if wd is not None:
            wd.arm()

    def _progress_token(self) -> object:
        """Changes whenever the engine makes any observable forward progress:
        a frame leaves or lands, a message matches, or credit moves."""
        stats = self.stats
        return (
            stats.phys_packets, stats.wire_bytes, stats.recv_copies,
            stats.credits_granted, stats.nack_resends,
            # Session transitions are progress (a declared death *unblocks*
            # waiters); heartbeats_sent deliberately is not — a probe loop
            # towards a wedged peer must not mask the stall.
            stats.peers_dead, stats.epochs_started, stats.stale_frames_fenced,
            # Parking and recovery are progress too: a healing partition
            # must not read as a stall while parked traffic drains.
            stats.peers_recovered, stats.frames_parked,
            self.matcher.delivered, self.matcher.n_posted,
            self.rendezvous.n_pending, self.rendezvous.n_granted,
        )

    def _watchdog_active(self) -> bool:
        """Work is outstanding, so a frozen token means a stall.

        A layer's own self-firing timers are not outstanding work (see
        :attr:`~repro.core.peerlayer.PeerLayer.idle`).
        """
        return (self.matcher.n_posted > 0 or not self._stack_drained()
                or not all(layer.idle for layer in self.layers))

    def _stall_report(self) -> str:
        """Per-peer credit/window/backlog dump for ProgressStallError."""
        win = self.window
        m = self.matcher
        peers: dict[int, None] = {}
        for d in win.dests():
            peers[d] = None
        for layer in self.layers:
            for d in layer.known_peers():
                peers[d] = None
        lines = [f"node{self.node_id}: no engine progress "
                 f"(strategy={self.strategy.describe()})"]
        for peer in sorted(peers):
            blocked = " [credit-blocked]" if win.is_blocked(peer) else ""
            layers = "".join(f"; {d}" for layer in self.layers
                             if (d := layer.describe_peer(peer)) is not None)
            lines.append(
                f"  peer {peer}: window backlog={win.backlog(peer)} wraps/"
                f"{win.backlog_bytes(peer)}B{blocked}{layers}"
            )
        lines.append(
            f"  collect: deferred={self.collect.n_deferred} submissions"
        )
        lines.append(
            f"  matcher: posted={m.n_posted} parked={m.n_parked} "
            f"unexpected={m.n_unexpected} ({m.unexpected_bytes}B buffered, "
            f"{m.refused_total} refused)"
        )
        lines.append(
            f"  rendezvous: pending={self.rendezvous.n_pending} "
            f"granted={self.rendezvous.n_granted} "
            f"incoming={self.rendezvous.n_incoming}"
        )
        return "\n".join(lines)

    # -- introspection ------------------------------------------------------------
    def quiesced(self) -> bool:
        """True when the engine holds no deferred work (end-of-test check)."""
        return self._stack_drained() and all(
            layer.quiesced for layer in self.layers)

    def _stack_drained(self) -> bool:
        """No deferred work outside the opt-in layers: window, anticipated
        packet, rendezvous transfers, parked arrivals, collect backlog."""
        return (
            self.window.empty
            and not self.transfer.has_anticipated
            and self.rendezvous.n_pending == 0
            and self.rendezvous.n_granted == 0
            and self.rendezvous.n_incoming == 0
            and self.matcher.n_parked == 0
            and self.collect.n_deferred == 0
        )

    def _deadlock_hint(self) -> str | None:
        """Engine-specific diagnosis appended to the kernel's deadlock error.

        A dropped frame is invisible to the engines themselves (both sides
        can be fully quiesced while the application hangs), so the stall
        signal is an outstanding posted receive or unquiesced state.
        """
        if self.halted:
            # A crashed node's engine is not stuck; it is dead.  The live
            # side's own hint (dead peers, sessions off) explains the hang.
            return None
        dead = self.sessions.dead_peers() if self.sessions is not None else []
        if dead:
            return (
                f"node{self.node_id}: peer(s) {dead} confirmed dead — "
                "requests towards them failed with PeerDeadError; "
                "revoke/shrink the communicator to move on"
            )
        if self.stats.transport_failures:
            return (
                f"node{self.node_id}: retry budget exhausted on "
                f"{self.stats.transport_failures} frame(s) — the affected "
                "requests failed with TransportError"
            )
        if self.matcher.n_posted == 0 and self.quiesced():
            return None
        if self.flowcontrol is not None:
            blocked = [p for p in self.flowcontrol.known_peers()
                       if self.window.is_blocked(p)]
            if blocked:
                return (
                    f"node{self.node_id}: credit-blocked towards peer(s) "
                    f"{blocked} — the receiver never released credit "
                    "(application not consuming?)"
                )
        if self.reliability is None:
            return (
                f"node{self.node_id}: reliability='off' — no retransmission "
                "(paper mode); a lost or corrupted frame stalls its stream "
                "forever"
            )
        return (f"node{self.node_id}: reliability='ack' still awaiting "
                "delivery")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NmadEngine node{self.node_id} strategy={self.strategy.describe()} "
            f"rails={len(self.node.nics)}>"
        )
