"""Optional transport reliability: sliding-window ack/retransmit + failover.

The real NewMadeleine targets reliable system-area networks (MX, Elan,
SCI) and performs **no retransmission** — the default
``EngineParams.reliability="off"`` builds no reliability layer, and every
Figure 2/3/4 number is produced in that mode.  This module is the opt-in
production-hardening layer (``reliability="ack"``) that makes the engine
survive lossy links and failing rails:

* every physical frame to a peer carries a per-peer **sequence number**
  (``rel_header`` + ``checksum`` bytes from :class:`HeaderSpec` are added
  to its wire size);
* the receiver acknowledges with a **cumulative + selective** record,
  piggybacked on any reverse frame, or as a small standalone ack frame
  after ``rel_ack_delay_us`` of reverse silence;
* unacked frames are kept in a per-peer send buffer and retransmitted on
  an **exponential-backoff timer** (``rel_timeout_us`` × :data:`RTO_BACKOFF`
  per retry), over the healthiest rail with a link to the peer;
* the receive side **suppresses duplicates** before the demultiplexer, so
  the matcher and the rendezvous reassembly never see a frame twice;
* each retransmit timeout scores a loss against the rail the frame last
  used; ``rel_quarantine_threshold`` consecutive losses **quarantine**
  the rail (if another healthy rail exists) — subsequent traffic,
  retransmits, and not-yet-carved rendezvous chunks fail over to the
  surviving rails;
* a quarantined rail is **re-probed half-open** after a backoff window
  (``rel_probe_after_us``, default 32x the retransmit timeout, doubling
  on every re-quarantine): it rejoins the candidate set one loss short
  of the threshold, so a still-dead rail is ejected on the very next
  timeout while a healed one carries traffic again;
* among healthy rails, the transfer layer's election is
  **congestion-aware** (:meth:`~repro.core.transfer.TransferLayer.choose_rail`):
  the least congested rail by NIC queue depth wins, sticky to the
  previous rail on ties — shortest-queue failover rather than a fixed
  priority order;
* after ``rel_retry_budget`` retransmits a frame is declared
  undeliverable: the affected requests fail with
  :class:`~repro.errors.TransportError` (:class:`~repro.errors.RailDownError`
  when the rail was quarantined) instead of stalling the simulation.

Sequencing is per *peer*, not per rail, which is what makes failover
transparent: a retransmitted frame keeps its sequence number on any rail,
so cross-rail replays deduplicate exactly like same-rail ones.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from typing import TYPE_CHECKING

from repro.core.peerlayer import PeerLayer
from repro.errors import RailDownError, TransportError
from repro.netsim.frames import Frame, FrameKind
from repro.netsim.nic import Nic

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import NmadEngine

__all__ = ["RTO_BACKOFF", "ReliabilityLayer"]

#: Factor a channel's retransmit timeout grows by on every retransmit
#: (capped at 64x the base RTO).
RTO_BACKOFF = 2.0


class _Pending:
    """One unacknowledged frame in a peer channel's send buffer."""

    __slots__ = ("seq", "frame", "cpu_gap_us", "on_delivered", "on_failed",
                 "rail", "retries", "deadline", "sent_at", "hedged_at")

    def __init__(self, seq: int, frame: Frame, cpu_gap_us: float,
                 on_delivered: Callable[[], None] | None,
                 on_failed: Callable[[BaseException], None] | None,
                 rail: int) -> None:
        self.seq = seq
        self.frame = frame
        self.cpu_gap_us = cpu_gap_us
        self.on_delivered = on_delivered
        self.on_failed = on_failed
        self.rail = rail           # rail of the most recent transmission
        self.retries = 0
        self.deadline: float | None = None  # None while queued/in tx
        # First-transmission completion time: the RTT sample anchor.  Karn's
        # rule falls out of the bookkeeping — a retransmitted (retries > 0)
        # or hedged (hedged_at set) frame never feeds the estimator, because
        # its ack cannot be attributed to one transmission.
        self.sent_at: float | None = None
        self.hedged_at: float | None = None


class _Channel:
    """Both directions of the reliability state towards one peer."""

    __slots__ = ("peer", "next_seq", "unacked", "rto_us", "rx_cum",
                 "rx_sacks")

    def __init__(self, peer: int, rto_us: float) -> None:
        self.peer = peer
        # Transmit half.
        self.next_seq = 0
        self.unacked: dict[int, _Pending] = {}
        self.rto_us = rto_us
        # Receive half.
        self.rx_cum = 0                 # every seq < rx_cum was received
        self.rx_sacks: set[int] = set() # received beyond the cumulative edge


class ReliabilityLayer(PeerLayer[_Channel]):
    """Per-engine ack/retransmit protocol and rail-health tracking.

    The lowest opt-in layer on the transmit path: every frame it sends —
    first transmissions, retransmits and hedges — goes to
    ``self.down``, the transfer layer's NIC post.
    """

    #: The only mode a built layer can have (paper mode builds none).
    mode = "ack"
    #: Retransmit clock, tail hedges and the delayed standalone ack.
    SLOTS = ("rto", "hedge", "ack")

    def __init__(self, engine: NmadEngine) -> None:
        super().__init__(engine, "reliability")
        # Adaptive timing: the engine-owned estimator, or None in static
        # mode.  _static_rto_us is the configured constant when static.
        self._rtt = engine.rtt
        self._static_rto_us: float | None = (
            None if engine.params.rel_adaptive
            else float(engine.params.rel_timeout_us))
        #: Rails the health tracker has taken out of service (this layer is
        #: the set's only writer; the transfer layer's election reads it).
        self.quarantined: set[int] = set()
        #: Consecutive retransmit-timeouts per rail (reset on any ack).
        self.rail_losses: dict[int, int] = {}
        # Half-open recovery: each quarantine arms a re-probe after a
        # per-rail backoff window.
        self._probe_backoff: dict[int, float] = {}

    def _new_peer(self, peer: int) -> _Channel:
        return _Channel(peer, rto_us=self._rto_base_us(peer))

    # -- introspection ------------------------------------------------------
    @property
    def n_unacked(self) -> int:
        return sum(len(ch.unacked) for ch in self._peers.values())

    @property
    def quiesced(self) -> bool:
        """True when no frame awaits an ack and no ack awaits sending."""
        return (not self.timers.count("ack")
                and all(not ch.unacked for ch in self._peers.values()))

    def has_outstanding(self, peer: int) -> bool:
        ch = self._peers.get(peer)
        return ch is not None and bool(
            ch.unacked or self.timers.armed((peer, "ack")))

    def _rto_base_us(self, peer: int) -> float:
        """The un-backed-off retransmit timeout towards ``peer``: the
        measured (clamped, headroomed) estimate in auto mode, the
        configured constant otherwise."""
        if self._rtt is not None:
            return self._rtt.rto_us(peer)
        assert self._static_rto_us is not None
        return self._static_rto_us

    # -- transmit side ------------------------------------------------------
    def send(
        self,
        nic: Nic,
        frame: Frame,
        cpu_gap_us: float = 0.0,
        on_delivered: Callable[[], None] | None = None,
        on_failed: Callable[[BaseException], None] | None = None,
    ) -> None:
        """Sequence ``frame`` and transmit it on ``nic`` until acknowledged.

        ``on_delivered`` fires once, at ack receipt.  ``on_failed`` fires
        instead when the retransmit budget is exhausted — or, with
        ``sessions="epoch"``, when the peer is torn down.
        """
        ch = self._peer(frame.dst_node)
        hdr = self.params.hdr
        frame.rel_seq = ch.next_seq
        ch.next_seq += 1
        frame.wire_size += hdr.rel_header + hdr.checksum
        self._piggyback_ack(ch, frame)
        pending = _Pending(frame.rel_seq, frame, cpu_gap_us,
                           on_delivered, on_failed, rail=nic.rail)
        ch.unacked[pending.seq] = pending
        self.down(nic, frame, cpu_gap_us,
                  partial(self._tx_done, ch, pending), None)

    def _tx_done(self, ch: _Channel, pending: _Pending) -> None:
        """A (re)transmission fully left the NIC: start its retry clock."""
        if pending.seq not in ch.unacked:
            return  # acked while still queued on the card
        if pending.retries == 0 and pending.sent_at is None:
            pending.sent_at = self.sim.now
            self._maybe_arm_hedge(ch, pending)
        pending.deadline = self.sim.now + ch.rto_us
        self._arm_timer(ch)

    # -- tail hedging ---------------------------------------------------------
    def _maybe_arm_hedge(self, ch: _Channel, pending: _Pending) -> None:
        """Arm the tail re-send for a freshly transmitted frame.

        Only in ``rel_hedge="tail"`` mode with a warm estimate for the
        frame's rail: once the frame has been outstanding past a p99-ish
        quantile of that rail's observed RTT, one copy goes out on the
        second-best rail while the original stays in flight.  Duplicate
        suppression absorbs whichever copy loses; the hedge never scores a
        loss, never counts as a retransmit, and never feeds the estimator.
        """
        if self.params.rel_hedge != "tail" or self._rtt is None:
            return
        if len(self.nics) < 2:
            return
        delay = self._rtt.hedge_delay_us(ch.peer, pending.rail)
        if delay is None:
            return  # estimate too cold to call anything a tail
        self.timers.post(ch.peer, "hedge", delay, self._hedge_fire,
                         ch, pending)

    def _hedge_fire(self, ch: _Channel, pending: _Pending) -> None:
        if (pending.seq not in ch.unacked or pending.retries
                or pending.hedged_at is not None):
            return  # acked, already retransmitting, or already hedged
        rail = self.engine.transfer.second_best_rail(ch.peer,
                                                     exclude=pending.rail)
        if rail is None:
            return  # no healthy alternative rail to hedge on
        pending.hedged_at = self.sim.now
        self.engine.stats.hedges_sent += 1
        frame = pending.frame
        self._piggyback_ack(ch, frame)
        self.engine.tracer.emit(self.sim.now, self._name, "hedge",
                                seq=pending.seq, peer=ch.peer,
                                from_rail=pending.rail, to_rail=rail)
        # The original keeps its retry clock and its loss attribution; the
        # hedge copy is fire-and-forget (same seq, so the receiver dedups).
        self.down(self.nics[rail], frame, pending.cpu_gap_us, None, None)

    def _arm_timer(self, ch: _Channel) -> None:
        deadlines = [p.deadline for p in ch.unacked.values()
                     if p.deadline is not None]
        if not deadlines:
            return
        delay = max(0.0, min(deadlines) - self.sim.now)
        self.timers.arm((ch.peer, "rto"), delay, self._on_timer, ch)

    def _on_timer(self, ch: _Channel) -> None:
        now = self.sim.now
        expired = [p for p in ch.unacked.values()
                   if p.deadline is not None and p.deadline <= now]
        if expired:
            self._retransmit(ch, min(expired, key=lambda p: p.seq))
        self._arm_timer(ch)

    def _retransmit(self, ch: _Channel, pending: _Pending) -> None:
        params = self.params
        if pending.retries >= params.rel_retry_budget:
            self._give_up(ch, pending)
            return
        pending.retries += 1
        self.engine.stats.retransmits += 1
        self._note_loss(pending.rail)
        rail = self.engine.transfer.choose_rail(ch.peer, prefer=pending.rail)
        if rail != pending.rail:
            self.engine.stats.failovers += 1
            self.engine.tracer.emit(self.sim.now, self._name, "failover",
                                    seq=pending.seq, peer=ch.peer,
                                    from_rail=pending.rail, to_rail=rail)
            pending.rail = rail
        ch.rto_us = min(ch.rto_us * RTO_BACKOFF,
                        64.0 * self._rto_base_us(ch.peer))
        if self._rtt is not None:
            self.engine.stats.rto_backoffs += 1
        pending.deadline = None
        frame = pending.frame
        self._piggyback_ack(ch, frame)
        self.engine.tracer.emit(self.sim.now, self._name, "retransmit",
                                seq=pending.seq, peer=ch.peer, rail=rail,
                                attempt=pending.retries)
        self.down(self.nics[rail], frame, pending.cpu_gap_us,
                  partial(self._tx_done, ch, pending), None)

    def _give_up(self, ch: _Channel, pending: _Pending) -> None:
        del ch.unacked[pending.seq]
        self.engine.stats.transport_failures += 1
        kind = (RailDownError if pending.rail in self.quarantined
                else TransportError)
        exc = kind(
            f"node{self.engine.node_id}: frame seq {pending.seq} to node "
            f"{ch.peer} undeliverable after {pending.retries} retransmits "
            f"(last rail {pending.rail})"
        )
        self.engine.tracer.emit(self.sim.now, self._name, "give_up",
                                seq=pending.seq, peer=ch.peer,
                                retries=pending.retries)
        if pending.on_failed is not None:
            pending.on_failed(exc)

    # -- rail health ---------------------------------------------------------
    def _note_loss(self, rail: int) -> None:
        self.rail_losses[rail] = self.rail_losses.get(rail, 0) + 1
        if (rail not in self.quarantined
                and self.rail_losses[rail] >= self.params.rel_quarantine_threshold
                and any(r not in self.quarantined
                        for r in range(len(self.nics)) if r != rail)):
            self._quarantine(rail)

    def _quarantine(self, rail: int) -> None:
        self.quarantined.add(rail)
        self.engine.stats.rails_quarantined += 1
        self.engine.tracer.emit(self.sim.now, self._name, "quarantine",
                                rail=rail,
                                losses=self.rail_losses.get(rail, 0))
        healthy = [r for r in range(len(self.nics))
                   if r not in self.quarantined]
        if healthy:
            self.engine.rendezvous.reroute_rail(rail, healthy[0])
        # Expire everything last sent on the dead rail so failover happens
        # now rather than after the remaining backoff.
        now = self.sim.now
        for ch in self._peers.values():
            touched = False
            for p in ch.unacked.values():
                if p.rail == rail and p.deadline is not None:
                    p.deadline = now
                    touched = True
            if touched:
                self._arm_timer(ch)
        self._schedule_probe(rail)
        self.engine.transfer.kick()

    def _probe_base_us(self) -> float:
        """The first half-open probe delay (0 in params = auto-derive)."""
        configured = self.params.rel_probe_after_us
        if configured > 0.0:
            return configured
        if self._rtt is not None:
            return 32.0 * self._rtt.global_rto_us()
        assert self._static_rto_us is not None
        return 32.0 * self._static_rto_us

    def _schedule_probe(self, rail: int) -> None:
        """Arm the half-open recovery probe for a freshly quarantined rail.

        The backoff doubles on every re-quarantine of the same rail (capped
        at 64x) and resets the next time an ack succeeds on it, so a flapping
        rail is probed ever more lazily while a healed one rejoins fast.
        """
        base = self._probe_base_us()
        if base != base or base == float("inf"):  # NaN/inf = probing off
            return
        backoff = self._probe_backoff.get(rail, base)
        self._probe_backoff[rail] = min(backoff * 2.0, 64.0 * base)
        self.engine.tracer.emit(self.sim.now, self._name, "probe_armed",
                                rail=rail, after_us=backoff)
        self.timers.arm((None, "probe", rail), backoff, self._reprobe, rail)

    def _reprobe(self, rail: int) -> None:
        """Half-open the rail: lift the quarantine, one strike re-imposes it.

        The rail rejoins the candidate set with its loss score one short of
        the threshold, so the very next retransmit timeout on it
        re-quarantines immediately (and re-arms a longer probe), while a
        single successful ack clears the score and the backoff entirely.
        """
        if rail not in self.quarantined:
            return
        self.quarantined.discard(rail)
        self.rail_losses[rail] = self.params.rel_quarantine_threshold - 1
        self.engine.stats.rails_reprobed += 1
        self.engine.tracer.emit(self.sim.now, self._name, "reprobe",
                                rail=rail)
        self.engine.transfer.kick()

    # -- receive side --------------------------------------------------------
    def on_frame(self, rail: int, frame: Frame) -> None:
        """Process piggybacked acks, drop duplicates, ack what is new."""
        if frame.rel_ack is not None:
            cum, sacks = frame.rel_ack
            self._handle_ack(frame.src_node, cum, sacks)
        if frame.kind == FrameKind.REL_ACK:
            return
        if frame.rel_seq is None:
            self.up(rail, frame)
            return
        ch = self._peer(frame.src_node)
        if not self._record_rx(ch, frame.rel_seq):
            self.engine.stats.duplicates_suppressed += 1
            self.engine.tracer.emit(self.sim.now, self._name, "dup_suppress",
                                    seq=frame.rel_seq, peer=frame.src_node)
            # The peer is clearly missing our ack: resend it right away.
            self._send_ack(ch)
            return
        self._arm_control(ch.peer, "ack", self.params.rel_ack_delay_us,
                          self._delayed_ack_fire, ch)
        self.up(rail, frame)

    def _record_rx(self, ch: _Channel, seq: int) -> bool:
        if seq < ch.rx_cum or seq in ch.rx_sacks:
            return False
        ch.rx_sacks.add(seq)
        while ch.rx_cum in ch.rx_sacks:
            ch.rx_sacks.discard(ch.rx_cum)
            ch.rx_cum += 1
        return True

    def _handle_ack(self, peer: int, cum: int, sacks: tuple[int, ...]) -> None:
        ch = self._peer(peer)
        sackset = set(sacks)
        acked = sorted(s for s in ch.unacked if s < cum or s in sackset)
        if not acked:
            return
        now = self.sim.now
        for seq in acked:
            pending = ch.unacked.pop(seq)
            self.rail_losses[pending.rail] = 0
            # Proof of life: the rail carried an acked frame, so the next
            # quarantine (if any) starts from the base probe window again.
            self._probe_backoff.pop(pending.rail, None)
            if self._rtt is not None and pending.sent_at is not None:
                if pending.retries == 0 and pending.hedged_at is None:
                    # Karn's rule: only a frame transmitted exactly once
                    # (never retried, never hedged) yields an unambiguous
                    # RTT measurement.
                    self._rtt.sample(peer, pending.rail,
                                     now - pending.sent_at)
                    self.engine.stats.rtt_samples += 1
                elif pending.hedged_at is not None and pending.retries == 0:
                    # Attribution heuristic: the hedge "won" when the ack
                    # materialized faster after the hedge went out than the
                    # original had managed in its entire head start.
                    if (now - pending.hedged_at
                            < pending.hedged_at - pending.sent_at):
                        self.engine.stats.hedges_won += 1
            if pending.on_delivered is not None:
                pending.on_delivered()
        ch.rto_us = self._rto_base_us(peer)  # fresh RTT evidence
        self._arm_timer(ch)

    # -- acknowledgement generation ------------------------------------------
    def _piggyback_ack(self, ch: _Channel, frame: Frame) -> None:
        """Carry the current ack record on an outgoing frame, which makes
        a pending standalone ack redundant."""
        frame.rel_ack = (ch.rx_cum, tuple(sorted(ch.rx_sacks)))
        self.timers.cancel((ch.peer, "ack"))

    def _delayed_ack_fire(self, ch: _Channel) -> None:
        # The delayed-ack timer's own entry point, so its time is charged
        # to this layer by name (e2ebench/spans.py), like the other timers.
        self._send_ack(ch)

    def _send_ack(self, ch: _Channel) -> None:
        self.timers.cancel((ch.peer, "ack"))
        hdr = self.params.hdr
        ack = (ch.rx_cum, tuple(sorted(ch.rx_sacks)))
        self.engine.stats.acks_sent += 1
        frame = Frame(src_node=self.engine.node_id, dst_node=ch.peer,
                      kind=FrameKind.REL_ACK,
                      wire_size=hdr.rel_header + hdr.checksum, rel_ack=ack)
        self._send_control(frame, sequenced=False, cum=ack[0],
                           sacks=len(ack[1]))

    # -- lifecycle -------------------------------------------------------------
    def reset_peer(self, peer: int, exc: BaseException) -> None:
        """Tear down the channel to a dead/restarted peer atomically.

        The retransmit, hedge and delayed-ack timers are fenced *before*
        the send buffer is dropped — the timer callbacks hold the channel
        object, so a later tick against a resurrected peer must find
        nothing live.  Every unacked frame's requests fail with ``exc``.
        """
        ch = self._peers.get(peer)
        if ch is None:
            return
        super().reset_peer(peer, exc)
        pendings = sorted(ch.unacked.values(), key=lambda p: p.seq)
        ch.unacked.clear()
        if self._rtt is not None:
            # The next incarnation's path may be nothing like this one's.
            self._rtt.forget_peer(peer)
        self.engine.tracer.emit(self.sim.now, self._name, "reset_peer",
                                peer=peer, dropped=len(pendings))
        for pending in pendings:
            if pending.on_failed is not None:
                pending.on_failed(exc)

    def halt(self) -> None:
        """This node crashed: forget every unacked frame, run no callbacks."""
        for ch in self._peers.values():
            ch.unacked.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ReliabilityLayer {self._name} unacked={self.n_unacked} "
                f"quarantined={sorted(self.quarantined)}>")
