"""Optional overload protection: receive-side credit flow control.

The paper's engine assumes a well-behaved peer: eager traffic is pushed
as fast as the NICs allow and lands in the receiver's unexpected-message
state without bound.  The default ``EngineParams.flow_control="off"``
keeps that paper-faithful behaviour by building no flow-control layer.
This module is the opt-in hardening layer (``flow_control="credit"``)
that bounds both ends of an eager stream:

* each peer holds a **credit budget** for eager traffic towards us
  (``credit_bytes`` payload bytes and ``credit_wraps`` packet wraps);
* the sender **consumes** credit when a strategy commits an eager wrap
  to a physical packet; a destination whose budget is exhausted is
  **blocked** in the optimization window — wraps keep accumulating, but
  no pull elects them, and the per-destination index answers
  ``eligible_for_dest`` for a blocked destination in O(1);
* the receiver **releases** credit when the application consumes a
  message, and advertises releases as cumulative
  ``(released_bytes_total, released_wraps_total)`` grants, piggybacked
  on any reverse frame (``fc_grant``, ``credit_header`` wire bytes) or
  as a small standalone ``credit`` frame after ``credit_grant_delay_us``
  of reverse silence — the same coalescing as the reliability layer's
  standalone acks (:meth:`~repro.core.peerlayer.PeerLayer._arm_control`);
* cumulative totals make grants **idempotent**: a duplicated, reordered
  or retransmitted grant applies as a componentwise max, so the layer
  composes with ``reliability="ack"`` without extra state.

Overflow of the receiver's unexpected-message budget
(``max_unexpected_bytes``) takes a **NACK-and-resend-later** path
instead of unbounded buffering: the refused segment bounces back to the
sender in a ``nack`` frame, its credit is released (the grant rides on
the NACK itself), and the sender re-submits the segment after
``nack_delay_us`` — with exponential backoff while the peer keeps
refusing — through normal credit gating, keeping its original sequence
number so the matcher's in-order machinery is undisturbed.  The echoed
payload models the sender-retained resend buffer of a real stack, so
only control-record bytes are charged on the wire.

Rendezvous traffic is credit-exempt: announcements are tiny control
records, and the bulk data only flows after the receiver granted it —
that grant *is* the large-message flow control.  Engine control wraps
(grants, acks, tombstones) are likewise exempt; blocking those would
deadlock the very protocols that release credit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.packet import PacketWrap, SegItem
from repro.core.peerlayer import PeerLayer
from repro.errors import ProtocolError
from repro.netsim.frames import Frame, FrameKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.matching import Incoming
    from repro.core.engine import NmadEngine

__all__ = ["FlowControlLayer"]

#: Cap on the NACK-resend backoff multiplier (2**6): a peer that keeps
#: refusing slows the retry loop down to ``64 * nack_delay_us`` but never
#: stops it — the next successful post on the receiver drains the buffer
#: and the following resend goes through.
_MAX_NACK_BACKOFF = 64


class _PeerCredit:
    """Both directions of the credit state towards one peer.

    All byte/wrap totals are cumulative and monotonic (except for the
    sender-local ``sent_*`` pair, which :meth:`FlowControlLayer.refund`
    may wind back when an anticipated packet is dissolved before any NIC
    accepted it) until a peer teardown drops the whole entry.  Outstanding
    credit towards the peer is ``sent_* - peer_released_*``; the budget
    the peer still allows is the configured budget minus that difference.
    """

    __slots__ = (
        "peer",
        # Transmit half: what we consumed, and what the peer released.
        "sent_bytes_total", "sent_wraps_total",
        "peer_released_bytes", "peer_released_wraps",
        "blocked", "nack_streak",
        # Receive half: what we released, and what we last advertised.
        "released_bytes_total", "released_wraps_total",
        "adv_bytes", "adv_wraps",
    )

    def __init__(self, peer: int) -> None:
        self.peer = peer
        self.sent_bytes_total = 0
        self.sent_wraps_total = 0
        self.peer_released_bytes = 0
        self.peer_released_wraps = 0
        self.blocked = False
        self.nack_streak = 0
        self.released_bytes_total = 0
        self.released_wraps_total = 0
        self.adv_bytes = 0
        self.adv_wraps = 0


class FlowControlLayer(PeerLayer[_PeerCredit]):
    """Per-engine credit accounting, grant generation and NACK handling.

    The topmost opt-in layer on the transmit path (:meth:`send` stamps
    the current grant; the transfer layer also charges and refunds credit
    through :meth:`consume` / :meth:`refund`) and the last one before the
    demultiplexer on the receive path (:meth:`accept`).
    """

    #: The delayed standalone grant and the NACK resends.
    SLOTS = ("grant", "resend")

    def __init__(self, engine: NmadEngine) -> None:
        super().__init__(engine, "flowcontrol")
        self._credit_bytes = engine.params.credit_bytes
        self._credit_wraps = engine.params.credit_wraps
        self._grant_delay = engine.params.credit_grant_delay_us

    def _new_peer(self, peer: int) -> _PeerCredit:
        return _PeerCredit(peer)

    # -- transmit side: consuming credit ------------------------------------
    def consume(self, dest: int, nbytes: int) -> None:
        """An eager wrap towards ``dest`` was committed to a packet."""
        st = self._peer(dest)
        st.sent_bytes_total += nbytes
        st.sent_wraps_total += 1
        self._update_gate(st)

    def refund(self, dest: int, nbytes: int) -> None:
        """An anticipated packet was dissolved before a NIC accepted it."""
        st = self._peer(dest)
        st.sent_bytes_total -= nbytes
        st.sent_wraps_total -= 1
        self._update_gate(st)

    def planning_budget(self, dest: int) -> tuple[int, int]:
        """Remaining eager ``(bytes, wraps)`` allowance towards ``dest``."""
        st = self._peers.get(dest)
        if st is None:
            return (self._credit_bytes, self._credit_wraps)
        return (
            max(0, self._credit_bytes
                - (st.sent_bytes_total - st.peer_released_bytes)),
            max(0, self._credit_wraps
                - (st.sent_wraps_total - st.peer_released_wraps)),
        )

    def _update_gate(self, st: _PeerCredit) -> None:
        exhausted = (
            st.sent_bytes_total - st.peer_released_bytes >= self._credit_bytes
            or st.sent_wraps_total - st.peer_released_wraps
            >= self._credit_wraps
        )
        if exhausted and not st.blocked:
            st.blocked = True
            self.engine.window.block_dest(st.peer)
            self.engine.stats.credit_stalls += 1
            self.engine.tracer.emit(
                self.sim.now, self._name, "credit_stall", peer=st.peer,
                outstanding=st.sent_bytes_total - st.peer_released_bytes)
        elif not exhausted and st.blocked:
            st.blocked = False
            self.engine.window.unblock_dest(st.peer)
            self.engine.tracer.emit(self.sim.now, self._name,
                                    "credit_resume", peer=st.peer)
            self.engine.transfer.kick()

    # -- receive path --------------------------------------------------------
    def accept(self, rail: int, frame: Frame) -> None:
        """Every post-reliability arrival funnels through here before demux."""
        if frame.fc_grant is not None:
            self._apply_grant(frame.src_node, frame.fc_grant,
                              from_nack=frame.kind == FrameKind.NACK)
        if frame.kind == FrameKind.CREDIT:
            return  # pure control: nothing to demultiplex
        if frame.kind == FrameKind.NACK:
            self._on_nack(frame)
            return
        self.up(rail, frame)

    def _apply_grant(self, peer: int, grant: tuple[int, int],
                     from_nack: bool) -> None:
        st = self._peer(peer)
        rb, rw = grant
        changed = False
        if rb > st.peer_released_bytes:
            st.peer_released_bytes = rb
            changed = True
        if rw > st.peer_released_wraps:
            st.peer_released_wraps = rw
            changed = True
        if not changed:
            return  # stale or duplicated grant: cumulative totals, no-op
        if not from_nack:
            # Real forward progress on the peer (not just a refusal bounce):
            # drop the resend backoff back to its base delay.
            st.nack_streak = 0
        self._update_gate(st)
        self.engine.transfer.kick()

    def release(self, peer: int, nbytes: int) -> None:
        """The application consumed an eager message from ``peer``."""
        st = self._peer(peer)
        st.released_bytes_total += nbytes
        st.released_wraps_total += 1
        self._arm_control(peer, "grant", self._grant_delay_us(peer),
                          self._grant_fire, st)

    # -- grant generation (the reliability layer's delayed acks, for credit) -
    def _advertise(self, st: _PeerCredit) -> tuple[int, int]:
        """Snapshot the cumulative grant for an outgoing frame."""
        if (st.released_bytes_total > st.adv_bytes
                or st.released_wraps_total > st.adv_wraps):
            st.adv_bytes = st.released_bytes_total
            st.adv_wraps = st.released_wraps_total
            self.engine.stats.credits_granted += 1
        self.timers.cancel((st.peer, "grant"))
        return (st.released_bytes_total, st.released_wraps_total)

    def stamp(self, frame: Frame) -> None:
        """Piggyback the current grant on an outgoing engine frame."""
        st = self._peer(frame.dst_node)
        frame.fc_grant = self._advertise(st)
        frame.wire_size += self.params.hdr.credit_header

    def _grant_delay_us(self, peer: int) -> float:
        """Coalescing delay before a standalone credit grant to ``peer``.

        The configured ``credit_grant_delay_us`` unless the adaptive
        timing layer (``rel_timeout_us="auto"``) holds a warm estimate
        for the peer: then half the smoothed RTT, floored at 1us — waiting longer
        than a plausible reverse frame forfeits the piggyback *and* stalls
        the sender, so a measured fast path releases credit sooner.  The
        configured value stays the ceiling (never slower than static).
        """
        rtt = self.engine.rtt
        if rtt is None or not rtt.warm(peer):
            return self._grant_delay
        srtt = rtt.srtt_us(peer)
        if srtt is None:
            return self._grant_delay
        return min(self._grant_delay, max(1.0, srtt / 2.0))

    def _nack_resend_base_us(self, peer: int) -> float:
        """Base delay before re-submitting a NACKed segment to ``peer``.

        The configured ``nack_delay_us``, or the peer's adaptive RTO when
        that is larger: a NACK means the receiver is out of resources, and
        retrying faster than a round trip can drain anything only earns
        the next NACK (the exponential streak backoff still multiplies).
        """
        rtt = self.engine.rtt
        if rtt is None or not rtt.warm(peer):
            return self.params.nack_delay_us
        return max(self.params.nack_delay_us, rtt.rto_us(peer))

    def _grant_fire(self, st: _PeerCredit) -> None:
        """No reverse frame carried the grant in time: send it alone."""
        hdr = self.params.hdr
        grant = self._advertise(st)
        frame = Frame(src_node=self.engine.node_id, dst_node=st.peer,
                      kind=FrameKind.CREDIT,
                      wire_size=hdr.global_header + hdr.credit_header,
                      fc_grant=grant)
        self._send_control(frame, sequenced=True, bytes=grant[0],
                           wraps=grant[1])

    # -- unexpected-buffer overflow: NACK and resend later -------------------
    def on_local_refuse(self, inc: Incoming) -> None:
        """The matcher refused ``inc`` (unexpected budget full): bounce it.

        The bounce moves no credit: the original transmit charged the
        message once and the eventual match of its resend releases it once.
        Releasing on refusal instead would let the sender spend the handed-
        back credit on *fresh* traffic while the refused message still
        waits out its backoff — widening the very overload the budget is
        throttling — and a credit-blocked resend could deadlock against a
        receiver whose buffered messages all sit behind the sequence hole.
        The resend is therefore gate-exempt (``credit_exempt``) instead.
        """
        item = inc.item
        assert isinstance(item, SegItem)
        hdr = self.params.hdr
        grant = self._advertise(self._peer(inc.src))
        self.engine.stats.nacks_sent += 1
        # payload_size stays 0: the echoed segment stands in for the resend
        # buffer a real sender would have retained, so the bounce only
        # charges control-record bytes on the wire.
        frame = Frame(
            src_node=self.engine.node_id, dst_node=inc.src,
            kind=FrameKind.NACK,
            wire_size=hdr.global_header + hdr.seg_header + hdr.credit_header,
            payload=item, fc_grant=grant,
        )
        self._send_control(frame, sequenced=True, seq=item.seq,
                           nbytes=item.data.nbytes)

    def _on_nack(self, frame: Frame) -> None:
        item = frame.payload
        if not isinstance(item, SegItem):
            raise ProtocolError(
                f"node{self.engine.node_id}: NACK frame without an echoed "
                f"segment: {frame!r}"
            )
        peer = frame.src_node
        st = self._peer(peer)
        st.nack_streak += 1
        backoff = min(2 ** (st.nack_streak - 1), _MAX_NACK_BACKOFF)
        delay = self._nack_resend_base_us(peer) * backoff
        self.engine.tracer.emit(self.sim.now, self._name, "nack_rx",
                                peer=peer, seq=item.seq, delay_us=delay)
        # A teardown fences the resend: re-submitting an old-epoch segment
        # would ghost-deliver into the peer's next incarnation.
        self.timers.post(peer, "resend", delay, self._resend, peer, item)

    def _resend(self, peer: int, item: SegItem) -> None:
        self.engine.stats.nack_resends += 1
        # Same (flow, tag, seq) stream position as the refused original, so
        # the receiver's in-order machinery treats the resend as *the*
        # message; a fresh wrap_id keeps the window bookkeeping clean.  The
        # wrap re-enters the window directly (the original submission was
        # already admitted through the bounded collect layer once).
        wrap = PacketWrap(dest=peer, flow=item.flow, tag=item.tag,
                          seq=item.seq, data=item.data,
                          submitted_at=self.sim.now, credit_exempt=True)
        self.engine.window.restore(wrap)
        self.engine.tracer.emit(self.sim.now, self._name, "nack_resend",
                                peer=peer, seq=item.seq)
        self.engine.poke_watchdog()
        self.engine.transfer.kick()

    # -- lifecycle ------------------------------------------------------------
    def reset_peer(self, peer: int, exc: BaseException) -> None:
        """Drop the credit ledger towards a dead/restarted peer.

        Grant and resend timers are fenced with it, and a credit-blocked
        window gate is lifted (the new incarnation starts with a full
        budget).
        """
        st = self._peers.get(peer)
        if st is None:
            return
        super().reset_peer(peer, exc)
        if st.blocked:
            self.engine.window.unblock_dest(peer)
        self.engine.tracer.emit(self.sim.now, self._name, "reset_peer",
                                peer=peer)

    # -- introspection -------------------------------------------------------
    @property
    def pending_resends(self) -> int:
        """NACK resends still waiting out their backoff delay."""
        return self.timers.count("resend")

    @property
    def quiesced(self) -> bool:
        """True when no grant or NACK resend is still scheduled."""
        return not self.timers.count("resend") and not self.timers.count("grant")

    @property
    def idle(self) -> bool:
        """Always true for the progress watchdog.

        A delayed grant advertisement or a scheduled NACK resend is a
        timer that always fires on its own, so it cannot be a stall
        symptom — counting it would trip the watchdog on a healthy
        receiver whose only pending "work" is a coalesced credit grant.
        A firing resend re-arms the watchdog itself.
        """
        return True

    def describe_peer(self, peer: int) -> str:
        """One-line credit diagnostic for the stall report."""
        st = self._peers.get(peer)
        if st is None:
            return "credit: untouched"
        out_b = st.sent_bytes_total - st.peer_released_bytes
        out_w = st.sent_wraps_total - st.peer_released_wraps
        return (
            f"credit: outstanding={out_b}B/{out_w}w of "
            f"{self._credit_bytes}B/{self._credit_wraps}w"
            f"{' [blocked]' if st.blocked else ''}, "
            f"released-out={st.released_bytes_total}B/"
            f"{st.released_wraps_total}w"
            f"{' [grant pending]' if self.timers.armed((peer, 'grant')) else ''}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlowControlLayer {self._name} peers={len(self._peers)}>"
