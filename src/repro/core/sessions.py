"""Optional peer failure detection, session epochs and crash recovery.

The paper's engine assumes every peer stays alive: the transfer layer is
"a process scheduler for packets" with no notion of a dead process, and
the opt-in reliability and flow-control layers inherit that — a silently
crashed peer leaves senders retrying into the void until the retry budget
burns, leaks credit, and a restarted peer would happily accept stale
frames from its previous life.  The default ``EngineParams.sessions="off"``
keeps the paper-faithful behaviour by building no session layer.  This
module is the opt-in hardening layer (``sessions="epoch"``) that gives the
engine a ULFM-style notion of process failure:

* every frame to a peer carries a small **session header**: the sender's
  *incarnation* (restart count of its node) and the sender's current view
  of the receiver's incarnation.  The receiver **fences** (discards and
  counts) any frame whose view of it is stale — that is the barrier no
  duplicate or ghost delivery crosses after a crash/restart;
* first contact (and every restart) runs a tiny
  ``session_hello``/``session_welcome`` **handshake**: data frames are
  buffered per peer until the peer's incarnation is known, then flushed
  in submission order;
* a per-peer **heartbeat failure detector** watches peers the engine has
  business with (outstanding sends, posted receives, rendezvous in
  flight).  Heartbeats are idle-only — reverse traffic counts as
  liveness, like the reliability layer's piggybacked acks — and run on
  virtual-time timers: after ``hb_timeout_us/2`` of silence a peer is
  *suspected*, after ``hb_timeout_us`` it is *confirmed dead* (under
  ``rel_timeout_us="auto"`` the budget tightens per peer to four
  adaptive RTOs, with the configured value as the ceiling);
* a suspected peer is **not** a dead peer: new outbound frames towards a
  suspect are *parked* in the same per-peer FIFO the handshake uses
  (``frames_parked``) while heartbeats keep probing.  When contact
  resumes within the same incarnation the peer is unsuspected and the
  parked traffic flushes in submission order — no epoch bump, no
  teardown (``peers_recovered``).  This is what makes a transient
  network partition shorter than ``hb_timeout_us`` invisible to the
  application: requests just take longer.  Only confirmed death (or a
  new incarnation) runs the teardown;
* death and epoch change share one **atomic teardown**: deferred frames,
  window backlog, reliability windows and their retransmit/ack timers,
  credit ledgers and their grant/resend timers, rendezvous transfers and
  matcher sequence state toward the peer are all dropped in one step
  (no simulated time passes), with every affected request failing
  loudly via :class:`~repro.errors.PeerDeadError`;
* on the node's own crash the engine's :meth:`~NmadEngine.halt` fences
  every timer in the engine's :class:`~repro.core.peerlayer.TimerService`,
  so a dead process never ticks into its successor's incarnation.

State machine per peer::

    unknown --(first tx)--> hello_sent --(welcome/any stamped rx)-->
    established --(hb_timeout silence)--> dead --(higher incarnation
    seen)--> established (new epoch)

An epoch change (same peer, higher incarnation) runs the teardown and
then re-establishes immediately; confirmed death stays terminal until a
frame from a *newer* incarnation revives the peer.
"""

from __future__ import annotations

from collections.abc import Callable

from typing import TYPE_CHECKING

from repro.core.peerlayer import PeerLayer
from repro.errors import PeerDeadError
from repro.netsim.frames import Frame, FrameKind
from repro.netsim.nic import Nic

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import NmadEngine

__all__ = ["SessionLayer"]

#: Frame kinds owned by this layer (never reach reliability or demux).
_SESSION_KINDS = frozenset({
    FrameKind.SESSION_HELLO, FrameKind.SESSION_WELCOME, FrameKind.HEARTBEAT,
})

#: ``frame.session[1]`` value meaning "receiver incarnation unknown";
#: only legal on handshake frames.
_UNKNOWN = -1


class _PeerSession:
    """Session and failure-detector state towards one peer."""

    __slots__ = ("peer", "sess_state", "peer_incarnation", "epoch",
                 "last_heard_us", "last_tx_us", "suspect", "deferred_tx")

    def __init__(self, peer: int, now: float) -> None:
        self.peer = peer
        #: "unknown" | "hello_sent" | "established" | "dead"
        self.sess_state = "unknown"
        self.peer_incarnation = _UNKNOWN
        self.epoch = 0             # local count of sessions opened with peer
        self.last_heard_us = now
        self.last_tx_us = now
        self.suspect = False
        #: Frames awaiting the handshake: (nic, frame, gap, ok, fail).
        self.deferred_tx: list[tuple[
            Nic, Frame, float,
            Callable[[], None] | None,
            Callable[[BaseException], None] | None,
        ]] = []


class SessionLayer(PeerLayer[_PeerSession]):
    """Per-engine session handshakes, epoch fencing and failure detection.

    Sits at the very front of the receive path (before the reliability
    layer records a sequence number) and gates the transmit path just
    above reliability (before a sequence number is assigned).
    """

    def __init__(self, engine: NmadEngine) -> None:
        super().__init__(engine, "sessions")
        #: Frozen at construction: a restarted node gets a *new* engine,
        #: whose session layer speaks for the new incarnation.
        self.incarnation = engine.node.incarnation

    def _new_peer(self, peer: int) -> _PeerSession:
        return _PeerSession(peer, now=self.sim.now)

    # -- transmit side -------------------------------------------------------
    def stamp(self, frame: Frame) -> None:
        """Attach the session header to an outgoing frame (idempotent)."""
        if frame.session is not None:
            return
        st = self._peer(frame.dst_node)
        frame.session = (self.incarnation, st.peer_incarnation)
        frame.wire_size += self.params.hdr.session_header
        st.last_tx_us = self.sim.now

    def send(
        self,
        nic: Nic,
        frame: Frame,
        cpu_gap_us: float = 0.0,
        on_delivered: Callable[[], None] | None = None,
        on_failed: Callable[[BaseException], None] | None = None,
    ) -> None:
        """Gate one outgoing frame on the peer's session state.

        An established, unsuspected peer gets the frame stamped and passed
        down now.  Otherwise the layer keeps it — buffered until the
        handshake completes or the suspicion lifts — or fails it because
        the peer is dead.  *Every* engine frame — data, credits, NACKs;
        acks and session frames excepted (they are stamped directly) —
        passes here, so every one is epoch-correct.
        """
        st = self._peer(frame.dst_node)
        if st.sess_state == "established":
            if st.suspect:
                # Graceful degradation: the peer may be on the far side of
                # a transient partition.  Park the frame (FIFO, same queue
                # as the handshake) instead of racing it into a black hole;
                # heartbeats keep probing and a heal flushes it in order.
                st.deferred_tx.append((nic, frame, cpu_gap_us,
                                       on_delivered, on_failed))
                self.engine.stats.frames_parked += 1
                self.engine.tracer.emit(self.sim.now, self._name, "park_tx",
                                        peer=st.peer, frame=frame.frame_id,
                                        parked=len(st.deferred_tx))
                self._arm_monitor(st)
                self.engine.poke_watchdog()
                return
            self.stamp(frame)
            self._arm_monitor(st)
            self.down(nic, frame, cpu_gap_us, on_delivered, on_failed)
            return
        if st.sess_state == "dead":
            if on_failed is not None:
                on_failed(PeerDeadError(
                    f"node{self.engine.node_id}: send to node {st.peer}, "
                    f"a peer confirmed dead at incarnation "
                    f"{st.peer_incarnation}"
                ))
            return
        # unknown / hello_sent: buffer behind the handshake (FIFO).
        st.deferred_tx.append((nic, frame, cpu_gap_us,
                               on_delivered, on_failed))
        if st.sess_state == "unknown":
            st.sess_state = "hello_sent"
            self._send_session_frame(st, FrameKind.SESSION_HELLO)
        self._arm_monitor(st)
        self.engine.poke_watchdog()

    def _flush(self, st: _PeerSession) -> None:
        """Handshake done: replay buffered frames in submission order."""
        if not st.deferred_tx:
            return
        deferred, st.deferred_tx = st.deferred_tx, []
        self.engine.tracer.emit(self.sim.now, self._name, "flush",
                                peer=st.peer, frames=len(deferred))
        for nic, frame, gap, ok, fail in deferred:
            self.send(nic, frame, gap, ok, fail)

    def _send_session_frame(self, st: _PeerSession, kind: str,
                            payload: str | None = None) -> None:
        """Emit a handshake/heartbeat frame directly (never retransmitted:
        the monitor re-solicits, so losing one only costs an interval)."""
        frame = Frame(
            src_node=self.engine.node_id, dst_node=st.peer, kind=kind,
            wire_size=self.params.hdr.global_header, payload=payload,
        )
        if kind == FrameKind.HEARTBEAT:
            self.engine.stats.heartbeats_sent += 1
        self._send_control(frame, sequenced=False, payload=payload)

    # -- receive side --------------------------------------------------------
    def on_frame(self, rail: int, frame: Frame) -> None:
        """Every engine-NIC arrival funnels through here first."""
        if frame.session is None:
            # A peer running sessions="off": tolerate, pass straight up.
            self.up(rail, frame)
            return
        s_inc, d_inc = frame.session
        st = self._peer(frame.src_node)
        if frame.kind in _SESSION_KINDS:
            self._on_session_frame(st, frame, s_inc, d_inc)
            return
        if d_inc != self.incarnation:
            # Addressed to a previous life of this node: a retransmit or
            # straggler from before our restart.  Fencing it is what keeps
            # the old epoch's sequence/credit state from leaking into ours.
            self._fence(st, frame)
            return
        if st.sess_state == "dead":
            if s_inc <= st.peer_incarnation:
                self._fence(st, frame)
                return
            self._epoch_change(st, s_inc)     # the peer came back
        elif s_inc < st.peer_incarnation:
            self._fence(st, frame)
            return
        elif s_inc > st.peer_incarnation and st.peer_incarnation != _UNKNOWN:
            self._epoch_change(st, s_inc)     # the peer restarted under us
        elif st.sess_state != "established":
            self._establish(st, s_inc)        # implicit learn from data
        self._note_liveness(st)
        self.up(rail, frame)

    def _on_session_frame(self, st: _PeerSession, frame: Frame,
                          s_inc: int, d_inc: int) -> None:
        if s_inc < st.peer_incarnation or (
                st.sess_state == "dead" and s_inc <= st.peer_incarnation):
            self._fence(st, frame)
            return
        if (frame.kind != FrameKind.SESSION_HELLO
                and d_inc != self.incarnation):
            # A welcome/heartbeat aimed at a previous life of this node;
            # only a hello may carry a stale (or unknown) view of us,
            # because discovering our incarnation is its whole job.
            self._fence(st, frame)
            return
        if s_inc > st.peer_incarnation and st.peer_incarnation != _UNKNOWN:
            self._epoch_change(st, s_inc)
        elif st.sess_state != "established":
            self._establish(st, s_inc)
        self._note_liveness(st)
        if frame.kind == FrameKind.SESSION_HELLO:
            self._send_session_frame(st, FrameKind.SESSION_WELCOME)
        elif frame.kind == FrameKind.HEARTBEAT and frame.payload == "ping":
            # Pong keeps one-way streams alive; pongs solicit no reply.
            self._send_session_frame(st, FrameKind.HEARTBEAT, payload="pong")

    def _fence(self, st: _PeerSession, frame: Frame) -> None:
        self.engine.stats.stale_frames_fenced += 1
        self.engine.tracer.emit(self.sim.now, self._name, "fence",
                                peer=st.peer, fkind=frame.kind,
                                frame=frame.frame_id, session=frame.session)

    def _note_liveness(self, st: _PeerSession) -> None:
        st.last_heard_us = self.sim.now
        if st.suspect:
            # Contact resumed within the same incarnation: the suspicion
            # was transient.  No epoch bump, no teardown — just release
            # whatever parking accumulated, in submission order.
            st.suspect = False
            self.engine.stats.peers_recovered += 1
            self.engine.tracer.emit(self.sim.now, self._name, "unsuspect",
                                    peer=st.peer,
                                    parked=len(st.deferred_tx))
            if st.sess_state == "established":
                self._flush(st)

    # -- session establishment / epoch change --------------------------------
    def _establish(self, st: _PeerSession, s_inc: int) -> None:
        new_epoch = s_inc != st.peer_incarnation
        st.peer_incarnation = s_inc
        st.sess_state = "established"
        st.suspect = False
        if new_epoch:
            st.epoch += 1
            self.engine.stats.epochs_started += 1
            self.engine.tracer.emit(self.sim.now, self._name, "establish",
                                    peer=st.peer, incarnation=s_inc,
                                    epoch=st.epoch)
        self._flush(st)

    def _epoch_change(self, st: _PeerSession, s_inc: int) -> None:
        """The peer restarted: atomically drop its old life, open the new.

        Unlike confirmed death, an epoch change does *not* fail posted
        receives from the peer — the new incarnation's re-sent data
        legitimately matches them.  Old-epoch unexpected/parked state is
        dropped, which is what prevents a delivery from each epoch.
        """
        exc = PeerDeadError(
            f"node{self.engine.node_id}: node {st.peer} restarted "
            f"(incarnation {st.peer_incarnation} -> {s_inc}); in-flight "
            "requests towards its old incarnation failed"
        )
        self.engine.tracer.emit(self.sim.now, self._name, "epoch_change",
                                peer=st.peer, old=st.peer_incarnation,
                                new=s_inc)
        self._teardown_peer(st, exc)
        self._establish(st, s_inc)

    def _declare_dead(self, st: _PeerSession) -> None:
        st.sess_state = "dead"
        self.timers.cancel((st.peer, "mon"))
        self.engine.stats.peers_dead += 1
        exc = PeerDeadError(
            f"node{self.engine.node_id}: node {st.peer} declared dead after "
            f"{self.sim.now - st.last_heard_us:g}us of silence "
            f"(hb_timeout_us={self._hb_timeout_us(st.peer):g})"
        )
        self.engine.tracer.emit(self.sim.now, self._name, "peer_dead",
                                peer=st.peer,
                                silence=self.sim.now - st.last_heard_us)
        self._teardown_peer(st, exc)
        # Death, unlike an epoch change, dashes all hope of delivery:
        # receives awaiting the peer fail too, so waiters surface the
        # error instead of hanging until their own detector fires.
        self.engine.matcher.fail_src(st.peer, exc, now=self.sim.now)

    def _teardown_peer(self, st: _PeerSession, exc: PeerDeadError) -> None:
        """Atomically drop every bit of engine state bound to the peer.

        Runs with no simulated time passing, so no frame or timer can
        interleave between the steps: deferred handshake frames, the
        anticipated packet, window backlog, collect-deferred submissions,
        every other layer's per-peer state (reliability windows, credit
        ledgers, and their timers), rendezvous transfers, and the
        matcher's per-peer sequence state go in one step.
        """
        engine = self.engine
        peer = st.peer
        deferred, st.deferred_tx = st.deferred_tx, []
        for _nic, _frame, _gap, _ok, fail in deferred:
            if fail is not None:
                fail(exc)
        # Dissolve an anticipated packet first: it restores wraps into the
        # window (drained just below) and refunds credit (reset just after).
        engine.transfer.discard_anticipated_for(peer)
        for wrap in engine.window.drain_matching(lambda w: w.dest == peer):
            if wrap.completion is not None and not wrap.completion.triggered:
                wrap.completion.fail(exc)
                wrap.completion.defuse()
        engine.collect.reset_dest(peer, exc)
        for layer in engine.layers:
            if layer is not self:
                layer.reset_peer(peer, exc)
        engine.rendezvous.fail_peer(peer, exc)
        engine.matcher.reset_peer(peer)
        self.engine.tracer.emit(self.sim.now, self._name, "teardown",
                                peer=peer, deferred=len(deferred))

    # -- failure detector ----------------------------------------------------
    def note_interest(self, peer: int) -> None:
        """The application awaits ``peer`` (a sourced receive was posted):
        watch its liveness even though we may never transmit to it."""
        if peer == self.engine.node_id or peer < 0:
            return
        st = self._peer(peer)
        if st.sess_state == "unknown":
            # A pure receiver still needs the handshake: without our hello
            # the peer cannot learn our incarnation, and we cannot tell its
            # silence from its death.
            st.sess_state = "hello_sent"
            self._send_session_frame(st, FrameKind.SESSION_HELLO)
        self._arm_monitor(st)

    def _needs_monitor(self, peer: int) -> bool:
        engine = self.engine
        return bool(
            engine.window.backlog(peer)
            or any(layer.has_outstanding(peer) for layer in engine.layers)
            or engine.rendezvous.involves_peer(peer)
            or engine.collect.has_deferred_to(peer)
            or engine.matcher.has_posted_from(peer)
        )

    def _hb_timeout_us(self, peer: int) -> float:
        """Effective silence budget before declaring ``peer`` dead.

        The static ``hb_timeout_us`` unless the engine runs the adaptive
        timing layer (``rel_timeout_us="auto"``) *and* holds a warm
        estimate for the peer: then the deadline tightens to four
        adaptive RTOs — long enough that a lost heartbeat round does not
        kill a healthy peer, yet scaled to the measured path instead of
        a hand-tuned constant.  Clamped to at least ``4 * hb_interval_us`` so the
        idle-prober gets several shots before the verdict, and never
        above the configured static bound (the operator's ceiling).
        """
        rtt = self.engine.rtt
        if rtt is None or not rtt.warm(peer):
            return self.params.hb_timeout_us
        eff = max(4.0 * rtt.rto_us(peer), 4.0 * self.params.hb_interval_us)
        return min(eff, self.params.hb_timeout_us)

    def _arm_monitor(self, st: _PeerSession) -> None:
        if st.sess_state == "dead" or self.timers.armed((st.peer, "mon")):
            return
        self.timers.arm((st.peer, "mon"), self.params.hb_interval_us,
                        self._mon_tick, st)

    def _mon_tick(self, st: _PeerSession) -> None:
        if not self._needs_monitor(st.peer):
            # No business with the peer: go dormant so an idle engine's
            # event queue drains (the next send or post re-arms us).
            # Suspicion lapses with the liveness interest — leaving it set
            # would greet the next (possibly much later) send to a healthy
            # peer with a stale park instead of a fresh observation.
            if st.suspect:
                st.suspect = False
                self.engine.tracer.emit(self.sim.now, self._name,
                                        "suspect_dropped", peer=st.peer)
            return
        now = self.sim.now
        silence = now - st.last_heard_us
        hb_timeout_us = self._hb_timeout_us(st.peer)
        if silence >= hb_timeout_us:
            self._declare_dead(st)
            return
        if silence >= hb_timeout_us / 2.0 and not st.suspect:
            st.suspect = True
            self.engine.stats.peers_suspected += 1
            self.engine.tracer.emit(now, self._name, "suspect",
                                    peer=st.peer, silence=silence)
        # Idle-only probing: any frame we sent recently already solicits
        # reverse traffic (acks, grants), so a probe would be redundant.
        if now - st.last_tx_us >= self.params.hb_interval_us:
            if st.sess_state == "established":
                self._send_session_frame(st, FrameKind.HEARTBEAT,
                                         payload="ping")
            else:
                self._send_session_frame(st, FrameKind.SESSION_HELLO)
        self._arm_monitor(st)

    # -- lifecycle -----------------------------------------------------------
    def halt(self) -> None:
        """This node crashed: drop buffered frames, run no callbacks."""
        for st in self._peers.values():
            st.deferred_tx.clear()

    # -- introspection -------------------------------------------------------
    def is_dead(self, peer: int) -> bool:
        st = self._peers.get(peer)
        return st is not None and st.sess_state == "dead"

    def is_suspect(self, peer: int) -> bool:
        """True while the failure detector suspects (but has not yet
        condemned) the peer; outbound traffic is parked meanwhile."""
        st = self._peers.get(peer)
        return st is not None and st.suspect

    def suspect_peers(self) -> list[int]:
        """Currently-suspected peers, in deterministic order."""
        return sorted(p for p, st in self._peers.items() if st.suspect)

    def dead_peers(self) -> list[int]:
        """Peers confirmed dead, in deterministic order."""
        return sorted(p for p, st in self._peers.items()
                      if st.sess_state == "dead")

    @property
    def quiesced(self) -> bool:
        """True when no frame is buffered behind a handshake."""
        return all(not st.deferred_tx for st in self._peers.values())

    def has_outstanding(self, peer: int) -> bool:
        st = self._peers.get(peer)
        return st is not None and bool(st.deferred_tx)

    @property
    def n_deferred_tx(self) -> int:
        return sum(len(st.deferred_tx) for st in self._peers.values())

    @property
    def n_monitors_armed(self) -> int:
        return self.timers.count("mon")

    def describe_peer(self, peer: int) -> str:
        """One-line session diagnostic for the stall report."""
        st = self._peers.get(peer)
        if st is None:
            return "session: untouched"
        flags = ""
        if st.suspect:
            flags += " [suspect]"
        if st.deferred_tx:
            flags += f" [{len(st.deferred_tx)} deferred]"
        return (f"session: {st.sess_state} inc={st.peer_incarnation} "
                f"epoch={st.epoch} heard={st.last_heard_us:g}us{flags}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SessionLayer {self._name} inc={self.incarnation} "
                f"peers={len(self._peers)}>")
