"""The contract of the opt-in per-peer layers, and their shared timer service.

Reliability, flow control and sessions sit between the transfer layer and
the NICs and share one shape (sPIN's per-packet handlers, JingZhao's
composable NIC pipeline): per-peer state, a ``send`` that stamps, gates or
sequences a frame before handing it to ``self.down``, and a receive entry
that absorbs, fences or deduplicates a frame before handing it to
``self.up``.  A layer never names its neighbours; the engine builds only
the enabled layers and wires them (see ``docs/PROTOCOLS.md``, "The opt-in
layer contract").  Their timers all run through one :class:`TimerService`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any, Generic, TypeVar

from repro.netsim.frames import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import NmadEngine
    from repro.netsim.nic import Nic
    from repro.sim import Simulator

__all__ = ["PeerLayer", "ReceiveHop", "SendHop", "TimerService"]

#: ``send(nic, frame, cpu_gap_us, on_delivered, on_failed)``: a transmit hop.
SendHop = Callable[["Nic", Frame, float, Any, Any], None]
#: ``receive(rail, frame)``: a receive hop.
ReceiveHop = Callable[[int, Frame], None]

S = TypeVar("S")


class TimerService:
    """Generation-fenced virtual-time timers for one engine's layers.

    A timer is armed under a key ``(peer, slot, ...)`` (``peer`` is None
    for engine-wide timers); only the newest arm of a key is live.  A
    dropped timer's kernel event still fires, as a no-op, so fencing never
    changes the kernel's event stream.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: Live key -> the generation of its newest arm.
        self._key_gen: dict[tuple[Any, ...], int] = {}
        self._next_gen = 0
        self._halted = False

    def arm(self, key: tuple[Any, ...], delay: float,
            fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` unless re-armed or fenced."""
        self._next_gen += 1
        gen = self._next_gen
        if not self._halted:
            self._key_gen[key] = gen
        self.sim.schedule(delay, lambda: self._fire(key, gen, fn, args))

    def post(self, peer: int | None, slot: str, delay: float,
             fn: Callable[..., None], *args: Any) -> None:
        """Arm a timer no later arm supersedes (hedges, NACK resends)."""
        self.arm((peer, slot, self._next_gen), delay, fn, *args)

    def _fire(self, key: tuple[Any, ...], gen: int,
              fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        if gen != self._key_gen.get(key):
            return  # superseded, cancelled or fenced since arming
        del self._key_gen[key]
        fn(*args)

    def armed(self, key: tuple[Any, ...]) -> bool:
        return key in self._key_gen

    def cancel(self, key: tuple[Any, ...]) -> None:
        self._key_gen.pop(key, None)

    def count(self, slot: str) -> int:
        """Live timers in ``slot``, over all peers."""
        return sum(1 for key in self._key_gen if key[1] == slot)

    def fence(self, peer: int, slots: tuple[str, ...]) -> None:
        """Drop every live timer of ``peer`` in ``slots``."""
        for key in [k for k in self._key_gen
                    if k[0] == peer and k[1] in slots]:
            del self._key_gen[key]

    def halt(self) -> None:
        """The node crashed: drop every live timer; later arms never run."""
        self._halted = True
        self._key_gen.clear()


class PeerLayer(Generic[S]):
    """Base of the opt-in layers: per-peer state, wiring, control frames.

    Subclasses define ``send`` and a receive entry, and override the
    lifecycle hooks below where they hold state that outlives a call.
    """

    #: Always true: a layer object exists only while its mode is enabled.
    active = True
    #: Timer slots this layer arms per peer; a peer teardown fences them.
    SLOTS: tuple[str, ...] = ()

    def __init__(self, engine: NmadEngine, name: str) -> None:
        self.engine = engine
        self.sim = engine.sim
        self.params = engine.params
        self.timers = engine.timers
        self.nics = engine.transfer.nics
        self._peers: dict[int, S] = {}
        self._name = f"node{engine.node_id}.{name}"
        # The next hops, wired by the engine (see NmadEngine._wire_layers).
        self.down: SendHop = engine.transfer.post_frame
        self.up: ReceiveHop = engine.transfer.demux_frame

    def _new_peer(self, peer: int) -> S:
        raise NotImplementedError

    def send(self, nic: Nic, frame: Frame, cpu_gap_us: float = 0.0,
             on_delivered: Callable[[], None] | None = None,
             on_failed: Callable[[BaseException], None] | None = None
             ) -> None:
        """The transmit entry: :meth:`stamp` the frame, pass it down.
        A layer that gates or sequences frames overrides this."""
        self.stamp(frame)
        self.down(nic, frame, cpu_gap_us, on_delivered, on_failed)

    def stamp(self, frame: Frame) -> None:
        """Add this layer's header to an outgoing frame."""

    def _peer(self, peer: int) -> S:
        st = self._peers.get(peer)
        if st is None:
            st = self._peers[peer] = self._new_peer(peer)
        return st

    # -- lifecycle hooks -----------------------------------------------------
    def reset_peer(self, peer: int, exc: BaseException) -> None:
        """The session layer tore ``peer`` down: drop its state and timers."""
        self.timers.fence(peer, self.SLOTS)
        self._peers.pop(peer, None)

    def halt(self) -> None:
        """This node crashed (timers are already fenced): run no callbacks."""

    @property
    def quiesced(self) -> bool:
        """True when the layer holds no deferred work."""
        return True

    @property
    def idle(self) -> bool:
        """False while the layer awaits the peer (progress watchdog)."""
        return self.quiesced

    def has_outstanding(self, peer: int) -> bool:
        """Does this layer still owe or await anything towards ``peer``?"""
        return False

    def known_peers(self) -> list[int]:
        """Peers with any state here, in deterministic order."""
        return sorted(self._peers)

    def describe_peer(self, peer: int) -> str | None:
        """One-line diagnostic for the stall report, if the layer has one."""
        return None

    # -- standalone control frames -------------------------------------------
    def _arm_control(self, peer: int, slot: str, delay: float,
                     fire: Callable[..., None], *args: Any) -> None:
        """Coalesce a delayed standalone control frame (ack, credit grant):
        at most one is due per peer, and a reverse frame that carries the
        record first cancels it (``timers.cancel((peer, slot))``)."""
        if not self.timers.armed((peer, slot)):
            self.timers.arm((peer, slot), delay, fire, *args)

    def _send_control(self, frame: Frame, sequenced: bool,
                      **trace: Any) -> None:
        """Send a standalone control frame on the rail elected for its peer.

        A ``sequenced`` frame (credit, NACK) goes down the stack like data,
        through the session gate and reliability.  Acks and session frames
        must not take a sequence number: they are only stamped and go
        straight to the NIC.
        """
        peer = frame.dst_node
        rail = self.engine.transfer.choose_rail(peer, prefer=0)
        sessions = self.engine.sessions
        if not sequenced and sessions is not None:
            sessions.stamp(frame)
        self.engine.tracer.emit(self.sim.now, self._name, frame.kind,
                                peer=peer, **trace, rail=rail)
        if sequenced:
            self.down(self.nics[rail], frame, 0.0, None, None)
        else:
            self.nics[rail].post_send(frame)
