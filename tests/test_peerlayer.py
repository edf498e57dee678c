"""The per-peer layer contract: engine assembly and the shared timer service.

Every configuration ``EngineParams`` accepts builds exactly its enabled
opt-in layers, in transmit order, and paper mode builds none.  Each one
delivers a two-node exchange of eager and rendezvous messages exactly
once with the bytes that were sent.  The timer service does the
generation fencing for all of them: a re-arm supersedes, a peer fence
leaves the other peers alone, and a halt fences everything.
"""

import itertools

import pytest

from repro.core import (
    EngineParams,
    FlowControlLayer,
    NmadEngine,
    ReliabilityLayer,
    SessionLayer,
)
from repro.core.engine import RX_ORDER, TX_ORDER
from repro.core.peerlayer import PeerLayer, TimerService
from repro.netsim import MX_MYRI10G, Cluster
from repro.sim import Simulator

LAYER_CLASS = {"reliability": ReliabilityLayer,
               "flowcontrol": FlowControlLayer,
               "sessions": SessionLayer}


def _configs():
    for rel, fc, ses in itertools.product(("off", "ack"), ("off", "credit"),
                                          ("off", "epoch")):
        for timeout in ((200.0,) if rel == "off" else (200.0, "auto")):
            yield dict(reliability=rel, flow_control=fc, sessions=ses,
                       rel_timeout_us=timeout)


def _enabled(kw):
    on = {"reliability": kw["reliability"] == "ack",
          "flowcontrol": kw["flow_control"] == "credit",
          "sessions": kw["sessions"] == "epoch"}
    return [name for name in TX_ORDER if on[name]]


def _make_pair(params):
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=2, rails=(MX_MYRI10G,))
    engines = [NmadEngine(cluster.node(i), params=params) for i in range(2)]
    return sim, cluster, engines


@pytest.mark.parametrize("kw", list(_configs()), ids=lambda kw: "-".join(
    str(v) for v in kw.values()))
def test_engine_builds_exactly_the_enabled_layers_and_delivers(kw):
    sim, cluster, (e0, e1) = _make_pair(EngineParams(**kw))
    names = _enabled(kw)
    for engine in (e0, e1):
        assert [type(layer) for layer in engine.layers] == \
            [LAYER_CLASS[name] for name in names]
        for name, cls in LAYER_CLASS.items():
            layer = getattr(engine, name)
            assert (layer is not None) == (name in names)
            assert layer is None or isinstance(layer, cls)
        # The wiring follows the stated orders: each hop is the next
        # enabled layer's entry, ending at the transfer layer.
        down = engine.transfer.post_frame
        for layer in reversed(engine.layers):
            assert layer.down == down
            down = layer.send
        assert engine.transfer.send_frame == down
        up = engine.transfer.demux_frame
        for name, entry in reversed(RX_ORDER):
            layer = getattr(engine, name)
            if layer is not None:
                assert layer.up == up
                up = getattr(layer, entry)
        assert engine.transfer.receive_frame == up

    # Eager both ways plus a rendezvous-sized message each way.
    sizes = [7, 1024, 24 * 1024, 200 * 1024]
    payloads = {(src, i): bytes((src * 31 + i + k) % 251 for k in range(n))
                for src in (0, 1) for i, n in enumerate(sizes)}
    engines = (e0, e1)
    reqs = {}

    def app():
        for (src, i), data in payloads.items():
            dst = 1 - src
            reqs[(src, i)] = engines[dst].irecv(src=src, tag=i)
            engines[src].isend(dst, data, tag=i)
        for req in reqs.values():
            yield req.done

    sim.run_process(app())
    sim.run()
    for key, data in payloads.items():
        assert reqs[key].data.tobytes() == data
    for engine in engines:
        assert engine.matcher.delivered == len(sizes)
        assert engine.matcher.n_unexpected == 0
        assert engine.quiesced()
    assert cluster.conservation_ok()


def test_paper_mode_instantiates_no_opt_in_layer(monkeypatch):
    built = []
    original = PeerLayer.__init__

    def spy(self, *args, **kwargs):
        built.append(type(self).__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PeerLayer, "__init__", spy)
    _make_pair(EngineParams())
    assert built == []
    _make_pair(EngineParams(reliability="ack", sessions="epoch"))
    assert sorted(built) == ["ReliabilityLayer", "ReliabilityLayer",
                             "SessionLayer", "SessionLayer"]


class TestTimerService:
    def _service(self):
        sim = Simulator()
        return sim, TimerService(sim), []

    def test_rearm_supersedes_and_the_stale_event_still_fires(self):
        sim, timers, fired = self._service()
        timers.arm((1, "rto"), 10.0, fired.append, "first")
        timers.arm((1, "rto"), 20.0, fired.append, "second")
        assert timers.armed((1, "rto"))
        sim.run()
        assert fired == ["second"]
        assert not timers.armed((1, "rto"))
        # Fencing never cancels in the kernel: both events were processed.
        assert sim.events_processed == 2

    def test_cancel_and_count(self):
        sim, timers, fired = self._service()
        timers.arm((1, "ack"), 5.0, fired.append, "ack1")
        timers.arm((2, "ack"), 5.0, fired.append, "ack2")
        timers.post(1, "resend", 5.0, fired.append, "r1")
        timers.post(1, "resend", 5.0, fired.append, "r2")
        assert timers.count("ack") == 2 and timers.count("resend") == 2
        timers.cancel((2, "ack"))
        sim.run()
        assert fired == ["ack1", "r1", "r2"]
        assert timers.count("resend") == 0

    def test_fencing_one_peer_leaves_the_others(self):
        sim, timers, fired = self._service()
        for peer in (1, 2):
            timers.arm((peer, "rto"), 10.0, fired.append, f"rto{peer}")
            timers.arm((peer, "mon"), 10.0, fired.append, f"mon{peer}")
            timers.post(peer, "hedge", 10.0, fired.append, f"hedge{peer}")
        timers.fence(1, ("rto", "hedge"))
        sim.run()
        assert fired == ["mon1", "rto2", "mon2", "hedge2"]

    def test_halt_fences_everything_for_good(self):
        sim, timers, fired = self._service()
        timers.arm((1, "rto"), 10.0, fired.append, "rto")
        timers.arm((None, "probe", 0), 10.0, fired.append, "probe")
        timers.post(2, "resend", 10.0, fired.append, "resend")
        timers.halt()
        timers.arm((1, "mon"), 5.0, fired.append, "after-halt")
        assert not timers.armed((1, "mon"))
        sim.run()
        assert fired == []
        assert sim.events_processed == 4
