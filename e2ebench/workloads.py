"""The four seeded workloads, each driven through the public stack API.

A workload has three phases, and only the middle one is timed:

* ``generate(seed, variant)`` builds every message up front: addressing,
  size, submission gap and payload.  A seed has ``variants`` input sets;
  only ``fattree-alltoall`` has more than one (its rank placements).  Payloads are zero-copy slices of one seeded
  random pool, so building them costs one ``randbytes`` call, not a Python
  loop per byte, and each message still carries distinct content.
* ``build(inputs)`` constructs the simulator, the cluster and one
  ``NmadEngine`` + ``MadMpi`` per node.
* ``drive(stack, inputs)`` runs the simulation.  The wall time of
  ``Simulator.run`` is the timed region; the benchmark's own instruments
  inside it are a ``perf_counter`` per closed-loop operation and a
  completion callback per receive (simulated latency).

``verify`` then checks, outside the timed region, that every message was
delivered exactly once with the bytes that were sent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

from repro.core import EngineParams, NmadEngine
from repro.errors import ReproError
from repro.madmpi import ANY, MadMpi, alltoall
from repro.madmpi.comm import Communicator
from repro.netsim import Cluster, FatTree, MX_MYRI10G, QUADRICS_QM500
from repro.sim import Simulator

__all__ = ["WORKLOADS", "Rep", "HARDENED_STACKS"]

KB = 1024

#: The opt-in layer ladder, cumulative, on hardened-mixed's traffic.  The
#: last entry is the hardened-mixed stack itself.
HARDENED_STACKS: list[tuple[str, dict]] = [
    ("paper", {}),
    ("ack", {"reliability": "ack"}),
    ("credit", {"reliability": "ack", "flow_control": "credit"}),
    ("epoch", {"reliability": "ack", "flow_control": "credit",
               "sessions": "epoch"}),
    ("auto", {"reliability": "ack", "flow_control": "credit",
              "sessions": "epoch", "rel_timeout_us": "auto"}),
]


def _rng(seed: int, salt: int) -> random.Random:
    return random.Random(seed * 1_000_003 + salt)


@dataclass(frozen=True)
class Msg:
    """One generated point-to-point message (open-loop workloads)."""

    gap_us: float
    flow: int
    tag: int
    size: int
    offset: int  # payload = pool[offset:offset + size]


@dataclass
class Stack:
    """One freshly built simulation: the simulator and one rank per node."""

    sim: Simulator
    mpis: list

    @property
    def engines(self) -> list[NmadEngine]:
        return [m.engine for m in self.mpis]


@dataclass
class Rep:
    """What one timed repetition produced."""

    wall_s: float                  # Simulator.run wall time
    attempted: int                 # messages the workload sends
    delivered: int = 0             # received exactly once, bytes equal
    op_us: list[float] = field(default_factory=list)   # host us per op
    latencies: list[float] = field(default_factory=list)  # sim us per msg
    makespan_us: float = 0.0       # sim time of the last delivery
    payload_bytes: int = 0
    events: int = 0
    variant: int = 0               # which input set of the seed
    error: str | None = None       # exception that ended the run, if any
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - self.delivered


def _two_node_stack(rails: tuple, params: EngineParams) -> Stack:
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=2, rails=rails)
    world = Communicator([0, 1], comm_id=0)
    return Stack(sim=sim, mpis=[
        MadMpi(NmadEngine(cluster.node(i), params=params), world)
        for i in range(2)])


def _timed_run(sim: Simulator, rep_error: list) -> float:
    t0 = perf_counter()
    try:
        sim.run()
    except ReproError as exc:  # PeerDeadError, TransportError, stalls ...
        rep_error.append(f"{type(exc).__name__}: {exc}")
    return perf_counter() - t0


def _leftovers(stack: Stack) -> list[str]:
    """Exactly-once check: nothing unmatched or still posted anywhere."""
    out = []
    for eng in stack.engines:
        if eng.matcher.n_unexpected or eng.matcher.n_posted:
            out.append(f"node{eng.node_id}: {eng.matcher.n_unexpected} "
                       f"unexpected, {eng.matcher.n_posted} still posted")
    return out


# -- two-node open loop -------------------------------------------------------
@dataclass
class OpenLoopInputs:
    pool: bytes
    msgs: list[Msg]
    payloads: list[memoryview]  # payloads[i] is msgs[i]'s bytes
    n_flows: int


class _OpenLoop:
    """Rank 0 replays a seeded message list to rank 1 in simulated time.

    Receives are pre-posted in submission order, so message ``i`` matches
    receive ``i`` and its bytes can be checked exactly.
    """

    name = ""
    why = ""
    #: Host time is sampled per block of this many receive completions and
    #: reported per message.  A block should span at least one engine
    #: packet, or most samples time a few completions inside one packet's
    #: burst and say little.
    block = 16
    salt = 0
    n_messages = 0
    n_flows = 0
    n_tags = 4
    min_size = 1
    max_size = 1
    large_fraction = 0.0
    large_min = 128 * KB
    large_max = 1024 * KB
    burst_prob = 0.5
    max_gap_us = 5.0
    pool_bytes = 64 * KB
    variants = 1

    @property
    def closed_op(self) -> str:
        return f"block of {self.block} receive completions (per message)"

    def rails(self) -> tuple:
        return (MX_MYRI10G,)

    def params(self, stack_name: str | None = None) -> EngineParams:
        return EngineParams()

    def generate(self, seed: int, variant: int = 0) -> OpenLoopInputs:
        rng = _rng(seed, self.salt)
        pool = rng.randbytes(self.pool_bytes)
        n = self.n_messages
        # Exactly ``large_fraction`` of the messages are large, one in the
        # middle half of each run of ``stride`` messages, with sizes
        # stratified over [large_min, large_max]: the seed moves where the
        # bulk lands, not how much of it there is or how it clusters.
        n_large = round(self.large_fraction * n)
        large_at = {}
        if n_large:
            stride = n // n_large
            span = self.large_max - self.large_min
            sizes = [self.large_min + int((j + rng.random()) * span / n_large)
                     for j in range(n_large)]
            rng.shuffle(sizes)
            for j, size in enumerate(sizes):
                pos = j * stride + stride // 4 + rng.randrange(stride // 2)
                large_at[pos] = size
        msgs = []
        for i in range(n):
            if i in large_at:
                size = large_at[i]
            else:
                size = rng.randint(self.min_size, self.max_size)
            gap = 0.0 if rng.random() < self.burst_prob \
                else rng.uniform(0.0, self.max_gap_us)
            msgs.append(Msg(gap_us=gap, flow=rng.randrange(self.n_flows),
                            tag=rng.randrange(self.n_tags), size=size,
                            offset=rng.randrange(self.pool_bytes - size + 1)))
        view = memoryview(pool)
        payloads = [view[m.offset:m.offset + m.size] for m in msgs]
        return OpenLoopInputs(pool=pool, msgs=msgs, payloads=payloads,
                              n_flows=self.n_flows)

    def build(self, inputs: OpenLoopInputs, stack_name: str | None = None
              ) -> Stack:
        return _two_node_stack(self.rails(), self.params(stack_name))

    def drive(self, stack: Stack, inputs: OpenLoopInputs) -> tuple[Rep, list]:
        sim = stack.sim
        m0, m1 = stack.mpis
        msgs = inputs.msgs
        payloads = inputs.payloads
        comms = [Communicator([0, 1], comm_id=1 + f)
                 for f in range(inputs.n_flows)]
        n = len(msgs)
        sent_at = [0.0] * n
        done_at = [-1.0] * n
        stamps: list[float] = []
        n_done = [0]
        block = self.block
        reqs: list = []

        def on_done(i: int):
            def cb(_evt) -> None:
                done_at[i] = sim.now
                if n_done[0] % block == 0:
                    stamps.append(perf_counter())
                n_done[0] += 1
            return cb

        def post_receives() -> None:
            for i, msg in enumerate(msgs):
                req = m1.irecv(source=0, tag=msg.tag, comm=comms[msg.flow],
                               nbytes=msg.size)
                req.done.add_callback(on_done(i))
                reqs.append(req)

        def sender():
            for i, msg in enumerate(msgs):
                if msg.gap_us > 0:
                    yield sim.timeout(msg.gap_us)
                sent_at[i] = sim.now
                m0.isend(payloads[i], dest=1, tag=msg.tag,
                         comm=comms[msg.flow])

        sim.schedule(0.0, post_receives)  # before the first send
        sim.spawn(sender(), name="sender")
        err: list = []
        wall = _timed_run(sim, err)
        rep = Rep(wall_s=wall, attempted=n, events=sim.events_processed,
                  error=err[0] if err else None)
        rep.op_us = [(b - a) * 1e6 / block for a, b in zip(stamps, stamps[1:])]
        rep.latencies = [d - s for s, d in zip(sent_at, done_at) if d >= 0]
        rep.makespan_us = max(done_at)
        rep.payload_bytes = sum(m.size for m, d in zip(msgs, done_at) if d >= 0)
        return rep, reqs

    def verify(self, stack: Stack, inputs: OpenLoopInputs, rep: Rep,
               reqs: list) -> None:
        pool = inputs.pool
        delivered = 0
        for msg, req in zip(inputs.msgs, reqs):
            if not (req.done.triggered and req.done.ok):
                continue
            if req.data.tobytes() == pool[msg.offset:msg.offset + msg.size]:
                delivered += 1
            else:
                rep.problems.append(f"payload mismatch: {msg}")
        rep.delivered = delivered
        rep.problems += _leftovers(stack)


class AggregateBurst(_OpenLoop):
    name = "aggregate-burst"
    why = ("2-node MX, 8 flows of 8 B-4 KiB in 90% back-to-back bursts: deep "
           "window, so tactics, window and packet dominate")
    salt = 2
    n_messages = 3000
    n_flows = 8
    min_size = 8
    max_size = 4 * KB
    burst_prob = 0.9


class HardenedMixed(_OpenLoop):
    name = "hardened-mixed"
    why = ("MX+Quadrics with ack, credit, epoch and auto RTO, 16 B-64 KiB "
           "plus 5% rendezvous: the only run of the opt-in layers")
    salt = 3
    n_messages = 1500
    n_flows = 4
    min_size = 16
    max_size = 64 * KB
    large_fraction = 0.05
    burst_prob = 0.0
    # Packets here carry about one segment, so a short block still spans
    # a packet, and a run holds enough blocks (~7000) for a steady p99.
    block = 4
    max_gap_us = 100.0
    pool_bytes = 2 * 1024 * KB

    def rails(self) -> tuple:
        return (MX_MYRI10G, QUADRICS_QM500)

    def params(self, stack_name: str | None = None) -> EngineParams:
        name = stack_name or HARDENED_STACKS[-1][0]
        return EngineParams(**dict(HARDENED_STACKS)[name])


# -- two-node closed loop -----------------------------------------------------
@dataclass
class PingPongInputs:
    pool: bytes
    offsets: list[int]  # message 2i is ping i, message 2i+1 is pong i
    payloads: list[memoryview]  # pool[offsets[i]:offsets[i] + size]


class PingPongSmall:
    """Rank 0 sends 64 B, rank 1 answers 64 B, and only then the next."""

    name = "pingpong-small"
    why = ("2-node MX 64 B closed loop (paper Fig. 2 path): empty window, so "
           "kernel, transfer and NIC do the work")
    closed_op = "one exchange (ping + pong)"
    salt = 1
    exchanges = 1000
    size = 64
    pool_bytes = 64 * KB
    variants = 1

    def generate(self, seed: int, variant: int = 0) -> PingPongInputs:
        rng = _rng(seed, self.salt)
        pool = rng.randbytes(self.pool_bytes)
        offsets = [rng.randrange(self.pool_bytes - self.size + 1)
                   for _ in range(2 * self.exchanges)]
        view = memoryview(pool)
        return PingPongInputs(pool=pool, offsets=offsets, payloads=[
            view[o:o + self.size] for o in offsets])

    def build(self, inputs: PingPongInputs, stack_name: str | None = None
              ) -> Stack:
        return _two_node_stack((MX_MYRI10G,), EngineParams())

    def drive(self, stack: Stack, inputs: PingPongInputs) -> tuple[Rep, list]:
        sim = stack.sim
        m0, m1 = stack.mpis
        size = self.size
        payloads = inputs.payloads
        n = len(payloads)
        sent_at = [0.0] * n
        done_at = [-1.0] * n
        reqs: list = [None] * n
        stamps: list[float] = []

        def pinger():
            stamps.append(perf_counter())
            for i in range(0, n, 2):
                rreq = m0.irecv(source=1, tag=0, nbytes=size)
                sent_at[i] = sim.now
                m0.isend(payloads[i], dest=1, tag=0)
                yield rreq.done
                done_at[i + 1] = sim.now
                reqs[i + 1] = rreq
                stamps.append(perf_counter())

        def ponger():
            for i in range(0, n, 2):
                rreq = m1.irecv(source=0, tag=0, nbytes=size)
                yield rreq.done
                done_at[i] = sim.now
                reqs[i] = rreq
                sent_at[i + 1] = sim.now
                m1.isend(payloads[i + 1], dest=0, tag=0)

        sim.spawn(ponger(), name="pong")
        sim.spawn(pinger(), name="ping")
        err: list = []
        wall = _timed_run(sim, err)
        rep = Rep(wall_s=wall, attempted=n, events=sim.events_processed,
                  error=err[0] if err else None)
        rep.op_us = [(b - a) * 1e6 for a, b in zip(stamps, stamps[1:])]
        rep.latencies = [d - s for s, d in zip(sent_at, done_at) if d >= 0]
        rep.makespan_us = max(done_at)
        rep.payload_bytes = size * sum(1 for d in done_at if d >= 0)
        return rep, reqs

    def verify(self, stack: Stack, inputs: PingPongInputs, rep: Rep,
               reqs: list) -> None:
        pool = inputs.pool
        delivered = 0
        for off, req in zip(inputs.offsets, reqs):
            if req is None or not (req.done.triggered and req.done.ok):
                continue
            if req.data.tobytes() == pool[off:off + self.size]:
                delivered += 1
            else:
                rep.problems.append(f"payload mismatch at offset {off}")
        rep.delivered = delivered
        rep.problems += _leftovers(stack)


# -- 16-node fat-tree collective ----------------------------------------------
@dataclass
class AlltoallInputs:
    pool: bytes
    # offsets[round][src][dst]: chunk src sends to dst in that round
    offsets: list[list[list[int]]]
    chunks: list[list[list[memoryview]]]  # the same, as pool slices
    placement: list[int]  # rank -> host of the fat-tree


class _LatencyMpi(MadMpi):
    """MadMpi that timestamps its receives' completion in simulated time.

    ``alltoall`` posts its receives through ``irecv``; this subclass adds a
    completion callback keyed by (round, source, self) so per-message
    latency can be measured without touching the collective.
    """

    def __init__(self, engine, world, done_at: list[float],
                 n_ranks: int) -> None:
        super().__init__(engine, world)
        self.round = 0
        self._done_at = done_at
        self._n = n_ranks

    def irecv(self, source: int = ANY, **kwargs):
        req = super().irecv(source=source, **kwargs)
        key = (self.round * self._n + source) * self._n + self.rank
        done_at, sim = self._done_at, self.sim

        def cb(_evt) -> None:
            done_at[key] = sim.now

        req.done.add_callback(cb)
        return req


class FattreeAlltoall:
    """16 ranks on FatTree(k=4), 20 rounds of alltoall with 1 KiB chunks."""

    name = "fattree-alltoall"
    why = ("16 nodes on FatTree(k=4), 20 alltoall rounds of 1 KiB: the only "
           "run of the fabric, many engines and collectives")
    closed_op = "one alltoall round of one rank"
    salt = 4
    n_ranks = 16
    rounds = 20
    chunk = 1 * KB
    pool_bytes = 256 * KB
    #: Rank placements per seed.  Which rounds a full garbage collection
    #: lands in, and how long those rounds are, follow from the placement,
    #: so one placement's host p99 is one draw of that structure; a run
    #: cycles through several and averages them.
    variants = 4

    def generate(self, seed: int, variant: int = 0) -> AlltoallInputs:
        rng = _rng(seed, self.salt)
        pool = rng.randbytes(self.pool_bytes)
        span = self.pool_bytes - self.chunk + 1
        offsets = [[[rng.randrange(span) for _dst in range(self.n_ranks)]
                    for _src in range(self.n_ranks)]
                   for _r in range(self.rounds)]
        # Which host each rank lands on decides which flows share edge
        # and aggregation links, as a job scheduler's placement would.
        # Variant v takes the (v + 1)-th placement drawn.
        for _v in range(variant + 1):
            placement = rng.sample(range(self.n_ranks), self.n_ranks)
        view = memoryview(pool)
        chunks = [[[view[o:o + self.chunk] for o in row] for row in rnd]
                  for rnd in offsets]
        return AlltoallInputs(pool=pool, offsets=offsets, chunks=chunks,
                              placement=placement)

    def build(self, inputs: AlltoallInputs, stack_name: str | None = None
              ) -> Stack:
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=self.n_ranks, rails=(MX_MYRI10G,),
                          topology=FatTree(k=4))
        world = Communicator(inputs.placement, comm_id=0)
        n = self.n_ranks
        done_at = [-1.0] * (self.rounds * n * n)
        mpis = [_LatencyMpi(NmadEngine(cluster.node(host),
                                       params=EngineParams()),
                            world, done_at, n)
                for host in inputs.placement]
        return Stack(sim=sim, mpis=mpis)

    def drive(self, stack: Stack, inputs: AlltoallInputs) -> tuple[Rep, list]:
        sim = stack.sim
        n, rounds, c = self.n_ranks, self.rounds, self.chunk
        done_at = stack.mpis[0]._done_at
        sent_at = [0.0] * (rounds * n * n)
        outs: list = [[None] * rounds for _ in range(n)]
        stamps: list[list[float]] = [[] for _ in range(n)]

        def rank_proc(rank: int):
            mpi = stack.mpis[rank]
            stamps[rank].append(perf_counter())
            for r in range(rounds):
                mpi.round = r
                base = (r * n + rank) * n
                for dst in range(n):
                    sent_at[base + dst] = sim.now
                outs[rank][r] = yield from alltoall(mpi,
                                                    inputs.chunks[r][rank])
                stamps[rank].append(perf_counter())

        for rank in range(n):
            sim.spawn(rank_proc(rank), name=f"rank{rank}")
        err: list = []
        wall = _timed_run(sim, err)
        rep = Rep(wall_s=wall, attempted=rounds * n * (n - 1),
                  events=sim.events_processed, error=err[0] if err else None)
        for st in stamps:
            rep.op_us += [(b - a) * 1e6 for a, b in zip(st, st[1:])]
        lat = []
        for r in range(rounds):
            for src in range(n):
                for dst in range(n):
                    k = (r * n + src) * n + dst
                    if src != dst and done_at[k] >= 0:
                        lat.append(done_at[k] - sent_at[k])
        rep.latencies = lat
        rep.makespan_us = max(done_at)
        rep.payload_bytes = c * len(lat)
        return rep, outs

    def verify(self, stack: Stack, inputs: AlltoallInputs, rep: Rep,
               outs: list) -> None:
        pool, c = inputs.pool, self.chunk
        delivered = 0
        for rank in range(self.n_ranks):
            for r in range(self.rounds):
                got = outs[rank][r]
                if got is None:
                    continue
                for src in range(self.n_ranks):
                    if src == rank:
                        continue
                    o = inputs.offsets[r][src][rank]
                    if bytes(got[src]) == pool[o:o + c]:
                        delivered += 1
                    else:
                        rep.problems.append(
                            f"payload mismatch round {r} {src}->{rank}")
        rep.delivered = delivered
        rep.problems += _leftovers(stack)


WORKLOADS = {w.name: w for w in (PingPongSmall(), AggregateBurst(),
                                 HardenedMixed(), FattreeAlltoall())}
