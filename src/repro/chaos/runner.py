"""Run one chaos schedule end to end and capture the world for auditing.

The runner owns everything between "a fault list" and "a quiesced
simulation": it builds a two-plus-node cluster on the MX profile,
translates :class:`~repro.chaos.schedule.ChaosFault` records into
:class:`~repro.netsim.link.FaultPlan` installations, and drives a
deterministic tagged-message workload through the fully hardened engine
configuration (``reliability="ack"``, ``flow_control="credit"``,
``sessions="epoch"``).  The driver mirrors how a recovery-aware
application uses the API (the PR-5 idiom): receives are posted up front,
failed sends are re-issued a bounded number of times, failed or orphaned
receives are re-posted, and crashed nodes are revived as fresh engine
incarnations.

The runner deliberately does *not* judge the outcome — it returns a
:class:`ChaosWorld` snapshot (every engine incarnation, every request
ever issued, the drained flag) and :func:`run_chaos` hands that to
:func:`repro.chaos.audit.audit_run`.  Keeping run and audit separate is
what lets the shrinker re-run sublists cheaply and lets tests audit
deliberately broken engines.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Generator
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING, Any

from repro.chaos.schedule import ChaosFault, ChaosSpec, generate_schedule
from repro.core.engine import EngineParams, NmadEngine
from repro.core.requests import RecvRequest, SendRequest
from repro.errors import PeerDeadError, ReproError
from repro.netsim.fabric import FatTree
from repro.netsim.link import FaultPlan
from repro.netsim.profiles import MX_MYRI10G
from repro.netsim.stats import topology_summary
from repro.netsim.topology import Cluster
from repro.sim.core import Event, Simulator

if TYPE_CHECKING:
    from repro.chaos.audit import Finding

__all__ = ["ChaosReport", "ChaosWorld", "TagState", "run_chaos", "run_schedule"]

#: Fault kinds installed as per-link :class:`FaultPlan` fields.
_LINK_FAULTS = frozenset({
    "drop", "burst", "corrupt", "slow", "dup", "reorder", "jitter",
})

#: The workload travels sender -> receiver on these fixed roles.
_SENDER = 0
_RECEIVER = 1


@dataclass
class TagState:
    """Every request ever issued for one tagged message, across engine
    incarnations (the audit trail for exactly-once checking)."""

    tag: int
    payload: bytes
    sends: list[tuple[NmadEngine, SendRequest]] = field(default_factory=list)
    recvs: list[tuple[NmadEngine, RecvRequest]] = field(default_factory=list)

    def completions(self) -> list[tuple[NmadEngine, RecvRequest]]:
        """Receives that completed successfully (carry landed data)."""
        return [(eng, r) for eng, r in self.recvs
                if r.complete and not r.failed]

    def delivered(self) -> bool:
        return bool(self.completions())


@dataclass
class ChaosWorld:
    """The quiesced simulation, handed to the auditor.

    ``nodes`` maps node id to every engine incarnation in start order
    (more than one entry only after a crash/restart); the *current*
    incarnation is the last.  ``drained`` records whether the event queue
    was empty after the settle window — the live-timer invariant.
    """

    seed: int
    spec: ChaosSpec
    faults: list[ChaosFault]
    sim: Simulator
    cluster: Cluster
    nodes: dict[int, list[NmadEngine]]
    tags: dict[int, TagState]
    drained: bool

    @property
    def crashed(self) -> bool:
        """True when the schedule contains any crash/restart fault."""
        return any(f.kind == "crash" for f in self.faults)

    def engines(self) -> list[NmadEngine]:
        """Every engine incarnation, deterministic order."""
        return [eng for _nid, incarnations in sorted(self.nodes.items())
                for eng in incarnations]

    def total(self, counter: str) -> int:
        """Sum one ``EngineStats`` counter over every incarnation."""
        return sum(int(getattr(eng.stats, counter))
                   for eng in self.engines())


@dataclass
class ChaosReport:
    """The JSON-able verdict of one seeded chaos run."""

    seed: int
    ok: bool
    drained: bool
    elapsed_us: float
    n_messages: int
    delivered: int
    spec: ChaosSpec
    faults: list[ChaosFault]
    findings: list[Finding]
    fault_summary: dict[str, int]
    stats: dict[str, dict[str, int]]
    #: :func:`repro.netsim.stats.topology_summary` of the cluster (empty
    #: ``switches`` list on the flat mesh).
    topology: dict[str, Any] = field(default_factory=dict)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "drained": self.drained,
            "elapsed_us": self.elapsed_us,
            "n_messages": self.n_messages,
            "delivered": self.delivered,
            "spec": dataclasses.asdict(self.spec),
            "faults": [f.to_jsonable() for f in self.faults],
            "findings": [f.to_jsonable() for f in self.findings],
            "fault_summary": dict(self.fault_summary),
            "stats": {node: dict(counters)
                      for node, counters in self.stats.items()},
            "topology": dict(self.topology),
        }

    def describe(self) -> str:
        """A compact multi-line summary for terminal output."""
        verdict = "OK" if self.ok else "FAIL"
        lines = [
            f"chaos seed {self.seed}: {verdict} "
            f"({self.delivered}/{self.n_messages} delivered, "
            f"{len(self.faults)} fault(s), drained={self.drained})",
        ]
        if self.topology.get("n_switches"):
            lines.append(
                f"  fabric  {self.topology['name']}: "
                f"{self.topology['n_switches']} switch(es), "
                f"{self.topology['switches_down']} down, "
                f"{self.topology['paths_rerouted']} path(s) rerouted, "
                f"{self.topology['switch_frames_dropped']} frame(s) "
                "switch-dropped")
        for fault in self.faults:
            lines.append(f"  inject  {fault.describe()}")
        for finding in self.findings:
            lines.append(f"  FINDING [{finding.code}] {finding.detail}")
        return "\n".join(lines)


def _engine_params(spec: ChaosSpec) -> EngineParams:
    """The fully hardened configuration every chaos run exercises.

    With ``spec.adaptive`` the static retransmit timeout is replaced by
    the measured one (``rel_timeout_us="auto"``, clamped under the
    spec's ``rel_rto_ceiling_us`` — the drill's fabric, not a switched
    datacenter, sizes the cold-start RTO); everything else stays
    identical, so an adaptive run differs from its static twin only in
    how deadlines are derived — the fault schedule is the same.  Only the
    estimator reads the ceiling, so a static run keeps the engine default.
    """
    return EngineParams(
        reliability="ack",
        flow_control="credit",
        sessions="epoch",
        rel_timeout_us="auto" if spec.adaptive else spec.rel_timeout_us,
        rel_rto_ceiling_us=(spec.rel_rto_ceiling_us if spec.adaptive
                            else EngineParams.rel_rto_ceiling_us),
        rel_ack_delay_us=10.0,
        rel_retry_budget=spec.rel_retry_budget,
        hb_interval_us=spec.hb_interval_us,
        hb_timeout_us=spec.hb_timeout_us,
    )


def _install_faults(
    sim: Simulator,
    cluster: Cluster,
    params: EngineParams,
    nodes: dict[int, list[NmadEngine]],
    faults: list[ChaosFault],
) -> None:
    """Translate the schedule into FaultPlans on links and nodes.

    Link faults targeting the same directed wire merge into one plan
    (first-come wins for the singleton ``slow``/``jitter`` slots and for
    colliding reorder indices); partitions are layered on afterwards via
    :meth:`Cluster.partition`, which composes with existing plans.
    Crashes install the node fault *and* schedule the application-level
    revive that boots a fresh engine incarnation just after restart.
    """
    by_link: dict[tuple[int, int], list[ChaosFault]] = {}
    for fault in faults:
        if fault.kind in _LINK_FAULTS:
            by_link.setdefault((fault.src, fault.dst), []).append(fault)

    for (src, dst), flist in sorted(by_link.items()):
        drop_nth: list[int] = []
        bursts: list[tuple[int, int]] = []
        corrupt_nth: list[int] = []
        dup_nth: list[int] = []
        reorder: list[tuple[int, float]] = []
        reorder_seen: set[int] = set()
        slow: tuple[float, float, float | None] | None = None
        jitter: tuple[float, int] | None = None
        for fault in flist:
            if fault.kind == "drop":
                drop_nth.append(fault.nth)
            elif fault.kind == "burst":
                bursts.append((fault.nth, fault.length))
            elif fault.kind == "corrupt":
                corrupt_nth.append(fault.nth)
            elif fault.kind == "dup":
                dup_nth.append(fault.nth)
            elif fault.kind == "reorder":
                if fault.nth not in reorder_seen:
                    reorder_seen.add(fault.nth)
                    reorder.append((fault.nth, fault.delay_us))
            elif fault.kind == "slow":
                if slow is None:
                    slow = (fault.factor, fault.from_us, fault.until_us)
            elif jitter is None:
                jitter = (fault.max_us, fault.rng_seed)
        plan = FaultPlan(
            drop_nth=drop_nth, bursts=bursts, corrupt_nth=corrupt_nth,
            dup_nth=dup_nth, reorder=reorder, slow_link=slow, jitter=jitter,
        )
        installed = False
        for link in cluster.links:
            if (link.src.node_id == src and link.dst.node_id == dst):
                link.fault_plan = plan
                installed = True
        if not installed:
            # Switched fabric: no direct src->dst wire exists, so the fault
            # lands on the source host's uplink — the first (and on a
            # 2-node drill, only) hop every frame of that flow crosses.
            uplink = cluster.host_uplinks.get((src, 0))
            if uplink is not None:
                uplink.fault_plan = plan

    # Deterministic spine-kill resolution: each ``switch_kill``'s ``nth``
    # indexes into the rail-0 core switches that can still die safely —
    # every core group must keep one survivor, or the fabric disconnects
    # and the drill stops exercising reroute and starts proving the
    # obvious.  Kills beyond the safe budget are skipped.
    kills = [f for f in faults if f.kind == "switch_kill"]
    if kills:
        spines = [s for s in cluster.switches
                  if s.tier == "core" and s.rail == 0]
        if not spines:
            raise ReproError(
                "schedule contains switch_kill but the cluster has no "
                "spine switches (topology must be fat-tree)")
        remaining: dict[int, int] = {}
        for s in spines:
            remaining[s.group] = remaining.get(s.group, 0) + 1
        doomed: set[int] = set()
        for fault in kills:
            eligible = [s for s in spines
                        if s.switch_id not in doomed
                        and remaining[s.group] > 1]
            if not eligible:
                continue  # no safe spine left; skip the extra kill
            target = eligible[fault.nth % len(eligible)]
            doomed.add(target.switch_id)
            remaining[target.group] -= 1
            cluster.schedule_switch_fault(
                target.switch_id, FaultPlan(switch_down_at=fault.from_us))

    for fault in faults:
        if fault.kind == "rack_partition":
            cluster.rack_partition(
                fault.nth % len(cluster.racks),
                from_us=fault.from_us, until_us=fault.until_us,
            )
        elif fault.kind == "partition":
            cluster.partition(
                [list(group) for group in fault.groups],
                from_us=fault.from_us, until_us=fault.until_us,
                one_way=fault.one_way,
            )
        elif fault.kind == "crash":
            cluster.schedule_node_fault(fault.src, FaultPlan(
                node_crash_at=fault.from_us,
                node_restart_at=fault.until_us,
            ))

            def _revive(node_id: int = fault.src) -> None:
                nodes[node_id].append(
                    NmadEngine(cluster.node(node_id), params=params))

            sim.schedule(fault.until_us + 1.0, _revive)


def run_schedule(
    seed: int, spec: ChaosSpec, faults: list[ChaosFault],
) -> ChaosWorld:
    """Execute one fault list under ``spec`` and return the quiesced world.

    Deterministic: the workload (sizes, payload bytes) derives from
    ``Random(seed)`` alone, the driver polls on fixed cadences, and the
    simulation kernel resolves ties FIFO.
    """
    for fault in faults:
        if fault.kind == "crash" and not spec.crashes:
            raise ReproError(
                "schedule contains a crash fault but spec.crashes is off")

    rng = Random(seed)
    sim = Simulator()
    topology: str | FatTree = "mesh"
    if spec.topology == "fat-tree":
        # The builder seed follows the schedule seed so ECMP column choice
        # varies across the sweep, yet each seed replays bit-identically.
        topology = FatTree(k=spec.fat_tree_k, seed=seed)
    cluster = Cluster(sim, n_nodes=spec.n_nodes, rails=[MX_MYRI10G],
                      topology=topology)
    params = _engine_params(spec)
    nodes: dict[int, list[NmadEngine]] = {
        node_id: [NmadEngine(cluster.node(node_id), params=params)]
        for node_id in range(spec.n_nodes)
    }
    _install_faults(sim, cluster, params, nodes, faults)

    tags: dict[int, TagState] = {}
    for tag in range(spec.n_messages):
        size = rng.randint(spec.msg_min_bytes, spec.msg_max_bytes)
        tags[tag] = TagState(tag=tag, payload=rng.randbytes(size))

    given_up: set[int] = set()

    def _post_recv(tag: int) -> None:
        eng = nodes[_RECEIVER][-1]
        if eng.halted:
            return
        try:
            req = eng.irecv(src=_SENDER, tag=tag,
                            nbytes=len(tags[tag].payload))
        except PeerDeadError:
            return  # sender confirmed dead; retry after it revives
        tags[tag].recvs.append((eng, req))

    def _post_send(tag: int) -> None:
        eng = nodes[_SENDER][-1]
        if eng.halted:
            return
        try:
            req = eng.isend(_RECEIVER, tags[tag].payload, tag=tag)
        except PeerDeadError:
            return  # receiver confirmed dead; retry after it revives
        tags[tag].sends.append((eng, req))

    def _recv_stale(st: TagState) -> bool:
        if not st.recvs:
            return True
        eng, req = st.recvs[-1]
        if req.complete and not req.failed:
            return False
        return req.failed or eng.halted

    def _send_stale(st: TagState) -> bool:
        if not st.sends:
            return True
        eng, req = st.sends[-1]
        if req.complete and not req.failed:
            return False
        return req.failed or eng.halted

    def driver() -> Generator[Event, None, None]:
        for tag in sorted(tags):
            _post_recv(tag)
        for tag in sorted(tags):
            _post_send(tag)
            yield sim.timeout(spec.send_gap_us)
        while sim.now < spec.deadline_us:
            if all(tags[t].delivered() or t in given_up for t in tags):
                break
            for tag in sorted(tags):
                st = tags[tag]
                if st.delivered() or tag in given_up:
                    continue
                if _send_stale(st):
                    if len(st.sends) > spec.max_resends:
                        given_up.add(tag)
                        continue
                    _post_send(tag)
                if _recv_stale(st):
                    _post_recv(tag)
            yield sim.timeout(spec.hb_interval_us)

    sim.spawn(driver())
    sim.run(until=spec.deadline_us)
    sim.run(until=spec.deadline_us + spec.settle_us)
    drained = sim.peek() == float("inf")

    return ChaosWorld(
        seed=seed, spec=spec, faults=list(faults), sim=sim, cluster=cluster,
        nodes=nodes, tags=tags, drained=drained,
    )


def run_chaos(seed: int, spec: ChaosSpec | None = None) -> ChaosReport:
    """Generate, run and audit one seeded chaos schedule."""
    from repro.chaos.audit import audit_run

    spec = spec if spec is not None else ChaosSpec()
    faults = generate_schedule(seed, spec)
    world = run_schedule(seed, spec, faults)
    findings = audit_run(world)

    stats: dict[str, dict[str, int]] = {}
    for node_id, incarnations in sorted(world.nodes.items()):
        totals: dict[str, int] = {}
        for eng in incarnations:
            for name, value in dataclasses.asdict(eng.stats).items():
                totals[name] = totals.get(name, 0) + int(value)
        stats[f"node{node_id}"] = totals

    return ChaosReport(
        seed=seed,
        ok=not findings,
        drained=world.drained,
        # Time of last actual activity when the run drained early, the full
        # window otherwise (sim.now always reaches the run() deadline).
        elapsed_us=world.sim.last_event_time if world.drained else world.sim.now,
        n_messages=spec.n_messages,
        delivered=sum(1 for st in world.tags.values() if st.delivered()),
        spec=spec,
        faults=faults,
        findings=findings,
        fault_summary=world.cluster.fault_summary(),
        stats=stats,
        topology=topology_summary(world.cluster),
    )
