"""The MPICH comparator (MPICH-MX / MPICH-Quadrics in the paper's figures).

Behavioural model (see :mod:`repro.baselines.base` for the sources):
direct request→NIC mapping, very efficient pipelining of message series,
eager/rendezvous switch, and the pack→single-transaction→temporary-buffer→
dispatch derived-datatype path of paper §5.3 / reference [5].
"""

from __future__ import annotations


from repro.baselines.base import BaselineMpi, BaselineParams
from repro.madmpi.comm import Communicator
from repro.netsim.node import Node
from repro.netsim.units import KB
from repro.sim import Tracer

__all__ = ["MpichMpi", "MPICH_MX", "MPICH_QUADRICS"]

#: MPICH 1.x-era MX channel: lean per-message software path.
MPICH_MX = BaselineParams(
    name="MPICH-MX",
    sw_overhead_us=0.25,
    header_bytes=8,
    eager_threshold=32 * KB,
)

#: MPICH over the Quadrics Elan driver.
MPICH_QUADRICS = BaselineParams(
    name="MPICH-Quadrics",
    sw_overhead_us=0.30,
    header_bytes=8,
    eager_threshold=16 * KB,
)


class MpichMpi(BaselineMpi):
    """MPICH model; the params default to the ones for rail 0's technology."""

    def __init__(self, node: Node, world: Communicator,
                 params: BaselineParams | None = None,
                 tracer: Tracer | None = None) -> None:
        if params is None:
            params = MPICH_MX if node.nic(0).profile.tech == "mx" \
                else MPICH_QUADRICS
        super().__init__(node, params, world, tracer=tracer)
