"""The OpenMPI 1.1 comparator (OpenMPI-MX in the paper's figures).

Same protocol family as MPICH (the paper: "in the absence of related
documentation, we guess that OpenMPI has the same behaviour") but with a
heavier per-message software path — Figure 2(a) shows OpenMPI-MX above
MPICH-MX at small sizes — and a chunk-pipelined datatype engine that
overlaps packing with injection, which is the mechanism consistent with
Figure 4(a) measuring OpenMPI clearly faster than MPICH on the indexed
datatype yet still ~2x slower than MAD-MPI's zero-copy schedule.
"""

from __future__ import annotations


from repro.baselines.base import BaselineMpi, BaselineParams
from repro.madmpi.comm import Communicator
from repro.netsim.node import Node
from repro.netsim.units import KB
from repro.sim import Tracer

__all__ = ["OpenMpi", "OPENMPI_MX", "OPENMPI_QUADRICS"]

#: OpenMPI 1.1 over MX.
OPENMPI_MX = BaselineParams(
    name="OpenMPI-MX",
    sw_overhead_us=0.55,
    header_bytes=16,
    eager_threshold=32 * KB,
    dt_pipeline_chunk=64 * KB,
)

#: OpenMPI over Quadrics (not shown in the paper's Quadrics figures, but
#: available for completeness).
OPENMPI_QUADRICS = BaselineParams(
    name="OpenMPI-Quadrics",
    sw_overhead_us=0.60,
    header_bytes=16,
    eager_threshold=16 * KB,
    dt_pipeline_chunk=64 * KB,
)


class OpenMpi(BaselineMpi):
    """OpenMPI 1.1 model; the params default to the ones for rail 0's technology."""

    def __init__(self, node: Node, world: Communicator,
                 params: BaselineParams | None = None,
                 tracer: Tracer | None = None) -> None:
        if params is None:
            params = OPENMPI_MX if node.nic(0).profile.tech == "mx" \
                else OPENMPI_QUADRICS
        super().__init__(node, params, world, tracer=tracer)
