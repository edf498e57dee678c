"""Baseline MPI models (the paper's comparators) over the same NIC substrate."""

from repro.baselines.base import BaselineMpi, BaselineParams
from repro.baselines.mpich import MPICH_MX, MPICH_QUADRICS, MpichMpi
from repro.baselines.openmpi import OPENMPI_MX, OPENMPI_QUADRICS, OpenMpi

__all__ = [
    "BaselineMpi",
    "BaselineParams",
    "MPICH_MX",
    "MPICH_QUADRICS",
    "MpichMpi",
    "OPENMPI_MX",
    "OPENMPI_QUADRICS",
    "OpenMpi",
]
