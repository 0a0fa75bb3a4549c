"""Workload zoo (paper Sec. IV-A-1 and Sec. V).

Traditional synthetic benchmarks and the emerging workloads the paper
argues they fail to represent:

* :mod:`repro.workloads.base` -- the workload abstraction: a workload is
  either an op-stream source or an SPMD program, and every
  op-stream source is automatically runnable as a program.
* :mod:`repro.workloads.ior` -- IOR-like synthetic benchmark [76]
  (sequential/strided/random, shared-file vs file-per-process, POSIX or
  MPI-IO collective).
* :mod:`repro.workloads.mdtest` -- mdtest-like metadata benchmark [8].
* :mod:`repro.workloads.checkpoint` -- HACC-IO-like checkpoint/restart [78].
* :mod:`repro.workloads.npb` -- NPB-BT-IO-like nested strided output [77].
* :mod:`repro.workloads.dlio` -- DLIO-like deep-learning training I/O [80]:
  shuffled mini-batch reads, epochs, model checkpoints (Sec. V-B).
* :mod:`repro.workloads.analytics` -- big-data scan/shuffle/reduce job
  (Sec. V-A).
* :mod:`repro.workloads.workflow` -- multi-step scientific workflow DAGs
  (Sec. V-C).
* :mod:`repro.workloads.facility` -- observational-facility ingest streams
  (Sec. V-A's electron microscopy / photon source example).
* :mod:`repro.workloads.proxy` -- phase-structured proxy applications [10].
"""

from repro.workloads.base import OpStreamWorkload, Workload, WorkloadResult
from repro.workloads.ior import IORConfig, IORWorkload
from repro.workloads.mdtest import MdtestConfig, MdtestWorkload
from repro.workloads.checkpoint import CheckpointConfig, CheckpointWorkload
from repro.workloads.npb import BTIOConfig, BTIOWorkload
from repro.workloads.dlio import DLIOConfig, DLIOWorkload
from repro.workloads.analytics import AnalyticsConfig, AnalyticsWorkload
from repro.workloads.workflow import (
    WorkflowTask,
    WorkflowWorkload,
    montage_like_workflow,
)
from repro.workloads.facility import FacilityConfig, FacilityIngestWorkload
from repro.workloads.h5bench import H5BenchConfig, H5BenchWorkload
from repro.workloads.proxy import Phase, PhasedProxyApp

__all__ = [
    "AnalyticsConfig",
    "AnalyticsWorkload",
    "BTIOConfig",
    "BTIOWorkload",
    "CheckpointConfig",
    "CheckpointWorkload",
    "DLIOConfig",
    "DLIOWorkload",
    "FacilityConfig",
    "FacilityIngestWorkload",
    "H5BenchConfig",
    "H5BenchWorkload",
    "IORConfig",
    "IORWorkload",
    "MdtestConfig",
    "MdtestWorkload",
    "OpStreamWorkload",
    "Phase",
    "PhasedProxyApp",
    "Workload",
    "WorkloadResult",
    "WorkflowTask",
    "WorkflowWorkload",
    "montage_like_workflow",
]
