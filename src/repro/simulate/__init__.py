"""Simulation drivers (paper Sec. IV-C).

* :mod:`repro.simulate.execsim` -- execution-driven simulation: the
  workload program runs *inside* the simulator, interleaved with it
  (Sec. IV-C-3, PyPassT [51] style).  This is the primary way to run
  anything in :mod:`repro.workloads`.
* :mod:`repro.simulate.tracesim` -- trace-driven simulation: a recorded
  trace is converted back into a timed op stream and replayed against the
  simulated storage system (Sec. IV-C-2, SynchroTrace [36] style).
"""

from repro.simulate.execsim import ExperimentHarness, launch_workload, run_workload
from repro.simulate.tracesim import trace_to_workload

__all__ = [
    "ExperimentHarness",
    "launch_workload",
    "run_workload",
    "trace_to_workload",
]
