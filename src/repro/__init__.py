"""repro: a parallel I/O evaluation toolkit.

Reproduction of *"Parallel I/O Evaluation Techniques and Emerging HPC
Workloads: A Perspective"* (Neuwirth & Paul, IEEE CLUSTER 2021).  The paper
surveys the large-scale parallel I/O evaluation ecosystem; this package
implements that ecosystem as one coherent library:

* :mod:`repro.des` -- discrete-event simulation kernel (sequential +
  conservative parallel executors).
* :mod:`repro.cluster` -- simulated HPC platform: topologies, fabrics,
  compute/I/O nodes, burst buffers, a batch scheduler and its Slurm-like
  job logs (paper Fig. 1).
* :mod:`repro.pfs` -- Lustre-like parallel file system: striping, MDS,
  OSS/OST, client caches, interference, byte-extent arithmetic.
* :mod:`repro.iostack` -- the layered I/O path (paper Fig. 2): HDF5-like
  library over MPI-IO-like middleware over a POSIX-like layer.
* :mod:`repro.mpi` -- simulated MPI runtime for execution-driven simulation.
* :mod:`repro.workloads` -- workload zoo: IOR-, mdtest-, HACC-IO-,
  NPB-BTIO-like benchmarks plus emerging workloads (deep-learning training,
  analytics, scientific workflows, facility ingest; paper Sec. V).
* :mod:`repro.monitoring` -- Darshan-like profiling, DXT segments,
  Recorder-like multi-level tracing, server-side statistics, metadata event
  monitoring, end-to-end correlation (paper Sec. IV-A).
* :mod:`repro.modeling` -- statistics, regression, an MLP and
  a random forest built from scratch, replay-based modeling, suffix-array
  trace compression, trace extrapolation, prediction-driven prefetching
  (paper Sec. IV-B).
* :mod:`repro.wgen` -- workload generation: a CODES-like I/O DSL, a
  workload grammar, profile- and trace-driven synthesis (paper
  Sec. IV-B-4).
* :mod:`repro.replay` -- trace replay fidelity verification.
* :mod:`repro.simulate` -- trace-driven and execution-driven simulation
  drivers (paper Sec. IV-C).
* :mod:`repro.survey` -- the paper's own 51-article corpus and taxonomy,
  regenerating its figures.
* :mod:`repro.core` -- the taxonomy and experiment records;
  :mod:`repro.core.cycle` is the closed-loop evaluation cycle of paper
  Fig. 4.

Imports flow one way through a fixed layer order (DESIGN.md, "Import
layering"; ``tests/core/test_import_layering.py`` enforces it).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
