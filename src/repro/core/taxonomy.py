"""The large-scale I/O evaluation taxonomy (paper Sec. IV, Fig. 4).

The taxonomy is a tree of :class:`TaxonomyNode` records.  Each node knows
the :mod:`repro` module(s) implementing it, so the taxonomy doubles as the
repository's map -- and the survey corpus tags articles with node ids, so
coverage statistics fall out of a join (see
:func:`repro.survey.analysis.taxonomy_coverage`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class TaxonomyNode:
    """One node of the taxonomy tree."""

    id: str
    title: str
    modules: Tuple[str, ...] = ()
    children: Tuple["TaxonomyNode", ...] = ()

    def walk(self):
        """Yield this node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def _n(id, title, modules=(), children=()):
    return TaxonomyNode(id=id, title=title, modules=tuple(modules), children=tuple(children))


#: Phase 1 of Fig. 4: measurements and statistics collection (Sec. IV-A).
_MEASUREMENT = _n(
    "measurement",
    "Measurements & Statistics Collection",
    children=(
        _n(
            "workloads",
            "Workloads",
            children=(
                _n("workloads.application", "Application code",
                   ("repro.simulate.execsim",)),
                _n("workloads.benchmarks", "Synthetic & application benchmarks",
                   ("repro.workloads.ior", "repro.workloads.npb",
                    "repro.workloads.checkpoint")),
                _n("workloads.metadata", "Metadata benchmarks",
                   ("repro.workloads.mdtest",)),
                _n("workloads.replication", "Workload & I/O replication",
                   ("repro.workloads.proxy", "repro.replay")),
                _n("workloads.simulation", "Simulation frameworks",
                   ("repro.des", "repro.simulate")),
            ),
        ),
        _n(
            "monitoring",
            "Data Monitoring & Collection",
            children=(
                _n("monitoring.profilers", "Profiles (I/O characterization)",
                   ("repro.monitoring.profiler", "repro.monitoring.dxt")),
                _n("monitoring.tracers", "Traces",
                   ("repro.monitoring.tracer",)),
                _n("monitoring.server_side", "Server-side statistics",
                   ("repro.monitoring.server_stats",)),
                _n("monitoring.storage", "Storage-system-level monitoring",
                   ("repro.monitoring.fsmonitor", "repro.monitoring.server_stats")),
                _n("monitoring.endtoend", "End-to-end I/O behavior",
                   ("repro.monitoring.endtoend",)),
            ),
        ),
    ),
)

#: Phase 2 of Fig. 4: modeling and prediction (Sec. IV-B).
_MODELING = _n(
    "modeling",
    "Modeling & Prediction",
    children=(
        _n(
            "modeling.analysis",
            "Statistics & analysis",
            ("repro.modeling.statistics", "repro.modeling.hypothesis_testing"),
            children=(
                _n("modeling.analysis.application", "Application-level analysis",
                   ("repro.monitoring.profiler",)),
                _n("modeling.analysis.system", "Storage-system-level analysis",
                   ("repro.monitoring.server_stats",)),
            ),
        ),
        _n("modeling.predictive", "Predictive analytics",
           ("repro.modeling.mlp", "repro.modeling.forest",
            "repro.modeling.predictor")),
        _n("modeling.replay", "Replay-based modeling",
           ("repro.modeling.replay_model", "repro.modeling.trace_compress",
            "repro.modeling.extrapolate")),
        _n("modeling.generation", "Workload generation",
           ("repro.wgen.dsl", "repro.wgen.from_profile")),
    ),
)

#: Phase 3 of Fig. 4: simulation (Sec. IV-C).
_SIMULATION = _n(
    "simulation",
    "Simulation",
    children=(
        _n("simulation.des", "(Parallel) discrete-event simulation",
           ("repro.des.engine", "repro.des.ross")),
        _n("simulation.trace", "Trace-based simulation",
           ("repro.simulate.tracesim",)),
        _n("simulation.execution", "Application & execution-driven simulation",
           ("repro.simulate.execsim", "repro.mpi")),
    ),
)

#: Sec. V: the emerging workloads challenging the traditional assumptions.
_EMERGING = _n(
    "emerging",
    "Emerging HPC Workloads",
    children=(
        _n("emerging.analytics", "Advanced data analytics & ML",
           ("repro.workloads.analytics", "repro.workloads.facility")),
        _n("emerging.dl", "Distributed deep learning",
           ("repro.workloads.dlio",)),
        _n("emerging.workflows", "Data-intensive scientific workflows",
           ("repro.workloads.workflow",)),
    ),
)

#: The full taxonomy.
TAXONOMY = _n(
    "root",
    "Large-Scale I/O Performance Evaluation",
    children=(_MEASUREMENT, _MODELING, _SIMULATION, _EMERGING),
)

#: The three cycle phases Fig. 4 draws arrows between.
CYCLE_PHASES: Tuple[str, ...] = ("measurement", "modeling", "simulation")


def find_node(node_id: str) -> TaxonomyNode:
    """Look up a node by id anywhere in the tree."""
    for node in TAXONOMY.walk():
        if node.id == node_id:
            return node
    raise KeyError(f"no taxonomy node {node_id!r}")


def render_tree(node: Optional[TaxonomyNode] = None, show_modules: bool = False) -> str:
    """Pretty-print the taxonomy tree."""
    node = node or TAXONOMY
    lines: List[str] = []

    def _render(n: TaxonomyNode, prefix: str, is_last: bool, is_root: bool):
        if is_root:
            lines.append(n.title)
        else:
            connector = "`-- " if is_last else "|-- "
            suffix = ""
            if show_modules and n.modules:
                suffix = f"  [{', '.join(n.modules)}]"
            lines.append(f"{prefix}{connector}{n.title}{suffix}")
        child_prefix = prefix if is_root else prefix + ("    " if is_last else "|   ")
        for i, child in enumerate(n.children):
            _render(child, child_prefix, i == len(n.children) - 1, False)

    _render(node, "", True, True)
    return "\n".join(lines)
