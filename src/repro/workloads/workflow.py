"""Data-intensive scientific workflow workload (paper Sec. V-C).

"In sharp contrast to the traditional highly coherent, sequential,
large-transaction reads and writes, data-intensive workflows have been
shown to often utilize non-sequential, metadata-intensive, and
small-transaction reads and writes" [73].

A workflow is a DAG of :class:`WorkflowTask` nodes.  Tasks communicate
through files: each task stats and reads the files its predecessors wrote,
computes, and writes its own outputs.  Execution proceeds in topological
generations (Kahn's algorithm, one sorted generation per round, so the
module needs no graph library); within a generation, ready tasks are
distributed round-robin over the ranks (a simple workflow-manager model),
with a barrier between generations.  The file-per-edge communication is
exactly what makes these workloads metadata-intensive (claim C4).

:func:`montage_like_workflow` builds a DAG shaped like the Montage mosaic
pipeline, the standard exemplar in the workflow characterisation
literature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from repro.ops import IOOp, OpKind
from repro.workloads.base import Workload

MiB = 1024 * 1024
KiB = 1024


@dataclass
class WorkflowTask:
    """One node of the workflow DAG.

    Attributes
    ----------
    name:
        Unique task name.
    inputs:
        Files read: list of (path, nbytes).  Paths produced by predecessor
        tasks must match their outputs.
    outputs:
        Files written: list of (path, nbytes).
    compute_seconds:
        Computation between reading inputs and writing outputs.
    """

    name: str
    inputs: List[Tuple[str, int]] = field(default_factory=list)
    outputs: List[Tuple[str, int]] = field(default_factory=list)
    compute_seconds: float = 0.1


class WorkflowWorkload(Workload):
    """A runnable workflow instance.

    Parameters
    ----------
    tasks:
        The task set.
    edges:
        Dependency pairs ``(upstream_name, downstream_name)``.
    n_ranks:
        Worker ranks available to the workflow manager.
    work_dir:
        Directory holding intermediate files (created by rank 0).
    """

    def __init__(
        self,
        tasks: List[WorkflowTask],
        edges: List[Tuple[str, str]],
        n_ranks: int,
        work_dir: str = "/wf",
        name: str = "workflow",
    ):
        if n_ranks <= 0:
            raise ValueError("n_ranks must be positive")
        if not tasks:
            raise ValueError("workflow needs at least one task")
        self.n_ranks = n_ranks
        self.work_dir = work_dir
        self.name = name
        self.tasks: Dict[str, WorkflowTask] = {}
        for t in tasks:
            if t.name in self.tasks:
                raise ValueError(f"duplicate task name {t.name!r}")
            self.tasks[t.name] = t
        succ: Dict[str, Set[str]] = {name: set() for name in self.tasks}
        for a, b in edges:
            if a not in self.tasks or b not in self.tasks:
                raise ValueError(f"edge references unknown task: {(a, b)}")
            succ[a].add(b)  # a repeated edge is one dependency
        indegree = dict.fromkeys(self.tasks, 0)
        for children in succ.values():
            for b in children:
                indegree[b] += 1
        #: Topological generations: lists of task names runnable in parallel.
        self.generations: List[List[str]] = []
        gen = sorted(name for name, d in indegree.items() if d == 0)
        while gen:
            self.generations.append(gen)
            ready = []
            for a in gen:
                for b in succ[a]:
                    indegree[b] -= 1
                    if indegree[b] == 0:
                        ready.append(b)
            gen = sorted(ready)
        if sum(map(len, self.generations)) != len(self.tasks):
            raise ValueError("workflow graph has a cycle")

    # -- structure metrics ---------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def critical_path_length(self) -> int:
        return len(self.generations)

    # -- execution -----------------------------------------------------------
    def assignment(self) -> Dict[str, int]:
        """Task -> rank mapping (round-robin within each generation)."""
        out: Dict[str, int] = {}
        for gen in self.generations:
            for i, tname in enumerate(gen):
                out[tname] = i % self.n_ranks
        return out

    def ops(self, rank: int) -> Iterator[IOOp]:
        assign = self.assignment()
        if rank == 0:
            yield IOOp(OpKind.MKDIR, self.work_dir, rank=rank, meta={"exist_ok": True})
        yield IOOp(OpKind.BARRIER, rank=rank)
        for gen in self.generations:
            for tname in gen:
                if assign[tname] != rank:
                    continue
                task = self.tasks[tname]
                for path, nbytes in task.inputs:
                    yield IOOp(OpKind.STAT, path, rank=rank)
                    yield IOOp(OpKind.READ, path, offset=0, nbytes=nbytes, rank=rank)
                    yield IOOp(OpKind.CLOSE, path, rank=rank)
                if task.compute_seconds:
                    yield IOOp(OpKind.COMPUTE, duration=task.compute_seconds, rank=rank)
                for path, nbytes in task.outputs:
                    yield IOOp(OpKind.CREATE, path, rank=rank)
                    yield IOOp(OpKind.WRITE, path, offset=0, nbytes=nbytes, rank=rank)
                    yield IOOp(OpKind.CLOSE, path, rank=rank)
            yield IOOp(OpKind.BARRIER, rank=rank)

    def describe(self) -> str:
        return (
            f"workflow {self.name}: {self.n_tasks} tasks in "
            f"{self.critical_path_length} generations on {self.n_ranks} ranks"
        )


def montage_like_workflow(
    n_inputs: int = 8,
    n_ranks: int = 4,
    input_bytes: int = 4 * MiB,
    work_dir: str = "/wf",
) -> WorkflowWorkload:
    """A Montage-mosaic-shaped DAG.

    Structure (as in the Montage characterisation literature):
    ``mProject`` per input image -> pairwise ``mDiffFit`` -> ``mConcatFit``
    -> ``mBgModel`` -> per-image ``mBackground`` -> ``mAdd`` mosaic.
    """
    if n_inputs < 2:
        raise ValueError("montage workflow needs at least 2 inputs")
    tasks: List[WorkflowTask] = []
    edges: List[Tuple[str, str]] = []

    proj_out = {}
    for i in range(n_inputs):
        name = f"mProject{i}"
        out = (f"{work_dir}/proj_{i}.fits", input_bytes)
        proj_out[i] = out
        tasks.append(
            WorkflowTask(
                name,
                inputs=[(f"{work_dir}/raw_{i}.fits", input_bytes)],
                outputs=[out],
                compute_seconds=0.2,
            )
        )

    fit_files = []
    for i in range(n_inputs - 1):
        name = f"mDiffFit{i}"
        fit = (f"{work_dir}/fit_{i}.tbl", 16 * KiB)
        fit_files.append(fit)
        tasks.append(
            WorkflowTask(
                name,
                inputs=[proj_out[i], proj_out[i + 1]],
                outputs=[fit],
                compute_seconds=0.05,
            )
        )
        edges.append((f"mProject{i}", name))
        edges.append((f"mProject{i + 1}", name))

    concat_out = (f"{work_dir}/fits.tbl", 64 * KiB)
    tasks.append(
        WorkflowTask(
            "mConcatFit", inputs=list(fit_files), outputs=[concat_out],
            compute_seconds=0.05,
        )
    )
    edges.extend((f"mDiffFit{i}", "mConcatFit") for i in range(n_inputs - 1))

    corr_out = (f"{work_dir}/corrections.tbl", 16 * KiB)
    tasks.append(
        WorkflowTask(
            "mBgModel", inputs=[concat_out], outputs=[corr_out],
            compute_seconds=0.1,
        )
    )
    edges.append(("mConcatFit", "mBgModel"))

    bg_out = {}
    for i in range(n_inputs):
        name = f"mBackground{i}"
        out = (f"{work_dir}/bg_{i}.fits", input_bytes)
        bg_out[i] = out
        tasks.append(
            WorkflowTask(
                name, inputs=[proj_out[i], corr_out], outputs=[out],
                compute_seconds=0.1,
            )
        )
        edges.append(("mBgModel", name))
        edges.append((f"mProject{i}", name))

    tasks.append(
        WorkflowTask(
            "mAdd",
            inputs=list(bg_out.values()),
            outputs=[(f"{work_dir}/mosaic.fits", input_bytes * n_inputs)],
            compute_seconds=0.3,
        )
    )
    edges.extend((f"mBackground{i}", "mAdd") for i in range(n_inputs))

    wf = WorkflowWorkload(tasks, edges, n_ranks, work_dir=work_dir, name="montage")
    return wf


def workflow_bootstrap_ops(wf: WorkflowWorkload, input_bytes: int, n_inputs: int):
    """Op stream (rank 0) that creates the raw input files a Montage-like
    workflow expects."""
    yield IOOp(OpKind.MKDIR, wf.work_dir, rank=0, meta={"exist_ok": True})
    for i in range(n_inputs):
        path = f"{wf.work_dir}/raw_{i}.fits"
        yield IOOp(OpKind.CREATE, path, rank=0)
        yield IOOp(OpKind.WRITE, path, offset=0, nbytes=input_bytes, rank=0)
        yield IOOp(OpKind.CLOSE, path, rank=0)
