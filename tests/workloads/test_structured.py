"""Unit tests for BT-IO, workflows and proxy apps."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import tiny_cluster
from repro.ops import OpKind
from repro.pfs import build_pfs
from repro.pfs.extents import total_bytes as ext_bytes
from repro.simulate import run_workload
from repro.workloads import (
    BTIOConfig,
    BTIOWorkload,
    OpStreamWorkload,
    Phase,
    PhasedProxyApp,
    WorkflowTask,
    WorkflowWorkload,
    montage_like_workflow,
)
from repro.workloads.npb import _block_decompose
from repro.workloads.workflow import workflow_bootstrap_ops

MiB = 1024 * 1024
KiB = 1024


def make_system():
    platform = tiny_cluster()
    return platform, build_pfs(platform)


class TestBTIO:
    def test_decompose(self):
        assert _block_decompose(8) == (2, 2, 2)
        assert _block_decompose(4) in ((2, 2, 1), (4, 1, 1))
        assert _block_decompose(1) == (1, 1, 1)

    def test_grid_divisibility_enforced(self):
        with pytest.raises(ValueError):
            BTIOWorkload(BTIOConfig(grid=9), n_ranks=8)

    def test_extents_cover_subarray_exactly(self):
        w = BTIOWorkload(BTIOConfig(grid=8, cell_bytes=1, dumps=1), n_ranks=8)
        per_rank_bytes = 8**3 // 8
        all_offsets = set()
        for rank in range(8):
            ext = w.extents_for(rank, 0)
            assert ext_bytes(ext) == per_rank_bytes
            for off, n in ext:
                for b in range(off, off + n):
                    assert b not in all_offsets
                    all_offsets.add(b)
        assert len(all_offsets) == 8**3

    def test_second_dump_offsets_shifted(self):
        w = BTIOWorkload(BTIOConfig(grid=8, cell_bytes=1, dumps=2), n_ranks=8)
        d0 = w.extents_for(0, 0)
        d1 = w.extents_for(0, 1)
        assert d1[0][0] == d0[0][0] + 8**3

    def test_run_collective_and_independent(self):
        for collective in (True, False):
            platform, pfs = make_system()
            cfg = BTIOConfig(grid=16, cell_bytes=8, dumps=1,
                             compute_seconds=0.0, collective=collective)
            w = BTIOWorkload(cfg, n_ranks=4)
            result = run_workload(platform, pfs, w)
            assert result.bytes_written == w.total_bytes


class TestWorkflow:
    def test_dag_validation(self):
        with pytest.raises(ValueError):
            WorkflowWorkload([], [], 2)
        t = WorkflowTask("a")
        with pytest.raises(ValueError):
            WorkflowWorkload([t, WorkflowTask("a")], [], 2)
        with pytest.raises(ValueError):
            WorkflowWorkload([t], [("a", "zzz")], 2)
        a, b = WorkflowTask("a"), WorkflowTask("b")
        with pytest.raises(ValueError):
            WorkflowWorkload([a, b], [("a", "b"), ("b", "a")], 2)

    def test_generations_follow_topology(self):
        a = WorkflowTask("a", outputs=[("/wf/x", KiB)])
        b = WorkflowTask("b", inputs=[("/wf/x", KiB)], outputs=[("/wf/y", KiB)])
        c = WorkflowTask("c", inputs=[("/wf/y", KiB)])
        wf = WorkflowWorkload([a, b, c], [("a", "b"), ("b", "c")], 2)
        assert wf.generations == [["a"], ["b"], ["c"]]
        assert wf.critical_path_length == 3

    def test_montage_shape(self):
        wf = montage_like_workflow(n_inputs=4, n_ranks=2)
        # 4 project + 3 difffit + concat + bgmodel + 4 background + add
        assert wf.n_tasks == 4 + 3 + 1 + 1 + 4 + 1
        assert wf.critical_path_length == 6

    def test_montage_runs_end_to_end(self):
        platform, pfs = make_system()
        wf = montage_like_workflow(n_inputs=4, n_ranks=4, input_bytes=MiB)
        boot = OpStreamWorkload("boot", [list(workflow_bootstrap_ops(wf, MiB, 4))])
        run_workload(platform, pfs, boot)
        result = run_workload(platform, pfs, wf)
        assert pfs.namespace.is_file("/wf/mosaic.fits")
        assert pfs.namespace.lookup("/wf/mosaic.fits").size == 4 * MiB
        assert result.meta_ops > 20  # metadata-intensive by construction

    def test_assignment_round_robin(self):
        wf = montage_like_workflow(n_inputs=4, n_ranks=2)
        assign = wf.assignment()
        gen0 = wf.generations[0]
        assert [assign[t] for t in gen0] == [0, 1, 0, 1]


@st.composite
def _digraphs(draw, acyclic):
    """(task names, edges) on up to 12 tasks; repeated edges allowed.

    With ``acyclic``, every edge points forward in a random task order;
    otherwise any pair is an edge, self-loops included.
    """
    n = draw(st.integers(1, 12))
    names = draw(st.permutations([f"t{i}" for i in range(n)]))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=30))
    if acyclic:
        edges = [(min(i, j), max(i, j)) for i, j in edges if i != j]
    return names, [(names[i], names[j]) for i, j in edges]


def _nx_graph(names, edges):
    g = nx.DiGraph(edges)
    g.add_nodes_from(names)
    return g


def _nx_generations(g):
    return [sorted(gen) for gen in nx.topological_generations(g)]


class TestWorkflowGenerations:
    """The workflow's own topological sort agrees with networkx."""

    @settings(max_examples=200, deadline=None)
    @given(_digraphs(acyclic=True))
    def test_generations_match_networkx(self, graph):
        names, edges = graph
        wf = WorkflowWorkload([WorkflowTask(n) for n in names], edges, 2)
        assert wf.generations == _nx_generations(_nx_graph(names, edges))

    @settings(max_examples=200, deadline=None)
    @given(_digraphs(acyclic=False))
    def test_cycles_raise_and_dags_match(self, graph):
        names, edges = graph
        tasks = [WorkflowTask(n) for n in names]
        g = _nx_graph(names, edges)
        if nx.is_directed_acyclic_graph(g):
            assert WorkflowWorkload(tasks, edges, 2).generations == _nx_generations(g)
        else:
            with pytest.raises(ValueError, match="cycle"):
                WorkflowWorkload(tasks, edges, 2)

    def test_self_loop_is_a_cycle(self):
        tasks = [WorkflowTask("a"), WorkflowTask("b")]
        with pytest.raises(ValueError, match="cycle"):
            WorkflowWorkload(tasks, [("a", "b"), ("b", "b")], 2)


class TestProxy:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhasedProxyApp([], 2)
        with pytest.raises(ValueError):
            Phase(compute_seconds=-1).validate()

    def test_volumes(self):
        app = PhasedProxyApp(
            [Phase(0.1, read_bytes=MiB), Phase(0.2, write_bytes=2 * MiB)],
            n_ranks=2,
        )
        assert app.total_read_bytes() == 2 * MiB
        assert app.total_write_bytes() == 4 * MiB

    def test_runs_with_generated_inputs(self):
        platform, pfs = make_system()
        app = PhasedProxyApp(
            [Phase(0.05, read_bytes=MiB), Phase(0.05, write_bytes=MiB)],
            n_ranks=2,
        )
        gen = OpStreamWorkload(
            "gen", [list(app.generation_ops(r)) for r in range(2)]
        )
        run_workload(platform, pfs, gen)
        result = run_workload(platform, pfs, app)
        assert result.bytes_read == 2 * MiB
        assert result.bytes_written == 2 * MiB
        assert result.duration >= 0.1
