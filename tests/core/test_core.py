"""Unit tests for the taxonomy, evaluation cycle and experiment records."""

import pytest

from repro.cluster import tiny_cluster
from repro.core import (
    ExperimentRecord,
    ResultsCollector,
    TAXONOMY,
    find_node,
    render_tree,
)
from repro.core.cycle import EvaluationCycle
from repro.core.taxonomy import CYCLE_PHASES
from repro.workloads import IORConfig, IORWorkload

MiB = 1024 * 1024


class TestTaxonomy:
    def test_root_has_four_branches(self):
        titles = [c.title for c in TAXONOMY.children]
        assert len(titles) == 4
        assert any("Measurements" in t for t in titles)
        assert any("Modeling" in t for t in titles)
        assert any("Simulation" in t for t in titles)
        assert any("Emerging" in t for t in titles)

    def test_cycle_phases_resolve(self):
        for phase in CYCLE_PHASES:
            assert find_node(phase).children

    def test_find_node_errors(self):
        with pytest.raises(KeyError):
            find_node("nope")

    def test_leaf_modules_are_importable(self):
        import importlib

        for node in TAXONOMY.walk():
            for module in node.modules:
                mod = module.split(" ")[0]
                importlib.import_module(mod)

    def test_walk_visits_all(self):
        ids = [n.id for n in TAXONOMY.walk()]
        assert len(ids) == len(set(ids))
        assert "modeling.predictive" in ids
        assert sum(1 for n in TAXONOMY.walk() if not n.children) >= 15

    def test_render_tree_structure(self):
        text = render_tree()
        assert "Large-Scale I/O" in text
        assert "|--" in text and "`--" in text
        with_mods = render_tree(show_modules=True)
        assert "repro." in with_mods


class TestEvaluationCycle:
    def make_cycle(self):
        return EvaluationCycle(
            platform_factory=tiny_cluster,
            workload_factory=lambda: IORWorkload(
                IORConfig(block_size=2 * MiB, transfer_size=512 * 1024), 2
            ),
            include_think_time=False,
        )

    def test_one_iteration_produces_report(self):
        cycle = self.make_cycle()
        report = cycle.run_iteration()
        assert report.iteration == 0
        assert report.measured.bytes_written == 4 * MiB
        assert report.simulated.bytes_written == 4 * MiB
        assert report.bytes_error == pytest.approx(0.0)
        assert report.trace_records > 0
        assert "cycle iteration 0" in report.summary()

    def test_model_reproduces_measurement(self):
        report = self.make_cycle().run_iteration()
        assert report.converged(bytes_tol=0.01, duration_tol=2.0)

    def test_multiple_iterations_accumulate(self):
        cycle = self.make_cycle()
        reports = cycle.run(iterations=2)
        assert [r.iteration for r in reports] == [0, 1]

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            self.make_cycle().run(iterations=0)


class TestExperimentRecords:
    def test_record_lifecycle(self):
        rec = ExperimentRecord("C1", "compute outpaces storage")
        rec.measure(flop_growth=900.0, bw_growth=42.0).verdict(True, "gap widens")
        assert rec.supported
        assert "SUPPORTED" in rec.summary()
        assert rec.to_dict()["measured"]["flop_growth"] == 900.0

    def test_collector_table_and_save(self, tmp_path):
        col = ResultsCollector()
        col.record("C1", "claim one").measure(x=1.0).verdict(True)
        col.record("C2", "claim two").measure(y=2.0).verdict(False, "surprise")
        assert len(col) == 2
        assert [r.supported for r in col.records.values()] == [True, False]
        table = col.table()
        assert "| C1 |" in table and "NOT supported" in table
        out = tmp_path / "results.json"
        col.save(out)
        assert out.exists()

    def test_collector_idempotent_record(self):
        col = ResultsCollector()
        a = col.record("X", "claim")
        b = col.record("X", "claim")
        assert a is b
