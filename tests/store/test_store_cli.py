"""CLI surface of the run store: ``repro-io store ...`` and store tokens
in ``repro-io telemetry``."""

import json

import pytest

from repro.cli import main
from repro.store import RunStore


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def populated(tmp_path, capsys):
    """Two identical CLI experiment runs landing in one store."""
    store_dir = tmp_path / "store"
    for _ in range(2):
        code, _, _ = run_cli(
            capsys, "experiment", "E3", "--cache-dir", str(store_dir)
        )
        assert code == 0
    return store_dir


class TestStoreSubcommand:
    def test_ls_lists_runs_and_refs(self, populated, capsys):
        code, out, _ = run_cli(capsys, "store", "--store-dir", str(populated),
                               "ls")
        assert code == 0
        assert "2 run(s)" in out
        assert "experiment-" in out
        assert "records/E3-s0-" in out

    def test_ls_by_kind(self, populated, capsys):
        code, out, _ = run_cli(capsys, "store", "--store-dir", str(populated),
                               "ls", "--kind", "experiment_record")
        assert code == 0
        assert "record E3 [supported]" in out

    def test_show_run_and_artifact(self, populated, capsys):
        store = RunStore(populated)
        run = store.runs()[-1]
        code, out, _ = run_cli(capsys, "store", "--store-dir", str(populated),
                               "show", run["run_id"])
        assert code == 0
        assert "E3#s0" in out and "record E3" in out
        digest = run["artifacts"]["E3#s0"]
        code, out, _ = run_cli(capsys, "store", "--store-dir", str(populated),
                               "show", digest[:12], "--json")
        assert code == 0
        assert digest in out
        assert json.loads(out.split("\n", 2)[2])["id"] == "E3"

    def test_diff_identical_runs_is_zero(self, populated, capsys):
        """Acceptance bar: two identical runs -> zero differences, exit 0."""
        a, b = [r["run_id"] for r in RunStore(populated).runs()]
        assert a != b  # distinct invocations (manifests embed timings)
        code, out, _ = run_cli(capsys, "store", "--store-dir", str(populated),
                               "diff", a, b)
        assert code == 0
        assert "identical" in out and "0 difference(s)" in out

    def test_diff_differing_artifacts_nonzero(self, populated, capsys):
        from repro.store import RunArtifact

        store = RunStore(populated)
        d1 = store.put(RunArtifact.from_host({"host": "x"}))
        d2 = store.put(RunArtifact.from_host({"host": "y"}))
        code, out, _ = run_cli(capsys, "store", "--store-dir", str(populated),
                               "diff", d1, d2)
        assert code == 1
        assert "'x' -> 'y'" in out

    def test_gc_dry_run_then_delete(self, populated, capsys):
        from repro.store import RunArtifact

        store = RunStore(populated)
        orphan = store.put(RunArtifact.from_host({"host": "orphan"}))
        code, out, _ = run_cli(capsys, "store", "--store-dir", str(populated),
                               "gc", "--dry-run")
        assert code == 0
        assert "would remove 1" in out
        assert store.has(orphan)
        code, out, _ = run_cli(capsys, "store", "--store-dir", str(populated),
                               "gc")
        assert code == 0 and not store.has(orphan)

    def test_verify_clean_and_damaged(self, populated, capsys):
        code, out, _ = run_cli(capsys, "store", "--store-dir", str(populated),
                               "verify")
        assert code == 0 and "no problems" in out
        RunStore(populated).set_ref("records/dangling", "1" * 64)
        code, out, err = run_cli(capsys, "store", "--store-dir",
                                 str(populated), "verify")
        assert code == 1
        assert "dangles" in out and "1 problem(s)" in err

    def test_export_bundle(self, populated, tmp_path, capsys):
        out_path = tmp_path / "bundle.json"
        code, out, _ = run_cli(capsys, "store", "--store-dir", str(populated),
                               "export", "-o", str(out_path))
        assert code == 0
        bundle = json.loads(out_path.read_text())
        assert bundle["schema"] == "repro.store.export/1"
        assert bundle["runs"] and bundle["objects"]

    def test_table_from_store_without_rerunning(self, populated, capsys,
                                                monkeypatch):
        # No experiment execution may happen: the table comes from objects.
        from repro.experiments import runner as runner_mod

        monkeypatch.setattr(
            runner_mod, "_execute",
            lambda task: pytest.fail("store table re-ran an experiment"),
        )
        code, out, _ = run_cli(capsys, "store", "--store-dir", str(populated),
                               "table")
        assert code == 0
        assert "| id | claim | measured | verdict |" in out
        assert "| E3 |" in out and "supported" in out

    def test_table_empty_store(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "store", "--store-dir",
                               str(tmp_path / "empty"), "table")
        assert code == 2 and "no experiment records" in err

    def test_unresolvable_token_is_a_store_error(self, populated, capsys):
        code, _, err = run_cli(capsys, "store", "--store-dir", str(populated),
                               "show", "nope")
        assert code == 2 and "store error" in err


class TestTelemetryStoreTokens:
    def test_latest_summarizes_manifest(self, populated, capsys):
        code, out, _ = run_cli(
            capsys, "telemetry", "latest", "--store-dir", str(populated)
        )
        assert code == 0
        assert "manifest: 1 task(s)" in out

    def test_record_token_prints_summary(self, populated, capsys):
        run = RunStore(populated).runs()[-1]
        digest = run["artifacts"]["E3#s0"]
        code, out, _ = run_cli(
            capsys, "telemetry", digest, "--store-dir", str(populated)
        )
        assert code == 0
        assert "E3" in out

    def test_file_paths_still_work(self, populated, tmp_path, capsys):
        # Runs leave no loose manifest; an exported one reads as a file.
        assert not (populated.parent / "manifest.json").exists()
        store = RunStore(populated)
        manifest = tmp_path / "exported.json"
        manifest.write_text(json.dumps(
            dict(store.get(store.runs()[-1]["manifest"]).payload)))
        code, out, _ = run_cli(capsys, "telemetry", str(manifest))
        assert code == 0
        assert "manifest: 1 task(s)" in out
