"""Durable I/O primitives: atomic JSON writes and crash-proof pool maps."""

import json
import os

import pytest

from repro.ioutil import atomic_write_json, resilient_pool_map


# -- atomic_write_json --------------------------------------------------------

def test_atomic_write_creates_parents_and_round_trips(tmp_path):
    path = tmp_path / "a" / "b" / "doc.json"
    returned = atomic_write_json({"x": [1, 2]}, path)
    assert returned == path
    assert json.loads(path.read_text()) == {"x": [1, 2]}


def test_atomic_write_replaces_existing_file(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_json({"v": 1}, path)
    atomic_write_json({"v": 2}, path)
    assert json.loads(path.read_text()) == {"v": 2}


def test_atomic_write_leaves_no_temp_files(tmp_path):
    atomic_write_json({"v": 1}, tmp_path / "doc.json")
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_atomic_write_failure_cleans_up_and_preserves_old(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_json({"v": 1}, path)
    with pytest.raises(TypeError):  # object() is not JSON-serializable
        atomic_write_json({"v": object()}, path)
    # The old document survives untouched and no temp file is left behind.
    assert json.loads(path.read_text()) == {"v": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_atomic_write_trailing_newline(tmp_path):
    path = atomic_write_json({}, tmp_path / "doc.json", trailing_newline=True)
    assert path.read_text().endswith("\n")


# -- resilient_pool_map -------------------------------------------------------
# Workers pickle these by reference, so they must be module-level.

def _double(x):
    return 2 * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("bad three")
    return x


def _crash_on_two(x):
    if x == 2:
        os._exit(3)  # simulate an OOM kill / segfault: no exception, no exit
    return x


def test_pool_map_success_keeps_order():
    outcomes = resilient_pool_map(_double, [3, 1, 2], workers=2)
    assert outcomes == [(6, None), (2, None), (4, None)]


def test_pool_map_records_task_exceptions():
    outcomes = resilient_pool_map(_fail_on_three, [1, 3, 5], workers=2)
    assert outcomes[0] == (1, None)
    assert outcomes[2] == (5, None)
    value, error = outcomes[1]
    assert value is None
    assert "ValueError" in error and "bad three" in error


def test_pool_map_survives_worker_crash():
    """A dying worker poisons the whole pool; the crasher is recorded as
    failed after one fresh-pool retry while every other task completes."""
    outcomes = resilient_pool_map(_crash_on_two, [1, 2, 4, 5], workers=2)
    by_item = dict(zip([1, 2, 4, 5], outcomes))
    assert by_item[1] == (1, None)
    assert by_item[4] == (4, None)
    assert by_item[5] == (5, None)
    value, error = by_item[2]
    assert value is None
    assert "crash" in error
