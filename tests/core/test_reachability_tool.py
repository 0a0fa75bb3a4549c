"""The static half of ``tools/reachability.py`` on a tiny package.

A reached function, an unreached one and one whose name only a test
mentions: the inventory must mark reach from the records and count
references outside ``tests/`` apart from those inside it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "reachability.py"


def _tool():
    spec = importlib.util.spec_from_file_location("reachability_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_static_half_classifies_and_counts(tmp_path):
    tool = _tool()
    _write(tmp_path / "src" / "pkg" / "__init__.py", "")
    _write(tmp_path / "src" / "pkg" / "mod.py", (
        "def used():\n"
        "    return helper()\n"
        "\n"
        "\n"
        "def helper():\n"
        "    return 1\n"
        "\n"
        "\n"
        "class Thing:\n"
        "    @staticmethod\n"
        "    def only_tested():\n"
        "        return 2\n"
    ))
    _write(tmp_path / "examples" / "demo.py",
           "from pkg.mod import used\nprint(used())\n")
    _write(tmp_path / "tests" / "test_mod.py", (
        "from pkg.mod import Thing, helper\n"
        "def test_it():\n"
        "    assert Thing.only_tested() == 2 and helper() == 1\n"
    ))
    records = tmp_path / "records"
    records.mkdir()
    mod = str(tmp_path / "src" / "pkg" / "mod.py")
    # The recorder's row format: (file, co_firstlineno, co_name).
    (records / "1-a.json").write_text(json.dumps([
        [mod, 1, "used"], [mod, 1, "<module>"],
    ]))

    inventory = {fn["qualname"]: fn
                 for fn in tool.collect_functions(tmp_path / "src", "pkg")}
    assert set(inventory) == {"used", "helper", "Thing.only_tested"}
    # A decorated function starts at its first decorator, like the code
    # object's co_firstlineno.
    assert inventory["Thing.only_tested"]["line"] == 10
    assert inventory["Thing.only_tested"]["lines"] == 3

    report = tool.analyse(tmp_path, records, package="pkg")
    assert (report["functions"], report["reached"]) == (3, 1)
    unreached = {fn["qualname"]: fn for fn in report["unreached"]}
    assert set(unreached) == {"helper", "Thing.only_tested"}
    # helper: called from used() in src; only_tested: named only in tests.
    assert (unreached["helper"]["refs"], unreached["helper"]["test_refs"]) == (1, 2)
    assert (unreached["Thing.only_tested"]["refs"],
            unreached["Thing.only_tested"]["test_refs"]) == (0, 1)
    assert "`Thing.only_tested`" in tool.markdown(report)
    # The named-only-by-tests table lists only_tested, not helper.
    assert [fn["qualname"] for fn in report["test_only"]] == ["Thing.only_tested"]
    assert report["test_only_lines"] == 3
    table = tool.markdown(report).split("## Named only by tests")[1]
    assert table.startswith(": 1 functions, 3 lines")
    assert "`Thing.only_tested`" in table and "`helper`" not in table
