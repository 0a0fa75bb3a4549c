"""Every internal name the benchmark's layer tracer patches still resolves.

``perfbench/layers.py`` wraps functions and methods of ``repro`` by
attribute name from outside ``src/``.  Deleting or renaming one of them
breaks the traced benchmark runs; this test installs the tracer and then
uninstalls it, so such a change fails here first.  It only reads
``perfbench/``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def test_layer_tracer_installs_and_uninstalls_cleanly():
    sys.path.insert(0, str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
        from repro.des.sharing import FairShareLink

        tracer = layers.install(layers.Tracer(timing=False))
        try:
            assert len(tracer._undo) > 100
            assert FairShareLink.transfer_batch.__perfbench__
        finally:
            tracer.uninstall()
        assert not hasattr(FairShareLink.transfer_batch, "__perfbench__")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("layers", "common"):
            module = sys.modules.get(name)
            if module is not None and str(PERFBENCH) in str(
                    getattr(module, "__file__", "")):
                del sys.modules[name]
