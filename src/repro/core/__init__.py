"""The paper's primary contribution: the evaluation-cycle taxonomy.

* :mod:`repro.core.taxonomy` -- the taxonomy of Sec. IV / Fig. 4 as a
  data structure, with every node mapped to the :mod:`repro` modules that
  implement it and the surveyed articles that populate it.
* :mod:`repro.core.cycle` -- the executable closed loop: measure ->
  model/generate -> simulate -> compare, iterated (Fig. 4's dashed
  feedback arrows).  It pulls in the simulator and sits above the
  scenario layer, so this package does not import it: import
  :mod:`repro.core.cycle` itself.
* :mod:`repro.core.experiment` -- experiment records used by the
  benchmark harness to report paper-claim vs. measured outcomes.
"""

from repro.core.taxonomy import TAXONOMY, TaxonomyNode, find_node, render_tree
from repro.core.experiment import (
    ExperimentRecord,
    ResultsCollector,
    record_from_dict,
    record_payload,
)

__all__ = [
    "ExperimentRecord",
    "ResultsCollector",
    "record_from_dict",
    "record_payload",
    "TAXONOMY",
    "TaxonomyNode",
    "find_node",
    "render_tree",
]
