"""Workload generation (paper Sec. IV-B-4).

"Three major sources of workload information can be distinguished": I/O
trace workloads, synthetic I/O workloads, and I/O characterization
workloads.  All three are implemented, and each produces a
:class:`~repro.workloads.base.Workload` that
:func:`repro.simulate.execsim.run_workload` runs:

* :mod:`repro.wgen.dsl` -- a CODES-I/O-language-like [59] domain-specific
  language for describing synthetic workloads ("manually designed I/O
  behavior descriptions").
* :mod:`repro.wgen.from_profile` -- synthesis of representative workloads
  from Darshan-like characterization profiles (the IOWA paper's [20]
  novel technique).
* Trace workloads come from :func:`repro.simulate.tracesim.trace_to_workload`.
* :mod:`repro.wgen.grammar` -- a frozen, digest-identified context-free
  grammar over I/O patterns whose seeded derivations compile (through the
  DSL) to runnable scenarios: unbounded what-if exploration from a few
  production rules.
* :mod:`repro.wgen.synth` -- the inverse: beam search over grammar
  derivations that turns a monitored trace back into the smallest
  scenario spec reproducing its access pattern.
"""

from repro.wgen.dsl import DSLError, parse_workload
from repro.wgen.from_profile import synthesize_from_profile
from repro.wgen.grammar import (
    Derivation,
    GrammarError,
    GrammarSpec,
    Production,
    Rule,
    default_grammar,
    expand,
    sample,
)
from repro.wgen.synth import (
    SynthesisResult,
    normalize_ops,
    store_synthesis,
    synthesize,
    target_ops,
)

__all__ = [
    "DSLError",
    "Derivation",
    "GrammarError",
    "GrammarSpec",
    "Production",
    "Rule",
    "SynthesisResult",
    "default_grammar",
    "expand",
    "normalize_ops",
    "parse_workload",
    "sample",
    "store_synthesis",
    "synthesize",
    "synthesize_from_profile",
    "target_ops",
]
