"""Declarative workload builders: ``WorkloadSpec`` -> workload instances.

Each *kind* maps a JSON-native parameter dict onto one workload of the zoo
(:mod:`repro.workloads`).  A builder returns ``(setup_workloads, main)``:
the setup list creates whatever on-disk state the main workload consumes
(dataset shards, raw workflow inputs) and runs before it.

Data-dependent workloads come in two shapes so scenarios can either stay
compact or control phase ordering exactly:

* ``dlio`` / ``analytics`` / ``workflow`` accept ``generate: true``
  (``bootstrap: true`` for workflows) to bundle their data-generation
  phase as setup;
* ``dlio_gen`` / ``analytics_gen`` / ``workflow_boot`` expose *only* the
  generation phase as a standalone workload, for scenarios that interleave
  several workloads' phases (e.g. the C2 mixed-month scenario generates
  all datasets before running any consumer).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.scenario.spec import ScenarioError, WorkloadSpec
from repro.workloads import (
    AnalyticsConfig,
    AnalyticsWorkload,
    BTIOConfig,
    BTIOWorkload,
    CheckpointConfig,
    CheckpointWorkload,
    DLIOConfig,
    DLIOWorkload,
    FacilityConfig,
    FacilityIngestWorkload,
    H5BenchConfig,
    H5BenchWorkload,
    IORConfig,
    IORWorkload,
    MdtestConfig,
    MdtestWorkload,
    OpStreamWorkload,
    Workload,
    montage_like_workflow,
)
from repro.workloads.workflow import workflow_bootstrap_ops

BuiltWorkload = Tuple[List[Workload], Workload]
WorkloadBuilder = Callable[[WorkloadSpec], BuiltWorkload]


def _config_workload(config_cls, workload_cls):
    """Builder for plain ``Workload(Config(**params), n_ranks)`` kinds."""

    def build(spec) -> BuiltWorkload:
        return [], workload_cls(config_cls(**spec.params), spec.n_ranks)

    return build


def _build_h5bench(spec) -> BuiltWorkload:
    params = dict(spec.params)
    if "dims" in params:  # JSON carries lists; the config wants a tuple
        params["dims"] = tuple(params["dims"])
    return [], H5BenchWorkload(H5BenchConfig(**params), spec.n_ranks)


def _dlio_instance(spec) -> DLIOWorkload:
    params = {k: v for k, v in spec.params.items() if k != "generate"}
    return DLIOWorkload(DLIOConfig(**params), spec.n_ranks)


def _dlio_generation(spec) -> OpStreamWorkload:
    w = _dlio_instance(spec)
    return OpStreamWorkload(
        "dlio-gen", [list(w.generation_ops(r)) for r in range(spec.n_ranks)]
    )


def _build_dlio(spec) -> BuiltWorkload:
    setup = [_dlio_generation(spec)] if spec.params.get("generate") else []
    return setup, _dlio_instance(spec)


def _build_dlio_gen(spec) -> BuiltWorkload:
    return [], _dlio_generation(spec)


def _analytics_instance(spec) -> AnalyticsWorkload:
    params = {k: v for k, v in spec.params.items() if k != "generate"}
    return AnalyticsWorkload(AnalyticsConfig(**params), spec.n_ranks)


def _analytics_generation(spec) -> OpStreamWorkload:
    w = _analytics_instance(spec)
    return OpStreamWorkload(
        "analytics-gen",
        [list(w.generation_ops(r)) for r in range(spec.n_ranks)],
    )


def _build_analytics(spec) -> BuiltWorkload:
    setup = [_analytics_generation(spec)] if spec.params.get("generate") else []
    return setup, _analytics_instance(spec)


def _build_analytics_gen(spec) -> BuiltWorkload:
    return [], _analytics_generation(spec)


_WORKFLOW_KEYS = ("n_inputs", "input_bytes", "work_dir")


def _workflow_instance(spec):
    params = {k: spec.params[k] for k in _WORKFLOW_KEYS if k in spec.params}
    return montage_like_workflow(n_ranks=spec.n_ranks, **params)


def _workflow_bootstrap(spec) -> OpStreamWorkload:
    wf = _workflow_instance(spec)
    n_inputs = spec.params.get("n_inputs", 8)
    input_bytes = spec.params.get("input_bytes", 4 * 1024 * 1024)
    return OpStreamWorkload(
        "wf-boot", [list(workflow_bootstrap_ops(wf, input_bytes, n_inputs))]
    )


def _build_workflow(spec) -> BuiltWorkload:
    setup = [_workflow_bootstrap(spec)] if spec.params.get("bootstrap") else []
    return setup, _workflow_instance(spec)


def _build_workflow_boot(spec) -> BuiltWorkload:
    return [], _workflow_bootstrap(spec)


class ScaleWriteWorkload(Workload):
    """The bulk-synchronous checkpoint workload of the scale model.

    Unlike the zoo workloads it does not execute per-rank op streams
    through the simulated file system: :func:`repro.scenario.build.run_scenario`
    routes it to :mod:`repro.simulate.scalemodel`, where the whole rank
    population runs either as per-rank coroutines (sequential engine) or
    as vectorized island cohorts (partitioned engine) --
    with bit-identical results either way.  ``params`` mirror
    :class:`~repro.simulate.scalemodel.ScaleConfig` (minus ``ranks`` and
    ``seed``, which come from the workload spec and scenario seed);
    ``islands`` defaults to the platform's OSS count (one fabric island
    per OSS group).
    """

    name = "scale_write"

    def __init__(self, spec):
        self.n_ranks = spec.n_ranks
        self.params = dict(spec.params)

    def scale_config(self, platform_spec, seed: int):
        from repro.simulate.scalemodel import ScaleConfig

        params = dict(self.params)
        islands = params.pop("islands", None)
        if islands is None:
            islands = max(1, min(platform_spec.n_oss, self.n_ranks))
        try:
            config = ScaleConfig(
                ranks=self.n_ranks, islands=islands, seed=seed, **params
            )
            config.validate()
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"scale_write: {exc}") from exc
        return config

    def program(self, ctx):
        raise NotImplementedError(
            "scale_write runs through repro.simulate.scalemodel, not through "
            "per-rank I/O stacks; use repro.scenario.build.run_scenario"
        )


def _build_scale(spec) -> BuiltWorkload:
    return [], ScaleWriteWorkload(spec)


def _build_dsl(spec) -> BuiltWorkload:
    """A workload written in the :mod:`repro.wgen.dsl` language.

    ``params`` is ``{"program": <DSL source>}``; the program's ``ranks``
    declaration must match ``spec.n_ranks`` so the spec stays the single
    source of truth sweeps override.
    """
    from repro.wgen.dsl import DSLError, parse_workload

    params = dict(spec.params)
    program = params.pop("program", None)
    if params:
        raise ScenarioError(
            f"dsl: unknown param(s) {', '.join(sorted(params))} "
            f"(only 'program' is accepted)"
        )
    if not isinstance(program, str) or not program.strip():
        raise ScenarioError("dsl: params.program must be DSL source text")
    try:
        workload = parse_workload(program)
    except DSLError as exc:
        raise ScenarioError(f"dsl: {exc}") from exc
    if workload.n_ranks != spec.n_ranks:
        raise ScenarioError(
            f"dsl: program declares ranks {workload.n_ranks} but the "
            f"workload spec says n_ranks={spec.n_ranks}; make them agree"
        )
    return [], workload


def _build_grammar(spec) -> BuiltWorkload:
    """A workload sampled from a grammar at build time.

    ``params``: ``grammar`` names a built-in grammar (``"default"``) or is
    a full grammar document (dict), ``sample_seed`` picks the derivation
    (a first-class sweep axis: ``sample_seed=0,1,2,...``), ``max_steps``
    optionally bounds derivation depth.  Sampling is deterministic, so the
    spec digest still identifies the realized op stream exactly.
    """
    from repro.wgen.dsl import DSLError, parse_workload
    from repro.wgen.grammar import GrammarError, GrammarSpec, default_grammar, sample

    params = dict(spec.params)
    source = params.pop("grammar", "default")
    seed = params.pop("sample_seed", 0)
    max_steps = params.pop("max_steps", 256)
    if params:
        raise ScenarioError(
            f"grammar: unknown param(s) {', '.join(sorted(params))} "
            f"(accepted: grammar, sample_seed, max_steps)"
        )
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ScenarioError("grammar: sample_seed must be a non-negative int")
    try:
        if source == "default":
            grammar = default_grammar()
        elif isinstance(source, dict):
            grammar = GrammarSpec.from_dict(source).validate()
        else:
            raise ScenarioError(
                f"grammar: params.grammar must be 'default' or a grammar "
                f"document, got {source!r}"
            )
        derivation = sample(
            grammar, seed=seed, n_ranks=spec.n_ranks, max_steps=max_steps
        )
        workload = parse_workload(derivation.text)
    except (GrammarError, DSLError) as exc:
        raise ScenarioError(f"grammar: {exc}") from exc
    return [], workload


#: The builder of every kind in :data:`repro.scenario.spec.WORKLOAD_KIND_NAMES`.
WORKLOAD_KINDS: Dict[str, WorkloadBuilder] = {
    "ior": _config_workload(IORConfig, IORWorkload),
    "mdtest": _config_workload(MdtestConfig, MdtestWorkload),
    "checkpoint": _config_workload(CheckpointConfig, CheckpointWorkload),
    "btio": _config_workload(BTIOConfig, BTIOWorkload),
    "h5bench": _build_h5bench,
    "facility": _config_workload(FacilityConfig, FacilityIngestWorkload),
    "dlio": _build_dlio,
    "dlio_gen": _build_dlio_gen,
    "analytics": _build_analytics,
    "analytics_gen": _build_analytics_gen,
    "workflow": _build_workflow,
    "workflow_boot": _build_workflow_boot,
    "scale_write": _build_scale,
    "dsl": _build_dsl,
    "grammar": _build_grammar,
}


def build_workload(spec: WorkloadSpec) -> BuiltWorkload:
    """Instantiate one :class:`~repro.scenario.spec.WorkloadSpec`.

    Raises :class:`~repro.scenario.spec.ScenarioError` for specs that fail
    :meth:`~repro.scenario.spec.WorkloadSpec.validate` (unknown kinds)
    and ``TypeError``/``ValueError`` for parameters the kind's config
    rejects (configs validate themselves).
    """
    spec.validate()
    return WORKLOAD_KINDS[spec.kind](spec)
