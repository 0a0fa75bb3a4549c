"""Builder + sweep coverage for the generated workload kinds (dsl, grammar)."""

import pytest

from repro.cluster.platform import tiny_spec
from repro.scenario import (
    ScenarioError,
    ScenarioSpec,
    WorkloadSpec,
    expand_grid,
    run_scenario,
)
from repro.scenario.spec import WORKLOAD_KIND_NAMES
from repro.scenario.workloads import WORKLOAD_KINDS, build_workload
from repro.wgen.grammar import default_grammar, sample

PROGRAM = """
workload hand {
    ranks 2;
    create shared "/h" stripe 1;
    write shared "/h" size 1MB transfer 256KB;
    close shared "/h";
}
"""


def _scenario(workload, **changes):
    defaults = dict(
        name="gen-kinds", platform=tiny_spec(), workloads=(workload,), seed=0,
    )
    defaults.update(changes)
    return ScenarioSpec(**defaults).validate()


def test_kinds_registered():
    assert "dsl" in WORKLOAD_KINDS and "grammar" in WORKLOAD_KINDS
    # Specs validate kinds against the names; the builders cover them all.
    assert tuple(WORKLOAD_KINDS) == WORKLOAD_KIND_NAMES


# -- kind: dsl ----------------------------------------------------------------


def test_dsl_kind_builds_and_runs():
    spec = _scenario(WorkloadSpec("dsl", 2, {"program": PROGRAM}))
    setup, main = build_workload(spec.workloads[0])
    assert setup == [] and main.n_ranks == 2
    run = run_scenario(spec)
    assert run.results


def test_dsl_rejects_unknown_params():
    spec = WorkloadSpec("dsl", 2, {"program": PROGRAM, "bogus": 1})
    with pytest.raises(ScenarioError, match="unknown param"):
        build_workload(spec)


def test_dsl_rejects_non_string_program():
    with pytest.raises(ScenarioError, match="program must be"):
        build_workload(WorkloadSpec("dsl", 2, {"program": 42}))


def test_dsl_rejects_parse_errors():
    with pytest.raises(ScenarioError, match="dsl:"):
        build_workload(WorkloadSpec("dsl", 2, {"program": "workload broken {"}))


def test_dsl_rank_declaration_must_match_spec():
    with pytest.raises(ScenarioError, match="ranks"):
        build_workload(WorkloadSpec("dsl", 8, {"program": PROGRAM}))


# -- kind: grammar ------------------------------------------------------------


def test_grammar_kind_samples_at_build_time():
    spec = WorkloadSpec("grammar", 4, {"grammar": "default",
                                       "sample_seed": 3})
    _, main = build_workload(spec)
    expected = sample(default_grammar(), seed=3, n_ranks=4)
    built_ops = [list(main.ops(r)) for r in range(4)]
    from repro.wgen.dsl import parse_workload
    ref = parse_workload(expected.text)
    assert built_ops == [list(ref.ops(r)) for r in range(4)]


def test_grammar_kind_accepts_inline_grammar_document():
    doc = default_grammar().to_dict()
    _, main = build_workload(WorkloadSpec("grammar", 2, {"grammar": doc,
                                                         "sample_seed": 0}))
    assert main.n_ranks == 2


def test_grammar_kind_rejects_bad_params():
    with pytest.raises(ScenarioError, match="sample_seed"):
        build_workload(WorkloadSpec("grammar", 2, {"sample_seed": -1}))
    with pytest.raises(ScenarioError, match="unknown param"):
        build_workload(WorkloadSpec("grammar", 2, {"seed": 1}))
    with pytest.raises(ScenarioError, match="grammar"):
        build_workload(WorkloadSpec("grammar", 2, {"grammar": 7}))


def test_grammar_scenario_runs():
    spec = _scenario(WorkloadSpec("grammar", 4, {"grammar": "default",
                                                 "sample_seed": 0}))
    run = run_scenario(spec)
    assert run.results


# -- grammar seed as a sweep axis ---------------------------------------------


def test_sample_seed_is_a_sweep_axis():
    base = _scenario(WorkloadSpec("grammar", 4, {"grammar": "default",
                                                 "sample_seed": 0}))
    points = expand_grid(base, {"sample_seed": [0, 1, 2]})
    assert [p.scenario.workloads[0].params["sample_seed"] for p in points] \
        == [0, 1, 2]
    digests = {p.scenario.digest() for p in points}
    assert len(digests) == 3
