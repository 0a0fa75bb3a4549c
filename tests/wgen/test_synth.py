"""Unit tests for trace-to-spec synthesis (repro.wgen.synth)."""

import json
from pathlib import Path

import pytest

from repro.monitoring import RecorderTracer
from repro.ops import IOOp, IORecord, OpKind
from repro.scenario import run_scenario
from repro.store import RunArtifact, RunStore
from repro.wgen.grammar import GrammarError, default_grammar, expand, sample
from repro.wgen.synth import (
    DISTANCE_THRESHOLD,
    SynthesisResult,
    derivation_ops,
    normalize_ops,
    ops_digest,
    store_synthesis,
    synthesize,
    target_ops,
)

MiB = 1024 * 1024


# -- normalization ------------------------------------------------------------


def test_normalize_drops_markers():
    ops = [
        IOOp(OpKind.COMPUTE, "", duration=1.0),
        IOOp(OpKind.BARRIER, ""),
        IOOp(OpKind.STAT, "/f"),
    ]
    kinds = [op.kind for op in normalize_ops(ops)]
    assert OpKind.COMPUTE not in kinds and OpKind.BARRIER not in kinds
    assert OpKind.STAT in kinds


def test_normalize_rewrites_create_as_open():
    out = normalize_ops([IOOp(OpKind.CREATE, "/f"), IOOp(OpKind.CLOSE, "/f")])
    assert [op.kind for op in out] == [OpKind.OPEN, OpKind.CLOSE]


def test_normalize_injects_lazy_open_per_rank():
    ops = [
        IOOp(OpKind.WRITE, "/f", nbytes=MiB, rank=0),
        IOOp(OpKind.WRITE, "/f", nbytes=MiB, rank=1),
    ]
    out = normalize_ops(ops)
    kinds = [(op.kind, op.rank) for op in out]
    # each rank lazily opens once, then close_all closes both descriptors
    assert kinds == [
        (OpKind.OPEN, 0), (OpKind.WRITE, 0),
        (OpKind.OPEN, 1), (OpKind.WRITE, 1),
        (OpKind.CLOSE, 0), (OpKind.CLOSE, 1),
    ]


def test_normalize_close_without_open_is_noop():
    assert normalize_ops([IOOp(OpKind.CLOSE, "/f")]) == []


def test_normalize_is_idempotent():
    intended = derivation_ops(sample(default_grammar(), seed=0))
    once = normalize_ops(intended)
    assert normalize_ops(once) == once


def test_target_ops_rejects_foreign_items():
    with pytest.raises(TypeError, match="IOOp or IORecord"):
        target_ops(["not an op"])


def test_ops_digest_is_rank_sensitive():
    a = [IOOp(OpKind.WRITE, "/f", nbytes=1, rank=0)]
    b = [IOOp(OpKind.WRITE, "/f", nbytes=1, rank=1)]
    assert ops_digest(a) != ops_digest(b)
    assert ops_digest(a) == ops_digest(list(a))


# -- the search ---------------------------------------------------------------


def test_synthesize_recovers_known_derivation():
    g = default_grammar()
    source = sample(g, seed=0)
    result = synthesize(derivation_ops(source), grammar=g)
    assert result.ok
    assert result.distance <= DISTANCE_THRESHOLD
    assert result.n_candidates > 0
    assert result.derivation.grammar_digest == g.digest()
    # the recovered program is itself a runnable scenario
    spec = result.scenario_spec()
    assert spec.workloads[0].kind == "dsl"


def test_synthesize_self_distance_is_tiny():
    g = default_grammar()
    source = sample(g, seed=1)
    result = synthesize(derivation_ops(source), grammar=g)
    assert result.distance < 0.1


def test_synthesize_rejects_empty_trace():
    with pytest.raises(ValueError, match="empty trace"):
        synthesize([])


def test_synthesize_rejects_marker_only_trace():
    with pytest.raises(ValueError, match="no file-system operations"):
        synthesize([IOOp(OpKind.COMPUTE, "", duration=1.0)])


def test_synthesize_rejects_bad_beam_width():
    with pytest.raises(ValueError, match="beam_width"):
        synthesize([IOOp(OpKind.STAT, "/f")], beam_width=0)


def test_synthesize_is_deterministic():
    ops = derivation_ops(sample(default_grammar(), seed=2))
    a = synthesize(ops)
    b = synthesize(ops)
    assert a.derivation.choices == b.derivation.choices
    assert a.distance == b.distance


#: ``synthesize(...).to_dict()`` of the grammar-synth benchmark corpus
#: (derivation seeds 0-5 of the default grammar at 2 ranks, simulated at
#: seed 0 and traced at the posix layer).  A speed-up of the search must
#: leave the whole document unchanged: choices, candidate count, exact
#: distances, source digest, program and scenario.
SYNTH_GOLDEN = json.loads(
    (Path(__file__).parent / "synth_golden_seed0.json").read_text()
)


@pytest.mark.parametrize(
    "golden", SYNTH_GOLDEN["targets"],
    ids=lambda t: f"derivation-seed-{t['derivation_seed']}",
)
def test_synthesize_matches_golden_corpus(golden):
    g = default_grammar()
    source = sample(g, seed=golden["derivation_seed"],
                    n_ranks=SYNTH_GOLDEN["ranks"])
    tracer = RecorderTracer()
    run_scenario(source.scenario_spec(seed=SYNTH_GOLDEN["sim_seed"]),
                 observers=[tracer])
    ops = target_ops(tracer.archive.at_layer("posix"))
    doc = synthesize(ops, grammar=g,
                     n_ranks=max(op.rank for op in ops) + 1).to_dict()
    want = golden["result"]
    assert doc["choices"] == want["choices"]
    assert doc["n_candidates"] == want["n_candidates"]
    assert doc["distance"] == want["distance"]  # exact, not approximate
    assert doc == want


def _count_op_inits(monkeypatch):
    calls = [0]
    init = IOOp.__init__

    def counting_init(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(IOOp, "__init__", counting_init)
    return calls


def test_scoring_candidates_builds_no_ops(monkeypatch):
    """Candidates are scored from runs: synthesizing from an op target
    builds no IOOp at all, and from a record target only the target's
    own ops (one per record)."""
    g = default_grammar()
    ops = derivation_ops(sample(g, seed=4, n_ranks=2))
    records = [
        IORecord("posix", op.kind, op.path, op.offset, op.nbytes, op.rank,
                 start=float(i), end=i + 0.5)
        for i, op in enumerate(ops)
    ]
    calls = _count_op_inits(monkeypatch)
    result = synthesize(ops, grammar=g)
    assert result.n_candidates > 10
    assert calls[0] == 0
    synthesize(records, grammar=g)
    assert calls[0] == len(records)


def test_result_to_dict_carries_provenance():
    source = sample(default_grammar(), seed=0)
    result = synthesize(derivation_ops(source))
    doc = result.to_dict()
    assert doc["schema"] == "repro.wgen.synthesis/1"
    assert doc["source_digest"] == ops_digest(target_ops(
        derivation_ops(source)))
    assert doc["ok"] is result.ok
    assert doc["scenario"]["workloads"][0]["params"]["program"] == \
        result.derivation.text


# -- persistence --------------------------------------------------------------


def test_store_synthesis_round_trip(tmp_path):
    store = RunStore(tmp_path / "store")
    g = default_grammar()
    result = synthesize(derivation_ops(sample(g, seed=0)), grammar=g)
    digests = store_synthesis(store, result, grammar=g)

    assert store.get_ref(f"grammar/{g.name}")["digest"] == digests["grammar"]
    ref = store.get_ref(f"synthesis/{result.source_digest[:16]}")
    assert ref["digest"] == digests["synthesis"]
    assert ref["meta"]["source_digest"] == result.source_digest
    assert ref["meta"]["ok"] is True

    art = store.get(digests["synthesis"])
    assert art.kind == "synthesis"
    assert art.payload["grammar_digest"] == g.digest()
    grammar_art = store.get(digests["grammar"])
    assert grammar_art.kind == "grammar"
    from repro.wgen.grammar import GrammarSpec
    assert GrammarSpec.from_dict(grammar_art.payload).digest() == g.digest()


def test_store_synthesis_rejects_mismatched_grammar(tmp_path):
    from repro.wgen.grammar import GrammarSpec, Production, Rule

    store = RunStore(tmp_path / "store")
    result = synthesize(derivation_ops(sample(default_grammar(), seed=0)))
    other = GrammarSpec(
        name="other",
        rules=(Rule("workload", (Production(('stat "/x" ;',)),)),),
    )
    with pytest.raises(GrammarError, match="does not match"):
        store_synthesis(store, result, grammar=other)


def test_artifact_kinds_registered():
    g = default_grammar()
    art = RunArtifact.from_grammar(g.to_dict())
    assert art.kind == "grammar"
    assert "grammar" in art.describe()
