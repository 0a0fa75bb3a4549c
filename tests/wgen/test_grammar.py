"""Unit tests for the workload grammar (repro.wgen.grammar)."""

import hashlib
import pickle

import pytest

from repro.wgen import DSLError, parse_workload
from repro.wgen.grammar import (
    Derivation,
    GrammarError,
    GrammarSpec,
    Production,
    Rule,
    default_grammar,
    expand,
    pending_rule,
    sample,
)

# -- spec validation and round-trip -------------------------------------------


def _toy_grammar():
    return GrammarSpec(
        name="toy",
        rules=(
            Rule("workload", (
                Production(('write shared "/f" size 1MB ;',)),
                Production(("<again>",), weight=0.5),
            )),
            Rule("again", (
                Production(('read shared "/f" size 1MB ;', "<workload>")),
            )),
        ),
    )


def test_validate_accepts_default_grammar():
    g = default_grammar()
    assert g.validate() is g
    assert g.start == "workload"


def test_validate_rejects_duplicate_rules():
    g = GrammarSpec(
        name="dup",
        rules=(
            Rule("workload", (Production(("a ;",)),)),
            Rule("workload", (Production(("b ;",)),)),
        ),
    )
    with pytest.raises(GrammarError, match="duplicate"):
        g.validate()


def test_validate_rejects_undefined_nonterminal():
    g = GrammarSpec(
        name="undef",
        rules=(Rule("workload", (Production(("<missing>",)),)),),
    )
    with pytest.raises(GrammarError, match="missing"):
        g.validate()


def test_validate_rejects_nonterminating_grammar():
    g = GrammarSpec(
        name="forever",
        rules=(Rule("workload", (Production(("<workload>",)),)),),
    )
    with pytest.raises(GrammarError, match="terminat"):
        g.validate()


def test_dict_json_round_trip_preserves_digest():
    g = default_grammar()
    assert GrammarSpec.from_dict(g.to_dict()) == g
    assert GrammarSpec.from_json(g.to_json()).digest() == g.digest()


def test_digest_is_content_sensitive():
    g = default_grammar()
    toy = _toy_grammar()
    assert g.digest() != toy.digest()
    assert len(g.digest()) == 64


# -- per-instance derived tables ---------------------------------------------


def test_derived_tables_are_read_only():
    g = default_grammar()
    with pytest.raises(TypeError):
        g.min_costs()["workload"] = 0
    with pytest.raises(TypeError):
        g.rule_map()["workload"] = None
    with pytest.raises(TypeError):
        del g.rule_map()["phase"]
    assert g.min_costs()["workload"] >= 1
    assert set(g.rule_map()) == {r.lhs for r in g.rules}


def test_invalid_grammar_raises_on_every_validate():
    g = GrammarSpec(
        name="forever",
        rules=(Rule("workload", (Production(("<workload>",)),)),),
    )
    for _ in range(2):
        with pytest.raises(GrammarError, match="terminat"):
            g.validate()
    with pytest.raises(GrammarError, match="terminat"):
        expand(g, (0,))


def test_cached_state_leaves_identity_untouched():
    cold = GrammarSpec.from_dict(default_grammar().to_dict())  # nothing cached
    warm = GrammarSpec.from_dict(default_grammar().to_dict())
    warm.validate()
    warm.min_costs()
    warm.rule_map()
    expand(warm, (), complete=True)
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert warm.to_dict() == cold.to_dict()
    assert warm.canonical_json() == cold.canonical_json()
    expected = hashlib.sha256(cold.canonical_json().encode("utf-8")).hexdigest()
    assert warm.digest() == expected == cold.digest()


def test_warm_grammar_pickles():
    g = default_grammar()
    g.rule_map(), g.min_costs(), g.digest()
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy.digest() == g.digest()
    assert copy.min_costs() == g.min_costs()


def test_from_dict_round_trip_has_same_digest():
    g = default_grammar()
    g.digest()
    copy = GrammarSpec.from_dict(g.to_dict())
    assert copy.digest() == g.digest()
    assert copy.min_costs() == g.min_costs()


def test_describe_mentions_counts_and_digest():
    text = default_grammar().describe()
    assert "rule(s)" in text and "production(s)" in text
    assert default_grammar().digest()[:16] in text


# -- sampling determinism (satellite: dedicated seeded stream) ----------------


def test_same_seed_is_byte_identical():
    g = default_grammar()
    a = sample(g, seed=7)
    b = sample(g, seed=7)
    assert a.text == b.text
    assert a.choices == b.choices
    assert a.workload_spec() == b.workload_spec()
    assert a.scenario_spec().digest() == b.scenario_spec().digest()


def test_different_seeds_diverge():
    g = default_grammar()
    texts = {sample(g, seed=s).text for s in range(8)}
    assert len(texts) > 1


def test_sampled_derivations_parse_and_declare_ranks():
    g = default_grammar()
    for seed in range(10):
        d = sample(g, seed=seed, n_ranks=2)
        w = parse_workload(d.text)
        assert w.n_ranks == 2
        assert sum(len(list(w.ops(r))) for r in range(2)) > 0


def test_sample_respects_max_steps_budget():
    g = default_grammar()
    for seed in range(6):
        d = sample(g, seed=seed, max_steps=32)
        assert len(d.choices) <= 32
        parse_workload(d.text)  # still a valid program


def test_sample_records_provenance():
    g = default_grammar()
    d = sample(g, seed=3)
    assert d.seed == 3
    assert d.grammar_digest == g.digest()
    doc = d.to_dict()
    assert doc["seed"] == 3 and doc["choices"] == list(d.choices)


# -- expand / replay ----------------------------------------------------------


def test_expand_replays_sample_exactly():
    g = default_grammar()
    d = sample(g, seed=5)
    replayed = expand(g, d.choices, n_ranks=d.n_ranks,
                      name=f"g_{g.name}_s5")
    assert replayed.text == d.text
    assert replayed.choices == d.choices


def test_expand_rejects_incomplete_without_complete():
    g = default_grammar()
    d = sample(g, seed=0)
    with pytest.raises(GrammarError, match="incomplete"):
        expand(g, d.choices[:-1])


def test_expand_completes_greedily():
    g = default_grammar()
    d = expand(g, (), complete=True)
    assert len(d.choices) > 0
    parse_workload(d.text)


def test_expand_rejects_out_of_range_choice():
    with pytest.raises(GrammarError, match="out of range"):
        expand(default_grammar(), (99,), complete=True)


def test_expand_rejects_leftover_choices():
    g = _toy_grammar()
    with pytest.raises(GrammarError, match="left over"):
        expand(g, (0, 0, 0))  # choice 0 terminates immediately


def test_pending_rule_walks_the_leftmost_frontier():
    g = _toy_grammar()
    assert pending_rule(g, ()).lhs == "workload"
    assert pending_rule(g, (1,)).lhs == "again"
    assert pending_rule(g, (0,)) is None


def test_derivation_scenario_spec_is_runnable():
    d = sample(default_grammar(), seed=1)
    spec = d.scenario_spec()
    assert spec.workloads[0].kind == "dsl"
    assert spec.workloads[0].params["program"] == d.text


def test_derivation_without_seed_names_by_digest():
    g = default_grammar()
    d = Derivation(grammar_digest=g.digest(), choices=(),
                   text='workload t { ranks 1; stat "/x"; }', n_ranks=1)
    assert d.scenario_spec().name == f"grammar-{g.digest()[:8]}"
