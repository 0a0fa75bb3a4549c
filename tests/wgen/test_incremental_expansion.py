"""Incremental expansion: forking a replayed state equals replaying anew.

The synthesis search never replays a prefix from the start symbol: each
child forks its parent's expansion state, applies one choice and
completes greedily.  For random valid prefixes of the default grammar
that must give exactly what :func:`expand` (replay from scratch, greedy
completion) and :func:`pending_rule` give, and forking must leave the
parent untouched.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wgen.grammar import (
    _default_name,
    _Expansion,
    default_grammar,
    expand,
    pending_rule,
)

GRAMMAR = default_grammar()


def _fork_chain(picks):
    """Walk a prefix by forking one state per choice, like the beam.

    ``picks`` are reduced modulo the pending rule's production count, so
    every draw is a valid prefix.  Returns the states after each choice
    (the root first) and the prefix.
    """
    state = _Expansion(GRAMMAR)
    rule = state.next_nonterminal()
    chain = [(state, rule, ())]
    for pick in picks:
        if rule is None:
            break
        index = pick % len(rule.productions)
        state = state.fork()
        state.apply(rule, index)
        rule = state.next_nonterminal()
        chain.append((state, rule, chain[-1][2] + (index,)))
    return chain


@settings(max_examples=200, deadline=None)
@given(
    picks=st.lists(st.integers(0, 11), max_size=40),
    n_ranks=st.integers(1, 4),
)
def test_fork_apply_complete_matches_expand(picks, n_ranks):
    chain = _fork_chain(picks)
    name = _default_name(GRAMMAR)
    for state, rule, prefix in chain:
        assert list(state.choices) == list(prefix)
        assert rule == pending_rule(GRAMMAR, prefix)
        completion = state.fork()
        completion.complete(rule)
        got = completion.derivation(name, n_ranks)
        want = expand(GRAMMAR, prefix, n_ranks=n_ranks, complete=True)
        assert got.choices == want.choices
        assert got.text == want.text
        # Completing the fork left the prefix state as it was.
        assert list(state.choices) == list(prefix)


@settings(max_examples=100, deadline=None)
@given(picks=st.lists(st.integers(0, 11), min_size=1, max_size=20))
def test_every_child_of_a_state_matches_replay(picks):
    """All siblings forked from one parent are independent."""
    parent, rule, prefix = _fork_chain(picks)[-1]
    if rule is None:
        return
    before = (list(parent.stack), list(parent.fragments), list(parent.choices))
    for index in range(len(rule.productions)):
        child = parent.fork()
        child.apply(rule, index)
        child_rule = child.next_nonterminal()
        assert child_rule == pending_rule(GRAMMAR, prefix + (index,))
        child.complete(child_rule)
        want = expand(GRAMMAR, prefix + (index,), n_ranks=2, complete=True)
        got = child.derivation(_default_name(GRAMMAR), 2)
        assert (got.choices, got.text) == (want.choices, want.text)
    assert (list(parent.stack), list(parent.fragments),
            list(parent.choices)) == before
