"""Trace-to-spec synthesis: search the workload grammar for a trace.

The inverse of :mod:`repro.wgen.grammar` -- and the mechanical closure of
the paper's Fig. 4 feedback loop: monitoring output (a trace or profile)
becomes evaluation-tool *input* (a replayable, mutatable scenario).

Given a target op stream, :func:`synthesize` runs beam search over
grammar derivations.  A search state is a prefix of production choices;
its children extend the prefix by every alternative of the leftmost
pending nonterminal; each child is scored by greedily completing it
(cheapest-terminating production at every remaining step), compiling the
resulting DSL program, and measuring
:func:`repro.modeling.trace_distance.trace_distance` against the target,
plus a small per-choice penalty so the search prefers the *smallest*
derivation that reproduces the access pattern.  The search is fully
deterministic: no RNG, ties broken by choice order.

Scoring is incremental.  The target is reduced to its
:func:`~repro.modeling.trace_distance.trace_shape` once.  Each beam state
carries its prefix's replayed expansion, so a child costs one fork of its
parent's state plus one choice, and its greedy completion continues from
there instead of replaying the prefix from the start symbol.  A
completion seen before in the same search reuses its distance; a new one
costs one compile and one shape.  Nothing is cached across calls.

A completion is scored as text -> runs -> shape: the DSL compiles it to
op runs (:func:`~repro.wgen.dsl.compile_runs`, one
:class:`~repro.ops.OpRun` per executed statement), :func:`normalize_ops`
projects the runs, and the shape functions read them directly -- no
:class:`~repro.ops.IOOp` is built for a candidate, and the shape equals
the one the expanded ops would give, exactly.  The target enters as runs
of one.

:func:`store_synthesis` persists the result into the content-addressed
store as a ``synthesis`` artifact (with the grammar as a ``grammar``
artifact) and refs ``synthesis/<source digest>`` / ``grammar/<name>``,
with provenance linking result -> grammar -> source trace.

What synthesis recovers is the access *pattern* -- phase structure, op
mix, transfer sizes, access modes, sequentiality -- not exact byte
offsets, timestamps or compute durations; anything outside the grammar's
production rules (e.g. a workload the default grammar has no phase for)
is approximated by the nearest derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.ioutil import canonical_json_bytes, sha256_hex
from repro.modeling.trace_distance import (
    DISTANCE_THRESHOLD,
    shape_distance,
    trace_shape,
)
from repro.ops import (
    MARKER_KINDS,
    NO_OFFSET,
    IOOp,
    IORecord,
    OpKind,
    OpRun,
    as_runs,
    expand_runs,
)
from repro.wgen.dsl import DSLError, compile_runs
from repro.wgen.grammar import (
    Derivation,
    GrammarError,
    GrammarSpec,
    Rule,
    _default_name,
    _Expansion,
    default_grammar,
    expand,
)

#: Per-choice score penalty: large enough to prefer a strictly smaller
#: derivation among near-equal fits, far too small to outweigh a real
#: distance difference.
SIZE_PENALTY = 1e-4


def derivation_runs(derivation: Derivation) -> List[OpRun]:
    """Compile a derivation into its run stream, rank 0 first."""
    _name, per_rank = compile_runs(derivation.text)
    return [run for runs in per_rank for run in runs]


def derivation_ops(derivation: Derivation) -> List[IOOp]:
    """Compile a derivation and flatten its per-rank op streams."""
    return expand_runs(derivation_runs(derivation))


def target_ops(stream: Iterable[Union[IOOp, IORecord]]) -> List[IOOp]:
    """Normalize a trace/op stream into the op list synthesis targets."""
    out: List[IOOp] = []
    for item in stream:
        if isinstance(item, IORecord):
            out.append(item.to_op())
        elif isinstance(item, IOOp):
            out.append(item)
        else:
            raise TypeError(
                f"expected IOOp or IORecord, got {type(item).__name__}"
            )
    return out


#: Kinds that need an open descriptor: the executor opens lazily for them.
_LAZY_OPEN_KINDS = frozenset((OpKind.WRITE, OpKind.READ, OpKind.FSYNC))


def normalize_ops(
    stream: Iterable[Union[IOOp, IORecord, OpRun]]
) -> List[OpRun]:
    """Project a stream onto the observable posix-layer dialect, as runs.

    Intended streams (DSL compilations) and observed traces (posix-layer
    records) speak different dialects, and scoring must not punish the
    difference.  This mimics what
    :class:`~repro.workloads.base.OpStreamExecutor` does to an intended
    stream: compute/barrier markers are dropped (they never reach the
    file system), ``CREATE`` is observed as ``OPEN`` (the posix layer
    emits OPEN for both), data ops and fsync on a not-yet-open (rank,
    path) inject the executor's lazy ``OPEN``, ``CLOSE`` on an unopened
    path is a no-op, and descriptors still open at the end are closed
    (``close_all``).  Applied to an already-observed stream it is
    (almost) the identity, so both sides meet in the middle.

    Reads runs (ops and records enter as runs of one) and returns runs:
    the output expands to what the same projection gives the expanded
    input op by op.  Injected opens and closes are runs of one.
    """
    out: List[OpRun] = []
    append = out.append
    open_files: set = set()  # (rank, path) with a live descriptor
    for run in as_runs(stream):
        kind = run.kind
        if kind in MARKER_KINDS:
            continue
        key = (run.rank, run.path)
        if kind is OpKind.CREATE:
            append(OpRun(OpKind.OPEN, run.path, run.rank, run.nbytes,
                         run.duration, {}, run.offsets))
            open_files.add(key)
        elif kind is OpKind.OPEN:
            append(run)
            open_files.add(key)
        elif kind in _LAZY_OPEN_KINDS:
            if key not in open_files:
                append(OpRun(OpKind.OPEN, run.path, run.rank, 0, 0.0, {},
                             NO_OFFSET))
                open_files.add(key)
            append(run)
        elif kind is OpKind.CLOSE:
            # Only the first close of a run finds the descriptor open.
            if key in open_files:
                open_files.discard(key)
                append(run if len(run.offsets) == 1
                       else run._replace(offsets=run.offsets[:1]))
        elif kind is OpKind.UNLINK:
            open_files.discard(key)
            append(run)
        else:
            append(run)
    for rank, path in sorted(open_files):
        append(OpRun(OpKind.CLOSE, path, rank, 0, 0.0, {}, NO_OFFSET))
    return out


def ops_digest(ops: Sequence[IOOp]) -> str:
    """Content identity of an op stream (rank-sensitive signatures)."""
    doc = [[op.rank, *op.signature()] for op in ops]
    return sha256_hex(canonical_json_bytes(doc))


@dataclass(frozen=True)
class SynthesisResult:
    """The outcome of one grammar search against a target trace."""

    derivation: Derivation
    distance: float
    source_digest: str
    n_candidates: int
    threshold: float = DISTANCE_THRESHOLD

    @property
    def ok(self) -> bool:
        """Did the best derivation land under the acceptance threshold?"""
        return self.distance <= self.threshold

    def scenario_spec(self, seed: int = 0):
        return self.derivation.scenario_spec(seed=seed)

    def to_dict(self) -> Dict[str, Any]:
        """JSON document persisted as the ``synthesis`` store artifact."""
        return {
            "schema": "repro.wgen.synthesis/1",
            "source_digest": self.source_digest,
            "grammar_digest": self.derivation.grammar_digest,
            "choices": list(self.derivation.choices),
            "program": self.derivation.text,
            "n_ranks": self.derivation.n_ranks,
            "distance": self.distance,
            "threshold": self.threshold,
            "ok": self.ok,
            "n_candidates": self.n_candidates,
            "scenario": self.scenario_spec().to_dict(),
        }


@dataclass(order=True)
class _Candidate:
    """A scored search state; orders by (score, fewest choices).

    ``state`` is the prefix's replayed expansion, stopped at ``rule``
    (its leftmost pending nonterminal; ``None`` once the prefix is a
    complete derivation).
    """

    score: float
    n_choices: int
    choices: Tuple[int, ...] = field(compare=False)
    state: _Expansion = field(compare=False)
    rule: Optional[Rule] = field(compare=False)


def synthesize(
    stream: Iterable[Union[IOOp, IORecord]],
    grammar: Optional[GrammarSpec] = None,
    n_ranks: Optional[int] = None,
    beam_width: int = 8,
    max_steps: int = 64,
    threshold: float = DISTANCE_THRESHOLD,
) -> SynthesisResult:
    """Find the smallest grammar derivation reproducing ``stream``.

    Deterministic beam search; ``beam_width`` states survive per round,
    ``max_steps`` bounds the derivation length searched.  ``n_ranks``
    defaults to the target's own rank population.  The returned result's
    :attr:`~SynthesisResult.ok` says whether the best distance landed
    under ``threshold`` -- the search always returns its best effort.
    """
    if grammar is None:
        grammar = default_grammar()
    grammar.validate()
    target = target_ops(stream)
    if not target:
        raise ValueError("cannot synthesize from an empty trace")
    if n_ranks is None:
        n_ranks = max(op.rank for op in target) + 1
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    normalized_target = normalize_ops(target)
    if not normalized_target:
        raise ValueError(
            "target trace has no file-system operations to reproduce"
        )

    target_shape = trace_shape(normalized_target)
    name = _default_name(grammar)
    # Distance of each greedy completion scored so far (None: it does not
    # compile).  Many prefixes complete to the same derivation; each
    # distinct one is compiled and measured once per search.
    distances: Dict[Tuple[int, ...], Optional[float]] = {}

    def score(state: _Expansion, rule: Optional[Rule],
              choices: Tuple[int, ...]) -> Optional[_Candidate]:
        """Greedily complete, compile and measure a prefix state; None if
        the completion is not a valid program (kept out of the beam)."""
        completion = state.fork()
        completion.complete(rule)
        key = tuple(completion.choices)
        if key not in distances:
            try:
                runs = normalize_ops(derivation_runs(
                    completion.derivation(name, n_ranks)))
            except (GrammarError, DSLError):
                distances[key] = None
            else:
                distances[key] = shape_distance(target_shape,
                                                trace_shape(runs))
        dist = distances[key]
        if dist is None:
            return None
        return _Candidate(
            score=dist + SIZE_PENALTY * len(key),
            n_choices=len(choices),
            choices=choices,
            state=state,
            rule=rule,
        )

    # Every scored prefix stands for a full derivation (its greedy
    # completion), so the answer is the best-scoring candidate seen
    # anywhere in the search, not just the last beam.
    n_candidates = 0
    best: Optional[_Candidate] = None
    root_state = _Expansion(grammar)
    root = score(root_state, root_state.next_nonterminal(), ())
    if root is not None:
        n_candidates = 1
        best = root
    beam: List[_Candidate] = [root] if root is not None else []

    for _ in range(max_steps):
        frontier: List[_Candidate] = []
        for cand in beam:
            rule = cand.rule
            if rule is None:
                continue  # complete: nothing left to expand
            for index in range(len(rule.productions)):
                state = cand.state.fork()
                state.apply(rule, index)
                child = score(state, state.next_nonterminal(),
                              cand.choices + (index,))
                if child is None:
                    continue
                n_candidates += 1
                frontier.append(child)
                if best is None or child < best:
                    best = child
        if not frontier:
            break
        frontier.sort()
        beam = frontier[:beam_width]

    if best is None:  # every completion failed -- grammar/DSL mismatch
        raise GrammarError(
            "synthesis found no valid derivation; the grammar generates no "
            "parseable program"
        )
    final = expand(grammar, best.choices, n_ranks=n_ranks, complete=True)
    return SynthesisResult(
        derivation=final,
        distance=distances[final.choices],
        source_digest=ops_digest(target),
        n_candidates=n_candidates,
        threshold=threshold,
    )


def store_synthesis(store, result: SynthesisResult,
                    grammar: Optional[GrammarSpec] = None) -> Dict[str, str]:
    """Persist a synthesis result (and its grammar) with provenance refs.

    Writes a ``grammar`` artifact + ``grammar/<name>`` ref (when the
    grammar is given) and a ``synthesis`` artifact + a
    ``synthesis/<source digest16>`` ref whose meta links source trace,
    grammar and distance.  Returns the digests keyed by artifact kind.
    """
    from repro.store.artifact import RunArtifact

    digests: Dict[str, str] = {}
    if grammar is not None:
        if grammar.digest() != result.derivation.grammar_digest:
            raise GrammarError(
                "grammar does not match the one the result was searched on"
            )
        gd = store.put(RunArtifact.from_grammar(grammar.to_dict()))
        store.set_ref(f"grammar/{grammar.name}", gd,
                      meta={"grammar_digest": grammar.digest()})
        digests["grammar"] = gd
    sd = store.put(RunArtifact.from_synthesis(result.to_dict()))
    store.set_ref(
        f"synthesis/{result.source_digest[:16]}", sd,
        meta={
            "source_digest": result.source_digest,
            "grammar_digest": result.derivation.grammar_digest,
            "distance": result.distance,
            "ok": result.ok,
        },
    )
    digests["synthesis"] = sd
    return digests
