"""A context-free grammar over parallel I/O patterns.

FBench-style what-if exploration: instead of 23 hand-written presets, a
few production rules span an unbounded family of workloads.  A
:class:`GrammarSpec` is a frozen, digest-identified CFG whose *terminals*
are fragments of the :mod:`repro.wgen.dsl` language; a derivation
therefore expands to a complete DSL program, which compiles to a runnable
:class:`~repro.workloads.base.OpStreamWorkload` and wraps into a
JSON-native ``WorkloadSpec(kind="dsl")`` -- so every sampled workload is
a first-class scenario citizen (presets, sweeps, the run service, the
content-addressed store) without any of those layers knowing about
grammars.

Structure
---------

* Nonterminals are written ``<name>``; anything else in a production's
  symbol list is emitted literally into the DSL program text.
* Each nonterminal owns an ordered tuple of :class:`Production`
  alternatives with positive weights; a *derivation* is the sequence of
  alternative indices chosen at each leftmost expansion step, which makes
  derivations compact, replayable (:func:`expand`) and searchable
  (:mod:`repro.wgen.synth` runs beam search over them).
* :func:`sample` draws the choices from a dedicated seeded stream --
  ``RandomStreams(seed).stream("grammar")``, the same named-substream
  convention the fault injector uses for its ``"faults"`` jitter -- so
  the same grammar + seed always yields a byte-identical program text,
  ``WorkloadSpec`` and scenario digest.
* Recursion is depth-bounded: when the remaining budget cannot cover a
  production's minimum completion cost, sampling falls back to the
  cheapest alternatives, so every sample terminates (validation rejects
  grammars with non-terminating nonterminals outright).

The :func:`default_grammar` covers the paper's emerging-workload phase
vocabulary: bulk-synchronous checkpoints, strided/segmented writes,
read-back analysis loops (sequential or shuffled), and mdtest-style
metadata storms, over shared-file and file-per-process access modes with
varying sizes, transfer granularities and metadata mixes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.des.rng import RandomStreams

GRAMMAR_SCHEMA = "repro.wgen.grammar/1"

#: Name of the dedicated seeded stream grammar sampling draws from (the
#: ``"faults"``-jitter convention: a named substream per consumer).
GRAMMAR_STREAM = "grammar"


class GrammarError(ValueError):
    """A grammar is invalid, or a derivation cannot be expanded."""


def _is_nonterminal(symbol: str) -> bool:
    return len(symbol) > 2 and symbol.startswith("<") and symbol.endswith(">")


def _nt_name(symbol: str) -> str:
    return symbol[1:-1]


@dataclass(frozen=True)
class Production:
    """One alternative of a rule: a symbol sequence plus a sampling weight."""

    symbols: Tuple[str, ...]
    weight: float = 1.0

    def __post_init__(self):
        if not isinstance(self.symbols, tuple):
            object.__setattr__(self, "symbols", tuple(self.symbols))

    def validate(self, lhs: str) -> None:
        if not self.symbols:
            raise GrammarError(f"rule <{lhs}>: empty production (use a "
                               f"literal like ';' or drop the alternative)")
        for s in self.symbols:
            if not isinstance(s, str) or not s:
                raise GrammarError(f"rule <{lhs}>: bad symbol {s!r}")
            if _is_nonterminal(s) and not _nt_name(s).replace("-", "_").isidentifier():
                raise GrammarError(f"rule <{lhs}>: bad nonterminal name {s!r}")
        if not (isinstance(self.weight, (int, float)) and self.weight > 0):
            raise GrammarError(f"rule <{lhs}>: weight must be positive, "
                               f"got {self.weight!r}")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"symbols": list(self.symbols)}
        if self.weight != 1.0:
            out["weight"] = self.weight
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Production":
        if not isinstance(payload, Mapping):
            raise GrammarError(f"production must be a mapping, got "
                               f"{type(payload).__name__}")
        unknown = sorted(set(payload) - {"symbols", "weight"})
        if unknown:
            raise GrammarError(f"unknown production field(s): "
                               f"{', '.join(unknown)}")
        return cls(symbols=tuple(payload.get("symbols", ())),
                   weight=payload.get("weight", 1.0))


@dataclass(frozen=True)
class Rule:
    """A nonterminal and its ordered alternatives."""

    lhs: str
    productions: Tuple[Production, ...]

    def __post_init__(self):
        if not isinstance(self.productions, tuple):
            object.__setattr__(self, "productions", tuple(self.productions))

    def validate(self) -> None:
        if not self.lhs or not self.lhs.replace("-", "_").isidentifier():
            raise GrammarError(f"bad rule name {self.lhs!r}")
        if not self.productions:
            raise GrammarError(f"rule <{self.lhs}> has no productions")
        for p in self.productions:
            p.validate(self.lhs)

    def to_dict(self) -> Dict[str, Any]:
        return {"lhs": self.lhs,
                "productions": [p.to_dict() for p in self.productions]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Rule":
        if not isinstance(payload, Mapping):
            raise GrammarError(f"rule must be a mapping, got "
                               f"{type(payload).__name__}")
        unknown = sorted(set(payload) - {"lhs", "productions"})
        if unknown:
            raise GrammarError(f"unknown rule field(s): {', '.join(unknown)}")
        if "lhs" not in payload:
            raise GrammarError("rule needs an 'lhs'")
        return cls(
            lhs=payload["lhs"],
            productions=tuple(
                Production.from_dict(p) for p in payload.get("productions", ())
            ),
        )


@dataclass(frozen=True)
class GrammarSpec:
    """A frozen, digest-identified workload grammar.

    The grammar never changes after construction, so its derived tables
    (validity, rule map, minimum costs, digest) are computed once per
    instance and kept outside the dataclass fields: equality, hashing and
    serialization see only ``name``, ``rules`` and ``start``.
    """

    name: str
    rules: Tuple[Rule, ...]
    start: str = "workload"

    def __post_init__(self):
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))

    # -- validation ----------------------------------------------------------
    def validate(self) -> "GrammarSpec":
        """Check the grammar; raises :class:`GrammarError` on every call
        while it is invalid (a failed check is never cached)."""
        self._valid  # noqa: B018  (the cached check raises when invalid)
        return self

    @cached_property
    def _valid(self) -> bool:
        if not self.name:
            raise GrammarError("grammar needs a name")
        seen = set()
        for rule in self.rules:
            rule.validate()
            if rule.lhs in seen:
                raise GrammarError(f"duplicate rule <{rule.lhs}>")
            seen.add(rule.lhs)
        if self.start not in seen:
            raise GrammarError(f"start symbol <{self.start}> has no rule")
        by_name = self.rule_map()
        for rule in self.rules:
            for p in rule.productions:
                for s in p.symbols:
                    if _is_nonterminal(s) and _nt_name(s) not in by_name:
                        raise GrammarError(
                            f"rule <{rule.lhs}> references undefined "
                            f"nonterminal {s}"
                        )
        # Least-fixpoint termination check: every nonterminal must have at
        # least one production whose nonterminals all terminate.
        terminating: set = set()
        changed = True
        while changed:
            changed = False
            for rule in self.rules:
                if rule.lhs in terminating:
                    continue
                for p in rule.productions:
                    if all(
                        _nt_name(s) in terminating
                        for s in p.symbols
                        if _is_nonterminal(s)
                    ):
                        terminating.add(rule.lhs)
                        changed = True
                        break
        dead = sorted(seen - terminating)
        if dead:
            raise GrammarError(
                f"nonterminal(s) cannot terminate: "
                f"{', '.join('<' + d + '>' for d in dead)}"
            )
        return True

    # -- lookups -------------------------------------------------------------
    # The cached tables are plain dicts (a mappingproxy does not pickle);
    # callers get read-only views of them.
    def rule_map(self) -> Mapping[str, Rule]:
        """Read-only ``lhs -> Rule`` map (computed once)."""
        return MappingProxyType(self._rule_map)

    @cached_property
    def _rule_map(self) -> Dict[str, Rule]:
        return {r.lhs: r for r in self.rules}

    def min_costs(self) -> Mapping[str, int]:
        """Minimum expansion steps to fully terminate each nonterminal.

        Computed once by value iteration and returned read-only; used to
        depth-bound sampling and to complete partial derivations greedily
        during synthesis.
        """
        return MappingProxyType(self._min_costs)

    @cached_property
    def _min_costs(self) -> Dict[str, int]:
        INF = float("inf")
        cost: Dict[str, float] = {r.lhs: INF for r in self.rules}
        changed = True
        while changed:
            changed = False
            for rule in self.rules:
                best = INF
                for p in rule.productions:
                    c = 1.0
                    for s in p.symbols:
                        if _is_nonterminal(s):
                            c += cost[_nt_name(s)]
                    best = min(best, c)
                if best < cost[rule.lhs]:
                    cost[rule.lhs] = best
                    changed = True
        return {k: int(v) for k, v in cost.items() if v != INF}

    def production_cost(self, prod: Production, costs: Mapping[str, int]) -> int:
        """Minimum steps to terminate after choosing ``prod``."""
        return 1 + sum(
            costs[_nt_name(s)] for s in prod.symbols if _is_nonterminal(s)
        )

    @cached_property
    def _min_choices(self) -> Dict[str, int]:
        """``lhs -> index`` of its cheapest-terminating production (ties:
        first) -- the greedy completion's choice at every step."""
        costs = self._min_costs
        out: Dict[str, int] = {}
        for rule in self.rules:
            prod_costs = [self.production_cost(p, costs)
                          for p in rule.productions]
            out[rule.lhs] = prod_costs.index(min(prod_costs))
        return out

    @cached_property
    def _pushes(self) -> Dict[str, Tuple[tuple, ...]]:
        """``lhs -> (symbols pushed by each production)``: reversed, with
        nonterminals resolved to their :class:`Rule`, so expanding never
        re-parses a symbol."""
        by_name = self._rule_map
        return {
            rule.lhs: tuple(
                tuple(by_name[_nt_name(s)] if _is_nonterminal(s) else s
                      for s in reversed(p.symbols))
                for p in rule.productions
            )
            for rule in self.rules
        }

    # -- canonical serialization ---------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": GRAMMAR_SCHEMA,
            "name": self.name,
            "start": self.start,
            "rules": [r.to_dict() for r in self.rules],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GrammarSpec":
        if not isinstance(payload, Mapping):
            raise GrammarError(f"grammar document must be a mapping, got "
                               f"{type(payload).__name__}")
        schema = payload.get("schema", GRAMMAR_SCHEMA)
        if schema != GRAMMAR_SCHEMA:
            raise GrammarError(f"unsupported grammar schema {schema!r} "
                               f"(expected {GRAMMAR_SCHEMA!r})")
        unknown = sorted(set(payload) - {"schema", "name", "start", "rules"})
        if unknown:
            raise GrammarError(f"unknown grammar field(s): "
                               f"{', '.join(unknown)}")
        if "name" not in payload:
            raise GrammarError("grammar document needs a 'name'")
        return cls(
            name=payload["name"],
            start=payload.get("start", "workload"),
            rules=tuple(Rule.from_dict(r) for r in payload.get("rules", ())),
        )

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GrammarSpec":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise GrammarError(f"invalid grammar JSON: {exc}") from exc
        return cls.from_dict(payload)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 content identity of the grammar."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def describe(self) -> str:
        n_prods = sum(len(r.productions) for r in self.rules)
        return (f"grammar {self.name}: {len(self.rules)} rule(s), "
                f"{n_prods} production(s), start <{self.start}>, "
                f"digest {self.digest()[:16]}")


# -- derivations --------------------------------------------------------------


@dataclass(frozen=True)
class Derivation:
    """One complete leftmost derivation of a grammar.

    ``choices`` replays it exactly (:func:`expand`); ``text`` is the
    DSL program it expands to.  ``seed`` is ``None`` for derivations not
    produced by :func:`sample` (e.g. synthesis search results).
    """

    grammar_digest: str
    choices: Tuple[int, ...]
    text: str
    n_ranks: int
    seed: Optional[int] = None

    def workload_spec(self):
        """The JSON-native ``WorkloadSpec(kind="dsl")`` of this derivation."""
        from repro.scenario.spec import WorkloadSpec

        return WorkloadSpec(kind="dsl", n_ranks=self.n_ranks,
                            params={"program": self.text})

    def scenario_spec(self, name: Optional[str] = None, seed: int = 0):
        """A complete runnable scenario (tiny platform) for this derivation."""
        from repro.cluster.spec import tiny_spec
        from repro.scenario.spec import ScenarioSpec

        if name is None:
            suffix = f"-s{self.seed}" if self.seed is not None else ""
            name = f"grammar-{self.grammar_digest[:8]}{suffix}"
        return ScenarioSpec(
            name=name, platform=tiny_spec(), seed=seed,
            workloads=(self.workload_spec(),),
        ).validate()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "grammar_digest": self.grammar_digest,
            "choices": list(self.choices),
            "n_ranks": self.n_ranks,
            "text": self.text,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def _render(fragments: Sequence[str], name: str, n_ranks: int) -> str:
    """Join terminal fragments into a complete DSL program.

    Fragments are whitespace-split into tokens and re-laid-out
    deterministically (one statement per line, blocks indented), because
    rendering is part of the byte-identity contract: same fragments, same
    bytes.  The DSL lexer itself is whitespace-insensitive, so layout is
    purely for humans and goldens.
    """
    tokens: List[str] = []
    for frag in fragments:
        tokens.extend(frag.split())
    lines = [f"workload {name} {{", f"  ranks {n_ranks};"]
    indent = 1
    cur: List[str] = []

    def flush() -> None:
        if cur:
            lines.append("  " * indent + " ".join(cur).replace(" ;", ";"))
            cur.clear()

    for tok in tokens:
        if tok == "{":
            cur.append("{")
            flush()
            indent += 1
        elif tok == "}":
            flush()
            indent = max(1, indent - 1)
            lines.append("  " * indent + "}")
        elif tok.endswith(";"):
            cur.append(tok)
            flush()
        else:
            cur.append(tok)
    flush()
    lines.append("}")
    return "\n".join(lines) + "\n"


class _Expansion:
    """Mutable state of one leftmost expansion (shared by sample, expand
    and the synthesis search).

    The stack holds pending symbols, top last: literal fragments as
    strings, nonterminals as their :class:`Rule`.  :meth:`fork` copies
    the state, so a search can extend one replayed prefix many ways
    without replaying it from the start symbol.
    """

    __slots__ = ("grammar", "costs", "_pushes", "stack", "fragments",
                 "choices")

    def __init__(self, grammar: GrammarSpec):
        self.grammar = grammar
        self.costs = grammar.min_costs()
        self._pushes = grammar._pushes
        self.stack: List[Any] = [grammar._rule_map[grammar.start]]
        self.fragments: List[str] = []
        self.choices: List[int] = []

    @property
    def steps(self) -> int:
        """Choices applied so far."""
        return len(self.choices)

    def fork(self) -> "_Expansion":
        """An independent copy of this state."""
        child = _Expansion.__new__(_Expansion)
        child.grammar = self.grammar
        child.costs = self.costs
        child._pushes = self._pushes
        child.stack = self.stack.copy()
        child.fragments = self.fragments.copy()
        child.choices = self.choices.copy()
        return child

    def pending_cost(self) -> int:
        """Minimum steps needed to finish everything still on the stack."""
        return sum(
            self.costs[s.lhs] for s in self.stack if s.__class__ is Rule
        )

    def next_nonterminal(self) -> Optional[Rule]:
        """Advance past literals; return the leftmost pending rule."""
        stack = self.stack
        while stack:
            top = stack[-1]
            if top.__class__ is Rule:
                return top
            self.fragments.append(stack.pop())
        return None

    def apply(self, rule: Rule, index: int) -> None:
        if not 0 <= index < len(rule.productions):
            raise GrammarError(
                f"choice {index} out of range for rule <{rule.lhs}> "
                f"({len(rule.productions)} production(s))"
            )
        self.stack.pop()
        self.stack.extend(self._pushes[rule.lhs][index])
        self.choices.append(index)

    def complete(self, rule: Optional[Rule]) -> None:
        """Finish greedily from pending ``rule`` (the cheapest-terminating
        production at every remaining step)."""
        min_choices = self.grammar._min_choices
        while rule is not None:
            self.apply(rule, min_choices[rule.lhs])
            rule = self.next_nonterminal()

    def derivation(self, name: str, n_ranks: int,
                   seed: Optional[int] = None) -> Derivation:
        """The finished expansion as a :class:`Derivation`."""
        return Derivation(
            grammar_digest=self.grammar.digest(),
            choices=tuple(self.choices),
            text=_render(self.fragments, name, n_ranks),
            n_ranks=n_ranks,
            seed=seed,
        )


def _default_name(grammar: GrammarSpec) -> str:
    """The program name :func:`expand` gives a derivation by default."""
    return f"g_{grammar.name}_d".replace("-", "_")


def sample(
    grammar: GrammarSpec,
    seed: int = 0,
    n_ranks: int = 4,
    name: Optional[str] = None,
    max_steps: int = 256,
) -> Derivation:
    """Draw one deterministic derivation of ``grammar`` at ``seed``.

    Choices are weighted draws from the dedicated ``"grammar"`` substream
    of :class:`~repro.des.rng.RandomStreams`, so two samples of the same
    grammar + seed are byte-identical (program text, choices, and the
    ``WorkloadSpec``/scenario digests built from them).  ``max_steps``
    bounds recursion: once the remaining budget cannot cover a choice's
    minimum completion cost, only affordable productions stay eligible.
    """
    grammar.validate()
    if name is None:
        name = f"g_{grammar.name}_s{seed}".replace("-", "_")
    rng = RandomStreams(seed).stream(GRAMMAR_STREAM)
    state = _Expansion(grammar)
    while True:
        rule = state.next_nonterminal()
        if rule is None:
            break
        budget = max_steps - state.steps - state.pending_cost()
        eligible = [
            i for i, p in enumerate(rule.productions)
            if grammar.production_cost(p, state.costs)
            - state.costs[rule.lhs] <= budget
        ]
        if not eligible:
            eligible = [grammar._min_choices[rule.lhs]]
        weights = [rule.productions[i].weight for i in eligible]
        total = sum(weights)
        probs = [w / total for w in weights]
        index = eligible[int(rng.choice(len(eligible), p=probs))]
        state.apply(rule, index)
    return state.derivation(name, n_ranks, seed=seed)


def _replay(state: _Expansion, choices: Sequence[int]) -> Optional[Rule]:
    """Apply ``choices`` leftmost-first; return the rule still pending.

    ``None`` means the derivation is complete.  Choices left over once the
    derivation is complete raise :class:`GrammarError`.
    """
    for used, index in enumerate(choices):
        rule = state.next_nonterminal()
        if rule is None:
            raise GrammarError(
                f"derivation complete after {used} choice(s) but "
                f"{len(choices) - used} left over"
            )
        if not isinstance(index, int) or isinstance(index, bool):
            raise GrammarError(f"choice #{used} must be an integer, "
                               f"got {index!r}")
        state.apply(rule, index)
    return state.next_nonterminal()


def expand(
    grammar: GrammarSpec,
    choices: Sequence[int],
    n_ranks: int = 4,
    name: Optional[str] = None,
    complete: bool = False,
) -> Derivation:
    """Replay an explicit choice sequence into a derivation.

    With ``complete=False`` the choices must expand the start symbol
    exactly (too few or too many raises :class:`GrammarError`); with
    ``complete=True`` a short sequence is finished greedily with the
    cheapest-terminating production at every remaining step -- the
    completion the synthesis beam search scores partial derivations with.
    """
    grammar.validate()
    if name is None:
        name = _default_name(grammar)
    state = _Expansion(grammar)
    rule = _replay(state, choices)
    if rule is not None and not complete:
        raise GrammarError(
            f"derivation incomplete: {state.steps} choice(s) consumed "
            f"but <{rule.lhs}> still pending (pass complete=True to "
            f"finish greedily)"
        )
    state.complete(rule)
    return state.derivation(name, n_ranks)


def pending_rule(grammar: GrammarSpec, choices: Sequence[int]) -> Optional[Rule]:
    """The leftmost nonterminal still pending after replaying ``choices``.

    Returns ``None`` when the prefix is already a complete derivation.
    A prefix's children are one per production of this rule (the
    synthesis search reads the rule off each beam state instead of
    replaying the prefix).
    """
    grammar.validate()
    return _replay(_Expansion(grammar), choices)


# -- the default grammar ------------------------------------------------------


def _r(lhs: str, *prods) -> Rule:
    """Rule helper: each production is a (weight, fragments...) tuple or a
    plain fragments tuple with weight 1."""
    out = []
    for p in prods:
        if p and isinstance(p[0], (int, float)) and not isinstance(p[0], bool):
            out.append(Production(symbols=tuple(p[1:]), weight=float(p[0])))
        else:
            out.append(Production(symbols=tuple(p)))
    return Rule(lhs=lhs, productions=tuple(out))


def default_grammar() -> GrammarSpec:
    """The built-in I/O-pattern grammar.

    Phases (checkpoint, strided write, read-back analysis, metadata
    storm) over access modes (shared / file-per-process), access orders
    (sequential / random), write sizes, transfer granularities and
    metadata mixes.  Access mode is chosen once per phase (a production
    alternative, not a free nonterminal) so create/write/close within a
    phase always agree.  Transfer sizes divide every write size, so any
    size x transfer combination is a valid DSL statement, and the
    analysis phase writes its dataset before reading it -- every
    derivation is a valid, runnable :mod:`repro.wgen.dsl` program by
    construction (pinned by test).
    """
    return GrammarSpec(
        name="default",
        start="workload",
        rules=(
            # A job is one to a few phases, biased short.
            _r("workload", ("<phase>",), (0.6, "<phase>", "<workload>")),
            _r("phase",
               (1.5, "<checkpoint>"), ("<strided>",),
               ("<analysis>",), ("<mdstorm>",)),

            # Bulk-synchronous checkpoint: compute, barrier, dump, fsync.
            _r("checkpoint",
               (1.5,
                "loop", "<steps>", "{",
                "compute", "<think>", ";",
                "barrier;",
                "create shared \"/ckpt\" stripe", "<stripe>", ";",
                "write shared \"/ckpt\" size", "<size>",
                "transfer", "<xfer>", ";",
                "<fsync_s>",
                "close \"/ckpt\";",
                "}"),
               ("loop", "<steps>", "{",
                "compute", "<think>", ";",
                "barrier;",
                "create fpp \"/ckpt\";",
                "write fpp \"/ckpt\" size", "<size>",
                "transfer", "<xfer>", ";",
                "<fsync_f>",
                "close fpp \"/ckpt\";",
                "}")),
            _r("fsync_s", ("fsync \"/ckpt\";",), (0.5, "barrier;")),
            _r("fsync_f", ("fsync fpp \"/ckpt\";",), (0.5, "barrier;")),

            # Segmented/strided write: each loop iteration appends one
            # block per rank (IOR "segments"), interleaving rank blocks.
            _r("strided",
               ("create shared \"/seg\";",
                "loop", "<segments>", "{",
                "write shared \"/seg\"", "<segblk>", ";",
                "}",
                "close \"/seg\";"),
               ("create fpp \"/seg\";",
                "loop", "<segments>", "{",
                "write fpp \"/seg\"", "<segblk>", ";",
                "}",
                "close fpp \"/seg\";")),
            _r("segblk",
               ("size 256KB transfer 256KB",),
               ("size 1MB transfer 1MB",)),

            # Write-once / read-many analysis: sequential or shuffled
            # epochs over a shared dataset (written first, so the read
            # always finds the file).
            _r("analysis",
               ("create shared \"/data\";",
                "write shared \"/data\" size 16MB transfer 1MB;",
                "barrier;",
                "loop", "<epochs>", "{",
                "read shared \"/data\"", "<readblk>",
                "pattern", "<order>", ";",
                "}",
                "close \"/data\";")),
            _r("readblk",
               ("size 16MB transfer 1MB",),
               ("size 4MB transfer 1MB",),
               ("size 1MB transfer 256KB",)),
            _r("order", ("sequential",), ("random",)),

            # mdtest-style metadata storm: many small files, optional
            # stat/unlink mix.
            _r("mdstorm",
               ("mkdir \"/md\";",
                "loop", "<files>", "as i {",
                "create fpp \"/md/f${i}\";",
                "<mdmix>",
                "}")),
            _r("mdmix",
               ("close fpp \"/md/f${i}\";",),
               ("stat fpp \"/md/f${i}\";", "close fpp \"/md/f${i}\";"),
               ("close fpp \"/md/f${i}\";", "unlink fpp \"/md/f${i}\";")),

            # Quantities.  256KB and 1MB divide 1MB/4MB/16MB, so any
            # size x transfer pairing parses.
            _r("steps", ("2",), ("3",), ("4",)),
            _r("segments", ("4",), ("8",), ("16",)),
            _r("epochs", ("1",), ("2",)),
            _r("files", ("8",), ("16",), ("32",)),
            _r("size", ("1MB",), ("4MB",), ("16MB",)),
            _r("xfer", ("256KB",), ("1MB",)),
            _r("stripe", ("1",), ("2",), ("-1",)),
            _r("think", ("0.05s",), ("0.2s",)),
        ),
    ).validate()
