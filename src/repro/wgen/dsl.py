"""A CODES-I/O-language-like workload description DSL.

Paper Sec. IV-B-4: "An example is the CODES I/O language [59], which
allows researchers to model real or artificial I/O workloads using
domain-specific language constructs."

Grammar (informal)::

    workload <name> {
        ranks <int>;
        [seed <int>;]
        <statement>*
    }

    statement :=
        compute <float>s ;
      | barrier ;
      | mkdir "<path>" ;
      | create shared|fpp "<path>" [stripe <int>] ;
      | write  shared|fpp "<path>" size <SIZE> [transfer <SIZE>]
               [pattern sequential|random] ;
      | read   shared|fpp "<path>" size <SIZE> [transfer <SIZE>]
               [pattern sequential|random] ;
      | stat   [shared|fpp] "<path>" ;
      | fsync  [shared|fpp] "<path>" ;
      | close  [shared|fpp] "<path>" ;
      | unlink [shared|fpp] "<path>" ;
      | loop <int> [as <name>] { <statement>* }

Loops may bind an index variable (``loop 64 as i { ... }``); paths then
substitute ``${i}`` with the current index, which is how mdtest-style
many-files patterns are expressed::

    loop 64 as i {
        create fpp "/md/f${i}";
        close "/md/f${i}";
    }

Sizes accept ``B``/``KB``/``MB``/``GB`` suffixes (binary, e.g. ``4MB`` =
4 MiB).  Semantics of ``shared`` data ops: each rank transfers ``size``
bytes into its own block at ``rank * size`` (IOR-style); ``fpp`` targets
``<path>.<rank>`` starting at that file's running cursor.  ``random``
permutes the transfer order within the block (seeded).

The compiler's unit is the *run* (:class:`~repro.ops.OpRun`): each
executed data statement becomes one run of equal-size transfers whose
offsets are a ``range`` (sequential) or the seeded permutation
(``random``), and every other statement a run of one.
:func:`compile_runs` returns the per-rank runs -- what synthesis scores,
without building an op per transfer -- and :func:`parse_workload`
expands them into the runnable op streams.

Example::

    workload checkpoint {
        ranks 4;
        loop 3 {
            compute 1.5s;
            barrier;
            create shared "/ckpt" stripe -1;
            write shared "/ckpt" size 16MB transfer 4MB;
            fsync "/ckpt";
            close "/ckpt";
        }
    }
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.ops import NO_OFFSET, OpKind, OpRun, expand_runs
from repro.workloads.base import OpStreamWorkload

_SIZE_RE = re.compile(r"^(\d+(?:\.\d+)?)(B|KB|MB|GB)?$", re.IGNORECASE)
_TIME_RE = re.compile(r"^(\d+(?:\.\d+)?)(s|ms|us)$", re.IGNORECASE)
_UNITS = {"B": 1, "KB": 1024, "MB": 1024**2, "GB": 1024**3}
_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6}


class DSLError(ValueError):
    """Raised on any lexing/parsing/semantic error, with a line number."""


# -- lexer ---------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # "word" | "string" | "punct"
    value: str
    line: int


#: One token per match, after any blanks.  Newlines are their own
#: alternative so the lexer can count lines; a newline inside a string
#: does not advance the count.  Every non-blank character starts some
#: alternative, so ``finditer`` skips nothing but trailing blanks.
_TOKEN_RE = re.compile(r"""
    [^\S\n]*
    (?:
        (\n)              # 1: newline
      | \#[^\n]*         # comment, up to the newline
      | "([^"]*)"        # 2: string
      | (")              # 3: unterminated string
      | ([{};])          # 4: punctuation
      | ([^\s{};"\#]+)   # 5: word
    )""", re.VERBOSE)


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    append = tokens.append
    line = 1
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group is None:
            continue
        if group == 5:
            append(_Token("word", m.group(5), line))
        elif group == 1:
            line += 1
        elif group == 4:
            append(_Token("punct", m.group(4), line))
        elif group == 2:
            append(_Token("string", m.group(2), line))
        else:
            raise DSLError(f"line {line}: unterminated string")
    return tokens


def _parse_int(token: _Token, what: str) -> int:
    try:
        return int(token.value)
    except ValueError:
        raise DSLError(f"line {token.line}: {what} must be an integer")


def _parse_size(token: _Token) -> int:
    m = _SIZE_RE.match(token.value)
    if not m:
        raise DSLError(f"line {token.line}: bad size {token.value!r}")
    value = float(m.group(1))
    unit = (m.group(2) or "B").upper()
    return int(value * _UNITS[unit])


def _parse_time(token: _Token) -> float:
    m = _TIME_RE.match(token.value)
    if not m:
        raise DSLError(f"line {token.line}: bad duration {token.value!r} (use e.g. 1.5s)")
    return float(m.group(1)) * _TIME_UNITS[m.group(2).lower()]


# -- AST ----------------------------------------------------------------------


@dataclass
class _Stmt:
    line: int


@dataclass
class _Simple(_Stmt):
    op: str
    path: str = ""
    mode: str = ""  # shared | fpp
    size: int = 0
    transfer: int = 0
    pattern: str = "sequential"
    stripe: Optional[int] = None
    seconds: float = 0.0


@dataclass
class _LoopStmt(_Stmt):
    count: int = 0
    var: Optional[str] = None
    body: List[_Stmt] = field(default_factory=list)


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok is None:
            raise DSLError("unexpected end of input")
        if expect is not None and tok.value != expect:
            raise DSLError(f"line {tok.line}: expected {expect!r}, got {tok.value!r}")
        self.pos += 1
        return tok

    def next_kind(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise DSLError(f"line {tok.line}: expected {kind}, got {tok.value!r}")
        return tok

    def parse(self) -> Tuple[str, int, int, List[_Stmt]]:
        self.next(expect="workload")
        name = self.next_kind("word").value
        self.next(expect="{")
        self.next(expect="ranks")
        ranks_tok = self.next_kind("word")
        ranks = _parse_int(ranks_tok, "ranks")
        if ranks <= 0:
            raise DSLError(f"line {ranks_tok.line}: ranks must be positive")
        self.next(expect=";")
        seed = 0
        if self.peek() and self.peek().value == "seed":
            self.next()
            seed = _parse_int(self.next_kind("word"), "seed")
            self.next(expect=";")
        body = self.parse_block()
        if self.peek() is not None:
            tok = self.peek()
            raise DSLError(f"line {tok.line}: trailing input {tok.value!r}")
        return name, ranks, seed, body

    def parse_block(self) -> List[_Stmt]:
        out: List[_Stmt] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise DSLError("unexpected end of input: missing '}'")
            if tok.value == "}":
                self.next()
                return out
            out.append(self.parse_stmt())

    def parse_stmt(self) -> _Stmt:
        tok = self.next_kind("word")
        op = tok.value
        if op == "loop":
            count_tok = self.next_kind("word")
            count = _parse_int(count_tok, "loop count")
            if count <= 0:
                raise DSLError(f"line {count_tok.line}: loop count must be positive")
            var = None
            if self.peek() and self.peek().value == "as":
                self.next()
                var = self.next_kind("word").value
                if not var.isidentifier():
                    raise DSLError(
                        f"line {count_tok.line}: bad loop variable {var!r}"
                    )
            self.next(expect="{")
            body = self.parse_block()
            return _LoopStmt(line=tok.line, count=count, var=var, body=body)
        if op == "compute":
            seconds = _parse_time(self.next_kind("word"))
            self.next(expect=";")
            return _Simple(line=tok.line, op="compute", seconds=seconds)
        if op == "barrier":
            self.next(expect=";")
            return _Simple(line=tok.line, op="barrier")
        if op in ("mkdir", "stat", "fsync", "close", "unlink"):
            mode = ""
            if (
                op != "mkdir"
                and self.peek() is not None
                and self.peek().value in ("shared", "fpp")
            ):
                mode = self.next().value
            path = self.next_kind("string").value
            self.next(expect=";")
            return _Simple(line=tok.line, op=op, path=path, mode=mode)
        if op == "create":
            mode = self.next_kind("word").value
            if mode not in ("shared", "fpp"):
                raise DSLError(f"line {tok.line}: create needs shared|fpp, got {mode!r}")
            path = self.next_kind("string").value
            stmt = _Simple(line=tok.line, op="create", path=path, mode=mode)
            if self.peek() and self.peek().value == "stripe":
                self.next()
                stmt.stripe = _parse_int(self.next_kind("word"), "stripe")
            self.next(expect=";")
            return stmt
        if op in ("write", "read"):
            mode = self.next_kind("word").value
            if mode not in ("shared", "fpp"):
                raise DSLError(f"line {tok.line}: {op} needs shared|fpp, got {mode!r}")
            path = self.next_kind("string").value
            self.next(expect="size")
            size = _parse_size(self.next_kind("word"))
            stmt = _Simple(
                line=tok.line, op=op, path=path, mode=mode, size=size, transfer=size
            )
            while self.peek() and self.peek().value in ("transfer", "pattern"):
                word = self.next().value
                if word == "transfer":
                    stmt.transfer = _parse_size(self.next_kind("word"))
                else:
                    pattern = self.next_kind("word").value
                    if pattern not in ("sequential", "random"):
                        raise DSLError(
                            f"line {tok.line}: pattern must be sequential|random"
                        )
                    stmt.pattern = pattern
            self.next(expect=";")
            if stmt.size <= 0 or stmt.transfer <= 0:
                raise DSLError(f"line {tok.line}: size/transfer must be positive")
            if stmt.size % stmt.transfer:
                raise DSLError(
                    f"line {tok.line}: transfer must divide size"
                )
            return stmt
        raise DSLError(f"line {tok.line}: unknown statement {op!r}")


# -- compiler ------------------------------------------------------------------

_META_STMT_KINDS = {
    "stat": OpKind.STAT,
    "fsync": OpKind.FSYNC,
    "unlink": OpKind.UNLINK,
    "close": OpKind.CLOSE,
}


@lru_cache(maxsize=1024)
def _permutation(seed: int, n: int) -> Tuple[int, ...]:
    """The transfer order of a ``pattern random`` block.

    Memoised: a block's seed depends only on the program seed, the rank
    and the statement's line, so loops and the many programs a synthesis
    search compiles ask for the same few orders again and again.
    """
    return tuple(np.random.default_rng(seed).permutation(n).tolist())


class _Compiler:
    """Walks the program once, emitting every rank's runs side by side.

    Ranks differ only in fpp path suffixes, shared-block offsets, the
    seeded permutations and which rank issues shared creates/mkdirs, so
    each statement is resolved once and then emitted per rank.  A data
    cursor advances by the same amount on every rank, so one cursor per
    (unsuffixed path, mode) serves all of them.
    """

    def __init__(self, name: str, n_ranks: int, seed: int):
        self.name = name
        self.n_ranks = n_ranks
        self.seed = seed
        self._suffixes = [f".{rank:08d}" for rank in range(n_ranks)]
        self._cursors: dict = {}

    def compile(self, body: List[_Stmt]) -> List[List[OpRun]]:
        per_rank: List[List[OpRun]] = [[] for _ in range(self.n_ranks)]
        self._cursors = {}
        self._emit_block(body, {}, per_rank)
        return per_rank

    @staticmethod
    def _subst(path: str, env: dict, line: int) -> str:
        """Substitute ``${var}`` loop variables in a path."""
        if "${" not in path:
            return path
        out = path
        for name, value in env.items():
            out = out.replace("${" + name + "}", str(value))
        if "${" in out:
            start = out.index("${")
            end = out.find("}", start)
            if end < 0:
                raise DSLError(
                    f"line {line}: unterminated variable {out[start:]} in path"
                )
            raise DSLError(
                f"line {line}: unbound variable {out[start:end + 1]} in path"
            )
        return out

    def _emit_block(self, body: List[_Stmt], env: dict,
                    outs: List[List[OpRun]]) -> None:
        for stmt in body:
            if isinstance(stmt, _LoopStmt):
                for i in range(stmt.count):
                    inner = env
                    if stmt.var is not None:
                        inner = dict(env)
                        inner[stmt.var] = i
                    self._emit_block(stmt.body, inner, outs)
                continue
            self._emit_simple(stmt, env, outs)

    def _emit_simple(self, stmt: _Simple, env: dict,
                     outs: List[List[OpRun]]) -> None:
        # Branches in order of frequency in generated programs.
        op = stmt.op
        if op == "write" or op == "read":
            path = self._subst(stmt.path, env, stmt.line)
            kind = OpKind.WRITE if op == "write" else OpKind.READ
            shared = stmt.mode == "shared"
            cursor_key = (path, stmt.mode)
            base = self._cursors.get(cursor_key, 0)
            size = stmt.size
            transfer = stmt.transfer
            shuffled = stmt.pattern == "random"
            for rank, out in enumerate(outs):
                if shared:
                    start = base + rank * size
                    rank_path = path
                else:
                    start = base
                    rank_path = path + self._suffixes[rank]
                if shuffled:
                    order = _permutation(self.seed + rank * 9973 + stmt.line,
                                         size // transfer)
                    offsets = [start + i * transfer for i in order]
                else:
                    offsets = range(start, start + size, transfer)
                out.append(OpRun(kind, rank_path, rank, transfer, 0.0, {},
                                 offsets))
            self._cursors[cursor_key] = base + (
                self.n_ranks * size if shared else size)
        elif op == "create":
            path = self._subst(stmt.path, env, stmt.line)
            fpp = stmt.mode == "fpp"
            for rank, out in enumerate(outs):
                if fpp or rank == 0:
                    meta = {}
                    if stmt.stripe is not None:
                        meta["stripe_count"] = stmt.stripe
                    out.append(OpRun(
                        OpKind.CREATE,
                        path + self._suffixes[rank] if fpp else path, rank,
                        0, 0.0, meta, NO_OFFSET))
                out.append(OpRun(OpKind.BARRIER, "", rank, 0, 0.0, {},
                                 NO_OFFSET))
        elif op in _META_STMT_KINDS:
            # Metadata statements accept an optional shared|fpp mode; fpp
            # targets this rank's file, the default targets the literal path.
            path = self._subst(stmt.path, env, stmt.line)
            kind = _META_STMT_KINDS[op]
            fpp = stmt.mode == "fpp"
            for rank, out in enumerate(outs):
                out.append(OpRun(
                    kind, path + self._suffixes[rank] if fpp else path, rank,
                    0, 0.0, {}, NO_OFFSET))
        elif op == "barrier":
            for rank, out in enumerate(outs):
                out.append(OpRun(OpKind.BARRIER, "", rank, 0, 0.0, {},
                                 NO_OFFSET))
        elif op == "compute":
            for rank, out in enumerate(outs):
                out.append(OpRun(OpKind.COMPUTE, "", rank, 0, stmt.seconds,
                                 {}, NO_OFFSET))
        elif op == "mkdir":
            path = self._subst(stmt.path, env, stmt.line)
            for rank, out in enumerate(outs):
                if rank == 0:
                    out.append(OpRun(OpKind.MKDIR, path, rank, 0, 0.0,
                                     {"exist_ok": True}, NO_OFFSET))
                out.append(OpRun(OpKind.BARRIER, "", rank, 0, 0.0, {},
                                 NO_OFFSET))
        else:  # pragma: no cover - parser guarantees exhaustiveness
            raise DSLError(f"line {stmt.line}: unknown op {op!r}")


def compile_runs(text: str) -> Tuple[str, List[List[OpRun]]]:
    """Parse a DSL description into its name and per-rank run lists.

    One :class:`~repro.ops.OpRun` per executed statement: a data
    statement is one run of its transfers (a ``range`` of offsets, or the
    seeded permutation for ``pattern random``), every other statement a
    run of one.  Raises :class:`DSLError` with a line number on any
    problem.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise DSLError("empty workload description")
    name, ranks, seed, body = _Parser(tokens).parse()
    return name, _Compiler(name, ranks, seed).compile(body)


def parse_workload(text: str) -> OpStreamWorkload:
    """Parse a DSL description into a runnable workload.

    The :func:`compile_runs` runs, expanded to per-rank op lists.  Raises
    :class:`DSLError` with a line number on any problem.
    """
    name, per_rank = compile_runs(text)
    return OpStreamWorkload(name, [expand_runs(runs) for runs in per_rank])
