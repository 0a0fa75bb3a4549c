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
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.ops import IOOp, OpKind
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
        try:
            ranks = int(ranks_tok.value)
        except ValueError:
            raise DSLError(f"line {ranks_tok.line}: ranks must be an integer")
        if ranks <= 0:
            raise DSLError(f"line {ranks_tok.line}: ranks must be positive")
        self.next(expect=";")
        seed = 0
        if self.peek() and self.peek().value == "seed":
            self.next()
            seed = int(self.next_kind("word").value)
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
            try:
                count = int(count_tok.value)
            except ValueError:
                raise DSLError(f"line {count_tok.line}: loop count must be an integer")
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
                stmt.stripe = int(self.next_kind("word").value)
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


class _Compiler:
    def __init__(self, name: str, n_ranks: int, seed: int):
        self.name = name
        self.n_ranks = n_ranks
        self.seed = seed
        self._cursors: dict = {}

    def compile(self, body: List[_Stmt]) -> OpStreamWorkload:
        per_rank: List[List[IOOp]] = []
        for rank in range(self.n_ranks):
            self._cursors = {}
            ops: List[IOOp] = []
            self._emit_block(body, rank, {}, ops)
            per_rank.append(ops)
        return OpStreamWorkload(self.name, per_rank)

    @staticmethod
    def _subst(path: str, env: dict, line: int) -> str:
        """Substitute ``${var}`` loop variables in a path."""
        if "${" not in path:
            return path
        out = path
        for name, value in env.items():
            out = out.replace("${" + name + "}", str(value))
        if "${" in out:
            missing = out[out.index("${") : out.index("}", out.index("${")) + 1]
            raise DSLError(f"line {line}: unbound variable {missing} in path")
        return out

    def _path_for(self, stmt: _Simple, rank: int, env: dict) -> str:
        path = self._subst(stmt.path, env, stmt.line)
        if stmt.mode == "fpp":
            return f"{path}.{rank:08d}"
        return path

    def _emit_block(self, body: List[_Stmt], rank: int, env: dict,
                    out: List[IOOp]) -> None:
        for stmt in body:
            if isinstance(stmt, _LoopStmt):
                for i in range(stmt.count):
                    inner = env
                    if stmt.var is not None:
                        inner = dict(env)
                        inner[stmt.var] = i
                    self._emit_block(stmt.body, rank, inner, out)
                continue
            self._emit_simple(stmt, rank, env, out)

    def _emit_simple(self, stmt: _Simple, rank: int, env: dict,
                     out: List[IOOp]) -> None:
        # Branches in order of frequency in generated programs.
        op = stmt.op
        if op == "write" or op == "read":
            path = self._path_for(stmt, rank, env)
            kind = OpKind.WRITE if op == "write" else OpKind.READ
            cursor_key = (path, stmt.mode)
            base = self._cursors.get(cursor_key, 0)
            if stmt.mode == "shared":
                start = base + rank * stmt.size
            else:
                start = base
            transfer = stmt.transfer
            n_transfers = stmt.size // transfer
            if stmt.pattern == "random":
                rng = np.random.default_rng(self.seed + rank * 9973 + stmt.line)
                order = rng.permutation(n_transfers).tolist()
            else:
                order = range(n_transfers)
            out += [IOOp(kind, path, start + i * transfer, transfer, rank)
                    for i in order]
            if stmt.mode == "shared":
                self._cursors[cursor_key] = base + self.n_ranks * stmt.size
            else:
                self._cursors[cursor_key] = base + stmt.size
        elif op == "create":
            path = self._path_for(stmt, rank, env)
            meta = {}
            if stmt.stripe is not None:
                meta["stripe_count"] = stmt.stripe
            if stmt.mode == "fpp" or rank == 0:
                out.append(IOOp(OpKind.CREATE, path, rank=rank, meta=meta))
            out.append(IOOp(OpKind.BARRIER, rank=rank))
        elif op in _META_STMT_KINDS:
            # Metadata statements accept an optional shared|fpp mode; fpp
            # targets this rank's file, the default targets the literal path.
            if stmt.mode == "fpp":
                path = self._path_for(stmt, rank, env)
            else:
                path = self._subst(stmt.path, env, stmt.line)
            out.append(IOOp(_META_STMT_KINDS[op], path, rank=rank))
        elif op == "barrier":
            out.append(IOOp(OpKind.BARRIER, rank=rank))
        elif op == "compute":
            out.append(IOOp(OpKind.COMPUTE, duration=stmt.seconds, rank=rank))
        elif op == "mkdir":
            if rank == 0:
                out.append(IOOp(
                    OpKind.MKDIR, self._subst(stmt.path, env, stmt.line),
                    rank=rank, meta={"exist_ok": True},
                ))
            out.append(IOOp(OpKind.BARRIER, rank=rank))
        else:  # pragma: no cover - parser guarantees exhaustiveness
            raise DSLError(f"line {stmt.line}: unknown op {op!r}")


def parse_workload(text: str) -> OpStreamWorkload:
    """Parse a DSL description into a runnable workload.

    Raises :class:`DSLError` with a line number on any problem.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise DSLError("empty workload description")
    name, ranks, seed, body = _Parser(tokens).parse()
    return _Compiler(name, ranks, seed).compile(body)
