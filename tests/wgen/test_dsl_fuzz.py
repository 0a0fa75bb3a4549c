"""Property-based fuzzing of the workload DSL.

Generates random (valid-by-construction) programs -- every statement
kind, both access modes, both patterns, striped creates and ``loop N as
i`` blocks with ``${i}`` paths -- parses them, and checks compilation
invariants: per-rank data volumes and compute counts follow the
program's structure, the compiled runs expand to exactly the ops of the
op-level compiler kept below as the reference, and parsing never crashes
with anything but :class:`DSLError` on mutated inputs.
"""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops import IOOp, OpKind
from repro.wgen import DSLError, parse_workload
from repro.wgen.dsl import (
    _META_STMT_KINDS,
    _Compiler,
    _LoopStmt,
    _Parser,
    _tokenize,
)

KB = 1024

# -- the op-level reference compiler ------------------------------------------


class _ReferenceCompiler:
    """The compiler before it emitted runs: one IOOp per transfer, one
    rank at a time."""

    def __init__(self, n_ranks, seed):
        self.n_ranks = n_ranks
        self.seed = seed
        self._cursors = {}

    def compile(self, body):
        per_rank = []
        for rank in range(self.n_ranks):
            self._cursors = {}
            ops = []
            self._emit_block(body, rank, {}, ops)
            per_rank.append(ops)
        return per_rank

    def _path_for(self, stmt, rank, env):
        path = _Compiler._subst(stmt.path, env, stmt.line)
        return f"{path}.{rank:08d}" if stmt.mode == "fpp" else path

    def _emit_block(self, body, rank, env, out):
        for stmt in body:
            if isinstance(stmt, _LoopStmt):
                for i in range(stmt.count):
                    inner = env
                    if stmt.var is not None:
                        inner = dict(env)
                        inner[stmt.var] = i
                    self._emit_block(stmt.body, rank, inner, out)
            else:
                self._emit_simple(stmt, rank, env, out)

    def _emit_simple(self, stmt, rank, env, out):
        op = stmt.op
        if op in ("write", "read"):
            path = self._path_for(stmt, rank, env)
            kind = OpKind.WRITE if op == "write" else OpKind.READ
            cursor_key = (path, stmt.mode)
            base = self._cursors.get(cursor_key, 0)
            start = base + rank * stmt.size if stmt.mode == "shared" else base
            n_transfers = stmt.size // stmt.transfer
            if stmt.pattern == "random":
                rng = np.random.default_rng(self.seed + rank * 9973 + stmt.line)
                order = rng.permutation(n_transfers).tolist()
            else:
                order = range(n_transfers)
            out += [IOOp(kind, path, start + i * stmt.transfer, stmt.transfer,
                         rank) for i in order]
            step = self.n_ranks * stmt.size if stmt.mode == "shared" \
                else stmt.size
            self._cursors[cursor_key] = base + step
        elif op == "create":
            path = self._path_for(stmt, rank, env)
            meta = {}
            if stmt.stripe is not None:
                meta["stripe_count"] = stmt.stripe
            if stmt.mode == "fpp" or rank == 0:
                out.append(IOOp(OpKind.CREATE, path, rank=rank, meta=meta))
            out.append(IOOp(OpKind.BARRIER, rank=rank))
        elif op in _META_STMT_KINDS:
            if stmt.mode == "fpp":
                path = self._path_for(stmt, rank, env)
            else:
                path = _Compiler._subst(stmt.path, env, stmt.line)
            out.append(IOOp(_META_STMT_KINDS[op], path, rank=rank))
        elif op == "barrier":
            out.append(IOOp(OpKind.BARRIER, rank=rank))
        elif op == "compute":
            out.append(IOOp(OpKind.COMPUTE, duration=stmt.seconds, rank=rank))
        elif op == "mkdir":
            if rank == 0:
                out.append(IOOp(OpKind.MKDIR,
                                _Compiler._subst(stmt.path, env, stmt.line),
                                rank=rank, meta={"exist_ok": True}))
            out.append(IOOp(OpKind.BARRIER, rank=rank))
        else:  # pragma: no cover
            raise AssertionError(op)


def _reference_ops(text):
    _name, ranks, seed, body = _Parser(_tokenize(text)).parse()
    return _ReferenceCompiler(ranks, seed).compile(body)


# -- program generator ---------------------------------------------------------

_KINDS = ["compute", "barrier", "write", "read", "stat", "create", "mkdir",
          "fsync", "close", "unlink"]


@st.composite
def simple_statement(draw, var=None):
    """One statement and its ``(kind, bytes per rank)``; ``var`` is the
    enclosing loop variable its paths may use."""
    kind = draw(st.sampled_from(_KINDS))
    names = ["/x", "/y"] + ([f"/v${{{var}}}"] if var else [])
    path = draw(st.sampled_from(names))
    if kind == "compute":
        ms = draw(st.integers(1, 500))
        return f"compute {ms}ms;", ("compute", 0)
    if kind == "barrier":
        return "barrier;", ("barrier", 0)
    if kind == "mkdir":
        return f'mkdir "{path}";', ("mkdir", 0)
    if kind == "create":
        mode = draw(st.sampled_from(["shared", "fpp"]))
        stripe = draw(st.sampled_from(["", " stripe 2", " stripe -1"]))
        return f'create {mode} "{path}"{stripe};', ("create", 0)
    if kind in ("stat", "fsync", "close", "unlink"):
        mode = draw(st.sampled_from(["", "shared ", "fpp "]))
        return f'{kind} {mode}"{path}";', (kind, 0)
    transfers = draw(st.integers(1, 4))
    size_kb = transfers * draw(st.sampled_from([1, 2, 4]))
    transfer_kb = size_kb // transfers
    mode = draw(st.sampled_from(["shared", "fpp"]))
    pattern = draw(st.sampled_from(["", " pattern sequential",
                                    " pattern random"]))
    text = (f'{kind} {mode} "{path}" size {size_kb}KB '
            f"transfer {transfer_kb}KB{pattern};")
    return text, (kind, size_kb * KB)


@st.composite
def program(draw):
    """``(text, ranks, loop_count, metas)``: the body of one outer loop
    is statements and at most one inner ``loop N as i`` block; ``metas``
    lists ``(kind, bytes per rank, repetitions per outer iteration)``."""
    ranks = draw(st.integers(1, 4))
    seed = draw(st.sampled_from(["", " seed 7;"]))
    stmts = draw(st.lists(simple_statement(), min_size=1, max_size=6))
    lines = [s for s, _ in stmts]
    metas = [(kind, n, 1) for _, (kind, n) in stmts]
    if draw(st.booleans()):
        inner_count = draw(st.integers(1, 3))
        inner = draw(st.lists(simple_statement(var="i"), min_size=1,
                              max_size=4))
        block = "\n".join(s for s, _ in inner)
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, f"loop {inner_count} as i {{\n{block}\n}}")
        metas += [(kind, n, inner_count) for _, (kind, n) in inner]
    loop_count = draw(st.integers(1, 3))
    body = "\n".join(lines)
    text = (
        f"workload fuzz {{\n ranks {ranks};{seed}\n"
        f" loop {loop_count} {{\n{body}\n}}\n}}"
    )
    return text, ranks, loop_count, metas


@settings(max_examples=150, deadline=None)
@given(prog=program())
def test_generated_programs_compile_with_correct_volumes(prog):
    text, ranks, loop_count, metas = prog
    w = parse_workload(text)
    assert w.n_ranks == ranks
    expected_write = loop_count * sum(
        n * reps for kind, n, reps in metas if kind == "write"
    )
    expected_read = loop_count * sum(
        n * reps for kind, n, reps in metas if kind == "read"
    )
    for rank in range(ranks):
        ops = list(w.ops(rank))
        wrote = sum(op.nbytes for op in ops if op.kind == OpKind.WRITE)
        read = sum(op.nbytes for op in ops if op.kind == OpKind.READ)
        assert wrote == expected_write
        assert read == expected_read
        computes = sum(1 for op in ops if op.kind == OpKind.COMPUTE)
        assert computes == loop_count * sum(
            reps for kind, _, reps in metas if kind == "compute"
        )


@settings(max_examples=200, deadline=None)
@given(prog=program())
def test_expanded_runs_equal_the_op_level_compiler(prog):
    """Op for op, meta included, and every op has a meta dict of its own."""
    text, ranks, *_ = prog
    w = parse_workload(text)
    want = _reference_ops(text)
    for rank in range(ranks):
        got = list(w.ops(rank))
        assert got == want[rank]
        assert [op.meta for op in got] == [op.meta for op in want[rank]]
    metas = [id(op.meta) for rank in range(ranks) for op in w.ops(rank)]
    assert len(set(metas)) == len(metas)


@settings(max_examples=150, deadline=None)
@given(prog=program(), data=st.data())
def test_mutated_programs_fail_cleanly(prog, data):
    """Deleting a random chunk of a valid program, or cutting the ``}`` of
    a ``${i}`` path, either still parses or raises DSLError -- never any
    other exception."""
    text, *_ = prog
    if len(text) < 10:
        return
    holes = [m.end() - 1 for m in re.finditer(r"\$\{i\}", text)]
    if holes and data.draw(st.booleans()):
        at = data.draw(st.sampled_from(holes))
        mutated = text[:at] + text[at + 1 :]
        try:
            parse_workload(mutated)
        except DSLError as exc:
            assert "unterminated variable" in str(exc)
        else:
            raise AssertionError("an unterminated ${i} compiled")
        return
    start = data.draw(st.integers(0, len(text) - 2))
    length = data.draw(st.integers(1, min(20, len(text) - start)))
    mutated = text[:start] + text[start + length :]
    try:
        parse_workload(mutated)
    except DSLError:
        pass  # the only acceptable failure mode


@settings(max_examples=100, deadline=None)
@given(prog=program())
def test_compilation_is_deterministic(prog):
    text, ranks, *_ = prog
    a = parse_workload(text)
    b = parse_workload(text)
    for rank in range(ranks):
        assert list(a.ops(rank)) == list(b.ops(rank))
