"""DSL parser edge cases: loop substitution, sizes, malformed input."""

import pytest

from repro.ops import OpKind
from repro.wgen import DSLError, parse_workload

KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * MiB


def _ops(src, rank=0):
    return list(parse_workload(src).ops(rank))


# -- nested loop variable substitution ----------------------------------------


def test_nested_loops_substitute_both_variables():
    src = """
    workload t { ranks 1;
      loop 2 as i {
        loop 3 as j {
          create fpp "/d/${i}_${j}";
          close "/d/${i}_${j}";
        }
      }
    }
    """
    creates = [op.path for op in _ops(src) if op.kind == OpKind.CREATE]
    assert creates == [
        f"/d/{i}_{j}.00000000" for i in range(2) for j in range(3)
    ]


def test_inner_loop_shadows_outer_variable():
    src = """
    workload t { ranks 1;
      loop 2 as i { loop 2 as i { stat "/s/${i}"; } }
    }
    """
    stats = [op.path for op in _ops(src) if op.kind == OpKind.STAT]
    assert stats == ["/s/0", "/s/1", "/s/0", "/s/1"]


def test_unbound_variable_names_the_culprit():
    src = 'workload t { ranks 1; loop 2 as i { stat "/s/${k}"; } }'
    with pytest.raises(DSLError, match=r"unbound variable \$\{k\}"):
        _ops(src)


def test_unterminated_variable_is_a_dsl_error():
    src = 'workload t { ranks 1; loop 2 as i { stat "/f${i"; } }'
    with pytest.raises(DSLError, match=r"line 1: unterminated variable \$\{i"):
        _ops(src)


def test_variable_outside_any_loop_is_unbound():
    with pytest.raises(DSLError, match="unbound variable"):
        _ops('workload t { ranks 1; stat "/s/${i}"; }')


def test_bad_loop_variable_rejected():
    with pytest.raises(DSLError, match="bad loop variable"):
        parse_workload('workload t { ranks 1; loop 2 as 9x { barrier; } }')


# -- size-suffix parsing ------------------------------------------------------


@pytest.mark.parametrize("literal,nbytes", [
    ("512B", 512),
    ("512", 512),          # bare integers are bytes
    ("4KB", 4 * KiB),
    ("4kb", 4 * KiB),      # suffixes are case-insensitive
    ("2MB", 2 * MiB),
    ("1GB", GiB),
])
def test_size_suffixes_are_binary(literal, nbytes):
    src = f'workload t {{ ranks 1; write shared "/f" size {literal}; }}'
    writes = [op for op in _ops(src) if op.kind == OpKind.WRITE]
    assert sum(op.nbytes for op in writes) == nbytes


def test_fractional_sizes_resolve_to_whole_bytes():
    src = 'workload t { ranks 1; write shared "/f" size 0.5KB; }'
    writes = [op for op in _ops(src) if op.kind == OpKind.WRITE]
    assert sum(op.nbytes for op in writes) == 512


def test_bad_size_suffix_rejected():
    with pytest.raises(DSLError, match="bad size"):
        parse_workload(
            'workload t { ranks 1; write shared "/f" size 4TB; }'
        )


def test_transfer_must_divide_size():
    with pytest.raises(DSLError, match="divide"):
        parse_workload(
            'workload t { ranks 1; write shared "/f" size 1MB transfer 3; }'
        )


def test_size_must_be_positive():
    with pytest.raises(DSLError, match="positive"):
        parse_workload('workload t { ranks 1; write shared "/f" size 0; }')


# -- malformed statements -----------------------------------------------------


def test_unknown_statement_reports_line():
    with pytest.raises(DSLError, match="line 3: unknown statement 'frobnicate'"):
        parse_workload(
            'workload t {\n ranks 1;\n frobnicate "/f";\n}'
        )


def test_missing_close_brace():
    with pytest.raises(DSLError, match="missing '}'"):
        parse_workload('workload t { ranks 1; barrier;')


def test_trailing_input_rejected():
    with pytest.raises(DSLError, match="trailing input"):
        parse_workload('workload t { ranks 1; barrier; } extra')


def test_unterminated_string_rejected():
    with pytest.raises(DSLError, match="unterminated string"):
        parse_workload('workload t { ranks 1; stat "/oops; }')


def test_ranks_must_be_positive_integer():
    with pytest.raises(DSLError, match="ranks must be positive"):
        parse_workload('workload t { ranks 0; barrier; }')
    with pytest.raises(DSLError, match="ranks must be an integer"):
        parse_workload('workload t { ranks few; barrier; }')


def test_create_requires_access_mode():
    with pytest.raises(DSLError, match="create needs shared\\|fpp"):
        parse_workload('workload t { ranks 1; create solo "/f"; }')
    with pytest.raises(DSLError, match="expected word"):
        parse_workload('workload t { ranks 1; create "/f"; }')


def test_loop_count_must_be_positive_integer():
    with pytest.raises(DSLError, match="loop count must be an integer"):
        parse_workload('workload t { ranks 1; loop x { barrier; } }')
    with pytest.raises(DSLError, match="loop count must be positive"):
        parse_workload('workload t { ranks 1; loop 0 { barrier; } }')


def test_empty_source_rejected():
    with pytest.raises(DSLError, match="empty workload"):
        parse_workload("   \n  ")
