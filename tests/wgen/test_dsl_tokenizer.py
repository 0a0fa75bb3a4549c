"""The DSL lexer against the character-loop lexer it replaced.

``_reference_tokenize`` is the previous implementation, kept verbatim as
the oracle: the regex lexer must give the same ``(kind, value, line)``
tokens and the same :class:`DSLError` messages.  Line numbers matter
beyond error messages: ``pattern random`` seeds its permutation on the
statement's line, so a newline inside a string must not advance it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wgen.dsl import DSLError, _tokenize


def _reference_tokenize(text):
    tokens = []
    line = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
        elif ch.isspace():
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise DSLError(f"line {line}: unterminated string")
            tokens.append(("string", text[i + 1 : j], line))
            i = j + 1
        elif ch in "{};":
            tokens.append(("punct", ch, line))
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '{};"#':
                j += 1
            tokens.append(("word", text[i:j], line))
            i = j
    return tokens


def _lex(lexer, text):
    """Tokens as plain tuples, or the error message."""
    try:
        return [tuple(tok) for tok in lexer(text)]
    except DSLError as exc:
        return f"DSLError: {exc}"


EDGE_INPUTS = [
    "",
    "   \n\t \n",
    "workload t { ranks 1; }",
    "# only a comment",
    "# comment\nworkload t { # trailing\n ranks 1; }# end",
    'stat "/a#b";  # the first # is inside the string',
    'close "#";',
    "loop 3 as i{barrier;}",
    "a{b}c;d",
    "word;word{word}",
    'stat"/x";',
    'create shared "/multi\nline\npath";\nbarrier;\n',
    'a "x\ny" b\nc',
    'stat "/oops; }',
    'ok;\n\n  "never closed',
    'a "closed" "open',
    '"',
    '""',
    "x\r\ny\x0bz\x0cw v u\x85t",
    "tab\tsep\tval;",
    "#\n#\n# three comment lines\nlast",
    "size 1MB transfer 256KB pattern random;",
]


@pytest.mark.parametrize("text", EDGE_INPUTS)
def test_edge_inputs_match_reference(text):
    assert _lex(_tokenize, text) == _lex(_reference_tokenize, text)


def test_newline_inside_string_does_not_advance_line():
    tokens = _tokenize('stat "/a\n/b";\nbarrier;')
    assert [tuple(t) for t in tokens] == [
        ("word", "stat", 1), ("string", "/a\n/b", 1), ("punct", ";", 1),
        ("word", "barrier", 2), ("punct", ";", 2),
    ]


def test_unterminated_string_names_its_line():
    with pytest.raises(DSLError, match=r"^line 3: unterminated string$"):
        _tokenize('a;\nb;\nstat "/x;\n')


#: Characters that exercise every lexer branch, including whitespace
#: other than ``\n`` that must neither split lines nor join words.
_ALPHABET = 'ab1 \t\n\r\x0b\x85\xa0\u2028#"{};.$'


@settings(max_examples=400, deadline=None)
@given(text=st.text(alphabet=_ALPHABET, max_size=60))
def test_random_text_matches_reference(text):
    assert _lex(_tokenize, text) == _lex(_reference_tokenize, text)
