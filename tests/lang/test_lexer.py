"""Lexer unit tests."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import combined_programs, jmatch_rows
from repro.errors import LexError
from repro.gen import GenConfig, generate_corpus
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source) if not t.is_eof]


def texts(source):
    return [t.text for t in tokenize(source) if not t.is_eof]


def test_empty_input():
    toks = tokenize("")
    assert len(toks) == 1 and toks[0].is_eof


def test_identifiers_and_keywords():
    assert kinds("foo class Bar") == [
        TokenKind.IDENT,
        TokenKind.KEYWORD,
        TokenKind.IDENT,
    ]


def test_numbers():
    toks = tokenize("0 42 123")
    assert [t.text for t in toks[:-1]] == ["0", "42", "123"]
    assert all(t.kind == TokenKind.INT_LIT for t in toks[:-1])


def test_malformed_number():
    with pytest.raises(LexError):
        tokenize("12abc")


def test_operators_maximal_munch():
    assert texts("<= < >= > != = && || #") == [
        "<=",
        "<",
        ">=",
        ">",
        "!=",
        "=",
        "&&",
        "||",
        "#",
    ]


def test_double_equals_is_equality():
    assert texts("a == b") == ["a", "=", "b"]


def test_wildcard_token():
    toks = tokenize("_ _x x_")
    assert toks[0].matches(TokenKind.OPERATOR, "_")
    assert toks[1].matches(TokenKind.IDENT, "_x")
    assert toks[2].matches(TokenKind.IDENT, "x_")


def test_line_comments():
    assert texts("a // comment\n b") == ["a", "b"]


def test_block_comments():
    assert texts("a /* x\ny */ b") == ["a", "b"]


def test_unterminated_block_comment():
    with pytest.raises(LexError):
        tokenize("/* never ends")


def test_string_literal():
    toks = tokenize('"hello"')
    assert toks[0].kind == TokenKind.STRING_LIT
    assert toks[0].text == "hello"


def test_string_escapes():
    toks = tokenize(r'"a\nb\"c"')
    assert toks[0].text == 'a\nb"c'


def test_unterminated_string():
    with pytest.raises(LexError):
        tokenize('"oops')


def test_positions_tracked():
    toks = tokenize("a\n  b")
    assert toks[0].span.start.line == 1
    assert toks[1].span.start.line == 2
    assert toks[1].span.start.column == 3


def test_paper_figure1_lexes():
    source = """
    class Nat {
      private int value;
      private Nat(int n) returns(n) ( value = n )
      public static Nat zero() returns() ( result = Nat(0) )
    }
    """
    toks = tokenize(source)
    assert toks[-1].is_eof
    assert any(t.matches(TokenKind.KEYWORD, "returns") for t in toks)


# -- golden token streams ----------------------------------------------

GOLDEN_TOKENS = Path(__file__).with_name("golden_tokens.json")


def _golden_sources():
    for name, source in sorted(jmatch_rows().items()):
        yield f"row:{name}", source
    for name, source in sorted(combined_programs().items()):
        yield f"program:{name}", source
    corpus = generate_corpus(
        GenConfig(methods=120, seed=5, methods_per_file=60)
    )
    for generated in corpus.files:
        yield f"gen:seed5:{generated.name}", generated.source


def _serialize(tokens):
    lines = []
    for tok in tokens:
        start, end = tok.span.start, tok.span.end
        lines.append(
            f"{tok.kind.name}\t{tok.text!r}\t{start.line}:{start.column}"
            f"-{end.line}:{end.column}\t{tok.span.filename}\n"
        )
    return "".join(lines)


def test_token_streams_match_golden_digests():
    """Every corpus program and a seeded generated corpus lex to the
    same (kind, text, span) stream as the character-by-character
    scanner this lexer replaced (digests captured from it)."""
    golden = json.loads(GOLDEN_TOKENS.read_text())
    seen = {}
    for name, source in _golden_sources():
        tokens = tokenize(source)
        seen[name] = {
            "tokens": len(tokens),
            "sha256": hashlib.sha256(
                _serialize(tokens).encode("utf-8")
            ).hexdigest(),
        }
    assert seen == golden


# -- edge cases, expectations captured from the previous scanner -------

#: (source, tokens) with tokens as (kind name, text, (line, column, end
#: line, end column)), EOF included; or (source, message, span) for a
#: ``LexError``
EDGE_CASES = [
    ('/* never ends', 'unterminated block comment', (1, 1, 1, 14)),
    ('a /* x\n y', 'unterminated block comment', (1, 3, 2, 3)),
    ('/*/', 'unterminated block comment', (1, 1, 1, 4)),
    ('a/*/b*/c', [
        ('IDENT', 'a', (1, 1, 1, 2)),
        ('IDENT', 'c', (1, 8, 1, 9)),
        ('EOF', '', (1, 9, 1, 9)),
    ]),
    ('/**/', [('EOF', '', (1, 5, 1, 5))]),
    ('a/**/b', [
        ('IDENT', 'a', (1, 1, 1, 2)),
        ('IDENT', 'b', (1, 6, 1, 7)),
        ('EOF', '', (1, 7, 1, 7)),
    ]),
    ('a\n\n  b /* c\n\n */ d', [
        ('IDENT', 'a', (1, 1, 1, 2)),
        ('IDENT', 'b', (3, 3, 3, 4)),
        ('IDENT', 'd', (5, 5, 5, 6)),
        ('EOF', '', (5, 6, 5, 6)),
    ]),
    ('// only comment', [('EOF', '', (1, 16, 1, 16))]),
    ('a // c', [('IDENT', 'a', (1, 1, 1, 2)), ('EOF', '', (1, 7, 1, 7))]),
    ('a//b\nc', [
        ('IDENT', 'a', (1, 1, 1, 2)),
        ('IDENT', 'c', (2, 1, 2, 2)),
        ('EOF', '', (2, 2, 2, 2)),
    ]),
    ('"abc', 'unterminated string literal', (1, 1, 1, 5)),
    ('"abc\ndef"', 'unterminated string literal', (1, 1, 1, 5)),
    ('"a\\q"', 'unknown escape \\q', (1, 1, 1, 4)),
    ('"a\\', 'unknown escape \\', (1, 1, 1, 4)),
    ('"a\\\n"', 'unknown escape \\\n', (1, 1, 1, 4)),
    ('"unterminated at eof\\', 'unknown escape \\', (1, 1, 1, 22)),
    ('""', [('STRING_LIT', '', (1, 1, 1, 3)), ('EOF', '', (1, 3, 1, 3))]),
    ('"\\n\\t\\"\\\\"', [
        ('STRING_LIT', '\n\t"\\', (1, 1, 1, 11)),
        ('EOF', '', (1, 11, 1, 11)),
    ]),
    ('"é"', [('STRING_LIT', 'é', (1, 1, 1, 4)), ('EOF', '', (1, 4, 1, 4))]),
    ('"a\tb"', [
        ('STRING_LIT', 'a\tb', (1, 1, 1, 6)),
        ('EOF', '', (1, 6, 1, 6)),
    ]),
    ('"x" "y"', [
        ('STRING_LIT', 'x', (1, 1, 1, 4)),
        ('STRING_LIT', 'y', (1, 5, 1, 8)),
        ('EOF', '', (1, 8, 1, 8)),
    ]),
    ('12ab', "malformed number near '12a'", (1, 1, 1, 3)),
    ('12$', "malformed number near '12$'", (1, 1, 1, 3)),
    ('12_', "malformed number near '12_'", (1, 1, 1, 3)),
    ('1é', "malformed number near '1é'", (1, 1, 1, 2)),
    ('x = 1 ½', "unexpected character '½'", (1, 7, 1, 7)),
    ('a½ b', [
        ('IDENT', 'a½', (1, 1, 1, 3)),
        ('IDENT', 'b', (1, 4, 1, 5)),
        ('EOF', '', (1, 5, 1, 5)),
    ]),
    ('é ²', [
        ('IDENT', 'é', (1, 1, 1, 2)),
        ('INT_LIT', '²', (1, 3, 1, 4)),
        ('EOF', '', (1, 4, 1, 4)),
    ]),
    ('²3 x', [
        ('INT_LIT', '²3', (1, 1, 1, 3)),
        ('IDENT', 'x', (1, 4, 1, 5)),
        ('EOF', '', (1, 5, 1, 5)),
    ]),
    ('12²', [('INT_LIT', '12²', (1, 1, 1, 4)), ('EOF', '', (1, 4, 1, 4))]),
    ('½', "unexpected character '½'", (1, 1, 1, 1)),
    ('¹x', "malformed number near '¹x'", (1, 1, 1, 2)),
    ('𝟘1', [('INT_LIT', '𝟘1', (1, 1, 1, 3)), ('EOF', '', (1, 3, 1, 3))]),
    ('٣٤ x٣', [
        ('INT_LIT', '٣٤', (1, 1, 1, 3)),
        ('IDENT', 'x٣', (1, 4, 1, 6)),
        ('EOF', '', (1, 6, 1, 6)),
    ]),
    ('1٣a', "malformed number near '1٣a'", (1, 1, 1, 3)),
    ('Ⅻ', "unexpected character 'Ⅻ'", (1, 1, 1, 1)),
    ('ﬁx', [('IDENT', 'ﬁx', (1, 1, 1, 3)), ('EOF', '', (1, 3, 1, 3))]),
    ('α β', [
        ('IDENT', 'α', (1, 1, 1, 2)),
        ('IDENT', 'β', (1, 3, 1, 4)),
        ('EOF', '', (1, 4, 1, 4)),
    ]),
    ('x̀', "unexpected character '̀'", (1, 2, 1, 2)),
    ('a\r\nb\r\n', [
        ('IDENT', 'a', (1, 1, 1, 2)),
        ('IDENT', 'b', (2, 1, 2, 2)),
        ('EOF', '', (3, 1, 3, 1)),
    ]),
    ('\ta\t\tb', [
        ('IDENT', 'a', (1, 2, 1, 3)),
        ('IDENT', 'b', (1, 5, 1, 6)),
        ('EOF', '', (1, 6, 1, 6)),
    ]),
    ('a\rb', [
        ('IDENT', 'a', (1, 1, 1, 2)),
        ('IDENT', 'b', (1, 3, 1, 4)),
        ('EOF', '', (1, 4, 1, 4)),
    ]),
    ('a == b', [
        ('IDENT', 'a', (1, 1, 1, 2)),
        ('OPERATOR', '=', (1, 3, 1, 5)),
        ('IDENT', 'b', (1, 6, 1, 7)),
        ('EOF', '', (1, 7, 1, 7)),
    ]),
    ('a === b', [
        ('IDENT', 'a', (1, 1, 1, 2)),
        ('OPERATOR', '=', (1, 3, 1, 5)),
        ('OPERATOR', '=', (1, 5, 1, 6)),
        ('IDENT', 'b', (1, 7, 1, 8)),
        ('EOF', '', (1, 8, 1, 8)),
    ]),
    ('a=b==c', [
        ('IDENT', 'a', (1, 1, 1, 2)),
        ('OPERATOR', '=', (1, 2, 1, 3)),
        ('IDENT', 'b', (1, 3, 1, 4)),
        ('OPERATOR', '=', (1, 4, 1, 6)),
        ('IDENT', 'c', (1, 6, 1, 7)),
        ('EOF', '', (1, 7, 1, 7)),
    ]),
    ('x=\xa0y', "unexpected character '\\xa0'", (1, 3, 1, 3)),
    ('\x0c', "unexpected character '\\x0c'", (1, 1, 1, 1)),
    ('@', "unexpected character '@'", (1, 1, 1, 1)),
    ('a\u2028b', "unexpected character '\\u2028'", (1, 2, 1, 2)),
    ('x_ _ _1 __ $a $ $1 1$', "malformed number near '1$'", (1, 20, 1, 21)),
    ('a._', [
        ('IDENT', 'a', (1, 1, 1, 2)),
        ('OPERATOR', '.', (1, 2, 1, 3)),
        ('OPERATOR', '_', (1, 3, 1, 4)),
        ('EOF', '', (1, 4, 1, 4)),
    ]),
    ('0x1F', "malformed number near '0x'", (1, 1, 1, 2)),
    ('3.14', [
        ('INT_LIT', '3', (1, 1, 1, 2)),
        ('OPERATOR', '.', (1, 2, 1, 3)),
        ('INT_LIT', '14', (1, 3, 1, 5)),
        ('EOF', '', (1, 5, 1, 5)),
    ]),
    ('a/b', [
        ('IDENT', 'a', (1, 1, 1, 2)),
        ('OPERATOR', '/', (1, 2, 1, 3)),
        ('IDENT', 'b', (1, 3, 1, 4)),
        ('EOF', '', (1, 4, 1, 4)),
    ]),
    ('&&||!=<=>===<>!+-*/%(){}[],;:.#|_', [
        ('OPERATOR', '&&', (1, 1, 1, 3)),
        ('OPERATOR', '||', (1, 3, 1, 5)),
        ('OPERATOR', '!=', (1, 5, 1, 7)),
        ('OPERATOR', '<=', (1, 7, 1, 9)),
        ('OPERATOR', '>=', (1, 9, 1, 11)),
        ('OPERATOR', '=', (1, 11, 1, 13)),
        ('OPERATOR', '<', (1, 13, 1, 14)),
        ('OPERATOR', '>', (1, 14, 1, 15)),
        ('OPERATOR', '!', (1, 15, 1, 16)),
        ('OPERATOR', '+', (1, 16, 1, 17)),
        ('OPERATOR', '-', (1, 17, 1, 18)),
        ('OPERATOR', '*', (1, 18, 1, 19)),
        ('OPERATOR', '/', (1, 19, 1, 20)),
        ('OPERATOR', '%', (1, 20, 1, 21)),
        ('OPERATOR', '(', (1, 21, 1, 22)),
        ('OPERATOR', ')', (1, 22, 1, 23)),
        ('OPERATOR', '{', (1, 23, 1, 24)),
        ('OPERATOR', '}', (1, 24, 1, 25)),
        ('OPERATOR', '[', (1, 25, 1, 26)),
        ('OPERATOR', ']', (1, 26, 1, 27)),
        ('OPERATOR', ',', (1, 27, 1, 28)),
        ('OPERATOR', ';', (1, 28, 1, 29)),
        ('OPERATOR', ':', (1, 29, 1, 30)),
        ('OPERATOR', '.', (1, 30, 1, 31)),
        ('OPERATOR', '#', (1, 31, 1, 32)),
        ('OPERATOR', '|', (1, 32, 1, 33)),
        ('OPERATOR', '_', (1, 33, 1, 34)),
        ('EOF', '', (1, 34, 1, 34)),
    ]),
    ('_', [('OPERATOR', '_', (1, 1, 1, 2)), ('EOF', '', (1, 2, 1, 2))]),
    ('__ _1 x_', [
        ('IDENT', '__', (1, 1, 1, 3)),
        ('IDENT', '_1', (1, 4, 1, 6)),
        ('IDENT', 'x_', (1, 7, 1, 9)),
        ('EOF', '', (1, 9, 1, 9)),
    ]),
    ('$a $ $1', [
        ('IDENT', '$a', (1, 1, 1, 3)),
        ('IDENT', '$', (1, 4, 1, 5)),
        ('IDENT', '$1', (1, 6, 1, 8)),
        ('EOF', '', (1, 8, 1, 8)),
    ]),
    ('a\n  bb\n\tc', [
        ('IDENT', 'a', (1, 1, 1, 2)),
        ('IDENT', 'bb', (2, 3, 2, 5)),
        ('IDENT', 'c', (3, 2, 3, 3)),
        ('EOF', '', (3, 3, 3, 3)),
    ]),
    ('é = ²;\n  ﬁx(½x)', "unexpected character '½'", (2, 6, 2, 6)),
    ('x½ ٣', [
        ('IDENT', 'x½', (1, 1, 1, 3)),
        ('INT_LIT', '٣', (1, 4, 1, 5)),
        ('EOF', '', (1, 5, 1, 5)),
    ]),
    ('&', "unexpected character '&'", (1, 1, 1, 1)),
    ('a & b', "unexpected character '&'", (1, 3, 1, 3)),
    ('a | | b', [
        ('IDENT', 'a', (1, 1, 1, 2)),
        ('OPERATOR', '|', (1, 3, 1, 4)),
        ('OPERATOR', '|', (1, 5, 1, 6)),
        ('IDENT', 'b', (1, 7, 1, 8)),
        ('EOF', '', (1, 8, 1, 8)),
    ]),
]


@pytest.mark.parametrize("case", EDGE_CASES, ids=lambda c: repr(c[0]))
def test_edge_case_matches_previous_scanner(case):
    source = case[0]
    if len(case) == 3:
        _, message, span = case
        with pytest.raises(LexError) as info:
            tokenize(source)
        got = info.value.span
        assert info.value.message == message
        assert (got.start.line, got.start.column,
                got.end.line, got.end.column) == span
        return
    got = [
        (t.kind.name, t.text, (t.span.start.line, t.span.start.column,
                               t.span.end.line, t.span.end.column))
        for t in tokenize(source)
    ]
    assert got == case[1]


# -- every token's span covers its own text ------------------------------

_FRAGMENTS = [
    "x", "Nat", "_", "_p", "a$b", "class", "switch", "é", "ﬁx", "x½",
    "0", "42", "²", "٣٤", "=", "==", "!=", "<=", "&&", "||", "|", "#",
    "(", ")", "{", "}", ";", ".", "-", "/", '"s"', '"a\\n\\"b"', '""',
]
_SEPARATORS = [" ", "\n", "\t", "\r\n", "  ", "/* c\n */", "// c\n"]


def _offsets(source):
    """(line, column) -> offset, for every position in ``source``."""
    table = {}
    line, column = 1, 1
    for offset, ch in enumerate(source + "\0"):
        table[(line, column)] = offset
        if ch == "\n":
            line, column = line + 1, 1
        else:
            column += 1
    return table


def _covered_text(tok, source, offsets):
    start = offsets[(tok.span.start.line, tok.span.start.column)]
    end = offsets[(tok.span.end.line, tok.span.end.column)]
    return source[start:end]


def _assert_spans_cover_text(source, tokens):
    offsets = _offsets(source)
    for tok in tokens[:-1]:
        covered = _covered_text(tok, source, offsets)
        if tok.kind == TokenKind.STRING_LIT:
            assert covered[0] == covered[-1] == '"'
            assert tokenize(covered)[0].text == tok.text
        elif tok.matches(TokenKind.OPERATOR, "=") and covered == "==":
            pass  # `==` is lexed as `=`
        else:
            assert covered == tok.text
    eof = tokens[-1]
    assert eof.is_eof
    assert offsets[(eof.span.start.line, eof.span.start.column)] == len(
        source
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_FRAGMENTS), st.sampled_from(_SEPARATORS)),
        max_size=30,
    )
)
def test_token_spans_index_their_text(pieces):
    source = "".join(fragment + separator for fragment, separator in pieces)
    _assert_spans_cover_text(source, tokenize(source))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(
    list("ab_$09 \t\r\n\"\\/*=!<>|&#.;éß²½٣Ⅻ\u0300\xa0")
), max_size=40))
def test_arbitrary_text_lexes_or_fails_inside_the_source(source):
    try:
        tokens = tokenize(source)
    except LexError as exc:
        offsets = _offsets(source)
        start = offsets[(exc.span.start.line, exc.span.start.column)]
        end = offsets[(exc.span.end.line, exc.span.end.column)]
        assert 0 <= start <= end <= len(source)
        return
    _assert_spans_cover_text(source, tokens)
