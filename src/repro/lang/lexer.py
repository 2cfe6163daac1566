"""Lexer for the JMatch 2.0 subset.

One compiled master regex, matched token by token (maximal munch: the
operator alternatives are tried longest first, in ``OPERATORS`` order).
A bare ``_`` is its own token (the wildcard pattern); identifiers may
still contain underscores elsewhere (``create$foo``-style names from
the translation of Section 6.1 use ``$``, which is allowed in
identifier tails like in Java).

Character classes follow ``str`` semantics exactly, non-ASCII included:
an identifier starts with an ``isalpha`` character, ``_`` or ``$`` and
continues with ``isalnum`` characters, ``_`` or ``$`` (which is what
the regex ``[\\w$]`` matches); a number is a run of ``isdigit``
characters.  ASCII words and numbers take the regex fast path; a word
led by anything else is classified here with the ``str`` predicates.
Positions are 1-based lines and columns counted in code points: the
lexer keeps the current line and the offset where it starts, and
advances them by the newlines in each run of trivia.
"""

from __future__ import annotations

import re

from ..errors import LexError, Position, Span
from .tokens import KEYWORDS, OPERATORS, Token, TokenKind

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# ``_`` is listed among the operators but always lexes as a word first.
_OPERATOR_PATTERN = "|".join(re.escape(op) for op in OPERATORS if op != "_")

_TOKEN = re.compile(
    # whitespace and complete comments, as one run
    r"(?P<trivia>(?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)+)"
    # an identifier, keyword or wildcard with an ASCII start
    r"|(?P<word>[A-Za-z_$][\w$]*)"
    # an ASCII number not running into an identifier character
    r"|(?P<int>[0-9]+(?![\w$]))"
    # a well-formed string literal
    r'|(?P<string>"[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*")'
    # an unterminated block comment (a terminated one is trivia)
    r"|(?P<comment>/\*)"
    r"|(?P<op>" + _OPERATOR_PATTERN + r")"
    # everything else: non-ASCII-led words, malformed numbers and
    # strings, stray characters -- classified by ``_irregular``
    r"|(?P<other>[\w$]+|[\s\S])"
)

# The longest prefix of a malformed string literal that is still valid.
_STRING_PREFIX = re.compile(r'"[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*')
_ESCAPE = re.compile(r"\\(.)")

_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
_OPERATOR = TokenKind.OPERATOR
_INT = TokenKind.INT_LIT
_STRING = TokenKind.STRING_LIT


def _ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_" or ch == "$"


def _position_at(source: str, offset: int) -> Position:
    """The line/column of ``offset``, counted from the start of ``source``."""
    line_start = source.rfind("\n", 0, offset) + 1
    return Position(source.count("\n", 0, offset) + 1, offset - line_start + 1)


def _word_kind(text: str) -> TokenKind:
    if text == "_":
        return _OPERATOR
    return _KEYWORD if text in KEYWORDS else _IDENT


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Scan the entire source into a token list ending with EOF."""
    out: list[Token] = []
    append = out.append
    line = 1
    line_start = 0
    for match in _TOKEN.finditer(source):
        group = match.lastgroup
        text = match.group()
        begin = match.start()
        if group == "trivia":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = begin + text.rindex("\n") + 1
            continue
        if group == "word":
            kind = _word_kind(text)
        elif group == "op":
            kind = _OPERATOR
            if text == "==":
                # `==` is accepted as a synonym for JMatch's `=` equality.
                text = "="
        elif group == "int":
            kind = _INT
        elif group == "string":
            kind = _STRING
            text = text[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(lambda m: _ESCAPES[m.group(1)], text)
        else:
            kind = _irregular(source, filename, group, text, begin)
        column = begin - line_start + 1
        append(Token(kind, text, Span(
            Position(line, column),
            Position(line, column + match.end() - begin),
            filename,
        )))
    end = Position(line, len(source) - line_start + 1)
    append(Token(TokenKind.EOF, "", Span(end, end, filename)))
    return out


def _irregular(
    source: str, filename: str, group: str, text: str, begin: int
) -> TokenKind:
    """The kind of an ``other``/``comment`` match, or its ``LexError``.

    Only a word led by a non-ASCII letter or digit survives (an
    identifier or number); everything else here is malformed input.
    """
    start = _position_at(source, begin)

    def error(message: str, end_offset: int) -> LexError:
        end = _position_at(source, end_offset)
        return LexError(message, Span(start, end, filename))

    if group == "comment":
        raise error("unterminated block comment", len(source))
    first = text[0]
    if first == '"':
        stop = _STRING_PREFIX.match(source, begin).end()
        if source.startswith("\\", stop):
            escape = source[stop + 1 : stop + 2]
            raise error(f"unknown escape \\{escape}", stop + 1)
        raise error("unterminated string literal", stop)
    if first.isdigit():
        for index, ch in enumerate(text):
            if not ch.isdigit():
                if _ident_start(ch):
                    raise error(
                        f"malformed number near "
                        f"{source[begin:begin + index + 1]!r}",
                        begin + index,
                    )
                # ``ch`` is alphanumeric but neither a letter nor a
                # digit (say ``½``): no token can start with it.
                at = _position_at(source, begin + index)
                raise LexError(
                    f"unexpected character {ch!r}", Span(at, at, filename)
                )
        return _INT
    if _ident_start(first):
        return _word_kind(text)
    raise LexError(f"unexpected character {first!r}", Span(start, start, filename))
