"""A hand-written SQL lexer.

Produces a flat token list consumed by the recursive-descent parser.
Identifiers are case-folded to lower case; keywords are recognised
case-insensitively.  String literals use single quotes with ``''`` as the
escape; numbers are int or float literals.  ``--`` line comments and
``/* */`` block comments are skipped.

Prepared-statement placeholders lex as ``param`` tokens: ``?`` is
positional (the token value is the 0-based occurrence index) and
``:name`` is named (the value is the case-folded name).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import LexError

KEYWORDS = frozenset(
    """
    select distinct from where and or not in like is null exists
    between case when then else end as order by asc desc limit
    union all any some intersect except group having count sum avg min max
    true false with insert into values delete update set
    create drop index on
    """.split()
)

#: Multi- and single-character operator tokens, longest first.
OPERATORS = ("<>", "<=", ">=", "!=", "=", "<", ">", "(", ")", ",", "+", "-", "*", "/", ".")


@dataclass(frozen=True)
class Token:
    """One lexical token.

    ``kind`` is ``ident``, ``keyword``, ``number``, ``string``, ``op``,
    ``param`` or ``eof``; ``value`` is the case-folded identifier /
    keyword, the parsed literal, the operator spelling, or the parameter
    key (an ``int`` for ``?``, a ``str`` for ``:name``).
    """

    kind: str
    value: object
    line: int
    column: int

    def is_keyword(self, *words: str) -> bool:
        return self.kind == "keyword" and self.value in words

    def is_op(self, *ops: str) -> bool:
        return self.kind == "op" and self.value in ops

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        return f"{self.kind} {self.value!r}"


def tokenize(text: str) -> list[Token]:
    """Lex ``text`` into a token list ending with an ``eof`` token."""
    return list(iter_tokens(text))


def iter_tokens(text: str) -> Iterator[Token]:
    """Lex ``text`` lazily: one token per step, ``eof`` last.

    A caller that needs only the leading keyword (statement
    classification) stops after the first token and never pays for, or
    trips over, the rest of the text.
    """
    position = 0
    line = 1
    line_start = 0
    length = len(text)
    positional_count = 0

    def column() -> int:
        return position - line_start + 1

    while position < length:
        char = text[position]

        if char == "\n":
            line += 1
            position += 1
            line_start = position
            continue
        if char in " \t\r":
            position += 1
            continue

        # Comments.
        if text.startswith("--", position):
            end = text.find("\n", position)
            position = length if end == -1 else end
            continue
        if text.startswith("/*", position):
            end = text.find("*/", position + 2)
            if end == -1:
                raise LexError("unterminated block comment", line, column())
            for i in range(position, end):
                if text[i] == "\n":
                    line += 1
                    line_start = i + 1
            position = end + 2
            continue

        # String literals.
        if char == "'":
            start_line, start_col = line, column()
            position += 1
            pieces: list[str] = []
            while True:
                if position >= length:
                    raise LexError("unterminated string literal", start_line, start_col)
                current = text[position]
                if current == "'":
                    if position + 1 < length and text[position + 1] == "'":
                        pieces.append("'")
                        position += 2
                        continue
                    position += 1
                    break
                if current == "\n":
                    line += 1
                    line_start = position + 1
                pieces.append(current)
                position += 1
            yield Token("string", "".join(pieces), start_line, start_col)
            continue

        # Numbers.
        if char.isdigit() or (char == "." and position + 1 < length and text[position + 1].isdigit()):
            start_col = column()
            start = position
            seen_dot = False
            while position < length and (text[position].isdigit() or (text[position] == "." and not seen_dot)):
                if text[position] == ".":
                    # A dot not followed by a digit terminates the number
                    # (it is the qualification operator: ``t.col``).
                    if position + 1 >= length or not text[position + 1].isdigit():
                        break
                    seen_dot = True
                position += 1
            literal = text[start:position]
            value: object = float(literal) if "." in literal else int(literal)
            yield Token("number", value, line, start_col)
            continue

        # Identifiers and keywords.
        if char.isalpha() or char == "_":
            start_col = column()
            start = position
            while position < length and (text[position].isalnum() or text[position] == "_"):
                position += 1
            word = text[start:position].lower()
            kind = "keyword" if word in KEYWORDS else "ident"
            yield Token(kind, word, line, start_col)
            continue

        # Parameter placeholders: ``?`` (positional) and ``:name`` (named).
        if char == "?":
            yield Token("param", positional_count, line, column())
            positional_count += 1
            position += 1
            continue
        if char == ":":
            start_col = column()
            position += 1
            start = position
            while position < length and (text[position].isalnum() or text[position] == "_"):
                position += 1
            name = text[start:position]
            if not name or name[0].isdigit():
                raise LexError("expected parameter name after ':'", line, start_col)
            yield Token("param", name.lower(), line, start_col)
            continue

        # Quoted identifiers ("name") — kept verbatim, case preserved.
        if char == '"':
            start_line, start_col = line, column()
            end = text.find('"', position + 1)
            if end == -1:
                raise LexError("unterminated quoted identifier", start_line, start_col)
            yield Token("ident", text[position + 1 : end], start_line, start_col)
            position = end + 1
            continue

        # Operators.
        for op in OPERATORS:
            if text.startswith(op, position):
                spelling = "<>" if op == "!=" else op
                yield Token("op", spelling, line, column())
                position += len(op)
                break
        else:
            raise LexError(f"unexpected character {char!r}", line, column())

    yield Token("eof", None, line, column())
