"""SQL front-end: lexer, parser, binder, canonical translation.

The subset covers everything the paper's queries need, and a bit more:

* ``SELECT [DISTINCT] items FROM tables [WHERE pred] [ORDER BY ...] [LIMIT n]``
* arbitrary boolean nesting of AND/OR/NOT in WHERE;
* scalar subqueries (``A1 = (SELECT MIN(x) FROM ...)``) anywhere an
  expression may occur, arbitrarily deeply nested and correlated;
* quantified table subqueries: ``[NOT] EXISTS``, ``[NOT] IN``,
  ``op ANY/SOME/ALL`` (technical-report extension);
* aggregate functions COUNT/SUM/AVG/MIN/MAX with DISTINCT and ``*``;
* ``LIKE``, ``IS [NOT] NULL``, ``IN (value list)``, ``CASE``, arithmetic.

:func:`translate` produces the paper's *canonical translation*: one
logical plan per query block; subqueries appear as nested algebraic
expressions inside selection subscripts.
"""

from repro.sql.parser import parse, statement_kind
from repro.sql.translate import translate, TranslationResult
from repro.sql.classify import classify, QueryClass, KimType, NestingStructure

__all__ = [
    "parse",
    "statement_kind",
    "translate",
    "TranslationResult",
    "classify",
    "QueryClass",
    "KimType",
    "NestingStructure",
]
