"""Recursive-descent parser for the SQL subset.

Grammar sketch (precedence low → high)::

    statement  := select ((UNION [ALL] | INTERSECT | EXCEPT) select)*
    select     := [WITH name AS (statement) [, ...]]
                  SELECT [DISTINCT] items FROM tables [WHERE or_expr]
                  [GROUP BY expr_list] [HAVING or_expr]
                  [ORDER BY order_items] [LIMIT number]
    tables     := (table [AS alias] | (statement) alias) [, ...]
    or_expr    := and_expr (OR and_expr)*
    and_expr   := not_expr (AND not_expr)*
    not_expr   := NOT not_expr | predicate
    predicate  := additive ( cmp (additive | ANY/SOME/ALL (statement))
                 | [NOT] LIKE string | IS [NOT] NULL
                 | [NOT] IN (statement | expr_list)
                 | [NOT] BETWEEN additive AND additive )?
                 | EXISTS (statement)
    additive   := multiplicative ((+|-) multiplicative)*
    multiplicative := unary ((*|/) unary)*
    unary      := - unary | primary
    primary    := number | string | NULL | TRUE | FALSE | CASE ... END
                 | name[.name] | func([DISTINCT] args|*) | (statement) | (or_expr)

DML (via :func:`parse_any`)::

    insert     := INSERT INTO table [(cols)] (VALUES rows | statement)
    delete     := DELETE FROM table [WHERE or_expr]
    update     := UPDATE table SET col = additive [, ...] [WHERE or_expr]

DDL (via :func:`parse_any`)::

    create_idx := CREATE INDEX name ON table ( column ) [USING method]
    drop_idx   := DROP INDEX name

Every ``(`` decides between a nested query block and a parenthesised
expression by one-token lookahead for ``SELECT``/``WITH``.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import Token, iter_tokens, tokenize

COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


def parse(text: str):
    """Parse a query: SELECT or a UNION/INTERSECT/EXCEPT chain."""
    parser = _Parser(tokenize(text))
    stmt = parser.parse_statement()
    parser.expect_eof()
    return stmt


#: Leading keyword -> (statement kind, the parser method that reads it).
_LEADING_KEYWORDS = {
    "insert": ("dml", "parse_insert"),
    "delete": ("dml", "parse_delete"),
    "update": ("dml", "parse_update"),
    "create": ("ddl", "parse_create_index"),
    "drop": ("ddl", "parse_drop_index"),
}
_QUERY = ("query", "parse_statement")


def _leading(token: Token) -> tuple[str, str]:
    return _LEADING_KEYWORDS.get(token.value, _QUERY) if token.kind == "keyword" else _QUERY


def statement_kind(text: str) -> str:
    """``"dml"``, ``"ddl"`` or ``"query"``, from the first significant token.

    The one place a statement text is classified: the lexer skips
    leading whitespace and comments, so ``-- note\nINSERT ...`` is DML
    here exactly as it is for :func:`parse_any`.  Only that token is
    lexed — ``Database.execute`` and the server's gate choice both call
    this before the statement's one full parse.
    """
    return _leading(next(iter_tokens(text)))[0]


def parse_any(text: str):
    """Parse any supported statement, including INSERT/DELETE/UPDATE."""
    parser = _Parser(tokenize(text))
    stmt = getattr(parser, _leading(parser.current)[1])()
    parser.expect_eof()
    return stmt


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.position = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        self.position += 1
        return token

    def error(self, message: str) -> ParseError:
        token = self.current
        return ParseError(f"{message}, found {token.describe()}", token.line, token.column)

    def accept_keyword(self, *words: str) -> bool:
        if self.current.is_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.error(f"expected {word.upper()}")

    def accept_op(self, *ops: str) -> bool:
        if self.current.is_op(*ops):
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise self.error(f"expected {op!r}")

    def expect_ident(self) -> str:
        if self.current.kind != "ident":
            raise self.error("expected identifier")
        return self.advance().value

    def expect_eof(self) -> None:
        if self.current.kind != "eof":
            raise self.error("expected end of input")

    # -- statements -------------------------------------------------------------

    def parse_statement(self):
        """A select, or a left-associative set-operation chain."""
        left = self.parse_select()
        while self.current.is_keyword("union", "intersect", "except"):
            op = self.advance().value
            all_flag = False
            if op == "union" and self.accept_keyword("all"):
                all_flag = True
            right = self.parse_select()
            left = ast.SetOpStmt(op, left, right, all_flag)
        return left

    # -- DML ---------------------------------------------------------------------

    def parse_insert(self) -> ast.InsertStmt:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_ident()
        columns: list[str] = []
        if self.current.is_op("("):
            self.advance()
            columns.append(self.expect_ident())
            while self.accept_op(","):
                columns.append(self.expect_ident())
            self.expect_op(")")
        if self.accept_keyword("values"):
            rows = [self._parse_value_row()]
            while self.accept_op(","):
                rows.append(self._parse_value_row())
            return ast.InsertStmt(table, tuple(columns), tuple(rows))
        query = self.parse_statement()
        return ast.InsertStmt(table, tuple(columns), (), query)

    def _parse_value_row(self) -> tuple:
        self.expect_op("(")
        values = [self.parse_additive()]
        while self.accept_op(","):
            values.append(self.parse_additive())
        self.expect_op(")")
        return tuple(values)

    def parse_delete(self) -> ast.DeleteStmt:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.expect_ident()
        where = None
        if self.accept_keyword("where"):
            where = self.parse_or()
        return ast.DeleteStmt(table, where)

    def parse_update(self) -> ast.UpdateStmt:
        self.expect_keyword("update")
        table = self.expect_ident()
        self.expect_keyword("set")
        assignments = [self._parse_assignment()]
        while self.accept_op(","):
            assignments.append(self._parse_assignment())
        where = None
        if self.accept_keyword("where"):
            where = self.parse_or()
        return ast.UpdateStmt(table, tuple(assignments), where)

    def _parse_assignment(self) -> tuple:
        column = self.expect_ident()
        self.expect_op("=")
        value = self.parse_additive()
        return (column, value)

    # -- DDL ---------------------------------------------------------------------

    def parse_create_index(self) -> ast.CreateIndexStmt:
        self.expect_keyword("create")
        self.expect_keyword("index")
        name = self.expect_ident()
        self.expect_keyword("on")
        table = self.expect_ident()
        self.expect_op("(")
        column = self.expect_ident()
        self.expect_op(")")
        method = "hash"
        # USING is not a reserved word; match the ident by value.
        if self.current.kind == "ident" and self.current.value == "using":
            self.advance()
            method = self.expect_ident()
        return ast.CreateIndexStmt(name, table, column, method)

    def parse_drop_index(self) -> ast.DropIndexStmt:
        self.expect_keyword("drop")
        self.expect_keyword("index")
        return ast.DropIndexStmt(self.expect_ident())

    def parse_select(self) -> ast.SelectStmt:
        ctes: list[tuple[str, ast.SelectStmt]] = []
        if self.accept_keyword("with"):
            while True:
                name = self.expect_ident()
                self.expect_keyword("as")
                self.expect_op("(")
                definition = self.parse_statement()
                self.expect_op(")")
                ctes.append((name, definition))
                if not self.accept_op(","):
                    break
        stmt = self._parse_select_body()
        if ctes:
            stmt = ast.SelectStmt(
                items=stmt.items, tables=stmt.tables, where=stmt.where,
                group_by=stmt.group_by, having=stmt.having,
                order_by=stmt.order_by, limit=stmt.limit,
                distinct=stmt.distinct, ctes=tuple(ctes),
            )
        return stmt

    def _parse_select_body(self) -> ast.SelectStmt:
        self.expect_keyword("select")
        distinct = bool(self.accept_keyword("distinct"))
        if self.accept_keyword("all") and distinct:
            raise self.error("cannot combine DISTINCT and ALL")

        items = [self.parse_select_item()]
        while self.accept_op(","):
            items.append(self.parse_select_item())

        self.expect_keyword("from")
        tables = [self.parse_table_ref()]
        while self.accept_op(","):
            tables.append(self.parse_table_ref())

        where = None
        if self.accept_keyword("where"):
            where = self.parse_or()

        group_by: list[ast.Node] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.parse_additive())
            while self.accept_op(","):
                group_by.append(self.parse_additive())

        having = None
        if self.accept_keyword("having"):
            having = self.parse_or()

        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self.parse_order_item())
            while self.accept_op(","):
                order_by.append(self.parse_order_item())

        limit = None
        if self.accept_keyword("limit"):
            token = self.current
            if token.kind != "number" or not isinstance(token.value, int):
                raise self.error("expected integer after LIMIT")
            limit = self.advance().value

        return ast.SelectStmt(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def parse_select_item(self) -> ast.SelectItem:
        if self.current.is_op("*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        expr = self.parse_additive()
        # ``t.*`` is produced by parse_primary as Star(qualifier).
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.current.kind == "ident":
            alias = self.advance().value
        return ast.SelectItem(expr, alias)

    def parse_table_ref(self) -> ast.TableRef:
        if self.accept_op("("):
            query = self.parse_statement()
            self.expect_op(")")
            if self.accept_keyword("as"):
                alias = self.expect_ident()
            elif self.current.kind == "ident":
                alias = self.advance().value
            else:
                raise self.error("derived table requires an alias")
            return ast.TableRef("", alias, subquery=query)
        table = self.expect_ident()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.current.kind == "ident":
            alias = self.advance().value
        return ast.TableRef(table, alias)

    def parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_additive()
        ascending = True
        if self.accept_keyword("desc"):
            ascending = False
        else:
            self.accept_keyword("asc")
        return ast.OrderItem(expr, ascending)

    # -- boolean expressions -------------------------------------------------

    def parse_or(self) -> ast.Node:
        items = [self.parse_and()]
        while self.accept_keyword("or"):
            items.append(self.parse_and())
        if len(items) == 1:
            return items[0]
        return ast.BoolOp("or", tuple(items))

    def parse_and(self) -> ast.Node:
        items = [self.parse_not()]
        while self.accept_keyword("and"):
            items.append(self.parse_not())
        if len(items) == 1:
            return items[0]
        return ast.BoolOp("and", tuple(items))

    def parse_not(self) -> ast.Node:
        if self.accept_keyword("not"):
            return ast.UnaryOp("not", self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> ast.Node:
        if self.current.is_keyword("exists"):
            self.advance()
            self.expect_op("(")
            query = self.parse_statement()
            self.expect_op(")")
            return ast.ExistsOp(query)

        left = self.parse_additive()

        if self.current.is_op(*COMPARISONS):
            op = self.advance().value
            if self.current.is_keyword("any", "some", "all"):
                quantifier = "all" if self.advance().value == "all" else "any"
                self.expect_op("(")
                query = self.parse_statement()
                self.expect_op(")")
                return ast.QuantifiedOp(left, op, quantifier, query)
            right = self.parse_additive()
            return ast.BinaryOp(op, left, right)

        negated = bool(self.accept_keyword("not"))

        if self.accept_keyword("like"):
            token = self.current
            if token.kind != "string":
                raise self.error("expected string literal after LIKE")
            pattern = self.advance().value
            return ast.LikeOp(left, pattern, negated)

        if self.accept_keyword("between"):
            low = self.parse_additive()
            self.expect_keyword("and")
            high = self.parse_additive()
            return ast.BetweenOp(left, low, high, negated)

        if self.accept_keyword("in"):
            self.expect_op("(")
            if self.current.is_keyword("select", "with"):
                query = self.parse_statement()
                self.expect_op(")")
                return ast.InSubqueryOp(left, query, negated)
            values = [self.parse_additive()]
            while self.accept_op(","):
                values.append(self.parse_additive())
            self.expect_op(")")
            return ast.InListOp(left, tuple(values), negated)

        if self.accept_keyword("is"):
            is_negated = bool(self.accept_keyword("not"))
            self.expect_keyword("null")
            return ast.IsNullOp(left, is_negated)

        if negated:
            raise self.error("expected LIKE, BETWEEN or IN after NOT")
        return left

    # -- arithmetic -------------------------------------------------------------

    def parse_additive(self) -> ast.Node:
        left = self.parse_multiplicative()
        while self.current.is_op("+", "-"):
            op = self.advance().value
            right = self.parse_multiplicative()
            left = ast.BinaryOp(op, left, right)
        return left

    def parse_multiplicative(self) -> ast.Node:
        left = self.parse_unary()
        while self.current.is_op("*", "/"):
            op = self.advance().value
            right = self.parse_unary()
            left = ast.BinaryOp(op, left, right)
        return left

    def parse_unary(self) -> ast.Node:
        if self.accept_op("-"):
            return ast.UnaryOp("-", self.parse_unary())
        if self.accept_op("+"):
            return self.parse_unary()
        return self.parse_primary()

    # -- primaries --------------------------------------------------------------

    def parse_primary(self) -> ast.Node:
        token = self.current

        if token.kind == "number" or token.kind == "string":
            self.advance()
            return ast.Constant(token.value)

        if token.kind == "param":
            self.advance()
            return ast.Parameter(token.value)

        if token.is_keyword("null"):
            self.advance()
            return ast.Constant(None)
        if token.is_keyword("true"):
            self.advance()
            return ast.Constant(True)
        if token.is_keyword("false"):
            self.advance()
            return ast.Constant(False)

        if token.is_keyword("case"):
            return self.parse_case()

        # Aggregate keywords double as function names.
        if token.is_keyword("count", "sum", "avg", "min", "max"):
            name = self.advance().value
            return self.parse_call(name)

        if token.is_op("("):
            self.advance()
            if self.current.is_keyword("select", "with"):
                query = self.parse_statement()
                self.expect_op(")")
                return ast.Subquery(query)
            inner = self.parse_or()
            self.expect_op(")")
            return inner

        if token.kind == "ident":
            name = self.advance().value
            if self.current.is_op("("):
                return self.parse_call(name)
            if self.current.is_op("."):
                self.advance()
                if self.current.is_op("*"):
                    self.advance()
                    return ast.Star(qualifier=name)
                column = self.expect_ident()
                return ast.Name(column, qualifier=name)
            return ast.Name(name)

        raise self.error("expected expression")

    def parse_call(self, name: str) -> ast.Node:
        self.expect_op("(")
        distinct = bool(self.accept_keyword("distinct"))
        if self.current.is_op("*"):
            self.advance()
            self.expect_op(")")
            return ast.FuncCall(name, (ast.Star(),), distinct)
        if self.current.is_op(")"):
            self.advance()
            return ast.FuncCall(name, (), distinct)
        args = [self.parse_additive()]
        while self.accept_op(","):
            args.append(self.parse_additive())
        self.expect_op(")")
        return ast.FuncCall(name, tuple(args), distinct)

    def parse_case(self) -> ast.Node:
        self.expect_keyword("case")
        branches: list[tuple[ast.Node, ast.Node]] = []
        while self.accept_keyword("when"):
            condition = self.parse_or()
            self.expect_keyword("then")
            value = self.parse_additive()
            branches.append((condition, value))
        if not branches:
            raise self.error("CASE requires at least one WHEN branch")
        default = None
        if self.accept_keyword("else"):
            default = self.parse_additive()
        self.expect_keyword("end")
        return ast.CaseExpr(tuple(branches), default)
