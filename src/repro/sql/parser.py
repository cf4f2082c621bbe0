"""Recursive-descent SQL parser.

``parse_statement`` parses exactly one statement; ``parse_script`` parses
a ``;``-separated batch.  The grammar is documented inline per method.
``CREATE PROCEDURE ... AS <body>`` captures the body as raw text (like
T-SQL, the body extends to the end of the batch) and the engine parses it
lazily at EXEC time with parameters bound.
"""

from __future__ import annotations

import datetime

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.tokens import Token, TokenType

_JOIN_STARTERS = ("JOIN", "INNER", "LEFT", "RIGHT", "CROSS")
_INTERVAL_UNITS = ("YEAR", "MONTH", "DAY")


def parse_statement(sql: str) -> ast.Statement:
    """Parse a single SQL statement (trailing ``;`` allowed)."""
    parser = _Parser(sql)
    stmt = parser.parse_one()
    parser.accept_operator(";")
    parser.expect_end()
    return stmt


def parse_script(sql: str) -> list[ast.Statement]:
    """Parse a ``;``-separated batch of statements."""
    parser = _Parser(sql)
    statements: list[ast.Statement] = []
    while not parser.at_end():
        statements.append(parser.parse_one())
        if not parser.accept_operator(";"):
            break
    parser.expect_end()
    return statements


class _Parser:
    def __init__(self, sql: str):
        self._sql = sql
        self._tokens = tokenize(sql)
        self._pos = 0

    # -- cursor helpers ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.END:
            self._pos += 1
        return token

    def at_end(self) -> bool:
        return self.peek().type is TokenType.END

    def error(self, message: str) -> SqlSyntaxError:
        token = self.peek()
        return SqlSyntaxError(
            f"{message} (near {token.value!r} at position {token.position})")

    def accept_keyword(self, *words: str) -> str | None:
        token = self.peek()
        if token.type is TokenType.KEYWORD and token.value in words:
            self.advance()
            return token.value
        return None

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.error(f"expected {word}")

    def accept_operator(self, op: str) -> bool:
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value == op:
            self.advance()
            return True
        return False

    def expect_operator(self, op: str) -> None:
        if not self.accept_operator(op):
            raise self.error(f"expected {op!r}")

    def expect_identifier(self) -> str:
        token = self.peek()
        if token.type is TokenType.IDENTIFIER:
            self.advance()
            return token.value
        # Non-reserved keywords usable as identifiers in practice.
        if token.type is TokenType.KEYWORD and token.value in (
                "DATE", "YEAR", "MONTH", "DAY", "KEY", "VALUES"):
            self.advance()
            return token.value.lower()
        raise self.error("expected identifier")

    def expect_integer(self) -> int:
        token = self.peek()
        if token.type is TokenType.NUMBER and "." not in token.value:
            self.advance()
            return int(token.value)
        raise self.error("expected integer")

    def expect_end(self) -> None:
        if not self.at_end():
            raise self.error("unexpected trailing input")

    # -- statements ----------------------------------------------------------

    def parse_one(self) -> ast.Statement:
        token = self.peek()
        if token.type is not TokenType.KEYWORD:
            raise self.error("expected a statement")
        word = token.value
        if word == "SELECT":
            return self.parse_select()
        if word == "EXPLAIN":
            self.advance()
            return ast.ExplainStatement(select=self.parse_select())
        if word == "ANALYZE":
            self.advance()
            table = None
            next_token = self.peek()
            if not (next_token.type is TokenType.END
                    or (next_token.type is TokenType.OPERATOR
                        and next_token.value == ";")):
                table = self.expect_identifier()
            return ast.AnalyzeStatement(table=table)
        if word == "INSERT":
            return self.parse_insert()
        if word == "UPDATE":
            return self.parse_update()
        if word == "DELETE":
            return self.parse_delete()
        if word == "CREATE":
            return self.parse_create()
        if word == "DROP":
            return self.parse_drop()
        if word in ("EXEC", "EXECUTE"):
            return self.parse_exec()
        if word == "BEGIN":
            self.advance()
            self.accept_keyword("TRANSACTION", "TRAN")
            return ast.BeginTransactionStatement()
        if word == "COMMIT":
            self.advance()
            self.accept_keyword("TRANSACTION", "TRAN")
            return ast.CommitStatement()
        if word == "ROLLBACK":
            self.advance()
            self.accept_keyword("TRANSACTION", "TRAN")
            return ast.RollbackStatement()
        raise self.error(f"unsupported statement {word}")

    # SELECT ---------------------------------------------------------------

    def parse_select(self):
        """A query expression: SELECT core (UNION [ALL] core)* [ORDER BY]
        [LIMIT].  Returns a SelectStatement, or a UnionSelect for chains.
        """
        selects = [self._select_core()]
        all_flags: list[bool] = []
        while self.accept_keyword("UNION"):
            all_flags.append(bool(self.accept_keyword("ALL")))
            selects.append(self._select_core())
        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._order_item())
            while self.accept_operator(","):
                order_by.append(self._order_item())
        top = None
        if self.accept_keyword("LIMIT"):
            top = self.expect_integer()
        if len(selects) == 1:
            select = selects[0]
            select.order_by = order_by
            if top is not None:
                select.top = top if select.top is None \
                    else min(select.top, top)
            return select
        return ast.UnionSelect(selects=selects, all_flags=all_flags,
                               order_by=order_by, top=top)

    def _select_core(self) -> ast.SelectStatement:
        """One SELECT without ORDER BY / LIMIT (those bind to the whole
        query expression)."""
        self.expect_keyword("SELECT")
        top = None
        if self.accept_keyword("TOP"):
            top = self.expect_integer()
        distinct = bool(self.accept_keyword("DISTINCT"))
        self.accept_keyword("ALL")
        select_items = self._select_list()
        from_items: list[ast.TableRef] = []
        if self.accept_keyword("FROM"):
            from_items = self._from_list()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        group_by: list[ast.Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_operator(","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self.accept_keyword("HAVING") else None
        return ast.SelectStatement(
            select_items=select_items, from_items=from_items, where=where,
            group_by=group_by, having=having, order_by=[],
            distinct=distinct, top=top)

    def _select_list(self) -> list[ast.SelectItem]:
        items = [self._select_item()]
        while self.accept_operator(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> ast.SelectItem:
        if self.accept_operator("*"):
            return ast.SelectItem(expr=ast.Star())
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif self.peek().type is TokenType.IDENTIFIER:
            alias = self.expect_identifier()
        return ast.SelectItem(expr=expr, alias=alias)

    def _order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr=expr, descending=descending)

    def _from_list(self) -> list[ast.TableRef]:
        refs = [self._table_ref()]
        while self.accept_operator(","):
            refs.append(self._table_ref())
        return refs

    def _table_ref(self) -> ast.TableRef:
        ref = self._primary_table_ref()
        while True:
            token = self.peek()
            if token.type is not TokenType.KEYWORD or \
                    token.value not in _JOIN_STARTERS:
                return ref
            kind = "inner"
            if self.accept_keyword("INNER"):
                pass
            elif self.accept_keyword("LEFT"):
                self.accept_keyword("OUTER")
                kind = "left"
            elif self.accept_keyword("RIGHT"):
                raise self.error("RIGHT JOIN is not supported; rewrite as LEFT")
            elif self.accept_keyword("CROSS"):
                kind = "cross"
            self.expect_keyword("JOIN")
            right = self._primary_table_ref()
            condition = None
            if kind != "cross":
                self.expect_keyword("ON")
                condition = self.parse_expr()
            ref = ast.Join(kind=kind, left=ref, right=right,
                           condition=condition)

    def _primary_table_ref(self) -> ast.TableRef:
        if self.accept_operator("("):
            select = self.parse_select()
            self.expect_operator(")")
            self.accept_keyword("AS")
            alias = self.expect_identifier()
            return ast.DerivedTable(select=select, alias=alias)
        name = self.expect_identifier()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif self.peek().type is TokenType.IDENTIFIER:
            alias = self.expect_identifier()
        return ast.TableName(name=name, alias=alias)

    # INSERT / UPDATE / DELETE ------------------------------------------------

    def parse_insert(self) -> ast.InsertStatement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier()
        columns: list[str] = []
        if self.accept_operator("("):
            columns.append(self.expect_identifier())
            while self.accept_operator(","):
                columns.append(self.expect_identifier())
            self.expect_operator(")")
        if self.accept_keyword("VALUES"):
            rows = [self._value_row()]
            while self.accept_operator(","):
                rows.append(self._value_row())
            return ast.InsertStatement(table=table, columns=columns,
                                       rows=rows)
        if self.peek().matches_keyword("SELECT"):
            select = self.parse_select()
            return ast.InsertStatement(table=table, columns=columns,
                                       select=select)
        raise self.error("expected VALUES or SELECT in INSERT")

    def _value_row(self) -> list[ast.Expr]:
        self.expect_operator("(")
        row = [self.parse_expr()]
        while self.accept_operator(","):
            row.append(self.parse_expr())
        self.expect_operator(")")
        return row

    def parse_update(self) -> ast.UpdateStatement:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier()
        self.expect_keyword("SET")
        assignments = [self._assignment()]
        while self.accept_operator(","):
            assignments.append(self._assignment())
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return ast.UpdateStatement(table=table, assignments=assignments,
                                   where=where)

    def _assignment(self) -> tuple[str, ast.Expr]:
        column = self.expect_identifier()
        self.expect_operator("=")
        return column, self.parse_expr()

    def parse_delete(self) -> ast.DeleteStatement:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_identifier()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return ast.DeleteStatement(table=table, where=where)

    # DDL ----------------------------------------------------------------------

    def parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self._create_table()
        unique = bool(self.accept_keyword("UNIQUE"))
        if self.accept_keyword("INDEX"):
            return self._create_index(unique)
        if unique:
            raise self.error("expected INDEX after UNIQUE")
        if self.accept_keyword("PROCEDURE", "PROC"):
            return self._create_procedure()
        if self.accept_keyword("VIEW"):
            return self._create_view()
        raise self.error("expected TABLE, INDEX, VIEW or PROCEDURE")

    def _create_table(self) -> ast.CreateTableStatement:
        """``CREATE TABLE name (column defs)`` or ``CREATE TABLE name AS
        <query>``."""
        name = self.expect_identifier()
        if self.accept_keyword("AS"):
            return ast.CreateTableStatement(name=name,
                                            query=self.parse_select())
        self.expect_operator("(")
        columns: list[ast.ColumnDef] = []
        primary_key: list[str] = []
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                self.expect_operator("(")
                primary_key.append(self.expect_identifier())
                while self.accept_operator(","):
                    primary_key.append(self.expect_identifier())
                self.expect_operator(")")
            else:
                columns.append(self._column_def(primary_key))
            if not self.accept_operator(","):
                break
        self.expect_operator(")")
        return ast.CreateTableStatement(name=name, columns=columns,
                                        primary_key=primary_key)

    def _column_def(self, primary_key: list[str]) -> ast.ColumnDef:
        name = self.expect_identifier()
        type_name, length = self._type_spec()
        nullable = True
        is_pk = False
        while True:
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                nullable = False
            elif self.accept_keyword("NULL"):
                nullable = True
            elif self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                is_pk = True
            else:
                break
        if is_pk:
            primary_key.append(name)
        return ast.ColumnDef(name=name, type_name=type_name, length=length,
                             nullable=nullable, primary_key=is_pk)

    def _type_spec(self) -> tuple[str, int]:
        token = self.peek()
        if token.type is TokenType.KEYWORD and token.value == "DATE":
            self.advance()
            return "DATE", 0
        type_name = self.expect_identifier().upper()
        length = 0
        if self.accept_operator("("):
            length = self.expect_integer()
            if self.accept_operator(","):
                self.expect_integer()  # scale: parsed, ignored
            self.expect_operator(")")
        return type_name, length

    def _create_index(self, unique: bool) -> ast.CreateIndexStatement:
        name = self.expect_identifier()
        self.expect_keyword("ON")
        table = self.expect_identifier()
        self.expect_operator("(")
        columns = [self.expect_identifier()]
        while self.accept_operator(","):
            columns.append(self.expect_identifier())
        self.expect_operator(")")
        return ast.CreateIndexStatement(name=name, table=table,
                                        columns=columns, unique=unique)

    def _create_procedure(self) -> ast.CreateProcedureStatement:
        name = self.expect_identifier()
        params: list[tuple[str, str]] = []
        wrapped = self.accept_operator("(")
        while self.peek().type is TokenType.PARAMETER:
            param = self.advance().value
            type_name, _length = self._type_spec()
            params.append((param, type_name))
            if not self.accept_operator(","):
                break
        if wrapped:
            self.expect_operator(")")
        self.expect_keyword("AS")
        # The body is the rest of the batch, captured as raw text.
        body_start = self.peek().position
        body_sql = self._sql[body_start:].rstrip().rstrip(";")
        if not body_sql.strip():
            raise self.error("empty procedure body")
        self._pos = len(self._tokens) - 1  # consume everything
        return ast.CreateProcedureStatement(name=name, params=params,
                                            body_sql=body_sql)

    def _create_view(self) -> ast.CreateViewStatement:
        name = self.expect_identifier()
        self.expect_keyword("AS")
        # Like a procedure body, the view definition is the rest of the
        # batch, captured as raw text and validated at CREATE time.
        body_start = self.peek().position
        body_sql = self._sql[body_start:].rstrip().rstrip(";")
        if not body_sql.strip():
            raise self.error("empty view definition")
        self._pos = len(self._tokens) - 1
        return ast.CreateViewStatement(name=name, body_sql=body_sql)

    def parse_drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            return ast.DropTableStatement(name=self.expect_identifier())
        if self.accept_keyword("INDEX"):
            return ast.DropIndexStatement(name=self.expect_identifier())
        if self.accept_keyword("PROCEDURE", "PROC"):
            return ast.DropProcedureStatement(name=self.expect_identifier())
        if self.accept_keyword("VIEW"):
            return ast.DropViewStatement(name=self.expect_identifier())
        raise self.error("expected TABLE, INDEX, VIEW or PROCEDURE")

    def parse_exec(self) -> ast.ExecStatement:
        self.accept_keyword("EXEC") or self.accept_keyword("EXECUTE")
        name = self.expect_identifier()
        args: list[ast.Expr] = []
        if not self.at_end() and not self.peek().matches_keyword("SELECT") \
                and not (self.peek().type is TokenType.OPERATOR
                         and self.peek().value == ";"):
            args.append(self.parse_expr())
            while self.accept_operator(","):
                args.append(self.parse_expr())
        return ast.ExecStatement(name=name, args=args)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        expr = self._and_expr()
        while self.accept_keyword("OR"):
            expr = ast.Binary(op="OR", left=expr, right=self._and_expr())
        return expr

    def _and_expr(self) -> ast.Expr:
        expr = self._not_expr()
        while self.accept_keyword("AND"):
            expr = ast.Binary(op="AND", left=expr, right=self._not_expr())
        return expr

    def _not_expr(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.Unary(op="NOT", operand=self._not_expr())
        return self._predicate()

    def _predicate(self) -> ast.Expr:
        if self.peek().matches_keyword("EXISTS"):
            self.advance()
            self.expect_operator("(")
            subquery = self.parse_select()
            self.expect_operator(")")
            return ast.Exists(subquery=subquery)
        expr = self._additive()
        negated = bool(self.accept_keyword("NOT"))
        if self.accept_keyword("BETWEEN"):
            low = self._additive()
            self.expect_keyword("AND")
            high = self._additive()
            return ast.Between(operand=expr, low=low, high=high,
                               negated=negated)
        if self.accept_keyword("IN"):
            return self._in_predicate(expr, negated)
        if self.accept_keyword("LIKE"):
            pattern = self._additive()
            return ast.Like(operand=expr, pattern=pattern, negated=negated)
        if negated:
            raise self.error("expected BETWEEN, IN or LIKE after NOT")
        if self.accept_keyword("IS"):
            negated = bool(self.accept_keyword("NOT"))
            self.expect_keyword("NULL")
            return ast.IsNull(operand=expr, negated=negated)
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value in (
                "=", "<>", "<", "<=", ">", ">="):
            op = self.advance().value
            right = self._additive()
            return ast.Binary(op=op, left=expr, right=right)
        return expr

    def _in_predicate(self, expr: ast.Expr, negated: bool) -> ast.Expr:
        self.expect_operator("(")
        if self.peek().matches_keyword("SELECT"):
            subquery = self.parse_select()
            self.expect_operator(")")
            return ast.InSubquery(operand=expr, subquery=subquery,
                                  negated=negated)
        items = [self.parse_expr()]
        while self.accept_operator(","):
            items.append(self.parse_expr())
        self.expect_operator(")")
        return ast.InList(operand=expr, items=items, negated=negated)

    def _additive(self) -> ast.Expr:
        expr = self._term()
        while True:
            token = self.peek()
            if token.type is TokenType.OPERATOR and token.value in (
                    "+", "-", "||"):
                op = self.advance().value
                expr = ast.Binary(op=op, left=expr, right=self._term())
            else:
                return expr

    def _term(self) -> ast.Expr:
        expr = self._factor()
        while True:
            token = self.peek()
            if token.type is TokenType.OPERATOR and token.value in ("*", "/"):
                op = self.advance().value
                expr = ast.Binary(op=op, left=expr, right=self._factor())
            else:
                return expr

    def _factor(self) -> ast.Expr:
        if self.accept_operator("-"):
            return ast.Unary(op="-", operand=self._factor())
        if self.accept_operator("+"):
            return self._factor()
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self.peek()
        if token.type is TokenType.NUMBER:
            self.advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if token.type is TokenType.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.type is TokenType.PARAMETER:
            self.advance()
            return ast.Param(name=token.value)
        if token.matches_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        if token.matches_keyword("DATE"):
            return self._date_literal()
        if token.matches_keyword("INTERVAL"):
            return self._interval_literal()
        if token.matches_keyword("CASE"):
            return self._case_expr()
        if token.type is TokenType.OPERATOR and token.value == "(":
            self.advance()
            if self.peek().matches_keyword("SELECT"):
                subquery = self.parse_select()
                self.expect_operator(")")
                return ast.ScalarSubquery(subquery=subquery)
            expr = self.parse_expr()
            self.expect_operator(")")
            return expr
        if token.type is TokenType.IDENTIFIER or token.type is TokenType.KEYWORD:
            return self._identifier_expr()
        raise self.error("expected an expression")

    def _date_literal(self) -> ast.Expr:
        self.expect_keyword("DATE")
        token = self.peek()
        if token.type is not TokenType.STRING:
            raise self.error("expected date string after DATE")
        self.advance()
        try:
            value = datetime.date.fromisoformat(token.value)
        except ValueError as exc:
            raise self.error(f"bad date literal {token.value!r}") from exc
        return ast.Literal(value)

    def _interval_literal(self) -> ast.Expr:
        self.expect_keyword("INTERVAL")
        token = self.peek()
        if token.type is TokenType.STRING:
            self.advance()
            amount = int(token.value)
        elif token.type is TokenType.NUMBER:
            self.advance()
            amount = int(token.value)
        else:
            raise self.error("expected amount after INTERVAL")
        unit = self.accept_keyword(*_INTERVAL_UNITS)
        if unit is None:
            raise self.error("expected YEAR, MONTH or DAY")
        return ast.Interval(amount=amount, unit=unit.lower())

    def _case_expr(self) -> ast.Expr:
        self.expect_keyword("CASE")
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expr()
            self.expect_keyword("THEN")
            result = self.parse_expr()
            whens.append((cond, result))
        if not whens:
            raise self.error("CASE requires at least one WHEN")
        else_result = None
        if self.accept_keyword("ELSE"):
            else_result = self.parse_expr()
        self.expect_keyword("END")
        return ast.CaseWhen(whens=whens, else_result=else_result)

    def _identifier_expr(self) -> ast.Expr:
        token = self.peek()
        name = self.expect_identifier() if token.type is TokenType.IDENTIFIER \
            else self._keyword_as_identifier()
        lowered = name.lower()
        if self.peek().type is TokenType.OPERATOR and self.peek().value == "(":
            return self._func_call(lowered)
        if self.accept_operator("."):
            if self.accept_operator("*"):
                return ast.Star(table=lowered)
            column = self.expect_identifier()
            return ast.ColumnRef(table=lowered, name=column.lower())
        return ast.ColumnRef(table=None, name=lowered)

    def _keyword_as_identifier(self) -> str:
        token = self.peek()
        if token.type is TokenType.KEYWORD and token.value in (
                "YEAR", "MONTH", "DAY", "KEY"):
            self.advance()
            return token.value.lower()
        raise self.error("expected an expression")

    def _func_call(self, name: str) -> ast.Expr:
        self.expect_operator("(")
        if name == "extract":
            field = self.accept_keyword("YEAR", "MONTH", "DAY")
            if field is None:
                raise self.error("EXTRACT field must be YEAR, MONTH or DAY")
            self.expect_keyword("FROM")
            operand = self.parse_expr()
            self.expect_operator(")")
            return ast.Extract(field_name=field.lower(), operand=operand)
        if name == "substring":
            operand = self.parse_expr()
            if self.accept_keyword("FROM"):
                start = self.parse_expr()
                length = None
                if self.accept_identifier_word("for"):
                    length = self.parse_expr()
            else:
                self.expect_operator(",")
                start = self.parse_expr()
                length = None
                if self.accept_operator(","):
                    length = self.parse_expr()
            self.expect_operator(")")
            args = [operand, start] + ([length] if length is not None else [])
            return ast.FuncCall(name="substring", args=args)
        if self.accept_operator("*"):
            self.expect_operator(")")
            return ast.FuncCall(name=name, star=True)
        distinct = bool(self.accept_keyword("DISTINCT"))
        args: list[ast.Expr] = []
        if not (self.peek().type is TokenType.OPERATOR
                and self.peek().value == ")"):
            args.append(self.parse_expr())
            while self.accept_operator(","):
                args.append(self.parse_expr())
        self.expect_operator(")")
        return ast.FuncCall(name=name, args=args, distinct=distinct)

    def accept_identifier_word(self, word: str) -> bool:
        """Accept a specific non-reserved word (e.g. FOR in SUBSTRING)."""
        token = self.peek()
        if token.type is TokenType.IDENTIFIER and token.value.lower() == word:
            self.advance()
            return True
        return False
