"""Abstract syntax tree node definitions.

Pure data — evaluation lives in :mod:`repro.sql.expressions` and planning
in :mod:`repro.sql.planner`.  Every node is a frozen-ish dataclass; the
parser is the only producer.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class Node:
    """Base class for AST nodes (statements and expressions)."""


class Expr(Node):
    """Base class for expression nodes."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Literal(Expr):
    """A constant: int, float, str, datetime.date or None."""

    value: object


@dataclass
class Interval(Expr):
    """``INTERVAL '3' MONTH`` — used only in date arithmetic."""

    amount: int
    unit: str  # 'year' | 'month' | 'day'


@dataclass
class ColumnRef(Expr):
    table: str | None
    name: str

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class Param(Expr):
    """A procedure parameter reference (``@name``)."""

    name: str


@dataclass
class Star(Expr):
    """``*`` or ``t.*`` in a select list (or ``COUNT(*)``)."""

    table: str | None = None


@dataclass
class Unary(Expr):
    op: str  # '-' | '+' | 'NOT'
    operand: Expr


@dataclass
class Binary(Expr):
    op: str  # + - * / || = <> < <= > >= AND OR
    left: Expr
    right: Expr


@dataclass
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class InList(Expr):
    operand: Expr
    items: list[Expr] = field(default_factory=list)
    negated: bool = False


@dataclass
class InSubquery(Expr):
    operand: Expr
    subquery: "SelectStatement" = None
    negated: bool = False


@dataclass
class Exists(Expr):
    subquery: "SelectStatement"
    negated: bool = False


@dataclass
class ScalarSubquery(Expr):
    subquery: "SelectStatement"


@dataclass
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass
class CaseWhen(Expr):
    """Searched CASE: WHEN cond THEN result [...] [ELSE e] END."""

    whens: list[tuple[Expr, Expr]]
    else_result: Expr | None = None


@dataclass
class FuncCall(Expr):
    """Function call — aggregate or scalar, resolved at plan time."""

    name: str  # lowercased
    args: list[Expr] = field(default_factory=list)
    distinct: bool = False
    star: bool = False  # COUNT(*)


@dataclass
class Extract(Expr):
    field_name: str  # 'year' | 'month' | 'day'
    operand: Expr


# ---------------------------------------------------------------------------
# Table references
# ---------------------------------------------------------------------------


class TableRef(Node):
    """Base class for FROM items."""


@dataclass
class TableName(TableRef):
    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return (self.alias or self.name).lower()


@dataclass
class DerivedTable(TableRef):
    select: "SelectStatement"
    alias: str

    @property
    def binding_name(self) -> str:
        return self.alias.lower()


@dataclass
class Join(TableRef):
    kind: str  # 'inner' | 'left' | 'cross'
    left: TableRef
    right: TableRef
    condition: Expr | None = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement(Node):
    """Base class for executable statements."""


@dataclass
class SelectItem(Node):
    expr: Expr
    alias: str | None = None


@dataclass
class OrderItem(Node):
    expr: Expr  # may be a Literal int = 1-based output position
    descending: bool = False


@dataclass
class SelectStatement(Statement):
    select_items: list[SelectItem]
    from_items: list[TableRef] = field(default_factory=list)
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    distinct: bool = False
    top: int | None = None

    @property
    def returns_rows(self) -> bool:
        return True


@dataclass
class UnionSelect(Statement):
    """A chain of SELECT cores combined with UNION [ALL].

    ``all_flags[i]`` says whether the combinator *before* ``selects[i+1]``
    was UNION ALL.  ORDER BY / TOP apply to the combined result.
    """

    selects: list[SelectStatement] = field(default_factory=list)
    all_flags: list[bool] = field(default_factory=list)
    order_by: list[OrderItem] = field(default_factory=list)
    top: int | None = None

    @property
    def returns_rows(self) -> bool:
        return True


@dataclass
class InsertStatement(Statement):
    table: str
    columns: list[str] = field(default_factory=list)
    rows: list[list[Expr]] = field(default_factory=list)
    select: SelectStatement | None = None


@dataclass
class UpdateStatement(Statement):
    table: str
    assignments: list[tuple[str, Expr]] = field(default_factory=list)
    where: Expr | None = None


@dataclass
class DeleteStatement(Statement):
    table: str
    where: Expr | None = None


@dataclass
class ColumnDef(Node):
    name: str
    type_name: str
    length: int = 0
    nullable: bool = True
    primary_key: bool = False


@dataclass
class CreateTableStatement(Statement):
    name: str
    columns: list[ColumnDef] = field(default_factory=list)
    primary_key: list[str] = field(default_factory=list)
    #: ``CREATE TABLE name AS <query>``: the query whose result the new
    #: table is shaped like and filled with (``columns`` stays empty).
    query: Statement | None = None


@dataclass
class DropTableStatement(Statement):
    name: str


@dataclass
class CreateIndexStatement(Statement):
    name: str
    table: str
    columns: list[str] = field(default_factory=list)
    unique: bool = False


@dataclass
class DropIndexStatement(Statement):
    name: str


@dataclass
class CreateProcedureStatement(Statement):
    name: str
    params: list[tuple[str, str]] = field(default_factory=list)  # (name, type)
    body_sql: str = ""  # the raw body text, parsed lazily at EXEC time


@dataclass
class DropProcedureStatement(Statement):
    name: str


@dataclass
class CreateViewStatement(Statement):
    name: str
    body_sql: str = ""


@dataclass
class DropViewStatement(Statement):
    name: str = ""


@dataclass
class ExecStatement(Statement):
    name: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class ExplainStatement(Statement):
    """EXPLAIN <select>: plan without executing, return the plan text."""

    select: Statement = None


@dataclass
class AnalyzeStatement(Statement):
    """ANALYZE [table]: collect optimizer statistics (all tables when
    no name is given)."""

    table: str | None = None


@dataclass
class BeginTransactionStatement(Statement):
    pass


@dataclass
class CommitStatement(Statement):
    pass


@dataclass
class RollbackStatement(Statement):
    pass
