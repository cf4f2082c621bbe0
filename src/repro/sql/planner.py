"""Logical-to-physical planning.

The planner turns a parsed ``SELECT`` into a tree of executor operators.
There is one planner, and statistics decide what it does: every relation
gets a cardinality estimate — from its ``ANALYZE`` statistics, or from
fixed defaults (:data:`Planner._DEFAULT_ROWS`, ``_DEFAULT_SEL``) for a
table never analysed, each such guess ticking
``optimizer.stats_missing_fallbacks`` — and the choices below follow
from the estimates (DESIGN.md §15):

* WHERE conjuncts that reference a single relation are pushed below joins,
  and so is, per relation, the OR of its parts of a disjunction across
  relations;
* equality conjuncts between two relations become hash-join keys; a
  comma list is folded left-deep in the order that minimizes the modeled
  join cost, the hash join builds on the smaller input, and two inputs
  that both arrive in key order are merged instead;
* a pushed conjunct set matching an index's key prefix (equality prefix
  plus an optional range on the next column) turns the scan into an
  :class:`~repro.sql.executor.IndexSeek`; an IN-list of constants on
  the next column seeks once per listed key instead, and a list on one
  side of a join equality is offered to the other side's index too;
* ``TOP N`` under an ``ORDER BY`` is one bounded-heap
  :class:`~repro.sql.executor.TopNHeapSort`;
* aggregates are computed by one hash-aggregate whose output rows are
  ``group keys + aggregate values``; select/having/order expressions are
  rewritten to read those slots;
* conjuncts containing subqueries are evaluated in a final filter, where
  every correlation is in scope.

The planner also owns the subquery bridge for the expression compiler: it
plans nested selects against the enclosing scope and exposes a runner that
executes them (memoized per outer-key by the compiler).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from repro.errors import ColumnNotFoundError, EngineError, PlanningError
from repro.sim.costs import SERVER_CPU
from repro.sql import ast
from repro.sql import stats as table_stats
from repro.sql.executor import (
    AggregateSpec,
    Concat,
    Distinct,
    EmptyScan,
    Filter,
    HashAggregate,
    HashJoin,
    IndexRangeScan,
    IndexSeek,
    Limit,
    NestedLoopJoin,
    PlanOperator,
    PointLookup,
    Project,
    SeqScan,
    SingleRowScan,
    Sort,
    SortKey,
    SortMergeJoin,
    TopNHeapSort,
    iterate_plan,
    run_plan,
)
from repro.sql.expressions import (
    EvalContext,
    ExprCompiler,
    Scope,
    expr_has_subquery,
    find_aggregates,
    is_impure,
)
from repro.types import Column, SqlType, infer_sql_type, stored_type


@dataclass
class BoundColumn:
    """One output column: which FROM binding it came from plus its type."""

    binding: str
    column: Column

    @property
    def name(self) -> str:
        return self.column.name


@dataclass
class Plan:
    """A planned SELECT: physical root plus the output schema."""

    root: PlanOperator
    schema: list[BoundColumn]

    @property
    def output_columns(self) -> list[Column]:
        return [bc.column for bc in self.schema]


#: What a leaf that cannot name its keys reads: its whole table.
_WHOLE_TABLE = ((),)


@dataclass(frozen=True)
class Footprint:
    """What one planned statement reads, declared by its planner.

    ``names`` is every table, view, temp table and ``sys_*`` snapshot
    the statement resolved — FROM items, view bodies at any depth,
    subqueries, UNION branches and the DML target — in name order;
    ``base_tables`` the durable base tables among them.  ``leaves`` are
    the access leaves of the main plan and of every subquery plan, in
    walk order, as ``(table, seek)``: ``seek`` is a primary-key
    :class:`IndexSeek` with a ``constant_key``, whose keys are named per
    execution, or None for a leaf that reads the whole table."""

    names: tuple[str, ...]
    base_tables: tuple[str, ...]
    leaves: tuple[tuple[str, IndexSeek | None], ...]

    def prefixes_sought(self) -> dict[str, set]:
        """``table -> primary-key prefixes`` this execution reads (see
        :meth:`IndexSeek.read_prefixes`), the empty prefix standing for
        the whole table."""
        reads: dict[str, set] = {}
        for name, seek in self.leaves:
            reads.setdefault(name, set()).update(
                _WHOLE_TABLE if seek is None else seek.read_prefixes())
        return reads


@dataclass
class _Relation:
    """One planned FROM item during join assembly."""

    op: PlanOperator | None
    schema: list[BoundColumn]
    bindings: set[str] = field(default_factory=set)
    #: Base-table runtime when this relation is a plain table scan whose
    #: access path has not been chosen yet.
    table: object = None
    #: Cardinality estimate (None for relations the join-order search
    #: never saw: explicit JOIN operands, a FROM list under a bare ``*``).
    est_rows: float | None = None
    #: binding name -> base table name, for catalog statistics lookups
    #: on join-key columns (empty for derived tables).
    binding_tables: dict[str, str] = field(default_factory=dict)
    #: Highest amplification factor among the base tables the bindings
    #: resolved to (1.0 for derived tables): what operators over this
    #: relation are priced by.
    cost_factor: float = 1.0


class Planner:
    """Plans SELECT statements against a table provider.

    ``table_provider(name)`` returns the engine's table runtime (heap,
    indexes, cost factor); ``meter`` prices the plans, counts the
    ``optimizer.*`` decisions and runs subqueries; ``catalog`` holds the
    ANALYZE statistics; ``params`` binds ``@name`` references.
    """

    def __init__(self, table_provider, meter, catalog,
                 params: dict | None = None, view_provider=None):
        self._tables = table_provider
        self._meter = meter
        self._catalog = catalog
        self._params = params or {}
        #: Optional callable(name) -> view body SQL or None; view names
        #: in FROM expand to derived tables.
        self._views = view_provider
        self._pending_conjuncts: list[ast.Expr] = []
        #: Scopes created while planning, used to harvest correlation refs
        #: at subquery boundaries.
        self._scope_log: list[Scope] = []
        #: Every CompiledSubquery built for this planner's plans.  The plan
        #: cache clears their memos before re-executing a cached plan, so a
        #: reuse sees exactly the fresh-compile memo state.
        self.subquery_log: list = []
        #: Memo cells of the parameter subtrees its expressions evaluate
        #: once per execution; reset by the plan cache on every rebind.
        self.param_memos: list = []
        #: Names resolved where a FROM item, a view or a DML target is
        #: looked up, and the durable base tables among them.
        self._names: set[str] = set()
        self._base_tables: set[str] = set()

    def _new_scope(self, bindings: list[tuple[str, str]],
                   outer: Scope | None) -> Scope:
        scope = Scope(bindings, outer=outer)
        self._scope_log.append(scope)
        return scope

    def _row_count(self, table_name: str | None,
                   counted: bool = True
                   ) -> tuple[table_stats.TableStats | None, float]:
        """``(statistics, rows)`` of a base table: its ANALYZE row count,
        or the default guess when it was never analysed (or is no base
        table at all: ``None``).  A guess ticks
        ``optimizer.stats_missing_fallbacks`` unless the caller says the
        plan already counted it (``counted=False``)."""
        stats = (self._catalog.get_table_stats(table_name)
                 if table_name is not None else None)
        if stats is not None:
            return stats, float(stats.row_count)
        if counted:
            self._meter.count("optimizer.stats_missing_fallbacks")
        return None, self._DEFAULT_ROWS

    # -- public API ------------------------------------------------------------

    def plan_select(self, select: ast.SelectStatement,
                    outer_scope: Scope | None = None) -> Plan:
        return self._plan_select(select, outer_scope)

    def resolve_table(self, name: str):
        """The runtime of a base table, temp table or ``sys_*`` snapshot,
        recorded in the footprint."""
        table = self._tables(name)
        key = name.lower()
        self._names.add(key)
        if not table.info.volatile:
            self._base_tables.add(key)
        return table

    def footprint(self, root: PlanOperator | None) -> Footprint:
        """The footprint of everything this planner planned; ``root`` is
        the statement's main plan (None for DML, which is not
        stamped)."""
        leaves = []
        pending = [] if root is None else [root]
        pending += [subquery.plan.root for subquery in self.subquery_log]
        while pending:
            op = pending.pop()
            pending.extend(op.children())
            table = getattr(op, "table", None)
            if table is not None:
                info = table.info
                names_keys = (isinstance(op, IndexSeek) and op.constant_key
                              and op.index_name == f"__pk_{info.name}")
                leaves.append((info.name.lower(),
                               op if names_keys else None))
        return Footprint(tuple(sorted(self._names)),
                         tuple(sorted(self._base_tables)), tuple(leaves))

    def compile_scalar(self, expr: ast.Expr):
        """Compile an expression with no row context (INSERT VALUES,
        EXEC arguments).  Returns ``fn(EvalContext) -> value``."""
        scope = self._new_scope([], None)
        return self._compiler(scope).compile(expr)

    def compile_row_expr(self, expr: ast.Expr,
                         bindings: list[tuple[str, str]]):
        """Compile an expression against an explicit row layout (used by
        UPDATE SET clauses).  Returns ``fn(EvalContext) -> value``."""
        scope = self._new_scope(bindings, None)
        return self._compiler(scope).compile(expr)

    def plan_dml_source(self, table_name: str, where: ast.Expr | None):
        """Access path for UPDATE/DELETE: yields ``(rid, row)`` pairs.

        Returns ``(iterator_factory, table_runtime)`` where the factory
        takes no arguments and yields (rid, row) for qualifying rows.
        The source is an ordinary plan — a leaf that carries each row's
        address as a hidden last column, under a Filter when the access
        path leaves a residual — run by the executor like any other.
        """
        table = self.resolve_table(table_name)
        schema = _table_schema(table)
        scope = self._new_scope(_scope_bindings(schema), None)
        conjuncts = _split_conjuncts(where)
        access = self._choose_access_path(table, conjuncts, scope, None)
        root = access.index_seek
        if root is None:
            root = SeqScan(table, cost_factor=table.cost_factor)
        root.with_rid = True
        if access.residual_conjuncts:
            root = Filter(root, self._compiler(scope).compile(
                _combine_conjuncts(access.residual_conjuncts)))

        def iterate():
            for row in iterate_plan(root, self._meter):
                yield row[-1], row[:-1]

        return iterate, table

    # -- SELECT planning ----------------------------------------------------

    def _plan_select(self, select,
                     outer_scope: Scope | None,
                     limit_one: bool = False) -> Plan:
        if isinstance(select, ast.UnionSelect):
            return self._plan_union(select, outer_scope, limit_one)
        self._meter.count("optimizer.plans_costed")
        # 1. FROM (join planning consumes the WHERE conjuncts it can and
        # returns the leftovers for the residual filter).
        if select.from_items:
            # A bare ``*`` projection takes its column order from the
            # FROM order, so join reordering must leave it alone.
            reorder_ok = not any(
                isinstance(item.expr, ast.Star) and item.expr.table is None
                for item in select.select_items)
            rel, late_conjuncts = self._plan_from(
                select.from_items, select.where, outer_scope,
                reorder_ok=reorder_ok)
            op, schema, factor = rel.op, rel.schema, rel.cost_factor
        else:
            op, schema, factor = SingleRowScan(), [], 1.0
            late_conjuncts = _split_conjuncts(select.where)
        scope = self._new_scope(_scope_bindings(schema), outer_scope)
        compiler = self._compiler(scope)

        # 2. Residual WHERE.  Constant-false conjuncts (e.g. the WHERE 0=1
        # Phoenix appends to fetch metadata) short-circuit to an empty
        # scan: the statement is compiled but never executed.
        late_conjuncts = list(late_conjuncts)
        if self._provably_false(late_conjuncts, compiler):
            op = EmptyScan()
            late_conjuncts = []
        if late_conjuncts:
            predicate = compiler.compile(_combine_conjuncts(late_conjuncts))
            op = Filter(op, predicate)
        self._apply_index_only(op, select, schema)

        # 3. Aggregation
        select_items = self._expand_stars(select.select_items, schema)
        aggregates = []
        for item in select_items:
            aggregates.extend(find_aggregates(item.expr))
        aggregates.extend(find_aggregates(select.having))
        for order in select.order_by:
            aggregates.extend(find_aggregates(order.expr))
        grouped = bool(select.group_by) or bool(aggregates)

        replacements: dict[int, int] = {}
        if grouped:
            op, scope, replacements, schema = self._plan_aggregate(
                op, scope, schema, select, select_items, aggregates,
                compiler, factor)
            compiler = self._compiler(scope, replacements)

        # 4. HAVING
        if select.having is not None:
            if not grouped:
                raise PlanningError("HAVING requires aggregation")
            having_fn = compiler.compile(select.having)
            op = Filter(op, having_fn)

        # 5. Projection
        out_exprs = [compiler.compile(item.expr) for item in select_items]
        out_schema = [
            BoundColumn(binding="", column=self._output_column(
                item, i, schema, scope))
            for i, item in enumerate(select_items)
        ]

        # 6. ORDER BY: after projection when keys map to output slots,
        # otherwise before projection on the full input row.  An ordered
        # index scan that already delivers the requested order makes the
        # Sort (either placement) unnecessary.
        need_sort = bool(select.order_by)
        if need_sort and self._sort_satisfied_by_scan(op, select,
                                                      select_items):
            need_sort = False
            # Flag the scan rather than counting here: the stat must
            # tick per execution (plan-cache hits included), so the
            # operator reports it from _count_scan at run time.
            self._single_base_scan(op, select).eliminates_sort = True
        post_sort_keys = self._order_keys_on_output(
            select.order_by, select_items, out_schema)
        # TOP N + ORDER BY fuse into a bounded-heap TopN (the n log k vs
        # n log n win).  A Limit above a projection is safe to
        # fuse below it (Project is 1:1) but never below Distinct, which
        # drops rows *between* the sort and the limit in the pre-sort
        # placement.
        top = select.top
        if limit_one:
            top = 1 if top is None else min(top, 1)
        use_topn = need_sort and top is not None and top > 0
        if post_sort_keys is None and need_sort:
            pre_keys = [SortKey(key_fn=compiler.compile(o.expr),
                                descending=o.descending)
                        for o in select.order_by]
            if use_topn and not select.distinct:
                op = TopNHeapSort(op, pre_keys, top, cost_factor=factor)
                self._meter.count("optimizer.topn_heap_used")
                top = None  # consumed by the heap
            else:
                op = Sort(op, pre_keys, cost_factor=factor)
        op = Project(op, out_exprs, input_width=len(schema))
        op = _maybe_point_lookup(op)
        if select.distinct:
            op = Distinct(op, cost_factor=factor)
        if post_sort_keys is not None and need_sort:
            if use_topn:
                op = TopNHeapSort(op, post_sort_keys, top,
                                  cost_factor=factor)
                self._meter.count("optimizer.topn_heap_used")
                top = None
            else:
                op = Sort(op, post_sort_keys, cost_factor=factor)

        # 7. TOP / limit-one (EXISTS probes)
        if top is not None:
            _push_limit_hint(op, top)
            op = Limit(op, top)
        self._annotate_plan(op)
        return Plan(root=op, schema=out_schema)

    def _plan_union(self, union: ast.UnionSelect,
                    outer_scope: Scope | None,
                    limit_one: bool = False) -> Plan:
        """Plan a UNION [ALL] chain: concat inputs, dedup unless every
        combinator was ALL, then order/limit on the combined result."""
        plans = [self._plan_select(s, outer_scope) for s in union.selects]
        arity = len(plans[0].schema)
        for plan in plans[1:]:
            if len(plan.schema) != arity:
                raise PlanningError(
                    "UNION inputs must have the same number of columns")
        op: PlanOperator = Concat([p.root for p in plans])
        if not all(union.all_flags):
            op = Distinct(op)
        schema = plans[0].schema
        if union.order_by:
            keys = self._union_order_keys(union.order_by, schema)
            op = Sort(op, keys)
        top = union.top
        if limit_one:
            top = 1 if top is None else min(top, 1)
        if top is not None:
            op = Limit(op, top)
        return Plan(root=op, schema=schema)

    def _union_order_keys(self, order_by: list[ast.OrderItem],
                          schema: list[BoundColumn]) -> list[SortKey]:
        """ORDER BY on a union resolves against output positions/names."""
        names = [bc.column.name.lower() for bc in schema]
        keys: list[SortKey] = []
        for order in order_by:
            expr = order.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                slot = expr.value - 1
                if not 0 <= slot < len(schema):
                    raise PlanningError(
                        f"ORDER BY position {expr.value} out of range")
            elif isinstance(expr, ast.ColumnRef) and expr.table is None \
                    and expr.name in names:
                slot = names.index(expr.name)
            else:
                raise PlanningError(
                    "ORDER BY on a UNION must name an output column or "
                    "position")
            keys.append(SortKey(key_fn=(lambda ctx, s=slot: ctx.row[s]),
                                descending=order.descending))
        return keys

    def _provably_false(self, conjuncts: list[ast.Expr],
                        compiler: ExprCompiler) -> bool:
        """True when some conjunct is a pure constant that is not true."""
        from repro.sql.expressions import is_true

        for conjunct in conjuncts:
            if _expr_bindings(conjunct) or expr_has_subquery(conjunct):
                continue
            if isinstance(conjunct, ast.Param) or \
                    _contains_param(conjunct):
                continue
            try:
                fn = compiler.compile(conjunct)
                value = fn(EvalContext(row=()))
            except Exception:
                continue
            if not is_true(value):
                return True
        return False

    # -- FROM / joins ------------------------------------------------------

    def _plan_from(self, from_items: list[ast.TableRef],
                   where: ast.Expr | None,
                   outer_scope: Scope | None,
                   reorder_ok: bool = True):
        """Plan the FROM clause; returns (relation, leftover conjuncts).

        Two phases: first every FROM item is *prepared* (schemas known,
        base tables not yet given an access path), so that unqualified
        column references in WHERE conjuncts can be attributed to their
        relation; then conjuncts are placed — pushed to single relations,
        mined for hash-join keys, or left for the caller's filter.

        The comma-list fold order is chosen from the cardinality
        estimates, not taken from the FROM order (``reorder_ok`` is
        False when a bare ``*`` projection depends on the FROM column
        order).
        Single-relation conjuncts are consumed by their own relation
        before the fold, so placement is order-independent.
        """
        prepared = [self._prepare_table_ref(item, outer_scope)
                    for item in from_items]
        column_owner, ambiguous = _column_owner_map(
            [bc for rel in prepared for bc in rel.schema])
        conjuncts = [_Conjunct(e, column_owner, ambiguous)
                     for e in _split_conjuncts(where)]
        conjuncts += self._derived_restrictions(conjuncts, prepared,
                                                column_owner, ambiguous)
        implied = self._implied_in_lists(conjuncts, prepared, column_owner)
        cost_join = reorder_ok and len(prepared) > 1
        if cost_join:
            prepared = self._order_join_tree(prepared, conjuncts,
                                             column_owner, outer_scope)
        for rel in prepared:
            self._finish_relation(rel, conjuncts, outer_scope, implied)
        if cost_join:
            for rel in prepared:
                if rel.op is not None and rel.est_rows is not None:
                    rel.op.est_rows = rel.est_rows
        acc = prepared[0]
        for rel in prepared[1:]:
            acc = self._join_relations(acc, rel, conjuncts, outer_scope,
                                       swap_ok=cost_join)
        late = [c.expr for c in conjuncts if not c.consumed]
        return acc, late

    def _prepare_table_ref(self, item: ast.TableRef,
                           outer_scope: Scope | None) -> _Relation:
        """Build a relation's schema; defer base-table access paths."""
        if isinstance(item, ast.TableName):
            view_body = (self._views(item.name)
                         if self._views is not None
                         and not item.name.startswith("#") else None)
            if view_body is not None:
                from repro.sql.parser import parse_statement

                self._names.add(item.name.lower())
                view_select = parse_statement(view_body)
                subplan = self._plan_select(view_select, outer_scope)
                binding = item.binding_name
                schema = [BoundColumn(binding=binding, column=bc.column)
                          for bc in subplan.schema]
                return _Relation(op=subplan.root, schema=schema,
                                 bindings={binding})
            table = self.resolve_table(item.name)
            binding = item.binding_name
            schema = [BoundColumn(binding=binding, column=c)
                      for c in table.info.columns]
            rel = _Relation(op=None, schema=schema, bindings={binding})
            rel.table = table
            rel.binding_tables = {binding: table.info.name}
            rel.cost_factor = max(1.0, table.cost_factor)
            return rel
        if isinstance(item, ast.DerivedTable):
            subplan = self._plan_select(item.select, outer_scope)
            binding = item.binding_name
            schema = [BoundColumn(binding=binding, column=bc.column)
                      for bc in subplan.schema]
            rel = _Relation(op=subplan.root, schema=schema,
                            bindings={binding})
            return rel
        if isinstance(item, ast.Join):
            left = self._prepare_table_ref(item.left, outer_scope)
            right = self._prepare_table_ref(item.right, outer_scope)
            owner, ambiguous = _column_owner_map(left.schema + right.schema)
            on_conjuncts = [_Conjunct(e, owner, ambiguous)
                            for e in _split_conjuncts(item.condition)]
            # Pushing single-side ON conjuncts below the join is safe for
            # inner joins on both sides, and on the null-supplying (right)
            # side of a left join.  Nothing is derived through an outer
            # join's ON clause.
            implied = []
            if item.kind != "left":
                on_conjuncts += self._derived_restrictions(
                    on_conjuncts, [left, right], owner, ambiguous)
                implied = self._implied_in_lists(on_conjuncts,
                                                 [left, right], owner)
            self._finish_relation(right, on_conjuncts, outer_scope, implied)
            if item.kind != "left":
                self._finish_relation(left, on_conjuncts, outer_scope,
                                      implied)
            else:
                self._finish_relation(left, [], outer_scope)
            joined = self._join_relations(left, right, on_conjuncts,
                                          outer_scope, kind=item.kind,
                                          require_all=True)
            leftover = [c for c in on_conjuncts if not c.consumed]
            if not all(c.has_subquery for c in leftover):
                raise PlanningError(
                    "ON condition references columns outside the join")
            if leftover:
                # No join evaluates a subquery.  Above an inner join a
                # Filter means the same — where the comma spelling of
                # the join puts the conjunct too; above an outer join it
                # would drop the rows the join is there to keep.
                if item.kind == "left":
                    raise PlanningError(
                        "a subquery in the ON condition of a LEFT JOIN "
                        "is not supported")
                self._filter_relation(joined, leftover, outer_scope)
            return joined
        raise PlanningError(f"unsupported FROM item {type(item).__name__}")

    def _finish_relation(self, rel: _Relation,
                         conjuncts: list["_Conjunct"],
                         outer_scope: Scope | None,
                         implied: list = ()) -> None:
        """Give ``rel`` its access path, consuming its local conjuncts.

        ``implied`` are ``(relation, IN-list)`` pairs from
        :meth:`_implied_in_lists`: the ones for ``rel`` are offered to
        the access path and dropped unless its seek answers them — an
        implied predicate is never worth a filter of its own."""
        if rel.op is not None and rel.table is None:
            # Derived table or already-finished join: only add a filter.
            self._apply_pushable(rel, conjuncts, outer_scope)
            return
        if rel.op is not None:
            return  # already finished
        table = rel.table
        scope = self._new_scope(_scope_bindings(rel.schema), outer_scope)
        local = [c for c in conjuncts
                 if not c.consumed and not c.has_subquery
                 and c.bindings and c.bindings <= rel.bindings]
        offered = [expr for target, expr in implied if target is rel]
        access = self._choose_access_path(
            table, [c.expr for c in local] + offered, scope, outer_scope)
        residual = access.residual_conjuncts
        if offered:
            offered_ids = {id(expr) for expr in offered}
            residual = [e for e in residual if id(e) not in offered_ids]
            if (len(access.residual_conjuncts) - len(residual)
                    < len(offered)):  # the seek answered one of them
                self._meter.count("optimizer.in_list_transfers")
        seek = access.index_seek
        if seek is not None:
            rel.op = seek
            if seek.in_fns is not None and rel.est_rows is not None:
                # Keys sought times rows per key, not the default
                # selectivity an IN-list gets as a filter.
                rel.est_rows = max(1.0, seek.est_rows
                                   * self._conjunct_selectivity(
                                       table, residual, outer_scope))
        else:
            rel.op = SeqScan(table, cost_factor=table.cost_factor)
        if residual:
            compiler = self._compiler(scope)
            rel.op = Filter(rel.op, compiler.compile(
                _combine_conjuncts(residual)))
        for c in local:
            c.consumed = True

    def _implied_in_lists(self, conjuncts: list["_Conjunct"],
                          relations: list[_Relation],
                          owner: dict[str, str]) -> list:
        """IN-list transfer across equalities: for conjuncts ``A.x = B.y``
        and ``A.x IN (constants)`` of one conjunct list, ``B.y IN
        (constants)`` holds on every row the equality keeps (it rejects
        rows where either side is NULL).  Returns ``(B's relation, the
        implied IN-list)`` pairs for base tables that still choose their
        access path.

        Derived only between columns of one comparison family (numeric,
        text or date): across families ``=`` coerces, and coercion is
        not transitive.  One step only — nothing is derived from a
        derived list, from ranges or from plain constants."""
        in_lists = []
        for c in conjuncts:
            e = c.expr
            if (isinstance(e, ast.InList) and not e.negated
                    and not c.consumed):
                source = _resolve_column(e.operand, relations, owner)
                if source is not None:
                    in_lists.append((source[1], e))
        if not in_lists:
            return []
        implied = []
        for c in conjuncts:
            e = c.expr
            if c.consumed or not (isinstance(e, ast.Binary)
                                  and e.op == "="):
                continue
            left = _resolve_column(e.left, relations, owner)
            right = _resolve_column(e.right, relations, owner)
            if left is None or right is None or left[0] is right[0]:
                continue
            for source, target, ref in ((left, right, e.right),
                                        (right, left, e.left)):
                rel = target[0]
                if rel.table is None or rel.op is not None:
                    continue
                if (_type_family(source[1].column.sql_type)
                        != _type_family(target[1].column.sql_type)):
                    continue
                for column, in_list in in_lists:
                    if column is source[1]:
                        implied.append((rel, ast.InList(
                            operand=ref, items=in_list.items)))
        return implied

    def _derived_restrictions(self, conjuncts: list["_Conjunct"],
                              relations: list[_Relation],
                              owner: dict[str, str],
                              ambiguous: set[str]) -> list["_Conjunct"]:
        """Restriction ORs derived from a disjunction (PostgreSQL's
        ``orclauses.c``): for a conjunct ``D1 OR ... OR Dn`` spanning
        several relations, and a relation R on which every ``Di`` has
        conjuncts of its own, ``(R-part of D1) OR ... OR (R-part of
        Dn)`` holds on every row the disjunction keeps — whichever
        ``Di`` is true, its R-part is.  It becomes a conjunct local to
        R, so it filters R before the joins; the disjunction stays
        where it was, as the residual.  A part with a subquery is never
        moved (subqueries run in the final filter)."""
        derived = []
        for c in conjuncts:
            if not (isinstance(c.expr, ast.Binary) and c.expr.op == "OR"
                    and c.bindings and not c.consumed
                    and _owning_relation(relations, c.bindings) is None):
                continue
            disjuncts = [[_Conjunct(e, owner, ambiguous)
                          for e in _split_conjuncts(d)]
                         for d in _split_disjuncts(c.expr)]
            for rel in relations:
                parts = [[p.expr for p in d
                          if p.bindings and p.bindings <= rel.bindings
                          and not p.has_subquery] for d in disjuncts]
                if not all(parts):
                    continue
                restriction = _combine_conjuncts(parts[0])
                for part in parts[1:]:
                    restriction = ast.Binary(op="OR", left=restriction,
                                             right=_combine_conjuncts(part))
                self._meter.count("optimizer.or_restrictions_derived")
                derived.append(_Conjunct(restriction, owner, ambiguous))
        return derived

    def _apply_pushable(self, rel: _Relation,
                        conjuncts: list["_Conjunct"],
                        outer_scope: Scope | None) -> None:
        """Push single-relation conjuncts onto a derived relation."""
        local = [c for c in conjuncts
                 if not c.consumed and not c.has_subquery
                 and c.bindings and c.bindings <= rel.bindings]
        if local:
            self._filter_relation(rel, local, outer_scope)

    def _filter_relation(self, rel: _Relation, conjuncts: list["_Conjunct"],
                         outer_scope: Scope | None) -> None:
        """Put a Filter of ``conjuncts`` on top of ``rel``; consumes them."""
        scope = self._new_scope(_scope_bindings(rel.schema), outer_scope)
        rel.op = Filter(rel.op, self._compiler(scope).compile(
            _combine_conjuncts([c.expr for c in conjuncts])))
        for c in conjuncts:
            c.consumed = True

    def _join_relations(self, left: _Relation, right: _Relation,
                        conjuncts: list["_Conjunct"],
                        outer_scope: Scope | None,
                        kind: str = "inner",
                        require_all: bool = False,
                        swap_ok: bool = False) -> _Relation:
        """Join two relations, mining ``conjuncts`` for equi keys.

        ``require_all`` (explicit ON clauses) forces every conjunct into
        the join (residual) rather than a later filter — necessary for
        LEFT join semantics.  ``swap_ok`` (comma folds) allows
        build-side selection: the hash join builds on its *right* input,
        so the side with the smaller cardinality estimate is moved there.
        """
        owner, _ambiguous = _column_owner_map(left.schema + right.schema)
        if (swap_ok and kind == "inner"
                and left.est_rows is not None
                and right.est_rows is not None
                and left.est_rows < right.est_rows
                and self._mine_equi_pairs(left, right, conjuncts, owner)):
            left, right = right, left
        combined_schema = left.schema + right.schema
        combined_bindings = left.bindings | right.bindings
        scope = self._new_scope(_scope_bindings(combined_schema), outer_scope)
        left_scope = self._new_scope(_scope_bindings(left.schema), outer_scope)
        right_scope = self._new_scope(_scope_bindings(right.schema),
                                      outer_scope)

        left_keys, right_keys, residual = [], [], []
        key_pairs: list[tuple[ast.Expr, ast.Expr]] = []
        for c in conjuncts:
            if c.consumed or c.has_subquery:
                continue
            if not (c.bindings and c.bindings <= combined_bindings):
                continue
            pair = self._equi_key(c.expr, left, right, owner)
            if pair is not None:
                left_expr, right_expr = pair
                left_keys.append(
                    self._compiler(left_scope).compile(left_expr))
                right_keys.append(
                    self._compiler(right_scope).compile(right_expr))
                key_pairs.append(pair)
                c.consumed = True
            elif require_all or kind == "left":
                residual.append(c.expr)
                c.consumed = True
            elif c.bindings <= combined_bindings:
                # Inner join: leave for the post-join filter only if it
                # spans both sides; single-side ones were pushed already.
                residual.append(c.expr)
                c.consumed = True

        factor = max(left.cost_factor, right.cost_factor)
        residual_fn = None
        if residual:
            residual_fn = self._compiler(scope).compile(
                _combine_conjuncts(residual))
        est_out = None
        if left.est_rows is not None and right.est_rows is not None:
            est_out = self._estimate_join_output(left, right, key_pairs)
        if left_keys:
            if (kind == "inner"
                    and self._choose_sort_merge(left, right, key_pairs)):
                self._meter.count("optimizer.sortmerge_chosen")
                op = SortMergeJoin(left.op, right.op, left_keys,
                                   right_keys, residual=residual_fn,
                                   left_width=len(left.schema),
                                   right_width=len(right.schema),
                                   left_sorted=True, right_sorted=True,
                                   cost_factor=factor)
            else:
                op = HashJoin(left.op, right.op, left_keys, right_keys,
                              kind=("left" if kind == "left" else "inner"),
                              residual=residual_fn,
                              left_width=len(left.schema),
                              right_width=len(right.schema),
                              cost_factor=factor)
        else:
            op = NestedLoopJoin(left.op, right.op, condition=residual_fn,
                                kind=("left" if kind == "left" else "inner"),
                                right_width=len(right.schema),
                                cost_factor=factor)
        joined = _Relation(op=op, schema=combined_schema,
                           bindings=combined_bindings)
        joined.binding_tables = {**left.binding_tables,
                                 **right.binding_tables}
        joined.cost_factor = factor
        if est_out is not None:
            joined.est_rows = est_out
            op.est_rows = est_out
        return joined

    def _equi_key(self, expr: ast.Expr, left: _Relation,
                  right: _Relation, owner: dict[str, str]):
        """If ``expr`` is ``a = b`` with sides on opposite relations,
        return (left_side, right_side)."""
        if not (isinstance(expr, ast.Binary) and expr.op == "="):
            return None
        lhs_bindings = _side_bindings(expr.left, owner)
        rhs_bindings = _side_bindings(expr.right, owner)
        if not lhs_bindings or not rhs_bindings:
            return None
        if lhs_bindings <= left.bindings and rhs_bindings <= right.bindings:
            return expr.left, expr.right
        if rhs_bindings <= left.bindings and lhs_bindings <= right.bindings:
            return expr.right, expr.left
        return None

    # -- index access paths ----------------------------------------------------

    @dataclass
    class _AccessPath:
        index_seek: IndexSeek | None = None
        residual_conjuncts: list = field(default_factory=list)

    def _choose_access_path(self, table, conjuncts: list[ast.Expr],
                            scope: Scope,
                            outer_scope: Scope | None) -> "_AccessPath":
        """Pick the best index for a conjunct set: longest equality
        prefix, then an IN-list or else a range on the next key column."""
        best = None
        best_score = 0
        const_scope = self._new_scope([], outer_scope)
        in_lists = self._seekable_in_lists(table, conjuncts, const_scope)
        for index in table.indexes():
            eq_map: dict[str, ast.Expr] = {}
            range_lo: dict[str, tuple[ast.Expr, bool]] = {}
            range_hi: dict[str, tuple[ast.Expr, bool]] = {}
            for conj in conjuncts:
                parsed = self._index_conjunct(conj, table)
                if parsed is None:
                    continue
                column, op, rhs = parsed
                if not self._is_constantish(rhs, const_scope):
                    continue
                if op == "=" and column not in eq_map:
                    eq_map[column] = rhs
                elif op in (">", ">=") and column not in range_lo:
                    range_lo[column] = (rhs, op == ">=")
                elif op in ("<", "<=") and column not in range_hi:
                    range_hi[column] = (rhs, op == "<=")
            prefix: list[ast.Expr] = []
            for col in index.column_names:
                if col in eq_map:
                    prefix.append(eq_map[col])
                else:
                    break
            next_col = (index.column_names[len(prefix)]
                        if len(prefix) < len(index.column_names) else None)
            in_list = in_lists.get(next_col)
            # An IN-list seeks its column; a range on the same column
            # then stays in the residual filter.
            lo = range_lo.get(next_col) if next_col and not in_list else None
            hi = range_hi.get(next_col) if next_col and not in_list else None
            # An equality column outranks an IN-list outranks a range.
            score = 4 * len(prefix) + (3 if in_list else
                                       2 if (lo or hi) else 0)
            if score > best_score:
                best_score = score
                best = (index, prefix, lo, hi, eq_map, next_col, in_list)
        if best is None:
            return Planner._AccessPath(residual_conjuncts=list(conjuncts))
        index, prefix, lo, hi, eq_map, next_col, in_list = best
        compiler = self._compiler(const_scope)
        prefix_fns = [compiler.compile(e) for e in prefix]
        lo_fn = compiler.compile(lo[0]) if lo else None
        hi_fn = compiler.compile(hi[0]) if hi else None
        in_fns = ([compiler.compile(e) for e in in_list.expr.items]
                  if in_list else None)
        # Equalities (an IN-list is one per value) over the full key
        # width are point seeks; anything that walks part of the key
        # space (partial prefix and/or a range bound) is an ordered
        # range scan.
        exact = (lo is None and hi is None
                 and len(prefix) + bool(in_list) == len(index.column_names))
        op_class = IndexSeek if exact else IndexRangeScan
        seek = op_class(table, index.name, prefix_fns,
                        lo_fn=lo_fn, hi_fn=hi_fn,
                        lo_inclusive=lo[1] if lo else True,
                        hi_inclusive=hi[1] if hi else True,
                        cost_factor=table.cost_factor, in_fns=in_fns)
        # IN-list items are plan-time constants already; what is left to
        # rule out in the prefix is an outer correlation or a subquery.
        seek.constant_key = not any(
            _expr_bindings(e) or is_impure(fn)
            for e, fn in zip(prefix, prefix_fns))
        # Conjuncts fully answered by the seek are dropped; everything
        # else (including eq conjuncts beyond the usable prefix) stays.
        answered: set[int] = set()
        if in_list:
            self._meter.count("optimizer.in_list_seeks")
            seek.est_rows = self._in_seek_rows(
                table, index.column_names[:len(prefix) + 1], in_list.keys)
            answered.add(id(in_list.expr))
        prefix_cols = index.column_names[:len(prefix)]
        for conj in conjuncts:
            parsed = self._index_conjunct(conj, table)
            if parsed is None:
                continue
            column, op, rhs = parsed
            if op == "=" and column in prefix_cols \
                    and eq_map.get(column) is rhs:
                answered.add(id(conj))
            elif next_col and column == next_col:
                if op in (">", ">=") and lo and lo[0] is rhs:
                    answered.add(id(conj))
                if op in ("<", "<=") and hi and hi[0] is rhs:
                    answered.add(id(conj))
        residual = [c for c in conjuncts if id(c) not in answered]
        return Planner._AccessPath(index_seek=seek,
                                   residual_conjuncts=residual)

    @dataclass
    class _InList:
        """A seekable ``col IN (c1 ... cn)`` conjunct."""

        expr: ast.InList
        #: distinct non-NULL values the items have at plan time
        keys: int

    def _seekable_in_lists(self, table, conjuncts: list[ast.Expr],
                           const_scope: Scope) -> dict:
        """Column name -> the first conjunct on it an index can seek by
        key list: a non-negated ``col IN (...)`` whose items are all
        plan-time constants (literals, parameters, arithmetic over them
        — no column of any scope, no subquery) of exactly the column's
        stored type.  Only then does a seek per item return the rows the
        Filter would: items of another type compare by coercion (or
        raise), which a key probe cannot reproduce, so such a list stays
        a residual predicate.  NULL items are allowed (they match
        nothing)."""
        columns = {c.name.lower(): c for c in table.info.columns}
        found: dict[str, Planner._InList] = {}
        compiler = self._compiler(const_scope)
        for conj in conjuncts:
            if not (isinstance(conj, ast.InList) and not conj.negated
                    and isinstance(conj.operand, ast.ColumnRef)):
                continue
            column = columns.get(conj.operand.name.lower())
            if column is None or column.name.lower() in found:
                continue
            if any(_expr_bindings(item) or expr_has_subquery(item)
                   for item in conj.items):
                continue
            try:
                values = {compiler.compile(item)(EvalContext(row=()))
                          for item in conj.items}
            except (EngineError, ArithmeticError, TypeError, ValueError):
                continue  # not evaluable at plan time: leave to the Filter
            values.discard(None)
            stored = stored_type(column.sql_type)
            if all(type(v) is stored for v in values):
                found[column.name.lower()] = Planner._InList(
                    conj, len(values))
        return found

    def _in_seek_rows(self, table, key_columns: list[str],
                      keys: int) -> float:
        """Estimated rows of an IN-list seek: distinct list items times
        the rows per ``key_columns`` value (uniform over each column's
        distinct values, from ANALYZE statistics)."""
        stats, per_key = self._row_count(table.info.name)
        for name in key_columns:
            per_key *= table_stats.equality_selectivity(
                table_stats.column_stats(stats, name))
        return max(1.0, keys * per_key)

    def _index_conjunct(self, expr: ast.Expr, table):
        """Parse ``col <op> rhs`` (either orientation) for ``table``."""
        if not isinstance(expr, ast.Binary):
            return None
        flips = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
        if expr.op not in flips:
            return None
        column_names = {c.name.lower() for c in table.info.columns}
        if isinstance(expr.left, ast.ColumnRef) \
                and expr.left.name in column_names:
            return expr.left.name, expr.op, expr.right
        if isinstance(expr.right, ast.ColumnRef) \
                and expr.right.name in column_names:
            return expr.right.name, flips[expr.op], expr.left
        return None

    def _is_constantish(self, expr: ast.Expr, const_scope: Scope) -> bool:
        """True when ``expr`` has no local column references (literal,
        parameter or pure outer correlation)."""
        try:
            self._compiler(const_scope).compile(expr)
            return True
        except (ColumnNotFoundError, PlanningError):
            return False

    # -- cardinality estimates and the choices made from them ------------------

    #: Cardinality fallback when a relation has no ANALYZE statistics.
    _DEFAULT_ROWS = 1000.0
    #: Selectivity fallback for predicates statistics cannot estimate.
    _DEFAULT_SEL = 0.25
    #: Join orders are enumerated exhaustively (left-deep dynamic
    #: programming) up to this many relations — every TPC-H query, at
    #: about 1 000 steps for eight; beyond it a greedy connected,
    #: smallest-intermediate search keeps planning quadratic.
    _DP_RELATION_LIMIT = 8

    def _const_value(self, expr: ast.Expr, const_scope: Scope):
        """Evaluate ``expr`` at plan time when it is a plan-time constant
        (literal, arithmetic over literals, bound parameter); None when
        it is not, or evaluation fails (e.g. outer correlations)."""
        if expr_has_subquery(expr) \
                or not self._is_constantish(expr, const_scope):
            return None
        try:
            fn = self._compiler(const_scope).compile(expr)
            return fn(EvalContext(row=()))
        except Exception:
            return None

    def _relation_selectivity(self, table, stats: table_stats.TableStats,
                              exprs: list[ast.Expr],
                              const_scope: Scope) -> float:
        """Combined selectivity of a relation's pushed conjuncts, from
        its column statistics (equality via NDV, ranges via histograms,
        independence with the sanity clamp)."""
        sels: list[float] = []
        range_lo: dict[str, tuple[object, bool]] = {}
        range_hi: dict[str, tuple[object, bool]] = {}
        for expr in exprs:
            handled = False
            if isinstance(expr, ast.Between) and not expr.negated \
                    and isinstance(expr.operand, ast.ColumnRef):
                col = table_stats.column_stats(stats, expr.operand.name)
                lo = self._const_value(expr.low, const_scope)
                hi = self._const_value(expr.high, const_scope)
                if col is not None and lo is not None and hi is not None:
                    sels.append(table_stats.range_selectivity(
                        col, lo, hi, True, True))
                    handled = True
            else:
                parsed = self._index_conjunct(expr, table)
                if parsed is not None:
                    column, op, rhs = parsed
                    value = self._const_value(rhs, const_scope)
                    col = table_stats.column_stats(stats, column)
                    if col is not None and value is not None:
                        if op == "=":
                            sels.append(
                                table_stats.equality_selectivity(col))
                            handled = True
                        elif op in (">", ">="):
                            range_lo.setdefault(column, (value, op == ">="))
                            handled = True
                        elif op in ("<", "<="):
                            range_hi.setdefault(column, (value, op == "<="))
                            handled = True
            if not handled:
                sels.append(self._DEFAULT_SEL)
        for column in sorted(set(range_lo) | set(range_hi)):
            col = table_stats.column_stats(stats, column)
            lo = range_lo.get(column)
            hi = range_hi.get(column)
            sels.append(table_stats.range_selectivity(
                col, lo[0] if lo else None, hi[0] if hi else None,
                lo[1] if lo else True, hi[1] if hi else True))
        return table_stats.combine_conjuncts(sels)

    def _estimate_relation(self, rel: _Relation,
                           conjuncts: list["_Conjunct"],
                           outer_scope: Scope | None) -> float:
        """Estimated output rows of a prepared FROM item after its local
        conjuncts apply."""
        local = [c.expr for c in conjuncts
                 if not c.consumed and not c.has_subquery
                 and c.bindings and c.bindings <= rel.bindings]
        # A derived table / view / pre-joined unit has no base statistics.
        _stats, rows = self._row_count(
            rel.table.info.name if rel.table is not None else None)
        return max(1.0, rows * self._conjunct_selectivity(
            rel.table, local, outer_scope))

    def _conjunct_selectivity(self, table, exprs: list[ast.Expr],
                              outer_scope: Scope | None) -> float:
        """Combined selectivity of ``exprs`` over ``table`` (None: not a
        base table): from its statistics when ANALYZEd, the default per
        conjunct otherwise."""
        if not exprs:
            return 1.0
        stats = (self._catalog.get_table_stats(table.info.name)
                 if table is not None else None)
        if stats is None:
            return table_stats.combine_conjuncts(
                [self._DEFAULT_SEL] * len(exprs))
        return self._relation_selectivity(
            table, stats, exprs, self._new_scope([], outer_scope))

    @staticmethod
    def _key_binding(rel: _Relation, expr: ast.Expr) -> str | None:
        """The FROM binding a join-key column reference reads; None for
        anything but a bare column."""
        if not isinstance(expr, ast.ColumnRef):
            return None
        if expr.table is not None:
            return expr.table.lower()
        name = expr.name.lower()
        return next((bc.binding for bc in rel.schema
                     if bc.column.name.lower() == name), None)

    def _ndv_for(self, rel: _Relation, expr: ast.Expr) -> int | None:
        """NDV of a join-key column, resolved through the relation's
        binding -> base-table map; None when unavailable."""
        binding = self._key_binding(rel, expr)
        table_name = rel.binding_tables.get(binding) if binding else None
        if table_name is None:
            return None
        stats = self._catalog.get_table_stats(table_name)
        col = table_stats.column_stats(stats, expr.name.lower())
        return col.ndv if col else None

    def _unique_key_rows(self, rel: _Relation, binding: str | None,
                         exprs: list[ast.Expr]) -> float | None:
        """Row count of ``binding``'s base table (its ANALYZE count, or
        the default guess the relation's estimate already counted) when
        the join columns ``exprs`` cover its primary key or a unique
        index — each row of the other side then meets at most one of its
        rows; None otherwise."""
        table_name = rel.binding_tables.get(binding) if binding else None
        if table_name is None:
            return None
        columns = {e.name.lower() for e in exprs}
        if not any(index.unique and set(index.column_names) <= columns
                   for index in self._tables(table_name).indexes()):
            return None
        return self._row_count(table_name, counted=False)[1]

    def _join_selectivity(self, left: _Relation, right: _Relation,
                          key_pairs: list, fallback_rows: float) -> float:
        """Selectivity of an equi join on ``key_pairs`` (left side's
        expression first): 1 / max(NDV) per pair, the larger estimate
        ``fallback_rows`` standing in for an unknown NDV.

        Independence understates a composite key: ``l_partkey =
        ps_partkey AND l_suppkey = ps_suppkey`` multiplies two NDVs
        although ``(ps_partkey, ps_suppkey)`` is partsupp's primary key
        and each lineitem row meets one partsupp row.  So the pairs are
        grouped per (left binding, right binding), and a group whose
        columns on one side cover that side's unique key gets at least
        1 / rows of that table (the tighter bound when both sides do).
        Per binding pair, not per side: a ``part × supplier`` side
        joined on both tables' keys keeps 1 / (|part|·|supplier|)."""
        groups: dict[tuple, list] = {}
        for pair in key_pairs:
            groups.setdefault((self._key_binding(left, pair[0]),
                               self._key_binding(right, pair[1])),
                              []).append(pair)
        sel = 1.0
        for (left_binding, right_binding), pairs in groups.items():
            group_sel = 1.0
            for left_expr, right_expr in pairs:
                denom = float(max(self._ndv_for(left, left_expr) or 0,
                                  self._ndv_for(right, right_expr) or 0))
                if denom <= 0.0:
                    denom = fallback_rows
                group_sel /= max(denom, 1.0)
            key_rows = [rows for rows in (
                self._unique_key_rows(left, left_binding,
                                      [p[0] for p in pairs]),
                self._unique_key_rows(right, right_binding,
                                      [p[1] for p in pairs]))
                if rows]
            if key_rows and group_sel < 1.0 / max(key_rows):
                self._meter.count("optimizer.unique_key_join_floors")
                group_sel = 1.0 / max(key_rows)
            sel *= group_sel
        return sel

    def _mine_equi_pairs(self, left: _Relation, right: _Relation,
                         conjuncts: list["_Conjunct"],
                         owner: dict[str, str]) -> list:
        """Equi-key expression pairs this join could use — a read-only
        preview of the mining loop (nothing is consumed)."""
        combined = left.bindings | right.bindings
        pairs = []
        for c in conjuncts:
            if c.consumed or c.has_subquery:
                continue
            if not (c.bindings and c.bindings <= combined):
                continue
            pair = self._equi_key(c.expr, left, right, owner)
            if pair is not None:
                pairs.append(pair)
        return pairs

    def _estimate_join_output(self, left: _Relation, right: _Relation,
                              key_pairs: list) -> float:
        """Join output cardinality: |L|·|R| times the join selectivity
        (the classic uniform assumption with a unique-key floor — an FK
        join estimates to the fact side's cardinality)."""
        cl, cr = left.est_rows, right.est_rows
        return max(1.0, cl * cr * self._join_selectivity(
            left, right, key_pairs, max(cl, cr, 1.0)))

    def _delivers_key_order(self, rel: _Relation,
                            key_expr: ast.Expr) -> bool:
        """True when the relation's access path emits rows already
        ordered by the join key: an ordered index range walk whose first
        key column after the consumed equality prefix is the key."""
        if rel.table is None or not isinstance(key_expr, ast.ColumnRef):
            return False
        op = rel.op
        while isinstance(op, Filter):
            op = op.child
        if type(op) is not IndexRangeScan:
            return False
        info = op.table.index_info(op.index_name)
        n_prefix = len(op.prefix_fns)
        if n_prefix >= len(info.column_names):
            return False
        return info.column_names[n_prefix] == key_expr.name.lower()

    def _choose_sort_merge(self, left: _Relation, right: _Relation,
                           key_pairs: list) -> bool:
        """Sort-merge beats hash exactly when neither side needs a sort:
        both inputs arrive in key order and the merge consumes tuples at
        scan rate instead of build/probe rate.  (An unsorted side would
        owe ``sort_seconds``, which loses to the hash join here.)"""
        if (left.est_rows is None or right.est_rows is None
                or len(key_pairs) != 1):
            return False
        left_expr, right_expr = key_pairs[0]
        if not (self._delivers_key_order(left, left_expr)
                and self._delivers_key_order(right, right_expr)):
            return False
        costs = self._meter.costs
        total = left.est_rows + right.est_rows
        return costs.cpu_per_tuple_scan * total \
            < costs.cpu_per_tuple_join * total

    def _order_join_tree(self, prepared: list[_Relation],
                         conjuncts: list["_Conjunct"],
                         owner: dict[str, str],
                         outer_scope: Scope | None) -> list[_Relation]:
        """Choose the left-deep fold order for a comma join list.

        Estimates every relation's post-filter cardinality, builds the
        join graph from the unconsumed equi conjuncts, then minimizes
        the modeled executor cost (hash joins at ``cpu_per_tuple_join``
        per input tuple, cross products at probe-times-build) — DP over
        subsets up to :data:`_DP_RELATION_LIMIT` relations.  Above it a
        greedy search (``optimizer.join_lists_greedy``) appends, while
        any is left, a relation with an equi edge to the placed set, the
        one with the smallest estimated output.  Deterministic: ties
        break on enumeration order.
        """
        n = len(prepared)
        cards = []
        for rel in prepared:
            est = self._estimate_relation(rel, conjuncts, outer_scope)
            rel.est_rows = est
            cards.append(est)
        edge_pairs: dict[tuple[int, int], list] = {}
        for c in conjuncts:
            if c.consumed or c.has_subquery:
                continue
            if not isinstance(c.expr, ast.Binary) or c.expr.op != "=":
                continue
            lhs = _side_bindings(c.expr.left, owner)
            rhs = _side_bindings(c.expr.right, owner)
            if not lhs or not rhs:
                continue
            li = _owning_relation(prepared, lhs)
            ri = _owning_relation(prepared, rhs)
            if li is None or ri is None or li == ri:
                continue
            pair = ((c.expr.left, c.expr.right) if li < ri
                    else (c.expr.right, c.expr.left))
            edge_pairs.setdefault((min(li, ri), max(li, ri)),
                                  []).append(pair)
        edges = {(i, j): self._join_selectivity(
                     prepared[i], prepared[j], pairs,
                     max(cards[i], cards[j], 1.0))
                 for (i, j), pairs in edge_pairs.items()}
        per_join = self._meter.costs.cpu_per_tuple_join

        def step(placed: tuple, placed_card: float, j: int):
            """(cost, output cardinality, has an equi edge) of joining
            ``j`` next."""
            sel = 1.0
            connected = False
            for i in placed:
                edge = edges.get((min(i, j), max(i, j)))
                if edge is not None:
                    connected = True
                    sel *= edge
            if connected:
                cost = per_join * (placed_card + cards[j])
                out = max(1.0, placed_card * cards[j] * sel)
            else:
                # No equi edge: a nested-loop cross pairing.
                cost = per_join * (placed_card + placed_card * cards[j])
                out = max(1.0, placed_card * cards[j])
            return cost, out, connected

        if n <= self._DP_RELATION_LIMIT:
            best: dict[frozenset, tuple[float, float, tuple]] = {
                frozenset((i,)): (0.0, cards[i], (i,)) for i in range(n)}
            for size in range(2, n + 1):
                for subset in combinations(range(n), size):
                    key = frozenset(subset)
                    winner = None
                    for j in subset:
                        prev = best.get(key - {j})
                        if prev is None:
                            continue
                        self._meter.count("optimizer.join_orders_considered")
                        cost, out, _connected = step(prev[2], prev[1], j)
                        candidate = (prev[0] + cost, out, prev[2] + (j,))
                        if winner is None or candidate[0] < winner[0]:
                            winner = candidate
                    best[key] = winner
            order = best[frozenset(range(n))][2]
        else:
            self._meter.count("optimizer.join_lists_greedy")
            start = min(range(n), key=lambda i: (cards[i], i))
            chosen = [start]
            placed_card = cards[start]
            while len(chosen) < n:
                winner = None
                for j in range(n):
                    if j in chosen:
                        continue
                    self._meter.count("optimizer.join_orders_considered")
                    _cost, out, connected = step(tuple(chosen),
                                                 placed_card, j)
                    rank = (not connected, out)
                    if winner is None or rank < winner[0]:
                        winner = (rank, out, j)
                chosen.append(winner[2])
                placed_card = winner[1]
            order = tuple(chosen)
        return [prepared[i] for i in order]

    def _annotate_plan(self, op: PlanOperator) -> tuple[float, float]:
        """Attach ``est_rows`` / ``est_cost`` (cumulative estimated
        virtual seconds, in the Meter's units) to every operator, bottom
        up.  Estimates the join planner already computed are kept; the
        rest get coarse structural rules.  EXPLAIN renders these — the
        join-order and algorithm decisions were made from the structured
        estimates above, not from this pass."""
        costs = self._meter.costs
        children = [self._annotate_plan(c) for c in op.children()]
        in_rows = children[0][0] if children else 1.0
        cost = sum(c[1] for c in children)
        factor = getattr(op, "cost_factor", 1.0)
        est = getattr(op, "est_rows", None)
        if isinstance(op, SeqScan):
            # An estimate made before this pass already counted a guess.
            stats, rows = self._row_count(op.table.info.name,
                                          counted=est is None)
            pages = (float(stats.page_count) if stats
                     else max(1.0, rows / 50.0))
            if est is None:
                est = rows
            cost += (rows * costs.cpu_per_tuple_scan * factor
                     + pages * costs.disk_page_read_seconds)
        elif isinstance(op, IndexSeek):
            _stats, rows = self._row_count(op.table.info.name,
                                           counted=est is None)
            if est is None:
                info = op.table.index_info(op.index_name)
                exact = (op.lo_fn is None and op.hi_fn is None
                         and len(op.prefix_fns) == len(info.column_names))
                est = 1.0 if exact else max(1.0, rows * self._DEFAULT_SEL)
                if op.limit_hint is not None:
                    est = min(est, float(op.limit_hint))
            cost += est * (costs.cpu_per_tuple_index_lookup * factor
                           + costs.disk_page_read_seconds)
        elif isinstance(op, Filter):
            if est is None:
                est = max(1.0, in_rows * self._DEFAULT_SEL)
        elif isinstance(op, (HashJoin, SortMergeJoin)):
            l_rows, r_rows = children[0][0], children[1][0]
            if est is None:
                est = max(l_rows, r_rows)
            if isinstance(op, SortMergeJoin):
                cost += (l_rows + r_rows) * costs.cpu_per_tuple_scan * factor
                if not op.left_sorted:
                    cost += costs.sort_seconds(int(l_rows)) * factor
                if not op.right_sorted:
                    cost += costs.sort_seconds(int(r_rows)) * factor
            else:
                cost += (l_rows + r_rows) * costs.cpu_per_tuple_join * factor
        elif isinstance(op, NestedLoopJoin):
            l_rows, r_rows = children[0][0], children[1][0]
            if est is None:
                est = max(1.0, l_rows * r_rows)
            cost += (l_rows + l_rows * r_rows) \
                * costs.cpu_per_tuple_join * factor
        elif isinstance(op, HashAggregate):
            if est is None:
                est = max(1.0, in_rows * 0.1) if op.group_fns else 1.0
            cost += in_rows * costs.cpu_per_tuple_agg * factor
        elif isinstance(op, Distinct):
            if est is None:
                est = max(1.0, in_rows * 0.5)
            cost += in_rows * costs.cpu_per_tuple_agg * factor
        elif isinstance(op, Sort):
            if est is None:
                est = in_rows
            cost += costs.sort_seconds(int(in_rows)) * factor
        elif isinstance(op, TopNHeapSort):
            if est is None:
                est = min(float(op.count), in_rows)
            cost += costs.topn_seconds(int(in_rows), op.count) * factor
        elif isinstance(op, Limit):
            if est is None:
                est = min(float(op.count), in_rows)
        elif isinstance(op, Concat):
            if est is None:
                est = float(sum(c[0] for c in children))
        elif isinstance(op, EmptyScan):
            if est is None:
                est = 0.0
        elif est is None:
            est = in_rows
        op.est_rows = est
        op.est_cost = cost
        return est, cost

    # -- index-only scans / ordered-scan sort elimination ----------------------

    @staticmethod
    def _single_base_scan(op: PlanOperator,
                          select: ast.SelectStatement) -> IndexSeek | None:
        """The index scan feeding ``op``, when the FROM clause is exactly
        one base table (possibly under residual filters)."""
        if len(select.from_items) != 1 \
                or not isinstance(select.from_items[0], ast.TableName):
            return None
        while isinstance(op, Filter):
            op = op.child
        return op if isinstance(op, IndexSeek) else None

    def _apply_index_only(self, op: PlanOperator,
                          select: ast.SelectStatement,
                          schema: list[BoundColumn]) -> None:
        """Covering projection: when every column the statement can read
        from the scanned table is part of the chosen index key, the scan
        synthesizes its rows from index keys and never touches the heap."""
        scan = self._single_base_scan(op, select)
        if scan is None or scan.index_only:
            return
        info = scan.table.index_info(scan.index_name)
        key_cols = set(info.column_names)
        local_cols = {bc.column.name.lower() for bc in schema}
        binding = select.from_items[0].binding_name
        refs: set[str] = set()
        if not _collect_table_columns(select, binding, local_cols, refs):
            return  # a * projection (or similar) defeats coverage analysis
        if refs <= key_cols:
            scan.index_only = True

    def _sort_satisfied_by_scan(self, op: PlanOperator,
                                select: ast.SelectStatement,
                                select_items: list[ast.SelectItem]) -> bool:
        """True when the access path already yields rows in ORDER BY
        order: an index scan whose key columns after the consumed
        equality prefix match the (ascending) order keys contiguously.
        Order keys pinned by the equality prefix are single-valued and
        may appear anywhere."""
        scan = self._single_base_scan(op, select)
        if scan is None:
            return False
        info = scan.table.index_info(scan.index_name)
        n_prefix = len(scan.prefix_fns)
        pinned = set(info.column_names[:n_prefix])
        remaining = list(info.column_names[n_prefix:])
        binding = select.from_items[0].binding_name
        out_aliases: dict[str, ast.Expr] = {}
        for item in select_items:
            if item.alias:
                out_aliases.setdefault(item.alias.lower(), item.expr)
        idx = 0
        for order in select.order_by:
            if order.descending:
                return False
            expr = order.expr
            if not isinstance(expr, ast.ColumnRef):
                return False
            name = expr.name
            if expr.table is None:
                # ORDER BY resolves output aliases first; only safe when
                # the alias is the same base column.
                aliased = out_aliases.get(name)
                if aliased is not None and not (
                        isinstance(aliased, ast.ColumnRef)
                        and aliased.name == name
                        and aliased.table in (None, binding)):
                    return False
            elif expr.table.lower() != binding:
                return False
            if name in pinned:
                continue
            if idx >= len(remaining) or remaining[idx] != name:
                return False
            idx += 1
        return True

    # -- aggregation ---------------------------------------------------------

    def _plan_aggregate(self, op: PlanOperator, scope: Scope,
                        schema: list[BoundColumn],
                        select: ast.SelectStatement,
                        select_items: list[ast.SelectItem],
                        aggregates: list[ast.FuncCall],
                        compiler: ExprCompiler, factor: float):
        group_fns = [compiler.compile(g) for g in select.group_by]
        unique_aggs: list[ast.FuncCall] = []
        for agg in aggregates:
            if not any(existing is agg for existing in unique_aggs):
                unique_aggs.append(agg)
        specs = []
        args = []
        for agg in unique_aggs:
            arg = arg_fn = None
            if not agg.star:
                if len(agg.args) != 1:
                    raise PlanningError(
                        f"{agg.name.upper()} takes exactly one argument")
                arg = agg.args[0]
                arg_fn = compiler.compile(arg)
            args.append(arg)
            specs.append(AggregateSpec(func=agg.name, arg_fn=arg_fn,
                                       distinct=agg.distinct))
        args_fn = compiler.compile_values(
            args, [spec.arg_fn for spec in specs])
        op = HashAggregate(op, group_fns, specs, args_fn,
                           cost_factor=factor)

        # Output layout: group keys then aggregates.  Group-key columns
        # keep their source column's name (and therefore type) so that
        # select-item metadata — which Phoenix turns into CREATE TABLE
        # column types — resolves against the aggregate's output.
        group_keys = [_expr_key(g, scope) for g in select.group_by]
        out_bindings: list[tuple[str, str]] = []
        out_schema: list[BoundColumn] = []
        for i, g in enumerate(select.group_by):
            name = g.name if isinstance(g, ast.ColumnRef) else f"group{i}"
            column = self._infer_column(g, scope, schema, name)
            out_bindings.append(("", column.name))
            out_schema.append(BoundColumn(binding="", column=column))
        for i, agg in enumerate(unique_aggs):
            column = Column(name=f"agg{i}", sql_type=(
                SqlType.INTEGER if agg.name == "count" else SqlType.FLOAT))
            out_bindings.append(("", column.name))
            out_schema.append(BoundColumn(binding="", column=column))

        # Rewrite select/having/order expressions: aggregate calls map to
        # their slots; subexpressions structurally equal to a group key
        # map to the key's slot.
        replacements: dict[int, int] = {}
        for i, agg in enumerate(unique_aggs):
            slot = len(select.group_by) + i
            for candidate in aggregates:
                if _expr_key(candidate, scope) == _expr_key(agg, scope):
                    replacements[id(candidate)] = slot
        targets: list[ast.Expr] = [item.expr for item in select_items]
        if select.having is not None:
            targets.append(select.having)
        targets.extend(o.expr for o in select.order_by)
        for target in targets:
            _map_group_refs(target, group_keys, scope, replacements)

        new_scope = self._new_scope(out_bindings, scope.outer)
        return op, new_scope, replacements, out_schema

    # -- projection / ordering helpers ---------------------------------------

    def _expand_stars(self, items: list[ast.SelectItem],
                      schema: list[BoundColumn]) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                matched = False
                for bc in schema:
                    if item.expr.table is None \
                            or bc.binding == item.expr.table.lower():
                        expanded.append(ast.SelectItem(
                            expr=ast.ColumnRef(table=bc.binding or None,
                                               name=bc.column.name.lower()),
                            alias=bc.column.name))
                        matched = True
                if not matched:
                    raise PlanningError(
                        f"no columns for {item.expr.table}.*")
            else:
                expanded.append(item)
        return expanded

    def _order_keys_on_output(self, order_by: list[ast.OrderItem],
                              select_items: list[ast.SelectItem],
                              out_schema: list[BoundColumn]):
        """Map ORDER BY keys to output slots if every key allows it."""
        if not order_by:
            return None
        keys: list[SortKey] = []
        names = [bc.column.name.lower() for bc in out_schema]
        for order in order_by:
            slot = None
            expr = order.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                position = expr.value
                if not 1 <= position <= len(out_schema):
                    raise PlanningError(
                        f"ORDER BY position {position} out of range")
                slot = position - 1
            elif isinstance(expr, ast.ColumnRef) and expr.table is None:
                if expr.name in names:
                    slot = names.index(expr.name)
            if slot is None:
                for i, item in enumerate(select_items):
                    if _shallow_expr_equal(expr, item.expr):
                        slot = i
                        break
            if slot is None:
                return None
            keys.append(SortKey(
                key_fn=(lambda ctx, s=slot: ctx.row[s]),
                descending=order.descending))
        return keys

    def _output_column(self, item: ast.SelectItem, position: int,
                       schema: list[BoundColumn], scope: Scope) -> Column:
        name = item.alias
        if name is None:
            if isinstance(item.expr, ast.ColumnRef):
                name = item.expr.name
            elif isinstance(item.expr, ast.FuncCall):
                name = item.expr.name
            else:
                name = f"col{position + 1}"
        return self._infer_column(item.expr, scope, schema, name)

    def _infer_column(self, expr: ast.Expr, scope: Scope,
                      schema: list[BoundColumn], name: str) -> Column:
        sql_type, length = self._infer_type(expr, scope, schema)
        return Column(name=name.lower(), sql_type=sql_type, length=length)

    def _infer_type(self, expr: ast.Expr, scope: Scope,
                    schema: list[BoundColumn]) -> tuple[SqlType, int]:
        if isinstance(expr, ast.Literal):
            if expr.value is None:
                return SqlType.VARCHAR, 1
            sql_type = infer_sql_type(expr.value)
            length = len(expr.value) if isinstance(expr.value, str) else 0
            return sql_type, length
        if isinstance(expr, ast.ColumnRef):
            try:
                level, index = scope.resolve(expr.table, expr.name,
                                             record=False)
            except ColumnNotFoundError:
                return SqlType.FLOAT, 0
            if level == 0 and index < len(schema):
                column = schema[index].column
                return column.sql_type, column.length
            return SqlType.FLOAT, 0
        if isinstance(expr, ast.FuncCall):
            if expr.name == "count":
                return SqlType.INTEGER, 0
            if expr.name in ("sum", "avg"):
                return SqlType.FLOAT, 0
            if expr.name in ("min", "max") and expr.args:
                return self._infer_type(expr.args[0], scope, schema)
            if expr.name in ("substring", "upper", "lower"):
                return SqlType.VARCHAR, 64
            return SqlType.FLOAT, 0
        if isinstance(expr, ast.Extract):
            return SqlType.INTEGER, 0
        if isinstance(expr, ast.Binary):
            if expr.op in ("AND", "OR") or expr.op in (
                    "=", "<>", "<", "<=", ">", ">="):
                return SqlType.INTEGER, 0
            if expr.op == "||":
                return SqlType.VARCHAR, 128
            left_type, _ = self._infer_type(expr.left, scope, schema)
            right_type, _ = self._infer_type(expr.right, scope, schema)
            if SqlType.DATE in (left_type, right_type):
                return SqlType.DATE, 0
            return SqlType.FLOAT, 0
        if isinstance(expr, ast.Unary):
            return self._infer_type(expr.operand, scope, schema)
        if isinstance(expr, ast.CaseWhen) and expr.whens:
            return self._infer_type(expr.whens[0][1], scope, schema)
        if isinstance(expr, ast.Param):
            value = self._params.get(expr.name)
            if value is None:
                return SqlType.VARCHAR, 64
            sql_type = infer_sql_type(value)
            length = len(value) if isinstance(value, str) else 0
            return sql_type, length
        return SqlType.FLOAT, 0

    # -- compiler / subquery bridge ---------------------------------------------

    def _compiler(self, scope: Scope,
                  replacements: dict[int, int] | None = None) -> ExprCompiler:
        return ExprCompiler(
            scope=scope,
            subquery_planner=self._plan_subquery,
            subquery_runner=self._run_subquery,
            params=self._params,
            replacements=replacements,
            subquery_log=self.subquery_log,
            memo_log=self.param_memos)

    def _plan_subquery(self, select: ast.SelectStatement, scope: Scope,
                       limit_one: bool):
        """Plan a nested select; returns (plan, correlation refs).

        Correlation refs are harvested from the scopes created while
        planning the subquery whose outer is ``scope`` — every reference
        crossing the subquery boundary was recorded on one of them (with
        the level already re-based), see :meth:`Scope.resolve`.
        """
        mark = len(self._scope_log)
        plan = self._plan_select(select, outer_scope=scope,
                                 limit_one=limit_one)
        outer_refs: list[tuple[int, int]] = []
        for sub_scope in self._scope_log[mark:]:
            if sub_scope.outer is scope:
                for ref in sub_scope.outer_refs:
                    if ref not in outer_refs:
                        outer_refs.append(ref)
        del self._scope_log[mark:]
        return plan, outer_refs

    def _run_subquery(self, plan: Plan, ctx: EvalContext) -> list[tuple]:
        self._meter.charge(SERVER_CPU,
                           self._meter.costs.cpu_per_statement_seconds * 0.1,
                           "subquery eval")
        return run_plan(plan.root, self._meter, outer=ctx)


# ---------------------------------------------------------------------------
# Conjunct utilities
# ---------------------------------------------------------------------------


class _Conjunct:
    """One WHERE conjunct plus placement metadata.

    ``column_owner`` maps unqualified column names to the binding that
    owns them (when unique), so unqualified predicates still get pushed
    down and can use indexes.
    """

    def __init__(self, expr: ast.Expr,
                 column_owner: dict[str, str] | None = None,
                 ambiguous: set[str] | None = None):
        self.expr = expr
        self.has_subquery = expr_has_subquery(expr)
        self.consumed = False
        raw = _expr_bindings(expr)
        resolved: set[str] = set()
        unresolved = False
        for binding in raw:
            if binding != "?":
                resolved.add(binding)
                continue
            # An unqualified reference: attribute via the owner map.
            unresolved = True
        if unresolved:
            for name in _unqualified_names(expr):
                if ambiguous and name in ambiguous:
                    # Ambiguous locally: make the conjunct unplaceable so
                    # it lands in the late filter, whose compile reports
                    # the ambiguity properly.
                    self.bindings = set()
                    return
                owner = (column_owner or {}).get(name)
                if owner is not None:
                    resolved.add(owner)
                # else: unknown locally — an outer (correlated) column.
                # It binds to no local relation, which lets predicates
                # like ``l_orderkey = o_orderkey`` inside a subquery be
                # pushed to the local side and drive an index seek.
        self.bindings = resolved


def _unqualified_names(expr: ast.Expr) -> set[str]:
    found: set[str] = set()

    def walk(node):
        if isinstance(node, ast.ColumnRef):
            if node.table is None:
                found.add(node.name.lower())
            return
        if isinstance(node, (ast.ScalarSubquery, ast.Exists)):
            return
        if isinstance(node, ast.InSubquery):
            walk(node.operand)
            return
        from repro.sql.expressions import _children
        if isinstance(node, ast.Expr):
            for child in _children(node):
                walk(child)

    walk(expr)
    return found


def _collect_table_columns(node, binding: str, local_cols: set[str],
                           refs: set[str]) -> bool:
    """Collect every column name that may read the ``binding`` relation's
    rows anywhere in ``node``, descending into subqueries (a correlated
    reference still reads the outer row).  Unqualified names are included
    whenever they *could* resolve to the relation (over-collection is
    safe; missing a read is not).  Returns False when the analysis cannot
    be conclusive — e.g. a ``*`` projection."""
    if node is None:
        return True
    if isinstance(node, ast.Star):
        return False
    if isinstance(node, ast.ColumnRef):
        if node.table is None:
            if node.name in local_cols:
                refs.add(node.name)
        elif node.table.lower() == binding:
            refs.add(node.name)
        return True
    if isinstance(node, ast.SelectStatement):
        parts = [item.expr for item in node.select_items]
        parts.append(node.where)
        parts.extend(node.group_by)
        parts.append(node.having)
        parts.extend(o.expr for o in node.order_by)
        parts.extend(node.from_items)
        return all(_collect_table_columns(p, binding, local_cols, refs)
                   for p in parts)
    if isinstance(node, ast.UnionSelect):
        return all(_collect_table_columns(s, binding, local_cols, refs)
                   for s in node.selects)
    if isinstance(node, ast.TableName):
        return True
    if isinstance(node, ast.DerivedTable):
        return _collect_table_columns(node.select, binding, local_cols, refs)
    if isinstance(node, ast.Join):
        return all(_collect_table_columns(p, binding, local_cols, refs)
                   for p in (node.left, node.right, node.condition))
    if isinstance(node, (ast.ScalarSubquery, ast.Exists)):
        return _collect_table_columns(node.subquery, binding, local_cols,
                                      refs)
    if isinstance(node, ast.InSubquery):
        return (_collect_table_columns(node.operand, binding, local_cols,
                                       refs)
                and _collect_table_columns(node.subquery, binding,
                                           local_cols, refs))
    from repro.sql.expressions import _children
    if isinstance(node, ast.Expr):
        return all(_collect_table_columns(c, binding, local_cols, refs)
                   for c in _children(node))
    return True


def _column_owner_map(
        schema: list[BoundColumn]) -> tuple[dict[str, str], set[str]]:
    """Map column name -> binding; also return ambiguous names."""
    owner: dict[str, str] = {}
    ambiguous: set[str] = set()
    for bc in schema:
        name = bc.column.name.lower()
        if name in ambiguous:
            continue
        if name in owner and owner[name] != bc.binding:
            del owner[name]
            ambiguous.add(name)
        else:
            owner[name] = bc.binding
    return owner, ambiguous


def _resolve_column(expr: ast.Expr, relations: list[_Relation],
                    owner: dict[str, str]):
    """``(relation, bound column)`` a bare column reference names among
    ``relations``; None for anything else (expressions, ambiguous or
    outer names)."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    name = expr.name.lower()
    binding = expr.table.lower() if expr.table else owner.get(name)
    for rel in relations:
        if binding in rel.bindings:
            for bc in rel.schema:
                if bc.binding == binding and bc.column.name.lower() == name:
                    return rel, bc
    return None


def _type_family(sql_type: SqlType) -> str:
    """Comparison family: values of one family compare without coercion."""
    if sql_type.is_numeric:
        return "numeric"
    return "text" if sql_type.is_text else "date"


def _split_conjuncts(expr: ast.Expr | None) -> list:
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _split_disjuncts(expr: ast.Expr) -> list:
    if isinstance(expr, ast.Binary) and expr.op == "OR":
        return _split_disjuncts(expr.left) + _split_disjuncts(expr.right)
    return [expr]


def _combine_conjuncts(exprs: list[ast.Expr]) -> ast.Expr:
    combined = exprs[0]
    for expr in exprs[1:]:
        combined = ast.Binary(op="AND", left=combined, right=expr)
    return combined


def _side_bindings(expr: ast.Expr, owner: dict[str, str]) -> set[str]:
    """Bindings of one equality side, resolving unqualified names."""
    raw = _expr_bindings(expr)
    resolved: set[str] = set()
    for binding in raw:
        if binding != "?":
            resolved.add(binding)
            continue
        for name in _unqualified_names(expr):
            side_owner = owner.get(name)
            if side_owner is None:
                return set()
            resolved.add(side_owner)
    return resolved


def _expr_bindings(expr: ast.Expr) -> set[str]:
    """Table qualifiers referenced outside subqueries (unqualified refs
    return the special marker ``?`` so callers treat them as local)."""
    found: set[str] = set()
    _walk_bindings(expr, found)
    return found


def _walk_bindings(node, found: set[str]) -> None:
    if isinstance(node, ast.ColumnRef):
        found.add(node.table.lower() if node.table else "?")
        return
    if isinstance(node, (ast.ScalarSubquery, ast.Exists)):
        return
    if isinstance(node, ast.InSubquery):
        _walk_bindings(node.operand, found)
        return
    from repro.sql.expressions import _children
    if isinstance(node, ast.Expr):
        for child in _children(node):
            _walk_bindings(child, found)


def _contains_param(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Param):
        return True
    from repro.sql.expressions import _children
    if isinstance(expr, ast.Expr):
        return any(_contains_param(c) for c in _children(expr))
    return False


def _owning_relation(prepared: list[_Relation],
                     bindings: set[str]) -> int | None:
    """Index of the prepared relation owning ``bindings`` entirely."""
    for i, rel in enumerate(prepared):
        if bindings <= rel.bindings:
            return i
    return None


def _push_limit_hint(op: PlanOperator, top: int) -> None:
    """Push a Limit's row budget into the index scan feeding it, when
    everything in between is 1:1 (projections).  Host-side early-stop
    only — the Limit stops pulling at exactly the same row, so virtual
    charges are unchanged; the scan just stops walking rids sooner."""
    node = op
    while isinstance(node, Project):
        node = node.child
    if isinstance(node, IndexSeek):
        node.limit_hint = (top if node.limit_hint is None
                           else min(node.limit_hint, top))


def _maybe_point_lookup(op: PlanOperator) -> PlanOperator:
    """Fuse ``Project(IndexSeek)`` into a :class:`PointLookup` when the
    seek is a pure equality over the index's full width — the
    point-select shape that dominates the cached wall-clock mix.  The
    fused operator owes what the pair would, so virtual outputs are
    unchanged."""
    if not isinstance(op, Project) or not isinstance(op.child, IndexSeek):
        return op
    seek = op.child
    if seek.index_only:
        return op  # the fused batch path reads the heap
    if seek.lo_fn is not None or seek.hi_fn is not None:
        return op
    width = len(seek.table.index_info(seek.index_name).column_names)
    if len(seek.prefix_fns) != width:
        return op
    if any(is_impure(fn) for fn in seek.prefix_fns):
        return op
    if any(is_impure(expr) for expr in op.exprs):
        return op
    return PointLookup(op)


# ---------------------------------------------------------------------------
# Structural expression keys (group-by matching)
# ---------------------------------------------------------------------------


def _expr_key(expr: ast.Expr, scope: Scope):
    """A hashable structural key; column refs are resolved so that
    ``l.x`` and ``x`` compare equal when they mean the same column."""
    if isinstance(expr, ast.ColumnRef):
        try:
            level, index = scope.resolve(expr.table, expr.name,
                                         record=False)
            return ("col", level, index)
        except ColumnNotFoundError:
            return ("col?", expr.table, expr.name)
    if isinstance(expr, ast.Literal):
        return ("lit", expr.value)
    if isinstance(expr, ast.Interval):
        return ("interval", expr.amount, expr.unit)
    if isinstance(expr, ast.Param):
        return ("param", expr.name)
    if isinstance(expr, ast.Unary):
        return ("unary", expr.op, _expr_key(expr.operand, scope))
    if isinstance(expr, ast.Binary):
        return ("binary", expr.op, _expr_key(expr.left, scope),
                _expr_key(expr.right, scope))
    if isinstance(expr, ast.FuncCall):
        return ("func", expr.name, expr.distinct, expr.star,
                tuple(_expr_key(a, scope) for a in expr.args))
    if isinstance(expr, ast.Extract):
        return ("extract", expr.field_name, _expr_key(expr.operand, scope))
    if isinstance(expr, ast.CaseWhen):
        return ("case",
                tuple((_expr_key(c, scope), _expr_key(r, scope))
                      for c, r in expr.whens),
                _expr_key(expr.else_result, scope)
                if expr.else_result is not None else None)
    if isinstance(expr, ast.IsNull):
        return ("isnull", expr.negated, _expr_key(expr.operand, scope))
    if isinstance(expr, ast.Between):
        return ("between", expr.negated, _expr_key(expr.operand, scope),
                _expr_key(expr.low, scope), _expr_key(expr.high, scope))
    if isinstance(expr, ast.Like):
        return ("like", expr.negated, _expr_key(expr.operand, scope),
                _expr_key(expr.pattern, scope))
    # Subqueries and anything else compare by identity.
    return ("id", id(expr))


def _map_group_refs(expr: ast.Expr, group_keys: list, scope: Scope,
                    replacements: dict[int, int]) -> None:
    """Record slot replacements for subexpressions equal to group keys."""
    if not isinstance(expr, ast.Expr) or id(expr) in replacements:
        return
    if isinstance(expr, (ast.ScalarSubquery, ast.Exists, ast.InSubquery)):
        if isinstance(expr, ast.InSubquery):
            _map_group_refs(expr.operand, group_keys, scope, replacements)
        return
    key = _expr_key(expr, scope)
    for slot, group_key in enumerate(group_keys):
        if key == group_key:
            replacements[id(expr)] = slot
            return
    from repro.sql.expressions import _children
    for child in _children(expr):
        _map_group_refs(child, group_keys, scope, replacements)


def _shallow_expr_equal(a: ast.Expr, b: ast.Expr) -> bool:
    """Alias-free structural comparison used for ORDER BY slot mapping."""
    empty = Scope([])
    return _expr_key(a, empty) == _expr_key(b, empty)


# ---------------------------------------------------------------------------
# Schema helpers
# ---------------------------------------------------------------------------


def _scope_bindings(schema: list[BoundColumn]) -> list[tuple[str, str]]:
    return [(bc.binding, bc.column.name) for bc in schema]


def _table_schema(table) -> list[BoundColumn]:
    return [BoundColumn(binding=table.info.name, column=c)
            for c in table.info.columns]
