"""Outside-in host-time tracer for the traced repetition.

Wraps, at class level and only while installed, the public entry points
of each layer.  Nothing inside ``src/`` changes: spans are recorded from
the benchmark's own files around the calls into each layer.

* A *span* entry point records name, layer, start, end, parent, op id and
  self time (duration minus the time its wrapped callees took).
* A *leaf* entry point (called too often for a record each) is
  aggregated as (count, self ns) on the span that called it.

Self times are computed online on one frame stack shared by spans and
leaves, so within one op they add up to the root span's duration.
"""

from __future__ import annotations

import importlib
import json
import time

#: layer, module, class ("-" = module-level functions), entry points.
#: A trailing "*" marks a hot entry point, aggregated as a leaf.
SPEC = """
phoenix  repro.phoenix.driver_manager  PhoenixDriverManager \
    exec_direct fetch fetch_block free_statement
phoenix  repro.phoenix.persistence  ResultPersistor  persist reopen
phoenix  repro.phoenix.recovery  SessionRecovery  recover_connection
odbc  repro.odbc.driver  NativeDriver \
    execute execute_pipelined fetch_one fetch_block close_statement
network  repro.server.network  SimulatedNetwork  call call_overlapped
server  repro.server.server  DatabaseServer  handle restart
engine  repro.engine.database  DatabaseEngine \
    execute execute_script checkpoint fuzzy_checkpoint
sql.parse  repro.engine.database  -  parse_statement normalize_statement
sql.planner  repro.sql.planner  Planner  plan_select plan_dml_source
sql.executor  repro.server.results  ServerResultSet  fill_buffer skip_rows
txn.manager  repro.txn.manager  TransactionManager  begin commit abort
txn.locks  repro.txn.locks  LockManager  acquire acquire_row* release_all
wal.log  repro.wal.log  WriteAheadLog  append* force truncate
wal.recovery  repro.wal.recovery  RecoveryManager  recover
storage.buffer_pool  repro.storage.buffer_pool  BufferPool \
    get_page* flush_page flush_all flush_dirtied_before
storage.disk  repro.storage.disk  SimulatedDisk  read_page write_page
sim  repro.sim.meter  Meter \
    charge* charge_batched* charge_rows* charge_run_list*
"""
# sql.parse: the engine binds both functions at import, so the names it
# calls are patched.  sql.executor: SELECT rows are produced lazily — the
# executor runs when the server fills a result's output buffer, not inside
# DatabaseEngine.execute.


def _spec():
    """(layer, module, class or None, entry point, is_leaf) tuples."""
    for line in SPEC.strip().splitlines():
        layer, module, owner, *entries = line.split()
        for entry in entries:
            yield (layer, module, None if owner == "-" else owner,
                   entry.rstrip("*"), entry.endswith("*"))


ROOT_LAYER = "workloads"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op",
                 "self_ns", "error", "leaves")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.start = 0
        self.end = 0
        self.parent = parent
        self.op = op
        self.self_ns = 0
        self.error = False
        self.leaves = None  # leaf name -> [count, self ns]


class Tracer:
    """Records spans in memory; ``write`` dumps them at exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.skipped: list[str] = []
        self._originals: list[tuple] = []
        self._current = -1           # index of the open span, -1 = none
        self._callee_ns = [0]        # per open frame: ns spent in callees
        self._op = -1
        self._layers = {}            # leaf name -> layer

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, class_name, attr, is_leaf in _spec():
            name = f"{class_name}.{attr}" if class_name else attr
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.skipped.append(f"{module_name}:{name}")
                continue
            if is_leaf:
                self._layers[name] = layer
                wrapped = self._leaf(name, original)
            else:
                wrapped = self._span(name, layer, original)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, layer, function):
        spans = self.spans
        callee_ns = self._callee_ns
        clock = time.perf_counter_ns

        def span_wrapper(*args, **kwargs):
            span = Span(name, layer, self._current, self._op)
            spans.append(span)
            saved = self._current
            self._current = len(spans) - 1
            callee_ns.append(0)
            span.start = clock()
            try:
                return function(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = end = clock()
                elapsed = end - span.start
                span.self_ns = elapsed - callee_ns.pop()
                callee_ns[-1] += elapsed
                self._current = saved

        span_wrapper.__wrapped__ = function
        return span_wrapper

    def _leaf(self, name, function):
        spans = self.spans
        callee_ns = self._callee_ns
        clock = time.perf_counter_ns

        def leaf_wrapper(*args, **kwargs):
            callee_ns.append(0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns = elapsed - callee_ns.pop()
                callee_ns[-1] += elapsed
                if self._current >= 0:  # between ops: not op time
                    span = spans[self._current]
                    if span.leaves is None:
                        span.leaves = {}
                    entry = span.leaves.get(name)
                    if entry is None:
                        span.leaves[name] = [1, self_ns]
                    else:
                        entry[0] += 1
                        entry[1] += self_ns

        leaf_wrapper.__wrapped__ = function
        return leaf_wrapper

    # -- root spans (one per op) ---------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        span = Span("op", ROOT_LAYER, -1, op)
        self.spans.append(span)
        self._current = len(self.spans) - 1
        self._callee_ns.append(0)
        span.start = time.perf_counter_ns()

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        span = self.spans[self._current]
        span.end = end
        span.self_ns = (end - span.start) - self._callee_ns.pop()
        self._current = -1
        self._op = -1

    # -- reading ------------------------------------------------------------

    def layer_self_ns(self) -> dict[str, int]:
        """Host self time per layer, spans and leaves together."""
        totals: dict[str, int] = {}
        for span in self.spans:
            totals[span.layer] = totals.get(span.layer, 0) + span.self_ns
            if span.leaves:
                for name, (_count, self_ns) in span.leaves.items():
                    layer = self._layers[name]
                    totals[layer] = totals.get(layer, 0) + self_ns
        return totals

    def leaf_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            if span.leaves:
                for name, (count, _self_ns) in span.leaves.items():
                    counts[name] = counts.get(name, 0) + count
        return counts

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def root_ns(self) -> int:
        return sum(span.end - span.start for span in self.spans
                   if span.parent < 0)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                record = {"id": index, "name": span.name,
                          "layer": span.layer, "start_ns": span.start,
                          "end_ns": span.end, "parent": span.parent,
                          "op": span.op, "self_ns": span.self_ns}
                if span.error:
                    record["error"] = True
                if span.leaves:
                    record["leaves"] = {
                        name: {"layer": self._layers[name],
                               "count": count, "self_ns": self_ns}
                        for name, (count, self_ns) in span.leaves.items()}
                out.write(json.dumps(record) + "\n")
