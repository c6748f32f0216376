"""Per-layer wall time, measured from outside ``src/``.

For the traced run, :func:`installed` rebinds each layer's public entry
points to timing wrappers: a method on its class, a function in every
``repro`` module that imported it by name (``parse_statement`` and
``bind`` are looked up in ``repro.db.sql.pipeline``, not in the modules
that define them). On exit every binding is restored.

Each wrapper records a span (name, start, end, parent) under the
benchmark's per-statement root span. A layer's *self* time is its
spans' durations minus the time covered by their wrapped children; the
root's self time is the part of a statement no wrapped layer covers.
Wrappers only record inside a statement, so set-up work between
statements is not attributed.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = "op"

#: Spans kept for the Chrome trace file; per-layer totals cover all.
MAX_KEPT_SPANS = 50_000


class Recorder:
    """Span stack plus per-layer totals for one traced pass."""

    def __init__(self) -> None:
        #: Open frames: [name, start_ns, child_ns, span_index].
        self._stack: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.incl_ns: Dict[str, int] = defaultdict(int)
        #: Outermost calls per layer (a layer re-entered under itself,
        #: such as ``Table.column`` under ``column_values``, counts once).
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: (name, start_ns, end_ns, parent_index) for the trace file.
        self.spans: List[list] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        index = -1
        if len(self.spans) < MAX_KEPT_SPANS:
            index = len(self.spans)
            self.spans.append([name, 0, 0, parent[3] if parent else -1])
        frame = [name, 0, 0, index]
        self._stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        name, start, child, index = frame
        duration = end - start
        self.self_ns[name] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            outermost = parent[0] != name
        else:
            outermost = True
        if outermost:
            self.calls[name] += 1
            self.incl_ns[name] += duration
        if index >= 0:
            self.spans[index][1:3] = [start, end]

    @contextmanager
    def op(self) -> Iterator[None]:
        """The benchmark's root span around one statement."""
        frame = self._open(ROOT)
        try:
            yield
        finally:
            self._close(frame)

    def outermost(self, name: str) -> bool:
        """True when no open span of ``name`` encloses the current call."""
        return all(frame[0] != name for frame in self._stack)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as layer ``name``; ``after(args, result)`` runs
        outside the span to add counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            count = after is not None and self.outermost(name)
            frame = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if count:
                after(args, out)
            return out

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` counted (not timed) as ``name``: for entry points too
        hot and too small to span, such as ``CostLedger.charge``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_chrome(self, path) -> None:
        """Write the kept spans as Chrome trace-event JSON (complete
        events, microseconds)."""
        base = min((s[1] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": "perfbench",
                "ph": "X",
                "ts": (start - base) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": parent},
            }
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _targets() -> Tuple[List[tuple], List[tuple], List[tuple]]:
    """Entry points as (layer name, owner, attribute): functions and
    methods to time, and methods to count."""
    from repro.core import mvcc_filter
    from repro.core.ephemeral import EphemeralColumnGroup
    from repro.core.fabric import RelationalMemory
    from repro.core.ledger import CostLedger
    from repro.db.engines.base import Engine
    from repro.db.engines.rmstore import RelationalMemoryEngine
    from repro.db.exec import vector
    from repro.db.mvcc import TransactionManager
    from repro.db.plan import binder, logical
    from repro.db.plan.optimizer import Optimizer
    from repro.db.sql import parser
    from repro.db.table import Table
    from repro.db.wal import WriteAheadLog
    from repro.hw.analytic import AnalyticMemoryModel, MemoryModel, TraceMemoryModel
    from repro.hw.hierarchy import MemoryHierarchy

    functions = [
        ("db.sql.parse", parser, "parse_statement"),
        ("db.plan.bind", binder, "bind"),
        ("db.plan.bind", binder, "bind_insert"),
        ("db.plan.bind", binder, "bind_update"),
        ("db.plan.bind", binder, "bind_delete"),
        ("db.plan.explain", logical, "explain"),
        ("core.visibility", mvcc_filter, "visible_mask_batched"),
        ("db.exec.kernel", vector, "run_vector"),
    ]
    methods = [
        ("db.plan.optimize", Optimizer, "choose"),
        ("db.table.decode", Table, "column"),
        ("db.table.decode", Table, "column_values"),
        ("db.exec.kernel", vector.FusedKernel, "__call__"),
        ("db.engines.execute", Engine, "execute"),
        ("db.engines.execute", RelationalMemoryEngine, "execute"),
        ("core.fabric", RelationalMemory, "configure"),
        ("core.fabric", EphemeralColumnGroup, "refresh"),
        ("hw.hierarchy", MemoryHierarchy, "access_lines_batch"),
        ("db.mvcc.commit", TransactionManager, "commit"),
        ("db.mvcc.abort", TransactionManager, "abort"),
        ("db.wal.append", WriteAheadLog, "append"),
        ("db.wal.flush", WriteAheadLog, "flush"),
    ]
    for cls in (MemoryModel, AnalyticMemoryModel, TraceMemoryModel):
        for attr in ("sequential", "strided", "multi_stream", "random", "gather"):
            if attr in vars(cls):
                methods.append(("hw.sim", cls, attr))
    return functions, methods, [("core.ledger.charge", CostLedger, "charge")]


def _after(rec: Recorder, name: str) -> Optional[Callable]:
    """Counts taken where the work happens, per outermost call."""
    if name == "db.table.decode":
        def decoded(args, out):
            rec.counts["db.table.decoded_bytes"] += out.nbytes
        return decoded
    if name == "db.engines.execute":
        def scanned(args, out):
            rec.counts["db.engines.visible_rows"] += out.visible_rows
            rec.counts["db.engines.rows_returned"] += out.result.nrows
        return scanned
    if name == "hw.hierarchy":
        def lines(args, out):
            rec.counts["hw.lines"] += len(args[1])
        return lines
    return None


@contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every layer entry point for the duration of the block."""
    functions, methods, counted = _targets()
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for name, module, attr in functions:
            original = getattr(module, attr)
            wrapper = rec.wrap(name, original, _after(rec, name))
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") \
                        and vars(mod).get(attr) is original:
                    restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for (name, cls, attr), count in [(m, False) for m in methods] + \
                [(m, True) for m in counted]:
            original = vars(cls)[attr]
            restore.append((cls, attr, original))
            setattr(cls, attr, rec.counter(name, original) if count
                    else rec.wrap(name, original, _after(rec, name)))
        yield rec
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
