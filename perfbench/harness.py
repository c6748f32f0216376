"""Timed and traced runs of one workload, and the metrics they report.

A *timed* run (``--trace 0``) sets the workload up several times, then
replays its deck through ``Session.execute`` for the requested seconds
with tracing off and reports the end-to-end metrics.

A *traced* run (``--trace 1``) makes three passes over the same
statements, each from a fresh set-up: plain, with the layer wrappers of
:mod:`perfbench.layers`, and with ``Session(tracer=Tracer())``. All
three must return identical answers and simulated cycles. It reports
the per-layer metrics and writes the wrapped pass's spans as a Chrome
trace.

Every statement's answer is checked against the workload's reference;
a mismatch or an error counts as failed.

Host times in the end-to-end metrics are normalised for host speed. A
shared 2-core container runs a fifth or more slower for seconds to
minutes at a time while its neighbours are busy, which moved run
medians by 10-20%. :class:`HostSpeed` times a fixed kernel between
statements, and each statement's wall time is scaled by
``REFERENCE_KERNEL_MS / kernel median``. The kernel is the benchmark's
own code, so a change to the program cannot move it. It comes in two
kinds, because neighbours do not slow all code alike: while they stream
memory, NumPy copies slow far more than interpreted Python. Each
workload names the kind shaped like its own statements
(``Workload.host_kernel``):

* ``"numpy"``: Python bytecode, a sort, and a strided column copy out
  of a 12.8 MB row image, like column decode and group-by argsorts;
* ``"python"``: an LRU of slotted objects in small dicts plus small
  NumPy calls, like the cache simulation and the SQL layers.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench import layers
from perfbench.workloads import WORKLOADS, State, Workload
from repro.errors import ReproError
from repro.obs import Tracer

#: Traced runs write their span files here.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Set-ups timed per run (``setup_s`` is their median).
SETUP_REPEATS = 5
#: Share of ``--seconds`` the traced run's plain pass may take; the
#: wrapped and tracer passes replay the same statements after it.
TRACED_PLAIN_SHARE = 0.3

#: Kernel medians on the reference host (2-core 2.1 GHz container):
#: normalised times read as milliseconds on that host.
REFERENCE_KERNEL_MS = {"numpy": 2.0, "python": 1.5}
#: Seconds between kernel timings, and repetitions per timing.
CALIBRATE_EVERY_S = 0.2
CALIBRATE_REPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_cycles_per_op": "cycles",
}

PER_LAYER_UNITS = {
    "db.sql.parse_us_per_op": "us",
    "db.plan.bind_us_per_op": "us",
    "db.plan.optimize_us_per_op": "us",
    "db.plan.explain_calls_per_op": "count",
    "db.plan.explain_us_per_op": "us",
    "db.table.decode_ms_per_op": "ms",
    "db.table.decode_calls_per_op": "count",
    "db.table.decoded_mb_per_op": "MB",
    "core.visibility_us_per_op": "us",
    "db.exec.kernel_ms_per_op": "ms",
    "db.engines.execute_self_us_per_op": "us",
    "db.engines.rows_scanned_per_row_returned": "ratio",
    "hw.sim_ms_per_op": "ms",
    "hw.lines_per_op": "count",
    "hw.mlines_per_s": "Mlines/s",
    "hw.l2_hit_rate": "ratio",
    "core.fabric_ms_per_op": "ms",
    "core.ledger.charges_per_op": "count",
    "db.mvcc.commit_us_per_write": "us",
    "db.mvcc.retries_per_write": "count",
    "db.wal.append_us_per_write": "us",
    "db.wal.flush_us_per_write": "us",
    "db.wal.bytes_per_write": "B",
    "db.wal.flushes_per_write": "count",
    "obs.tracer_overhead_frac": "ratio",
    "bench.wrapper_overhead_frac": "ratio",
    "bench.unattributed_frac": "ratio",
}


class _Line:
    __slots__ = ("tag", "last_use")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.last_use = 0


class HostSpeed:
    """Interleaved calibration kernel: ``factor`` converts wall time
    measured now into wall time on the reference host."""

    def __init__(self, kind: str) -> None:
        rng = np.random.default_rng(0)
        self._reference_ms = REFERENCE_KERNEL_MS[kind]
        self._kernel = {"numpy": self._numpy_kernel, "python": self._python_kernel}[kind]
        if kind == "numpy":
            self._keys = rng.integers(0, 1 << 30, 20_000)
            self._frame = rng.integers(0, 256, (200_000, 64), dtype=np.uint8)
        else:
            self._tags = rng.integers(0, 1 << 12, 1_200).tolist()
            self._small = [rng.integers(0, 64, 8) for _ in range(16)]
        self._last = -math.inf
        self.factor = 1.0

    def _numpy_kernel(self) -> None:
        acc = 0
        for i in range(2_000):
            acc += i % 7
        np.sort(self._keys)
        np.ascontiguousarray(self._frame[:, 8:16]).view(np.int64).sum()

    def _python_kernel(self) -> None:
        sets: List[dict] = [{} for _ in range(64)]
        for i, tag in enumerate(self._tags):
            lines = sets[tag & 63]
            line = lines.pop(tag, None)
            if line is None:
                line = _Line(tag)
                if len(lines) >= 8:
                    del lines[next(iter(lines))]
            line.last_use = i
            lines[tag] = line
        for a in self._small:
            np.unique(a)
            np.isin(a, a[:3]).any()

    def _kernel_ms(self) -> float:
        t0 = time.perf_counter_ns()
        self._kernel()
        return (time.perf_counter_ns() - t0) / 1e6

    def calibrate(self, force: bool = False) -> float:
        """Re-time the kernel if ``CALIBRATE_EVERY_S`` has passed."""
        now = time.perf_counter()
        if force or now - self._last >= CALIBRATE_EVERY_S:
            ms = statistics.median(self._kernel_ms() for _ in range(CALIBRATE_REPS))
            self.factor = self._reference_ms / ms
            self._last = time.perf_counter()
        return self.factor


@dataclass
class Pass:
    """Everything one pass over the deck recorded, in statement order."""

    cls: List[str] = field(default_factory=list)
    wall_ns: List[int] = field(default_factory=list)
    #: ``HostSpeed.factor`` when each statement ran.
    speed: List[float] = field(default_factory=list)
    cycles: List[float] = field(default_factory=list)
    #: ``repr`` of (rows, rows_affected): equal reprs = identical answers.
    answers: List[str] = field(default_factory=list)
    failed: int = 0
    #: Set-up times, normalised for host speed.
    setup_s: List[float] = field(default_factory=list)
    #: Sums of per-statement counter deltas (traced pass only).
    deltas: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.cls)

    def ms(self, raw: bool = False) -> List[float]:
        """Per-statement wall times in ms, normalised unless ``raw``."""
        if raw:
            return [ns / 1e6 for ns in self.wall_ns]
        return [ns / 1e6 * f for ns, f in zip(self.wall_ns, self.speed)]


def _build(workload: Workload, tracer, record: Pass, host: HostSpeed) -> State:
    gc.collect()
    factor = host.calibrate(force=True)
    t0 = time.perf_counter()
    state = workload.build(tracer=tracer)
    record.setup_s.append((time.perf_counter() - t0) * factor)
    return state


def _probe(state: State) -> Dict[str, float]:
    """Counters read around each statement of the wrapped pass."""
    out: Dict[str, float] = {}
    for h in state.hierarchies:
        c = h.counters()
        out["l2_hits"] = out.get("l2_hits", 0) + c["l2_hits"]
        out["l2_misses"] = out.get("l2_misses", 0) + c["l2_misses"]
    if state.wal is not None:
        out["wal_bytes"] = state.wal.stats.bytes_appended
        out["wal_flushes"] = state.wal.stats.flushes
    return out


def drive(
    workload: Workload,
    host: HostSpeed,
    *,
    deadline: Optional[float] = None,
    count: Optional[int] = None,
    tracer=None,
    recorder: Optional[layers.Recorder] = None,
) -> Pass:
    """Replay the deck until ``deadline`` (``perf_counter`` seconds, at
    least one whole deck) or for exactly ``count`` statements."""
    deck = workload.deck
    record = Pass()
    state = _build(workload, tracer, record, host)
    gc.collect()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i >= len(deck) and time.perf_counter() >= deadline:
            break
        j = i % len(deck)
        if j == 0 and i and workload.reset_each_deck:
            state = _build(workload, tracer, record, host)
        op = deck[j]
        speed = host.calibrate()
        session = state.sessions[op.session]
        wal_before = state.wal.ledger.total_cycles if state.wal is not None else 0.0
        before = _probe(state) if recorder is not None else None
        rows: list = []
        affected = 0
        cycles = math.nan
        ok = False
        try:
            with recorder.op() if recorder is not None else nullcontext():
                t0 = time.perf_counter_ns()
                out = session.execute(op.sql)
                rows = out.rows
                t1 = time.perf_counter_ns()
            affected = out.rows_affected
            wal_after = state.wal.ledger.total_cycles if state.wal is not None else 0.0
            cycles = out.cycles + (wal_after - wal_before)
            ok = workload.check(j, rows, affected)
        except ReproError as exc:
            t1 = time.perf_counter_ns()
            rows = [("error", type(exc).__name__, str(exc))]
        if before is not None:
            after = _probe(state)
            for key, value in after.items():
                record.deltas[key] = record.deltas.get(key, 0) + value - before.get(key, 0)
        record.cls.append(op.cls)
        record.wall_ns.append(t1 - t0)
        record.speed.append(speed)
        record.cycles.append(cycles)
        record.answers.append(repr((rows, affected)))
        record.failed += not ok
        i += 1
    return record


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def class_latencies(
    workload: Workload, record: Pass, raw: bool = False
) -> Dict[str, Dict[str, float]]:
    """Per statement class: samples, median and p90 wall time in ms."""
    out = {}
    times = record.ms(raw)
    for cls in workload.classes:
        ms = [t for c, t in zip(record.cls, times) if c == cls]
        if ms:
            out[cls] = {"n": len(ms), "p50": _quantile(ms, 0.5), "p90": _quantile(ms, 0.9)}
    return out


def first_deck_cycles(workload: Workload, record: Pass) -> float:
    """Mean simulated cycles over the first replay of the deck: every run
    completes it, so it is a pure function of the seed."""
    n = len(workload.deck)
    return math.fsum(record.cycles[:n]) / n


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload: Workload, seconds: float, log: Callable[[str], None]) -> dict:
    host = HostSpeed(workload.host_kernel)
    setups = Pass()
    for _ in range(SETUP_REPEATS - 1):
        _build(workload, None, setups, host)
    record = drive(workload, host, deadline=time.perf_counter() + seconds)
    setup_times = setups.setup_s + record.setup_s
    classes = class_latencies(workload, record)
    raw = class_latencies(workload, record, raw=True)
    for cls, c in classes.items():
        log(f"class {cls}: n={c['n']} p50_ms={c['p50']:.4f} p90_ms={c['p90']:.4f} "
            f"(unnormalised {raw[cls]['p50']:.4f}, {raw[cls]['p90']:.4f})")
    log(f"host speed factor: median {statistics.median(record.speed):.4f}")
    total_s = sum(record.ms()) / 1e3
    metrics = {
        "setup_s": _quantile(setup_times, 0.5),
        "ops_per_s": record.attempted / total_s,
        "p50_ms": _geomean([c["p50"] for c in classes.values()]),
        "p90_ms": _geomean([c["p90"] for c in classes.values()]),
        "peak_rss_mb": _peak_rss_mb(),
        "sim_cycles_per_op": first_deck_cycles(workload, record),
    }
    log(f"setups={len(setup_times)} failed_frac={record.failed / record.attempted:.6f}")
    return _result(record.failed == 0, record.attempted, record.failed, metrics,
                   END_TO_END_UNITS)


def traced_run(
    workload: Workload, seconds: float, trace_file: Path, log: Callable[[str], None]
) -> dict:
    host = HostSpeed(workload.host_kernel)
    plain = drive(workload, host, deadline=time.perf_counter() + seconds * TRACED_PLAIN_SHARE)
    n = plain.attempted
    rec = layers.Recorder()
    with layers.installed(rec):
        wrapped = drive(workload, host, count=n, recorder=rec)
    traced = drive(workload, host, count=n, tracer=Tracer())

    mismatched = 0
    for other in (wrapped, traced):
        for k in range(n):
            if other.answers[k] != plain.answers[k] or \
                    other.cycles[k].hex() != plain.cycles[k].hex():
                mismatched += 1
    failed = plain.failed + wrapped.failed + traced.failed + mismatched
    attempted = 3 * n
    log(f"statements per pass={n} identity_mismatches={mismatched} "
        f"failed_frac={failed / attempted:.6f}")
    log(f"sim_cycles_per_op={first_deck_cycles(workload, plain)!r}")

    trace_file.parent.mkdir(parents=True, exist_ok=True)
    rec.write_chrome(trace_file)
    log(f"spans: {len(rec.spans)} written to {trace_file}")

    metrics = per_layer_metrics(workload, plain, wrapped, traced, rec)
    return _result(failed == 0, attempted, failed, metrics, PER_LAYER_UNITS)


def per_layer_metrics(
    workload: Workload, plain: Pass, wrapped: Pass, traced: Pass, rec: layers.Recorder
) -> Dict[str, float]:
    ops = wrapped.attempted
    writes = max(1, sum(c in workload.write_classes for c in wrapped.cls))
    self_ns, calls, counts = rec.self_ns, rec.calls, rec.counts
    d = wrapped.deltas
    l2 = d.get("l2_hits", 0) + d.get("l2_misses", 0)
    op_ns = rec.incl_ns[layers.ROOT]
    plain_p50 = _geomean([c["p50"] for c in class_latencies(workload, plain).values()])

    def overhead(other: Pass) -> float:
        """Slow-down against the plain pass, on the geometric mean of
        class medians (robust to the odd stalled statement)."""
        return _geomean([c["p50"] for c in class_latencies(workload, other).values()]) \
            / plain_p50 - 1.0

    return {
        "db.sql.parse_us_per_op": self_ns["db.sql.parse"] / ops / 1e3,
        "db.plan.bind_us_per_op": self_ns["db.plan.bind"] / ops / 1e3,
        "db.plan.optimize_us_per_op": self_ns["db.plan.optimize"] / ops / 1e3,
        "db.plan.explain_calls_per_op": calls["db.plan.explain"] / ops,
        "db.plan.explain_us_per_op": self_ns["db.plan.explain"] / ops / 1e3,
        "db.table.decode_ms_per_op": self_ns["db.table.decode"] / ops / 1e6,
        "db.table.decode_calls_per_op": calls["db.table.decode"] / ops,
        "db.table.decoded_mb_per_op": counts["db.table.decoded_bytes"] / ops / 1e6,
        "core.visibility_us_per_op": self_ns["core.visibility"] / ops / 1e3,
        "db.exec.kernel_ms_per_op": self_ns["db.exec.kernel"] / ops / 1e6,
        "db.engines.execute_self_us_per_op": self_ns["db.engines.execute"] / ops / 1e3,
        "db.engines.rows_scanned_per_row_returned": (
            counts["db.engines.visible_rows"] / max(1, counts["db.engines.rows_returned"])
        ),
        "hw.sim_ms_per_op": (self_ns["hw.sim"] + self_ns["hw.hierarchy"]) / ops / 1e6,
        "hw.lines_per_op": counts["hw.lines"] / ops,
        "hw.mlines_per_s": (
            counts["hw.lines"] * 1e3 / rec.incl_ns["hw.hierarchy"]
            if rec.incl_ns["hw.hierarchy"] else 0.0
        ),
        "hw.l2_hit_rate": d.get("l2_hits", 0) / l2 if l2 else 0.0,
        "core.fabric_ms_per_op": self_ns["core.fabric"] / ops / 1e6,
        "core.ledger.charges_per_op": counts["core.ledger.charge"] / ops,
        "db.mvcc.commit_us_per_write": self_ns["db.mvcc.commit"] / writes / 1e3,
        "db.mvcc.retries_per_write": calls["db.mvcc.abort"] / writes,
        "db.wal.append_us_per_write": self_ns["db.wal.append"] / writes / 1e3,
        "db.wal.flush_us_per_write": self_ns["db.wal.flush"] / writes / 1e3,
        "db.wal.bytes_per_write": d.get("wal_bytes", 0) / writes,
        "db.wal.flushes_per_write": d.get("wal_flushes", 0) / writes,
        "obs.tracer_overhead_frac": overhead(traced),
        "bench.wrapper_overhead_frac": overhead(wrapped),
        "bench.unattributed_frac": self_ns[layers.ROOT] / op_ns,
    }


def _result(correct: bool, attempted: int, failed: int, metrics: Dict[str, float],
            units: Dict[str, str]) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def span_file(workload_name: str, seed: int) -> Path:
    """Where a traced run writes its Chrome trace."""
    return OUT_DIR / f"spans-{workload_name}-seed{seed}.json"


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    log: Callable[[str], None] = print,
) -> dict:
    workload = WORKLOADS[workload_name](seed, scale)
    if trace:
        return traced_run(workload, seconds, span_file(workload_name, seed), log)
    return timed_run(workload, seconds, log)
