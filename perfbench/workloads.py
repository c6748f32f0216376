"""The benchmark's workloads: generated data, statement decks, reference answers.

Each workload is a closed loop with one client in one process. It owns
a *deck*: a fixed, seed-derived list of SQL statements that the timed
loop replays in order. ``build()`` creates the system state the deck
runs against (catalog, tables, sessions) through the public API, and
``check(i, rows, rows_affected)`` referees the answer of deck entry
``i`` against a reference that shares neither the column-decode path
(``Table.column``) nor the vectorized executor (``repro.db.exec``).

Why these three (see README.md for the long form):

* ``tpch-olap`` is read-only analytics on a lineitem table: ``scan``
  (Q6 variants) is column-decode-bound and ``agg`` (Q1 variants) is
  group-kernel-bound.
* ``oltp-mixed`` is small MVCC + WAL traffic: parse, bind, plan, MVCC
  and WAL dominate, and writes bump ``Table.version`` between reads.
* ``fabric-trace`` is the paper's Fig. 5 projectivity sweep in the
  event-accurate memory model: hardware simulation and the fabric
  dominate.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.db.catalog import Catalog
from repro.db.engines import RelationalMemoryEngine, RowStoreEngine
from repro.db.sql.pipeline import Session
from repro.db.wal import WriteAheadLog
from repro.workloads.synthetic import VALUE_RANGE, projectivity_query, wide_schema
from repro.workloads.tpch import lineitem_schema


@dataclass(frozen=True)
class Op:
    """One deck entry: its statement class, the session it runs on, SQL."""

    cls: str
    session: str
    sql: str


@dataclass
class State:
    """What ``Workload.build`` returns: sessions plus what the harness
    reads around each statement (WAL ledger and stats, trace-model
    cache hierarchies)."""

    sessions: Dict[str, Session]
    wal: Optional[WriteAheadLog] = None
    hierarchies: List[Any] = field(default_factory=list)


class Workload:
    """Interface the harness drives; subclasses fill in the deck."""

    name: str = ""
    #: Statement classes, in report order.
    classes: Tuple[str, ...] = ()
    #: Classes whose statements write (per-write layer metrics).
    write_classes: Tuple[str, ...] = ()
    #: Rebuild the state before every replay of the deck, so each pass
    #: over the deck starts from the same data (writing workloads).
    reset_each_deck: bool = False
    #: Calibration kernel shaped like the deck's own work (see
    #: ``harness.HostSpeed``): ``"numpy"`` or ``"python"``.
    host_kernel: str = "numpy"

    def __init__(self) -> None:
        self.deck: List[Op] = []

    def build(self, tracer=None) -> State:
        raise NotImplementedError

    def check(self, i: int, rows: List[tuple], rows_affected: int) -> bool:
        raise NotImplementedError


def _near(got: Any, want: float) -> bool:
    """Float answers computed in another summation order: equal to 1e-9
    relative (DECIMAL sums are exact in the reference)."""
    return isinstance(got, float) and abs(got - want) <= 1e-9 * max(1.0, abs(want))


# ----------------------------------------------------------------------
# tpch-olap
# ----------------------------------------------------------------------
_EPOCH = datetime.date(1970, 1, 1)


def _day(y: int, m: int, d: int) -> int:
    return (datetime.date(y, m, d) - _EPOCH).days


_Q6 = (
    "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_shipdate >= date '{y}-01-01' AND l_shipdate < date '{y1}-01-01' "
    "AND l_discount BETWEEN {dlo} AND {dhi} AND l_quantity < {q}"
)

_Q1 = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       avg(l_quantity) AS avg_qty,
       avg(l_extendedprice) AS avg_price,
       avg(l_discount) AS avg_disc,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= date '1998-12-01' - interval '{days}' day
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def lineitem_arrays(nrows: int, seed: int) -> Dict[str, np.ndarray]:
    """TPC-H-style lineitem columns in stored form (DECIMAL as scaled
    ints, DATE as day numbers, CHAR as fixed byte strings)."""
    rng = np.random.default_rng(seed)
    ship_lo, ship_hi, cutoff = _day(1992, 1, 2), _day(1998, 12, 1), _day(1995, 6, 17)
    quantity = rng.integers(1, 51, nrows, dtype=np.int64)
    shipdate = rng.integers(ship_lo, ship_hi + 1, nrows, dtype=np.int32)
    receiptdate = shipdate + rng.integers(1, 31, nrows).astype(np.int32)
    returned = rng.random(nrows) < 0.5
    return {
        "l_orderkey": np.sort(rng.integers(1, 2 * nrows + 2, nrows, dtype=np.int64)),
        "l_partkey": rng.integers(1, 200_000, nrows, dtype=np.int64),
        "l_suppkey": rng.integers(1, 10_000, nrows, dtype=np.int64),
        "l_linenumber": rng.integers(1, 8, nrows, dtype=np.int32),
        "l_quantity": quantity * 100,
        "l_extendedprice": quantity * rng.integers(90_000, 200_001, nrows, dtype=np.int64),
        "l_discount": rng.integers(0, 11, nrows, dtype=np.int64),
        "l_tax": rng.integers(0, 9, nrows, dtype=np.int64),
        "l_returnflag": np.where(
            receiptdate > cutoff, b"N", np.where(returned, b"R", b"A")
        ).astype("S1"),
        "l_linestatus": np.where(shipdate > cutoff, b"O", b"F").astype("S1"),
        "l_shipdate": shipdate,
        "l_commitdate": shipdate + rng.integers(-30, 31, nrows).astype(np.int32),
        "l_receiptdate": receiptdate,
        "l_shipinstruct": rng.choice(
            np.array([b"DELIVER IN PERSON", b"COLLECT COD", b"NONE"], dtype="S25"), nrows
        ),
        "l_shipmode": rng.choice(
            np.array([b"REG AIR", b"AIR", b"RAIL", b"SHIP", b"TRUCK"], dtype="S10"), nrows
        ),
        "l_comment": np.full(nrows, b"perfbench lineitem", dtype="S44"),
    }


class TpchOlap(Workload):
    """Read-only analytics: Q6 variants (``scan``) and Q1 variants
    (``agg``) at four to one, on the row engine, analytic memory model."""

    name = "tpch-olap"
    classes = ("scan", "agg")

    ROWS = 100_000
    GROUPS = 10  # deck = GROUPS x (4 scans + 1 agg)

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.nrows = max(500, int(self.ROWS * scale))
        self.data_seed = int(rng.integers(1 << 31))
        # Q6 latency depends on its literals, so every seed gets the same
        # literal set (each ship year with each discount band once, half
        # of them with each quantity cut) in its own order, and Q1
        # cut-offs one per 6-day stratum: runs of different seeds then
        # differ in data and order, not in how much work the deck is.
        scans = [(y, c) for y in range(1993, 1998) for c in range(2, 10)]
        quantity = rng.permutation([24, 25] * (len(scans) // 2))
        order = rng.permutation(len(scans))
        days = 60 + 6 * rng.permutation(self.GROUPS) + rng.integers(0, 6, self.GROUPS)
        #: Deck entry -> reference parameters.
        self._params: List[Tuple[str, tuple]] = []
        for g in range(self.GROUPS):
            for n in order[4 * g : 4 * g + 4]:
                (y, c), q = scans[n], int(quantity[n])
                sql = _Q6.format(
                    y=y, y1=y + 1, dlo=f"{(c - 1) / 100:.2f}",
                    dhi=f"{(c + 1) / 100:.2f}", q=q,
                )
                self.deck.append(Op("scan", "main", sql))
                self._params.append(("q6", (y, c, q)))
            self.deck.append(Op("agg", "main", _Q1.format(days=int(days[g]))))
            self._params.append(("q1", (int(days[g]),)))
        self._arrays: Optional[Dict[str, np.ndarray]] = None
        self._expected: Dict[tuple, Any] = {}

    def build(self, tracer=None) -> State:
        arrays = lineitem_arrays(self.nrows, self.data_seed)
        catalog = Catalog()
        catalog.create_table(lineitem_schema()).append_arrays(arrays)
        session = Session(catalog, tracer=tracer)
        # First execution of each statement shape belongs to set-up.
        session.execute(self.deck[0].sql).rows
        session.execute(self.deck[4].sql).rows
        self._arrays = arrays
        return State({"main": session})

    def _reference(self, i: int) -> Any:
        key = self._params[i]
        if key not in self._expected:
            kind, p = key
            a = self._arrays
            self._expected[key] = _q6_reference(a, *p) if kind == "q6" else _q1_reference(a, *p)
        return self._expected[key]

    def check(self, i: int, rows: List[tuple], rows_affected: int) -> bool:
        want = self._reference(i)
        if len(rows) != len(want):
            return False
        for got_row, want_row in zip(rows, want):
            if len(got_row) != len(want_row):
                return False
            for got, w in zip(got_row, want_row):
                if isinstance(w, float):
                    if not _near(got, w):
                        return False
                elif got != w:
                    return False
        return True


def _q6_reference(a: Dict[str, np.ndarray], year: int, c: int, q: int) -> List[tuple]:
    m = (
        (a["l_shipdate"] >= _day(year, 1, 1))
        & (a["l_shipdate"] < _day(year + 1, 1, 1))
        & (a["l_discount"] >= c - 1)
        & (a["l_discount"] <= c + 1)
        & (a["l_quantity"] < q * 100)
    )
    exact = int(np.sum(a["l_extendedprice"][m] * a["l_discount"][m]))
    return [(exact / 10_000,)]


def _q1_reference(a: Dict[str, np.ndarray], days: int) -> List[tuple]:
    m = a["l_shipdate"] <= _day(1998, 12, 1) - days
    flag, status = a["l_returnflag"][m], a["l_linestatus"][m]
    qty, ext = a["l_quantity"][m], a["l_extendedprice"][m]
    disc, tax = a["l_discount"][m], a["l_tax"][m]
    out = []
    for f in sorted(set(flag.tolist())):
        for s in sorted(set(status[flag == f].tolist())):
            g = (flag == f) & (status == s)
            n = int(np.count_nonzero(g))
            e, d = ext[g], disc[g]
            sum_qty = int(qty[g].sum()) / 100
            sum_base = int(e.sum()) / 100
            out.append((
                f.decode(), s.decode(), sum_qty, sum_base,
                int(np.sum(e * (100 - d))) / 10_000,
                int(np.sum(e * (100 - d) * (100 + tax[g]))) / 1_000_000,
                sum_qty / n, sum_base / n, int(d.sum()) / 100 / n, n,
            ))
    return out


# ----------------------------------------------------------------------
# oltp-mixed
# ----------------------------------------------------------------------
_BRANCHES = 16


class OltpMixed(Workload):
    """Point reads, autocommit updates and inserts, and a small GROUP BY
    on an MVCC ``accounts`` table, every write WAL-logged."""

    name = "oltp-mixed"
    classes = ("point", "update", "insert", "agg")
    write_classes = ("update", "insert")
    reset_each_deck = True
    host_kernel = "python"

    ROWS = 2_000
    DECK = 2_000
    MIX = (("point", 0.60), ("update", 0.20), ("insert", 0.15), ("agg", 0.05))
    LOAD_BATCH = 200

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.nrows = max(50, int(self.ROWS * scale))
        deck_len = max(40, int(self.DECK * scale))
        self.initial: Dict[int, Tuple[int, int]] = {
            k: (int(rng.integers(_BRANCHES)), int(rng.integers(0, 100_000)))
            for k in range(self.nrows)
        }
        # Exact class counts, shuffled: every seed has the same mix.
        kinds: List[str] = []
        for cls, share in self.MIX:
            kinds += [cls] * int(round(share * deck_len))
        kinds = [kinds[j] for j in rng.permutation(len(kinds))]

        shadow = dict(self.initial)
        self._expected: List[Tuple[List[tuple], int]] = []
        for cls in kinds:
            if cls == "point":
                k = int(rng.integers(len(shadow)))
                sql = f"SELECT id, branch, balance FROM accounts WHERE id = {k}"
                want = ([(k, *shadow[k])], 0)
            elif cls == "update":
                k = int(rng.integers(len(shadow)))
                delta = int(rng.integers(-100, 101))
                sql = f"UPDATE accounts SET balance = balance + {delta} WHERE id = {k}"
                branch, balance = shadow[k]
                shadow[k] = (branch, balance + delta)
                want = ([], 1)
            elif cls == "insert":
                k = len(shadow)
                branch, balance = int(rng.integers(_BRANCHES)), int(rng.integers(0, 100_000))
                sql = f"INSERT INTO accounts VALUES ({k}, {branch}, {balance})"
                shadow[k] = (branch, balance)
                want = ([], 1)
            else:
                floor = int(rng.integers(0, 50_000))
                sql = (
                    "SELECT branch, count(*) AS n, sum(balance) AS total FROM accounts "
                    f"WHERE balance >= {floor} GROUP BY branch ORDER BY branch"
                )
                want = (_branch_totals(shadow, floor), 0)
            self.deck.append(Op(cls, "main", sql))
            self._expected.append(want)

    def build(self, tracer=None) -> State:
        wal = WriteAheadLog()
        session = Session(wal=wal, tracer=tracer)
        session.execute("CREATE TABLE accounts (id INT64, branch INT32, balance INT64)")
        items = sorted(self.initial.items())
        for start in range(0, len(items), self.LOAD_BATCH):
            values = ", ".join(
                f"({k}, {b}, {v})" for k, (b, v) in items[start : start + self.LOAD_BATCH]
            )
            session.execute(f"INSERT INTO accounts VALUES {values}")
        # First execution of each statement shape belongs to set-up; the
        # update adds zero, so the data the deck expects is unchanged.
        session.execute("SELECT id, branch, balance FROM accounts WHERE id = 0").rows
        session.execute("UPDATE accounts SET balance = balance + 0 WHERE id = 0")
        session.execute(
            "SELECT branch, count(*) AS n, sum(balance) AS total FROM accounts "
            "WHERE balance >= 0 GROUP BY branch ORDER BY branch"
        ).rows
        return State({"main": session}, wal=wal)

    def check(self, i: int, rows: List[tuple], rows_affected: int) -> bool:
        want_rows, want_affected = self._expected[i]
        return rows == want_rows and rows_affected == want_affected


def _branch_totals(shadow: Dict[int, Tuple[int, int]], floor: int) -> List[tuple]:
    counts: Dict[int, int] = {}
    totals: Dict[int, int] = {}
    for branch, balance in shadow.values():
        if balance >= floor:
            counts[branch] = counts.get(branch, 0) + 1
            totals[branch] = totals.get(branch, 0) + balance
    return [(b, counts[b], float(totals[b])) for b in sorted(counts)]


# ----------------------------------------------------------------------
# fabric-trace
# ----------------------------------------------------------------------
class FabricTrace(Workload):
    """The Fig. 5 projectivity sweep, alternating a ROW and an RM session
    over one catalog, both in the event-accurate memory model."""

    name = "fabric-trace"
    #: One class per session: the two engines' latencies differ about
    #: twofold, so a single ``scan`` median would sit between two modes.
    classes = ("scan-row", "scan-rm")
    host_kernel = "python"

    ROWS = 50_000
    NCOLS = 16
    MAX_K = 11

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.nrows = max(500, int(self.ROWS * scale))
        self.data_seed = int(rng.integers(1 << 31))
        self._ks: List[int] = []
        for k in rng.permutation(np.arange(1, self.MAX_K + 1)):
            sql = projectivity_query(int(k))
            self.deck += [Op("scan-row", "row", sql), Op("scan-rm", "rm", sql)]
            self._ks += [int(k), int(k)]
        self._sums: Optional[np.ndarray] = None

    def _arrays(self) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(self.data_seed)
        return {
            f"c{i}": rng.integers(0, VALUE_RANGE, self.nrows, dtype=np.int32)
            for i in range(self.NCOLS)
        }

    def build(self, tracer=None) -> State:
        arrays = self._arrays()
        catalog = Catalog()
        catalog.create_table(wide_schema(ncols=self.NCOLS)).append_arrays(arrays)
        sessions = {
            "row": Session(
                engine=RowStoreEngine(catalog, memory_model="trace", tracer=tracer),
                tracer=tracer,
            ),
            "rm": Session(
                engine=RelationalMemoryEngine(catalog, memory_model="trace", tracer=tracer),
                tracer=tracer,
            ),
        }
        for session in sessions.values():
            session.execute(projectivity_query(1)).rows
        if self._sums is None:
            # Prefix sums over columns in int64: exact, no decode path.
            per_col = np.array([int(arrays[f"c{i}"].sum(dtype=np.int64))
                                for i in range(self.NCOLS)], dtype=np.int64)
            self._sums = np.cumsum(per_col)
        return State(
            sessions,
            hierarchies=[s.engine.memory.hierarchy for s in sessions.values()],
        )

    def check(self, i: int, rows: List[tuple], rows_affected: int) -> bool:
        want = float(self._sums[self._ks[i] - 1])
        return (
            len(rows) == 1 and len(rows[0]) == 1 and isinstance(rows[0][0], float)
            and rows[0][0].hex() == want.hex()
        )


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    TpchOlap.name: TpchOlap,
    OltpMixed.name: OltpMixed,
    FabricTrace.name: FabricTrace,
}
