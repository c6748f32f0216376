"""Access-path selection: "construct the fastest solution" (§III-B).

The paper's point: with the fabric available, the optimizer no longer
searches a combinatorial space of materialized layouts — every column
group is reachable, so it *constructs* the cheapest access path directly
from the query's referenced columns. This optimizer compares the row
scan, the column scan, the ephemeral scan, and (for point queries) an
index probe, and returns the ranked decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.db.catalog import Catalog
from repro.db.plan.binder import BoundQuery, bind
from repro.db.plan.cost import CostEstimate, CostModel
from repro.db.plan.logical import explain
from repro.db.sql.parser import parse
from repro.hw.config import PlatformConfig


@dataclass
class AccessDecision:
    """The optimizer's ranked choice of access path for one query."""

    winner: str
    estimates: Dict[str, CostEstimate]
    query: BoundQuery = field(repr=False)

    @cached_property
    def plan(self) -> str:
        """EXPLAIN text of the winning path, rendered on first read (a
        plain SELECT never reads it)."""
        return explain(
            self.query, access_path=self.estimates[self.winner].access_path
        )

    def ranked(self) -> List[Tuple[str, float]]:
        return sorted(
            ((name, est.cycles) for name, est in self.estimates.items()),
            key=lambda kv: kv[1],
        )

    @property
    def speedup_vs_worst(self) -> float:
        ranked = self.ranked()
        return ranked[-1][1] / ranked[0][1] if ranked[0][1] else float("inf")


class Optimizer:
    """Chooses the cheapest access path for each query."""

    def __init__(
        self,
        catalog: Catalog,
        platform: Optional[PlatformConfig] = None,
        fabric_available: bool = True,
    ):
        self.catalog = catalog
        self.cost_model = CostModel(platform)
        self.fabric_available = fabric_available

    def choose(self, query) -> AccessDecision:
        """``query`` is SQL text or a :class:`BoundQuery`."""
        bound = (
            bind(parse(query), self.catalog) if isinstance(query, str) else query
        )
        stats = self.catalog.stats_of(bound.table.schema.name)
        estimates: Dict[str, CostEstimate] = {
            "scan": self.cost_model.estimate_row_scan(bound, stats),
            "column-scan": self.cost_model.estimate_column_scan(bound, stats),
        }
        if self.fabric_available:
            estimates["ephemeral-scan"] = self.cost_model.estimate_ephemeral_scan(
                bound, stats
            )
        for col in bound.selection_columns:
            index = self.catalog.index_on(bound.table.schema.name, col)
            if index is None:
                continue
            est = self.cost_model.estimate_index_probe(bound, col)
            if est is not None:
                estimates[f"index({col})"] = est
        winner = min(estimates, key=lambda k: estimates[k].cycles)
        return AccessDecision(winner=winner, estimates=estimates, query=bound)
