"""Incremental metadata derivation — Algorithm 1 of the paper (Section IV).

The derived-metadata table ``H`` is a *partially materialized view*: hourly
summary statistics (max/min/mean/std of sample values) per (station,
channel, hour).  Eagerly materializing it means touching all actual data —
exactly what lazy loading avoids — so the paper derives DMd on the fly:

1. find the query's type (skip unless it refers to DMd: T2/T3/T5);
2. collect the predicates on the DMd table's *primary key* attributes;
3. enumerate the primary-key space those predicates select (``PSq``),
   reading literal bounds through the shared
   :class:`~repro.engine.predicates.LiteralBounds`;
4. check it against the already-materialized key set (``PSm``);
5. the uncovered remainder is ``PSu = PSq − PSm``;
6. compute the DMd pointed to by ``PSu`` with an internal query (which
   itself runs two-stage, lazy-loading chunks unless ``D`` already holds
   the data) and insert it into ``H``;
7. proceed with the original query.

Per the paper, *all* window statistics are derived together for a window
("if we derive some metadata for a specific window, then we derive all
possible metadata for that window") since chunk loading dominates the cost.

Windows that turn out to hold no data are remembered as materialized
(an empty window is knowledge too — otherwise every later query would
re-scan the chunk range to rediscover the emptiness).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..engine import algebra
from ..engine.database import Database
from ..engine.expressions import (
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    IsIn,
    Literal,
    col,
    conjoin,
    conjuncts,
    lit,
)
from ..engine.predicates import LiteralBounds, oriented_bound_conjuncts
from ..engine.table import Table, TableBuilder
from ..engine.types import TIMESTAMP as _TS
from ..mseed.format import segment_end_ms
from .query_types import references_derived_metadata
from .schema import HOUR_MS, SommelierConfig, window_of_expression

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .two_stage import TwoStageCompiler

__all__ = ["KeySpace", "DerivationReport", "PartialViewManager"]


@dataclass
class KeySpace:
    """Step 2/3 outcome: constraints and the enumerated PSq."""

    stations: set[str] | None  # None = unconstrained
    channels: set[str] | None
    ts_low: int | None  # inclusive, hour-aligned after enumeration
    ts_high: int | None  # exclusive
    keys: list[tuple[str, str, int]] = field(default_factory=list)


@dataclass
class DerivationReport:
    """What one Algorithm-1 invocation did."""

    applicable: bool = False
    psq_size: int = 0
    psm_overlap: int = 0
    psu_size: int = 0
    windows_inserted: int = 0
    derivation_queries: int = 0
    seconds: float = 0.0
    chunks_loaded: int = 0


class PartialViewManager:
    """Owns the materialization state of the H view for one database."""

    def __init__(
        self,
        database: Database,
        config: SommelierConfig,
        compiler: "TwoStageCompiler",
    ) -> None:
        self.database = database
        self.config = config
        self.compiler = compiler
        self._materialized: set[tuple[str, str, int]] = set()
        self.sync_from_table()

    # -- state -------------------------------------------------------------

    def sync_from_table(self) -> None:
        """Adopt keys already present in H (e.g. after eager derivation)."""
        h_table = self.database.catalog.table("H")
        image = h_table.data
        if image.num_rows == 0:
            return
        stations = image.column("window_station").values
        channels = image.column("window_channel").values
        starts = image.column("window_start_ts").values
        for station, channel, start in zip(stations, channels, starts):
            self._materialized.add((station, channel, int(start)))

    # -- Algorithm 1 ---------------------------------------------------------

    def ensure_for_query(self, plan: algebra.LogicalPlan) -> DerivationReport:
        """Run Algorithm 1 for one bound query plan."""
        report = DerivationReport()
        started = time.perf_counter()
        # Step 1: type check.
        if not references_derived_metadata(plan, self.database.catalog):
            report.seconds = time.perf_counter() - started
            return report
        report.applicable = True
        # Steps 2-3: predicates on PK attributes -> enumerate PSq.
        space = self._enumerate_key_space(self._collect_predicates(plan))
        report.psq_size = len(space.keys)
        # Steps 4-5: covering test against PSm.
        unavailable = [k for k in space.keys if k not in self._materialized]
        report.psm_overlap = report.psq_size - len(unavailable)
        report.psu_size = len(unavailable)
        # Step 6: compute and insert what PSu points to.
        if unavailable:
            report.windows_inserted, report.derivation_queries, loaded = (
                self._derive(unavailable)
            )
            report.chunks_loaded = loaded
            self._materialized.update(unavailable)
        report.seconds = time.perf_counter() - started
        return report

    def derive_all(self) -> DerivationReport:
        """Eager DMd computation: materialize the entire key space."""
        report = DerivationReport()
        report.applicable = True
        started = time.perf_counter()
        space = self._enumerate_key_space([])
        report.psq_size = len(space.keys)
        unavailable = [k for k in space.keys if k not in self._materialized]
        report.psu_size = len(unavailable)
        if unavailable:
            report.windows_inserted, report.derivation_queries, loaded = (
                self._derive(unavailable)
            )
            report.chunks_loaded = loaded
            self._materialized.update(unavailable)
        report.seconds = time.perf_counter() - started
        return report

    # -- Step 2: predicate collection ---------------------------------------------

    def _collect_predicates(self, plan: algebra.LogicalPlan) -> list[Expression]:
        """All conjuncts anywhere in the plan referencing H's PK attributes."""
        collected: list[Expression] = []

        def visit(node: algebra.LogicalPlan) -> None:
            if isinstance(node, algebra.Select):
                collected.extend(conjuncts(node.predicate))
            if isinstance(node, algebra.Join) and node.condition is not None:
                collected.extend(conjuncts(node.condition))
            for child in node.children():
                visit(child)

        visit(plan)
        return collected

    # -- Step 3: PSq enumeration -----------------------------------------------------

    def _enumerate_key_space(
        self, predicates: Iterable[Expression]
    ) -> KeySpace:
        predicates = list(predicates)
        # Equality join conditions (e.g. H.window_station = F.station) make
        # constraints transitive: a literal bound on any column of an
        # equivalence class constrains the PK attribute too.
        classes = _column_equivalence_classes(predicates)
        station_cols = _aliases_of("H.window_station", classes)
        channel_cols = _aliases_of("H.window_channel", classes)
        ts_cols = _aliases_of("H.window_start_ts", classes)

        where = conjoin(predicates)
        stations = _bounds_on(where, station_cols).points()
        channels = _bounds_on(where, channel_cols).points()
        for predicate in predicates:
            for name in station_cols:
                stations = _merge(stations, _string_constraint(predicate, name))
            for name in channel_cols:
                channels = _merge(channels, _string_constraint(predicate, name))
        ts_low, ts_high = _bounds_on(where, ts_cols).int_range()

        pairs = self._station_channel_pairs(stations, channels)
        # H is keyed by window start, so the first window the query can
        # return starts at the low edge rounded up to an hour; the data
        # span's own low edge rounds down below.  The integer range is
        # closed; the key space's high edge is open.
        if ts_low is not None:
            ts_low = -(-ts_low // HOUR_MS) * HOUR_MS
        low_ms, high_ms = self._clip_to_data_span(
            ts_low, None if ts_high is None else ts_high + 1
        )
        keys: list[tuple[str, str, int]] = []
        if low_ms is not None and high_ms is not None:
            hour = low_ms - (low_ms % HOUR_MS)
            while hour < high_ms:
                for station, channel in pairs:
                    keys.append((station, channel, hour))
                hour += HOUR_MS
        return KeySpace(stations, channels, low_ms, high_ms, keys)

    def _station_channel_pairs(
        self, stations: set[str] | None, channels: set[str] | None
    ) -> list[tuple[str, str]]:
        """Distinct (station, channel) pairs of F matching the constraints.

        The DMd key domain is anchored in the given metadata: windows can
        only exist for sensors that exist.
        """
        f_data = self.database.catalog.table("F").data
        station_col = f_data.column("station").values
        channel_col = f_data.column("channel").values
        pairs: dict[tuple[str, str], None] = {}
        for station, channel in zip(station_col, channel_col):
            if stations is not None and station not in stations:
                continue
            if channels is not None and channel not in channels:
                continue
            pairs.setdefault((station, channel), None)
        return sorted(pairs)

    def _clip_to_data_span(
        self, ts_low: int | None, ts_high: int | None
    ) -> tuple[int | None, int | None]:
        """Intersect the queried range with the data availability from S."""
        s_data = self.database.catalog.table("S").data
        if s_data.num_rows == 0:
            return None, None
        starts = s_data.column("start_time").values
        ends = segment_end_ms(
            starts,
            s_data.column("sample_count").values,
            s_data.column("frequency").values,
        )
        data_low = int(starts.min())
        data_high = int(ends.max())
        low = data_low if ts_low is None else max(ts_low, data_low)
        high = data_high if ts_high is None else min(ts_high, data_high)
        if low >= high:
            return None, None
        return low, high

    # -- Step 6: derivation --------------------------------------------------------

    def _derive(
        self, unavailable: list[tuple[str, str, int]]
    ) -> tuple[int, int, int]:
        """Compute and insert the DMd rows pointed to by PSu.

        Contiguous hours per (station, channel) coalesce into one derivation
        query so chunk loading amortizes.  Returns (rows inserted, number of
        derivation queries run, chunks loaded).
        """
        inserted = 0
        queries = 0
        chunks_loaded = 0
        for station, channel, lo, hi in _coalesce_runs(unavailable):
            plan = self._derivation_plan(station, channel, lo, hi)
            result = self.compiler.execute_compiled(self.compiler.compile(plan))
            chunks_loaded += result.stats.chunks_loaded
            rows = self._as_h_rows(result.table)
            if rows.num_rows:
                self.database.insert("H", rows)
                inserted += rows.num_rows
            queries += 1
        return inserted, queries, chunks_loaded

    def _derivation_plan(
        self, station: str, channel: str, lo: int, hi: int
    ) -> algebra.LogicalPlan:
        """The internal derivation query (run like any other query).

        Shape::

            Aggregate(group by station, channel, window;
                      MAX/MIN/AVG/STD of sample_value)
              Project(station, channel, window := t - t % hour, value)
                σ(station = :s AND channel = :c AND lo ≤ sample_time < hi)
                  (F ⋈ S ⋈ D)
        """
        view_plan = self.database.catalog.view("dataview").plan_factory()
        predicate_parts = [
            Comparison("=", col("F.station"), lit(station)),
            Comparison("=", col("F.channel"), lit(channel)),
            Comparison(">=", col("D.sample_time"), Literal(lo, _TS)),
            Comparison("<", col("D.sample_time"), Literal(hi, _TS)),
        ]
        selected = algebra.Select(view_plan, conjoin(predicate_parts))
        as_float = Arithmetic("*", col("D.sample_value"), lit(1.0))
        projected = algebra.Project(
            selected,
            [
                ("window_station", col("F.station")),
                ("window_channel", col("F.channel")),
                ("window_start_ts", window_of_expression("D.sample_time")),
                ("value", as_float),
            ],
        )
        return algebra.Aggregate(
            projected,
            ["window_station", "window_channel", "window_start_ts"],
            [
                algebra.AggregateSpec("MAX", col("value"), "window_max_val"),
                algebra.AggregateSpec("MIN", col("value"), "window_min_val"),
                algebra.AggregateSpec("AVG", col("value"), "window_mean_val"),
                algebra.AggregateSpec("STD", col("value"), "window_std_dev"),
            ],
        )

    def _as_h_rows(self, computed: Table) -> Table:
        """Align a derivation result with H's physical schema."""
        builder = TableBuilder(self.database.catalog.table("H").schema)
        builder.append_columns(
            [
                computed.column("window_station").values,
                computed.column("window_channel").values,
                computed.column("window_start_ts").values,
                computed.column("window_max_val").values,
                computed.column("window_min_val").values,
                computed.column("window_mean_val").values,
                computed.column("window_std_dev").values,
            ]
        )
        return builder.finish()


# -- predicate matching helpers ---------------------------------------------------


def _column_equivalence_classes(
    predicates: Iterable[Expression],
) -> list[set[str]]:
    """Equivalence classes of columns connected by ``col = col`` conjuncts."""
    classes: list[set[str]] = []
    for predicate in predicates:
        if (
            isinstance(predicate, Comparison)
            and predicate.op == "="
            and isinstance(predicate.left, ColumnRef)
            and isinstance(predicate.right, ColumnRef)
        ):
            a, b = predicate.left.name, predicate.right.name
            hits = [c for c in classes if a in c or b in c]
            merged = {a, b}
            for hit in hits:
                merged |= hit
                classes.remove(hit)
            classes.append(merged)
    return classes


def _aliases_of(column_name: str, classes: list[set[str]]) -> set[str]:
    """All columns known equal to ``column_name`` (including itself)."""
    for cls in classes:
        if column_name in cls:
            return set(cls)
    return {column_name}


def _bounds_on(where: Expression | None, names: set[str]) -> LiteralBounds:
    """The literal bounds on any of the named columns, all known equal."""
    return LiteralBounds.from_conjuncts(
        (op, literal.value)
        for column, op, literal in oriented_bound_conjuncts(where)
        if column in names
    )


def _string_constraint(
    predicate: Expression, column_name: str
) -> set[str] | None:
    """Extract {allowed values} from ``col IN (...)``."""
    if (
        isinstance(predicate, IsIn)
        and isinstance(predicate.operand, ColumnRef)
        and predicate.operand.name == column_name
    ):
        return set(predicate.options)
    return None


def _merge(current: set[str] | None, new: set[str] | None) -> set[str] | None:
    if new is None:
        return current
    if current is None:
        return set(new)
    return current & new


def _coalesce_runs(
    keys: list[tuple[str, str, int]]
) -> list[tuple[str, str, int, int]]:
    """Group keys by (station, channel) and merge contiguous hours.

    Returns ``(station, channel, lo_ms, hi_ms)`` tuples with hi exclusive.
    """
    by_pair: dict[tuple[str, str], list[int]] = {}
    for station, channel, hour in keys:
        by_pair.setdefault((station, channel), []).append(hour)
    runs: list[tuple[str, str, int, int]] = []
    for (station, channel), hours in sorted(by_pair.items()):
        hours.sort()
        run_start = hours[0]
        previous = hours[0]
        for hour in hours[1:]:
            if hour == previous + HOUR_MS:
                previous = hour
                continue
            runs.append((station, channel, run_start, previous + HOUR_MS))
            run_start = hour
            previous = hour
        runs.append((station, channel, run_start, previous + HOUR_MS))
    return runs

