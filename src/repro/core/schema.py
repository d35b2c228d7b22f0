"""The seismology warehouse schema of the paper (Section II-C).

Three base tables derived from the mSEED format [13]:

* ``F`` — per-file given metadata: URI plus sensor identification
  (network, station, location, channel) and technical characteristics
  (data_quality, encoding, byte_order).  Primary key ``file_id``.
* ``S`` — per-segment given metadata: start_time, sampling frequency,
  sample_count.  Primary key ``(file_id, segment_no)``; FK to ``F``.
* ``D`` — the actual data: one row per sample
  ``(file_id, segment_no, sample_time, sample_value)``; FKs to ``F``/``S``.

Plus the derived-metadata table ``H`` (hourly window summaries, Section
II-C) with primary key ``(window_station, window_channel,
window_start_ts)``, and the non-materialized views:

* ``gmdview`` — F ⋈ S (GMd only);
* ``dataview`` — F ⋈ S ⋈ D, the "universal table" of Query 1;
* ``windowmetaview`` — (F ⋈ S) ⋈ H (GMd + DMd, no actual data);
* ``windowdataview`` — F ⋈ S ⋈ D ⋈ H of Query 2, where H connects to
  F on (station, channel), to S via time-interval overlap, and to D by
  containment of sample_time in the hourly window.

:class:`SommelierConfig` also records the *time-bound inference* rule: a
predicate ``D.sample_time ≥ X`` implies that only segments whose
``[start_time, end_time)`` interval intersects the bound can contribute —
the rewrite that lets stage one narrow the chunk set by time (this is what
makes the paper's Query 1 touch "three files" instead of every file of the
station).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import algebra
from ..engine.catalog import ForeignKey, TableKind
from ..engine.database import Database
from ..engine.expressions import (
    Arithmetic,
    BooleanOp,
    Comparison,
    Expression,
    col,
    lit,
)
from ..engine.table import Schema
from ..engine.types import FLOAT64, INT64, STRING, TIMESTAMP

__all__ = [
    "HOUR_MS",
    "SommelierConfig",
    "create_seismology_schema",
    "segment_end_expression",
    "window_of_expression",
]

HOUR_MS = 3600 * 1000


def segment_end_expression() -> Expression:
    """Exclusive end timestamp of a segment, from S's metadata columns.

    ``S.start_time + S.sample_count * (1000 / S.frequency)`` — the segment
    span is implied metadata, derivable without touching actual data.
    """
    period_ms = Arithmetic("/", lit(1000.0), col("S.frequency"))
    span = Arithmetic("*", col("S.sample_count"), period_ms)
    return Arithmetic("+", col("S.start_time"), span)


def window_of_expression(time_column: str) -> Expression:
    """Floor a timestamp to its hourly window start: ``t - (t % hour)``."""
    remainder = Arithmetic("%", col(time_column), lit(HOUR_MS, INT64))
    return Arithmetic("-", col(time_column), remainder)


@dataclass(frozen=True)
class TimeBoundInference:
    """Transitive predicate inference from AD time to segment metadata.

    A conjunct ``<ad_time_column> op literal`` lets the compile-time
    optimizer add a metadata predicate on the segment span so stage one
    selects only chunks whose segments can contain qualifying samples.
    """

    ad_time_column: str  # e.g. "D.sample_time"
    segment_start_column: str  # e.g. "S.start_time"

    def infer(self, op: str, bound: Expression) -> Expression | None:
        """The implied metadata predicate for ``ad_time op bound``."""
        if op in ("<", "<="):
            return Comparison(op, col(self.segment_start_column), bound)
        if op in (">", ">="):
            return Comparison(">", segment_end_expression(), bound)
        if op == "=":
            return BooleanOp(
                "AND",
                [
                    Comparison("<=", col(self.segment_start_column), bound),
                    Comparison(">", segment_end_expression(), bound),
                ],
            )
        return None


@dataclass
class SommelierConfig:
    """Everything the paper-specific machinery needs to know about a schema."""

    uri_column: str = "F.uri"
    actual_tables: tuple[str, ...] = ("D",)
    time_inference: tuple[TimeBoundInference, ...] = field(
        default_factory=lambda: (
            TimeBoundInference("D.sample_time", "S.start_time"),
        )
    )
    derived_tables: tuple[str, ...] = ("H",)


def create_seismology_schema(database: Database) -> SommelierConfig:
    """Create F, S, D, H and all four views in ``database``'s catalog."""
    catalog = database.catalog

    catalog.create_table(
        "F",
        Schema.of(
            ("file_id", INT64),
            ("uri", STRING),
            ("network", STRING),
            ("station", STRING),
            ("location", STRING),
            ("channel", STRING),
            ("data_quality", STRING),
            ("encoding", INT64),
            ("byte_order", INT64),
        ),
        TableKind.METADATA,
        primary_key=("file_id",),
    )
    catalog.create_table(
        "S",
        Schema.of(
            ("file_id", INT64),
            ("segment_no", INT64),
            ("start_time", TIMESTAMP),
            ("frequency", FLOAT64),
            ("sample_count", INT64),
        ),
        TableKind.METADATA,
        primary_key=("file_id", "segment_no"),
        foreign_keys=[ForeignKey(("file_id",), "F", ("file_id",))],
    )
    catalog.create_table(
        "D",
        Schema.of(
            ("file_id", INT64),
            ("segment_no", INT64),
            ("sample_time", TIMESTAMP),
            ("sample_value", INT64),
        ),
        TableKind.ACTUAL,
        foreign_keys=[
            ForeignKey(("file_id",), "F", ("file_id",)),
            ForeignKey(
                ("file_id", "segment_no"), "S", ("file_id", "segment_no")
            ),
        ],
    )
    catalog.create_table(
        "H",
        Schema.of(
            ("window_station", STRING),
            ("window_channel", STRING),
            ("window_start_ts", TIMESTAMP),
            ("window_max_val", FLOAT64),
            ("window_min_val", FLOAT64),
            ("window_mean_val", FLOAT64),
            ("window_std_dev", FLOAT64),
        ),
        TableKind.DERIVED,
        primary_key=("window_station", "window_channel", "window_start_ts"),
    )

    def scan(name: str) -> algebra.Scan:
        return algebra.Scan(name, database.qualified_schema(name))

    def f_join_s() -> algebra.LogicalPlan:
        return algebra.Join(
            scan("F"),
            scan("S"),
            Comparison("=", col("F.file_id"), col("S.file_id")),
        )

    def d_join_condition() -> Expression:
        return BooleanOp(
            "AND",
            [
                Comparison("=", col("D.file_id"), col("S.file_id")),
                Comparison("=", col("D.segment_no"), col("S.segment_no")),
            ],
        )

    def h_join_f_condition() -> Expression:
        return BooleanOp(
            "AND",
            [
                Comparison("=", col("H.window_station"), col("F.station")),
                Comparison("=", col("H.window_channel"), col("F.channel")),
            ],
        )

    def h_overlap_s_condition() -> Expression:
        window_end = Arithmetic(
            "+", col("H.window_start_ts"), lit(HOUR_MS, INT64)
        )
        return BooleanOp(
            "AND",
            [
                Comparison("<", col("S.start_time"), window_end),
                Comparison(">", segment_end_expression(),
                           col("H.window_start_ts")),
            ],
        )

    def d_in_window_condition() -> Expression:
        window_end = Arithmetic(
            "+", col("H.window_start_ts"), lit(HOUR_MS, INT64)
        )
        return BooleanOp(
            "AND",
            [
                Comparison(">=", col("D.sample_time"),
                           col("H.window_start_ts")),
                Comparison("<", col("D.sample_time"), window_end),
            ],
        )

    catalog.create_view(
        "gmdview",
        f_join_s,
        "F ⋈ S: given metadata only",
    )
    catalog.create_view(
        "dataview",
        lambda: algebra.Join(f_join_s(), scan("D"), d_join_condition()),
        "F ⋈ S ⋈ D: the de-normalized universal table of Query 1",
    )
    catalog.create_view(
        "windowmetaview",
        lambda: algebra.Join(
            f_join_s(),
            scan("H"),
            BooleanOp(
                "AND",
                [h_join_f_condition(), h_overlap_s_condition()],
            ),
        ),
        "(F ⋈ S) ⋈ H: given plus derived metadata, no actual data",
    )

    def windowdataview() -> algebra.LogicalPlan:
        metadata_part = algebra.Join(
            f_join_s(),
            scan("H"),
            BooleanOp(
                "AND",
                [h_join_f_condition(), h_overlap_s_condition()],
            ),
        )
        return algebra.Join(
            metadata_part,
            scan("D"),
            BooleanOp("AND", [d_join_condition(), d_in_window_condition()]),
        )

    catalog.create_view(
        "windowdataview",
        windowdataview,
        "F ⋈ S ⋈ D ⋈ H: the de-normalized universal table of Query 2",
    )
    return SommelierConfig()
