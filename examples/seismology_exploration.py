#!/usr/bin/env python3
"""Interactive seismology exploration: the paper's motivating scenario.

A seismologist points the system at a repository of waveform chunks and
explores: first the metadata (which stations? how much data?), then derived
hourly summaries (where is the signal volatile?), and finally the waveform
itself — each step touching only the data it needs.  Exercises all five
query types of Table I and Algorithm 1's incremental derivation.

Run:  python examples/seismology_exploration.py
"""

import tempfile

from repro import SommelierDB
from repro.data import SCALE_TEST, build_or_reuse


def show(title: str, db: SommelierDB, sql: str) -> None:
    result, derivation = db.query_with_derivation(sql)
    print(f"\n--- {title} ({db.query_type(sql).value}) ---")
    if derivation.applicable and derivation.psu_size:
        print(
            f"  [Algorithm 1] derived {derivation.windows_inserted} new "
            f"window(s) for {derivation.psu_size} uncovered key(s), "
            f"loading {derivation.chunks_loaded} chunk(s)"
        )
    elif derivation.applicable:
        print("  [Algorithm 1] derived metadata already covered (PSu empty)")
    for row in result.table.to_dicts()[:6]:
        print("  ", row)
    if result.table.num_rows > 6:
        print(f"   ... {result.table.num_rows - 6} more rows")
    print(
        f"  {result.seconds * 1000:.1f}ms, "
        f"{result.stats.chunks_loaded} chunk(s) loaded"
    )


def main() -> None:
    base = tempfile.mkdtemp(prefix="repro-explore-")
    repository, _ = build_or_reuse(base, scale_factor=3, scale=SCALE_TEST)
    db = SommelierDB.create()
    db.register_repository(repository)

    # T1 — what is in the cellar?  Metadata only, no chunk touched.
    show(
        "What did station FIAM record?",
        db,
        """
        SELECT F.station AS station, COUNT(S.segment_no) AS segments,
               SUM(S.sample_count) AS samples
        FROM gmdview WHERE F.station = 'FIAM' GROUP BY F.station
        """,
    )

    # T2 — hourly summaries: Algorithm 1 derives them on first touch.
    show(
        "Hourly summary metadata for FIAM (first touch derives it)",
        db,
        """
        SELECT H.window_start_ts, H.window_max_val, H.window_std_dev
        FROM H
        WHERE H.window_station = 'FIAM'
          AND H.window_start_ts >= '2010-01-01T00:00:00.000'
          AND H.window_start_ts <  '2010-01-01T12:00:00.000'
        ORDER BY window_start_ts
        """,
    )

    # T3 — same summaries joined back to the given metadata.
    show(
        "Windows overlapping segments (DMd ⋈ GMd; already covered)",
        db,
        """
        SELECT H.window_start_ts, MAX(H.window_max_val) AS max_val,
               COUNT(S.segment_no) AS overlapping_segments
        FROM windowmetaview
        WHERE F.station = 'FIAM'
          AND H.window_start_ts >= '2010-01-01T00:00:00.000'
          AND H.window_start_ts <  '2010-01-01T06:00:00.000'
        GROUP BY H.window_start_ts ORDER BY H.window_start_ts
        """,
    )

    # T4 — the short-term average of Query 1 (actual data, lazily loaded).
    show(
        "Short-term average over a 2-hour window (Query 1 shape)",
        db,
        """
        SELECT AVG(D.sample_value) AS avg_value, COUNT(D.sample_value) AS n
        FROM dataview
        WHERE F.station = 'FIAM' AND F.channel = 'HHZ'
          AND D.sample_time >= '2010-01-02T10:00:00.000'
          AND D.sample_time <  '2010-01-02T12:00:00.000'
        """,
    )

    # T5 — Query 2: bring waveform data only for volatile, high-amplitude
    # hours, found via the derived metadata.
    show(
        "Waveform peaks in volatile hours (Query 2 shape)",
        db,
        """
        SELECT MAX(D.sample_value) AS peak, COUNT(D.sample_value) AS n
        FROM windowdataview
        WHERE F.station = 'FIAM' AND F.channel = 'HHZ'
          AND H.window_start_ts >= '2010-01-01T00:00:00.000'
          AND H.window_start_ts <  '2010-01-03T00:00:00.000'
          AND H.window_max_val > 1000 AND H.window_std_dev > 10
        """,
    )

    print("\n--- facade stats ---")
    print(
        f"  queries: {db.stats.queries_executed}, "
        f"derivations: {db.stats.derivations}, "
        f"windows materialized: {db.stats.windows_materialized}, "
        f"chunks loaded in total: {db.stats.chunks_loaded_total}"
    )
    print(
        f"  recycler: {len(db.database.recycler)} chunk(s) cached, "
        f"{db.database.recycler.bytes_cached:,} bytes"
    )
    db.close()


if __name__ == "__main__":
    main()
