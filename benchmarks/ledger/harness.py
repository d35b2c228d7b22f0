"""Fixture, oracle, set-up and the timed legs of the ledger benchmark.

Nothing here reaches below the engine's public surface: databases come
from ``repro.prepare``, operations go through ``SommelierDB.query`` (or
the HTTP server's ``/query``), and every number is either this module's
own clock around such a call or a counter the call already returns.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro import FileRepository, SommelierDB, TwoStageOptions, prepare
from repro.data import SCALE_TEST, DatasetStats, RepoScale, build_or_reuse
from repro.engine.errors import EngineError
from repro.engine.table import Table
from repro.serving import ServingClient

from spans import Span, SpanRecorder, TimingLoader, self_time
from workloads import Operation, WorkloadPlan

__all__ = [
    "Budget",
    "Fixture",
    "InProcessTarget",
    "Leg",
    "Oracle",
    "ServedTarget",
    "build_fixture",
]

HERE = os.path.dirname(os.path.abspath(__file__))

# 4 stations x 18 days = 72 chunks, 6.2 M samples, ~7 MB of Steim on disk
# and ~250 MB decoded: chunks five times the ``quick`` bench profile's, so
# that decode is a visible share of a cold query.
LEDGER_SCALE = RepoScale("ledger-d20-s86k", day_divisor=20,
                         samples_per_day=86400, min_segments=8,
                         max_segments=16)
LEDGER_SF = 9
SMOKE_SF = 1
SERVER_POOL_SIZE = 2
SERVER_START_TIMEOUT_S = 60.0
WIRE_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Fixture:
    """The repository every workload runs over."""

    root: str
    days: int
    stats: DatasetStats
    build_s: float


def build_fixture(data_dir: str, smoke: bool) -> Fixture:
    """Build the repository, or reuse the one a previous run left."""
    scale, sf = (SCALE_TEST, SMOKE_SF) if smoke else (LEDGER_SCALE, LEDGER_SF)
    started = time.perf_counter()
    repository, stats = build_or_reuse(
        os.path.join(data_dir, "repositories"), sf, scale
    )
    return Fixture(
        root=repository.root,
        days=scale.days_for_sf(sf),
        stats=stats,
        build_s=time.perf_counter() - started,
    )


# -- the oracle ---------------------------------------------------------------


def _same_column(ours: np.ndarray, theirs: np.ndarray) -> bool:
    if ours.dtype.kind == "O" or theirs.dtype.kind == "O":
        return ours.tolist() == theirs.tolist()
    return bool(
        np.array_equal(ours, theirs, equal_nan=ours.dtype.kind == "f")
    )


def _same_cell(ours: object, theirs: object) -> bool:
    return ours == theirs or (ours != ours and theirs != theirs)


class Oracle:
    """A cold serial reference database and the answers it gave.

    Every SQL text is answered once by a database of its own —
    ``io_threads=1``, fresh working directory, nothing shared with the
    database under test — and compared row for row, NaN-tolerant.
    """

    def __init__(self, fixture: Fixture) -> None:
        self.db, _ = prepare(
            "lazy", FileRepository(fixture.root),
            options=TwoStageOptions(io_threads=1),
        )
        self._expected: dict[str, Table] = {}

    def expected(self, sql: str) -> Table:
        table = self._expected.get(sql)
        if table is None:
            table = self._expected[sql] = self.db.query(sql).table
        return table

    def prime(self, texts: list[str]) -> None:
        for sql in texts:
            self.expected(sql)

    def matches_table(self, sql: str, table: Table) -> bool:
        reference = self.expected(sql)
        return (
            table.schema.names == reference.schema.names
            and table.num_rows == reference.num_rows
            and all(
                _same_column(ours.values, theirs.values)
                for ours, theirs in zip(table.columns, reference.columns)
            )
        )

    def matches_wire(self, sql: str, body: bytes) -> bool:
        reference = self.expected(sql)
        try:
            payload = json.loads(body)
            columns, rows = payload["columns"], payload["rows"]
            row_count = payload["row_count"]
        except (ValueError, KeyError, TypeError):
            return False
        if columns != list(reference.schema.names):
            return False
        if row_count != reference.num_rows or len(rows) != row_count:
            return False
        return all(
            len(ours) == len(theirs)
            and all(_same_cell(a, b) for a, b in zip(ours, theirs))
            for ours, theirs in zip(rows, reference.rows())
        )

    def close(self) -> None:
        self.db.close()


# -- legs ---------------------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    """When a timed leg ends.

    ``seconds`` governs; ``min_ops`` keeps the leg going on a slow host
    until the tail percentile has its ten samples beyond it, for at most
    four times ``seconds``; ``max_ops`` caps smoke runs.
    """

    seconds: float
    min_ops: int = 0
    max_ops: int | None = None

    def spent(self, elapsed: float, ops: int) -> bool:
        if self.max_ops is not None and ops >= self.max_ops:
            return True
        if elapsed >= 4 * self.seconds:
            return True
        return elapsed >= self.seconds and ops >= self.min_ops

    def share(self, clients: int) -> "Budget":
        """The same budget split over ``clients`` connections."""
        return Budget(
            self.seconds,
            -(-self.min_ops // clients),
            None if self.max_ops is None else -(-self.max_ops // clients),
        )


@dataclass
class Leg:
    """What one timed leg measured."""

    # (operation class, seconds) of every correct operation, in order.
    samples: list[tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    # Denominator of throughput: time inside operations for one client,
    # wall time of the leg for several.
    timed_seconds: float = 0.0
    # Traced legs only: one record per operation, and the counter deltas
    # over the first cycle.
    records: list[dict] = field(default_factory=list)
    first_cycle: dict = field(default_factory=dict)

    @property
    def correct(self) -> int:
        return self.attempted - self.failed

    def latencies_ms(self) -> list[float]:
        return [seconds * 1e3 for _, seconds in self.samples]

    def merge(self, other: "Leg") -> None:
        self.samples.extend(other.samples)
        self.attempted += other.attempted
        self.failed += other.failed
        self.records.extend(other.records)


def _until_spent(stream: Iterator[Operation], budget: Budget,
                 started: float) -> Iterator[Operation]:
    """Operations off ``stream`` until ``budget`` is spent or it ends.

    The budget is asked before the stream, so no operation is taken off
    the stream (and no derive window used up) without being run.
    """
    taken = 0
    while not budget.spent(time.perf_counter() - started, taken):
        op = next(stream, None)
        if op is None:
            return
        yield op
        taken += 1


def _counter_delta(before: dict, after: dict) -> dict:
    """Section-wise ``after - before`` of two ``counters_snapshot()``s."""
    return {
        section: {
            key: value - before[section][key]
            for key, value in after[section].items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)
        }
        for section in ("memory", "disk", "planner")
    }


class InProcessTarget:
    """One in-process client over a lazily prepared database."""

    def __init__(self, fixture: Fixture, plan: WorkloadPlan,
                 recorder: SpanRecorder | None = None) -> None:
        self.fixture = fixture
        self.plan = plan
        self.recorder = recorder
        self.db: SommelierDB | None = None
        self.setup_counters: dict = {}

    def setup(self) -> float:
        """Repository directory to ready-for-the-first-operation, timed."""
        spec = self.plan.spec
        started = time.perf_counter()
        db, _ = prepare(
            "lazy", FileRepository(self.fixture.root),
            recycler_bytes=spec.recycler_bytes,
        )
        if self.recorder is not None:
            db.database.set_chunk_loader(
                TimingLoader(db.database.chunk_loader, self.recorder)
            )
        for op in self.plan.warmup:
            if spec.drop_caches_each:
                db.drop_caches()
            db.query(op.sql)
        elapsed = time.perf_counter() - started
        self.db = db
        self.setup_counters = db.counters_snapshot()
        return elapsed

    def run(self, streams: list[Iterator[Operation]], oracle: Oracle,
            budget: Budget, traced: bool, first_op: int = 0) -> Leg:
        """One closed-loop client working through ``streams[0]``."""
        assert self.db is not None, "setup() first"
        db = self.db
        cycle_ops = len(self.plan.clients[0].cycle)
        leg = Leg()
        before = db.counters_snapshot() if traced else {}
        started = time.perf_counter()
        for index, op in enumerate(_until_spent(streams[0], budget, started)):
            if traced and index == cycle_ops:
                leg.first_cycle = _counter_delta(
                    before, db.counters_snapshot()
                )
            if self.plan.spec.drop_caches_each:
                db.drop_caches()
            leg.attempted += 1
            record: dict = {}
            begun = time.perf_counter()
            try:
                if traced:
                    result, record = self._traced_query(first_op + index, op)
                else:
                    result = db.query(op.sql)
            except EngineError as exc:
                print(f"!! {op.kind} failed: {exc}", file=sys.stderr)
                leg.failed += 1
                continue
            seconds = time.perf_counter() - begun
            if not oracle.matches_table(op.sql, result.table):
                print(f"!! {op.kind} differs from the oracle: {op.sql}",
                      file=sys.stderr)
                leg.failed += 1
                continue
            leg.samples.append((op.kind, seconds))
            leg.timed_seconds += seconds
            if traced:
                record["in_first_cycle"] = index < cycle_ops
                leg.records.append(record)
        if traced and not leg.first_cycle:
            leg.first_cycle = _counter_delta(before, db.counters_snapshot())
        return leg

    def _traced_query(self, op_id: int, op: Operation):
        """One operation with a span around each public call it makes.

        ``bind`` and ``compile`` are extra calls made only to time those
        layers — ``query_with_derivation`` repeats both inside — which is
        most of the tracing overhead the traced run reports.  The stage
        and derive spans are rebuilt from the durations (and the stage
        boundary timestamp) the engine hands back with the result.
        """
        db, recorder = self.db, self.recorder
        assert db is not None and recorder is not None
        with recorder.span(f"op:{op.kind}", None, op_id) as root:
            with recorder.span("bind", root.id, op_id) as bind:
                plan = db.bind(op.sql)
            with recorder.span("compile", root.id, op_id) as compile_:
                db.compiler.compile(plan)
            mark = len(recorder.spans)
            with recorder.span("query", root.id, op_id) as query:
                recorder.current_op = op_id
                recorder.current_parent = query.id
                result, report = db.query_with_derivation(op.sql)
        boundary = result.rewrite.stage_boundary_perf
        if boundary is None:
            boundary = query.end - result.stage_two_seconds
        stage_one = recorder.add(
            "stage_one", boundary - result.stage_one_seconds, boundary,
            query.id, op_id,
        )
        stage_two = recorder.add(
            "stage_two", boundary, boundary + result.stage_two_seconds,
            query.id, op_id,
        )
        derive: Span | None = None
        if report.applicable:
            begin = query.start + bind.duration
            derive = recorder.add(
                "derive", begin, begin + report.seconds, query.id, op_id
            )
        loads = [s for s in recorder.spans[mark:] if s.name == "chunk_load"]
        stage_two_loads = []
        for load in loads:
            if load.start >= stage_two.start:
                load.parent = stage_two.id
                stage_two_loads.append(load)
            elif derive is not None:
                load.parent = derive.id
        stats = result.stats
        record = dict(
            kind=op.kind,
            bind_ms=bind.duration * 1e3,
            compile_ms=compile_.duration * 1e3,
            stage_one_ms=stage_one.duration * 1e3,
            stage_two_ms=stage_two.duration * 1e3,
            physical_self_ms=self_time(stage_two, stage_two_loads) * 1e3,
            derive_ms=report.seconds * 1e3 if report.applicable else None,
            windows_inserted=report.windows_inserted,
            rows_scanned=stats.rows_scanned,
            rows_joined=stats.rows_joined,
            rows_out=result.table.num_rows,
            chunks_from_memory=stats.chunks_from_cache,
            chunks_from_store=stats.chunks_rehydrated,
            chunks_loaded=stats.chunks_loaded + report.chunks_loaded,
            chunk_loads=len(loads),
            chunk_load_busy_ms=sum(s.duration for s in loads) * 1e3,
        )
        return result, record

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None


# -- the served target --------------------------------------------------------


def _footer(body: bytes) -> dict:
    """``row_count`` and ``stats`` of a response, without decoding rows."""
    return json.loads(b"{" + body[body.rindex(b'"row_count"'):])


class _Connection:
    """One keep-alive connection speaking the server's wire protocol.

    Not ``ServingClient``: that decodes every response's rows, a cost the
    timed loop must not add to the latency it measures.
    """

    def __init__(self, port: int) -> None:
        self._http = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=WIRE_TIMEOUT_S
        )

    def query(self, sql: str) -> tuple[int, bytes]:
        self._http.request(
            "POST", "/query", body=json.dumps({"sql": sql}),
            headers={"Content-Type": "application/json"},
        )
        response = self._http.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._http.close()


class ServedTarget:
    """The HTTP server in a child process, driven over keep-alive sockets."""

    def __init__(self, fixture: Fixture, plan: WorkloadPlan, src_dir: str,
                 recorder: SpanRecorder | None = None) -> None:
        self.fixture = fixture
        self.plan = plan
        self.src_dir = src_dir
        self.recorder = recorder
        self._process: subprocess.Popen | None = None
        self.port = 0
        # (sql, body) of every derive operation, compared after the run:
        # answering them beforehand would derive their windows.
        self.unverified: list[tuple[str, bytes]] = []

    def setup(self) -> float:
        started = time.perf_counter()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src_dir, env.get("PYTHONPATH")) if p
        )
        self._process = subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "serve_child.py"),
                "--repository", self.fixture.root,
                "--pool-size", str(SERVER_POOL_SIZE),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        ready, _, _ = select.select(
            [self._process.stdout], [], [], SERVER_START_TIMEOUT_S
        )
        line = self._process.stdout.readline() if ready else b""
        if not line:
            self.close()
            raise RuntimeError("the server child did not report a port")
        self.port = json.loads(line)["port"]
        connection = _Connection(self.port)
        try:
            for op in self.plan.warmup:
                status, _ = connection.query(op.sql)
                if status != 200:
                    raise RuntimeError(f"warm-up got HTTP {status}: {op.sql}")
        finally:
            connection.close()
        return time.perf_counter() - started

    def verify_pooled(self, oracle: Oracle) -> frozenset[str]:
        """Untimed oracle pass: every repeating SQL text, row for row.

        Returns the texts whose wire response differs from the oracle's.
        """
        texts = dict.fromkeys(
            sql for client in self.plan.clients for sql in client.pooled_sql()
        )
        connection = _Connection(self.port)
        try:
            wrong = []
            for sql in texts:
                status, body = connection.query(sql)
                if status != 200 or not oracle.matches_wire(sql, body):
                    wrong.append(sql)
            return frozenset(wrong)
        finally:
            connection.close()

    def run(self, streams: list[Iterator[Operation]], oracle: Oracle,
            budget: Budget, traced: bool,
            rejected: frozenset[str] = frozenset(), first_op: int = 0) -> Leg:
        """Every client plan on its own connection and thread, closed loop.

        ``rejected`` holds SQL texts the oracle pass found wrong; their
        operations count as failed.
        """
        share = budget.share(len(streams))
        legs = [Leg() for _ in streams]
        windows: list[tuple[float, float]] = [(0.0, 0.0)] * len(streams)

        def drive(slot: int) -> None:
            connection = _Connection(self.port)
            try:
                windows[slot] = self._drive(
                    connection, streams[slot], oracle, share, legs[slot],
                    rejected, traced,
                    # Operation ids interleave the connections.
                    first_op + slot, len(streams),
                )
            finally:
                connection.close()

        threads = [
            threading.Thread(target=drive, args=(slot,), name=f"ledger-{slot}")
            for slot in range(len(streams))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = Leg()
        for leg in legs:
            total.merge(leg)
        total.timed_seconds = (
            max(end for _, end in windows)
            - min(start for start, _ in windows)
        )
        return total

    def _drive(self, connection: _Connection, stream: Iterator[Operation],
               oracle: Oracle, budget: Budget, leg: Leg,
               rejected: frozenset[str], traced: bool,
               first_op: int, stride: int) -> tuple[float, float]:
        recorder = self.recorder
        started = time.perf_counter()
        ended = started
        for index, op in enumerate(_until_spent(stream, budget, started)):
            derive = op.kind.endswith("_derive")
            leg.attempted += 1
            begun = time.perf_counter()
            try:
                status, body = connection.query(op.sql)
            except (OSError, http.client.HTTPException) as exc:
                print(f"!! {op.kind} transport error: {exc}", file=sys.stderr)
                leg.failed += 1
                break
            ended = time.perf_counter()
            footer = _footer(body) if status == 200 else {}
            # In the timed loop only the status and the footer's row count
            # are checked; rows were compared in the untimed oracle pass,
            # or will be after the run for derive operations.
            if status != 200 or op.sql in rejected or not (
                derive
                or footer["row_count"] == oracle.expected(op.sql).num_rows
            ):
                print(f"!! {op.kind} got HTTP {status}: {body[:200]!r}",
                      file=sys.stderr)
                leg.failed += 1
                continue
            if derive:
                self.unverified.append((op.sql, body))
            leg.samples.append((op.kind, ended - begun))
            if traced and recorder is not None:
                op_id = first_op + index * stride
                engine_s = footer["stats"]["seconds"]
                root = recorder.add(f"op:{op.kind}", begun, ended, None, op_id)
                wire = recorder.add("wire_round_trip", begun, ended,
                                    root.id, op_id)
                # The server reports only a duration; it is drawn from
                # the start of the round trip, where the engine runs
                # before rows are encoded and streamed.
                recorder.add("engine_reported", begun, begun + engine_s,
                             wire.id, op_id)
                leg.records.append({
                    "kind": op.kind,
                    "serving_overhead_ms": (ended - begun - engine_s) * 1e3,
                    "wire_bytes": len(body),
                    "rows_out": footer["row_count"],
                })
        return started, ended

    def verify_derived(self, oracle: Oracle) -> int:
        """Compare the retained derive responses; returns the mismatches."""
        mismatched = 0
        for sql, body in self.unverified:
            if not oracle.matches_wire(sql, body):
                print(f"!! derive response differs from the oracle: {sql}",
                      file=sys.stderr)
                mismatched += 1
        self.unverified.clear()
        return mismatched

    def server_stats(self) -> dict:
        with ServingClient("127.0.0.1", self.port) as client:
            return client.stats()

    def close(self) -> None:
        process, self._process = self._process, None
        if process is None:
            return
        process.stdin.close()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()
