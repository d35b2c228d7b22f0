"""Seeded operation generators for the four ledger workloads.

``--seed`` is the only source of randomness: every operation list here is
a pure function of ``(seed, days)`` — ``days`` being the fixture's span —
and the program under test only ever receives the SQL text.

Mixes are *stratified*, not sampled: each client's cycle holds an exact
count of every operation class in a seeded order, so two seeds exercise
the same distribution in a different order and over different windows.
That keeps a percentile from wandering across a class boundary between
seeds.  Where the issue left the shares open they are set so that p50
falls inside one class and p95 at the middle of the slowest one (a tenth
of the operations), where the latency curve is flattest; the README's
workload table says which class each percentile lands in.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from repro.data import DEFAULT_STATIONS
from repro.data.ingv import EPOCH_2010_MS, MILLIS_PER_DAY
from repro.workloads.queries import (
    QueryParams,
    t1_query,
    t2_query,
    t3_query,
    t4_query,
    t5_query,
)

__all__ = [
    "ClientPlan",
    "Operation",
    "WORKLOADS",
    "WorkloadPlan",
    "WorkloadSpec",
    "build_plan",
]

HOUR_MS = 3600 * 1000
STATIONS = tuple((s.code, s.channel) for s in DEFAULT_STATIONS)
# Derive operations each cover one four-hour slot of one station-day, and
# every slot is handed out at most once per run.
DERIVE_HOURS = 4
DERIVE_SLOTS_PER_DAY = 24 // DERIVE_HOURS

ROW_SQL = (
    "SELECT D.sample_time AS t, D.sample_value AS v FROM dataview "
    "WHERE F.station = '{station}' AND F.channel = '{channel}' "
    "AND D.sample_time >= '{lo}' AND D.sample_time < '{hi}'"
)
VALUE_SQL = ROW_SQL + " AND D.sample_value > {threshold}"
# Above the noise floor of every station, so only seismic events return
# rows and the zone maps recorded at first decode can skip segments.
VALUE_THRESHOLD = 3000


@dataclass(frozen=True)
class Operation:
    """One request: its class (for per-class reporting) and its SQL."""

    kind: str
    sql: str


@dataclass(frozen=True)
class WorkloadSpec:
    """What a workload fixes besides its seed."""

    name: str
    why: str
    clients: int
    served: bool
    recycler_bytes: int
    drop_caches_each: bool
    # (operation class, count per cycle); ``derive`` marks a slot filled
    # from the never-repeated derive supply.
    mix: tuple[tuple[str, int], ...]
    loop: str = "closed"

    @property
    def cycle_ops(self) -> int:
        return sum(count for _, count in self.mix)


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="cold_scan",
            why=(
                "First touch: caches dropped before every T4, so each chunk "
                "is read and Steim-decoded; mseed and the recycler miss "
                "path do the work, the front end almost none."
            ),
            clients=1,
            served=False,
            recycler_bytes=1 << 30,
            drop_caches_each=True,
            mix=(("t4_1d", 6), ("t4_2d", 48), ("t4_4d", 6)),
        ),
        WorkloadSpec(
            name="warm_point",
            why=(
                "Working set resident (1 GiB recycler): T1/T3 metadata "
                "queries and one-hour row queries, where sql, optimizer, "
                "stage one and the planner are most of each millisecond."
            ),
            clients=1,
            served=False,
            recycler_bytes=1 << 30,
            drop_caches_each=False,
            mix=(("t1", 40), ("t3_1d", 30), ("row_1h", 30)),
        ),
        WorkloadSpec(
            name="spill_scan",
            why=(
                "Larger than cache: 32 MiB recycler against 250 MB decoded, "
                "so scans rehydrate spilled chunks by mmap; assembly, "
                "filter and upper operators dominate."
            ),
            clients=1,
            served=False,
            recycler_bytes=32 << 20,
            drop_caches_each=False,
            mix=(("t4_2d", 36), ("t4_4d", 6), ("value_2d", 9),
                 ("value_4d", 9)),
        ),
        WorkloadSpec(
            name="served_mix",
            why=(
                "Through the HTTP server in a child process, 2 keep-alive "
                "connections: T4, streamed row queries and first-time "
                "T5/T2 derivations that write H beside the reads."
            ),
            clients=2,
            served=True,
            recycler_bytes=1 << 30,
            drop_caches_each=False,
            mix=(("t4_1d", 55), ("row_1h", 25), ("derive", 20)),
        ),
    )
}


@dataclass(frozen=True)
class ClientPlan:
    """One closed-loop client's operations.

    ``cycle`` repeats for as long as the run lasts; a ``None`` slot takes
    the next entry of ``derive``, which is never repeated — the client
    stops when that supply is exhausted.
    """

    cycle: tuple[Operation | None, ...]
    derive: tuple[Operation, ...] = ()

    def operations(self) -> Iterator[Operation]:
        supply = iter(self.derive)
        for slot in itertools.cycle(self.cycle):
            if slot is not None:
                yield slot
                continue
            fresh = next(supply, None)
            if fresh is None:
                return
            yield fresh

    def first(self, count: int) -> list[Operation]:
        return list(itertools.islice(self.operations(), count))

    def pooled_sql(self) -> list[str]:
        """Distinct SQL texts of the repeating part, in first-use order."""
        return list(dict.fromkeys(op.sql for op in self.cycle if op))


@dataclass(frozen=True)
class WorkloadPlan:
    """Everything a run of one workload executes, in order."""

    spec: WorkloadSpec
    warmup: tuple[Operation, ...]
    clients: tuple[ClientPlan, ...]


def _params(station: tuple[str, str], start_ms: int, end_ms: int,
            **extra: float) -> QueryParams:
    return QueryParams(
        station=station[0], channel=station[1],
        start_ms=EPOCH_2010_MS + start_ms, end_ms=EPOCH_2010_MS + end_ms,
        **extra,
    )


def _window_op(kind: str, station: tuple[str, str], day: int, days: int,
               hour: int = 0) -> Operation:
    """The operation of class ``kind`` anchored at (station, day, hour)."""
    if kind == "t1":
        return Operation(kind, t1_query(_params(station, 0, 0)))
    if kind == "row_1h":
        start = day * MILLIS_PER_DAY + hour * HOUR_MS
        window = _params(station, start, start + HOUR_MS)
        return Operation(kind, ROW_SQL.format(
            station=station[0], channel=station[1],
            lo=window.start_iso, hi=window.end_iso,
        ))
    family, length = kind.split("_")
    span = min(int(length.rstrip("d")), days)
    start_day = min(day, days - span)
    window = _params(
        station, start_day * MILLIS_PER_DAY,
        (start_day + span) * MILLIS_PER_DAY,
    )
    if family == "t3":
        return Operation(kind, t3_query(window))
    if family == "t4":
        return Operation(kind, t4_query(window))
    if family == "value":
        return Operation(kind, VALUE_SQL.format(
            station=station[0], channel=station[1],
            lo=window.start_iso, hi=window.end_iso,
            threshold=VALUE_THRESHOLD,
        ))
    raise ValueError(f"unknown operation class {kind!r}")


def warm_pass(days: int) -> tuple[Operation, ...]:
    """One-day T4 over every station-day: touches every chunk once."""
    return tuple(
        _window_op("t4_1d", station, day, days)
        for station in STATIONS
        for day in range(days)
    )


def _cycle(spec: WorkloadSpec, rng: random.Random,
           days: int) -> tuple[Operation | None, ...]:
    """An exact-count, seeded-order cycle of ``spec.mix``."""
    slots: list[Operation | None] = []
    for kind, count in spec.mix:
        if kind == "derive":
            slots.extend([None] * count)
            continue
        # Anchors are drawn without replacement while they last, so a
        # class spreads over stations and days before it repeats any.
        anchors = [(s, d) for s in STATIONS for d in range(days)]
        rng.shuffle(anchors)
        # warm_point's T3 windows must be derived during set-up; a dozen
        # distinct ones keep that to half a second.
        distinct = 12 if kind == "t3_1d" else len(anchors)
        for index in range(count):
            station, day = anchors[index % min(distinct, len(anchors))]
            slots.append(
                _window_op(kind, station, day, days, hour=rng.randrange(24))
            )
    rng.shuffle(slots)
    return tuple(slots)


def _derive_supply(rng: random.Random, days: int,
                   clients: int) -> list[tuple[Operation, ...]]:
    """Deal every four-hour slot of the fixture out once, T5/T2 by turns.

    A slot derived for one operation is materialized in ``H`` from then
    on, so handing each out once is what makes every derive operation a
    first-time derivation (Algorithm 1 inserting under the derivation
    lock) for the whole run.
    """
    slots = [
        (station, day, slot)
        for station in STATIONS
        for day in range(days)
        for slot in range(DERIVE_SLOTS_PER_DAY)
    ]
    rng.shuffle(slots)
    dealt: list[list[Operation]] = [[] for _ in range(clients)]
    for index, (station, day, slot) in enumerate(slots):
        start = day * MILLIS_PER_DAY + slot * DERIVE_HOURS * HOUR_MS
        end = start + DERIVE_HOURS * HOUR_MS
        hand = dealt[index % clients]
        if len(hand) % 2 == 0:
            # Thresholds of zero keep every window, so the T5 aggregate
            # reads the actual data of all four hours.
            params = _params(station, start, end, max_val_threshold=0.0,
                             std_dev_threshold=0.0)
            hand.append(Operation("t5_derive", t5_query(params)))
        else:
            hand.append(
                Operation("t2_derive", t2_query(_params(station, start, end)))
            )
    return [tuple(hand) for hand in dealt]


def build_plan(name: str, seed: int, days: int) -> WorkloadPlan:
    """The operations of workload ``name`` for ``seed`` on a ``days`` fixture."""
    spec = WORKLOADS[name]
    has_derive = any(kind == "derive" for kind, _ in spec.mix)
    supplies = (
        _derive_supply(random.Random(f"{seed}:{name}:derive"), days,
                       spec.clients)
        if has_derive else [()] * spec.clients
    )
    clients = tuple(
        ClientPlan(
            cycle=_cycle(spec, random.Random(f"{seed}:{name}:{index}"), days),
            derive=supplies[index],
        )
        for index in range(spec.clients)
    )
    if spec.drop_caches_each:
        # cold_scan warms nothing it could keep: a third of its cycle
        # (twenty operations) settles the interpreter and the chunk
        # statistics.  A third of each class, so that every seed's set-up
        # does the same amount of work.
        warmup = tuple(
            op
            for kind, count in spec.mix
            for op in [o for o in clients[0].cycle if o.kind == kind][
                : count // 3
            ]
        )
    else:
        warmup = warm_pass(days)
        if name == "warm_point":
            derived = dict.fromkeys(
                op for op in clients[0].cycle if op and op.kind == "t3_1d"
            )
            warmup += tuple(derived)
    return WorkloadPlan(spec=spec, warmup=warmup, clients=clients)
