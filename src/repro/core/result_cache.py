"""Semantic result recycling: cache finished query results, not just chunks.

The serving workloads the paper targets are *repetitive*: a dashboard
re-issues the same day-summary every few seconds, an analyst zooms into a
window another query already fetched.  The chunk Recycler makes the second
query's stage two cheap; this module makes it free.  A
:class:`ResultCache` keyed by a normalized plan fingerprint serves

* **exact repeats** — same bound plan, any shape (aggregates included):
  the delivered table is returned without running either stage;
* **subsumed queries** — a cached result whose extracted literal bounds
  (time window, station/channel equality, value thresholds) *cover* the
  new query's bounds answers it by re-filtering the cached rows, provided
  re-filtering provably commutes with everything above the filter.

Correctness model.  A bound plan is split into a **template** (the plan
with every extractable ``column op literal`` conjunct removed from the
spine Selects) and the extracted per-column **bounds**, each a
:class:`repro.engine.predicates.LiteralBounds` — the one bounds type the
chunk planner and Algorithm 1 use too.  Subsumption requires

1. identical templates (structural fingerprints, expression ``key()``s);
2. cached bounds ⊇ query bounds per column (interval containment with
   open/closed edges; equality bounds must match exactly or be absent on
   the cached side);
3. no ``Aggregate``/``Limit`` anywhere in the plan (row filters commute
   with Select/Project/Sort/Distinct but not with those two);
4. every column whose bounds differ is visible in the cached output (the
   top projection carries it as a plain column reference), so the query's
   own conjuncts can be re-applied to the cached rows.

Re-filtering applies the *query's* bound conjuncts for the differing
columns to the cached table, which by construction yields exactly the rows
direct execution would deliver, in the same order (chunk assembly order is
URI-sorted and filters are order-preserving masks) — bit-identical by the
same argument the chunk planner uses, and asserted end-to-end by
``benchmarks/bench_result_cache.py`` and its CI gate.

The budget mirrors the :class:`~repro.engine.recycler.Recycler`: entries
charge their table bytes and are evicted by ``compute_cost ×
access_frequency / size``.  Freshness is the catalog's write versions
(:meth:`~repro.engine.catalog.Catalog.versions`), read before the result
was computed: an entry whose versions no longer match is a miss, dropped
and counted in ``invalidations``; ``admit`` refuses results a write
overtook and drops stale entries before evicting by score.  One mutex
guards everything — lookups are dictionary probes, version compares and
containment tests, never I/O.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

import numpy as np

from ..engine import algebra
from ..engine.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    conjoin,
    conjuncts,
)
from ..engine.predicates import LiteralBounds, oriented_bound_conjuncts
from ..engine.table import Table
from ..util.counters import Counters
from ..util.lock_sanitizer import make_lock

__all__ = [
    "RESULT_CACHE_BYTES",
    "ResultCacheStats",
    "ResultCache",
    "normalize_plan",
]

@dataclass(frozen=True)
class NormalizedPlan:
    """A bound plan split into matching key material.

    ``fingerprint`` identifies the full plan (exact-repeat key);
    ``template`` identifies the plan modulo extracted bounds (subsumption
    key); ``bounds`` maps column → canonical bounds; ``bound_conjuncts``
    keeps the raw ``(column, op, literal)`` triples for re-filtering;
    ``refilterable`` is condition (3) of the module contract;
    ``output_columns`` maps a bounded column's qualified name to its name
    in the delivered table (empty when not derivable).
    """

    fingerprint: tuple
    template: tuple
    bounds: dict[str, LiteralBounds]
    bound_conjuncts: tuple[tuple[str, str, Literal], ...]
    refilterable: bool
    output_columns: dict[str, str]
    base_tables: frozenset[str]


def _sorted_conjunct_keys(parts: list[Expression]) -> tuple:
    # AND is commutative over row sets; sorting by repr of the structural
    # key makes textually reordered WHERE clauses hash identically.
    return tuple(sorted((p.key() for p in parts), key=repr))


def _plan_key(plan: algebra.LogicalPlan, extract: bool) -> tuple:
    """Structural fingerprint; with ``extract`` the spine Selects drop
    their extractable bound conjuncts (the template form).

    ``extract`` stays true only along the unary spine from the root: a
    Select nested under a join keeps its predicate verbatim, so bounds are
    only ever lifted from positions where re-filtering the delivered rows
    is meaningful.
    """
    if isinstance(plan, algebra.Scan):
        return ("scan", plan.table_name)
    if isinstance(plan, algebra.Select):
        retained = conjuncts(plan.predicate)
        if extract:
            retained = [
                part for part in retained if not _extractable(part)
            ]
            if not retained:
                # A fully-extracted Select is transparent: a bound-only
                # WHERE matches a template with no WHERE at all.
                return _plan_key(plan.child, extract)
        return (
            "select",
            _sorted_conjunct_keys(retained),
            _plan_key(plan.child, extract),
        )
    if isinstance(plan, algebra.Project):
        return (
            "project",
            tuple((name, expr.key()) for name, expr in plan.outputs),
            _plan_key(plan.child, extract),
        )
    if isinstance(plan, algebra.Join):
        condition = plan.condition.key() if plan.condition is not None else None
        return (
            "join",
            condition,
            _plan_key(plan.left, False),
            _plan_key(plan.right, False),
        )
    if isinstance(plan, algebra.Aggregate):
        return (
            "aggregate",
            tuple(plan.group_by),
            tuple(
                (
                    spec.function,
                    spec.argument.key() if spec.argument is not None else None,
                    spec.output_name,
                )
                for spec in plan.aggregates
            ),
            _plan_key(plan.child, extract),
        )
    if isinstance(plan, algebra.Sort):
        return (
            "sort",
            tuple((key.name, key.ascending) for key in plan.keys),
            _plan_key(plan.child, extract),
        )
    if isinstance(plan, algebra.Limit):
        return ("limit", plan.count, _plan_key(plan.child, extract))
    if isinstance(plan, algebra.Distinct):
        return ("distinct", _plan_key(plan.child, extract))
    if isinstance(plan, algebra.Union):
        return (
            "union",
            tuple(_plan_key(child, False) for child in plan.children()),
        )
    if isinstance(plan, algebra.EmptyRelation):
        return ("empty",)
    # Rewritten/physical access paths never appear in freshly bound plans;
    # fall back to an identity key that simply never matches across
    # queries.
    return ("opaque", type(plan).__name__, id(plan))


def _extractable(conjunct: Expression) -> bool:
    return bool(LiteralBounds.by_column(conjunct))


def _spine_bounds(plan: algebra.LogicalPlan) -> Expression | None:
    """The extractable bound conjuncts of the spine Selects, conjoined."""
    found: list[Expression] = []
    node = plan
    while True:
        children = node.children()
        if len(children) != 1:
            return conjoin(found)
        if isinstance(node, algebra.Select):
            found.extend(
                part for part in conjuncts(node.predicate) if _extractable(part)
            )
        node = children[0]


def _contains_blocking_node(plan: algebra.LogicalPlan) -> bool:
    if isinstance(plan, (algebra.Aggregate, algebra.Limit)):
        return True
    return any(_contains_blocking_node(child) for child in plan.children())


def _output_column_map(plan: algebra.LogicalPlan) -> dict[str, str]:
    """Qualified column → delivered-table column name, where derivable.

    Walks the plan bottom-up: leaves expose their schema names as
    themselves; a Project keeps only columns it re-emits as plain
    references (under their output names); filters/sorts pass through.
    """
    if isinstance(plan, algebra.Project):
        below = _output_column_map(plan.child)
        reverse = {child_name: source for source, child_name in below.items()}
        mapped: dict[str, str] = {}
        for name, expr in plan.outputs:
            if isinstance(expr, ColumnRef) and expr.name in reverse:
                source = reverse[expr.name]
                if source not in mapped:
                    mapped[source] = name
        return mapped
    children = plan.children()
    if len(children) == 1 and isinstance(
        plan, (algebra.Select, algebra.Sort, algebra.Limit, algebra.Distinct)
    ):
        return _output_column_map(children[0])
    return {name: name for name in plan.schema.names}


def normalize_plan(plan: algebra.LogicalPlan) -> NormalizedPlan:
    """Split a bound plan into (fingerprint, template, bounds) key material."""
    spine = _spine_bounds(plan)
    return NormalizedPlan(
        fingerprint=_plan_key(plan, extract=False),
        template=_plan_key(plan, extract=True),
        bounds=LiteralBounds.by_column(spine),
        bound_conjuncts=tuple(oriented_bound_conjuncts(spine)),
        refilterable=not _contains_blocking_node(plan),
        output_columns=_output_column_map(plan),
        base_tables=frozenset(plan.base_tables()),
    )


@dataclass
class ResultCacheStats(Counters):
    """Cumulative counters (``repro cache`` and the benchmark)."""

    lookups: int = 0
    exact_hits: int = 0
    subsumption_hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    bytes_inserted: int = 0
    bytes_evicted: int = 0


@dataclass
class _CacheEntry:
    """One cached delivered result plus its matching key material."""

    normalized: NormalizedPlan
    table: Table
    compute_seconds: float
    nbytes: int
    versions: tuple
    access_count: int = 1
    last_access: float = field(default_factory=time.monotonic)

    def score(self) -> float:
        """Benefit density: compute seconds × accesses per byte held."""
        return (self.compute_seconds * self.access_count) / max(self.nbytes, 1)


# The result recycler's budget: delivered results it may hold, in bytes.
RESULT_CACHE_BYTES = 256 * 1024 * 1024


class ResultCache:
    """A budgeted, thread-safe cache of delivered query results.

    Sits between the :class:`~repro.core.sommelier.SommelierDB` facade and
    the :class:`~repro.core.two_stage.TwoStageCompiler`: the facade asks
    :meth:`serve` before compiling stage one and :meth:`admit`\\ s every
    executed result.  All methods are safe under concurrent queries;
    tables are immutable so served references never race with eviction.
    ``versions`` is the catalog's ``versions``; without one, entries never
    go stale.
    """

    # Machine-checked (repro analyze, lock-discipline): the counters feed
    # stats_snapshot() and must never race.
    _GUARDED = {"_lock": ("stats",)}

    def __init__(
        self,
        budget_bytes: int = RESULT_CACHE_BYTES,
        versions: Callable[[Iterable[str]], tuple] | None = None,
    ) -> None:
        if budget_bytes <= 0:
            raise ValueError("result cache budget must be positive")
        self.budget_bytes = budget_bytes
        self.stats = ResultCacheStats()
        self._versions = versions if versions is not None else lambda _: ()
        self._lock = make_lock("ResultCache._lock")
        self._entries: dict[tuple, _CacheEntry] = {}
        # template fingerprint -> exact fingerprints sharing it (the
        # subsumption candidate index).
        self._by_template: dict[tuple, set[tuple]] = {}
        self._bytes_cached = 0

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_cached(self) -> int:
        with self._lock:
            return self._bytes_cached

    def stats_snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                **asdict(self.stats),
                "entries": len(self._entries),
                "budget_bytes": self.budget_bytes,
                "bytes_cached": self._bytes_cached,
            }

    # -- the serving path --------------------------------------------------

    def serve(
        self, normalized: NormalizedPlan, versions: tuple = ()
    ) -> tuple[Table, str] | None:
        """A cached answer for the plan at catalog ``versions``, or None.

        Returns ``(table, outcome)`` with outcome ``"exact"`` or
        ``"subsumed"``.  The re-filter for a subsumed answer runs outside
        the lock — entries are immutable once admitted.
        """
        refilter: tuple[_CacheEntry, list] | None = None
        with self._lock:
            self.stats.lookups += 1
            entry = self._current(normalized.fingerprint, versions)
            if entry is not None:
                entry.access_count += 1
                entry.last_access = time.monotonic()
                self.stats.exact_hits += 1
                return entry.table, "exact"
            candidate = self._find_subsuming(normalized, versions)
            if candidate is None:
                self.stats.misses += 1
                return None
            entry, differing = candidate
            entry.access_count += 1
            entry.last_access = time.monotonic()
            self.stats.subsumption_hits += 1
            refilter = (entry, differing)
        entry, differing = refilter
        return self._refilter(entry, normalized, differing), "subsumed"

    def _current(self, fingerprint: tuple, versions: tuple) -> _CacheEntry | None:
        """Caller holds the lock.  The entry, unless a write outdated it."""
        entry = self._entries.get(fingerprint)
        if entry is not None and entry.versions != versions:
            self._evict_entry(fingerprint)
            self.stats.invalidations += 1  # repro: ignore[lock-discipline]
            return None
        return entry

    def _find_subsuming(
        self, normalized: NormalizedPlan, versions: tuple
    ) -> tuple[_CacheEntry, list[str]] | None:
        """Caller holds the lock.  Best covering entry + differing columns."""
        if not normalized.refilterable:
            return None
        best: tuple[_CacheEntry, list[str]] | None = None
        # A copy: _current drops stale peers from the set it came from.
        for fingerprint in list(self._by_template.get(normalized.template, ())):
            entry = self._current(fingerprint, versions)
            if entry is None:
                continue
            differing = self._covering_diff(entry.normalized, normalized)
            if differing is None:
                continue
            if best is None or len(differing) < len(best[1]):
                best = (entry, differing)
        return best

    @staticmethod
    def _covering_diff(
        cached: NormalizedPlan, query: NormalizedPlan
    ) -> list[str] | None:
        """Columns to re-filter by, or None when the entry cannot serve."""
        empty = LiteralBounds()
        columns = set(cached.bounds) | set(query.bounds)
        differing: list[str] = []
        for column in columns:
            have = cached.bounds.get(column, empty)
            want = query.bounds.get(column, empty)
            if have == want:
                continue
            if not have.covers(want):
                return None
            if column not in cached.output_columns:
                return None
            differing.append(column)
        return differing

    def _refilter(
        self,
        entry: _CacheEntry,
        normalized: NormalizedPlan,
        differing: list[str],
    ) -> Table:
        """Apply the query's own bound conjuncts to the cached rows."""
        table = entry.table
        output = entry.normalized.output_columns
        parts: list[Expression] = []
        wanted = set(differing)
        for column, op, literal in normalized.bound_conjuncts:
            if column in wanted:
                parts.append(
                    Comparison(op, ColumnRef(output[column]), literal)
                )
        predicate = conjoin(parts)
        if predicate is None:
            return table
        mask = np.asarray(predicate.evaluate(table), dtype=np.bool_)
        if mask.all():
            return table
        return table.filter(mask)

    # -- admission and replacement -----------------------------------------

    def admit(
        self,
        normalized: NormalizedPlan,
        table: Table,
        compute_seconds: float,
        versions: tuple = (),
    ) -> bool:
        """Cache one delivered result; returns False when it is not kept.

        ``versions`` are the catalog versions read *before* the result was
        computed.  A result a write overtook (a concurrent registration or
        window materialization) no longer matches the catalog and is
        refused.  Entries other writes outdated are dropped before any
        eviction by score, so stale entries never hold budget.
        """
        nbytes = table.nbytes
        if nbytes > self.budget_bytes:
            return False
        with self._lock:
            if versions != self._versions(normalized.base_tables):
                return False
            self._drop_stale()
            self._evict_entry(normalized.fingerprint)
            while self._entries and (
                self._bytes_cached + nbytes > self.budget_bytes
            ):
                victim = min(self._entries.values(), key=_CacheEntry.score)
                self._evict_entry(victim.normalized.fingerprint)
                self.stats.evictions += 1
                self.stats.bytes_evicted += victim.nbytes
            entry = _CacheEntry(
                normalized=normalized,
                table=table,
                compute_seconds=max(compute_seconds, 0.0),
                nbytes=nbytes,
                versions=versions,
            )
            self._entries[normalized.fingerprint] = entry
            self._by_template.setdefault(normalized.template, set()).add(
                normalized.fingerprint
            )
            self._bytes_cached += nbytes
            self.stats.insertions += 1
            self.stats.bytes_inserted += nbytes
        return True

    def _evict_entry(self, fingerprint: tuple) -> None:
        # Caller holds the lock.
        entry = self._entries.pop(fingerprint, None)
        if entry is None:
            return
        self._bytes_cached -= entry.nbytes
        peers = self._by_template.get(entry.normalized.template)
        if peers is not None:
            peers.discard(fingerprint)
            if not peers:
                del self._by_template[entry.normalized.template]

    def _drop_stale(self) -> None:
        """Caller holds the lock.  Drop every entry a write has outdated."""
        current: dict[frozenset[str], tuple] = {}
        for entry in list(self._entries.values()):
            tables = entry.normalized.base_tables
            if tables not in current:
                current[tables] = self._versions(tables)
            if entry.versions != current[tables]:
                self._evict_entry(entry.normalized.fingerprint)
                self.stats.invalidations += 1  # repro: ignore[lock-discipline]
