"""Every counter block derives its plumbing from its dataclass fields."""

from dataclasses import asdict, fields

import pytest

from repro.core.plan_cache import PlanCacheStats
from repro.core.prefetch import PrefetchStats
from repro.core.result_cache import ResultCacheStats
from repro.core.sommelier import SommelierStats
from repro.engine.chunk_planner import PlannerStats
from repro.engine.chunk_store import ChunkStoreStats
from repro.engine.physical import ExecStats
from repro.engine.recycler import RecyclerStats
from repro.engine.storage import PoolStats
from repro.serving.server import ServerStats
from repro.util.counters import Counters

COUNTER_CLASSES = (
    ExecStats,
    SommelierStats,
    RecyclerStats,
    ChunkStoreStats,
    PoolStats,
    PlannerStats,
    PrefetchStats,
    ResultCacheStats,
    PlanCacheStats,
    ServerStats,
)


def test_every_counters_subclass_is_covered():
    assert set(Counters.__subclasses__()) == set(COUNTER_CLASSES)


@pytest.mark.parametrize("cls", COUNTER_CLASSES, ids=lambda c: c.__name__)
def test_merge_adds_every_field_and_asdict_keys_are_the_fields(cls):
    names = [f.name for f in fields(cls)]
    left = cls(**{name: i + 1 for i, name in enumerate(names)})
    right = cls(**{name: 10 * (i + 1) for i, name in enumerate(names)})
    left.merge(right)
    assert asdict(left) == {name: 11 * (i + 1) for i, name in enumerate(names)}
    assert list(asdict(cls())) == names
    assert all(value == 0 for value in asdict(cls()).values())
