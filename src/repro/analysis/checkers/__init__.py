"""The repo-specific checkers; importing this package registers them all."""

from .async_blocking import AsyncBlockingChecker
from .async_reach import AsyncReachChecker
from .blocking_under_lock import BlockingUnderLockChecker
from .cancellation import CancellationChecker
from .durability import DurabilityChecker
from .lock_discipline import LockDisciplineChecker
from .lock_order import LockOrderChecker
from .swallow import SwallowChecker

__all__ = [
    "AsyncBlockingChecker",
    "AsyncReachChecker",
    "BlockingUnderLockChecker",
    "CancellationChecker",
    "DurabilityChecker",
    "LockDisciplineChecker",
    "LockOrderChecker",
    "SwallowChecker",
]
