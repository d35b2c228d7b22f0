"""Small shared utilities that sit below the engine layers."""

from .counters import Counters
from .lock_sanitizer import LockOrderViolation, make_lock, make_rlock, sanitizer_enabled

__all__ = [
    "Counters",
    "LockOrderViolation",
    "make_lock",
    "make_rlock",
    "sanitizer_enabled",
]
