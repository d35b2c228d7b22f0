"""Counter blocks: plain dataclasses whose plumbing derives from the fields.

Render one with ``dataclasses.asdict``; reset one by building a new one.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class Counters:
    """Base of every counter dataclass; subclasses only declare fields."""

    def merge(self, other: Counters) -> None:
        """Add every field of ``other`` (same class) into this block."""
        for field in dataclasses.fields(self):
            total = getattr(self, field.name) + getattr(other, field.name)
            setattr(self, field.name, total)
