"""Paper-style plain-text reporting for the benchmark harness.

Every experiment produces a :class:`ReportTable` that renders the same rows
or series the paper's tables/figures show, and is written both to stdout and
to ``bench_results/<experiment>.txt`` so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = ["ReportTable", "format_seconds", "format_bytes", "results_dir"]


def results_dir(root: str | None = None) -> str:
    """The directory where experiment reports are written."""
    base = root or os.environ.get("REPRO_BENCH_RESULTS", "bench_results")
    os.makedirs(base, exist_ok=True)
    return base


def format_seconds(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:.0f}s"
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def format_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024 or unit == "TB":
            if unit == "B":
                return f"{int(value)}{unit}"
            return f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}TB"  # pragma: no cover


@dataclass
class ReportTable:
    """A titled, aligned text table."""

    title: str
    headers: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row width {len(values)} != header width {len(self.headers)}"
            )
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def add_metadata(self, **entries: Any) -> None:
        """Attach experiment-specific keys to the JSON artifact."""
        self.metadata.update(entries)

    def render(self) -> str:
        cells = [[str(h) for h in self.headers]]
        cells += [[_render_cell(v) for v in row] for row in self.rows]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(self.headers))
        ]
        lines = [self.title, "=" * len(self.title)]
        header_line = "  ".join(
            cells[0][i].ljust(widths[i]) for i in range(len(widths))
        )
        lines.append(header_line)
        lines.append("-" * len(header_line))
        for row in cells[1:]:
            lines.append(
                "  ".join(row[i].ljust(widths[i]) for i in range(len(widths)))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        """The machine-readable shape of this table (CI artifacts).

        Every artifact carries host metadata — scaling results (clients ×
        io_threads, fan-out) are meaningless without the core count
        they ran on.
        """
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
            "metadata": {
                "cpu_count": os.cpu_count(),
                "platform": platform.platform(),
                "python": platform.python_version(),
                **self.metadata,
            },
        }

    def save(self, filename: str, root: str | None = None) -> str:
        path = os.path.join(results_dir(root), filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render() + "\n")
        return path

    def save_json(self, filename: str, root: str | None = None) -> str:
        """Persist the JSON shape next to the text report."""
        path = os.path.join(results_dir(root), filename)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, default=str)
            handle.write("\n")
        return path

    def emit(self, filename: str, root: str | None = None) -> str:
        """Print to stdout and persist; returns the saved path."""
        text = self.render()
        print("\n" + text)
        return self.save(filename, root)


def _render_cell(value: Any) -> str:
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
