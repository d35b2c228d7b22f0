"""Walk a source tree, run every checker, apply suppressions, report.

The runner makes two passes: every checker's per-module :meth:`check` over
each file, then every checker's :meth:`check_project` over the full module
list (for cross-module invariants such as lock-acquisition order).  Findings
on lines carrying a matching ``# repro: ignore[...]`` comment are counted
as suppressed, not reported; anything else makes ``repro analyze`` exit
nonzero.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .base import Checker, SourceModule, all_checkers
from .findings import SEVERITIES, Finding

__all__ = [
    "AnalysisReport",
    "analyze",
    "iter_source_files",
    "load_baseline",
]

SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", "node_modules"}

# What a baseline entry pins a finding by.  Line numbers drift with every
# edit, so they are deliberately not part of the identity.
BaselineKey = tuple[str, str, str]  # (checker, path, message)


@dataclass
class AnalysisReport:
    """Everything one analysis run produced, JSON- and text-renderable."""

    roots: list[str]
    checkers: list[str]
    files_scanned: int = 0
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    parse_errors: list[Finding] = field(default_factory=list)
    baselined: int = 0
    fail_on: str = SEVERITIES[0]  # weakest: every finding fails the run

    @property
    def ok(self) -> bool:
        """True when nothing at or above ``fail_on`` was found (exit 0)."""
        if self.parse_errors:
            return False
        threshold = SEVERITIES.index(self.fail_on)
        return not any(
            SEVERITIES.index(finding.severity) >= threshold
            for finding in self.findings
        )

    def all_findings(self) -> list[Finding]:
        return sorted(
            self.parse_errors + self.findings, key=Finding.sort_key
        )

    def to_payload(self) -> dict:
        """The ``--json`` schema (stable: summary block + findings list)."""
        findings = self.all_findings()
        by_checker: dict[str, int] = {}
        for finding in findings:
            by_checker[finding.checker] = by_checker.get(finding.checker, 0) + 1
        return {
            "summary": {
                "roots": list(self.roots),
                "checkers": list(self.checkers),
                "files_scanned": self.files_scanned,
                "findings": len(findings),
                "suppressed": self.suppressed,
                "baselined": self.baselined,
                "fail_on": self.fail_on,
                "findings_by_checker": by_checker,
                "ok": self.ok,
            },
            "findings": [finding.to_dict() for finding in findings],
        }

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.all_findings()]
        summary = (
            f"{self.files_scanned} file(s) scanned, "
            f"{len(self.findings) + len(self.parse_errors)} finding(s), "
            f"{self.suppressed} suppressed"
        )
        if self.baselined:
            summary += f", {self.baselined} baselined"
        lines.append(summary)
        return "\n".join(lines)


def iter_source_files(root: str) -> list[str]:
    """Every ``.py`` file under ``root`` (or ``root`` itself), sorted."""
    if os.path.isfile(root):
        return [root]
    paths: list[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d not in SKIP_DIRS and not d.startswith(".")
        )
        paths.extend(
            os.path.join(dirpath, name)
            for name in sorted(filenames)
            if name.endswith(".py")
        )
    return paths


def _load_modules(
    roots: list[str],
) -> tuple[list[SourceModule], list[Finding]]:
    modules: list[SourceModule] = []
    errors: list[Finding] = []
    for root in roots:
        base = root if os.path.isdir(root) else os.path.dirname(root)
        for path in iter_source_files(root):
            relpath = os.path.relpath(path, base) if base else path
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
                modules.append(SourceModule.parse(path, relpath, source))
            except (OSError, SyntaxError, ValueError) as exc:
                errors.append(
                    Finding(
                        checker="parse",
                        severity="error",
                        path=relpath,
                        line=getattr(exc, "lineno", None) or 1,
                        message=f"cannot analyze: {exc}",
                    )
                )
    return modules, errors


def load_baseline(path: str) -> set[BaselineKey]:
    """Accepted-findings keys from a committed ``--json`` report.

    A baseline lets a new checker land before every pre-existing finding
    is fixed: findings whose ``(checker, path, message)`` triple appears
    in the baseline file are counted (``baselined``), not reported.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    entries = payload.get("findings", payload) if isinstance(
        payload, dict
    ) else payload
    keys: set[BaselineKey] = set()
    for entry in entries:
        try:
            keys.add(
                (
                    str(entry["checker"]),
                    str(entry["path"]),
                    str(entry["message"]),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"baseline entry {entry!r} lacks checker/path/message"
            ) from exc
    return keys


def analyze(
    roots: list[str],
    only: list[str] | None = None,
    baseline: set[BaselineKey] | None = None,
    fail_on: str = SEVERITIES[0],
) -> AnalysisReport:
    """Run the (selected) checkers over every Python file under ``roots``."""
    if fail_on not in SEVERITIES:
        raise ValueError(
            f"fail_on {fail_on!r} not one of {SEVERITIES}"
        )
    checkers: list[Checker] = all_checkers(only)
    modules, parse_errors = _load_modules(roots)
    report = AnalysisReport(
        roots=list(roots),
        checkers=[checker.id for checker in checkers],
        files_scanned=len(modules),
        parse_errors=parse_errors,
        fail_on=fail_on,
    )
    by_relpath = {module.relpath: module for module in modules}
    raw: list[Finding] = []
    for module in modules:
        for checker in checkers:
            raw.extend(checker.check(module))
    for checker in checkers:
        raw.extend(checker.check_project(modules))
    for finding in raw:
        module = by_relpath.get(finding.path)
        if module is not None and module.is_suppressed(finding):
            report.suppressed += 1
        elif (
            baseline is not None
            and (finding.checker, finding.path, finding.message) in baseline
        ):
            report.baselined += 1
        else:
            report.findings.append(finding)
    report.findings.sort(key=Finding.sort_key)
    return report
