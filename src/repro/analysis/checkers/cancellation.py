"""cancellation: chunk-fetch loops poll the cancel token every iteration.

The serving front end's request timeouts (PR 6) and the coordinator's
cancel sentinel (PR 8) both rely on one engine convention: any loop that
fetches or decodes chunks in scheduled order checks for cancellation at
every chunk boundary.  A loop that forgets the poll turns a 30s timeout
into "however long the remaining chunks take" while holding an admission
slot — the exact failure admission control exists to prevent.

Heuristic, tuned to the engine's vocabulary: a ``for``/``async for``
loop qualifies when its iterable mentions a fetch schedule
(``schedule``, ``fetch_order``, ``as_completed``), and a ``while`` loop
when its test does; in both cases the body must also perform chunk
materialization (``get_or_load``, ``fetch_chunk``, ``load_chunk``,
``_fetch_one``, the scan loop's ``fetch`` callback, or draining
``future.result()``).  Such a loop must call one of the cancellation polls
(``check_cancelled``, ``raise_if_cancelled``, ``_check_cancelled``, or the
scan loop's ``poll`` callback) somewhere in its body.
Claim/bookkeeping sweeps over the same schedules fetch nothing and are
deliberately not flagged, and neither are ``while`` loops that gate on
other conditions (draining ``while pending:`` gathers poll explicitly
and carry the schedule word only when they iterate one).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..astutil import call_name, calls_in
from ..base import Checker, SourceModule, register
from ..findings import Finding

__all__ = ["CancellationChecker"]

SCHEDULE_PATTERN = re.compile(r"schedule|fetch_order|as_completed")
FETCH_CALLS = {
    "get_or_load",
    "fetch_chunk",
    "load_chunk",
    "_fetch_one",
    "fetch",
    "result",
}
POLL_CALLS = {
    "check_cancelled",
    "raise_if_cancelled",
    "_check_cancelled",
    "poll",
}


@register
class CancellationChecker(Checker):
    id = "cancellation"
    description = (
        "chunk-iteration loops over fetch schedules poll the cancel "
        "token at every chunk boundary"
    )
    severity = "error"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                guard = module.segment(node.iter)
            elif isinstance(node, ast.While):
                guard = module.segment(node.test)
            else:
                continue
            if not SCHEDULE_PATTERN.search(guard):
                continue
            body_calls = {
                call_name(call)
                for stmt in node.body
                for call in calls_in(stmt)
            }
            if not body_calls & FETCH_CALLS:
                continue  # claim/bookkeeping sweep: nothing to cancel
            if body_calls & POLL_CALLS:
                continue
            kind = (
                "while loop on"
                if isinstance(node, ast.While)
                else "chunk loop over"
            )
            yield self.finding(
                module,
                node,
                f"{kind} {guard!r} fetches without polling the cancel "
                "token; a timed-out or cancelled query would keep "
                "fetching every remaining chunk",
            )
