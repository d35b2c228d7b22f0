"""Network serving front end: asyncio HTTP/JSON over one shared database.

The wire protocol a "millions of users" deployment talks to: an
admission-controlled query service (:mod:`repro.serving.server`) in front
of one shared :class:`~repro.core.sommelier.SommelierDB`, with bounded
queuing, per-client rate limits, request timeouts that cancel the engine
cooperatively, chunk-streamed JSON results and a ``/stats`` counter
surface.  Stdlib-only (asyncio + http.client), so CI runs it hermetically.
"""

from .admission import (
    AdmissionController,
    AdmissionRejected,
    ClientRateLimiter,
    TokenBucket,
)
from .client import QueryResponse, ServingClient
from .server import (
    ServerConfig,
    ServerHandle,
    ServerStats,
    SommelierServer,
    start_in_thread,
)

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "ClientRateLimiter",
    "TokenBucket",
    "QueryResponse",
    "ServingClient",
    "ServerConfig",
    "ServerHandle",
    "ServerStats",
    "SommelierServer",
    "start_in_thread",
]
