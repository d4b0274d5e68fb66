"""``repro.gateway`` — the network front door.

An asyncio TCP gateway speaking newline-delimited JSON in front of a
:class:`~repro.host.host.Host` or :class:`~repro.cluster.cluster.Cluster`
backend, with per-tenant quotas, bounded inflight, and structured load
shedding (``busy`` + ``retry_after_ms``) instead of unbounded
buffering.  The machinery below stays synchronous: one task on the
event loop ticks the backend, beside the sockets and admission.
See ``docs/SERVING.md`` for the wire protocol and shed contract.
"""

from repro.gateway.client import GatewayClient
from repro.gateway.protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    OPS,
    decode_frame,
    encode_frame,
    error_frame,
)
from repro.gateway.quota import GatewayLimits, QuotaTable, TokenBucket
from repro.gateway.server import Gateway

__all__ = [
    "ERROR_CODES",
    "Gateway",
    "GatewayClient",
    "GatewayLimits",
    "MAX_FRAME_BYTES",
    "OPS",
    "QuotaTable",
    "TokenBucket",
    "decode_frame",
    "encode_frame",
    "error_frame",
]
