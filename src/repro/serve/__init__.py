"""Multi-tenant detection-as-a-service (docs/SERVING.md).

``repro.serve`` hosts many tenants' detection sessions behind one
asyncio endpoint: clients stream :class:`~repro.pipeline.source.
QuantumObservation` frames over a versioned length-prefixed JSON wire
protocol (:mod:`repro.serve.wire`), the service folds them into sharded
per-tenant :class:`~repro.pipeline.session.DetectionSession` pools, and
verdicts flow back periodically plus a final report at close.

The service is built to *degrade, not die*: per-tenant bounded queues
with credit-based backpressure, admission control with load-shedding
under overload (shed quanta surface as ``shed:*`` fault tags, i.e. the
tenant goes DEGRADED — never silently OK), per-tenant memory caps with
LRU session eviction, idle-tenant expiry, and a supervised shutdown
that drains queues and emits every tenant's final verdicts.
"""

from repro.errors import (
    FrameDecodeError,
    ServeError,
    ServeUnavailableError,
    WireError,
)
from repro.serve.client import ServeClient, TenantResult, stream_tenant
from repro.serve.service import DetectionService, ServeConfig, TenantStats
from repro.serve.traffic import (
    benign_observations,
    covert_observations,
    make_observations,
)
from repro.serve.wire import (
    MAX_FRAME_BYTES,
    WIRE_FORMAT,
    Bye,
    Credit,
    ErrorFrame,
    Goodbye,
    Hello,
    ObsFrame,
    VerdictFrame,
    Welcome,
    decode_payload,
    encode_frame,
    read_frame,
    send_frame,
)

__all__ = [
    "Bye",
    "Credit",
    "DetectionService",
    "ErrorFrame",
    "FrameDecodeError",
    "Goodbye",
    "Hello",
    "MAX_FRAME_BYTES",
    "ObsFrame",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeUnavailableError",
    "TenantResult",
    "TenantStats",
    "VerdictFrame",
    "WIRE_FORMAT",
    "Welcome",
    "WireError",
    "benign_observations",
    "covert_observations",
    "decode_payload",
    "encode_frame",
    "make_observations",
    "read_frame",
    "send_frame",
    "stream_tenant",
]
