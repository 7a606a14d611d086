"""``repro.service`` — the multi-tenant sweep job server (docs/SERVICE.md).

Simulation-as-a-service on top of the parallel layer: an asyncio front
door (:class:`SweepService`) accepts experiment-grid jobs from many
concurrent clients over an NDJSON socket protocol, admits and
fair-queues them per tenant (deficit round robin), dedups identical
cells across tenants into a single execution (single-flight, with the
shared :class:`~repro.parallel.resultcache.ResultCache` as artifact
store), persists completed cells in that cache (fsync'd) and job
markers in a job journal for crash-restart resume, and streams per-job
progress.  Results are byte-identical to a serial
:meth:`~repro.parallel.engine.SweepEngine.run` of the same grid.

Layering: ``repro.service`` sits above ``repro.parallel`` /
``repro.experiments`` and below ``repro.cli`` in the ``simlint.toml``
architecture DAG; simlint SL015 bans blocking calls inside its
``async def`` bodies.
"""

from repro.service.client import (
    ServiceClient,
    endpoint_from_env,
    parse_endpoint,
    run_inprocess,
)
from repro.service.jobs import GridSpec, Job, JobStore, job_id_for
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
    request_frame,
)
from repro.service.scheduler import Scheduler
from repro.service.server import SweepService

__all__ = [
    "GridSpec",
    "Job",
    "JobStore",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Scheduler",
    "ServiceClient",
    "SweepService",
    "decode_frame",
    "encode_frame",
    "endpoint_from_env",
    "error_frame",
    "job_id_for",
    "ok_frame",
    "parse_endpoint",
    "request_frame",
    "run_inprocess",
]
