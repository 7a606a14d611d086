"""Client side of the sweep service: sync sockets and in-process runs.

:class:`ServiceClient` speaks the NDJSON protocol over a Unix or TCP
socket with plain blocking sockets — the client is a short-lived CLI
tool, so an event loop would buy nothing.  Error frames surface as
:class:`~repro.service.protocol.ProtocolError` (same structured codes
the server raised), so callers can branch on ``exc.code`` and honor
``retry_after_s``.

Endpoint syntax (``--endpoint`` / ``REPRO_SERVICE``)::

    unix:/run/tetris-write.sock     explicit unix socket
    tcp:127.0.0.1:7733              explicit TCP
    /run/tetris-write.sock          bare path -> unix
    127.0.0.1:7733                  host:port -> tcp

``tetris-write sweep`` submits its :class:`GridSpec` here when given an
endpoint; :func:`run_inprocess` runs a grid without a server.  The rows
are byte-identical either way.
"""

from __future__ import annotations

import dataclasses
import os
import socket
from typing import Iterator

from repro.service.jobs import GridSpec, job_id_for
from repro.service.protocol import (
    E_BAD_FRAME,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    request_frame,
)

__all__ = [
    "ServiceClient",
    "endpoint_from_env",
    "parse_endpoint",
    "run_inprocess",
]

DEFAULT_TIMEOUT_S = 60.0


def endpoint_from_env() -> str | None:
    """The configured service endpoint (``REPRO_SERVICE``), or ``None``."""
    return os.environ.get("REPRO_SERVICE") or None


def parse_endpoint(spec: str) -> tuple[str, object]:
    """``("unix", path)`` or ``("tcp", (host, port))`` from an endpoint."""
    if spec.startswith("unix:"):
        return "unix", spec[len("unix:"):]
    if spec.startswith("tcp:"):
        rest = spec[len("tcp:"):]
        host, _, port = rest.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"malformed tcp endpoint: {spec!r}")
        return "tcp", (host, int(port))
    if spec.startswith(("/", ".")):
        return "unix", spec
    host, _, port = spec.rpartition(":")
    if host and port.isdigit():
        return "tcp", (host, int(port))
    raise ValueError(f"cannot parse endpoint: {spec!r}")


class ServiceClient:
    """One service endpoint; each request opens a short-lived connection.

    ``watch`` holds its connection open and yields event frames until
    the job reaches a terminal state.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        tenant: str = "default",
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        self.kind, self.target = parse_endpoint(endpoint)
        self.endpoint = endpoint
        self.tenant = tenant
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        if self.kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout_s)
            sock.connect(self.target)
        else:
            sock = socket.create_connection(self.target, timeout=self.timeout_s)
        return sock

    @staticmethod
    def _read_frame(fh) -> dict | None:
        """One reply frame from the stream, or ``None`` on clean EOF."""
        line = fh.readline(MAX_FRAME_BYTES + 1)
        if not line:
            return None
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                E_BAD_FRAME, "server reply exceeds the frame limit"
            )
        return decode_frame(line)

    @staticmethod
    def _checked(frame: dict | None) -> dict:
        if frame is None:
            raise ProtocolError(E_BAD_FRAME, "server closed mid-request")
        if frame.get("ok"):
            return frame
        error = frame.get("error") or {}
        raise ProtocolError(
            error.get("code", E_BAD_FRAME),
            error.get("message", "unspecified server error"),
            retry_after_s=error.get("retry_after_s"),
        )

    def request(self, frame: dict) -> dict:
        """Send one frame, return the (checked) single reply frame."""
        with self._connect() as sock, sock.makefile("rwb") as fh:
            fh.write(encode_frame(frame))
            fh.flush()
            return self._checked(self._read_frame(fh))

    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self.request(request_frame("ping"))

    def submit(self, grid: dict | GridSpec, *, tenant: str | None = None) -> dict:
        if isinstance(grid, GridSpec):
            grid = grid.to_dict()
        return self.request(
            request_frame(
                "submit", tenant=tenant or self.tenant, grid=grid
            )
        )

    def status(self, job_id: str | None = None) -> dict:
        return self.request(request_frame("status", job=job_id))

    def cancel(self, job_id: str) -> dict:
        return self.request(request_frame("cancel", job=job_id))

    def drain(self) -> dict:
        return self.request(request_frame("drain"))

    def watch(self, job_id: str) -> Iterator[dict]:
        """Yield progress frames until the job is done/cancelled or EOF."""
        with self._connect() as sock, sock.makefile("rwb") as fh:
            fh.write(encode_frame(request_frame("watch", job=job_id)))
            fh.flush()
            while True:
                frame = self._read_frame(fh)
                if frame is None:
                    return
                frame = self._checked(frame)
                yield frame
                if frame.get("state") in ("done", "cancelled"):
                    return

    def wait(self, job_id: str) -> dict:
        """Watch to completion, then return the final status (with rows)."""
        for _ in self.watch(job_id):
            pass
        return self.status(job_id)


def run_inprocess(
    grid: dict | GridSpec, *, tenant: str = "local", **execution
) -> dict:
    """Execute a grid without a server; reply shaped like a finished job.

    The grid goes through the same :class:`GridSpec` validation and the
    same engine as the service (``execution`` as for
    :meth:`GridSpec.engine`), so running in process instead of served
    changes latency, never results.
    """
    spec = grid if isinstance(grid, GridSpec) else GridSpec.from_dict(grid)
    engine = spec.engine(**execution)
    result = engine.run(spec.schemes, spec.workloads)
    return {
        "ok": True,
        "local": True,
        "job": job_id_for(tenant, spec, engine._salt()),
        "tenant": tenant,
        "state": "done",
        "total": result.stats.cells,
        "done": len(result.rows),
        "failed": len(result.errors),
        "cached": result.stats.cache_hits,
        "rows": [dataclasses.asdict(r) for r in result.rows],
        "errors": [dataclasses.asdict(e) for e in result.errors],
        "stats": result.stats.to_dict(),
    }
