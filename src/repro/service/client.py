"""Client for the ``repro serve`` daemon's JSON-lines socket API.

Used by the ``repro submit`` / ``repro jobs`` / ``repro cancel`` /
``repro fetch`` CLI commands and directly by tests and benchmarks.  One
request is one connection (connect, send a JSON line, read the JSON-line
reply) except :meth:`ServiceClient.submit_stream`, which keeps its
connection open and yields the job's event lines through the terminal
event — the live progress feed.

Error replies (``{"ok": false, "code": ..., "error": ...}``) raise
:class:`ServiceError` carrying the code; a ``429`` admission rejection
additionally carries the daemon's ``retry_after_s`` hint.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Iterator

__all__ = ["ServiceError", "ServiceClient"]


class ServiceError(Exception):
    """An error reply from the daemon (or a transport failure)."""

    def __init__(self, message: str, code: int = 0,
                 retry_after_s: float | None = None):
        super().__init__(message)
        self.code = code
        self.retry_after_s = retry_after_s

    @classmethod
    def from_reply(cls, doc: dict) -> "ServiceError":
        return cls(
            str(doc.get("error", "request failed")),
            code=int(doc.get("code", 0)),
            retry_after_s=doc.get("retry_after_s"),
        )


class ServiceClient:
    """Talks to one daemon over a Unix socket or local TCP."""

    def __init__(
        self,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        timeout: float = 30.0,
    ):
        if socket_path is None and port is None:
            raise ValueError("client needs a socket path or a port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout

    def _connect(self, timeout: float) -> socket.socket:
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(self.socket_path)
        else:
            sock = socket.create_connection(
                (self.host, int(self.port)), timeout=timeout
            )
        return sock

    def request(self, doc: dict, wait: float = 0.0) -> dict:
        """One request/reply round trip; raises on an error reply.

        ``wait`` is how long the daemon may hold the reply (``result`` and
        ``events`` block for it): the socket timeout covers that on top of
        :attr:`timeout`, or a slow job would read as a dead daemon.
        """
        try:
            with self._connect(self.timeout + wait) as sock:
                wr = sock.makefile("w", encoding="utf-8", newline="\n")
                rd = sock.makefile("r", encoding="utf-8", newline="\n")
                wr.write(json.dumps(doc) + "\n")
                wr.flush()
                line = rd.readline()
        except OSError as exc:
            raise ServiceError(f"cannot reach daemon: {exc}") from None
        if not line:
            raise ServiceError("daemon closed the connection")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise ServiceError.from_reply(reply)
        return reply

    # -- operations ----------------------------------------------------------

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def health(self) -> dict:
        """Daemon health: queue latency, admission/shedding state, and the
        execution guard's breaker states and counters."""
        return self.request({"op": "health"})

    def submit(self, job: dict, tenant: str = "default",
               priority: str = "normal") -> dict:
        """Submit a job; returns the admission reply (``job`` id inside)."""
        return self.request({"op": "submit", "tenant": tenant,
                             "priority": priority, "job": job})

    def submit_stream(self, job: dict, tenant: str = "default",
                      priority: str = "normal") -> Iterator[dict]:
        """Submit a job and yield the admission reply, then every event
        line through the job's terminal event."""
        doc = {"op": "submit", "tenant": tenant, "priority": priority,
               "job": job, "stream": True}
        try:
            with self._connect(self.timeout) as sock:
                wr = sock.makefile("w", encoding="utf-8", newline="\n")
                rd = sock.makefile("r", encoding="utf-8", newline="\n")
                wr.write(json.dumps(doc) + "\n")
                wr.flush()
                line = rd.readline()
                if not line:
                    raise ServiceError("daemon closed the connection")
                reply = json.loads(line)
                if not reply.get("ok"):
                    raise ServiceError.from_reply(reply)
                yield reply
                for line in rd:
                    line = line.strip()
                    if not line:
                        continue
                    ev = json.loads(line)
                    yield ev
                    if ev.get("event") in ("done", "failed", "canceled"):
                        return
        except OSError as exc:
            raise ServiceError(f"cannot reach daemon: {exc}") from None

    def jobs(self) -> list[dict]:
        return self.request({"op": "jobs"})["jobs"]

    def status(self, job_id: str) -> dict:
        return self.request({"op": "status", "job": job_id})

    def events(self, job_id: str, from_seq: int = 0,
               wait: float = 0.0) -> list[dict]:
        return self.request(
            {"op": "events", "job": job_id, "from": from_seq, "wait": wait},
            wait=wait,
        )["events"]

    def result(self, job_id: str, wait: float | None = None) -> dict:
        """The job's terminal summary + artifact; ``wait`` blocks for it."""
        doc: dict[str, Any] = {"op": "result", "job": job_id}
        if wait is not None:
            doc["wait"] = wait
        return self.request(doc, wait=wait or 0.0)

    def cancel(self, job_id: str) -> dict:
        return self.request({"op": "cancel", "job": job_id})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})
