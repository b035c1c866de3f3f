"""``SocketQueue``: the TCP transport behind ``backend="socket"``.

A drop-in :class:`~repro.experiments.queue.WorkQueue` whose every method
is one request frame to a :class:`~repro.experiments.server.QueueServer`
(see :mod:`repro.experiments.protocol` for the wire format).  The server
fronts a plain :class:`~repro.experiments.queue.DirectoryQueue`, so the
semantics — idempotent content-addressed submit, priority order, lease
recovery, provenance-stamped results — are the directory transport's,
unchanged; only the reach is new (workers no longer need the shared
filesystem).

**Failure model.**  Every call retries with exponential backoff over a
fresh connection: a dropped connection, a restarted server, or a server
that has not bound its port yet all look the same — transient — and a
call only raises :class:`QueueConnectionError` once the retry budget is
exhausted.  Retrying is safe for every request type:

* SUBMIT, COMPLETE, FAIL, HEARTBEAT, REQUEUE and the queries are
  idempotent (re-submitting a key is a no-op; re-storing a result writes
  the byte-identical row, and a retried batch COMPLETE rewrites every
  row of the batch and announces its keys on the feed again).
  COMPLETED_SINCE is a read at the caller's cursor, which lives in the
  queue database: a retry against a restarted server returns the same
  keys, plus any that completed meanwhile.
* CLAIM is the one non-idempotent request: if the server applied a claim
  but the response was lost, the retry claims *different* jobs and the
  first claim — every job of a lost batch — is orphaned.  Orphans are
  never refreshed — heartbeats name only the keys the worker actually
  holds — so the ordinary lease expiry requeues them.  Delivery stays
  at-least-once, and at-least-once is safe because job execution is
  deterministic.

**Batches.**  :meth:`SocketQueue.claim_many` asks the server for a
batch it sizes itself (see :mod:`repro.experiments.server`) and
:meth:`SocketQueue.complete_many` reports a batch in one COMPLETE frame.
Both degrade to the single-job frames against a server that predates
batches: its CLAIM reply is one job, and a batch of one is sent in the
single-job COMPLETE form.

A server-side failure (the server answered, with an ERROR frame) raises
:class:`QueueRemoteError` and is **not** retried — the request arrived
fine; repeating it would repeat the failure.  The error names the
request's frame type.  A server that predates the completion feed does
not answer COMPLETED_SINCE at all: its decoder rejects the unknown frame
type as corrupt and drops the connection, so the request fails with
:class:`QueueConnectionError` once the retries are spent.  Submitters
need a server with the feed; there is no fallback poller.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from typing import Optional, Sequence

from repro.experiments.jobs import ExperimentJob
from repro.experiments.protocol import (
    FrameError,
    MessageType,
    recv_frame,
    send_frame,
)
from repro.experiments.queue import ClaimedJob, QueueCounts, WorkQueue, format_error

__all__ = [
    "QueueConnectionError",
    "QueueRemoteError",
    "SocketQueue",
    "parse_addr",
]

logger = logging.getLogger(__name__)

#: Jobs per SUBMIT frame; bounds frame size for very large suites.
_SUBMIT_CHUNK = 500


class QueueConnectionError(ConnectionError):
    """The server stayed unreachable through the whole retry budget."""


class QueueRemoteError(RuntimeError):
    """The server received the request and reported a failure."""


def parse_addr(addr: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (the ``--addr`` CLI format)."""
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"queue address {addr!r} is not of the form host:port")
    return host, int(port)


class SocketQueue(WorkQueue):
    """A :class:`WorkQueue` speaking the framed protocol over TCP.

    One persistent connection, re-established transparently inside the
    retry loop; a lock serializes requests so a worker's heartbeat
    thread can share the instance with its main loop.
    """

    def __init__(
        self,
        addr: str,
        *,
        timeout_s: float = 30.0,
        retries: int = 8,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
    ):
        self.addr = addr
        self.host, self.port = parse_addr(addr)
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self._lock = threading.RLock()
        self._sock: Optional[socket.socket] = None
        #: key -> cache entry, from the last COMPLETED_SINCE reply.
        self._feed_entries: dict[str, Optional[dict]] = {}

    # -- connection management --------------------------------------------------------
    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout_s)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._disconnect()

    def __enter__(self) -> "SocketQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the request loop -------------------------------------------------------------
    def _request(self, kind: MessageType, payload: dict) -> dict:
        """One request/response exchange, retried over fresh connections.

        Raises :class:`QueueRemoteError` on a server-reported failure
        (not retried) and :class:`QueueConnectionError` once transport
        errors exhaust the retry budget.
        """
        with self._lock:
            delay = self.backoff_s
            last_error: Optional[Exception] = None
            for attempt in range(self.retries + 1):
                if attempt:
                    time.sleep(delay)
                    delay = min(delay * 2, self.backoff_max_s)
                try:
                    sock = self._connect()
                    send_frame(sock, kind, payload)
                    reply = recv_frame(sock)
                except (OSError, FrameError) as error:
                    last_error = error
                    self._disconnect()
                    logger.debug(
                        "queue request %s attempt %d/%d failed: %r",
                        kind.name,
                        attempt + 1,
                        self.retries + 1,
                        error,
                    )
                    continue
                if reply is None:  # server closed between frames
                    last_error = ConnectionError("server closed the connection")
                    self._disconnect()
                    continue
                reply_kind, reply_payload = reply
                if reply_kind is MessageType.ERROR:
                    error = (reply_payload or {}).get("error", "unknown server error")
                    raise QueueRemoteError(f"{kind.name} request to {self.addr} failed: {error}")
                return reply_payload or {}
            raise QueueConnectionError(
                f"queue server {self.addr} unreachable after "
                f"{self.retries + 1} attempts ({last_error!r})"
            )

    # -- submitter side ---------------------------------------------------------------
    def submit(self, job: ExperimentJob) -> str:
        return self._request(MessageType.SUBMIT, {"job": job})["keys"][0]

    def submit_many(self, jobs: Sequence[ExperimentJob]) -> list[str]:
        keys: list[str] = []
        jobs = list(jobs)
        for start in range(0, len(jobs), _SUBMIT_CHUNK):
            chunk = jobs[start : start + _SUBMIT_CHUNK]
            keys.extend(self._request(MessageType.SUBMIT, {"jobs": chunk})["keys"])
        return keys

    def completed_since(
        self, cursor: Optional[int], timeout_s: float = 0.0
    ) -> tuple[int, list[tuple[str, str]]]:
        # The server holds the request for up to timeout_s; stay well
        # inside the socket timeout so a long-poll never reads as a
        # dead connection.
        timeout_s = min(timeout_s, self.timeout_s / 2)
        reply = self._request(
            MessageType.COMPLETED_SINCE, {"cursor": cursor, "timeout_s": timeout_s}
        )
        # The reply carries the entries of the results it lists: the
        # drain's result_entry() for each of them needs no round trip.
        self._feed_entries = reply["entries"]
        return reply["cursor"], reply["completed"]

    def result_entry(self, key: str) -> Optional[dict]:
        entry = self._feed_entries.pop(key, None)
        if entry is not None:
            return entry
        return self._request(MessageType.RESULT, {"key": key})["entry"]

    def failure(self, key: str) -> Optional[dict]:
        return self._request(MessageType.FAILURE, {"key": key})["marker"]

    def invalidate(self, key: str) -> None:
        self._feed_entries.pop(key, None)
        self._request(MessageType.INVALIDATE, {"key": key})

    def requeue_stale(self, lease_s: float) -> list[str]:
        return self._request(MessageType.REQUEUE, {"lease_s": lease_s})["keys"]

    def requeue_worker(self, worker_id: str) -> list[str]:
        return self._request(MessageType.REQUEUE, {"worker": worker_id})["keys"]

    def counts(self) -> QueueCounts:
        return self._request(MessageType.COUNTS, {})["counts"]

    # -- worker side ------------------------------------------------------------------
    def claim(self, worker_id: Optional[str] = None) -> Optional[ClaimedJob]:
        claimed = self._request(MessageType.CLAIM, {"worker": worker_id})["claimed"]
        return None if claimed is None else _claimed_job(claimed)

    def claim_many(
        self, worker_id: Optional[str] = None, limit: Optional[int] = None
    ) -> list[ClaimedJob]:
        claimed = self._request(
            MessageType.CLAIM, {"worker": worker_id, "batch": True, "max": limit}
        )["claimed"]
        if claimed is None or isinstance(claimed, dict):
            # A server that predates batches answers in the single form.
            claimed = [] if claimed is None else [claimed]
        return [_claimed_job(claim) for claim in claimed]

    def heartbeat(self, worker_id: str, keys: Optional[Sequence[str]] = None) -> list[str]:
        return self._request(
            MessageType.HEARTBEAT,
            {"worker": worker_id, "keys": None if keys is None else list(keys)},
        )["refreshed"]

    def complete(self, claimed: ClaimedJob, result, runtime_s: Optional[float] = None) -> None:
        self._request(MessageType.COMPLETE, _completion(claimed, result, runtime_s))

    def complete_many(
        self, completions: Sequence[tuple[ClaimedJob, object, Optional[float]]]
    ) -> None:
        if len(completions) == 1:
            # The single-job frame: every server understands it, and a
            # server that predates batches only ever hands out one.
            self.complete(*completions[0])
        elif completions:
            self._request(
                MessageType.COMPLETE,
                {
                    "worker": completions[0][0].worker_id,
                    "results": [_completion(*done) for done in completions],
                },
            )

    def fail(self, claimed: ClaimedJob, error: BaseException) -> None:
        error_repr, traceback_text = format_error(error)
        self._request(
            MessageType.FAIL,
            {
                "key": claimed.key,
                "worker": claimed.worker_id,
                "error": error_repr,
                "traceback": traceback_text,
            },
        )

    # -- artifact transfer ------------------------------------------------------------
    def artifact_store(self) -> "_SocketArtifactStore":
        """A store adapter serving trained-agent artefacts over the wire
        (the socket analogue of :meth:`DirectoryQueue.artifact_store`)."""
        return _SocketArtifactStore(self)


def _claimed_job(claim: dict) -> ClaimedJob:
    # The server holds the claim file, so the client's claim has no path.
    return ClaimedJob(key=claim["key"], job=claim["job"], worker_id=claim["worker"], path=None)


def _completion(claimed: ClaimedJob, result, runtime_s: Optional[float]) -> dict:
    """One job's COMPLETE payload (a batch carries a list of them)."""
    return {
        "key": claimed.key,
        "worker": claimed.worker_id,
        "job": claimed.job,
        "result": result,
        "runtime_s": runtime_s,
    }


class _SocketArtifactStore:
    """Artifact get/put against the queue server's result database.

    Speaks the ARTIFACT_GET / ARTIFACT_PUT frames; an **older server**
    answers an unknown request type with an ERROR frame, which surfaces
    here as :class:`QueueRemoteError` — the adapter then disables itself
    with one log line and degrades gracefully: gets miss and puts drop,
    so workers fall back to deterministic on-demand training instead of
    failing the fleet.  A server that stays unreachable through the
    whole retry budget (:class:`QueueConnectionError`) degrades the same
    way — artifact transfer is an optimization, never a correctness
    dependency.
    """

    def __init__(self, queue: SocketQueue):
        self._queue = queue
        self._disabled = False

    def _disable(self, error: Exception) -> None:
        if not self._disabled:
            logger.warning(
                "queue server %s cannot serve agent artifacts (%s); "
                "falling back to on-demand training",
                self._queue.addr,
                error,
            )
        self._disabled = True

    def get_artifact_bytes(self, hash: str, schema: Optional[int] = None) -> Optional[bytes]:
        if self._disabled:
            return None
        try:
            return self._queue._request(
                MessageType.ARTIFACT_GET, {"hash": hash, "schema": schema}
            )["payload"]
        except (QueueConnectionError, QueueRemoteError) as error:
            self._disable(error)
            return None

    def put_artifact_bytes(
        self,
        hash: str,
        payload: bytes,
        *,
        schema: int,
        kind: str = "agent",
        benchmark: Optional[str] = None,
        spec: Optional[dict] = None,
        runtime_s: Optional[float] = None,
    ) -> bool:
        if self._disabled:
            return False
        try:
            return self._queue._request(
                MessageType.ARTIFACT_PUT,
                {
                    "hash": hash,
                    "payload": payload,
                    "schema": schema,
                    "kind": kind,
                    "benchmark": benchmark,
                    "spec": spec,
                    "runtime_s": runtime_s,
                },
            )["stored"]
        except (QueueConnectionError, QueueRemoteError) as error:
            self._disable(error)
            return False

    def artifact_rows(self, benchmark: Optional[str] = None) -> list[dict]:
        """Explicit-hash resolution support (``agent#<hash>`` placements
        on socket workers); empty against a pre-artifact server."""
        if self._disabled:
            return []
        try:
            return self._queue._request(
                MessageType.ARTIFACT_GET, {"benchmark": benchmark, "rows": True}
            )["rows"]
        except (QueueConnectionError, QueueRemoteError) as error:
            self._disable(error)
            return []
