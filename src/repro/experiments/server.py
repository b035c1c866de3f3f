"""The queue server: the socket transport's stateless-by-design front end.

``python -m repro.experiments serve --queue DIR --port N`` exposes a
:class:`~repro.experiments.queue.DirectoryQueue` (and therefore its
provenance-stamped SQLite :class:`~repro.experiments.store.ResultStore`)
over TCP, speaking the framed protocol of
:mod:`repro.experiments.protocol`.  The server deliberately owns **no
durable state of its own**: every job, claim, result and failure marker
lives in the queue directory exactly as the shared-filesystem transport
left them, so

* directory workers and socket workers can drain one queue side by side,
* semantics (idempotent content-addressed submit, priority order, lease
  recovery, provenance stamps) are inherited from ``DirectoryQueue``
  rather than reimplemented, and
* a server crash or restart loses nothing — a new server adopts the
  directory as found, re-registers the workers named in the claim files,
  and carries on.

Four things are layered on top of the directory protocol:

**Worker liveness.**  Workers heartbeat (:class:`MessageType.HEARTBEAT`)
every couple of seconds, naming the claims they actually hold (a whole
batch, run or not, until it is reported).
A heartbeat refreshes those claims' lease clocks, so an in-flight job
outlives any fixed lease while its worker is alive; a worker that
misses heartbeats for ``heartbeat_timeout_s`` has **all** its claims
requeued immediately — crashed-worker recovery in seconds instead of a
full lease.  Claims from workers that never heartbeat (plain directory
workers) still age out via ``requeue_stale(lease_s)``.

**Cost-ordered claims.**  Each submitter packs its own batch largest
-estimated-cost first, but with several submitters sharing one queue the
interleaving is arbitrary.  The server re-establishes the global packing
order at claim time: it remembers each submitted job's ``(kind,
cost_units)`` stamp, calibrates a :class:`~repro.experiments.cost.
CostModel` from the queue's result store, and hands out the pending job
with the largest estimate (ties and unknown-cost jobs fall back to
priority order).  Ordering never changes a result — only how well the
fleet is packed.

**Server-sized batches.**  A worker's CLAIM may ask for a batch
(``"batch": True``, optionally ``"max": N``), and its COMPLETE may carry
a whole batch's ``"results"``.  The server sizes each batch from what it
already observes: it takes pending jobs in claim order until their
calibrated estimates reach :data:`BATCH_BUDGET_S` (about 50 ms of
work), and never more than ``ceil(pending / (2 x live workers))`` —
guided self-scheduling (Polychronopoulos & Kuck, 1987), so the tail of
a drain stays balanced across workers.  An uncalibrated model (no
runtime observed yet), a job with no estimate, or a job estimated at
the budget or more gives a batch of one, so long jobs drain exactly as
they would unbatched.  A batch COMPLETE is recorded by
:meth:`~repro.experiments.queue.DirectoryQueue.record_results`: every
row and feed row in one SQLite transaction, every claim released by one
scan of ``claimed/``.  A single-job CLAIM or COMPLETE (what clients
that predate batches send) is a batch of one on the same path.

**A long-polled completion feed.**  ``COMPLETED_SINCE`` serves
:meth:`~repro.experiments.queue.DirectoryQueue.completed_since`: the
keys that completed or failed after the submitter's cursor.  With none
yet, the handler waits on a :class:`threading.Condition` over the
server lock — other requests run meanwhile — and every COMPLETE, FAIL
or SUBMIT wakes it; it also re-reads the feed every
:data:`~repro.experiments.queue.FEED_POLL_S` for results that directory
workers commit straight into the database.  It answers as soon as the
feed lists a key, and the answer carries the cache entries of the
results it lists, so a draining submitter needs no RESULT request per
job.  The feed's cursor is a sequence number in the queue database, so a
submitter that reconnects to a restarted server resumes exactly where
it left off.

**Exposure.**  Frames are pickles and nothing authenticates a client
(see :mod:`repro.experiments.protocol`), so whoever can reach the port
can run code on this host.  The ``serve`` CLI therefore binds
``127.0.0.1`` unless told otherwise, and a server bound to any
non-loopback address logs one warning when it starts (grep for
``"is reachable from other hosts"``).
"""

from __future__ import annotations

import ipaddress
import logging
import math
import socket
import socketserver
import threading
import time
from collections import deque
from pathlib import Path
from typing import Optional, Union

from repro.experiments.cost import CostCalibration
from repro.experiments.protocol import (
    FrameError,
    MessageType,
    recv_frame,
    send_frame,
)
from repro.experiments.queue import FEED_POLL_S, ClaimedJob, DirectoryQueue

__all__ = ["QueueServer"]

logger = logging.getLogger(__name__)

#: A worker silent for this long has its claims requeued immediately.
DEFAULT_HEARTBEAT_TIMEOUT_S = 15.0

#: How often the sweeper checks heartbeats and stale leases.
DEFAULT_SWEEP_INTERVAL_S = 1.0

#: Estimated work a batched CLAIM hands out, in wall seconds (see the
#: module docstring).
BATCH_BUDGET_S = 0.05


def _is_loopback(host: str) -> bool:
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:  # a host name the socket layer resolved
        return host == "localhost"


class _Handler(socketserver.BaseRequestHandler):
    """One connection: a loop of request frames, each answered OK/ERROR."""

    def handle(self) -> None:
        server: QueueServer = self.server.queue_server
        server._track_connection(self.request)
        try:
            while True:
                try:
                    frame = recv_frame(self.request)
                except FrameError:
                    # Already logged with the documented line; the
                    # stream cannot be trusted past a bad frame.
                    break
                except OSError:
                    break
                if frame is None:  # clean close between frames
                    break
                kind, payload = frame
                try:
                    reply = server._dispatch(kind, payload or {})
                except Exception as error:  # surfaced to the client
                    logger.exception("queue server: %s request failed", kind.name)
                    reply_kind, reply = MessageType.ERROR, {"error": repr(error)}
                else:
                    reply_kind = MessageType.OK
                try:
                    send_frame(self.request, reply_kind, reply)
                except OSError:
                    break
        finally:
            server._untrack_connection(self.request)


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True  # restarts rebind immediately
    daemon_threads = True
    queue_server: "QueueServer"


class QueueServer:
    """Serve a :class:`DirectoryQueue` over the framed TCP protocol.

    ``start()`` runs the accept loop and the heartbeat/lease sweeper on
    daemon threads and returns; ``serve_forever()`` blocks (the CLI).
    ``address`` is the bound ``host:port`` — with ``port=0`` the OS
    picks a free port, so tests and suite-owned servers never collide.
    """

    def __init__(
        self,
        queue: Union[DirectoryQueue, Path, str],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_s: float = 300.0,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        sweep_interval_s: float = DEFAULT_SWEEP_INTERVAL_S,
    ):
        self.queue = queue if isinstance(queue, DirectoryQueue) else DirectoryQueue(queue)
        self.lease_s = lease_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.sweep_interval_s = sweep_interval_s
        #: worker id -> monotonic time of the last claim/heartbeat/
        #: complete/fail.  Seeded from the claim files on disk so a
        #: restarted server inherits responsibility for claims handed
        #: out by its predecessor.
        self._workers: dict[str, float] = {
            worker: time.monotonic() for worker in self.queue.claimed_workers()
        }
        #: key -> (kind, cost_units) of jobs submitted through this
        #: server; feeds cost-ordered claiming.  Jobs pending from
        #: before a restart are absent and drain in priority order,
        #: which already encodes their submitter's packing.
        self._costs: dict[str, tuple[str, float]] = {}
        self._calibration = CostCalibration.from_cache(self.queue.results)
        #: Cost-ordered ``(key, path)`` cache of the pending directory.
        #: Claims pop from it in O(1); a full rescan happens only when
        #: the pending *set* changes shape (submits, requeues) — not per
        #: claim, which would be quadratic in queue depth.  Staleness is
        #: safe: a cached file a directory worker already took just
        #: fails its atomic claim and is skipped.
        self._pending: deque[tuple[str, Path]] = deque()
        self._pending_dirty = True
        self._lock = threading.Lock()
        #: Signalled whenever the completion feed may have grown.
        self._feed_grew = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._connections: set = set()
        self._threads: list[threading.Thread] = []
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.queue_server = self
        self.host, self.port = self._tcp.server_address[:2]

    # -- lifecycle --------------------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "QueueServer":
        """Run the accept loop and the sweeper in background threads."""
        for name, target in (("accept", self._tcp.serve_forever), ("sweep", self._sweep_loop)):
            thread = threading.Thread(
                target=target, daemon=True, name=f"queue-server-{name}-{self.port}"
            )
            thread.start()
            self._threads.append(thread)
        logger.info("queue server listening on %s (queue: %s)", self.address, self.queue.root)
        if not _is_loopback(self.host):
            # THE documented exposure line (see the module docstring).
            logger.warning(
                "queue server on %s is reachable from other hosts: its transport is "
                "unauthenticated and unpickles every frame, so anyone who can reach "
                "the port can run code as this user",
                self.address,
            )
        return self

    def serve_forever(self) -> None:
        """Block serving requests (the ``serve`` CLI entry point)."""
        self.start()
        try:
            self._stop.wait()
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop accepting, sever live connections, stop the sweeper.

        The queue directory is left exactly as-is: outstanding claims
        are recovered by the next server (adopted via the claim files)
        or by plain lease expiry — a restart degrades to a requeue.
        """
        self._stop.set()
        self._tcp.shutdown()
        self._tcp.server_close()
        with self._lock:
            self._feed_grew.notify_all()  # end waiting long-polls
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()

    def __enter__(self) -> "QueueServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _track_connection(self, connection) -> None:
        with self._lock:
            self._connections.add(connection)

    def _untrack_connection(self, connection) -> None:
        with self._lock:
            self._connections.discard(connection)

    # -- the sweeper ------------------------------------------------------------------
    def _sweep_loop(self) -> None:
        while not self._stop.wait(self.sweep_interval_s):
            try:
                self.sweep()
            except Exception:
                logger.exception("queue server sweep failed")

    def sweep(self) -> list[str]:
        """One liveness/lease pass; returns every requeued key.

        Claims of workers that missed their heartbeats requeue
        immediately; claims from workers this server has never heard of
        (e.g. directory workers) fall back to lease expiry.
        """
        requeued: list[str] = []
        now = time.monotonic()
        with self._lock:
            for worker, last_seen in list(self._workers.items()):
                if now - last_seen < self.heartbeat_timeout_s:
                    continue
                del self._workers[worker]
                keys = self.queue.requeue_worker(worker)
                if keys:
                    logger.warning(
                        "worker %s missed heartbeats for %.1fs; requeued %d claimed job(s)",
                        worker,
                        now - last_seen,
                        len(keys),
                    )
                requeued.extend(keys)
            requeued.extend(self.queue.requeue_stale(self.lease_s))
            if requeued:
                self._pending_dirty = True
        return requeued

    # -- request dispatch -------------------------------------------------------------
    def _dispatch(self, kind: MessageType, payload: dict) -> dict:
        handler = self._HANDLERS.get(kind)
        if handler is None:
            raise ValueError(f"unexpected request type {kind.name}")
        with self._lock:
            return handler(self, payload)

    def _mark_alive(self, worker: Optional[str]) -> None:
        if worker:
            self._workers[worker] = time.monotonic()

    def _op_submit(self, payload: dict) -> dict:
        jobs = payload.get("jobs")
        if jobs is None:
            jobs = [payload["job"]]
        keys = self.queue.submit_many(jobs)
        for key, job in zip(keys, jobs):
            self._costs[key] = (job.kind, job.cost_units())
        self._pending_dirty = True
        self._feed_grew.notify_all()  # completed keys re-announced
        return {"keys": keys}

    def _refresh_pending(self) -> None:
        """Rebuild the claim-order cache: largest estimate first.

        Unknown-cost keys (pending from before a restart, or submitted
        straight into the directory) rank ahead in their priority order
        — the order their submitter already packed them in.  Estimates
        are frozen per refresh; calibration updates between refreshes
        only affect ordering quality, never correctness.
        """
        model = self._calibration.model()
        ranked = []
        for position, (key, path) in enumerate(self.queue.pending_files()):
            info = self._costs.get(key)
            estimate = model.estimate_units(*info) if info is not None else float("inf")
            ranked.append((-estimate, position, key, path))
        ranked.sort(key=lambda entry: entry[:2])
        self._pending = deque((key, path) for _, _, key, path in ranked)
        self._pending_dirty = False

    def _claim_batch(self, worker: Optional[str], limit: Optional[int]) -> list[ClaimedJob]:
        """Claim the next batch, sized as the module docstring says.

        ``limit`` caps the count further (1 for a single-job CLAIM).
        A job estimated at the budget or more, or with no estimate,
        only ever heads a batch, so it goes alone.
        """
        if self._pending_dirty or not self._pending:
            self._refresh_pending()
            if not self._pending:
                return []
        model = self._calibration.model()
        calibrated = bool(model.rates)
        cap = math.ceil(len(self._pending) / (2 * max(1, len(self._workers))))
        if limit is not None:
            cap = min(cap, limit)
        claims: list[ClaimedJob] = []
        work_s = 0.0
        while len(claims) < max(1, cap) and work_s < BATCH_BUDGET_S:
            if self._pending_dirty or not self._pending:
                self._refresh_pending()
                if not self._pending:
                    break
            key, path = self._pending[0]
            info = self._costs.get(key)
            estimate = (
                model.estimate_units(*info) if calibrated and info is not None else math.inf
            )
            if claims and estimate >= BATCH_BUDGET_S:
                break
            self._pending.popleft()
            claimed = self.queue.claim_file(path, worker)
            if claimed is None:
                # A directory worker raced us to that file (or it was
                # corrupt and became a failure marker); try the next one.
                continue
            claims.append(claimed)
            work_s += estimate
        return claims

    def _op_claim(self, payload: dict) -> dict:
        worker = payload.get("worker")
        self._mark_alive(worker)
        batch = payload.get("batch", False)
        claims = [
            {"key": claimed.key, "job": claimed.job, "worker": claimed.worker_id}
            for claimed in self._claim_batch(worker, payload.get("max") if batch else 1)
        ]
        if batch:
            return {"claimed": claims}
        # The single-job form: what clients that predate batches expect.
        return {"claimed": claims[0] if claims else None}

    def _op_complete(self, payload: dict) -> dict:
        worker = payload.get("worker")
        self._mark_alive(worker)
        # A batch carries "results"; a single-job COMPLETE is its own
        # one-result batch.
        completions = payload.get("results") or [payload]
        self.queue.record_results(
            worker,
            [
                (done["key"], done["job"], done["result"], done.get("runtime_s"))
                for done in completions
            ],
        )
        for done in completions:
            job = done["job"]
            self._calibration.observe(job.kind, job.cost_units(), done.get("runtime_s"))
            self._costs.pop(done["key"], None)
        self._feed_grew.notify_all()
        return {}

    def _op_fail(self, payload: dict) -> dict:
        worker = payload.get("worker")
        self._mark_alive(worker)
        self.queue.record_failure(
            payload["key"],
            worker,
            payload.get("error", "unknown error"),
            payload.get("traceback", ""),
        )
        self._feed_grew.notify_all()
        return {}

    def _op_completed_since(self, payload: dict) -> dict:
        """Long-poll the completion feed (see the module docstring)."""
        cursor = payload.get("cursor")
        deadline = time.monotonic() + payload.get("timeout_s", 0.0)
        while True:
            head, done = self.queue.completed_since(cursor)
            remaining = deadline - time.monotonic()
            if done or cursor is None or remaining <= 0 or self._stop.is_set():
                break
            self._feed_grew.wait(min(FEED_POLL_S, remaining))
        entries = {
            key: self.queue.result_entry(key) for key, outcome in done if outcome == "result"
        }
        return {"cursor": head, "completed": done, "entries": entries}

    def _op_heartbeat(self, payload: dict) -> dict:
        worker = payload.get("worker")
        self._mark_alive(worker)
        refreshed = self.queue.heartbeat(worker, keys=payload.get("keys"))
        return {"refreshed": refreshed}

    def _op_counts(self, payload: dict) -> dict:
        counts = self.queue.counts()
        return {"counts": counts, "workers": len(self._workers)}

    def _op_requeue(self, payload: dict) -> dict:
        if payload.get("worker") is not None:
            keys = self.queue.requeue_worker(payload["worker"])
            self._workers.pop(payload["worker"], None)
        else:
            keys = self.queue.requeue_stale(payload.get("lease_s", self.lease_s))
        if keys:
            self._pending_dirty = True
        return {"keys": keys}

    def _op_result(self, payload: dict) -> dict:
        return {"entry": self.queue.result_entry(payload["key"])}

    def _op_failure(self, payload: dict) -> dict:
        return {"marker": self.queue.failure(payload["key"])}

    def _op_invalidate(self, payload: dict) -> dict:
        self.queue.invalidate(payload["key"])
        return {}

    def _op_artifact_get(self, payload: dict) -> dict:
        if payload.get("rows"):
            return {"rows": self.queue.results.artifact_rows(payload.get("benchmark"))}
        return {
            "payload": self.queue.results.get_artifact_bytes(
                payload["hash"], schema=payload.get("schema")
            )
        }

    def _op_artifact_put(self, payload: dict) -> dict:
        stored = self.queue.results.put_artifact_bytes(
            payload["hash"],
            payload["payload"],
            schema=payload["schema"],
            kind=payload.get("kind", "agent"),
            benchmark=payload.get("benchmark"),
            spec=payload.get("spec"),
            runtime_s=payload.get("runtime_s"),
        )
        return {"stored": stored}

    _HANDLERS = {
        MessageType.SUBMIT: _op_submit,
        MessageType.CLAIM: _op_claim,
        MessageType.COMPLETE: _op_complete,
        MessageType.FAIL: _op_fail,
        MessageType.HEARTBEAT: _op_heartbeat,
        MessageType.COUNTS: _op_counts,
        MessageType.REQUEUE: _op_requeue,
        MessageType.RESULT: _op_result,
        MessageType.FAILURE: _op_failure,
        MessageType.INVALIDATE: _op_invalidate,
        MessageType.ARTIFACT_GET: _op_artifact_get,
        MessageType.ARTIFACT_PUT: _op_artifact_put,
        MessageType.COMPLETED_SINCE: _op_completed_since,
    }
