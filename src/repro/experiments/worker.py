"""The standalone distributed-backend worker.

A worker is deliberately dumb: it polls a :class:`~repro.experiments.
queue.WorkQueue` for the next batch of pending jobs (one job on the
directory transport; on the socket transport the server sizes the batch
from its cost model), executes them with the same
:func:`~repro.experiments.jobs.execute_job` the in-process backends use,
reports the whole batch's provenance-stamped results back through the
queue's SQLite :class:`~repro.experiments.store.ResultStore`
(rollback-journal mode plus a busy timeout coordinate any number of
workers writing the shared database, machines included — provided the
filesystem's advisory locks work), and repeats.  All scheduling
intelligence (cost-based packing, batch sizing, crash recovery, lease
management) lives with the submitter and the queue server.

Run one per core, on any machine that can see the queue directory —
or, with the socket transport, any machine that can reach the server::

    PYTHONPATH=src python -m repro.experiments worker --queue DIR
    PYTHONPATH=src python -m repro.experiments worker --addr HOST:PORT

While executing a job the worker heartbeats the queue (a no-op on the
directory transport; on the socket transport the server refreshes the
claim's lease and tracks the worker as alive) so an in-flight job
outlives any fixed lease — and a worker that dies mid-job is noticed by
its *silence* within the heartbeat timeout, not after the full lease.
The heartbeat names exactly the keys of the batch the worker holds
(run or not, but not yet reported), so a claim it never acknowledged
(orphaned by a retried CLAIM) still ages out normally, and a worker
killed mid-batch has every claim of the batch requeued.

:func:`run_worker` is the loop behind that entrypoint;
:func:`spawn_worker` starts one as a local subprocess (what
``ExperimentSuite``'s distributed/socket backends and the
:class:`~repro.experiments.coordinator.Coordinator` do for you, and
what the crash-recovery tests kill).
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional

from repro.experiments.jobs import execute_job
from repro.experiments.queue import WorkQueue, default_worker_id

__all__ = ["run_worker", "spawn_worker"]

logger = logging.getLogger(__name__)

#: Default seconds between worker heartbeats (socket transport).
DEFAULT_HEARTBEAT_S = 2.0


class _HeartbeatPump:
    """A daemon thread beating ``queue.heartbeat(worker, keys)``.

    ``keys`` is always the exact set of claims the worker holds right
    now — its current batch, sometimes none (an empty list is still
    sent: it is a pure liveness ping that keeps the server from
    requeueing on the *next* claim's behalf).  Heartbeat failures are
    logged and swallowed; liveness is advisory, and the worker's real
    calls carry their own retry loop.
    """

    def __init__(self, queue: WorkQueue, worker_id: str, interval_s: float):
        self._queue = queue
        self._worker = worker_id
        self._interval_s = interval_s
        self._keys: list[str] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"heartbeat-{worker_id}")

    def start(self) -> "_HeartbeatPump":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=self._interval_s + 1.0)

    def set_keys(self, keys: list[str]) -> None:
        with self._lock:
            self._keys = list(keys)

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            with self._lock:
                keys = list(self._keys)
            try:
                self._queue.heartbeat(self._worker, keys=keys)
            except Exception as error:
                logger.warning("heartbeat failed (will retry): %r", error)


def run_worker(queue: WorkQueue, *, worker_id: Optional[str] = None,
               poll_s: float = 0.2, max_jobs: Optional[int] = None,
               idle_timeout_s: Optional[float] = None,
               heartbeat_s: Optional[float] = None) -> int:
    """Pull and execute jobs from ``queue``; returns how many completed.

    Runs until ``max_jobs`` jobs have completed or the queue has stayed
    empty for ``idle_timeout_s`` seconds (forever when both are None —
    the spawning suite owns the process and terminates it on close).
    Each round claims a batch (:meth:`~repro.experiments.queue.WorkQueue.
    claim_many`, never more than ``max_jobs`` still allows), runs it in
    order and reports its results together
    (:meth:`~repro.experiments.queue.WorkQueue.complete_many`).  A job
    that raises is recorded as a failure marker at once and the rest of
    the batch runs on; the submitter decides what a failure means.

    With ``heartbeat_s`` the worker pings the queue that often, naming
    the claims of the batch it holds (see the module docstring).
    """
    worker = worker_id or default_worker_id()
    pump = (_HeartbeatPump(queue, worker, heartbeat_s).start()
            if heartbeat_s else None)
    # The queue's artefact store becomes this process's ambient one for
    # the life of the loop, so jobs that consume trained agents resolve
    # them from (and publish them to) the fleet-shared database instead
    # of retraining per worker.
    store = queue.artifact_store()
    bound_store = store is not None
    if bound_store:
        from repro.agents.artifacts import set_artifact_store
        previous_store = set_artifact_store(store)
    executed = 0
    idle_since = time.monotonic()
    try:
        while max_jobs is None or executed < max_jobs:
            batch = queue.claim_many(
                worker, None if max_jobs is None else max_jobs - executed)
            if not batch:
                if idle_timeout_s is not None \
                        and time.monotonic() - idle_since >= idle_timeout_s:
                    break
                time.sleep(poll_s)
                continue
            held = [claimed.key for claimed in batch]
            if pump is not None:
                pump.set_keys(held)
            done = []
            try:
                for claimed in batch:
                    try:
                        started = time.perf_counter()
                        result = execute_job(claimed.job)
                        runtime_s = time.perf_counter() - started
                    except Exception as error:
                        # Recorded at once; the rest of the batch runs on.
                        queue.fail(claimed, error)
                        held.remove(claimed.key)
                        if pump is not None:
                            pump.set_keys(held)
                    else:
                        done.append((claimed, result, runtime_s))
                if done:
                    queue.complete_many(done)
                    executed += len(done)
            finally:
                if pump is not None:
                    pump.set_keys([])
            idle_since = time.monotonic()
    finally:
        if pump is not None:
            pump.stop()
        if bound_store:
            set_artifact_store(previous_store)
    return executed


def spawn_worker(queue_root: os.PathLike | str | None = None, *,
                 addr: Optional[str] = None, worker_id: str,
                 poll_s: float = 0.05,
                 idle_timeout_s: Optional[float] = None,
                 heartbeat_s: Optional[float] = None,
                 log_dir: os.PathLike | str | None = None
                 ) -> subprocess.Popen:
    """Start ``python -m repro.experiments worker`` as a subprocess.

    Give it a ``queue_root`` (directory transport) or an ``addr``
    (socket transport, ``host:port``) — exactly one.  The child inherits
    the current environment with this checkout's ``src`` prepended to
    ``PYTHONPATH`` (tests and suites don't export it), and its output
    goes to ``<log_dir>/<worker_id>.log`` — defaulting to the queue's
    ``workers/`` directory, or a temp directory for socket workers.
    """
    if (queue_root is None) == (addr is None):
        raise ValueError("spawn_worker needs exactly one of queue_root/addr")
    import repro

    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src_root) + (os.pathsep + existing
                                         if existing else "")
    command = [sys.executable, "-m", "repro.experiments", "worker",
               "--worker-id", worker_id, "--poll", str(poll_s)]
    if queue_root is not None:
        command += ["--queue", str(queue_root)]
    else:
        command += ["--addr", str(addr)]
    if idle_timeout_s is not None:
        command += ["--idle-timeout", str(idle_timeout_s)]
    if heartbeat_s is not None:
        command += ["--heartbeat", str(heartbeat_s)]
    if log_dir is None:
        log_dir = (Path(queue_root) / "workers" if queue_root is not None
                   else Path(tempfile.gettempdir()) / "pictor-workers")
    log_path = Path(log_dir) / f"{worker_id}.log"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with log_path.open("ab") as log:
        return subprocess.Popen(command, env=env, stdout=log, stderr=log)
