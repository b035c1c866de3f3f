"""Experiment execution: interchangeable serial / parallel / distributed backends.

:class:`ExperimentSuite` takes a list of :class:`ExperimentJob` values
and returns their results in the same order.  Three layers cooperate:

* **deduplication** — identical jobs in one submission execute once
  (several figures slice the same testbed runs);
* **caching** — with a ``cache_dir``, results are stored in the SQLite
  result database (:class:`~repro.experiments.store.ResultStore`, at
  ``<cache_dir>/results.sqlite``) keyed by the job's content hash, so
  re-running a figure (or another figure sharing its runs) replays
  instantly and bit-identically — and the accumulated rows are
  queryable/diffable with ``python -m repro.experiments results``;
* **execution backend** — ``serial`` runs jobs in-process; ``parallel``
  fans them out over a :class:`concurrent.futures.ProcessPoolExecutor`;
  ``distributed`` submits them to a shared-filesystem work queue
  (:class:`~repro.experiments.queue.DirectoryQueue`) drained by
  standalone worker processes — spawned locally by the suite, or
  started by hand on any machine that can see the queue directory with
  ``python -m repro.experiments worker --queue DIR``; ``socket``
  submits to a :class:`~repro.experiments.server.QueueServer` over TCP
  (:class:`~repro.experiments.socket_queue.SocketQueue`) — an external
  server named by ``queue_addr``, or one the suite starts in-process —
  drained by heartbeating workers anywhere the server is reachable
  (``python -m repro.experiments worker --addr HOST:PORT``).

Both queue backends share one drain loop.  It takes the queue's
completion-feed cursor, submits, and then waits on
:meth:`~repro.experiments.queue.WorkQueue.completed_since` (a
``COMPLETED_SINCE`` long-poll on the socket backend, whose replies
carry the finished entries), reading the entries of exactly the keys
that finished — a drain costs about one request per job, not one per
outstanding key per pass.  Between waits
it rejects and resubmits tampered entries, requeues the claims of
spawned workers that died, polices leases on the directory backend
(the queue server runs its own sweep), and enforces the deadline.

Whatever the backend, jobs are submitted **largest-estimated-cost
first** (:func:`~repro.experiments.cost.order_by_cost`, calibrated from
the runtimes stamped into cache entries), which bounds the idle tail of
a pool without affecting any result.  Because
:func:`repro.experiments.jobs.execute_job` is deterministic, the choice
of backend (or a cache replay) never changes a result — only how fast
it arrives.
"""

from __future__ import annotations

import atexit
import logging
import os
import shutil
import subprocess
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.cost import CostCalibration, CostModel, order_by_cost
from repro.experiments.jobs import ExperimentJob, execute_job
# Re-exported for compatibility: these lived here before the SQLite
# result store split out; ResultCache is now a thin shim over
# ResultStore (see repro.experiments.store).
from repro.experiments.store import (
    ResultCache,
    ResultStore,
    atomic_write_bytes,
    current_git_rev,
)

__all__ = ["BACKENDS", "ExperimentSuite", "ResultCache", "ResultStore",
           "SuiteStats", "atomic_write_bytes", "current_git_rev",
           "default_suite", "run_jobs"]

logger = logging.getLogger(__name__)

#: The execution backends a suite can run jobs on.
BACKENDS = ("serial", "parallel", "distributed", "socket")

#: Longest single wait on the completion feed: between waits the drain
#: reaps dead workers, polices leases and checks its deadline.
_FEED_WAIT_S = 1.0


@dataclass
class SuiteStats:
    """What happened during :meth:`ExperimentSuite.run` calls."""

    submitted: int = 0
    executed: int = 0
    deduplicated: int = 0
    cache_hits: int = 0

    def merged_with(self, other: "SuiteStats") -> "SuiteStats":
        return SuiteStats(
            submitted=self.submitted + other.submitted,
            executed=self.executed + other.executed,
            deduplicated=self.deduplicated + other.deduplicated,
            cache_hits=self.cache_hits + other.cache_hits,
        )


def _timed_execute(job: ExperimentJob) -> tuple:
    """(result, wall seconds) for ``job`` — module-level for pool pickling."""
    started = time.perf_counter()
    result = execute_job(job)
    return result, time.perf_counter() - started


def _pool_initializer(cache_dir) -> None:
    """Bind the suite's result store as each pool worker's ambient
    artifact store (module-level so spawn-based pools can pickle it).

    Jobs that consume trained-agent artefacts then resolve them from the
    shared database instead of retraining per worker process; without a
    cache the resolution path falls back to deterministic on-demand
    training, so results are identical either way.
    """
    if cache_dir is not None:
        from repro.agents.artifacts import set_artifact_store
        set_artifact_store(ResultStore(cache_dir))


def _split_waves(pending: list[ExperimentJob]) -> list[list[ExperimentJob]]:
    """Dependency waves for one batch: ``train`` jobs, then the rest.

    Training jobs publish the content-addressed artefacts the
    measurement jobs in the same submission consume, so draining them
    first makes every dependent job a warm store hit on every backend
    (serial, pool, directory queue, socket).  Nothing is wrong if a
    measurement job runs cold — artefact resolution trains on demand,
    deterministically — the wave split just prevents that duplicated
    work.
    """
    train = [job for job in pending if job.kind == "train"]
    rest = [job for job in pending if job.kind != "train"]
    return [wave for wave in (train, rest) if wave]


@dataclass
class ExperimentSuite:
    """Runs experiment jobs through a pluggable execution backend.

    ``backend`` is normally inferred — ``distributed`` when a
    ``queue_dir`` is given, ``parallel`` when ``workers > 1``, else
    ``serial`` — but can be pinned explicitly (the CLI's ``--backend``).
    On the distributed backend ``workers`` is the number of local worker
    processes the suite spawns against the queue; with
    ``spawn_workers=False`` the suite only submits and waits, leaving
    execution to externally started workers (``python -m
    repro.experiments worker --queue DIR``, on this or any other machine
    sharing the queue directory).

    The socket backend works the same way over TCP: with ``queue_addr``
    the suite is a client of an external ``python -m repro.experiments
    serve`` process; without one it starts its own
    :class:`~repro.experiments.server.QueueServer` in-process (over
    ``queue_dir``, or a suite-owned temp directory) — handy for tests
    and for accepting extra external ``--addr`` workers into an
    otherwise local run.
    """

    workers: int = 1
    cache_dir: Optional[os.PathLike | str] = None
    backend: Optional[str] = None
    queue_dir: Optional[os.PathLike | str] = None
    #: ``host:port`` of an external queue server (implies ``socket``).
    queue_addr: Optional[str] = None
    spawn_workers: bool = True
    #: Claims older than this are requeued (crashed-worker recovery).
    #: Must exceed the longest single job runtime, or a slow job will be
    #: executed twice (harmless — results are deterministic — but wasteful).
    lease_s: float = 300.0
    #: How long the distributed backend waits for results before raising.
    timeout_s: Optional[float] = None
    stats: SuiteStats = field(default_factory=SuiteStats)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.backend is None:
            self.backend = ("socket" if self.queue_addr is not None
                            else "distributed" if self.queue_dir is not None
                            else "parallel" if self.workers > 1 else "serial")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"known: {BACKENDS}")
        if self.queue_addr is not None and self.backend != "socket":
            raise ValueError("queue_addr only applies to the socket "
                             f"backend, not {self.backend!r}")
        if self.queue_dir is not None \
                and self.backend not in ("distributed", "socket"):
            raise ValueError("queue_dir only applies to the distributed "
                             f"and socket backends, not {self.backend!r}")
        if self.queue_dir is not None and self.queue_addr is not None:
            raise ValueError("queue_dir and queue_addr are exclusive: an "
                             "external server owns its own queue directory")
        # The canonical result path of every backend: the SQLite result
        # store (a legacy pickle directory migrates itself on open).
        self._cache = ResultStore(self.cache_dir) if self.cache_dir else None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._queue = None
        self._server = None                      # suite-owned QueueServer
        self._owned_queue_dir: Optional[Path] = None
        self._worker_log_dir: Optional[Path] = None
        self._worker_procs: list[tuple[subprocess.Popen, str]] = []
        self._worker_seq = 0
        self._calibration: Optional[CostCalibration] = None
        # Results live for the suite's lifetime, so figures sharing runs
        # (10-13 share a sweep, 8-9 the characterization runs) execute
        # them once per suite even without an on-disk cache.  Callers
        # treat results as read-only; determinism makes sharing safe.
        self._memo: dict[ExperimentJob, object] = {}

    @property
    def store(self) -> Optional[ResultStore]:
        """The suite's result store (``None`` when uncached) — the seam
        fleet analytics reports through after a drain."""
        return self._cache

    # -- lifecycle --------------------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for proc, _ in self._worker_procs:
            proc.terminate()
        for proc, _ in self._worker_procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._worker_procs.clear()
        if self._queue is not None and hasattr(self._queue, "close"):
            self._queue.close()
        self._queue = None
        if self._server is not None:
            self._server.stop()
            self._server = None
        if self._owned_queue_dir is not None:
            shutil.rmtree(self._owned_queue_dir, ignore_errors=True)
            self._owned_queue_dir = None
        if self._worker_log_dir is not None:
            shutil.rmtree(self._worker_log_dir, ignore_errors=True)
            self._worker_log_dir = None

    def __enter__(self) -> "ExperimentSuite":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution --------------------------------------------------------------------
    def run(self, jobs: Sequence[ExperimentJob]) -> list:
        """Execute ``jobs`` and return their results, aligned with ``jobs``.

        Duplicate jobs execute once; cached jobs are replayed from disk;
        the rest run on the backend.  The result for a given job is
        bit-identical regardless of which path produced it.
        """
        jobs = list(jobs)
        self.stats.submitted += len(jobs)

        unique: dict[ExperimentJob, object] = {}
        for job in jobs:
            if job in unique:
                self.stats.deduplicated += 1
            else:
                unique[job] = None

        pending: list[ExperimentJob] = []
        for job in unique:
            cached = self._memo.get(job)
            if cached is None and self._cache is not None:
                cached = self._cache.get(job)
            if cached is not None:
                unique[job] = cached
                self._memo[job] = cached
                self.stats.cache_hits += 1
            else:
                pending.append(job)

        if pending:
            self.stats.executed += len(pending)
            # The suite's store doubles as the process-ambient artifact
            # store while its jobs run, so in-process execution (serial
            # backend, and the fused accuracy/inference paths) trains
            # each agent artefact at most once per database.
            bound = self._cache is not None
            if bound:
                from repro.agents.artifacts import set_artifact_store
                previous_store = set_artifact_store(self._cache)
            try:
                for wave in _split_waves(pending):
                    for job, (result, runtime_s) in zip(wave,
                                                        self._map(wave)):
                        unique[job] = result
                        self._memo[job] = result
                        if self._calibration is not None:
                            self._calibration.observe(job.kind,
                                                      job.cost_units(),
                                                      runtime_s)
                        if self._cache is not None:
                            self._cache.put(job, result, runtime_s=runtime_s)
            finally:
                if bound:
                    set_artifact_store(previous_store)

        return [unique[job] for job in jobs]

    def submission_order(self,
                         jobs: Sequence[ExperimentJob]) -> list[ExperimentJob]:
        """The order ``jobs`` would be handed to the backend: largest
        estimated cost first, under the current calibration."""
        return order_by_cost(jobs, self._cost_model())

    def _cost_model(self) -> CostModel:
        # The store scan (one SQL pass over the provenance columns, no
        # result payloads unpickled) happens once per suite; every batch
        # executed afterwards feeds the calibration in memory via run().
        if self._calibration is None:
            cache = self._cache
            if cache is None and self.backend == "distributed":
                cache = self._ensure_queue().results
            self._calibration = (CostCalibration.from_cache(cache)
                                 if cache is not None else CostCalibration())
        return self._calibration.model()

    def _map(self, jobs: list[ExperimentJob]) -> list[tuple]:
        """(result, runtime_s) per job, aligned with ``jobs``."""
        ordered = order_by_cost(jobs, self._cost_model())
        if self.backend in ("distributed", "socket"):
            by_job = self._run_distributed(ordered)
        elif self.backend == "parallel" and self.workers > 1 and len(jobs) > 1:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_pool_initializer,
                    initargs=(self.cache_dir,))
            futures = [(job, self._pool.submit(_timed_execute, job))
                       for job in ordered]
            by_job = {job: future.result() for job, future in futures}
        else:
            by_job = {job: _timed_execute(job) for job in ordered}
        return [by_job[job] for job in jobs]

    # -- the distributed/socket backends ----------------------------------------------
    def _ensure_queue(self):
        if self._queue is None:
            if self.backend == "socket":
                from repro.experiments.socket_queue import SocketQueue
                addr = self.queue_addr
                if addr is None:
                    # No external server: run one in-process over the
                    # queue_dir (or a suite-owned temp directory).  The
                    # suite's workers — and any external --addr worker —
                    # connect over TCP exactly as they would to a
                    # standalone `serve` process.
                    from repro.experiments.server import QueueServer
                    root = self.queue_dir
                    if root is None:
                        root = tempfile.mkdtemp(prefix="pictor-queue-")
                        self._owned_queue_dir = Path(root)
                    self._server = QueueServer(
                        Path(root), lease_s=self.lease_s).start()
                    addr = self._server.address
                self._worker_log_dir = Path(
                    tempfile.mkdtemp(prefix="pictor-socket-workers-"))
                self._queue = SocketQueue(addr)
            else:
                from repro.experiments.queue import DirectoryQueue
                root = self.queue_dir
                if root is None:
                    root = tempfile.mkdtemp(prefix="pictor-queue-")
                    self._owned_queue_dir = Path(root)
                self._queue = DirectoryQueue(root)
        return self._queue

    def _worker_logs(self, queue) -> Path:
        return (self._worker_log_dir if self._worker_log_dir is not None
                else queue.worker_log_dir)

    def _ensure_workers(self, queue) -> None:
        from repro.experiments.worker import spawn_worker
        if not self.spawn_workers:
            return
        alive = [(proc, wid) for proc, wid in self._worker_procs
                 if proc.poll() is None]
        self._worker_procs = alive
        while len(self._worker_procs) < self.workers:
            worker_id = f"suite-{os.getpid()}-w{self._worker_seq}"
            self._worker_seq += 1
            if self.backend == "socket":
                proc = spawn_worker(addr=self._queue.addr,
                                    worker_id=worker_id,
                                    heartbeat_s=2.0,
                                    log_dir=self._worker_log_dir)
            else:
                proc = spawn_worker(queue.root, worker_id=worker_id)
            self._worker_procs.append((proc, worker_id))

    def _reap_dead_workers(self, queue) -> None:
        """Requeue the claims of spawned workers that exited.

        External workers (``spawn_workers=False`` or other machines) are
        invisible here; their crashes are covered by the lease —
        :meth:`DirectoryQueue.requeue_stale` runs between feed waits.
        """
        alive = []
        for proc, worker_id in self._worker_procs:
            if proc.poll() is None:
                alive.append((proc, worker_id))
                continue
            requeued = queue.requeue_worker(worker_id)
            logger.warning(
                "spawned worker %s exited with code %s; requeued %d claimed "
                "job(s); log: %s", worker_id, proc.returncode, len(requeued),
                self._worker_logs(queue) / f"{worker_id}.log")
        if self.spawn_workers and not alive and self._worker_procs:
            raise RuntimeError(
                "all spawned distributed workers exited while jobs were "
                f"outstanding; see logs under {self._worker_logs(queue)}")
        self._worker_procs = alive

    def _run_distributed(self, ordered: list[ExperimentJob]) -> dict:
        queue = self._ensure_queue()
        if not self.spawn_workers:
            self._raise_recorded_failures(queue, ordered)
        # Every key submitted below appears on the feed after this cursor:
        # it completes or fails later, or submit re-announces its result.
        cursor, _ = queue.completed_since(None)
        outstanding = dict(zip(queue.submit_many(ordered), ordered))
        self._ensure_workers(queue)

        gathered: dict[ExperimentJob, tuple] = {}
        deadline = (None if self.timeout_s is None
                    else time.monotonic() + self.timeout_s)
        last_warning = time.monotonic()
        while outstanding:
            wait_s = _FEED_WAIT_S if deadline is None else max(
                0.0, min(_FEED_WAIT_S, deadline - time.monotonic()))
            cursor, done = queue.completed_since(cursor, wait_s)
            progressed = False
            for key, outcome in done:
                job = outstanding.get(key)
                if job is None:
                    continue                     # not ours, or gathered
                if outcome == "failure":
                    failure = queue.failure(key)
                    if failure is not None:
                        raise _job_failed(key, failure)
                    continue                     # superseded by a retry
                entry = queue.result_entry(key)
                if entry is None:
                    continue                     # invalidated since
                if entry.get("scenario_hash") != job.scenario.content_hash():
                    # Same contract as ResultStore.get: a tampered entry
                    # (here: pre-existing in a shared queue, which
                    # submit() announces instead of re-running) is
                    # rejected with a log line and re-executed.
                    store = getattr(queue, "results", None)
                    logger.warning(
                        "rejecting tampered cache entry %s: stamped "
                        "scenario hash %s does not match the job's "
                        "scenario %s (written at git rev %s); "
                        "recomputing",
                        store.locate(key) if store is not None else key,
                        entry.get("scenario_hash"),
                        job.scenario.content_hash(),
                        entry.get("git_rev", "unknown"))
                    queue.invalidate(key)
                    queue.submit(job)
                    continue
                gathered[outstanding.pop(key)] = (
                    entry.get("result"), entry.get("runtime_s"))
                progressed = True
            if not outstanding:
                break
            self._reap_dead_workers(queue)
            if self.backend == "distributed":
                # The socket backend's server runs its own sweep
                # (heartbeat-timeout requeues plus this same lease
                # backstop); only the directory transport needs the
                # submitter to police leases.
                queue.requeue_stale(self.lease_s)
            if progressed:
                continue
            if deadline is not None and time.monotonic() >= deadline:
                where = (queue.root if self.backend == "distributed"
                         else queue.addr)
                raise TimeoutError(
                    f"{self.backend} backend timed out after "
                    f"{self.timeout_s:g}s with {len(outstanding)} job(s) "
                    f"outstanding in {where}")
            if not self._worker_procs \
                    and time.monotonic() - last_warning > 30.0:
                # No spawned workers to watch (spawn_workers=False):
                # an external fleet may simply not be up yet, but
                # don't hang silently.
                last_warning = time.monotonic()
                start_hint = (f"--queue {queue.root}"
                              if self.backend == "distributed"
                              else f"--addr {queue.addr}")
                logger.warning(
                    "%s backend waiting on %d job(s) with no spawned "
                    "workers; start one with 'python -m "
                    "repro.experiments worker %s'",
                    self.backend, len(outstanding), start_hint)
        return gathered

    @staticmethod
    def _raise_recorded_failures(queue, jobs: list[ExperimentJob]) -> None:
        """Report a failure an external fleet already recorded for one of
        ``jobs``.

        Submitting a failed key retries it (the queue drops the marker),
        which is right when the suite runs workers of its own.  A suite
        that spawns none leaves retries to whoever runs the fleet, so it
        reports the recorded failure instead of queueing a job no worker
        of its own will run.  One COUNTS request when nothing failed.
        """
        if not queue.counts().failed:
            return
        for job in jobs:
            key = job.key()
            failure = queue.failure(key)
            if failure is not None:
                raise _job_failed(key, failure)


def _job_failed(key: str, failure: dict) -> RuntimeError:
    return RuntimeError(
        f"distributed job {key[:12]} failed on worker "
        f"{failure.get('worker', '?')}: {failure.get('error', '?')}\n"
        f"{failure.get('traceback', '')}")


def run_jobs(jobs: Sequence[ExperimentJob],
             suite: Optional[ExperimentSuite] = None) -> list:
    """Run ``jobs`` on ``suite``, or on the environment-default suite."""
    return (suite or default_suite()).run(jobs)


_DEFAULT_SUITES: dict[tuple, ExperimentSuite] = {}


@atexit.register
def _close_default_suites() -> None:
    # Memoized suites have no owning `with` block, so their spawned
    # distributed workers (and any suite-owned temp queue directory)
    # must be torn down at interpreter exit or they would linger.
    for suite in _DEFAULT_SUITES.values():
        suite.close()


def default_suite() -> ExperimentSuite:
    """The process-wide suite the figure generators fall back to.

    Configured through the environment so existing entry points (tests,
    benchmark harnesses, examples) gain parallelism and caching without
    signature changes:

    * ``PICTOR_WORKERS`` — worker-process count (default 1 = serial);
    * ``PICTOR_CACHE_DIR`` — result cache directory (default: none);
    * ``PICTOR_BACKEND`` — pin a backend (default: inferred);
    * ``PICTOR_QUEUE_DIR`` — work-queue directory (implies distributed);
    * ``PICTOR_QUEUE_ADDR`` — queue server ``host:port`` (implies socket).

    Suites are memoized per configuration so a process pool (or a fleet
    of spawned queue workers) is reused across calls rather than
    respawned.
    """
    workers = max(1, int(os.environ.get("PICTOR_WORKERS", "1") or "1"))
    cache_dir = os.environ.get("PICTOR_CACHE_DIR") or None
    backend = os.environ.get("PICTOR_BACKEND") or None
    queue_dir = os.environ.get("PICTOR_QUEUE_DIR") or None
    queue_addr = os.environ.get("PICTOR_QUEUE_ADDR") or None
    key = (workers, cache_dir, backend, queue_dir, queue_addr)
    suite = _DEFAULT_SUITES.get(key)
    if suite is None:
        suite = ExperimentSuite(workers=workers, cache_dir=cache_dir,
                                backend=backend, queue_dir=queue_dir,
                                queue_addr=queue_addr)
        _DEFAULT_SUITES[key] = suite
    return suite
