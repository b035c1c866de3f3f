"""A content-addressed work queue: the distributed backend's transport.

The queue hands :class:`~repro.experiments.jobs.ExperimentJob` values
(frozen, picklable, content-hashed) from one submitter to any number of
workers, possibly on other machines.  :class:`WorkQueue` is the small
transport-agnostic interface; :class:`DirectoryQueue` is the base
implementation — a plain directory on a filesystem every participant
can see — and :class:`~repro.experiments.socket_queue.SocketQueue`
reaches the same directory over TCP through a
:class:`~repro.experiments.server.QueueServer`, inheriting every
semantic below.

The directory protocol::

    <queue>/
      pending/   00000003-<key>.job            submitted, unclaimed
      claimed/   00000003-<key>.job@<worker>   claimed by one worker
      results/   results.sqlite                provenance-stamped ResultStore
      failed/    <key>.json                    error + traceback markers
      workers/   <worker>.log                  spawned-worker logs

* **Submission** writes the pickled job atomically (temp file +
  ``os.replace``) under a monotonically increasing priority prefix, so
  the lexicographic order of ``pending/`` *is* the submission order —
  the executor submits largest-estimated-cost first and workers drain in
  exactly that order.  Submitting a key that is already pending,
  claimed, or completed is a no-op (idempotent), except that a
  completed key is announced on the completion feed again (below), so
  a submitter waiting on it learns it is done.  Submitting a key with
  a failure marker on file is a retry: the marker is removed and the
  job enqueued again, so an earlier failure never fails a resubmission
  that has not run.  Both outcomes are checked before the pending and
  claimed scan, because a worker records an outcome before it removes
  its claim file.
* **Claiming** is one ``os.rename`` from ``pending/`` into ``claimed/``
  — atomic on POSIX, so exactly one of any number of racing workers
  wins; losers see ``FileNotFoundError`` and move to the next file.
* **Completion** writes the result through the SQLite
  :class:`~repro.experiments.store.ResultStore` (the same
  provenance-stamped rows the in-process backends write; a rollback
  journal in ``PERSIST`` mode + a busy timeout coordinate concurrent
  workers, including workers on other machines — with the usual SQLite
  caveat that the shared filesystem's advisory locking must work) and
  removes the claim.  :meth:`DirectoryQueue.record_results` and
  :meth:`DirectoryQueue.record_failure` are the only writers of the two
  outcomes; local workers and the queue server both call them.  A batch
  of results (a socket worker's whole claim batch) commits as one
  transaction and releases its claims with one scan of ``claimed/``.
* **The completion feed** is a ``completions`` table in the same
  database: an ``AUTOINCREMENT`` sequence with one row per result row
  written (appended by a trigger on ``results``, in the writing
  transaction, whoever the writer is) and one per failure marker
  recorded.  SQLite commits one writer at a time, so sequence order is
  commit order and a reader holding a cursor never skips a row;
  ``AUTOINCREMENT`` never reuses a number, even after
  :meth:`~WorkQueue.invalidate` deletes a result row (a plain
  ``rowid`` would).  :meth:`~WorkQueue.completed_since` returns the
  keys sequenced after a cursor, so a submitter fetches exactly the
  entries that have finished instead of asking after every key.  The
  feed lives in the database, so it survives server restarts, and it
  sees results that directory workers commit straight into the file.
* **Crash recovery**: a dead worker leaves its claim file behind.
  :meth:`requeue_stale` renames claims older than a lease back into
  ``pending/`` (a successful claim refreshes its mtime, starting the
  lease); :meth:`requeue_worker` requeues a specific worker's claims
  immediately when the submitter *knows* it died (it spawned the
  process).  Delivery is therefore **at least once** — a worker that
  merely stalled past its lease may complete a job a second worker
  re-ran — which is safe because :func:`execute_job` is deterministic:
  both completions write byte-identical cache entries.
"""

from __future__ import annotations

import abc
import json
import os
import pickle
import re
import socket
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.jobs import ExperimentJob
from repro.experiments.store import ResultStore, atomic_write_bytes, build_entry

__all__ = ["ClaimedJob", "DirectoryQueue", "QueueCounts", "WorkQueue",
           "default_worker_id", "format_error"]

#: Zero-padded width of the submission-priority filename prefix.
_PRIORITY_WIDTH = 8

#: How often a waiting completion-feed reader (:meth:`DirectoryQueue.
#: completed_since`, the queue server's long-poll) re-reads the feed;
#: other processes commit to the database without a signal.
FEED_POLL_S = 0.02

#: The completion feed (see the module docstring).  ``outcome`` is
#: ``"result"`` or ``"failure"``.
_FEED_SQL = """
CREATE TABLE IF NOT EXISTS completions (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    key     TEXT    NOT NULL,
    outcome TEXT    NOT NULL
);
CREATE TRIGGER IF NOT EXISTS completions_on_result AFTER INSERT ON results
BEGIN
    INSERT INTO completions (key, outcome) VALUES (new.key, 'result');
END;
"""

_SAFE_ID = re.compile(r"[^A-Za-z0-9._-]")


def default_worker_id() -> str:
    """A host-unique worker identity: ``<hostname>-<pid>``."""
    return _SAFE_ID.sub("_", f"{socket.gethostname()}-{os.getpid()}")


def format_error(error: BaseException) -> tuple[str, str]:
    """``(repr, traceback text)`` of ``error``: the form a failure is
    recorded in, and crosses the wire in."""
    return repr(error), "".join(traceback.format_exception(error))


@dataclass(frozen=True)
class ClaimedJob:
    """One job a worker holds exclusively until completed/failed/requeued.

    ``path`` is the claim file for directory-transport claims; socket
    claims have no local file (the server holds it) and carry None.
    """

    key: str
    job: ExperimentJob
    worker_id: str
    path: Optional[Path] = None


@dataclass(frozen=True)
class QueueCounts:
    pending: int = 0
    claimed: int = 0
    completed: int = 0
    failed: int = 0


class WorkQueue(abc.ABC):
    """The transport-agnostic queue interface the executor programs against."""

    @abc.abstractmethod
    def submit(self, job: ExperimentJob) -> str:
        """Enqueue ``job`` (idempotent per content hash); returns its key."""

    def submit_many(self, jobs: Sequence[ExperimentJob]) -> list[str]:
        """Enqueue ``jobs`` in order; returns their keys.

        Semantically ``[self.submit(job) for job in jobs]``; transports
        override it when a batch is materially cheaper (one duplicate
        scan for the directory protocol, one frame for the socket one).
        """
        return [self.submit(job) for job in jobs]

    @abc.abstractmethod
    def claim(self, worker_id: Optional[str] = None) -> Optional[ClaimedJob]:
        """Exclusively claim the highest-priority pending job, or None."""

    def claim_many(self, worker_id: Optional[str] = None,
                   limit: Optional[int] = None) -> list[ClaimedJob]:
        """Exclusively claim a batch of pending jobs (empty: none pending).

        The transport sizes the batch, never above ``limit``; this base
        version claims one job, which is every batch on the directory
        transport.  The queue server sizes socket batches from its cost
        model (see :mod:`repro.experiments.server`).
        """
        claimed = self.claim(worker_id)
        return [] if claimed is None else [claimed]

    def complete_many(self, completions: Sequence[
            tuple[ClaimedJob, object, Optional[float]]]) -> None:
        """:meth:`complete` every ``(claimed, result, runtime_s)``.

        Transports override it to report a whole batch at once (one
        frame and one result transaction on the socket transport).
        """
        for claimed, result, runtime_s in completions:
            self.complete(claimed, result, runtime_s=runtime_s)

    def heartbeat(self, worker_id: str,
                  keys: Optional[Sequence[str]] = None) -> list[str]:
        """Signal that ``worker_id`` is alive and working on ``keys``.

        Refreshes the lease of the listed claims (``None`` = every claim
        the worker holds) so an in-flight job outlives ``lease_s`` as
        long as its worker keeps beating; returns the refreshed keys.
        Transports without liveness tracking may treat it as a no-op.
        """
        return []

    @abc.abstractmethod
    def complete(self, claimed: ClaimedJob, result,
                 runtime_s: Optional[float] = None) -> None:
        """Store the provenance-stamped result and release the claim."""

    @abc.abstractmethod
    def fail(self, claimed: ClaimedJob, error: BaseException) -> None:
        """Record a failure marker for the job and release the claim."""

    @abc.abstractmethod
    def completed_since(self, cursor: Optional[int], timeout_s: float = 0.0
                        ) -> tuple[int, list[tuple[str, str]]]:
        """The completion feed: ``(cursor, [(key, outcome), ...])``.

        Lists, in sequence order, every key that completed
        (``"result"``) or failed (``"failure"``) after ``cursor``, and
        returns the cursor to pass next.  With none yet, waits up to
        ``timeout_s`` for the first.  ``cursor=None`` returns the
        current head and no keys, at once: take it *before* submitting,
        and every submitted key appears on the feed after it (see the
        module docstring).
        """

    @abc.abstractmethod
    def result_entry(self, key: str) -> Optional[dict]:
        """The completed job's full cache entry, or None while outstanding."""

    @abc.abstractmethod
    def failure(self, key: str) -> Optional[dict]:
        """The failure marker recorded for ``key``, or None."""

    @abc.abstractmethod
    def invalidate(self, key: str) -> None:
        """Drop a completed result (e.g. one that failed validation)."""

    @abc.abstractmethod
    def requeue_stale(self, lease_s: float) -> list[str]:
        """Requeue claims older than ``lease_s`` seconds; returns their keys."""

    @abc.abstractmethod
    def requeue_worker(self, worker_id: str) -> list[str]:
        """Requeue every claim held by ``worker_id``; returns the keys."""

    @abc.abstractmethod
    def counts(self) -> QueueCounts:
        """How many jobs sit in each lifecycle state."""

    def artifact_store(self):
        """The store workers should bind for trained-agent artefacts
        (see :mod:`repro.agents.artifacts`), or None when this transport
        has no shared artefact storage — workers then fall back to
        deterministic on-demand training."""
        return None


class DirectoryQueue(WorkQueue):
    """The shared-filesystem queue (see the module docstring protocol)."""

    def __init__(self, root: os.PathLike | str):
        self.root = Path(root)
        self.pending_dir = self.root / "pending"
        self.claimed_dir = self.root / "claimed"
        self.failed_dir = self.root / "failed"
        self.worker_log_dir = self.root / "workers"
        for directory in (self.pending_dir, self.claimed_dir,
                          self.failed_dir, self.worker_log_dir):
            directory.mkdir(parents=True, exist_ok=True)
        #: Completed results: the shared SQLite result database, in the
        #: same provenance-stamped rows the in-process backends write.
        #: Rollback-journal mode (wal=False): queue participants may sit
        #: on different machines, and WAL's shared-memory coordination
        #: does not span hosts.
        self.results = ResultStore(self.root / "results", wal=False)
        self.results.connection().executescript(_FEED_SQL)
        self._sequence = self._next_sequence()
        # Lease aging state for requeue_stale(): claim-file name ->
        # (st_mtime_ns, base) where ``base`` is the _mono() instant the
        # claim was last known fresh.  Ages are measured on the
        # monotonic clock so a wall-clock jump (NTP step, DST, manual
        # reset) can neither expire a healthy lease nor immortalize a
        # dead one; the wall clock is consulted only once per claim, on
        # first sighting, to credit age accrued before this sweeper
        # started watching.  Patchable clocks for tests.
        self._wall = time.time
        self._mono = time.monotonic
        self._lease_marks: dict[str, tuple[int, float]] = {}

    # -- filename helpers -------------------------------------------------------------
    @staticmethod
    def _key_of(name: str) -> str:
        stem = name.split("@", 1)[0]             # drop any @worker suffix
        stem = stem.split("-", 1)[1]             # drop the priority prefix
        return stem[: -len(".job")]

    def _next_sequence(self) -> int:
        highest = -1
        for directory in (self.pending_dir, self.claimed_dir):
            for path in directory.iterdir():
                prefix = path.name.split("-", 1)[0]
                if prefix.isdigit():
                    highest = max(highest, int(prefix))
        return highest + 1

    def _queued_keys(self) -> set[str]:
        keys = set()
        for directory in (self.pending_dir, self.claimed_dir):
            for path in directory.iterdir():
                if ".job" in path.name:
                    keys.add(self._key_of(path.name))
        return keys

    # -- submitter side ---------------------------------------------------------------
    def submit_many(self, jobs: Sequence[ExperimentJob]) -> list[str]:
        """Batch :meth:`submit`: one duplicate scan and at most one feed
        transaction for the whole batch."""
        queued = self._queued_keys()
        completed: list[str] = []
        keys = [self._submit(job, queued, completed) for job in jobs]
        self._append_feed(completed, "result")
        return keys

    def submit(self, job: ExperimentJob) -> str:
        return self.submit_many([job])[0]

    def _submit(self, job: ExperimentJob, queued: set[str],
                completed: list[str]) -> str:
        # Outcomes are checked before the queued scan: a worker records
        # an outcome before it drops the claim, so a key whose claim
        # ``queued`` still lists may already be done, its feed row before
        # the submitter's cursor.  A result is announced again; a failure
        # is retried even while its claim file lingers.
        key = job.key()
        if self.result_entry(key) is not None:
            completed.append(key)
            return key
        try:
            # A resubmission is a retry: it supersedes an earlier failure.
            (self.failed_dir / f"{key}.json").unlink()
        except FileNotFoundError:
            if key in queued:
                return key
        queued.add(key)
        name = f"{self._sequence:0{_PRIORITY_WIDTH}d}-{key}.job"
        self._sequence += 1
        atomic_write_bytes(self.root, self.pending_dir / name,
                           pickle.dumps(job,
                                        protocol=pickle.HIGHEST_PROTOCOL))
        return key

    def completed_since(self, cursor: Optional[int], timeout_s: float = 0.0
                        ) -> tuple[int, list[tuple[str, str]]]:
        deadline = time.monotonic() + timeout_s
        while True:
            head, done = self._read_feed(cursor)
            remaining = deadline - time.monotonic()
            if done or cursor is None or remaining <= 0:
                return head, done
            time.sleep(min(FEED_POLL_S, remaining))

    def _read_feed(self, cursor: Optional[int]
                   ) -> tuple[int, list[tuple[str, str]]]:
        conn = self.results.connection()
        if cursor is None:
            head = conn.execute(
                "SELECT COALESCE(MAX(seq), 0) FROM completions").fetchone()
            return head[0], []
        rows = conn.execute(
            "SELECT seq, key, outcome FROM completions WHERE seq > ? "
            "ORDER BY seq", (cursor,)).fetchall()
        if not rows:
            return cursor, []
        return rows[-1][0], [(key, outcome) for _, key, outcome in rows]

    def _append_feed(self, keys: Sequence[str], outcome: str) -> None:
        if not keys:
            return
        conn = self.results.connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(
                "INSERT INTO completions (key, outcome) VALUES (?, ?)",
                [(key, outcome) for key in keys])
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def result_entry(self, key: str) -> Optional[dict]:
        return self.results.get_entry(key)

    def artifact_store(self):
        """Artefacts share the queue's result database, so every worker
        on the shared filesystem resolves the same trained agents."""
        return self.results

    def invalidate(self, key: str) -> None:
        self.results.invalidate(key)

    def failure(self, key: str) -> Optional[dict]:
        path = self.failed_dir / f"{key}.json"
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return {"key": key, "error": "unreadable failure marker"}

    def requeue_stale(self, lease_s: float) -> list[str]:
        wall_now = self._wall()
        mono_now = self._mono()
        marks = self._lease_marks
        seen: set[str] = set()
        requeued = []
        for path in sorted(self.claimed_dir.iterdir()):
            name = path.name
            if "@" not in name:
                continue
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue                         # completed under our feet
            seen.add(name)
            mark = marks.get(name)
            if mark is None or stat.st_mtime_ns < mark[0]:
                # First sighting (or the claim file was replaced since):
                # trust the wall clock once for age accrued before we
                # started watching, clamping future stamps to zero age.
                base = mono_now - max(wall_now - stat.st_mtime, 0.0)
            elif stat.st_mtime_ns > mark[0]:
                base = mono_now                  # witnessed a heartbeat
            else:
                base = mark[1]                   # unchanged: keep aging
            marks[name] = (stat.st_mtime_ns, base)
            if mono_now - base >= lease_s:
                if self._requeue(path):
                    requeued.append(self._key_of(name))
                    marks.pop(name, None)
        # Forget claims that vanished (completed or requeued elsewhere);
        # a recycled name must re-enter through the first-sighting path.
        for name in list(marks):
            if name not in seen:
                del marks[name]
        return requeued

    def requeue_worker(self, worker_id: str) -> list[str]:
        suffix = f"@{_SAFE_ID.sub('_', worker_id)}"
        requeued = []
        for path in sorted(self.claimed_dir.iterdir()):
            if path.name.endswith(suffix) and self._requeue(path):
                requeued.append(self._key_of(path.name))
        return requeued

    def _requeue(self, claimed_path: Path) -> bool:
        pending_name = claimed_path.name.split("@", 1)[0]
        try:
            os.rename(claimed_path, self.pending_dir / pending_name)
        except FileNotFoundError:
            return False                         # raced with completion
        return True

    def counts(self) -> QueueCounts:
        return QueueCounts(
            pending=sum(1 for p in self.pending_dir.iterdir()
                        if p.name.endswith(".job")),
            claimed=sum(1 for p in self.claimed_dir.iterdir()
                        if "@" in p.name),
            completed=len(self.results),
            failed=sum(1 for p in self.failed_dir.iterdir()
                       if p.name.endswith(".json")),
        )

    def pending_files(self) -> list[tuple[str, Path]]:
        """``(key, path)`` of every pending job, in priority order.

        The paths feed :meth:`claim_file` — the queue server scans once
        and claims by file instead of re-scanning per claim.
        """
        return [(self._key_of(path.name), path)
                for path in sorted(self.pending_dir.iterdir())
                if path.name.endswith(".job")]

    def pending_keys(self) -> list[str]:
        """Every pending job key, in priority (i.e. submission) order."""
        return [key for key, _ in self.pending_files()]

    def claimed_workers(self) -> set[str]:
        """The worker ids currently holding claims (from the filenames).

        A restarted coordinator (the queue server) adopts these into its
        liveness registry: a worker that never heartbeats again has its
        claims requeued after the heartbeat timeout instead of the full
        lease.
        """
        return {path.name.split("@", 1)[1]
                for path in self.claimed_dir.iterdir() if "@" in path.name}

    # -- worker side ------------------------------------------------------------------
    def heartbeat(self, worker_id: str,
                  keys: Optional[Sequence[str]] = None) -> list[str]:
        """Refresh the lease clock (claim-file mtime) of a worker's claims.

        With ``keys``, only the listed claims are refreshed — a claim
        the worker does not acknowledge working on (e.g. one orphaned by
        a retried CLAIM whose first response was lost) keeps aging and
        is recovered by the ordinary lease expiry.
        """
        worker = _SAFE_ID.sub("_", worker_id) if worker_id \
            else default_worker_id()
        suffix = f"@{worker}"
        wanted = None if keys is None else set(keys)
        refreshed = []
        for path in self.claimed_dir.iterdir():
            if not path.name.endswith(suffix):
                continue
            key = self._key_of(path.name)
            if wanted is not None and key not in wanted:
                continue
            try:
                os.utime(path)
            except FileNotFoundError:
                continue                         # completed under our feet
            refreshed.append(key)
        return refreshed

    def release_claims(self, keys: Sequence[str],
                       worker_id: str) -> list[str]:
        """Drop the claims ``worker_id`` holds on ``keys`` with one scan
        of ``claimed/`` (idempotent); returns the keys released.

        The last step of every outcome: once it is recorded, the claim
        file — if a requeue has not already taken it — is removed.  (A
        claim requeued past its lease may even have been completed by
        another worker — byte-identical by determinism.)
        """
        worker = _SAFE_ID.sub("_", worker_id) if worker_id \
            else default_worker_id()
        suffix = f"@{worker}"
        wanted = set(keys)
        released = []
        for path in self.claimed_dir.iterdir():
            if path.name.endswith(suffix):
                key = self._key_of(path.name)
                if key in wanted:
                    path.unlink(missing_ok=True)
                    released.append(key)
        return released

    def record_results(self, worker_id: str, completions: Sequence[
            tuple[str, ExperimentJob, object, Optional[float]]],
                       claim_paths: Optional[Sequence[Path]] = None
                       ) -> None:
        """Store a batch of results and release their claims, from the
        wire form of a completion: ``(key, job, result, runtime_s)``
        each.  The local :meth:`complete` (a batch of one) and the queue
        server both land here.  Every row, and the feed row its insert
        trigger appends, commits in one transaction; the claims are
        released after it.

        ``claim_paths`` are the claim files when the caller holds them
        (a local claim); without them the claims are found by key and
        worker in one scan (:meth:`release_claims`)."""
        self.results.put_entries([
            build_entry(job, result, runtime_s=runtime_s)
            for _, job, result, runtime_s in completions])
        self._release([key for key, *_ in completions], worker_id,
                      claim_paths)

    def record_failure(self, key: str, worker_id: str, error_repr: str,
                       traceback_text: str = "",
                       claim_path: Optional[Path] = None) -> None:
        """Write a failure marker, announce it on the completion feed
        and release the claim, from already-formatted error text (the
        form a failure crosses the wire in).  ``claim_path`` is the
        claim file, as for :meth:`record_results`."""
        marker = {
            "key": key,
            "worker": worker_id,
            "error": error_repr,
            "traceback": traceback_text,
        }
        atomic_write_bytes(self.root, self.failed_dir / f"{key}.json",
                           json.dumps(marker, indent=2).encode("utf-8"))
        self._append_feed([key], "failure")
        self._release([key], worker_id,
                      None if claim_path is None else [claim_path])

    def _release(self, keys: Sequence[str], worker_id: str,
                 claim_paths: Optional[Sequence[Path]]) -> None:
        if claim_paths is None:
            self.release_claims(keys, worker_id)
            return
        for path in claim_paths:
            path.unlink(missing_ok=True)

    def claim(self, worker_id: Optional[str] = None,
              key: Optional[str] = None) -> Optional[ClaimedJob]:
        """Claim the highest-priority pending job — or, with ``key``,
        exactly that pending job (None when it is no longer pending)."""
        for pending_key, path in self.pending_files():
            if key is not None and pending_key != key:
                continue
            claimed = self.claim_file(path, worker_id)
            if claimed is not None:
                return claimed
            # Another worker won the race (or the file was corrupt);
            # with a specific key there is nothing else to try.
            if key is not None:
                return None
        return None

    def claim_file(self, path: Path,
                   worker_id: Optional[str] = None) -> Optional[ClaimedJob]:
        """Atomically claim one specific pending file, or None.

        None means the file is gone (another claimant won the rename
        race) or unreadable (a failure marker was recorded and the file
        dropped) — either way the caller just moves to its next
        candidate.
        """
        worker = _SAFE_ID.sub("_", worker_id) if worker_id \
            else default_worker_id()
        target = self.claimed_dir / f"{path.name}@{worker}"
        try:
            # The lease clock is the claim file's mtime, and rename
            # preserves mtime — so refresh it *before* the rename.
            # Refreshing after would leave a window where a job that
            # sat pending longer than the lease looks instantly
            # stale and requeue_stale snatches the claim back.
            os.utime(path)
            os.rename(path, target)
        except FileNotFoundError:
            return None                          # another worker won the race
        key = self._key_of(path.name)
        try:
            with target.open("rb") as handle:
                job = pickle.load(handle)
        except Exception as error:
            self.record_failure(key, worker, *format_error(error),
                                claim_path=target)
            return None
        return ClaimedJob(key=key, job=job, worker_id=worker, path=target)

    def complete(self, claimed: ClaimedJob, result,
                 runtime_s: Optional[float] = None) -> None:
        self.record_results(
            claimed.worker_id, [(claimed.key, claimed.job, result, runtime_s)],
            claim_paths=None if claimed.path is None else [claimed.path])

    def fail(self, claimed: ClaimedJob, error: BaseException) -> None:
        self.record_failure(claimed.key, claimed.worker_id,
                            *format_error(error), claim_path=claimed.path)
