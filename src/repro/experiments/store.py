"""The SQLite result database: the canonical store of experiment results.

:class:`ResultStore` replaces the pickle-directory cache as the single
result path of every execution backend — serial and parallel suites
write their cache through it, distributed workers complete queue jobs
into it, and the cost model calibrates from it with one SQL scan instead
of unpickling a directory of payloads.  :class:`ResultCache` (the name
the rest of the codebase grew up with) is now a thin compatibility shim
over the store, and :class:`PickleResultCache` keeps the legacy
one-file-per-entry format alive for migration and for the equivalence
tests that prove a pickle replay and a store replay are bit-identical.

Each row carries the full provenance stamp the pickle cache introduced —
cache schema version, the scenario's dict and content hash, the job
kind and duration override, the git revision, and the ``runtime_s`` /
``cost_units`` calibration pair — **plus** the pickled entry itself, so
:meth:`ResultStore.get_entry` returns exactly the dict the pickle cache
did.  The provenance columns exist so the database is *queryable*: the
``python -m repro.experiments results`` CLI lists, shows, diffs and
exports rows by kind / scenario hash / git revision without touching a
single result payload.

Rows are keyed ``(key, git_rev)`` — the job's content hash plus the
revision that produced it — so one durable database accumulates results
across commits and ``results diff`` can compare two revs-of-record (or
two databases) metric by metric.  Replays always read the newest row
for a key; determinism makes any row equally valid, and the two
documented rejection paths ("rejecting stale cache entry", "rejecting
tampered cache entry") are checked on every read exactly as the pickle
cache checked them, with the same log lines.

Concurrency: by default the database opens in WAL mode with a generous
busy timeout, so any number of processes on one machine (a suite plus
its spawned workers, or several suites) write simultaneously — writers
queue on the WAL lock instead of failing, readers never block.  WAL's
cross-process coordination lives in a shared-memory file, which does
**not** span machines; stores meant to be written from several hosts
over a shared filesystem (the distributed queue's results database)
open with ``wal=False`` — the rollback journal, whose POSIX advisory
locks are the same primitive multi-host SQLite has always relied on.
That journal runs in ``PERSIST`` mode, a constant rather than an
option: ``DELETE`` mode creates, fsyncs and unlinks the journal file on
every commit, which costs tens of milliseconds per commit on an
ordinary disk and serialized the queue server behind its result
writes; ``PERSIST`` keeps the file and zeroes its header instead.  It
is the same rollback journal under the same locks, so connections that
still open the file in ``DELETE`` mode (an older checkout's workers)
share it safely — journal mode is a per-connection setting.
The usual SQLite caveat applies: a network filesystem with broken
advisory locking can corrupt any shared database; on such mounts, give
each worker machine its own queue.  Opening a store rooted at a
directory that still contains legacy ``*.pkl`` entries migrates them in
one shot (idempotently — re-runs skip rows that already exist), so
existing cache directories promote themselves.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import math
import os
import pickle
import re
import sqlite3
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.experiments.jobs import CACHE_SCHEMA_VERSION
from repro.scenarios.scenario import canonical_hash, hashed_content

if TYPE_CHECKING:
    from repro.experiments.jobs import ExperimentJob

__all__ = ["ArtifactGcReport", "BackfillReport", "DiffDelta", "DiffReport",
           "GcReport", "MigrationReport", "PROVENANCE_METRIC_COLUMNS",
           "PickleResultCache", "RESULT_DB_FILENAME", "ResultCache",
           "ResultStore", "ToleranceTable", "atomic_write_bytes",
           "current_git_rev", "diff_result_sets", "entry_metrics",
           "flatten_metrics", "migrate_pickle_dir", "numeric_metrics",
           "rekey_ignoring_fast_forward"]

logger = logging.getLogger(__name__)

#: The database file a store keeps inside its root directory.
RESULT_DB_FILENAME = "results.sqlite"

#: How long a writer waits on a locked database before giving up.  High
#: on purpose: distributed workers on a shared filesystem all funnel
#: through one database lock, and a queued write is always better than a
#: failed job.
BUSY_TIMEOUT_S = 30.0

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS results (
    key           TEXT    NOT NULL,
    git_rev       TEXT    NOT NULL,
    schema        INTEGER NOT NULL,
    kind          TEXT,
    duration      REAL,
    scenario_json TEXT    NOT NULL,
    scenario_hash TEXT    NOT NULL,
    runtime_s     REAL,
    cost_units    REAL,
    created_at    REAL    NOT NULL,
    entry         BLOB    NOT NULL,
    PRIMARY KEY (key, git_rev)
);
CREATE INDEX IF NOT EXISTS idx_results_scenario_hash
    ON results (scenario_hash);
CREATE INDEX IF NOT EXISTS idx_results_git_rev ON results (git_rev);
CREATE INDEX IF NOT EXISTS idx_results_kind ON results (kind);
CREATE TABLE IF NOT EXISTS metrics (
    key     TEXT NOT NULL,
    git_rev TEXT NOT NULL,
    name    TEXT NOT NULL,
    value   REAL NOT NULL,
    PRIMARY KEY (key, git_rev, name)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_metrics_name ON metrics (name);
CREATE TABLE IF NOT EXISTS artifacts (
    hash       TEXT    NOT NULL PRIMARY KEY,
    schema     INTEGER NOT NULL,
    kind       TEXT    NOT NULL,
    benchmark  TEXT,
    spec_json  TEXT    NOT NULL,
    git_rev    TEXT    NOT NULL,
    created_at REAL    NOT NULL,
    runtime_s  REAL,
    size_bytes INTEGER NOT NULL,
    payload    BLOB    NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_artifacts_benchmark
    ON artifacts (benchmark, created_at);
"""

#: Provenance columns :meth:`ResultStore.provenance_values` may serve as
#: per-key metric streams (the fleet report's ``@column`` selectors).
PROVENANCE_METRIC_COLUMNS = ("runtime_s", "cost_units", "duration")


def atomic_write_bytes(directory: Path, path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via temp file + rename, so readers
    (and racing writers — last one wins whole) never see a partial file.

    ``directory`` must be on the same filesystem as ``path`` (it is the
    temp file's home; ``os.replace`` must not cross devices).
    """
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@lru_cache(maxsize=1)
def current_git_rev() -> str:
    """The repository's HEAD revision, or "unknown" outside a checkout.

    Stamped into result rows (provenance only — never part of the cache
    key, or replays across commits would always miss).
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=Path(__file__).resolve().parent, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _validate_entry(entry, location) -> Optional[dict]:
    """The shared read-side provenance checks (see module docstring).

    Returns the entry when usable, None (after the documented log line)
    otherwise.  Both the store and the legacy pickle cache funnel every
    read through here, so the rejection contract cannot drift between
    them.
    """
    if not isinstance(entry, dict) or "schema" not in entry:
        logger.warning(
            "cache entry %s predates provenance stamping; recomputing",
            location)
        return None
    if entry["schema"] != CACHE_SCHEMA_VERSION:
        logger.warning(
            "rejecting stale cache entry %s: schema version %s != current "
            "%s (written at git rev %s); recomputing", location,
            entry["schema"], CACHE_SCHEMA_VERSION,
            entry.get("git_rev", "unknown"))
        return None
    return entry


def _check_scenario_hash(entry, job: "ExperimentJob", location) -> bool:
    """True when the entry's stamped scenario hash matches ``job``'s.

    A mismatch means the entry was tampered with (or filed under the
    wrong key) and is rejected with a log line, never replayed.
    """
    expected = job.scenario.content_hash()
    stamped = entry.get("scenario_hash")
    if stamped != expected:
        logger.warning(
            "rejecting tampered cache entry %s: stamped scenario hash "
            "%s does not match the job's scenario %s (written at git "
            "rev %s); recomputing", location, stamped, expected,
            entry.get("git_rev", "unknown"))
        return False
    return True


def build_entry(job: "ExperimentJob", result,
                runtime_s: Optional[float] = None) -> dict:
    """The provenance-stamped entry dict for a freshly executed job.

    One construction site for every writer (store, pickle cache, queue
    workers), so the entry layout — including dict key order, which the
    cross-backend equivalence tests compare byte-for-byte after
    pickling — cannot diverge between backends.
    """
    # One scenario dict per entry: the key and the scenario hash are
    # both derived from it (on the socket path this runs under the queue
    # server's lock for every job).
    scenario = job.scenario.to_dict()
    content = hashed_content(scenario)
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "key": job.key_for(content),
        "kind": job.kind,
        "duration": job.duration,
        "scenario": scenario,
        "scenario_hash": canonical_hash(content),
        # Explicit fidelity stamp: fast-forwarded results carry the flag
        # at the top level (not just inside the scenario dict), so no
        # tooling can mistake a temporally upscaled run for an exact one.
        "fast_forward": job.scenario.config.fast_forward.enabled,
        "git_rev": current_git_rev(),
        "runtime_s": runtime_s,
        "cost_units": job.cost_units(),
        "result": result,
    }


class ResultStore:
    """The SQLite-backed result database (see the module docstring).

    ``root`` may be a directory (the database lives at
    ``<root>/results.sqlite``, and any legacy ``*.pkl`` entries found in
    the directory are migrated on open) or a ``.sqlite`` / ``.db`` file
    path.  Instances are cheap; each thread of each process opens its
    own connection (re-opened transparently after a fork — SQLite
    connections are affine to both), and the journal mode + busy
    timeout make concurrent writers from other processes safe.
    ``wal=False`` selects the rollback journal (in ``PERSIST`` mode)
    instead of WAL — required when several *machines* write the
    database over a shared filesystem (see the module docstring).
    """

    def __init__(self, root: os.PathLike | str, wal: bool = True):
        self.wal = wal
        given = Path(root)
        explicit_db = given.suffix in (".sqlite", ".db")
        if explicit_db:
            self.root = given.parent
            self.db_path = given
        else:
            self.root = given
            self.db_path = given / RESULT_DB_FILENAME
        self.root.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        # Directory-form roots promote themselves: any legacy pickle
        # entries sitting in the directory migrate on open.  An explicit
        # database path opens the file and nothing else (the CLI's
        # ``results migrate`` uses this for accurate reporting).
        if not explicit_db:
            migrate_pickle_dir(self)

    # -- connection management --------------------------------------------------------
    def connection(self) -> sqlite3.Connection:
        """This thread's connection (fork-safe: children reconnect).

        Per-thread because SQLite connections must not cross threads
        (the queue server answers requests from one handler thread per
        client connection); per-process because they must not cross a
        fork either.
        """
        if getattr(self._local, "conn", None) is None \
                or self._local.conn_pid != os.getpid():
            conn = sqlite3.connect(self.db_path, timeout=BUSY_TIMEOUT_S,
                                   isolation_level=None)
            conn.execute(f"PRAGMA busy_timeout = {int(BUSY_TIMEOUT_S * 1000)}")
            if self.wal:
                try:
                    conn.execute("PRAGMA journal_mode = WAL")
                    conn.execute("PRAGMA synchronous = NORMAL")
                except sqlite3.OperationalError:
                    pass             # filesystems without WAL still work
            else:
                # Multi-host writers: the rollback journal's POSIX locks
                # are the only SQLite coordination that spans machines.
                # PERSIST keeps the journal file between commits instead
                # of creating, fsyncing and unlinking it every time.
                conn.execute("PRAGMA journal_mode = PERSIST")
            conn.executescript(_SCHEMA_SQL)
            self._local.conn = conn
            self._local.conn_pid = os.getpid()
        return self._local.conn

    def close(self) -> None:
        """Close *this thread's* connection (others close on GC)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and self._local.conn_pid == os.getpid():
            conn.close()
        self._local.conn = None
        self._local.conn_pid = None

    def locate(self, key: str) -> str:
        """A human-readable location for ``key``, used in log lines (the
        store's analogue of the pickle cache's per-entry file path)."""
        return f"{self.db_path}#{key}"

    # -- the ResultCache API ----------------------------------------------------------
    def get(self, job: "ExperimentJob"):
        """The stored result for ``job``, or None when absent/unusable.

        Beyond the schema check in :meth:`get_entry`, the entry's stamped
        scenario hash must match the requesting job's scenario — a
        mismatch means the row was tampered with (or filed under the
        wrong key) and is rejected with a log line, never replayed.
        """
        entry = self.get_entry(job.key())
        if entry is None:
            return None
        if not _check_scenario_hash(entry, job, self.locate(job.key())):
            return None
        return entry.get("result")

    def get_entry(self, key: str) -> Optional[dict]:
        """The full provenance-stamped entry for ``key``, or None.

        With rows from several revisions on file, the newest wins —
        execution is deterministic, so any current-schema row is equally
        valid; the provenance stamps say which commit wrote it.
        """
        row = self.connection().execute(
            "SELECT entry FROM results WHERE key = ? "
            "ORDER BY created_at DESC, rowid DESC LIMIT 1", (key,)).fetchone()
        if row is None:
            return None
        try:
            entry = pickle.loads(row[0])
        except Exception:
            logger.warning("cache entry %s is unreadable; recomputing",
                           self.locate(key))
            return None
        return _validate_entry(entry, self.locate(key))

    def entries(self) -> Iterator[dict]:
        """Iterate every readable current-schema entry, newest row per key."""
        keys = [row[0] for row in self.connection().execute(
            "SELECT DISTINCT key FROM results ORDER BY key")]
        for key in keys:
            entry = self.get_entry(key)
            if entry is not None:
                yield entry

    def put(self, job: "ExperimentJob", result,
            runtime_s: Optional[float] = None) -> None:
        """Store ``result`` with provenance in one transaction (WAL or
        rollback journal, per the store's mode), so readers and
        concurrent writers never see a partial row."""
        self.put_entry(build_entry(job, result, runtime_s=runtime_s))

    def put_entry(self, entry: dict, replace: bool = True) -> bool:
        """Insert a pre-built entry dict (the writer behind :meth:`put`,
        also the migration path): :meth:`put_entries` with one entry.
        Returns whether a row was written."""
        return self.put_entries([entry], replace=replace)[0]

    def put_entries(self, entries: Sequence[dict],
                    replace: bool = True) -> list[bool]:
        """Insert pre-built entry dicts, all in one transaction; returns,
        per entry, whether a row was written.  With ``replace=False`` an
        existing ``(key, git_rev)`` row is left untouched (idempotent
        re-import).

        Alongside each result row, every numeric leaf of the result
        payload is flattened (:func:`numeric_metrics` — the same dotted
        names ``results diff`` compares) into the indexed ``metrics``
        table in the same transaction, so fleet-scale cohort queries run
        as pure SQL without ever unpickling a payload.  One commit for N
        entries is what lets the queue server record a worker's whole
        batch for the cost of one journal write.
        """
        conflict = "REPLACE" if replace else "IGNORE"
        conn = self.connection()
        written: list[bool] = []
        conn.execute("BEGIN IMMEDIATE")
        try:
            for entry in entries:
                key = entry.get("key")
                git_rev = entry.get("git_rev", "unknown")
                cursor = conn.execute(
                    f"INSERT OR {conflict} INTO results (key, git_rev, "
                    "schema, kind, duration, scenario_json, scenario_hash, "
                    "runtime_s, cost_units, created_at, entry) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (key, git_rev,
                     entry.get("schema"), entry.get("kind"),
                     entry.get("duration"),
                     json.dumps(entry.get("scenario", {}), sort_keys=True,
                                default=list),
                     entry.get("scenario_hash", ""), entry.get("runtime_s"),
                     entry.get("cost_units"), time.time(),
                     pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)))
                written.append(cursor.rowcount > 0)
                if written[-1]:
                    conn.execute(
                        "DELETE FROM metrics WHERE key = ? AND git_rev = ?",
                        (key, git_rev))
                    conn.executemany(
                        "INSERT OR REPLACE INTO metrics (key, git_rev, name, "
                        "value) VALUES (?, ?, ?, ?)",
                        [(key, git_rev, name, value) for name, value
                         in sorted(numeric_metrics(entry).items())])
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return written

    def invalidate(self, key: str) -> None:
        """Drop every revision's row for ``key`` (e.g. one that failed
        validation)."""
        conn = self.connection()
        conn.execute("DELETE FROM results WHERE key = ?", (key,))
        conn.execute("DELETE FROM metrics WHERE key = ?", (key,))

    def __len__(self) -> int:
        """Distinct result keys on file (the pickle cache counted files)."""
        return self.connection().execute(
            "SELECT COUNT(DISTINCT key) FROM results").fetchone()[0]

    # -- SQL-side queries (no result unpickling) --------------------------------------
    def calibration_rows(self) -> Iterator[tuple]:
        """``(kind, cost_units, runtime_s)`` per row — the cost model's
        calibration data, straight from SQL (the pickle cache had to
        unpickle every full result payload for this)."""
        yield from self.connection().execute(
            "SELECT kind, cost_units, runtime_s FROM results "
            "WHERE schema = ?", (CACHE_SCHEMA_VERSION,))

    def rows(self, kind: Optional[str] = None,
             scenario_hash: Optional[str] = None,
             git_rev: Optional[str] = None,
             keys: Optional[set] = None) -> list[dict]:
        """Provenance-only row dicts, filtered; newest first.

        ``scenario_hash`` and ``git_rev`` match by prefix, so the short
        hashes humans copy around work.  Result payloads stay pickled.
        """
        query = ("SELECT key, git_rev, schema, kind, duration, "
                 "scenario_json, scenario_hash, runtime_s, cost_units, "
                 "created_at FROM results")
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if scenario_hash is not None:
            clauses.append("scenario_hash LIKE ?")
            params.append(scenario_hash + "%")
        if git_rev is not None:
            clauses.append("git_rev LIKE ?")
            params.append(git_rev + "%")
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY created_at DESC, rowid DESC"
        rows = []
        for record in self.connection().execute(query, params):
            row = {
                "key": record[0], "git_rev": record[1], "schema": record[2],
                "kind": record[3], "duration": record[4],
                "scenario": json.loads(record[5]), "scenario_hash": record[6],
                "runtime_s": record[7], "cost_units": record[8],
                "created_at": record[9],
            }
            if keys is None or row["key"] in keys:
                rows.append(row)
        return rows

    def git_revs(self) -> list[str]:
        """Every revision with rows on file, most recently written first."""
        return [row[0] for row in self.connection().execute(
            "SELECT git_rev, MAX(created_at) AS newest FROM results "
            "GROUP BY git_rev ORDER BY newest DESC")]

    def result_set(self, git_rev: Optional[str] = None) -> dict[str, dict]:
        """key → validated entry, optionally restricted to one revision
        (prefix match) — the operand of :func:`diff_result_sets`."""
        if git_rev is None:
            return {entry["key"]: entry for entry in self.entries()}
        entries = {}
        for record in self.connection().execute(
                "SELECT key, entry FROM results WHERE git_rev LIKE ? "
                "ORDER BY created_at, rowid", (git_rev + "%",)):
            try:
                entry = pickle.loads(record[1])
            except Exception:
                logger.warning("cache entry %s is unreadable; skipping",
                               self.locate(record[0]))
                continue
            entry = _validate_entry(entry, self.locate(record[0]))
            if entry is not None:
                entries[record[0]] = entry
        return entries

    # -- fleet analytics (pure SQL over provenance + metrics) -------------------------
    def _population(self, conn: sqlite3.Connection, table: str,
                    rows, columns: str) -> None:
        """(Re)fill a temp table with a population selection.  Temp tables
        are connection-local, so concurrent readers never collide."""
        conn.execute(f"CREATE TEMP TABLE IF NOT EXISTS {table} "
                     f"({columns}, PRIMARY KEY (key)) WITHOUT ROWID")
        conn.execute(f"DELETE FROM {table}")
        conn.executemany(
            f"INSERT OR REPLACE INTO {table} VALUES "
            f"({', '.join('?' * len(columns.split(',')))})", rows)

    def select_newest(self, keys, git_rev: Optional[str] = None
                      ) -> dict[str, str]:
        """``key -> git_rev`` of the newest current-schema row per key.

        The fleet report's row selection: restricted to the population
        ``keys``, optionally pinned to a revision (prefix match), and
        computed from provenance columns alone — no payload is unpickled.
        Keys with no row on file are simply absent (the report counts
        them as uncovered).
        """
        conn = self.connection()
        self._population(conn, "_population_keys",
                         ((key,) for key in keys), "key TEXT")
        query = ("SELECT r.key, r.git_rev, r.created_at, r.rowid "
                 "FROM results r JOIN _population_keys p ON p.key = r.key "
                 "WHERE r.schema = ?")
        params: list = [CACHE_SCHEMA_VERSION]
        if git_rev is not None:
            query += " AND r.git_rev LIKE ?"
            params.append(git_rev + "%")
        newest: dict[str, tuple] = {}
        for key, rev, created_at, rowid in conn.execute(query, params):
            current = newest.get(key)
            if current is None or (created_at, rowid) > current[1]:
                newest[key] = (rev, (created_at, rowid))
        return {key: rev for key, (rev, _) in newest.items()}

    def metric_values(self, selection: dict[str, str],
                      pattern: str) -> dict[str, list[float]]:
        """``key -> values`` of the metrics matching ``pattern`` among the
        ``(key, git_rev)`` rows in ``selection``.

        ``pattern`` is a SQL LIKE pattern (escape character ``\\``) over
        the flattened dotted metric names; one key yields several values
        when the pattern spans instances (``reports[%].rtt.mean``).
        Values come straight from the indexed ``metrics`` table —
        no pickle is ever loaded on this path.
        """
        conn = self.connection()
        self._population(conn, "_population_rows",
                         selection.items(), "key TEXT, git_rev TEXT")
        values: dict[str, list[float]] = {}
        for key, value in conn.execute(
                "SELECT m.key, m.value FROM metrics m "
                "JOIN _population_rows p "
                "ON p.key = m.key AND p.git_rev = m.git_rev "
                "WHERE m.name LIKE ? ESCAPE '\\' "
                "ORDER BY m.key, m.name", (pattern,)):
            values.setdefault(key, []).append(value)
        return values

    def provenance_values(self, selection: dict[str, str],
                          column: str) -> dict[str, list[float]]:
        """Like :meth:`metric_values` for a numeric provenance column
        (``runtime_s`` / ``cost_units`` / ``duration``) — the seam that
        turns the store into a cross-revision perf ledger."""
        if column not in PROVENANCE_METRIC_COLUMNS:
            raise ValueError(f"unknown provenance metric {column!r}; "
                             f"known: {PROVENANCE_METRIC_COLUMNS}")
        conn = self.connection()
        self._population(conn, "_population_rows",
                         selection.items(), "key TEXT, git_rev TEXT")
        return {key: [value] for key, value in conn.execute(
            f"SELECT r.key, r.{column} FROM results r "
            "JOIN _population_rows p "
            "ON p.key = r.key AND p.git_rev = r.git_rev "
            f"WHERE r.{column} IS NOT NULL ORDER BY r.key")}

    def backfill_metrics(self) -> "BackfillReport":
        """One-shot metrics backfill for rows that predate the table.

        Every current-schema result row without metrics rows gets its
        payload unpickled once and its numeric leaves written — after
        which the query path above never touches a payload again.
        Idempotent; unreadable payloads are logged and skipped.
        """
        conn = self.connection()
        pending = conn.execute(
            "SELECT key, git_rev, entry FROM results r WHERE schema = ? "
            "AND NOT EXISTS (SELECT 1 FROM metrics m WHERE m.key = r.key "
            "AND m.git_rev = r.git_rev)",
            (CACHE_SCHEMA_VERSION,)).fetchall()
        report = BackfillReport()
        for key, git_rev, blob in pending:
            try:
                entry = pickle.loads(blob)
                rows = sorted(numeric_metrics(entry).items())
            except Exception:
                logger.warning("cache entry %s is unreadable; metrics not "
                               "backfilled", self.locate(key))
                report.skipped += 1
                continue
            if not rows:
                report.skipped += 1
                continue
            conn.executemany(
                "INSERT OR REPLACE INTO metrics (key, git_rev, name, value) "
                "VALUES (?, ?, ?, ?)",
                [(key, git_rev, name, value) for name, value in rows])
            report.backfilled += 1
        if report.backfilled:
            logger.info("backfilled metrics for %d result row(s) in %s "
                        "(%d skipped)", report.backfilled, self.db_path,
                        report.skipped)
        return report

    # -- garbage collection -----------------------------------------------------------
    def gc(self, keep_revs: int = 1, dry_run: bool = False,
           vacuum: bool = True) -> "GcReport":
        """Prune superseded rows: keep the newest ``keep_revs`` revisions
        per key, drop the rest (results and metrics alike).

        Long-lived fleet stores accumulate one row per ``(key, git_rev)``
        across commits; replays only ever read the newest, so older
        revisions are pure ledger history — bound it explicitly.  Every
        dropped ``(key, git_rev)`` pair is logged.  ``dry_run`` reports
        without deleting; ``vacuum`` returns the freed pages to the
        filesystem afterwards.
        """
        if keep_revs < 1:
            raise ValueError("keep_revs must be at least 1")
        conn = self.connection()
        by_key: dict[str, list[tuple]] = {}
        for key, rev, created_at, rowid in conn.execute(
                "SELECT key, git_rev, MAX(created_at), MAX(rowid) "
                "FROM results GROUP BY key, git_rev"):
            by_key.setdefault(key, []).append((created_at, rowid, rev))
        report = GcReport(keys=len(by_key), keep_revs=keep_revs,
                          dry_run=dry_run)
        doomed: list[tuple[str, str]] = []
        for key in sorted(by_key):
            revs = sorted(by_key[key], reverse=True)
            report.kept_rows += min(len(revs), keep_revs)
            for _, _, rev in revs[keep_revs:]:
                doomed.append((key, rev))
                logger.info(
                    "results gc: %s %s@%s (superseded; keeping the newest "
                    "%d revision(s))", "would drop" if dry_run else
                    "dropping", key[:12], rev[:12], keep_revs)
        report.dropped_rows = len(doomed)
        report.dropped_metrics = sum(
            conn.execute("SELECT COUNT(*) FROM metrics "
                         "WHERE key = ? AND git_rev = ?", pair).fetchone()[0]
            for pair in doomed)
        if doomed and not dry_run:
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.executemany(
                    "DELETE FROM results WHERE key = ? AND git_rev = ?",
                    doomed)
                conn.executemany(
                    "DELETE FROM metrics WHERE key = ? AND git_rev = ?",
                    doomed)
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            if vacuum:
                conn.execute("VACUUM")
                report.vacuumed = True
        if report.dropped_rows:
            logger.info(
                "results gc: %s %d superseded row(s) across %d key(s) in %s "
                "(%d kept)", "would drop" if dry_run else "dropped",
                report.dropped_rows, report.keys, self.db_path,
                report.kept_rows)
        return report

    # -- trained-agent artifacts --------------------------------------------------------
    # Content-addressed artefact payloads (trained agents, see
    # repro.agents.artifacts) ride in the same database as the results
    # they enable, provenance-stamped like result rows.  The hash is the
    # whole identity — the same spec always trains to bit-identical
    # bytes — so writes are INSERT OR IGNORE: the first writer wins and
    # every later writer is a no-op, which makes concurrent training
    # races (pool workers, fleet workers) harmless.

    def put_artifact_bytes(self, hash: str, payload: bytes, *, schema: int,
                           kind: str = "agent",
                           benchmark: Optional[str] = None,
                           spec: Optional[dict] = None,
                           runtime_s: Optional[float] = None) -> bool:
        """Store one artefact payload under its content hash (idempotent);
        returns whether a new row was written."""
        conn = self.connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO artifacts (hash, schema, kind, "
                "benchmark, spec_json, git_rev, created_at, runtime_s, "
                "size_bytes, payload) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (hash, schema, kind, benchmark,
                 json.dumps(spec or {}, sort_keys=True, default=list),
                 current_git_rev(), time.time(), runtime_s, len(payload),
                 payload))
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return cursor.rowcount > 0

    def get_artifact_bytes(self, hash: str,
                           schema: Optional[int] = None) -> Optional[bytes]:
        """The stored payload for ``hash``, or None when absent or stale.

        With ``schema`` given, a row written under a different artefact
        schema version is rejected with a log line (mirroring the result
        rows' stale-entry contract) so consumers retrain instead of
        deserializing a stale layout.
        """
        row = self.connection().execute(
            "SELECT schema, payload FROM artifacts WHERE hash = ?",
            (hash,)).fetchone()
        if row is None:
            return None
        if schema is not None and row[0] != schema:
            logger.warning(
                "rejecting stale artifact %s: schema version %s != current "
                "%s; recomputing", self.locate(hash), row[0], schema)
            return None
        return row[1]

    def artifact_rows(self, benchmark: Optional[str] = None) -> list[dict]:
        """Provenance rows of stored artefacts, newest first (payloads
        stay in the database — ``get_artifact_bytes`` serves those)."""
        query = ("SELECT hash, schema, kind, benchmark, spec_json, git_rev, "
                 "created_at, runtime_s, size_bytes FROM artifacts")
        params: list = []
        if benchmark is not None:
            query += " WHERE benchmark = ?"
            params.append(benchmark)
        query += " ORDER BY created_at DESC, hash"
        return [{"hash": row[0], "schema": row[1], "kind": row[2],
                 "benchmark": row[3], "spec": json.loads(row[4]),
                 "git_rev": row[5], "created_at": row[6],
                 "runtime_s": row[7], "size_bytes": row[8]}
                for row in self.connection().execute(query, params)]

    def gc_artifacts(self, keep: int = 1, dry_run: bool = False,
                     vacuum: bool = True) -> "ArtifactGcReport":
        """Prune artefacts: keep the newest ``keep`` per (kind, benchmark).

        Trained-agent payloads are the largest rows a store carries;
        like :meth:`gc` this bounds growth explicitly, and every dropped
        hash is logged.
        """
        if keep < 1:
            raise ValueError("keep must be at least 1")
        conn = self.connection()
        groups: dict[tuple, list[tuple]] = {}
        for hash_, kind, benchmark, created_at, rowid in conn.execute(
                "SELECT hash, kind, benchmark, created_at, rowid "
                "FROM artifacts"):
            groups.setdefault((kind, benchmark or ""), []).append(
                (created_at, rowid, hash_))
        report = ArtifactGcReport(groups=len(groups), keep=keep,
                                  dry_run=dry_run)
        doomed: list[tuple[str]] = []
        for group in sorted(groups):
            rows = sorted(groups[group], reverse=True)
            report.kept += min(len(rows), keep)
            for _, _, hash_ in rows[keep:]:
                doomed.append((hash_,))
                logger.info(
                    "artifacts gc: %s %s (kind=%s benchmark=%s; keeping the "
                    "newest %d)", "would drop" if dry_run else "dropping",
                    hash_[:12], group[0], group[1] or "-", keep)
        report.dropped = len(doomed)
        if doomed and not dry_run:
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.executemany("DELETE FROM artifacts WHERE hash = ?",
                                 doomed)
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            if vacuum:
                conn.execute("VACUUM")
                report.vacuumed = True
        return report


@dataclass
class ArtifactGcReport:
    """What one :meth:`ResultStore.gc_artifacts` pass did (or would do)."""

    groups: int = 0           # distinct (kind, benchmark) groups examined
    keep: int = 1
    kept: int = 0
    dropped: int = 0
    dry_run: bool = False
    vacuumed: bool = False


@dataclass
class BackfillReport:
    """What one :meth:`ResultStore.backfill_metrics` pass did."""

    backfilled: int = 0
    skipped: int = 0      # unreadable payloads / no numeric leaves


@dataclass
class GcReport:
    """What one :meth:`ResultStore.gc` pass did (or would do)."""

    keys: int = 0             # distinct keys examined
    keep_revs: int = 1
    kept_rows: int = 0
    dropped_rows: int = 0     # superseded (key, git_rev) result rows
    dropped_metrics: int = 0  # metrics rows that went with them
    dry_run: bool = False
    vacuumed: bool = False


class ResultCache(ResultStore):
    """Compatibility shim: the pickle-directory cache's name and API,
    now backed by the SQLite :class:`ResultStore`.

    Constructing one over an old pickle-cache directory migrates the
    ``*.pkl`` entries into ``<root>/results.sqlite`` in one shot (see
    :func:`migrate_pickle_dir`); ``get`` / ``get_entry`` / ``entries`` /
    ``put`` / ``invalidate`` / ``len()`` behave exactly as before.  New
    code should say :class:`ResultStore`.
    """


class PickleResultCache:
    """The legacy one-pickle-file-per-entry cache format.

    Kept for two jobs: reading old cache directories during migration,
    and the equivalence tests that prove a pickle replay and a store
    replay return bit-identical results.  Not written by any backend
    anymore.
    """

    def __init__(self, root: os.PathLike | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def get(self, job: "ExperimentJob"):
        entry = self.get_entry(job.key())
        if entry is None:
            return None
        if not _check_scenario_hash(entry, job, self._path(job.key())):
            return None
        return entry.get("result")

    def get_entry(self, key: str) -> Optional[dict]:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                entry = pickle.load(handle)
        except Exception:
            logger.warning("cache entry %s is unreadable; recomputing", path)
            return None
        return _validate_entry(entry, path)

    def entries(self) -> Iterator[dict]:
        for path in sorted(self.root.glob("*.pkl")):
            entry = self.get_entry(path.stem)
            if entry is not None:
                yield entry

    def put(self, job: "ExperimentJob", result,
            runtime_s: Optional[float] = None) -> None:
        entry = build_entry(job, result, runtime_s=runtime_s)
        atomic_write_bytes(self.root, self._path(job.key()),
                           pickle.dumps(entry,
                                        protocol=pickle.HIGHEST_PROTOCOL))

    def invalidate(self, key: str) -> None:
        self._path(key).unlink(missing_ok=True)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.pkl"))


# -- migration ------------------------------------------------------------------------
@dataclass
class MigrationReport:
    """What one pickle-directory migration pass did."""

    migrated: int = 0
    skipped: int = 0      # rows that already existed (idempotent re-run)
    rejected: int = 0     # stale-schema / unreadable / unstamped pickles


def migrate_pickle_dir(store: ResultStore,
                       directory: Optional[os.PathLike | str] = None
                       ) -> MigrationReport:
    """Import a legacy pickle-cache directory's entries into ``store``.

    Reads every ``*.pkl`` in ``directory`` (default: the store's own
    root — the promotion path for existing cache dirs) through the same
    validation the pickle cache applied on read, so stale-schema and
    unstamped entries are logged and skipped, never laundered into the
    database.  Idempotent: entries whose ``(key, git_rev)`` row already
    exists are skipped, and the pickle files are left untouched.
    """
    legacy = PickleResultCache(directory if directory is not None
                               else store.root)
    report = MigrationReport()
    paths = sorted(legacy.root.glob("*.pkl"))
    if not paths:
        return report
    # The legacy format keeps one file per key (the filename stem), so a
    # key already in the database needs no unpickling at all — re-runs
    # over an already-migrated directory cost one SQL query plus a glob.
    migrated_keys = {row[0] for row in store.connection().execute(
        "SELECT DISTINCT key FROM results")}
    for path in paths:
        if path.stem in migrated_keys:
            report.skipped += 1
            continue
        entry = legacy.get_entry(path.stem)
        if entry is None:
            report.rejected += 1
            continue
        if store.put_entry(entry, replace=False):
            report.migrated += 1
        else:
            report.skipped += 1
    if report.migrated:
        logger.info(
            "migrated %d legacy pickle cache entr%s from %s into %s "
            "(%d already present, %d rejected)", report.migrated,
            "y" if report.migrated == 1 else "ies", legacy.root,
            store.db_path, report.skipped, report.rejected)
    return report


# -- query / diff tooling -------------------------------------------------------------
def flatten_metrics(value, prefix: str = "") -> dict:
    """Every leaf of a nested dict/list/dataclass structure, keyed by
    dotted path — the comparable surface of a result.  Numeric leaves
    stay floats (the diff applies its tolerance to them); any other
    leaf is kept as a string and compared for exact equality, so a
    changed label or status can never hide behind a tolerance."""
    metrics: dict = {}
    if is_dataclass(value) and not isinstance(value, type):
        value = {name: getattr(value, name)
                 for name in value.__dataclass_fields__}
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            child = f"{prefix}.{key}" if prefix else str(key)
            metrics.update(flatten_metrics(value[key], child))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            metrics.update(flatten_metrics(item, f"{prefix}[{index}]"))
    elif isinstance(value, bool):
        metrics[prefix] = float(value)
    elif isinstance(value, (int, float)):
        metrics[prefix] = float(value)
    else:
        metrics[prefix] = str(value)
    return metrics


def entry_metrics(entry: dict) -> dict:
    """The flattened leaves of one entry's result payload."""
    result = entry.get("result")
    if hasattr(result, "as_dict"):
        result = result.as_dict()
    return flatten_metrics(result)


def numeric_metrics(entry: dict) -> dict[str, float]:
    """The finite numeric leaves of one entry's result payload — the rows
    the store's ``metrics`` table indexes.  Non-numeric leaves stay the
    diff tooling's business; non-finite values are dropped (SQLite would
    silently turn NaN into NULL)."""
    return {name: value for name, value in entry_metrics(entry).items()
            if isinstance(value, float) and math.isfinite(value)}


@dataclass(frozen=True)
class DiffDelta:
    """One metric that moved (or vanished) between two result sets.

    ``a`` / ``b`` are floats for numeric leaves, strings for any other
    leaf, and None on the side where the metric is missing entirely.
    """

    key: str
    metric: str
    a: object
    b: object

    @property
    def delta(self) -> Optional[float]:
        if isinstance(self.a, float) and isinstance(self.b, float):
            return self.b - self.a
        return None


@dataclass
class DiffReport:
    """Per-metric comparison of two result sets (see ``results diff``)."""

    matched: int = 0                 # keys present on both sides
    identical: int = 0               # matched keys with no delta
    deltas: list = field(default_factory=list)
    only_in_a: list = field(default_factory=list)
    only_in_b: list = field(default_factory=list)

    def empty(self) -> bool:
        """True when the sets agree: same keys, every metric in tolerance."""
        return not self.deltas and not self.only_in_a and not self.only_in_b

    def to_dict(self) -> dict:
        return {
            "matched": self.matched,
            "identical": self.identical,
            "empty": self.empty(),
            "deltas": [{"key": d.key, "metric": d.metric, "a": d.a,
                        "b": d.b, "delta": d.delta} for d in self.deltas],
            "only_in_a": list(self.only_in_a),
            "only_in_b": list(self.only_in_b),
        }


def _within_tolerance(a, b, tolerance: float) -> bool:
    if a == b:
        return True
    if not (isinstance(a, float) and isinstance(b, float)):
        return False        # non-numeric leaves: exact equality only
    return abs(a - b) <= tolerance * max(abs(a), abs(b), 1.0)


class ToleranceTable:
    """Per-metric relative tolerances for :func:`diff_result_sets`.

    The fast-forward accuracy envelope is not one number: horizon-
    normalized rates (FPS, utilization, power) land within a few percent
    of the exact run, while sparse counters (inputs tracked in a short
    window) carry much larger relative quantization.  A table maps metric
    name patterns to tolerances so each class gets its own bar and the
    envelope is a reviewable, committed artifact rather than one loose
    scalar that hides regressions in the tight metrics.

    Patterns support ``*`` wildcards only — matched with an escaped
    regex, **not** :mod:`fnmatch`, because flattened metric names contain
    literal brackets (``reports[0].client_fps``) that fnmatch would
    parse as character classes.  First matching pattern wins, in table
    order; metrics matching no pattern fall back to ``default``.
    """

    def __init__(self, patterns=(), default: float = 0.0):
        self.default = float(default)
        self.patterns: list[tuple[str, float]] = []
        self._compiled: list[tuple[re.Pattern, float]] = []
        for pattern, tolerance in patterns:
            self.add(pattern, tolerance)

    def add(self, pattern: str, tolerance: float) -> None:
        if tolerance < 0:
            raise ValueError(f"tolerance for {pattern!r} must be >= 0, "
                             f"got {tolerance!r}")
        regex = re.compile(
            "^" + ".*".join(re.escape(part) for part in pattern.split("*"))
            + "$")
        self.patterns.append((pattern, float(tolerance)))
        self._compiled.append((regex, float(tolerance)))

    def tolerance_for(self, metric: str) -> float:
        for regex, tolerance in self._compiled:
            if regex.match(metric):
                return tolerance
        return self.default

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ToleranceTable":
        """Build from a ``pattern -> tolerance`` mapping (e.g. a loaded
        JSON file).  The reserved key ``"default"`` sets the fallback,
        dunder keys (``"__comment__"``) are ignored; the remaining
        entries keep the mapping's order (first match wins, so put
        specific patterns before broad ones)."""
        table = cls(default=float(mapping.get("default", 0.0)))
        for pattern, tolerance in mapping.items():
            if pattern == "default" or pattern.startswith("__"):
                continue
            table.add(pattern, float(tolerance))
        return table

    @classmethod
    def load(cls, path: os.PathLike | str) -> "ToleranceTable":
        """Load a committed tolerance table (a flat JSON object)."""
        with open(path, "r", encoding="utf-8") as handle:
            mapping = json.load(handle)
        if not isinstance(mapping, dict):
            raise ValueError(f"tolerance table {path} must be a JSON "
                             "object of pattern -> tolerance")
        return cls.from_mapping(mapping)


def rekey_ignoring_fast_forward(entries: dict[str, dict]) -> dict[str, dict]:
    """Re-key a ``key → entry`` result set as if every scenario had the
    default (disabled) fast-forward configuration.

    Job keys deliberately include the fast-forward settings — a macro-
    model approximation must never *replay* as the exact result — so an
    exact run and its fast-forwarded twin normally occupy different keys
    and ``results diff`` would report them as unmatched.  Envelope
    checking wants exactly that comparison: this helper recomputes each
    entry's key from its stamped provenance with ``fast_forward``
    dropped from the scenario config, using the same canonical-JSON
    hash as :meth:`ExperimentJob.key`, so the twins collide and diff
    metric by metric.
    """
    rekeyed: dict[str, dict] = {}
    for entry in entries.values():
        scenario = copy.deepcopy(entry.get("scenario", {}))
        if isinstance(scenario.get("config"), dict):
            scenario["config"].pop("fast_forward", None)
        payload = {
            "kind": entry.get("kind"),
            "duration": entry.get("duration"),
            "scenario": {key: value for key, value in scenario.items()
                         if key != "schema"},
        }
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"), default=list)
        rekeyed[hashlib.sha256(canonical.encode("utf-8")).hexdigest()] = entry
    return rekeyed


def diff_result_sets(a: dict[str, dict], b: dict[str, dict],
                     tolerance: float = 0.0,
                     tolerances: Optional[ToleranceTable] = None
                     ) -> DiffReport:
    """Compare two ``key → entry`` sets metric by metric.

    ``tolerance`` is relative (with an absolute floor of 1.0 in the
    denominator, so near-zero metrics compare sanely); the default 0.0
    demands bit-identical numbers — the right bar for two runs of a
    deterministic executor, and what CI asserts across revisions.
    ``tolerances`` supplies a per-metric :class:`ToleranceTable` instead
    (the fast-forward accuracy envelope); when given it supersedes the
    scalar for every metric.
    """
    report = DiffReport()
    report.only_in_a = sorted(set(a) - set(b))
    report.only_in_b = sorted(set(b) - set(a))
    for key in sorted(set(a) & set(b)):
        report.matched += 1
        metrics_a = entry_metrics(a[key])
        metrics_b = entry_metrics(b[key])
        clean = True
        for metric in sorted(set(metrics_a) | set(metrics_b)):
            value_a = metrics_a.get(metric)
            value_b = metrics_b.get(metric)
            allowed = (tolerances.tolerance_for(metric)
                       if tolerances is not None else tolerance)
            if value_a is None or value_b is None:
                report.deltas.append(DiffDelta(key, metric, value_a, value_b))
                clean = False
            elif not _within_tolerance(value_a, value_b, allowed):
                report.deltas.append(DiffDelta(key, metric, value_a, value_b))
                clean = False
        if clean:
            report.identical += 1
    return report
