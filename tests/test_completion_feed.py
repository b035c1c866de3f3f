"""The queue's result database and its completion feed.

* The queue database runs a ``PERSIST`` rollback journal (suite stores
  stay in WAL mode), and a writer that still commits in ``DELETE`` mode
  — an older checkout's worker — shares the file with it.
* ``completed_since`` is exact: it lists every key that completed or
  failed after a cursor, across a server restart, for results directory
  workers commit straight into the database, and for keys that are
  invalidated and resubmitted.
* A socket drain costs at most two submitter requests per job, and no
  RESULT request: the feed's replies carry the entries; its workers'
  batched CLAIM and COMPLETE frames together number fewer than its jobs.
* A resubmission supersedes a failure marker left in a reused queue.
"""

from __future__ import annotations

import collections
import contextlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import fleet
from repro.experiments import (
    ExperimentConfig,
    ExperimentJob,
    ExperimentSuite,
    ResultStore,
    Scenario,
    execute_job,
)
from repro.experiments import server as server_module
from repro.experiments.protocol import CorruptFrameError, MessageType, recv_frame
from repro.experiments.queue import DirectoryQueue
from repro.experiments.server import QueueServer
from repro.experiments.socket_queue import (
    QueueConnectionError,
    QueueRemoteError,
    SocketQueue,
    parse_addr,
)
from repro.experiments.worker import spawn_worker

SRC = Path(__file__).resolve().parents[1] / "src"

#: Requests a worker sends; every other frame type comes from submitters.
WORKER_FRAMES = {
    MessageType.CLAIM,
    MessageType.COMPLETE,
    MessageType.FAIL,
    MessageType.HEARTBEAT,
    MessageType.ARTIFACT_GET,
    MessageType.ARTIFACT_PUT,
}

#: Tiny fleet jobs (0.2 s simulated) like the fleet acceptance test's.
TINY_SPEC = fleet.PopulationSpec(
    name="feed-pop",
    benchmarks=("RE", "D2", "STK"),
    mix_sizes={1: 3, 2: 1},
    instance_counts={1: 1},
    networks={"lan_1gbps": 3, "cellular_5g": 1},
    variants={"default": 2, "optimized": 1},
    config={"duration_s": 0.2, "warmup_s": 0.05},
)


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return ExperimentConfig.smoke(seed=5)


def _jobs(config, n: int, start: int = 0) -> list[ExperimentJob]:
    return [ExperimentJob(Scenario.single("RE", config, seed_offset=start + i)) for i in range(n)]


@pytest.fixture(params=["directory", "socket"])
def queue(request, tmp_path):
    """The same queue directory, reached locally or through a server."""
    if request.param == "directory":
        yield DirectoryQueue(tmp_path / "q")
        return
    with QueueServer(tmp_path / "q", heartbeat_timeout_s=60.0) as server:
        client = SocketQueue(server.address, retries=3, backoff_s=0.02)
        yield client
        client.close()


def _keys(done) -> list[str]:
    return [key for key, _ in done]


@contextlib.contextmanager
def _claims_linger(root: Path):
    """Put back the claim files an outcome removes: the moment after a
    worker records an outcome and before it drops its claim."""
    saved = {path: path.read_bytes() for path in (root / "claimed").iterdir()}
    yield
    for path, data in saved.items():
        path.write_bytes(data)


# -- the journal ------------------------------------------------------------------------


def test_queue_db_runs_a_persist_journal_and_suite_stores_stay_wal(tmp_path):
    queue = DirectoryQueue(tmp_path / "q")
    mode = queue.results.connection().execute("PRAGMA journal_mode").fetchone()[0]
    assert mode == "persist"
    store = ResultStore(tmp_path / "store")
    assert store.connection().execute("PRAGMA journal_mode").fetchone()[0] == "wal"


#: An older-version writer: the same store code, but its connection
#: switched back to the DELETE journal before every commit.  It answers
#: each "<i>" on stdin after reading the server's row i and committing
#: its own row i.
_DELETE_MODE_WRITER = """
import sys
from repro.experiments import ExperimentConfig, ExperimentJob, Scenario, ResultStore
config = ExperimentConfig.smoke(seed=5)
store = ResultStore(sys.argv[1], wal=False)
conn = store.connection()
mode = conn.execute("PRAGMA journal_mode = DELETE").fetchone()[0]
for line in sys.stdin:
    i = int(line)
    theirs = ExperimentJob(Scenario.single("RE", config, seed_offset=i))
    ours = ExperimentJob(Scenario.single("RE", config, seed_offset=1000 + i))
    seen = store.get_entry(theirs.key())["result"]["side"]
    store.put(ours, {"side": "delete", "i": i})
    print(mode, seen, flush=True)
"""


def test_a_delete_mode_writer_shares_the_queue_db_with_a_persist_server(tmp_path, config):
    rounds = 5
    server_jobs = _jobs(config, rounds)
    writer_jobs = _jobs(config, rounds, start=1000)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with QueueServer(tmp_path / "q") as server:
        client = SocketQueue(server.address)
        head, _ = client.completed_since(None)
        with subprocess.Popen(
            [sys.executable, "-c", _DELETE_MODE_WRITER, str(server.queue.results.root)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        ) as writer:
            try:
                for i in range(rounds):
                    key = client.submit(server_jobs[i])
                    claimed = client.claim("persist-side")
                    assert claimed.key == key
                    client.complete(claimed, {"side": "persist", "i": i})
                    writer.stdin.write(f"{i}\n")
                    writer.stdin.flush()
                    # The old writer read the server's row before committing.
                    assert writer.stdout.readline().split() == ["delete", "persist"]
                    # ... and the server reads the old writer's row.
                    entry = client.result_entry(writer_jobs[i].key())
                    assert entry["result"] == {"side": "delete", "i": i}
            finally:
                writer.stdin.close()  # ends the writer's loop
        assert writer.returncode == 0
        # The feed saw both writers' commits, in commit order.
        _, done = client.completed_since(head)
        expected = []
        for server_job, writer_job in zip(server_jobs, writer_jobs):
            expected += [(server_job.key(), "result"), (writer_job.key(), "result")]
        assert done == expected
        check = server.queue.results.connection().execute("PRAGMA integrity_check")
        assert check.fetchone()[0] == "ok"
        client.close()


# -- feed exactness ---------------------------------------------------------------------


def test_feed_lists_completions_and_failures_in_order(queue, config):
    ok, bad = _jobs(config, 2)
    head, done = queue.completed_since(None)
    assert done == []
    queue.submit_many([ok, bad])
    assert queue.completed_since(head) == (head, [])
    first = queue.claim("w")
    queue.complete(first, {"value": 1.0})
    second = queue.claim("w")
    queue.fail(second, RuntimeError("boom"))
    cursor, done = queue.completed_since(head)
    assert done == [(ok.key(), "result"), (bad.key(), "failure")]
    assert cursor > head
    assert queue.completed_since(cursor) == (cursor, [])


def test_feed_is_exact_for_an_invalidated_and_resubmitted_key(queue, config):
    [job] = _jobs(config, 1)
    queue.submit(job)
    queue.complete(queue.claim("w"), {"value": 1.0})
    head, _ = queue.completed_since(None)
    queue.invalidate(job.key())
    assert queue.completed_since(head) == (head, [])
    # Re-enqueued, not re-announced: it has no result any more.
    queue.submit(job)
    assert queue.completed_since(head) == (head, [])
    assert queue.counts().pending == 1
    queue.complete(queue.claim("w"), {"value": 2.0})
    cursor, done = queue.completed_since(head)
    assert done == [(job.key(), "result")]
    assert cursor > head
    assert queue.result_entry(job.key())["result"] == {"value": 2.0}


def test_an_invalidated_result_reads_as_missing_after_the_feed_listed_it(queue, config):
    [job] = _jobs(config, 1)
    head, _ = queue.completed_since(None)
    queue.submit(job)
    queue.complete(queue.claim("w"), {"value": 1.0})
    assert queue.completed_since(head)[1] == [(job.key(), "result")]
    queue.invalidate(job.key())
    assert queue.result_entry(job.key()) is None


def test_a_result_committed_before_its_claim_drops_is_announced(queue, config, tmp_path):
    """A submitter whose cursor lands after a worker's commit but before
    the worker unlinks its claim still sees the key after that cursor."""
    [job] = _jobs(config, 1)
    queue.submit(job)
    claimed = queue.claim("w")
    with _claims_linger(tmp_path / "q"):
        queue.complete(claimed, {"value": 1.0})
    head, _ = queue.completed_since(None)
    queue.submit(job)
    assert queue.completed_since(head)[1] == [(job.key(), "result")]


def test_a_failure_recorded_before_its_claim_drops_is_retried(queue, config, tmp_path):
    """The same window for a failure: the resubmission supersedes the
    marker and re-enqueues the job, whose outcome lands after the cursor."""
    [job] = _jobs(config, 1)
    queue.submit(job)
    claimed = queue.claim("w")
    with _claims_linger(tmp_path / "q"):
        queue.fail(claimed, RuntimeError("transient"))
    head, _ = queue.completed_since(None)
    queue.submit(job)
    assert queue.failure(job.key()) is None
    assert queue.counts().pending == 1
    queue.complete(queue.claim("w2"), {"value": 1.0})
    assert queue.completed_since(head)[1] == [(job.key(), "result")]


def test_submitting_a_completed_key_announces_it_again(queue, config):
    [job] = _jobs(config, 1)
    queue.submit(job)
    queue.complete(queue.claim("w"), {"value": 1.0})
    head, _ = queue.completed_since(None)
    queue.submit(job)
    assert queue.counts().pending == 0
    assert queue.completed_since(head)[1] == [(job.key(), "result")]


def test_a_long_poll_answers_when_a_completion_lands(tmp_path, config):
    [job] = _jobs(config, 1)
    with QueueServer(tmp_path / "q") as server:
        submitter = SocketQueue(server.address)
        worker = SocketQueue(server.address)
        head, _ = submitter.completed_since(None)
        submitter.submit(job)
        claimed = worker.claim("w")
        threading.Timer(0.3, worker.complete, (claimed, {"value": 1.0})).start()
        started = time.monotonic()
        _, done = submitter.completed_since(head, timeout_s=10.0)
        assert done == [(job.key(), "result")]
        assert time.monotonic() - started < 5.0
        submitter.close()
        worker.close()


def test_long_polls_under_concurrent_completions_miss_nothing(tmp_path, config):
    """More completing threads than cores, a tiny switch interval, and a
    submitter long-polling throughout: the polls together return every
    key exactly once, in strictly increasing cursor order."""
    _long_poll_stress(tmp_path, config, batched=False)


def test_long_polls_under_concurrent_batch_completions_miss_nothing(tmp_path, config):
    """The same with server-sized batches: a calibrated cost model, and
    workers that claim and complete several jobs per frame."""
    _long_poll_stress(tmp_path, config, batched=True)


def _long_poll_stress(tmp_path, config, batched: bool) -> None:
    jobs = _jobs(config, 40)
    if batched:
        [calibration] = _jobs(config, 1, start=len(jobs))
        seeded = DirectoryQueue(tmp_path / "q")
        seeded.submit(calibration)
        seeded.complete(seeded.claim("calibration"), {"value": 1.0}, runtime_s=0.001)
    batch_sizes = []
    with QueueServer(tmp_path / "q") as server:
        submitter = SocketQueue(server.address)
        head, _ = submitter.completed_since(None)
        submitter.submit_many(jobs)

        def work(name: str) -> None:
            with SocketQueue(server.address) as queue:
                if batched:
                    while batch := queue.claim_many(name):
                        batch_sizes.append(len(batch))
                        queue.complete_many([(c, {"worker": name}, 0.001) for c in batch])
                while (claimed := queue.claim(name)) is not None:
                    queue.complete(claimed, {"worker": name})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work, args=(f"w{i}",)) for i in range(4)]
            for worker in workers:
                worker.start()
            seen, cursor = [], head
            deadline = time.monotonic() + 60
            while len(seen) < len(jobs) and time.monotonic() < deadline:
                previous = cursor
                cursor, done = submitter.completed_since(cursor, timeout_s=1.0)
                assert cursor > previous or not done
                seen += _keys(done)
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == sorted(job.key() for job in jobs)
        assert not batched or max(batch_sizes) > 1
        submitter.close()


def test_a_server_error_on_completed_since_names_the_frame(tmp_path, monkeypatch):
    """A server that answers COMPLETED_SINCE with an ERROR frame (here:
    one with no handler for it) raises QueueRemoteError naming it."""
    handlers = {
        kind: handler
        for kind, handler in QueueServer._HANDLERS.items()
        if kind is not MessageType.COMPLETED_SINCE
    }
    monkeypatch.setattr(QueueServer, "_HANDLERS", handlers)
    with QueueServer(tmp_path / "q") as server:
        client = SocketQueue(server.address, retries=1, backoff_s=0.01)
        with pytest.raises(QueueRemoteError, match="COMPLETED_SINCE"):
            client.completed_since(None)
        client.close()


def test_a_pre_feed_server_drops_completed_since_as_a_corrupt_frame(tmp_path, monkeypatch):
    """A server that predates the feed does not know frame type 13: its
    decoder rejects the frame as corrupt and closes the connection, so a
    submitter against it fails with QueueConnectionError after its
    retries.  A submitter with the feed needs a server with it."""

    def pre_feed_recv_frame(sock):
        frame = recv_frame(sock)
        if frame is not None and frame[0] is MessageType.COMPLETED_SINCE:
            raise CorruptFrameError(f"unknown message type {frame[0].value}")
        return frame

    monkeypatch.setattr(server_module, "recv_frame", pre_feed_recv_frame)
    with QueueServer(tmp_path / "q") as server:
        client = SocketQueue(server.address, retries=1, backoff_s=0.01)
        assert client.counts().pending == 0  # every other frame still works
        with pytest.raises(QueueConnectionError, match="unreachable"):
            client.completed_since(None)
        client.close()


def test_socket_drain_survives_a_server_restart_mid_drain(tmp_path, config):
    """The feed's cursor lives in the queue database, so the drain's
    long-poll resumes exactly across a stop() and a restart."""
    root = tmp_path / "q"
    jobs = _jobs(config, 8)
    first = QueueServer(root).start()
    host, port = parse_addr(first.address)
    outcome = {}

    def drain():
        with ExperimentSuite(
            backend="socket", workers=2, queue_addr=first.address, timeout_s=300
        ) as suite:
            outcome["results"] = suite.run(jobs)
            outcome["executed"] = suite.stats.executed

    drainer = threading.Thread(target=drain)
    drainer.start()
    second = None
    try:
        deadline = time.monotonic() + 120
        while first.queue.counts().completed < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert first.queue.counts().completed < len(jobs), "restart came too late"
        first.stop()
        time.sleep(0.3)
        second = QueueServer(root, host=host, port=port).start()
        drainer.join(timeout=300)
        assert not drainer.is_alive()
    finally:
        first.stop()
        if second is not None:
            second.stop()
    assert outcome["executed"] == len(jobs)
    assert [r.as_dict() for r in outcome["results"]] == [execute_job(job).as_dict() for job in jobs]
    _, done = DirectoryQueue(root).completed_since(0)
    assert set(_keys(done)) == {job.key() for job in jobs}


def test_socket_drain_sees_results_directory_workers_commit(tmp_path, config):
    """A directory worker writes straight into the database the server
    fronts; the server's long-poll re-reads the feed and finds it."""
    root = tmp_path / "q"
    jobs = _jobs(config, 3)
    with QueueServer(root) as server:
        worker = spawn_worker(root, worker_id="dir-worker", poll_s=0.02, idle_timeout_s=60.0)
        try:
            with ExperimentSuite(
                backend="socket", queue_addr=server.address, spawn_workers=False, timeout_s=300
            ) as suite:
                results = suite.run(jobs)
        finally:
            worker.terminate()
            worker.wait(timeout=10)
    assert [r.as_dict() for r in results] == [execute_job(job).as_dict() for job in jobs]


# -- the drain's request budget ---------------------------------------------------------


def test_socket_drain_costs_at_most_two_submitter_requests_per_job(tmp_path, monkeypatch):
    jobs = fleet.population_jobs(TINY_SPEC, 40, seed=3)
    frames: collections.Counter = collections.Counter()
    completed: list[str] = []
    dispatch = QueueServer._dispatch

    def counting_dispatch(self, kind, payload):
        frames[kind] += 1
        if kind is MessageType.COMPLETE:
            completed.extend(done["key"] for done in payload.get("results") or [payload])
        return dispatch(self, kind, payload)

    monkeypatch.setattr(QueueServer, "_dispatch", counting_dispatch)
    with ExperimentSuite(
        backend="socket", workers=2, queue_dir=tmp_path / "q", timeout_s=300
    ) as suite:
        suite.run(jobs)
    submitter = sum(count for kind, count in frames.items() if kind not in WORKER_FRAMES)
    assert len(completed) == len(jobs)
    # Batched claims and completions: fewer worker round trips than jobs.
    assert frames[MessageType.CLAIM] + frames[MessageType.COMPLETE] < len(jobs), dict(frames)
    assert submitter <= 2 * len(jobs), dict(frames)
    # The feed replies carry the entries: no per-job RESULT request.
    assert frames[MessageType.RESULT] == 0
    assert frames[MessageType.FAILURE] == 0


def test_socket_suite_rejects_a_tampered_entry_the_feed_carried(tmp_path, config, caplog):
    """The entry a COMPLETED_SINCE reply carries gets the same scenario
    hash check as a fetched one, and the re-run's entry is gathered."""
    import logging

    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    queue = DirectoryQueue(tmp_path / "q")
    queue.submit(job)
    queue.complete(queue.claim("w"), execute_job(job))
    entry = dict(queue.result_entry(job.key()))
    entry["scenario_hash"] = "0" * 64
    queue.results.put_entry(entry)
    with caplog.at_level(logging.WARNING, logger="repro.experiments.executor"):
        with ExperimentSuite(
            backend="socket", workers=1, queue_dir=tmp_path / "q", timeout_s=300
        ) as suite:
            [result] = suite.run([job])
    assert any("tampered cache entry" in record.message for record in caplog.records)
    assert result.as_dict() == execute_job(job).as_dict()
    assert queue.result_entry(job.key())["scenario_hash"] == job.scenario.content_hash()


# -- failures ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["distributed", "socket"])
def test_a_resubmission_supersedes_a_leftover_failure_marker(tmp_path, config, backend):
    [job] = _jobs(config, 1)
    DirectoryQueue(tmp_path / "q").record_failure(
        job.key(), "old-worker", "RuntimeError('transient')", ""
    )
    with ExperimentSuite(
        backend=backend, workers=1, queue_dir=tmp_path / "q", timeout_s=300
    ) as suite:
        [result] = suite.run([job])
    assert result.as_dict() == execute_job(job).as_dict()
    queue = DirectoryQueue(tmp_path / "q")
    assert queue.failure(job.key()) is None
    assert queue.counts().failed == 0
