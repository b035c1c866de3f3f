"""Server-sized CLAIM and COMPLETE batches on the socket transport.

* The sizing rule: an uncalibrated cost model gives a batch of one;
  calibrated tiny jobs batch up to about ``BATCH_BUDGET_S`` of estimated
  work, never more than ``ceil(pending / (2 x live workers))``; a job
  estimated over the budget goes alone.
* A worker killed while holding a batch has every claim of it requeued
  by the heartbeat timeout, and the drain still equals serial.
* A job failing mid-batch is recorded at once; its batch-mates complete.
* A re-sent batch COMPLETE (a client retry) rewrites byte-identical rows
  and announces the keys on the completion feed again.
* Single-job CLAIM and COMPLETE frames keep working against a batching
  server, and batching clients keep working against one that predates it.
* ``serve`` binds loopback by default and warns when it does not.
* An entry's key and scenario hash, built from one scenario dict, equal
  ``job.key()`` and ``content_hash()`` and the canonical formula.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import signal
import time

import pytest

from repro import fleet
from repro.experiments import (
    ExperimentConfig,
    ExperimentJob,
    Scenario,
    execute_job,
)
from repro.experiments import worker as worker_module
from repro.experiments.__main__ import build_parser
from repro.experiments.protocol import MessageType
from repro.experiments.queue import DirectoryQueue
from repro.experiments.server import BATCH_BUDGET_S, QueueServer
from repro.experiments.socket_queue import SocketQueue
from repro.experiments.store import build_entry
from repro.experiments.worker import run_worker, spawn_worker


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return ExperimentConfig.smoke(seed=5)


def _tiny(config, n: int, start: int = 0) -> list[ExperimentJob]:
    return [ExperimentJob(Scenario.single("RE", config, seed_offset=start + i)) for i in range(n)]


def _calibrate(root, config, seconds_per_tiny_job: float) -> None:
    """Leave one result in the queue's store whose runtime makes the
    server's cost model estimate every ``_tiny`` job at the given wall
    seconds (the server seeds its calibration from the store)."""
    queue = DirectoryQueue(root)
    [job] = _tiny(config, 1, start=999)
    queue.submit(job)
    queue.complete(queue.claim("calibration"), {"value": 1.0}, runtime_s=seconds_per_tiny_job)


def _wait_for(predicate, timeout_s=30.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out after {timeout_s}s waiting for {what}")


# -- the sizing rule ---------------------------------------------------------------------


def test_an_uncalibrated_server_hands_out_batches_of_one(tmp_path, config):
    with QueueServer(tmp_path / "q") as server, SocketQueue(server.address) as client:
        client.submit_many(_tiny(config, 10))
        assert len(client.claim_many("w")) == 1
        assert len(client.claim_many("w")) == 1


def test_calibrated_tiny_jobs_batch_up_to_the_self_scheduling_cap(tmp_path, config):
    _calibrate(tmp_path / "q", config, seconds_per_tiny_job=0.001)
    with QueueServer(tmp_path / "q") as server, SocketQueue(server.address) as client:
        client.submit_many(_tiny(config, 10))
        # One live worker, ten pending: ceil(10 / 2) = 5.
        batch = client.claim_many("w1")
        assert 1 < len(batch) <= math.ceil(10 / (2 * 1))
        assert len(batch) == 5
        assert len({claimed.key for claimed in batch}) == 5
        # A second live worker halves the cap: ceil(5 / (2 * 2)) = 2.
        client.heartbeat("w2", keys=[])
        assert len(client.claim_many("w1")) == math.ceil(5 / (2 * 2))
        # ``limit`` caps the batch further, and a single-job CLAIM (the
        # pre-batch frame) is a batch of one on the same path.
        assert len(client.claim_many("w1", limit=1)) == 1
        single = client.claim("w1")
        assert single is not None and single.key not in {claimed.key for claimed in batch}
        assert client.counts().pending == 1


def test_a_batch_stops_once_its_estimates_reach_the_budget(tmp_path, config):
    per_job_s = 0.4 * BATCH_BUDGET_S
    _calibrate(tmp_path / "q", config, seconds_per_tiny_job=per_job_s)
    with QueueServer(tmp_path / "q") as server, SocketQueue(server.address) as client:
        client.submit_many(_tiny(config, 20))
        # 0.4 + 0.4 < 1 budget, 0.4 * 3 >= 1: the third job fills it.
        assert len(client.claim_many("w")) == 3


def test_a_job_estimated_over_the_budget_goes_alone(tmp_path, config):
    _calibrate(tmp_path / "q", config, seconds_per_tiny_job=0.001)
    tiny = _tiny(config, 6)
    # A hundred times the tiny jobs' cost units: estimated at 0.1 s.
    big = ExperimentJob(
        Scenario.single("RE", config, seed_offset=50),
        duration=100 * tiny[0].cost_units() - config.warmup_s,
    )
    with QueueServer(tmp_path / "q") as server, SocketQueue(server.address) as client:
        client.submit_many(tiny + [big])
        assert [claimed.job for claimed in client.claim_many("w")] == [big]
        assert len(client.claim_many("w")) > 1


# -- crashes, failures and retries -------------------------------------------------------


def test_a_worker_killed_holding_a_batch_has_every_claim_requeued(tmp_path, config):
    root = tmp_path / "q"
    _calibrate(root, config, seconds_per_tiny_job=1e-4)
    # About half a second of wall each, but estimated as tiny: the
    # victim takes them two at a time (ceil(4 / (2 * 1)) = 2).
    jobs = [
        ExperimentJob(Scenario.single(name, config, seed_offset=i), duration=20.0)
        for i, name in enumerate(["RE", "ITP", "D2", "STK"])
    ]
    with QueueServer(root, heartbeat_timeout_s=0.5, sweep_interval_s=0.1) as server:
        client = SocketQueue(server.address)
        client.submit_many(jobs)
        victim = spawn_worker(
            addr=server.address,
            worker_id="victim",
            poll_s=0.02,
            heartbeat_s=0.1,
            log_dir=tmp_path / "logs",
        )
        try:
            _wait_for(lambda: client.counts().claimed == 2, what="the victim to claim a batch")
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=10)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()
        # Nothing of the batch was reported, and all of it comes back.
        _wait_for(
            lambda: client.counts().pending == len(jobs),
            timeout_s=10.0,
            what="the dead victim's batch to requeue",
        )
        assert client.counts().completed == 1  # the calibration row only
        rescuer = spawn_worker(
            addr=server.address,
            worker_id="rescuer",
            poll_s=0.02,
            heartbeat_s=0.1,
            log_dir=tmp_path / "logs",
        )
        try:
            _wait_for(
                lambda: client.counts().completed == len(jobs) + 1,
                timeout_s=120.0,
                what="the rescuer to drain the queue",
            )
        finally:
            rescuer.terminate()
            rescuer.wait(timeout=10)
        counts = client.counts()
        assert (counts.pending, counts.claimed, counts.failed) == (0, 0, 0)
        for job in jobs:
            assert client.result_entry(job.key())["result"].as_dict() == execute_job(job).as_dict()
        client.close()


def test_a_failing_job_mid_batch_fails_alone(tmp_path, config, monkeypatch):
    root = tmp_path / "q"
    _calibrate(root, config, seconds_per_tiny_job=0.001)
    jobs = _tiny(config, 6)
    bad = jobs[1]
    view = DirectoryQueue(root)
    seen: dict[str, bool] = {}

    def flaky_execute(job):
        if job == bad:
            raise RuntimeError("injected failure")
        if job == jobs[2]:
            # The batch is [0, 1, 2]: job 1's failure is already on
            # file, job 0's result is not (it is reported with job 2's).
            seen["failure recorded at once"] = view.failure(bad.key()) is not None
            seen["batch-mate still held"] = view.result_entry(jobs[0].key()) is None
        return {"value": float(jobs.index(job))}

    monkeypatch.setattr(worker_module, "execute_job", flaky_execute)
    with QueueServer(root) as server, SocketQueue(server.address) as client:
        client.submit_many(jobs)
        executed = run_worker(client, worker_id="w", poll_s=0.01, idle_timeout_s=0.2)
    assert seen == {"failure recorded at once": True, "batch-mate still held": True}
    assert executed == len(jobs) - 1
    marker = view.failure(bad.key())
    assert "injected failure" in marker["error"] and marker["worker"] == "w"
    for index, job in enumerate(jobs):
        if job != bad:
            assert view.result_entry(job.key())["result"] == {"value": float(index)}
    counts = view.counts()
    assert (counts.pending, counts.claimed, counts.failed) == (0, 0, 1)


def test_a_resent_batch_complete_rewrites_identical_rows(tmp_path, config):
    root = tmp_path / "q"
    _calibrate(root, config, seconds_per_tiny_job=0.001)
    view = DirectoryQueue(root)

    def rows(keys):
        conn = view.results.connection()
        marks = ",".join("?" * len(keys))
        results = conn.execute(
            "SELECT key, git_rev, schema, kind, duration, scenario_json, scenario_hash, "
            f"runtime_s, cost_units, entry FROM results WHERE key IN ({marks}) ORDER BY key",
            keys,
        ).fetchall()
        metrics = conn.execute(
            f"SELECT * FROM metrics WHERE key IN ({marks}) ORDER BY key, name", keys
        ).fetchall()
        return results, metrics

    with QueueServer(root) as server, SocketQueue(server.address) as client:
        client.submit_many(_tiny(config, 4))
        batch = client.claim_many("w")
        assert len(batch) == 2
        done = [(claimed, {"value": float(i)}, 0.01 * (i + 1)) for i, claimed in enumerate(batch)]
        keys = [claimed.key for claimed in batch]
        client.complete_many(done)
        first = rows(keys)
        head, _ = client.completed_since(None)
        client.complete_many(done)  # the retry of a COMPLETE whose reply was lost
        assert rows(keys) == first
        assert len(first[0]) == 2 and first[1]
        assert sorted(client.completed_since(head)[1]) == sorted((key, "result") for key in keys)
        assert client.counts().claimed == 0


# -- compatibility -----------------------------------------------------------------------


def test_a_batching_worker_drains_a_server_that_predates_batches(tmp_path, config, monkeypatch):
    """A pre-batch server ignores the batch fields and answers CLAIM
    with one job, and knows only the single-job COMPLETE form."""

    def pre_batch_claim(self, payload):
        return QueueServer._op_claim(self, {"worker": payload.get("worker")})

    def pre_batch_complete(self, payload):
        assert "results" not in payload, "a batch COMPLETE reached a pre-batch server"
        return QueueServer._op_complete(self, payload)

    handlers = dict(QueueServer._HANDLERS)
    handlers[MessageType.CLAIM] = pre_batch_claim
    handlers[MessageType.COMPLETE] = pre_batch_complete
    monkeypatch.setattr(QueueServer, "_HANDLERS", handlers)
    _calibrate(tmp_path / "q", config, seconds_per_tiny_job=0.001)
    jobs = _tiny(config, 4)
    monkeypatch.setattr(worker_module, "execute_job", lambda job: {"value": 1.0})
    with QueueServer(tmp_path / "q") as server, SocketQueue(server.address) as client:
        client.submit_many(jobs)
        assert run_worker(client, worker_id="w", poll_s=0.01, idle_timeout_s=0.2) == len(jobs)
        assert client.counts().completed == len(jobs) + 1


# -- serve binds loopback ----------------------------------------------------------------


def test_serve_binds_loopback_by_default(tmp_path):
    args = build_parser().parse_args(["serve", "--queue", str(tmp_path / "q")])
    assert args.host == "127.0.0.1"


def test_a_server_reachable_from_other_hosts_warns_once(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="repro.experiments.server"):
        with QueueServer(tmp_path / "a"):
            pass
        assert not [r for r in caplog.records if "reachable from other hosts" in r.message]
        with QueueServer(tmp_path / "b", host="0.0.0.0"):
            pass
    exposed = [r for r in caplog.records if "reachable from other hosts" in r.message]
    assert len(exposed) == 1
    assert "unauthenticated" in exposed[0].message and "unpickles" in exposed[0].message


# -- one scenario dict per entry ---------------------------------------------------------


def _canonical_sha256(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def test_entry_key_and_hash_match_the_job_on_a_sampled_population(config):
    spec = fleet.PopulationSpec(
        name="entry-hash-pop",
        benchmarks=("RE", "D2", "STK", "ITP"),
        mix_sizes={1: 2, 2: 1, 3: 1},
        instance_counts={1: 2, 2: 1},
        networks={"lan_1gbps": 2, "cellular_5g": 1},
        variants={"default": 2, "optimized": 1},
        config={"duration_s": 0.2, "warmup_s": 0.05},
    )
    jobs = fleet.population_jobs(spec, 60, seed=11)
    jobs += [
        ExperimentJob(jobs[0].scenario, duration=3.0),
        ExperimentJob(Scenario.single("RE", config, seed_offset=2), kind="inference"),
    ]
    for job in jobs:
        entry = build_entry(job, {"value": 1.0}, runtime_s=0.1)
        content = {k: v for k, v in job.scenario.to_dict().items() if k != "schema"}
        assert entry["key"] == job.key()
        assert entry["key"] == _canonical_sha256(
            {"kind": job.kind, "duration": job.duration, "scenario": content}
        )
        assert entry["scenario_hash"] == job.scenario.content_hash()
        assert entry["scenario_hash"] == _canonical_sha256(content)
        assert entry["scenario"] == job.scenario.to_dict()
