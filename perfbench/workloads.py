"""The benchmark's three workloads and the metrics they report.

Each workload is a loop of *cycles*: one set-up followed by one measured
pass.  The timed run repeats cycles until its time is up and reports
medians; the traced run times a few untraced cycles, then runs one or a
few cycles with spans and the profiler on (see :mod:`perfbench.tracing`).

``mix3``
    The two scenarios of ``examples/scenarios/mix3.json`` at the paper
    profile (120 s measured after 10 s of warm-up), built and run
    in-process one after the other, with no store.  The model layers do
    almost all the work and the job harness none.
``fleet_socket``
    The fleet population, :data:`SOCKET_JOBS` jobs at a time, drained
    through ``ExperimentSuite(backend="socket", workers=2)`` into a fresh
    result store.  The job queue, its transport and the store's write
    path do most of the work; each job's model work is small.
``fleet_replay``
    The whole population (:data:`POPULATION_JOBS` jobs), put in a warm
    store while the run is prepared (untimed), re-submitted on the serial
    backend so that every job is a store hit, then reported on with
    ``fleet_report``.  The store's read path and the SQL report do the
    work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro import fleet
from repro.core.pictor import Pictor
from repro.experiments import ExperimentSuite, ResultStore
from repro.experiments import worker as worker_module
from repro.experiments.jobs import ExperimentJob, execute_job
from repro.experiments.queue import DirectoryQueue
from repro.experiments.socket_queue import SocketQueue
from repro.scenarios import Scenario
from repro.scenarios.config import ExperimentConfig
from repro.server.host import CloudHost

from perfbench.tracing import SpanRecorder

ROOT = Path(__file__).resolve().parents[1]
MIX3_FILE = ROOT / "examples" / "scenarios" / "mix3.json"
DIGEST_FILE = Path(__file__).with_name("digests.json")

#: The seed whose outputs are pinned in ``digests.json``.
DEFAULT_SEED = 0

#: The tiny-job population of the fleet acceptance test
#: (``tests/test_fleet.py``): RE/D2/STK, mix sizes {1: 3, 2: 1}, 0.2 s
#: measured after 0.05 s of warm-up.
FLEET_SPEC = fleet.PopulationSpec(
    name="test-pop",
    benchmarks=("RE", "D2", "STK"),
    mix_sizes={1: 3, 2: 1},
    instance_counts={1: 1},
    networks={"lan_1gbps": 3, "cellular_5g": 1},
    variants={"default": 2, "optimized": 1},
    config={"duration_s": 0.2, "warmup_s": 0.05},
)
POPULATION_JOBS = 450
#: The socket drain runs at 12-18 jobs/s on a 2-core machine: 150 jobs
#: take 8-12 s.  How long a drain takes depends on which jobs it holds
#: as much as on how many, so successive drains take successive batches
#: of the population rather than repeating one.
SOCKET_JOBS = 150
#: Worker processes of the socket drain: one per core of the machine the
#: benchmark was sized on.
SOCKET_WORKERS = 2
#: Jobs outside the measured batch that start the socket workers.
WARMUP_JOBS = 2
#: Jobs re-executed in-process to check a socket drain on a seed whose
#: outputs are not pinned.
RECHECK_JOBS = 4

#: The ``repro`` packages the profile reports one row each for.
PROFILE_LAYERS = ("agents", "apps", "client", "core", "experiments",
                  "fleet", "graphics", "hardware", "network",
                  "optimizations", "scenarios", "server", "sim")


def result_digest(result) -> str:
    """A digest of a :class:`HostResult`'s canonical JSON form."""
    canonical = json.dumps(result.as_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def processed_events(env) -> int:
    """Kernel events dispatched so far: sequence ids handed out minus the
    events still queued (the count ``test_sim_core_speed`` also uses)."""
    return env._eid - len(env._queue) - len(env._fifo) - len(env._urgent)


def instance_sim_seconds(scenario: Scenario) -> float:
    """Simulated seconds times instances for one run of ``scenario``."""
    config = scenario.config
    return (config.duration_s + config.warmup_s) * len(scenario.instances)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (exclusive method), 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def model_means(results) -> dict:
    """The Cycle fields averaging the simulated outputs of ``results``."""
    reports = [report for result in results if result is not None
               for report in result.reports]
    if not reports:
        return {}
    return {"client_fps": statistics.fmean(r.client_fps for r in reports),
            "rtt_ms": statistics.fmean(r.mean_rtt_ms for r in reports)}


def guarded(call, fallback):
    """``call()``, or ``fallback`` once the traceback is printed: the
    caller's checks then count the operation as failed."""
    try:
        return call()
    except Exception:                   # noqa: BLE001 - counted as failed
        traceback.print_exc()
        return fallback


def load_digests() -> dict:
    return json.loads(DIGEST_FILE.read_text())


@dataclass
class Checks:
    """Operations attempted and failed; every failure is logged."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


@dataclass
class Cycle:
    """What one measured pass produced."""

    #: Wall time of the measured pass.
    wall_s: float
    #: Wall time the jobs took: the whole pass, less fleet_replay's report.
    jobs_s: float
    #: Host CPU seconds of the measured pass, workers included.
    cpu_s: float
    #: perf_counter stamps bounding the measured pass.
    window: tuple[float, float]
    #: Jobs completed, and their simulated seconds times instances.
    jobs: int
    sim_s: float
    #: Mean client FPS and input-to-display RTT over every instance run.
    client_fps: float = 0.0
    rtt_ms: float = 0.0
    #: Set-up time before the pass (filled in by the caller).
    setup_s: float = 0.0
    extra: dict = field(default_factory=dict)


class Workload:
    """One named workload: how to set it up, run it and check it.

    A cycle is :meth:`set_up` (timed as set-up), :meth:`measure` (the
    measured pass) and :meth:`tear_down` (untimed).
    """

    name = ""
    #: Modules whose import time counts in ``setup_s``.
    imports: tuple[str, ...] = ()
    #: Cycles in the traced pass.
    traced_cycles = 1

    def __init__(self, seed: int, work_dir: Path, checks: Checks):
        self.seed = seed
        self.work_dir = work_dir
        self.checks = checks

    def prepare(self) -> None:
        """Untimed preparation before the first cycle."""

    def set_up(self):
        raise NotImplementedError

    def measure(self, state) -> Cycle:
        raise NotImplementedError

    def tear_down(self, state) -> None:
        """Release what :meth:`set_up` made."""

    def close(self) -> None:
        """Release what :meth:`prepare` made."""

    def report_s(self, cycles: list[Cycle]) -> Optional[float]:
        return None


# -- mix3 -------------------------------------------------------------------------------


class Mix3(Workload):
    name = "mix3"
    imports = ("repro.scenarios",)

    def __init__(self, seed, work_dir, checks):
        super().__init__(seed, work_dir, checks)
        config = ExperimentConfig.paper(seed=seed)
        specs = json.loads(MIX3_FILE.read_text())
        self.scenarios = [Scenario.from_dict(spec, config=config)
                          for spec in specs]
        self.expected: Optional[list[str]] = (
            load_digests()["mix3"] if seed == DEFAULT_SEED else None)

    def set_up(self) -> list[CloudHost]:
        return [scenario.build_host() for scenario in self.scenarios]

    def measure(self, hosts: list[CloudHost]) -> Cycle:
        cpu_start = time.process_time()
        start = time.perf_counter()
        results = []
        for scenario, host in zip(self.scenarios, hosts):
            config = scenario.config
            results.append(guarded(lambda: host.run(
                duration=config.duration_s, warmup=config.warmup_s,
                fast_forward=config.fast_forward), None))
        end = time.perf_counter()
        cpu_s = time.process_time() - cpu_start
        events = sum(processed_events(host.env) for host in hosts)
        self._check(results)
        return Cycle(end - start, end - start, cpu_s, (start, end),
                     len(results), sum(map(instance_sim_seconds,
                                           self.scenarios)),
                     **model_means(results), extra={"events": events})

    def _check(self, results) -> None:
        digests = [None if result is None else result_digest(result)
                   for result in results]
        if self.expected is None and None not in digests:
            # No pinned outputs for this seed: every pass must repeat the
            # first one exactly.
            self.expected = digests
        for index, got in enumerate(digests):
            want = self.expected[index] if self.expected else None
            self.checks.check(got is not None and got == want,
                              f"mix3 scenario {index}: digest {got} != {want}")


# -- the fleet workloads ----------------------------------------------------------------


class Fleet(Workload):
    imports = ("repro.experiments", "repro.fleet")

    def fresh_dir(self, label: str) -> Path:
        path = self.work_dir / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def population(self, n: int) -> list[ExperimentJob]:
        return fleet.population_jobs(FLEET_SPEC, n, seed=self.seed)

    def pinned(self) -> Optional[dict[int, str]]:
        """Population index -> pinned result digest, for the default seed."""
        if self.seed != DEFAULT_SEED:
            return None
        pinned = load_digests()["population"]
        self.checks.check(
            fleet.population_digest(job.scenario for job in self.jobs)
            == pinned["population_digest"],
            "the sampled population differs from the pinned one")
        return dict(enumerate(pinned["results"]))

    def check_results(self, results, expected: dict[int, str], what: str,
                      first: int = 0) -> None:
        """Count each job, population index ``first`` onwards: a missing
        result or a digest off ``expected`` (index -> digest) fails it."""
        for index, result in enumerate(results, start=first):
            if result is None:
                self.checks.check(False, f"{what}: job {index} has no result")
            elif index in expected:
                got = result_digest(result)
                self.checks.check(got == expected[index],
                                  f"{what}: job {index} digest {got} != "
                                  f"{expected[index]}")
            else:
                self.checks.check(True, "")


def _proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process, from ``/proc``."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class FleetSocket(Fleet):
    name = "fleet_socket"

    def __init__(self, seed, work_dir, checks):
        super().__init__(seed, work_dir, checks)
        self.jobs = self.population(POPULATION_JOBS)
        self.warmup = [ExperimentJob(fleet.sample_one(
            FLEET_SPEC, POPULATION_JOBS + index, seed=seed))
            for index in range(WARMUP_JOBS)]
        self.expected = self.pinned()
        if self.expected is None:
            # Re-execute a few sampled jobs in-process; the backend must
            # return byte-equal results for them.
            picks = random.Random(seed).sample(range(POPULATION_JOBS),
                                               RECHECK_JOBS)
            self.expected = {index: result_digest(execute_job(self.jobs[index]))
                             for index in picks}
        self.drains = 0
        self.workers: list = []
        self._spawn = None

    def prepare(self) -> None:
        # Keep the worker processes the suite spawns, to read their CPU.
        self._spawn = spawn = worker_module.spawn_worker

        def spawn_worker(*args, **kwargs):
            proc = spawn(*args, **kwargs)
            self.workers.append(proc)
            return proc

        worker_module.spawn_worker = spawn_worker

    def close(self) -> None:
        if self._spawn is not None:
            worker_module.spawn_worker = self._spawn

    def _worker_cpu_s(self) -> float:
        return sum(_proc_cpu_s(proc.pid) for proc in self.workers)

    def set_up(self) -> ExperimentSuite:
        self.workers = []
        suite = ExperimentSuite(cache_dir=self.fresh_dir("store"),
                                backend="socket", workers=SOCKET_WORKERS,
                                queue_dir=self.fresh_dir("queue"))
        try:
            # Starts the server and the workers, and waits until the
            # workers have imported the program and run a job.
            suite.run(self.warmup)
        except BaseException:
            suite.close()
            raise
        return suite

    def tear_down(self, suite: ExperimentSuite) -> None:
        suite.close()

    def measure(self, suite: ExperimentSuite) -> Cycle:
        first = self.drains * SOCKET_JOBS % POPULATION_JOBS
        self.drains += 1
        batch = self.jobs[first:first + SOCKET_JOBS]
        executed = suite.stats.executed
        cpu_start = time.process_time() + self._worker_cpu_s()
        start = time.perf_counter()
        results = guarded(lambda: suite.run(batch), [None] * len(batch))
        end = time.perf_counter()
        cpu_s = time.process_time() + self._worker_cpu_s() - cpu_start
        executed = suite.stats.executed - executed
        self.checks.check(executed == len(batch),
                          f"socket drain executed {executed} of "
                          f"{len(batch)} jobs")
        self.check_results(results, self.expected, "socket drain", first)
        for index, result in enumerate(results, start=first):
            # A later drain of the same batch must repeat this one.
            if result is not None:
                self.expected.setdefault(index, result_digest(result))
        return Cycle(end - start, end - start, cpu_s, (start, end),
                     len(batch), sum(instance_sim_seconds(job.scenario)
                                     for job in batch),
                     **model_means(results), extra={"executed": executed})


class FleetReplay(Fleet):
    name = "fleet_replay"
    #: One replay has 450 store reads; three give the p99 read time more
    #: than ten samples beyond it.
    traced_cycles = 3

    def __init__(self, seed, work_dir, checks):
        super().__init__(seed, work_dir, checks)
        self.jobs = self.population(POPULATION_JOBS)
        self.store_dir = self.fresh_dir("warm-store")

    def prepare(self) -> None:
        """Fill the warm store on the serial backend (in-process
        execution); its results are what every replay must return."""
        with ExperimentSuite(cache_dir=self.store_dir) as suite:
            results = suite.run(self.jobs)
        pinned = self.pinned()
        if pinned is not None:
            self.check_results(results, pinned, "warm-store fill")
        self.expected = {index: result_digest(result)
                         for index, result in enumerate(results)}
        self.sim_s = sum(instance_sim_seconds(job.scenario)
                         for job in self.jobs)

    def set_up(self) -> tuple:
        jobs = fleet.population_jobs(FLEET_SPEC, POPULATION_JOBS,
                                     seed=self.seed)
        opened = time.perf_counter()
        suite = ExperimentSuite(cache_dir=self.store_dir)
        return jobs, suite, time.perf_counter() - opened

    def tear_down(self, state: tuple) -> None:
        state[1].close()

    def measure(self, state: tuple) -> Cycle:
        jobs, suite, store_open_s = state
        cpu_start = time.process_time()
        start = time.perf_counter()
        results = guarded(lambda: suite.run(jobs), [None] * len(jobs))
        replayed = time.perf_counter()
        report = guarded(lambda: fleet.fleet_report(
            suite.store, fleet.scenarios_by_key(jobs)), None)
        end = time.perf_counter()
        cpu_s = time.process_time() - cpu_start
        hits = suite.stats.cache_hits
        self.checks.check(hits == len(jobs),
                          f"replay hit the store for {hits} of "
                          f"{len(jobs)} jobs")
        covered = 0 if report is None else report.covered
        self.checks.check(covered == len(jobs),
                          f"fleet report covered {covered} of {len(jobs)} jobs")
        self.check_results(results, self.expected, "replay")
        return Cycle(end - start, replayed - start, cpu_s, (start, end),
                     len(jobs), self.sim_s, **model_means(results),
                     extra={"cache_hits": hits, "report_s": end - replayed,
                            "store_open_s": store_open_s})

    def report_s(self, cycles: list[Cycle]) -> Optional[float]:
        return median([cycle.extra["report_s"] for cycle in cycles])

    def close(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)


WORKLOADS = {workload.name: workload
             for workload in (Mix3, FleetSocket, FleetReplay)}


# -- metrics ------------------------------------------------------------------------------


def trace_entry_points(spans: SpanRecorder) -> None:
    """Wrap the entry points the traced pass records spans for."""
    spans.wrap(Scenario, "build_host", "Scenario.build_host")
    spans.wrap(CloudHost, "run", "CloudHost.run")
    spans.wrap(Pictor, "build_report", "Pictor.build_report")
    spans.wrap(ExperimentSuite, "run", "ExperimentSuite.run")
    spans.wrap(SocketQueue, "submit_many", "SocketQueue.submit_many")
    spans.wrap(SocketQueue, "result_entry", "SocketQueue.result_entry",
               value=lambda entry: float(entry is not None))
    spans.wrap(SocketQueue, "failure", "SocketQueue.failure")
    spans.wrap(ResultStore, "put", "ResultStore.put")
    spans.wrap(ResultStore, "get", "ResultStore.get")
    spans.wrap(ResultStore, "select_newest", "ResultStore.select_newest")
    spans.wrap(ResultStore, "metric_values", "ResultStore.metric_values")
    spans.wrap(DirectoryQueue, "requeue_stale", "DirectoryQueue.requeue",
               value=len)
    spans.wrap(DirectoryQueue, "requeue_worker", "DirectoryQueue.requeue",
               value=len)
    spans.wrap(fleet, "population_jobs", "population_jobs")
    spans.wrap(fleet, "fleet_report", "fleet_report")


def end_to_end(workload: Workload, cycles: list[Cycle], import_s: float,
               setups: list[float], peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of the timed cycles (tracing off)."""
    return {
        "setup_s": import_s + median(setups),
        "wall_s": median([c.wall_s for c in cycles]),
        "jobs_per_s": median([c.jobs / c.jobs_s for c in cycles]),
        "sim_rate": median([c.sim_s / c.cpu_s for c in cycles]),
        "peak_rss_mb": peak_rss_mb,
        "client_fps_mean": median([c.client_fps for c in cycles]),
        "rtt_ms_mean": median([c.rtt_ms for c in cycles]),
    }


def per_layer(workload: Workload, untraced: list[Cycle],
              traced: list[Cycle], spans: SpanRecorder,
              layer_seconds: dict[str, float],
              calibration: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md)."""
    rounds = len(traced)
    windows = [cycle.window for cycle in traced]

    def measured(name: str, thread_main: bool = True) -> list:
        source = (spans.main_thread(name) if thread_main
                  else [s for s in spans.spans if s.name == name])
        return [span for span in source
                if any(lo <= span.start <= hi for lo, hi in windows)]

    def seconds(name: str, only_measured: bool = True) -> float:
        chosen = measured(name) if only_measured else spans.main_thread(name)
        return sum(span.duration for span in chosen) / rounds

    metrics: dict[str, float] = {}
    profiled = sum(layer_seconds.values()) or 1.0
    for layer, value in layer_seconds.items():
        metrics[f"{layer}.self_share"] = value / profiled
        metrics[f"{layer}.self_s"] = value / rounds

    events = median([cycle.extra.get("events", 0) for cycle in traced])
    metrics["sim.events"] = events
    metrics["sim.cpu_us_per_event"] = (
        1e6 * median([c.cpu_s for c in untraced]) / events if events else 0.0)
    metrics["scenarios.build_host_s"] = seconds("Scenario.build_host",
                                                only_measured=False)
    metrics["server.host_run_s"] = seconds("CloudHost.run")
    metrics["core.build_report_s"] = seconds("Pictor.build_report")

    jobs = median([cycle.jobs for cycle in traced])
    entries = measured("SocketQueue.result_entry")
    failures = measured("SocketQueue.failure")
    runs = measured("ExperimentSuite.run")
    run_ids = {span.span_id for span in runs}
    metrics["experiments.submit_s"] = seconds("SocketQueue.submit_many")
    metrics["experiments.poll_rpcs_per_job"] = (
        (len(entries) + len(failures)) / rounds / jobs)
    metrics["experiments.poll_s"] = sum(
        span.duration for span in entries + failures) / rounds
    metrics["experiments.poll_hit_ratio"] = (
        sum(span.value for span in entries) / len(entries) if entries else 0.0)
    metrics["experiments.idle_s"] = (
        sum(span.duration for span in runs)
        - sum(span.duration for span in spans.spans
              if span.parent in run_ids)) / rounds
    puts = measured("ResultStore.put")
    metrics["experiments.store_put_s"] = sum(
        span.duration for span in puts) / rounds
    metrics["experiments.store_put_calls"] = len(puts) / rounds
    metrics["experiments.requeued"] = sum(
        span.value for span in measured("DirectoryQueue.requeue",
                                        thread_main=False)) / rounds

    gets = [span.duration for span in measured("ResultStore.get")]
    metrics["experiments.store_get_s"] = sum(gets) / rounds
    metrics["experiments.store_get_p50_ms"] = 1e3 * percentile(gets, 50)
    metrics["experiments.store_get_p99_ms"] = 1e3 * percentile(gets, 99)
    metrics["experiments.store_get_samples"] = len(gets)
    metrics["experiments.cache_hit_ratio"] = (
        sum(cycle.extra.get("cache_hits", 0) for cycle in traced)
        / rounds / jobs)
    metrics["experiments.store_open_s"] = median(
        [cycle.extra.get("store_open_s", 0.0) for cycle in traced])
    metrics["fleet.sample_s"] = seconds("population_jobs",
                                        only_measured=False)
    metrics["fleet.select_newest_s"] = seconds("ResultStore.select_newest")
    metrics["fleet.metric_values_s"] = seconds("ResultStore.metric_values")
    metrics["fleet.report_s"] = seconds("fleet_report")

    untraced_wall = median([c.wall_s for c in untraced])
    metrics["trace_overhead_frac"] = (
        median([c.wall_s for c in traced]) / untraced_wall - 1.0)
    metrics["host.calibration_ops_per_s"] = calibration
    return metrics
