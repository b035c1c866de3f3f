"""Declarative experiment jobs: the unit of work of the execution subsystem.

An :class:`ExperimentJob` is now a thin wrapper around the canonical
:class:`~repro.scenarios.Scenario` value: ``(scenario, kind, duration)``.
The scenario says *what* runs (placements, machine, session variant,
network, seed policy); ``kind`` selects the executor routine and
``duration`` optionally overrides the measurement interval.  A job stays
a frozen, fully picklable value object, so it can be shipped to a worker
process, hashed into a cache key, and compared for deduplication.

:func:`execute_job` is the single entry point that turns a job into a
result.  It is a module-level function (required by
:class:`concurrent.futures.ProcessPoolExecutor`) and is deterministic:
the same job produces a bit-identical result whether executed serially,
in a worker process, or replayed from the on-disk cache.

The legacy keyword form ``ExperimentJob(benchmarks=..., config=...,
variant=JobVariant(...), seed_offset=...)`` is still accepted and builds
the equivalent scenario internally; new code should construct scenarios
directly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from repro.experiments.config import ExperimentConfig
# Submodule imports (not the repro.scenarios facade): this module loads
# while repro.scenarios may itself still be initializing.
from repro.scenarios.machines import MACHINE_SPECS, machine_spec
from repro.scenarios.scenario import (
    SCENARIO_SCHEMA_VERSION,
    Placement,
    Scenario,
    SeedPolicy,
    canonical_hash,
    hashed_content,
)
from repro.scenarios.variants import SessionVariant
from repro.server.host import CloudHost, HostResult

__all__ = ["CACHE_SCHEMA_VERSION", "ExperimentJob", "JobVariant",
           "execute_job", "machine_spec", "MACHINE_SPECS"]

#: Bump when the cached result layout (or the scenario schema) changes.
#: Stored *inside* every cache entry so stale provenance is detected and
#: logged instead of silently recomputed (see ``executor.ResultCache``).
CACHE_SCHEMA_VERSION = SCENARIO_SCHEMA_VERSION

#: Job kinds understood by :func:`execute_job`.
JOB_KINDS = ("host", "accuracy", "inference", "train", "methodology")


@dataclass(frozen=True)
class JobVariant:
    """Deprecated: the pre-scenario bundle of testbed knobs.

    Kept so existing callers (and pickled jobs) keep working; it simply
    splits into the scenario's :class:`SessionVariant` plus the
    host-level ``containerized`` / ``machine`` options.  New code should
    use :func:`repro.scenarios.session_variant` and scenario fields.
    """

    containerized: bool = False
    measurement_enabled: bool = True
    double_buffered_queries: bool = True
    memoize_window_attributes: bool = False
    two_step_frame_copy: bool = False
    slow_motion: bool = False
    machine: str = "paper"

    def __post_init__(self) -> None:
        if self.machine not in MACHINE_SPECS:
            raise ValueError(f"unknown machine spec {self.machine!r}; "
                             f"known: {sorted(MACHINE_SPECS)}")

    def split(self) -> tuple[SessionVariant, bool, str]:
        """(session variant, containerized, machine) for a scenario."""
        session = SessionVariant(
            measurement_enabled=self.measurement_enabled,
            double_buffered_queries=self.double_buffered_queries,
            memoize_window_attributes=self.memoize_window_attributes,
            two_step_frame_copy=self.two_step_frame_copy,
            slow_motion=self.slow_motion,
        )
        return session, self.containerized, self.machine

    def session_config(self):
        return self.split()[0].session_config()

    def pictor_config(self):
        return self.split()[0].pictor_config()

    @staticmethod
    def optimized(keys=None) -> "JobVariant":
        """The variant with the selected Section-6 optimizations enabled."""
        session = SessionVariant.optimized(keys)
        return JobVariant(**asdict(session))


@dataclass(frozen=True)
class ExperimentJob:
    """One independent unit of experiment work: ``(scenario, kind, duration)``.

    ``kind`` selects the executor routine:

    ``host``
        Build the scenario's :class:`~repro.server.host.CloudHost`, run it
        for the measurement interval (``duration`` when given, else the
        scenario config's) and return the
        :class:`~repro.server.host.HostResult`.
    ``accuracy``
        Train the intelligent client for the scenario's single benchmark
        (the training seed is offset by the seed policy) and run the
        five-methodology Table-3 comparison, returning an
        :class:`~repro.experiments.accuracy.AccuracyRow`.
    ``inference``
        Train the intelligent client for the scenario's single benchmark
        and measure its CNN/LSTM inference times (one Figure-7 row, a dict).
    ``train``
        Train (or warm-load) the scenario's single benchmark's intelligent
        client into the content-addressed artefact registry
        (:mod:`repro.agents.artifacts`) and return a provenance summary
        dict.  The seed policy's offset is the training-seed offset.
    ``methodology``
        Run one of the five Table-3 methodologies standalone, returning a
        :class:`~repro.experiments.accuracy.MethodologyResult`.  The seed
        policy's offset names the methodology (0–4 = H/IC/DB/CH/SM — the
        fused path's fixed run offsets) and the placement's agent carries
        the artefact reference (``intelligent@K`` / ``deskbench@K``).
    """

    scenario: Scenario
    kind: str = "host"
    duration: Optional[float] = None

    def __init__(self, scenario: Optional[Scenario] = None, kind: str = "host",
                 duration: Optional[float] = None, *,
                 benchmarks=None, config: Optional[ExperimentConfig] = None,
                 variant: Optional[JobVariant] = None, seed_offset: int = 0):
        if scenario is None:
            if benchmarks is None or config is None:
                raise TypeError("pass a Scenario, or the legacy benchmarks= "
                                "and config= keywords")
            session, containerized, machine = (variant or JobVariant()).split()
            scenario = Scenario(
                placements=tuple(Placement(b) for b in benchmarks),
                config=config, variant=session, machine=machine,
                containerized=containerized,
                seed=SeedPolicy(offset=seed_offset))
        elif (benchmarks is not None or config is not None
              or variant is not None or seed_offset):
            raise TypeError("pass either a Scenario or the legacy keywords, "
                            "not both")
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "duration", duration)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; "
                             f"known: {JOB_KINDS}")
        if self.kind != "host":
            if len(self.scenario.benchmarks) != 1:
                raise ValueError(f"{self.kind!r} jobs take exactly one "
                                 "benchmark")
            # The training executors only honor (benchmark, config, seed
            # offset); reject scenario knobs they would silently ignore —
            # otherwise the cache would stamp paper-machine bare-metal
            # results with the unhonored scenario.
            reference = Scenario(placements=self.scenario.placements,
                                 config=self.scenario.config,
                                 seed=SeedPolicy(
                                     offset=self.scenario.seed.offset))
            if self.scenario != reference:
                raise ValueError(
                    f"{self.kind!r} jobs support only default variant/"
                    "machine/network/host options and config-relative seeds")
            if self.kind == "methodology" and not 0 <= self.scenario.seed.offset <= 4:
                raise ValueError(
                    "'methodology' jobs encode the methodology in the seed "
                    "policy's offset (0..4 = H/IC/DB/CH/SM), got "
                    f"{self.scenario.seed.offset}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration override must be positive")

    # -- legacy views -----------------------------------------------------------------
    @property
    def benchmarks(self) -> tuple[str, ...]:
        return self.scenario.benchmarks

    @property
    def config(self) -> ExperimentConfig:
        return self.scenario.config

    @property
    def seed_offset(self) -> int:
        return self.scenario.seed.offset

    def effective_duration(self) -> float:
        return (self.scenario.config.duration_s if self.duration is None
                else self.duration)

    def cost_units(self) -> float:
        """The job's a-priori cost (see :meth:`Scenario.cost_units`).

        Units are comparable within one job kind; the executor's
        :class:`~repro.experiments.cost.CostModel` carries per-kind rates
        (``accuracy``/``inference`` jobs spend their time training, not
        simulating), calibrated from the runtimes stamped into cache
        entries.
        """
        return self.scenario.cost_units(self.duration)

    # -- identity ---------------------------------------------------------------------
    def key(self) -> str:
        """Content hash identifying this job's result in the cache."""
        return self.key_for(hashed_content(self.scenario.to_dict()))

    def key_for(self, scenario_content: dict) -> str:
        """:meth:`key` from the scenario's already-built
        :func:`~repro.scenarios.scenario.hashed_content` (a writer that
        also stores the scenario dict builds it once)."""
        return canonical_hash({"kind": self.kind, "duration": self.duration,
                               "scenario": scenario_content})

    def describe(self) -> str:
        """A short human-readable label for progress output."""
        label = self.scenario.describe()
        if self.kind != "host":
            label = f"{self.kind} {label}"
        if self.duration is not None:
            label += f" dur={self.duration:g}s"
        return label


def build_job_host(job: ExperimentJob) -> CloudHost:
    """Construct the (not yet run) testbed host a ``host`` job describes."""
    return job.scenario.build_host()


def _execute_host(job: ExperimentJob) -> HostResult:
    host = job.scenario.build_host()
    return host.run(duration=job.effective_duration(),
                    warmup=job.scenario.config.warmup_s,
                    fast_forward=job.scenario.config.fast_forward)


def _execute_accuracy(job: ExperimentJob):
    # Imported lazily: accuracy builds its job lists from this module.
    from repro.experiments.accuracy import (
        methodology_accuracy,
        prepare_intelligent_client,
    )
    benchmark = job.benchmarks[0]
    client, recording = prepare_intelligent_client(
        benchmark, job.config, seed_offset=job.seed_offset)
    return methodology_accuracy(benchmark, job.config,
                                client=client, recording=recording)


def _execute_inference(job: ExperimentJob):
    from repro.experiments.accuracy import inference_time_row
    return inference_time_row(job.benchmarks[0], job.config,
                              index=job.seed_offset)


def _execute_train(job: ExperimentJob):
    from repro.experiments.accuracy import train_for_job
    return train_for_job(job.benchmarks[0], job.config,
                         seed_offset=job.seed_offset)


def _execute_methodology(job: ExperimentJob):
    from repro.experiments.accuracy import methodology_result_for_job
    return methodology_result_for_job(job)


_EXECUTORS = {
    "host": _execute_host,
    "accuracy": _execute_accuracy,
    "inference": _execute_inference,
    "train": _execute_train,
    "methodology": _execute_methodology,
}


def execute_job(job: ExperimentJob):
    """Run one job to completion and return its (picklable) result."""
    return _EXECUTORS[job.kind](job)
