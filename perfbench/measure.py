"""One benchmark run: set up, repeat cycles, check, and summarise."""

from __future__ import annotations

import cProfile
import gc
import importlib.util
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench.tracing import SpanRecorder, layer_profile
from perfbench.workloads import (
    PROFILE_LAYERS,
    ROOT,
    WORKLOADS,
    Checks,
    Cycle,
    Workload,
    end_to_end,
    median,
    per_layer,
    trace_entry_points,
)

#: Fresh interpreters timed importing a workload's modules, and set-ups
#: timed at least; the median of each goes into ``setup_s``.  Imports
#: take well under a second and vary most, so they get more samples.
IMPORT_SAMPLES = 9
SETUP_SAMPLES = 5


@dataclass
class Outcome:
    metrics: dict[str, float]
    checks: Checks


def import_seconds(modules: tuple[str, ...]) -> float:
    """Median time a fresh interpreter takes to import ``modules``."""
    code = ("import time; started = time.perf_counter(); "
            + "; ".join(f"import {module}" for module in modules)
            + "; print(time.perf_counter() - started)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return median(samples)


def calibration_score() -> float:
    """The machine-speed yardstick of the kernel microbenchmark, so that
    readers on other machines can normalise the figures."""
    path = ROOT / "benchmarks" / "test_sim_core_speed.py"
    spec = importlib.util.spec_from_file_location("sim_core_speed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.calibrate()


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def set_up(workload: Workload):
    """(state, seconds) of one timed set-up."""
    gc.collect()
    started = time.perf_counter()
    state = workload.set_up()
    return state, time.perf_counter() - started


def cycle(workload: Workload) -> Cycle:
    state, setup_s = set_up(workload)
    try:
        done = workload.measure(state)
    finally:
        workload.tear_down(state)
    done.setup_s = setup_s
    return done


def cycles_for(workload: Workload, seconds: float) -> list[Cycle]:
    """Cycles for ``seconds``: one more starts only while the time left
    holds another as long as the last, and there is at least one."""
    cycles: list[Cycle] = []
    started = time.perf_counter()
    last = 0.0
    while not cycles or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        cycles.append(cycle(workload))
        last = time.perf_counter() - begun
    return cycles


def setup_seconds(workload: Workload, cycles: list[Cycle]) -> list[float]:
    """The cycles' set-up times, topped up to :data:`SETUP_SAMPLES` by
    set-ups that measure nothing."""
    samples = [c.setup_s for c in cycles]
    while len(samples) < SETUP_SAMPLES:
        state, seconds = set_up(workload)
        workload.tear_down(state)
        samples.append(seconds)
    return samples


def traced_pass(workload: Workload) -> tuple[list[Cycle], SpanRecorder,
                                              dict[str, float]]:
    profile = cProfile.Profile()
    with SpanRecorder() as spans:
        trace_entry_points(spans)
        profile.enable()
        try:
            cycles = [cycle(workload)
                      for _ in range(workload.traced_cycles)]
        finally:
            profile.disable()
    return cycles, spans, layer_profile(profile, PROFILE_LAYERS)


def summary(workload: Workload, cycles: list[Cycle], metrics: dict,
            checks: Checks) -> None:
    """Print every end-to-end metric the workload has, by name and unit."""
    report_s = workload.report_s(cycles)
    lines = [
        ("setup_s", metrics["setup_s"], "s"),
        ("wall_s", metrics["wall_s"], "s"),
        ("sim_rate", metrics["sim_rate"], "inst-sim-s/cpu-s"),
        ("jobs_per_s", metrics["jobs_per_s"], "jobs/s"),
        ("report_s", report_s, "s"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ("failed_frac", checks.failed / max(checks.attempted, 1), "fraction"),
        ("client_fps_mean", metrics["client_fps_mean"], "frames/s"),
        ("rtt_ms_mean", metrics["rtt_ms_mean"], "ms"),
    ]
    print(f"# {workload.name}: {len(cycles)} cycle(s) of "
          f"{cycles[0].jobs} job(s); wall_s per cycle: "
          + " ".join(f"{c.wall_s:.4g}" for c in cycles))
    for name, value, unit in lines:
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        print(f"#   {name:<16} {shown}")


def run(name: str, seed: int, seconds: float, traced: bool, work_dir: Path,
        trace_dir: Path) -> Outcome:
    checks = Checks()
    workload = WORKLOADS[name](seed, work_dir, checks)
    try:
        import_s = import_seconds(workload.imports)
        calibration = calibration_score()
        print(f"# calibration {calibration:.6g} ops/s")
        workload.prepare()
        cycles = cycles_for(workload, seconds / 2 if traced else seconds)
        setups = setup_seconds(workload, cycles)
        metrics = end_to_end(workload, cycles, import_s, setups,
                             peak_rss_mb())
        summary(workload, cycles, metrics, checks)
        if traced:
            traced_cycles, spans, layers = traced_pass(workload)
            metrics = per_layer(workload, cycles, traced_cycles, spans,
                                layers, calibration)
            spans.write(trace_dir / f"{name}-seed{seed}.json",
                        {"workload": name, "seed": seed,
                         "layer_self_s": layers, "metrics": metrics})
    finally:
        workload.close()
    return Outcome(metrics, checks)
