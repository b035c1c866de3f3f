"""Multicore CPU model with contention, utilization and Top-Down accounting.

The model is an *effective-rate* model: every piece of CPU work declares a
nominal service time (the time it would take on an idle machine) and a
demand (how many cores' worth of parallelism it uses).  The CPU tracks the
total demand of all concurrently running work; when demand exceeds the
core count, everything currently running is slowed down proportionally.
Memory-boundness adds a further penalty derived from the shared last-level
cache model.

The CPU also keeps Top-Down cycle accounting (retiring / front-end /
back-end / bad-speculation) per thread so the Pictor PMU reader can
reproduce Figure 14, and exposes time-weighted utilization for Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.engine import Environment, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.hardware.memory import MemorySystem

__all__ = ["Cpu", "CpuSpec", "CpuThread", "CycleBreakdown", "StageCpuProfile"]


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a CPU package.

    The defaults model the paper's server part (Intel i7-7820X): 8 cores at
    a nominal 3.6 GHz with an 11 MB L3.
    """

    cores: int = 8
    frequency_ghz: float = 3.6
    l3_mb: float = 11.0
    smt: int = 1

    @property
    def hardware_threads(self) -> int:
        return self.cores * self.smt

    @property
    def cycles_per_second(self) -> float:
        return self.frequency_ghz * 1e9


@dataclass
class CycleBreakdown:
    """Top-Down level-1 cycle accounting."""

    retiring: float = 0.0
    frontend_bound: float = 0.0
    backend_bound: float = 0.0
    bad_speculation: float = 0.0

    @property
    def total(self) -> float:
        return (self.retiring + self.frontend_bound
                + self.backend_bound + self.bad_speculation)

    def add(self, other: "CycleBreakdown") -> None:
        self.retiring += other.retiring
        self.frontend_bound += other.frontend_bound
        self.backend_bound += other.backend_bound
        self.bad_speculation += other.bad_speculation

    def fractions(self) -> dict[str, float]:
        """Normalized shares; zeros if no cycles were recorded yet."""
        total = self.total
        if total <= 0:
            return {"retiring": 0.0, "frontend_bound": 0.0,
                    "backend_bound": 0.0, "bad_speculation": 0.0}
        return {
            "retiring": self.retiring / total,
            "frontend_bound": self.frontend_bound / total,
            "backend_bound": self.backend_bound / total,
            "bad_speculation": self.bad_speculation / total,
        }


@dataclass(frozen=True)
class StageCpuProfile:
    """How a pipeline stage uses the CPU.

    ``demand``
        Cores' worth of parallelism while the stage runs (e.g. 1.6 for an
        application-logic stage that keeps ~1.6 cores busy).
    ``memory_intensity``
        Fraction of the stage's nominal time that is exposed to the memory
        system; higher values mean the stage slows down more when the L3
        miss rate rises (uncached CPU→GPU upload buffers behave this way).
    ``base_retiring`` / ``base_frontend`` / ``base_bad_speculation``
        Baseline Top-Down shares when memory is uncontended.  The remaining
        share is back-end bound and grows with memory pressure.
    ``working_set_mb``
        The stage's contribution to L3 pressure.
    """

    demand: float = 1.0
    memory_intensity: float = 0.5
    base_retiring: float = 0.30
    base_frontend: float = 0.10
    base_bad_speculation: float = 0.05
    working_set_mb: float = 4.0

    def __post_init__(self) -> None:
        base = self.base_retiring + self.base_frontend + self.base_bad_speculation
        if base >= 1.0:
            raise ValueError(
                "baseline Top-Down shares must leave room for back-end stalls, "
                f"got {base:.2f} >= 1.0"
            )
        if self.demand <= 0:
            raise ValueError(f"CPU demand must be positive, got {self.demand}")
        if not 0.0 <= self.memory_intensity <= 1.0:
            raise ValueError(
                f"memory_intensity must be in [0, 1], got {self.memory_intensity}"
            )


class CpuThread:
    """A software thread registered on a :class:`Cpu`.

    Pipeline stages call :meth:`run` to burn CPU time.  The thread keeps
    its own Top-Down cycle accounting and busy-time integral so per-process
    utilization (application vs. VNC proxy) can be reported separately.
    """

    def __init__(self, cpu: "Cpu", name: str, owner: str = ""):
        self.cpu = cpu
        self.name = name
        self.owner = owner or name
        self.cycles = CycleBreakdown()
        self.busy_time = 0.0
        self.core_seconds = 0.0

    def run(self, nominal_time: float, profile: StageCpuProfile):
        """Generator: occupy the CPU for ``nominal_time`` of idle-machine work.

        The actual elapsed time reflects core oversubscription and memory
        contention at the moment the work starts.  Yields exactly one
        timeout, so callers embed it with ``yield from thread.run(...)``.
        """
        if nominal_time < 0:
            raise SimulationError(f"negative CPU time requested: {nominal_time}")
        if nominal_time == 0:
            return 0.0

        self.cpu._begin_work(profile.demand)
        try:
            slowdown = self.cpu.scheduling_slowdown()
            memory_penalty = self.cpu.memory_penalty(profile)
            actual = nominal_time * slowdown * memory_penalty
            yield self.cpu.env.timeout(actual)
        finally:
            self.cpu._end_work(profile.demand)

        self._account(nominal_time, actual, profile)
        return actual

    def _account(self, nominal: float, actual: float,
                 profile: StageCpuProfile) -> None:
        self.busy_time += actual
        self.core_seconds += actual * min(profile.demand, self.cpu.spec.cores)
        cycles = actual * self.cpu.spec.cycles_per_second * min(
            profile.demand, self.cpu.spec.cores)
        base_backend = 1.0 - (profile.base_retiring + profile.base_frontend
                              + profile.base_bad_speculation)
        # Extra stall cycles beyond the idle-machine baseline are attributed
        # to the back end: that is where memory contention shows up.
        stretch = max(actual / nominal, 1.0) if nominal > 0 else 1.0
        extra_backend = 1.0 - 1.0 / stretch
        scale = 1.0 - extra_backend
        total = self.cycles
        total.retiring += cycles * profile.base_retiring * scale
        total.frontend_bound += cycles * profile.base_frontend * scale
        total.bad_speculation += cycles * profile.base_bad_speculation * scale
        total.backend_bound += cycles * (base_backend * scale + extra_backend)

    def utilization(self, elapsed: float) -> float:
        """Average core occupancy over ``elapsed`` seconds (1.0 == one core)."""
        if elapsed <= 0:
            return 0.0
        return self.core_seconds / elapsed


class Cpu:
    """The shared multicore CPU of a server or client machine."""

    def __init__(self, env: Environment, spec: Optional[CpuSpec] = None,
                 memory: Optional["MemorySystem"] = None):
        self.env = env
        self.spec = spec or CpuSpec()
        self.memory = memory
        self.threads: list[CpuThread] = []
        self._active_demand = 0.0
        self._last_change = env.now
        self._demand_integral = 0.0

    # -- thread management ---------------------------------------------------
    def thread(self, name: str, owner: str = "") -> CpuThread:
        t = CpuThread(self, name, owner)
        self.threads.append(t)
        return t

    # -- contention ------------------------------------------------------------
    @property
    def active_demand(self) -> float:
        return self._active_demand

    def scheduling_slowdown(self) -> float:
        """Slowdown due to runnable demand exceeding the core count."""
        if self._active_demand <= self.spec.cores:
            return 1.0
        return self._active_demand / self.spec.cores

    def memory_penalty(self, profile: StageCpuProfile) -> float:
        """Slowdown from shared-cache / DRAM contention for this stage."""
        if self.memory is None:
            return 1.0
        return self.memory.cpu_stall_factor(profile.memory_intensity)

    def _begin_work(self, demand: float) -> None:
        self._integrate()
        self._active_demand += demand
        if self.memory is not None:
            self.memory.register_pressure(demand)

    def _end_work(self, demand: float) -> None:
        self._integrate()
        self._active_demand = max(0.0, self._active_demand - demand)
        if self.memory is not None:
            self.memory.release_pressure(demand)

    def _integrate(self) -> None:
        now = self.env.now
        span = now - self._last_change
        if span > 0:
            self._demand_integral += min(self._active_demand, self.spec.cores) * span
            self._last_change = now

    # -- reporting ---------------------------------------------------------------
    def demand_core_seconds(self) -> float:
        """The busy-core integral so far (fast-forward probe seam)."""
        self._integrate()
        return self._demand_integral

    def record_synthetic_demand(self, core_seconds: float) -> None:
        """Credit ``core_seconds`` of busy-core time skipped by a macro jump."""
        if core_seconds < 0:
            raise ValueError("synthetic core-seconds cannot be negative")
        self._integrate()
        self._demand_integral += core_seconds

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Machine-wide utilization in "cores busy" (e.g. 2.66 == 266%).

        Without an explicit horizon the virtual clock is used: the
        integral includes macro-jump credit, so dividing by the virtual
        elapsed keeps post-jump samples consistent (identical to
        ``env.now`` when fast-forward never fired).
        """
        self._integrate()
        horizon = elapsed if elapsed is not None else self.env.virtual_now
        if horizon <= 0:
            return 0.0
        return self._demand_integral / horizon

    def utilization_by_owner(self, elapsed: float) -> dict[str, float]:
        """Per-owner core occupancy (application vs. proxy processes)."""
        result: dict[str, float] = {}
        for thread in self.threads:
            result[thread.owner] = result.get(thread.owner, 0.0) + thread.utilization(elapsed)
        return result

    def cycle_breakdown(self, owner: Optional[str] = None) -> CycleBreakdown:
        """Aggregate Top-Down cycles, optionally restricted to one owner."""
        total = CycleBreakdown()
        for thread in self.threads:
            if owner is None or thread.owner == owner:
                total.add(thread.cycles)
        return total
