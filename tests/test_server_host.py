"""Tests for the multi-tenant cloud host and the Pictor report assembly."""

import pytest

from repro.core.hooks import HOOK_HISTORY
from repro.core.pictor import PictorConfig
from repro.scenarios import ExperimentConfig, Scenario
from repro.server.host import CloudHost, HostConfig


def test_single_instance_run_produces_full_report():
    host = CloudHost(HostConfig(seed=3))
    host.add_instance("RE")
    result = host.run(duration=4.0, warmup=0.5)
    assert len(result.reports) == 1
    report = result.reports[0]
    assert report.benchmark == "RE"
    assert report.server_fps > 20
    assert report.client_fps > 15
    assert 0.02 < report.rtt.mean < 0.5
    assert report.cpu_utilization_cores > 0
    assert report.vnc_cpu_utilization_cores > 0
    assert 0.0 < report.gpu_utilization < 1.0
    assert report.network_send_mbps > 10
    assert report.pcie_from_gpu_gbps > 0
    assert report.inputs_completed > 0
    assert sum(report.cpu_pmu[k] for k in
               ("retiring", "frontend_bound", "backend_bound", "bad_speculation")) \
        == pytest.approx(1.0)
    assert result.average_power_watts > 100
    serialized = report.as_dict()
    assert serialized["benchmark"] == "RE"


def test_colocation_degrades_performance_and_amortizes_power():
    single_host = CloudHost(HostConfig(seed=4))
    single_host.add_instance("D2")
    single = single_host.run(duration=4.0, warmup=0.5)

    quad_host = CloudHost(HostConfig(seed=4))
    for _ in range(4):
        quad_host.add_instance("D2")
    quad = quad_host.run(duration=4.0, warmup=0.5)

    assert quad.mean_client_fps < single.mean_client_fps
    mean_quad_rtt = sum(r.rtt.mean for r in quad.reports) / 4
    assert mean_quad_rtt > single.reports[0].rtt.mean
    assert quad.per_instance_power_watts < single.per_instance_power_watts
    # L3 miss rate and backend stalls grow under colocation (Figures 14-15).
    assert quad.reports[0].cpu_pmu["l3_miss_rate"] > \
        single.reports[0].cpu_pmu["l3_miss_rate"]


def test_report_lookup_by_benchmark():
    host = CloudHost(HostConfig(seed=5))
    host.add_instance("RE")
    host.add_instance("ITP")
    result = host.run(duration=3.0, warmup=0.5)
    assert result.report_for("ITP").benchmark == "ITP"
    with pytest.raises(KeyError):
        result.report_for("STK")


def test_host_runs_only_once():
    host = CloudHost(HostConfig(seed=6))
    host.add_instance("RE")
    host.run(duration=2.0, warmup=0.5)
    with pytest.raises(RuntimeError):
        host.run(duration=2.0)


def test_host_validates_durations():
    host = CloudHost(HostConfig(seed=6))
    host.add_instance("RE")
    with pytest.raises(ValueError):
        host.run(duration=0.0)


def test_containerized_host_flags_sessions():
    host = CloudHost(HostConfig(seed=7, containerized=True))
    session = host.add_instance("RE")
    assert session.container is not None
    assert session.ipc_factor >= 1.0
    result = host.run(duration=3.0, warmup=0.5)
    assert result.reports[0].server_fps > 10


def test_measurement_disabled_host_reports_fps_only():
    host = CloudHost(HostConfig(seed=8, pictor=PictorConfig(measurement_enabled=False)))
    host.add_instance("RE")
    result = host.run(duration=3.0, warmup=0.5)
    report = result.reports[0]
    assert report.server_fps > 10
    assert report.rtt.count == 0        # no tracking without instrumentation


def test_per_event_records_stay_bounded_over_a_run():
    """PCIe transfers, GPU jobs, GL queries and hook fires leave no
    per-event list behind: the hook history is capped and only renders
    still in flight stay pending."""
    config = ExperimentConfig.quick()
    host = Scenario.single("RE", config=config).build_host()
    host.run(duration=config.duration_s, warmup=config.warmup_s)
    session = host.sessions[0]
    assert session.hooks.total_fires() > HOOK_HISTORY
    assert len(session.hooks.events) <= HOOK_HISTORY
    pending = session.gl._pending_renders.values()
    assert all(process.is_alive for process in pending)
    assert len(pending) < 5
    for component in (host.machine.pcie, session.render_context, session.gl):
        assert not [name for name, value in vars(component).items()
                    if isinstance(value, list)], component
