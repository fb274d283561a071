"""Integration tests for the experiment runner."""

from dataclasses import fields

import pytest

from repro.cluster import MultiGpuServer
from repro.core.scheduler import OlympianScheduler
from repro.experiments import (
    ExperimentConfig,
    ExperimentResult,
    ServingStack,
    build_stack,
    get_graph,
    get_profiler_output,
    run_workload,
)
from repro.faults import FaultPlan, FaultSpec
from repro.recovery import RecoveryConfig
from repro.telemetry import TelemetryConfig
from repro.workloads import homogeneous_workload

FAST = ExperimentConfig(scale=0.02, quantum=0.8e-3, curve_batches=2)


class TestRunner:
    def test_tf_serving_run_completes(self):
        specs = homogeneous_workload(num_clients=3, num_batches=2)
        result = run_workload(specs, scheduler="tf-serving", config=FAST)
        assert result.completed
        assert result.scheduler is None
        assert result.quantum is None
        assert len(result.finish_times) == 3

    def test_fair_run_completes_with_quantum(self):
        specs = homogeneous_workload(num_clients=3, num_batches=2)
        result = run_workload(specs, scheduler="fair", config=FAST)
        assert result.completed
        assert result.quantum == FAST.quantum
        assert result.profiler_output is not None

    def test_unknown_scheduler_rejected(self):
        specs = homogeneous_workload(num_clients=2, num_batches=1)
        with pytest.raises(ValueError, match="unknown scheduler"):
            run_workload(specs, scheduler="magic", config=FAST)

    def test_graph_cache_returns_same_object(self):
        a = get_graph("inception_v4", 0.02, 1)
        b = get_graph("inception_v4", 0.02, 1)
        assert a is b

    def test_profiler_output_cached(self):
        entries = [("inception_v4", 100)]
        a = get_profiler_output(entries, FAST)
        b = get_profiler_output(entries, FAST)
        assert a is b

    def test_metric_accessors(self):
        specs = homogeneous_workload(num_clients=3, num_batches=2)
        result = run_workload(specs, scheduler="fair", config=FAST)
        assert 0.0 < result.utilization() <= 1.0
        lo, hi = result.all_active_window()
        assert lo < hi
        assert result.scheduling_intervals()
        assert set(result.quantum_gpu_durations()) <= {"c0", "c1", "c2"}

    def test_tf_serving_has_no_scheduler_metrics(self):
        specs = homogeneous_workload(num_clients=2, num_batches=1)
        result = run_workload(specs, scheduler="tf-serving", config=FAST)
        with pytest.raises(ValueError):
            result.quantum_gpu_durations()
        with pytest.raises(ValueError):
            result.scheduling_intervals()

    def test_timer_scheduler_uses_explicit_quantum(self):
        specs = homogeneous_workload(num_clients=2, num_batches=1)
        result = run_workload(specs, scheduler="timer", config=FAST)
        assert result.completed
        assert result.quantum == FAST.quantum

    def test_deterministic_given_config(self):
        specs = homogeneous_workload(num_clients=3, num_batches=2)
        a = run_workload(specs, scheduler="fair", config=FAST)
        b = run_workload(specs, scheduler="fair", config=FAST)
        assert a.finish_times == b.finish_times


@pytest.mark.parametrize(
    "field, value",
    [
        ("quantum", float("nan")),
        ("quantum", 0.0),
        ("quantum", -1e-3),
        ("quantum", float("inf")),
        ("tolerance", -1.0),
        ("tolerance", float("nan")),
        ("tolerance", float("inf")),
        ("scale", 0.0),
        ("scale", -0.05),
        ("scale", float("nan")),
        ("scale", float("inf")),
        ("wake_latency", -1e-6),
        ("wake_latency", float("nan")),
        ("wake_latency", float("inf")),
        ("curve_batches", 0),
        ("curve_batches", -2),
    ],
)
def test_experiment_config_rejects_bad_knobs(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


def test_experiment_config_accepts_boundary_values():
    config = ExperimentConfig(
        quantum=None, tolerance=0.0, wake_latency=0.0, curve_batches=1
    )
    assert config.quantum is None and config.curve_batches == 1


def test_result_exposes_the_stack_attributes_perfbench_reads():
    # perfbench summarises every run through these names.
    specs = homogeneous_workload(num_clients=2, num_batches=1)
    result = run_workload(specs, scheduler="fair", config=FAST)
    for name in ("sim", "server", "scheduler", "recovery", "telemetry"):
        assert hasattr(result, name), name
    assert result.sim.now > 0
    assert result.scheduler is result.server.scheduler
    assert result.recovery is None and result.telemetry is None
    assert result.total_failed_batches == 0
    digest = result.trace_digest()
    assert len(digest) == 64 and int(digest, 16) >= 0


def test_result_is_the_built_stack():
    specs = homogeneous_workload(num_clients=2, num_batches=1)
    result = run_workload(specs, scheduler="fair", config=FAST)
    assert isinstance(result, ServingStack)
    declared = {f.name for f in fields(ExperimentResult)} - {
        f.name for f in fields(ServingStack)
    }
    assert declared == {"clients", "fault_plan", "telemetry_rollup"}
    assert result.quantum == FAST.quantum


class TestMultiGpuStack:
    ENTRIES = [("inception_v4", 100)]

    def test_one_scheduler_per_worker_faults_on_worker_zero(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="device_crash", at=1e-3, duration=1e-3),
        ))
        stack = build_stack(
            self.ENTRIES, scheduler="fair", config=FAST, fault_plan=plan,
            recovery=RecoveryConfig(failover=True), gpus=2,
        )
        front = stack.server
        assert isinstance(front, MultiGpuServer) and front.num_gpus == 2
        assert stack.scheduler is None and stack.quantum is None
        schedulers = [worker.server.scheduler for worker in front.workers]
        assert all(isinstance(s, OlympianScheduler) for s in schedulers)
        assert schedulers[0] is not schedulers[1]
        assert {s.quantum for s in schedulers} == {FAST.quantum}
        assert front.workers[0].server.fault_injector is stack.injector
        assert front.workers[1].server.fault_injector is None
        assert front.recovery is stack.recovery
        assert front.model_names == ["inception_v4"]

    def test_same_server_config_as_one_gpu(self):
        one = build_stack(self.ENTRIES, scheduler="tf-serving", config=FAST)
        two = build_stack(
            self.ENTRIES, scheduler="tf-serving", config=FAST, gpus=2
        )
        assert two.server.config == one.server.config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gpus": 0},
            {"gpus": 2, "telemetry": TelemetryConfig()},
            {"gpus": 2, "monitor": True},
        ],
        ids=["gpus=0", "telemetry", "monitor"],
    )
    def test_rejected_shapes(self, kwargs):
        with pytest.raises(ValueError, match="gpus"):
            build_stack(self.ENTRIES, scheduler="fair", config=FAST, **kwargs)
