"""Integration tests for the experiment runner."""

import pytest

from repro.experiments import (
    ExperimentConfig,
    get_graph,
    get_profiler_output,
    run_workload,
)
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
