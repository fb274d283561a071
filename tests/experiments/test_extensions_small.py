"""Small-scale tests for the extension experiments."""

import hashlib
import json

import pytest

from repro.experiments import (
    energy_comparison,
    latency_predictability,
    multigpu_scaling,
    slo_attainment,
)


class TestLatencyPredictability:
    def test_runs_and_reports(self):
        result = latency_predictability(
            num_requests=30, scale=0.02, quantum=0.8e-3
        )
        assert "open-loop" in result.report()
        assert set(result.latencies) == {"tf-serving", "fair"}
        for kind in result.latencies:
            assert len(result.latencies[kind]) == 30
            assert result.p50(kind) > 0
            assert result.tail_ratio(kind) >= 1.0

    def test_explicit_rate(self):
        result = latency_predictability(
            arrival_rate=10.0, num_requests=10, scale=0.02, quantum=0.8e-3
        )
        assert result.arrival_rate == 10.0


class TestMultiGpuScaling:
    def test_speedup_monotone(self):
        result = multigpu_scaling(
            gpu_counts=(1, 2), num_clients=4, num_batches=2, scale=0.02,
            quantum=0.8e-3,
        )
        assert result.speedup(1) == 1.0
        assert result.speedup(2) > 1.3
        assert "multi-GPU" in result.report()

    def test_makespans_and_fairness_pinned(self):
        # Computed with the extension's hand-built Olympian schedulers,
        # before they came from the runner's scheduler factory.
        result = multigpu_scaling(gpu_counts=(1, 2), num_clients=4,
                                  num_batches=2)
        payload = [[n, result.makespans[n], result.fairness[n]]
                   for n in result.gpu_counts]
        assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == (
            "3d6861d7c4f073e10532bb827fa31869ba1611f52248ae41c405d4130700bfd2"
        )

    def test_fairness_on_every_size(self):
        result = multigpu_scaling(
            gpu_counts=(1, 2), num_clients=4, num_batches=2, scale=0.02,
            quantum=0.8e-3,
        )
        for count in result.gpu_counts:
            assert result.fairness[count] > 0.95


class TestEnergy:
    def test_all_schedulers_measured(self):
        result = energy_comparison(num_clients=3, num_batches=2, scale=0.02)
        assert set(result.energy) == {
            "tf-serving", "fair", "weighted", "priority"
        }
        for kind, joules in result.energy.items():
            assert joules > 0
            assert result.joules_per_request(kind) > 0
        assert "energy" in result.report()

    def test_energy_tracks_makespan_ordering(self):
        """Longer makespan cannot cost less energy (idle power > 0)."""
        result = energy_comparison(num_clients=3, num_batches=2, scale=0.02)
        kinds = sorted(result.energy, key=result.makespans.get)
        energies = [result.energy[k] for k in kinds]
        # Not strictly monotone (busy fraction differs) but correlated:
        # the cheapest run is not the longest one.
        assert result.makespans[kinds[0]] <= result.makespans[kinds[-1]]
        assert energies[0] <= max(energies)


class TestSlo:
    def test_admission_dominates(self):
        result = slo_attainment(num_requests=40, scale=0.02, quantum=0.8e-3)
        assert set(result.attainment) == {
            "tf-serving", "fair", "fair+admission"
        }
        assert result.attainment["fair+admission"] >= max(
            result.attainment["tf-serving"], result.attainment["fair"]
        )
        assert result.rejected["fair+admission"] > 0
        assert result.rejected["tf-serving"] == 0
        assert "SLO" in result.report()
