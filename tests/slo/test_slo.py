"""Tests for the SLO estimator and SLO admission through the gate."""

import pytest

from repro.core import (
    FairSharing,
    OlympianProfile,
    OlympianScheduler,
    ProfileStore,
)
from repro.graph import CostModel
from repro.serving import AdmissionConfig, AdmissionGate, ModelServer, ServerConfig
from repro.sim import Simulator
from repro.slo import FairShareEstimator


@pytest.fixture
def stack(tiny_graph):
    sim = Simulator()
    costs = CostModel(noise=0.0).exact(tiny_graph, 100)
    profile = OlympianProfile.from_cost_profile(
        costs, gpu_duration=tiny_graph.gpu_duration(100)
    )
    store = ProfileStore()
    store.add(profile)
    scheduler = OlympianScheduler(sim, FairSharing(), 0.5e-3, store)
    server = ModelServer(
        sim, ServerConfig(track_memory=False, seed=2), scheduler=scheduler
    )
    server.load_model(tiny_graph)
    # overhead matches the Overhead-Q curve at the operating Q=0.5ms
    estimator = FairShareEstimator(store, overhead=0.10, host_fraction=0.20)
    # SLO-only admission: load thresholds no test here can reach.
    gate = AdmissionGate(
        AdmissionConfig(max_active=64, headroom=1.0, defer=False),
        estimator=estimator,
    ).attach(server)
    return sim, server, gate, estimator, profile


class TestEstimator:
    def test_solo_estimate_close_to_demand(self, stack, tiny_graph):
        _, _, _, estimator, profile = stack
        estimate = estimator.estimate_latency(tiny_graph.name, 100, 0)
        assert estimate >= profile.gpu_duration
        assert estimate < 1.5 * profile.gpu_duration

    def test_estimate_scales_with_load(self, stack, tiny_graph):
        _, _, _, estimator, _ = stack
        solo = estimator.estimate_latency(tiny_graph.name, 100, 0)
        loaded = estimator.estimate_latency(tiny_graph.name, 100, 4)
        assert loaded > 4 * solo

    def test_estimate_is_an_upper_bound_solo(self, stack, tiny_graph):
        """The actual solo latency never exceeds the estimate."""
        sim, server, _, estimator, _ = stack
        estimate = estimator.estimate_latency(tiny_graph.name, 100, 0)
        job = server.make_job("c", tiny_graph.name, 100)
        server.submit(job)
        sim.run()
        assert job.latency <= estimate

    def test_estimate_is_an_upper_bound_loaded(self, stack, tiny_graph):
        """With N concurrent jobs the bound still holds."""
        sim, server, _, estimator, _ = stack
        n = 4
        estimate = estimator.estimate_latency(tiny_graph.name, 100, n - 1)
        jobs = [server.make_job(f"c{i}", tiny_graph.name, 100) for i in range(n)]
        for job in jobs:
            server.submit(job)
        sim.run()
        for job in jobs:
            assert job.latency <= estimate * 1.02

    def test_validation(self, stack, tiny_graph):
        _, _, _, estimator, _ = stack
        with pytest.raises(ValueError):
            estimator.estimate_latency(tiny_graph.name, 100, -1)
        store = ProfileStore()
        with pytest.raises(ValueError):
            FairShareEstimator(store, overhead=-0.1)


class TestAdmission:
    def test_admits_when_slo_attainable(self, stack, tiny_graph):
        sim, server, gate, _, profile = stack
        slo = profile.gpu_duration * 3
        job = server.make_job("c", tiny_graph.name, 100)
        decision = gate.submit(job, slo=slo)
        assert (decision.action, decision.reason) == ("admit", "headroom-ok")
        assert decision.done is not None
        sim.run()
        assert job.latency <= slo

    def test_rejects_hopeless_slo(self, stack, tiny_graph):
        _, server, gate, _, profile = stack
        job = server.make_job("c", tiny_graph.name, 100)
        decision = gate.submit(job, slo=profile.gpu_duration / 100)
        assert (decision.action, decision.reason) == ("reject", "slo-hopeless")
        assert decision.done is None
        assert gate.rejected == 1
        assert gate.admitted == 0

    def test_load_dependent_rejection(self, stack, tiny_graph):
        """An SLO attainable when idle is rejected under load."""
        sim, server, gate, _, profile = stack
        slo = profile.gpu_duration * 2.1
        first = server.make_job("a", tiny_graph.name, 100)
        assert gate.submit(first, slo=slo).action == "admit"
        # Second arrival while the first is active: share halves.
        second = server.make_job("b", tiny_graph.name, 100)
        assert gate.submit(second, slo=slo).action == "reject"
        sim.run()
        assert first.latency <= slo

    def test_slo_validation(self, stack, tiny_graph):
        """The boundary check: an SLO must be finite and > 0 (NaN too)."""
        _, server, gate, _, _ = stack
        for slo in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
            job = server.make_job("c", tiny_graph.name, 100)
            with pytest.raises(ValueError, match="SLO"):
                gate.submit(job, slo=slo)
        assert gate.decisions == {}
        assert server.active_jobs == 0

    def test_admitted_jobs_meet_slo_under_sustained_load(self, stack, tiny_graph):
        """The estimator's promise: whatever the gate admits, it delivers."""
        sim, server, gate, _, profile = stack
        slo = profile.gpu_duration * 4
        admitted = []

        def arrivals():
            for i in range(12):
                job = server.make_job(f"r{i}", tiny_graph.name, 100)
                if gate.submit(job, slo=slo).action == "admit":
                    admitted.append(job)
                yield sim.timeout(profile.gpu_duration / 2)

        sim.process(arrivals())
        sim.run()
        assert gate.admitted >= 3
        assert gate.rejected >= 1
        assert all(job.latency <= slo for job in admitted)
