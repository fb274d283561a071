"""Differential test: the streamed ``trace_digest`` against its oracle.

``trace_digest`` formats each tracer key's rows straight from the
tracer's raw tuples and hashes one joined chunk per key and per tail
section.  ``oracle_digest`` below is the earlier implementation, kept
verbatim: it materialises an :class:`Interval` per row and feeds every
line (and its newline) as separate ``update()`` calls.  SHA-256 depends
only on the concatenated bytes, so the two must agree exactly on every
input — real runs and degenerate hand-built traces alike.
"""

import hashlib
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FairSharing,
    OlympianProfile,
    OlympianScheduler,
    ProfileStore,
)
from repro.core.scheduler import Eviction, SchedulingDecision, Tenure
from repro.experiments import ExperimentConfig, run_workload
from repro.faults.determinism import trace_digest
from repro.gpu import GPU_GLOBAL_KEY
from repro.graph import CostModel
from repro.serving import JobFailed, ModelServer, ServerConfig
from repro.sim import IntervalTracer, Simulator
from repro.workloads import homogeneous_workload

FAST = ExperimentConfig(scale=0.02, quantum=0.8e-3, curve_batches=2)


# ----------------------------------------------------------------------
# The oracle: the pre-streaming trace_digest, unchanged
# ----------------------------------------------------------------------

def _feed(hasher, text: str) -> None:
    hasher.update(text.encode("utf-8"))
    hasher.update(b"\n")


def oracle_digest(server, scheduler=None, clients=None) -> str:
    hasher = hashlib.sha256()

    tracer = server.tracer
    for key in sorted(tracer.keys(), key=str):
        _feed(hasher, f"key:{key!r}")
        for interval in tracer.intervals(key):
            _feed(
                hasher,
                f"iv:{interval.start!r}:{interval.end!r}:{interval.tag!r}",
            )

    if scheduler is not None:
        for decision in scheduler.decisions:
            _feed(
                hasher,
                f"dec:{decision.time!r}:{decision.prev_job_id!r}"
                f":{decision.next_job_id!r}",
            )
        for tenure in scheduler.tenures:
            _feed(
                hasher,
                f"ten:{tenure.job_id}:{tenure.start!r}:{tenure.end!r}",
            )
        for eviction in getattr(scheduler, "evictions", []):
            _feed(
                hasher,
                f"ev:{eviction.time!r}:{eviction.job_id}:{eviction.reason}",
            )

    for job in server.completed_jobs:
        status = (
            "failed" if job.failed else
            "cancelled" if job.cancelled else "ok"
        )
        _feed(
            hasher,
            f"job:{job.job_id}:{job.submitted_at!r}:{job.finished_at!r}"
            f":{job.nodes_executed}:{status}",
        )

    if clients is not None:
        for client in clients:
            _feed(
                hasher,
                f"cl:{client.client_id}:{client.started_at!r}"
                f":{client.finished_at!r}:{client.timed_out_batches}"
                f":{getattr(client, 'failed_batches', 0)}"
                f":{getattr(client, 'retries', 0)}",
            )

    return hasher.hexdigest()


def assert_same(server, scheduler=None, clients=None):
    expected = oracle_digest(server, scheduler, clients)
    assert trace_digest(server, scheduler, clients) == expected
    return expected


def fake_server(tracer, jobs=()):
    return SimpleNamespace(tracer=tracer, completed_jobs=list(jobs))


def fake_job(job_id, failed=False, cancelled=False):
    return SimpleNamespace(
        job_id=job_id,
        submitted_at=0.25,
        finished_at=1.0 / 3.0,
        nodes_executed=7,
        failed=failed,
        cancelled=cancelled,
    )


# ----------------------------------------------------------------------
# Real runs
# ----------------------------------------------------------------------

@pytest.fixture(scope="module", params=["fair", "tf-serving"])
def real_run(request):
    specs = homogeneous_workload(num_clients=3, num_batches=2)
    return run_workload(specs, scheduler=request.param, config=FAST)


class TestRealRuns:
    def test_with_clients(self, real_run):
        digest = assert_same(
            real_run.server, real_run.scheduler, real_run.clients
        )
        assert digest == real_run.trace_digest()

    def test_without_clients(self, real_run):
        assert_same(real_run.server, real_run.scheduler)

    def test_without_scheduler(self, real_run):
        assert_same(real_run.server, None, real_run.clients)

    def test_run_has_rows_for_several_keys(self, real_run):
        keys = real_run.server.tracer.keys()
        assert GPU_GLOBAL_KEY in keys and len(keys) > 3

    def test_scheduler_with_evictions(self, tiny_graph):
        # The stall watchdog evicts the holder during an injected hang.
        sim = Simulator()
        costs = CostModel(noise=0.0).exact(tiny_graph, 100)
        store = ProfileStore()
        store.add(
            OlympianProfile.from_cost_profile(
                costs, gpu_duration=tiny_graph.gpu_duration(100)
            )
        )
        scheduler = OlympianScheduler(
            sim, FairSharing(), 10.0, store, stall_threshold=2e-3
        )
        server = ModelServer(
            sim, ServerConfig(track_memory=False, seed=0), scheduler=scheduler
        )
        server.load_model(tiny_graph)
        victim = server.make_job("victim", tiny_graph.name, 100)
        survivor = server.make_job("survivor", tiny_graph.name, 100)

        def script():
            done = server.submit(victim)
            server.submit(survivor)
            yield sim.timeout(1e-3)
            server.device.inject_hang(3e-3)
            try:
                yield done
            except JobFailed:
                pass

        sim.process(script())
        sim.run()
        assert scheduler.evictions
        assert any(job.failed for job in server.completed_jobs)
        assert_same(server, scheduler)


# ----------------------------------------------------------------------
# Degenerate inputs
# ----------------------------------------------------------------------

class TestDegenerate:
    def test_empty_tracer(self):
        server = fake_server(IntervalTracer())
        empty = hashlib.sha256().hexdigest()
        assert assert_same(server) == empty
        scheduler = SimpleNamespace(decisions=[], tenures=[], evictions=[])
        assert assert_same(server, scheduler, clients=[]) == empty

    def test_tag_types(self):
        tracer = IntervalTracer()
        for i, tag in enumerate(
            [None, "relu'1", 3, ("node", 4), (), -0.0, "ü", ("a", (None,))]
        ):
            tracer.record("k", float(i), i + 0.5, tag)
        tracer.record("k", 2.0, 2.0)  # zero-length span, default tag
        assert_same(fake_server(tracer))

    def test_non_finite_and_extreme_times(self):
        tracer = IntervalTracer()
        tracer.record("k", 0.0, math.inf)
        tracer.record("k", math.nan, math.nan)
        tracer.record("k", 5e-324, 1.7976931348623157e308)
        tracer.record("k", 0.1 + 0.2, 0.30000000000000004)
        assert_same(fake_server(tracer))

    def test_mixed_type_keys_sorted_by_str(self):
        tracer = IntervalTracer()
        # 1 and "1" tie under key=str: the stable sort keeps record
        # order, which both implementations see identically.
        for key in ["c2", 1, GPU_GLOBAL_KEY, ("job", 0), "1", None, 2.5]:
            tracer.record(key, 0.0, 1.0, tag=key)
        tracer.begin("open-only", 0.5)  # never closed: not a key
        assert "open-only" not in tracer.keys()
        assert_same(fake_server(tracer))

    def test_all_tails_and_statuses(self):
        tracer = IntervalTracer()
        tracer.record("c0-b0", 0.0, 0.1, "n1")
        scheduler = SimpleNamespace(
            decisions=[
                SchedulingDecision(0.0, None, "c0-b0"),
                SchedulingDecision(0.1, "c0-b0", None),
            ],
            tenures=[Tenure("c0-b0", "c0", "m", 0.0, 0.1)],
            evictions=[Eviction(0.05, "c1-b0", "stall threshold: 2e-3")],
        )
        jobs = [
            fake_job("c0-b0"),
            fake_job("c1-b0", failed=True),
            fake_job("c2-b0", cancelled=True),
            fake_job("c3-b0", failed=True, cancelled=True),
        ]
        clients = [
            SimpleNamespace(
                client_id="c0", started_at=0.0, finished_at=0.2,
                timed_out_batches=1, failed_batches=2, retries=3,
            ),
            # A client type without the robustness counters.
            SimpleNamespace(
                client_id="c1", started_at=0.0, finished_at=None,
                timed_out_batches=0,
            ),
        ]
        server = fake_server(tracer, jobs)
        assert_same(server, scheduler, clients)
        assert_same(server, scheduler)
        # A scheduler type with no eviction log at all.
        bare = SimpleNamespace(
            decisions=scheduler.decisions, tenures=scheduler.tenures
        )
        expected = assert_same(server, bare, clients)
        # Clients may be any one-shot iterable.
        assert trace_digest(server, bare, iter(clients)) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(-3, 3), st.text(max_size=3)),
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(min_value=0.0, max_value=1e6),
                st.one_of(
                    st.none(), st.integers(), st.text(max_size=4),
                    st.tuples(st.text(max_size=2), st.integers()),
                ),
            ),
            max_size=30,
        )
    )
    def test_random_rows(self, records):
        tracer = IntervalTracer()
        for key, start, length, tag in records:
            tracer.record(key, start, start + length, tag)
        assert_same(fake_server(tracer))
