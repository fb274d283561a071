"""Differential parity: the one open-loop path against the code it replaced.

The arrival-time processes, the ``iter_*`` trace generators and the
trace driver used to exist twice: ``TrafficEngine._times`` carried its
own copy of the three loops, ``trace.iter_*`` another, and traces were
served by a dedicated ``replay`` driver.  Those earlier implementations
are kept below, unchanged, as oracles:

* the shared time processes must regenerate their streams bit for bit
  (hypothesis over parameters and seeds, including an endless
  ``duration=None`` stream and an idle rate of 0);
* ``drive(as_arrivals(trace))`` must produce the latencies ``replay``
  did, on a single-GPU and a multi-GPU front;
* the raw latency lists of the ``ext-latency`` and ``ext-slo`` runs
  are pinned by sha256 (values computed with the replaced code).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import LeastLoadedPlacement, MultiGpuServer
from repro.core import (
    FairSharing,
    OlympianProfile,
    OlympianScheduler,
    ProfileStore,
)
from repro.experiments.extensions import latency_predictability, slo_attainment
from repro.graph import CostModel
from repro.serving import ModelServer, ServerConfig
from repro.sim import Simulator
from repro.sim.rng import derive_seed
from repro.workloads import trace as lib
from repro.workloads.trace import TraceRequest
from repro.workloads.traffic import (
    ModelMix,
    TrafficConfig,
    TrafficEngine,
    drive,
)

# ----------------------------------------------------------------------
# Oracles: the replaced implementations, verbatim
# ----------------------------------------------------------------------


class _ReplacedEngine:
    """Holds the replaced ``TrafficEngine._times`` (method body verbatim)."""

    def __init__(self, config: TrafficConfig, seed: int = 0):
        self.config = config
        self.seed = seed

    def _times(self) -> Iterator[float]:
        """Lazy arrival instants for the configured process."""
        config = self.config
        rng = random.Random(
            derive_seed(self.seed, f"traffic:times:{config.process}")
        )
        duration = config.duration
        horizon = math.inf if duration is None else duration
        t = 0.0
        if config.process == "poisson":
            while True:
                t += rng.expovariate(config.rate)
                if t > horizon:
                    return
                yield t
        elif config.process == "diurnal":
            base = config.rate
            peak = config.rate * config.peak_ratio
            period = config.period
            if period is None:
                period = duration if duration is not None else 1.0
            while True:
                t += rng.expovariate(peak)
                if t > horizon:
                    return
                phase = math.sin(2 * math.pi * t / period - math.pi / 2)
                rate = base + (peak - base) * (phase + 1) / 2
                if rng.random() <= rate / peak:
                    yield t
        else:  # bursty (MMPP-2)
            burst = config.rate * config.burst_ratio
            idle = config.rate * config.idle_ratio
            bursting = True
            phase_end = rng.expovariate(1.0 / config.mean_burst)
            while t < horizon:
                rate = burst if bursting else idle
                if rate <= 0:
                    t = phase_end
                else:
                    t += rng.expovariate(rate)
                    if t <= min(phase_end, horizon):
                        yield t
                if t >= phase_end:
                    bursting = not bursting
                    mean = (
                        config.mean_burst if bursting else config.mean_idle
                    )
                    phase_end = t + rng.expovariate(1.0 / mean)


def iter_poisson(
    rate: float,
    duration: float,
    model: str,
    batch_size: int,
    seed: int = 0,
    slo: Optional[float] = None,
) -> Iterator[TraceRequest]:
    """Lazily yield steady Poisson arrivals at ``rate``/s."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(derive_seed(seed, "trace:poisson"))
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t > duration:
            return
        yield TraceRequest(t, model, batch_size, slo)



def iter_diurnal(
    base_rate: float,
    peak_rate: float,
    duration: float,
    model: str,
    batch_size: int,
    period: Optional[float] = None,
    seed: int = 0,
    slo: Optional[float] = None,
) -> Iterator[TraceRequest]:
    """Lazily yield sinusoidally modulated arrivals (thinned Poisson)."""
    if not 0 < base_rate <= peak_rate:
        raise ValueError("need 0 < base_rate <= peak_rate")
    if duration <= 0:
        raise ValueError("duration must be positive")
    period = period if period is not None else duration
    rng = random.Random(derive_seed(seed, "trace:diurnal"))
    t = 0.0
    while True:
        t += rng.expovariate(peak_rate)
        if t > duration:
            return
        phase = math.sin(2 * math.pi * t / period - math.pi / 2)  # trough first
        rate = base_rate + (peak_rate - base_rate) * (phase + 1) / 2
        if rng.random() <= rate / peak_rate:
            yield TraceRequest(t, model, batch_size, slo)



def iter_bursty(
    burst_rate: float,
    idle_rate: float,
    mean_burst: float,
    mean_idle: float,
    duration: float,
    model: str,
    batch_size: int,
    seed: int = 0,
    slo: Optional[float] = None,
) -> Iterator[TraceRequest]:
    """Lazily yield two-state on/off (MMPP-2) arrivals."""
    if burst_rate <= 0 or idle_rate < 0:
        raise ValueError("rates must be positive (idle may be 0)")
    if mean_burst <= 0 or mean_idle <= 0 or duration <= 0:
        raise ValueError("durations must be positive")
    rng = random.Random(derive_seed(seed, "trace:bursty"))
    t = 0.0
    bursting = True
    phase_end = rng.expovariate(1.0 / mean_burst)
    while t < duration:
        rate = burst_rate if bursting else idle_rate
        if rate <= 0:
            t = phase_end
        else:
            t += rng.expovariate(rate)
            if t <= min(phase_end, duration):
                yield TraceRequest(t, model, batch_size, slo)
        if t >= phase_end:
            bursting = not bursting
            mean = mean_burst if bursting else mean_idle
            phase_end = t + rng.expovariate(1.0 / mean)



@dataclass
class ReplayOutcome:
    """Per-request results of one trace replay."""

    latencies: List[float]
    slo_hits: int
    slo_misses: int
    rejected: int

    @property
    def completed(self) -> int:
        return len(self.latencies)

    def slo_attainment(self) -> float:
        total = self.slo_hits + self.slo_misses
        if total == 0:
            raise ValueError("trace carried no SLOs")
        return self.slo_hits / total


def replay(
    sim: Simulator,
    server,
    trace: Iterable[TraceRequest],
    admission_controller=None,
) -> ReplayOutcome:
    """Replay ``trace`` against ``server``; returns the outcome.

    ``server`` is anything with ``make_job``/``submit`` (a
    :class:`~repro.serving.server.ModelServer` or a
    :class:`~repro.cluster.server.MultiGpuServer`).  ``trace`` is a
    :class:`RequestTrace` or any (possibly lazy) iterable of
    time-ordered :class:`TraceRequest` — the driver pulls requests one
    at a time, so an ``iter_*`` generator streams without ever being
    materialised.  With an ``admission_controller`` (:mod:`repro.slo`),
    requests carrying an SLO go through admission.  The caller runs
    ``sim.run()`` afterwards.
    """
    outcome = ReplayOutcome(latencies=[], slo_hits=0, slo_misses=0, rejected=0)

    def track(request, job, done):
        submitted = sim.now
        yield done
        latency = job.finished_at - submitted
        outcome.latencies.append(latency)
        if request.slo is not None:
            if latency <= request.slo:
                outcome.slo_hits += 1
            else:
                outcome.slo_misses += 1

    def driver():
        start = sim.now
        for index, request in enumerate(trace):
            delay = start + request.arrival - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            job = server.make_job(f"trace{index}", request.model,
                                  request.batch_size)
            if admission_controller is not None and request.slo is not None:
                done = admission_controller.try_submit(job, slo=request.slo)
                if done is None:
                    outcome.rejected += 1
                    continue
            else:
                done = server.submit(job)
            sim.process(track(request, job, done))

    sim.process(driver(), name="trace-replay")
    return outcome


# ----------------------------------------------------------------------
# Time processes
# ----------------------------------------------------------------------

MIX = (ModelMix("m", 1),)
HORIZON = 2.0  # stream-time cut for endless (duration=None) streams


def _bounded(times: Iterable[float]) -> List[float]:
    return list(itertools.takewhile(lambda t: t <= HORIZON, times))


rates = st.floats(min_value=1.0, max_value=300.0)
durations = st.one_of(st.none(), st.floats(min_value=0.01, max_value=1.5))
seeds = st.integers(min_value=0, max_value=2**32)


@settings(max_examples=60, deadline=None)
@given(rate=rates, duration=durations, seed=seeds)
def test_poisson_times_match_replaced_engine(rate, duration, seed):
    config = TrafficConfig(mix=MIX, rate=rate, duration=duration)
    ours = _bounded(TrafficEngine(config, seed)._times())
    assert ours == _bounded(_ReplacedEngine(config, seed)._times())


@settings(max_examples=60, deadline=None)
@given(
    rate=rates,
    duration=durations,
    peak_ratio=st.floats(min_value=1.0, max_value=8.0),
    period=st.one_of(st.none(), st.floats(min_value=0.05, max_value=2.0)),
    seed=seeds,
)
def test_diurnal_times_match_replaced_engine(
    rate, duration, peak_ratio, period, seed
):
    config = TrafficConfig(mix=MIX, rate=rate, duration=duration,
                           process="diurnal", peak_ratio=peak_ratio,
                           period=period)
    ours = _bounded(TrafficEngine(config, seed)._times())
    assert ours == _bounded(_ReplacedEngine(config, seed)._times())


@settings(max_examples=60, deadline=None)
@given(
    rate=rates,
    duration=durations,
    burst_ratio=st.floats(min_value=0.1, max_value=8.0),
    idle_ratio=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
    mean_burst=st.floats(min_value=0.01, max_value=0.5),
    mean_idle=st.floats(min_value=0.01, max_value=0.5),
    seed=seeds,
)
def test_bursty_times_match_replaced_engine(
    rate, duration, burst_ratio, idle_ratio, mean_burst, mean_idle, seed
):
    config = TrafficConfig(mix=MIX, rate=rate, duration=duration,
                           process="bursty", burst_ratio=burst_ratio,
                           idle_ratio=idle_ratio, mean_burst=mean_burst,
                           mean_idle=mean_idle)
    ours = _bounded(TrafficEngine(config, seed)._times())
    assert ours == _bounded(_ReplacedEngine(config, seed)._times())


def test_engine_arrivals_unchanged_at_idle_rate_zero():
    """End to end through ``arrivals()``: the entity draws interleave
    with nothing, so equal times mean equal streams."""
    config = TrafficConfig(mix=MIX, rate=80.0, duration=None,
                           process="bursty", idle_ratio=0.0)
    arrivals = list(TrafficEngine(config, seed=3).arrivals(limit=300))
    oracle = list(itertools.islice(_ReplacedEngine(config, 3)._times(), 300))
    assert [a.time for a in arrivals] == oracle


trace_durations = st.floats(min_value=0.01, max_value=1.5)
slos = st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1.0))


@settings(max_examples=60, deadline=None)
@given(rate=rates, duration=trace_durations, seed=seeds, slo=slos)
def test_iter_poisson_matches_replaced(rate, duration, seed, slo):
    ours = list(lib.iter_poisson(rate, duration, "m", 4, seed, slo))
    assert ours == list(iter_poisson(rate, duration, "m", 4, seed, slo))


@settings(max_examples=60, deadline=None)
@given(
    base=rates,
    peak_ratio=st.floats(min_value=1.0, max_value=8.0),
    duration=trace_durations,
    period=st.one_of(st.none(), st.floats(min_value=0.05, max_value=2.0)),
    seed=seeds,
)
def test_iter_diurnal_matches_replaced(base, peak_ratio, duration, period,
                                       seed):
    peak = base * peak_ratio
    ours = list(lib.iter_diurnal(base, peak, duration, "m", 4, period, seed))
    assert ours == list(
        iter_diurnal(base, peak, duration, "m", 4, period, seed)
    )


@settings(max_examples=60, deadline=None)
@given(
    burst=rates,
    idle=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0)),
    mean_burst=st.floats(min_value=0.01, max_value=0.5),
    mean_idle=st.floats(min_value=0.01, max_value=0.5),
    duration=trace_durations,
    seed=seeds,
)
def test_iter_bursty_matches_replaced(burst, idle, mean_burst, mean_idle,
                                      duration, seed):
    args = (burst, idle, mean_burst, mean_idle, duration, "m", 4, seed)
    assert list(lib.iter_bursty(*args)) == list(iter_bursty(*args))


# ----------------------------------------------------------------------
# drive(as_arrivals(trace)) vs replay
# ----------------------------------------------------------------------


def _store(tiny_graph):
    costs = CostModel(noise=0.0).exact(tiny_graph, 100)
    store = ProfileStore()
    store.add(OlympianProfile.from_cost_profile(
        costs, gpu_duration=tiny_graph.gpu_duration(100)
    ))
    return store


def _single(tiny_graph):
    sim = Simulator()
    scheduler = OlympianScheduler(sim, FairSharing(), 0.5e-3,
                                  _store(tiny_graph))
    server = ModelServer(sim, ServerConfig(track_memory=False, seed=3),
                         scheduler=scheduler)
    server.load_model(tiny_graph)
    return sim, server


def _cluster(tiny_graph):
    sim = Simulator()
    store = _store(tiny_graph)
    cluster = MultiGpuServer(
        sim, 2,
        config=ServerConfig(track_memory=False, seed=6),
        scheduler_factory=lambda sim_, _server: OlympianScheduler(
            sim_, FairSharing(), 0.5e-3, store
        ),
        placement=LeastLoadedPlacement(),
    )
    cluster.load_model(tiny_graph)
    return sim, cluster


@pytest.mark.parametrize("front", [_single, _cluster],
                         ids=["model-server", "multi-gpu"])
@pytest.mark.parametrize("slo_factor", [None, 2.0])
def test_drive_matches_replay(front, slo_factor, tiny_graph):
    demand = tiny_graph.gpu_duration(100)
    slo = None if slo_factor is None else slo_factor * demand
    trace = lib.poisson_trace(1.5 / demand, 25 * demand, tiny_graph.name,
                              100, seed=11, slo=slo)
    assert len(trace) > 10

    sim, server = front(tiny_graph)
    expected = replay(sim, server, trace)
    sim.run()

    sim, server = front(tiny_graph)
    stats = drive(sim, server, lib.as_arrivals(trace))
    sim.run()

    assert stats.completed == expected.completed == len(trace)
    assert stats.latencies == expected.latencies


def test_as_arrivals_maps_clients_and_tenant():
    trace = lib.poisson_trace(50.0, 0.2, "m", 8, seed=1, slo=0.3)
    arrivals = list(lib.as_arrivals(trace))
    assert [a.user for a in arrivals] == [
        f"trace{i}" for i in range(len(trace))
    ]
    assert {a.tenant for a in arrivals} == {"default"}
    assert [(a.time, a.model, a.batch_size, a.slo) for a in arrivals] == [
        (r.arrival, r.model, r.batch_size, r.slo) for r in trace
    ]


# ----------------------------------------------------------------------
# Pinned raw latencies of the open-loop extension runs
# ----------------------------------------------------------------------


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_latency_predictability_raw_latencies_pinned():
    result = latency_predictability(num_requests=30)
    assert {k: len(v) for k, v in result.latencies.items()} == {
        "tf-serving": 30, "fair": 30,
    }
    assert _sha(result.latencies) == (
        "3c44288be8690b86f056b3674e2e873510cd1eb0132648d5b1b3d2d8b8c30ceb"
    )


def test_slo_attainment_raw_latencies_pinned(monkeypatch):
    # Every request the three systems serve, in submit order (``drive``
    # names them r<index>; the profiler's own jobs, if it runs cold,
    # are filtered out by that id).
    jobs = []
    submit = ModelServer.submit

    def recording_submit(server, job):
        if re.fullmatch(r"r\d+", job.job_id):
            jobs.append(job)
        return submit(server, job)

    monkeypatch.setattr(ModelServer, "submit", recording_submit)
    result = slo_attainment(num_requests=30)
    assert result.goodput == {"tf-serving": 11, "fair": 6,
                              "fair+admission": 22}
    assert result.rejected == {"tf-serving": 0, "fair": 0,
                               "fair+admission": 8}
    assert len(jobs) == 82
    assert _sha([job.latency for job in jobs]) == (
        "9e70e9408b6912b89ad8ad922358343ecf07c4a7766eac5076ce98f196072ffb"
    )
