"""Bad arrival inputs are refused when they are constructed.

Each case builds the object and then drains whatever stream it yields.
Before these checks, some of them failed only mid-run: NaN rates gave
an endless stream of NaN arrival times, which ``drive`` served forever
at t=0, and ``mean_burst=0`` raised ``ZeroDivisionError`` from inside
the bursty process.  The wall-clock limit turns such a hang into a
test failure.
"""

import collections
import contextlib
import signal

import pytest

from repro.experiments.soak import SoakConfig, run_soak
from repro.workloads import (
    ModelMix,
    TraceRequest,
    TrafficConfig,
    TrafficEngine,
    homogeneous_workload,
    iter_bursty,
    iter_diurnal,
    iter_poisson,
    poisson_arrivals,
)

NAN = float("nan")
INF = float("inf")
LIMIT_S = 10.0
MIX = (ModelMix("alexnet", 1),)


@contextlib.contextmanager
def wall_clock_limit(seconds):
    def expire(_signum, _frame):
        raise TimeoutError(f"bad input was not rejected within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def soak(**fields):
    return lambda: SoakConfig.quick(**fields)


def drain(stream):
    collections.deque(stream, maxlen=0)


def traffic(**fields):
    fields.setdefault("process", "bursty")
    return lambda: drain(
        TrafficEngine(TrafficConfig(mix=MIX, **fields)).arrivals()
    )


CASES = {
    **{
        f"traffic-{name}={value}": traffic(**{name: value})
        for name, values in {
            "rate": (NAN, 0.0, -1.0, INF),
            "duration": (NAN, 0.0, INF),
            "period": (NAN, 0.0),
            "peak_ratio": (NAN, 0.5, INF),
            "burst_ratio": (NAN, 0.0),
            "mean_burst": (NAN, 0.0),
            "mean_idle": (NAN, 0.0),
            "idle_ratio": (NAN, -0.1, INF),
            "user_skew": (NAN, INF),
            "tenant_skew": (NAN, -INF),
        }.items()
        for value in values
    },
    "traffic-diurnal-period=nan": traffic(process="diurnal", period=NAN),
    "traffic-poisson-rate=nan": traffic(process="poisson", rate=NAN),
    **{
        f"mix-{name}={value}": (
            lambda name=name, value=value: ModelMix("alexnet", 1,
                                                    **{name: value})
        )
        for name, values in {
            "weight": (NAN, 0.0, INF),
            "slo": (NAN, 0.0, -1.0, INF),
        }.items()
        for value in values
    },
    "request-arrival=nan": lambda: TraceRequest(NAN, "m", 1),
    "request-arrival=-1": lambda: TraceRequest(-1.0, "m", 1),
    "request-arrival=inf": lambda: TraceRequest(INF, "m", 1),
    "request-slo=nan": lambda: TraceRequest(0.0, "m", 1, slo=NAN),
    "request-slo=0": lambda: TraceRequest(0.0, "m", 1, slo=0.0),
    "request-slo=inf": lambda: TraceRequest(0.0, "m", 1, slo=INF),
    "iter_poisson-rate=nan": lambda: drain(iter_poisson(NAN, 1.0, "m", 1)),
    "iter_poisson-duration=nan": lambda: drain(
        iter_poisson(10.0, NAN, "m", 1)
    ),
    "iter_poisson-duration=inf": lambda: drain(
        iter_poisson(10.0, INF, "m", 1)
    ),
    "iter_diurnal-base=nan": lambda: drain(
        iter_diurnal(NAN, 10.0, 1.0, "m", 1)
    ),
    "iter_diurnal-peak=nan": lambda: drain(
        iter_diurnal(1.0, NAN, 1.0, "m", 1)
    ),
    "iter_diurnal-peak<base": lambda: drain(
        iter_diurnal(5.0, 1.0, 1.0, "m", 1)
    ),
    "iter_diurnal-duration=nan": lambda: drain(
        iter_diurnal(1.0, 10.0, NAN, "m", 1)
    ),
    "iter_diurnal-period=nan": lambda: drain(
        iter_diurnal(1.0, 10.0, 1.0, "m", 1, period=NAN)
    ),
    "iter_diurnal-period=0": lambda: drain(
        iter_diurnal(1.0, 10.0, 1.0, "m", 1, period=0.0)
    ),
    "iter_bursty-burst=nan": lambda: drain(
        iter_bursty(NAN, 1.0, 0.1, 0.1, 1.0, "m", 1)
    ),
    "iter_bursty-idle=nan": lambda: drain(
        iter_bursty(10.0, NAN, 0.1, 0.1, 1.0, "m", 1)
    ),
    "iter_bursty-idle=-1": lambda: drain(
        iter_bursty(10.0, -1.0, 0.1, 0.1, 1.0, "m", 1)
    ),
    "iter_bursty-mean_burst=0": lambda: drain(
        iter_bursty(10.0, 1.0, 0.0, 0.1, 1.0, "m", 1)
    ),
    "iter_bursty-mean_burst=nan": lambda: drain(
        iter_bursty(10.0, 1.0, NAN, 0.1, 1.0, "m", 1)
    ),
    "iter_bursty-mean_idle=nan": lambda: drain(
        iter_bursty(10.0, 1.0, 0.1, NAN, 1.0, "m", 1)
    ),
    "iter_bursty-duration=nan": lambda: drain(
        iter_bursty(10.0, 1.0, 0.1, 0.1, NAN, "m", 1)
    ),
    "poisson_arrivals-rate=nan": lambda: poisson_arrivals(
        homogeneous_workload(2), rate=NAN
    ),
    # The soak must refuse before any simulation starts: the config
    # constructor raises, so run_soak is never even called.
    "soak-rate=nan": lambda: run_soak(SoakConfig.quick(rate=NAN)),
    "soak-duration=nan": lambda: run_soak(
        SoakConfig.quick(duration=NAN, kills=(), device_crashes=())
    ),
    "soak-scheduler_kinds=bogus": soak(scheduler_kinds=("bogus",)),
    "soak-quantum=nan": soak(quantum=NAN),
    "soak-scale=-1": soak(scale=-1.0),
    "soak-headroom=2": soak(headroom=2.0),
    "soak-max_active=0": soak(max_active=0),
    "soak-max_failovers=-1": soak(max_failovers=-1),
    "soak-reset_latency=nan": soak(reset_latency=NAN),
    "soak-device_crashes=nan": soak(device_crashes=(NAN,)),
    "soak-device_crashes=-1": soak(device_crashes=(-1.0,)),
    "soak-device_crashes=duration": soak(device_crashes=(0.3,)),
}


@pytest.mark.parametrize("build", list(CASES.values()), ids=list(CASES))
def test_bad_arrival_input_rejected_at_construction(build):
    with wall_clock_limit(LIMIT_S), pytest.raises(ValueError):
        build()
