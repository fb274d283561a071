"""Trace-driven workloads: record, generate, and serve request traces.

Production serving systems are driven by request logs, not by closed
loops of synthetic clients.  This module gives the reproduction that
missing piece (paper future work: "more realistic and dynamic
workloads"):

* :class:`TraceRequest` / :class:`RequestTrace` — a timestamped request
  log (arrival time, model, batch size, optional SLO), with JSON
  round-trip.
* Generators for the standard shapes: steady Poisson, diurnal
  (sinusoidal rate), and bursty on/off (a two-state MMPP) — the
  "intermittent and bursty GPU usage" the paper's introduction
  motivates multiplexing with.  The arrival instants come from the
  time processes in :mod:`repro.workloads.traffic`; this module only
  wraps them as :class:`TraceRequest` records.
* :func:`as_arrivals` — view a trace as :class:`~repro.workloads.traffic.Arrival`
  records, so :func:`~repro.workloads.traffic.drive` (the one
  open-loop driver) serves it like any other stream.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from ..sim.rng import derive_seed
from .traffic import (
    Arrival,
    bursty_times,
    check_finite,
    diurnal_times,
    poisson_times,
)

__all__ = [
    "TraceRequest",
    "RequestTrace",
    "iter_poisson",
    "iter_diurnal",
    "iter_bursty",
    "poisson_trace",
    "diurnal_trace",
    "bursty_trace",
    "as_arrivals",
]

_PathLike = Union[str, Path]


@dataclass(frozen=True)
class TraceRequest:
    """One request in a trace."""

    arrival: float
    model: str
    batch_size: int
    slo: Optional[float] = None

    def __post_init__(self):
        check_finite("arrival time", self.arrival, 0.0, inclusive=True)
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1: {self.batch_size}")
        if self.slo is not None:
            check_finite("SLO", self.slo, 0.0)


@dataclass
class RequestTrace:
    """An ordered request log."""

    requests: List[TraceRequest] = field(default_factory=list)

    def __post_init__(self):
        arrivals = [r.arrival for r in self.requests]
        if arrivals != sorted(arrivals):
            self.requests = sorted(self.requests, key=lambda r: r.arrival)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    @property
    def duration(self) -> float:
        """Span from first to last arrival."""
        if not self.requests:
            return 0.0
        return self.requests[-1].arrival - self.requests[0].arrival

    @property
    def models(self) -> List[str]:
        return sorted({r.model for r in self.requests})

    def mean_rate(self) -> float:
        """Average arrivals per second over the trace span."""
        if len(self.requests) < 2 or self.duration == 0:
            raise ValueError("rate undefined for traces shorter than 2 requests")
        return (len(self.requests) - 1) / self.duration

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": [
                {
                    "arrival": r.arrival,
                    "model": r.model,
                    "batch_size": r.batch_size,
                    "slo": r.slo,
                }
                for r in self.requests
            ]
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RequestTrace":
        return cls(
            requests=[
                TraceRequest(
                    arrival=entry["arrival"],
                    model=entry["model"],
                    batch_size=entry["batch_size"],
                    slo=entry.get("slo"),
                )
                for entry in data["requests"]
            ]
        )

    def save(self, path: _PathLike) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: _PathLike) -> "RequestTrace":
        return cls.from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
#
# Each shape comes as a lazy iterator (``iter_*``: validates its
# arguments when called, then streams one of the
# :mod:`repro.workloads.traffic` time processes in O(1) memory) plus an
# eager wrapper returning a :class:`RequestTrace`, drawn in the same
# order, so traces are bit-identical to the historical builders.


def iter_poisson(
    rate: float,
    duration: float,
    model: str,
    batch_size: int,
    seed: int = 0,
    slo: Optional[float] = None,
) -> Iterator[TraceRequest]:
    """Lazily yield steady Poisson arrivals at ``rate``/s."""
    check_finite("rate", rate, 0.0)
    check_finite("duration", duration, 0.0)
    rng = random.Random(derive_seed(seed, "trace:poisson"))
    times = poisson_times(rng, rate, duration)
    return (TraceRequest(t, model, batch_size, slo) for t in times)


def poisson_trace(
    rate: float,
    duration: float,
    model: str,
    batch_size: int,
    seed: int = 0,
    slo: Optional[float] = None,
) -> RequestTrace:
    """Steady Poisson arrivals at ``rate``/s for ``duration`` seconds."""
    return RequestTrace(
        list(iter_poisson(rate, duration, model, batch_size, seed, slo))
    )


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
    check_finite("base_rate", base_rate, 0.0)
    check_finite("peak_rate", peak_rate, base_rate, inclusive=True)
    check_finite("duration", duration, 0.0)
    if period is not None:
        check_finite("period", period, 0.0)
    period = period if period is not None else duration
    rng = random.Random(derive_seed(seed, "trace:diurnal"))
    times = diurnal_times(rng, base_rate, peak_rate, period, duration)
    return (TraceRequest(t, model, batch_size, slo) for t in times)


def diurnal_trace(
    base_rate: float,
    peak_rate: float,
    duration: float,
    model: str,
    batch_size: int,
    period: Optional[float] = None,
    seed: int = 0,
    slo: Optional[float] = None,
) -> RequestTrace:
    """Sinusoidally modulated arrivals (the daily load curve, scaled).

    Rate varies between ``base_rate`` and ``peak_rate`` over ``period``
    (default: the full duration is one day-night cycle).  Generated by
    thinning a Poisson process at the peak rate.
    """
    return RequestTrace(
        list(
            iter_diurnal(
                base_rate, peak_rate, duration, model, batch_size,
                period, seed, slo,
            )
        )
    )


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
    check_finite("burst_rate", burst_rate, 0.0)
    check_finite("idle_rate", idle_rate, 0.0, inclusive=True)
    check_finite("mean_burst", mean_burst, 0.0)
    check_finite("mean_idle", mean_idle, 0.0)
    check_finite("duration", duration, 0.0)
    rng = random.Random(derive_seed(seed, "trace:bursty"))
    times = bursty_times(rng, burst_rate, idle_rate, mean_burst, mean_idle,
                         duration)
    return (TraceRequest(t, model, batch_size, slo) for t in times)


def bursty_trace(
    burst_rate: float,
    idle_rate: float,
    mean_burst: float,
    mean_idle: float,
    duration: float,
    model: str,
    batch_size: int,
    seed: int = 0,
    slo: Optional[float] = None,
) -> RequestTrace:
    """Two-state on/off arrivals (MMPP-2): bursts of ``burst_rate``
    separated by quiet periods — the "intermittent and bursty" usage
    of the paper's introduction."""
    return RequestTrace(
        list(
            iter_bursty(
                burst_rate, idle_rate, mean_burst, mean_idle, duration,
                model, batch_size, seed, slo,
            )
        )
    )


# ----------------------------------------------------------------------
# Serving a trace
# ----------------------------------------------------------------------


def as_arrivals(requests: Iterable[TraceRequest]) -> Iterator[Arrival]:
    """View ``requests`` as :class:`~repro.workloads.traffic.Arrival`
    records for :func:`~repro.workloads.traffic.drive`.

    Request ``i`` arrives as client ``trace{i}`` of tenant
    ``"default"`` and keeps its SLO (``drive`` turns it into the job's
    deadline and hands it to an admission gate).  Lazy: a streaming
    ``iter_*`` generator is consumed one request at a time.
    """
    for index, request in enumerate(requests):
        yield Arrival(
            index=index,
            time=request.arrival,
            tenant="default",
            user=f"trace{index}",
            model=request.model,
            batch_size=request.batch_size,
            slo=request.slo,
        )
