"""Arrival-pattern generators.

The paper starts all clients simultaneously; these helpers also provide
staggered and Poisson arrivals for the extension experiments the paper
lists as future work ("more realistic and dynamic workloads", §7.2).
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from typing import List, Sequence

from ..sim.rng import derive_seed
from .scenarios import ClientSpec
from .traffic import check_finite, poisson_times

__all__ = ["simultaneous", "staggered", "poisson_arrivals", "bursty_think_times"]


def simultaneous(specs: Sequence[ClientSpec]) -> List[ClientSpec]:
    """All clients start at t=0 (the paper's arrival model)."""
    return [replace(spec, start_delay=0.0) for spec in specs]


def staggered(specs: Sequence[ClientSpec], gap: float) -> List[ClientSpec]:
    """Client ``i`` starts at ``i * gap`` seconds."""
    if gap < 0:
        raise ValueError(f"gap must be >= 0: {gap}")
    return [
        replace(spec, start_delay=i * gap) for i, spec in enumerate(specs)
    ]


def poisson_arrivals(
    specs: Sequence[ClientSpec], rate: float, seed: int = 0
) -> List[ClientSpec]:
    """Clients arrive as a Poisson process with ``rate`` per second."""
    check_finite("rate", rate, 0.0)
    rng = random.Random(derive_seed(seed, "poisson-arrivals"))
    times = poisson_times(rng, rate, math.inf)
    return [replace(spec, start_delay=t) for spec, t in zip(specs, times)]


def bursty_think_times(
    specs: Sequence[ClientSpec], think_time: float
) -> List[ClientSpec]:
    """Insert idle think time between a client's batches.

    Models the "intermittent and bursty GPU usage" of practical
    applications the paper's introduction motivates multiplexing with.
    """
    if think_time < 0:
        raise ValueError(f"think_time must be >= 0: {think_time}")
    return [replace(spec, think_time=think_time) for spec in specs]
