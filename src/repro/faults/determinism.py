"""Deterministic trace digests.

The simulator's contract is that identical seeds replay identical
schedules; fault injection and invariant checking must preserve that.
:func:`trace_digest` reduces a completed run — every GPU interval,
every scheduling decision, every finished job — to a SHA-256 hex
digest, so two runs can be compared byte-for-byte without storing full
traces.  Floats are rendered with :func:`repr`, which round-trips
exactly, making the digest sensitive to any drift at all.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..core.scheduler import GangScheduler
    from ..serving.client import Client
    from ..serving.server import ModelServer

__all__ = ["trace_digest"]


def _feed(hasher, lines: Iterable[str]) -> None:
    """Hash newline-terminated ``lines`` as one ``update()``."""
    hasher.update("".join(lines).encode("utf-8"))


def _status(job) -> str:
    if job.failed:
        return "failed"
    return "cancelled" if job.cancelled else "ok"


def trace_digest(
    server: "ModelServer",
    scheduler: Optional["GangScheduler"] = None,
    clients: Optional[Iterable["Client"]] = None,
) -> str:
    """SHA-256 digest of a completed run's observable trace.

    Covers, in a canonical order: every interval recorded by the
    server's tracer (per key), every scheduling decision and closed
    tenure (when a gang scheduler is given), and every completed job's
    identity, timing, and terminal status.

    The hashed byte stream is one ``repr``-rendered line per record,
    each terminated by ``\\n``.  It is fed one ``update()`` per tracer
    key (formatted straight from the tracer's raw rows, with no
    :class:`~repro.sim.trace.Interval` objects) and one per tail
    section; SHA-256 depends only on the concatenated bytes, so the
    chunking does not affect the digest.
    """
    hasher = hashlib.sha256()

    tracer = server.tracer
    for key in sorted(tracer.keys(), key=str):
        rows = tracer.rows(key)
        # One "iv:<start>:<end>:<tag>" line per (start, end, tag) row,
        # formatted in a single pass over the flattened rows.
        lines = ("iv:%r:%r:%r\n" * len(rows)) % tuple(chain.from_iterable(rows))
        hasher.update(f"key:{key!r}\n{lines}".encode("utf-8"))

    if scheduler is not None:
        _feed(hasher, (
            f"dec:{decision.time!r}:{decision.prev_job_id!r}"
            f":{decision.next_job_id!r}\n"
            for decision in scheduler.decisions
        ))
        _feed(hasher, (
            f"ten:{tenure.job_id}:{tenure.start!r}:{tenure.end!r}\n"
            for tenure in scheduler.tenures
        ))
        _feed(hasher, (
            f"ev:{eviction.time!r}:{eviction.job_id}:{eviction.reason}\n"
            for eviction in getattr(scheduler, "evictions", [])
        ))

    _feed(hasher, (
        f"job:{job.job_id}:{job.submitted_at!r}:{job.finished_at!r}"
        f":{job.nodes_executed}:{_status(job)}\n"
        for job in server.completed_jobs
    ))

    if clients is not None:
        _feed(hasher, (
            f"cl:{client.client_id}:{client.started_at!r}"
            f":{client.finished_at!r}:{client.timed_out_batches}"
            f":{getattr(client, 'failed_batches', 0)}"
            f":{getattr(client, 'retries', 0)}\n"
            for client in clients
        ))

    return hasher.hexdigest()
