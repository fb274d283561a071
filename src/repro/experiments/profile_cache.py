"""Content-keyed on-disk cache for profiler outputs.

The Overhead-Q sweep plus solo runs dominate experiment wall-clock
(profiling is 2-5x the cost of the actual scheduled run at default
scale), yet their result is a pure function of (models, scale, seeds,
Q-grid, tolerance, GPU spec) *and the simulator code itself*.  This
module keys a JSON bundle (via :mod:`repro.core.persistence`) on a
SHA-256 over exactly those inputs, so repeated benchmark invocations —
and separate processes, which the in-memory cache in
:mod:`repro.experiments.runner` cannot help — skip profiling entirely.

Layout: one ``<key>.json`` per entry under ``$REPRO_CACHE_DIR/profiles``
(default ``.repro-cache/profiles`` in the working directory).  The code
version folded into the key is a digest over the ``repro`` source
subpackages that affect profiled numbers, so editing the simulator
invalidates stale profiles automatically instead of silently replaying
them.  Set ``REPRO_PROFILE_CACHE=0`` to disable.  Floats survive the
JSON round-trip exactly (``repr`` shortest-round-trip encoding), so a
cache hit is bit-identical to a rebuild — ``trace_digest`` included.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Optional, Sequence, Tuple

from ..core.persistence import output_from_dict, output_to_dict
from ..core.profiler import ProfilerOutput
from ..telemetry.logs import get_logger

__all__ = [
    "cache_enabled",
    "cache_dir",
    "code_version",
    "cache_key",
    "load",
    "store",
]

logger = get_logger("profile-cache")

# Subpackages whose source feeds the profiled numbers.  experiments/
# and cli are deliberately excluded: they orchestrate, they do not
# change what the profiler measures.
_VERSIONED_SUBPACKAGES = (
    "sim",
    "graph",
    "gpu",
    "host",
    "serving",
    "core",
    "zoo",
)

_code_version: Optional[str] = None


def cache_enabled() -> bool:
    """Cache is on unless ``REPRO_PROFILE_CACHE`` says otherwise."""
    return os.environ.get("REPRO_PROFILE_CACHE", "1").lower() not in (
        "0",
        "off",
        "no",
        "false",
    )


def cache_dir() -> Path:
    """Root directory for cached profiles (``$REPRO_CACHE_DIR`` override)."""
    root = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
    return Path(root) / "profiles"


def code_version() -> str:
    """Digest of the simulator source that determines profiled numbers.

    Computed once per process: SHA-256 over the sorted relative paths
    and contents of every ``.py`` file in the versioned subpackages.
    """
    global _code_version
    if _code_version is not None:
        return _code_version
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for sub in _VERSIONED_SUBPACKAGES:
        for path in sorted((package_root / sub).glob("**/*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    _code_version = digest.hexdigest()
    return _code_version


def cache_key(
    entries: Sequence[Tuple[str, int]],
    config: Any,
    with_curves: bool,
) -> str:
    """Content key for one profiler build (hex SHA-256).

    Keys both this cache and the in-process one in
    ``runner.get_profiler_output``.
    """
    spec = config.gpu_spec
    material = {
        "entries": sorted([list(entry) for entry in entries]),
        "scale": config.scale,
        "graph_seed": config.graph_seed,
        "profile_seed": config.profile_seed,
        "quantum": config.quantum,
        "tolerance": config.tolerance,
        "q_values": list(config.q_values) if with_curves else None,
        "wake_latency": config.wake_latency,
        "curve_batches": config.curve_batches,
        "n_cores": config.n_cores,
        "pool_size": config.pool_size,
        "gpu_spec": repr(spec),
        "code_version": code_version(),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load(key: str) -> Optional[ProfilerOutput]:
    """Fetch a cached build, or ``None`` on miss/corruption.

    A corrupt or unreadable entry is treated as a miss (and logged):
    the caller rebuilds and overwrites it.
    """
    path = cache_dir() / f"{key}.json"
    try:
        data = json.loads(path.read_text())
        output = output_from_dict(data["output"])
    except FileNotFoundError:
        logger.info("profile cache miss", key=key[:16])
        return None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        logger.warning(
            "profile cache entry unreadable; rebuilding",
            key=key[:16], error=str(exc),
        )
        return None
    logger.info("profile cache hit", key=key[:16], path=str(path))
    return output


def store(key: str, output: ProfilerOutput) -> None:
    """Persist a build atomically (tmp file + rename); failures only log."""
    directory = cache_dir()
    path = directory / f"{key}.json"
    tmp = directory / f".{key}.{os.getpid()}.tmp"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp.write_text(
            json.dumps({"key": key, "output": output_to_dict(output)})
        )
        os.replace(tmp, path)
    except OSError as exc:  # cache is best-effort; never fail the run
        logger.warning(
            "profile cache write failed", key=key[:16], error=str(exc)
        )
        try:
            tmp.unlink()
        except OSError:
            pass
        return
    logger.info("profile cache store", key=key[:16], path=str(path))
