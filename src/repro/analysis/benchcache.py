"""Disk-persisted kernel-benchmark tables.

:class:`~repro.sim.providers.MeasureFirstNProvider` implements the paper's
hybrid mode: really execute the first ``n`` instances of every kernel,
then reuse the averaged measurement.  Those first ``n`` executions are the
warm-up cost a *repeated* direct-execution run pays again on every CLI
invocation — exactly the shape of problem the calibration cache
(:mod:`repro.analysis.calibcache`) already solves for network fits.  This
module persists the measured sample tables the same way: one JSON file per
``(target machine profile, n)`` key under the shared user-cache directory
(``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-schaeli06``, else
``~/.cache/repro-schaeli06``), written atomically so concurrent runs are
harmless, and managed by ``repro cache clear|info`` alongside the
calibration entries.

Samples are stored in *target seconds* (already scaled by the host
calibration), keyed inside the entry by kernel identity — the kernel name
plus its ``params`` items, matching
``MeasureFirstNProvider._key``.  The cache key deliberately excludes the
host-speed calibration scale: the stored values are target-machine times,
so runs on differently loaded hosts still share a table.  Entries whose
kernel params are not JSON-representable are skipped rather than failing
the run — like the calibration cache, this is an optimization, never a
dependency.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Optional

from repro.analysis import calibcache
from repro.cpumodel.machines import MachineProfile

#: Bump when the sample-table format or measurement semantics change.
CACHE_VERSION = 1

#: Entry-file prefix inside the shared cache directory.
_FAMILY = "kernelbench"

#: A kernel identity: ``(name, ((param, value), ...))`` with sorted params.
SampleKey = tuple[str, tuple[tuple[str, Any], ...]]


def cache_key(machine: MachineProfile, n: int) -> str:
    """Content hash of what a sample table depends on.

    Samples are target-seconds, so the table depends on the target
    machine profile and the sample count ``n`` — not on the simulation
    host, measurement seed, or application mix (unknown kernels simply
    miss inside the entry).
    """
    payload = {
        "version": CACHE_VERSION,
        "machine": dataclasses.asdict(machine),
        "n": n,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def _entry_path(key: str) -> Path:
    return calibcache.cache_dir() / f"{_FAMILY}-{key}.json"


def load(key: str) -> Optional[dict[SampleKey, list[float]]]:
    """The cached sample table for ``key``, or None on miss.

    Unreadable or malformed entries count as misses — the caller simply
    re-measures and overwrites them.
    """
    path = _entry_path(key)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        kernels = payload["kernels"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    table: dict[SampleKey, list[float]] = {}
    for entry in kernels:
        # Per-entry guard: one malformed kernel entry (e.g. an unhashable
        # param value) must not discard the whole table.
        try:
            sample_key = (
                str(entry["name"]),
                tuple((str(k), v) for k, v in entry["params"]),
            )
            table[sample_key] = [float(s) for s in entry["samples"]]
        except (ValueError, KeyError, TypeError):
            continue
    return table


def store(key: str, samples: dict[SampleKey, list[float]]) -> None:
    """Persist a sample table under ``key`` (atomic; failures ignored).

    Kernel identities whose params do not round-trip through JSON —
    unserializable values, but also serializable-yet-lossy ones such as
    tuples (reloaded as lists, which cannot rebuild the hashable key) —
    are silently skipped: they could never match on reload anyway.
    """
    kernels = []
    for (name, params), values in samples.items():
        entry = {
            "name": name,
            "params": [[k, v] for k, v in params],
            "samples": list(values),
        }
        try:
            roundtrip = json.loads(json.dumps(entry))
        except (TypeError, ValueError):
            continue
        if roundtrip != entry:
            continue
        kernels.append(entry)
    payload = {"version": CACHE_VERSION, "kernels": kernels}
    calibcache.write_entry(_entry_path(key), payload)


def entries() -> list[Path]:
    """Existing kernel-benchmark entry files (empty when absent)."""
    return calibcache.entries(_FAMILY)


def clear() -> int:
    """Delete every kernel-benchmark entry; returns files removed."""
    return calibcache.clear(_FAMILY)
