"""Disk-persisted calibration cache.

Characterizing a platform's network (the ``t = l + s/b`` fit of
:func:`repro.netmodel.calibration.calibrate`) is the one expensive step a
sweep repeats across CLI invocations: the in-process memo of
:mod:`repro.analysis.parallel` dies with the process.  This module persists
each fitted :class:`~repro.netmodel.params.NetworkParams` under a
user-cache directory, keyed by a content hash of the parameters the fit
actually depends on — network parameters, packet-fidelity knobs, and the
calibration seed (see :func:`cache_key`) — so a repeated calibrated run
(any :func:`calibrated_platform` call) skips calibration entirely, and
sweeps over many cluster sizes share one entry.

The cache directory resolves, in order, to ``$REPRO_CACHE_DIR``,
``$XDG_CACHE_HOME/repro-schaeli06``, or ``~/.cache/repro-schaeli06``.
Entries are single JSON files written atomically (temp file + rename), so
concurrent sweep workers racing on the same key are harmless.  ``repro
cache clear`` / ``repro cache info`` manage the directory from the CLI.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.netmodel.calibration import calibrate
from repro.netmodel.packet import PacketNetwork
from repro.netmodel.params import NetworkParams
from repro.sim.platform import PlatformSpec

#: Bump when the calibration procedure or the entry format changes — old
#: entries then miss naturally instead of being misread.
CACHE_VERSION = 1


def cache_dir() -> Path:
    """The user-cache directory holding calibration entries."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-schaeli06"


def cache_key(cluster, calibration_seed: int = 99) -> str:
    """Content hash of the parameters the calibration fit depends on.

    The fit probes a single ``0 → 1`` transfer through the packet network,
    so it depends only on the network parameters, the packet-fidelity
    knobs, and the calibration seed — *not* on the cluster size,
    measurement seed, or machine profile.  Keying on the true inputs lets
    a sweep over many cluster sizes and seeds share one calibration.
    """
    payload = {
        "version": CACHE_VERSION,
        "calibration_seed": calibration_seed,
        "network": dataclasses.asdict(cluster.network),
        "packet": dataclasses.asdict(cluster.packet_params),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def _entry_path(key: str) -> Path:
    return cache_dir() / f"calibration-{key}.json"


def load(key: str) -> Optional[NetworkParams]:
    """The cached fitted parameters for ``key``, or None on miss.

    Unreadable or malformed entries count as misses — the caller simply
    recalibrates and overwrites them.
    """
    path = _entry_path(key)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        return NetworkParams(
            latency=float(payload["latency"]),
            bandwidth=float(payload["bandwidth"]),
            per_object_overhead=float(payload.get("per_object_overhead", 0.0)),
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def store(key: str, params: NetworkParams) -> None:
    """Persist fitted parameters under ``key`` (atomic; failures ignored)."""
    payload = {
        "version": CACHE_VERSION,
        "latency": params.latency,
        "bandwidth": params.bandwidth,
        "per_object_overhead": params.per_object_overhead,
    }
    write_entry(_entry_path(key), payload)


def write_entry(path: Path, payload: dict) -> None:
    """Write one JSON cache entry atomically (temp file + rename).

    Failures are ignored: a read-only or unwritable cache directory must
    never break a run — the cache is an optimization, not a dependency.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except OSError:
        pass


def calibrated_platform(
    cluster,
    calibration_seed: int = 99,
    use_disk_cache: bool = True,
) -> PlatformSpec:
    """Characterize the testbed's network and package it for the simulator.

    This is the paper's workflow: latency and bandwidth "must be measured
    or estimated separately for each target parallel machine" — here they
    are measured by running the standard calibration experiment against
    the ground-truth network model.

    The fit is persisted under :func:`cache_key`, so repeated CLI
    invocations skip calibration entirely; ``use_disk_cache=False``
    forces a fresh measurement.
    """
    key = cache_key(cluster, calibration_seed)
    if use_disk_cache:
        cached = load(key)
        if cached is not None:
            return PlatformSpec(machine=cluster.machine, network=cached)
    result = calibrate(
        lambda kernel: PacketNetwork(
            kernel, cluster.network, cluster.packet_params, seed=calibration_seed
        )
    )
    params = result.as_params()
    if use_disk_cache:
        store(key, params)
    return PlatformSpec(machine=cluster.machine, network=params)


def entries(family: str = "calibration") -> list[Path]:
    """Existing ``<family>-*.json`` entry files (empty when the directory
    is absent); the kernel-benchmark tables are the ``kernelbench`` family."""
    try:
        return sorted(cache_dir().glob(f"{family}-*.json"))
    except OSError:
        return []


def clear(family: str = "calibration") -> int:
    """Delete every entry of one family; returns the number of files removed."""
    removed = 0
    for path in entries(family):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed
