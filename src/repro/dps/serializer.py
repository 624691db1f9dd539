"""Data-object serialization and the size-counting serializer.

Paper, section 4: "The size of the data objects is computed at runtime,
using a modified version of the built-in DPS data object serializer.
Instead of doing the actual serialization, the modified serializer only
counts the number of bytes of the data object using the size description of
the data structures it contains, without performing any memory copies.
Hence, the memory of data structures does not need to be allocated."

:func:`payload_nbytes` walks a payload structure and counts exact wire
bytes without copying anything (numpy arrays contribute ``nbytes``).
:class:`CountingSerializer` adds the per-object wire envelope and honours
``declared_size`` so NOALLOC payload-free objects are charged the size the
real payload would have had.
"""

from __future__ import annotations

import sys
from typing import Any

from repro.dps.data_objects import DataObject
from repro.errors import SerializationError

#: Wire envelope: object header (kind hash, frame stack, routing info).
HEADER_BYTES = 48
#: Per-metadata-entry cost (key hash + tagged value).
META_ENTRY_BYTES = 16
#: Per-container-element tag in the serialized stream.
ELEMENT_TAG_BYTES = 4


class SerializedSizeInfo:
    """Breakdown of a data object's wire size (header/meta/payload)."""

    __slots__ = ("header", "meta", "payload")

    def __init__(self, header: float, meta: float, payload: float) -> None:
        self.header = header
        self.meta = meta
        self.payload = payload

    @property
    def total(self) -> float:
        return self.header + self.meta + self.payload

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SerializedSizeInfo(header={self.header}, meta={self.meta}, "
            f"payload={self.payload})"
        )


def payload_nbytes(value: Any) -> float:
    """Exact serialized byte count of a payload structure, without copying.

    Supported node types mirror DPS data-object capabilities: scalars,
    strings/bytes, numpy arrays, and arbitrarily nested lists/tuples/dicts.
    ``None`` contributes nothing (an elided field).
    """
    if value is None:
        return 0.0
    # A value can only be an array if numpy is already loaded: ask
    # sys.modules rather than importing numpy to find out.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, (np.ndarray, np.generic)):
        return float(value.nbytes)
    if isinstance(value, bool):
        return 1.0
    if isinstance(value, int):
        return 8.0
    if isinstance(value, float):
        return 8.0
    if isinstance(value, complex):
        return 16.0
    if isinstance(value, bytes):
        return float(len(value))
    if isinstance(value, str):
        return float(len(value.encode("utf-8")))
    if isinstance(value, (list, tuple)):
        return sum(payload_nbytes(v) + ELEMENT_TAG_BYTES for v in value)
    if isinstance(value, dict):
        return sum(
            payload_nbytes(k) + payload_nbytes(v) + ELEMENT_TAG_BYTES
            for k, v in value.items()
        )
    raise SerializationError(
        f"cannot size payload element of type {type(value).__name__}"
    )


class CountingSerializer:
    """Computes data-object wire sizes; never copies or allocates payloads."""

    def size_info(self, obj: DataObject) -> SerializedSizeInfo:
        """Full size breakdown for ``obj``.

        When the object declares a size (NOALLOC mode), the declared value
        is used for the payload; the real payload, if also present, is
        ignored so declared sizes stay authoritative for what-if studies.
        """
        meta_bytes = float(len(obj.meta) * META_ENTRY_BYTES)
        for key in obj.meta:
            meta_bytes += len(key)
        if obj.declared_size is not None:
            payload = float(obj.declared_size)
        else:
            payload = payload_nbytes(obj.payload)
        return SerializedSizeInfo(float(HEADER_BYTES), meta_bytes, payload)

    def size(self, obj: DataObject) -> float:
        """Total wire size in bytes."""
        return self.size_info(obj).total
