"""Deterministic random-number-generator management.

Every stochastic component of the testbed takes an explicit seed.  To keep
independent components decorrelated while remaining reproducible, seeds are
derived from a root :class:`numpy.random.SeedSequence` keyed by a stable
string label (e.g. ``"node-3/os-noise"``).
"""

from __future__ import annotations

import zlib

from repro.util.validation import check_type


def _label_key(label: str) -> int:
    """Map a string label to a stable 32-bit integer key."""
    return zlib.crc32(label.encode("utf-8")) & 0xFFFFFFFF


class SeedSequenceFactory:
    """Derives independent, reproducible RNG streams from one root seed.

    Parameters
    ----------
    seed:
        Root seed.  Two factories with the same seed produce identical
        streams for identical labels.
    """

    def __init__(self, seed: int = 0) -> None:
        # Model seeds come from spec files and request bodies; int() would
        # truncate 1.7 and raise a bare ValueError on "abc".
        self._root = check_type("seed", seed, int)

    @property
    def seed(self) -> int:
        """The root seed this factory was built from."""
        return self._root

    def rng(self, label: str) -> "np.random.Generator":
        """Return a :class:`numpy.random.Generator` keyed by ``label``."""
        try:
            import numpy as np
        except ImportError as exc:
            raise ImportError(
                "numpy is required for seeded noise streams; "
                "install the 'fast' extra (pip install repro[fast])"
            ) from exc
        ss = np.random.SeedSequence([self._root, _label_key(label)])
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, label: str) -> "SeedSequenceFactory":
        """Return a sub-factory whose streams are independent of the parent's."""
        return SeedSequenceFactory(
            (self._root * 0x9E3779B1 + _label_key(label)) & 0x7FFFFFFFFFFFFFFF
        )
