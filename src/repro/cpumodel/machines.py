"""Machine profiles: converting kernel work (flops) into seconds.

A profile characterizes one node type of the target cluster.  The paper's
evaluation platform is a cluster of Sun workstations with single 440 MHz
UltraSparc II processors; Table 1 additionally uses a 2.8 GHz Pentium 4 as a
(faster) simulation host.  Profiles are calibrated against the paper's
absolute anchors:

* serial LU of a 2592x2592 matrix (r = 216): **185.1 s** on the UltraSparc,
* direct-execution simulation 6.5x faster on the Pentium 4 (29.7 s vs 193 s).

The efficiency curve captures cache behaviour: very small blocks pay loop
and call overhead, blocks whose working set exceeds the cache pay memory
stalls.  This is what makes the decomposition-granularity experiments
(Figs. 8 and 10) non-trivial — the compute side, not only the communication
side, depends on ``r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.units import KB
from repro.util.validation import check_in_range, check_positive


@dataclass(frozen=True)
class MachineProfile:
    """Per-node compute characterization.

    Parameters
    ----------
    name:
        Human-readable identifier.
    effective_mflops:
        Sustained double-precision MFLOP/s on a dense kernel whose working
        set fits the cache (the plateau of the efficiency curve).
    cache_bytes:
        Effective cache capacity; working sets beyond it run at
        ``memory_bound_factor`` of the plateau.
    small_overhead_bytes:
        Working sets below this size pay per-call overhead, approaching
        ``small_block_factor`` of the plateau as size goes to zero.
    memory_bound_factor:
        Efficiency multiplier for far-out-of-cache working sets, in (0, 1].
    small_block_factor:
        Efficiency multiplier for tiny working sets, in (0, 1].
    """

    name: str
    effective_mflops: float
    cache_bytes: float = 2048 * KB
    small_overhead_bytes: float = 48 * KB
    memory_bound_factor: float = 0.55
    small_block_factor: float = 0.50

    def __post_init__(self) -> None:
        check_positive("effective_mflops", self.effective_mflops)
        check_positive("cache_bytes", self.cache_bytes)
        check_positive("small_overhead_bytes", self.small_overhead_bytes)
        check_in_range("memory_bound_factor", self.memory_bound_factor, 0.0, 1.0)
        check_in_range("small_block_factor", self.small_block_factor, 0.0, 1.0)

    # ------------------------------------------------------------- queries
    def efficiency(self, working_set_bytes: float) -> float:
        """Cache-efficiency multiplier for a kernel touching ``working_set_bytes``.

        Smooth interpolation: rises from ``small_block_factor`` over the
        overhead knee, plateaus at 1.0, then falls to ``memory_bound_factor``
        past the cache capacity.  Smoothness keeps parameter sweeps free of
        artificial cliffs.
        """
        w = max(1.0, float(working_set_bytes))
        # Overhead knee (log-sigmoid rising through small_overhead_bytes).
        rise = 1.0 / (1.0 + (self.small_overhead_bytes / w) ** 1.5)
        low = self.small_block_factor + (1.0 - self.small_block_factor) * rise
        # Cache cliff (log-sigmoid falling through cache_bytes).
        fall = 1.0 / (1.0 + (w / self.cache_bytes) ** 1.5)
        high = self.memory_bound_factor + (1.0 - self.memory_bound_factor) * fall
        return low * high

    def flops_per_second(self, working_set_bytes: float) -> float:
        """Sustained flop rate for a kernel with the given working set."""
        return self.effective_mflops * 1e6 * self.efficiency(working_set_bytes)

    def seconds_for(self, flops: float, working_set_bytes: float) -> float:
        """Time to execute ``flops`` with the given working set, in seconds."""
        if flops < 0.0 or not math.isfinite(flops):
            raise ValueError(f"flops must be finite and >= 0, got {flops!r}")
        if flops == 0.0:
            return 0.0
        return flops / self.flops_per_second(working_set_bytes)

    def speed_ratio(self, other: "MachineProfile") -> float:
        """Plateau speed of ``self`` relative to ``other`` (>1 means faster)."""
        return self.effective_mflops / other.effective_mflops


#: The paper's cluster node: Sun workstation, single 440 MHz UltraSparc II.
#: Calibrated so serial LU(2592, r=216) lands near the paper's 185.1 s; see
#: tests/apps/test_lu_calibration.py.
ULTRASPARC_II_440 = MachineProfile(
    name="UltraSparc II 440MHz",
    effective_mflops=72.0,
    cache_bytes=2048 * KB,
    small_overhead_bytes=40 * KB,
    memory_bound_factor=0.62,
    small_block_factor=0.55,
)

#: The faster simulation host of Table 1 (2.8 GHz Pentium 4, Windows);
#: ~6.5x the UltraSparc on the LU kernels (193.0 s -> 29.7 s in Table 1).
PENTIUM4_2800 = MachineProfile(
    name="Pentium 4 2.8GHz",
    effective_mflops=468.0,
    cache_bytes=512 * KB,
    small_overhead_bytes=24 * KB,
    memory_bound_factor=0.50,
    small_block_factor=0.60,
)
