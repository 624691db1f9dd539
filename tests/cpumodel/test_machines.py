"""Machine profiles: efficiency curve and flops-to-seconds conversion."""

import pytest
from hypothesis import given, strategies as st

from repro.cpumodel.machines import (
    MachineProfile,
    PENTIUM4_2800,
    ULTRASPARC_II_440,
)
from repro.util.units import KB, MB


def test_seconds_scale_with_flops():
    m = ULTRASPARC_II_440
    ws = 500 * KB
    assert m.seconds_for(2e6, ws) == pytest.approx(2 * m.seconds_for(1e6, ws))


def test_zero_flops_is_zero_seconds():
    assert ULTRASPARC_II_440.seconds_for(0.0, 1000) == 0.0


def test_negative_flops_rejected():
    with pytest.raises(ValueError):
        ULTRASPARC_II_440.seconds_for(-1.0, 100)


def test_efficiency_peaks_at_moderate_working_sets():
    m = ULTRASPARC_II_440
    tiny = m.efficiency(1 * KB)
    sweet = m.efficiency(600 * KB)
    huge = m.efficiency(64 * MB)
    assert sweet > tiny
    assert sweet > huge
    assert tiny >= m.small_block_factor * m.memory_bound_factor - 1e-9
    assert huge >= m.memory_bound_factor * 0.5


@given(st.floats(min_value=1.0, max_value=1e10))
def test_efficiency_bounded(ws):
    e = ULTRASPARC_II_440.efficiency(ws)
    assert 0.0 < e <= 1.0


def test_speed_ratio_between_paper_hosts():
    # Table 1: the Pentium 4 runs the direct-execution simulation ~6.5x
    # faster than the UltraSparc (29.7 s vs 193.0 s).
    ratio = PENTIUM4_2800.speed_ratio(ULTRASPARC_II_440)
    assert 5.5 < ratio < 7.5


def test_serial_lu_calibration_anchor():
    """Paper: serial LU of 2592^2 with r=216 runs in 185.1 s."""
    m = ULTRASPARC_II_440
    # Approximate the serial time as flops over the gemm-dominated rate.
    total = 0.0
    n, r = 2592, 216
    nb = n // r
    for k in range(nb):
        rows = n - k * r
        mk = nb - 1 - k
        total += m.seconds_for(rows * r * r - r**3 / 3, 8.0 * rows * r)
        total += mk * m.seconds_for(float(r) ** 3, 2 * 8.0 * r * r)
        total += mk * mk * m.seconds_for(2.0 * float(r) ** 3, 3 * 8.0 * r * r)
        total += mk * mk * m.seconds_for(float(r) * r, 2 * 8.0 * r * r)
    assert total == pytest.approx(185.1, rel=0.10)


def test_profile_validation():
    with pytest.raises(Exception):
        MachineProfile(name="bad", effective_mflops=0.0)
    with pytest.raises(Exception):
        MachineProfile(name="bad", effective_mflops=100.0, memory_bound_factor=1.5)
