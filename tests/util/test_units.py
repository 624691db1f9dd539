"""Unit constants and conversions."""

import pytest

from repro.util.units import GB, KB, MB, mbit_per_s


def test_byte_constants_are_powers_of_1024():
    assert KB == 1024
    assert MB == 1024 * KB
    assert GB == 1024 * MB


def test_mbit_per_s_uses_decimal_bits():
    assert mbit_per_s(100.0) == pytest.approx(100e6 / 8)
    assert mbit_per_s(8.0) == pytest.approx(1e6)

