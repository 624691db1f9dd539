"""ASCII renderers: alignment, scaling, degenerate inputs."""

import pytest

from repro.analysis.tables import ascii_bar_chart, ascii_table


class TestAsciiTable:
    def test_alignment(self):
        text = ascii_table(("a", "bb"), [("x", 1), ("longer", 22)])
        lines = text.splitlines()
        # Header, separator, two rows.
        assert len(lines) == 4
        # Columns are aligned: every 'bb'-column cell starts at the same offset.
        offset = lines[0].index("bb")
        assert lines[2][offset - 2 : offset] == "  "

    def test_title(self):
        text = ascii_table(("h",), [("v",)], title="My Title")
        assert text.splitlines()[0] == "My Title"

    def test_empty_rows(self):
        text = ascii_table(("only", "headers"), [])
        lines = text.splitlines()
        assert len(lines) == 2  # header + separator

    def test_non_string_cells_coerced(self):
        text = ascii_table(("n",), [(3.14159,), (None,)])
        assert "3.14159" in text
        assert "None" in text


class TestBarChart:
    def test_peak_gets_full_width(self):
        text = ascii_bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [1.0, 2.0])

    def test_all_zero_values(self):
        text = ascii_bar_chart(["a"], [0.0])
        assert "#" not in text

    def test_custom_format(self):
        text = ascii_bar_chart(["a"], [0.5], fmt="{:.0%}")
        assert "50%" in text

    def test_negative_values_use_magnitude(self):
        text = ascii_bar_chart(["neg", "pos"], [-4.0, 2.0], width=8)
        lines = text.splitlines()
        assert lines[0].count("#") == 8
        assert lines[1].count("#") == 4
