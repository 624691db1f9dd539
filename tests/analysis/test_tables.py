"""ASCII table renderer: alignment, titles, degenerate inputs."""

from repro.analysis.tables import ascii_table


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
