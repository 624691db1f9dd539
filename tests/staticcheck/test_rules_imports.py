"""REP-I: optional-import hygiene rules on fixture modules."""

from repro.staticcheck import run_check
from repro.staticcheck.rules_imports import IMPORT_RULES

GUARDED = (
    "try:\n"
    "    import numpy as np\n"
    "except ImportError:\n"
    "    np = None\n"
)


def findings(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    result = run_check([tmp_path], IMPORT_RULES, root=tmp_path)
    return [f.rule_id for f in result.findings]


class TestOptionalImportGuard:
    def test_unguarded_numpy_fires(self, tmp_path):
        assert findings(tmp_path, "core.py", "import numpy as np\n") == [
            "REP-I001"
        ]

    def test_unguarded_scipy_from_import_fires(self, tmp_path):
        src = "from scipy.sparse import csr_matrix\n"
        assert findings(tmp_path, "core.py", src) == ["REP-I001"]

    def test_guarded_module_level_import_fires(self, tmp_path):
        # The old try/except-ImportError guard still imports for everyone.
        assert findings(tmp_path, "core.py", GUARDED) == ["REP-I001"]

    def test_guarded_import_is_fine(self, tmp_path):
        # util/rng.py's shape: the guard lives where the draw happens.
        src = (
            "def rng():\n"
            "    try:\n"
            "        import numpy as np\n"
            "    except ImportError as exc:\n"
            "        raise ImportError('pip install repro[fast]') from exc\n"
            "    return np.random.default_rng()\n"
        )
        assert findings(tmp_path, "core.py", src) == []

    def test_class_body_import_fires(self, tmp_path):
        src = "class K:\n    import numpy as np\n"
        assert findings(tmp_path, "core.py", src) == ["REP-I001"]

    def test_function_body_import_is_fine(self, tmp_path):
        src = (
            "def mean(xs):\n"
            "    import numpy as np\n"
            "    return np.mean(xs)\n"
            "class K:\n"
            "    async def solve(self):\n"
            "        if self.big:\n"
            "            from scipy.linalg import lu_factor\n"
        )
        assert findings(tmp_path, "core.py", src) == []

    def test_type_checking_import_is_fine(self, tmp_path):
        src = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    import numpy as np\n"
        )
        assert findings(tmp_path, "core.py", src) == []

    def test_type_checking_else_branch_fires(self, tmp_path):
        src = (
            "import typing\n"
            "if typing.TYPE_CHECKING:\n"
            "    import numpy as np\n"
            "else:\n"
            "    import numpy as np\n"
        )
        assert findings(tmp_path, "core.py", src) == ["REP-I001"]

    def test_soa_module_is_exempt(self, tmp_path):
        src = "import numpy as np\n"
        assert findings(tmp_path, "netmodel/soa.py", src) == []

    def test_stdlib_import_is_fine(self, tmp_path):
        assert findings(tmp_path, "core.py", "import json\n") == []
