"""REP-D: each determinism rule fires on the bad shape, not the good one."""

from repro.staticcheck import run_check
from repro.staticcheck.rules_determinism import DETERMINISM_RULES


def findings(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    result = run_check([tmp_path], DETERMINISM_RULES, root=tmp_path)
    return [f.rule_id for f in result.findings]


class TestGlobalRandom:
    def test_global_draw_fires(self, tmp_path):
        src = "import random\nx = random.random()\n"
        assert findings(tmp_path, "des/a.py", src) == ["REP-D001"]

    def test_global_seed_fires(self, tmp_path):
        src = "import random\nrandom.seed(1)\n"
        assert findings(tmp_path, "des/a.py", src) == ["REP-D001"]

    def test_seeded_instance_draw_is_fine(self, tmp_path):
        src = "import random\nrng = random.Random(7)\nx = rng.random()\n"
        assert findings(tmp_path, "des/a.py", src) == []


class TestUnseededRng:
    def test_bare_random_fires(self, tmp_path):
        src = "import random\nrng = random.Random()\n"
        assert findings(tmp_path, "netmodel/a.py", src) == ["REP-D002"]

    def test_unseeded_default_rng_fires(self, tmp_path):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert "REP-D002" in findings(tmp_path, "apps/a.py", src)

    def test_seeded_rng_is_fine(self, tmp_path):
        src = "import random\nrng = random.Random(seed)\n"
        assert findings(tmp_path, "netmodel/a.py", src) == []


class TestWallClock:
    def test_time_time_fires(self, tmp_path):
        src = "import time\nt0 = time.time()\n"
        assert findings(tmp_path, "cpumodel/a.py", src) == ["REP-D003"]

    def test_datetime_now_fires(self, tmp_path):
        src = "import datetime\nnow = datetime.datetime.now()\n"
        assert findings(tmp_path, "clusterserver/a.py", src) == ["REP-D003"]

    def test_out_of_scope_module_is_fine(self, tmp_path):
        src = "import time\nt0 = time.time()\n"
        assert findings(tmp_path, "analysis/a.py", src) == []


class TestMonotonicTimer:
    def test_perf_counter_fires(self, tmp_path):
        src = "import time\nt0 = time.perf_counter()\n"
        assert findings(tmp_path, "des/kernel.py", src) == ["REP-D004"]

    def test_allowlisted_stats_file_is_fine(self, tmp_path):
        src = "import time\nt0 = time.perf_counter()\n"
        assert findings(tmp_path, "des/epoch.py", src) == []
        assert findings(tmp_path, "clusterserver/sharded.py", src) == []


class TestSetIteration:
    def test_for_over_set_literal_fires(self, tmp_path):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert findings(tmp_path, "faults.py", src) == ["REP-D005"]

    def test_comprehension_over_set_literal_fires(self, tmp_path):
        src = "ys = [f(x) for x in {1, 2}]\n"
        assert findings(tmp_path, "des/a.py", src) == ["REP-D005"]

    def test_sorted_set_is_fine(self, tmp_path):
        src = "for x in sorted({1, 2, 3}):\n    print(x)\n"
        assert findings(tmp_path, "faults.py", src) == []

    def test_membership_test_is_fine(self, tmp_path):
        src = "ok = kind in {'a', 'b'}\n"
        assert findings(tmp_path, "des/a.py", src) == []


class TestNamedTolerance:
    def test_bare_pad_on_a_clock_fires(self, tmp_path):
        src = "def arm(now, horizon):\n    return now + max(horizon, 1e-12)\n"
        assert findings(tmp_path, "dps/a.py", src) == ["REP-D007"]

    def test_default_argument_and_class_constant_fire(self, tmp_path):
        src = (
            "class Pool:\n"
            "    ATOL = 1e-9\n"
            "    def done(self, rem, rtol=-1e-9):\n"
            "        return rem <= self.ATOL\n"
        )
        assert findings(tmp_path, "des/a.py", src) == ["REP-D007", "REP-D007"]

    def test_module_level_constant_is_fine(self, tmp_path):
        src = (
            "_COMPLETION_ATOL = 1e-12\n"
            "VERIFY_RTOL: float = 1e-9\n"
            "def done(rem):\n"
            "    return rem <= _COMPLETION_ATOL\n"
        )
        assert findings(tmp_path, "netmodel/a.py", src) == []

    def test_lower_case_module_name_fires(self, tmp_path):
        assert findings(tmp_path, "cpumodel/a.py", "eps = 1e-9\n") == ["REP-D007"]

    def test_quantities_above_the_bound_are_fine(self, tmp_path):
        src = "def backend(local_delivery_delay=2e-6, latency=0.0):\n    pass\n"
        assert findings(tmp_path, "dps/a.py", src) == []

    def test_out_of_scope_module_is_fine(self, tmp_path):
        assert findings(tmp_path, "apps/a.py", "x = y + 1e-12\n") == []
