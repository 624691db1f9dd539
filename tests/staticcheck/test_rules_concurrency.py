"""REP-C: concurrency rules on fixture modules."""

from repro.staticcheck import run_check
from repro.staticcheck.rules_concurrency import CONCURRENCY_RULES


def findings(tmp_path, source, rel="svc.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    result = run_check([tmp_path], CONCURRENCY_RULES, root=tmp_path)
    return [f.rule_id for f in result.findings]


class TestAsyncBlocking:
    def test_time_sleep_in_async_fires(self, tmp_path):
        src = (
            "import time\n"
            "async def f():\n"
            "    time.sleep(1)\n"
        )
        assert findings(tmp_path, src) == ["REP-C001"]

    def test_open_in_async_fires(self, tmp_path):
        src = (
            "async def f(path):\n"
            "    with open(path) as h:\n"
            "        return h.read()\n"
        )
        assert findings(tmp_path, src) == ["REP-C001"]

    def test_subprocess_in_async_fires(self, tmp_path):
        src = (
            "import subprocess\n"
            "async def f():\n"
            "    subprocess.run(['ls'])\n"
        )
        assert findings(tmp_path, src) == ["REP-C001"]

    def test_to_thread_is_fine(self, tmp_path):
        src = (
            "import asyncio\n"
            "async def f(path, port):\n"
            "    await asyncio.to_thread(write_port, path, port)\n"
        )
        assert findings(tmp_path, src) == []

    def test_sync_helper_nested_in_async_is_fine(self, tmp_path):
        # A nested *sync* def is not on the event loop when it runs.
        src = (
            "import time\n"
            "async def f():\n"
            "    def helper():\n"
            "        time.sleep(1)\n"
            "    return helper\n"
        )
        assert findings(tmp_path, src) == []

    def test_blocking_in_sync_def_is_fine(self, tmp_path):
        src = "import time\ndef f():\n    time.sleep(1)\n"
        assert findings(tmp_path, src) == []


class TestDispatchUnderLock:
    def test_submit_under_lock_fires(self, tmp_path):
        src = (
            "def f(self, job):\n"
            "    with self._lock:\n"
            "        self._executor.submit(job)\n"
        )
        assert findings(tmp_path, src) == ["REP-C002"]

    def test_put_under_lock_fires(self, tmp_path):
        src = (
            "def f(self, item):\n"
            "    with self.queue_lock:\n"
            "        self._queue.put(item)\n"
        )
        assert findings(tmp_path, src) == ["REP-C002"]

    def test_submit_after_release_is_fine(self, tmp_path):
        src = (
            "def f(self, job):\n"
            "    with self._lock:\n"
            "        ticket = self._admit(job)\n"
            "    self._executor.submit(ticket)\n"
        )
        assert findings(tmp_path, src) == []

    def test_non_lock_context_is_fine(self, tmp_path):
        src = (
            "def f(self, job):\n"
            "    with self._tracer:\n"
            "        self._executor.submit(job)\n"
        )
        assert findings(tmp_path, src) == []

    def test_closure_under_lock_is_fine(self, tmp_path):
        # A def under the lock runs later, not while the lock is held.
        src = (
            "def f(self, job):\n"
            "    with self._lock:\n"
            "        def later():\n"
            "            self._executor.submit(job)\n"
            "        self._pending.append(later)\n"
        )
        assert findings(tmp_path, src) == []


class TestSignalHandlerBody:
    def test_lambda_flag_set_is_fine(self, tmp_path):
        src = (
            "import signal\n"
            "signal.signal(signal.SIGTERM, lambda s, f: stop.set())\n"
        )
        assert findings(tmp_path, src) == []

    def test_lambda_doing_work_fires(self, tmp_path):
        src = (
            "import signal\n"
            "signal.signal(signal.SIGTERM, lambda s, f: pool.shutdown())\n"
        )
        assert findings(tmp_path, src) == ["REP-C003"]

    def test_local_def_raising_is_fine(self, tmp_path):
        src = (
            "import signal\n"
            "def _exit(signum, frame):\n"
            "    raise SystemExit(0)\n"
            "signal.signal(signal.SIGTERM, _exit)\n"
        )
        assert findings(tmp_path, src) == []

    def test_local_def_doing_io_fires(self, tmp_path):
        src = (
            "import signal\n"
            "def _handler(signum, frame):\n"
            "    with open('/tmp/x', 'w') as h:\n"
            "        h.write('bye')\n"
            "signal.signal(signal.SIGTERM, _handler)\n"
        )
        assert findings(tmp_path, src) == ["REP-C003"]

    def test_add_signal_handler_flag_is_fine(self, tmp_path):
        src = (
            "import signal\n"
            "def install(loop, stop):\n"
            "    loop.add_signal_handler(signal.SIGTERM, stop.set)\n"
        )
        assert findings(tmp_path, src) == []
