"""Start and stop ``python -m repro serve`` for the ``service_closed`` workload.

Stdlib only, so the set-up launches can time a daemon boot without paying
for ``import repro`` in the process that holds the stopwatch.
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import time

BOOT_DEADLINE_S = 60.0


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, workdir: str) -> None:
        port_file = os.path.join(workdir, f"port-{os.getpid()}-{id(self)}")
        started = time.monotonic()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--port-file", port_file,
                "--pool", "thread", "--workers", "2",
            ],
            stdout=subprocess.DEVNULL,
        )
        try:
            self.port = self._await_port(port_file, started)
            self._await_healthy(started)
        except BaseException:
            self.stop()
            raise
        #: spawn -> first ``GET /healthz`` 200
        self.boot_s = time.monotonic() - started

    def _check_alive(self, started: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(
                f"repro serve exited with code {self.process.returncode}"
            )
        if time.monotonic() - started > BOOT_DEADLINE_S:
            raise RuntimeError("repro serve did not come up in time")

    def _await_port(self, port_file: str, started: float) -> int:
        while not os.path.exists(port_file):
            self._check_alive(started)
            time.sleep(0.002)
        with open(port_file, encoding="utf-8") as handle:
            port = int(handle.read())
        os.unlink(port_file)
        return port

    def _await_healthy(self, started: float) -> None:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            self._check_alive(started)
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the daemon process."""
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM, then SIGKILL if it lingers; always reaps the process."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")
