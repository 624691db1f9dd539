"""The perf ledger: six workloads, end-to-end and per-layer metrics.

    python3 benchmarks/ledger/run.py                      # every workload
    python3 benchmarks/ledger/run.py --workload lu_predict --seed 2 \\
            --seconds 13 --trace 0                        # one, as the driver runs it
    python3 benchmarks/ledger/run.py --aa 10              # A/A self-check
    python3 benchmarks/ledger/run.py --smoke              # tiny sizes, seconds
    python3 benchmarks/ledger/run.py --pin                # rewrite expected.json

Prints every metric by name with its unit, checks the simulated outputs
against ``expected.json`` and ends with one JSON line; exits non-zero when
any operation failed.  See README.md for the protocol and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = str(HERE / "child.py")
EXPECTED = HERE / "expected.json"
WORK = HERE / ".work"

WORKLOAD_NAMES = (
    "lu_predict", "lu_measure", "server_eager",
    "server_stream", "churn_dense", "service_closed",
)
DEFAULT_SEED = 2
SETUP_LAUNCHES = 5
#: A repetition may take 20x its expected time before the child is killed.
DEADLINE_FACTOR = 20.0
#: No child outlives this, whatever its repetitions do.
CHILD_CAP_S = 150.0
#: Seconds of timed repetitions one repetition is budgeted at; ``--seconds``
#: buys ``seconds / REP_BUDGET_S`` repetitions, between 5 and 8.
REP_BUDGET_S = 2.5


#: End-to-end metric name -> unit (BENCHMARK.json adds the bounds).
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metric name -> unit; layer = module under ``src/repro/``.
PER_LAYER = {
    "scenario.import_s": "s",
    "scenario.registry_build_s": "s",
    "scenario.spec_load_s": "s",
    "scenario.run_self_s": "s",
    "analysis.calib_load_s": "s",
    "sim.run_s": "s",
    "sim.pred_err_pct": "%",
    "testbed.run_s": "s",
    "dps.events": "count",
    "dps.us_per_event": "us",
    "des.kernel_run_s": "s",
    "des.events": "count",
    "des.us_per_event": "us",
    "des.horizon_heap_ops": "count",
    "des.horizon_stale_discards": "count",
    "des.epoch_count": "count",
    "des.barrier_wait_s": "s",
    "netmodel.submit_s": "s",
    "netmodel.updates": "count",
    "netmodel.rates_computed": "count",
    "netmodel.full_fallbacks": "count",
    "netmodel.warm_starts": "count",
    "netmodel.warm_inserts": "count",
    "netmodel.maxmin_s": "s",
    "netmodel.packet_s": "s",
    "netmodel.maxmin_soa_s": "s",
    "netmodel.packet_soa_s": "s",
    "cpumodel.submit_s": "s",
    "cpumodel.updates": "count",
    "cpumodel.rates_computed": "count",
    "clusterserver.run_s": "s",
    "clusterserver.sched_allocate_s": "s",
    "clusterserver.sched_allocate_calls": "count",
    "clusterserver.allocations_elided": "count",
    "clusterserver.arrivals_s": "s",
    "clusterserver.events": "count",
    "service.boot_s": "s",
    "service.throughput_rps": "1/s",
    "service.req_p50_ms": "ms",
    "service.req_p99_ms": "ms",
    "service.exec_p50_ms": "ms",
    "service.http_overhead_ms": "ms",
    "service.executed": "count",
    "service.deduplicated": "count",
    "service.rejected_429": "count",
    "bench.wall_p50_s": "s",
    "bench.wall_spread": "ratio",
    "bench.trace_overhead_frac": "ratio",
}


def repetitions(seconds: float) -> int:
    return max(5, min(8, int(seconds / REP_BUDGET_S)))


def child_env(cache_dir: str) -> dict[str, str]:
    """The hermetic environment every child (and the daemon) runs in."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = cache_dir
    # Bytecode is cached as for any user of the program; the first launch
    # in a checkout compiles src/ (into __pycache__, which git ignores).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# --------------------------------------------------------------------------
# running children
# --------------------------------------------------------------------------


class ChildFailure(Exception):
    """A child died, overran its deadline, or printed no result."""


def _spawn(mode: str, options: list[str], env: dict[str, str]) -> subprocess.Popen:
    # A session of its own, so a deadline kill also takes the daemon.
    return subprocess.Popen(
        [sys.executable, CHILD, mode, *options],
        stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
        start_new_session=True, text=True,
    )


def _kill(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def child_events(mode: str, options: list[str], env: dict[str, str], deadline_of):
    """Yield the child's JSON events; kill it when an event is overdue.

    ``deadline_of(last_event)`` is how long the next event may take.
    """
    process = _spawn(mode, options, env)
    lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def pump() -> None:
        for line in process.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    cap = time.monotonic() + CHILD_CAP_S
    last: Optional[dict] = None
    try:
        while True:
            wait = min(deadline_of(last), cap - time.monotonic())
            try:
                line = lines.get(timeout=max(wait, 0.0))
            except queue.Empty:
                raise ChildFailure(
                    f"deadline: no progress for {wait:.0f} s after {last}"
                ) from None
            if line is None:
                break
            last = json.loads(line)
            yield last
        if process.wait() != 0:
            raise ChildFailure(f"child exited with code {process.returncode}")
    finally:
        _kill(process)
        reader.join()


def measure_setup(name: str, seed: int, workdir: str, env: dict[str, str]) -> dict:
    """Fastest of SETUP_LAUNCHES fresh launches, phase by phase."""
    launches = []
    for _ in range(SETUP_LAUNCHES):
        options = [
            "--workloads", name, "--seed", str(seed), "--workdir", workdir,
            "--t0", repr(time.monotonic()),
        ]
        events = list(child_events("setup", options, env, lambda last: 60.0))
        launches.append(events[-1])
    phases = {
        key: min(launch["phases"][key] for launch in launches)
        for key in launches[0]["phases"]
    }
    return {
        "setup_s": min(launch["setup_s"] for launch in launches),
        "phases": phases,
    }


def run_workloads(
    names: list[str], seed: int, reps: int, trace: bool, smoke: bool,
    expected: Path,
) -> tuple[dict[str, dict], dict]:
    """One body child for ``names`` plus their set-up launches.

    Returns per workload the result event (with ``setup`` folded in) and
    the environment block.  A workload the child never finished is
    reported with every operation of the overdue repetition failed.
    """
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    env = child_env(os.path.join(workdir, "cache"))
    results: dict[str, dict] = {}
    environment: dict = {}
    progress: dict[str, dict] = {}
    try:
        options = [
            "--workloads", ",".join(names), "--seed", str(seed),
            "--workdir", workdir, "--expected", str(expected.resolve()),
            "--reps", str(reps), "--trace", str(int(trace)),
        ] + (["--smoke"] if smoke else [])

        def deadline_of(last: Optional[dict]) -> float:
            if smoke or last is None:
                return 60.0
            nominal = progress.get(last.get("workload"), {}).get("nominal_s", 3.0)
            return DEADLINE_FACTOR * nominal

        try:
            for event in child_events("body", options, env, deadline_of):
                kind = event.pop("ev")
                if kind == "start":
                    progress[event["workload"]] = {
                        "nominal_s": event["nominal_s"],
                        "attempted": 0, "failed": 0, "last_ops": 1,
                    }
                elif kind == "rep":
                    seen = progress[event["workload"]]
                    seen["attempted"] += event["ops"]
                    seen["failed"] += event["failed"]
                    seen["last_ops"] = event["ops"]
                elif kind == "result":
                    results[event["workload"]] = event
                elif kind == "environment":
                    environment = event
        except ChildFailure as failure:
            # Whatever was running when the child went counts as failed.
            for name in names:
                if name in results:
                    continue
                seen = progress.get(name, {"attempted": 0, "failed": 0, "last_ops": 1})
                results[name] = {
                    "workload": name,
                    "attempted": seen["attempted"] + seen["last_ops"],
                    "failed": seen["failed"] + seen["last_ops"],
                    "messages": [str(failure)],
                    "layers": {},
                }
        # After the body, so its warm-up has filled the calibration cache
        # and every set-up launch sees it warm.
        for name in names:
            if smoke or "wall_s" not in results[name]:
                continue
            try:
                results[name]["setup"] = measure_setup(name, seed, workdir, env)
            except ChildFailure as failure:
                results[name]["attempted"] += 1
                results[name]["failed"] += 1
                results[name]["messages"].append(f"setup launch: {failure}")
        if trace:
            for spans in Path(workdir).glob("spans-*.jsonl"):
                shutil.move(str(spans), WORK / spans.name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results, environment


# --------------------------------------------------------------------------
# metrics and reporting
# --------------------------------------------------------------------------


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(result: dict) -> dict[str, dict]:
    """The end-to-end metrics that were measured (``--smoke`` has no set-up)."""
    values = {
        "setup_s": result.get("setup", {}).get("setup_s"),
        "wall_s": result.get("wall_s"),
        "peak_rss_mb": result.get("peak_rss_mb"),
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END.items() if values[name] is not None
    }


def per_layer(result: dict) -> dict[str, dict]:
    """Every per-layer metric; 0 where the layer did no work."""
    phases = result.get("setup", {}).get("phases", {})
    values = {
        "scenario.import_s": phases.get("import_s", 0.0),
        "scenario.registry_build_s": phases.get("registry_build_s", 0.0),
        "scenario.spec_load_s": phases.get("spec_load_s", 0.0),
        "analysis.calib_load_s": phases.get("calib_load_s", 0.0),
        "service.boot_s": phases.get("boot_s", 0.0),
        **result.get("layers", {}),
    }
    unknown = sorted(set(values) - set(PER_LAYER))
    if unknown:
        raise KeyError(f"per-layer metrics without a unit: {unknown}")
    return {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in PER_LAYER.items()
    }


def print_metrics(workload: str, metrics: dict[str, dict]) -> None:
    for name, metric in metrics.items():
        print(f"{workload:<15} {name:<36} {metric['value']:>14.6g} {metric['unit']}")


def report(results: dict[str, dict], environment: dict, trace: Optional[bool]) -> dict:
    """Print every metric; return the summary the last line carries.

    ``trace`` None prints end-to-end and per-layer metrics both.
    """
    summary: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name, result in results.items():
        metrics: dict[str, dict] = {}
        if trace is not True:
            metrics.update(end_to_end(result))
        if trace is not False:
            metrics.update(per_layer(result))
        print_metrics(name, metrics)
        print(
            f"{name:<15} operations attempted {result['attempted']}, "
            f"failed {result['failed']}"
        )
        for message in result.get("messages", []):
            print(f"{name:<15} FAILED {message}", file=sys.stderr)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = {
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics,
        }
    summary["correct"] = summary["failed"] == 0 and summary["attempted"] > 0
    if environment:
        print("environment     " + json.dumps(environment, sort_keys=True))
    return summary


# --------------------------------------------------------------------------
# modes
# --------------------------------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    """The driver's call: one workload, one JSON result line."""
    results, environment = run_workloads(
        [args.workload], args.seed,
        1 if args.smoke else repetitions(args.seconds),
        bool(args.trace), args.smoke, args.expected,
    )
    summary = report(results, environment, bool(args.trace))
    only = summary["workloads"][args.workload]
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": only["metrics"],
    }))
    return 0 if summary["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, traced and untraced, every metric."""
    results: dict[str, dict] = {}
    environment: dict = {}
    if args.smoke:
        # One child for all six: a fresh interpreter each would cost more
        # than the tiny bodies do.
        results, environment = run_workloads(
            list(WORKLOAD_NAMES), args.seed, 1, True, True, args.expected
        )
    else:
        for name in WORKLOAD_NAMES:
            one, environment = run_workloads(
                [name], args.seed, repetitions(args.seconds), True, False,
                args.expected,
            )
            results.update(one)
    summary = report(results, environment, None)
    summary["environment"] = environment
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def run_aa(args: argparse.Namespace) -> int:
    """K alternating full sets of the same checkout, compared with the bounds.

    Set i runs every workload once with seed ``--seed + i``; even sets form
    side A, odd sets side B.  Per workload x end-to-end metric it prints
    the spread over all K values (distance between the quartiles over the
    median, the statistic the driver uses) and how much worse B's median
    is than A's, each beside the metric's bound.
    """
    bounds = {m["name"]: m for m in declared()["end_to_end"]}
    values: dict[tuple[str, str], list[float]] = {}
    failed = 0
    for index in range(args.aa):
        for name in WORKLOAD_NAMES:
            results, _ = run_workloads(
                [name], args.seed + index, repetitions(args.seconds),
                False, False, args.expected,
            )
            result = results[name]
            failed += result["failed"]
            for metric, entry in end_to_end(result).items():
                values.setdefault((name, metric), []).append(entry["value"])
            print(f"set {index} {name}: " + ", ".join(
                f"{m}={values[(name, m)][-1]:.4f}" for m in bounds
                if (name, m) in values
            ), flush=True)
    print(f"\n{'workload':<15} {'metric':<12} {'median':>10} {'spread':>8} "
          f"{'B vs A':>8} {'bound':>6}")
    exceeded = 0
    for (name, metric), series in values.items():
        bound = bounds[metric]["bound"]
        median = statistics.median(series)
        quartiles = statistics.quantiles(series, n=4) if len(series) > 1 else [median] * 3
        spread = (quartiles[2] - quartiles[0]) / median
        side_a, side_b = series[0::2], series[1::2]
        drift = 0.0
        if side_a and side_b:
            drift = statistics.median(side_b) / statistics.median(side_a) - 1.0
            if bounds[metric]["better"] == "higher":
                drift = -drift
        # setup_s is exempt from the driver's spread check, not from drift.
        over = drift > bound or (metric != "setup_s" and spread > bound)
        exceeded += over
        print(f"{name:<15} {metric:<12} {median:>10.4f} {spread:>8.4f} "
              f"{drift:>+8.4f} {bound:>6.2f}{'  EXCEEDED' if over else ''}")
    print(f"\noperations failed: {failed}; pairings over their bound: {exceeded}")
    return 1 if failed or exceeded else 0


def run_pin(args: argparse.Namespace) -> int:
    """Recompute ``expected.json`` at the default seed (full and smoke sizes)."""
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pin-", dir=WORK)
    env = child_env(os.path.join(workdir, "cache"))
    pinned: dict[str, Any] = {"seed": DEFAULT_SEED}
    try:
        for mode in ("full", "smoke"):
            options = [
                "--workloads", ",".join(WORKLOAD_NAMES),
                "--seed", str(DEFAULT_SEED), "--workdir", workdir,
            ] + (["--smoke"] if mode == "smoke" else [])
            pinned[mode] = {}
            for event in child_events("pin", options, env, lambda last: 120.0):
                if event["errors"]:
                    print("\n".join(event["errors"]), file=sys.stderr)
                    return 1
                pinned[mode][event["workload"]] = event["entry"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="budget of timed repetitions: 2.5 s buys one, 5 to 8 are run",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, metavar="K", default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--expected", type=Path, default=EXPECTED)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.pin:
        return run_pin(args)
    if args.aa:
        return run_aa(args)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
