"""The fresh interpreter a workload runs in (started by ``run.py``).

Three modes, all reporting as JSON lines on stdout:

* ``setup``  — time fresh interpreter -> ready to run, phase by phase;
* ``body``   — warm-up, the timed repetitions, optionally one traced one;
* ``pin``    — run each workload once and print its simulated outputs.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import statistics
import sys
import time
import warnings

STARTED = time.monotonic()


def emit(**event) -> None:
    print(json.dumps(event), flush=True)


# --------------------------------------------------------------------------
# setup
# --------------------------------------------------------------------------


def run_setup(args: argparse.Namespace) -> None:
    if args.workloads == ["service_closed"]:
        # The fresh interpreter the user waits for is the daemon's.
        from daemon import Daemon

        daemon = Daemon(args.workdir)
        daemon.stop()
        emit(ev="setup", setup_s=daemon.boot_s, phases={"boot_s": daemon.boot_s})
        return

    import workloads  # pulls in repro and every module the bodies call

    marks = [time.monotonic()]
    workloads.scenario.default_registry()
    marks.append(time.monotonic())
    workload = workloads.WORKLOADS[args.workloads[0]]()
    workload.load(args.seed, _sizes(args), args.workdir)
    marks.append(time.monotonic())
    workload.calibrate()
    marks.append(time.monotonic())
    workload.build_inputs()
    ready = time.monotonic()
    emit(
        ev="setup",
        # args.t0 is the parent's CLOCK_MONOTONIC reading at spawn.
        setup_s=ready - args.t0,
        phases={
            "import_s": marks[0] - STARTED,
            "registry_build_s": marks[1] - marks[0],
            "spec_load_s": marks[2] - marks[1],
            "calib_load_s": marks[3] - marks[2],
        },
    )


# --------------------------------------------------------------------------
# body
# --------------------------------------------------------------------------


def _sizes(args: argparse.Namespace):
    import workloads

    return workloads.SMOKE if args.smoke else workloads.FULL


def _check(cases, reference: dict, pinned: bool) -> tuple[int, int, list[str]]:
    """Operations attempted and failed in one repetition.

    A case's outputs must equal its reference — the pinned values at the
    default seed, otherwise what the first repetition produced.  A
    mismatch is one failed operation on top of the case's own errors.
    """
    attempted = failed = 0
    messages: list[str] = []
    for case in cases:
        attempted += case.ops
        errors = list(case.errors)
        if case.outputs:
            expected = reference.get(case.name)
            if expected is None:
                if pinned:
                    errors.append("no pinned outputs")
                else:
                    reference[case.name] = case.outputs
            elif expected != case.outputs:
                errors.append(f"outputs {case.outputs} != expected {expected}")
        failed += min(len(errors), case.ops)
        messages += [f"{case.name}: {e}" for e in errors[:5]]
    return attempted, failed, messages


def run_body(args: argparse.Namespace) -> None:
    import workloads
    from tracing import Tracer

    with open(args.expected, encoding="utf-8") as handle:
        expected = json.load(handle)
    sizes = _sizes(args)
    mode = "smoke" if args.smoke else "full"
    pinned = args.seed == expected["seed"]

    for name in args.workloads:
        workload = workloads.WORKLOADS[name]()
        emit(ev="start", workload=name, nominal_s=workload.nominal_s)
        reference = dict(expected[mode][name]["outputs"]) if pinned else {}
        attempted = failed = 0
        messages: list[str] = []

        def account(cases, kind: str, wall: float) -> None:
            nonlocal attempted, failed
            a, f, m = _check(cases, reference, pinned)
            attempted += a
            failed += f
            messages.extend(m)
            emit(ev="rep", workload=name, kind=kind, wall_s=wall, ops=a, failed=f)

        workload.load(args.seed, sizes, args.workdir)
        try:
            started = time.perf_counter()
            account(workload.warmup(), "warmup", time.perf_counter() - started)

            walls: list[float] = []
            reps: list[list] = []
            for _ in range(args.reps):
                gc.collect()
                started = time.perf_counter()
                cases = workload.repetition()
                walls.append(time.perf_counter() - started)
                reps.append(cases)
                account(cases, "timed", walls[-1])

            # Contention only ever adds time, and in bursts shorter than a
            # repetition: each case's fastest time is its best estimate.
            fastest = {
                case.name: min(c.wall_s for rep in reps for c in rep
                               if c.name == case.name)
                for case in reps[0]
            }
            result = {
                "wall_s": sum(fastest.values()),
                "peak_rss_mb": workload.peak_rss_mb(),
                "walls": walls,
            }

            layers: dict[str, float] = {}
            if args.trace:
                tracer = Tracer()
                workloads.install_spans(tracer, workload.policy_classes())
                try:
                    gc.collect()
                    started = time.perf_counter()
                    cases = workload.repetition()
                    traced_wall = time.perf_counter() - started
                finally:
                    tracer.uninstall()
                account(cases, "traced", traced_wall)
                tracer.write(os.path.join(args.workdir, f"spans-{name}.jsonl"))
                started = time.perf_counter()
                extras = workload.untraced_extras(cases)
                account(extras, "extras", time.perf_counter() - started)
                layers = workloads.layer_metrics(cases, extras, tracer.totals())
                q1, _, q3 = (
                    statistics.quantiles(walls, n=4)
                    if len(walls) > 1 else walls * 3
                )
                layers["bench.wall_p50_s"] = statistics.median(walls)
                layers["bench.wall_spread"] = (q3 - q1) / min(walls)
                layers["bench.trace_overhead_frac"] = traced_wall / min(walls) - 1.0
                layers.update(workload.own_layers(
                    reps[walls.index(min(walls))], cases, expected[mode][name]
                ))
        finally:
            workload.close()

        emit(
            ev="result", workload=name, attempted=attempted, failed=failed,
            messages=messages[:20], layers=layers, **result,
        )


# --------------------------------------------------------------------------
# pin
# --------------------------------------------------------------------------


def run_pin(args: argparse.Namespace) -> None:
    import workloads

    sizes = _sizes(args)
    for name in args.workloads:
        workload = workloads.WORKLOADS[name]()
        workload.load(args.seed, sizes, args.workdir)
        try:
            cases = workload.repetition()
            entry = {
                "outputs": {c.name: c.outputs for c in cases},
                **workload.pin_extras(),
            }
        finally:
            workload.close()
        errors = [e for c in cases for e in c.errors]
        emit(ev="pin", workload=name, entry=entry, errors=errors)


def _version(package: str) -> "str | None":
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    """Versions and host facts for the output's environment block."""
    from repro.des.soa import soa_available

    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "soa_available": soa_available(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "body", "pin"))
    parser.add_argument("--workloads", required=True, type=lambda s: s.split(","))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--expected")
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--t0", type=float, default=STARTED)
    args = parser.parse_args()

    # The benchmark's own specs must not lean on the deprecated spelling.
    warnings.filterwarnings(
        "error", message="cluster.interarrival", category=DeprecationWarning
    )
    if args.mode == "setup":
        run_setup(args)
    elif args.mode == "pin":
        run_pin(args)
    else:
        run_body(args)
        emit(ev="environment", **environment())
    return 0


if __name__ == "__main__":
    sys.exit(main())
