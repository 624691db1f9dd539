"""Shared plumbing for the command-line interface.

The CLI mirrors the paper's workflow: the same application object runs
under the simulator (*prediction*) or on the virtual cluster
(*measurement*), selected by ``--engine``; ``--engine both`` reports the
prediction error, the quantity Fig. 13 histograms.

Since the scenario subsystem landed, every app subcommand is a thin shell
over :mod:`repro.scenario`: the argparse options are folded into a
:class:`~repro.scenario.spec.ScenarioSpec` and executed through
:func:`~repro.scenario.runner.run_scenario`, so ``repro lu ...`` and the
equivalent ``repro run lu.toml`` produce identical
:class:`~repro.scenario.runner.RunRecord` metrics by construction.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path
from typing import Optional

from repro.scenario.spec import MODE_NAMES
from repro.scenario import (
    AppSection,
    EngineSection,
    ModelSection,
    ProviderSection,
    RunRecord,
    ScenarioSpec,
    default_registry,
    run_scenario,
)


def add_engine_options(parser: argparse.ArgumentParser) -> None:
    """Attach the engine/mode/seed options every app command shares."""
    parser.add_argument(
        "--engine",
        choices=("sim", "testbed", "both"),
        default="sim",
        help="prediction (sim), measurement (testbed), or both + error",
    )
    parser.add_argument(
        "--mode",
        choices=sorted(MODE_NAMES),
        default="pdexec",
        help="pdexec keeps payloads (verifiable); noalloc elides them",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="testbed noise seed (one 'run')"
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="check the numerical result (needs --mode pdexec)",
    )
    parser.add_argument(
        "--netmodel",
        default=None,
        metavar="NAME",
        help="network model plugin for the sim engine (e.g. maxmin, "
        "maxmin-soa; see 'repro scenarios list'); default: star",
    )
    parser.add_argument(
        "--cpumodel",
        default=None,
        metavar="NAME",
        help="CPU model plugin for the sim engine (shared or timeslice; "
        "see 'repro scenarios list'); default: shared",
    )
    parser.add_argument(
        "--persist-cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="persist direct-execution kernel benchmarks on disk and wrap "
        "them in the measure-first-n provider (default for --mode direct; "
        "--no-persist-cache restores raw per-invocation timing)",
    )
    parser.add_argument(
        "--record-json",
        metavar="PATH",
        default=None,
        help="also write the normalized RunRecord(s) as a JSON list",
    )


def scenario_from_args(
    app: str,
    args: argparse.Namespace,
    options: dict,
    name: Optional[str] = None,
) -> ScenarioSpec:
    """Fold an app subcommand's argparse namespace into a scenario spec.

    The returned spec carries ``engine.name="sim"``; callers switch it to
    ``testbed`` with :func:`dataclasses.replace` for the measurement leg.
    """
    provider_options = {}
    persist = getattr(args, "persist_cache", None)
    if persist is not None:
        provider_options["persist"] = bool(persist)
    events = tuple(getattr(args, "kill", None) or ())
    # --netmodel/--cpumodel select model plugins (e.g. the *-soa numpy
    # backends); left at None, the spec's defaults apply.
    model_sections = {}
    if getattr(args, "netmodel", None):
        model_sections["netmodel"] = ModelSection(str(args.netmodel))
    if getattr(args, "cpumodel", None):
        model_sections["cpumodel"] = ModelSection(str(args.cpumodel))
    return ScenarioSpec(
        name=name or app,
        app=AppSection(app, dict(options)),
        engine=EngineSection(
            name="sim",
            mode=args.mode,
            seed=args.seed,
            verify=args.verify,
        ),
        provider=ProviderSection("auto", provider_options),
        events=events,
        **model_sections,
    )


def write_records(path: str, records: list[RunRecord]) -> None:
    """Dump normalized run records as a JSON list (``--record-json``)."""
    Path(path).write_text(
        json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True),
        encoding="utf-8",
    )


def run_app(
    args: argparse.Namespace,
    app: str,
    options: dict,
    name: Optional[str] = None,
) -> int:
    """Run an app subcommand per the engine options and print the outcome.

    Prints the app's one-line description, then the prediction and/or
    measurement results in the classic format; ``--engine both`` adds the
    signed relative prediction error.
    """
    spec = scenario_from_args(app, args, options, name=name)
    plugin = default_registry().resolve("app", app)
    cfg = plugin.make_config(spec)  # validates options up front
    if plugin.describe is not None:
        print(plugin.describe(cfg))

    records: list[RunRecord] = []
    predicted = measured = None
    if args.engine in ("sim", "both"):
        record = run_scenario(
            dataclasses.replace(
                spec, engine=dataclasses.replace(spec.engine, name="sim")
            )
        )
        predicted = record.makespan
        print(f"predicted running time : {predicted:.4f} s")
        print(f"simulation wall time   : {record.wall_time_s:.4f} s")
        print(f"kernel events          : {record.events}")
        if record.verified:
            print("verification           : OK")
        records.append(record)
    if args.engine in ("testbed", "both"):
        record = run_scenario(
            dataclasses.replace(
                spec, engine=dataclasses.replace(spec.engine, name="testbed")
            )
        )
        measured = record.makespan
        print(f"measured running time  : {measured:.4f} s")
        if record.verified:
            print("verification           : OK")
        records.append(record)
    if predicted is not None and measured is not None:
        error = (predicted - measured) / measured
        print(f"prediction error       : {error:+.2%}")
    if getattr(args, "record_json", None):
        write_records(args.record_json, records)
    return 0
