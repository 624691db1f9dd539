"""The public names of ``repro`` and its lazily re-exporting packages.

Every package below resolves its ``__all__`` on first access through
``repro._lazy.attach``; these tests pin what eager ``from … import``
re-exports used to guarantee for free.  Nothing here needs numpy: every
defining module imports without it.
"""

import ast
import importlib
import inspect
import pydoc
import re
from pathlib import Path

import pytest

PACKAGES = ["repro"] + [
    f"repro.{name}"
    for name in (
        "apps.matmul apps.imgpipe apps.sort apps.stencil clusterserver"
    ).split()
]


def export_table(package) -> dict[str, str]:
    """The ``{name: defining module}`` literal the package hands to ``attach``."""
    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    (call,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "attach"
    ]
    return ast.literal_eval(call.args[1])


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_names_resolve_to_their_defining_modules(package_name):
    package = importlib.import_module(package_name)
    with pytest.raises(AttributeError, match=f"{package_name!r}.*'no_such_name'"):
        package.no_such_name
    table = export_table(package)
    assert package.__all__ == list(table)
    assert set(package.__all__) <= set(dir(package))
    star: dict = {}
    exec(f"from {package_name} import *", star)
    for name, home in table.items():
        value = getattr(package, name)
        assert value is getattr(importlib.import_module(home), name)
        assert value is star[name]
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home, f"{name} is re-exported by {home}"


DOCSTRING_ONLY = [
    f"repro.{name}"
    for name in (
        "analysis apps apps.lu cpumodel des dps netmodel service sim testbed "
        "util"
    ).split()
]


@pytest.mark.parametrize("package_name", DOCSTRING_ONLY)
def test_packages_without_callers_export_nothing(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__
    assert not hasattr(package, "__all__")
    assert not hasattr(package, "__getattr__")
    (only,) = ast.parse(Path(package.__file__).read_text(encoding="utf-8")).body
    assert isinstance(only, ast.Expr) and only.value.value == package.__doc__
    # every name the docstring points at resolves at its defining module
    for target in re.findall(r":(?:class|mod|func):`~?([\w.]+)`", package.__doc__):
        assert pydoc.locate(target) is not None, target


@pytest.mark.parametrize(
    "owner, name",
    [
        ("repro", "sweep"),
        ("repro.analysis", "sweep"),
        *(
            ("repro.des", name)
            for name in "process Process Timeout Signal WaitSignal AllOf".split()
        ),
        ("repro.des.kernel.Kernel", "schedule"),
        # re-exports no caller outside the tests imported: one path per name
        ("repro", "Kernel"),
        ("repro", "ReproError"),
        ("repro.analysis", "ErrorHistogram"),
        ("repro.des", "Kernel"),
        ("repro.dps", "FlowGraph"),
        ("repro.util", "format_bytes"),
        ("repro.scenario", "PhaseRecord"),
        ("repro.staticcheck", "Finding"),
        # definitions only their own tests reached
        *(
            ("repro.util.units", name)
            for name in "SECOND MILLISECOND mbyte_per_s format_bytes "
            "format_duration".split()
        ),
        ("repro.util.stats", "summarize"),
        ("repro.util.stats", "Summary"),
        ("repro.util.rng", "derive_rng"),
        ("repro.cpumodel.machines", "MODERN_XEON"),
        ("repro.sim.providers", "TableCostModel"),
        ("repro.sim.efficiency", "utilization_timeline"),
        ("repro.dps.flow_control", "FlowControlConfig"),
        ("repro.dps.routing", "ByMetaKey"),
        ("repro.analysis.metrics", "performance_improvement"),
        ("repro.analysis.tables", "ascii_histogram"),
        ("repro.apps.lu.costs", "lu_total_flops"),
        ("repro.scenario.spec", "load_spec"),
        ("repro.scenario", "load_spec"),
        # one spelling of a server workload: every spec is an arrival stream
        ("repro.scenario", "WorkloadPlugin"),
        ("repro.clusterserver.arrivals", "closed_stream"),
        # the service load generator was their last caller outside the tests
        ("repro.service", "ServiceClient"),
        ("repro.service", "ServiceThread"),
        # one owner per worker pool: sweeps call run_records(specs, jobs)
        ("repro.analysis.parallel", "ParallelSweepRunner"),
        # one front door: `repro run SPEC` is the only way to run a scenario
        ("repro.cli", "apps"),
        ("repro.cli", "server"),
        ("repro.cli", "common"),
        ("repro.analysis.tables", "ascii_bar_chart"),
        ("repro.scenario.registry.AppPlugin", "describe"),
        *(
            ("repro.scenario", name)
            for name in "ClusterSection ModelSection ProviderSection".split()
        ),
        # every paper claim is a FIDELITY.json section of scenario specs
        ("repro.analysis", "whatif"),
        ("repro.netmodel.backplane.BackplaneStarNetwork", "factory"),
        ("repro.analysis.prediction", "ErrorHistogram"),
        ("repro.analysis.prediction.PredictionStudy", "histogram"),
        ("repro.analysis.prediction.PredictionStudy", "extend"),
        *(
            ("repro.cli.tools", name)
            for name in "cmd_sweep add_sweep_parser _parse_int_list".split()
        ),
        *(
            ("repro", name)
            for name in "NetworkParams FAST_ETHERNET GIGABIT_ETHERNET".split()
        ),
    ],
)
def test_removed_names_stay_removed_without_an_alias(owner, name):
    holder = pydoc.locate(owner)
    assert not hasattr(holder, name)
    assert name not in getattr(holder, "__all__", ())
    if inspect.ismodule(holder):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"{owner}.{name}")


def test_threads_resolving_one_name_get_one_object(fresh_python):
    # `repro serve --pool thread`: two workers' first jobs touch the same
    # not-yet-imported name at once.
    fresh_python(
        "import sys, threading\n"
        "import repro\n"
        "assert 'repro.sim.simulator' not in sys.modules  # a first touch\n"
        "sys.setswitchinterval(1e-6)\n"
        "workers = 8\n"
        "barrier = threading.Barrier(workers)\n"
        "seen = []\n"
        "def resolve():\n"
        "    barrier.wait(timeout=30)\n"
        "    seen.append(repro.DPSSimulator)\n"
        "threads = [threading.Thread(target=resolve) for _ in range(workers)]\n"
        "for thread in threads: thread.start()\n"
        "for thread in threads: thread.join(timeout=30)\n"
        "assert not any(thread.is_alive() for thread in threads)\n"
        "assert len(seen) == workers and len(set(map(id, seen))) == 1, seen\n"
        "from repro.sim.simulator import DPSSimulator\n"
        "assert seen[0] is DPSSimulator\n"
    )
