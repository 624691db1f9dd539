"""Start-up gate: a process imports what its run uses, nothing more.

Each case boots a fresh interpreter, drives one public entry point and
reads back which modules got loaded.  ``import repro`` is stdlib-only and
touches no subpackage; numpy loads on the first seeded draw; scipy only
under direct execution or verification; asyncio and multiprocessing only
for ``repro serve`` / a process pool.
"""

import json

import pytest


@pytest.fixture
def modules_after(fresh_python):
    """``sys.modules`` of a fresh interpreter once a statement has run."""

    def run(statement: str) -> set[str]:
        out = fresh_python(
            "import contextlib, json, os, sys\n"
            "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
            "    try:\n"
            f"        {statement}\n"
            "    except SystemExit as stop:\n"  # argparse exits after --help
            "        assert not stop.code, stop.code\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        return set(json.loads(out))

    return run


@pytest.fixture
def modules_after_cli(modules_after):
    def run(*argv: str) -> set[str]:
        return modules_after(
            f"from repro.cli import main; assert main({list(argv)!r}) == 0"
        )

    return run


def test_import_repro_loads_only_the_lazy_helper(modules_after):
    loaded = modules_after("import repro")
    assert not loaded & {"numpy", "scipy", "asyncio", "multiprocessing"}
    ours = {name for name in loaded if name.split(".")[0] == "repro"}
    assert ours == {"repro", "repro._lazy"}


def test_help_needs_no_numpy(modules_after_cli):
    assert not modules_after_cli("--help") & {"numpy", "scipy", "asyncio"}


def test_server_run_draws_with_numpy_but_never_loads_scipy(modules_after_cli):
    pytest.importorskip("numpy")
    loaded = modules_after_cli("run", "examples/server_open_poisson.toml")
    assert not loaded & {"scipy", "asyncio"}
    assert "numpy" in loaded  # Poisson arrivals draw from PCG64


def test_noalloc_lu_run_never_loads_scipy(modules_after_cli):
    pytest.importorskip("numpy")  # the LU cost model's sampler draws
    loaded = modules_after_cli("run", "examples/lu_sim.toml")
    assert not loaded & {"scipy", "asyncio"}
