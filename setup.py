"""Legacy setup shim.

The reference environment is offline and lacks the ``wheel`` package, so
PEP 517 editable installs (which must build a wheel) fail.  Keeping the
project metadata here lets ``pip install -e .`` fall back to the legacy
``setup.py develop`` path, which works without network access.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'A simulator for parallel applications with "
        "dynamically varying compute node allocation' (Schaeli, Gerlach, "
        "Hersch; IPPS 2006)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The des/netmodel/cpumodel core runs dependency-free; numpy (and the
    # scipy triangular-solve accelerator) power the opt-in "*-soa"
    # structure-of-arrays backends and the numerical apps.
    install_requires=[],
    extras_require={
        "fast": ["numpy>=1.23", "scipy>=1.9"],
        "test": ["pytest", "hypothesis"],
    },
)
