"""Packaging for the src/ layout, plus the ``repro`` console script.

This offline environment has setuptools but not ``wheel``, so PEP 660
editable installs (``pip install -e .`` with build isolation) fail with
``invalid command 'bdist_wheel'``.  Use the legacy editable path::

    pip install -e . --no-build-isolation --no-use-pep517

Metadata lives here (not pyproject.toml) because the baked-in setuptools
65 predates full PEP 621 support for every field we need; pyproject.toml
carries only the build-system table.
"""

from setuptools import find_packages, setup

setup(
    name="repro-kmachine",
    version="1.1.0",
    description=(
        "Reproduction of 'Fast Distributed Algorithms for Connectivity and "
        "MST in Large Graphs' (SPAA 2016): k-machine model simulator, "
        "sketch-based algorithms, baselines, and benchmarks"
    ),
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.25"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
