"""Setuptools packaging for the PIS library.

``pyproject.toml`` carries only the build-system and tool configuration;
the project metadata stays here so legacy editable installs
(``pip install -e .``) work on environments without the ``wheel`` package
(PEP 660 editable builds require it).
"""

from setuptools import find_packages, setup

setup(
    name="repro-pis",
    version="1.0.0",
    description=(
        "Partition-based graph index and search (PIS): substructure search "
        "with superimposed distance, ICDE 2006 reproduction"
    ),
    python_requires=">=3.9",
    install_requires=["numpy"],
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={
        "console_scripts": [
            "pis = repro.cli:main",
        ],
    },
)
