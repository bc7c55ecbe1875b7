"""Package metadata: the ``wavm3`` distribution of the ``repro`` package.

``python -m pip install --no-deps --no-build-isolation -e .`` installs it
with the ``wavm3`` console script; the editable build needs ``setuptools``
and ``wheel`` in the environment.  The version is read from
``src/repro/_version.py`` without importing the package.
"""

import pathlib
import re

from setuptools import find_packages, setup

HERE = pathlib.Path(__file__).resolve().parent
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "_version.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="wavm3",
    version=VERSION,
    description=(
        "Reproduction of WAVM3, a workload-aware energy model for "
        "virtual machine migration"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["wavm3 = repro.cli:main"]},
)
