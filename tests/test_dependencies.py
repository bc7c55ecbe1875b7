"""The package needs numpy and the standard library, nothing else.

The README promises ``numpy`` as the only runtime dependency and CI
installs nothing more, so an optional import that silently switches
solvers (and results) when some other package happens to be installed
must not creep back in.
"""

from __future__ import annotations

import ast
import json
import os
import site
import subprocess
import sys
import sysconfig
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_source_imports_only_numpy_and_stdlib():
    sources = sorted((SRC / "repro").rglob("*.py"))
    assert sources
    offending = {
        str(path.relative_to(SRC)): sorted(_top_level_imports(path) - ALLOWED)
        for path in sources
    }
    assert {path: names for path, names in offending.items() if names} == {}


#: Lists each top-level module the entry points add to ``sys.modules``,
#: with the file it was loaded from (``None`` for built-in and synthetic
#: modules such as ``cython_runtime`` or multiprocessing's ``__mp_main__``).
_PROBE = """
import json, sys
before = set(sys.modules)
import repro.cli, repro.analysis.comparison, repro.experiments.queue_backend
added = {name for name in set(sys.modules) - before if "." not in name}
print(json.dumps({name: getattr(sys.modules[name], "__file__", None) for name in added}))
"""


def test_entry_points_load_no_third_party_module():
    loaded = json.loads(subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout)
    assert {
        name for name, file in loaded.items()
        if name not in ALLOWED and file is not None and not _in_stdlib(file)
    } == set()


def _in_stdlib(file: str) -> bool:
    """Whether ``file`` lies in the standard library's directory (the
    ``_sysconfigdata_*`` table does, under a name outside
    ``sys.stdlib_module_names``) and not in its ``site-packages``."""
    stdlib = Path(sysconfig.get_path("stdlib")).resolve()
    installed = {Path(sysconfig.get_path(key)).resolve() for key in ("purelib", "platlib")}
    installed.add(Path(site.getusersitepackages()).resolve())
    parents = set(Path(file).resolve().parents)
    return stdlib in parents and not installed & parents


def test_runner_import_loads_no_executor_or_backend():
    """Running scenarios needs no executor, queue backend or thread pool:
    ``repro.experiments`` re-exports only the serial-execution names."""
    probe = (
        "import json, sys; import repro.experiments.runner; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    loaded = set(json.loads(subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout))
    unwanted = {
        "repro.experiments.executor",
        "repro.experiments.queue_backend",
        "http.server",
        "concurrent.futures",
    }
    assert loaded & unwanted == set()
