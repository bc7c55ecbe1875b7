"""The documentation suite stays healthy: links resolve, examples run.

Wraps ``tools/check_docs.py`` so the docs are part of tier-1: a broken
relative link in README/docs or a ``>>>`` example that no longer matches
the code fails the suite, not just the CI docs job.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", _TOOL)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_docs_exist():
    names = {path.name for path in check_docs.default_docs()}
    assert "README.md" in names
    assert "architecture.md" in names
    assert "parallel_campaigns.md" in names


@pytest.mark.parametrize("path", check_docs.default_docs(), ids=lambda p: p.name)
def test_links_resolve(path):
    assert check_docs.check_links(path) == []


@pytest.mark.parametrize("path", check_docs.default_docs(), ids=lambda p: p.name)
def test_doc_examples_run(path):
    failed, _attempted = check_docs.check_doctests(path)
    assert failed == 0


def test_doc_examples_are_actually_exercised():
    """The doctest pass must not silently go no-op: the suite contains
    at least the README and architecture examples."""
    total = sum(check_docs.check_doctests(p)[1] for p in check_docs.default_docs())
    assert total >= 4


def test_link_checker_catches_breakage(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("see [missing](no/such/file.md) and [ok](doc.md)", encoding="utf-8")
    problems = check_docs.check_links(doc)
    assert len(problems) == 1 and "no/such/file.md" in problems[0]


@pytest.mark.parametrize("path", check_docs.cli_docs(), ids=lambda p: p.name)
def test_documented_cli_invocations_parse(path):
    """Every documented ``python -m repro.cli`` command parses with the
    real argument parser (global flags before the subcommand, no flag
    that no longer exists)."""
    assert check_docs.check_cli_invocations(path) == []


def test_cli_checker_catches_stale_commands(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Inline `PYTHONPATH=src python -m repro.cli quickstart` is fine.\n"
        "\n"
        "```bash\n"
        "python -m repro.cli table 7 --runs 2 --seed 1   # global flag too late\n"
        "python -m repro.cli --seed 1 \\\n"
        "    campaign --family fortran --runs 2 | tee log\n"
        "python -m repro.cli --seed 1 table 7 --runs 2 > table7.txt\n"
        "```\n"
        "The `python -m repro.cli` form is only mentioned here.\n",
        encoding="utf-8",
    )
    assert [line for line, _ in check_docs.cli_invocations(doc)] == [1, 4, 5, 7]
    problems = check_docs.check_cli_invocations(doc)
    assert len(problems) == 2
    assert "doc.md:4:" in problems[0] and "--seed" in problems[0]
    assert "doc.md:5:" in problems[1] and "fortran" in problems[1]


@pytest.mark.parametrize(
    "path", sorted((_ROOT / "examples").glob("*.py")), ids=lambda p: p.name
)
def test_example_runs(path, tmp_path):
    """Every example script runs to completion (exit 0) from a clean process."""
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(path)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
