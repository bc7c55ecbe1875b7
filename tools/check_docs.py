#!/usr/bin/env python
"""Documentation checks: resolvable links, runnable snippets, valid commands.

Three passes over ``README.md`` and ``docs/*.md`` (plus any extra paths
given on the command line):

1. **link check** — every relative markdown link/image target
   (``[text](path)``) must exist on disk, anchors and query strings
   stripped; ``http(s)``/``mailto`` links are skipped (the suite must
   pass offline).
2. **doctests** — every ``>>>`` example in the files is executed via
   :mod:`doctest` (run with ``PYTHONPATH=src`` so ``repro`` imports).
3. **CLI invocations** — every documented ``python -m repro.cli ...``
   command (in fenced code blocks or inline code spans, also in the
   verify skill notes) must parse with the real
   :func:`repro.cli.build_parser`, so a renamed or removed flag, or a
   global flag placed after the subcommand, fails the check.

Exit status is non-zero on any broken link, failing example or
unparseable command, which is what CI's docs job and
``tests/test_docs.py`` assert.
"""

from __future__ import annotations

import contextlib
import doctest
import io
import pathlib
import re
import shlex
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Markdown inline links/images: [text](target) — target captured.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Targets that are not files to check.
_EXTERNAL = ("http://", "https://", "mailto:")


#: A documented CLI call; group 1 is everything after the module name.
_CLI_RE = re.compile(r"\bpython3?\s+-m\s+repro\.cli\b(.*)")

#: Shell tokens that end the CLI's own argument list.
_SHELL_OPERATORS = {"|", "||", "&&", ";", "&", ">", ">>", "<", "2>", "2>&1"}


def default_docs() -> list[pathlib.Path]:
    """README.md plus every markdown file under docs/."""
    paths = [REPO_ROOT / "README.md"]
    paths.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in paths if path.exists()]


def cli_docs() -> list[pathlib.Path]:
    """The docs whose CLI invocations are checked: :func:`default_docs`
    plus the verify skill notes."""
    skill = REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
    return default_docs() + ([skill] if skill.exists() else [])


def _shown(path: pathlib.Path):
    try:
        return path.relative_to(REPO_ROOT)
    except ValueError:
        return path


def check_links(path: pathlib.Path) -> list[str]:
    """All broken relative link targets of one markdown file."""
    problems = []
    text = path.read_text(encoding="utf-8")
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        plain = target.split("#", 1)[0].split("?", 1)[0]
        if not plain:
            continue
        resolved = (path.parent / plain).resolve()
        if not resolved.exists():
            problems.append(f"{_shown(path)}: broken link -> {target}")
    return problems


def check_doctests(path: pathlib.Path) -> tuple[int, int]:
    """Run a markdown file's ``>>>`` examples; returns (failures, attempts)."""
    results = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
    )
    return results.failed, results.attempted


def cli_invocations(path: pathlib.Path) -> list[tuple[int, list[str]]]:
    """``(line, argv)`` of every ``python -m repro.cli`` call in a file.

    Commands count inside fenced code blocks (backslash continuations
    joined) and inside inline code spans elsewhere.  ``argv`` stops at
    the first shell operator and drops ``#`` comments; a bare mention of
    the module with no arguments is not an invocation.
    """
    found = []
    lines = path.read_text(encoding="utf-8").splitlines()
    fenced = False
    i = 0
    while i < len(lines):
        lineno, line = i + 1, lines[i]
        i += 1
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            while line.rstrip().endswith("\\") and i < len(lines):
                line = line.rstrip()[:-1] + " " + lines[i]
                i += 1
            candidates = [line]
        else:
            candidates = line.split("`")[1::2]
        for text in candidates:
            match = _CLI_RE.search(text)
            if match is None:
                continue
            argv = []
            for token in shlex.split(match.group(1), comments=True):
                if token in _SHELL_OPERATORS:
                    break
                argv.append(token)
            if argv:
                found.append((lineno, argv))
    return found


def check_cli_invocations(path: pathlib.Path) -> list[str]:
    """Every documented CLI call in ``path`` that the real parser rejects."""
    from repro.cli import build_parser

    problems = []
    for lineno, argv in cli_invocations(path):
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code not in (0, None):
                reason = err.getvalue().strip().splitlines()[-1:] or ["rejected"]
                problems.append(
                    f"{_shown(path)}:{lineno}: repro.cli {shlex.join(argv)}: {reason[0]}"
                )
    return problems


def main(argv: list[str]) -> int:
    paths = [pathlib.Path(arg) for arg in argv]
    cli_paths = paths or cli_docs()
    paths = paths or default_docs()
    broken: list[str] = []
    failed = attempted = 0
    for path in paths:
        broken.extend(check_links(path))
        file_failed, file_attempted = check_doctests(path)
        failed += file_failed
        attempted += file_attempted
    invalid = [problem for path in cli_paths for problem in check_cli_invocations(path)]
    for problem in broken + invalid:
        print(problem)
    print(
        f"checked {len(paths)} docs: {len(broken)} broken links, "
        f"{failed}/{attempted} doc examples failed, "
        f"{len(invalid)} invalid CLI invocations"
    )
    return 1 if broken or failed or invalid else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
