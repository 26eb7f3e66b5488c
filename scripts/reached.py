"""List the functions and methods of src/fourierstab that neither the acceptance
criteria nor the benchmark's workloads enter, and the names its modules import
and never use.

Usage: python scripts/reached.py

In this one process, under the standard library's line tracer (`trace`, every
thread included), it runs tests/test_acceptance.py with pytest and then, for each
workload in BENCHMARK.json, perfbench's own `run.main` with `--workload W --seed 101
--size tiny --trace 1 --seconds 0`, whose commands run in process through
`fourierstab.cli.main`. Its set-up commands, which it runs as child processes
`python -m fourierstab.cli ARGS`, run here instead as that module's `__main__`
(runpy), so they are traced too. A function counts as entered when a line of its
body runs.

Standard output is every top-level function and every method of a top-level class
of src/fourierstab/*.py that is not entered, as `module.name` or
`module.Class.name`, one a line, then every name that a module imports at top
level and never reads, as `module.name (unused import)`; a line marked `# noqa:
F401` is a deliberate re-export and is skipped. pytest's and the benchmark's own
output goes to standard error. It exits 1 if a criterion or a benchmark command
failed, since the audit would then be incomplete, and 0 otherwise. It writes nothing in the
repository: no bytecode, no pytest cache, and the benchmark works in a temporary
directory.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # and none in the benchmark's child processes

import ast
import contextlib
import functools
import io
import json
import runpy
import tempfile
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fourierstab"
SEED = 101
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # perfbench/run.py


class OnlyThePackage:
    """trace's ignore rule: line-trace the package's files and no other."""

    @staticmethod
    @functools.cache
    def names(filename: str, modulename: str) -> bool:
        return Path(filename).resolve().parent != PACKAGE


def as_main(cmd, ctx):
    """run.run_child's `python -m fourierstab.cli ARGS`, run in this process."""
    out, err, cwd, argv = io.StringIO(), io.StringIO(), os.getcwd(), sys.argv
    os.chdir(ctx.workdir)
    sys.argv = ["fourierstab.cli", *cmd.argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            runpy.run_module("fourierstab.cli", run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
        sys.argv = argv
    return code, 0.0, 0.0, out.getvalue(), err.getvalue()


def definitions(path: Path):
    """(name, lines of its body) of each top-level function and each method of a
    top-level class; a body that is only a docstring is that docstring's lines."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        prefix, members = (f"{node.name}.", node.body) if isinstance(node, ast.ClassDef) else ("", [node])
        for fn in members:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                docstring = ast.get_docstring(fn, clean=False) is not None and len(fn.body) > 1
                yield prefix + fn.name, range(fn.body[docstring].lineno, fn.end_lineno + 1)


def unused_imports(path: Path):
    """Each name a top-level import of the module binds that no expression of it reads."""
    source = path.read_text()
    tree, lines = ast.parse(source), source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                yield name


def audit() -> int:
    """Run everything under the tracer; returns the number of failed criteria and commands."""
    failed = 0
    with contextlib.redirect_stdout(sys.stderr):
        failed += pytest.main([str(ROOT / "tests" / "test_acceptance.py"), "-q", "-p", "no:cacheprovider"]) != 0
        workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
        with tempfile.TemporaryDirectory() as work:
            run.HERE = Path(work)  # the runner's work directory is HERE/.work
            run.run_child = as_main
            for workload in workloads:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    run.main(["--workload", workload, "--seed", str(SEED), "--size", "tiny", "--trace", "1",
                              "--seconds", "0"])
                print(out.getvalue(), end="")
                failed += json.loads(out.getvalue().splitlines()[-1])["failed"]
    return failed


def main() -> int:
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = OnlyThePackage()
    scope = {"audit": audit}
    tracer.runctx("failed = audit()", scope, scope)
    failed = scope["failed"]
    ran = {(Path(f).resolve(), line) for f, line in tracer.results().counts}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lines in definitions(path):
            if not any((path, line) in ran for line in lines):
                print(f"{path.stem}.{name}")
    for path in sorted(PACKAGE.glob("*.py")):
        for name in unused_imports(path):
            print(f"{path.stem}.{name} (unused import)")
    if failed:
        print(f"{failed} failures in the acceptance run or the benchmark's commands: the list is incomplete",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
