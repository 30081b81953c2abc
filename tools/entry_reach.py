"""The functions of an oacpool source tree that no CLI call, demo or benchmark round enters.

Usage, from the repository root::

    python3 tools/entry_reach.py TREE

TREE is a directory holding ``src/oacpool`` (a checkout of the repository).
The script imports TREE's package and, in this one process, under
``sys.setprofile``, runs:

- every CLI call of ``tools/cli_outputs.py`` through ``oacpool.cli.main``,
  in order, in one temporary directory that holds the tool's bad inputs;
- every demo under ``TREE/demos``, each in a temporary directory of its own;
- one round of each benchmark workload of ``TREE/bench/workloads.py``: its
  ``setup()``, one ``run_round()`` and that round's ``check()``.  The
  workloads are read, not changed.

It then prints each function defined under ``TREE/src/oacpool`` (every
``def``, methods and nested functions included) whose code none of them
entered, one per line as its path relative to ``src/oacpool`` and its
name, in file and line order.  A function on the list is one that the
command line, the demos and the benchmark can do without.

The script uses the standard library and TREE's own package (and what that
imports).  BLAS is capped at one thread.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

import cli_outputs

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_SEED = 1


def defined_functions(package: Path) -> dict[tuple[str, int], tuple[str, str]]:
    """(file, first line) -> (path relative to package, name) of every def under package.

    The first line is a code object's co_firstlineno: the first decorator's
    line for a decorated function.
    """
    functions = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                relative = path.relative_to(package).as_posix()
                functions[(str(path), first)] = (relative, node.name)
    return functions


@contextlib.contextmanager
def quiet_in(directory: Path):
    """Run with directory as the working directory and stdout and stderr captured."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            yield
    finally:
        os.chdir(previous)


def run_cli_calls(main) -> None:
    """Every call of cli_outputs.calls(), in one temporary directory with the bad inputs."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cli_outputs.write_bad_inputs(work)
        for _, argv in cli_outputs.calls():
            with quiet_in(work):
                try:
                    main(list(argv))
                except SystemExit:  # argparse exits on a usage error
                    pass


def run_demos(tree: Path) -> None:
    """Every demo script of the tree, as __main__, each in a fresh temporary directory."""
    for demo in sorted((tree / "demos").glob("*.py")):
        with tempfile.TemporaryDirectory() as tmp, quiet_in(Path(tmp)):
            runpy.run_path(str(demo), run_name="__main__")


def run_bench_rounds(workloads) -> None:
    """setup(), one run_round() and its check() of each benchmark workload."""
    for workload_cls in workloads.values():
        with tempfile.TemporaryDirectory() as tmp:
            workload = workload_cls(BENCH_SEED, Path(tmp))
            with quiet_in(Path(tmp)):
                workload.setup()
                workload.check(workload.run_round())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    package = tree / "src" / "oacpool"
    if not package.is_dir():
        parser.error(f"{tree} holds no src/oacpool package")
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = "1"
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]

    import oacpool.cli
    import workloads

    if Path(oacpool.__file__).resolve().parent != package:
        parser.error(f"imported oacpool from {oacpool.__file__}")
    functions = defined_functions(package)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        run_cli_calls(oacpool.cli.main)
        run_demos(tree)
        run_bench_rounds(workloads.WORKLOADS)
    finally:
        sys.setprofile(None)
    for key in sorted(functions.keys() - entered, key=lambda k: (functions[k][0], k[1])):
        print(*functions[key])
    return 0


if __name__ == "__main__":
    sys.exit(main())
