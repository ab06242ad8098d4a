"""Reach: which ``src`` functions the product paths enter, and which they never do.

    PYTHONPATH=src python -m tests.reach [--json]

Runs the product paths in this process under ``sys.setprofile`` (and
``threading.setprofile`` for the threads they start) and lists every function
in ``src`` that none of them entered, with its line count:

* ``cli`` -- every list / describe action, text and ``--json``, every catalog
  scenario described and run, and a scenario spec file run as written and
  with ``loss_probability`` 0.05 on its network;
* ``sweeps`` -- ``smoke-2x2`` through ``--jobs 1``, through ``--runners 2``
  and through ``sweep serve`` / ``sweep work`` in two threads, then
  ``sweep analyze`` of the report; ``policy-matrix`` through ``--jobs 1``;
* ``megafleet`` -- ``megafleet-1k`` serial and as two shards;
* ``obs`` -- trace and metrics export (Prometheus text and JSON), then
  ``obs summarize``;
* ``examples`` -- the scripts under ``examples/`` (``--quick`` where taken);
* ``bench`` -- every ``bench/run.py`` workload at ``--smoke``, trace 0 and 1.

Forked processes are not profiled, so every path that takes ``--jobs`` runs
with one job; the runner side of the sweep fleet is reached through
``sweep work`` in a thread.  Function spans come from ``ast``: a function's
lines run from its first decorator to its last line, nested functions count
inside their parent, and a nested function is listed only when its parent was
entered.  A full run takes 60-90 s on two vCPUs.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A code object's identity: its file and first line (a decorated function's
#: first line is its first decorator's).
Key = Tuple[str, int]


@dataclass(frozen=True)
class Function:
    """One ``def`` in the source tree."""

    path: str  # relative to the tree's parent, e.g. ``src/repro/plain.py``
    name: str  # qualified, e.g. ``Catalog.names`` or ``run.<locals>.step``
    first: int
    last: int
    key: Key
    parent: Optional[Key]  # the enclosing function, if nested in one

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def functions(root: Path) -> List[Function]:
    """Every function and method defined in the ``.py`` files under ``root``."""
    found: List[Function] = []
    for path in sorted(root.rglob("*.py")):
        filename = os.path.realpath(path)
        relative = path.relative_to(root.parent).as_posix()

        def visit(node: ast.AST, prefix: str, parent: Optional[Key]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    key = (filename, first)
                    name = prefix + child.name
                    found.append(
                        Function(relative, name, first, child.end_lineno, key, parent)
                    )
                    visit(child, name + ".<locals>.", key)
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".", parent)
                else:
                    visit(child, prefix, parent)

        visit(ast.parse(path.read_text(), filename=str(path)), "", None)
    return found


@contextlib.contextmanager
def profiled(entered: Set[Key]):
    """Add the key of every Python function called inside the block to ``entered``.

    Covers this thread and every thread started inside the block.
    """
    codes: set = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous, previous_threads = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(previous)
        threading.setprofile(previous_threads)
        entered.update((os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes)


def unreached(found: Sequence[Function], entered: Set[Key]) -> List[Function]:
    """Functions never entered whose enclosing function (if any) was entered."""
    return [
        function
        for function in found
        if function.key not in entered
        and (function.parent is None or function.parent in entered)
    ]


def summary(found: Sequence[Function], entered: Set[Key]) -> dict:
    """Function lines in total and entered, and the unreached functions in source order."""
    missing = unreached(found, entered)
    total = sum(function.lines for function in found if function.parent is None)
    missed = sum(function.lines for function in missing)
    return {
        "function_lines": total,
        "reached_lines": total - missed,
        "unreached": [
            {"path": f.path, "line": f.first, "name": f.name, "lines": f.lines} for f in missing
        ],
    }


def format_text(report: dict) -> str:
    rows = [
        f"{f['path']}:{f['line']}  {f['name']}  ({f['lines']} lines)" for f in report["unreached"]
    ]
    missed = report["function_lines"] - report["reached_lines"]
    rows.append(
        f"entered {report['reached_lines']:,} of {report['function_lines']:,} function lines; "
        f"{missed:,} lines in {len(report['unreached'])} functions unreached"
    )
    return "\n".join(rows)


# ------------------------------------------------------------- product paths
def _cli(*argv: str) -> str:
    """One ``repro-sim`` invocation; its standard output (a non-zero exit raises)."""
    from repro.cli.main import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"repro-sim {' '.join(argv)} exited {code}")
    return out.getvalue()


def _both(*argv: str) -> str:
    """An action as text, then as ``--json`` (returned)."""
    _cli(*argv)
    return _cli(*argv, "--json")


def cli_paths(work: Path) -> None:
    from repro.policies.registry import policy_kinds, policy_names
    from repro.scenarios import scenario_names

    for command in ("scenario", "sweep", "megafleet"):
        _both(command, "list")
    _both("policy", "list")
    for kind in policy_kinds():
        _both("policy", "list", kind)
        for name in policy_names(kind):
            _both("policy", "describe", kind, name)
    _both("sweep", "describe", "smoke-2x2")
    for name in scenario_names():
        spec = _both("scenario", "describe", name)
        _cli("scenario", "run", name)
    spec_file = work / "scenario.json"
    spec_file.write_text(spec)
    _cli("scenario", "run", str(spec_file), "--json", "--policy", "placement=best-fit")
    lossy = json.loads(spec)
    lossy["config"]["network"] = {"loss_probability": 0.05}
    lossy_file = work / "lossy.json"
    lossy_file.write_text(json.dumps(lossy))
    _cli("scenario", "run", str(lossy_file), "--json")


def _serve_and_work(work: Path) -> None:
    """``sweep serve`` in a thread, drained by ``sweep work`` in this one.

    The streams are redirected once, here: the server thread calls ``main``
    without redirecting, because ``sys.stdout`` is process-global and a
    redirect per thread would restore the other thread's buffer.
    """
    from repro.cli.main import main

    port_file = work / "port"
    served: List[object] = []

    def serve() -> None:
        try:
            served.append(main(["sweep", "serve", "smoke-2x2", "--host", "127.0.0.1",
                                "--port-file", str(port_file),
                                "--output", str(work / "served.json")]))
        except BaseException as exc:  # re-raised in the calling thread
            served.append(exc)

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        server = threading.Thread(target=serve, daemon=True)
        server.start()
        deadline = time.monotonic() + 60.0
        while not (port_file.exists() and port_file.read_text().endswith("\n")):
            if served:
                break
            if time.monotonic() > deadline:
                raise RuntimeError("sweep serve announced no port within 60 s")
            time.sleep(0.05)
        if not served:
            code = main(["sweep", "work", "--connect",
                         f"127.0.0.1:{port_file.read_text().strip()}"])
            if code != 0:
                raise RuntimeError(f"repro-sim sweep work exited {code}")
        server.join(timeout=60.0)
    if server.is_alive():
        raise RuntimeError("sweep serve did not finish after its runner drained the grid")
    if isinstance(served[0], BaseException):
        raise served[0]
    if served[0] != 0:
        raise RuntimeError(f"repro-sim sweep serve exited {served[0]}")


def sweep_paths(work: Path) -> None:
    report = work / "smoke.json"
    _cli("sweep", "run", "smoke-2x2", "--jobs", "1", "--output", str(report),
         "--csv", str(work / "smoke.csv"))
    _cli("sweep", "run", "smoke-2x2", "--runners", "2", "--json")
    _cli("sweep", "run", "policy-matrix", "--jobs", "1", "--json")
    _serve_and_work(work)
    _both("sweep", "analyze", str(report))
    _cli("sweep", "analyze", str(report), "--output", str(work / "pareto.json"),
         "--csv", str(work / "pareto.csv"))


def megafleet_paths(work: Path) -> None:
    _both("megafleet", "run", "megafleet-1k")
    _cli("megafleet", "run", "megafleet-1k", "--shards", "2", "--jobs", "1", "--json")


def obs_paths(work: Path) -> None:
    trace = work / "run.trace.json"
    _cli("scenario", "run", "steady-churn", "--duration", "600", "--trace", str(trace),
         "--metrics-out", str(work / "run.prom"))
    _cli("scenario", "run", "steady-churn", "--duration", "600",
         "--metrics-out", str(work / "run.metrics.json"))
    _both("obs", "summarize", str(trace))


def _script(path: Path, *argv: str, extra_path: Optional[Path] = None) -> None:
    """Run a script as ``__main__`` with ``argv``; a non-zero exit raises."""
    saved_argv, saved_path = sys.argv, list(sys.path)
    sys.argv = [str(path), *argv]
    if extra_path is not None:
        sys.path.insert(0, str(extra_path))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise RuntimeError(f"{path.name} {' '.join(argv)} exited {exc.code}") from exc
    finally:
        sys.argv, sys.path[:] = saved_argv, saved_path


#: Examples that take ``--quick`` (a smaller grid of the same calls).
QUICK_EXAMPLES = ("consolidation_study.py", "scalability_study.py")


def example_paths(work: Path) -> None:
    for script in sorted((ROOT / "examples").glob("*.py")):
        _script(script, *(["--quick"] if script.name in QUICK_EXAMPLES else []))


def bench_paths(work: Path) -> None:
    bench = ROOT / "bench"
    sys.path.insert(0, str(bench))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(bench))
    for name in sorted(WORKLOADS):
        for trace in ("0", "1"):
            out = work / f"{name}-{trace}.json"
            _script(bench / "run.py", "--workload", name, "--smoke", "--seconds", "0",
                    "--trace", trace, "--out", str(out), extra_path=bench)


PATHS: Dict[str, Callable[[Path], None]] = {
    "cli": cli_paths,
    "sweeps": sweep_paths,
    "megafleet": megafleet_paths,
    "obs": obs_paths,
    "examples": example_paths,
    "bench": bench_paths,
}


def run_paths(entered: Set[Key]) -> None:
    """Run every group of product paths in a scratch directory, profiled."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        os.chdir(scratch)
        try:
            for group, paths in PATHS.items():
                started = time.perf_counter()
                with profiled(entered):
                    paths(Path(scratch))
                print(f"{group}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
        finally:
            os.chdir(cwd)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="one JSON document on stdout")
    args = parser.parse_args(argv)
    entered: Set[Key] = set()
    run_paths(entered)
    report = summary(functions(SRC), entered)
    report["paths"] = list(PATHS)
    print(json.dumps(report, indent=2) if args.json else format_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
