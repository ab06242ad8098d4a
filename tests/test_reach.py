"""The reach tool (``tests/reach.py``): spans, profiling and the report on a toy
module, and the product paths it runs."""

from __future__ import annotations

import importlib.util
import json
import textwrap
from pathlib import Path

import tests.reach as reach
from tests.reach import format_text, functions, profiled, summary

TOY = textwrap.dedent(
    '''\
    import threading


    def deco(function):
        return function


    def used():
        return helper()


    def helper():
        def inner_used():
            return 1

        def inner_unused():
            return 2

        return inner_used()


    @deco
    def decorated_unused():
        def never():
            pass

        return never


    class Box:
        def method_used(self):
            return 3

        @property
        def unused_property(self):
            return 4


    def in_thread():
        return 5


    def start():
        worker = threading.Thread(target=in_thread)
        worker.start()
        worker.join()
    '''
)


def _toy(tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "mod.py").write_text(TOY)
    spec = importlib.util.spec_from_file_location("reach_toy_mod", package / "mod.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # outside the profile: ``deco`` runs only here
    return package, module


def test_spans_cover_decorators_methods_and_nested_functions(tmp_path):
    package, _ = _toy(tmp_path)
    spans = {function.name: function for function in functions(package)}
    assert set(spans) == {
        "deco", "used", "helper", "helper.<locals>.inner_used", "helper.<locals>.inner_unused",
        "decorated_unused", "decorated_unused.<locals>.never", "Box.method_used",
        "Box.unused_property", "in_thread", "start",
    }
    assert spans["decorated_unused"].first == 22  # the decorator's line
    assert spans["decorated_unused"].lines == 6
    assert spans["Box.unused_property"].lines == 3
    assert spans["helper.<locals>.inner_unused"].parent == spans["helper"].key
    assert spans["used"].path == "toy/mod.py"


def test_unreached_functions_and_line_totals(tmp_path):
    package, module = _toy(tmp_path)
    entered = set()
    with profiled(entered):
        module.used()
        module.Box().method_used()
        module.start()  # ``in_thread`` runs in a thread started inside the block
    report = summary(functions(package), entered)
    names = [(entry["name"], entry["lines"]) for entry in report["unreached"]]
    # ``never`` is not listed: its parent was never entered either.
    assert names == [
        ("deco", 2),
        ("helper.<locals>.inner_unused", 2),
        ("decorated_unused", 6),
        ("Box.unused_property", 3),
    ]
    assert report["function_lines"] == 2 + 2 + 8 + 6 + 2 + 3 + 2 + 4
    assert report["reached_lines"] == report["function_lines"] - 13
    assert json.loads(json.dumps(report)) == report
    text = format_text(report)
    assert text.splitlines()[0] == "toy/mod.py:4  deco  (2 lines)"
    assert text.splitlines()[-1] == (
        f"entered {report['reached_lines']} of {report['function_lines']} function lines; "
        "13 lines in 4 functions unreached"
    )


def test_obs_paths_export_metrics_as_prometheus_text_and_json(tmp_path, monkeypatch):
    """Both ``--metrics-out`` formats run, so the JSON export counts as reached."""
    calls = []
    monkeypatch.setattr(reach, "_cli", lambda *argv: calls.append(argv) or "")
    monkeypatch.setattr(reach, "_both", lambda *argv: calls.append(argv) or "")
    reach.obs_paths(tmp_path)
    exports = [argv[argv.index("--metrics-out") + 1] for argv in calls if "--metrics-out" in argv]
    assert sorted(Path(path).suffix for path in exports) == [".json", ".prom"]
