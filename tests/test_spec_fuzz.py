"""Every numeric leaf of four catalog specs, written to a spec file as NaN, ±inf, 0 and -1.

A spec file is accepted and runs, or it is one ``error:`` line with exit 1:
never a traceback, a hang, or a run on a NaN or infinite number.  The leaves
are enumerated from each spec's plain-data form (what ``describe --json``
writes), so a numeric field added to one of these specs is covered without
being listed here.  No random draws: the cases are the same on every run.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, List, Tuple

import pytest

from repro.cli.common import CliError, load_spec
from repro.cli.main import main
from repro.hierarchy.config import HierarchyConfig
from repro.megafleet.spec import MEGAFLEETS
from repro.plain import Catalog
from repro.scenarios.catalog import SCENARIOS
from repro.sweeps.catalog import SWEEPS
from tests.conftest import no_hang

Path = Tuple[Any, ...]

#: Spec name -> the subtree of its document whose numeric leaves are varied.
SUBTREES = {
    "steady-churn": (),
    "steady-users-traffic": ("traffic",),
    "smoke-2x2": (),
    "megafleet-1k": (),
}

COMMANDS = (("scenario", SCENARIOS), ("sweep", SWEEPS), ("megafleet", MEGAFLEETS))

#: Simulated seconds of each accepted 0 / -1 run.
RUN_SECONDS = "30"


def _command(name: str) -> Tuple[str, Catalog]:
    return next((command, catalog) for command, catalog in COMMANDS if name in catalog.names())


def _document(name: str) -> dict:
    """The spec's plain-data form; ``steady-churn`` with every ``HierarchyConfig``
    field but the seed and the policies written into its config."""
    document = _command(name)[1].get(name).to_dict()
    if name == "steady-churn":
        defaults = HierarchyConfig().to_dict()
        del defaults["seed"], defaults["policies"]
        document["config"] = {**defaults, **document["config"]}
    return document


def _numeric_leaves(node: Any, path: Path = ()) -> Iterator[Path]:
    if type(node) in (int, float):
        yield path
    elif isinstance(node, dict):
        for key, item in node.items():
            yield from _numeric_leaves(item, path + (key,))
    elif isinstance(node, list):
        for index, item in enumerate(node):
            yield from _numeric_leaves(item, path + (index,))


def _leaves() -> List[Tuple[str, Path]]:
    cases = []
    for name, subtree in SUBTREES.items():
        node = _document(name)
        for key in subtree:
            node = node[key]
        cases.extend((name, subtree + leaf) for leaf in _numeric_leaves(node))
    return cases


LEAVES = _leaves()

#: Numbers the leaves above miss: a ``None`` default in ``steady-churn``, and
#: a timeline and node classes, which ``steady-churn`` leaves empty.
HOLES = [
    ("steady-churn", ("config", "reconfiguration_interval")),
    ("rolling-node-failures", ("timeline", 0, "at")),
    ("heterogeneous-fleet", ("node_classes", 0, "p_idle")),
]


def _label(path: Path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


def _ids(cases) -> List[str]:
    return [f"{name}{_label(path)}" for name, path in cases]


def _spec_file(tmp_path, name: str, path: Path, value: float) -> str:
    document = _document(name)
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    spec_file = tmp_path / f"{name}.json"
    spec_file.write_text(json.dumps(document))
    return str(spec_file)


def _run(name: str, spec_file: str, capsys) -> Tuple[int, str]:
    """Exit code and stderr of ``<command> run FILE --duration 30``."""
    with no_hang(10.0):
        status = main([_command(name)[0], "run", spec_file, "--duration", RUN_SECONDS])
    return status, capsys.readouterr().err


def _assert_one_error_line(status: int, err: str) -> None:
    assert status == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize("name, path", LEAVES + HOLES, ids=_ids(LEAVES + HOLES))
def test_non_finite_number_is_one_error_naming_its_path(name, path, value, tmp_path):
    catalog = _command(name)[1]
    with pytest.raises(CliError) as caught:
        load_spec(_spec_file(tmp_path, name, path, value), catalog)
    message = str(caught.value)
    assert "\n" not in message
    field = f"{catalog.spec_class.__name__}{_label(path)}"
    assert f"{field} must be finite (got {value!r})" in message


#: The free-form parameters of ``steady-churn``'s phases (``arrival``,
#: ``demand``, ``trace``, ``lifetime``), which no field type hint coerces.
PHASE_PARAMS = [
    (name, path)
    for name, path in LEAVES
    if name == "steady-churn" and path[0] == "phases" and len(path) == 4
]


@pytest.mark.parametrize("value", ["nan", "12"])
@pytest.mark.parametrize("name, path", PHASE_PARAMS, ids=_ids(PHASE_PARAMS))
def test_string_phase_parameter_is_one_error_naming_it(name, path, value, tmp_path):
    catalog = _command(name)[1]
    with pytest.raises(CliError) as caught:
        load_spec(_spec_file(tmp_path, name, path, value), catalog)
    message = str(caught.value)
    assert "\n" not in message
    assert f"{path[2]}.{path[3]} must be a number (got the string {value!r})" in message


def test_string_phase_parameter_through_the_cli(tmp_path, capsys):
    path = ("phases", 0, "arrival", "rate_per_hour")
    status, err = _run("steady-churn", _spec_file(tmp_path, "steady-churn", path, "nan"), capsys)
    _assert_one_error_line(status, err)
    assert "arrival.rate_per_hour must be a number (got the string 'nan')" in err


#: A few through the whole CLI, one per command: each of these ran to exit 0
#: or crashed with a traceback before the rule.
THROUGH_MAIN = [
    ("steady-churn", ("phases", 0, "lifetime", "mean"), float("inf")),
    ("steady-users-traffic", ("traffic", "interval"), float("nan")),
    ("smoke-2x2", ("seeds", 0), float("inf")),
    ("megafleet-1k", ("local_controllers",), float("inf")),
    ("steady-churn", ("config", "reconfiguration_interval"), float("nan")),
    ("rolling-node-failures", ("timeline", 0, "at"), float("nan")),
]


@pytest.mark.parametrize(
    "name, path, value",
    THROUGH_MAIN,
    ids=[f"{name}{_label(path)}={value!r}" for name, path, value in THROUGH_MAIN],
)
def test_non_finite_number_through_the_cli(name, path, value, tmp_path, capsys):
    status, err = _run(name, _spec_file(tmp_path, name, path, value), capsys)
    _assert_one_error_line(status, err)
    assert f"{_label(path)} must be finite (got {value!r})" in err


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name, path", LEAVES, ids=_ids(LEAVES))
def test_zero_or_negative_number_runs_or_is_one_error(name, path, value, tmp_path, capsys):
    status, err = _run(name, _spec_file(tmp_path, name, path, value), capsys)
    if status != 0:
        _assert_one_error_line(status, err)
