"""What every ``repro-sim`` command module shares.

Declaring an action (:func:`add_action`), the flag groups more than one action
takes (``parents=[JSON_FLAG, ...]``), reporting a user error
(:class:`CliError` / :func:`user_error`), reading a JSON input
(:func:`read_json`), resolving a spec file or catalog name (:func:`load_spec`)
and writing output files after the result has been printed
(:func:`write_outputs`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.plain import Catalog


def add_action(
    actions,
    name: str,
    handler: Callable[[argparse.Namespace], int],
    help: str,
    parents: Sequence[argparse.ArgumentParser] = (),
) -> argparse.ArgumentParser:
    """Declare one (sub-)command; ``main`` runs ``handler(args)`` for its exit code."""
    parser = actions.add_parser(name, help=help, parents=list(parents))
    parser.set_defaults(handler=handler)
    return parser


JSON_FLAG = argparse.ArgumentParser(add_help=False)
JSON_FLAG.add_argument(
    "--json", action="store_true", help="emit machine-readable JSON instead of tables"
)

POLICY_FLAG = argparse.ArgumentParser(add_help=False)
POLICY_FLAG.add_argument(
    "--policy",
    action="append",
    default=[],
    metavar="KIND=NAME",
    help=(
        "override a policy selection (repeatable; a sweep forces it in every cell "
        "of the grid), e.g. --policy placement=best-fit --policy reconfiguration=aco"
    ),
)


def positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse ``type=`` for values that must be >= 0 (seeds)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def parse_policy_overrides(overrides: List[str]) -> dict:
    """Parse repeated ``--policy kind=name`` flags into a spec ``policies`` block."""
    policies = {}
    for override in overrides:
        kind, separator, name = override.partition("=")
        if not separator or not kind or not name:
            raise ValueError(
                f"--policy expects KIND=NAME (e.g. placement=best-fit), got {override!r}"
            )
        policies[kind.strip()] = {"name": name.strip()}
    return policies


class CliError(Exception):
    """A user error: ``main`` reports ``error: <message>`` on stderr and exits 1."""


@contextmanager
def user_error(*types: type, about: str = "") -> Iterator[None]:
    """Report the named exception types raised inside the block as user errors."""
    try:
        yield
    except types as exc:
        # str(KeyError) is the repr of its argument; the catalogs put the
        # message there.
        raise CliError(f"{about}{exc.args[0] if isinstance(exc, KeyError) else exc}") from exc


def read_json(path: str, what: str):
    """The parsed JSON document at ``path``; unreadable or malformed is a user error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:  # JSON and unicode errors are ValueErrors
        raise CliError(f"cannot read {what} {path!r}: {exc}") from exc


def load_spec(text: str, catalog: Catalog) -> Any:
    """The spec ``text`` names: a spec file (an existing path or a ``.json`` name)
    decoded with the catalog's spec class, otherwise a catalog entry.

    A missing, malformed or invalid file and an unknown name are user errors.
    """
    if text.endswith(".json") or os.path.isfile(text):
        data = read_json(text, f"{catalog.kind} spec")
        with user_error(
            AttributeError, KeyError, TypeError, ValueError,
            about=f"invalid {catalog.kind} spec {text!r}: ",
        ):
            return catalog.spec_class.from_dict(data)
    with user_error(KeyError):
        return catalog.get(text)


def write_outputs(
    outputs: Iterable[Tuple[Optional[str], Callable[[], str], Optional[str]]]
) -> int:
    """Write each ``(path, render, note)`` whose path is set; returns the exit code.

    Call it after printing the result: an unwritable path must not discard a
    computation that just spent the wall-clock to finish, so it is reported on
    stderr and turns the exit code to 1 instead of raising.  ``note`` labels
    an optional success line (``<note> written to PATH``), also on stderr so
    ``--json`` keeps machine-readable stdout.
    """
    status = 0
    for path, render, note in outputs:
        if not path:
            continue
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(render())
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            status = 1
        else:
            if note:
                print(f"{note} written to {path}", file=sys.stderr)
    return status
