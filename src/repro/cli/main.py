"""``repro-sim``: the command-line entry point.

One module per command, each exposing ``register(subparsers)``:
:mod:`~repro.cli.scenario`, :mod:`~repro.cli.policy`, :mod:`~repro.cli.obs`,
:mod:`~repro.cli.sweep` and :mod:`~repro.cli.megafleet`.  Every run takes a
spec: a catalog name or a spec file (``scenario describe --json`` and
``sweep describe --json`` write one), resolved in one place
(:func:`~repro.cli.common.load_spec`).  A multi-action
command is one nested sub-parser per action, so a flag or positional exists
only on the actions that take it -- argparse rejects it everywhere else, and
``repro-sim <command> <action> --help`` lists exactly what applies.  What the
handlers share lives in :mod:`repro.cli.common`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.cli import megafleet, obs, policy, scenario, sweep
from repro.cli.common import CliError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Snooze reproduction: energy-aware cloud management simulator",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for module in (scenario, policy, obs, sweep, megafleet):
        module.register(subparsers)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Ctrl-C: one line and the shell's exit code for SIGINT, not a traceback.
        print("error: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # The reader closed stdout (``repro-sim scenario list | head -1``).
        # Point stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
