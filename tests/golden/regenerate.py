"""Regenerate the golden ScenarioResult fixtures.

Usage (from the repository root)::

    PYTHONPATH=src python -m tests.golden.regenerate            # all scenarios
    PYTHONPATH=src python -m tests.golden.regenerate flash-crowd ...

Fixtures are the :meth:`ScenarioResult.canonical_json` of each catalog
scenario under ``GOLDEN_SEED`` and a capped duration (so the whole catalog
regenerates in minutes on a laptop, while scripted timeline events are never
dropped).  Only regenerate after an *intentional* behaviour change -- the
golden test exists to catch unintentional ones.

``transport_counts.json`` sits beside them: ``processed_events`` and
``Network.stats()`` of the same runs, which no ``ScenarioResult`` field
carries.  A kernel or transport change that merges, skips or re-orders events
moves those counts even when every simulated statistic survives.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from repro.scenarios import ScenarioRunner, ScenarioSpec, get_scenario, scenario_names

#: Seed every golden fixture is produced under.
GOLDEN_SEED = 7

#: Cap on the simulated duration of a golden run (seconds).
GOLDEN_DURATION_CAP = 1500.0

#: Directory holding the committed fixtures.
GOLDEN_DIR = Path(__file__).resolve().parent

#: Event and message counts of every non-megafleet golden run.
TRANSPORT_COUNTS_PATH = GOLDEN_DIR / "transport_counts.json"


def golden_duration(spec: ScenarioSpec, cap: float = GOLDEN_DURATION_CAP) -> float:
    """A capped duration that never drops scripted timeline events."""
    candidate = min(spec.duration, cap)
    if spec.timeline_events_after(candidate):
        return spec.duration
    return candidate


def fixture_path(name: str) -> Path:
    """Path of the committed fixture for scenario ``name``."""
    return GOLDEN_DIR / f"{name}.json"


def golden_run(name: str) -> Tuple[str, Dict[str, object]]:
    """One golden run of ``name``: its fixture content and its transport counts."""
    spec = get_scenario(name)
    runner = ScenarioRunner(spec, seed=GOLDEN_SEED, duration=golden_duration(spec))
    result = runner.run()
    counts = {
        "processed_events": runner.system.sim.processed_events,
        "network": runner.system.network.stats(),
    }
    return result.canonical_json() + "\n", counts


def has_transport_counts(name: str) -> bool:
    """Counts are kept for what ``catalog-mix`` runs: the catalog minus ``megafleet-*``."""
    return not name.startswith("megafleet-")


def committed_transport_counts() -> Dict[str, Dict[str, object]]:
    """The committed ``transport_counts.json``, by scenario name."""
    return json.loads(TRANSPORT_COUNTS_PATH.read_text())


def regenerate(names: Iterable[str]) -> List[Path]:
    """Rewrite the fixture (and counts entry) of every scenario in ``names``."""
    written = []
    all_counts = committed_transport_counts() if TRANSPORT_COUNTS_PATH.exists() else {}
    for name in names:
        content, counts = golden_run(name)
        path = fixture_path(name)
        path.write_text(content)
        written.append(path)
        if has_transport_counts(name):
            all_counts[name] = counts
    TRANSPORT_COUNTS_PATH.write_text(json.dumps(all_counts, sort_keys=True, indent=2) + "\n")
    return written + [TRANSPORT_COUNTS_PATH]


def main(argv: List[str]) -> int:
    names = argv or scenario_names()
    unknown = sorted(set(names) - set(scenario_names()))
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for path in regenerate(names):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
