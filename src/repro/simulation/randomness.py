"""Reproducible named random streams.

Every stochastic component of the reproduction (workload generation, ACO
decision rule, heartbeat jitter, network latency noise, failure injection)
draws from its own named stream derived from a single experiment seed via
``numpy.random.SeedSequence.spawn``-style key hashing.  Two properties follow:

* the whole experiment is reproducible from one integer seed, and
* adding randomness to one subsystem does not perturb the draws seen by the
  others (streams are independent), so ablations stay comparable.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np


def spawn_seed_sequences(base_seed: int, count: int) -> List[np.random.SeedSequence]:
    """``count`` independent child sequences of ``base_seed`` via ``SeedSequence.spawn``.

    This is the one sanctioned way to derive per-run randomness wherever runs
    are *enumerated* (sweeps, replicate loops, paired algorithm comparisons).
    ``seed + i`` arithmetic must not be used for that purpose: nearby integer
    seeds feed nearly identical entropy pools into the bit generator, so
    parallel runs can end up with subtly correlated streams.  Spawned child
    sequences carry distinct ``spawn_key``s and are statistically independent
    by construction.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return np.random.SeedSequence(int(base_seed)).spawn(int(count))


def derive_run_seeds(base_seed: int, count: int) -> List[int]:
    """``count`` independent integer seeds for enumerated runs.

    Each seed is drawn from its own spawned child of ``base_seed`` (see
    :func:`spawn_seed_sequences`), so the list is deterministic in
    ``(base_seed, count)`` yet free of the stream-correlation hazard of
    ``[base_seed + i for i in range(count)]``.
    """
    return [
        int(child.generate_state(1, dtype=np.uint64)[0])
        for child in spawn_seed_sequences(base_seed, count)
    ]


def spawn_generator(base_seed: int, index: int = 0) -> np.random.Generator:
    """A generator seeded from the ``index``-th spawned child of ``base_seed``.

    Replaces ad-hoc ``default_rng(seed + offset)`` derivations at call sites
    that need a second stream decorrelated from ``default_rng(base_seed)``.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    children = np.random.SeedSequence(int(base_seed)).spawn(int(index) + 1)
    return np.random.default_rng(children[index])


class RandomRouter:
    """Factory of independent, named ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._base = np.random.SeedSequence(self.seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically on first use."""
        if name not in self._streams:
            # Deterministic child sequence keyed by the stream name so that the
            # creation *order* of streams does not matter.
            key = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
            child = np.random.SeedSequence(
                entropy=self._base.entropy, spawn_key=tuple(int(b) for b in key)
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RandomRouter seed={self.seed} streams={sorted(self._streams)}>"
