"""Ant Colony Optimization based VM consolidation.

This is the paper's core algorithmic contribution (Section III.A, detailed in
the authors' GRID'11 paper "Energy-aware ant colony based workload placement
in clouds").  The reproduction follows the description in the reproduced text:

* Multiple artificial **ants** compute solutions probabilistically and
  simultaneously within multiple **cycles**.
* Ants communicate indirectly by depositing **pheromone on each VM-host pair**
  in a pheromone matrix.
* Each ant constructs a solution by packing VMs host-by-host using a
  **probabilistic decision rule** combining the pheromone concentration of the
  VM-host pair and a **heuristic** favouring VMs that lead to better host
  utilization (i.e. VMs that fill the remaining capacity well).
* At the end of each cycle the solution requiring the **least number of
  hosts** becomes the new global best; the pheromone matrix is then
  **evaporated** and the VM-host pairs of the global best are **reinforced**.
* Max-Min Ant System style pheromone bounds keep the search from collapsing
  prematurely (stagnation), which is what lets the stochastic search "explore
  a large number of potential solutions".

The construction is organised so the Python overhead is paid once per
*batch*, not once per *ant and step*, which is what makes periodic
consolidation affordable at warehouse scale:

* **Batched ants** -- all ants of a cycle advance in lockstep through one call
  into a small C function (``aco_step.c`` beside this module, compiled with
  the system's ``cc`` at the first construction and cached per source hash).
  Each step narrows every ant's feasible candidates, scores them by the
  decision rule and picks one VM per ant (greedy and roulette choices in the
  same batch), with the arithmetic and the draw order of the numpy step it
  replaced.
* **Parallel colonies** -- independent colonies (each a full cycle loop over
  its own pheromone matrix) run across cores on
  :meth:`repro.workers.Workers.map` with per-colony seeds derived via the
  :mod:`repro.simulation.randomness` ``SeedSequence`` discipline.  Results are
  byte-identical for any ``jobs`` count: seeds are derived before the fan-out
  and the best colony is picked by a deterministic ``(hosts, -quality,
  colony)`` key.
* **Warm start** -- an optional initial pheromone matrix (usually distilled
  from the previous reconfiguration plan via :class:`PheromoneSummary`) seeds
  the search at the incumbent placement instead of a uniform trail, so
  per-cycle re-optimization converges in a fraction of the cycles.

The straightforward one-``_choose_vm``-call-per-ant-and-VM loop lives in
``tests/scalar_aco.py`` as the packing-quality oracle, and the numpy lockstep
construction that scores all ``n_vms`` columns on every step in
``tests/fullwidth_aco.py`` as the draw-for-draw oracle.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import hashlib
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import (
    ConsolidationAlgorithm,
    ConsolidationResult,
    lower_bound_hosts,
    validate_instance,
)
from repro.core.placement import FIT_TOLERANCE, Placement, PlacementError
from repro.simulation.randomness import spawn_seed_sequences
from repro.workers import Workers, run_tool


@dataclass(frozen=True)
class ACOParameters:
    """Tunable parameters of the ACO consolidation algorithm.

    Defaults follow the spirit of the GRID'11 evaluation: a modest colony run
    for a few dozen cycles is enough to reach within ~1 % of the optimum on
    the instance sizes considered there.
    """

    #: Number of ants constructing solutions per cycle.
    n_ants: int = 8
    #: Number of cycles (pheromone update rounds).
    n_cycles: int = 30
    #: Exponent of the pheromone term in the decision rule.
    alpha: float = 1.0
    #: Exponent of the heuristic term in the decision rule.
    beta: float = 2.0
    #: Pheromone evaporation rate in (0, 1].
    rho: float = 0.3
    #: Probability of greedy (exploitation) choice instead of roulette sampling.
    q0: float = 0.3
    #: Initial pheromone level on every VM-host pair.
    tau_initial: float = 1.0
    #: Max-Min bounds on pheromone values (tau_min, tau_max).
    tau_min: float = 0.05
    tau_max: float = 5.0
    #: Exponent of per-host utilization in the solution quality function.
    quality_exponent: float = 2.0
    #: Stop early if the global best matches the lower bound (provably optimal).
    stop_at_lower_bound: bool = True
    #: Stop early after this many cycles without improvement (None = never).
    stagnation_cycles: Optional[int] = 15

    def __post_init__(self) -> None:
        if self.n_ants <= 0 or self.n_cycles <= 0:
            raise ValueError("n_ants and n_cycles must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if not (0.0 < self.rho <= 1.0):
            raise ValueError("rho must be in (0, 1]")
        if not (0.0 <= self.q0 <= 1.0):
            raise ValueError("q0 must be in [0, 1]")
        if self.tau_initial <= 0 or self.tau_min <= 0 or self.tau_max < self.tau_min:
            raise ValueError("invalid pheromone bounds")
        if self.quality_exponent <= 0:
            raise ValueError("quality_exponent must be positive")
        if self.stagnation_cycles is not None and self.stagnation_cycles <= 0:
            raise ValueError("stagnation_cycles must be positive or None")


#: The construction step and how it is compiled; no flag may change its
#: arithmetic (``-ffp-contract=off`` keeps multiply-adds unfused).
_STEP_SOURCE = Path(__file__).with_name("aco_step.c")
_STEP_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


@functools.cache
def _step_library() -> Callable[..., int]:
    """``aco_construct`` from ``aco_step.c``, compiled on first use.

    The shared object is cached under ``$XDG_CACHE_HOME/repro-snooze`` (or
    ``~/.cache``), named by the sha256 of the source and flags, and renamed
    into place once built, so concurrent cold builds are safe.
    """
    source = _STEP_SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(_STEP_FLAGS).encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "repro-snooze"
    library = cache / f"aco_step-{digest}.so"
    if not library.exists():
        if shutil.which("cc") is None:
            raise FileNotFoundError("the ACO step needs a C compiler, and 'cc' is not on PATH")
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as scratch:
            built = os.path.join(scratch, library.name)
            run_tool(["cc", *_STEP_FLAGS, "-o", built, str(_STEP_SOURCE), "-lm"])
            os.replace(built, library)
    step = ctypes.CDLL(str(library)).aco_construct
    step.restype = ctypes.c_long
    pointers, doubles = [ctypes.c_void_p] * 4, [ctypes.c_double] * 4
    step.argtypes = [ctypes.c_long] * 4 + pointers + doubles + pointers[:3]
    return step


@dataclass
class PheromoneSummary:
    """A size-independent distillation of one consolidation plan.

    Maps VM ids to the host ids the last accepted plan assigned them to.  The
    summary is what :class:`~repro.policies.reconfiguration.ReconfigurationPolicy`
    persists between reconfiguration rounds: VM and host *ids* survive churn
    (matrix indices do not), so the next round can rebuild an initial pheromone
    matrix for whatever subset of VMs and hosts is still present.
    """

    #: ``vm_id -> host_id`` pairs of the plan being summarized (vm ids may be
    #: any hashable -- the live cluster uses integers, offline instances use
    #: row indices).
    pairs: Dict[object, str] = field(default_factory=dict)
    #: Warm-start intensity in [0, 1]: 0 keeps ``tau_initial`` everywhere,
    #: 1 seeds remembered pairs at ``tau_max``.
    strength: float = 0.6

    def matrix(
        self,
        vm_ids: Sequence[str],
        host_ids: Sequence[str],
        parameters: ACOParameters,
    ) -> Optional[np.ndarray]:
        """Initial pheromone matrix for the instance ``vm_ids x host_ids``.

        Returns ``None`` when no remembered pair survives in the instance (a
        cold start performs better than an all-uniform "warm" matrix copy).
        """
        if not self.pairs or not vm_ids or not host_ids:
            return None
        host_index = {host_id: column for column, host_id in enumerate(host_ids)}
        boosted = parameters.tau_initial + float(np.clip(self.strength, 0.0, 1.0)) * (
            parameters.tau_max - parameters.tau_initial
        )
        matrix = np.full((len(vm_ids), len(host_ids)), parameters.tau_initial, dtype=float)
        hits = 0
        for row, vm_id in enumerate(vm_ids):
            host_id = self.pairs.get(vm_id)
            column = host_index.get(host_id) if host_id is not None else None
            if column is not None:
                matrix[row, column] = boosted
                hits += 1
        return matrix if hits else None


def _colony_payload(
    demands: np.ndarray,
    capacities: np.ndarray,
    parameters: ACOParameters,
    seed: np.random.SeedSequence,
    colony: int,
    initial_pheromone: Optional[np.ndarray],
) -> Dict[str, object]:
    """Picklable description of one colony run (plain arrays + parameter dict)."""
    return {
        "demands": demands,
        "capacities": capacities,
        "parameters": asdict(parameters),
        "seed_entropy": seed.entropy,
        "seed_spawn_key": tuple(seed.spawn_key),
        "colony": colony,
        "initial_pheromone": initial_pheromone,
    }


def solve_colony(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one colony; module-level so worker processes can pickle it."""
    parameters = ACOParameters(**payload["parameters"])
    seed = np.random.SeedSequence(
        entropy=payload["seed_entropy"], spawn_key=tuple(payload["seed_spawn_key"])
    )
    colony = _Colony(
        demands=np.asarray(payload["demands"], dtype=float),
        capacities=np.asarray(payload["capacities"], dtype=float),
        parameters=parameters,
        rng=np.random.default_rng(seed),
        initial_pheromone=payload.get("initial_pheromone"),
    )
    outcome = colony.run()
    outcome["colony"] = payload["colony"]
    return outcome


class _Colony:
    """One colony's cycle loop over its own pheromone matrix, ants batched."""

    def __init__(
        self,
        demands: np.ndarray,
        capacities: np.ndarray,
        parameters: ACOParameters,
        rng: np.random.Generator,
        initial_pheromone: Optional[np.ndarray] = None,
    ) -> None:
        self.demands = demands
        self.capacities = capacities
        self.params = parameters
        self.rng = rng
        n_vms, n_hosts = demands.shape[0], capacities.shape[0]
        if initial_pheromone is not None:
            pheromone = np.asarray(initial_pheromone, dtype=float)
            if pheromone.shape != (n_vms, n_hosts):
                raise PlacementError(
                    f"initial pheromone shape {pheromone.shape} does not match "
                    f"instance ({n_vms}, {n_hosts})"
                )
            pheromone = np.clip(pheromone, parameters.tau_min, parameters.tau_max)
        else:
            pheromone = np.full((n_hosts, n_vms), parameters.tau_initial, dtype=float).T
        #: ``(n_vms, n_hosts)``, stored host-major: a construction reads whole
        #: per-host rows, and its transpose is then a view instead of a copy.
        self.pheromone = np.asfortranarray(pheromone)
        #: Per VM and per host: every dimension, then their sum, so the step
        #: moves an ant's residual and its sum with one subtraction per row.
        self.demand_rows = np.column_stack((demands, demands.sum(axis=1)))
        self.capacity_rows = np.column_stack((capacities, capacities.sum(axis=1)))
        #: Per-host heuristic normalizer (sum of that host's capacity vector).
        self.normalizers = np.maximum(self.capacity_rows[:, -1], FIT_TOLERANCE)
        #: Global best so far; None until some ant completes an assignment.
        self.best_assignment: Optional[np.ndarray] = None
        self.best_hosts, self.best_quality = np.inf, -np.inf

    # ------------------------------------------------------------------- run
    def run(self) -> Dict[str, object]:
        """The colony's cycle loop; ``assignment`` is None if no ant ever finished."""
        params = self.params
        bound = lower_bound_hosts(self.demands, self.capacities)

        # Deterministic greedy anchor: one all-exploitation ant built from the
        # initial trail.  When it finishes it bounds the colony's result from
        # below (the search can only improve on it) and, warm-started,
        # reproduces the incumbent plan's packing before any stochastic cycle
        # runs.
        self._adopt_better(self._construct(n_ants=1, greedy=True))

        history: List[int] = []
        cycles_run = 0
        cycles_without_improvement = 0
        stagnated = params.stop_at_lower_bound and self.best_hosts <= bound
        for cycle in range(params.n_cycles):
            if stagnated:
                break
            cycles_run = cycle + 1
            improved = self._adopt_better(self._construct(params.n_ants, greedy=False))
            cycles_without_improvement = 0 if improved else cycles_without_improvement + 1
            if self.best_assignment is not None:
                history.append(int(self.best_hosts))
            self._update_pheromone()
            if params.stop_at_lower_bound and self.best_hosts <= bound:
                break
            if (
                params.stagnation_cycles is not None
                and cycles_without_improvement >= params.stagnation_cycles
            ):
                break

        return {
            "assignment": self.best_assignment,
            "hosts_used": None if self.best_assignment is None else self.best_hosts,
            "quality": self.best_quality,
            "cycles": cycles_run,
            "history": history,
            "lower_bound": bound,
            "cycles_without_improvement": cycles_without_improvement,
            "pheromone_mean": float(self.pheromone.mean()),
            "pheromone_min": float(self.pheromone.min()),
            "pheromone_max": float(self.pheromone.max()),
        }

    def _adopt_better(self, assignments: np.ndarray) -> bool:
        """Make the best of ``assignments`` the global best if it beats it."""
        improved = False
        for assignment in assignments:
            hosts_used, quality = self._evaluate(assignment)
            if hosts_used < self.best_hosts or (
                hosts_used == self.best_hosts and quality > self.best_quality
            ):
                self.best_assignment = assignment
                self.best_hosts = hosts_used
                self.best_quality = quality
                improved = True
        return improved

    # ------------------------------------------------------------ construction
    def _construct(self, n_ants: int, greedy: bool) -> np.ndarray:
        """Build ``n_ants`` complete assignments in lockstep; ``(n_ants, n_vms)``.

        One call into ``aco_step.c`` (see its header for the step and the
        identities that keep it small).  An ant that runs out of hosts with
        VMs left is dropped from the batch, so fewer than ``n_ants`` rows
        (possibly none) may come back.  The roulette batch reads its uniforms
        from a copy of the generator, which then draws exactly as many as the
        step used: per step, one ``q0`` test and then one roulette draw per
        remaining ant.
        """
        n_vms, n_hosts = self.demands.shape[0], self.capacities.shape[0]
        assignment = np.full((n_ants, n_vms), -1, dtype=np.int64)
        uniforms = None if greedy else copy.deepcopy(self.rng).random(2 * n_ants * n_vms)
        used = np.zeros(1, dtype=np.int64)
        tau_by_host = np.ascontiguousarray(self.pheromone.T)  # a view: stored host-major
        params = self.params
        done = _step_library()(
            n_ants, n_vms, n_hosts, self.demands.shape[1],
            self.demand_rows.ctypes.data, self.capacity_rows.ctypes.data,
            self.normalizers.ctypes.data, tau_by_host.ctypes.data,
            params.alpha, params.beta, params.q0, FIT_TOLERANCE,
            None if uniforms is None else uniforms.ctypes.data,
            assignment.ctypes.data, used.ctypes.data,
        )
        if done < 0:
            raise MemoryError("no workspace for the ACO construction step")
        if used[0]:
            self.rng.random(int(used[0]))
        return assignment[:done]

    # -------------------------------------------------------------- evaluation
    def _evaluate(self, assignment: np.ndarray) -> tuple:
        loads = np.zeros_like(self.capacities)
        np.add.at(loads, assignment, self.demands)
        used_mask = loads.sum(axis=1) > 0
        hosts_used = int(np.count_nonzero(used_mask))
        if hosts_used == 0:
            return 0, 0.0
        utilization = loads[used_mask] / self.capacities[used_mask]
        quality = float(np.mean(np.mean(utilization, axis=1) ** self.params.quality_exponent))
        return hosts_used, quality

    def _update_pheromone(self) -> None:
        """Evaporate everywhere, then reinforce the global-best VM-host pairs.

        The deposit is independent of instance size: quality is a per-host
        mean in [0, 1], so the evaporation/deposit equilibrium ``delta / rho =
        1 + quality`` stays strictly below ``tau_max`` instead of clipping
        every reinforced pair to the ceiling on large instances (which
        degenerates the Max-Min search into a frozen trail).
        """
        params = self.params
        self.pheromone *= 1.0 - params.rho
        best = self.best_assignment
        if best is not None:
            delta = params.rho * (1.0 + max(self.best_quality, 0.0))
            self.pheromone[np.arange(best.shape[0]), best] += delta
        np.clip(self.pheromone, params.tau_min, params.tau_max, out=self.pheromone)


class ACOConsolidation(ConsolidationAlgorithm):
    """ACO-based VM consolidation (vector bin packing).

    Parameters
    ----------
    parameters:
        The :class:`ACOParameters` every colony runs with.
    rng:
        Source of the single entropy draw that seeds all colonies (via
        ``SeedSequence.spawn``), keeping the whole run deterministic in the
        generator state and independent of ``jobs``.
    n_colonies:
        Independent colonies to run; the best result wins (ties broken by
        quality, then colony index).
    jobs:
        Worker processes for the colony fan-out (1 = in-process); results
        are identical for any value.

    ``solve`` raises :class:`~repro.core.placement.PlacementError` when no
    ant of any colony completes an assignment (too few hosts for the search
    to pack into).
    """

    name = "aco"

    def __init__(
        self,
        parameters: Optional[ACOParameters] = None,
        rng: Optional[np.random.Generator] = None,
        n_colonies: int = 1,
        jobs: int = 1,
    ) -> None:
        if n_colonies <= 0:
            raise ValueError("n_colonies must be positive")
        if jobs <= 0:
            raise ValueError("jobs must be positive")
        self.parameters = parameters or ACOParameters()
        self.rng = rng or np.random.default_rng(0)
        self.n_colonies = int(n_colonies)
        self.jobs = int(jobs)

    # ------------------------------------------------------------------ public
    def solve(
        self,
        demands: np.ndarray,
        capacities: np.ndarray,
        initial_pheromone: Optional[np.ndarray] = None,
    ) -> ConsolidationResult:
        demands, capacities = validate_instance(demands, capacities)
        return self._timed_solve(
            lambda: self._run_colonies(demands, capacities, initial_pheromone),
            demands,
            capacities,
        )

    def consolidate(
        self, placement: Placement, initial_pheromone: Optional[np.ndarray] = None
    ) -> ConsolidationResult:
        return self.solve(placement.demands, placement.capacities, initial_pheromone)

    # ----------------------------------------------------------------- private
    def _run_colonies(
        self,
        demands: np.ndarray,
        capacities: np.ndarray,
        initial_pheromone: Optional[np.ndarray],
    ) -> ConsolidationResult:
        if demands.shape[0] == 0:
            return ConsolidationResult(
                placement=Placement(demands, capacities), algorithm=self.name
            )
        # One entropy draw, then SeedSequence children per colony: the result
        # only depends on the generator state, never on the fan-out shape.
        entropy = int(self.rng.integers(0, 2**63 - 1))
        seeds = spawn_seed_sequences(entropy, self.n_colonies)
        payloads = [
            _colony_payload(demands, capacities, self.parameters, seed, colony, initial_pheromone)
            for colony, seed in enumerate(seeds)
        ]
        with Workers(self.jobs) as workers:
            outcomes = workers.map(solve_colony, payloads)

        complete = [outcome for outcome in outcomes if outcome["assignment"] is not None]
        if not complete:
            raise PlacementError(
                "no ant completed an assignment: too few hosts for the remaining VMs"
            )
        best = min(complete, key=lambda o: (o["hosts_used"], -o["quality"], o["colony"]))
        placement = Placement(demands, capacities, best["assignment"])
        return ConsolidationResult(
            placement=placement,
            algorithm=self.name,
            iterations=int(sum(outcome["cycles"] for outcome in outcomes)),
            proved_optimal=bool(best["hosts_used"] <= best["lower_bound"]),
            history=list(best["history"]),
            extra={
                "lower_bound": best["lower_bound"],
                "best_quality": best["quality"],
                "best_colony": best["colony"],
                "n_colonies": self.n_colonies,
                "jobs": self.jobs,
                "warm_started": initial_pheromone is not None,
                "colony_hosts_used": [outcome["hosts_used"] for outcome in outcomes],
                "pheromone_mean": best["pheromone_mean"],
                "pheromone_min": best["pheromone_min"],
                "pheromone_max": best["pheromone_max"],
                "cycles_without_improvement": best["cycles_without_improvement"],
            },
        )
