"""Full-width lockstep construction: the draw-for-draw oracle of the ACO kernel.

``FullWidthColony._construct`` is the numpy construction ``repro.core.aco``
ran before its candidate columns were compacted (and, later, before the step
moved to C): every step scores all ``n_vms`` columns of every ant, placed VMs
included (they are masked to 0), and rebuilds the feasibility mask from
``unassigned``.  It is kept verbatim except for two arithmetic choices: the
``totals`` are read from the last ``cdf`` column, as the kernel does since it
dropped ``scores.sum(axis=1)`` (the pinned solves in
``tests/golden/aco_solves.json`` cover that choice), and non-default
exponents are raised by libm ``pow`` (:func:`libm_power`), as the C step does,
because numpy's SIMD ``power`` can differ from it in the last ulp depending
on the CPU.  The kernel must return identical assignments and leave the
generator in an identical state (``tests/test_core_aco_vectorized.py``);
nothing in ``src`` uses this class.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.aco import FIT_TOLERANCE, _Colony


def libm_power(values: np.ndarray, exponent: float, where: np.ndarray) -> np.ndarray:
    """``values ** exponent`` by ``math.pow`` (libm) where ``where`` holds, 0 elsewhere.

    Masked-out entries score 0 either way, so they are not computed.
    """
    powers = np.zeros_like(values)
    powers[where] = [math.pow(value, exponent) for value in values[where].tolist()]
    return powers


class FullWidthColony(_Colony):
    """A colony whose ants score every VM column on every step."""

    def _construct(self, n_ants: int, greedy: bool) -> np.ndarray:
        params = self.params
        demands, capacities = self.demands, self.capacities
        n_vms, n_hosts = demands.shape[0], capacities.shape[0]
        n_dims = demands.shape[1]
        ants = np.arange(n_ants)
        assignment = np.full((n_ants, n_vms), -1, dtype=np.int64)
        unassigned = np.ones((n_ants, n_vms), dtype=bool)
        host = np.zeros(n_ants, dtype=np.int64)
        residual = np.repeat(capacities[[0]], n_ants, axis=0)
        residual_sums = residual.sum(axis=1)
        # Row-contiguous per-host pheromone rows for the gather below.
        tau_by_host = np.ascontiguousarray(self.pheromone.T)
        demand_sums = demands.sum(axis=1)
        alpha, beta, q0 = params.alpha, params.beta, params.q0

        for _ in range(n_vms):
            # (n_ants, n_vms): VM is unplaced and fits the ant's current host.
            fits = unassigned.copy()
            for dim in range(n_dims):
                fits &= (
                    demands[:, dim][np.newaxis, :]
                    <= residual[:, dim][:, np.newaxis] + FIT_TOLERANCE
                )
            feasible_any = fits.any(axis=1)
            # Ants stuck on a full host open their next host (repeat until
            # every ant has a candidate; every VM fits an *empty* host by
            # instance validation, so only running out of hosts ends an ant).
            while not feasible_any.all():
                stuck = ~feasible_any
                host[stuck] += 1
                alive = host < n_hosts
                if not alive.all():
                    # Out of hosts with VMs left: those ants packed too
                    # loosely to finish and leave this cycle; the rest go on.
                    assignment, unassigned, host, residual, residual_sums, fits, stuck = (
                        state[alive]
                        for state in (
                            assignment, unassigned, host, residual, residual_sums, fits, stuck
                        )
                    )
                    ants = ants[: host.shape[0]]
                    if not ants.size:
                        return assignment
                residual[stuck] = capacities[host[stuck]]
                residual_sums[stuck] = residual[stuck].sum(axis=1)
                refit = unassigned[stuck].copy()
                for dim in range(n_dims):
                    refit &= (
                        demands[:, dim][np.newaxis, :]
                        <= residual[stuck][:, dim][:, np.newaxis] + FIT_TOLERANCE
                    )
                fits[stuck] = refit
                feasible_any = fits.any(axis=1)

            # Decision rule over the batch: tau^alpha * eta^beta, masked to
            # the feasible candidates of each ant.
            tau = tau_by_host[host]
            gaps = residual_sums[:, np.newaxis] - demand_sums[np.newaxis, :]
            np.maximum(gaps, 0.0, out=gaps)
            gaps /= self.normalizers[host][:, np.newaxis]
            gaps += 1.0
            eta = np.reciprocal(gaps, out=gaps)
            if beta == 2.0:
                eta *= eta
            elif beta != 1.0:
                eta = libm_power(eta, beta, fits)
            scores = tau * eta if alpha == 1.0 else libm_power(tau, alpha, fits) * eta
            scores *= fits
            totals = np.cumsum(scores, axis=1)[:, -1]
            # Numerical-underflow guard: fall back to uniform over feasible.
            if not totals.all():
                degenerate = totals <= 0.0
                scores[degenerate] = fits[degenerate]
                totals = np.cumsum(scores, axis=1)[:, -1]

            if greedy:
                chosen = np.argmax(scores, axis=1)
            else:
                exploit = self.rng.random(ants.size) < q0
                best_pick = np.argmax(scores, axis=1)
                cdf = np.cumsum(scores, axis=1)
                draws = self.rng.random(ants.size) * totals
                roulette = np.minimum(
                    (cdf <= draws[:, np.newaxis]).sum(axis=1), n_vms - 1
                )
                chosen = np.where(exploit, best_pick, roulette)

            assignment[ants, chosen] = host
            unassigned[ants, chosen] = False
            residual -= demands[chosen]
            residual_sums -= demand_sums[chosen]
        return assignment
