/* The ACO colony's construction step: a batch of ants built in lockstep.
 *
 * repro.core.aco._Colony._construct calls aco_construct once per batch and
 * compiles this file on first use.  Every ant places one VM per step.  A step
 * first narrows each remaining ant's feasible candidates, opens its next host
 * while none is left (an ant out of hosts leaves the batch), scores the
 * candidates and takes their prefix sum; then each remaining ant picks
 * (argmax or roulette) and places its VM.  The arithmetic is the numpy step's
 * operation for operation (tests/fullwidth_aco.py is the oracle); build with
 * -ffp-contract=off so no multiply-add is fused.  Three identities keep the
 * step small:
 *
 * - feasibility only narrows while an ant stays on its host (its residual
 *   only shrinks), so a step filters the previous step's feasible list;
 * - on a feasible pair the L1 fill gap is sum(residual) - sum(demand), with
 *   no per-dimension abs, and infeasible pairs score 0 anyway;
 * - a 0 score moves neither the first maximum nor any prefix sum (x + 0.0 ==
 *   x), so only feasible candidates are scored, in ascending VM order.  The
 *   total is the last prefix sum, which a draw in [0, 1) scales to strictly
 *   less, so the roulette always lands on a positive score.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    long host;                 /* n_hosts once the ant has left the batch */
    long n_cand, n_feas, pick; /* pick: index into feas of the first maximum */
    double total;              /* the last prefix sum */
    long *cand, *feas;         /* unplaced VMs; those that fit the host (-1: placed) */
    double *cdf, *residual;    /* residual: each dimension, then their sum */
} Ant;

/* Keep the VMs of src that fit the ant's residual in ant->feas (src may be
 * ant->feas: entries only move forward) and score them by the decision rule
 * tau^alpha * eta^beta, with their running prefix sum. */
static void narrow_and_score(Ant *ant, const long *src, long n_src, long n_dims,
                             const double *demand_rows, const double *tau, double normalizer,
                             double alpha, double beta, double tolerance) {
    double total = 0.0, best = 0.0;
    long n = 0;
    ant->pick = 0;
    for (long j = 0; j < n_src; j++) {
        const long vm = src[j];
        if (vm < 0)
            continue;
        const double *demand = demand_rows + vm * (n_dims + 1);
        long dim = 0;
        while (dim < n_dims && demand[dim] <= ant->residual[dim] + tolerance)
            dim++;
        if (dim < n_dims)
            continue;
        double gap = ant->residual[n_dims] - demand[n_dims];
        double eta = 1.0 / ((gap > 0.0 ? gap : 0.0) / normalizer + 1.0);
        if (beta == 2.0)
            eta = eta * eta;
        else if (beta != 1.0)
            eta = pow(eta, beta);
        const double score = alpha == 1.0 ? tau[vm] * eta : pow(tau[vm], alpha) * eta;
        total += score;
        if (score > best)
            best = score, ant->pick = n;
        ant->feas[n] = vm;
        ant->cdf[n++] = total;
    }
    ant->n_feas = n;
    ant->total = total;
    /* Underflow guard: a subnormal total counts too (a draw can scale only a
     * normal total to strictly less), and then every feasible VM weighs 1. */
    if (n && total <= DBL_MIN) {
        for (long j = 0; j < n; j++)
            ant->cdf[j] = (double)(j + 1);
        ant->total = (double)n;
        ant->pick = 0;
    }
}

/* Build n_ants assignments into the (n_ants, n_vms) int64 array assignment,
 * filled with -1 by the caller.  uniforms is NULL for the greedy batch;
 * otherwise a step reads one q0 test per remaining ant, then one roulette
 * draw per remaining ant, and *used counts the uniforms read.  Returns how
 * many ants completed (their rows moved to the front in batch order), or -1
 * when the workspace cannot be allocated. */
long aco_construct(long n_ants, long n_vms, long n_hosts, long n_dims,
                   const double *demand_rows, const double *capacity_rows,
                   const double *normalizers, const double *tau_by_host,
                   double alpha, double beta, double q0, double tolerance,
                   const double *uniforms, int64_t *assignment, int64_t *used) {
    const long width = n_dims + 1;
    Ant *ants = calloc((size_t)n_ants, sizeof(Ant));
    long *ids = malloc(sizeof(long) * (size_t)(2 * n_ants * n_vms + 1));
    double *reals = malloc(sizeof(double) * (size_t)(n_ants * (n_vms + width)));
    if (!ants || !ids || !reals) {
        free(ants), free(ids), free(reals);
        return -1;
    }
    for (long a = 0; a < n_ants; a++) {
        Ant *ant = &ants[a];
        ant->cand = ids + 2 * a * n_vms, ant->feas = ant->cand + n_vms;
        ant->cdf = reals + a * (n_vms + width), ant->residual = ant->cdf + n_vms;
        ant->n_cand = ant->n_feas = n_vms;
        for (long vm = 0; vm < n_vms; vm++)
            ant->cand[vm] = ant->feas[vm] = vm;
        memcpy(ant->residual, capacity_rows, sizeof(double) * (size_t)width);
    }
    long alive = n_ants, drawn = 0;
    for (long step = 0; step < n_vms && alive; step++) {
        for (Ant *ant = ants; ant < ants + n_ants; ant++) {
            if (ant->host >= n_hosts)
                continue;
            const int64_t *row = assignment + (ant - ants) * n_vms;
            long h = ant->host, n = ant->n_feas;
            const long *src = ant->feas;
            /* Stuck on a full host: open the next one (every VM fits an empty
             * host by instance validation, so only running out of hosts ends
             * an ant) and refit its unplaced VMs. */
            for (;;) {
                narrow_and_score(ant, src, n, n_dims, demand_rows, tau_by_host + h * n_vms,
                                 normalizers[h], alpha, beta, tolerance);
                if (ant->n_feas || (h = ++ant->host) >= n_hosts)
                    break;
                n = 0;
                for (long j = 0; j < ant->n_cand; j++)
                    if (row[ant->cand[j]] < 0)
                        ant->cand[n++] = ant->cand[j];
                ant->n_cand = n, src = ant->cand;
                memcpy(ant->residual, capacity_rows + h * width, sizeof(double) * (size_t)width);
            }
            alive -= ant->host >= n_hosts;
        }
        long rank = 0;
        for (Ant *ant = ants; ant < ants + n_ants && alive; ant++) {
            if (ant->host >= n_hosts)
                continue;
            long pick = ant->pick, lo = 0, hi = ant->n_feas - 1;
            if (uniforms && !(uniforms[drawn + rank] < q0)) {
                /* Roulette: the first prefix sum above the scaled draw. */
                const double draw = uniforms[drawn + alive + rank] * ant->total;
                while (lo < hi) {
                    const long mid = lo + (hi - lo) / 2;
                    if (ant->cdf[mid] > draw)
                        hi = mid;
                    else
                        lo = mid + 1;
                }
                pick = lo;
            }
            rank++;
            const long vm = ant->feas[pick];
            ant->feas[pick] = -1;
            assignment[(ant - ants) * n_vms + vm] = ant->host;
            for (long d = 0; d < width; d++)
                ant->residual[d] -= demand_rows[vm * width + d];
        }
        drawn += uniforms ? 2 * rank : 0;
    }
    long done = 0;
    for (long a = 0; a < n_ants && alive; a++)
        if (ants[a].host < n_hosts)
            memmove(assignment + done++ * n_vms, assignment + a * n_vms,
                    sizeof(int64_t) * (size_t)n_vms);
    *used = drawn;
    free(ants), free(ids), free(reals);
    return done;
}
