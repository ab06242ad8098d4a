/* First fit in open order: the packing step of repro.core.ffd.FirstFit.
 *
 * repro.core.ffd.FirstFit.solve calls first_fit once per solve and compiles
 * this file on first use.  VMs are placed in the given order.  Each goes to
 * the first *open* host, in the order hosts were opened, whose residual is
 * at least its demand minus the tolerance in every dimension; when no open
 * host fits, it opens the lowest-numbered never-opened host that fits.  The
 * placement then subtracts the demand from that host's residual.  The
 * comparison and the subtraction are the numpy loop's, operation for
 * operation (tests/scalar_ffd.py is the oracle); build with -ffp-contract=off
 * like every kernel here.
 */

/* Place n_vms VMs (rows of demands, visited as listed in order) on n_hosts
 * hosts (rows of residual, which holds their capacities on entry and what is
 * left on return).  opened and is_open are workspaces of n_hosts entries,
 * is_open zeroed.  Writes each VM's host to assignment and returns the number
 * of hosts opened, or -1 - vm for the first VM that fits no open host and no
 * host left to open. */
long first_fit(long n_vms, long n_hosts, long n_dims, const long *order,
               const double *demands, double *residual, double tolerance,
               long *opened, char *is_open, long *assignment) {
    long n_open = 0;
    for (long i = 0; i < n_vms; i++) {
        const long vm = order[i];
        const double *demand = demands + vm * n_dims;
        long host = -1;
        for (long j = 0; j < n_open && host < 0; j++) {
            const double *left = residual + opened[j] * n_dims;
            long dim = 0;
            while (dim < n_dims && left[dim] >= demand[dim] - tolerance)
                dim++;
            if (dim == n_dims)
                host = opened[j];
        }
        for (long h = 0; h < n_hosts && host < 0; h++) {
            if (is_open[h])
                continue;
            const double *left = residual + h * n_dims;
            long dim = 0;
            while (dim < n_dims && left[dim] >= demand[dim] - tolerance)
                dim++;
            if (dim == n_dims) {
                host = h;
                opened[n_open++] = h;
                is_open[h] = 1;
            }
        }
        if (host < 0)
            return -1 - vm;
        double *left = residual + host * n_dims;
        for (long dim = 0; dim < n_dims; dim++)
            left[dim] -= demand[dim];
        assignment[vm] = host;
    }
    return n_open;
}
