/* Thomas factorization and substitution of the plant's implicit diffusion
 * matrix, in the operation order of the Python loops they replace
 * (`stefanetc.numerics`).  Built with -ffp-contract=off and -fno-fast-math,
 * each expression is one IEEE double operation per operator, evaluated as
 * written, so every result has the bits of those loops: no a - b * c is
 * fused into one rounding, and nothing is reassociated.  The callers check
 * the sizes and the diffusion number before they pass pointers. */

/* Ratios (m - 1 entries) and pivots (m) of the m = n - 1 unknowns at
 * diffusion number r: -r below the diagonal, 1 + 2r on it, -2r then -r
 * above it. */
void diffusion_factor(long m, double r, double *ratios, double *pivots)
{
    double lower = -r;
    double diag = 1.0 + 2.0 * r;
    double pivot = diag;
    double ratio = -2.0 * r / pivot;
    ratios[0] = ratio;
    pivots[0] = pivot;
    for (long i = 1; i < m - 1; i++) {
        pivot = diag - lower * ratio;
        ratio = lower / pivot;
        pivots[i] = pivot;
        ratios[i] = ratio;
    }
    pivots[m - 1] = diag - lower * ratio;
}

/* Forward and back substitution of the m-entry right-hand side rhs into
 * out, which has m + 1 entries: the solution, then the pinned +0.0. */
void solve_tridiagonal(long m, double lower, const double *ratios,
                       const double *pivots, const double *rhs, double *out)
{
    double xi = out[0] = rhs[0] / pivots[0];
    for (long i = 1; i < m; i++)
        xi = out[i] = (rhs[i] - lower * xi) / pivots[i];
    for (long i = m - 2; i >= 0; i--)
        xi = out[i] = out[i] - ratios[i] * xi;
    out[m] = 0.0;
}
