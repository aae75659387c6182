/* The per-node arithmetic of a closed-loop step, in the operation order of
 * the Python and numpy code it replaces: the Thomas factorization and
 * substitution (`stefanetc.numerics`), the right-hand side of
 * `plant.advance_profile`, the observer gain of `observer.observer_gain`
 * with the influence right-hand side, and the Sherman-Morrison update of
 * `observer.step_observer` with the trapezoid of its square.  Built with
 * -ffp-contract=off and -fno-fast-math, each expression is one IEEE double
 * operation per operator, evaluated as written, so every result has the
 * bits of that code: no a - b * c is fused into one rounding, and nothing
 * is reassociated.  The callers check the sizes and the diffusion number
 * before they pass pointers. */

#include <math.h>

/* numerics.BESSEL_Z_MAX and numerics._RATIO_SERIES_CUT; the load-time
 * check compares them with the Python values. */
static const double BESSEL_Z_MAX = 700.0;
static const double RATIO_SERIES_CUT = 1e-3;

/* scipy's i1 as scipy.special.cython_special exports it; the second
 * argument, __pyx_skip_dispatch, is 0.  It is the function the i1 ufunc
 * evaluates. */
typedef double (*bessel_i1)(double, int);

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

/* The n - 1 entries of advance_profile's right-hand side for the n-node
 * profile u: the upwinded advection xi (sdot/s) u_xi, forward where
 * sdot >= 0 and backward otherwise (a NaN sdot included), and zero at the
 * first node; the source dt (p slope) where p is not NULL; the ghost node
 * of the flux condition -s q / k in the first row.  xi_i = i h is
 * linspace(0, 1, n)'s value at each interior node. */
void advance_rhs(long n, const double *u, double s, double sdot, double q,
                 double dt, double k, double r, const double *p,
                 double slope, double *rhs)
{
    double h = 1.0 / (n - 1);
    double speed = sdot / s;
    rhs[0] = u[0] + dt * 0.0;
    for (long i = 1; i < n - 1; i++) {
        double a = (double)i * h * speed;
        double du = sdot >= 0.0 ? (u[i + 1] - u[i]) / h
                                : (u[i] - u[i - 1]) / h;
        rhs[i] = u[i] + dt * (a * du);
    }
    if (p)
        for (long i = 0; i < n - 1; i++)
            rhs[i] += dt * (p[i] * slope);
    rhs[0] -= 2.0 * r * h * (-s * q / k);
}

/* The gain's argument w = lam (s^2 - x^2) / alpha at node i of n, where
 * x = xi s and xi is linspace(0, 1, n), whose last entry is 1.0. */
static double gain_argument(long i, long n, double s, double lam,
                            double alpha)
{
    double xi = i == n - 1 ? 1.0 : (double)i * (1.0 / (n - 1));
    double x = xi * s;
    return lam * (s * s - x * x) / alpha;
}

/* Python's max(w, 0.0). */
static double max_zero(double w)
{
    return 0.0 > w ? 0.0 : w;
}

/* observer_gain's p = -lam s I1(z)/z, z = sqrt(w), at the first m of the n
 * nodes: the entries after the last w >= RATIO_SERIES_CUT (or NaN) take
 * the power series, the others the Bessel quotient.  Returns 1, with
 * nothing written, where the first z exceeds BESSEL_Z_MAX. */
static int observer_gain(long n, long m, double s, double lam, double alpha,
                         bessel_i1 i1, double *p)
{
    if (sqrt(max_zero(gain_argument(0, n, s, lam, alpha))) > BESSEL_Z_MAX)
        return 1;
    long head = n;
    while (head && gain_argument(head - 1, n, s, lam, alpha)
                   < RATIO_SERIES_CUT)
        head--;
    double scale = -lam * s;
    for (long i = 0; i < m; i++) {
        double w = gain_argument(i, n, s, lam, alpha);
        double ratio;
        if (i < head) {
            double z = sqrt(w);
            ratio = i1(z, 0) / z;
        } else {
            double v = max_zero(w);
            ratio = 0.5 + 1.0 * v / 16.0 + v * v / 384.0
                    + 1.0 * v * v * v / 18432.0;
        }
        p[i] = ratio * scale;
    }
    return 0;
}

/* The observer's two right-hand sides into rhs (2 (n - 1) entries): the
 * base step of u_hat with the source p slope, then the influence
 * right-hand side dt (p / dt).  Returns 1, with nothing written, where the
 * gain's Bessel argument is out of range. */
int observer_rhs(long n, const double *u_hat, double s, double sdot,
                 double q, double dt, double k, double r, double lam,
                 double alpha, double slope, bessel_i1 i1, double *rhs)
{
    double *z_rhs = rhs + (n - 1);
    if (observer_gain(n, n - 1, s, lam, alpha, i1, z_rhs))
        return 1;
    advance_rhs(n, u_hat, s, sdot, q, dt, k, r, z_rhs, slope, rhs);
    for (long i = 0; i < n - 1; i++)
        z_rhs[i] = dt * (z_rhs[i] / dt);
    return 0;
}

/* The trapezoid term h (y_{i+1}^2 + y_i^2) / 2. */
static double square_term(const double *y, long i, double h)
{
    return h * (y[i + 1] * y[i + 1] + y[i] * y[i]) / 2.0;
}

/* The sum of the m terms from i, in numpy's pairwise order: one
 * accumulator below 8 terms, 8 up to 128, and above that the halves split
 * at m / 2 rounded down to a multiple of 8. */
static double pairwise_sum(const double *y, long i, long m, double h)
{
    if (m < 8) {
        double sum = -0.0;
        for (long j = 0; j < m; j++)
            sum += square_term(y, i + j, h);
        return sum;
    }
    if (m <= 128) {
        double r[8];
        long j;
        for (j = 0; j < 8; j++)
            r[j] = square_term(y, i + j, h);
        for (j = 8; j < m - m % 8; j += 8)
            for (long l = 0; l < 8; l++)
                r[l] += square_term(y, i + j + l, h);
        double sum = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; j < m; j++)
            sum += square_term(y, i + j, h);
        return sum;
    }
    long half = m / 2;
    half -= half % 8;
    return pairwise_sum(y, i, half, h) + pairwise_sum(y, i + half, m - half, h);
}

/* The Sherman-Morrison update u_hat = u_star - z (dt w.u_star / (1 + dt
 * w.z)) of the n-node profiles, w.v the first-order interface slope
 * (v_{n-1} - v_{n-2}) / (h s), into out, and trapezoid(u_hat^2, s) into
 * norm_sq.  Returns 1 where |1 + dt w.z| < 1e-14, and 2 where an entry of
 * u_hat is not finite, each with norm_sq unwritten. */
int observer_update(long n, double s, double dt, const double *u_star,
                    const double *z, double *out, double *norm_sq)
{
    double h = 1.0 / (n - 1);
    double w_u_star = (u_star[n - 1] - u_star[n - 2]) / (h * s);
    double w_z = (z[n - 1] - z[n - 2]) / (h * s);
    double denom = 1.0 + dt * w_z;
    if (fabs(denom) < 1e-14)
        return 1;
    double c = dt * w_u_star / denom;
    int finite = 1;
    for (long i = 0; i < n; i++) {
        out[i] = u_star[i] - z[i] * c;
        finite &= isfinite(out[i]) != 0;
    }
    if (!finite)
        return 2;
    *norm_sq = s * pairwise_sum(out, 0, n - 1, h);
    return 0;
}
