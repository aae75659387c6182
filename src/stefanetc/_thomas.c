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
 * before they pass pointers.  At the end, the formatter of series.csv's
 * rows, which writes repr's bytes. */

#include <math.h>
#include <stdint.h>
#include <string.h>

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

/* Python's repr of a double, by Schubfach (R. Giulietti, "The Schubfach
 * way to render doubles", 2020) in the form of Java's DoubleToDecimal,
 * with two departures, since repr writes the shortest decimal that reads
 * back to the double and Java at least two digits: the one-digit-shorter
 * candidate is tried from s >= 10, not s >= 100, and the smallest
 * subnormals are not scaled by 10 first (Java's C_TINY branch, which
 * gives 4.9e-324 for repr's 5e-324).  Integer arithmetic only, on
 * Schubfach's table of g(k) = floor(10^-k / 2^r) + 1, 2^125 <= g < 2^126,
 * for k from POW10_K_MIN to POW10_K_MAX, which the loader computes from
 * exact integers and passes as g1 = g >> 63, g0 = g mod 2^63 pairs. */

static const int POW10_K_MIN = -324;
static const int POW10_K_MAX = 292;

/* The most bytes repr writes for a double: "-2.2250738585072014e-308". */
static const int REPR_MAX = 24;

#define MASK63 0x7fffffffffffffffULL
#define C_MIN (1ULL << 52)
#define Q_MIN (-1074)

/* floor(log10(2^e)), floor(log10(3/4 2^e)) and floor(log2(10^e)) for the
 * e of doubles; >> of a negative value is arithmetic in GCC and Clang. */
static int flog10_pow2(int e)
{
    return (int)((long long)e * 661971961083LL >> 41);
}

static int flog10_three_quarters_pow2(int e)
{
    return (int)(((long long)e * 661971961083LL - 274743187321LL) >> 41);
}

static int flog2_pow10(int e)
{
    return (int)((long long)e * 913124641741LL >> 38);
}

/* The high 64 bits of the 128-bit product a b. */
static uint64_t mul_high(uint64_t a, uint64_t b)
{
    uint64_t a0 = a & 0xffffffffULL, a1 = a >> 32;
    uint64_t b0 = b & 0xffffffffULL, b1 = b >> 32;
    uint64_t mid = a1 * b0 + (a0 * b0 >> 32);
    uint64_t mid2 = a0 * b1 + (mid & 0xffffffffULL);
    return a1 * b1 + (mid >> 32) + (mid2 >> 32);
}

/* g cp 2^-127 rounded to odd, g = g1 2^63 + g0. */
static uint64_t round_to_odd(uint64_t g1, uint64_t g0, uint64_t cp)
{
    uint64_t x1 = mul_high(g0, cp);
    uint64_t y0 = g1 * cp;
    uint64_t y1 = mul_high(g1, cp);
    uint64_t z = (y0 >> 1) + x1;
    uint64_t vbp = y1 + (z >> 63);
    return vbp | (((z & MASK63) + MASK63) >> 63);
}

/* The shortest decimal f 10^k that rounds to the double c 2^q, c > 0, the
 * one nearest it where several do, ties to an even f; returns k. */
static int shortest(int q, uint64_t c, const uint64_t *g, uint64_t *f)
{
    int out = (int)(c & 1);
    uint64_t cb = c << 2, cbr = cb + 2, cbl;
    int k;
    if (c != C_MIN || q == Q_MIN) {
        cbl = cb - 2;
        k = flog10_pow2(q);
    } else {
        cbl = cb - 1;
        k = flog10_three_quarters_pow2(q);
    }
    int h = q + flog2_pow10(-k) + 2;
    const uint64_t *gk = g + 2 * (k - POW10_K_MIN);
    uint64_t vb = round_to_odd(gk[0], gk[1], cb << h);
    uint64_t vbl = round_to_odd(gk[0], gk[1], cbl << h);
    uint64_t vbr = round_to_odd(gk[0], gk[1], cbr << h);
    uint64_t s = vb >> 2;
    if (s >= 10) {
        uint64_t sp10 = s / 10 * 10, tp10 = sp10 + 10;
        int upin = vbl + out <= sp10 << 2;
        int wpin = (tp10 << 2) + out <= vbr;
        if (upin != wpin) {
            *f = upin ? sp10 : tp10;
            return k;
        }
    }
    uint64_t t = s + 1;
    int uin = vbl + out <= s << 2;
    int win = (t << 2) + out <= vbr;
    if (uin != win) {
        *f = uin ? s : t;
        return k;
    }
    long long cmp = (long long)(vb - ((s + t) << 1));
    *f = cmp < 0 || (cmp == 0 && (s & 1) == 0) ? s : t;
    return k;
}

/* f 10^e, f > 0, laid out as repr does from its digits d1..dn, without
 * trailing zeros, and decpt = n + e: positional where -4 < decpt <= 16,
 * with ".0" after an integral value, else d1.d2..dn and an exponent of at
 * least two digits; returns the end of the text. */
static char *lay_out(char *p, uint64_t f, int e)
{
    char digits[20], *d = digits + sizeof digits;
    while (f % 10 == 0) {
        f /= 10;
        e++;
    }
    for (; f; f /= 10)
        *--d = (char)('0' + f % 10);
    int n = (int)(digits + sizeof digits - d);
    int decpt = n + e;
    if (-4 < decpt && decpt <= 0) {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', (size_t)-decpt);
        p += -decpt;
        memcpy(p, d, (size_t)n);
        return p + n;
    }
    if (0 < decpt && decpt < n) {
        memcpy(p, d, (size_t)decpt);
        p += decpt;
        *p++ = '.';
        memcpy(p, d + decpt, (size_t)(n - decpt));
        return p + n - decpt;
    }
    if (n <= decpt && decpt <= 16) {
        memcpy(p, d, (size_t)n);
        p += n;
        memset(p, '0', (size_t)(decpt - n));
        p += decpt - n;
        *p++ = '.';
        *p++ = '0';
        return p;
    }
    *p++ = d[0];
    if (n > 1) {
        *p++ = '.';
        memcpy(p, d + 1, (size_t)(n - 1));
        p += n - 1;
    }
    int x = decpt - 1;
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    if (x < 0)
        x = -x;
    if (x >= 100)
        *p++ = (char)('0' + x / 100);
    *p++ = (char)('0' + x / 10 % 10);
    *p++ = (char)('0' + x % 10);
    return p;
}

static char *copy(char *p, const char *text)
{
    while (*text)
        *p++ = *text++;
    return p;
}

/* repr(v) at p; returns the end of the text. */
static char *format_double(char *p, double v, const uint64_t *g)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    uint64_t t = bits & (C_MIN - 1);
    int bq = (int)(bits >> 52) & 0x7ff;
    if (bq == 0x7ff && t)
        return copy(p, "nan");
    if (bits >> 63)
        *p++ = '-';
    if (bq == 0x7ff)
        return copy(p, "inf");
    if (bq == 0 && t == 0)
        return copy(p, "0.0");
    uint64_t f;
    int e = 0;
    if (bq == 0)
        e = shortest(Q_MIN, t, g, &f);
    else {
        int mq = -Q_MIN + 1 - bq;
        uint64_t c = C_MIN | t;
        /* An integer below 2^52 is its own shortest decimal. */
        if (0 < mq && mq < 53 && (c >> mq << mq) == c)
            f = c >> mq;
        else
            e = shortest(-mq, c, g, &f);
    }
    return lay_out(p, f, e);
}

/* The rows x cols doubles of values, row-major, as CSV lines of their
 * reprs: "," between the values of a row, "\r\n" after each row.  out
 * holds at least rows (cols (REPR_MAX + 1) + 2) bytes; returns the bytes
 * written. */
long format_rows(long rows, long cols, const double *values,
                 const uint64_t *g, char *out)
{
    char *p = out;
    for (long i = 0; i < rows; i++) {
        for (long j = 0; j < cols; j++) {
            if (j)
                *p++ = ',';
            p = format_double(p, values[i * cols + j], g);
        }
        *p++ = '\r';
        *p++ = '\n';
    }
    return (long)(p - out);
}
