/* Compiled method-of-steps loop of hsclab.integrator.integrate, the
 * event-root search of its find_extrema and find_level_crossings, the
 * interval loop of hsclab.analysis.lyapunov_spectrum, and the nullcline and
 * slow-manifold grids of hsclab.slowman.
 *
 * A port of integrator._python_loop for adaptive runs: the same Dormand-Prince
 * 5(4) step, error control, forced stops, quartic dense output and delayed
 * read, with every formula evaluated in the same order, so the knots and
 * coefficients are bit-identical to the Python loop.  That needs IEEE double
 * arithmetic as written: build with -ffp-contract=off (no fused multiply-add)
 * and never with a flag that relaxes IEEE semantics.  History reads are
 * native: the cosine layout through libm cos, the spline by scipy's PPoly
 * rules.  The event roots equal their Python port bit for bit under the
 * same build flags, the interval loop the numpy loop, and the grids (at the
 * end) their Python ports.
 */
#include <float.h>
#include <math.h>
#include <stdlib.h>

enum { DONE = 0, UNDERFLOW = 1, TOO_MANY_STEPS = 2, OVERFLOW = 3, NO_MEMORY = 4 };

/* Dormand-Prince 5(4) tableau, as in integrator.py */
static const double C2 = 1.0 / 5, C3 = 3.0 / 10, C4 = 4.0 / 5, C5 = 8.0 / 9;
static const double A21 = 1.0 / 5;
static const double A31 = 3.0 / 40, A32 = 9.0 / 40;
static const double A41 = 44.0 / 45, A42 = -56.0 / 15, A43 = 32.0 / 9;
static const double A51 = 19372.0 / 6561, A52 = -25360.0 / 2187,
                    A53 = 64448.0 / 6561, A54 = -212.0 / 729;
static const double A61 = 9017.0 / 3168, A62 = -355.0 / 33, A63 = 46732.0 / 5247,
                    A64 = 49.0 / 176, A65 = -5103.0 / 18656;
static const double B1 = 35.0 / 384, B3 = 500.0 / 1113, B4 = 125.0 / 192,
                    B5 = -2187.0 / 6784, B6 = 11.0 / 84;
static const double E1 = 71.0 / 57600, E3 = -71.0 / 16695, E4 = 71.0 / 1920,
                    E5 = -17253.0 / 339200, E6 = 22.0 / 525, E7 = -1.0 / 40;
static const double D1 = -12715105075.0 / 11282082432, D3 = 87487479700.0 / 32700410799,
                    D4 = -10690763975.0 / 1880347072, D5 = 701980252875.0 / 199316789632,
                    D6 = -1453857185.0 / 822651844, D7 = 69997945.0 / 29380423;

/* Python's min and max: the first argument wins ties and NaN comparisons */
static double pymin(double a, double b) { return b < a ? b : a; }
static double pymax(double a, double b) { return b > a ? b : a; }

typedef struct {
    double base, amplitude, w;  /* cosine layout, used when nx == 0 */
    const double *x, *c;        /* spline layout: nx breaks, (4, nx-1) coefficients */
    long nx;
} history_t;

typedef struct {
    double kappa, fths, ths, s, amp, tau;  /* fths = f*theta**s, ths = theta**s */
    history_t hist;
    double *knots, *widths, *coefs;        /* n+1 knots, n widths, n quartics */
    long n, cap, ptr;
    int overflow;
} run_t;

/* History.at.  The spline follows scipy's PPoly: the interval with
 * x[i] <= t < x[i+1], clamped to the first and the last, the terms summed
 * from the constant term up, then np.maximum(v, 0). */
static double history_at(const history_t *h, double t)
{
    if (h->nx == 0)
        return h->base * (1.0 + h->amplitude * cos(h->w * t));
    long lo = 0, hi = h->nx - 2, n = h->nx - 1;
    while (lo < hi) {
        long mid = (lo + hi + 1) / 2;
        if (h->x[mid] <= t) lo = mid; else hi = mid - 1;
    }
    double s = t - h->x[lo], z = 1.0, v = 0.0;
    for (int k = 3; k >= 0; k--) {
        v = v + h->c[k * n + lo] * z;
        if (k > 0) z *= s;
    }
    return v < 0.0 ? 0.0 : v;
}

/* the delayed value, from the history or the stored quartics */
static double ydel(run_t *r, double tq)
{
    double v;
    if (tq <= 0.0) {
        v = history_at(&r->hist, tq);
    } else {
        long i = r->ptr, n = r->n;
        if (i >= n) i = n - 1;
        while (i < n - 1 && r->knots[i + 1] < tq) i++;
        while (i > 0 && r->knots[i] > tq) i--;
        r->ptr = i;
        double th = (tq - r->knots[i]) / r->widths[i];
        if (th > 1.0) th = 1.0;
        const double *c = r->coefs + 5 * i;
        v = c[0] + th * (c[1] + th * (c[2] + th * (c[3] + th * c[4])));
    }
    return v > 0.0 ? v : 0.0;
}

/* Python raises OverflowError where pow overflows from a finite base */
static double power(run_t *r, double q)
{
    double v = pow(q, r->s);
    if (isinf(v) && !isinf(q)) r->overflow = 1;
    return v;
}

static double deriv(run_t *r, double tq, double yq)
{
    double qn = yq > 0.0 ? yq : 0.0;
    double qd = ydel(r, tq - r->tau);
    double bn = r->fths / (r->ths + power(r, qn));
    double bd = r->fths / (r->ths + power(r, qd));
    return -(r->kappa + bn) * qn + r->amp * bd * qd;
}

/* double the output buffers; the run goes on where it was */
static int grow(run_t *r)
{
    long cap = r->cap ? 2 * r->cap : 1024;
    double *k = realloc(r->knots, (cap + 1) * sizeof *k);
    if (k) r->knots = k;
    double *w = realloc(r->widths, cap * sizeof *w);
    if (w) r->widths = w;
    double *c = realloc(r->coefs, 5 * cap * sizeof *c);
    if (c) r->coefs = c;
    if (!(k && w && c)) return 0;
    r->cap = cap;
    return 1;
}

void hsc_free(void *p) { free(p); }

/* history_at at n times, for the load-time check against History.at */
void hsc_history_at(const double *cosine, const double *x, const double *c, long nx,
                    const double *t, long n, double *out)
{
    history_t h = {cosine[0], cosine[1], cosine[2], x, c, nx};
    for (long i = 0; i < n; i++) out[i] = history_at(&h, t[i]);
}

/* model = {kappa, f*theta**s, theta**s, s, A, tau}; cosine = {base, amplitude, w}.
 * On DONE, *knots (n+1) and *coefs (n, 5) belong to the caller (hsc_free);
 * on UNDERFLOW or TOO_MANY_STEPS, *t_fail is the time reached. */
int hsc_integrate(const double *model, const double *cosine, const double *x,
                  const double *c, long nx, const double *stops, long nstops,
                  double t_end, double rtol, double atol, double hmax, double h,
                  long long max_steps, double **knots, double **coefs, long *n,
                  double *t_fail)
{
    run_t r = {model[0], model[1], model[2], model[3], model[4], model[5],
               {cosine[0], cosine[1], cosine[2], x, c, nx}, NULL, NULL, NULL, 0, 0, 0, 0};
    int status = DONE, rejected = 0;
    long stop_idx = 0;
    long long n_steps = 0;
    double t = 0.0, y = history_at(&r.hist, 0.0);
    double k1 = deriv(&r, 0.0, y);

    if (!grow(&r)) status = NO_MEMORY;
    else if (r.overflow) status = OVERFLOW;
    else r.knots[0] = 0.0;
    while (status == DONE && t < t_end) {
        if (++n_steps > max_steps) { status = TOO_MANY_STEPS; break; }
        double s_next = stops[stop_idx];
        double h_try = h < hmax ? h : hmax;
        int landing = 0;
        if (t + h_try >= s_next - 1e-12 * pymax(1.0, s_next)) {
            h_try = s_next - t;
            landing = 1;
        }
        if (h_try < 1e-13 * pymax(1.0, t)) { status = UNDERFLOW; break; }

        double k2 = deriv(&r, t + C2 * h_try, y + h_try * (A21 * k1));
        double k3 = deriv(&r, t + C3 * h_try, y + h_try * (A31 * k1 + A32 * k2));
        double k4 = deriv(&r, t + C4 * h_try, y + h_try * (A41 * k1 + A42 * k2 + A43 * k3));
        double k5 = deriv(&r, t + C5 * h_try, y + h_try * (A51 * k1 + A52 * k2
                                                           + A53 * k3 + A54 * k4));
        double k6 = deriv(&r, t + h_try, y + h_try * (A61 * k1 + A62 * k2 + A63 * k3
                                                      + A64 * k4 + A65 * k5));
        double ynew = y + h_try * (B1 * k1 + B3 * k3 + B4 * k4 + B5 * k5 + B6 * k6);
        double k7 = deriv(&r, t + h_try, ynew);
        if (r.overflow) { status = OVERFLOW; break; }

        double e = h_try * (E1 * k1 + E3 * k3 + E4 * k4 + E5 * k5 + E6 * k6 + E7 * k7);
        double sc = atol + rtol * pymax(fabs(y), fabs(ynew));
        double err = fabs(e) / sc;

        if (err <= 1.0) {
            if (r.n == r.cap && !grow(&r)) { status = NO_MEMORY; break; }
            double dy = ynew - y;
            double bspl = h_try * k1 - dy;
            double c4 = dy - h_try * k7 - bspl;
            double c5 = h_try * (D1 * k1 + D3 * k3 + D4 * k4 + D5 * k5 + D6 * k6 + D7 * k7);
            double *q = r.coefs + 5 * r.n;
            q[0] = y;
            q[1] = dy + bspl;
            q[2] = -bspl + c4 + c5;
            q[3] = -c4 - 2.0 * c5;
            q[4] = c5;
            r.widths[r.n++] = h_try;
            if (landing) {
                t = s_next;
                stop_idx++;
                while (stop_idx < nstops && stops[stop_idx] <= t) stop_idx++;
                if (stop_idx >= nstops) stop_idx = nstops - 1;
            } else {
                t = t + h_try;
            }
            r.knots[r.n] = t;
            y = ynew;
            k1 = k7;
            double fac = err == 0.0 ? 10.0 : 0.9 * pow(err, -0.2);
            double facmax = rejected ? 1.0 : 5.0;
            h = h_try * pymin(facmax, pymax(0.2, fac));
            rejected = 0;
        } else {
            rejected = 1;
            h = h_try * pymax(0.1, 0.9 * pow(err, -0.2));
        }
    }

    free(r.widths);
    if (status != DONE) {
        free(r.knots);
        free(r.coefs);
        r.knots = r.coefs = NULL;
    }
    *knots = r.knots;
    *coefs = r.coefs;
    *n = r.n;
    *t_fail = t;
    return status;
}

/* ------------------------------------------------------------------------
 * Event roots of integrator.find_extrema and find_level_crossings, ported
 * line by line by integrator._python_event_roots.  Both isolate the real
 * roots of a polynomial in [0, 1) between its critical points, found the
 * same way on its derivative down to the closed-form linear case, and bisect
 * each sign change down to adjacent doubles.
 */

enum { EXTREMA = 0, LEVEL = 1 };

/* c[0] + x*(c[1] + ... + x*c[d]), the order numpy's polyval takes */
static double horner(const double *c, int d, double x)
{
    double v = c[d];
    for (int k = d - 1; k >= 0; k--) v = c[k] + x * v;
    return v;
}

/* the same sum over |c[k]|: Horner's rounding error is within d*eps of it */
static double horner_abs(const double *c, int d, double x)
{
    double v = fabs(c[d]);
    for (int k = d - 1; k >= 0; k--) v = fabs(c[k]) + x * v;
    return v;
}

/* a root between a and b, where p(a) and p(b) are nonzero and of opposite
 * sign: the end of the last bracket with the smaller |p|, below 1 */
static double bisect(const double *c, int d, double a, double fa, double b, double fb)
{
    for (;;) {
        double m = 0.5 * (a + b);
        if (m <= a || m >= b) break;
        double fm = horner(c, d, m);
        if (fm == 0.0) return m;
        if ((fm < 0.0) == (fa < 0.0)) { a = m; fa = fm; }
        else { b = m; fb = fm; }
    }
    return fabs(fb) < fabs(fa) && b < 1.0 ? b : a;
}

/* The real roots in [0, 1) of c[0] + c[1]*x + ... + c[d]*x^d in ascending
 * order; returns their number (at most d <= 4).  Trailing zero coefficients
 * lower the degree, and a constant has none.  A critical point where |p| is
 * within Horner's rounding error counts as a (multiple) root. */
static int unit_roots(const double *c, int d, double *out)
{
    while (d > 0 && c[d] == 0.0) d--;
    if (d == 0) return 0;
    if (d == 1) {
        double r = -c[0] / c[1];
        if (!(r >= 0.0 && r < 1.0)) return 0;
        out[0] = r == 0.0 ? 0.0 : r;
        return 1;
    }
    double dc[4], crit[4], x[6], v[6];
    int zero[6], m = 0, n = 0;
    for (int k = 1; k <= d; k++) dc[k - 1] = c[k] * k;
    int nc = unit_roots(dc, d - 1, crit);
    x[m++] = 0.0;
    for (int j = 0; j < nc; j++)
        if (crit[j] > x[m - 1]) x[m++] = crit[j];
    x[m++] = 1.0;
    for (int j = 0; j < m; j++) {
        v[j] = horner(c, d, x[j]);
        zero[j] = v[j] == 0.0 || (j > 0 && j < m - 1
                                  && fabs(v[j]) <= d * DBL_EPSILON * horner_abs(c, d, x[j]));
    }
    for (int j = 0; j < m - 1; j++) {
        if (zero[j])
            out[n++] = x[j];
        else if (!zero[j + 1] && (v[j] < 0.0) != (v[j + 1] < 0.0))
            out[n++] = bisect(c, d, x[j], v[j], x[j + 1], v[j + 1]);
    }
    return n;
}

/* np.maximum(1.0, a): NaN propagates */
static double max1(double a) { return isnan(a) || a > 1.0 ? a : 1.0; }

/* The event roots of n quartics (n, 5) in theta: segment index and theta of
 * every root in [0, 1), by segment, then theta.  mode EXTREMA roots the
 * derivative cubics k*c[k] of the segments that are not flat and pass
 * |d1| <= |d2| + |d3| + |d4|; mode LEVEL roots the quartics less the level
 * on the segments that move and pass |c0 - level| <= the sum of the other
 * |c[k]|.  seg and theta hold 3n (EXTREMA) or 4n (LEVEL) entries; returns
 * the number written. */
long hsc_event_roots(const double *coefs, long n, int mode, double level,
                     long long *seg, double *theta)
{
    long count = 0;
    for (long i = 0; i < n; i++) {
        const double *c = coefs + 5 * i;
        double p[5], r[4], scale = 1e-13 * max1(fabs(c[0]));
        int d;
        if (mode == EXTREMA) {
            for (int k = 0; k < 4; k++) p[k] = c[k + 1] * (k + 1.0);
            double rest = fabs(p[1]) + fabs(p[2]) + fabs(p[3]);
            if (fabs(p[0]) + fabs(p[1]) + fabs(p[2]) + fabs(p[3]) < scale
                || !(fabs(p[0]) <= rest))
                continue;
            d = 3;
        } else {
            p[0] = c[0] - level;
            for (int k = 1; k < 5; k++) p[k] = c[k];
            double spread = fabs(p[1]) + fabs(p[2]) + fabs(p[3]) + fabs(p[4]);
            if (!(spread >= scale) || !(fabs(p[0]) <= spread)) continue;
            d = 4;
        }
        int k = unit_roots(p, d, r);
        for (int j = 0; j < k; j++) {
            seg[count] = i;
            theta[count++] = r[j];
        }
    }
    return count;
}

/* ------------------------------------------------------------------------
 * The interval loop of analysis.lyapunov_spectrum over one block of step
 * weights: variational._advance, then orthonormalize (numpy.linalg.qr and
 * the sign fix), interval after interval.  Every elementwise formula keeps
 * _advance's order, with cumprod and cumsum as numpy accumulates them.
 * BLAS and LAPACK are scipy's (cython_blas, cython_lapack), passed in as
 * function pointers and called as numpy calls its own: the edge read as
 * dgemv('N') on the row-major rows (0 + ddot for a single column), the QR
 * as dgeqrf, then dorgqr on the factored column-major copy, each with its
 * queried workspace.
 */

enum { LAPACK_ERROR = 5 };

typedef void dgemv_t(const char *trans, const int *m, const int *n, const double *alpha,
                     const double *a, const int *lda, const double *x, const int *incx,
                     const double *beta, double *y, const int *incy);
typedef double ddot_t(const int *n, const double *x, const int *incx, const double *y,
                      const int *incy);
typedef void dgeqrf_t(const int *m, const int *n, double *a, const int *lda, double *tau,
                      double *work, const int *lwork, int *info);
typedef void dorgqr_t(const int *m, const int *n, const int *k, double *a, const int *lda,
                      const double *tau, double *work, const int *lwork, int *info);

/* 4-point interpolation weights of variational._W_MID and _W_EDGE */
static const double W_MID[4] = {-1.0 / 16, 9.0 / 16, 9.0 / 16, -1.0 / 16};
static const double W_EDGE[4] = {5.0 / 16, 15.0 / 16, -5.0 / 16, 1.0 / 16};

/* numpy's workspace: max(1, columns, the size LAPACK asks for) */
static int workspace(double query, int n)
{
    int w = (int)query;
    return w > n ? w : (n > 1 ? n : 1);
}

/* cols (n+1, m) row-major: advanced by K intervals of n_steps steps with the
 * (K, n_steps) weights g, u0, um, u1 of one block, and orthonormalised with
 * the sign fix after each, in place; growth (K, m) gets |diag R| of every
 * interval.  Returns DONE, NO_MEMORY or LAPACK_ERROR (a LAPACK argument
 * error, which numpy raises as LinAlgError). */
int hsc_lyapunov_block(long n, long m, long K, long n_steps, double *cols,
                       const double *g, const double *u0, const double *um,
                       const double *u1, double *growth,
                       void *gemv, void *dot, void *geqrf, void *orgqr)
{
    dgemv_t *dgemv = (dgemv_t *)gemv;
    ddot_t *ddot = (ddot_t *)dot;
    dgeqrf_t *dgeqrf = (dgeqrf_t *)geqrf;
    dorgqr_t *dorgqr = (dorgqr_t *)orgqr;
    const int rows = (int)(n + 1), ncol = (int)m, one = 1, four = 4, query = -1;
    const double unit = 1.0, zero = 0.0;
    int info = 0, lw_qrf, lw_org, status = DONE;
    double size;
    double *w_buf = malloc((n + 1 + n_steps) * m * sizeof *w_buf);
    double *wdm = malloc((n - 1) * m * sizeof *wdm);
    double *prod = malloc((n - 1) * sizeof *prod);
    double *a = malloc((n + 1) * m * sizeof *a);
    double *tau = malloc(m * sizeof *tau);
    double *sign = malloc(m * sizeof *sign);
    double *sum = malloc(m * sizeof *sum);
    double *work = NULL;

    if (!(w_buf && wdm && prod && a && tau && sign && sum)) { status = NO_MEMORY; goto out; }
    dgeqrf(&rows, &ncol, a, &rows, tau, &size, &query, &info);
    if (info) { status = LAPACK_ERROR; goto out; }
    lw_qrf = workspace(size, ncol);
    dorgqr(&rows, &ncol, &ncol, a, &rows, tau, &size, &query, &info);
    if (info) { status = LAPACK_ERROR; goto out; }
    lw_org = workspace(size, ncol);
    work = malloc((lw_qrf > lw_org ? lw_qrf : lw_org) * sizeof *work);
    if (!work) { status = NO_MEMORY; goto out; }

    for (long i = 0; i < (n + 1) * m; i++) w_buf[i] = cols[i];
    for (long k = 0; k < K; k++) {
        const double *gk = g + k * n_steps, *u0k = u0 + k * n_steps,
                     *umk = um + k * n_steps, *u1k = u1 + k * n_steps;
        /* steps [s, e) with e - s <= n - 1 read only rows stored before
         * step s: a scalar linear recurrence, solved by products and sums */
        for (long s = 0; s < n_steps; s += n - 1) {
            long e = s + n - 1 < n_steps ? s + n - 1 : n_steps, lo = s > 1 ? s : 1;
            for (long i = lo; i < e; i++) {
                const double *w = w_buf + (i - 1) * m;
                for (long j = 0; j < m; j++)
                    wdm[(i - s) * m + j] = W_MID[0] * w[j] + W_MID[1] * w[m + j]
                                           + W_MID[2] * w[2 * m + j] + W_MID[3] * w[3 * m + j];
            }
            if (s == 0 && m == 1) {
                wdm[0] = 0.0 + ddot(&four, W_EDGE, &one, w_buf, &one);
            } else if (s == 0) {  /* y starts at 0, whatever beta = 0 does */
                for (long j = 0; j < m; j++) wdm[j] = 0.0;
                dgemv("N", &ncol, &four, &unit, w_buf, &ncol, W_EDGE, &one, &zero, wdm, &one);
            }
            prod[0] = gk[s];
            for (long i = s + 1; i < e; i++) prod[i - s] = prod[i - s - 1] * gk[i];
            const double *head = w_buf + (n + s) * m;
            for (long i = s; i < e; i++) {
                const double *w = w_buf + i * m, *d = wdm + (i - s) * m;
                double *out = w_buf + (n + i + 1) * m, p = prod[i - s];
                for (long j = 0; j < m; j++) {
                    double f = u0k[i] * w[j] + umk[i] * d[j] + u1k[i] * w[m + j];
                    sum[j] = i == s ? f / p : sum[j] + f / p;
                    out[j] = p * (head[j] + sum[j]);
                }
            }
        }
        /* the QR of the new columns, rows n_steps .. n_steps + n */
        const double *c = w_buf + n_steps * m;
        for (long i = 0; i <= n; i++)
            for (long j = 0; j < m; j++) a[i + j * (n + 1)] = c[i * m + j];
        dgeqrf(&rows, &ncol, a, &rows, tau, work, &lw_qrf, &info);
        if (info) { status = LAPACK_ERROR; goto out; }
        for (long j = 0; j < m; j++) {
            double d = a[j + j * (n + 1)];
            growth[k * m + j] = fabs(d);
            sign[j] = d < 0.0 ? -1.0 : 1.0;
        }
        dorgqr(&rows, &ncol, &ncol, a, &rows, tau, work, &lw_org, &info);
        if (info) { status = LAPACK_ERROR; goto out; }
        for (long i = 0; i <= n; i++)
            for (long j = 0; j < m; j++) w_buf[i * m + j] = a[i + j * (n + 1)] * sign[j];
    }
    for (long i = 0; i < (n + 1) * m; i++) cols[i] = w_buf[i];
out:
    free(w_buf);
    free(wdm);
    free(prod);
    free(a);
    free(tau);
    free(sign);
    free(sum);
    free(work);
    return status;
}

/* ------------------------------------------------------------------------
 * The slow-manifold grids of hsclab.slowman: the nullcline companions
 * (slowman.nullcline) and, at each reference concentration of a profile,
 * h, h' and the real characteristic values (model._hill, chareq.real_roots
 * with its Lambert-W).  Every formula keeps the order of the Python it
 * ports, so the results are equal to it bit for bit.  A point whose Python
 * would leave this scalar path (a power that overflows, where Python takes
 * h in its far form; a math domain error or a zero divisor, where Python
 * raises; a brentq that sees a NaN or does not converge) is reported, and
 * the caller takes that point from Python.  Every power takes its exponent
 * as data: gcc folds pow(x, 2.0) into x*x, which is not always the
 * correctly rounded pow that Python's ** calls.
 */

enum { Q_NOW = 0, Q_DELAYED = 1 };

typedef struct {
    double kappa, fths, ths, s, amp, theta, xtol, rtol;  /* fths = f*theta**s */
    double level;
    int given, bad;  /* bad: this point is left to Python */
} nullcline_t;

/* f*theta**s*q / (theta**s + q**s), where Python neither overflows in q**s
 * nor divides by zero */
static double flux(nullcline_t *n, double q)
{
    double qs = pow(q, n->s);
    if (isinf(qs) || n->ths + qs == 0.0) n->bad = 1;
    return n->fths * q / (n->ths + qs);
}

static double nullcline_fn(nullcline_t *n, double x)
{
    double v = n->given == Q_NOW ? n->amp * flux(n, x) - n->level
                                 : n->kappa * x + flux(n, x) - n->level;
    if (isnan(v)) n->bad = 1;
    return v;
}

/* scipy.optimize.brentq, its C routine (Brent 1973) with scipy's stopping
 * rule, on a sign change of nullcline_fn on [xa, xb].  Returns 0 with the
 * root, or 1 where scipy raises or the point is left to Python. */
static int brentq(nullcline_t *n, double xa, double xb, long maxiter, double *root)
{
    double xpre = xa, xcur = xb, xblk = 0.0, fblk = 0.0, spre = 0.0, scur = 0.0;
    double fpre = nullcline_fn(n, xpre), fcur = nullcline_fn(n, xcur);
    if (n->bad) return 1;
    if (fpre == 0.0) { *root = xpre; return 0; }
    if (fcur == 0.0) { *root = xcur; return 0; }
    if (signbit(fpre) == signbit(fcur)) return 1;
    for (long i = 0; i < maxiter; i++) {
        if (fpre != 0.0 && fcur != 0.0 && signbit(fpre) != signbit(fcur)) {
            xblk = xpre;
            fblk = fpre;
            spre = scur = xcur - xpre;
        }
        if (fabs(fblk) < fabs(fcur)) {
            xpre = xcur; xcur = xblk; xblk = xpre;
            fpre = fcur; fcur = fblk; fblk = fpre;
        }
        double delta = (n->xtol + n->rtol * fabs(xcur)) / 2;
        double sbis = (xblk - xcur) / 2;
        if (fcur == 0.0 || fabs(sbis) < delta) { *root = xcur; return 0; }
        if (fabs(spre) > delta && fabs(fcur) < fabs(fpre)) {
            double stry;
            if (xpre == xblk) {  /* interpolate */
                stry = -fcur * (xcur - xpre) / (fcur - fpre);
            } else {             /* extrapolate */
                double dpre = (fpre - fcur) / (xpre - xcur);
                double dblk = (fblk - fcur) / (xblk - xcur);
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre));
            }
            double lim = 3 * fabs(sbis) - delta;
            if (2 * fabs(stry) < (fabs(spre) < lim ? fabs(spre) : lim)) {
                spre = scur;     /* good short step */
                scur = stry;
            } else {
                spre = sbis;
                scur = sbis;
            }
        } else {
            spre = sbis;
            scur = sbis;
        }
        xpre = xcur;
        fpre = fcur;
        if (fabs(scur) > delta) xcur += scur;
        else xcur += (sbis > 0 ? delta : -delta);
        fcur = nullcline_fn(n, xcur);
        if (n->bad) return 1;
    }
    return 1;
}

/* slowman.nullcline at one value, with ends[1..nt] its turning points: the
 * number of solutions written to out in increasing order, or -1 */
static int nullcline_at(nullcline_t *n, double value, double *ends, int nt,
                        long maxiter, double *out)
{
    double vals[3] = {0.0}, a, fa, b, fb, r;
    int k = 0;
    if (!(value >= 0.0)) return -1;  /* Python raises on a negative value */
    n->bad = 0;
    n->level = n->given == Q_NOW ? n->kappa * value + flux(n, value)
                                 : n->amp * flux(n, value);
    if (n->bad) return -1;
    if (n->level == 0.0) {
        out[0] = 0.0;
        return 1;
    }
    for (int i = 0; i <= nt; i++) vals[i] = nullcline_fn(n, ends[i]);
    if (n->bad) return -1;
    for (int i = 0; i <= nt; i++)
        if (vals[i] == 0.0) out[k++] = ends[i];
    for (int i = 0; i < nt; i++) {
        if (pymin(vals[i], vals[i + 1]) < 0.0 && 0.0 < pymax(vals[i], vals[i + 1])) {
            if (brentq(n, ends[i], ends[i + 1], maxiter, &r)) return -1;
            out[k++] = r;
        }
    }
    a = ends[nt];
    fa = vals[nt];
    if (fa != 0.0) {
        b = pymax(2.0 * a, n->theta);
        fb = nullcline_fn(n, b);
        while (!n->bad && 0.0 < fb / fa && fb / fa < 1.0) {
            a = b;
            fa = fb;
            b = pymin(2.0 * b, DBL_MAX);
            fb = nullcline_fn(n, b);
        }
        if (n->bad) return -1;
        if (fb / fa <= 0.0) {
            if (brentq(n, a, b, maxiter, &r)) return -1;
            out[k++] = r;
        }
    }
    for (int i = 1; i < k; i++)  /* sorted(), stable */
        for (int j = i; j > 0 && out[j] < out[j - 1]; j--) {
            r = out[j]; out[j] = out[j - 1]; out[j - 1] = r;
        }
    return k;
}

/* slowman.nullcline(p, given, values[i]) for i < n.  model holds kappa,
 * f*theta**s, theta**s, s, A, theta and brentq's xtol and rtol; turns the
 * nt <= 2 turning points (model.h_prime_level).  count[i] is the number of
 * solutions, written to roots[i*w ...] with w = 2*(nt + 1), or -1 where the
 * value is left to Python. */
void hsc_nullcline(const double *model, int given, const double *turns, long nt,
                   const double *values, long n, long maxiter, long long *count,
                   double *roots)
{
    nullcline_t st = {model[0], model[1], model[2], model[3], model[4], model[5],
                      model[6], model[7], 0.0, given, 0};
    double ends[3] = {0.0};
    long w = 2 * (nt + 1);
    for (long i = 0; i < nt && i < 2; i++) ends[i + 1] = turns[i];
    for (long i = 0; i < n; i++)
        count[i] = nt > 2 ? -1 : nullcline_at(&st, values[i], ends, (int)nt, maxiter,
                                              roots + i * w);
}

typedef struct {
    double e, inv_e, three;  /* math.e, math.exp(-1.0), and 3.0 for p**3 */
} lambert_t;

/* Python's math.exp, which raises where the result overflows */
static int py_exp(double x, double *y)
{
    *y = exp(x);
    return isinf(*y) && isfinite(x);
}

/* Python's math.log of a float, which raises at and below zero */
static int py_log(double x, double *y)
{
    *y = log(x);
    return !(x > 0.0) && !isnan(x);
}

/* chareq._w_from_log for a real lx: W_0(e^lx), or W_-1(-e^lx) for lx far
 * below -1.  Returns 1 where Python raises. */
static int w_from_log(double lx, double *w_out)
{
    double w, lw;
    if (py_log(fabs(lx), &lw)) return 1;
    w = lx - lw;
    for (int i = 0; i < 60; i++) {
        if (py_log(fabs(w), &lw)) return 1;  /* also where w == 0 */
        double num = w + lw - lx;
        double den = 1.0 + 1.0 / w;
        if (den == 0.0) return 1;
        double dw = num / den;
        w -= dw;
        if (fabs(dw) <= 1e-16 * fabs(w)) break;
    }
    *w_out = w;
    return 0;
}

/* chareq.lambert_w on branch 0 or -1.  Returns 1 where Python raises. */
static int lambert_w(const lambert_t *c, int branch, double x, double *w_out)
{
    double rad, p, w, l1, l2;
    if (isnan(x)) return 1;
    rad = 2.0 * (c->e * x + 1.0);
    if (rad < 0.0) {
        if (rad > -1e-12) rad = 0.0;
        else return 1;
    }
    if (branch == -1 && x >= 0.0) return 1;
    if (rad == 0.0) {
        *w_out = -1.0;
        return 0;
    }
    p = sqrt(rad);
    if (branch == 0) {
        if (x > 1e300) {
            if (py_log(x, &l1)) return 1;
            return w_from_log(l1, w_out);
        }
        if (x < -0.31) {
            w = -1.0 + p - p * p / 3.0 + 11.0 * pow(p, c->three) / 72.0;
        } else if (x < 2.0) {
            w = x > -0.25 ? log1p(x) : x * (1.0 - x);
            if (w <= -1.0) w = -0.99;
        } else {
            if (py_log(x, &l1) || py_log(l1, &l2)) return 1;
            w = l1 - l2;
        }
    } else {
        if (x > -0.31) {
            if (py_log(-x, &l1) || py_log(-l1, &l2)) return 1;
            w = l1 - l2 + l2 / l1;
        } else {
            w = -1.0 - p - p * p / 3.0 - 11.0 * pow(p, c->three) / 72.0;
        }
    }
    for (int i = 0; i < 100; i++) {  /* Halley */
        double ew;
        if (py_exp(w, &ew)) return 1;
        double fw = w * ew - x;
        if (fw == 0.0) break;
        double wp1 = w + 1.0;
        if (2.0 * wp1 == 0.0) return 1;
        double denom = ew * wp1 - (w + 2.0) * fw / (2.0 * wp1);
        if (denom == 0.0) return 1;
        double dw = fw / denom;
        w -= dw;
        if (branch == -1 && w > -1.0) w = -1.0 - 1e-16;
        if (branch == 0 && w < -1.0) w = -1.0 + 1e-16;
        if (fabs(dw) <= 1e-16 * (1.0 + fabs(w))) break;
    }
    *w_out = w;
    return 0;
}

/* chareq.real_roots(LinearizationCoeffs(a, b, tau)): their real parts, in
 * its order, written to r; returns their number, or -1 where Python raises */
static int real_roots(const lambert_t *c, double a, double b, double tau, double *r)
{
    double arg, x, w, w1, lg;
    if (b == 0.0) {
        r[0] = a;
        return 1;
    }
    if (py_log(fabs(b) * tau, &lg)) return -1;
    arg = -a * tau + lg;
    if (b > 0.0) {
        if (arg > 690.0) {
            if (w_from_log(arg, &w)) return -1;
        } else if (lambert_w(c, 0, exp(arg), &w)) {
            return -1;
        }
        r[0] = a + w / tau;
        return 1;
    }
    x = arg < 690.0 ? -exp(arg) : -INFINITY;
    if (x < -c->inv_e) {
        if (x > -c->inv_e * (1.0 + 1e-13)) {
            r[0] = a - 1.0 / tau;  /* coalesced double root */
            return 1;
        }
        return 0;
    }
    if (x == -c->inv_e) {
        r[0] = a - 1.0 / tau;
        return 1;
    }
    if (lambert_w(c, 0, x, &w)) return -1;
    if (arg > -700.0) {  /* chareq._wm1_from_log */
        if (lambert_w(c, -1, -exp(arg), &w1)) return -1;
    } else if (w_from_log(arg, &w1)) {
        return -1;
    }
    r[0] = a + w / tau;
    r[1] = a + w1 / tau;
    if (-r[1] < -r[0]) {  /* sorted by -re, stable */
        x = r[0]; r[0] = r[1]; r[1] = x;
    }
    return 2;
}

/* At each q[i] (i < n) of a slow-manifold profile: h, h' (model._hill) and
 * the real characteristic values of the linearisation there, written to
 * out[4i ...] as h, h', root, root, with count[i] the number of roots, or
 * -1 where the point is left to Python.  model holds kappa, f*theta**s,
 * theta**s, s, A, tau, math.e, math.exp(-1.0), and the exponents 2.0 and
 * 3.0 of _hill's den**2 and lambert_w's p**3. */
void hsc_manifold_roots(const double *model, const double *q, long n, double *out,
                        long long *count)
{
    double kappa = model[0], fths = model[1], ths = model[2], s = model[3];
    double amp = model[4], tau = model[5], two = model[8];
    lambert_t c = {model[6], model[7], model[9]};
    for (long i = 0; i < n; i++) {
        double *o = out + 4 * i, qs, den, den2;
        count[i] = -1;
        if (!(q[i] > 0.0)) continue;
        qs = pow(q[i], s);
        den = ths + qs;
        den2 = pow(den, two);
        if (isinf(qs) || isinf(den2) || den == 0.0 || den2 == 0.0) continue;
        o[0] = fths * q[i] / den;
        o[1] = fths * (ths + (1.0 - s) * qs) / den2;
        count[i] = real_roots(&c, -kappa - o[1], amp * o[1], tau, o + 2);
    }
}
