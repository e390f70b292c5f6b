/* Compiled method-of-steps loop of hsclab.integrator.integrate, and the
 * event-root search of its find_extrema and find_level_crossings.
 *
 * A port of integrator._python_loop for adaptive runs: the same Dormand-Prince
 * 5(4) step, error control, forced stops, quartic dense output and delayed
 * read, with every formula evaluated in the same order, so the knots and
 * coefficients are bit-identical to the Python loop.  That needs IEEE double
 * arithmetic as written: build with -ffp-contract=off (no fused multiply-add)
 * and never with a flag that relaxes IEEE semantics.  History reads are
 * native: the cosine layout through libm cos, the spline by scipy's PPoly
 * rules.  The event roots (at the end) equal their Python port bit for bit
 * under the same build flags.
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

/* History.at at n times, for the load-time check against numpy and scipy */
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
