"""Co-integration of linearised perturbations along a base solution.

Perturbations w about a solution Q obey the nonautonomous linear delay
equation

    w'(t) = -(kappa + h'(Q(t))) * w(t) + A * h'(Q(t-tau)) * w(t-tau)

with coefficients read from the base trajectory's dense output.  A bundle of
m perturbation directions is discretised on a uniform mesh of N+1 points
spanning one delay and advanced with fixed-step classical RK4 at step
tau/N; delayed stage values come from each column's own stored past via
cubic interpolation (midpoint weights are constant on a uniform grid).

Each RK4 step is linear in the head value and in the delayed reads, with
scalar weights shared by all m columns.  Up to N-1 consecutive steps read
only values stored before the first of them, so such a chunk is a scalar
linear recurrence w_{j+1} = g_j*w_j + f_j, solved in closed form with
cumulative products and sums; it equals the RK4 steps up to rounding (cf.
Farmer, Physica D 4 (1982) 366, on spectra of a discretised delay
equation).  Longer spans are solved chunk by chunk.

Periodic QR re-orthonormalisation of the bundle supplies the growth factors
that Lyapunov estimates average.  A Lyapunov run builds the coefficient
tables of all its intervals before advancing, a block of intervals per
base-trajectory read (``_weight_blocks``); they are the tables
``integrate_variational`` builds for one interval.

Each block's interval loop (advance, QR, sign fix) runs in one call into
``hsc_lyapunov_block`` of the compiled kernel (see ``_native``), which calls
scipy's BLAS and LAPACK as numpy calls its own and gives the numpy loop's
bits.  The first block of each bundle shape compares the two
(``_block_matches``); where the kernel is not in use or the check fails, the
numpy loop runs.  ``interval_loop`` says which runs, and why.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .model import h_and_G
from .integrator import Trajectory

__all__ = ["PerturbationBundle", "integrate_variational", "orthonormalize",
           "interval_loop"]

# 4-point interpolation weights at the midpoint of a uniform grid
_W_MID = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
# one-sided variant for the very first step (nodes 0..3, evaluated at 0.5)
_W_EDGE = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
# intervals per coefficient-table block in ``_weight_blocks``: at 33 steps
# per interval a block reads the base trajectory at 8576 times, about 1 MB of
# temporaries; 64 to 512 ran equally fast, and the temporaries grow with it
_BLOCK = 64


@dataclass
class PerturbationBundle:
    """m discretised perturbation functions on the trailing delay interval.

    ``columns`` has shape (N+1, m); row i holds the perturbation values at
    time t_head - tau + i*tau/N.
    """

    offsets: np.ndarray       # (N+1,) mesh on [-tau, 0]
    columns: np.ndarray       # (N+1, m)
    t_head: float
    tau: float

    @property
    def m(self) -> int:
        return self.columns.shape[1]

    @property
    def n_mesh(self) -> int:
        return self.columns.shape[0] - 1

    @property
    def step(self) -> float:
        return self.tau / self.n_mesh

    @classmethod
    def seeded(cls, tau: float, m: int, n_mesh: int = 128, seed: int = 0,
               t_head: float = 0.0) -> "PerturbationBundle":
        """Random orthonormal bundle (deterministic for a given seed)."""
        if m < 1 or n_mesh < 4 or m > n_mesh + 1:
            raise ValueError("need 1 <= m <= n_mesh + 1 and n_mesh >= 4")
        rng = np.random.default_rng(seed)
        q = _orthonormal_columns(rng.standard_normal((n_mesh + 1, m)))[0]
        offsets = np.linspace(-tau, 0.0, n_mesh + 1)
        return cls(offsets=offsets, columns=q, t_head=t_head, tau=tau)

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.columns, axis=0)


def orthonormalize(bundle: PerturbationBundle) -> tuple[PerturbationBundle, np.ndarray]:
    """QR-orthonormalise the bundle columns.

    Returns the new bundle and the (positive) diagonal of R, i.e. the growth
    factor of each successively orthogonalised direction since the last
    orthonormalisation.
    """
    q, growth = _orthonormal_columns(bundle.columns)
    return (PerturbationBundle(bundle.offsets, q, bundle.t_head, bundle.tau),
            growth)


def _orthonormal_columns(columns):
    """Q of the QR of the columns, each column's sign fixed so that diag R
    is positive, and |diag R|."""
    q, r = np.linalg.qr(columns)
    d = np.diag(r).copy()
    sign = np.where(d < 0, -1.0, 1.0)
    return q * sign, np.abs(d)


def _coeff_tables(traj: Trajectory, heads, h: float, n_steps: int):
    """alpha, beta at the RK4 stage times (half-grid) of n_steps steps from
    each head time: shape (2*n_steps+1,) for a scalar head, (K, 2*n_steps+1)
    for K heads."""
    p = traj.params
    times = (np.asarray(heads, dtype=float)[..., None]
             + 0.5 * h * np.arange(2 * n_steps + 1))
    q = np.maximum(traj(np.concatenate([times, times - p.tau], axis=-1)), 0.0)
    h_prime = h_and_G(q, p).h_prime
    alpha = -(p.kappa + h_prime[..., : times.shape[-1]])
    beta = p.amplification * h_prime[..., times.shape[-1]:]
    return alpha, beta


def _weight_blocks(traj: Trajectory, heads: np.ndarray, h: float,
                   n_steps: int):
    """Step weights (g, u0, um, u1) of the n_steps steps from each head time,
    yielded ``_BLOCK`` intervals at a time as (K, n_steps) arrays, so memory
    stays bounded on long runs."""
    for b in range(0, len(heads), _BLOCK):
        alpha, beta = _coeff_tables(traj, heads[b:b + _BLOCK], h, n_steps)
        yield _step_weights(alpha, beta, h)


def integrate_variational(traj: Trajectory, bundle: PerturbationBundle,
                          t_span: tuple[float, float]) -> tuple[PerturbationBundle, np.ndarray]:
    """Advance every bundle column across t_span along the base trajectory.

    The span start must equal the bundle head; the end is snapped to a whole
    number of internal steps (tau/N each).  Returns the evolved bundle and
    the per-column norms before any re-orthonormalisation.  The base must
    cover [start - tau, end].
    """
    t0, t1 = t_span
    if abs(t0 - bundle.t_head) > 1e-9 * max(1.0, abs(t0)):
        raise ValueError("span start must match the bundle head time")
    if t1 <= t0:
        raise ValueError("empty span")
    h = bundle.step
    n_steps = max(1, int(round((t1 - t0) / h)))
    t_end = t0 + n_steps * h
    if t_end > traj.t_end + 1e-9 or t0 - bundle.tau < -traj.params.tau - 1e-9:
        raise ValueError("base trajectory does not cover the requested span")

    alpha, beta = _coeff_tables(traj, t0, h, n_steps)
    cols = _advance(bundle.columns, _step_weights(alpha, beta, h),
                    bundle.n_mesh)
    out = PerturbationBundle(bundle.offsets, cols, t_end, bundle.tau)
    return out, out.norms()


def _step_weights(alpha, beta, h):
    """Weights of the RK4 step map w_{j+1} = g*w + u0*wd0 + um*wdm + u1*wd1.

    The stage values k1..k4 are linear in the head value w and the delayed
    reads wd0, wdm, wd1 with scalar coefficients shared by every column, so
    each weight is a vector over the steps (the last axis; leading axes
    index intervals).
    """
    a0, am, a1 = alpha[..., :-1:2], alpha[..., 1::2], alpha[..., 2::2]
    b0, bm, b1 = beta[..., :-1:2], beta[..., 1::2], beta[..., 2::2]
    hh = 0.5 * h
    h6 = h / 6.0
    # k_i = c_i*w + d_i*wd0 + e_i*wdm (+ b1*wd1 in k4);
    # c1 = a0, d1 = b0, e1 = 0 and e2 = bm
    c2 = am * (1.0 + hh * a0)
    c3 = am * (1.0 + hh * c2)
    c4 = a1 * (1.0 + h * c3)
    d2 = hh * am * b0
    d3 = hh * am * d2
    d4 = h * a1 * d3
    e3 = bm * (1.0 + hh * am)
    e4 = h * a1 * e3
    g = 1.0 + h6 * (a0 + 2.0 * (c2 + c3) + c4)
    u0 = h6 * (b0 + 2.0 * (d2 + d3) + d4)
    um = h6 * (2.0 * (bm + e3) + e4)
    u1 = h6 * b1
    return g, u0, um, u1


def _advance(columns, weights, n):
    """Advance the (n+1, m) columns by one interval of steps with the given
    step weights (g, u0, um, u1), each a vector over the steps."""
    g, u0, um, u1 = (x[:, None] for x in weights)
    n_steps = g.shape[0]
    w_buf = np.empty((n + 1 + n_steps, columns.shape[1]))
    w_buf[: n + 1] = columns
    # steps [s, e) with e - s <= n - 1 read only rows stored before step s,
    # so their forcing is known and the chunk is a scalar linear recurrence
    for s in range(0, n_steps, n - 1):
        e = min(s + n - 1, n_steps)
        lo = max(s, 1)
        wdm = np.empty((e - s, columns.shape[1]))
        wdm[lo - s:] = (_W_MID[0] * w_buf[lo - 1:e - 1]
                        + _W_MID[1] * w_buf[lo:e]
                        + _W_MID[2] * w_buf[lo + 1:e + 1]
                        + _W_MID[3] * w_buf[lo + 2:e + 2])
        if s == 0:
            wdm[0] = _W_EDGE @ w_buf[0:4]
        f = (u0[s:e] * w_buf[s:e] + um[s:e] * wdm
             + u1[s:e] * w_buf[s + 1:e + 1])
        # with P_k = g_s*...*g_{k-1}:  w_k = P_k*(w_s + sum_{i<k} f_i/P_{i+1})
        prod = np.cumprod(g[s:e], axis=0)
        w_buf[n + s + 1:n + e + 1] = prod * (w_buf[n + s]
                                             + np.cumsum(f / prod, axis=0))
    return w_buf[n_steps:].copy()


# ---------------------------------------------------------------------------
# the interval loop of a Lyapunov run


def interval_loop(n_mesh: int, m: int):
    """What advances and orthonormalises a bundle of m columns on n_mesh + 1
    mesh values in this process: "compiled", or {"python": why the compiled
    block is not in use}.  Decided on the first call for each shape."""
    return _native.block_loop(n_mesh, m, _block_matches)


def _block_matches(n: int, m: int) -> bool:
    """True when the compiled block equals the numpy loop bit for bit on
    three seeded orthonormal bundles of the shape, each over two intervals
    of n + 1 steps (a whole chunk of n - 1 steps, then two) with seeded
    weights."""
    rng = np.random.default_rng(7)
    for _ in range(3):
        cols = np.linalg.qr(rng.standard_normal((n + 1, m)))[0]
        weights = (rng.uniform(0.9, 1.1, (2, n + 1)),
                   *rng.uniform(-0.05, 0.05, (3, 2, n + 1)))
        want, got = np.empty((2, m)), np.empty((2, m))
        q_want = _numpy_block(cols, weights, n, want)
        q_got = _compiled_block(cols, weights, n, got)
        if (q_got.tobytes() != q_want.tobytes()
                or got.tobytes() != want.tobytes()):
            return False
    return True


def _advance_block(columns, weights, n, growth):
    """Advance the (n+1, m) columns through the K intervals of one block of
    step weights (g, u0, um, u1), each (K, n_steps), orthonormalising after
    every interval.  Writes |diag R| of interval k to ``growth[k]`` and
    returns the last orthonormal columns."""
    if interval_loop(n, columns.shape[1]) == "compiled":
        return _compiled_block(columns, weights, n, growth)
    return _numpy_block(columns, weights, n, growth)


def _numpy_block(columns, weights, n, growth):
    """``_advance_block`` in numpy: the fallback, and the oracle of the
    compiled block."""
    for k, w in enumerate(zip(*weights)):
        columns, growth[k] = _orthonormal_columns(_advance(columns, w, n))
    return columns


def _compiled_block(columns, weights, n, growth):
    """``_advance_block`` by ``hsc_lyapunov_block``; ``growth`` must be a
    C-contiguous (K, m) array of floats."""
    cols = np.array(columns, dtype=float, order="C")
    g, u0, um, u1 = (np.ascontiguousarray(x, dtype=float) for x in weights)
    if (n < 2 or cols.shape[0] != n + 1 or g.ndim != 2
            or any(x.shape != g.shape for x in (u0, um, u1))
            or growth.shape != (g.shape[0], cols.shape[1])
            or growth.dtype != float or not growth.flags.c_contiguous):
        raise ValueError("the columns, weights and growth rows of a block "
                         "do not fit together")
    status = _native.kernel().hsc_lyapunov_block(
        n, cols.shape[1], g.shape[0], g.shape[1], cols.ctypes.data,
        g.ctypes.data, u0.ctypes.data, um.ctypes.data, u1.ctypes.data,
        growth.ctypes.data, *_native.status.pointers)
    if status == 4:
        raise MemoryError("Lyapunov block buffers")
    if status == 5:  # as numpy.linalg.qr reports it
        raise np.linalg.LinAlgError(
            "Incorrect argument found while performing QR factorization")
    return cols
