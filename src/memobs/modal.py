"""The scalar modal memory ODE and its nodal sets.

Each eigenmode of the heat equation with memory obeys the Volterra
integro-differential problem

    x'(t) + lam x(t) + int_0^t M(t - s) x(s) ds = 0,     x(0) = 1.

Three independent solution paths are provided: a second-order implicit
product-trapezoidal march (``solve_modal_volterra``, or
``solve_modal_richardson`` for its n/2n extrapolation; both take an initial
value x0 and state jumps and return the grid t and the values x), the series
representation

    x(t) = exp(-lam t) + int_0^t K_M(t, s) exp(-lam s) ds,

and, for M(t) = c exp(alpha t), the closed form obtained by reducing the
problem to x'' + (lam - alpha) x' + (c - alpha lam) x = 0.

The scheme is a lower triangular Toeplitz system, solved by divide and
conquer: leaves, and between them the history of the earlier leaves.  For
kernels c exp(alpha t) (``MemoryKernel.exp_form``) the history within a
leaf is a first-order recurrence, so a leaf of 1024 steps is one band
solve (BLAS ``dtbsv``), between leaves the history is one running sum per
row, and a march of n steps costs O(n).  For other kernels leaves of 256
steps are solved densely and the history moves by FFT convolutions, in
O(n log^2 n).  This solves the scheme exactly, not an approximation of the
kernel.  The O(n^2) loop with one history dot product per step computes
the same scheme; no production path calls it, and it stays as the
reference the fast solve is tested against.

Both entries march a batch: ``lam`` may be a 1-D sequence, with ``x0`` and
each jump increment a number or one entry per lam, and x then has one row
per lam, each bit-identical to the call for that lam alone.  The grid, the
kernel samples, the history powers or spectra and weights, and the leaf
band or block are computed once per batch.  A c exp(alpha t) batch then
marches row by row, each row with its own running sum; for the other
kernels each history update is one FFT over all rows, and only the leaf
solves run row by row.  Modes that share a grid (the modes of one run
of instants, or of one jump grid) are marched this way, which removes the
per-call work of a march that does not depend on lam.

This module picks every march grid: each step count comes from
``_n_steps`` under one of the step policies defined beside it, and the
grids built from those counts are chosen here too.  ``modal_table`` gives
the whole table x_k(t_j) and sup |x_k| on [0, t_j] that ``ModalCache``
keys and stores: for kernels c exp(alpha t) (the exponential, constant and
zero kernels) from the closed form, with no march, and for the others from
Richardson marches whose instants share runs (``_runs``).
``closed_loop_finals`` marches the impulse-controlled modes through their
jumps, batched by jump grid (``_jump_grids``).

The nodal set N = {t > 0 : x(t) = 0} is the obstruction to recovering a
mode from samples; it is computed numerically from one march, each zero
the root of the trajectory's cubic spline piece across a sign change, the
piece taken from the spline of the nodes near that sign change and the
roots found for all pieces at once by a safeguarded Newton pass, and in
closed form for kernels c exp(alpha t).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# scipy's submodules are imported inside the functions that call them, so
# importing memobs loads numpy only, and a run that reads nothing but
# closed-form values never loads them.  A march loads scipy.linalg (BLAS's
# dtbsv for a kernel with ``exp_form()``, LAPACK's dtrtrs and scipy.fft for
# the others); the K_M series and the series solution load scipy.fft.  Cubic
# spline pieces (tabulated kernels, numeric nodal sets) need only LAPACK's
# dgtsv, not scipy's CubicSpline.

from .errors import (
    NumericalError,
    StabilityError,
    ValidationError,
    integer,
    real,
    reals,
)
from .kernels import MemoryKernel, UniformGrid, _cubic_pieces, kernel_series_K

SIGN_CHANGE = "sign-change"
SUSPECTED_TANGENTIAL = "suspected-tangential"

# Steps per leaf of _march_dc: _BAND_LEAF for c exp(alpha t) kernels, each
# leaf one band solve with running sums across leaves; _LEAF for the other
# kernels, each leaf a dense solve with FFT convolutions across leaves.
_BAND_LEAF = 1024
_LEAF = 256

# The step policies, (n_min, hlam_max) pairs for _n_steps: modal_table's, whose
# hlam_max is ModalCache's (DEFAULT_HLAM_MAX by default), nodal_set_numeric's
# and closed_loop_finals', which keeps its own n_min with DEFAULT_HLAM_MAX.
# Each constant names a test that fails when it is loosened.
DEFAULT_N_MIN = 1024  # test_cache_linear_kernel_matches_high_precision_values
DEFAULT_HLAM_MAX = 0.25  # test_tabulated_table_matches_exponential_closed_form
NODAL_N_MIN = 8192  # test_nodal_numeric_drops_flat_neighbourhood_of_sign_change
NODAL_HLAM_MAX = 0.05  # test_nodal_numeric_layer_zero_at_high_lam
CONTROLLED_N_MIN = 2560  # test_closed_loop_error_on_tabulated_kernel

# A cap on _piece_roots' iterations; bisection alone would take 50.
_NEWTON_MAX = 100

# Knots on either side of a bracket in the spline window of _bracket_pieces.
_SPLINE_WINDOW = 40


class NodalSet:
    """Sorted zeros of a modal solution in (0, T] with per-zero flags."""

    def __init__(self, zeros, flags):
        zeros = np.asarray(zeros, dtype=float)
        flags = tuple(flags)
        if zeros.shape != (len(flags),):
            raise ValidationError("each zero needs exactly one flag")
        if zeros.size and not np.all(np.diff(zeros) > 0):
            raise ValidationError("zeros must be strictly increasing")
        for f in flags:
            if f not in (SIGN_CHANGE, SUSPECTED_TANGENTIAL):
                raise ValidationError(f"unknown zero flag {f!r}")
        self.zeros = zeros
        self.flags = flags

    def __len__(self) -> int:
        return self.zeros.size

    def __iter__(self):
        return iter(zip(self.zeros.tolist(), self.flags))

    @property
    def sign_change_zeros(self) -> np.ndarray:
        mask = [f == SIGN_CHANGE for f in self.flags]
        return self.zeros[np.asarray(mask, dtype=bool)] if self.flags else self.zeros

    def to_json(self) -> dict:
        return {"zeros": self.zeros.tolist(), "flags": list(self.flags)}

    def __repr__(self) -> str:
        return f"NodalSet({self.zeros.tolist()})"


def _n_steps(t: float, lam: float, n_min: int, hlam_max: float) -> int:
    """Step count of a march to time t: at least n_min, and h lam <= hlam_max."""
    return max(n_min, math.ceil(t * lam / hlam_max))


def _common_grid(den: int, ratio: float) -> tuple[int, Fraction] | None:
    """Extend a grid of ``den`` steps over [0, 1] so that ``ratio`` lies on
    a node: ratio as p/q with q <= 10 000, within 1e-12, and the grid of
    lcm(den, q) steps.  Returns that step count and p/q, or None when no
    such p/q exists."""
    frac = Fraction(ratio).limit_denominator(10_000)
    if abs(float(frac) - ratio) > 1e-12:
        return None
    return math.lcm(den, frac.denominator), frac


def _runs(times: list[float], steps) -> list[tuple[float, int, list[float]]]:
    """Split ``times``, in descending order, into runs; ``steps`` holds
    n_t, the steps each instant takes alone.  Each run is (T, n, members),
    one march of n steps to its largest member T with every member on a
    node.

    An instant joins the open run when t / T is p / q on the rational grid
    of ``_common_grid`` and the run's step count grows by at most n_t;
    otherwise it opens a run.  n is the smallest multiple of the run's
    common denominator that is at least ceil(n_t q / p) for every member,
    so no member is marched on a coarser step than its own policy gives.
    A run of one instant is the march of that instant alone."""
    runs: list[tuple[float, int, int, list[float]]] = []
    for t, n_t in zip(times, steps):
        if runs:
            T, den, n, members = runs[-1]
            grid = _common_grid(den, t / T)
            if grid is not None and grid[1].numerator:
                common, frac = grid
                need = max(n, -(-n_t * frac.denominator // frac.numerator))
                grown = -(-need // common) * common
                if grown - n <= n_t:
                    runs[-1] = (T, common, grown, members + [t])
                    continue
        runs.append((t, 1, n_t, [t]))
    return [(T, n, members) for T, _, n, members in runs]


def _jump_grids(lams, taus, T: float) -> dict[int, list[int]]:
    """The modes of ``lams``, by index, grouped by their jump grid: the
    smallest n >= the mode's own step count that places every tau exactly
    on a node.  Every such n is a multiple of one denominator, found once."""
    den = 1
    for tau in taus:
        grid = _common_grid(den, tau / T)
        if grid is None:
            raise NumericalError(
                f"impulse time {tau} does not align with a rational grid"
            )
        den = grid[0]
        if den > 50_000:
            raise NumericalError("impulse times require an impractically fine grid")
    grids: dict[int, list[int]] = {}
    for idx, lam in enumerate(lams.tolist()):
        n_target = _n_steps(T, lam, CONTROLLED_N_MIN, DEFAULT_HLAM_MAX)
        grids.setdefault(((n_target + den - 1) // den) * den, []).append(idx)
    return grids


def _is_row(v) -> bool:
    """Whether ``v`` is a 1-D sequence (one entry per row of a batch)."""
    return isinstance(v, (list, tuple)) or isinstance(v, np.ndarray) and v.ndim == 1


def _column(v, path: str, rows: int, **bounds) -> np.ndarray:
    """``v`` as ``rows`` floats: a number repeats, a 1-D sequence must hold
    exactly ``rows`` numbers; each passes through ``real``."""
    if not _is_row(v):
        return np.full(rows, real(v, path, **bounds))
    if len(v) != rows:
        raise ValidationError(f"{path} needs one entry per lam ({rows}), got {len(v)}")
    return np.array([real(x, f"{path}[{i}]", **bounds) for i, x in enumerate(v)])


def solve_modal_volterra(
    lam,
    M: MemoryKernel,
    T: float,
    n_steps: int,
    x0=1.0,
    jumps: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """March x(0) = x0 with the implicit product-trapezoidal scheme.

    Returns (t, x) on the uniform grid of ``n_steps`` steps over [0, T].
    Both the derivative and the history integral are discretized by the
    trapezoid rule.  With I_i the trapezoidal history at t_i and J_{i+1} its
    part not involving x_{i+1}, each step solves the scalar linear equation

        x_{i+1} (1 + h lam / 2 + h^2 M(0) / 4)
            = x_i (1 - h lam / 2) - (h/2)(I_i + J_{i+1}),

    which is second-order accurate with a clean h^2 error expansion, so
    Richardson extrapolation over grid halving is effective.  Steps with
    h lam > 2 are rejected: the memoryless damping factor would change sign.

    ``jumps`` maps interior grid nodes p to increments d: the state jumps
    from its left limit x(t_p-) to x(t_p+) = x(t_p-) + d, and x holds the
    right limits.  At a jump node the history quadrature uses the mean of
    the two one-sided limits, which reproduces the exact split trapezoid on
    the two adjacent subintervals, so the h^2 error expansion stays clean
    piecewise and Richardson extrapolation remains valid.

    ``lam`` may be a 1-D sequence: every lam is then marched on the one
    grid, ``x0`` and each jump increment may be a number (shared) or a
    sequence with one entry per lam, and x has one row per lam.  Each row
    is bit-identical to the call with that row's lam, x0 and increments.
    A batch samples M once and shares the history spectra or powers,
    weights and leaf band or block; a kernel with ``exp_form()`` then
    marches the rows one after another, and the others run each history
    update once over all rows.

    Every kernel takes the divide-and-conquer solve of ``_march_dc``: O(n)
    for a kernel with ``exp_form()``, O(n log^2 n) for the others.  It
    computes the same scheme as the O(n^2) dot-product loop
    ``_march_loop``, which no production path calls: it is the oracle the
    tests check it against.
    """
    batch = _is_row(lam)
    lam = _column(lam, "lam", len(lam) if batch else 1, positive=True)
    if lam.size == 0:
        raise ValidationError("lam must not be empty")
    T = real(T, "T", positive=True)
    n = integer(n_steps, "n_steps", lo=8)
    x0 = _column(x0, "x0", lam.size)
    jumps = {
        integer(p, "jump node"): _column(d, f"jumps[{p}]", lam.size)
        for p, d in (jumps or {}).items()
    }
    if any(not 0 < p < n for p in jumps):
        raise ValidationError("jump nodes must be interior grid nodes")
    h = T / n
    lam_max = float(lam.max())
    if h * lam_max > 2.0:
        raise StabilityError(
            f"h*lam = {h * lam_max:.3g} > 2; "
            f"raise n_steps above {math.ceil(T * lam_max / 2)}"
        )
    t = np.linspace(0.0, T, n + 1)
    Mg = np.asarray(M(t), dtype=float)
    if not np.all(np.isfinite(Mg)):
        raise NumericalError("kernel produced non-finite samples")
    denom = 1.0 + 0.5 * h * lam + 0.25 * h * h * Mg[0]
    if np.any(np.abs(denom) < 1e-14):
        raise StabilityError("implicit step is singular; refine the grid")
    x = _march_dc(lam, Mg, h, denom, x0, jumps, M.exp_form())
    if not np.all(np.isfinite(x)):
        raise NumericalError("modal trajectory produced non-finite values")
    return t, x if batch else x[0]


def solve_modal_richardson(
    lam,
    M: MemoryKernel,
    T: float,
    n_steps: int,
    x0=1.0,
    jumps: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """March on n and 2n steps and extrapolate the shared nodes.

    ``jumps`` are given on the n-step grid; the 2n-step march takes them at
    the doubled nodes.  Returns (t, x) on the n-step grid with the leading
    h^2 error cancelled; a sequence of lam gives one row per lam, as for
    ``solve_modal_volterra``.
    """
    jumps = jumps or {}
    t, coarse = solve_modal_volterra(lam, M, T, n_steps, x0, jumps)
    fine = solve_modal_volterra(
        lam, M, T, 2 * n_steps, x0, {2 * p: d for p, d in jumps.items()}
    )[1]
    return t, (4.0 * fine[..., ::2] - coarse) / 3.0


def _march_loop(lam, Mg, h, denom, x0, jumps) -> np.ndarray:
    """The march step by step, with an O(i) history dot product at step i.

    With H_i = sum_{r=1..i} M(t_r) x_{i+1-r}, I_i the trapezoidal history at
    t_i and J_{i+1} = h (M(t_{i+1}) x_0 / 2 + H_i) its part at t_{i+1} not
    involving x_{i+1}, step i solves
    x_{i+1} denom = x_i (1 - h lam / 2) - (h/2)(I_i + J_{i+1}).

    It computes in the dtype of ``Mg``, so the tests can also run it in
    np.longdouble.
    """
    n = Mg.size - 1
    x = np.empty(n + 1, dtype=Mg.dtype)
    x[0] = x0
    # Reversed copy of the history so the per-step dot product runs over a
    # contiguous slice: xrev[n - r] = x[r], or at a jump node the mean of the
    # two one-sided limits.
    xrev = np.empty(n + 1, dtype=Mg.dtype)
    xrev[n] = x0
    fac = 1.0 - 0.5 * h * lam
    half_h = 0.5 * h
    I_i = 0.0  # trapezoidal history integral at t_i, from the left limit
    start = 0
    for stop in sorted(jumps) + [n]:
        for i in range(start, stop):
            if i == 0:
                hist = 0.0
            else:
                hist = np.dot(Mg[1 : i + 1], xrev[n - i : n])
            J1 = h * (0.5 * Mg[i + 1] * x[0] + hist)
            xn = (x[i] * fac - half_h * (I_i + J1)) / denom
            x[i + 1] = xn
            xrev[n - (i + 1)] = xn
            I_i = J1 + half_h * Mg[0] * xn
        if stop < n:
            x[stop] += jumps[stop]
            xrev[n - stop] = 0.5 * (xrev[n - stop] + x[stop])
        start = stop
    return x


def _march_dc(lam, Mg, h, denom, x0, jumps, form) -> np.ndarray:
    """The march as a lower-triangular Toeplitz solve, by divide and conquer.

    With the x_0 terms on the right-hand side, step i of ``_march_loop`` is
    row i + 1 of a Toeplitz system in x_1..x_n whose symbol is denom at lag
    0, -fac + (h^2/4) M(0) + (h^2/2) M(t_1) at lag 1 and
    (h^2/2)(M(t_d) + M(t_{d-1})) at lag d >= 2 (Hairer, Lubich & Schlichte,
    SIAM J. Sci. Stat. Comput. 6, 1985).  ``form`` is ``M.exp_form()``; it
    picks how a leaf is solved and how the history of earlier leaves
    reaches the later rows.

    With a form (c, alpha), the symbol at lag d >= 2 is a_d = A q^(d-1),
    with q = e^(alpha h) and A = (h^2/2) c (1 + q), and the history is a
    first-order recurrence.  A leaf of _BAND_LEAF rows l is one lower band
    solve (kd = 3, BLAS ``dtbsv``) in the interleaved unknowns (y_l, S_l):

        denom y_l + a'_1 y_{l-1} + v_l S_{l-2} = b_l,
        S_l - rho S_{l-1} - w_l y_l = 0,

    a'_1 the lag-1 entry and l counted from the leaf's first row.  For
    alpha <= 0, rho = q, w_l = 1 and v_l = A q, so S_l = sum_j q^(l-j) y_j.
    For alpha > 0 the leaf is tilted: rho = 1, w_l = e^(-alpha h l) and v_l
    the lag-l symbol from the samples, so no weight is a power of q that
    drifts as it compounds.  With alpha <= 0 the tilt would overflow
    (e^1000 for alpha = -2000, h = 1/2048, l = 1024).  On the growing
    kernel 4 e^(3t) (lam 0.5, T 8, n 4096), against a long-double loop and
    relative to sup|x|, tilted leaves err by 3.5e-13 at 1024 rows and
    1.07e-12 at 2048, one band over the whole march by 1.03e-12 tilted and
    3.6e-11 not; untilted leaves keep 1e-12 only up to 256 rows.  So the
    leaf is 1024 rows, the largest that keeps the march's 1e-12.  The
    band's diagonal holds denom and 1, so it is nonsingular once
    ``solve_modal_volterra`` has checked denom, and the leaf solve needs no
    check of its own.

    Between leaves each row keeps P = sum_{j<lo} q^(lo-1-j) y_j over the
    rows solved, as a Python float: leaf row lo subtracts
    A (P - y_{lo-1}) + a_1 y_{lo-1}, with a_1 = (h^2/4) M(0) + (h^2/2) M(t_1),
    row lo + k, k >= 1, subtracts A q^k P, and after the leaf
    P <- q^m P + sum_j q^(hi-1-j) y_j, m its rows, the sum taken pairwise as
    ``np.sum`` takes it.  That is O(n), and the symbol is read only up to
    lag m unless a jump reads further.  The powers are exp(alpha h k) for
    k <= m, and no power of q divides, since q^(-k) overflows for steep
    decay; rounding compounds over the n / _BAND_LEAF leaves, not over the
    n steps.

    With no form (None), leaves of _LEAF rows are solved densely against
    one Toeplitz block, and after leaf k the last 2^l leaves, l the number
    of trailing zero bits of k + 1, subtract their history from the next
    2^l by one FFT convolution, so every pair of leaves is coupled exactly
    once, in O(n log^2 n).

    FFT rounding is relative to the largest term of the whole convolution.
    So only the (h^2/2) M part a_d of the symbol goes through the FFT: -fac
    is near 1 where the rest is O(h^2), and fac x_{lo-1} is added to leaf
    row lo exactly.  And where a_d grows, the large late lags would swamp
    the small early rows: an update with lags up to L is weighted by
    exp(-g d) on lag d and exp(-g j) on source value j, with
    g = log(|a_L| / |a_1|) / (L - 1) from the symbol alone, and its output
    is multiplied back.  A decaying symbol gives g = 0 and no weights.

    A jump d at node p only moves right-hand sides, weighted as the loop
    weights each limit: row p + 1 gains fac d - (h^2/2) M(t_1) d / 2 and
    row r >= p + 2 gains -a_{r-p} d / 2, since the history uses the mean of
    the two one-sided limits.

    ``lam``, ``denom``, ``x0`` and each jump increment hold one entry per
    row.  Only the lag-0 and lag-1 symbol entries depend on lam, so the
    rows share a_d, the powers or the history spectra and weights, and the
    leaf matrix, whose two lam diagonals are written per row.  With a form
    each row marches on its own, through all its leaves on its 1-D slices,
    so the diagonals are written once per row; with none, the diagonals
    are rewritten before each row's leaf solve, and each history update is
    one FFT over all rows.
    """
    from scipy.linalg.blas import dtbsv
    from scipy.linalg.lapack import dtrtrs

    n = Mg.size - 1
    fac = 1.0 - 0.5 * h * lam
    hh2 = 0.5 * h * h
    # conv[d]: the (h^2/2) M part of the symbol at lag d >= 1.  A band
    # march without jumps reads it only up to lag _BAND_LEAF.
    top = n if form is None or jumps else min(n, _BAND_LEAF)
    conv = np.empty(top + 1)
    conv[0] = 0.0
    conv[1] = 0.5 * hh2 * Mg[0] + hh2 * Mg[1]
    conv[2:] = hh2 * (Mg[2 : top + 1] + Mg[1:top])
    # b[:, r - 1] is the right-hand side of row r; y = x[:, 1:] solves for
    # x_1..x_n.
    b = -0.5 * hh2 * x0[:, None] * (Mg[:-1] + Mg[1:])
    b[:, 0] += (fac + 0.5 * hh2 * Mg[0]) * x0
    for p, d in jumps.items():
        b[:, p] += (fac - 0.5 * hh2 * Mg[1]) * d
        b[:, p + 1 :] -= (0.5 * d)[:, None] * conv[2 : n - p + 1]
    lag1 = conv[1] - fac
    x = np.empty((lam.size, n + 1))
    x[:, 0] = x0
    y = x[:, 1:]
    if form is not None:
        m = min(_BAND_LEAF, n)
        # Every leaf but the last has m rows, so one set of powers serves.
        qpow = np.exp(form[1] * h * np.arange(m + 1))
        A = hh2 * form[0] * (1.0 + qpow[1])
        Aq = A * qpow[:m]
        # The leaf's band in BLAS's lower storage, Fortran-ordered for
        # dtbsv: column j holds entries (j, j) to (j + 3, j), column 2l
        # those of y_l and column 2l + 1 those of S_l.  Rows 0 and 2 of the
        # y columns, denom and a'_1, are written once per row of the batch.
        band = np.zeros((4, 2 * m), order="F")
        band[0, 1::2] = 1.0
        if form[1] > 0.0:
            band[1, 0::2] = -np.exp(-form[1] * h * np.arange(m))
            band[2, 1::2] = -1.0
            band[3, 1 : 2 * m - 4 : 2] = conv[2:m]
        else:
            band[1, 0::2] = -1.0
            band[2, 1::2] = -qpow[1]
            band[3, 1 : 2 * m - 4 : 2] = Aq[1]
        rhs = np.zeros(2 * m)
        rev = qpow[m - 1 :: -1].copy()
        qm, A, a1 = float(qpow[m]), float(A), float(conv[1])
        for r in range(lam.size):
            band[0, 0::2] = denom[r]
            band[2, 0::2] = lag1[r]
            f = float(fac[r])
            br, yr = b[r], y[r]
            P = 0.0
            for lo in range(0, n, m):
                hi = min(lo + m, n)
                if lo:
                    br[lo] += f * yr[lo - 1]
                cols = 2 * (hi - lo)
                rhs[0:cols:2] = br[lo:hi]
                yr[lo:hi] = dtbsv(3, band[:, :cols], rhs[:cols], lower=1)[0::2]
                if hi == n:
                    break
                # The pairwise sum of np.sum (np.add.reduce, without its
                # wrapper) of an elementwise product, not a BLAS dot
                # product, whose summation order may vary by build.
                P = qm * P + float(np.add.reduce(yr[lo:hi] * rev))
                stop = min(hi + m, n)
                last = float(yr[hi - 1])
                br[hi] -= A * (P - last) + a1 * last
                br[hi + 1 : stop] -= P * Aq[1 : stop - hi]
    else:
        from scipy.fft import irfft, rfft
        from scipy.linalg import toeplitz

        m = min(_LEAF, n)
        # The leaf block is the transpose of this upper-triangular Toeplitz
        # matrix, so it is Fortran-ordered for dtrtrs; diagonal entries of
        # ``upper`` sit every m + 1 places in its flat view, the lag-1
        # entries one place after them.
        upper = toeplitz(np.zeros(m), conv[:m])
        block = upper.T
        flat = upper.reshape(-1)
        updates: dict[int, tuple] = {}
        for lo in range(0, n, m):
            hi = min(lo + m, n)
            if lo:
                b[:, lo] += fac * y[:, lo - 1]
            for r in range(lam.size):
                flat[:: m + 1] = denom[r]
                flat[1 :: m + 1] = lag1[r]
                leaf = block[: hi - lo, : hi - lo]
                y[r, lo:hi], info = dtrtrs(leaf, b[r, lo:hi], lower=1)
                if info != 0:
                    raise StabilityError(f"modal leaf solve failed (LAPACK info {info})")
            if hi == n:
                break
            k = lo // m + 1
            width = (k & -k) * m
            if width not in updates:
                updates[width] = _history_update(conv, width)
            spectrum, w_in, w_out = updates[width]
            stop = min(hi + width, n)
            src = y[:, hi - width : hi]
            prod = rfft(src if w_in is None else src * w_in, 2 * width)
            prod *= spectrum
            hist = irfft(prod)[:, width - 1 : width - 1 + stop - hi]
            b[:, hi:stop] -= hist if w_out is None else hist * w_out[: stop - hi]
    for p, d in jumps.items():
        x[:, p] += d
    return x


def _history_update(conv, width):
    """The spectrum and weights of a ``_march_dc`` history update from
    ``width`` source rows onto the next ``width``: lags 1..2 width - 1,
    zero beyond the march.  Returns the rfft of the weighted lags (lag d at
    index d - 1), the weights of the source rows and those of the output
    rows, whose lag from the first source row is width..2 width - 1; no
    weights (None) when g = 0."""
    from scipy.fft import rfft

    n = conv.size - 1
    lags = np.zeros(2 * width)
    top = min(2 * width - 1, n)
    lags[:top] = conv[1 : top + 1]
    g = 0.0
    if conv[1] != 0.0 and conv[top] != 0.0:
        rise = math.log(abs(conv[top])) - math.log(abs(conv[1]))
        g = max(0.0, rise / (top - 1))
    if g == 0.0:
        return rfft(lags), None, None
    lags[:top] *= np.exp(-g * np.arange(1, top + 1))
    w_in = np.exp(-g * np.arange(width))
    w_out = np.exp(g * np.arange(width, 2 * width))
    return rfft(lags), w_in, w_out


def _shifted_roots(lam: np.ndarray, c: float, alpha: float):
    """Per entry of ``lam``, the real roots u_b, u_s of
    u**2 + (lam + alpha) u + c = 0, for (lam + alpha)**2 > 4 c.

    The roots w of the reduced second-order equation satisfy
    (w - alpha)(w + lam) = -c, so u = w - alpha solves this quadratic.
    u_b has the larger magnitude and is taken directly; u_s = c / u_b by
    Vieta.  Neither subtracts nearly equal numbers, where the roots of the
    unshifted quadratic lose about log10(lam**2 / c) digits.
    """
    b = lam + alpha
    u_b = -np.copysign(0.5 * (np.abs(b) + np.sqrt(b**2 - 4.0 * c)), b)
    return u_b, c / u_b


def closed_form_exp(lam, c: float, alpha: float, t):
    """Closed-form modal solution for M(t) = c exp(alpha t), c real.

    ``lam`` is a number or a 1-D sequence, each entry checked through
    ``real``.  For a number, the result has the shape of ``t`` (a float for
    a number t).  For a sequence, ``t`` is a number or an array that
    broadcasts against it, lam running along the last axis: a number t
    gives x(t) for every lam, a 1-D t of the same length one x(t_i) per
    lam_i.  A number lam is evaluated as a one-entry sequence, so it equals
    the row of lam in any batch bit for bit.  A number t passes through
    ``real`` and must be nonnegative; an array t is checked as a whole for
    finite, nonnegative entries.

    With s = (lam + alpha)**2 - 4 c, the roots w = alpha + u of the reduced
    second-order equation (u from ``_shifted_roots`` for s > 0) and
    D = (e^{w_b t} - e^{w_s t}) / (w_b - w_s):

        s > 0:  x(t) = e^{w_b t} + u_s D, with D = e^{w_hi t}
                (1 - e^{-sqrt(s) t}) / sqrt(s) through expm1, w_hi the
                larger root
        s == 0: x(t) = (1 - (lam + alpha) t / 2) e^{-(lam - alpha) t / 2}
        s < 0:  x(t) = e^{a t} (cos(b t) + (a - alpha) sin(b t) / b),
                a = -(lam - alpha) / 2, b = sqrt(-s) / 2

    Each branch is evaluated only on its own lams.  Every branch is real,
    and D has no cancellation, so the value is accurate relative to |x| up
    to the rounding of the inputs.  For c <= 0, s >= (lam + alpha)**2 and
    the first branch applies.
    """
    one = not _is_row(lam)
    lam = _column(lam, "lam", 1 if one else len(lam))
    c = real(c, "c")
    alpha = real(alpha, "alpha")
    if np.isscalar(t):
        tv = np.asarray(real(t, "t", nonneg=True))
    else:
        tv = np.asarray(t, dtype=float)
        reals(tv.ravel(), "t", nonneg=True)
    out = _closed_form(lam, c, alpha, tv[..., None] if one else tv)
    if not one:
        return out
    return float(out[..., 0]) if np.isscalar(t) else out[..., 0]


def _closed_form(lam: np.ndarray, c: float, alpha: float, t) -> np.ndarray:
    """``closed_form_exp`` on checked input: ``lam`` a 1-D float array,
    ``c`` and ``alpha`` floats, ``t`` a float or an array that broadcasts
    against ``lam``."""
    tv = np.asarray(t, dtype=float)
    tv = np.broadcast_to(tv, np.broadcast_shapes(tv.shape, lam.shape))
    out = np.empty(tv.shape)
    s = (lam + alpha) ** 2 - 4.0 * c
    rows = s > 0
    if rows.any():
        tr = tv[..., rows]
        u_b, u_s = _shifted_roots(lam[rows], c, alpha)
        rt = np.sqrt(s[rows])
        D = np.exp((np.maximum(u_b, u_s) + alpha) * tr) * -np.expm1(-rt * tr) / rt
        out[..., rows] = np.exp((u_b + alpha) * tr) + u_s * D
    rows = s == 0
    if rows.any():
        tr = tv[..., rows]
        rise = 0.5 * (lam[rows] + alpha)
        out[..., rows] = (1.0 - rise * tr) * np.exp(-0.5 * (lam[rows] - alpha) * tr)
    rows = s < 0
    if rows.any():
        tr = tv[..., rows]
        a = -0.5 * (lam[rows] - alpha)
        b = 0.5 * np.sqrt(-s[rows])
        osc = np.cos(b * tr) + (a - alpha) * np.sin(b * tr) / b
        out[..., rows] = np.exp(a * tr) * osc
    return out


def series_solution_grid(
    lam: float,
    M: MemoryKernel,
    grid: UniformGrid,
    tol: float = 1e-12,
) -> np.ndarray:
    """Series solution exp(-lam t) + int_0^t K_M(t, s) exp(-lam s) ds on all
    grid nodes, with the s-integral by the trapezoid rule.

    With c_m the m-th row of the kernel series, w_m = s**m / m! and
    E = exp(-lam s), node i takes

        x_i = E_i + h (sum_m sum_{j<=i} c_m[i-j] w_m[j] E_j
                       - (1/2) sum_m c_m[0] w_m[i] E_i),

    the endpoint at s = 0 being zero.  Each term's sum over j is a
    convolution: the terms' spectra are summed and inverted once, in
    O(terms n log n) time and O(terms n) memory.
    """
    from scipy.fft import irfft, next_fast_len, rfft

    lam = real(lam, "lam", positive=True)
    c = kernel_series_K(M, grid, tol)
    s = grid.nodes()
    E = np.exp(-lam * s)
    wE = np.cumprod(np.outer(1.0 / np.arange(1, len(c) + 1), s), axis=0)
    wE *= E
    size = next_fast_len(2 * s.size - 1, True)
    spec = rfft(c, size)
    spec *= rfft(wE, size)
    conv = irfft(np.sum(spec, axis=0), size)[: s.size]
    return E + grid.h * (conv - 0.5 * (c[:, 0] @ wE))


def _scan_brackets(x: np.ndarray, sup: float):
    """Sign-change brackets, exact zeros and runs of tangential suspects on a
    sampled trajectory, as grid indices.

    A suspect run is a maximal run of consecutive grid points with
    |x| < 1e-9 sup.  A run touching a bracket endpoint or an exact zero is
    the flat neighbourhood of that sign change, not a separate zero, so it
    is dropped whole.
    """
    signs = np.sign(x)
    brackets = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    exact = np.nonzero(signs[1:] == 0)[0] + 1
    claimed = np.zeros(x.size, dtype=bool)
    claimed[exact] = claimed[brackets] = claimed[brackets + 1] = True
    low = np.nonzero(np.abs(x) < 1e-9 * sup)[0]
    runs = np.split(low, np.nonzero(np.diff(low) != 1)[0] + 1)
    suspects = [run.tolist() for run in runs if run.size and not claimed[run].any()]
    return brackets.tolist(), exact.tolist(), suspects


def _piece_roots(c, h, f0, f1) -> np.ndarray:
    """A root in [0, h] of each cubic piece, column j of ``c`` (highest
    power first, in s from the piece's left end), whose end values f0 and
    f1 have opposite signs.

    One vectorized Newton pass over all pieces, started at the secant point
    and safeguarded by the sign bracket: each iterate narrows the bracket,
    and a Newton step that leaves it (or a zero slope) bisects instead.  A
    piece ends its iteration at an exact zero or once a step is at most
    2^-50 of its width.
    """
    c0, c1, c2, c3 = c
    lo, hi = np.zeros(h.size), h.copy()
    s = h * (f0 / (f0 - f1))
    rising = f0 < 0.0  # the piece is negative left of its root
    active = np.ones(h.size, dtype=bool)
    for _ in range(_NEWTON_MAX):
        s2 = s * s
        f = c3 + c2 * s + c1 * s2 + c0 * (s2 * s)
        active &= f != 0.0
        left = (f < 0.0) == rising  # the root lies right of s
        lo = np.where(left, s, lo)
        hi = np.where(left, hi, s)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            new = s - f / (c2 + 2.0 * c1 * s + 3.0 * c0 * s2)
        out = ~((lo <= new) & (new <= hi))
        new[out] = 0.5 * (lo[out] + hi[out])
        step = np.abs(new - s)
        s = np.where(active, new, s)
        active &= step > 2.0**-50 * h
        if not active.any():
            break
    return s


def _bracket_pieces(t: np.ndarray, x: np.ndarray, brackets: np.ndarray) -> np.ndarray:
    """The cubic pieces of the not-a-knot spline through (t, x) on the
    intervals ``brackets`` (sorted, distinct), one column each, taken from
    the spline of the knots within _SPLINE_WINDOW of each bracket.

    Bracket i takes knots i - _SPLINE_WINDOW .. i + 1 + _SPLINE_WINDOW,
    clipped to the grid, and windows that share a knot merge, so no knot
    is in two and the one ``_cubic_pieces`` solve is never larger than the
    whole grid's.  On a uniform grid the slope equations damp a change at
    one knot by 2 - sqrt(3) per knot, so a window's end conditions reach
    its bracket damped by (2 - sqrt(3))^40, about 1e-23, times the
    trajectory's growth across the window: e^2 for a mode that changes by
    at most e^(h lam) per step, with h lam <= NODAL_HLAM_MAX.  The pieces
    are the whole grid's to rounding.
    """
    n = t.size - 1
    lo = np.maximum(brackets - _SPLINE_WINDOW, 0)
    hi = np.minimum(brackets + (_SPLINE_WINDOW + 1), n)
    # Windows are sorted with their brackets; one opens a new segment
    # unless it shares a knot with the window before it.
    opens = np.concatenate(([True], lo[1:] > hi[:-1]))
    seg_lo = lo[opens]
    seg_hi = hi[np.concatenate((opens[1:], [True]))]
    sizes = seg_hi - seg_lo + 1
    starts = np.cumsum(sizes) - sizes
    shift = seg_lo - starts
    knots = np.arange(starts[-1] + sizes[-1]) + np.repeat(shift, sizes)
    pieces = _cubic_pieces(t[knots], x[knots], starts)
    # Bracket i of segment k sits at knot i - shift[k] of the segments laid
    # end to end, and each segment before it has one knot more than pieces.
    seg = np.cumsum(opens) - 1
    return pieces[:, brackets - shift[seg] - seg]


def nodal_set_numeric(
    lam: float,
    M: MemoryKernel,
    T_max: float,
) -> NodalSet:
    """Zeros of the modal solution on (0, T_max].

    One Richardson-extrapolated march, of at least NODAL_N_MIN steps with
    h lam <= NODAL_HLAM_MAX, is scanned for sign changes.  The zero in a
    bracket is the real root of the trajectory's cubic spline piece on it,
    which changes sign there and so has one.  The pieces are those of the
    not-a-knot spline through the march nodes, to rounding, from
    ``_bracket_pieces``: each bracket's piece comes from the spline of the
    nodes within _SPLINE_WINDOW of it, all windows in one tridiagonal
    solve.  ``_piece_roots`` finds every bracket's root in one vectorized
    Newton pass, started at the secant point and kept inside the bracket.
    A grid point where x is exactly 0 is a zero.  Grid points where |x|
    dips below 1e-9 of the trajectory sup without a sign change are
    reported as suspected tangential zeros, one per run at its smallest |x|.

    Two resolution limits hold (measured against ``nodal_set_exp_closed``
    for lam = 4, M = 40).  The step is T_max / NODAL_N_MIN wherever the
    cap does not bind, so every zero loses accuracy as T_max grows: the
    zero at t = 2.83 errs by 1.2e-8 with T_max = 30, and the worst zero by
    1.8e-9 with T_max = 10.  Sign changes where |x| is below about 1e-13
    of sup are rounding noise, yet are reported as zeros: with T_max = 30
    they err by 1.8e-5 and more, and 58 zeros are found against 57.
    """
    T_max = real(T_max, "T_max", positive=True)
    lam = real(lam, "lam", positive=True)
    t, x = solve_modal_richardson(
        lam, M, T_max, _n_steps(T_max, lam, NODAL_N_MIN, NODAL_HLAM_MAX)
    )
    brackets, exact, suspects = _scan_brackets(x, float(np.max(np.abs(x))))
    found = [(float(t[i]), SIGN_CHANGE) for i in exact]
    if brackets:
        i = np.array(brackets)
        s = _piece_roots(_bracket_pieces(t, x, i), t[i + 1] - t[i], x[i], x[i + 1])
        found += [(z, SIGN_CHANGE) for z in (t[i] + s).tolist()]
    for run in suspects:
        best = min(run, key=lambda i: abs(x[i]))
        found.append((float(t[best]), SUSPECTED_TANGENTIAL))

    zeros: list[float] = []
    flags: list[str] = []
    # A suspect at t = 0 occurs when sup|x| > 1e9; equal zeros are merged.
    for z, f in sorted(found):
        if 0 < z <= T_max and (not zeros or z != zeros[-1]):
            zeros.append(z)
            flags.append(f)
    return NodalSet(zeros, flags)


def _exp_first_zero(lam: np.ndarray, c: float, alpha: float, mu: np.ndarray):
    """Per entry of ``lam`` (and of ``mu``), the first zero in (0, inf) of
    the solution of y'' + (lam - alpha) y' + (c - alpha lam) y = 0,
    y(0) = 1, y'(0) = -mu, and the spacing of the ladder of its later zeros.

    mu = lam gives the modal solution x itself; mu = lam - c / lam gives
    x' / x'(0), since x'(0) = -lam and x''(0) = lam**2 - c.  With
    s = (lam + alpha)**2 - 4 c, d = mu - lam and u_b, u_s from
    ``_shifted_roots``, the zeros are

    * s > 0: at most log(p / q) / (u_b - u_s), p = d - u_s, q = d - u_b,
      and none when p q <= 0;
    * |s| <= 1e-12: at most 1 / (d + (lam + alpha) / 2);
    * s < 0: the ladder z_0 + l pi / b, l = 0, 1, 2, ..., with
      z_0 = atan2(b, d + (lam + alpha) / 2) / b and b = sqrt(-s) / 2.

    Returns (first, spacing): ``first`` is NaN where there is no positive
    zero, ``spacing`` is pi / b on the ladder rows and NaN on the others.
    """
    s = (lam + alpha) ** 2 - 4.0 * c
    d = mu - lam
    first = np.full(lam.shape, np.nan)
    spacing = np.full(lam.shape, np.nan)
    den = d + 0.5 * (lam + alpha)
    rows = (np.abs(s) <= 1e-12) & (den > 0)
    first[rows] = 1.0 / den[rows]
    rows = np.flatnonzero(s > 1e-12)
    u_b, u_s = _shifted_roots(lam[rows], c, alpha)
    p, q = d[rows] - u_s, d[rows] - u_b
    cross = p * q > 0
    first[rows[cross]] = np.log(p[cross] / q[cross]) / (u_b - u_s)[cross]
    rows = s < -1e-12
    b = 0.5 * np.sqrt(-s[rows])
    first[rows] = np.arctan2(b, den[rows]) / b  # atan2 in (0, pi)
    spacing[rows] = np.pi / b
    first[~(first > 0)] = np.nan
    return first, spacing


def nodal_set_exp_closed(
    lam: float, c: float, alpha: float, T_max: float
) -> NodalSet:
    """Closed-form nodal set for M(t) = c exp(alpha t), c real, intersected
    with (0, T_max]: the first zero that ``_exp_first_zero`` gives for
    mu = lam, then its ladder while it stays at or below T_max.

    s = (lam + alpha)**2 - 4 c > 0 gives at most one zero, and none for
    c <= 0; a double root at most one; s < 0 a ladder of spacing 2 pi /
    sqrt(-s).
    """
    lam = real(lam, "lam")
    c = real(c, "c")
    alpha = real(alpha, "alpha")
    T_max = real(T_max, "T_max", positive=True)
    first, spacing = (
        float(v[0]) for v in _exp_first_zero(np.array([lam]), c, alpha, np.array([lam]))
    )
    zeros = []
    z = first
    while z <= T_max:  # false for NaN: no zero, or no ladder
        zeros.append(z)
        z = first + len(zeros) * spacing
    return NodalSet(zeros, [SIGN_CHANGE] * len(zeros))


def modal_table(
    M: MemoryKernel, instants: list, lams: np.ndarray, hlam_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """x(t) and sup |x| on [0, t] for every instant (rows; distinct, nonzero
    and descending) and lam (columns; sorted and distinct), as two arrays.

    For a kernel with ``exp_form()`` they come from one array evaluation of
    the closed form (``_closed_form_entries``), each entry bit-identical to
    one of its own.  Every other kernel is marched, with Richardson pairs
    under the step policy (DEFAULT_N_MIN, hlam_max): the instants are split
    into runs (``_runs``) per lam, and the runs of every lam that share a
    final time T and a step count n are one batched march.  A member t
    reads x at its node n t / T and the running max of |x| up to that node.

    A lam's runs depend on the lam only through the step counts of the
    instants, so the lams with the same step counts are split once, and
    each member is read for all of them by one indexing of the march."""
    form = M.exp_form()
    if form is not None:
        shape = (len(instants), lams.size)
        values, sups = _closed_form_entries(
            np.tile(lams, len(instants)), *form, np.repeat(instants, lams.size)
        )
        return values.reshape(shape), sups.reshape(shape)
    alike: dict[tuple[int, ...], list[int]] = {}
    for col, lam in enumerate(lams.tolist()):
        steps = (_n_steps(t, lam, DEFAULT_N_MIN, hlam_max) for t in instants)
        alike.setdefault(tuple(steps), []).append(col)
    batches: dict[tuple[float, int], list[tuple[list[int], list[float]]]] = {}
    for steps, cols in alike.items():
        for T, n, members in _runs(instants, steps):
            batches.setdefault((T, n), []).append((cols, members))
    row = {t: i for i, t in enumerate(instants)}
    values = np.empty((len(instants), lams.size))
    sups = np.empty((len(instants), lams.size))
    for (T, n), groups in batches.items():
        batch = np.concatenate([lams[cols] for cols, _ in groups])
        _, x = solve_modal_richardson(batch, M, T, n)
        peaks = np.maximum.accumulate(np.abs(x), axis=1)
        start = 0
        for cols, members in groups:
            rows = slice(start, start + len(cols))
            start += len(cols)
            for t in members:
                node = round(n * t / T)
                values[row[t], cols] = x[rows, node]
                sups[row[t], cols] = peaks[rows, node]
    return values, sups


def _closed_form_entries(lams: np.ndarray, c: float, alpha: float, t: np.ndarray):
    """x(t) and sup |x| on [0, t] for every lam in ``lams``, for
    M(t) = c exp(alpha t), as two arrays from one evaluation of the closed
    form.  ``t`` holds one time per lam (per row), so one call covers every
    instant of a table.  The input is already checked, so it goes
    straight to the array core of ``closed_form_exp``.

    |x| peaks at 0, where it is 1, at t, or at a zero of x', and one zero
    of x' per lam suffices.  s >= -1e-12 leaves at most one.  For s < 0,
    x = R e^{a t} cos(b t - phi) with a = (alpha - lam) / 2, so |x| at the
    zeros z of x' is R b / sqrt(a**2 + b**2) e^{a z}, monotone in z: the
    largest is the first zero for lam >= alpha and the last one in (0, t]
    for lam < alpha.
    """
    turn, spacing = _exp_first_zero(lams, c, alpha, lams - c / lams)
    late = (lams < alpha) & (turn <= t) & ~np.isnan(spacing)
    turn[late] += np.floor((t[late] - turn[late]) / spacing[late]) * spacing[late]
    rows = turn <= t
    # x at t and at the turning points in one evaluation; each entry is
    # computed on its own, so the split changes no float.
    both = _closed_form(
        np.concatenate((lams, lams[rows])), c, alpha, np.concatenate((t, turn[rows]))
    )
    values = both[: lams.size]
    peaks = np.zeros(lams.shape)
    peaks[rows] = np.abs(both[lams.size :])
    return values, np.maximum(np.maximum(1.0, np.abs(values)), peaks)


def closed_loop_finals(
    lams, M: MemoryKernel, T: float, x0, taus, applied
) -> np.ndarray:
    """x(T) of every mode of ``lams`` started at ``x0`` (one entry per lam)
    and jumping by ``applied[i]`` (one entry per lam) at time ``taus[i]``.

    Each mode is marched through [0, T] on its jump grid (``_jump_grids``),
    with every jump on its node and impulses that share a node summed, on n
    and 2n steps, and its final value Richardson-extrapolated.  The modes
    that share a jump grid are marched as one batch."""
    finals = np.empty(lams.size)
    for n, modes in _jump_grids(lams, taus, T).items():
        jumps: dict[int, np.ndarray] = {}
        for tau, d in zip(taus, applied):
            node = round(n * tau / T)
            jumps[node] = jumps.get(node, 0.0) + d[modes]
        x = solve_modal_richardson(lams[modes], M, T, n, x0[modes], jumps)[1]
        finals[modes] = x[:, -1]
    return finals
