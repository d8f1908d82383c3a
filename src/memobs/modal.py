"""The scalar modal memory ODE and its nodal sets.

Each eigenmode of the heat equation with memory obeys the Volterra
integro-differential problem

    x'(t) + lam x(t) + int_0^t M(t - s) x(s) ds = 0,     x(0) = 1.

Three independent solution paths are provided: a second-order implicit
product-trapezoidal march, the series representation

    x(t) = exp(-lam t) + int_0^t K_M(t, s) exp(-lam s) ds,

and, for M(t) = c exp(alpha t), the closed form obtained by reducing the
problem to x'' + (lam - alpha) x' + (c - alpha lam) x = 0.  The nodal set
N = {t > 0 : x(t) = 0} is the obstruction to recovering a mode from samples;
it is computed numerically by sign-change scanning plus bisection, and in
closed form for exponential kernels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import NumericalError, StabilityError, ValidationError
from .kernels import (
    KernelGridFunction,
    MemoryKernel,
    UniformGrid,
    kernel_series_K,
    require_converged,
)

SIGN_CHANGE = "sign-change"
SUSPECTED_TANGENTIAL = "suspected-tangential"


@dataclass
class ModalTrajectory:
    """Values of one modal solution on a uniform grid."""

    lam: float
    kernel: MemoryKernel
    t: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        if self.x[0] != 1.0:
            raise ValidationError("modal trajectory must start at x(0) = 1")
        if not np.all(np.isfinite(self.x)):
            raise NumericalError("modal trajectory produced non-finite values")

    @property
    def h(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def T(self) -> float:
        return float(self.t[-1])


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


def _march(
    lam: float,
    M: MemoryKernel,
    T: float,
    n_steps: int,
    x0: float = 1.0,
    jumps: dict[int, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Product-trapezoidal march of x(0) = x0 with optional state jumps.

    ``jumps`` maps interior grid nodes p to increments d: the state jumps
    from its left limit x(t_p-) to x(t_p+) = x(t_p-) + d.  The march runs
    segment by segment between jump nodes and returns the right limits.  At
    a jump node the history quadrature uses the mean of the two one-sided
    limits, which reproduces the exact split trapezoid on the two adjacent
    subintervals, so the h^2 error expansion stays clean piecewise and
    Richardson extrapolation over grid halving remains valid.
    """
    lam = float(lam)
    T = float(T)
    if lam <= 0:
        raise ValidationError("lam must be positive")
    if T <= 0:
        raise ValidationError("horizon T must be positive")
    if int(n_steps) != n_steps or n_steps < 8:
        raise ValidationError("n_steps must be an integer >= 8")
    n = int(n_steps)
    jumps = jumps or {}
    h = T / n
    if h * lam > 2.0:
        raise StabilityError(
            f"h*lam = {h * lam:.3g} > 2; raise n_steps above {math.ceil(T * lam / 2)}"
        )
    t = np.linspace(0.0, T, n + 1)
    Mg = np.asarray(M(t), dtype=float)
    if not np.all(np.isfinite(Mg)):
        raise NumericalError("kernel produced non-finite samples")

    x = np.empty(n + 1)
    x[0] = x0
    # Reversed copy of the history so the per-step dot product runs over a
    # contiguous slice: xrev[n - r] = x[r], or at a jump node the mean of the
    # two one-sided limits.
    xrev = np.empty(n + 1)
    xrev[n] = x0
    denom = 1.0 + 0.5 * h * lam + 0.25 * h * h * Mg[0]
    if abs(denom) < 1e-14:
        raise StabilityError("implicit step is singular; refine the grid")
    fac = 1.0 - 0.5 * h * lam
    half_h = 0.5 * h
    I_i = 0.0  # trapezoidal history integral at t_i, from the left limit
    start = 0
    for stop in sorted(jumps) + [n]:
        for i in range(start, stop):
            if i == 0:
                hist = 0.0
            else:
                hist = float(np.dot(Mg[1 : i + 1], xrev[n - i : n]))
            J1 = h * (0.5 * Mg[i + 1] * x[0] + hist)
            xn = (x[i] * fac - half_h * (I_i + J1)) / denom
            x[i + 1] = xn
            xrev[n - (i + 1)] = xn
            I_i = J1 + half_h * Mg[0] * xn
        if stop < n:
            x[stop] += jumps[stop]
            xrev[n - stop] = 0.5 * (xrev[n - stop] + x[stop])
        start = stop
    if not np.all(np.isfinite(x)):
        raise NumericalError("modal trajectory produced non-finite values")
    return t, x


def solve_modal_volterra(
    lam: float, M: MemoryKernel, T: float, n_steps: int
) -> ModalTrajectory:
    """March the modal equation with the implicit product-trapezoidal scheme.

    Both the derivative and the history integral are discretized by the
    trapezoid rule.  With I_i the trapezoidal history at t_i and J_{i+1} its
    part not involving x_{i+1}, each step solves the scalar linear equation

        x_{i+1} (1 + h lam / 2 + h^2 M(0) / 4)
            = x_i (1 - h lam / 2) - (h/2)(I_i + J_{i+1}),

    which is second-order accurate with a clean h^2 error expansion, so
    Richardson extrapolation over grid halving is effective.  Steps with
    h lam > 2 are rejected: the memoryless damping factor would change sign.
    """
    t, x = _march(lam, M, T, n_steps)
    return ModalTrajectory(float(lam), M, t, x)


def solve_modal_richardson(
    lam: float, M: MemoryKernel, T: float, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Solve on n and 2n steps and extrapolate the shared nodes.

    Returns (t, x) on the n-step grid with the leading h^2 error cancelled.
    """
    coarse = solve_modal_volterra(lam, M, T, n_steps)
    fine = solve_modal_volterra(lam, M, T, 2 * int(n_steps))
    x = (4.0 * fine.x[::2] - coarse.x) / 3.0
    return coarse.t, x


def closed_form_exp(lam: float, c: float, alpha: float, t):
    """Closed-form modal solution for M(t) = c exp(alpha t), c > 0.

    With s = (lam + alpha)**2 - 4 c and roots w_pm = (-(lam - alpha)
    +- sqrt(s)) / 2 of the reduced second-order equation:

        s != 0:  x(t) = ((w_p - alpha) e^{w_p t} - (w_m - alpha) e^{w_m t})
                        / (w_p - w_m)
        s == 0:  x(t) = (1 - (lam + alpha) t / 2) e^{-(lam - alpha) t / 2}

    For s < 0 the same formula is evaluated in complex arithmetic and the
    real part returned; the imaginary residual is checked against 1e-12.
    """
    lam = float(lam)
    c = float(c)
    alpha = float(alpha)
    if c <= 0:
        raise ValidationError("closed form requires c > 0")
    tv = np.asarray(t, dtype=float)
    s = (lam + alpha) ** 2 - 4.0 * c
    if abs(s) <= 1e-12:
        out = (1.0 - 0.5 * (lam + alpha) * tv) * np.exp(-0.5 * (lam - alpha) * tv)
    else:
        root = cmath.sqrt(complex(s, 0.0))
        w_p = 0.5 * (-(lam - alpha) + root)
        w_m = 0.5 * (-(lam - alpha) - root)
        vals = (
            (w_p - alpha) * np.exp(w_p * tv.astype(complex))
            - (w_m - alpha) * np.exp(w_m * tv.astype(complex))
        ) / (w_p - w_m)
        if np.max(np.abs(vals.imag)) >= 1e-12:
            raise NumericalError("imaginary residual above 1e-12 in closed form")
        out = vals.real
    return float(out) if np.isscalar(t) else out


def series_solution_grid(
    lam: float,
    M: MemoryKernel,
    grid: UniformGrid,
    tol: float = 1e-12,
    kernel_series: KernelGridFunction | None = None,
) -> np.ndarray:
    """Series solution exp(-lam t) + int_0^t K_M(t, s) exp(-lam s) ds on all
    grid nodes, with the s-integral by the trapezoid rule."""
    lam = float(lam)
    if lam <= 0:
        raise ValidationError("lam must be positive")
    if kernel_series is None:
        kernel_series = kernel_series_K(M, grid, tol)
    elif kernel_series.grid != grid:
        raise ValidationError("kernel series was sampled on a different grid")
    require_converged(kernel_series)
    Kv = kernel_series.values
    h = grid.h
    E = np.exp(-lam * grid.nodes())
    core = Kv @ E
    diag = np.diagonal(Kv)
    # Row i of Kv is zero beyond column i, so the full product equals the
    # rectangle sum; subtract the half-weight endpoints (column 0 is zero).
    return E + h * (core - 0.5 * (Kv[:, 0] * E[0] + diag * E))


def _scan_brackets(t: np.ndarray, x: np.ndarray, sup: float):
    """Sign-change brackets, exact zeros and runs of tangential suspects on a
    sampled trajectory.

    A suspect run is a maximal run of consecutive grid points with
    |x| < 1e-9 sup.  A run touching a bracket endpoint or an exact zero is
    the flat neighbourhood of that sign change, not a separate zero, so it
    is dropped whole.
    """
    signs = np.sign(x)
    brackets = []
    exact = []
    for i in range(len(x) - 1):
        if signs[i] == 0.0 and i > 0:
            exact.append(i)
        elif signs[i] * signs[i + 1] < 0:
            brackets.append(i)
    if signs[-1] == 0.0:
        exact.append(len(x) - 1)
    claimed = set(exact)
    for b in brackets:
        claimed.update((b, b + 1))
    runs: list[list[int]] = []
    for i in np.nonzero(np.abs(x) < 1e-9 * sup)[0].tolist():
        if runs and i == runs[-1][-1] + 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    suspects = [run for run in runs if claimed.isdisjoint(run)]
    return brackets, exact, suspects


def nodal_set_numeric(
    lam: float,
    M: MemoryKernel,
    T_max: float,
    resolution: int = 2048,
    refine_tol: float = 1e-10,
) -> NodalSet:
    """Zeros of the modal solution on (0, T_max].

    A Richardson-extrapolated trajectory is scanned for sign changes; each
    bracket is then refined by bisection on a cubic interpolant of a finer
    re-solved trajectory down to an absolute width of ``refine_tol``.  Grid
    points where |x| dips below 1e-9 of the trajectory sup without a sign
    change are reported as suspected tangential zeros and never refined.
    """
    if int(resolution) != resolution or resolution < 64:
        raise ValidationError("resolution must be an integer >= 64")
    T_max = float(T_max)
    lam = float(lam)
    t_c, x_c = solve_modal_richardson(
        lam, M, T_max, _n_steps(T_max, lam, int(resolution), 1.0)
    )
    sup = float(np.max(np.abs(x_c)))
    brackets, exact, suspects = _scan_brackets(t_c, x_c, sup)
    if not brackets and not exact and not suspects:
        return NodalSet([], [])

    t_f, x_f = solve_modal_richardson(
        lam, M, T_max, _n_steps(T_max, lam, 4 * int(resolution), 0.05)
    )
    sup = float(np.max(np.abs(x_f)))
    brackets, exact, suspects = _scan_brackets(t_f, x_f, sup)
    spline = CubicSpline(t_f, x_f)

    zeros: list[float] = []
    flags: list[str] = []
    for i in exact:
        zeros.append(float(t_f[i]))
        flags.append(SIGN_CHANGE)
    for i in brackets:
        lo, hi = float(t_f[i]), float(t_f[i + 1])
        flo = float(spline(lo))
        if flo == 0.0:
            zeros.append(lo)
            flags.append(SIGN_CHANGE)
            continue
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            fmid = float(spline(mid))
            if fmid == 0.0:
                lo = hi = mid
                break
            if (fmid > 0) == (flo > 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        zeros.append(0.5 * (lo + hi))
        flags.append(SIGN_CHANGE)
    # One report per run of tangential suspects, at its smallest |x|.
    for run in suspects:
        best = min(run, key=lambda i: abs(x_f[i]))
        zeros.append(float(t_f[best]))
        flags.append(SUSPECTED_TANGENTIAL)

    order = np.argsort(zeros)
    zs = [zeros[i] for i in order]
    fl = [flags[i] for i in order]
    keep_z, keep_f = [], []
    for z, f in zip(zs, fl):
        if keep_z and z - keep_z[-1] <= 10 * refine_tol:
            continue
        if z <= 0 or z > T_max:
            continue
        keep_z.append(z)
        keep_f.append(f)
    return NodalSet(keep_z, keep_f)


def nodal_set_exp_closed(
    lam: float, c: float, alpha: float, T_max: float
) -> NodalSet:
    """Closed-form nodal set for M(t) = c exp(alpha t), intersected with
    (0, T_max].

    With s = (lam + alpha)**2 - 4 c:

    * s > 0: at most the single point log((w_m - alpha)/(w_p - alpha))
      / (w_p - w_m), present when the log argument is positive;
    * s = 0 and lam <= -alpha: empty;
    * s = 0 and lam > -alpha: the single point 2 / (lam + alpha);
    * s < 0: the ladder (2 / sqrt(-s)) (arccot((lam + alpha) / sqrt(-s))
      + l pi), l = 0, 1, 2, ...
    """
    lam = float(lam)
    c = float(c)
    alpha = float(alpha)
    T_max = float(T_max)
    if c <= 0:
        raise ValidationError("closed-form nodal set requires c > 0")
    if T_max <= 0:
        raise ValidationError("T_max must be positive")
    s = (lam + alpha) ** 2 - 4.0 * c
    zeros: list[float] = []
    if abs(s) <= 1e-12:
        if lam > -alpha:
            zeros = [2.0 / (lam + alpha)]
    elif s > 0:
        root = math.sqrt(s)
        w_p = 0.5 * (-(lam - alpha) + root)
        w_m = 0.5 * (-(lam - alpha) - root)
        ratio = (w_m - alpha) / (w_p - alpha)
        if ratio > 0:
            zeros = [math.log(ratio) / (w_p - w_m)]
    else:
        rt = math.sqrt(-s)
        base = math.atan2(1.0, (lam + alpha) / rt)  # arccot with range (0, pi)
        l = 0
        while True:
            z = (2.0 / rt) * (base + l * math.pi)
            if z > T_max:
                break
            zeros.append(z)
            l += 1
    zeros = [z for z in zeros if 0.0 < z <= T_max]
    return NodalSet(zeros, [SIGN_CHANGE] * len(zeros))
