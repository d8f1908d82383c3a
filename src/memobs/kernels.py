"""Memory-kernel representations, cubic spline pieces, and the series kernel.

A kernel M weights the history integral int_0^t M(t-s) y(s) ds added to the
heat equation.  Supported variants: Zero, Constant(value), Linear (M(t) = t),
Exponential(c, alpha) with M(t) = c exp(alpha t) and c > 0, and Tabulated
data interpolated by a not-a-knot cubic spline (twice continuously
differentiable, as the well-posedness assumption on M requires).  The
spline's pieces come from ``_cubic_pieces``, one tridiagonal solve by
LAPACK's ``dgtsv``, which ``nodal_set_numeric`` also uses on windows of a
marched trajectory, each window its own spline in the one solve.  Neither
takes scipy's ``CubicSpline``, whose import loads several scipy packages
that memobs does not use.

The resolvent-type series kernel is

    K_M(t, s) = sum_{j>=1} (s**j / j!) (-M)^{*j}(t - s),

where (-M)^{*j} is the j-fold convolution power of -M.  Powers are computed
by trapezoidal product integration on a uniform grid, each sum as one FFT
product, and the series is truncated once the sup norm of the added term
drops below a tolerance.
Each term is a function of t - s times the weight s**j / j!, so
``kernel_series_K`` returns one row per term, the power (-M)^{*j} at the
grid nodes, and never the (t, s) triangle of K_M; the weights are applied
where the series is used.  A series that does not converge raises.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

# scipy's submodules are imported where they are called (see modal.py).

from .errors import (
    NumericalError,
    SeriesDivergenceError,
    ValidationError,
    integer,
    items,
    obj,
    real,
    reals,
)

MAX_SERIES_TERMS = 64


def _points(t) -> np.ndarray:
    """Evaluation points as a float array; a NaN or infinite point is
    rejected, as ``real`` rejects a non-finite number."""
    tv = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(tv)):
        raise ValidationError("kernel evaluation points must be finite")
    return tv


class MemoryKernel:
    """Base class for memory kernels; subclasses are immutable."""

    t_max = math.inf

    def __call__(self, t):
        raise NotImplementedError

    def spec_dict(self) -> dict:
        raise NotImplementedError

    def exp_form(self) -> tuple[float, float] | None:
        """(c, alpha) when M(t) = c exp(alpha t) exactly, else None."""
        return None

    def cache_key(self) -> str:
        # Kernels are immutable, so the hash of the spec is computed once.
        key = self.__dict__.get("_cache_key")
        if key is None:
            blob = json.dumps(self.spec_dict(), sort_keys=True, separators=(",", ":"))
            key = self._cache_key = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return key

    def __eq__(self, other) -> bool:
        return isinstance(other, MemoryKernel) and self.spec_dict() == other.spec_dict()

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec_dict()})"


class ZeroKernel(MemoryKernel):
    def __call__(self, t):
        tv = _points(t)
        out = np.zeros_like(tv)
        return float(out) if np.isscalar(t) else out

    def spec_dict(self) -> dict:
        return {"kind": "zero"}

    def exp_form(self) -> tuple[float, float]:
        return 0.0, 0.0


class ConstantKernel(MemoryKernel):
    def __init__(self, value: float):
        self.value = real(value, "value")

    def __call__(self, t):
        tv = _points(t)
        out = np.full_like(tv, self.value)
        return float(out) if np.isscalar(t) else out

    def spec_dict(self) -> dict:
        return {"kind": "constant", "value": self.value}

    def exp_form(self) -> tuple[float, float]:
        return self.value, 0.0


class LinearKernel(MemoryKernel):
    """M(t) = t."""

    def __call__(self, t):
        tv = _points(t)
        return float(tv) if np.isscalar(t) else tv.copy()

    def spec_dict(self) -> dict:
        return {"kind": "linear"}


class ExponentialKernel(MemoryKernel):
    """M(t) = c exp(alpha t) with c > 0."""

    def __init__(self, c: float, alpha: float):
        self.c = real(c, "c", positive=True)
        self.alpha = real(alpha, "alpha")

    def __call__(self, t):
        tv = _points(t)
        out = self.c * np.exp(self.alpha * tv)
        return float(out) if np.isscalar(t) else out

    def spec_dict(self) -> dict:
        return {"kind": "exponential", "c": self.c, "alpha": self.alpha}

    def exp_form(self) -> tuple[float, float]:
        return self.c, self.alpha


def _cubic_pieces(x: np.ndarray, y: np.ndarray, starts=(0,)) -> np.ndarray:
    """Coefficients of the not-a-knot cubic spline through (x, y), at least
    4 points: column i holds piece i, sum_m c[m, i] s**(3 - m) in
    s = t - x[i] on [x[i], x[i + 1]], highest power first.

    ``starts`` cuts the knots into segments laid end to end, segment k
    beginning at index starts[k] (starts[0] = 0, each at least 4 knots,
    x strictly increasing throughout), and each segment takes its own
    spline: the columns are the pieces of each segment in turn, m - 1 for
    a segment of m knots, and none spans two segments.

    The knot slopes of all segments solve one tridiagonal system by
    LAPACK's ``dgtsv``, the routine ``solve_banded((1, 1), ...)`` runs, in
    which the segments are independent blocks.  One segment has the
    equations, the operation order and so the floats of scipy's default
    ``CubicSpline``, which the tests check bit for bit.
    """
    from scipy.linalg.lapack import dgtsv

    first = np.asarray(starts)
    last = np.concatenate((first[1:], [x.size])) - 1
    dx = x[1:] - x[:-1]
    slope = (y[1:] - y[:-1]) / dx
    # Sub-, main and superdiagonal.  A segment's ends take the not-a-knot
    # rows, which also cut its coupling to its neighbours.
    lower = np.empty(dx.size)
    diag = np.empty(x.size)
    upper = np.empty(dx.size)
    b = np.empty(x.size)
    lower[:-1] = dx[1:]
    upper[1:] = dx[:-1]
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[first + 2] - x[first]
    upper[first] = d
    diag[first] = dx[first + 1]
    b[first] = (
        (dx[first] + 2 * d) * dx[first + 1] * slope[first]
        + dx[first] ** 2 * slope[first + 1]
    ) / d
    d = x[last] - x[last - 2]
    lower[last - 1] = d
    diag[last] = dx[last - 2]
    b[last] = (
        dx[last - 1] ** 2 * slope[last - 2]
        + (2 * d + dx[last - 1]) * dx[last - 2] * slope[last - 1]
    ) / d
    lower[first[1:] - 1] = 0.0
    upper[last[:-1]] = 0.0
    s, info = dgtsv(
        lower, diag, upper, b,
        overwrite_dl=True, overwrite_d=True, overwrite_du=True, overwrite_b=True,
    )[3:]
    if info != 0:
        raise NumericalError(f"spline slope solve failed (LAPACK info {info})")
    left, right = s[:-1], s[1:]
    t = (left + right - 2 * slope) / dx
    c = np.empty((4, dx.size))
    c[0] = t / dx
    c[1] = (slope - left) / dx - t
    c[2] = left
    c[3] = y[:-1]
    if first.size == 1:
        return c
    # Drop the intervals from one segment's last knot to the next one's first.
    keep = np.ones(dx.size, dtype=bool)
    keep[last[:-1]] = False
    return c[:, keep]


def _pieces_at(x: np.ndarray, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The spline of ``_cubic_pieces(x, y)`` at points ``t`` in [x[0], x[-1]].

    A point on a knot takes the piece to its right, and x[-1] the last
    piece: the piece index is the number of interior knots at or below the
    point.  The sum runs in the order of scipy's ``PPoly``, lowest power
    first with s**3 as (s s) s, so the values are its floats too.
    """
    i = np.searchsorted(x[1:-1], t, side="right")
    s = t - x[i]
    s2 = s * s
    c0, c1, c2, c3 = np.take(c, i, axis=1)
    return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)


class TabulatedKernel(MemoryKernel):
    """Sampled kernel values joined by a not-a-knot cubic spline."""

    def __init__(self, times, values):
        if np.ndim(times) != 1 or np.shape(times) != np.shape(values):
            raise ValidationError("times and values must be 1-D arrays of equal length")
        times = reals(times, "times", nonneg=True)
        values = reals(values, "values")
        if times.size < 4:
            raise ValidationError("tabulated kernel needs at least 4 samples")
        if times[0] != 0.0:
            raise ValidationError("tabulated grid must start at t = 0")
        if not np.all(np.diff(times) > 0):
            raise ValidationError("tabulated grid must be strictly increasing")
        # Read-only copies: a caller's array changed later must not move
        # the spec, the cache key or equality away from the pieces.
        self.times = times.copy()
        self.values = values.copy()
        self.times.flags.writeable = False
        self.values.flags.writeable = False
        self.t_max = float(times[-1])
        self._pieces = _cubic_pieces(times, values)

    def __call__(self, t):
        tv = _points(t)
        if not np.all((tv >= -1e-12) & (tv <= self.t_max * (1 + 1e-12) + 1e-12)):
            raise ValidationError(
                f"evaluation outside the tabulated range [0, {self.t_max}]"
            )
        out = _pieces_at(self.times, self._pieces, np.clip(tv, 0.0, self.t_max))
        return float(out) if np.isscalar(t) else out

    def spec_dict(self) -> dict:
        return {
            "kind": "tabulated",
            "times": [float(x) for x in self.times],
            "values": [float(x) for x in self.values],
        }


# kind: (fields besides "kind", builder from the spec)
_KINDS = {
    "zero": ((), lambda d: ZeroKernel()),
    "constant": (("value",), lambda d: ConstantKernel(d["value"])),
    "linear": ((), lambda d: LinearKernel()),
    "exponential": (("c", "alpha"), lambda d: ExponentialKernel(d["c"], d["alpha"])),
    "tabulated": (
        ("times", "values"),
        lambda d: TabulatedKernel(
            items(d["times"], "times", real), items(d["values"], "values", real)
        ),
    ),
}
_SPEC_FIELDS = {name for fields, _ in _KINDS.values() for name in fields}


def kernel_from_spec(spec: dict) -> MemoryKernel:
    """Build a kernel from its JSON specification, e.g. {"kind": "linear"}."""
    kind = obj(spec, "kernel spec", {"kind"}, _SPEC_FIELDS)["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValidationError(f"unknown kernel kind {kind!r}")
    fields, build = _KINDS[kind]
    return build(obj(spec, "kernel spec", {"kind", *fields}))


@dataclass(frozen=True)
class UniformGrid:
    """Uniform time grid 0 = t_0 < ... < t_n = T."""

    n_steps: int
    T: float

    def __post_init__(self):
        object.__setattr__(self, "n_steps", integer(self.n_steps, "n_steps", lo=1))
        object.__setattr__(self, "T", real(self.T, "T", positive=True))

    @property
    def h(self) -> float:
        return self.T / self.n_steps

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)


def _powers(f: np.ndarray, h: float):
    """f, f*f, f*f*f, ... under the trapezoidal product integral
    (f*g)(tau_i) = h (sum_r f_{i-r} g_r - (f_i g_0 + f_0 g_i)/2), which is
    second-order accurate.  Each sum over r is one FFT product of length
    next_fast_len(2 n1 - 1), zero-padded so that it does not wrap; the
    spectrum of f is taken once."""
    from scipy.fft import irfft, next_fast_len, rfft

    n1 = f.shape[0]
    size = next_fast_len(2 * n1 - 1, True)
    f_hat = rfft(f, size)
    g = f.copy()
    while True:
        yield g
        full = irfft(f_hat * rfft(g, size), size)[:n1]
        g = h * (full - 0.5 * (f * g[0] + f[0] * g))


def kernel_series_K(
    M: MemoryKernel,
    grid: UniformGrid,
    tol: float = 1e-12,
) -> np.ndarray:
    """The terms of K_M(t, s) on the grid, one (terms, n + 1) array: row
    m - 1 holds (-M)^{*m} at the nodes, so
    K_M(t_i, s_j) = sum_m s_j**m / m! terms[m-1, i-j] for i >= j.

    Terms are added until a rigorous bound on the last term's sup norm,
    max_j |s_j**m / m!| * max_i |(-M)^{*m}(tau_i)|, falls below ``tol``.  If
    ``MAX_SERIES_TERMS`` terms do not reach the tolerance,
    ``SeriesDivergenceError`` is raised; the series is entire in s for
    smooth kernels, so non-convergence signals an overly coarse grid or an
    extreme kernel.
    """
    tol = real(tol, "tol", positive=True)
    powers = _powers(-M(grid.nodes()), grid.h)
    rows = [next(powers)]
    s_max = grid.T  # max_j s_j**m / m! at m = len(rows)
    while True:
        bound = s_max * float(np.max(np.abs(rows[-1])))
        if bound <= tol:
            return np.array(rows)
        if len(rows) == MAX_SERIES_TERMS:
            raise SeriesDivergenceError(
                f"kernel series did not converge within {len(rows)} terms"
            )
        rows.append(next(powers))
        s_max = s_max * grid.T / len(rows)
