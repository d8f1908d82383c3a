"""Propagation of spectral fields and the kernel-decomposition residual.

For initial coefficients a_k the solution of the memory equation at time t
has coefficients a_k x_k(t), where x_k solves the modal Volterra problem with
lam = lambda_k.  For fixed t > 0 the solution map behaves like
-M(t) A^{-2} plus a remainder one power of lambda smaller, so
lambda_k^2 x_k(t) + M(t) should decay like 1/lambda_k; the residual table
measures exactly that.

Modal endpoint values are expensive at large lambda, so they are cached,
one whole table x_k(t_j) per kernel, instants and lams.
``ModalCache.table`` computes such a table on a miss and reads it.  For a
kernel c exp(alpha t) (exponential, constant and zero kernels) the table
comes from one array evaluation of the closed form, and no march runs.
For every other kernel an entry comes from a Richardson pair (n and 2n
steps), which cancels the leading h^2 error of the product-trapezoidal
march; the step policy (``modal.DEFAULT_N_MIN`` and the cache's
hlam_max) is fixed when the cache is built.
The instants are marched in runs: one march to the run's largest instant,
on a grid with every member on a node and fine enough for each member's
own step policy, serves them all, and the modes whose runs share the
final time and the step count are marched as one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer, real, reals
from .kernels import MemoryKernel
from .modal import (
    DEFAULT_HLAM_MAX,
    DEFAULT_N_MIN,
    _closed_form,
    _common_grid,
    _exp_first_zero,
    _n_steps,
    solve_modal_richardson,
)
from .spectral import SpectralBasis, SpectralField


class ModalCache:
    """Cache of modal endpoint values, one whole table per kernel, instants
    and lams.

    Every value is a pair (x(t), sup |x| on [0, t]).  For a kernel with
    ``exp_form()`` (c, alpha) both come from the closed form: x(t) is
    ``closed_form_exp``, bit for bit, and the sup is the largest |x| at 0,
    at t and at the one zero of x' in (0, t] where |x| peaks.  Every other
    kernel takes Richardson-extrapolated solves, with a step policy fixed
    when the cache is built: an instant t on its own takes
    n_t = max(DEFAULT_N_MIN, ceil(t lam / hlam_max)) steps, and instants
    marched in one run (``_runs``) take a step no coarser than that.  x(t)
    is the march's value at t's node and the sup the largest |x| at the
    nodes up to it.

    A table is keyed by the kernel, its distinct nonzero instants in
    descending order and its distinct lams, sorted, and holds x and the sups
    as two arrays, one row per instant and one column per lam.  A table is
    computed whole on a miss, so its values do not depend on what the cache
    held before.  ``table`` is the one fill path; ``values`` and
    ``value_and_sup`` read one row of a table of their own.
    """

    def __init__(self, hlam_max: float = DEFAULT_HLAM_MAX):
        self.hlam_max = real(hlam_max, "hlam_max", positive=True)
        if self.hlam_max > 2:
            raise ValidationError("hlam_max must lie in (0, 2]")
        # (kernel key, instants, bytes of the sorted lams) -> (x, sups)
        self._data: dict[tuple[str, tuple, bytes], tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        """The number of stored values, over all tables."""
        return sum(x.size for x, _ in self._data.values())

    def value_and_sup(
        self, M: MemoryKernel, lam: float, t: float
    ) -> tuple[float, float]:
        values, sups = self.table(M, [lam], [t])
        return float(values[0, 0]), float(sups[0, 0])

    def values(self, M: MemoryKernel, lams, t: float) -> np.ndarray:
        """Modal values x(t) for each lam in ``lams``, in order."""
        return self.table(M, lams, [t])[0][0]

    def table(self, M: MemoryKernel, lams, times) -> tuple[np.ndarray, np.ndarray]:
        """x(t) and sup |x| on [0, t] for every t in ``times`` (rows) and
        lam in ``lams`` (columns), as two arrays; t = 0 reads (1, 1).

        The table of the distinct nonzero instants and distinct lams is
        computed on a miss (``_fill``) and then read: a row per t, a column
        per lam.  An instant that marches alone, as every instant of a
        one-instant call does, equals the march at its own step count bit
        for bit.
        """
        lams = reals(lams, "lam", positive=True)
        times = [real(t, "t", nonneg=True) for t in times]
        values = np.ones((len(times), lams.size))
        sups = np.ones((len(times), lams.size))
        instants = sorted({t for t in times if t != 0.0}, reverse=True)
        if not instants or not lams.size:
            return values, sups
        wanted = np.unique(lams)
        key = (M.cache_key(), tuple(instants), wanted.tobytes())
        if key not in self._data:
            self._data[key] = self._fill(M, instants, wanted)
        x, sup = self._data[key]
        row = {t: i for i, t in enumerate(instants)}
        nonzero = [i for i, t in enumerate(times) if t != 0.0]
        at = np.ix_([row[times[i]] for i in nonzero], np.searchsorted(wanted, lams))
        values[nonzero] = x[at]
        sups[nonzero] = sup[at]
        return values, sups

    def _fill(self, M: MemoryKernel, instants: list, lams: np.ndarray) -> tuple:
        """x and sup |x| for every instant (rows, descending) and lam
        (columns, sorted and distinct): one array evaluation of the closed
        form, each entry bit-identical to one of its own, or else marched
        (``_march``)."""
        form = M.exp_form()
        if form is None:
            return self._march(M, instants, lams)
        shape = (len(instants), lams.size)
        values, sups = _closed_form_entries(
            np.tile(lams, len(instants)), *form, np.repeat(instants, lams.size)
        )
        return values.reshape(shape), sups.reshape(shape)

    def _march(self, M: MemoryKernel, instants: list, lams: np.ndarray) -> tuple:
        """``_fill`` for a kernel without a closed form.

        The instants are split into runs (``_runs``) per lam, and the runs of
        every lam that share a final time T and a step count n are one
        batched Richardson march.  A member t reads x at its node n t / T
        and the running max of |x| up to that node.

        A lam's runs depend on the lam only through the step counts of the
        instants, so the lams with the same step counts are split once, and
        each member is read for all of them by one indexing of the march."""
        alike: dict[tuple[int, ...], list[int]] = {}
        for col, lam in enumerate(lams.tolist()):
            steps = (_n_steps(t, lam, DEFAULT_N_MIN, self.hlam_max) for t in instants)
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


def propagate(
    y0: SpectralField,
    M: MemoryKernel,
    t: float,
    cache: ModalCache | None = None,
) -> SpectralField:
    """Coefficient-wise evolution a_k -> a_k x_k(t); t = 0 returns y0's data."""
    t = real(t, "t", nonneg=True)
    if t == 0.0:
        return SpectralField(y0.basis, y0.coefficients)
    if cache is None:
        cache = ModalCache()
    xs = cache.values(M, y0.basis.eigenvalues, t)
    return SpectralField(y0.basis, y0.coefficients * xs)


@dataclass
class ResidualTable:
    """Residuals r_k = lambda_k^2 x_k(t) + M(t) with their fitted decay."""

    t: float
    ks: np.ndarray
    lams: np.ndarray
    x_values: np.ndarray
    residuals: np.ndarray
    slope: float
    sup_lambda2_x: float

    @property
    def rows(self):
        return list(
            zip(
                self.ks.tolist(),
                self.lams.tolist(),
                self.x_values.tolist(),
                self.residuals.tolist(),
            )
        )


def decomposition_residual(
    M: MemoryKernel,
    t: float,
    basis: SpectralBasis,
    ks=None,
) -> ResidualTable:
    """Table of lambda_k^2 x_k(t) + M(t) and the log-log decay slope.

    The slope certifies the 1/lambda remainder when it is at most -0.8;
    sup_k lambda_k^2 |x_k(t)| is reported as the numeric smoothing bound.
    Residual magnitudes can sit many orders below lambda_k^2 x_k.  The
    values come from a default ``ModalCache``: the closed form for
    c exp(alpha t), accurate relative to |x_k|, or marches whose residuals
    agree with a march at h lam <= 1/128 to about 1e-9 relative.
    """
    t = real(t, "t")
    if t <= 1e-9:
        raise ValidationError("t is below the resolvable step of the modal solve")
    if ks is None:
        ks = np.arange(1, basis.K + 1)
    else:
        ks = np.asarray([integer(k, f"ks[{i}]") for i, k in enumerate(ks)], int)
    bad = [int(k) for k in ks if not 1 <= k <= basis.K]
    if bad:
        raise ValidationError(f"ks must lie in 1..{basis.K}, got {bad}")
    if ks.size < 8:
        raise ValidationError("need at least 8 modes for a decay fit")
    lams = basis.eigenvalues[ks - 1]
    if lams.max() / lams.min() < 10.0:
        raise ValidationError("mode range must span at least a decade in lambda")
    xs = ModalCache().values(M, lams, t)
    Mt = float(M(t))
    residuals = lams**2 * xs + Mt
    nz = np.abs(residuals) > 0
    if np.count_nonzero(nz) >= 2:
        slope = float(
            np.polyfit(np.log(lams[nz]), np.log(np.abs(residuals[nz])), 1)[0]
        )
    else:
        slope = -math.inf
    return ResidualTable(
        t=t,
        ks=ks,
        lams=lams,
        x_values=xs,
        residuals=residuals,
        slope=slope,
        sup_lambda2_x=float(np.max(np.abs(lams**2 * xs))),
    )
