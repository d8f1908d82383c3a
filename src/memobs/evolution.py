"""Propagation of spectral fields and the kernel-decomposition residual.

For initial coefficients a_k the solution of the memory equation at time t
has coefficients a_k x_k(t), where x_k solves the modal Volterra problem with
lam = lambda_k.  For fixed t > 0 the solution map behaves like
-M(t) A^{-2} plus a remainder one power of lambda smaller, so
lambda_k^2 x_k(t) + M(t) should decay like 1/lambda_k; the residual table
measures exactly that.

Modal endpoint values are expensive at large lambda, so they are cached,
keyed by kernel, lam and time.  ``ModalCache.table`` fills and reads the
whole table x_k(t_j) of a plan in one call.  For a kernel c exp(alpha t)
(exponential, constant and zero kernels) the entries it misses, over every
instant, come from one array evaluation of the closed form, and no march
runs.  For every other kernel an entry comes from a Richardson pair (n and
2n steps), which cancels the leading h^2 error of the product-trapezoidal
march; the step policy belongs to the cache and is fixed when it is built.
The instants a mode lacks are marched in runs: one march to the run's
largest instant, on a grid with every member on a node and fine enough
for each member's own step policy, serves them all, and the modes whose
runs share the final time and the step count are marched as one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer, real, reals
from .kernels import MemoryKernel
from .modal import (
    _closed_form,
    _common_grid,
    _exp_first_zero,
    _n_steps,
    solve_modal_richardson,
)
from .spectral import SpectralBasis, SpectralField

DEFAULT_HLAM_MAX = 0.25
DEFAULT_N_MIN = 1024


class ModalCache:
    """Cache of modal endpoint values keyed by kernel, lam and time.

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

    For each kernel and time t > 0 the cache holds three arrays: the lams,
    sorted, and their x(t) and sups.  ``table`` is its one fill path;
    ``entries``, ``values`` and ``value_and_sup`` read one row of it.
    """

    def __init__(self, hlam_max: float = DEFAULT_HLAM_MAX):
        self.hlam_max = real(hlam_max, "hlam_max", positive=True)
        if self.hlam_max > 2:
            raise ValidationError("hlam_max must lie in (0, 2]")
        # (kernel key, t) -> (sorted lams, x(t), sup |x| on [0, t])
        self._data: dict[tuple[str, float], tuple[np.ndarray, ...]] = {}

    def __len__(self) -> int:
        """The number of stored (lam, t) pairs."""
        return sum(lams.size for lams, _, _ in self._data.values())

    def value_and_sup(
        self, M: MemoryKernel, lam: float, t: float
    ) -> tuple[float, float]:
        return self.entries(M, [lam], t)[0]

    def values(self, M: MemoryKernel, lams, t: float) -> np.ndarray:
        """Modal values x(t) for each lam in ``lams``, in order."""
        return self.table(M, lams, [t])[0][0]

    def entries(self, M: MemoryKernel, lams, t: float) -> list[tuple[float, float]]:
        """(x(t), sup |x| on [0, t]) for each lam in ``lams``, in order."""
        values, sups = self.table(M, lams, [t])
        return list(zip(values[0].tolist(), sups[0].tolist()))

    def table(self, M: MemoryKernel, lams, times) -> tuple[np.ndarray, np.ndarray]:
        """x(t) and sup |x| on [0, t] for every t in ``times`` (rows) and
        lam in ``lams`` (columns), as two arrays; t = 0 reads (1, 1).

        The pairs not yet cached, over all instants, come from one
        evaluation of the closed form, each entry bit-identical to one of
        its own, or else are marched: one batched Richardson march per final
        time and step count of the runs (``_march``).  An instant that marches
        alone, as every instant of a one-instant call does, equals the march
        at its own step count bit for bit.
        """
        lams = reals(lams, "lam", positive=True)
        times = [real(t, "t", nonneg=True) for t in times]
        kernel = M.cache_key()
        wanted = np.unique(lams)
        misses = {}
        for t in dict.fromkeys(times):
            if t == 0.0 or not wanted.size:
                continue
            stored = self._data.get((kernel, t))
            if stored is None:
                misses[t] = wanted
            else:
                known = stored[0]
                pos = np.minimum(np.searchsorted(known, wanted), known.size - 1)
                missing = wanted[known[pos] != wanted]
                if missing.size:
                    misses[t] = missing
        if misses:
            self._fill(M, kernel, misses)
        values = np.ones((len(times), lams.size))
        sups = np.ones((len(times), lams.size))
        for row, t in enumerate(times):
            if t != 0.0 and lams.size:
                known, x, sup = self._data[(kernel, t)]
                pos = np.searchsorted(known, lams)
                values[row] = x[pos]
                sups[row] = sup[pos]
        return values, sups

    def _fill(self, M: MemoryKernel, kernel: str, misses: dict) -> None:
        """Compute and store the entries of ``misses``, which maps each time
        to the sorted lams it lacks."""
        form = M.exp_form()
        if form is not None:
            groups = list(misses.values())
            sizes = [group.size for group in groups]
            values, sups = _closed_form_entries(
                np.concatenate(groups), *form, np.repeat(list(misses), sizes)
            )
            ends = np.cumsum(sizes).tolist()
            filled = [
                (item, values[end - size : end], sups[end - size : end])
                for item, size, end in zip(misses.items(), sizes, ends)
            ]
        else:
            filled = self._march(M, misses)
        for (t, group), values, sups in filled:
            stored = self._data.get((kernel, t))
            if stored is not None:
                group, values, sups = (
                    np.concatenate(pair) for pair in zip(stored, (group, values, sups))
                )
                order = np.argsort(group)
                group, values, sups = group[order], values[order], sups[order]
            self._data[(kernel, t)] = (group, values, sups)

    def _march(self, M: MemoryKernel, misses: dict) -> list:
        """x(t) and sup |x| on [0, t] for the entries of ``misses``, which
        maps each time to the sorted lams it lacks: ((t, lams), x, sups)
        per time, x and sups as arrays in the order of lams.

        Each lam's instants are split into runs (``_runs``), and the runs of
        every lam that share a final time T and a step count n are one
        batched Richardson march.  A member t reads x at its node n t / T
        and the running max of |x| up to that node.

        A lam's runs depend on the lam only through the step counts of its
        instants, so the lams that lack the same instants at the same step
        counts are split once, and each member is read for all of them by
        one indexing of the march."""
        lacking: dict[float, list[float]] = {}
        for t in sorted(misses, reverse=True):
            for lam in misses[t].tolist():
                lacking.setdefault(lam, []).append(t)
        alike: dict[tuple, list[float]] = {}
        for lam, times in lacking.items():
            steps = [_n_steps(t, lam, DEFAULT_N_MIN, self.hlam_max) for t in times]
            alike.setdefault((tuple(times), tuple(steps)), []).append(lam)
        batches: dict[tuple[float, int], list[tuple[list[float], list[float]]]] = {}
        for (times, _), lams in alike.items():
            for T, n, members in _runs(lams[0], list(times), self.hlam_max):
                batches.setdefault((T, n), []).append((lams, members))
        out = {t: (np.empty(group.size), np.empty(group.size)) for t, group in misses.items()}
        for (T, n), groups in batches.items():
            batch = np.concatenate([lams for lams, _ in groups])
            _, x = solve_modal_richardson(batch, M, T, n)
            peaks = np.maximum.accumulate(np.abs(x), axis=1)
            start = 0
            for lams, members in groups:
                rows = slice(start, start + len(lams))
                start += len(lams)
                for t in members:
                    node = round(n * t / T)
                    at = np.searchsorted(misses[t], lams)
                    out[t][0][at] = x[rows, node]
                    out[t][1][at] = peaks[rows, node]
        return [((t, group), *out[t]) for t, group in misses.items()]


def _runs(lam: float, times: list[float], hlam_max: float):
    """Split ``times``, in descending order, into runs for one lam; each run
    is (T, n, members), one march of n steps to its largest member T with
    every member on a node.

    An instant joins the open run when t / T is p / q on the rational grid
    of ``_common_grid`` and the run's step count grows by at most n_t, the
    steps t takes alone; otherwise it opens a run.  n is the smallest
    multiple of the run's common denominator that is at least
    ceil(n_t q / p) for every member, so no member is marched on a coarser
    step than its own policy gives.  A run of one instant is the march of
    that instant alone."""
    runs: list[tuple[float, int, int, list[float]]] = []
    for t in times:
        n_t = _n_steps(t, lam, DEFAULT_N_MIN, hlam_max)
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
    form.  ``t`` holds one time per lam (per row), so one call covers the
    misses of every instant.  The input is already checked, so it goes
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
    hlam_max: float = 0.125,
) -> ResidualTable:
    """Table of lambda_k^2 x_k(t) + M(t) and the log-log decay slope.

    The slope certifies the 1/lambda remainder when it is at most -0.8;
    sup_k lambda_k^2 |x_k(t)| is reported as the numeric smoothing bound.
    Residual magnitudes can sit many orders below lambda_k^2 x_k.  For a
    kernel c exp(alpha t) the modal values come from the closed form, which
    is accurate relative to |x_k|; every other kernel is marched in a cache
    of its own with a tighter step policy (hlam_max) than the default one.
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
    xs = ModalCache(hlam_max=hlam_max).values(M, lams, t)
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
