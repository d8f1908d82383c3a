"""Propagation of spectral fields and the kernel-decomposition residual.

For initial coefficients a_k the solution of the memory equation at time t
has coefficients a_k x_k(t), where x_k solves the modal Volterra problem with
lam = lambda_k.  For fixed t > 0 the solution map behaves like
-M(t) A^{-2} plus a remainder one power of lambda smaller, so
lambda_k^2 x_k(t) + M(t) should decay like 1/lambda_k; the residual table
measures exactly that.

Modal endpoint values are expensive at large lambda, so they are cached,
one whole table x_k(t_j) per kernel, instants and lams.  ``modal`` picks
every grid and computes the table (``modal.modal_table``): from the closed
form for a kernel c exp(alpha t), with no march, and otherwise from
Richardson pairs (n and 2n steps) of the product-trapezoidal march, with
instants that share a grid marched in one run.  ``ModalCache`` keys and
reads the tables: ``ModalCache.table`` fills a table on a miss, under the
cache's hlam_max, fixed when the cache is built, and reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer, real, reals
from .kernels import MemoryKernel
from .modal import DEFAULT_HLAM_MAX, modal_table
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
    marched in one run take a step no coarser than that.  x(t) is the
    march's value at t's node and the sup the largest |x| at the nodes up
    to it.  ``modal.modal_table`` picks those grids and computes the
    values.

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
        (columns, sorted and distinct), from ``modal.modal_table`` under
        the cache's hlam_max."""
        return modal_table(M, instants, lams, self.hlam_max)


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
