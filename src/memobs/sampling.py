"""Sampling plans, covering verdicts, observation Gram forms, and probes.

A sampling plan is a finite list of instants t_j with observation regions
omega_j.  Observing the evolved field on those regions defines the quadratic
form

    sum_j  || chi_{omega_j} y(t_j; y_0) ||_{L2}^2  =  a^T Q a,
    Q = sum_j D_j G_j D_j,

with D_j = diag(x_k(t_j)) and G_j the region overlap matrix.  The two-sided
sampling observability question asks how this compares against the H^{-4}
norm of the initial datum; on the truncated space the best constants are the
extreme eigenvalues of S = Lam^2 Q Lam^2, obtained by substituting
b = Lam^{-2} a.  Sum-of-norms variants are bracketed via
a_1 + ... + a_m <= sqrt(m (a_1^2 + ... + a_m^2)).

The probe operation builds initial data whose A^{-2} image is a normalized
shrinking ball indicator; its observation-to-norm ratio upper-bounds the
sum-of-norms constant and collapses when the ball sits in an uncovered part
of the domain.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, integer, items, obj, real
from .evolution import ModalCache
from .kernels import MemoryKernel
from .regions import ObservationRegion, UncoveredSet, complement
from .spectral import SpectralBasis, overlap_matrix

KERNEL_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class PlanEntry:
    t: float
    region: ObservationRegion


class SamplingPlan:
    """Instants t_j > 0 paired with nonempty observation regions."""

    def __init__(self, entries):
        items = []
        for j, entry in enumerate(entries):
            if isinstance(entry, PlanEntry):
                t, region = entry.t, entry.region
            else:
                t, region = entry
            t = real(t, f"instants[{j}].t", positive=True)
            if not isinstance(region, ObservationRegion):
                region = ObservationRegion(region)
            if region.is_empty:
                raise ValidationError(f"instants[{j}]: observation region is empty")
            items.append(PlanEntry(t, region))
        if not items:
            raise ValidationError("a sampling plan needs at least one instant")
        self.entries: tuple[PlanEntry, ...] = tuple(items)

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def times(self) -> list[float]:
        return [e.t for e in self.entries]

    @property
    def regions(self) -> list[ObservationRegion]:
        return [e.region for e in self.entries]

    def to_json(self) -> dict:
        return {
            "instants": [
                {"t": e.t, "region": e.region.to_json()} for e in self.entries
            ]
        }

    @classmethod
    def from_json(cls, data, L: float | None = None) -> "SamplingPlan":
        obj(data, "plan", {"instants"})
        if not isinstance(data["instants"], list):
            raise ValidationError("instants must be a list")
        entries = []
        for i, item in enumerate(data["instants"]):
            obj(item, f"instants[{i}]", {"t", "region"})
            try:
                region = ObservationRegion.from_json(item["region"], L=L)
            except ValidationError as exc:
                raise ValidationError(f"instants[{i}]: {exc}") from exc
            entries.append((item["t"], region))
        return cls(entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, SamplingPlan) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SamplingPlan(m={self.m}, times={self.times})"


def check_kernel_nonvanishing(plan: SamplingPlan, M: MemoryKernel):
    """Indices J = {j : |M(t_j)| > 1e-12} and whether J is nonempty."""
    J = [
        j
        for j, e in enumerate(plan.entries)
        if abs(float(M(e.t))) > KERNEL_ZERO_TOL
    ]
    return bool(J), J


@dataclass(frozen=True)
class GeometricVerdict:
    """Covering verdict: Strong, Weak, or Fail with the uncovered pieces."""

    kind: str
    uncovered: UncoveredSet

    @property
    def uncovered_intervals(self):
        return self.uncovered.intervals

    @property
    def uncovered_points(self):
        return self.uncovered.points


def check_geometric_condition(
    plan: SamplingPlan, M: MemoryKernel, L: float
) -> GeometricVerdict:
    """Classify the union of regions attached to instants where M(t_j) != 0.

    Strong: the union covers all of [0, L].  Weak: the complement is a finite
    set of points.  Fail: the complement contains intervals of positive
    length, which are reported.
    """
    _, J = check_kernel_nonvanishing(plan, M)
    union = ObservationRegion([])
    for j in J:
        union = union.union(plan.entries[j].region)
    unc = complement(union, L)
    if unc.is_empty:
        kind = "Strong"
    elif not unc.has_measure:
        kind = "Weak"
    else:
        kind = "Fail"
    return GeometricVerdict(kind, unc)


def _plan_modes(
    plan: SamplingPlan,
    M: MemoryKernel,
    basis: SpectralBasis,
    K: int,
    cache: ModalCache | None,
    extra_times=(),
) -> tuple[np.ndarray, list[np.ndarray]]:
    """X[j, k] = x_k(t_j) and the overlaps G_j of the plan regions, both on
    the first K modes of the basis.  Rows of X past the plan's hold the
    ``extra_times``, read in the same ``table`` call as the instants."""
    if cache is None:
        cache = ModalCache()
    lams = basis.eigenvalues[:K]
    X = cache.table(M, lams, [*plan.times, *extra_times])[0]
    Gs = [overlap_matrix(basis, e.region)[:K, :K] for e in plan.entries]
    return X, Gs


def _plan_gram(U: np.ndarray, Gs: list[np.ndarray]) -> np.ndarray:
    """Symmetrized sum_j diag(U[j]) G_j diag(U[j])."""
    Q = np.zeros_like(Gs[0])
    for u, G in zip(U, Gs):
        Q += u[:, None] * G * u[None, :]
    return 0.5 * (Q + Q.T)


def observation_gram(
    plan: SamplingPlan,
    M: MemoryKernel,
    basis: SpectralBasis,
    K: int | None = None,
    cache: ModalCache | None = None,
) -> np.ndarray:
    """Q = sum_j D_j G_j D_j on the first K modes of the basis."""
    X, Gs = _plan_modes(plan, M, basis, _resolve_K(basis, K), cache)
    return _plan_gram(X, Gs)


def _resolve_K(basis: SpectralBasis, K: int | None) -> int:
    if K is None:
        return basis.K
    if integer(K, "K", lo=1) > basis.K:
        raise ValidationError(f"K must lie in 1..{basis.K}")
    return int(K)


@dataclass
class ObservabilityConstants:
    """Extremal constants of the truncated observation form.

    mu_min is a guaranteed lower estimate of the smallest eigenvalue and
    mu_min_upper the matching Rayleigh bound from the smallest diagonal
    entry; c_min = sqrt(mu_min) never overstates observability.
    """

    K: int
    c_min: float
    c_max: float
    lower_bracket: float
    upper_bracket: float
    mu_min: float
    mu_min_upper: float
    mu_max: float
    clamped: bool
    warnings: tuple[str, ...]


def _constants_from_S(S: np.ndarray, m: int, K: int) -> ObservabilityConstants:
    """Extremal constants of a PSD form whose entries may be heavily graded.

    A plain symmetric eigensolve has absolute error eps * ||S||, which
    swamps a genuinely tiny smallest eigenvalue (modes decayed to near
    underflow).  Rescaling to unit diagonal first keeps relative accuracy:
    with d_k = sqrt(S_kk), G = D^-1 S D^-1, and nu = lambda_min(G),

        nu * min_k d_k^2  <=  lambda_min(S)  <=  min_k d_k^2,

    so nu * min d^2 is reported as mu_min.  A zero diagonal entry forces a
    zero row (PSD), hence mu_min = 0 exactly.
    """
    diag = np.diagonal(S).copy()
    notes: list[str] = []
    clamped = False
    try:
        mu = np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on the {K}x{K} form: {exc}") from exc
    mu_max = float(max(mu[-1], 0.0))
    diag_min = float(np.min(diag))
    if diag_min <= 0.0:
        dead = int(np.argmin(diag)) + 1
        notes.append(
            f"mode {dead} is unobserved at every instant (zero diagonal); "
            "the lower constant vanishes"
        )
        mu_min = 0.0
        mu_min_upper = max(diag_min, 0.0)
        clamped = diag_min < 0.0
    else:
        d = np.sqrt(diag)
        G = S / np.outer(d, d)
        np.fill_diagonal(G, 1.0)
        try:
            nu = float(np.linalg.eigvalsh(G)[0])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"eigensolver failed on the scaled {K}x{K} form: {exc}"
            ) from exc
        if nu < 0.0:
            notes.append(
                f"scaled form has min eigenvalue {nu:.3e}; "
                "clamped to 0, the form is numerically singular"
            )
            nu = 0.0
            clamped = True
        nu = min(nu, 1.0)
        mu_min = nu * diag_min
        mu_min_upper = diag_min
    c_min = math.sqrt(mu_min)
    c_max = math.sqrt(mu_max)
    return ObservabilityConstants(
        K=K,
        c_min=c_min,
        c_max=c_max,
        lower_bracket=c_min,
        upper_bracket=math.sqrt(m) * c_max,
        mu_min=mu_min,
        mu_min_upper=mu_min_upper,
        mu_max=mu_max,
        clamped=clamped,
        warnings=tuple(notes),
    )


def observability_constants(
    plan: SamplingPlan,
    M: MemoryKernel,
    basis: SpectralBasis,
    K: int | None = None,
    cache: ModalCache | None = None,
) -> ObservabilityConstants:
    """c_min and c_max with sum-of-norms brackets [c_min, sqrt(m) c_max].

    c_min(K)^2 and c_max(K)^2 are the extreme eigenvalues of
    S = Lam^2 Q Lam^2; the substitution b = Lam^{-2} a turns the constrained
    extremization of a^T Q a over unit H^{-4} spheres into this symmetric
    eigenproblem.
    """
    return _warned(_constants(plan, M, basis, [K], cache))[0]


def constants_table(
    plan: SamplingPlan,
    M: MemoryKernel,
    basis: SpectralBasis,
    K_list,
    cache: ModalCache | None = None,
) -> list[ObservabilityConstants]:
    """Constants for several truncation levels from one assembly at max K.

    Leading submatrices of S reuse identical modal values, so the K-trend is
    free of resolution differences.
    """
    return _warned(_constants(plan, M, basis, K_list, cache))


def _constants(plan, M, basis, K_list, cache) -> list[ObservabilityConstants]:
    Ks = sorted({_resolve_K(basis, K) for K in K_list})
    if not Ks or Ks[0] < 2:
        raise ValidationError("observability constants need K >= 2")
    X, Gs = _plan_modes(plan, M, basis, Ks[-1], cache)
    S = _plan_gram(basis.eigenvalues[: Ks[-1]] ** 2 * X, Gs)
    return [_constants_from_S(S[:K, :K], plan.m, K) for K in Ks]


def _warned(table: list[ObservabilityConstants]) -> list[ObservabilityConstants]:
    """``table``, after a RuntimeWarning for each entry with notes; called
    from a public entry, so the warning points at that entry's caller."""
    for c in table:
        if c.warnings:
            warnings.warn(c.warnings[-1], RuntimeWarning, stacklevel=3)
    return table


@dataclass
class ProbeResult:
    """Observation-to-norm ratios of shrinking ball probes at one point."""

    x0: float
    radii: tuple[float, ...]
    ratios: tuple[float, ...]

    @property
    def rows(self):
        return list(zip(self.radii, self.ratios))


def probe_coefficients(basis: SpectralBasis, x0: float, r: float) -> np.ndarray:
    """Coefficients a_k = lambda_k^2 <phi, e_k> of the probe whose A^{-2}
    image phi is the normalized indicator of B(x0, r) intersected with the
    domain.  The sine transform of an interval indicator is closed form."""
    L = basis.L
    x0 = real(x0, "x0")
    r = real(r, "r", positive=True)
    p = max(0.0, x0 - r)
    q = min(L, x0 + r)
    if q <= p:
        raise ValidationError(f"ball at {x0} with radius {r} misses (0, {L})")
    k = np.arange(1, basis.K + 1)
    integral = (
        math.sqrt(2.0 / L)
        * (L / (k * np.pi))
        * (np.cos(k * np.pi * p / L) - np.cos(k * np.pi * q / L))
    )
    b = integral / math.sqrt(q - p)
    return basis.eigenvalues**2 * b


def probe_upper_bound(
    plan: SamplingPlan,
    M: MemoryKernel,
    basis: SpectralBasis,
    x0: float,
    radii,
    cache: ModalCache | None = None,
) -> ProbeResult:
    """Ratios sum_j ||chi_{omega_j} y(t_j; probe)|| / ||probe||_{H^{-4}} for a
    decreasing list of ball radii.  Each ratio upper-bounds the sum-of-norms
    observability constant on the truncated space."""
    x0 = real(x0, "x0")
    radii = items(list(radii), "radii", real, positive=True)
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValidationError("radii must be strictly decreasing")
    lams = basis.eigenvalues
    X, Gs = _plan_modes(plan, M, basis, basis.K, cache)
    ratios = []
    for r in radii:
        a = probe_coefficients(basis, x0, r)
        denom = math.sqrt(float(np.sum(a * a / lams**4)))
        num = 0.0
        for j in range(plan.m):
            v = a * X[j]
            num += math.sqrt(max(float(v @ Gs[j] @ v), 0.0))
        ratios.append(num / denom)
    return ProbeResult(x0=x0, radii=tuple(radii), ratios=tuple(ratios))
