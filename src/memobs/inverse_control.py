"""Backward-uniqueness certificates, observation simulation, initial-data
recovery, and the dual impulse-control solve.

Everything here works on the truncated coefficient space.  Recovery relies
on the fact that a mode is only invisible to a sampling plan when its modal
solution vanishes at every instant; the certificate checks exactly that,
mode by mode, against a strictly positive threshold.  Reconstruction solves
a regularized least-squares fit of sampled field values, with the penalty
acting on the natural recovery norm (coefficients weighted by lambda^-2).
The impulse-control problem is the dual: impulses applied at times T - t_j
reach, at time T, exactly the range of the observation Gram, so the control
solve is a symmetric least-squares problem on that Gram, verified end to
end by re-simulating the controlled system with jump conditions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError, integer, items, obj, real
from .evolution import ModalCache
from .kernels import MemoryKernel
from .modal import CONTROLLED_N_MIN, DEFAULT_HLAM_MAX, _common_grid, _n_steps
from .modal import solve_modal_richardson
from .regions import Interval, ObservationRegion
from .sampling import SamplingPlan, _plan_gram, _plan_modes, _resolve_K
from .spectral import SpectralBasis, SpectralField

NOISE_GENERATOR = "numpy.random.Generator(PCG64).standard_normal"

# impulse_control keeps the Gram eigenvalues above this times the largest.
RANK_RTOL = 1e-10
# impulse_control calls the target reachable when the part of it outside the
# Gram's kept range is at most this times max(|target|, 1).
REACH_RTOL = 1e-8


# ---------------------------------------------------------------------------
# backward-uniqueness certificate


@dataclass(frozen=True)
class ModeWitness:
    """Outcome of the nonvanishing check for one mode.

    witness_index is the first instant index where |x_k| clears the
    threshold, or None when every instant fails; value is x_k at the
    witness, or the largest-magnitude sample when there is none.
    """

    k: int
    lam: float
    witness_index: int | None
    witness_time: float | None
    value: float
    sup: float
    threshold: float

    @property
    def certified(self) -> bool:
        return self.witness_index is not None


@dataclass
class Certificate:
    K: int
    times: tuple[float, ...]
    tol: float
    modes: tuple[ModeWitness, ...]

    @property
    def failing_modes(self) -> tuple[int, ...]:
        return tuple(w.k for w in self.modes if not w.certified)

    @property
    def certified(self) -> bool:
        return not self.failing_modes

    @property
    def verdict(self) -> str:
        if self.certified:
            return f"certified up to {self.K}"
        return f"failed at modes {list(self.failing_modes)}"

    def to_json(self) -> dict:
        return {
            "K": self.K,
            "times": list(self.times),
            "tol": self.tol,
            "verdict": self.verdict,
            "certified": self.certified,
            "failing_modes": list(self.failing_modes),
            "modes": [asdict(w) for w in self.modes],
        }


def backward_uniqueness_certificate(
    times,
    M: MemoryKernel,
    basis: SpectralBasis,
    K: int | None = None,
    tol: float = 1e-10,
    cache: ModalCache | None = None,
) -> Certificate:
    """Check that every mode k <= K is nonzero at some sampling instant.

    The threshold is tol relative to sup |x_k| over [0, max t_j]: the modal
    solutions themselves shrink like 1/lambda_k^2 at fixed t, so an absolute
    cutoff would spuriously fail every high mode.  A finite-K check only;
    it asserts nothing about the modes beyond K.
    """
    times = items(list(times), "times", real, positive=True)
    tol = real(tol, "tol", positive=True)
    K = _resolve_K(basis, K)
    if cache is None:
        cache = ModalCache()
    lams = basis.eigenvalues[:K]
    values, sups = cache.table(M, lams, times)
    sups = sups.max(axis=0)  # sup over [0, max t_j]

    witnesses = []
    for idx in range(K):
        thr = tol * sups[idx]
        col = values[:, idx]
        hit = next((j for j in range(len(times)) if abs(col[j]) > thr), None)
        j = int(np.argmax(np.abs(col))) if hit is None else hit
        witnesses.append(
            ModeWitness(
                k=idx + 1,
                lam=float(lams[idx]),
                witness_index=hit,
                witness_time=None if hit is None else times[hit],
                value=float(col[j]),
                sup=float(sups[idx]),
                threshold=thr,
            )
        )
    return Certificate(K=K, times=tuple(times), tol=tol, modes=tuple(witnesses))


# ---------------------------------------------------------------------------
# observation simulation


@dataclass
class ObservationBlock:
    t: float
    xs: np.ndarray
    values: np.ndarray
    weights: np.ndarray


@dataclass
class ObservationData:
    """Sampled field values on each plan region, with quadrature weights.

    Weights are not serialized; they are rebuilt from the point layout, so a
    round trip through JSON reproduces the reconstruction exactly.  ``sigma``
    and ``seed`` are checked when the record is built, whoever builds it.
    The noise always comes from NOISE_GENERATOR, which the JSON names.
    """

    plan: SamplingPlan
    sigma: float
    seed: int
    blocks: list[ObservationBlock]

    def __post_init__(self):
        self.sigma = real(self.sigma, "sigma", nonneg=True)
        self.seed = integer(self.seed, "seed", lo=0)

    def to_json(self) -> dict:
        return {
            "plan": self.plan.to_json(),
            "sigma": self.sigma,
            "seed": self.seed,
            "generator": NOISE_GENERATOR,
            "blocks": [
                {
                    "t": b.t,
                    "xs": b.xs.tolist(),
                    "values": b.values.tolist(),
                }
                for b in self.blocks
            ],
        }

    @classmethod
    def from_json(cls, data, L: float | None = None) -> "ObservationData":
        required = {"plan", "sigma", "seed", "blocks"}
        obj(data, "observation data", required, {"generator"})
        if data.get("generator", NOISE_GENERATOR) != NOISE_GENERATOR:
            raise ValidationError(f"generator must be {NOISE_GENERATOR!r}")
        try:
            plan = SamplingPlan.from_json(data["plan"], L=L)
        except ValidationError as exc:
            raise ValidationError(f"plan: {exc}") from exc
        if not isinstance(data["blocks"], list) or len(data["blocks"]) != plan.m:
            raise ValidationError("blocks must be a list with one block per instant")
        blocks = []
        for i, (entry, raw) in enumerate(zip(plan.entries, data["blocks"])):
            path = f"blocks[{i}]"
            obj(raw, path, {"t", "xs", "values"})
            if real(raw["t"], f"{path}.t") != entry.t:
                raise ValidationError(f"{path}.t is not the plan instant {entry.t}")
            xs = np.asarray(items(raw["xs"], f"{path}.xs", real))
            values = np.asarray(items(raw["values"], f"{path}.values", real))
            if xs.shape != values.shape:
                raise ValidationError(f"{path}: xs and values differ in length")
            blocks.append(
                ObservationBlock(
                    t=entry.t,
                    xs=xs,
                    values=values,
                    weights=_segment_weights(xs, entry.region),
                )
            )
        return cls(plan=plan, sigma=data["sigma"], seed=data["seed"], blocks=blocks)


def _segments(region: ObservationRegion) -> list[list[Interval]]:
    """The region's intervals in runs that touch end to end, at a point
    open on both sides.  A run is sampled and weighted as the closed
    segment it spans: openness changes no integral."""
    runs: list[list[Interval]] = []
    for iv in region.intervals:
        if runs and iv.a == runs[-1][-1].b:
            runs[-1].append(iv)
        else:
            runs.append([iv])
    return runs


def _segment_weights(xs: np.ndarray, region: ObservationRegion) -> np.ndarray:
    """Trapezoid weights for strictly increasing points, one rule over each
    segment of ``_segments``.  Each interval takes the points up to its end
    and needs one at least.  A segment's first and last points lie within
    one local spacing (plus 1e-12) of its ends, so that its rule spans it."""
    if np.any(np.diff(xs) <= 0):
        raise ValidationError("sample points must be strictly increasing")
    w = np.zeros_like(xs)
    pos = 0
    for run in _segments(region):
        ends = np.searchsorted(xs, [iv.b + 1e-12 for iv in run], side="right")
        empty = np.flatnonzero(np.diff(ends, prepend=pos) == 0)
        if empty.size:
            raise ValidationError(f"no sample points inside {run[empty[0]]}")
        a, b = run[0].a, run[-1].b
        if xs[pos] < a - 1e-12:
            raise ValidationError("sample points outside their interval")
        hi = int(ends[-1])
        if hi - pos == 1:
            w[pos] = b - a
        else:
            d = np.diff(xs[pos:hi])
            if xs[pos] - a > d[0] + 1e-12 or b - xs[hi - 1] > d[-1] + 1e-12:
                raise ValidationError(f"sample points do not span [{a}, {b}]")
            w[pos] = 0.5 * d[0]
            w[pos + 1 : hi - 1] = 0.5 * (d[:-1] + d[1:])
            w[hi - 1] = 0.5 * d[-1]
        pos = hi
    if pos != xs.size:
        raise ValidationError("sample points extend beyond the region")
    return w


def simulate_observations(
    y0: SpectralField,
    plan: SamplingPlan,
    M: MemoryKernel,
    samples_per_unit: int = 64,
    sigma: float = 0.0,
    seed: int = 0,
    cache: ModalCache | None = None,
) -> ObservationData:
    """Propagate y0 to each instant and sample it on uniform grids over the
    region's segments (see ``_segments``).  Gaussian noise (std sigma) is
    added from the seeded generator in block order; with sigma = 0 the
    generator is never drawn, so noiseless data is independent of the seed."""
    samples_per_unit = integer(samples_per_unit, "samples_per_unit", lo=16)
    data = ObservationData(plan=plan, sigma=sigma, seed=seed, blocks=[])
    if cache is None:
        cache = ModalCache()
    basis = y0.basis
    rng = np.random.default_rng(data.seed) if data.sigma > 0 else None
    X = cache.table(M, basis.eigenvalues, plan.times)[0]
    for entry, x in zip(plan.entries, X):
        coeffs = y0.coefficients * x
        xs_parts = []
        for run in _segments(entry.region):
            a, b = run[0].a, run[-1].b
            n_pts = max(2, int(math.ceil(samples_per_unit * (b - a))) + 1)
            xs_parts.append(np.linspace(a, b, n_pts))
        xs = np.concatenate(xs_parts)
        values = basis.modes_at(xs) @ coeffs
        if rng is not None:
            values = values + data.sigma * rng.standard_normal(values.size)
        data.blocks.append(
            ObservationBlock(
                t=entry.t,
                xs=xs,
                values=values,
                weights=_segment_weights(xs, entry.region),
            )
        )
    return data


# ---------------------------------------------------------------------------
# reconstruction


@dataclass
class ReconstructionResult:
    field: SpectralField
    reg: float
    condition: float
    residual: float
    data_norm: float

    @property
    def coefficients(self) -> np.ndarray:
        return self.field.coefficients


def reconstruct_initial(
    data: ObservationData,
    M: MemoryKernel,
    basis: SpectralBasis,
    K: int | None = None,
    reg: float = 0.0,
    cache: ModalCache | None = None,
) -> ReconstructionResult:
    """Least-squares recovery of the initial coefficients from sampled data.

    Minimizes, over coefficient vectors a,

        sum_j sum_i w_{j,i} (sum_k a_k x_k(t_j) e_k(x_i) - d_{j,i})^2
            + reg * sum_k a_k^2 / lambda_k^4,

    via dense normal equations in the variables b_k = a_k / lambda_k^2,
    which carry the penalty as plain reg * ||b||^2 and keep the system
    balanced (lambda_k^2 x_k is O(1) across modes).  The reported condition
    number is that of the solved, regularized system.

    The modal values are the first K columns of the cache's table of every
    mode of ``basis``, the table ``simulate_observations`` reads, so data
    simulated through the same cache costs no second table at any K.
    """
    reg = real(reg, "reg", nonneg=True)
    K = _resolve_K(basis, K)
    if cache is None:
        cache = ModalCache()
    lams = basis.eigenvalues[:K]
    N = np.zeros((K, K))
    rhs = np.zeros(K)
    data_sq = 0.0
    designs = []
    X = cache.table(M, basis.eigenvalues, data.plan.times)[0][:, :K]
    for x, block in zip(X, data.blocks):
        scale = lams**2 * x
        B = basis.modes_at(block.xs)[:, :K] * scale[None, :]
        Bw = B * block.weights[:, None]
        N += B.T @ Bw
        rhs += Bw.T @ block.values
        data_sq += float(block.weights @ block.values**2)
        designs.append(B)
    N += reg * np.eye(K)
    N = 0.5 * (N + N.T)
    try:
        mu, V = np.linalg.eigh(N)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"normal equations factorization failed: {exc}") from exc
    floor = N.shape[0] * np.finfo(float).eps * max(mu[-1], 0.0)
    if mu[0] <= floor:
        raise NumericalError(
            f"normal equations are numerically singular "
            f"(eigenvalue range {mu[0]:.3e} .. {mu[-1]:.3e}); "
            "increase reg or reduce K"
        )
    b = V @ ((V.T @ rhs) / mu)
    a = lams**2 * b
    res_sq = 0.0
    for block, B in zip(data.blocks, designs):
        r = B @ b - block.values
        res_sq += float(block.weights @ r**2)
    sub = basis if K == basis.K else SpectralBasis(basis.L, K)
    return ReconstructionResult(
        field=SpectralField(sub, a),
        reg=reg,
        condition=float(mu[-1] / mu[0]),
        residual=math.sqrt(max(res_sq, 0.0)),
        data_norm=math.sqrt(max(data_sq, 0.0)),
    )


# ---------------------------------------------------------------------------
# impulse control


@dataclass(frozen=True)
class ControlImpulse:
    """One impulse: applied at time tau = T - t, localized to the region.

    profile holds the coefficients c of the field whose restriction to the
    region is the impulse; applied = G c are the coefficients of the
    restricted field actually added to the state.
    """

    tau: float
    t: float
    region: ObservationRegion
    profile: np.ndarray
    applied: np.ndarray


@dataclass
class ImpulseControlResult:
    K: int
    T: float
    gram: np.ndarray
    phi: np.ndarray
    impulses: tuple[ControlImpulse, ...]
    target: np.ndarray
    achieved: SpectralField
    energy: float
    cost: float
    rank: int
    unreachable_modes: tuple[int, ...]
    reach_residual: float
    target_reachable: bool
    notes: tuple[str, ...] = field(default_factory=tuple)


def impulse_control(
    y0: SpectralField,
    y1: SpectralField,
    plan: SamplingPlan,
    T: float,
    M: MemoryKernel,
    K: int | None = None,
    cache: ModalCache | None = None,
) -> ImpulseControlResult:
    """Steer y0 to y1 at time T with impulses at the mirrored instants.

    An impulse applied at time T - t_j restarts its own modal evolution, so
    by time T it has evolved for exactly t_j: its contribution to mode k is
    x_k(t_j) times the impulse's k-th coefficient.  Stacking all impulses
    with profiles c_j = diag(x(t_j)) phi turns the matching condition into
    Q phi = y1 - x(T) * y0 with Q the observation Gram, solved here through
    its eigendecomposition with small eigenvalues (relative to RANK_RTOL)
    discarded.  Modes living in the discarded subspace cannot be steered;
    they are reported, and the returned controls realize the minimum-norm
    solution on the reachable part.
    """
    T = real(T, "T", positive=True)
    basis = y0.basis
    if y1.basis.L != basis.L or y1.basis.K != basis.K:
        raise ValidationError("y0 and y1 must share one basis")
    if T <= max(plan.times):
        raise ValidationError("control horizon T must exceed every instant")
    K = _resolve_K(basis, K)
    # x(T) comes from the table call of the instants, so the march that
    # reaches T can also serve the instants that lie on its grid.
    values, Gs = _plan_modes(plan, M, basis, K, cache, extra_times=[T])
    X, xT = values[:-1], values[-1]
    Q = _plan_gram(X, Gs)
    target = y1.coefficients[:K] - xT * y0.coefficients[:K]

    try:
        w, V = np.linalg.eigh(Q)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gram eigendecomposition failed: {exc}") from exc
    w_max = float(max(w[-1], 0.0))
    keep = w > RANK_RTOL * w_max
    rank = int(np.count_nonzero(keep))
    notes = []
    if rank == 0:
        raise NumericalError("observation Gram has no usable range")
    Vk = V[:, keep]
    phi = Vk @ ((Vk.T @ target) / w[keep])
    # Diagonal of the projector onto the discarded subspace: how much of the
    # k-th coordinate direction is unsteerable.
    null_diag = 1.0 - np.sum(Vk**2, axis=1)
    unreachable = tuple(int(k + 1) for k in np.nonzero(null_diag > 0.5)[0])
    reached = target - (Vk @ (Vk.T @ target))
    reach_residual = float(np.linalg.norm(reached))
    target_scale = max(float(np.linalg.norm(target)), 1e-300)
    target_reachable = reach_residual <= REACH_RTOL * max(target_scale, 1.0)
    if unreachable:
        notes.append(
            f"modes {list(unreachable)} vanish at every instant and cannot be steered"
        )
    if not target_reachable:
        notes.append(
            f"target has component {reach_residual:.3e} outside the reachable space"
        )
        warnings.warn(notes[-1], RuntimeWarning, stacklevel=2)

    impulses = []
    final = xT * y0.coefficients[:K]
    energy = float(phi @ (Q @ phi))
    cost = 0.0
    for j, entry in enumerate(plan.entries):
        c = X[j] * phi
        applied = Gs[j] @ c
        cost += float(c @ applied)
        final = final + X[j] * applied
        impulses.append(
            ControlImpulse(
                tau=T - entry.t,
                t=entry.t,
                region=entry.region,
                profile=c,
                applied=applied,
            )
        )
    sub = basis if K == basis.K else SpectralBasis(basis.L, K)
    achieved = SpectralField(sub, final)
    return ImpulseControlResult(
        K=K,
        T=T,
        gram=Q,
        phi=phi,
        impulses=tuple(impulses),
        target=target,
        achieved=achieved,
        energy=energy,
        cost=cost,
        rank=rank,
        unreachable_modes=unreachable,
        reach_residual=reach_residual,
        target_reachable=target_reachable,
        notes=tuple(notes),
    )


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


def simulate_controlled(
    y0: SpectralField,
    result: ImpulseControlResult,
    M: MemoryKernel,
) -> SpectralField:
    """Forward-simulate the controlled system and return the state at T.

    Every mode is marched through the full horizon with its impulse jumps
    applied at the exact grid nodes, on n and 2n steps, and the final values
    are Richardson-extrapolated.  This path never uses the impulse-response
    shortcut, so agreement with the predicted final state is a genuine
    closed-loop check.  y0 must lie on the result's domain and hold at
    least its K modes.
    """
    T = result.T
    K = result.K
    basis = y0.basis
    if K > basis.K:
        raise ValidationError("control result exceeds the basis truncation")
    if basis.L != result.achieved.basis.L:
        raise ValidationError("y0 and the control result have different domains")
    taus = [imp.tau for imp in result.impulses]
    if any(not 0.0 < tau < T for tau in taus):
        raise ValidationError("impulse times must be interior to (0, T)")
    lams = basis.eigenvalues[:K]
    # The modes that share a jump grid are marched as one batch.
    finals = np.empty(K)
    for n, modes in _jump_grids(lams, taus, T).items():
        jumps: dict[int, np.ndarray] = {}
        for imp in result.impulses:
            node = round(n * imp.tau / T)
            jumps[node] = jumps.get(node, 0.0) + imp.applied[modes]
        x0 = y0.coefficients[modes]
        x = solve_modal_richardson(lams[modes], M, T, n, x0, jumps)[1]
        finals[modes] = x[:, -1]
    sub = basis if K == basis.K else SpectralBasis(basis.L, K)
    return SpectralField(sub, finals)
