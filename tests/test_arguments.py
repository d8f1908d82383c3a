"""Every number a caller passes to a library entry follows the config rule.

A number must be finite, a bool is not a number, integer arguments must be
ints (``8.0`` is not one), and positive or nonnegative arguments must be so;
a bad value raises ValidationError at entry, through ``errors.real`` and
``errors.integer``, as a bad config value does.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memobs import (
    ConstantKernel,
    ExponentialKernel,
    Interval,
    ModalCache,
    ObservationRegion,
    SamplingPlan,
    SpectralBasis,
    SpectralField,
    UniformGrid,
    ValidationError,
    ZeroKernel,
    backward_uniqueness_certificate,
    check_geometric_condition,
    closed_form_exp,
    complement,
    constants_table,
    decomposition_residual,
    eigenpair,
    hs_norm,
    impulse_control,
    kernel_series_K,
    nodal_set_exp_closed,
    nodal_set_numeric,
    observability_constants,
    observation_gram,
    probe_coefficients,
    probe_upper_bound,
    propagate,
    reconstruct_initial,
    series_solution_grid,
    simulate_observations,
    solve_modal_richardson,
    solve_modal_volterra,
)
from memobs.errors import real, reals

M = ExponentialKernel(4.0, 0.0)
BASIS = SpectralBasis(math.pi, 4)
BASIS16 = SpectralBasis(math.pi, 16)
PLAN = SamplingPlan([(0.5, [[0.0, math.pi]]), (0.8, [[0.0, 2.0]])])
Y0 = SpectralField(BASIS, [1.0, 0.5, 0.0, 0.25])
DATA = simulate_observations(Y0, PLAN, M)
GRID = UniformGrid(64, 1.0)
REGION = ObservationRegion([[0.0, 1.0]])

# "entry.parameter" -> (kind, a valid value, call with the value in that
# parameter's place).  Every other argument of the call is valid.
ARGUMENTS = {
    "SpectralBasis.L": ("positive", 1.0, lambda v: SpectralBasis(v, 4)),
    "SpectralBasis.K": ("integer", 4, lambda v: SpectralBasis(1.0, v)),
    "SpectralBasis.eigenfunction.k": ("integer", 2, lambda v: BASIS.eigenfunction(v)),
    "eigenpair.k": ("integer", 2, lambda v: eigenpair(BASIS, v)),
    "hs_norm.s": ("real", -4.0, lambda v: hs_norm(Y0, v)),
    "SpectralField.__rmul__.scalar": ("real", 2.0, lambda v: Y0.__rmul__(v)),
    "ModalCache.hlam_max": ("positive", 0.5, lambda v: ModalCache(v)),
    "ModalCache.value_and_sup.lam": (
        "positive",
        1.0,
        lambda v: ModalCache().value_and_sup(M, v, 0.5),
    ),
    "ModalCache.value_and_sup.t": (
        "nonneg",
        0.0,
        lambda v: ModalCache().value_and_sup(M, 1.0, v),
    ),
    "ModalCache.table.lam": (
        "positive",
        1.0,
        lambda v: ModalCache().table(M, [2.0, v], [0.5]),
    ),
    "ModalCache.table.times": (
        "nonneg",
        0.0,
        lambda v: ModalCache().table(M, [1.0], [0.5, v]),
    ),
    "propagate.t": ("nonneg", 0.5, lambda v: propagate(Y0, M, v)),
    "decomposition_residual.t": (
        "positive",
        1.0,
        lambda v: decomposition_residual(M, v, BASIS16),
    ),
    "decomposition_residual.ks": (
        "integer",
        1,
        lambda v: decomposition_residual(M, 1.0, BASIS16, ks=[*range(9, 17), v]),
    ),
    "decomposition_residual.hlam_max": (
        "positive",
        0.25,
        lambda v: decomposition_residual(M, 1.0, BASIS16, hlam_max=v),
    ),
    "ConstantKernel.value": ("real", -1.0, lambda v: ConstantKernel(v)),
    "ExponentialKernel.c": ("positive", 2.0, lambda v: ExponentialKernel(v, 0.0)),
    "ExponentialKernel.alpha": ("real", -1.0, lambda v: ExponentialKernel(1.0, v)),
    "UniformGrid.n_steps": ("integer", 8, lambda v: UniformGrid(v, 1.0)),
    "UniformGrid.T": ("positive", 2.0, lambda v: UniformGrid(64, v)),
    "kernel_series_K.tol": ("positive", 1e-10, lambda v: kernel_series_K(M, GRID, v)),
    "solve_modal_volterra.lam": (
        "positive",
        2.0,
        lambda v: solve_modal_volterra(v, M, 1.0, 64),
    ),
    "solve_modal_volterra.T": (
        "positive",
        2.0,
        lambda v: solve_modal_volterra(1.0, M, v, 64),
    ),
    "solve_modal_volterra.n_steps": (
        "integer",
        100,
        lambda v: solve_modal_volterra(1.0, M, 1.0, v),
    ),
    "solve_modal_volterra.x0": (
        "real",
        -0.5,
        lambda v: solve_modal_volterra(1.0, M, 1.0, 64, v),
    ),
    "solve_modal_volterra.jumps.node": (
        "integer",
        10,
        lambda v: solve_modal_volterra(1.0, M, 1.0, 64, 1.0, {v: 0.5}),
    ),
    "solve_modal_volterra.jumps.value": (
        "real",
        -1.0,
        lambda v: solve_modal_volterra(1.0, M, 1.0, 64, 1.0, {32: v}),
    ),
    "solve_modal_richardson.n_steps": (
        "integer",
        100,
        lambda v: solve_modal_richardson(1.0, M, 1.0, v),
    ),
    "closed_form_exp.lam": ("real", 2.0, lambda v: closed_form_exp(v, 4.0, 0.0, 1.0)),
    "closed_form_exp.c": ("real", 1.0, lambda v: closed_form_exp(1.0, v, 0.0, 1.0)),
    "closed_form_exp.alpha": (
        "real",
        -1.0,
        lambda v: closed_form_exp(1.0, 4.0, v, 1.0),
    ),
    "closed_form_exp.t": (
        "nonneg",
        1.0,
        lambda v: closed_form_exp(1.0, 4.0, 0.0, v),
    ),
    "series_solution_grid.lam": (
        "positive",
        2.0,
        lambda v: series_solution_grid(v, ZeroKernel(), GRID),
    ),
    "series_solution_grid.tol": (
        "positive",
        1e-10,
        lambda v: series_solution_grid(1.0, ZeroKernel(), GRID, v),
    ),
    "nodal_set_numeric.lam": ("positive", 1.0, lambda v: nodal_set_numeric(v, M, 6.0)),
    "nodal_set_numeric.T_max": (
        "positive",
        2.0,
        lambda v: nodal_set_numeric(4.0, M, v),
    ),
    "nodal_set_numeric.resolution": (
        "integer",
        128,
        lambda v: nodal_set_numeric(4.0, M, 6.0, v),
    ),
    "nodal_set_exp_closed.lam": (
        "real",
        2.0,
        lambda v: nodal_set_exp_closed(v, 4.0, 0.0, 6.0),
    ),
    "nodal_set_exp_closed.c": (
        "real",
        1.0,
        lambda v: nodal_set_exp_closed(1.0, v, 0.0, 6.0),
    ),
    "nodal_set_exp_closed.alpha": (
        "real",
        -1.0,
        lambda v: nodal_set_exp_closed(1.0, 4.0, v, 6.0),
    ),
    "nodal_set_exp_closed.T_max": (
        "positive",
        2.0,
        lambda v: nodal_set_exp_closed(1.0, 4.0, 0.0, v),
    ),
    "Interval.a": ("real", 0.5, lambda v: Interval(v, 2.0)),
    "Interval.b": ("real", 0.5, lambda v: Interval(-2.0, v)),
    "Interval.contains.x": ("real", 0.5, lambda v: Interval(0.0, 1.0).contains(v)),
    "ObservationRegion.L": (
        "positive",
        2.0,
        lambda v: ObservationRegion([[0, 1]], L=v),
    ),
    "ObservationRegion.contains.x": ("real", 0.5, lambda v: REGION.contains(v)),
    "complement.L": ("positive", 2.0, lambda v: complement(REGION, v)),
    "check_geometric_condition.L": (
        "positive",
        2.0,
        lambda v: check_geometric_condition(PLAN, M, v),
    ),
    "SamplingPlan.t": ("positive", 0.5, lambda v: SamplingPlan([(v, [[0.0, 1.0]])])),
    "observation_gram.K": ("integer", 3, lambda v: observation_gram(PLAN, M, BASIS, v)),
    "observability_constants.K": (
        "integer",
        3,
        lambda v: observability_constants(PLAN, M, BASIS, v),
    ),
    "constants_table.K_list": (
        "integer",
        3,
        lambda v: constants_table(PLAN, M, BASIS, [2, v]),
    ),
    "probe_coefficients.x0": ("real", 0.5, lambda v: probe_coefficients(BASIS, v, 0.1)),
    "probe_coefficients.r": (
        "positive",
        0.5,
        lambda v: probe_coefficients(BASIS, 1.0, v),
    ),
    "probe_upper_bound.x0": (
        "real",
        0.5,
        lambda v: probe_upper_bound(PLAN, M, BASIS, v, [0.1]),
    ),
    "probe_upper_bound.radii": (
        "positive",
        0.1,
        lambda v: probe_upper_bound(PLAN, M, BASIS, 1.0, [0.2, v]),
    ),
    "backward_uniqueness_certificate.times": (
        "positive",
        0.8,
        lambda v: backward_uniqueness_certificate([0.5, v], M, BASIS),
    ),
    "backward_uniqueness_certificate.K": (
        "integer",
        3,
        lambda v: backward_uniqueness_certificate([0.5], M, BASIS, v),
    ),
    "backward_uniqueness_certificate.tol": (
        "positive",
        1e-8,
        lambda v: backward_uniqueness_certificate([0.5], M, BASIS, tol=v),
    ),
    "simulate_observations.samples_per_unit": (
        "integer",
        16,
        lambda v: simulate_observations(Y0, PLAN, M, v),
    ),
    "simulate_observations.sigma": (
        "nonneg",
        0.1,
        lambda v: simulate_observations(Y0, PLAN, M, sigma=v),
    ),
    "simulate_observations.seed": (
        "integer",
        3,
        lambda v: simulate_observations(Y0, PLAN, M, sigma=0.1, seed=v),
    ),
    "reconstruct_initial.K": (
        "integer",
        3,
        lambda v: reconstruct_initial(DATA, M, BASIS, v),
    ),
    "reconstruct_initial.reg": (
        "nonneg",
        1e-8,
        lambda v: reconstruct_initial(DATA, M, BASIS, reg=v),
    ),
    "impulse_control.T": (
        "positive",
        2.0,
        lambda v: impulse_control(Y0, Y0, PLAN, v, M),
    ),
    "impulse_control.K": (
        "integer",
        3,
        lambda v: impulse_control(Y0, Y0, PLAN, 1.0, M, K=v),
    ),
    "impulse_control.rank_rtol": (
        "positive",
        1e-8,
        lambda v: impulse_control(Y0, Y0, PLAN, 1.0, M, rank_rtol=v),
    ),
}

# Not a finite number; then what each kind rejects beyond that.  Every
# integer parameter has a lower bound of at least 0, so -1 is below it.
NOT_A_NUMBER = [math.nan, math.inf, -math.inf, True, "1", None]
BAD = {
    "real": NOT_A_NUMBER,
    "positive": NOT_A_NUMBER + [0.0, -1.0],
    "nonneg": NOT_A_NUMBER + [-1.0],
    "integer": NOT_A_NUMBER + [2.5, 8.0, np.float64(8.0), -1],
}

# None is these parameters' default: no domain, or every mode of the basis.
NONE_ALLOWED = {
    "ObservationRegion.L",
    "observation_gram.K",
    "observability_constants.K",
    "constants_table.K_list",
    "backward_uniqueness_certificate.K",
    "reconstruct_initial.K",
    "impulse_control.K",
}


def _bad_values(name):
    bad = BAD[ARGUMENTS[name][0]]
    return [v for v in bad if v is not None or name not in NONE_ALLOWED]


CASES = st.sampled_from(sorted(ARGUMENTS)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(_bad_values(name)))
)


# 600 examples let the derandomized draws reach every (parameter, bad value)
# pair.
@settings(max_examples=600, derandomize=True, deadline=None)
@given(case=CASES)
# Each way an unchecked number goes wrong: a wrong answer, silent
# acceptance, or NumericalError, ValueError or OverflowError in place of
# ValidationError.
@example(case=("backward_uniqueness_certificate.tol", math.nan))
@example(case=("probe_upper_bound.x0", math.nan))
@example(case=("simulate_observations.sigma", math.nan))
@example(case=("simulate_observations.seed", math.nan))
@example(case=("ModalCache.hlam_max", math.nan))
@example(case=("ObservationRegion.L", math.nan))
@example(case=("impulse_control.rank_rtol", -1.0))
@example(case=("observation_gram.K", True))
@example(case=("reconstruct_initial.reg", math.nan))
@example(case=("impulse_control.rank_rtol", math.nan))
@example(case=("SpectralBasis.K", math.inf))
@example(case=("SpectralBasis.K", math.nan))
@example(case=("solve_modal_volterra.n_steps", math.nan))
@example(case=("UniformGrid.n_steps", math.inf))
@example(case=("simulate_observations.samples_per_unit", math.inf))
@example(case=("observation_gram.K", math.nan))
@example(case=("SpectralBasis.K", 8.0))
@example(case=("closed_form_exp.t", math.nan))
@example(case=("closed_form_exp.t", -1.0))
@example(case=("closed_form_exp.t", True))
def test_bad_number_raises_validation_error(case):
    name, bad = case
    with pytest.raises(ValidationError):
        ARGUMENTS[name][2](bad)


def test_every_call_runs_on_its_valid_value():
    """The calls above fail only through the value under test."""
    for _, good, call in ARGUMENTS.values():
        call(good)


ARRAY_CHECK_INPUTS = [
    [1.0, 2.5],
    [math.nan, 1.0],
    [1.0, math.inf],
    [2.0, -math.inf],
    [0.0, 1.0],
    [1.0, -0.0],
    [3.0, -2.0],
    [-1.0, math.nan],
    [True, 2.0],
    [False],
    [1, 2],
    [0, 3],
    [],
]


@pytest.mark.parametrize("bounds", [{}, {"positive": True}, {"nonneg": True}])
def test_array_number_check_matches_per_entry_real(bounds):
    # The input as a list, as an array of its own dtype (float64, bool or
    # int) and as float64 and 2-D arrays: reals accepts and rejects exactly
    # what real does entry by entry, with the same message.
    def outcome(check, v):
        try:
            return [float(x) for x in check(v)]
        except ValidationError as exc:
            return str(exc)

    per_entry = lambda v: [real(x, "lam", **bounds) for x in v]  # noqa: E731
    array = lambda v: reals(v, "lam", **bounds)  # noqa: E731
    for raw in ARRAY_CHECK_INPUTS:
        as_float = np.array(raw, dtype=float)
        for v in (raw, np.array(raw), as_float, as_float[None, :]):
            assert outcome(array, v) == outcome(per_entry, v), (raw, v)
    assert reals(np.array([1.0, 2.0]), "lam", positive=True).dtype == np.float64
    with pytest.raises(ValidationError, match="lam must be finite"):
        ModalCache().table(M, np.array([1.0, math.nan]), [0.5])
    with pytest.raises(ValidationError, match="lam must be positive"):
        ModalCache().table(M, np.array([1.0, 0.0]), [0.5])
    # closed_form_exp checks an array t as a whole, in any shape
    with pytest.raises(ValidationError, match="t must be finite"):
        closed_form_exp(1.0, 4.0, 0.0, np.array([0.5, math.nan]))
    with pytest.raises(ValidationError, match="t must be nonnegative"):
        closed_form_exp([1.0, 4.0], 4.0, 0.0, np.array([[0.5], [-1.0]]))
