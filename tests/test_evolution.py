import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memobs import (
    ConstantKernel,
    ExponentialKernel,
    ModalCache,
    SpectralBasis,
    SpectralField,
    TabulatedKernel,
    ValidationError,
    ZeroKernel,
    closed_form_exp,
    decomposition_residual,
    propagate,
    solve_modal_richardson,
)
from memobs import evolution
from memobs.evolution import DEFAULT_HLAM_MAX, DEFAULT_N_MIN, _runs
from memobs.modal import _n_steps

X_EXP21_LAM4_T1 = -0.035761146500884806  # roots -2, -3 at 40 digits


@contextlib.contextmanager
def recorded_marches():
    """Every Richardson march the cache runs, as (lams, T, n, x)."""
    calls = []

    def spy(lam, M, T, n):
        t, x = solve_modal_richardson(lam, M, T, n)
        calls.append((lam.tolist(), T, n, x))
        return t, x

    with mock.patch.object(evolution, "solve_modal_richardson", spy):
        yield calls


def test_cache_at_time_zero():
    cache = ModalCache()
    assert cache.value_and_sup(ZeroKernel(), 5.0, 0.0) == (1.0, 1.0)
    assert len(cache) == 0  # t = 0 never stores an entry


def test_cache_hits_and_policy_keys(cache, exp_kernel):
    c = ModalCache()
    v1 = c.value_and_sup(exp_kernel, 4.0, 0.7)
    n1 = len(c)
    v2 = c.value_and_sup(exp_kernel, 4.0, 0.7)
    assert v2 == v1 and len(c) == n1


def test_cache_batch_fill_matches_single_lookups():
    grid = np.linspace(0.0, 2.0, 41)
    M = TabulatedKernel(grid, 2.0 * np.exp(-grid))
    t = 1.5
    # lam 300 needs more than DEFAULT_N_MIN steps, so the lams form two
    # step-count groups; lam 4 comes twice
    lams = [4.0, 9.0, 300.0, 4.0, 16.0]
    steps = {_n_steps(t, lam, DEFAULT_N_MIN, DEFAULT_HLAM_MAX) for lam in lams}
    assert len(steps) == 2
    cache = ModalCache()
    xs = cache.values(M, lams, t)
    assert len(cache) == 4
    for lam, x in zip(lams, xs):
        fresh = ModalCache().value_and_sup(M, lam, t)
        assert x == fresh[0]
        assert cache.value_and_sup(M, lam, t) == fresh
    # each distinct lam's lookup is a one-value table of its own
    assert len(cache) == 8
    assert cache.values(M, lams, 0.0).tolist() == [1.0] * len(lams)
    assert len(cache) == 8


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    lam=st.floats(0.5, 60.0),
    c=st.floats(0.1, 50.0),
    alpha=st.floats(-2.0, 1.0),
    t=st.floats(0.05, 2.0),
    constant=st.booleans(),
)
@example(lam=9.0, c=16.0, alpha=-1.0, t=0.5, constant=False)  # double root
@example(lam=9.0, c=0.1, alpha=0.0, t=2.0, constant=True)  # no memory
def test_cache_matches_exponential_closed_form(lam, c, alpha, t, constant):
    # The cache takes these values from the closed form; the Richardson march
    # at the cache's step policy for marched kernels checks them.  Constant
    # kernels take the values 0.1 - c in [-49.9, 0].
    M = ConstantKernel(0.1 - c) if constant else ExponentialKernel(c, alpha)
    val, sup = ModalCache().value_and_sup(M, lam, t)
    n = _n_steps(t, lam, DEFAULT_N_MIN, DEFAULT_HLAM_MAX)
    march = solve_modal_richardson(lam, M, t, n)[1][-1]
    assert abs(val - march) <= 1e-7 * sup
    assert val == closed_form_exp(lam, *M.exp_form(), t)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    lams=st.lists(st.floats(0.5, 2e4), min_size=1, max_size=4),
    c=st.one_of(st.just(0.0), st.floats(-20.0, 50.0)),
    alpha=st.floats(-3.0, 3.0),
    t=st.floats(0.05, 5.0),
)
@example(lams=[1.0], c=4.0, alpha=6.0, t=1.2)  # |x| grows far above 1
@example(lams=[1.0], c=4.0, alpha=1.5, t=4.0)  # a growing swing peaks before t
@example(lams=[9.0], c=16.0, alpha=-1.0, t=0.5)  # double root
# lam < alpha: the swings grow, and lam 0.5 peaks at its second turning
# point, above |x(t)|; lam 1 at its only one; lam 1.5 is a double root
@example(lams=[0.5, 1.0, 1.5, 30.0], c=4.0, alpha=2.5, t=5.0)
@example(lams=[0.5, 0.75, 2.0], c=4.0, alpha=3.0, t=9.0)  # several swings
@example(lams=[1.0, 3.0], c=4.0, alpha=1.0, t=9.0)  # lam == alpha: equal swings
def test_cache_sup_matches_dense_grid(lams, c, alpha, t):
    # |x| is largest at 0, at t or where x' = 0; the closed-form sup of every
    # lam of one lookup must not fall below the densely sampled max, nor sit
    # far above it.
    if c > 0:
        M = ExponentialKernel(c, alpha)
    else:
        M = ConstantKernel(c) if c else ZeroKernel()
    form = M.exp_form()
    values, sups = ModalCache().table(M, lams, [t])
    grid = np.linspace(0.0, t, 200001)
    dense = np.max(np.abs(closed_form_exp(lams, *form, grid[:, None])), axis=0)
    for lam, val, sup, top in zip(lams, values[0], sups[0], dense):
        assert val == closed_form_exp(lam, *form, t)
        assert sup >= top * (1.0 - 1e-12)
        assert sup <= top * (1.0 + 1e-6)


TABLE_GRID = np.linspace(0.0, 6.0, 61)
TABLE_KERNELS = {
    "exponential": lambda c, alpha: ExponentialKernel(c, alpha),
    "constant": lambda c, alpha: ConstantKernel(2.0 - c),
    "zero": lambda c, alpha: ZeroKernel(),
    "tabulated": lambda c, alpha: TabulatedKernel(
        TABLE_GRID, c * np.exp(alpha * TABLE_GRID)
    ),
}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(sorted(TABLE_KERNELS)),
    c=st.floats(0.1, 50.0),
    alpha=st.floats(-3.0, 3.0),
    lams=st.lists(
        st.sampled_from([1.0, 4.0, 9.0]) | st.floats(0.5, 400.0), min_size=1, max_size=5
    ),
    times=st.lists(
        st.sampled_from([0.0, 0.5, 1.2]) | st.floats(0.0, 5.0), min_size=1, max_size=4
    ),
    held=st.integers(0, 3),
)
@example(kind="exponential", c=16.0, alpha=-1.0, lams=[9.0, 4.0], times=[0.5], held=0)
# lam < alpha: late turning points, over several times at once
@example(
    kind="exponential",
    c=4.0,
    alpha=2.5,
    lams=[0.5, 1.0, 1.5, 30.0, 1.0],
    times=[5.0, 0.0, 2.0, 5.0],
    held=2,
)
@example(
    kind="tabulated", c=2.0, alpha=-0.5, lams=[4.0, 300.0, 4.0], times=[1.5, 0.7], held=1
)
# |x| of lam 1 swings above 1 and grows, so each member of the run has a
# sup of its own
@example(
    kind="tabulated", c=4.0, alpha=1.5, lams=[1.0, 9.0], times=[1.0, 4.0, 2.0], held=0
)
# a cache that held lam 1 at 0.75 alone would march 1.0 and 0.6 in a run
# of their own, on another step than the fresh table's run of all three
@example(
    kind="tabulated", c=2.0, alpha=-0.5, lams=[1.0, 4.0], times=[0.75, 1.0, 0.6], held=1
)
# a many-instants-style plan on a cache that held half of it
@example(
    kind="tabulated",
    c=2.0,
    alpha=-0.6,
    lams=[1.0, 4.0, 9.0, 16.0, 25.0],
    times=[0.5, 0.15, 0.85, 0.35, 0.725, 1.0],
    held=3,
)
@example(kind="zero", c=1.0, alpha=0.0, lams=[1.0], times=[0.0], held=0)
def test_table_equals_per_instant_lookups(kind, c, alpha, lams, times, held):
    # One table call over every instant at once; s > 0, s = 0 and s < 0
    # rows, repeated lams and times, and t = 0, which reads (1, 1) and
    # stores nothing.  A closed-form entry, and a marched instant that
    # marches alone, equals one-instant tables and per-lam value_and_sup on
    # fresh caches bit for bit.  A marched instant that shares a run is the
    # run's march at its node, with a step no coarser than its own and t on
    # that node.  A cache that already holds a table over part of the
    # instants and lams returns the fresh cache's table bit for bit.
    M = TABLE_KERNELS[kind](c, alpha)
    cache = ModalCache()
    with recorded_marches() as marches:
        values, sups = cache.table(M, lams, times)
    assert values.shape == sups.shape == (len(times), len(lams))
    instants = sorted({t for t in times if t > 0}, reverse=True)
    runs = {}  # (lam, t) -> the run of a marched entry: (T, n, members)
    if kind == "tabulated":
        for lam in dict.fromkeys(lams):
            steps = [
                _n_steps(t, lam, DEFAULT_N_MIN, DEFAULT_HLAM_MAX) for t in instants
            ]
            for run in _runs(instants, steps):
                runs.update({(lam, t): run for t in run[2]})
    for row, t in enumerate(times):
        got = list(zip(values[row].tolist(), sups[row].tolist()))
        shared = [len(runs.get((lam, t), ((), (), [t]))[2]) > 1 for lam in lams]

        def alone(pairs):
            return [pair for pair, s in zip(pairs, shared) if not s]

        one = ModalCache().table(M, lams, [t])
        assert alone(got) == alone(zip(one[0][0].tolist(), one[1][0].tolist()))
        if not any(shared):
            assert values[row].tobytes() == ModalCache().values(M, lams, t).tobytes()
        if kind != "tabulated" or row == 0:
            lookups = [ModalCache().value_and_sup(M, lam, t) for lam in lams]
            assert alone(got) == alone(lookups)
        if t == 0.0:
            assert got == [(1.0, 1.0)] * len(lams)
        for col, lam in enumerate(lams):
            if not shared[col]:
                continue
            T, n, _ = runs[(lam, t)]
            (x,) = [
                x[rows.index(lam)]
                for rows, T_run, n_run, x in marches
                if (T_run, n_run) == (T, n) and lam in rows
            ]
            node = round(n * t / T)
            assert abs(n * t / T - node) <= 1e-9
            n_t = _n_steps(t, lam, DEFAULT_N_MIN, DEFAULT_HLAM_MAX)
            assert T * n_t <= n * (t + 1e-12 * T)
            assert got[col] == (x[node], np.max(np.abs(x[: node + 1])))
    assert len(cache) == len(instants) * len(set(lams))
    again = cache.table(M, lams, times)
    assert again[0].tobytes() == values.tobytes()
    assert again[1].tobytes() == sups.tobytes()
    assert len(cache) == len(instants) * len(set(lams))
    if held:
        warm = ModalCache()
        warm.table(M, lams[: held + 1 : 2], times[:held])
        after = warm.table(M, lams, times)
        assert after[0].tobytes() == values.tobytes()
        assert after[1].tobytes() == sups.tobytes()


def aligned_kernel():
    grid = np.linspace(0.0, 6.0, 1201)
    return TabulatedKernel(grid, 2.0 * np.exp(-0.5 * grid))


def test_table_over_lam_subset_equals_full_columns():
    # A lam's runs depend only on its step counts at the instants: lams
    # 900 and 2500 need more than DEFAULT_N_MIN steps, so their runs differ
    # from those of the small lams that share the call.
    M = aligned_kernel()
    lams = np.array([1.0, 4.0, 900.0, 25.0, 2500.0])
    times = [0.9, 0.3, 0.6, 0.45, 0.8]
    full = ModalCache().table(M, lams, times)
    for cols in ([2], [0, 4], [1, 3], [4, 2, 0]):
        part = ModalCache().table(M, lams[cols], times)
        for got, want in zip(part, full):
            assert got.tobytes() == want[:, cols].tobytes()


def test_instants_off_a_common_grid_march_alone():
    M = aligned_kernel()
    lams = [1.0, 9.0, 400.0]
    t = 0.8
    times = [t, t * math.pi / 3]
    with recorded_marches() as marches:
        values, sups = ModalCache().table(M, lams, times)
    want = set()
    for T in times:
        want |= {(T, _n_steps(T, lam, DEFAULT_N_MIN, DEFAULT_HLAM_MAX)) for lam in lams}
    assert {(T, n) for _, T, n, _ in marches} == want
    assert len(marches) == len(want)
    for row, T in enumerate(times):
        one = ModalCache().table(M, lams, [T])
        assert values[row].tobytes() == one[0].tobytes()
        assert sups[row].tobytes() == one[1].tobytes()


@pytest.mark.parametrize("seed", [7, 11, 17])
def test_marched_plan_table_matches_fine_reference(seed):
    # A plan built as the many-instants benchmark builds it: a tabulated
    # c exp(alpha t), six instants on a 1/40 grid of [0, 1] and the control
    # horizon T = 1.  Runs form, and every value, T included, stays within
    # 1e-11 sup of Richardson marches at h lam <= 1/32 and at least four
    # times the default minimum step count, one per instant.
    rng = np.random.default_rng(seed)
    c, alpha = rng.uniform(1.0, 3.0), rng.uniform(-1.0, -0.2)
    grid = np.linspace(0.0, 6.0, 1201)
    M = TabulatedKernel(grid, c * np.exp(alpha * grid))
    ticks = np.sort(rng.choice(np.arange(4, 39), size=6, replace=False))
    times = [int(i) / 40 for i in ticks] + [1.0]
    lams = SpectralBasis(math.pi, 10).eigenvalues
    with recorded_marches() as marches:
        values, sups = ModalCache().table(M, lams, times)
    assert len(marches) < len(times)
    for row, t in enumerate(times):
        n = _n_steps(t, lams.max(), 4 * DEFAULT_N_MIN, 1 / 32)
        ref = solve_modal_richardson(lams, M, t, n)[1][:, -1]
        assert np.all(np.abs(values[row] - ref) <= 1e-11 * sups[row])


def test_cache_length_counts_stored_pairs(exp_kernel):
    cache = ModalCache()
    cache.table(exp_kernel, [1.0, 4.0, 4.0], [0.5, 0.0, 0.5, 1.0])
    assert len(cache) == 4
    cache.values(exp_kernel, [9.0, 1.0], 0.5)  # a table of its own
    assert len(cache) == 6
    cache.table(exp_kernel, [4.0, 1.0], [1.0, 0.5, 1.0])  # the first table
    assert len(cache) == 6
    cache.table(ZeroKernel(), [1.0], [0.5])
    assert len(cache) == 7
    assert cache.table(exp_kernel, [], [0.5])[0].shape == (1, 0)
    assert cache.table(exp_kernel, [1.0], [0.0, 0.0])[0].tolist() == [[1.0], [1.0]]
    assert len(cache) == 7


def test_cache_sup_dominates_endpoint(exp_kernel):
    val, sup = ModalCache().value_and_sup(exp_kernel, 4.0, 1.5)
    assert sup >= abs(val)
    assert sup <= 1.0 + 1e-12  # |x| starts at 1 and these modes decay


def test_propagate_zero_kernel_is_heat_decay(cache):
    basis = SpectralBasis(math.pi, 6)
    a = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
    out = propagate(SpectralField(basis, a), ZeroKernel(), 0.7, cache=cache)
    np.testing.assert_allclose(
        out.coefficients, a * np.exp(-0.7 * basis.eigenvalues), rtol=1e-9, atol=1e-12
    )


def test_propagate_matches_closed_form_mode():
    # L = pi/2 puts lambda_1 = 4; the frozen value is the two-root solution
    basis = SpectralBasis(math.pi / 2, 2)
    y0 = SpectralField(basis, [2.0, 0.0])
    out = propagate(y0, ExponentialKernel(2.0, -1.0), 1.0)
    assert out.coefficients[0] == pytest.approx(2.0 * X_EXP21_LAM4_T1, rel=1e-9)
    assert out.coefficients[1] == 0.0


def test_propagate_time_zero_copies():
    basis = SpectralBasis(1.0, 3)
    y0 = SpectralField(basis, [1.0, 2.0, 3.0])
    out = propagate(y0, ZeroKernel(), 0.0)
    np.testing.assert_array_equal(out.coefficients, y0.coefficients)
    out.coefficients[0] = -5.0
    assert y0.coefficients[0] == 1.0
    with pytest.raises(ValidationError):
        propagate(y0, ZeroKernel(), -0.1)


def test_decomposition_residual_decays(exp_kernel):
    basis = SpectralBasis(math.pi, 16)
    table = decomposition_residual(exp_kernel, 1.0, basis)
    assert table.slope <= -0.8
    # residual lambda_k^2 x_k(1) + M(1) collapses toward zero up the spectrum
    assert abs(table.residuals[-1]) < abs(table.residuals[3])
    assert table.sup_lambda2_x > 0
    rows = table.rows
    assert len(rows) == 16 and len(rows[0]) == 4


def test_decomposition_residual_validation(exp_kernel):
    basis = SpectralBasis(math.pi, 16)
    with pytest.raises(ValidationError):
        decomposition_residual(exp_kernel, 0.0, basis)
    with pytest.raises(ValidationError):
        decomposition_residual(exp_kernel, 1.0, basis, ks=[1, 2, 3])
    with pytest.raises(ValidationError):
        # modes 8..11 span less than a decade in lambda
        decomposition_residual(exp_kernel, 1.0, basis, ks=[8, 9, 10, 11] * 2)
    for bad_k in (0, 17):  # k = 0 would read mode K through index -1
        with pytest.raises(ValidationError, match="ks must lie in 1..16"):
            decomposition_residual(exp_kernel, 1.0, basis, ks=[*range(1, 10), bad_k])
