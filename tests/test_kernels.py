import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memobs import (
    ConstantKernel,
    ExponentialKernel,
    LinearKernel,
    SeriesDivergenceError,
    TabulatedKernel,
    UniformGrid,
    ValidationError,
    ZeroKernel,
    kernel_from_spec,
    kernel_series_K,
)
from memobs.kernels import MAX_SERIES_TERMS, _cubic_pieces, _pieces_at


def test_kernel_point_values():
    assert ZeroKernel()(1.7) == 0.0
    assert ConstantKernel(-1.0)(0.3) == -1.0
    assert LinearKernel()(2.5) == 2.5
    M = ExponentialKernel(4.0, -2.0)
    assert M(0.0) == 4.0
    assert M(1.0) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-15)
    arr = M(np.array([0.0, 1.0]))
    assert arr.shape == (2,)


def test_exponential_requires_positive_amplitude():
    with pytest.raises(ValidationError):
        ExponentialKernel(0.0, 1.0)
    with pytest.raises(ValidationError):
        ExponentialKernel(-2.0, 0.0)
    with pytest.raises(ValidationError):
        ExponentialKernel(1.0, float("inf"))


def test_spec_round_trip():
    kernels = [
        ZeroKernel(),
        ConstantKernel(-1.0),
        LinearKernel(),
        ExponentialKernel(2.0, -1.0),
        TabulatedKernel([0.0, 0.5, 1.0, 2.0], [1.0, 0.5, 0.3, 0.1]),
    ]
    for M in kernels:
        back = kernel_from_spec(M.spec_dict())
        t = np.linspace(0.0, min(M.t_max, 2.0), 7)
        np.testing.assert_allclose(back(t), M(t), rtol=1e-15)


def test_cache_key_is_fixed_and_shared_by_equal_kernels():
    # frozen from the spec hash, so memoizing the key never changes it
    M = ExponentialKernel(2.0, -1.0)
    assert M.cache_key() == "d7759630e90137f5"
    assert M.cache_key() == M.cache_key()
    assert ZeroKernel().cache_key() == "76bfedc338b82151"
    tab = [0.0, 0.5, 1.0, 2.0], [1.0, 0.5, 0.3, 0.1]
    pairs = [
        (ExponentialKernel(2.0, -1.0), M),
        (TabulatedKernel(*tab), kernel_from_spec(TabulatedKernel(*tab).spec_dict())),
        (ConstantKernel(-1.0), ConstantKernel(-1.0)),
    ]
    for a, b in pairs:
        assert a == b and a.cache_key() == b.cache_key() and hash(a) == hash(b)
    assert ExponentialKernel(2.0, -0.5).cache_key() != M.cache_key()


def test_exp_form_marks_the_exponential_family():
    assert ZeroKernel().exp_form() == (0.0, 0.0)
    assert ConstantKernel(-1.5).exp_form() == (-1.5, 0.0)
    assert ExponentialKernel(2.0, -1.0).exp_form() == (2.0, -1.0)
    assert LinearKernel().exp_form() is None
    assert TabulatedKernel([0.0, 0.5, 1.0, 2.0], [1.0, 0.5, 0.3, 0.1]).exp_form() is None


def test_from_spec_validation():
    with pytest.raises(ValidationError):
        kernel_from_spec({"kind": "cubic"})
    with pytest.raises(ValidationError):
        kernel_from_spec({"value": 1.0})
    with pytest.raises(ValidationError):
        kernel_from_spec({"kind": "constant"})  # missing value
    with pytest.raises(ValidationError):
        kernel_from_spec({"kind": "zero", "value": 1.0})  # stray field


def test_tabulated_tracks_smooth_kernel():
    # dense samples of 2 exp(-t); the not-a-knot spline tracks it to ~1e-7
    ts = np.linspace(0.0, 3.0, 301)
    M = TabulatedKernel(ts, 2.0 * np.exp(-ts))
    probe = np.linspace(0.0, 3.0, 57)
    np.testing.assert_allclose(M(probe), 2.0 * np.exp(-probe), atol=1e-7)
    assert M.t_max == 3.0
    with pytest.raises(ValidationError):
        M(3.5)


def test_tabulated_validation():
    with pytest.raises(ValidationError):
        TabulatedKernel([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])  # too few samples
    with pytest.raises(ValidationError):
        TabulatedKernel([0.1, 1.0, 2.0, 3.0], [1.0] * 4)  # must start at 0
    with pytest.raises(ValidationError):
        TabulatedKernel([0.0, 1.0, 1.0, 3.0], [1.0] * 4)  # not increasing
    # every time and value passes the number rule, arrays included
    bad_tables = [
        ([0.0, 1.0, 2.0, math.inf], [1.0] * 4, "times must be finite"),
        (np.array([0.0, math.nan, 2.0, 3.0]), [1.0] * 4, "times must be finite"),
        ([0.0, 1.0, 2.0, 3.0], np.array([1.0, 2.0, math.inf, 1.0]), "values must be"),
        ([0.0, 1.0, 2.0, 3.0], [True, False, True, True], "values must be a number"),
        ([0.0, 1.0, 2.0, 3.0], np.ones(4, dtype=bool), "values must be a number"),
        ([False, True, 2.0, 3.0], [1.0] * 4, "times must be a number"),
        ([0.0, 1.0, "2", 3.0], [1.0] * 4, "times must be a number"),
        ([[0.0, 1.0], [2.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]], "1-D"),
    ]
    for times, values, message in bad_tables:
        with pytest.raises(ValidationError, match=message):
            TabulatedKernel(times, values)
    M = TabulatedKernel([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 0.0, 1.0])
    for bad in (math.nan, [0.5, math.nan], 3.5):
        with pytest.raises(ValidationError):
            M(bad)


def test_tabulated_kernel_keeps_its_own_arrays():
    # The kernel copies the caller's float64 arrays: zeroing them afterwards
    # moves neither its values, its spec, its equality nor its cache key.
    g = np.linspace(0.0, 3.0, 31)
    v = np.exp(-g)
    M = TabulatedKernel(g, v)
    same = TabulatedKernel(g.copy(), v.copy())
    before = (M(1.0), M.spec_dict(), M.cache_key())
    v[:] = 0.0
    assert (M(1.0), M.spec_dict(), M.cache_key()) == before
    assert M == same and M.cache_key() == same.cache_key()
    assert M != TabulatedKernel(g, v)
    # and its own arrays are read-only
    for arr in (M.times, M.values):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    values=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=40),
    gaps=st.none() | st.lists(st.floats(0.01, 3.0), min_size=39, max_size=39),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=20),
)
# the 4-knot minimum on uniform knots, and on non-uniform ones
@example(values=[1.0, 2.0, 0.0, 1.0], gaps=None, fractions=[0.5])
@example(values=[1.0, -2.0, 0.5, 3.0], gaps=[0.1, 2.5, 0.7] + [1.0] * 36, fractions=[])
def test_spline_pieces_match_scipy_cubic_spline(values, gaps, fractions):
    # scipy's default (not-a-knot) CubicSpline is the independent oracle:
    # the pieces and the kernel's values equal its floats, on every knot, at
    # t_max, and at drawn points between.
    from scipy.interpolate import CubicSpline

    y = np.array(values)
    if gaps is None:
        x = np.linspace(0.0, 2.0, y.size)
    else:
        x = np.concatenate(([0.0], np.cumsum(gaps[: y.size - 1])))
    t = np.concatenate((x, x[-1] * np.array(fractions), [x[-1]]))
    spline = CubicSpline(x, y)
    pieces = _cubic_pieces(x, y)
    np.testing.assert_array_equal(pieces, spline.c)
    np.testing.assert_array_equal(_pieces_at(x, pieces, t), spline(t))
    M = TabulatedKernel(x, y)
    np.testing.assert_array_equal(M(t), spline(t))
    assert M(M.t_max) == spline(x[-1])
    # a point within the range's rounding allowance is read at t_max
    assert M(M.t_max * (1 + 1e-13)) == spline(x[-1])


# The first example may import scipy.interpolate, which takes longer than
# hypothesis's default deadline on a loaded machine.
@settings(derandomize=True, deadline=None)
@given(
    segments=st.lists(
        st.tuples(
            st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=12),
            st.lists(st.floats(0.01, 3.0), min_size=12, max_size=12),
        ),
        min_size=1,
        max_size=5,
    )
)
# four-knot segments, the shortest
@example(segments=[([1.0, 2.0, 0.0, 1.0], [1.0] * 12)] * 3)
def test_spline_segments_are_each_their_own_spline(segments):
    # Segments laid end to end in one solve take the pieces of their own
    # scipy CubicSpline, bit for bit: no equation couples two segments.
    from scipy.interpolate import CubicSpline

    xs, ys, want = [], [], []
    end = 0.0
    for values, gaps in segments:
        x = end + np.concatenate(([0.5], 0.5 + np.cumsum(gaps[: len(values) - 1])))
        end = x[-1]
        xs.append(x)
        ys.append(np.array(values))
        want.append(CubicSpline(x, ys[-1]).c)
    starts = np.cumsum([0] + [x.size for x in xs[:-1]])
    got = _cubic_pieces(np.concatenate(xs), np.concatenate(ys), starts)
    np.testing.assert_array_equal(got, np.concatenate(want, axis=1))


def test_every_kernel_rejects_non_finite_points():
    grid = [0.0, 1.0, 2.0, 3.0]
    kernels = [
        ZeroKernel(),
        ConstantKernel(2.0),
        LinearKernel(),
        ExponentialKernel(1.0, 0.0),
        TabulatedKernel(grid, [1.0, 2.0, 0.0, 1.0]),
    ]
    for M in kernels:
        for bad in (math.nan, [0.5, math.nan], np.array([[0.5], [math.inf]]), -math.inf):
            with pytest.raises(ValidationError, match="finite"):
                M(bad)
        assert np.isfinite(M(0.5))


def series_triangle(terms, grid):
    """K_M(t_i, s_j) assembled from the rows of a kernel series on ``grid``:
    sum_m s_j**m / m! terms[m-1, i-j] for i >= j, zero above the diagonal."""
    s = grid.nodes()
    lag = np.subtract.outer(np.arange(s.size), np.arange(s.size))
    K = np.zeros(lag.shape)
    w = np.ones(s.size)
    for m, row in enumerate(terms, 1):
        w = w * s / m
        K += np.where(lag >= 0, w * row[np.maximum(lag, 0)], 0.0)
    return K


def test_series_K_constant_kernel_positive():
    # K_M for M = -1 sums s**j/j! * t-convolutions of +1, all nonnegative
    grid = UniformGrid(200, 5.0)
    terms = kernel_series_K(ConstantKernel(-1.0), grid)
    assert terms.ndim == 2 and terms.shape[1] == 201
    assert series_triangle(terms, grid).min() >= -1e-12


# The kernels and grids of criteria 01 and 03 with the number of terms their
# series take; the counts were measured with the powers summed directly.
TAB_T = np.linspace(0.0, 12.0, 241)
SERIES_CASES = [
    (ZeroKernel(), UniformGrid(1024, 2.0), 1e-12, 1),
    (ConstantKernel(-1.0), UniformGrid(1024, 2.0), 1e-12, 14),
    (ExponentialKernel(4.0, 0.0), UniformGrid(1024, 2.0), 1e-12, 21),
    (ExponentialKernel(2.0, -1.0), UniformGrid(1024, 2.0), 1e-12, 16),
    (LinearKernel(), UniformGrid(1024, 2.0), 1e-12, 9),
    (ConstantKernel(-1.0), UniformGrid(512, 10.0), 1e-10, 36),
    (TabulatedKernel(TAB_T, -np.exp(-TAB_T / 2.0)), UniformGrid(512, 10.0), 1e-10, 34),
]


@pytest.mark.parametrize("M, grid, tol, terms", SERIES_CASES)
def test_series_rows_are_trapezoid_products(M, grid, tol, terms):
    # Row m + 1 is the trapezoidal product of -M with row m,
    # h (sum_r f[i-r] g[r] - (f[i] g[0] + f[0] g[i]) / 2); the series forms
    # the sum over r as an FFT product, here it is summed directly.
    rows = kernel_series_K(M, grid, tol)
    assert len(rows) == terms
    f = rows[0]
    np.testing.assert_array_equal(f, -M(grid.nodes()))
    for g, row in zip(rows[:-1], rows[1:]):
        want = grid.h * (np.convolve(f, g)[: f.size] - 0.5 * (f * g[0] + f[0] * g))
        assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))


def test_unconverged_series_is_refused():
    # On [0, 40] the bound on term m of M = 1, 40**(2m - 1) / (m! (m - 1)!),
    # is still about 1e27 at the last term allowed, so the series raises.
    with pytest.raises(SeriesDivergenceError, match=f"within {MAX_SERIES_TERMS} terms"):
        kernel_series_K(ExponentialKernel(1.0, 0.0), UniformGrid(256, 40.0))


def test_series_refuses_grid_past_tabulated_range():
    # The series samples the kernel at every grid node, so a grid that
    # outruns the table is refused, as a march past it is.
    g = np.linspace(0.0, 1.0, 11)
    M = TabulatedKernel(g, np.exp(-g))
    with pytest.raises(ValidationError):
        kernel_series_K(M, UniformGrid(64, 2.0))


def test_series_K_zero_kernel_is_zero():
    grid = UniformGrid(64, 2.0)
    tri = series_triangle(kernel_series_K(ZeroKernel(), grid), grid)
    np.testing.assert_array_equal(tri, np.zeros_like(tri))


def test_grid_validation():
    with pytest.raises(ValidationError):
        UniformGrid(0, 1.0)
    with pytest.raises(ValidationError):
        UniformGrid(10, -1.0)
    g = UniformGrid(10, 2.0)
    assert g.h == pytest.approx(0.2)
    assert g.nodes()[0] == 0.0 and g.nodes()[-1] == 2.0
