import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from memobs import (
    Interval,
    ObservationRegion,
    SamplingPlan,
    SpectralBasis,
    SpectralField,
    ValidationError,
    complement,
    overlap_matrix,
)

# Independent quadrature values of int e_k e_l over [0.3, 1.1] at L = pi
# (scipy.integrate.quad, epsabs 1e-14).
QUAD_G = {
    (1, 1): 0.2158373505275776,
    (2, 3): 0.29803170527697564,
    (5, 5): 0.29097057520061775,
}


def test_eigenvalues_are_squared_wavenumbers():
    basis = SpectralBasis(math.pi, 4)
    np.testing.assert_allclose(basis.eigenvalues, [1.0, 4.0, 9.0, 16.0], rtol=1e-14)
    e2 = basis.modes_at(math.pi / 4)[:, 1]
    assert e2.shape == (1,)
    assert e2[0] == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)


def test_eigenfunctions_orthonormal_under_quadrature():
    basis = SpectralBasis(2.5, 5)

    def e(k):
        return lambda x: basis.modes_at(x)[0, k - 1]

    for k in range(1, 6):
        val, _ = quad(lambda x: e(k)(x) ** 2, 0.0, 2.5, limit=100)
        assert val == pytest.approx(1.0, abs=1e-12)
    cross, _ = quad(lambda x: e(1)(x) * e(4)(x), 0.0, 2.5, limit=100)
    assert abs(cross) < 1e-12


def test_basis_validation():
    with pytest.raises(ValidationError):
        SpectralBasis(0.0, 4)
    with pytest.raises(ValidationError):
        SpectralBasis(1.0, 0)
    basis = SpectralBasis(1.0, 3)
    for bad in (1.5, -0.1, [0.5, 1.5]):  # outside [0, L]
        with pytest.raises(ValidationError, match="outside"):
            basis.modes_at(bad)
    for bad in (math.nan, [0.5, math.nan]):
        with pytest.raises(ValidationError):
            basis.modes_at(bad)
    # the 1e-12 slack at the ends
    assert basis.modes_at([-1e-13, 1.0 + 1e-13]).shape == (2, 3)


def test_field_arithmetic_and_validation():
    basis = SpectralBasis(math.pi, 3)
    f = SpectralField(basis, [1.0, 0.0, -2.0])
    g = SpectralField(basis, [0.5, 1.0, 0.0])
    np.testing.assert_allclose((f + g).coefficients, [1.5, 1.0, -2.0])
    np.testing.assert_allclose((f - g).coefficients, [0.5, -1.0, -2.0])
    np.testing.assert_allclose((2.0 * f).coefficients, [2.0, 0.0, -4.0])
    with pytest.raises(ValidationError):
        SpectralField(basis, [1.0, 2.0])
    with pytest.raises(ValidationError):
        SpectralField(basis, [1.0, float("nan"), 0.0])
    # bools and strings are not numbers, in a list or in an array
    for bad in ([True, False, True], np.ones(3, dtype=bool), [1.0, "2", 0.0]):
        with pytest.raises(ValidationError, match="coefficients must be a number"):
            SpectralField(basis, bad)
    other = SpectralField(SpectralBasis(1.0, 3), [1, 2, 3])
    with pytest.raises(ValidationError):
        f + other


def test_hs_norm_hand_values():
    basis = SpectralBasis(math.pi, 2)  # lam = 1, 4
    f = SpectralField(basis, [3.0, 4.0])
    assert f.hs_norm(0.0) == pytest.approx(5.0, rel=1e-15)
    assert f.hs_norm(-4.0) == pytest.approx(math.sqrt(9.0 + 16.0 / 256.0), rel=1e-14)
    assert f.hs_norm(2.0) == pytest.approx(math.sqrt(9.0 + 16.0 * 16.0), rel=1e-14)


def test_eval_field_matches_sum():
    # A field at points is modes_at(x) @ coefficients; check it against the
    # sum of the closed-form modes a_k sqrt(2/L) sin(k pi x / L).
    basis = SpectralBasis(math.pi, 3)
    f = SpectralField(basis, [1.0, -0.5, 0.25])
    xs = [0.3, 1.1, 2.0]
    expect = [
        sum(
            f.coefficients[k - 1] * math.sqrt(2 / math.pi) * math.sin(k * x)
            for k in (1, 2, 3)
        )
        for x in xs
    ]
    arr = basis.modes_at(xs) @ f.coefficients
    assert arr.shape == (3,)
    np.testing.assert_allclose(arr, expect, rtol=1e-14)


def test_overlap_full_domain_is_identity():
    basis = SpectralBasis(math.pi, 6)
    G = overlap_matrix(basis, ObservationRegion([[0.0, math.pi]]))
    np.testing.assert_allclose(G, np.eye(6), atol=1e-14)


def test_overlap_against_quadrature():
    basis = SpectralBasis(math.pi, 5)
    G = overlap_matrix(basis, ObservationRegion([[0.3, 1.1]]))
    for (k, l), val in QUAD_G.items():
        assert G[k - 1, l - 1] == pytest.approx(val, abs=1e-13)
    # closed form for the half-interval cross term: G_12 = 4/(3 pi)
    G2 = overlap_matrix(basis, ObservationRegion([[0.0, math.pi / 2]]))
    assert G2[0, 1] == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-14)
    np.testing.assert_allclose(G, G.T, atol=1e-15)
    w = np.linalg.eigvalsh(G)
    assert w.min() > -1e-12 and w.max() < 1.0 + 1e-12


def test_overlap_additive_over_disjoint_pieces():
    basis = SpectralBasis(1.0, 4)
    Ga = overlap_matrix(basis, ObservationRegion([[0.0, 0.3]]))
    Gb = overlap_matrix(basis, ObservationRegion([[0.6, 1.0]]))
    Gu = overlap_matrix(basis, ObservationRegion([[0.0, 0.3], [0.6, 1.0]]))
    np.testing.assert_allclose(Ga + Gb, Gu, atol=1e-15)


def overlap_per_endpoint(basis, region):
    """The overlap matrix with one antiderivative evaluation per endpoint."""
    K, L = basis.K, basis.L
    k = np.arange(1, K + 1)
    kk = k[:, None].astype(float)
    ll = k[None, :].astype(float)
    dif = kk - ll
    ssum = kk + ll
    dif_safe = np.where(dif == 0.0, 1.0, dif)

    def anti(x):
        off = np.sin(dif * np.pi * x / L) / (dif_safe * np.pi)
        out = off - np.sin(ssum * np.pi * x / L) / (ssum * np.pi)
        diag = x / L - np.sin(2.0 * k * np.pi * x / L) / (2.0 * k * np.pi)
        np.fill_diagonal(out, diag)
        return out

    G = np.zeros((K, K))
    for it in region.intervals:
        a = min(max(it.a, 0.0), L)
        b = min(max(it.b, 0.0), L)
        G += anti(b) - anti(a)
    return G


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    L=st.floats(0.3, 6.0),
    K=st.integers(1, 48),
    cuts=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10, unique=True),
    opens=st.lists(st.booleans(), min_size=10, max_size=10),
    overhang=st.sampled_from([0.0, 5e-13]),
)
@example(L=math.pi, K=8, cuts=[0.0, 1.0], opens=[False] * 10, overhang=5e-13)
def test_overlap_matrix_equals_per_endpoint_sum(L, K, cuts, opens, overhang):
    # Every endpoint in one array pass gives the per-endpoint floats bit for
    # bit: several intervals, open endpoints, and ends a rounding allowance
    # outside [0, L] that are clipped onto it.
    pts = sorted(L * c for c in cuts)
    pts[0] -= overhang
    pts[-1] += overhang
    pieces = [
        Interval(a, b, opens[2 * i % 10], opens[(2 * i + 1) % 10])
        for i, (a, b) in enumerate(zip(pts[::2], pts[1::2]))
        if a < b
    ]
    basis = SpectralBasis(L, K)
    region = ObservationRegion(pieces)
    G = overlap_matrix(basis, region)
    assert G.tobytes() == overlap_per_endpoint(basis, region).tobytes()


def test_region_merging_and_measure():
    reg = ObservationRegion([[0.5, 1.0], [0.0, 0.6], [2.0, 2.5]])
    assert reg.as_pairs() == [(0.0, 1.0), (2.0, 2.5)]
    assert reg.measure == pytest.approx(1.5)
    assert reg.contains(0.55) and not reg.contains(1.5)
    with pytest.raises(ValidationError):
        ObservationRegion([[1.0, 0.5]])
    with pytest.raises(ValidationError):
        ObservationRegion([[0.0, 2.0]], L=1.0)
    with pytest.raises(ValidationError):
        Interval(0.0, math.inf)
    for bad in ([0.0, "1"], [0.0, True], [0.0, 1.0, "x", True], [0.0, 1.0, 1, True]):
        with pytest.raises(ValidationError, match=r"region\[0\]\["):
            ObservationRegion([bad])


def test_open_endpoints_leave_a_point_uncovered():
    # [0, 1) u (1, 2] covers everything except the single point 1
    reg = ObservationRegion(
        [Interval(0.0, 1.0, True, False), Interval(1.0, 2.0, False, True)]
    )
    assert len(reg.intervals) == 2
    unc = complement(reg, 2.0)
    assert unc.intervals == ()
    assert unc.points == (1.0,)
    # closing either side merges the pieces
    closed = ObservationRegion([[0.0, 1.0], Interval(1.0, 2.0, False, True)])
    assert len(closed.intervals) == 1
    assert complement(closed, 2.0).is_empty


def test_complement_reports_gaps():
    reg = ObservationRegion([[0.2, 0.5], [0.9, 1.0]])
    unc = complement(reg, 1.0)
    gaps = [(lo, hi) for lo, hi, _, _ in unc.intervals]
    assert gaps == [(0.0, 0.2), (0.5, 0.9)]
    assert not unc.is_empty and unc.has_measure


def test_region_json_round_trip():
    reg = ObservationRegion([[0.1, 0.4], Interval(0.6, 0.9, False, True)])
    back = ObservationRegion.from_json(reg.to_json())
    assert back == reg
    # a flag is written as it is stored, so only true or false is stored,
    # and every pair of flags reads back through a plan's JSON
    for bad in (0, 1, "true", None):
        with pytest.raises(ValidationError, match="closed_left"):
            Interval(0.0, 1.0, bad, True)
        with pytest.raises(ValidationError, match="closed_right"):
            Interval(0.0, 1.0, True, bad)
    for left in (True, False):
        for right in (True, False):
            plan = SamplingPlan([(0.5, [Interval(0.0, 1.0, left, right), [1.5, 2.0]])])
            back = SamplingPlan.from_json(json.loads(json.dumps(plan.to_json())))
            assert back == plan
            assert back.regions[0].intervals[0] == Interval(0.0, 1.0, left, right)
    with pytest.raises(ValidationError):
        ObservationRegion.from_json({"a": 1})
