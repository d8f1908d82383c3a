import math
import warnings

import numpy as np
import pytest

from memobs import (
    ExponentialKernel,
    Interval,
    ModalCache,
    ObservationRegion,
    SamplingPlan,
    SpectralBasis,
    ValidationError,
    ZeroKernel,
    check_geometric_condition,
    check_kernel_nonvanishing,
    closed_form_exp,
    constants_table,
    observability_constants,
    observation_gram,
    probe_coefficients,
    probe_upper_bound,
)

# ball of radius 0.1 at x0 = 0.8, basis on (0, pi); quad-confirmed
PROBE_A1 = 0.2555440561526388
PROBE_A5 = -161.8336362724859

# smallest diagonal entry of the zero-kernel form, instants {0.5, 0.8}
ZERO_CMIN_8 = 5.187242208908974e-11

FULL = [[0.0, math.pi]]


def full_plan(times):
    return SamplingPlan([(t, FULL) for t in times])


class TestPlan:
    def test_construction_and_properties(self):
        plan = SamplingPlan([(0.5, [[0.0, 1.0]]), (0.8, [[1.5, 2.0], [2.5, 3.0]])])
        assert plan.m == 2
        assert plan.times == [0.5, 0.8]
        assert plan.regions[1].measure == pytest.approx(1.0)

    def test_rejects_bad_instants(self):
        with pytest.raises(ValidationError):
            SamplingPlan([])
        with pytest.raises(ValidationError):
            SamplingPlan([(0.0, FULL)])
        with pytest.raises(ValidationError):
            SamplingPlan([(-1.0, FULL)])
        with pytest.raises(ValidationError):
            SamplingPlan([(math.inf, FULL)])

    def test_rejects_empty_region(self):
        with pytest.raises(ValidationError, match=r"instants\[1\]"):
            SamplingPlan([(0.5, FULL), (0.8, [])])
        with pytest.raises(ValidationError, match=r"instants\[0\]"):
            SamplingPlan.from_json({"instants": [{"t": 0.5, "region": []}]})

    def test_json_round_trip(self):
        plan = SamplingPlan([(0.5, [[0.0, 1.0]]), (1.25, [[2.0, 3.0]])])
        again = SamplingPlan.from_json(plan.to_json())
        assert again == plan

    def test_from_json_schema_errors(self):
        with pytest.raises(ValidationError):
            SamplingPlan.from_json({"times": []})
        with pytest.raises(ValidationError):
            SamplingPlan.from_json({"instants": [{"t": 0.5}]})
        with pytest.raises(ValidationError):
            SamplingPlan.from_json(
                {"instants": [{"t": 0.5, "region": FULL, "extra": 1}]}
            )


class TestGeometry:
    def test_kernel_nonvanishing(self):
        plan = full_plan([0.5, 0.8])
        ok, J = check_kernel_nonvanishing(plan, ExponentialKernel(1.0, 0.0))
        assert ok and J == [0, 1]
        ok, J = check_kernel_nonvanishing(plan, ZeroKernel())
        assert not ok and J == []

    def test_strong_one_instant(self):
        v = check_geometric_condition(
            full_plan([0.5]), ExponentialKernel(1.0, 0.0), math.pi
        )
        assert v.kind == "Strong"
        assert v.uncovered_intervals == () and v.uncovered_points == ()

    def test_strong_split_across_instants(self):
        plan = SamplingPlan([(0.5, [[0.0, 2.0]]), (0.8, [[1.9, math.pi]])])
        v = check_geometric_condition(plan, ExponentialKernel(1.0, 0.0), math.pi)
        assert v.kind == "Strong"

    def test_weak_single_missing_point(self):
        # both endpoints open at the junction, so exactly {1.0} is uncovered
        plan = SamplingPlan(
            [
                (0.5, ObservationRegion([Interval(0.0, 1.0, closed_right=False)])),
                (0.8, ObservationRegion([Interval(1.0, math.pi, closed_left=False)])),
            ]
        )
        v = check_geometric_condition(plan, ExponentialKernel(1.0, 0.0), math.pi)
        assert v.kind == "Weak"
        assert v.uncovered_points == (1.0,)

    def test_weak_open_right_end(self):
        # [0, L) leaves exactly the end point L uncovered
        region = ObservationRegion([Interval(0.0, math.pi, closed_right=False)])
        v = check_geometric_condition(
            SamplingPlan([(0.5, region)]), ExponentialKernel(1.0, 0.0), math.pi
        )
        assert v.kind == "Weak"
        assert v.uncovered_intervals == () and v.uncovered_points == (math.pi,)

    def test_common_end_keeps_the_closed_side(self):
        # [0, 1) u [0.5, 1] ends closed at 1, so (1, L] joins it: [0, L]
        region = ObservationRegion(
            [
                Interval(0.0, 1.0, closed_right=False),
                Interval(0.5, 1.0),
                Interval(1.0, math.pi, closed_left=False),
            ]
        )
        assert region.intervals == (Interval(0.0, math.pi),)
        v = check_geometric_condition(
            SamplingPlan([(0.5, region)]), ExponentialKernel(1.0, 0.0), math.pi
        )
        assert v.kind == "Strong"
        assert v.uncovered_intervals == () and v.uncovered_points == ()

    def test_fail_reports_gap(self):
        plan = SamplingPlan([(0.5, [[0.0, 1.0]]), (0.8, [[2.0, math.pi]])])
        v = check_geometric_condition(plan, ExponentialKernel(1.0, 0.0), math.pi)
        assert v.kind == "Fail"
        (gap,) = v.uncovered_intervals
        assert gap[0] == pytest.approx(1.0) and gap[1] == pytest.approx(2.0)

    def test_zero_kernel_discards_all_instants(self):
        # coverage is perfect, but every instant sees a vanished kernel
        v = check_geometric_condition(full_plan([0.5, 0.8]), ZeroKernel(), math.pi)
        assert v.kind == "Fail"
        (gap,) = v.uncovered_intervals
        assert gap[:2] == (0.0, math.pi)


class TestGram:
    def test_full_domain_gram_is_diagonal(self, cache):
        basis = SpectralBasis(math.pi, 6)
        M = ExponentialKernel(1.0, 0.0)
        plan = full_plan([0.5, 0.8])
        Q = observation_gram(plan, M, basis, cache=cache)
        off = Q - np.diag(np.diagonal(Q))
        assert np.max(np.abs(off)) < 1e-13
        # independent route: the modal values have a closed form here
        expect = [
            sum(closed_form_exp(lam, 1.0, 0.0, t) ** 2 for t in (0.5, 0.8))
            for lam in basis.eigenvalues
        ]
        np.testing.assert_allclose(np.diagonal(Q), expect, rtol=1e-8)

    def test_partial_region_gram_is_psd_symmetric(self, cache):
        basis = SpectralBasis(math.pi, 8)
        plan = SamplingPlan([(0.5, [[0.2, 1.3]]), (0.9, [[1.1, 2.8]])])
        Q = observation_gram(plan, ExponentialKernel(1.0, 0.0), basis, cache=cache)
        assert np.array_equal(Q, Q.T)
        assert np.linalg.eigvalsh(Q)[0] > -1e-14

    def test_truncation_is_leading_block(self, cache):
        basis = SpectralBasis(math.pi, 8)
        plan = SamplingPlan([(0.5, [[0.2, 1.3]])])
        M = ExponentialKernel(1.0, 0.0)
        Q8 = observation_gram(plan, M, basis, cache=cache)
        Q4 = observation_gram(plan, M, basis, K=4, cache=cache)
        np.testing.assert_allclose(Q4, Q8[:4, :4], atol=1e-15)
        with pytest.raises(ValidationError):
            observation_gram(plan, M, basis, K=9, cache=cache)


class TestConstants:
    def test_zero_kernel_constant_matches_analytic(self, cache):
        basis = SpectralBasis(math.pi, 8)
        c = observability_constants(full_plan([0.5, 0.8]), ZeroKernel(), basis, cache=cache)
        lam = basis.eigenvalues
        diag = lam**4 * (np.exp(-2 * 0.5 * lam) + np.exp(-2 * 0.8 * lam))
        analytic = math.sqrt(float(np.min(diag)))
        assert analytic == pytest.approx(ZERO_CMIN_8, rel=1e-10)
        assert c.c_min == pytest.approx(analytic, rel=1e-4)

    def test_underflowed_mode_gives_exact_zero_with_warning(self, cache):
        basis = SpectralBasis(math.pi, 64)
        with pytest.warns(RuntimeWarning, match="unobserved"):
            c = observability_constants(
                full_plan([0.5, 0.8]), ZeroKernel(), basis, cache=cache
            )
        assert c.c_min == 0.0 and c.mu_min == 0.0
        assert c.warnings

    def test_clamp_warning_points_at_the_caller(self, cache):
        # one instant over a sliver: the scaled form is numerically singular
        plan = SamplingPlan([(0.5, [[0.0, 0.02]])])
        basis = SpectralBasis(math.pi, 8)
        for entry in (
            lambda: observability_constants(plan, ZeroKernel(), basis, cache=cache),
            lambda: constants_table(plan, ZeroKernel(), basis, [4, 8], cache),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                entry()
            assert caught
            for w in caught:
                assert w.category is RuntimeWarning
                assert w.filename == __file__

    def test_bracket_relations(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 8)
        plan = SamplingPlan([(0.5, [[0.2, 1.3]]), (0.9, [[1.1, 2.8]])])
        c = observability_constants(plan, exp_kernel, basis, cache=cache)
        assert 0 < c.c_min <= c.c_max
        assert c.lower_bracket == c.c_min
        assert c.upper_bracket == pytest.approx(math.sqrt(2) * c.c_max)
        assert c.mu_min <= c.mu_min_upper + 1e-30

    def test_table_is_monotone_in_K(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 32)
        plan = full_plan([0.5, 0.8])
        table = constants_table(plan, exp_kernel, basis, [4, 8, 16, 32], cache=cache)
        assert [c.K for c in table] == [4, 8, 16, 32]
        cmins = [c.c_min for c in table]
        cmaxs = [c.c_max for c in table]
        # leading-submatrix eigenvalues interlace
        assert all(a >= b - 1e-15 for a, b in zip(cmins, cmins[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(cmaxs, cmaxs[1:]))

    def test_requires_two_modes(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 8)
        with pytest.raises(ValidationError):
            observability_constants(full_plan([0.5]), exp_kernel, basis, K=1, cache=cache)
        with pytest.raises(ValidationError):
            constants_table(full_plan([0.5]), exp_kernel, basis, [], cache=cache)


class TestProbe:
    def test_coefficients_match_quadrature(self):
        basis = SpectralBasis(math.pi, 6)
        a = probe_coefficients(basis, 0.8, 0.1)
        assert a[0] == pytest.approx(PROBE_A1, rel=1e-13)
        assert a[4] == pytest.approx(PROBE_A5, rel=1e-13)

    def test_ball_clipped_at_boundary(self):
        basis = SpectralBasis(math.pi, 4)
        a_in = probe_coefficients(basis, 0.05, 0.1)
        # same support as the clipped ball [0, 0.15] centered differently
        a_clip = probe_coefficients(basis, 0.075, 0.075)
        np.testing.assert_allclose(a_in, a_clip, rtol=1e-12)

    def test_coefficient_validation(self):
        basis = SpectralBasis(math.pi, 4)
        with pytest.raises(ValidationError):
            probe_coefficients(basis, 0.8, 0.0)
        with pytest.raises(ValidationError):
            probe_coefficients(basis, -5.0, 0.1)

    def test_ratios_sit_inside_the_brackets(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 24)
        plan = SamplingPlan([(0.5, [[0.0, 2.0]]), (0.8, [[1.5, math.pi]])])
        res = probe_upper_bound(plan, exp_kernel, basis, 0.8, [0.2, 0.1], cache=cache)
        c = observability_constants(plan, exp_kernel, basis, cache=cache)
        for r, ratio in res.rows:
            assert c.c_min - 1e-12 <= ratio <= c.upper_bracket + 1e-12
        assert res.radii == (0.2, 0.1)

    def test_radii_validation(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 8)
        plan = full_plan([0.5])
        for bad in ([], [0.1, 0.1], [0.05, 0.1], [0.1, -0.05], [0.2, math.nan]):
            with pytest.raises(ValidationError):
                probe_upper_bound(plan, exp_kernel, basis, 0.8, bad, cache=cache)
