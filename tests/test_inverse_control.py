import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memobs import (
    ExponentialKernel,
    Interval,
    NumericalError,
    ObservationData,
    ObservationRegion,
    SamplingPlan,
    SpectralBasis,
    SpectralField,
    TabulatedKernel,
    ValidationError,
    backward_uniqueness_certificate,
    impulse_control,
    inverse_control,
    observation_gram,
    reconstruct_initial,
    simulate_controlled,
    simulate_observations,
    solve_modal_richardson,
)
from memobs import modal
from memobs.modal import CONTROLLED_N_MIN, DEFAULT_HLAM_MAX, _n_steps


def per_mode_jump_grid(taus, T, lam):
    """The jump grid of one mode, found on its own: the smallest multiple of
    the taus' common denominator at or above the mode's step count."""
    den = 1
    for tau in taus:
        frac = Fraction(tau / T).limit_denominator(10_000)
        if abs(float(frac) - tau / T) > 1e-12:
            raise NumericalError(
                f"impulse time {tau} does not align with a rational grid"
            )
        den = den * frac.denominator // math.gcd(den, frac.denominator)
        if den > 50_000:
            raise NumericalError("impulse times require an impractically fine grid")
    n_target = _n_steps(T, lam, CONTROLLED_N_MIN, DEFAULT_HLAM_MAX)
    return ((n_target + den - 1) // den) * den


# first zero of the mode-1 solution for M(t) = 4, lambda = 1
MODE1_ZERO = 0.68067221251729416
FULL = [[0.0, math.pi]]


def full_plan(times):
    return SamplingPlan([(t, FULL) for t in times])


class TestCertificate:
    def test_two_instants_certify_small_basis(self, cache):
        basis = SpectralBasis(math.pi, 8)
        cert = backward_uniqueness_certificate(
            [0.4, 1.0], ExponentialKernel(4.0, 0.0), basis, cache=cache
        )
        assert cert.certified and cert.failing_modes == ()
        assert cert.verdict == "certified up to 8"
        for w in cert.modes:
            assert w.certified
            assert w.witness_time in (0.4, 1.0)
            assert abs(w.value) > w.threshold

    def test_nodal_instant_fails_exactly_mode_one(self, cache):
        basis = SpectralBasis(math.pi, 8)
        cert = backward_uniqueness_certificate(
            [MODE1_ZERO], ExponentialKernel(4.0, 0.0), basis, cache=cache
        )
        assert not cert.certified
        assert cert.failing_modes == (1,)
        w = cert.modes[0]
        assert w.witness_time is None and abs(w.value) <= w.threshold

    def test_json_shape(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 4)
        cert = backward_uniqueness_certificate([0.5], exp_kernel, basis, cache=cache)
        doc = cert.to_json()
        assert doc["K"] == 4 and doc["verdict"] == cert.verdict
        assert len(doc["modes"]) == 4
        assert {"k", "lam", "value", "sup", "threshold"} <= set(doc["modes"][0])

    def test_validation(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 4)
        for bad_times in ([], [0.0], [-1.0], [math.nan]):
            with pytest.raises(ValidationError):
                backward_uniqueness_certificate(bad_times, exp_kernel, basis, cache=cache)
        with pytest.raises(ValidationError):
            backward_uniqueness_certificate([0.5], exp_kernel, basis, tol=0.0, cache=cache)
        with pytest.raises(ValidationError):
            backward_uniqueness_certificate([0.5], exp_kernel, basis, K=5, cache=cache)


class TestObservations:
    def make_data(self, cache, sigma=0.0, seed=0):
        basis = SpectralBasis(math.pi, 6)
        y0 = SpectralField(basis, [1.0, 0.5, -0.3, 0.2, 0.0, 0.1])
        plan = SamplingPlan([(0.5, [[0.2, 1.3]]), (0.8, [[0.0, 0.9], [2.0, 3.0]])])
        data = simulate_observations(
            y0, plan, ExponentialKernel(1.0, 0.0), sigma=sigma, seed=seed, cache=cache
        )
        return basis, y0, plan, data

    def test_block_layout(self, cache):
        _, _, plan, data = self.make_data(cache)
        assert len(data.blocks) == plan.m
        for entry, block in zip(plan.entries, data.blocks):
            assert block.t == entry.t
            assert block.xs.shape == block.values.shape == block.weights.shape
            # one grid per interval: 64 per unit length, at least two points
            expected = sum(
                max(2, math.ceil(64 * (iv.b - iv.a)) + 1)
                for iv in entry.region.intervals
            )
            assert block.xs.size == expected

    def test_noiseless_data_ignores_seed(self, cache):
        _, _, _, d1 = self.make_data(cache, sigma=0.0, seed=1)
        _, _, _, d2 = self.make_data(cache, sigma=0.0, seed=999)
        for b1, b2 in zip(d1.blocks, d2.blocks):
            np.testing.assert_array_equal(b1.values, b2.values)

    def test_noise_is_seeded(self, cache):
        _, _, _, base = self.make_data(cache)
        _, _, _, a = self.make_data(cache, sigma=1e-3, seed=7)
        _, _, _, b = self.make_data(cache, sigma=1e-3, seed=7)
        _, _, _, c = self.make_data(cache, sigma=1e-3, seed=8)
        np.testing.assert_array_equal(a.blocks[0].values, b.blocks[0].values)
        assert np.any(a.blocks[0].values != c.blocks[0].values)
        assert np.any(a.blocks[0].values != base.blocks[0].values)

    def test_weights_integrate_linear_exactly(self, cache):
        _, _, plan, data = self.make_data(cache)
        for entry, block in zip(plan.entries, data.blocks):
            total = sum(iv.b - iv.a for iv in entry.region.intervals)
            second = sum(0.5 * (iv.b**2 - iv.a**2) for iv in entry.region.intervals)
            assert float(np.sum(block.weights)) == pytest.approx(total, rel=1e-13)
            assert float(block.weights @ block.xs) == pytest.approx(second, rel=1e-13)

    def test_json_round_trip_rebuilds_weights(self, cache):
        _, _, _, data = self.make_data(cache, sigma=1e-3, seed=5)
        again = ObservationData.from_json(data.to_json())
        assert again.plan == data.plan
        assert again.sigma == data.sigma and again.seed == data.seed
        for b1, b2 in zip(data.blocks, again.blocks):
            np.testing.assert_array_equal(b1.xs, b2.xs)
            np.testing.assert_array_equal(b1.values, b2.values)
            np.testing.assert_array_equal(b1.weights, b2.weights)

    def test_from_json_validation(self, cache):
        _, _, _, data = self.make_data(cache)
        doc = data.to_json()
        with pytest.raises(ValidationError):
            ObservationData.from_json({k: v for k, v in doc.items() if k != "plan"})
        short = {**doc, "blocks": doc["blocks"][:1]}
        with pytest.raises(ValidationError):
            ObservationData.from_json(short)
        ragged = {**doc, "blocks": [dict(doc["blocks"][0]), dict(doc["blocks"][1])]}
        ragged["blocks"][0]["values"] = ragged["blocks"][0]["values"][:-1]
        with pytest.raises(ValidationError):
            ObservationData.from_json(ragged)
        for generator in (5, None, "numpy.random.default_rng"):
            with pytest.raises(ValidationError, match="generator"):
                ObservationData.from_json({**doc, "generator": generator})
        assert doc["generator"] == inverse_control.NOISE_GENERATOR

    def test_block_must_span_its_segment(self, cache):
        # A block cut to the first 64 of the 129 points that sample [0, 2]
        # would weigh [0, 63/64] alone; it is refused, at either end.
        basis = SpectralBasis(math.pi, 4)
        y0 = SpectralField(basis, [1.0, 0.5, -0.3, 0.2])
        plan = SamplingPlan([(0.5, [[0.0, 2.0]])])
        doc = simulate_observations(y0, plan, ExponentialKernel(1.0, 0.0)).to_json()
        block = doc["blocks"][0]
        assert len(block["xs"]) == 129
        for cut in (slice(None, 64), slice(65, None)):
            bad = {k: v[cut] if isinstance(v, list) else v for k, v in block.items()}
            with pytest.raises(ValidationError, match="do not span"):
                ObservationData.from_json({**doc, "blocks": [bad]})
        # one spacing short of an end is still a span: the trapezoid rule
        # then ends at the last point, as a grid that misses the end by
        # less than its step would
        inner = {k: v[1:] if isinstance(v, list) else v for k, v in block.items()}
        ObservationData.from_json({**doc, "blocks": [inner]})

    @pytest.mark.parametrize("per_unit", [16, 17, 64, 100])
    def test_simulated_blocks_round_trip_with_identical_weights(self, per_unit, cache):
        basis = SpectralBasis(math.pi, 4)
        y0 = SpectralField(basis, [1.0, 0.5, -0.3, 0.2])
        regions = [[[0.1, 0.37], [1.0 / 3.0, 2.9]], [[0.0, math.pi]]]
        plan = SamplingPlan([(0.5, regions[0]), (0.8, regions[1])])
        data = simulate_observations(
            y0, plan, ExponentialKernel(1.0, 0.0), per_unit, cache=cache
        )
        again = ObservationData.from_json(data.to_json())
        for b1, b2 in zip(data.blocks, again.blocks, strict=True):
            assert b1.weights.tobytes() == b2.weights.tobytes()

    def test_record_checks_its_numbers(self, cache):
        _, _, plan, data = self.make_data(cache)
        bad = [(math.nan, 0), (-1.0, 0), ("0.1", 0), (0.0, 1.5), (0.0, -1), (0.0, True)]
        for sigma, seed in bad:
            with pytest.raises(ValidationError, match="sigma|seed"):
                ObservationData(plan=plan, sigma=sigma, seed=seed, blocks=data.blocks)
        doc = data.to_json()
        for key, value in (("sigma", -1.0), ("seed", 0.5)):
            with pytest.raises(ValidationError, match=key):
                ObservationData.from_json({**doc, key: value})

    def test_region_open_at_a_shared_point_is_observed_as_its_closure(self, cache):
        # [0, L/2) u (L/2, L] misses one point, which changes no integral, so
        # it is sampled and weighted over [0, L]: its data, read back from
        # JSON too, and its reconstruction equal those of [0, L] bit for bit.
        basis = SpectralBasis(math.pi, 6)
        y0 = SpectralField(basis, [1.0, 0.5, -0.3, 0.2, 0.0, 0.1])
        M = ExponentialKernel(1.0, 0.0)
        half = math.pi / 2
        split = [Interval(0.0, half, True, False), Interval(half, math.pi, False, True)]
        runs = []
        for region in (split, [[0.0, math.pi]]):
            plan = SamplingPlan([(0.5, region), (0.8, [[0.2, 1.3]])])
            data = simulate_observations(y0, plan, M, sigma=1e-3, seed=3, cache=cache)
            rec = reconstruct_initial(data, M, basis, reg=1e-10, cache=cache)
            runs.append((data, ObservationData.from_json(data.to_json()), rec))
        (data, again, rec), (want, _, rec_want) = runs
        assert len(data.plan.regions[0].intervals) == 2
        for blocks in (data.blocks, again.blocks):
            for b, w in zip(blocks, want.blocks, strict=True):
                for name in ("xs", "values", "weights"):
                    assert getattr(b, name).tobytes() == getattr(w, name).tobytes()
        assert rec.coefficients.tobytes() == rec_want.coefficients.tobytes()
        # each interval still needs a sample point, and the shared point is
        # sampled once
        region = data.plan.regions[0]
        xs = data.blocks[0].xs
        with pytest.raises(ValidationError, match="no sample points"):
            inverse_control._segment_weights(xs[xs <= half], region)
        doubled = np.insert(xs, np.searchsorted(xs, half), half)
        with pytest.raises(ValidationError, match="strictly increasing"):
            inverse_control._segment_weights(doubled, region)

    def test_simulate_validation(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 4)
        y0 = SpectralField(basis, [1.0, 0.0, 0.0, 0.0])
        plan = full_plan([0.5])
        with pytest.raises(ValidationError):
            simulate_observations(y0, plan, exp_kernel, samples_per_unit=8, cache=cache)
        with pytest.raises(ValidationError):
            simulate_observations(y0, plan, exp_kernel, sigma=-1.0, cache=cache)


class TestReconstruction:
    def test_noiseless_recovery(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 8)
        a = 3.0 / np.arange(1, 9) ** 2
        y0 = SpectralField(basis, a)
        data = simulate_observations(y0, full_plan([0.5, 0.8]), exp_kernel, cache=cache)
        rec = reconstruct_initial(data, exp_kernel, basis, reg=1e-12, cache=cache)
        err = (rec.field - y0).hs_norm(-4) / y0.hs_norm(-4)
        assert err < 1e-8
        assert rec.residual < 1e-8 * rec.data_norm
        assert rec.condition >= 1.0

    def test_noisy_recovery_stays_close(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 8)
        y0 = SpectralField(basis, 3.0 / np.arange(1, 9) ** 2)
        data = simulate_observations(
            y0, full_plan([0.5, 0.8]), exp_kernel, sigma=1e-3, seed=11, cache=cache
        )
        rec = reconstruct_initial(data, exp_kernel, basis, reg=1e-6, cache=cache)
        err = (rec.field - y0).hs_norm(-4) / y0.hs_norm(-4)
        assert err < 1e-2

    def test_sub_basis_recovery(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 8)
        a = np.zeros(8)
        a[:4] = [1.0, -0.5, 0.25, 0.125]
        y0 = SpectralField(basis, a)
        data = simulate_observations(y0, full_plan([0.5, 0.8]), exp_kernel, cache=cache)
        rec = reconstruct_initial(data, exp_kernel, basis, K=4, reg=1e-12, cache=cache)
        assert rec.field.basis.K == 4
        np.testing.assert_allclose(rec.coefficients, a[:4], atol=1e-9)

    def test_singular_without_regularization(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 8)
        y0 = SpectralField(basis, np.ones(8))
        plan = SamplingPlan([(0.5, [[0.0, 0.02]])])
        data = simulate_observations(y0, plan, exp_kernel, cache=cache)
        with pytest.raises(NumericalError, match="singular"):
            reconstruct_initial(data, exp_kernel, basis, reg=0.0, cache=cache)
        rec = reconstruct_initial(data, exp_kernel, basis, reg=1e-6, cache=cache)
        assert np.all(np.isfinite(rec.coefficients))


class TestControl:
    def test_zero_target_needs_no_impulse(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 4)
        zero = SpectralField(basis, np.zeros(4))
        res = impulse_control(zero, zero, full_plan([0.3, 0.6]), 1.0, exp_kernel, cache=cache)
        assert res.energy == pytest.approx(0.0, abs=1e-25)
        np.testing.assert_allclose(res.achieved.coefficients, 0.0, atol=1e-13)

    def test_first_mode_steering(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 8)
        y0 = SpectralField(basis, np.zeros(8))
        e1 = np.zeros(8)
        e1[0] = 1.0
        y1 = SpectralField(basis, e1)
        plan = full_plan([0.3, 0.6])
        res = impulse_control(y0, y1, plan, 1.0, exp_kernel, cache=cache)
        assert res.rank == 8 and res.unreachable_modes == ()
        assert res.target_reachable
        np.testing.assert_allclose(res.achieved.coefficients, e1, atol=1e-10)
        # the Gram used for control is the observation Gram, not a variant
        Q = observation_gram(plan, exp_kernel, basis, cache=cache)
        np.testing.assert_allclose(res.gram, Q, atol=1e-12)
        assert res.energy == pytest.approx(res.cost, rel=1e-10)
        assert res.energy == pytest.approx(float(res.phi @ Q @ res.phi), rel=1e-12)

    def test_closed_loop_forward_simulation(self, cache, exp_kernel):
        # t = 1/3 is not on any dyadic grid; the jump march must land on it
        basis = SpectralBasis(math.pi, 8)
        y0 = SpectralField(basis, [0.5, -0.25, 0.1, 0.0, 0.05, 0.0, 0.0, 0.02])
        y1 = SpectralField(basis, [1.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        plan = full_plan([1.0 / 3.0, 0.6])
        res = impulse_control(y0, y1, plan, 1.0, exp_kernel, cache=cache)
        final = simulate_controlled(y0, res, exp_kernel)
        gap = np.max(np.abs(final.coefficients - y1.coefficients))
        assert gap < 1e-6

    def test_closed_loop_error_on_tabulated_kernel(self):
        # The closed-loop march restarts a fast layer at every impulse.  On
        # the controlled step floor its final state meets the achieved one
        # to 1.0e-11 relative; on the default cache's floor, to 3.8e-10.
        K, T = 10, 1.0
        basis = SpectralBasis(math.pi, K)
        grid = np.linspace(0.0, 6.0, 1201)
        M = TabulatedKernel(grid, 2.0 * np.exp(-0.6 * grid))
        plan = SamplingPlan(
            [
                (0.1, [[0.0, 1.2]]),
                (0.35, [[1.0, 2.2]]),
                (0.6, [[2.0, math.pi]]),
                (0.85, [[0.5, 2.5]]),
            ]
        )
        rng = np.random.default_rng(5)
        k = np.arange(1, K + 1)
        y0 = SpectralField(basis, 0.1 * rng.standard_normal(K) / k**2)
        target = 0.1 * rng.standard_normal(K) / k**2
        target[0] = 1.0
        res = impulse_control(y0, SpectralField(basis, target), plan, T, M)
        final = simulate_controlled(y0, res, M).coefficients
        achieved = res.achieved.coefficients
        assert np.linalg.norm(final - achieved) <= 1e-10 * np.linalg.norm(achieved)

    # At K = 27 three instants do not reach every mode; the rows are checked
    # all the same.
    @pytest.mark.filterwarnings("ignore:target has component:RuntimeWarning")
    def test_closed_loop_rows_equal_single_mode_marches(self, monkeypatch):
        # A tabulated decaying kernel and instants on a 1/40 grid, as in the
        # many-instants benchmark.  Modes 1 to 25 share the default jump
        # grid of 2560 steps and modes 26 and 27 need 2720 and 2920, so
        # there are three batches.  The second plan adds a region at
        # t = 0.45, so two impulses share a node and their increments sum.
        K, T = 27, 1.0
        basis = SpectralBasis(math.pi, K)
        grid = np.linspace(0.0, 6.0, 1201)
        M = TabulatedKernel(grid, 2.0 * np.exp(-0.6 * grid))
        entries = [(0.2, [[0.0, 1.5]]), (0.45, [[1.0, 2.5]]), (0.7, [[2.0, math.pi]])]
        k = np.arange(1, K + 1)
        y0 = SpectralField(basis, 0.1 * np.cos(k) / k**2)
        target = 0.05 / k**2
        target[0] = 1.0
        for plan in (
            SamplingPlan(entries),
            SamplingPlan(entries + [(0.45, [[0.2, 0.9]])]),
        ):
            res = impulse_control(y0, SpectralField(basis, target), plan, T, M)
            calls = []

            def counted(*args):
                calls.append(args[3])
                return solve_modal_richardson(*args)

            monkeypatch.setattr(modal, "solve_modal_richardson", counted)
            final = simulate_controlled(y0, res, M).coefficients
            monkeypatch.undo()
            taus = [imp.tau for imp in res.impulses]
            assert len(set(taus)) == 3
            grids = set()
            for idx, lam in enumerate(basis.eigenvalues.tolist()):
                n = per_mode_jump_grid(taus, T, lam)
                grids.add(n)
                jumps = {}
                for imp in res.impulses:
                    node = round(n * imp.tau / T)
                    jumps[node] = jumps.get(node, 0.0) + float(imp.applied[idx])
                x0 = float(y0.coefficients[idx])
                march = solve_modal_richardson(lam, M, T, n, x0, jumps)[1][-1]
                assert final[idx] == march
            assert len(grids) == 3 and sorted(calls) == sorted(grids)

    def test_unreachable_mode_is_reported(self, cache):
        # lambda_1 = 4 on (0, pi/2); with M = 4 the mode-1 solution is
        # (1 - 2 t) e^{-2 t}, which vanishes at the single instant 0.5
        basis = SpectralBasis(math.pi / 2, 4)
        M = ExponentialKernel(4.0, 0.0)
        plan = SamplingPlan([(0.5, [[0.0, math.pi / 2]])])
        y0 = SpectralField(basis, np.zeros(4))
        e2 = np.zeros(4)
        e2[1] = 1.0
        res = impulse_control(y0, SpectralField(basis, e2), plan, 1.0, M, cache=cache)
        assert res.unreachable_modes == (1,)
        assert res.rank == 3
        assert res.target_reachable
        np.testing.assert_allclose(res.achieved.coefficients, e2, atol=1e-8)

        e1 = np.zeros(4)
        e1[0] = 1.0
        with pytest.warns(RuntimeWarning, match="outside the reachable space"):
            bad = impulse_control(
                y0, SpectralField(basis, e1), plan, 1.0, M, cache=cache
            )
        assert not bad.target_reachable
        assert bad.reach_residual == pytest.approx(1.0, rel=1e-6)

    def test_validation(self, cache, exp_kernel):
        basis = SpectralBasis(math.pi, 4)
        zero = SpectralField(basis, np.zeros(4))
        with pytest.raises(ValidationError):
            impulse_control(zero, zero, full_plan([0.5]), 0.5, exp_kernel, cache=cache)
        other = SpectralField(SpectralBasis(1.0, 4), np.zeros(4))
        with pytest.raises(ValidationError):
            impulse_control(zero, other, full_plan([0.5]), 1.0, exp_kernel, cache=cache)
        # simulate_controlled starts from a y0 with the result's modes and domain
        res = impulse_control(zero, zero, full_plan([0.5]), 1.0, exp_kernel)
        short = SpectralField(SpectralBasis(math.pi, 2), np.zeros(2))
        with pytest.raises(ValidationError, match="truncation"):
            simulate_controlled(short, res, exp_kernel)
        with pytest.raises(ValidationError, match="domains"):
            simulate_controlled(other, res, exp_kernel)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    T=st.floats(0.5, 8.0),
    L=st.floats(0.3, 4.0),
    K=st.integers(1, 40),
    fracs=st.lists(
        st.tuples(st.integers(1, 200), st.integers(2, 201)), min_size=1, max_size=5
    ),
)
@example(T=1.0, L=math.pi, K=18, fracs=[(32, 40), (22, 40), (12, 40)])
@example(T=1.0, L=0.5, K=30, fracs=[(1, 199), (1, 197), (1, 193)])  # too fine
def test_jump_grids_match_per_mode_rule(T, L, K, fracs):
    # Random rational impulse sets: every mode's jump grid, found with one
    # denominator per call, equals the grid its own search finds, and an
    # impulse set that the per-mode search rejects is rejected alike.
    taus = [T * (p % q) / q for p, q in fracs if p % q]
    taus = taus or [T / 2]
    lams = SpectralBasis(L, K).eigenvalues
    try:
        want = {}
        for idx, lam in enumerate(lams.tolist()):
            want.setdefault(per_mode_jump_grid(taus, T, lam), []).append(idx)
    except NumericalError as exc:
        with pytest.raises(NumericalError, match=str(exc)):
            modal._jump_grids(lams, taus, T)
        return
    assert modal._jump_grids(lams, taus, T) == want


def test_jump_grids_reject_an_irrational_impulse_time():
    lams = SpectralBasis(math.pi, 4).eigenvalues
    with pytest.raises(NumericalError, match="does not align with a rational grid"):
        modal._jump_grids(lams, [1.0 / math.pi], 1.0)


@pytest.mark.parametrize("K", [2.5, 3.7])
@pytest.mark.parametrize("solve", ["certificate", "reconstruction", "control"])
def test_non_integer_K_is_rejected(solve, K, cache, exp_kernel):
    basis = SpectralBasis(math.pi, 4)
    plan = full_plan([0.5])
    zero = SpectralField(basis, np.zeros(4))
    data = simulate_observations(zero, plan, exp_kernel, cache=cache)
    calls = {
        "certificate": lambda: backward_uniqueness_certificate(
            [0.5], exp_kernel, basis, K=K, cache=cache
        ),
        "reconstruction": lambda: reconstruct_initial(
            data, exp_kernel, basis, K=K, cache=cache
        ),
        "control": lambda: impulse_control(
            zero, zero, plan, 1.0, exp_kernel, K=K, cache=cache
        ),
    }
    with pytest.raises(ValidationError, match="K must be an integer"):
        calls[solve]()


def per_point_weights(xs, region):
    """Trapezoid weights found point by point, one rule per interval: each
    interval takes the following points up to its end, and its first and
    last points lie within one of their spacings (plus 1e-12) of its ends."""
    w = np.zeros_like(xs)
    pos = 0
    for iv in region.intervals:
        hi = pos
        while hi < xs.size and xs[hi] <= iv.b + 1e-12:
            hi += 1
        pts = xs[pos:hi]
        if pts.size == 0 or np.any(pts < iv.a - 1e-12):
            raise ValidationError("rejected")
        if pts.size == 1:
            w[pos] = iv.b - iv.a
        else:
            d = np.diff(pts)
            if np.any(d <= 0):
                raise ValidationError("rejected")
            if pts[0] - iv.a > d[0] + 1e-12 or iv.b - pts[-1] > d[-1] + 1e-12:
                raise ValidationError("rejected")
            w[pos] = 0.5 * d[0]
            w[pos + 1 : hi - 1] = 0.5 * (d[:-1] + d[1:])
            w[hi - 1] = 0.5 * d[-1]
        pos = hi
    if pos != xs.size:
        raise ValidationError("rejected")
    return w


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    cuts=st.lists(st.integers(0, 40), min_size=2, max_size=8, unique=True),
    picks=st.lists(st.integers(0, 40), max_size=30, unique=True),
    extra=st.lists(st.integers(-2, 42), max_size=3),
    merge=st.booleans(),
)
@example(cuts=[0, 10, 20, 30], picks=[0, 5, 10, 20, 25, 30], extra=[], merge=True)
@example(cuts=[0, 10, 20, 30], picks=[0, 5, 10], extra=[], merge=True)
@example(cuts=[0, 10, 20, 30], picks=[0, 5, 10, 20, 30], extra=[10], merge=True)
# points that stop short of an end by more than their spacing
@example(cuts=[0, 10, 20, 30], picks=[0, 2, 20, 25, 30], extra=[], merge=True)
@example(cuts=[0, 10, 20, 30], picks=[0, 5, 10, 27, 30], extra=[], merge=True)
def test_segment_weights_match_per_point_rule(cuts, picks, extra, merge):
    # Regions whose intervals share no point, against the point-by-point
    # rule: the same points are rejected, and the others get the same
    # weights bit for bit.  Points lie on a grid of step 1/8: the drawn
    # ones inside the region, sorted, and a few anywhere, merged in order
    # or appended.
    cuts = sorted(cuts)
    pairs = list(zip(cuts[:-1:2], cuts[1::2]))
    region = ObservationRegion([(a / 8, b / 8) for a, b in pairs])
    inside = sorted(t for t in picks if any(a <= t <= b for a, b in pairs))
    xs = np.array(sorted(inside + extra) if merge else inside + extra, dtype=float) / 8
    try:
        want = per_point_weights(xs, region)
    except ValidationError:
        with pytest.raises(ValidationError):
            inverse_control._segment_weights(xs, region)
        return
    assert inverse_control._segment_weights(xs, region).tobytes() == want.tobytes()
