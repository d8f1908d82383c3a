"""Acceptance gate: one test per shipped guarantee, each with its stated
tolerance and runtime budget.  Every test records a PASS/FAIL line that the
terminal summary prints after the run."""

import math
import time
import warnings

import numpy as np
import pytest

from memobs import (
    ConstantKernel,
    ExponentialKernel,
    LinearKernel,
    ModalCache,
    SamplingPlan,
    SpectralBasis,
    SpectralField,
    TabulatedKernel,
    UniformGrid,
    ZeroKernel,
    backward_uniqueness_certificate,
    check_geometric_condition,
    closed_form_exp,
    constants_table,
    decomposition_residual,
    impulse_control,
    kernel_series_K,
    nodal_set_exp_closed,
    nodal_set_numeric,
    observation_gram,
    probe_upper_bound,
    reconstruct_initial,
    series_solution_grid,
    simulate_controlled,
    simulate_observations,
    solve_modal_volterra,
)

from test_cli import CONFIGS, artifact_bytes, run_cli
from test_kernels import series_triangle

LAMS = (1.0, 4.0, 9.0)
PI = math.pi


def second_order_closed(lam, c, t):
    """Roots-based solution of x'' + lam x' + c x = 0, x(0)=1, x'(0)=-lam."""
    s = math.sqrt(lam * lam - 4.0 * c)
    wp = 0.5 * (-lam + s)
    wm = 0.5 * (-lam - s)
    return (wp * np.exp(wp * t) - wm * np.exp(wm * t)) / (wp - wm)


def linear_kernel_closed(lam, t):
    """Characteristic-root solution of x''' + lam x'' + x = 0 with the
    initial jet (1, -lam, lam^2) implied by the modal equation."""
    z = np.roots([1.0, lam, 0.0, 1.0])
    V = np.vander(z, 3, increasing=True).T
    A = np.linalg.solve(V, np.array([1.0, -lam, lam * lam], dtype=complex))
    return np.real(np.exp(np.outer(t, z)) @ A)


def test_criterion_01_modal_oracle_triangle(record_criterion):
    """March, series, and closed form agree pairwise to 1e-5 on [0, 2]."""
    t0 = time.monotonic()
    grid = UniformGrid(8192, 2.0)
    tg = grid.nodes()
    kernels = {
        "zero": ZeroKernel(),
        "constant": ConstantKernel(-1.0),
        "exp(4,0)": ExponentialKernel(4.0, 0.0),
        "exp(2,-1)": ExponentialKernel(2.0, -1.0),
        "linear": LinearKernel(),
    }
    closed = {
        "zero": lambda lam: np.exp(-lam * tg),
        "constant": lambda lam: second_order_closed(lam, -1.0, tg),
        "exp(4,0)": lambda lam: closed_form_exp(lam, 4.0, 0.0, tg),
        "exp(2,-1)": lambda lam: closed_form_exp(lam, 2.0, -1.0, tg),
        "linear": lambda lam: linear_kernel_closed(lam, tg),
    }
    worst = 0.0
    for name, M in kernels.items():
        for lam in LAMS:
            march = solve_modal_volterra(lam, M, 2.0, 8192)[1]
            series = series_solution_grid(lam, M, grid, 1e-12)
            exact = closed[name](lam)
            for a, b in ((march, series), (march, exact), (series, exact)):
                worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    record_criterion(
        "01", ok, f"max pairwise modal error {worst:.2e} < 1e-5; {elapsed:.1f}s < 30s"
    )
    assert worst < 1e-5
    assert elapsed < 30.0


def test_criterion_02_nodal_ladder(record_criterion):
    """Numeric zeros reproduce the closed-form ladder and its spacing."""
    t0 = time.monotonic()
    M = ExponentialKernel(4.0, 0.0)
    worst_zero = 0.0
    worst_spacing = 0.0
    for lam in LAMS:
        numeric = nodal_set_numeric(lam, M, 10.0)
        ladder = nodal_set_exp_closed(lam, 4.0, 0.0, 10.0)
        assert len(numeric.zeros) == len(ladder.zeros) > 0
        worst_zero = max(
            worst_zero,
            float(np.max(np.abs(np.array(numeric.zeros) - np.array(ladder.zeros)))),
        )
        s = (lam + 0.0) ** 2 - 4.0 * 4.0
        if s < 0:
            spacing = PI / math.sqrt(4.0 - lam * lam / 4.0)
            gaps = np.diff(numeric.zeros)
            worst_spacing = max(worst_spacing, float(np.max(np.abs(gaps - spacing))))
    elapsed = time.monotonic() - t0
    ok = worst_zero < 1e-8 and worst_spacing < 1e-8 and elapsed < 10.0
    record_criterion(
        "02",
        ok,
        f"zero error {worst_zero:.2e}, spacing error {worst_spacing:.2e} < 1e-8; "
        f"{elapsed:.1f}s < 10s",
    )
    assert worst_zero < 1e-8
    assert worst_spacing < 1e-8
    assert elapsed < 10.0


def test_criterion_03_nonpositive_kernels(record_criterion):
    """Nonpositive kernels give a nonnegative series kernel and no zeros."""
    t0 = time.monotonic()
    ts = np.linspace(0.0, 12.0, 241)
    kernels = [
        ConstantKernel(-1.0),
        TabulatedKernel(ts, -np.exp(-ts / 2.0)),
    ]
    grid = UniformGrid(512, 10.0)
    min_K = math.inf
    empty = True
    for M in kernels:
        terms = kernel_series_K(M, grid, 1e-10)
        tri = series_triangle(terms, grid)[np.tril_indices(grid.n_steps + 1)]
        min_K = min(min_K, float(np.min(tri)))
        for lam in LAMS:
            nodal = nodal_set_numeric(lam, M, 10.0)
            empty = empty and len(nodal.zeros) == 0 and len(nodal.flags) == 0
    elapsed = time.monotonic() - t0
    ok = min_K >= -1e-12 and empty and elapsed < 10.0
    record_criterion(
        "03",
        ok,
        f"min K_M {min_K:.2e} >= -1e-12, nodal sets empty: {empty}; "
        f"{elapsed:.1f}s < 10s",
    )
    assert min_K >= -1e-12
    assert empty
    assert elapsed < 10.0


def test_criterion_04_decomposition_residual(record_criterion):
    """lambda_k^2 x_k(t) + M(t) vanishes with slope <= -0.8 up the spectrum."""
    t0 = time.monotonic()
    basis = SpectralBasis(PI, 32)
    table = decomposition_residual(ExponentialKernel(1.0, 0.0), 1.0, basis)
    tail = float(table.lams[-1] ** 2 * table.x_values[-1])
    tail_err = abs(tail - (-1.0))
    elapsed = time.monotonic() - t0
    ok = table.slope <= -0.8 and tail_err <= 0.05 and elapsed < 20.0
    record_criterion(
        "04",
        ok,
        f"slope {table.slope:.3f} <= -0.8, lam^2 x at k=32 within "
        f"{100 * tail_err:.2f}% of -1; {elapsed:.1f}s < 20s",
    )
    assert table.slope <= -0.8
    assert tail_err <= 0.05
    assert elapsed < 20.0


def test_criterion_05_constants_stability_and_memoryless_collapse(record_criterion):
    """c_min stabilizes in K with memory and collapses without it."""
    t0 = time.monotonic()
    basis = SpectralBasis(PI, 64)
    plan = SamplingPlan([(0.5, [[0.0, PI]]), (0.8, [[0.0, PI]])])
    exp_table = constants_table(
        plan, ExponentialKernel(1.0, 0.0), basis, [32, 64], cache=ModalCache()
    )
    change = abs(exp_table[1].c_min - exp_table[0].c_min) / exp_table[0].c_min
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        zero_table = constants_table(plan, ZeroKernel(), basis, [8, 64], cache=ModalCache())
    ratio = zero_table[1].c_min / zero_table[0].c_min
    elapsed = time.monotonic() - t0
    ok = change < 0.10 and ratio < 1e-6 and elapsed < 60.0
    record_criterion(
        "05",
        ok,
        f"c_min change K=32->64 {100 * change:.2e}% < 10%, memoryless "
        f"c_min(64)/c_min(8) {ratio:.2e} < 1e-6; {elapsed:.1f}s < 60s",
    )
    assert change < 0.10
    assert ratio < 1e-6
    assert elapsed < 60.0


def test_criterion_06_probe_detects_uncovered_interval(record_criterion):
    """Shrinking-ball probes at an uncovered center drive the ratio down."""
    t0 = time.monotonic()
    L = PI / 2.0
    basis = SpectralBasis(L, 84)
    M = ExponentialKernel(1.0, 0.0)
    plan = SamplingPlan([(1.0, [[0.0, 0.5]]), (1.4, [[1.1, L]])])
    verdict = check_geometric_condition(plan, M, L)
    assert verdict.kind == "Fail"
    (gap,) = verdict.uncovered_intervals
    x0 = 0.5 * (gap[0] + gap[1])
    assert x0 == pytest.approx(0.8)
    radii = [0.1, 0.05, 0.025, 0.0125]
    cache = ModalCache(hlam_max=1.6)
    probe = probe_upper_bound(plan, M, basis, x0, radii, cache=cache)
    reference = probe_upper_bound(plan, M, basis, 0.25, [radii[-1]], cache=cache)
    ratios = probe.ratios
    monotone = all(b <= 1.05 * a for a, b in zip(ratios, ratios[1:]))
    frac = ratios[-1] / reference.ratios[0]
    elapsed = time.monotonic() - t0
    ok = monotone and frac < 0.1 and elapsed < 30.0
    record_criterion(
        "06",
        ok,
        f"ratios {['%.4f' % r for r in ratios]} monotone within 5%: {monotone}, "
        f"smallest / covered reference {frac:.3f} < 0.1; {elapsed:.1f}s < 30s",
    )
    assert monotone
    assert frac < 0.1
    assert elapsed < 30.0


def test_criterion_07_backward_uniqueness_certificates(record_criterion):
    """A half-period pair certifies 64 modes; a nodal instant fails mode 1."""
    t0 = time.monotonic()
    basis = SpectralBasis(PI, 64)
    M = ExponentialKernel(4.0, 0.0)
    gap = 0.5 * PI / math.sqrt(4.0)
    good = backward_uniqueness_certificate([0.4, 0.4 + gap], M, basis, cache=ModalCache())
    mode1_zero = nodal_set_exp_closed(1.0, 4.0, 0.0, 2.0).zeros[0]
    bad = backward_uniqueness_certificate([mode1_zero], M, basis, cache=ModalCache())
    elapsed = time.monotonic() - t0
    ok = good.certified and bad.failing_modes == (1,) and elapsed < 20.0
    record_criterion(
        "07",
        ok,
        f"pair verdict: {good.verdict}; nodal instant fails exactly "
        f"{list(bad.failing_modes)}; {elapsed:.1f}s < 20s",
    )
    assert good.certified
    assert bad.failing_modes == (1,)
    assert elapsed < 20.0


def test_criterion_08_reconstruction_round_trip(record_criterion):
    """Initial data returns through sampling, clean and under noise."""
    t0 = time.monotonic()
    basis = SpectralBasis(PI, 32)
    M = ExponentialKernel(1.0, 0.0)
    plan = SamplingPlan([(0.5, [[0.0, PI]]), (0.8, [[0.0, PI]])])
    y0 = SpectralField(basis, 3.0 / np.arange(1, 33) ** 2)
    cache = ModalCache()

    clean = simulate_observations(y0, plan, M, cache=cache)
    rec = reconstruct_initial(clean, M, basis, reg=1e-12, cache=cache)
    err_clean = (rec.field - y0).hs_norm(-4) / y0.hs_norm(-4)

    noisy = simulate_observations(y0, plan, M, sigma=1e-3, seed=11, cache=cache)
    rec_noisy = reconstruct_initial(noisy, M, basis, reg=1e-6, cache=cache)
    err_noisy = (rec_noisy.field - y0).hs_norm(-4) / y0.hs_norm(-4)
    elapsed = time.monotonic() - t0
    ok = err_clean < 1e-6 and err_noisy < 1e-2 and elapsed < 60.0
    record_criterion(
        "08",
        ok,
        f"relative H^-4 error: noiseless {err_clean:.2e} < 1e-6, "
        f"sigma=1e-3 {err_noisy:.2e} < 1e-2; {elapsed:.1f}s < 60s",
    )
    assert err_clean < 1e-6
    assert err_noisy < 1e-2
    assert elapsed < 60.0


def test_criterion_09_control_duality_and_closed_loop(record_criterion):
    """The control Gram is the observation Gram; the loop closes at K=16."""
    t0 = time.monotonic()
    basis = SpectralBasis(PI, 16)
    M = ExponentialKernel(1.0, 0.0)
    plan = SamplingPlan([(0.3, [[0.0, PI]]), (0.6, [[0.0, PI]])])
    y0 = SpectralField(basis, np.zeros(16))
    e1 = np.zeros(16)
    e1[0] = 1.0
    y1 = SpectralField(basis, e1)
    cache = ModalCache()
    res = impulse_control(y0, y1, plan, 1.0, M, cache=cache)
    gram_err = float(np.max(np.abs(res.gram - observation_gram(plan, M, basis, cache=cache))))
    final = simulate_controlled(y0, res, M)
    loop_err = float(
        np.linalg.norm(final.coefficients - y1.coefficients)
        / np.linalg.norm(y1.coefficients)
    )
    elapsed = time.monotonic() - t0
    ok = gram_err == 0.0 and loop_err < 1e-6 and elapsed < 60.0
    record_criterion(
        "09",
        ok,
        f"Gram agreement {gram_err:.2e} == 0, closed-loop relative error "
        f"{loop_err:.2e} < 1e-6; {elapsed:.1f}s < 60s",
    )
    assert gram_err == 0.0
    assert loop_err < 1e-6
    assert elapsed < 60.0


def test_criterion_10_cli_determinism(record_criterion, tmp_path):
    """Every command yields byte-identical artifacts across runs and threads."""
    t0 = time.monotonic()
    identical = True
    for command, config in sorted(CONFIGS.items()):
        r1 = run_cli(command, config, tmp_path / command / "a", "--threads", "1")
        r2 = run_cli(command, config, tmp_path / command / "b", "--threads", "3")
        assert r1.returncode == 0, f"{command}: {r1.stderr}"
        assert r2.returncode == 0, f"{command}: {r2.stderr}"
        a = artifact_bytes(tmp_path / command / "a")
        b = artifact_bytes(tmp_path / command / "b")
        identical = identical and bool(a) and a == b
    elapsed = time.monotonic() - t0
    record_criterion(
        "10",
        identical,
        f"all {len(CONFIGS)} commands byte-identical across reruns and "
        f"thread counts; {elapsed:.1f}s",
    )
    assert identical


def test_criterion_11_tabulated_kernel_matches_its_closed_form(record_criterion):
    """A tabulated c exp(alpha t), which marches, gives the closed form's
    constants at K = 128 and certifies the same modes."""
    t0 = time.monotonic()
    basis = SpectralBasis(PI, 128)
    plan = SamplingPlan([(0.5, [[0.0, PI]]), (0.8, [[0.0, PI]])])
    knots = np.linspace(0.0, 2.0, 1601)
    worst = 0.0
    for c, alpha in ((1.0, 0.0), (2.0, -0.5)):
        tab = TabulatedKernel(knots, c * np.exp(alpha * knots))
        exact = ExponentialKernel(c, alpha)
        rows = [
            constants_table(plan, M, basis, [64, 128], cache=ModalCache())
            for M in (tab, exact)
        ]
        for got, want in zip(*rows):
            for a, b in ((got.c_min, want.c_min), (got.c_max, want.c_max)):
                worst = max(worst, abs(a - b) / abs(b))
    pair = [0.4, 0.4 + PI / 4]
    certs = [
        backward_uniqueness_certificate(pair, M, basis, cache=ModalCache())
        for M in (TabulatedKernel(knots, np.ones_like(knots)), ExponentialKernel(1.0, 0.0))
    ]
    same = all(cert.certified for cert in certs) and certs[0].verdict == certs[1].verdict
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and same and elapsed < 60.0
    record_criterion(
        "11",
        ok,
        f"c_min and c_max of tabulated against closed form {worst:.2e} <= 1e-12, "
        f"pair verdicts: {certs[0].verdict} / {certs[1].verdict}; {elapsed:.1f}s < 60s",
    )
    assert worst <= 1e-12
    assert same
    assert elapsed < 60.0
