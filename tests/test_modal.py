"""Modal Volterra solver against frozen independent references.

The exponential-kernel problems reduce to constant-coefficient second-order
ODEs, and the linear kernel's to a third-order one, so every frozen value
below comes from the characteristic roots evaluated at 40 or 60 digits
(mpmath), not from any code path under test.
"""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from memobs import (
    ConstantKernel,
    ExponentialKernel,
    LinearKernel,
    ModalCache,
    SamplingPlan,
    SpectralBasis,
    SpectralField,
    StabilityError,
    TabulatedKernel,
    UniformGrid,
    ValidationError,
    ZeroKernel,
    closed_form_exp,
    impulse_control,
    kernel_series_K,
    nodal_set_exp_closed,
    nodal_set_numeric,
    series_solution_grid,
    simulate_controlled,
    solve_modal_richardson,
    solve_modal_volterra,
)
from memobs import cli, modal
from test_kernels import series_triangle

# M(t) = 2 exp(-t), lam = 4: roots -2 and -3, x(t) = 2 exp(-3t) - exp(-2t)
X_EXP21_LAM4_T1 = -0.035761146500884806
X_EXP21_LAM4_T025 = 0.33820244576939599
ZERO_EXP21_LAM4 = math.log(2.0)

# M = -1, lam = 1: x'' + x' - x = 0, golden-ratio roots
X_CONSTM1_LAM1_T1 = 0.65626859497646680
X_CONSTM1_LAM1_T2 = 0.97981084922993895

# M = 4, lam = 1: damped oscillation, omega = sqrt(15)/2
X_EXP40_LAM1_T1 = -0.36314465771780584
ZEROS_EXP40_LAM1 = (0.68067221251729416, 2.3029836829067389, 3.9252951532961837)
SPACING_EXP40_LAM1 = 1.6223114703894448  # pi / omega

# M = 4, lam = 9: discriminant 65 > 0, single sign change
ZERO_EXP40_LAM9 = 0.35984324964770766

# lam = 16384: the single sign change for (c, alpha), at 60 digits
ZEROS_EXP_LAM16384 = {
    (4.0, 1.0): 1.0999053566297007384e-3,
    (2.0, -1.0): 1.1423336425004379908e-3,
}

# M(t) = t: characteristic z**3 + lam z**2 + 1 = 0; at lam = 1 the complex
# pair has positive real part, so the mode oscillates with growing amplitude.
CUBIC_LAM1_REAL = -1.46557123187676803
CUBIC_LAM1_IMAG = 0.79255199251544785


# (lam, c, alpha, t, x(t)) for M(t) = c exp(alpha t), from the characteristic
# roots at 60 digits (mpmath): lam = k**2 for k = 4, 8, ..., 128, then a
# complex pair, an exact double root and alpha > lam.
X_EXP_HIGH_PRECISION = [
    (16.0, 4.0, 0.0, 0.5, -1.4054693869399028271e-2),
    (16.0, 4.0, 0.0, 1.2, -1.2089114707366584203e-2),
    (16.0, 4.0, 0.0, 2.0, -9.8658501463799958102e-3),
    (16.0, 4.0, 1.0, 0.5, -2.0751251852393741118e-2),
    (16.0, 4.0, 1.0, 1.2, -3.6012444797580195273e-2),
    (16.0, 4.0, 1.0, 2.0, -6.6217805785638143296e-2),
    (16.0, 2.0, -1.0, 0.5, -4.8170798574324505159e-3),
    (16.0, 2.0, -1.0, 1.2, -2.3407303117624156959e-3),
    (16.0, 2.0, -1.0, 2.0, -9.4443657038458323473e-4),
    (64.0, 4.0, 0.0, 0.5, -9.4926986012661297455e-4),
    (64.0, 4.0, 0.0, 1.2, -9.0859578341079484868e-4),
    (64.0, 4.0, 0.0, 2.0, -8.6424076124519993895e-4),
    (64.0, 4.0, 1.0, 0.5, -1.5178909857635535502e-3),
    (64.0, 4.0, 1.0, 1.2, -2.9276617844452755369e-3),
    (64.0, 4.0, 1.0, 2.0, -6.2023398247400453558e-3),
    (64.0, 2.0, -1.0, 0.5, -3.0127406860940453354e-4),
    (64.0, 2.0, -1.0, 1.2, -1.463186746329645939e-4),
    (64.0, 2.0, -1.0, 2.0, -6.4095701995969957683e-5),
    (256.0, 4.0, 0.0, 0.5, -6.0571239165718652745e-5),
    (256.0, 4.0, 0.0, 1.2, -5.9912311099266066865e-5),
    (256.0, 4.0, 0.0, 2.0, -5.9168023270770508044e-5),
    (256.0, 4.0, 1.0, 0.5, -9.9092313994218913753e-5),
    (256.0, 4.0, 1.0, 1.2, -1.9738502811820668357e-4),
    (256.0, 4.0, 1.0, 2.0, -4.3385230394793606349e-4),
    (256.0, 2.0, -1.0, 0.5, -1.8584004476767808649e-5),
    (256.0, 2.0, -1.0, 1.2, -9.178014275803782525e-6),
    (256.0, 2.0, -1.0, 2.0, -4.09815211561901248e-6),
    (1024.0, 4.0, 0.0, 0.5, -3.8072974990020625626e-6),
    (1024.0, 4.0, 0.0, 1.2, -3.7969011005476556247e-6),
    (1024.0, 4.0, 0.0, 2.0, -3.7850542597459322188e-6),
    (1024.0, 4.0, 1.0, 0.5, -6.2649420020469200741e-6),
    (1024.0, 4.0, 1.0, 1.2, -1.2581627477473591972e-5),
    (1024.0, 4.0, 1.0, 2.0, -2.7913645353235589045e-5),
    (1024.0, 2.0, -1.0, 0.5, -1.1580023643532476021e-6),
    (1024.0, 2.0, -1.0, 1.2, -5.7426052710561479559e-7),
    (1024.0, 2.0, -1.0, 2.0, -2.576286335047453923e-7),
    (4096.0, 4.0, 0.0, 0.5, -2.3830236261622321177e-7),
    (4096.0, 4.0, 0.0, 1.2, -2.381395162384274688e-7),
    (4096.0, 4.0, 0.0, 2.0, -2.3795354235253485708e-7),
    (4096.0, 4.0, 1.0, 0.5, -3.927024481423883941e-7),
    (4096.0, 4.0, 1.0, 1.2, -7.9026534485762062954e-7),
    (4096.0, 4.0, 1.0, 2.0, -1.7573947033330218782e-6),
    (4096.0, 2.0, -1.0, 0.5, -7.2321769430059558473e-8),
    (4096.0, 2.0, -1.0, 1.2, -3.5901651674374930362e-8),
    (4096.0, 2.0, -1.0, 2.0, -1.6125350222025360571e-8),
    (16384.0, 4.0, 0.0, 0.5, -1.4899342981487331395e-8),
    (16384.0, 4.0, 0.0, 1.2, -1.4896796924578849874e-8),
    (16384.0, 4.0, 0.0, 2.0, -1.4893887678001526227e-8),
    (16384.0, 4.0, 1.0, 0.5, -2.4561865509813681792e-8),
    (16384.0, 4.0, 1.0, 1.2, -4.9453071511817373905e-8),
    (16384.0, 4.0, 1.0, 2.0, -1.1003834203819879157e-7),
    (16384.0, 2.0, -1.0, 0.5, -4.5192814923463134946e-9),
    (16384.0, 2.0, -1.0, 1.2, -2.2440170033966266928e-9),
    (16384.0, 2.0, -1.0, 2.0, -1.0082033674188458054e-9),
    (1.0, 4.0, 0.0, 1.2, -4.7868430420128650159e-1),
    (4.0, 4.0, 0.0, 1.2, -1.2700513460517750795e-1),
    (1.0, 4.0, 6.0, 1.2, -6.8201717281907840297e+1),
]

# (lam, t, x(t)) for M(t) = t at lam = k**2, k = 8, 32, 64 and 128 (L = pi),
# at 60 digits (mpmath): x(t) = sum_i r_i exp(w_i t) over the roots w_i of
# p**3 + lam p**2 + 1, with residues r_i = w_i**2 / (3 w_i**2 + 2 lam w_i).
# An inverse Laplace transform of p**2 / (p**3 + lam p**2 + 1) by Talbot's
# method agrees to every digit kept.
X_LINEAR_HIGH_PRECISION = [
    (64.0, 0.3, -6.5597556219921374824e-5),
    (64.0, 1.2, -2.8436386114255940658e-4),
    (64.0, 2.0, -4.7592576818289494938e-4),
    (1024.0, 0.3, -2.8423558003005194462e-7),
    (1024.0, 1.2, -1.1422802903133244108e-6),
    (1024.0, 2.0, -1.904249910701993715e-6),
    (4096.0, 0.3, -1.7852224596669920197e-8),
    (4096.0, 1.2, -7.1492286689414213396e-8),
    (4096.0, 2.0, -1.1916080541762078042e-7),
    (16384.0, 0.3, -1.1171313208784053558e-9),
    (16384.0, 1.2, -4.4698281574422829258e-9),
    (16384.0, 2.0, -7.4498227716273775145e-9),
]


def test_march_hits_frozen_exponential_values():
    _, x = solve_modal_volterra(4.0, ExponentialKernel(2.0, -1.0), 1.0, 4096)
    assert x[-1] == pytest.approx(X_EXP21_LAM4_T1, abs=2e-8)
    assert x[1024] == pytest.approx(X_EXP21_LAM4_T025, abs=1e-7)


def test_richardson_reaches_rounding_level():
    t, x = solve_modal_richardson(4.0, ExponentialKernel(2.0, -1.0), 1.0, 2048)
    assert x[-1] == pytest.approx(X_EXP21_LAM4_T1, abs=1e-12)


def test_march_constant_kernel_frozen():
    _, x = solve_modal_volterra(1.0, ConstantKernel(-1.0), 2.0, 8192)
    assert x[4096] == pytest.approx(X_CONSTM1_LAM1_T1, abs=1e-7)
    assert x[-1] == pytest.approx(X_CONSTM1_LAM1_T2, abs=1e-7)


def test_march_is_second_order():
    M = ExponentialKernel(4.0, 0.0)
    errs = []
    for n in (256, 512, 1024):
        _, x = solve_modal_volterra(1.0, M, 1.0, n)
        errs.append(abs(x[-1] - X_EXP40_LAM1_T1))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


TAB_GRID = np.linspace(0.0, 2.0, 41)


@pytest.mark.parametrize(
    "M",
    [
        ExponentialKernel(2.0, -1.0),
        LinearKernel(),
        ConstantKernel(-1.0),
        TabulatedKernel(TAB_GRID, 1.5 * np.cos(TAB_GRID)),
    ],
    ids=["exponential", "linear", "constant", "tabulated"],
)
@pytest.mark.parametrize("lam", [1.0, 9.0])
def test_march_jump_is_superposition(M, lam):
    # The march is linear and a jump restarts the history with half weight on
    # its node, exactly as a fresh march starting there: one jump d at node p
    # gives x0 x_n(T) + d x_{n-p}((n-p) h) on the same step h.
    T, n, p, x0, d = 1.5, 384, 144, 0.7, -0.45
    _, x = solve_modal_volterra(lam, M, T, n, x0, {p: d})
    free = solve_modal_volterra(lam, M, T, n)[1][-1]
    kick = solve_modal_volterra(lam, M, T * (n - p) / n, n - p)[1][-1]
    assert x[-1] == pytest.approx(x0 * free + d * kick, rel=1e-11)
    # before the jump node the trajectory is the jump-free one
    np.testing.assert_array_equal(
        x[:p], solve_modal_volterra(lam, M, T, n, x0)[1][:p]
    )


def _loop(lam, M, T, n, x0=1.0, jumps=None):
    """The dot-product march on the same samples and step as
    ``solve_modal_volterra``: the oracle the fast solve is checked against."""
    t = np.linspace(0.0, T, n + 1)
    Mg = np.asarray(M(t), dtype=float)
    h = T / n
    denom = 1.0 + 0.5 * h * lam + 0.25 * h * h * Mg[0]
    return t, modal._march_loop(lam, Mg, h, denom, x0, jumps or {})


def _jumps(kicks, n):
    jumps = {}
    for frac, d in kicks:
        p = 1 + int(frac * (n - 2))
        jumps[p] = jumps.get(p, 0.0) + d
    return jumps


def _march_kernel(kind, c, alpha, T):
    if kind == "exponential":
        return ExponentialKernel(abs(c) + 0.1, alpha)
    if kind == "constant":
        return ConstantKernel(c)
    if kind == "zero":
        return ZeroKernel()
    if kind == "linear":
        return LinearKernel()
    grid = np.linspace(0.0, T, 65)
    if kind == "tabulated":
        return TabulatedKernel(grid, c * np.cos((2.0 - alpha) * grid))
    return TabulatedKernel(grid, c * np.exp(alpha * grid))


# Draws shared by the two march-against-loop tests; each picks its kernels.
_MARCH_DRAWS = dict(
    lam=st.floats(0.5, 500.0),
    c=st.floats(-20.0, 50.0),
    alpha=st.floats(-3.0, 1.0),
    T=st.floats(0.1, 3.0),
    # a tiny x0 would push the march into subnormals, where rounding is
    # absolute and no relative bound holds
    x0=st.floats(-2.0, 2.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3),
    kicks=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(-3.0, 3.0)), max_size=2
    ),
    # n = leaves * leaf - offset, leaf the kernel's leaf (``_leaf``), with
    # offset < leaf.  Drawn last, and as a leaf count and the fill of the
    # last leaf, so the examples spread over distinct n: below one leaf,
    # exactly one, and several.
    leaves=st.integers(1, 9),
    offset=st.floats(0.0, 1.0),
)


def _leaf(M):
    """Steps per leaf of ``_march_dc`` for kernel M."""
    return modal._LEAF if M.exp_form() is None else modal._BAND_LEAF


def _march_case(kind, lam, c, alpha, T, leaves, offset, kicks):
    """The kernel, step count and jumps of one ``_MARCH_DRAWS`` draw; the
    offset is a fraction of the leaf, at most leaf - 8 steps."""
    M = _march_kernel(kind, c, alpha, T)
    leaf = _leaf(M)
    n = leaves * leaf - round(offset * (leaf - 8))
    n = max(n, math.ceil(T * lam / 2.0))
    return M, n, _jumps(kicks, n)


def _assert_march_matches_loop(kind, lam, c, alpha, T, leaves, offset, x0, kicks):
    M, n, jumps = _march_case(kind, lam, c, alpha, T, leaves, offset, kicks)
    t, x = solve_modal_volterra(lam, M, T, n, x0, jumps)
    t_ref, x_ref = _loop(lam, M, T, n, x0, jumps)
    np.testing.assert_array_equal(t, t_ref)
    assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["exponential", "constant", "zero"]), **_MARCH_DRAWS)
# A growing kernel on a long march, 4 exp(2t) over 16384 steps.
@example(
    kind="exponential",
    lam=1.0,
    c=3.9,
    alpha=2.0,
    T=3.0,
    leaves=16384 // modal._BAND_LEAF,
    offset=0.0,
    x0=1.0,
    kicks=[],
)
# Exactly one band leaf.
@example(
    kind="exponential",
    lam=4.0,
    c=2.0,
    alpha=0.5,
    T=1.0,
    leaves=1,
    offset=0.0,
    x0=1.0,
    kicks=[(0.5, 0.3)],
)
# Jumps at the last node of the first band leaf and the first of the second.
@example(
    kind="exponential",
    lam=9.0,
    c=2.0,
    alpha=-1.0,
    T=1.5,
    leaves=3,
    offset=(modal._BAND_LEAF - 100) / (modal._BAND_LEAF - 8),
    x0=0.7,
    kicks=[
        ((modal._BAND_LEAF - 1.5) / (2 * modal._BAND_LEAF + 98), -0.45),
        ((modal._BAND_LEAF - 0.5) / (2 * modal._BAND_LEAF + 98), 1.2),
    ],
)
# The same jumps under a growing kernel, whose band leaves are tilted.
@example(
    kind="exponential",
    lam=9.0,
    c=2.0,
    alpha=1.0,
    T=1.5,
    leaves=3,
    offset=(modal._BAND_LEAF - 100) / (modal._BAND_LEAF - 8),
    x0=0.7,
    kicks=[
        ((modal._BAND_LEAF - 1.5) / (2 * modal._BAND_LEAF + 98), -0.45),
        ((modal._BAND_LEAF - 0.5) / (2 * modal._BAND_LEAF + 98), 1.2),
    ],
)
def test_dc_march_matches_dot_product_march_exp_family(
    kind, lam, c, alpha, T, leaves, offset, x0, kicks
):
    """The c exp(alpha t) family, whose kernel-cache values come from the
    closed form, against the dot-product march, and its running-sum
    history against the FFT history of the same samples."""
    _assert_march_matches_loop(kind, lam, c, alpha, T, leaves, offset, x0, kicks)
    M, n, jumps = _march_case(kind, lam, c, alpha, T, leaves, offset, kicks)
    t = np.linspace(0.0, T, n + 1)
    Mg = np.asarray(M(t), dtype=float)
    h = T / n
    row = np.array([lam])
    denom = 1.0 + 0.5 * h * row + 0.25 * h * h * Mg[0]
    jumps = {p: np.array([d]) for p, d in jumps.items()}
    x_form, x_fft = (
        modal._march_dc(row, Mg, h, denom, np.array([x0]), jumps, form)[0]
        for form in (M.exp_form(), None)
    )
    assert np.max(np.abs(x_form - x_fft)) <= 1e-13 * np.max(np.abs(x_fft))


def _loop_longdouble(lam, M, T, n):
    """``_loop`` from x0 = 1 on the same double samples, computed in
    np.longdouble."""
    t = np.linspace(0.0, T, n + 1)
    Mg = np.asarray(M(t), dtype=float).astype(np.longdouble)
    h = np.longdouble(T) / n
    lam = np.longdouble(lam)
    denom = 1 + h * lam / 2 + h * h * Mg[0] / 4
    return modal._march_loop(lam, Mg, h, denom, np.longdouble(1.0), {})


@pytest.mark.parametrize(
    "lam, M, T, n",
    [
        # A growing kernel on a long horizon, where a per-step recurrence
        # drifts: rounding must compound over the leaves, not the steps.
        (0.5, ExponentialKernel(4.0, 3.0), 8.0, 4096),
        # Several band leaves under a growing kernel, whose leaves are
        # tilted by e^(-alpha h l).
        (1.0, ExponentialKernel(4.0, 2.0), 3.0, 8192),
        # Steep decay, where q^(-n) = e^2000 overflows: the running sum
        # must never divide by powers of q.
        (1.0, ExponentialKernel(50.0, -2000.0), 1.0, 4096),
        # Steep decay with |alpha| h _BAND_LEAF = 1000: a tilted leaf would
        # overflow, so leaves of a decaying kernel are not tilted.
        (1.0, ExponentialKernel(50.0, -2000.0), 1.0, 2048),
    ],
    ids=["growing", "growing-leaves", "steep-decay", "steep-decay-leaf"],
)
def test_exp_march_matches_extended_precision_loop(lam, M, T, n):
    x = solve_modal_volterra(lam, M, T, n)[1]
    ref = _loop_longdouble(lam, M, T, n)
    assert float(np.max(np.abs(x - ref))) <= 1e-12 * float(np.max(np.abs(ref)))


def test_exp_form_marches_take_no_fft_history(monkeypatch):
    # The c exp(alpha t) family carries its history as running sums, so an
    # FFT history update that raises stops only the other kernels.
    def no_fft(*args):
        raise AssertionError("an FFT history update")

    monkeypatch.setattr(modal, "_history_update", no_fft)
    basis = SpectralBasis(math.pi, 3)
    plan = SamplingPlan([(0.3, [[0.0, 2.0]]), (0.6, [[1.0, math.pi]])])
    y0 = SpectralField(basis, [0.5, -0.25, 0.1])
    y1 = SpectralField(basis, [1.0, 0.2, 0.0])
    n = 3 * modal._BAND_LEAF
    for M in (ExponentialKernel(2.0, -1.0), ConstantKernel(-1.0), ZeroKernel()):
        solve_modal_richardson(9.0, M, 1.5, n)
        solve_modal_volterra([9.0, 4.0], M, 1.5, n, 0.7, {600: -0.45})
        nodal_set_numeric(4.0, M, 2.0)
        res = impulse_control(y0, y1, plan, 1.0, M, cache=ModalCache())
        assert res.impulses
        simulate_controlled(y0, res, M)
    grid = np.linspace(0.0, 2.0, 41)
    for M in (LinearKernel(), TabulatedKernel(grid, 2.0 * np.exp(-grid))):
        with pytest.raises(AssertionError, match="FFT history"):
            solve_modal_volterra(9.0, M, 1.5, 4 * modal._LEAF)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["linear", "tabulated", "tabulated-exp"]), **_MARCH_DRAWS)
# Sampled growing kernels on a long horizon: the FFT history updates need
# their exponential weights here.
@example(
    kind="tabulated-exp",
    lam=9.0,
    c=4.0,
    alpha=2.0,
    T=8.0,
    leaves=16,
    offset=0.0,
    x0=1.0,
    kicks=[],
)
@example(
    kind="tabulated-exp",
    lam=0.5,
    c=4.0,
    alpha=2.0,
    T=8.0,
    leaves=16,
    offset=0.0,
    x0=1.0,
    kicks=[],
)
# Jumps at the last node of the first leaf and the first of the second.
@example(
    kind="tabulated",
    lam=9.0,
    c=1.5,
    alpha=1.0,
    T=1.5,
    leaves=5,
    offset=(modal._LEAF - 100) / (modal._LEAF - 8),
    x0=0.7,
    kicks=[
        ((modal._LEAF - 1.5) / (4 * modal._LEAF + 98), -0.45),
        ((modal._LEAF - 0.5) / (4 * modal._LEAF + 98), 1.2),
    ],
)
def test_dc_march_matches_dot_product_march(
    kind, lam, c, alpha, T, leaves, offset, x0, kicks
):
    """Kernels with no exponential form, sampled on the grid, against the
    dot-product march."""
    _assert_march_matches_loop(kind, lam, c, alpha, T, leaves, offset, x0, kicks)


def _batch_kernel(kind):
    grid = np.linspace(0.0, 3.0, 65)
    if kind == "tabulated":
        return TabulatedKernel(grid, 1.5 * np.cos(grid))
    if kind == "tabulated-growing":  # the FFT updates take their weights
        return TabulatedKernel(grid, 4.0 * np.exp(2.0 * grid))
    return {
        "linear": LinearKernel(),
        "exponential": ExponentialKernel(2.0, -1.0),
        "exponential-growing": ExponentialKernel(4.0, 2.0),  # tilted leaves
        "constant": ConstantKernel(-1.0),
        "zero": ZeroKernel(),
    }[kind]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(
        [
            "linear",
            "tabulated",
            "tabulated-growing",
            "exponential",
            "exponential-growing",
            "constant",
            "zero",
        ]
    ),
    lams=st.lists(st.floats(0.5, 200.0), min_size=1, max_size=4),
    T=st.floats(0.1, 3.0),
    # n in leaves of the kernel (``_leaf``): below one leaf, exactly one,
    # and several, off the multiples of a leaf
    leaves=st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.just(1.0),
        st.floats(1.0, 5.0, exclude_min=True),
    ),
    # x0 is the first value, shared, or the first len(lams), one per row
    x0s=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    shared_x0=st.booleans(),
    # jump nodes as fractions of the march: the first jump takes one
    # increment per row, the second 0.3 on every row
    kicks=st.lists(st.floats(0.0, 1.0), max_size=2),
    incs=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
)
# Exactly one band leaf, and three rows over several tilted band leaves
# with jumps at the last node of the first leaf and the first of the second.
@example(
    kind="exponential",
    lams=[9.0, 4.0],
    T=1.5,
    leaves=1.0,
    x0s=[0.7, -1.0, 0.5, 2.0],
    shared_x0=False,
    kicks=[0.5],
    incs=[0.3, -0.2, 1.0, 0.0],
)
@example(
    kind="exponential-growing",
    lams=[9.0, 4.0, 150.0],
    T=1.5,
    leaves=2.1,
    x0s=[0.7, -1.0, 0.5, 2.0],
    shared_x0=False,
    kicks=[
        (modal._BAND_LEAF - 1.5) / (math.floor(2.1 * modal._BAND_LEAF) - 2),
        (modal._BAND_LEAF - 0.5) / (math.floor(2.1 * modal._BAND_LEAF) - 2),
    ],
    incs=[0.3, -0.2, 1.0, 0.0],
)
# Several dense leaves under FFT histories, weighted and not.
@example(
    kind="tabulated-growing",
    lams=[9.0, 0.5],
    T=3.0,
    leaves=4.5,
    x0s=[1.0, -0.5, 0.0, 0.0],
    shared_x0=False,
    kicks=[0.3, 0.6],
    incs=[0.3, -0.2, 0.0, 0.0],
)
@example(
    kind="linear",
    lams=[1.0, 25.0, 100.0],
    T=2.0,
    leaves=3.7,
    x0s=[0.7, 0.0, 0.0, 0.0],
    shared_x0=True,
    kicks=[0.25],
    incs=[0.3, -0.2, 1.0, 0.0],
)
def test_batch_rows_equal_single_marches(
    kind, lams, T, leaves, x0s, shared_x0, kicks, incs
):
    M = _batch_kernel(kind)
    rows = len(lams)
    leaf = _leaf(M)
    n = max(8, math.floor(leaves * leaf))
    n += leaves > 1.0 and n % leaf == 0
    n = max(n, math.ceil(T * max(lams) / 2.0))
    x0 = x0s[0] if shared_x0 else x0s[:rows]
    jumps = {}
    for i, f in enumerate(kicks):
        jumps.setdefault(1 + int(f * (n - 2)), incs[:rows] if i == 0 else 0.3)
    for solve in (solve_modal_volterra, solve_modal_richardson):
        t, x = solve(lams, M, T, n, x0, jumps)
        assert x.shape == (rows, n + 1)
        for r, lam in enumerate(lams):
            x0_r = x0 if shared_x0 else x0[r]
            jumps_r = {p: d if np.isscalar(d) else d[r] for p, d in jumps.items()}
            t_r, x_r = solve(lam, M, T, n, x0_r, jumps_r)
            assert np.array_equal(t, t_r)
            assert np.array_equal(x[r], x_r), (solve.__name__, r)


def test_batch_shapes_are_checked():
    M = LinearKernel()
    bad = [
        (np.ones((2, 2)), 1.0, None),  # lam not 1-D
        ([[1.0, 2.0]], 1.0, None),
        ([], 1.0, None),
        ([1.0, -2.0], 1.0, None),
        ([1.0, math.nan], 1.0, None),
        ([1.0, 2.0], [1.0], None),  # x0 of the wrong length
        ([1.0, 2.0], [1.0, 2.0, 3.0], None),
        (1.0, [1.0, 2.0], None),
        ([1.0, 2.0], 1.0, {10: [0.5, 0.5, 0.5]}),  # jump of the wrong length
        ([1.0, 2.0], 1.0, {10: [0.5]}),
        ([1.0, 2.0], 1.0, {10: [0.5, math.inf]}),
    ]
    for solve in (solve_modal_volterra, solve_modal_richardson):
        for lam, x0, jumps in bad:
            with pytest.raises(ValidationError):
                solve(lam, M, 1.0, 64, x0, jumps)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    path=st.sampled_from(["exponential", "tabulated", "loop"]),
    # a scale far below 1 would push the scaled march into subnormals
    a=st.floats(-100.0, 100.0).filter(lambda a: abs(a) >= 1e-3),
    lam=st.floats(0.5, 500.0),
    T=st.floats(0.1, 3.0),
    n=st.integers(8, 5 * modal._LEAF),
    frac=st.floats(0.0, 1.0),
    d=st.floats(-3.0, 3.0),
)
def test_march_is_linear_in_initial_value_and_jumps(path, a, lam, T, n, frac, d):
    n = max(n, math.ceil(T * lam / 2.0))
    x0 = 0.7
    p = 1 + int(frac * (n - 2))
    grid = np.linspace(0.0, T, 33)
    if path == "exponential":
        M = ExponentialKernel(2.0, -1.0)
    else:
        M = TabulatedKernel(grid, 1.5 * np.cos(grid))
    march = _loop if path == "loop" else solve_modal_volterra
    x = march(lam, M, T, n, x0, {p: d})[1]
    xa = march(lam, M, T, n, a * x0, {p: a * d})[1]
    assert np.max(np.abs(xa - a * x)) <= 1e-13 * abs(a) * np.max(np.abs(x))


def test_no_production_path_takes_the_loop(monkeypatch):
    def no_loop(*args):
        raise AssertionError("a production path reached the dot-product loop")

    monkeypatch.setattr(modal, "_march_loop", no_loop)
    grid = np.linspace(0.0, 2.0, 41)
    tab = TabulatedKernel(grid, 2.0 * np.exp(-grid))
    for M in (
        ExponentialKernel(2.0, -1.0),
        ConstantKernel(-1.0),
        ZeroKernel(),
        LinearKernel(),
        tab,
    ):
        solve_modal_richardson(9.0, M, 1.5, 384)
        solve_modal_volterra(9.0, M, 1.5, 384, 0.7, {144: -0.45})
    basis = SpectralBasis(math.pi, 3)
    plan = SamplingPlan([(0.3, [[0.0, 2.0]]), (0.6, [[1.0, math.pi]])])
    y0 = SpectralField(basis, [0.5, -0.25, 0.1])
    y1 = SpectralField(basis, [1.0, 0.2, 0.0])
    res = impulse_control(y0, y1, plan, 1.0, tab, cache=ModalCache())
    simulate_controlled(y0, res, tab)
    nodal_set_numeric(4.0, tab, 2.0)


@pytest.mark.parametrize(
    "M",
    [ExponentialKernel(2.0, -1.0), TabulatedKernel(TAB_GRID, 1.5 * np.cos(TAB_GRID))],
    ids=["exponential", "tabulated"],
)
def test_every_march_enters_through_solve_modal_volterra(M, monkeypatch, tmp_path):
    # Counting calls into the public entry and into the solve it calls shows
    # that no caller marches around the entry.
    counts = {"entry": 0, "solve": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    entry = counted(modal.solve_modal_volterra, "entry")
    for name, mod in list(sys.modules.items()):
        if name.startswith("memobs") and hasattr(mod, "solve_modal_volterra"):
            monkeypatch.setattr(mod, "solve_modal_volterra", entry)
    monkeypatch.setattr(modal, "_march_dc", counted(modal._march_dc, "solve"))

    basis = SpectralBasis(math.pi, 3)
    plan = SamplingPlan([(0.3, [[0.0, 2.0]]), (0.6, [[1.0, math.pi]])])
    y0 = SpectralField(basis, [0.5, -0.25, 0.1])
    y1 = SpectralField(basis, [1.0, 0.2, 0.0])

    def control():
        simulate_controlled(y0, impulse_control(y0, y1, plan, 1.0, M), M)

    def cli_modal():
        for richardson in (True, False):
            section = {"lam": 4.0, "T": 1.0, "n_steps": 256, "richardson": richardson}
            cfg = {"kernel": M.spec_dict(), "modal": section}
            path = tmp_path / "modal.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            argv = ["modal", "--config", str(path), "--out", str(tmp_path / "out")]
            assert cli.main(argv) == 0

    runs = {
        "cache": lambda: ModalCache().value_and_sup(M, 9.0, 0.7),
        "nodal": lambda: nodal_set_numeric(4.0, M, 1.5),
        "control": control,
        "cli": cli_modal,
    }
    for name, run in runs.items():
        counts.update(entry=0, solve=0)
        run()
        if name == "cache" and M.exp_form() is not None:
            # the cache takes the closed form and marches nothing
            assert counts == {"entry": 0, "solve": 0}
        else:
            assert counts["entry"] == counts["solve"] > 0, (name, counts)


def test_non_finite_inputs_are_rejected():
    M = ExponentialKernel(2.0, -1.0)
    tab = TabulatedKernel(TAB_GRID, 1.5 * np.cos(TAB_GRID))
    cache = ModalCache()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            cache.value_and_sup(M, 4.0, bad)
        with pytest.raises(ValidationError):
            cache.value_and_sup(tab, bad, 1.0)
        with pytest.raises(ValidationError):
            solve_modal_volterra(bad, M, 1.0, 64)
        with pytest.raises(ValidationError):
            solve_modal_volterra(1.0, M, bad, 64)
        with pytest.raises(ValidationError):
            nodal_set_numeric(4.0, M, bad)
        with pytest.raises(ValidationError):
            nodal_set_numeric(bad, M, 1.0)
        # the closed forms and the series take the same checks; an infinite
        # or NaN horizon would otherwise extend the closed ladder forever
        for lam_c_alpha in ((bad, 4.0, 0.0), (1.0, bad, 0.0), (1.0, 4.0, bad)):
            with pytest.raises(ValidationError):
                closed_form_exp(*lam_c_alpha, 1.0)
            with pytest.raises(ValidationError):
                nodal_set_exp_closed(*lam_c_alpha, 1.0)
        with pytest.raises(ValidationError):
            nodal_set_exp_closed(1.0, 4.0, 0.0, bad)
        with pytest.raises(ValidationError):
            series_solution_grid(bad, ConstantKernel(-1.0), UniformGrid(64, 1.0))


def test_march_rejects_jumps_off_the_interior():
    for p in (0, 384, 400):
        with pytest.raises(ValidationError):
            solve_modal_volterra(9.0, ZeroKernel(), 1.5, 384, 1.0, {p: 0.5})


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    lam=st.floats(0.5, 5000.0),
    T=st.floats(0.1, 5.0),
    n=st.integers(8, 12 * modal._LEAF),
)
@example(lam=2.0, T=1.0, n=64)
@example(lam=16.0, T=1.0, n=8)  # h lam = 2: r = 0
@example(lam=1000.0, T=1.0, n=501)  # r^i underflows
def test_zero_kernel_march_is_pade_exponential(lam, T, n):
    """With no memory a step is the (1,1) Pade approximant of exp(-h lam):
    x_i = r^i, r = (1 - h lam/2) / (1 + h lam/2), for h lam <= 2.

    A step of the march rounds twice (fac x_i, then the division by denom),
    so x_i = r^i (1 + d) with |d| <= 2 i u, u = 2^-53.  The reference
    r^i carries the rounding of r, i-fold, and that of the power, (i + 1) u.
    Below the normal range a rounding is absolute, at most half the
    smallest subnormal s.  Hence |x_i - r^i| <= (3 i + 4) u r^i
    + (2 i + 2) s, with one u of slack per step for second-order terms.
    """
    n = max(n, math.ceil(T * lam / 2.0))
    h = T / n
    assume(h * lam <= 2.0)
    _, x = solve_modal_volterra(lam, ZeroKernel(), T, n)
    # fac and denom exactly as the march forms them
    fac = 1.0 - 0.5 * h * lam
    denom = 1.0 + 0.5 * h * lam
    i = np.arange(n + 1)
    ref = (fac / denom) ** i
    u = np.finfo(float).eps / 2
    s = np.finfo(float).smallest_subnormal
    assert np.all(np.abs(x - ref) <= (3 * i + 4) * u * ref + (2 * i + 2) * s)


def test_stability_guard():
    with pytest.raises(StabilityError):
        solve_modal_volterra(100.0, ZeroKernel(), 1.0, 16)  # h lam = 6.25
    with pytest.raises(ValidationError):
        solve_modal_volterra(-1.0, ZeroKernel(), 1.0, 64)
    with pytest.raises(ValidationError):
        solve_modal_volterra(1.0, ZeroKernel(), 1.0, 4)


def test_closed_form_exponential_frozen():
    t = np.array([0.0, 0.25, 1.0])
    x = closed_form_exp(4.0, 2.0, -1.0, t)
    assert x[0] == 1.0
    assert x[1] == pytest.approx(X_EXP21_LAM4_T025, rel=1e-14)
    assert x[2] == pytest.approx(X_EXP21_LAM4_T1, rel=1e-14)
    assert closed_form_exp(1.0, 4.0, 0.0, 1.0) == pytest.approx(
        X_EXP40_LAM1_T1, rel=1e-14
    )


def test_closed_form_matches_high_precision_values():
    # Relative to |x| itself: at k = 128 the value is O(c / lam**2), many
    # orders below the terms of the root formula.
    worst = max(
        abs(closed_form_exp(lam, c, alpha, t) - x) / abs(x)
        for lam, c, alpha, t, x in X_EXP_HIGH_PRECISION
    )
    assert worst <= 1e-13


def test_batched_closed_form_matches_high_precision_values():
    # One call per (c, alpha) carries every lam with its own t; each row
    # equals the scalar call bit for bit, so the same bound holds.
    groups: dict = {}
    for lam, c, alpha, t, x in X_EXP_HIGH_PRECISION:
        groups.setdefault((c, alpha), []).append((lam, t, x))
    for (c, alpha), rows in groups.items():
        lams, ts, xs = (np.array(col) for col in zip(*rows))
        got = closed_form_exp(lams, c, alpha, ts)
        assert got.shape == lams.shape
        assert np.max(np.abs(got - xs) / np.abs(xs)) <= 1e-13
        for lam, t, g in zip(lams, ts, got):
            assert g == closed_form_exp(float(lam), c, alpha, float(t))


def test_cache_linear_kernel_matches_high_precision_values():
    # The linear kernel has no closed form in the package, so these values
    # are the marched table's independent check at high modes.  Measured
    # error relative to |x|: 2.3e-12 at k = 8, at most 1.2e-13 for k >= 32.
    lams = sorted({lam for lam, _, _ in X_LINEAR_HIGH_PRECISION})
    times = [0.3, 1.2, 2.0]
    x, _ = ModalCache().table(LinearKernel(), lams, times)
    for lam, t, want in X_LINEAR_HIGH_PRECISION:
        got = x[times.index(t), lams.index(lam)]
        bound = 1e-11 if lam < 1000.0 else 5e-13
        assert abs(got - want) <= bound * abs(want), (lam, t)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    rows=st.lists(
        # lam below about 17 oscillates (s < 0) for the larger c
        st.tuples(
            st.one_of(st.floats(0.5, 20.0), st.floats(0.5, 2e4)), st.floats(0.0, 5.0)
        ),
        min_size=1,
        max_size=12,
    ),
    c=st.one_of(st.just(0.0), st.floats(-20.0, 50.0)),
    alpha=st.floats(-3.0, 3.0),
    per_row=st.booleans(),
)
@example(rows=[(9.0, 0.5), (4.0, 1.0), (9.0, 2.0)], c=16.0, alpha=-1.0, per_row=True)
@example(rows=[(0.5, 5.0), (3.0, 2.0), (1.0, 0.7)], c=4.0, alpha=2.5, per_row=True)
def test_closed_form_batch_rows_equal_scalar_calls(rows, c, alpha, per_row):
    # Every branch runs on its own rows of the batch (the examples: s == 0
    # at lam 9, s < 0 at lam 0.5 and 1); a row must not depend on which
    # other lams share the call.
    lams = [lam for lam, _ in rows]
    t = [t for _, t in rows] if per_row else rows[0][1]
    batch = closed_form_exp(lams, c, alpha, np.asarray(t))
    assert batch.shape == (len(lams),)
    ts = t if per_row else [t] * len(lams)
    for lam, ti, x in zip(lams, ts, batch):
        one = closed_form_exp(lam, c, alpha, ti)
        assert isinstance(one, float) and one == x


def test_closed_form_shapes():
    grid = np.linspace(0.0, 2.0, 5)
    x = closed_form_exp(4.0, 2.0, -1.0, grid)
    assert x.shape == grid.shape
    # a 1-D lam against a column of times: one column per lam
    table = closed_form_exp([4.0, 16.0], 2.0, -1.0, grid[:, None])
    assert table.shape == (5, 2)
    assert table[:, 0].tolist() == x.tolist()
    assert closed_form_exp([], 2.0, -1.0, 1.0).shape == (0,)
    with pytest.raises(ValidationError, match=r"lam\[1\]"):
        closed_form_exp([4.0, math.nan], 2.0, -1.0, 1.0)


def test_series_matches_frozen_value():
    grid = UniformGrid(2048, 2.0)
    x = series_solution_grid(1.0, ConstantKernel(-1.0), grid)
    assert x[1024] == pytest.approx(X_CONSTM1_LAM1_T1, abs=5e-7)
    assert x[-1] == pytest.approx(X_CONSTM1_LAM1_T2, abs=5e-7)


def test_series_matches_dense_triangle():
    # The trapezoid with K_M stored whole: x = E + h (K E - diag(K) E / 2),
    # its column s = 0 being zero.
    grid = UniformGrid(1024, 2.0)
    kernels = (
        ZeroKernel(),
        ConstantKernel(-1.0),
        ExponentialKernel(4.0, 0.0),
        ExponentialKernel(2.0, -1.0),
        LinearKernel(),
    )
    for M in kernels:
        K = series_triangle(kernel_series_K(M, grid), grid)
        for lam in (1.0, 4.0, 9.0):
            E = np.exp(-lam * grid.nodes())
            dense = E + grid.h * (K @ E - 0.5 * np.diagonal(K) * E)
            x = series_solution_grid(lam, M, grid)
            assert np.max(np.abs(x - dense)) <= 1e-14 * np.max(np.abs(dense))


def test_series_memory_is_linear_in_n():
    # The (n + 1)**2 triangle of K_M alone would take 34 MB at n = 2048.
    grid = UniformGrid(2048, 2.0)
    tracemalloc.start()
    try:
        series_solution_grid(1.0, ExponentialKernel(4.0, 0.0), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_series_zero_kernel_is_exact_exponential():
    grid = UniformGrid(256, 2.0)
    x = series_solution_grid(3.0, ZeroKernel(), grid)
    np.testing.assert_allclose(x, np.exp(-3.0 * grid.nodes()), rtol=1e-13)


def test_nodal_closed_ladder_frozen():
    ns = nodal_set_exp_closed(1.0, 4.0, 0.0, 4.5)
    np.testing.assert_allclose(ns.zeros, ZEROS_EXP40_LAM1, rtol=1e-14)
    spac = np.diff(ns.zeros)
    np.testing.assert_allclose(spac, SPACING_EXP40_LAM1, rtol=1e-14)


def test_nodal_closed_double_root_and_real_roots():
    # lam = 4 is the double-root case: x = (1 - 2t) exp(-2t), zero at 1/2
    ns4 = nodal_set_exp_closed(4.0, 4.0, 0.0, 10.0)
    np.testing.assert_allclose(ns4.zeros, [0.5], rtol=1e-14)
    # lam = 9 has two distinct negative roots and one sign change
    ns9 = nodal_set_exp_closed(9.0, 4.0, 0.0, 10.0)
    np.testing.assert_allclose(ns9.zeros, [ZERO_EXP40_LAM9], rtol=1e-13)
    # decaying-memory case: single zero at ln 2
    ns2 = nodal_set_exp_closed(4.0, 2.0, -1.0, 5.0)
    np.testing.assert_allclose(ns2.zeros, [ZERO_EXP21_LAM4], rtol=1e-13)
    # lam = 128**2: the roots of the unshifted quadratic lose digits here
    for (c, alpha), zero in ZEROS_EXP_LAM16384.items():
        ns = nodal_set_exp_closed(16384.0, c, alpha, 1.0)
        np.testing.assert_allclose(ns.zeros, [zero], rtol=1e-13)


@pytest.mark.parametrize(
    "x, expected",
    [
        # x(0) = 0 is the initial value, not a zero; the last node is one
        ([0.0, 1.0, 2.0, 0.0], ([], [3], [[0]])),
        ([1.0, -1.0, 1.0, -1.0], ([0, 1, 2], [], [])),
        # a suspect run touching a bracket is that sign change, dropped whole
        ([1.0, 1e-12, 1e-12, -1.0, -2.0], ([2], [], [])),
        # one touching an exact zero is dropped, a free one is kept
        ([1.0, 1e-12, 0.0, 1e-12, 1.0, 2.0, 1e-12, 3e-12, 3.0], ([], [2], [[6, 7]])),
    ],
    ids=["exact-ends", "adjacent-brackets", "run-at-bracket", "free-run"],
)
def test_scan_brackets_cases(x, expected):
    x = np.asarray(x)
    assert modal._scan_brackets(x, 1.0) == expected


def test_nodal_numeric_agrees_with_ladder():
    ns = nodal_set_numeric(1.0, ExponentialKernel(4.0, 0.0), 4.5)
    assert len(ns) == 3
    np.testing.assert_allclose(ns.zeros, ZEROS_EXP40_LAM1, atol=1e-9)


def test_nodal_numeric_empty_for_zero_kernel():
    # pure decay never crosses zero; keep the window short enough that the
    # tail stays above the 1e-9 * sup tangential floor
    ns = nodal_set_numeric(4.0, ZeroKernel(), 3.0)
    assert len(ns) == 0
    assert list(ns.zeros) == []


def test_nodal_numeric_flags_underflowed_tail_as_suspect():
    # on [0, 10] the decayed tail of exp(-4t) is numerically indistinguishable
    # from a tangential zero and must be reported as a suspect, not silently
    # dropped and not refined into a sign change
    ns = nodal_set_numeric(4.0, ZeroKernel(), 10.0)
    assert len(ns) == 1
    assert ns.flags[0] == "suspected-tangential"


def test_nodal_numeric_drops_flat_neighbourhood_of_sign_change():
    # lam = 4, c = 4.75: the third zero sits where the mode has decayed to
    # about 1e-7 of its sup, so grid points a few steps either side of it
    # dip below the tangential floor; they belong to the sign change
    ns = nodal_set_numeric(4.0, ExponentialKernel(4.75, 0.0), 8.0)
    closed = nodal_set_exp_closed(4.0, 4.75, 0.0, 8.0)
    assert len(closed) == 3
    assert ns.flags == ("sign-change",) * 3
    np.testing.assert_allclose(ns.zeros, closed.zeros, rtol=0, atol=1e-8)


def test_nodal_numeric_layer_zero_at_high_lam():
    # lam = 200: the one zero lies in the e^{-lam t} layer, at t = 0.046,
    # and is found within criterion 02's 1e-8 of the closed form (measured
    # 1.4e-9).  At h lam <= 0.1 it is off by 2.3e-8, at 0.25 by 3.3e-7.
    ns = nodal_set_numeric(200.0, ExponentialKernel(4.0, 0.0), 8.0)
    closed = nodal_set_exp_closed(200.0, 4.0, 0.0, 8.0)
    assert len(closed) == 1 and ns.flags == ("sign-change",)
    np.testing.assert_allclose(ns.zeros, closed.zeros, rtol=0, atol=1e-8)


def test_linear_kernel_grows_with_cubic_root_rate():
    """M(t) = t feeds energy back: the slow characteristic pair sits at
    Re z = +0.2328, so zeros recur every pi/Im z and the envelope grows."""
    T = 12.0
    _, x = solve_modal_volterra(1.0, LinearKernel(), T, 8192)
    ns = nodal_set_numeric(1.0, LinearKernel(), T)
    spac = np.diff(ns.zeros)
    assert len(ns) >= 3
    # the first gap still feels the decaying real-root component; the later
    # gaps settle onto the asymptotic half-period pi / Im z
    np.testing.assert_allclose(spac[-1], math.pi / CUBIC_LAM1_IMAG, rtol=1e-3)
    # growing envelope: the tail maximum dominates the early maximum
    n = len(x)
    assert np.abs(x[3 * n // 4 :]).max() > 2.0 * np.abs(x[: n // 4]).max()


@pytest.mark.parametrize(
    "lam, M, T_max, count",
    [(4.0, ExponentialKernel(4.0, 0.0), 6.0, 1), (4.0, ZeroKernel(), 3.0, 0)],
    ids=["zeros", "no-zero"],
)
def test_nodal_numeric_marches_once(monkeypatch, lam, M, T_max, count):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_modal_richardson(*args, **kwargs)

    monkeypatch.setattr(modal, "solve_modal_richardson", counted)
    assert len(nodal_set_numeric(lam, M, T_max)) == count
    assert len(calls) == 1


def _bisect_to_adjacent_floats(f, lo, hi):
    """A sign change of f on [lo, hi] narrowed until no float lies between."""
    flo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if not lo < mid < hi or fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid


@pytest.mark.parametrize(
    "lam, M, T_max",
    [
        (4.0, ExponentialKernel(5.0, 0.05), 10.0),
        (4.0, ExponentialKernel(4.75, 0.0), 8.0),
        (1.0, LinearKernel(), 12.0),
        (4.0, ExponentialKernel(40.0, 0.0), 30.0),
    ],
    ids=["exp", "exp-flat-tail", "linear", "exp-deep-decay"],
)
def test_nodal_numeric_zero_is_the_spline_piece_root(lam, M, T_max):
    # Each sign-change zero is the root of the trajectory's spline piece on
    # its bracket, to rounding: bisecting the same piece down to adjacent
    # floats lands within 1e-13 of it.  The deep-decay case has about 58
    # zeros, the last where |x| is about 1e-20 of its sup.
    from scipy.interpolate import CubicSpline

    # nodal_set_numeric's march
    n = modal._n_steps(T_max, lam, modal.NODAL_N_MIN, modal.NODAL_HLAM_MAX)
    t, x = solve_modal_richardson(lam, M, T_max, n)
    spline = CubicSpline(t, x)
    zeros = nodal_set_numeric(lam, M, T_max).sign_change_zeros
    brackets = np.nonzero(np.sign(x[:-1]) * np.sign(x[1:]) < 0)[0]
    assert zeros.size == brackets.size > 0
    for z, i in zip(zeros, brackets):
        ref = _bisect_to_adjacent_floats(lambda s: float(spline(s)), t[i], t[i + 1])
        assert abs(z - ref) <= 1e-13


def test_piece_roots_stop_at_exact_zeros_and_bisect_outside_steps():
    # Piece 0, (s - 0.5)^3 on [0, 1], is exactly 0 at its secant point 0.5,
    # where its slope is 0 too: the zero must end its iteration before the
    # 0/0 Newton step bisects away from it.  Piece 1, (s - 0.3)^3 on [0, 1],
    # has a zero slope at its root, so Newton creeps and the bracket must
    # end it.  Piece 2, (2s + 1)(s^2 - 1/2) on [0, 1], has slope -1/8 at its
    # secant point 0.25: the Newton step to -5 leaves the bracket and must
    # bisect, since unguarded Newton converges to the root -1/sqrt(2).
    c = np.array(
        [[1.0, 1.0, 2.0], [-1.5, -0.9, 1.0], [0.75, 0.27, -1.0], [-0.125, -0.027, -0.5]]
    )
    h = np.ones(3)
    s = modal._piece_roots(c, h, c[3], np.polyval(c, h))
    assert s[0] == 0.5
    assert abs(s[1] - 0.3) <= 1e-5  # a triple root holds about eps^(1/3)
    assert s[2] == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_nodal_validation():
    with pytest.raises(ValidationError):
        nodal_set_numeric(0.0, ZeroKernel(), 1.0)


@pytest.mark.parametrize(
    "M", [ConstantKernel(-1.0), ZeroKernel()], ids=["constant", "zero"]
)
def test_closed_forms_cover_nonpositive_kernels(M):
    # c <= 0 takes the real-root branch: the values follow the march, and
    # the nodal set is empty, as the numeric scan finds
    c, alpha = M.exp_form()
    t, x = solve_modal_richardson(1.0, M, 2.0, 4096)
    assert np.max(np.abs(closed_form_exp(1.0, c, alpha, t) - x)) <= 1e-12
    if c < 0:
        assert closed_form_exp(1.0, c, alpha, 1.0) == pytest.approx(
            X_CONSTM1_LAM1_T1, rel=1e-14
        )
        assert closed_form_exp(1.0, c, alpha, 2.0) == pytest.approx(
            X_CONSTM1_LAM1_T2, rel=1e-14
        )
    assert len(nodal_set_exp_closed(1.0, c, alpha, 3.0)) == 0
    assert len(nodal_set_numeric(1.0, M, 3.0)) == 0
