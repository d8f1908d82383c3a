"""Reference values the benchmark checks memobs outputs against.

Every function here recomputes a quantity without the memobs march, cache,
overlap assembly or eigen-assembly: modal values come from closed forms
(memobs' ``closed_form_exp`` oracle for exponential kernels), region overlaps
from Gauss-Legendre quadrature.  Checks run outside the timed spans and raise
``CheckError`` on a wrong output.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from memobs import closed_form_exp


class CheckError(Exception):
    """An operation returned an output that fails its oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def within(err: float, tol: float, what: str) -> float:
    """Return err when it is at most tol, else fail with a message."""
    require(math.isfinite(err) and err <= tol, f"{what}: error {err:.3e} > {tol:.1e}")
    return err


def exp_mode(lam: float, c: float, alpha: float, t):
    """Modal solution for M(t) = c exp(alpha t), c > 0."""
    return closed_form_exp(lam, c, alpha, t)


def constant_mode(lam: float, v: float, t: float) -> float:
    """Modal solution for M(t) = v < lam^2 / 4: x'' + lam x' + v x = 0 with
    x(0) = 1, x'(0) = -lam, from its two real characteristic roots."""
    root = math.sqrt(lam * lam - 4.0 * v)
    r1, r2 = 0.5 * (-lam + root), 0.5 * (-lam - root)
    return ((-lam - r2) * math.exp(r1 * t) - (-lam - r1) * math.exp(r2 * t)) / (r1 - r2)


def zero_mode(lam: float, t):
    return np.exp(-lam * np.asarray(t, dtype=float))


def eigenvalues(L: float, K: int) -> np.ndarray:
    return (np.arange(1, K + 1) * np.pi / L) ** 2


def overlap(L: float, K: int, intervals) -> np.ndarray:
    """G_kl = sum over intervals of the integral of e_k e_l, by Gauss-Legendre
    quadrature with enough nodes to integrate the sine products to rounding."""
    nodes, weights = leggauss(4 * K + 16)
    k = np.arange(1, K + 1)
    G = np.zeros((K, K))
    for a, b in intervals:
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        E = math.sqrt(2.0 / L) * np.sin(np.outer(x, k) * np.pi / L)
        G += (E * (0.5 * (b - a) * weights)[:, None]).T @ E
    return G


def constants(S: np.ndarray, K_list) -> list[tuple[float, float]]:
    """(c_min, c_max) of the leading K x K blocks of the scaled form S, with
    c_min^2 taken as nu * min_k S_kk where nu is the smallest eigenvalue of
    the unit-diagonal rescaling of S (the lower estimate memobs reports)."""
    out = []
    for K in K_list:
        B = S[:K, :K]
        mu_max = max(float(np.linalg.eigvalsh(B)[-1]), 0.0)
        d = np.sqrt(np.diagonal(B))
        if d.min() <= 0.0:
            out.append((0.0, math.sqrt(mu_max)))
            continue
        nu = min(max(float(np.linalg.eigvalsh(B / np.outer(d, d))[0]), 0.0), 1.0)
        out.append((math.sqrt(nu) * float(d.min()), math.sqrt(mu_max)))
    return out


def scaled_form(L: float, K: int, plan, mode) -> np.ndarray:
    """S = sum_j (u_j u_j^T) * G_j with u_j = lambda^2 x(t_j); ``plan`` is a
    list of (t, intervals) and ``mode(lam, t)`` gives modal values."""
    lams = eigenvalues(L, K)
    S = np.zeros((K, K))
    for t, intervals in plan:
        u = lams**2 * np.array([mode(lam, t) for lam in lams])
        S += np.outer(u, u) * overlap(L, K, intervals)
    return S


def probe_ratio(L: float, K: int, plan, mode, x0: float, r: float) -> float:
    """Observation-to-H^-4 ratio of the probe whose A^-2 image is the
    normalized indicator of B(x0, r) intersected with (0, L)."""
    lams = eigenvalues(L, K)
    k = np.arange(1, K + 1)
    p, q = max(0.0, x0 - r), min(L, x0 + r)
    b = (
        math.sqrt(2.0 / L) * (L / (k * np.pi))
        * (np.cos(k * np.pi * p / L) - np.cos(k * np.pi * q / L))
        / math.sqrt(q - p)
    )
    a = lams**2 * b
    num = 0.0
    for t, intervals in plan:
        v = a * np.array([mode(lam, t) for lam in lams])
        num += math.sqrt(max(float(v @ overlap(L, K, intervals) @ v), 0.0))
    return num / math.sqrt(float(np.sum(b * b)))


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / (scale if scale > 0 else 1.0)
