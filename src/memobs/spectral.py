"""Dirichlet spectral basis on an interval and Sobolev-scale coefficient fields.

The domain is Omega = (0, L) with the Dirichlet Laplacian eigenvalues and
modes

    lambda_k = (k pi / L)**2,      e_k(x) = sqrt(2/L) sin(k pi x / L),

for 1 <= k <= K.  A field is a coefficient vector a_1..a_K against e_k, and
its H^s norm is sqrt(sum a_k**2 lambda_k**s) for any real s.  Overlap
integrals of mode products over interval unions are evaluated from the
closed-form antiderivatives of sine products, so no quadrature error enters
the observability algebra built on top of them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError, integer, real, reals
from .regions import ObservationRegion


class SpectralBasis:
    """Truncated sine basis on (0, L).

    Parameters
    ----------
    L : float
        Interval length, positive.
    K : int
        Truncation level; modes 1..K are retained.
    """

    def __init__(self, L: float, K: int):
        self.L = real(L, "L", positive=True)
        self.K = integer(K, "K", lo=1)
        k = np.arange(1, self.K + 1)
        self.eigenvalues = (k * np.pi / self.L) ** 2

    def modes_at(self, x) -> np.ndarray:
        """Matrix of e_k(x_i), shape (len(x), K)."""
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all((xv >= -1e-12) & (xv <= self.L + 1e-12)):
            raise ValidationError(f"argument outside [0, {self.L}]")
        k = np.arange(1, self.K + 1)
        return math.sqrt(2.0 / self.L) * np.sin(np.outer(xv, k) * np.pi / self.L)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpectralBasis)
            and self.L == other.L
            and self.K == other.K
        )

    def __hash__(self) -> int:
        return hash((self.L, self.K))

    def __repr__(self) -> str:
        return f"SpectralBasis(L={self.L!r}, K={self.K})"


class SpectralField:
    """Coefficient vector against the sine basis."""

    def __init__(self, basis: SpectralBasis, coefficients):
        shape = np.shape(coefficients)
        if shape != (basis.K,):
            raise ValidationError(f"expected {basis.K} coefficients, got shape {shape}")
        self.basis = basis
        self.coefficients = reals(coefficients, "coefficients").copy()

    def hs_norm(self, s: float) -> float:
        """H^s norm sqrt(sum a_k**2 lambda_k**s)."""
        a = self.coefficients
        return float(np.sqrt(np.sum(a * a * self.basis.eigenvalues ** real(s, "s"))))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if self.basis != other.basis:
            raise ValidationError("fields live on different bases")
        return SpectralField(self.basis, self.coefficients + other.coefficients)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if self.basis != other.basis:
            raise ValidationError("fields live on different bases")
        return SpectralField(self.basis, self.coefficients - other.coefficients)

    def __rmul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.basis, real(scalar, "scalar") * self.coefficients)

    def __repr__(self) -> str:
        return f"SpectralField(K={self.basis.K}, L={self.basis.L!r})"


def overlap_matrix(basis: SpectralBasis, region: ObservationRegion) -> np.ndarray:
    """Gram matrix G_kl = integral over the region of e_k e_l dx.

    Uses the exact antiderivatives of sin(k pi x/L) sin(l pi x/L); for the full
    interval the result is the identity.  An empty region gives the zero
    matrix.  Symmetric positive semidefinite with eigenvalues in [0, 1].
    """
    if not isinstance(region, ObservationRegion):
        region = ObservationRegion(region)
    K, L = basis.K, basis.L
    k = np.arange(1, K + 1)
    kk = k[:, None].astype(float)
    ll = k[None, :].astype(float)
    dif = kk - ll
    ssum = kk + ll
    # Avoid 0/0 on the diagonal; it is overwritten below.
    dif_safe = np.where(dif == 0.0, 1.0, dif)

    def anti(x: np.ndarray) -> np.ndarray:
        # One K x K antiderivative per entry of x, with the operations of a
        # scalar x, entry by entry.
        x = x[:, None, None]
        off = np.sin(dif * np.pi * x / L) / (dif_safe * np.pi)
        out = off - np.sin(ssum * np.pi * x / L) / (ssum * np.pi)
        x = x[:, :, 0]
        diag = x / L - np.sin(2.0 * k * np.pi * x / L) / (2.0 * k * np.pi)
        out[:, k - 1, k - 1] = diag
        return out

    ends = []
    for it in region.intervals:
        if it.a < -1e-12 or it.b > L + 1e-12:
            raise ValidationError(
                f"interval [{it.a}, {it.b}] not inside the domain [0, {L}]"
            )
        ends += [min(max(it.a, 0.0), L), min(max(it.b, 0.0), L)]
    G = np.zeros((K, K))
    if ends:
        A = anti(np.array(ends))
        for d in A[1::2] - A[::2]:
            G += d
    return G
