"""Spectral frame shared by every model.

All models in this package diagonalize their dissipation operator: the state
of a simulation is (or maps isometrically onto) a complex coefficient vector,
and Sobolev norms of every order are weighted l2 sums over the eigenvalues.
This module holds the frame itself — eigenvalue lists, weighted inner
products, the H^s scale, low-frequency projections and the fractional
Laplacian multiplier — with no model-specific logic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "InnerProduct",
    "hs_norm",
    "sobolev_norm",
    "project_low",
    "fractional_symbol",
]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a dissipation operator, sorted ascending.

    The list is a finite truncation of an unbounded spectrum; ``size``
    records the truncation. All eigenvalues must be strictly positive —
    a zero eigenvalue would make the dual norm infinite and signals a
    broken boundary or pole treatment upstream.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("spectrum must be a nonempty 1-d eigenvalue list")
        if lam[0] <= 0.0:
            raise ValueError("dissipation spectrum must be strictly positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    @property
    def lam_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lam_max(self) -> float:
        return float(self.eigenvalues[-1])


@dataclass(frozen=True)
class InnerProduct:
    """Diagonal weighted inner product <f, g> = sum_j w_j f_j conj(g_j).

    The weights are flat (shear, kinetic), midpoint quadrature weights
    r_j dr (spiral) or the per-mode multiplier of the modified L2 product
    (Kolmogorov; positive only under the model's wavenumber constraint).
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w <= 0.0):
            raise ValueError("inner product is not positive definite")
        object.__setattr__(self, "weights", w)

    def inner(self, f, g) -> complex:
        cf, cg = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
        return complex(np.sum(self.weights * cf * np.conj(cg)))

    def norm(self, f) -> float:
        return float(np.sqrt(np.sum(self.weights * np.abs(f) ** 2)))


def hs_norm(a2: np.ndarray, lam: np.ndarray, s: float) -> float:
    """``(sum_j lam_j^s a2_j)^(1/2)`` from squared coefficient moduli.

    ``a2`` holds |c_j|^2 of coefficients in an orthonormal eigenbasis of A
    and ``lam`` the matching eigenvalues, in the same (any) order. Orders
    0 and +-1, the ones sampled along every trajectory, take no power.
    """
    if s == 0.0:
        w = a2
    elif s == 1.0:
        w = lam * a2
    elif s == -1.0:
        w = a2 / lam
    else:
        w = lam**s * a2
    return float(np.sqrt(w.sum()))


def _eigen_coeffs(f, spectrum: Spectrum) -> np.ndarray:
    c = np.asarray(f, dtype=complex)
    if c.size != spectrum.size:
        raise ValueError(f"field has {c.size} coefficients but spectrum has "
                         f"{spectrum.size} eigenvalues")
    return c


def sobolev_norm(f, spectrum: Spectrum, s: float) -> float:
    """H^s norm of a field expressed in the eigenbasis of ``spectrum``.

    Computes ``(sum_j lam_j^s |f_j|^2)^(1/2)``.  ``s = 0`` recovers the
    working-space norm, ``s = 1`` the dissipation form, negative ``s``
    the mixing (dual) scale: ``s = -1`` equals the variational dual norm
    ``sup_eta |<f, eta>_H| / ||eta||_{H^1}``, attained at
    ``eta = A^{-1} f``.

    Parameters
    ----------
    f : array_like
        Coefficients in the eigenbasis, same length as the spectrum.
    spectrum : Spectrum
    s : float
        Any real Sobolev order.
    """
    return hs_norm(np.abs(_eigen_coeffs(f, spectrum)) ** 2,
                   spectrum.eigenvalues, s)


def project_low(f, spectrum: Spectrum, R: float):
    """Low-frequency projection: zero every coefficient with eigenvalue > R.

    Idempotent by construction.  R below the smallest eigenvalue gives the
    zero field.  The projection satisfies the two-sided frequency-splitting
    inequalities

        ||P_R f||_H^2 <= R^s ||f||_{H^-s}^2,
        R^s ||(I - P_R) f||_H^2 <= ||f||_{H^s}^2,  s >= 0,

    which the test suite checks on random fields.
    """
    c = _eigen_coeffs(f, spectrum).copy()
    c[spectrum.eigenvalues > R] = 0.0
    return c


def fractional_symbol(gamma: float, k, m):
    """Fourier multiplier of the fractional Laplacian on the torus.

    Returns ``(k^2 + m^2)^(gamma/2)`` for mode (k, m); ``gamma = 2``
    reproduces the Laplacian symbol.  Multipliers compose additively in
    gamma.  Accepts scalars or arrays for k and m.
    """
    if not 0.0 < gamma <= 2.0:
        raise ValueError(f"diffusion order gamma must lie in (0, 2], got {gamma}")
    k = np.asarray(k, dtype=float)
    m = np.asarray(m, dtype=float)
    out = (k * k + m * m) ** (gamma / 2.0)
    if out.ndim == 0:
        return float(out)
    return out
