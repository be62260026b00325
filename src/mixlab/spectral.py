"""The H^s scale on bare coefficients, and the fractional Laplacian symbol.

Every model diagonalizes its dissipation operator A, so Sobolev norms of
every order are eigenvalue-weighted sums of squared coefficient moduli.
:func:`hs_weights` gives the weights ``lam^s`` of one order, and
:func:`hs_norm` is one product of them with an array of squared moduli.
States, the working product and the cut-off P_R live on
:class:`mixlab.models.ModelProblem`, which calls :func:`hs_norm` through
its representation ``op``. The integrator stacks the weights of every
order it samples, once per run, so that each sample is one
matrix-vector product (see :mod:`mixlab.evolution`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["hs_weights", "hs_norm", "fractional_symbol"]


def hs_weights(lam: np.ndarray, s: float) -> np.ndarray:
    """The weights ``lam_j^s`` of the H^s norm over eigenvalues ``lam``."""
    return lam**s


def hs_norm(a2: np.ndarray, lam: np.ndarray, s: float) -> float:
    """``(sum_j lam_j^s a2_j)^(1/2)`` from squared coefficient moduli.

    ``a2`` holds |c_j|^2 of coefficients in an orthonormal eigenbasis of A
    and ``lam`` the matching eigenvalues, in the same (any) order; the sum
    is one product with :func:`hs_weights`.
    """
    return float(np.sqrt(hs_weights(lam, s) @ a2))


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
