"""Concrete model problems: shear, Kolmogorov, spiral and kinetic flows.

Each builder assembles a :class:`ModelProblem` — its representation of the
pair (A, B) and of the working inner product, and the model's predicted
exponents — in a form where the structural identities hold *exactly* in
floating point:

* B is skew-adjoint in the working product by construction (unimodular
  phases, or matrices that are antisymmetric in flat coordinates), so the
  inviscid flow is an isometry;
* A is self-adjoint and strictly positive (diagonal multipliers on the
  torus and in the Hermite basis; a tridiagonal with a no-flux boundary on
  the disk), so the Sobolev scale and the dual mixing norm are
  well-defined.

The representation ``problem.op`` — a Fourier phase (shear, heat), a radial
phase in A's eigenbasis (spiral) or a dense skew matrix (Kolmogorov,
kinetic) — is the model's one spectral frame. It stores the weights of
the working product once (``op.w``), maps states to orthonormal
coordinates where A is diagonal (``op.lam``), applies B there and returns
the exact flow g -> e^{-Bt} g for any t. :class:`ModelProblem` reads
every norm and projection off it: the product ``inner``, the H^s norms
``sobolev``, the cut-off ``project_low`` (P_R) and ``lam1``.

The integrator asks for one flow per step size it uses. The
phases form theirs directly; the skew matrix diagonalizes iB once per
model and applies every flow in that eigenbasis, so a new step size
costs nothing to set up.

Each family is declared once, in :data:`FAMILIES`: its builder, which
takes the model parameters as keywords with defaults, and the map from
command-line and sweep flags to those keywords. :func:`build_model`,
:func:`model_params` and the CLI's ``--model`` choices all read it. The
builder also declares the family's named initial data, written in its own
coordinates (``problem.data``); :func:`initial_datum` looks them up and
adds the seeded ``"random-h1"`` every family shares.

State conventions
-----------------
shear        Fourier coefficients of the retained x-mode, numpy fft order,
             ``norm="forward"`` convention (coefficient c_m multiplies
             e^{imy}); flat inner product, ``w = 1``.
kolmogorov   Fourier coefficients in *sorted* mode order m = -M..M-1;
             weighted product, ``w`` = s_m = 1 - 1/(L^2k^2+m^2) per mode.
spiral       values on the cell-centered radial grid r_j = (j-1/2)/N;
             midpoint-quadrature product, ``w`` = r_j dr.
kinetic      coefficients on normalized Hermite modes of total degree
             1..N (degree 0 carries no dynamics and is excluded to keep A
             strictly positive); flat product, ``w = 1``.
"""

from __future__ import annotations

import csv as _csv
import os
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import product as _iproduct
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from .spectral import fractional_symbol, hs_norm

__all__ = [
    "EvolutionError",
    "FourierPhase",
    "RadialPhase",
    "SkewMatrix",
    "ModelProblem",
    "PROFILES",
    "load_profile_csv",
    "resolve_profile",
    "build_shear",
    "build_kolmogorov",
    "build_spiral",
    "build_kinetic",
    "FAMILIES",
    "build_model",
    "model_params",
    "exact_inviscid",
    "predicted_rates",
    "initial_datum",
]


# ---------------------------------------------------------------------------
# shear profiles

def _sin2(y):
    return np.sin(y) + np.sin(2.0 * y)


def _dsin2(y):
    return np.cos(y) + 2.0 * np.cos(2.0 * y)


#: name -> (u, u', maximal vanishing order n0 of u' at its critical points).
#: n0 is declared, not detected: the vanishing order of a closure is not
#: robustly computable from grid samples.
PROFILES: dict[str, tuple[Callable, Callable, int | None]] = {
    "sin": (np.sin, np.cos, 1),
    "sin2": (_sin2, _dsin2, 1),
    "zero": (lambda y: np.zeros_like(y), lambda y: np.zeros_like(y), None),
}


def load_profile_csv(path) -> tuple[Callable, Callable, None]:
    """Load a tabulated shear profile from a CSV with columns ``y, u``.

    The table is interpolated linearly and extended 2*pi-periodically; the
    derivative is a finite difference of the table (adequate for the
    advection bound and the commutator constant, which only need max|u'|).
    The vanishing order n0 cannot be inferred from a table and must be
    supplied by the caller.
    """
    ys, us = [], []
    with open(path, newline="") as fh:
        for row in _csv.reader(fh):
            if not row or row[0].strip().lower() in ("y", ""):
                continue
            ys.append(float(row[0]))
            us.append(float(row[1]))
    ys = np.asarray(ys)
    us = np.asarray(us)
    order = np.argsort(ys)
    ys, us = ys[order], us[order]

    def u(y):
        yy = np.mod(y, 2.0 * np.pi)
        return np.interp(yy, ys, us, period=2.0 * np.pi)

    def uprime(y):
        eps = 1e-6
        return (u(np.asarray(y) + eps) - u(np.asarray(y) - eps)) / (2.0 * eps)

    return u, uprime, None


def resolve_profile(profile: str) -> tuple[Callable, Callable, int | None]:
    """``(u, u', n0 or None)`` of a shear profile given as a registry name
    or the path of a ``y,u`` CSV table."""
    if profile in PROFILES:
        return PROFILES[profile]
    if os.path.isfile(profile):
        return load_profile_csv(profile)
    raise ValueError(f"unknown shear profile {profile!r}; registered: "
                     f"{sorted(PROFILES)}, or the path of a y,u CSV file")


# ---------------------------------------------------------------------------
# representations: internal coordinates and the exact advection flow

UNITARITY_TOL = 1e-10


class EvolutionError(RuntimeError):
    """Simulation failure: non-finite state or broken substep."""


def _grid_times(mult: np.ndarray):
    """Map of Fourier coefficients: multiply their grid values by ``mult``."""
    return lambda c: np.fft.fft(mult * np.fft.ifft(c, norm="forward"),
                                norm="forward")


class FourierPhase:
    """B = i * rate(y) on the grid of a Fourier series (shear, heat); the
    internal coordinates are the state's own Fourier coefficients, and the
    working product is flat (``w = 1``)."""

    kind = "phase"
    w = 1.0

    def __init__(self, lam: np.ndarray, rate: np.ndarray):
        self.lam = lam
        self.rate = rate

    def to_internal(self, state) -> np.ndarray:
        return np.asarray(state, dtype=complex)

    def from_internal(self, g: np.ndarray) -> np.ndarray:
        return g

    def apply_B(self, g: np.ndarray) -> np.ndarray:
        return _grid_times(1j * self.rate)(g)

    def flow(self, t: float):
        return _grid_times(np.exp(-1j * self.rate * t))

    def inviscid(self, state, t: float) -> np.ndarray:
        return self.flow(t)(self.to_internal(state))


class RadialPhase:
    """B = i * rate(r) on the radial grid of the disk (spiral), whose
    working product has the quadrature weights ``w``; the internal
    coordinates are A's eigencoordinates ``V.T @ (sqrt(w) * f)``,
    ascending."""

    kind = "phase"

    def __init__(self, lam: np.ndarray, V: np.ndarray, w: np.ndarray,
                 rate: np.ndarray):
        self.lam = lam
        self.V = V
        self.w = w
        self.sqw = np.sqrt(w)
        self.rate = rate

    def to_internal(self, state) -> np.ndarray:
        return self.V.T @ (self.sqw * state)

    def from_internal(self, g: np.ndarray) -> np.ndarray:
        return (self.V @ g) / self.sqw

    def apply_B(self, g: np.ndarray) -> np.ndarray:
        return self.V.T @ (1j * self.rate * (self.V @ g))

    def flow(self, t: float):
        """The radial phase moved into A's eigenbasis: a dense unitary."""
        phase = np.exp(-1j * self.rate * t)
        U = self.V.T @ (phase[:, None] * self.V)
        return lambda g: U @ g

    def inviscid(self, state, t: float) -> np.ndarray:
        return np.exp(-1j * self.rate * t) * np.asarray(state, dtype=complex)


class SkewMatrix:
    """B a dense skew-Hermitian matrix (Kolmogorov, kinetic) in the flat
    internal coordinates ``sqrt(w) * f`` of the working product with
    per-coefficient weights ``w``, where A is diagonal."""

    kind = "matrix"

    def __init__(self, lam: np.ndarray, w: np.ndarray, B: np.ndarray):
        self.lam = lam
        self.w = w
        self.sqw = np.sqrt(w)
        self.B = B

    def to_internal(self, state) -> np.ndarray:
        return self.sqw * state

    def from_internal(self, g: np.ndarray) -> np.ndarray:
        return g / self.sqw

    def apply_B(self, g: np.ndarray) -> np.ndarray:
        return self.B @ g

    @cached_property
    def _eigenbasis(self):
        """(theta, E, E^H) with iB = E diag(theta) E^H, computed once;
        :class:`EvolutionError` if E's unitarity defect exceeds the
        tolerance."""
        theta, E = np.linalg.eigh(1j * self.B)
        EH = E.conj().T
        defect = np.abs(EH @ E - np.eye(E.shape[0])).max()
        if defect > UNITARITY_TOL:
            raise EvolutionError(
                f"advection eigenbasis unitarity defect {defect:.2e} "
                f"exceeds {UNITARITY_TOL:g}"
            )
        return theta, E, EH

    def flow(self, t: float):
        """exp(-B t) = E e^{i theta t} E^H, applied in the eigenbasis of
        iB: two matrix-vector products a step, and nothing to form when
        the step size changes."""
        theta, E, EH = self._eigenbasis
        phase = np.exp(1j * theta * t)
        return lambda g: E @ (phase * (EH @ g))


@dataclass(frozen=True)
class ModelProblem:
    """A built model: representation, constants, predictions.

    ``kind`` is the representation's ``"phase"`` (the inviscid flow has a
    closed form on the grid) or ``"matrix"``. States are vectors in the
    model's own coordinates; the working product, the H^s scale and the
    low-frequency projection P_R act on them through ``op``.
    """

    name: str
    params: dict
    op: FourierPhase | RadialPhase | SkewMatrix
    c_B: float
    bound_B: float  # advection strength bound used by the time-step policy
    mixed_bound: float | None  # improved |Re<Bf, Af>| <= C ||f||_H ||f||_H1
    p: float | None  # predicted mixing exponent
    q: float | None  # predicted enhanced-dissipation exponent
    alt_q: float | None = None  # alternative prediction where one exists
    basis: str = "eigen"
    #: named initial data: name -> zero-argument callable returning the
    #: unnormalized state, formed on demand
    data: dict[str, Callable[[], np.ndarray]] = field(default_factory=dict)

    def __post_init__(self):
        if np.ndim(self.op.lam) != 1 or np.size(self.op.lam) == 0:
            raise ValueError("dissipation eigenvalues must be a nonempty 1-d array")
        # a zero eigenvalue makes the dual norm infinite: a broken boundary
        if np.any(self.op.lam <= 0.0):
            raise ValueError("dissipation eigenvalues must be strictly positive")
        if np.any(np.asarray(self.op.w) <= 0.0):
            raise ValueError("inner product is not positive definite")

    @property
    def kind(self) -> str:
        return self.op.kind

    @property
    def size(self) -> int:
        return self.op.lam.size

    @property
    def lam1(self) -> float:
        return float(self.op.lam.min())

    def _internal(self, state) -> np.ndarray:
        if np.shape(state) != (self.size,):
            raise ValueError(f"state has shape {np.shape(state)}, model has "
                             f"{self.size} coefficients")
        return self.op.to_internal(state)

    def inner(self, f, g) -> complex:
        """Working product <f, g> = sum_j w_j f_j conj(g_j)."""
        cf, cg = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
        if not cf.shape == cg.shape == (self.size,):
            raise ValueError(f"states {cf.shape}, {cg.shape}; model size {self.size}")
        return complex(np.sum(self.op.w * cf * np.conj(cg)))

    def sobolev(self, state, s: float) -> float:
        """H^s norm of a state (s = 0: working norm, s = -1: mixing norm)."""
        return hs_norm(np.abs(self._internal(state)) ** 2, self.op.lam, s)

    def project_low(self, state, R: float) -> np.ndarray:
        """P_R: keep the eigencomponents with eigenvalue <= R. Idempotent;
        R below ``lam1`` gives zero. For s >= 0 it splits frequencies as
        ``||P_R f||^2 <= R^s ||f||_{H^-s}^2`` and
        ``R^s ||(I - P_R) f||^2 <= ||f||_{H^s}^2``."""
        op = self.op
        return op.from_internal(np.where(op.lam <= R, self._internal(state), 0))

    def apply_B(self, state) -> np.ndarray:
        """Advection operator acting on a state vector."""
        return self.op.from_internal(self.op.apply_B(self._internal(state)))

    def apply_A(self, state) -> np.ndarray:
        return self.op.from_internal(self.op.lam * self._internal(state))


# ---------------------------------------------------------------------------
# builders

def build_shear(*, profile="sin", gamma: float = 2.0, k: int = 1,
                n0: int | None = None, M: int = 512) -> ModelProblem:
    """Shear flow on the torus, one x-wavenumber, fractional diffusion.

    A is the diagonal multiplier (k^2 + m^2)^(gamma/2); B is multiplication
    by i*k*u(y), an exact unimodular phase in physical space. The
    advection-diffusion commutator constant is c_B = max|u'| (for the
    Laplacian case; for fractional orders the same quantity is recorded as
    the natural strength scale). The predicted mixing exponent on this
    model's own dual scale is p = gamma / (2 (n0 + 1)) and the
    enhanced-dissipation prediction is q = 2 / (2 + p).
    """
    if M < 1:
        raise ValueError(f"shear resolution M must be >= 1, got {M}")
    if k == 0:
        raise ValueError("shear model requires a nonzero x-wavenumber k")
    u_fn, du_fn, n0_default = resolve_profile(profile)
    n0 = n0 if n0 is not None else n0_default

    n = 2 * M
    y = 2.0 * np.pi * np.arange(n) / n
    modes = np.fft.fftfreq(n, d=1.0 / n)
    lam = fractional_symbol(gamma, k, modes)
    u = np.asarray(u_fn(y), dtype=float)
    du = np.asarray(du_fn(y), dtype=float)
    max_du = float(np.max(np.abs(du)))
    max_u = float(np.max(np.abs(u)))

    zero_profile = max_u == 0.0
    if zero_profile:
        p = None
        q = 1.0  # plain diffusive scale: no enhancement to predict
    elif n0 is None:
        p = q = None
    else:
        p = gamma / (2.0 * (n0 + 1))
        q = 2.0 / (2.0 + p)

    params = {"profile": profile, "gamma": gamma, "k": k, "n0": n0, "M": M}
    return ModelProblem(
        name="shear",
        params=params,
        op=FourierPhase(lam, k * u),
        c_B=max_du,
        bound_B=abs(k) * max_u,
        mixed_bound=None,
        p=p,
        q=q,
        basis="torus-fourier",
        data={"single-mode-m1": lambda: (modes == 1.0).astype(complex),
              "gaussian-bump": lambda: np.fft.fft(np.exp(
                  -((y - np.pi) ** 2) / 0.5).astype(complex), norm="forward")},
    )


def build_kolmogorov(*, L: float = 2.0, k: int = 1,
                     M: int = 512) -> ModelProblem:
    """Linearized sinusoidal shear on an L-aspect torus.

    The advecting operator carries the nonlocal vorticity correction: on
    mode m it couples to m +- 1 with entries (kL/2) s_{m-+1}, where
    s_m = 1 - 1/(L^2 k^2 + m^2) is also the per-mode multiplier of the
    working inner product. The product is positive definite only under the
    wavenumber constraint |k| >= 2 on the square torus (|k| >= 1 for
    L > 1): at L = 1, |k| = 1 the m = 0 multiplier vanishes.

    B is exactly skew in the weighted product, including at the mode-space
    truncation (the dropped couplings are the boundary pair); after
    symmetrization it is a real antisymmetric tridiagonal matrix.
    """
    if M < 1:
        raise ValueError(f"kolmogorov resolution M must be >= 1, got {M}")
    if L < 1.0:
        raise ValueError(f"aspect ratio L must be >= 1, got {L}")
    if k == 0:
        raise ValueError("kolmogorov model requires a nonzero x-wavenumber k")
    if L == 1.0 and abs(k) < 2:
        raise ValueError(
            "wavenumber constraint violated: on the square torus (L = 1) the "
            "working inner product degenerates for |k| = 1; use |k| >= 2"
        )

    n = 2 * M
    modes = np.arange(-M, M, dtype=float)  # sorted layout
    mu = L**2 * k**2 + modes**2
    s = 1.0 - 1.0 / mu
    kL = k * L

    # advection generator in flat coordinates: antisymmetric real
    # tridiagonal with sub-diagonal (kL/2) sqrt(s_m s_{m-1}) on row m
    off = 0.5 * kL * np.sqrt(s[1:] * s[:-1])
    B = np.zeros((n, n))
    idx = np.arange(n - 1)
    B[idx + 1, idx] = off
    B[idx, idx + 1] = -off

    params = {"L": L, "k": k, "M": M}
    return ModelProblem(
        name="kolmogorov",
        params=params,
        op=SkewMatrix(mu, s, B),
        c_B=abs(kL) / np.sqrt(mu.min()),  # = 1 exactly for every valid (L, k)
        bound_B=abs(kL),
        mixed_bound=None,
        p=1.0,
        q=2.0 / 3.0,
        alt_q=3.0 / 5.0,
        basis="torus-fourier-sorted",
        data={"single-mode-m1": lambda: (modes == 1.0).astype(complex),
              "gaussian-bump": lambda: np.exp(-0.125 * modes**2
                                              - 1j * np.pi * modes)},
    )


def _disk_operator(N: int, k: int):
    """Symmetrized radial operator -Lap_k on the cell-centered disk grid.

    Conservative flux form with a zero flux through both the pole face
    (automatic: the r = 0 face has zero measure) and the outer boundary,
    which makes the matrix exactly self-adjoint in the midpoint quadrature
    and strictly positive for k != 0, the only k it accepts.
    """
    if N < 1:
        raise ValueError(f"disk resolution N must be >= 1, got {N}")
    if k == 0:
        raise ValueError("spiral model requires a nonzero angular wavenumber k")
    dr = 1.0 / N
    r = (np.arange(1, N + 1) - 0.5) * dr
    re = np.arange(1, N) * dr  # interior cell edges r_{j+1/2}
    flux = np.zeros(N + 1)
    flux[1:-1] = re
    diag = (flux[:-1] + flux[1:]) / (r * dr * dr) + k * k / (r * r)
    off = -re / (dr * dr * np.sqrt(r[:-1] * r[1:]))
    return r, dr, diag, off


def _disk_data(r: np.ndarray, lowest_mode) -> dict:
    """Named disk data as unnormalized values on the radial grid ``r``;
    ``lowest_mode()`` returns A's lowest eigenmode there. ``"uniform"``
    represents the radial data class that saturates the mixing rate."""
    return {"uniform": lambda: np.ones(r.size, dtype=complex),
            "single-mode-m1": lambda: lowest_mode().astype(complex),
            "gaussian-bump": lambda: np.exp(-((r - 0.5) ** 2)
                                            / 0.045).astype(complex)}


def build_spiral(*, alpha: float = 1.0, k: int = 1,
                 N: int = 256) -> ModelProblem:
    """Swirling flow on the unit disk, angular wavenumber k.

    B is multiplication by i k r^alpha — an exact diagonal phase on the
    radial grid. A is the radial operator with a no-flux outer boundary,
    diagonalized once per (N, k); its eigendecomposition also provides the
    dual mixing norm. The improved advection-dissipation bound
    |Re<Bf, Af>| <= 2 alpha |k| ||f||_H ||f||_{H^1} is recorded for the
    sharpened constant in the decay-rate formulas.
    """
    if alpha < 1.0:
        raise ValueError(f"swirl exponent alpha must be >= 1, got {alpha}")
    r, dr, diag, off = _disk_operator(N, k)
    lam, vecs = eigh_tridiagonal(diag, off)
    p_alpha = 2.0 / max(alpha, 2.0)
    q_alpha = (4.0 - p_alpha) / (4.0 + p_alpha)
    mixed = 2.0 * alpha * abs(k)
    params = {"alpha": alpha, "k": k, "N": N}
    return ModelProblem(
        name="spiral",
        params=params,
        op=RadialPhase(lam, vecs, r * dr, k * r**alpha),
        c_B=mixed / np.sqrt(lam[0]),
        bound_B=float(abs(k) * np.max(r**alpha)),
        mixed_bound=mixed,
        p=p_alpha,
        q=q_alpha,
        basis="radial-grid",
        data=_disk_data(r, lambda: vecs[:, 0] / np.sqrt(r * dr)),
    )


def _hermite_indices(N: int, d: int):
    """Multi-indices of total degree 1..N in d velocity dimensions."""
    idx = [n for n in _iproduct(range(N + 1), repeat=d) if 0 < sum(n) <= N]
    idx.sort(key=lambda n: (sum(n), n))
    return idx


def build_kinetic(*, k: int | tuple = 1, N: int = 64,
                  d: int = 1) -> ModelProblem:
    """Kinetic free transport against a Gaussian velocity equilibrium.

    In normalized Hermite coordinates of the Gaussian-weighted velocity
    space, A (the Ornstein-Uhlenbeck operator) is diagonal with eigenvalue
    equal to the total degree, and B = i v.k couples adjacent degrees
    through the ladder relation v_j h_n = sqrt(n_j+1) h_{n+e_j}
    + sqrt(n_j) h_{n-e_j}. The degree-0 mode is dynamically inert under
    diffusion and is excluded so A stays strictly positive; the coupling
    into it (and past the top degree N) is truncated, which preserves exact
    skewness. On this truncation |Re<Bf, Af>| <= |k| ||f||_H ||f||_{H^1}
    holds exactly, by one Cauchy-Schwarz on the surviving ladder sum.
    """
    if N < 2:
        raise ValueError("kinetic truncation degree N must be >= 2")
    if d < 1:
        raise ValueError(f"kinetic velocity dimension d must be >= 1, got {d}")
    kvec = np.atleast_1d(np.asarray(k, dtype=float))
    if kvec.size != d:
        if kvec.size == 1:
            kvec = np.concatenate([kvec, np.zeros(d - 1)])
        else:
            raise ValueError(f"frequency vector has {kvec.size} entries for d={d}")
    if not np.any(kvec):
        raise ValueError("kinetic model requires a nonzero spatial frequency")

    idx = _hermite_indices(N, d)
    pos = {n: i for i, n in enumerate(idx)}
    D = len(idx)
    degrees = np.array([sum(n) for n in idx], dtype=float)

    K = np.zeros((D, D))  # v.k in the normalized ladder basis (symmetric)
    for i, n in enumerate(idx):
        for j in range(d):
            if kvec[j] == 0.0:
                continue
            up = list(n)
            up[j] += 1
            other = pos.get(tuple(up))
            if other is not None:
                K[other, i] += kvec[j] * np.sqrt(n[j] + 1.0)
                K[i, other] += kvec[j] * np.sqrt(n[j] + 1.0)

    knorm = float(np.linalg.norm(kvec))
    params = {"k": k if np.isscalar(k) else tuple(kvec), "N": N, "d": d}
    return ModelProblem(
        name="kinetic",
        params=params,
        op=SkewMatrix(degrees, np.ones(D), 1j * K),
        c_B=knorm,  # lam1 = 1, so the mixed bound doubles as the commutator bound
        bound_B=float(np.max(np.abs(np.linalg.eigvalsh(K)))),
        mixed_bound=knorm,
        p=None,
        q=None,
        basis="hermite",
        data={"single-mode-m1": lambda: np.eye(1, D, dtype=complex)[0]},
    )


#: family -> (builder, model flag -> builder keyword); ``k`` goes to every
#: family. ``"heat"`` is the zero-profile shear.
FAMILIES: dict[str, tuple[Callable[..., ModelProblem], dict[str, str]]] = {
    "shear": (build_shear, {"profile": "profile", "gamma": "gamma",
                            "n0": "n0", "resolution": "M"}),
    "kolmogorov": (build_kolmogorov, {"L": "L", "resolution": "M"}),
    "spiral": (build_spiral, {"alpha": "alpha", "resolution": "N"}),
    "kinetic": (build_kinetic, {"d": "d", "resolution": "N"}),
    "heat": (partial(build_shear, profile="zero"),
             {"gamma": "gamma", "resolution": "M"}),
}


def _family(name: str):
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; choose from "
                         f"{sorted(FAMILIES)}") from None


def build_model(name: str, **params) -> ModelProblem:
    """Build a model by family name from its builder's keywords; the
    model carries the family name (``"heat"`` is a shear build)."""
    return replace(_family(name)[0](**params), name=name)


def model_params(family: str, values) -> dict:
    """Builder keyword arguments of ``build_model(family, ...)``.

    ``values`` maps flag names (``k``, ``profile``, ``gamma``, ``n0``,
    ``alpha``, ``L``, ``d``, ``resolution``) to values, as the command
    line and a sweep row give them; ``k`` is required. Flags the family
    does not take are ignored, and a missing or None flag keeps the
    builder's default.
    """
    flags = _family(family)[1]
    kw = {"k": values["k"]}
    for flag, key in flags.items():
        if values.get(flag) is not None:
            kw[key] = values[flag]
    return kw


# ---------------------------------------------------------------------------
# closed forms and predictions

def exact_inviscid(problem: ModelProblem, f_in, t: float):
    """Closed-form inviscid solution where the advection is a pure phase.

    For the shear and spiral models the inviscid flow is multiplication by
    ``exp(-i * rate * t)`` on the physical grid, which
    preserves the working norm to machine precision. Models whose advection
    mixes modes (Kolmogorov, kinetic) have no closed form.
    """
    if problem.kind != "phase":
        raise ValueError(
            f"model {problem.name!r} has no closed-form inviscid solution"
        )
    return problem.op.inviscid(f_in, t)


def predicted_rates(problem: ModelProblem, a: float | None = None) -> dict:
    """Predicted exponents and decay constants for a built model.

    Returns a dict with keys ``p`` (mixing exponent on the model's dual
    scale), ``q`` (enhanced-dissipation exponent; time-scale nu^-q),
    ``alt_q`` (secondary prediction where noted), ``c_B``, ``log_power``
    (the |ln nu| power of the time-scale under exponential mixing, 2/p)
    and ``c0`` — the explicit decay constant, evaluated only when the
    mixing amplitude ``a`` is supplied (the theory treats it as given; in
    practice it is fitted from an inviscid run).
    """
    from .diagnostics import constant_c0_poly, constant_c0_spiral

    p, q = problem.p, problem.q
    out = {
        "p": p,
        "q": q,
        "alt_q": problem.alt_q,
        "c_B": problem.c_B,
        "log_power": (2.0 / p) if p else None,
        "c0": None,
    }
    if a is not None and p is not None:
        if problem.name == "spiral":
            out["c0"] = constant_c0_spiral(problem.params["alpha"], a)
        else:
            out["c0"] = constant_c0_poly(p, a, problem.c_B)
    return out


# ---------------------------------------------------------------------------
# initial data

def initial_datum(problem: ModelProblem, name: str = "single-mode-m1",
                  seed: int | None = None) -> np.ndarray:
    """Named initial data, normalized to unit H^1 norm.

    ``"random-h1"`` — seeded random coefficients with a smooth envelope —
    exists for every model; any other name is one of the model's own
    ``problem.data``: ``"single-mode-m1"`` (the lowest nontrivial mode,
    every family), ``"gaussian-bump"`` (torus and disk) and ``"uniform"``
    (disk).
    """
    op, n = problem.op, problem.size
    if name == "random-h1":
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        state = op.from_internal(c / (1.0 + op.lam))
    elif name in problem.data:
        state = problem.data[name]()
    else:
        raise ValueError(f"datum {name!r} is not defined for the "
                         f"{problem.name} model; its data: random-h1, "
                         f"{', '.join(sorted(problem.data))}")
    h1 = problem.sobolev(state, 1.0)
    if h1 == 0.0 or not np.isfinite(h1):
        raise ValueError(f"degenerate initial datum {name!r} for the "
                         f"{problem.name} model (zero or non-finite H^1 norm)")
    return state / h1


def _phase_series(vals0, rate, times, norms):
    """``norms(g) = (h, h1, hm1)`` of g(t) = vals0 exp(-i rate t) at ``times``.
    The phase goes as cos and sin into one reused buffer (the bits of the
    complex ``exp``, without its temporaries) and times the datum in place."""
    times = np.asarray(times, dtype=float)
    out = np.empty((3, times.size))
    g = np.empty(rate.shape, dtype=complex)
    for i, t in enumerate(times):
        np.cos(np.multiply(rate, -t, out=g.imag), out=g.real)
        np.sin(g.imag, out=g.imag)
        g *= vals0
        out[:, i] = norms(g)
    return {"t": times, "h": out[0], "h1": out[1], "hm1": out[2]}


def shear_mixing_series(times, profile="sin", gamma=2.0, k=1, M=2048,
                        datum="single-mode-m1", seed=None):
    """Exact inviscid norm history for a shear flow, evaluated pointwise.

    Uses the closed-form solution f(t) = f_in * exp(-i k u(y) t) on the
    2M-point grid of :func:`build_shear` and returns the norms at the
    requested times without time stepping, so `times` may be log-spaced
    over several decades. The datum's grid values, with the FFT's 1/2M
    folded in, are formed once, so each time costs one phase and one
    unnormalized FFT in reused buffers; memory stays O(M).

    Parameters
    ----------
    times : array_like
        Evaluation times (any order, need not include 0).
    profile, gamma, k, M :
        As in `build_shear`. M must comfortably exceed k * max|u| * max(times)
        so the phase-generated Fourier spread stays inside the truncation.
    datum, seed :
        As in `initial_datum`: "single-mode-m1", "gaussian-bump", or the
        seeded "random-h1".

    Returns
    -------
    dict with arrays "t", "h", "h1", "hm1" (unit initial H^1 norm).
    """
    problem = build_shear(profile=profile, gamma=gamma, k=k, M=M)
    op = problem.op
    ct = np.empty(problem.size, dtype=complex)
    a2 = np.empty(problem.size)

    def norms(g):
        np.square(np.abs(np.fft.fft(g, out=ct), out=a2), out=a2)
        return [hs_norm(a2, op.lam, s) for s in (0.0, 1.0, -1.0)]

    return _phase_series(np.fft.ifft(initial_datum(problem, datum, seed)),
                         op.rate, times, norms)


def spiral_mixing_series(times, alpha=1.0, k=1, N=8192, datum="uniform"):
    """Exact inviscid norm history for the swirling disk flow.

    The advection is a pure radial phase, so f(t) is evaluated in closed
    form; the dual norm comes from the radial operator in flat coordinates,
    factored once as A = L D L^T rather than diagonalized, so each time
    costs O(N): a phase, a tridiagonal product and a two-column solve.

    Parameters / returns as in `shear_mixing_series`; `datum` may be
    "uniform", "single-mode-m1", or "gaussian-bump" (no seeded datum).
    """
    r, dr, diag, off = _disk_operator(N, k)
    sqw = np.sqrt(r * dr)
    data = _disk_data(r, lambda: eigh_tridiagonal(
        diag, off, select="i", select_range=(0, 0))[1][:, 0] / sqw)
    if datum not in data:
        raise ValueError(f"datum {datum!r} is not defined for the spiral "
                         f"series; its data: {', '.join(sorted(data))}")
    g0 = sqw * data[datum]()

    def a_apply(g):
        out = diag * g
        out[:-1] += off * g[1:]
        out[1:] += off * g[:-1]
        return out

    g0 /= np.sqrt(np.real(np.vdot(g0, a_apply(g0))))
    d, e, info = dpttrf(diag, off)
    if info != 0:
        raise ValueError(f"disk operator is not positive definite (info={info})")

    def norms(g):
        G = g.view(float).reshape(N, 2)  # real and imaginary columns
        return (np.linalg.norm(g), np.sqrt(np.real(np.vdot(g, a_apply(g)))),
                np.sqrt(np.vdot(G, dpttrs(d, e, G)[0])))

    return _phase_series(g0, k * r**alpha, times, norms)
