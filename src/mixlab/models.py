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
phase in A's eigenbasis (spiral) or a banded skew matrix (Kolmogorov,
kinetic) — is the model's one spectral frame. It stores the weights of
the working product once (``op.w``), maps states to orthonormal
coordinates where A is diagonal (``op.lam``), applies B there and returns
the flow g -> e^{-Bt} g for any t, exact to round-off: a phase (on the
Fourier grid, an FFT pair that overwrites a complex argument, or, for
real coefficients under an odd shear, one blocked product with the
phase's real kernel), or the Chebyshev-Bessel series
in the banded Hermitian iB, a polynomial formed as one narrow band, cut
into dense blocks and applied by one batched matmul a step, or summed at
each step (about 13 O(n) products) where no narrow band exists. Every
product and solve is numpy's own: the band products are matmuls over
``BLOCK``-row blocks, the disk's eigenbasis is ``np.linalg.eigh`` and its
LDL^T factor and lowest mode are formed here, so no command imports
``scipy.linalg``. A flow does not depend on the
viscosity: each op forms it once per step size and keeps the
``FLOW_CACHE`` most recently used (:class:`_CachedFlow`), so every row
that runs on one model shares them.
:class:`ModelProblem` reads every norm and projection off it: the product
``inner``, the H^s norms ``sobolev``, the cut-off ``project_low`` (P_R)
and ``lam1``. Every H^s norm is a product of squared coefficient moduli
in those coordinates with the weights ``lam^s`` that :func:`hs_weights`
stacks, one row per order.

Each family is declared once, in :data:`FAMILIES`: its builder, which
takes the model parameters as keywords with their only defaults, the map
from its flags to those keywords and the flag its sweeps cross. The
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
from functools import lru_cache, partial
from itertools import accumulate, product as _iproduct
from typing import Callable

import numpy as np

__all__ = [
    "EvolutionError",
    "FourierPhase",
    "RadialPhase",
    "SkewMatrix",
    "hs_weights",
    "ModelProblem",
    "PROFILES",
    "fractional_symbol",
    "q_from_p",
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
    "initial_datum",
]


# ---------------------------------------------------------------------------
# shear profiles

#: name -> (u, u', maximal vanishing order n0 of u' at its critical points).
#: n0 is declared, not detected: the vanishing order of a closure is not
#: robustly computable from grid samples.
PROFILES: dict[str, tuple[Callable, Callable, int | None]] = {
    "sin": (np.sin, np.cos, 1),
    "sin2": (lambda y: np.sin(y) + np.sin(2.0 * y),
             lambda y: np.cos(y) + 2.0 * np.cos(2.0 * y), 1),
    "zero": (lambda y: np.zeros_like(y), lambda y: np.zeros_like(y), None),
}


def load_profile_csv(path) -> tuple[Callable, Callable, None]:
    """Load a tabulated shear profile from a CSV with columns ``y, u``.

    The table is interpolated linearly and extended 2*pi-periodically; the
    derivative is a finite difference of the table (adequate for the
    advection bound and the commutator constant, which only need max|u'|).
    The vanishing order n0 cannot be inferred from a table and must be
    supplied by the caller. A table without rows, or a row whose first
    two cells are not finite numbers, is a ValueError naming the file (and
    the line).
    """
    ys, us = [], []
    with open(path, newline="") as fh:
        rows = _csv.reader(fh)
        for row in rows:
            if not row or row[0].strip().lower() in ("y", ""):
                continue
            try:
                y, u = (float(cell) for cell in row[:2])
                if not np.isfinite([y, u]).all():
                    raise ValueError(f"y, u = {y:g}, {u:g} is not finite")
            except ValueError as exc:
                raise ValueError(f"shear profile {path}, line "
                                 f"{rows.line_num}: {exc}") from None
            ys.append(y)
            us.append(u)
    if not ys:
        raise ValueError(f"shear profile {path} has no y,u rows")
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

class EvolutionError(RuntimeError):
    """Simulation failure: non-finite state or broken substep."""


def _grid_times(mult: np.ndarray):
    """Map of Fourier coefficients, in place: multiply their grid values by
    ``mult``. Both FFTs run unscaled into their input, and the forward
    FFT's 1/n is folded into the multiplier once; the map overwrites and
    returns its argument, a complex array."""
    scaled = mult / mult.size

    def apply(c):
        np.fft.ifft(c, norm="forward", out=c)
        c *= scaled
        return np.fft.fft(c, out=c)

    return apply


FLOW_CACHE = 8  # step sizes whose flow each op keeps


class _CachedFlow:
    """A representation whose flow is formed once per step size:
    ``flow(t)`` returns the map :meth:`_form_flow` formed for this t,
    kept on the op for the ``FLOW_CACHE`` most recently used t. An entry
    holds what its map reads: the grid phase and its multiplier, two
    n-vectors (and a real Toeplitz block once a real state used it), a
    dense unitary U of 16 N^2 bytes (1 MB at N = 256), or the dense
    blocks of exp(-Bt), about 16 (``BLOCK`` + 2w) n bytes. A model
    pickles as its recipe, so no entry is pickled."""

    def flow(self, t: float):
        flows = self.__dict__.setdefault("_flows", {})  # least recent first
        apply = flows.pop(t, None)
        if apply is None:
            apply = self._form_flow(t)
            if len(flows) == FLOW_CACHE:
                del flows[next(iter(flows))]
        flows[t] = apply
        return apply


ODD_ULPS = 16.0  # |rate(-y) + rate(y)| <= ODD_ULPS eps max|rate|: odd
KERNEL_CUT = 4.0  # the real kernel is cut below KERNEL_CUT eps max|p_l|
BAND_COST = 8.0  # a band of 2w + 1 <= BAND_COST log2 n diagonals is cheaper
BLOCK = 32  # rows of one block of a band product


class FourierPhase(_CachedFlow):
    """B = i * rate(y) on the grid of a Fourier series (shear, heat); the
    internal coordinates are the state's own Fourier coefficients, and the
    working product is flat (``w = 1``).

    Where the rate is odd on the grid (``odd``: rate(-y) = -rate(y) to a
    few ulps of max|rate|, as for the ``sin``, ``sin2`` and ``zero``
    profiles), the flow keeps real coefficients real, since it keeps
    f(-y) = conj f(y). The internal coordinates of a state whose
    imaginary part is exactly zero are then its real parts, a float64
    copy; any other state stays complex. ``from_internal`` always returns
    complex coefficients."""

    kind = "phase"
    w = 1.0

    def __init__(self, lam: np.ndarray, rate: np.ndarray):
        self.lam = lam
        self.rate = rate
        n = np.size(rate)
        self.odd = np.ndim(rate) == 1 and n % 2 == 0 and bool(np.all(
            np.abs(rate[-np.arange(n)] + rate)
            <= ODD_ULPS * np.finfo(float).eps * np.abs(rate).max(initial=0.0)))

    def to_internal(self, state) -> np.ndarray:
        c = np.asarray(state, dtype=complex)
        return c.real.copy() if self.odd and not c.imag.any() else c

    def from_internal(self, g: np.ndarray) -> np.ndarray:
        return np.asarray(g, dtype=complex)

    def apply_B(self, g: np.ndarray) -> np.ndarray:
        return _grid_times(1j * self.rate)(np.array(g, dtype=complex))

    @staticmethod
    def _band(phase: np.ndarray):
        """The flow on real coefficients as one blocked product, or None
        where its band is wide. For an odd rate the grid ``phase`` has the
        real kernel p_l = Re fft(phase)_l / n, and c_m -> sum_l p_l c_{m-l}
        (indices mod n) is the cyclic convolution, aliasing included, that
        the FFT pair computes. The kernel is cut at the half-width w past
        which every |p_l| is below ``KERNEL_CUT`` eps max|p|, its round-off
        floor (for ``sin``, J_l(t) past |l| = 11 at t = 0.5). The rows go
        in blocks of ``BLOCK``, n padded up to a multiple of it; block b
        reads the window c_{bB-w}, ..., c_{bB+B+w-1} (indices mod n), and
        one index array gathers every window. The kernel is the same for
        every block, so the product is one matmul of the windows with the
        (B + 2w) x B Toeplitz matrix T[a, r] = p_{w+r-a}. It is wide, and
        the FFT pair is cheaper, once 2w + 1 > min(n, ``BAND_COST``
        log2 n)."""
        n = phase.size
        p = np.fft.fft(phase).real / n
        dist = np.minimum(np.arange(n), n - np.arange(n))  # |l| mod n
        w = int(dist[np.abs(p) > KERNEL_CUT * np.finfo(float).eps
                     * np.abs(p).max()].max())
        if 2 * w + 1 > min(n, BAND_COST * np.log2(n)):
            return None
        a = np.arange(BLOCK + 2 * w)
        lag = a[:, None] - np.arange(BLOCK)  # l = w - lag
        T = np.where((lag >= 0) & (lag <= 2 * w), p[(w - lag) % n], 0.0)
        windows = (np.arange(0, n, BLOCK)[:, None] + a - w) % n
        return lambda g: (g[windows] @ T).reshape(-1)[:n]

    def _form_flow(self, t: float):
        """The flow g -> e^{-Bt} g. A complex g goes through the FFT pair
        of ``_grid_times``, which overwrites it. A real g (``odd`` only) is
        mapped into a new real array: by the band of :meth:`_band`, formed
        on the first real call, or where that band is wide by the FFT pair
        on a complex copy, whose real part is kept."""
        phase = np.exp(-1j * self.rate * t)
        pair = _grid_times(phase)
        real = None

        def apply(g):
            nonlocal real
            if g.dtype.kind == "c":
                return pair(g)
            if real is None:  # the class's, so the map holds no op
                real = FourierPhase._band(phase) \
                    or (lambda x: pair(x.astype(complex)).real)
            return real(g)

        return apply

    def inviscid(self, state, t: float) -> np.ndarray:
        """The flow's FFT pair, formed here and not cached."""
        return _grid_times(np.exp(-1j * self.rate * t))(
            np.array(state, dtype=complex))


class RadialPhase(_CachedFlow):
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

    def _form_flow(self, t: float):
        """The radial phase moved into A's eigenbasis: a dense unitary."""
        phase = np.exp(-1j * self.rate * t)
        U = self.V.T @ (phase[:, None] * self.V)
        return lambda g: U @ g

    def inviscid(self, state, t: float) -> np.ndarray:
        return np.exp(-1j * self.rate * t) * np.asarray(state, dtype=complex)


SERIES_CUT = 1e-16  # |J_k| past k > |x| below which the flow's series is cut


def _bessel_series(x: float) -> np.ndarray:
    """J_0(x), ..., J_{K-1}(x), J_K the first past k > |x| below
    ``SERIES_CUT``: Miller's backward recurrence, normalized by
    J_0 + 2 sum_k J_2k = 1."""
    if abs(x) < 2.0 * SERIES_CUT:  # |J_1(x)| = |x|/2 is below the cut
        return np.ones(1)
    top = int(abs(x) + 30.0 + 12.0 * abs(x) ** (1.0 / 3.0))
    j = np.zeros(top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = 2.0 * k / x * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e200:  # rescale; the tail may underflow to 0
            j[k - 1:] *= 1e-200
    j /= j[0] + 2.0 * j[2::2].sum()
    past = (np.arange(j.size) > abs(x)) & (np.abs(j) < SERIES_CUT)
    return j[:np.argmax(past)]


def _ladder_add(ladders, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out += H g along the last axis, for H held as ``ladders`` (see
    SkewMatrix), so a block of vectors is one product; returns out."""
    for lo, hi, h in ladders:
        out[..., lo] += h * g[..., hi]
        out[..., hi] += h.conj() * g[..., lo]
    return out


class SkewMatrix(_CachedFlow):
    """B a sparse skew-Hermitian matrix (Kolmogorov, kinetic), given as
    the Hermitian H = iB in the flat internal coordinates ``sqrt(w) * f``
    of the working product with per-coefficient weights ``w``, where A is
    diagonal.

    H is held as ``ladders`` (lo, hi, h): H = sum (P + P^H) with
    P[lo, hi] = h, each P with unique rows and unique columns, ``lo`` and
    ``hi`` slices or index arrays; no n x n array is formed for H.
    ``radius`` is H's Gershgorin radius (its largest absolute row sum),
    which bounds its spectrum; ``width`` is its half-bandwidth, the
    largest |i - j| of a ladder entry, and ``nnz`` its number of
    nonzeros."""

    kind = "matrix"

    def __init__(self, lam: np.ndarray, w: np.ndarray, ladders):
        self.lam = lam
        self.w = w
        self.sqw = np.sqrt(w)
        self.ladders = ladders
        self.radius = float(_ladder_add([(lo, hi, np.abs(h)) for lo, hi, h
                                         in ladders], np.ones(lam.size),
                                        np.zeros(lam.size)).max())
        at = np.arange(lam.size)
        self.width = max((int(np.abs(at[hi] - at[lo]).max(initial=0))
                          for lo, hi, _ in ladders), default=0)
        self.nnz = 2 * sum(at[lo].size for lo, _, _ in ladders)

    def to_internal(self, state) -> np.ndarray:
        return self.sqw * state

    def from_internal(self, g: np.ndarray) -> np.ndarray:
        return g / self.sqw

    def apply_B(self, g: np.ndarray) -> np.ndarray:
        return -1j * _ladder_add(self.ladders, g, np.zeros_like(g, complex))

    def _series(self, t: float):
        """``(J, series)``: the Bessel coefficients J_k(st), s = ``radius``,
        and the map u -> exp(iHt) u along u's last axis, the Chebyshev
        series sum_k (2 - delta_k0) i^k J_k(st) T_k(H/s), cut past
        |J_k(st)| < ``SERIES_CUT`` and summed by Clenshaw's recurrence: one
        ladder product, O(nnz) a vector, per term, about
        |st| + 12 |st|^(1/3) + 2 terms (13 at the step policy's
        st <= 0.5)."""
        J = _bessel_series(self.radius * t)
        c = J * np.resize([2, 2j, -2, -2j], J.size)  # exact powers of i
        # complex ladders: a real one would be cast on every product
        x = [(lo, hi, h / self.radius + 0j) for lo, hi, h in self.ladders]
        two_x = [(lo, hi, 2.0 * h) for lo, hi, h in x]

        def series(u):
            # b_k = c_k u + 2X b_k+1 - b_k+2 for k = K-1..1, X = H/s; the
            # sum is J_0 u + X b_1 - b_2
            b1 = b2 = np.zeros_like(u)
            for ck in c[:0:-1]:
                b1, b2 = _ladder_add(two_x, b1, ck * u) - b2, b1
            return _ladder_add(x, b1, J[0] * u) - b2

        return J, series

    def _band(self, series, w: int) -> tuple:
        """exp(-Bt) = exp(iHt) as dense blocks along its band, from the
        ``series`` of :meth:`_series`: ``(blocks, windows)``. A polynomial
        of degree K-1 in H is exactly banded, of half-width
        w = (K-1) ``width``, so the series run once on the 2w+1 comb
        vectors v_r = sum of e_j over j = r mod 2w+1 gives every entry
        (Curtis-Powell-Reid probing): row i of exp(iHt) v_r holds the
        entry of the one column j of v_r with |i - j| <= w. The rows go in
        blocks of ``BLOCK``, n padded up to a multiple of it; block b's
        rows i = bB + r read the columns j = bB - w + s, s < B + 2w, and
        ``blocks[b, r, s]`` = exp(iHt)[i, j], zero off the band and
        outside the matrix. ``windows[b, s]`` is that j, clipped into the
        matrix where the block is zero."""
        n = self.lam.size
        p, j = 2 * w + 1, np.arange(n)
        probes = series((j % p == np.arange(p)[:, None]).astype(complex))
        start = np.arange(0, n, BLOCK)[:, None, None]
        rows = start + np.arange(BLOCK)[:, None]  # i, (blocks, B, 1)
        cols = start - w + np.arange(BLOCK + 2 * w)  # j, (blocks, 1, B + 2w)
        inside = (np.abs(rows - cols) <= w) & (rows < n) & (cols >= 0) \
            & (cols < n)
        blocks = np.where(inside, probes[cols % p, np.minimum(rows, n - 1)],
                          0.0)
        return blocks, np.clip(cols[:, 0], 0, n - 1)

    def _form_flow(self, t: float):
        """exp(-Bt) = exp(iHt), the series of :meth:`_series`.
        Where its band, of half-width w = (K-1) ``width``, is narrower
        than the matrix, 2w + 1 <= n, and holds no more entries than the K
        ladder products of one series step read, (2w + 1) n <= K nnz, it
        is formed once as dense blocks (:meth:`_band`) and each step is
        one batched matmul of the blocks with their gathered windows.
        Otherwise (a t whose band is as wide as the matrix, or the wide
        index-array ladders of kinetic d >= 2) each step sums the
        series."""
        J, series = self._series(t)
        n, w = self.lam.size, (J.size - 1) * self.width
        if 2 * w + 1 > n or (2 * w + 1) * n > J.size * self.nnz:
            return series
        blocks, windows = self._band(series, w)
        return lambda g: np.matmul(blocks, g[windows, None]).reshape(-1)[:n]


def hs_weights(lam: np.ndarray, orders) -> np.ndarray:
    """The weights ``lam_j^s`` of the H^s norms over eigenvalues ``lam``,
    one row per order ``s`` of ``orders``: ``|c|^2`` of coefficients in
    an orthonormal eigenbasis of A, in ``lam``'s order, gives the squared
    norms as ``hs_weights(lam, orders) @ |c|^2``. Each row is one power
    with a scalar exponent, so numpy's exact fast paths (s = 0, +-1, 2)
    apply."""
    return np.array([lam**s for s in orders])


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

    def __reduce__(self):
        # a model pickles as its recipe, rebuilt where it is loaded: its
        # data are closures, and a build is deterministic
        return _rebuilt, (self.name, tuple(sorted(self.params.items())))

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
        a2 = np.abs(self._internal(state)) ** 2
        return float(np.sqrt(hs_weights(self.op.lam, (s,))[0] @ a2))

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


def q_from_p(p: float) -> float:
    """Enhanced-dissipation exponent from a polynomial mixing exponent."""
    return 2.0 / (2.0 + p)


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
        q = q_from_p(p)

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
              # the bump at pi and its images at pi -+ 2 pi, periodic to
              # round-off (the next images are below 1e-76); even about pi,
              # so its coefficients are real but for round-off, dropped here
              "gaussian-bump": lambda: np.fft.fft(sum(
                  np.exp(-((y - c) ** 2) / 0.5)
                  for c in (-np.pi, np.pi, 3 * np.pi)).astype(complex),
                  norm="forward").real.astype(complex)},
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
    truncation (the dropped couplings are the boundary pair); in flat
    coordinates the Hermitian iB is one ladder: the off-diagonals of a
    tridiagonal, so a step costs O(M).
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

    modes = np.arange(-M, M, dtype=float)  # sorted layout
    mu = L**2 * k**2 + modes**2
    s = 1.0 - 1.0 / mu
    kL = k * L

    # flat B[m+1, m] = -B[m, m+1] = off[m], so iB[m, m+1] = -i off[m]
    off = 0.5 * kL * np.sqrt(s[1:] * s[:-1])

    params = {"L": L, "k": k, "M": M}
    return ModelProblem(
        name="kolmogorov",
        params=params,
        op=SkewMatrix(mu, s, [(slice(0, -1), slice(1, None), -1j * off)]),
        c_B=abs(kL) / np.sqrt(mu.min()),  # = 1 exactly for every valid (L, k)
        bound_B=abs(kL),
        mixed_bound=None,
        p=1.0,
        q=q_from_p(1.0),
        alt_q=3.0 / 5.0,
        basis="torus-fourier-sorted",
        data={"single-mode-m1": lambda: (modes == 1.0).astype(complex),
              "gaussian-bump": lambda: np.exp(-0.125 * modes**2
                                              - 1j * np.pi * modes)},
    )


def _disk(alpha: float, k: int, N: int) -> tuple:
    """The spiral model's O(N) part on the cell-centered radial grid
    r_j = (j-1/2)/N: ``(w, diag, off, rate, p, q, data)``, the weights
    r_j dr, -Lap_k as a symmetric tridiagonal, the rate k r^alpha of
    B = i rate, the predicted p and q, and the named data, unnormalized.

    -Lap_k is in conservative flux form with a zero flux through both the
    pole face (automatic: the r = 0 face has zero measure) and the outer
    boundary, which makes the matrix exactly self-adjoint in the midpoint
    quadrature and strictly positive for k != 0, the only k it accepts.
    ``"uniform"`` is the radial data class that saturates the mixing rate;
    ``"single-mode-m1"`` is A's lowest eigenmode (:func:`_lowest_disk_mode`).
    """
    if alpha < 1.0:
        raise ValueError(f"swirl exponent alpha must be >= 1, got {alpha}")
    if k == 0:
        raise ValueError("spiral model requires a nonzero angular wavenumber k")
    if N < 1:
        raise ValueError(f"disk resolution N must be >= 1, got {N}")
    r, diag, off = _disk_operator(k, N)
    w, p = r * (1.0 / N), 2.0 / max(alpha, 2.0)  # r_j dr
    data = {"uniform": lambda: np.ones(N, dtype=complex),
            "single-mode-m1": lambda: (_lowest_disk_mode(k, N)
                                       / np.sqrt(w)).astype(complex),
            "gaussian-bump": lambda: np.exp(-((r - 0.5) ** 2)
                                            / 0.045).astype(complex)}
    return w, diag, off, k * r**alpha, p, (4.0 - p) / (4.0 + p), data


def _disk_operator(k: int, N: int) -> tuple:
    """``(r, diag, off)``: the cell centers r_j = (j-1/2)/N and -Lap_k
    on them as a symmetric tridiagonal, in :func:`_disk`'s flux form."""
    dr = 1.0 / N
    r = (np.arange(1, N + 1) - 0.5) * dr
    re = np.arange(1, N) * dr  # interior cell edges r_{j+1/2}
    flux = np.zeros(N + 1)
    flux[1:-1] = re
    diag = (flux[:-1] + flux[1:]) / (r * dr * dr) + k * k / (r * r)
    off = -re / (dr * dr * np.sqrt(r[:-1] * r[1:]))
    return r, diag, off


def _ldl(a: np.ndarray, b: np.ndarray) -> tuple:
    """``(d, e)``: the LDL^T factor of the symmetric tridiagonal with
    diagonal a and off-diagonal b, L unit lower bidiagonal with
    subdiagonal e. The pivots run d_0 = a_0, d_i+1 = a_i+1 - (b_i/d_i) b_i
    and e = b / d[:-1]: the operations of LAPACK's ``dpttrf`` in its
    order, so its factor bit for bit. The recurrence is serial, one
    Python ``accumulate`` (~12 ms at N = 65,536). A pivot <= 0, the matrix
    not positive definite, is a ValueError with the 1-based index of the
    first, dpttrf's ``info``; the recurrence carries that pivot on
    unchanged."""
    d = np.fromiter(accumulate(
        zip(a[1:].tolist(), b.tolist()),
        lambda di, ab: ab[0] - (ab[1] / di) * ab[1] if di > 0.0 else di,
        initial=float(a[0])), float, a.size)
    bad = np.flatnonzero(d <= 0.0)
    if bad.size:
        raise ValueError(f"disk operator is not positive definite "
                         f"(info={bad[0] + 1})")
    return d, b / d[:-1]


@lru_cache(maxsize=2)
def _disk_factor(k: int, N: int) -> tuple:
    """The :func:`_ldl` factor ``(d, e)`` of -Lap_k on N cells, read-only.
    It does not depend on alpha, so it is formed once per (k, N) per
    process: the spiral series of one pass share it."""
    d, e = _ldl(*_disk_operator(k, N)[1:])
    d.flags.writeable = e.flags.writeable = False
    return d, e


@lru_cache(maxsize=2)
def _lowest_disk_mode(k: int, N: int) -> np.ndarray:
    """-Lap_k's lowest eigenvector on N cells, unit and positive,
    read-only; formed once per (k, N) per process. Inverse iteration from
    the uniform vector on :func:`_disk_factor`: each solve of
    L D L^T x = v is two prefix sums (:func:`_scan_runs`), L's forward
    and L^T's mirrored, until the step between iterates stops falling or
    is below eps. A is an M-matrix, so A^-1 is entrywise nonnegative:
    every iterate stays positive and every scan sums terms of one sign.
    The mode agrees with a one-pair tridiagonal eigensolve to ~1e-14; the
    iteration count grows as the gap to the second eigenvalue closes
    (about 17 at k = 1, 400 at k = 300)."""
    d, e = _disk_factor(k, N)
    q, runs = _scan_runs(-e)
    q_back, runs_back = _scan_runs(-e[::-1])
    scale = d[::-1] * q_back  # mirrored: D^-1 folded into L^T's weights
    v, step = np.full(N, N ** -0.5), np.inf
    while True:
        y = q * _prefix_sum(v / q, runs)  # L y = v
        x = (q_back * _prefix_sum(y[::-1] / scale, runs_back))[::-1]
        x /= np.linalg.norm(x)
        last, step = step, np.linalg.norm(x - v)
        v = x
        if step >= last or step <= np.finfo(float).eps:
            v.flags.writeable = False
            return v


def build_spiral(*, alpha: float = 1.0, k: int = 1,
                 N: int = 256) -> ModelProblem:
    """Swirling flow on the unit disk, angular wavenumber k.

    B is multiplication by i k r^alpha — an exact diagonal phase on the
    radial grid. A is the radial operator with a no-flux outer boundary
    (:func:`_disk`), diagonalized once per (N, k); its eigendecomposition
    also provides the dual mixing norm. The named data, ``"single-mode-m1"``
    included, are :func:`_disk`'s, the ones the closed-form series starts
    from. The improved advection-dissipation bound
    |Re<Bf, Af>| <= 2 alpha |k| ||f||_H ||f||_{H^1} is recorded for the
    sharpened constant in the decay-rate formulas.
    """
    w, diag, off, rate, p, q, data = _disk(alpha, k, N)
    # eigh reads the lower triangle
    lam, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    mixed = 2.0 * alpha * abs(k)
    return ModelProblem(
        name="spiral",
        params={"alpha": alpha, "k": k, "N": N},
        op=RadialPhase(lam, vecs, w, rate),
        c_B=mixed / np.sqrt(lam[0]),
        bound_B=float(np.abs(rate).max()),
        mixed_bound=mixed,
        p=p,
        q=q,
        basis="radial-grid",
        data=data,
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
    iB = -v.k is held as one ladder n -> n + e_j per nonzero k_j (the
    off-diagonals of a tridiagonal in d = 1), so a step costs O(d) per
    mode; ``bound_B`` is its Gershgorin radius.
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
    modes = np.array(idx)
    degrees = modes.sum(axis=1).astype(float)
    low = int(np.sum(degrees < N))  # modes below the top degree come first
    ladders = []  # H = -v.k
    for j in np.flatnonzero(kvec):
        up = slice(1, N) if d == 1 else np.array(
            [pos[n[:j] + (n[j] + 1,) + n[j + 1:]] for n in idx[:low]])
        ladders.append((slice(0, low), up,
                        -kvec[j] * np.sqrt(modes[:low, j] + 1.0)))
    op = SkewMatrix(degrees, np.ones(D), ladders)  # B = i v.k: iB = H

    knorm = float(np.linalg.norm(kvec))
    params = {"k": k if np.isscalar(k) else tuple(kvec), "N": N, "d": d}
    return ModelProblem(
        name="kinetic",
        params=params,
        op=op,
        c_B=knorm,  # lam1 = 1, so the mixed bound doubles as the commutator bound
        bound_B=op.radius,
        mixed_bound=knorm,
        p=None,
        q=None,
        basis="hermite",
        data={"single-mode-m1": lambda: np.eye(1, D, dtype=complex)[0]},
    )


#: family -> (builder, each flag it reads -> keyword, the flag a sweep
#: crosses or None); ``k`` goes to every family. Heat: zero-profile shear.
FAMILIES: dict[str, tuple[Callable[..., ModelProblem], dict, str | None]] = {
    "shear": (build_shear, {"profile": "profile", "gamma": "gamma",
                            "n0": "n0", "resolution": "M"}, "gamma"),
    "kolmogorov": (build_kolmogorov, {"L": "L", "resolution": "M"}, None),
    "spiral": (build_spiral, {"alpha": "alpha", "resolution": "N"}, "alpha"),
    "kinetic": (build_kinetic, {"d": "d", "resolution": "N"}, None),
    "heat": (partial(build_shear, profile="zero"),
             {"gamma": "gamma", "resolution": "M"}, None),
}
_FLAGS = {flag for _, flags, _ in FAMILIES.values() for flag in flags}


def _family(name: str):
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; choose from "
                         f"{sorted(FAMILIES)}") from None


def _builder_defaults(family: str) -> dict:
    """Each keyword of ``family``'s builder with its default (heat's is a
    ``partial``): the one reader of the defaults."""
    build = _family(family)[0]
    return {**getattr(build, "func", build).__kwdefaults__,
            **getattr(build, "keywords", {})}


def build_model(name: str, **params) -> ModelProblem:
    """Build a model by family name from its builder's keywords; the
    model carries the family name (``"heat"`` is a shear build)."""
    return replace(_family(name)[0](**params), name=name)


@lru_cache(maxsize=1)
def _rebuilt(name: str, params: tuple) -> ModelProblem:
    """An unpickled model, built from its recipe. The latest recipe is
    memoized, so a pool worker that is handed a group's rows one by one
    builds the group's model once; its loads share the model, whose
    arrays no code writes."""
    return build_model(name, **dict(params))


def model_params(family: str, values) -> dict:
    """Builder keyword arguments of ``build_model(family, ...)``.

    ``values`` maps ``k`` and the flags of :data:`FAMILIES` to values, as
    the command line and a sweep give them; a missing or None flag keeps
    the builder's default, and other names are ignored. A set flag that
    the family does not read is a ValueError naming both.
    """
    flags = _family(family)[1]
    for flag, value in values.items():
        if value is not None and flag in _FLAGS and flag not in flags:
            raise ValueError(f"the {family} model does not read --{flag}")
    return {key: values[flag] for flag, key in {"k": "k", **flags}.items()
            if values.get(flag) is not None}


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


COARSEST_GRID = 64  # fewest points of the grid the shear series starts on
TOP_BAND_FLAG = 0.01  # energy share of the top band past which a run warns


def _series_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError("series times must be finite")
    return times


def _half_angle(rate, t, tau, sigma):
    """The tangent of the half angle tau = tan(rate t / 2) into ``tau``
    and sigma = 2 / (1 + tau^2) into ``sigma``, real arrays or views, so
    that cos(rate t) = sigma - 1 and sin(rate t) = sigma tau. One ``tan``
    costs about a fifth of a ``cos`` and a ``sin`` together. Next to odd
    multiples of pi tau reaches ~1e16, and its square stays far from
    overflow. Both series evaluate every time through here."""
    np.tan(np.multiply(rate, 0.5 * t, out=tau), out=tau)
    np.divide(2.0, np.add(np.square(tau, out=sigma), 1.0, out=sigma),
              out=sigma)


def _phase(rate, t, cos, sin):
    """cos(rate t) into ``cos`` and sin(rate t) into ``sin``, real arrays
    or views, from :func:`_half_angle`: within 4e-16 of ``np.cos`` and
    ``np.sin``, also next to odd multiples of pi."""
    _half_angle(rate, t, sin, cos)
    sin *= cos
    cos -= 1.0


class _ShearGrid:
    """The grid y[::s] of the shear series, ``s`` a power of two dividing
    the 2M of the full grid: its rates, the datum's values with the FFT's
    1/n folded in (times s, exact), the rows ``w`` of the h1 and hm1
    weights at the full grid's eigenvalue of each of its modes (h^2 is
    the spectrum's sum), and the slice of its outer half |m| > n/4 in FFT
    order."""

    def __init__(self, rate, vals, lam, s):
        n = rate.size // s
        if s > 1:
            m = np.arange(n)
            m[(n + 1) // 2:] -= n  # integer modes, FFT order
            rate, vals, lam = rate[::s].copy(), s * vals[::s], lam[m]
        self.points, self.rate, self.vals = n, rate, vals
        self.w = hs_weights(lam, (1.0, -1.0))
        self.outer = slice(n // 4 + 1, n - n // 4)
        self.g = np.empty(n, dtype=complex)
        self.a2 = np.empty(n)

    def spectrum(self, t):
        """|c'_m|^2 at time t: the full grid's coefficients aliased onto
        this grid, c'_m = sum_l c_(m + l n)."""
        _phase(self.rate, -t, self.g.real, self.g.imag)  # exp(-i rate t)
        self.g *= self.vals
        ct = np.fft.fft(self.g, out=self.g)
        return np.square(np.abs(ct, out=self.a2), out=self.a2)


def shear_mixing_series(times, *, M=2048, datum="single-mode-m1", seed=None,
                        **model):
    """Exact inviscid norm history for a shear flow, evaluated pointwise.

    Uses the closed-form solution f(t) = f_in * exp(-i k u(y) t) of
    :func:`build_shear` and returns the norms at the requested times
    without time stepping, so `times` may be log-spaced over several
    decades.

    The spectrum at time t spreads to about |m| <~ k max|u'| |t|, so each
    time runs on the coarsest grid y[::s] that holds it: the times go in
    order of |t|, from the coarsest grid with at least ``COARSEST_GRID``
    points (s a power of two dividing 2M), and a grid is accepted when the
    outer half |m| > n/4 of its one FFT holds at most
    ``(16 eps (1 + |t| max|k u|))^2`` of the energy, the round-off floor
    the phase k u t already carries on the full grid; otherwise s halves,
    for good, and the time is redone. A time costs one phase, one
    unnormalized FFT, the spectrum's sum for h and one product with each
    of the grid's two rows of weights, formed once per grid, in reused
    buffers, against the 2M-point grid at every time; h and h1 agree with
    the full grid to round-off and hm1 to the FFT's round-off relative to
    its small low modes (~1e-13). A tabulated (CSV) profile is not smooth and the seeded
    ``random-h1`` fills every mode, so both run on the full 2M-point grid
    at every time. Memory stays O(M). A time on the full grid with more
    than ``TOP_BAND_FLAG`` of the energy in its outer half is warned of.

    Parameters
    ----------
    times : array_like
        Finite evaluation times (any order, need not include 0).
    M, **model :
        As in `build_shear`, with its defaults but M's; what it refuses is
        refused before any time is evaluated.
    datum, seed :
        As in `initial_datum`: "single-mode-m1", "gaussian-bump", or the
        seeded "random-h1".

    Returns
    -------
    dict with arrays "t", "h", "h1", "hm1" (unit initial H^1 norm), in the
    order of `times`; "grid", the points of the grid each time ran on;
    "outer", the energy fraction in that grid's outer half; the model's
    "p"; a list of "warnings"; and the "datum" and "resolution" run.
    """
    times = _series_times(times)
    problem = build_shear(M=M, **model)
    n = problem.size
    s = 1
    if problem.params["profile"] in PROFILES and datum != "random-h1":
        while n % (2 * s) == 0 and n // (2 * s) >= COARSEST_GRID:
            s *= 2
    level = partial(_ShearGrid, problem.op.rate,
                    np.fft.ifft(initial_datum(problem, datum, seed)),
                    problem.op.lam)
    grid = level(s)
    out = np.empty((4, times.size))
    points = np.empty(times.size, dtype=int)
    eps = np.finfo(float).eps
    for i in np.argsort(np.abs(times), kind="stable"):
        floor = (16.0 * eps * (1.0 + abs(times[i]) * problem.bound_B)) ** 2
        while True:
            a2 = grid.spectrum(times[i])
            h2 = a2.sum()
            outer = a2[grid.outer].sum() / h2
            if s == 1 or outer <= floor:
                break
            s //= 2
            del grid  # free the coarser grid before the finer one is made
            grid = level(s)
        out[:, i] = [np.sqrt(h2), *(np.sqrt(w @ a2) for w in grid.w), outer]
        points[i] = grid.points
    felt = (points == n) & (out[3] > TOP_BAND_FLAG)
    warnings = [f"{felt.sum()} of {times.size} times ran on the full "
                f"{n}-point grid with up to {out[3][felt].max():.1%} of the "
                f"energy in its outer half |m| > {M / 2:g}: the truncation "
                f"is felt; raise --resolution"] if felt.any() else []
    return {"t": times, "h": out[0], "h1": out[1], "hm1": out[2],
            "grid": points, "outer": out[3], "p": problem.p,
            "warnings": warnings, "datum": datum, "resolution": M}


SCAN_CUT = 1e-100  # the scan's weight q starts a new run below this


def _prefix_sum(z: np.ndarray, runs) -> np.ndarray:
    """z -> its prefix sum run by run (:func:`_scan_runs`), in place;
    returns z."""
    for lo, hi, carry in runs:
        if lo:
            z[lo] += carry * z[lo - 1]
        np.cumsum(z[lo:hi], out=z[lo:hi])
    return z


def _scan_runs(minus_e: np.ndarray):
    """The weights q and the runs (lo, hi, carry) of the prefix sum that
    solves L y = g, L unit lower bidiagonal with subdiagonal e, -e > 0:
    y = q cumsum(g / q), q_j = prod_{i<j} (-e_i). q shrinks along the
    grid (to 1e-386 at k = 100, N = 65536), so it restarts at 1 where it
    would fall below ``SCAN_CUT``; a run's sum starts from the last sum s
    before it as s_lo = g_lo + carry s_(lo-1), carry = -e_(lo-1) q_(lo-1)
    (0 for the first run)."""
    q, runs, lo, carry = np.ones(minus_e.size + 1), [], 0, 0.0
    while True:
        np.cumprod(minus_e[lo:], out=q[lo + 1:])
        low = np.flatnonzero(q[lo + 1:] < SCAN_CUT)
        hi = lo + 1 + int(low[0]) if low.size else q.size
        runs.append((lo, hi, carry))
        if hi == q.size:
            return q, runs
        lo, carry = hi, minus_e[hi - 1] * q[hi - 1]
        q[lo] = 1.0


def spiral_mixing_series(times, *, N=8192, datum="uniform", seed=None,
                         **model):
    """Exact inviscid norm history for the swirling disk flow.

    The advection is a pure radial phase theta = rate t and every datum
    u is real, so f = u e^(-i theta), and each time starts from the
    half-angle tangent tau and sigma = 2 / (1 + tau^2) of
    :func:`_half_angle`. h1^2 is the flux (Dirichlet) form of A,
    sum_e (r_e/dr)|f_e+1 - f_e|^2 + k^2 sum_j (dr/r_j)|f_j|^2, a sum of
    positive terms that also normalizes the datum; the tridiagonal's own
    quadratic form cancels, and its rounded entries put h1 ~1.4e-10 off
    at N = 65536. By the half angle, |f_e+1 - f_e|^2 = (u_e+1 - u_e)^2
    + u_e u_e+1 (tau_e+1 - tau_e)^2 sigma_e sigma_e+1, so h1^2 = c0
    + sum_e c_e (tau_e+1 - tau_e)^2 sigma_e sigma_e+1, with c0 and
    c_e = (r_e/dr) u_e u_e+1 formed once. hm1^2 = g^H A^-1 g
    = sum_j |y_j|^2 / d_j, g = sqrt(w) f, with A = L D L^T factored once
    (L unit lower bidiagonal) and y = L^-1 g = q cumsum(g / q), one
    complex prefix sum (:func:`_scan_runs`) whose real and imaginary
    parts carry the cosine and the sine: z = conj(g) / q
    = b (sigma - 1 + i sigma tau), b = u sqrt(w) / q, formed once a time;
    h^2 = sum q^2 |z|^2 before the scan and hm1^2
    = sum (q^2 / d)|cumsum z|^2 after it, which agrees with a full
    tridiagonal solve to ~1e-14. A time costs O(N) in reused buffers. A
    time whose phase advances by more than 1 per radial cell,
    bound_B |t| / N > 1 with bound_B = |k| max r^alpha, feels the
    truncation, and the series warns.

    Parameters / returns as in `shear_mixing_series` (`build_spiral` for
    `build_shear`), "grid" always N and no "outer"; `datum` "uniform",
    "single-mode-m1" or "gaussian-bump" (no seeded datum: `seed` unused).
    """
    times = _series_times(times)
    disk = {**_builder_defaults("spiral"), **model, "N": N}
    k = disk["k"]
    w, _, _, rate, p, _, data = _disk(**disk)
    if datum not in data:
        raise ValueError(f"datum {datum!r} is not defined for the spiral "
                         f"series; its data: {', '.join(sorted(data))}")
    j = np.arange(1.0, N + 1.0)  # r_j = (j - 1/2) dr, r_e = j dr
    edge, cell = j[:-1], k * k / (j - 0.5)  # r_e / dr and k^2 dr / r_j

    def h1_squared(u):
        """The flux form of a real u's h1^2."""
        return np.square(np.diff(u)) @ edge + np.square(u) @ cell

    u = data[datum]().real.copy()
    u /= np.sqrt(h1_squared(u))
    c0, c = h1_squared(u), edge * u[:-1] * u[1:]
    d, e = _disk_factor(k, N)
    q, runs = _scan_runs(-e)
    b = u * np.sqrt(w) / q
    # the weights of |z|^2 and |cumsum z|^2 over z's (real, imag) pairs
    wh, wm = np.repeat(q * q, 2), np.repeat(q * q / d, 2)
    tau, sigma, bs = np.empty((3, N))
    dtau = np.empty(N - 1)
    z = np.empty(N, dtype=complex)
    zf = z.view(float)
    out = np.empty((3, times.size))
    for i, t in enumerate(times):
        _half_angle(rate, t, tau, sigma)
        np.multiply(b, sigma, out=bs)
        np.subtract(bs, b, out=z.real)  # b cos(rate t)
        np.multiply(bs, tau, out=z.imag)  # b sin(rate t)
        h_sq = np.einsum("i,i,i->", zf, zf, wh)
        np.square(np.subtract(tau[1:], tau[:-1], out=dtau), out=dtau)
        dtau *= np.multiply(sigma[1:], sigma[:-1], out=bs[:-1])
        h1_sq = c0 + c @ dtau
        _prefix_sum(z, runs)  # z -> cumsum z
        out[:, i] = np.sqrt([h_sq, h1_sq, np.einsum("i,i,i->", zf, zf, wm)])
    cells = np.abs(rate).max() * np.abs(times) / N  # phase per radial cell
    over = cells > 1.0
    warnings = [f"{over.sum()} of {times.size} times advance the phase by "
                f"up to {cells.max():.3g} per radial cell: the truncation "
                f"is felt; raise --resolution"] if over.any() else []
    return {"t": times, "h": out[0], "h1": out[1], "hm1": out[2],
            "grid": np.full(times.size, N), "p": p, "warnings": warnings,
            "datum": datum, "resolution": N}
