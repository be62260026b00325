"""Time integration with certified discrete energy behavior.

The viscous flow  df/dt + B f + nu A f = 0  is integrated by Strang
splitting: a half-step of exact diffusion, a full advection step, a second
half-step of diffusion. The model picks one of two realizations, each on
internal coordinates where A is diagonal and the inner product is flat:

* the FFT phase step (shear, heat): internal coordinates are the Fourier
  coefficients; advection is the exact unimodular phase
  exp(-i k u(y) dt), applied on the grid between an inverse and a forward
  FFT. With a zero profile the step is one diffusion multiply;
* the eigenbasis step (spiral, Kolmogorov, kinetic): internal coordinates
  are orthonormal eigencoordinates of A, and a step is
  half * (U @ (half * g)) with U = exp(-B dt) formed once per (model, dt).
  For the spiral, U is the radial phase moved into A's eigenbasis; for
  Kolmogorov and kinetic it is the matrix exponential of the skew
  generator, from an eigendecomposition polished by two Newton-Schulz
  polar iterations so the unitarity defect sits at machine noise.

Every sampled norm is then an eigenvalue-weighted sum over the internal
coordinates. Consequences used elsewhere: the inviscid flow is an exact
isometry of the working norm, the viscous flow is a strict contraction,
and every step satisfies  h(t+dt) <= h(t) * exp(-nu * lam1 * dt)  exactly
— the tail certificate the bound checker relies on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .models import ModelProblem
from .spectral import hs_norm

__all__ = [
    "DecayTrace",
    "EvolutionError",
    "evolve",
    "step_viscous",
    "energy_residual",
    "write_trace",
    "read_trace",
    "default_dt",
]

MAX_SAMPLES = 10_000
UNITARITY_TOL = 1e-10
TOP_BAND_FRACTION = 0.10  # spectral occupancy monitor: top 10% of eigenvalues
TOP_BAND_FLAG = 0.01


class EvolutionError(RuntimeError):
    """Simulation failure: non-finite state or broken substep."""


@dataclass
class DecayTrace:
    """Sampled norm history of one evolution.

    ``extras`` may carry additional sampled norms (keyed by name, e.g.
    ``"h2"``); ``meta`` records integrator metadata and runtime flags.
    The final state is retrievable from ``final_state`` (in the model's
    working basis); it is not serialized with the trace.
    """

    times: np.ndarray
    h: np.ndarray
    h1: np.ndarray
    hm1: np.ndarray
    nu: float
    model: str = ""
    params: dict = field(default_factory=dict)
    dt: float = 0.0
    scheme: str = "strang"
    extras: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    final_state: np.ndarray | None = None

    def __len__(self) -> int:
        return self.times.size


def default_dt(problem: ModelProblem, t_end: float) -> float:
    """Default step: resolve the advection phase; pure diffusion is exact
    at any step, so profile-free runs just split t_end evenly."""
    if problem.bound_B > 0.0:
        return min(0.01, 0.1 / problem.bound_B)
    return t_end / 1e4 if t_end > 0.0 else 1.0


def _polar_unitary(U: np.ndarray) -> np.ndarray:
    """Two Newton-Schulz iterations toward the unitary polar factor."""
    for _ in range(2):
        U = 1.5 * U - 0.5 * (U @ (U.conj().T @ U))
    return U


class _Propagator:
    """One Strang step on internal coordinates ``g``: orthonormal
    eigencoordinates of A, in which diffusion is diagonal with eigenvalues
    ``lam`` and every norm is a lam-weighted sum."""

    def __init__(self, problem: ModelProblem, nu: float, dt: float):
        self.sqw = np.sqrt(problem.inner.weights)
        self.V = problem.eig_vecs  # None: A is diagonal on the state
        self.lam = (problem.a_diag if self.V is None
                    else problem.spectrum.eigenvalues)
        self.half = np.exp(-nu * self.lam * dt / 2.0)
        spec = problem.spectrum.eigenvalues
        cut = spec[int(np.ceil((1.0 - TOP_BAND_FRACTION) * spec.size)) - 1]
        self.top = (self.lam >= cut).astype(float)

    def to_internal(self, state: np.ndarray) -> np.ndarray:
        g = self.sqw * state
        return g if self.V is None else self.V.T @ g

    def from_internal(self, g: np.ndarray) -> np.ndarray:
        if self.V is not None:
            g = self.V @ g
        return g / self.sqw

    def norms(self, g: np.ndarray, orders: tuple):
        """H^s norms of ``g`` for each order, and the top-band share of h^2
        (order 0 comes first)."""
        a2 = np.abs(g) ** 2
        out = [hs_norm(a2, self.lam, s) for s in orders]
        return out, float(self.top @ a2) / out[0] ** 2 if out[0] > 0 else 0.0


class _FourierPhaseStep(_Propagator):
    """Shear and heat: the internal coordinates are Fourier coefficients."""

    def __init__(self, problem: ModelProblem, nu: float, dt: float):
        super().__init__(problem, nu, dt)
        self.phase = np.exp(-1j * problem.phase_rate * dt)
        self.full = self.half * self.half if problem.bound_B == 0.0 else None

    def step(self, g: np.ndarray) -> np.ndarray:
        if self.full is not None:  # pure heat: the two halves compose
            return self.full * g
        vals = np.fft.ifft(self.half * g, norm="forward")
        return self.half * np.fft.fft(self.phase * vals, norm="forward")


class _EigenStep(_Propagator):
    """Spiral, Kolmogorov, kinetic: a dense unitary U = exp(-B dt)."""

    def __init__(self, problem: ModelProblem, nu: float, dt: float):
        super().__init__(problem, nu, dt)
        if self.V is not None:  # spiral: B is a phase on the radial grid
            phase = np.exp(-1j * problem.phase_rate * dt)
            self.U = self.V.T @ (phase[:, None] * self.V)
            return
        # exact exponential of the skew generator
        theta, E = np.linalg.eigh(1j * problem.b_sym)  # Hermitian
        U = _polar_unitary((E * np.exp(1j * theta * dt)) @ E.conj().T)
        defect = np.abs(U @ U.conj().T - np.eye(U.shape[0])).max()
        if defect > UNITARITY_TOL:
            raise EvolutionError(
                f"advection substep unitarity defect {defect:.2e} exceeds "
                f"{UNITARITY_TOL:g}; reduce dt"
            )
        self.U = U

    def step(self, g: np.ndarray) -> np.ndarray:
        return self.half * (self.U @ (self.half * g))


def step_viscous(problem: ModelProblem, f, nu: float, dt: float) -> np.ndarray:
    """One Strang step of the viscous flow, in the model's working basis."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return evolve(problem, f, nu, dt, dt=dt).final_state


def evolve(problem: ModelProblem, f_in, nu: float, t_end: float,
           dt: float | None = None, sample_every: int | None = None,
           stop_ratio: float | None = None, extras: tuple = (),
           max_samples: int = MAX_SAMPLES) -> DecayTrace:
    """Integrate the viscous flow and sample its Sobolev norms.

    Parameters
    ----------
    problem, f_in, nu, t_end
        Model, initial state (working basis), viscosity (0 = inviscid),
        final time.
    dt
        Step size; default resolves the advection phase
        (min(0.01, 0.1/bound_B); pure diffusion splits t_end into 1e4).
    sample_every
        Record norms every this many steps (default 1). Whenever the
        stored history would exceed ``max_samples`` it is thinned: every
        other sample dropped and the stride doubled.
    stop_ratio
        If set, stop once h <= stop_ratio * h(0) (the sample that crossed
        is recorded). Used by sweeps to capture the asymptotic decay
        without running to the full horizon.
    extras
        Extra norms to sample; currently ``"h2"``.

    Returns a :class:`DecayTrace`; raises :class:`EvolutionError` on
    non-finite state.
    """
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    c0 = np.asarray(f_in, dtype=complex)
    if c0.size != problem.size:
        raise ValueError(
            f"initial state has {c0.size} coefficients, model has {problem.size}"
        )
    want_h2 = "h2" in extras
    orders = (0.0, 1.0, -1.0, 2.0) if want_h2 else (0.0, 1.0, -1.0)
    if dt is None:
        dt = default_dt(problem, t_end)

    meta = {"n_steps": 0, "occupancy_max": 0.0, "warnings": [],
            "stop_reason": "t_end"}

    n_steps = int(np.ceil(t_end / dt - 1e-12))  # 0 for t_end = 0
    stride = int(sample_every) if sample_every else 1
    fourier = problem.basis == "torus-fourier"
    st = (_FourierPhaseStep if fourier else _EigenStep)(problem, nu, dt)
    g = st.to_internal(c0)

    samples = []  # rows of t and the norms of each order

    def record(t, g):
        vals, top = st.norms(g, orders)
        if not np.isfinite(vals[0]):
            raise EvolutionError(
                f"non-finite H norm at t={t:g} "
                f"(model {problem.name}, nu={nu:g}, dt={dt:g})"
            )
        samples.append([t] + vals)
        meta["occupancy_max"] = max(meta["occupancy_max"], top)
        return vals[0]

    h0 = record(0.0, g)
    floor = stop_ratio * h0 if stop_ratio else -1.0

    i = 0
    while i < n_steps:
        g = st.step(g)
        i += 1
        if i % stride == 0 or i == n_steps:
            h = record(i * dt, g)
            if h <= floor:
                meta["stop_reason"] = "stop_ratio"
                break
            if len(samples) > max_samples:
                del samples[1::2]
                stride *= 2

    meta["n_steps"] = i
    meta["sample_stride"] = stride
    if meta["occupancy_max"] > TOP_BAND_FLAG:
        meta["warnings"].append(
            f"top-band occupancy reached {meta['occupancy_max']:.1%}: "
            "spectral truncation may be felt; raise the resolution"
        )

    cols = np.array(samples).T
    return DecayTrace(
        times=cols[0], h=cols[1], h1=cols[2], hm1=cols[3], nu=nu,
        model=problem.name, params=dict(problem.params), dt=dt,
        extras={"h2": cols[4]} if want_h2 else {}, meta=meta,
        final_state=st.from_internal(g) if i else c0.copy(),
    )


def energy_residual(trace: DecayTrace) -> float:
    """Violation of the discrete energy balance d/dt h^2 + 2 nu h1^2 = 0.

    Max over interior samples of the three-point derivative of h^2 plus
    2 nu h1^2, normalized by h(0)^2. Second-order small in the sampling
    interval; for the inviscid flow it reduces to |d/dt h^2|.
    """
    if len(trace) < 3:
        raise ValueError("energy residual needs at least 3 samples")
    t, h2 = trace.times, trace.h**2
    dm = t[1:-1] - t[:-2]
    dp = t[2:] - t[1:-1]
    deriv = (dm**2 * h2[2:] - dp**2 * h2[:-2] - (dm**2 - dp**2) * h2[1:-1]) / (
        dm * dp * (dm + dp)
    )
    resid = np.abs(deriv + 2.0 * trace.nu * trace.h1[1:-1] ** 2)
    return float(resid.max() / h2[0])


# ---------------------------------------------------------------------------
# trace persistence: CSV with a JSON sidecar

def write_trace(trace: DecayTrace, path) -> None:
    """Write ``t,h,h1,hm1`` rows (17 significant digits) plus a metadata
    sidecar at the same path with extension ``.json``."""
    path = os.fspath(path)
    with open(path, "w") as fh:
        fh.write("t,h,h1,hm1\n")
        for row in zip(trace.times, trace.h, trace.h1, trace.hm1):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    sidecar = {
        "model": trace.model,
        "params": trace.params,
        "nu": trace.nu,
        "dt": trace.dt,
        "scheme": trace.scheme,
        "n_samples": len(trace),
        **{k: v for k, v in trace.meta.items()},
    }
    with open(os.path.splitext(path)[0] + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)


def read_trace(path) -> DecayTrace:
    path = os.fspath(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    sidecar_path = os.path.splitext(path)[0] + ".json"
    meta = {}
    nu = 0.0
    model, params, dt, scheme = "", {}, 0.0, "strang"
    if os.path.exists(sidecar_path):
        with open(sidecar_path) as fh:
            meta = json.load(fh)
        nu = meta.pop("nu", 0.0)
        model = meta.pop("model", "")
        params = meta.pop("params", {})
        dt = meta.pop("dt", 0.0)
        scheme = meta.pop("scheme", "strang")
        meta.pop("n_samples", None)
    return DecayTrace(
        times=data[:, 0], h=data[:, 1], h1=data[:, 2], hm1=data[:, 3],
        nu=nu, model=model, params=params, dt=dt, scheme=scheme, meta=meta,
    )
