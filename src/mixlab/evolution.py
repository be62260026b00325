"""Time integration with certified discrete energy behavior.

The viscous flow  df/dt + B f + nu A f = 0  is integrated by Strang
splitting with exact substeps: a half-step of exact diffusion, the exact
advection flow, a second half-step of diffusion. Every family runs through
the same step on the internal coordinates of its representation
``problem.op`` (see :mod:`mixlab.models`), where A is diagonal with
eigenvalues ``lam`` and the inner product is flat:

    g -> half * advect(half * g),   half = exp(-nu lam dt / 2),

with ``advect = op.flow(dt)``. A model with no advection (B = 0, the heat
equation) takes one diffusion multiply per step. Every sampled norm is an
eigenvalue-weighted sum over the internal coordinates.

Time steps. Norms are sampled on a grid of intervals ``ds``. With an
explicit ``dt``, the fixed-step reference of the tests, each interval is
one step of ``dt``. Every run of the CLI and of sweeps takes ``ds`` from
:func:`default_dt`, the only time-step policy, and each interval is m
Strang steps of ``ds/m``, m a power of two. Both substeps
are exact, so the splitting error is the commutator of B and nu A alone,
O(nu dt^2) over a fixed horizon. Every ``CHECK_EVERY``-th interval is
also run as 2m half steps (step doubling for a symmetric splitting,
Jahnke & Lubich, BIT 40, 2000), and the run goes on from the finer
result. The gap ``est`` between the two in log h estimates the error of
one m-step interval. m doubles, redoing the check, until ``est`` charged
to every interval run so far fits the budget,
``est * (j + CHECK_EVERY) <= TOL * max(1, |log h/h0|)`` after j intervals;
it halves when the charge at m/2 (four times ``est``) would fit. Pacing
by the elapsed intervals keeps an early, error-heavy transient from
spending the budget a long slow decay needs later. The summed estimate,
``CHECK_EVERY * est`` per check, is reported as ``err_est``. With nu = 0
or B = 0 the step is exact: m = 1 and no checks.

Consequences used elsewhere: the inviscid flow is an exact isometry of the
working norm, the viscous flow is a strict contraction, and every step,
of any size, satisfies  h(t+dt) <= h(t) * exp(-nu * lam1 * dt)  exactly
— the tail certificate the bound checker relies on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .models import EvolutionError, ModelProblem
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
TOP_BAND_FRACTION = 0.10  # spectral occupancy monitor: top 10% of eigenvalues
TOP_BAND_FLAG = 0.01
TOL = 1e-5  # step-doubling budget on the error in log h, per unit of log decay
CHECK_EVERY = 16  # sample intervals from one step-doubling check to the next
MAX_SUBSTEPS = 1024  # most steps per sample interval the controller takes


@dataclass
class DecayTrace:
    """Sampled norm history of one evolution.

    ``extras`` may carry additional sampled norms (keyed by name, e.g.
    ``"h2"``); ``meta`` records integrator metadata and runtime flags.
    ``dt`` is the step of an explicit-step run, or the smallest regular
    step ``ds/m`` of a controlled one. The final state is retrievable from
    ``final_state`` (in the model's working basis); it is not serialized
    with the trace.
    """

    times: np.ndarray
    h: np.ndarray
    h1: np.ndarray
    hm1: np.ndarray
    nu: float
    model: str = ""
    params: dict = field(default_factory=dict)
    dt: float = 0.0
    extras: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    final_state: np.ndarray | None = None

    def __len__(self) -> int:
        return self.times.size


def default_dt(problem: ModelProblem, t_end: float) -> float:
    """Sample interval ``ds`` of a run without an explicit step: half the
    advection time 1/bound_B, at most 0.5. Pure diffusion (B = 0) is exact
    at any step, so it splits t_end into 2000 intervals. Never longer than
    a positive ``t_end``."""
    if problem.bound_B > 0.0 or t_end <= 0.0:
        ds = 0.5 / max(1.0, problem.bound_B)
    else:
        ds = t_end / 2000.0
    return min(ds, t_end) if t_end > 0.0 else ds


def step_viscous(problem: ModelProblem, f, nu: float, dt: float) -> np.ndarray:
    """One Strang step of the viscous flow, in the model's working basis."""
    return evolve(problem, f, nu, dt, dt=dt).final_state


def _strang_step(problem: ModelProblem, nu: float, dt: float):
    """The map g -> half * advect(half * g) on internal coordinates."""
    half = np.exp(-nu * problem.op.lam * dt / 2.0)
    if problem.bound_B == 0.0:  # no advection (heat): the halves compose
        full = half * half
        return lambda g: full * g
    advect = problem.op.flow(dt)
    return lambda g: half * advect(half * g)


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
        Step size, finite and positive: the run takes ceil(t_end/dt)
        steps of it, fewer if ``stop_ratio`` ends it. Default: intervals
        ``ds = default_dt(problem, t_end)``, each of m error-controlled
        steps (see the module docstring).
    sample_every
        Record norms every this many steps of ``dt`` or intervals of
        ``ds`` (default 1, at least 1). Whenever the stored history would
        exceed ``max_samples`` it is thinned: every other sample dropped
        and the stride doubled.
    stop_ratio
        If set, in (0, 1): stop once h <= stop_ratio * h(0) (the sample
        that crossed is recorded). Used by sweeps to capture the
        asymptotic decay without running to the full horizon.
    extras
        Extra norms to sample; currently ``"h2"``.

    Returns a :class:`DecayTrace` whose ``meta`` records, besides the
    stop reason and the occupancy monitor, ``n_steps`` (check steps
    included), ``sample_interval``, ``max_steps_per_sample`` and
    ``err_est``, the summed step-doubling estimate (None with an explicit
    ``dt``). Raises :class:`EvolutionError` on non-finite state, and
    ValueError on a bad step control.
    """
    if not (np.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end:g}")
    if stop_ratio is not None and not 0.0 < stop_ratio < 1.0:
        raise ValueError(f"stop_ratio must lie in (0, 1), got {stop_ratio:g}")
    if dt is not None and not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt:g}")
    stride = 1 if sample_every is None else int(sample_every)
    if stride < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    c0 = np.asarray(f_in, dtype=complex)
    g = problem._internal(c0)  # ValueError unless c0 has shape (size,)
    want_h2 = "h2" in extras
    orders = (0.0, 1.0, -1.0, 2.0) if want_h2 else (0.0, 1.0, -1.0)
    ds = default_dt(problem, t_end) if dt is None else dt
    meta = {"sample_interval": ds * stride,
            "max_steps_per_sample": stride,
            "err_est": None if dt is not None else 0.0,
            "occupancy_max": 0.0, "warnings": [], "stop_reason": "t_end"}

    n_int = int(np.ceil(t_end / ds - 1e-12))  # 0 for t_end = 0
    op = problem.op
    lam = op.lam
    cut = np.sort(lam)[int(np.ceil((1.0 - TOP_BAND_FRACTION) * lam.size)) - 1]
    top = (lam >= cut).astype(float)
    steppers = {}  # m -> one Strang step of ds/m
    n_steps = 0

    def advance(g, m):
        """One sample interval as m Strang steps of ds/m."""
        nonlocal n_steps
        if m not in steppers:
            steppers[m] = _strang_step(problem, nu, ds / m)
        step = steppers[m]
        for _ in range(m):
            g = step(g)
        n_steps += m
        return g

    samples = []  # rows of t and the norms of each order

    def record(t, g):
        a2 = np.abs(g) ** 2
        vals = [hs_norm(a2, lam, s) for s in orders]
        if not np.isfinite(vals[0]):
            raise EvolutionError(
                f"non-finite H norm at t={t:g} "
                f"(model {problem.name}, nu={nu:g}, dt={ds / m:g})"
            )
        samples.append([t] + vals)
        if vals[0] > 0:
            meta["occupancy_max"] = max(meta["occupancy_max"],
                                        float(top @ a2) / vals[0] ** 2)
        return vals[0]

    m = m_max = 1
    h0 = record(0.0, g)
    floor = stop_ratio * h0 if stop_ratio else -1.0
    # the step is exact without viscosity, without advection, or on the
    # zero state
    controlled = dt is None and nu != 0.0 and problem.bound_B != 0.0 \
        and h0 > 0.0

    j = 0
    while j < n_int:
        if controlled and j % CHECK_EVERY == 0:
            coarse = advance(g, m)
            while True:
                fine = advance(g, 2 * m)
                h_fine = np.linalg.norm(fine)
                est = abs(np.log(np.linalg.norm(coarse) / h_fine))
                budget = TOL * max(1.0, abs(np.log(h_fine / h0)))
                if est * (j + CHECK_EVERY) <= budget or m == MAX_SUBSTEPS:
                    break
                m, coarse = 2 * m, fine
            g = fine
            meta["err_est"] += CHECK_EVERY * est
            m_max = max(m_max, m)
            if m > 1 and 4.0 * est * (j + CHECK_EVERY) <= budget:
                m //= 2
        else:
            g = advance(g, m)
        j += 1
        if j % stride == 0 or j == n_int:
            h = record(j * ds, g)
            if h <= floor:
                meta["stop_reason"] = "stop_ratio"
                break
            if len(samples) > max_samples:
                del samples[1::2]
                stride *= 2

    meta["n_steps"] = n_steps
    meta["sample_stride"] = stride
    meta["max_steps_per_sample"] *= m_max
    if m_max == MAX_SUBSTEPS:
        meta["warnings"].append(
            f"step control reached {MAX_SUBSTEPS} steps per sample interval; "
            "the splitting error may exceed its budget"
        )
    if meta["occupancy_max"] > TOP_BAND_FLAG:
        meta["warnings"].append(
            f"top-band occupancy reached {meta['occupancy_max']:.1%}: "
            "spectral truncation may be felt; raise the resolution"
        )

    cols = np.array(samples).T
    return DecayTrace(
        times=cols[0], h=cols[1], h1=cols[2], hm1=cols[3], nu=nu,
        model=problem.name, params=dict(problem.params), dt=ds / m_max,
        extras={"h2": cols[4]} if want_h2 else {}, meta=meta,
        final_state=op.from_internal(g) if j else c0.copy(),
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
    model, params, dt = "", {}, 0.0
    if os.path.exists(sidecar_path):
        with open(sidecar_path) as fh:
            meta = json.load(fh)
        nu = meta.pop("nu", 0.0)
        model = meta.pop("model", "")
        params = meta.pop("params", {})
        dt = meta.pop("dt", 0.0)
        meta.pop("n_samples", None)
    return DecayTrace(
        times=data[:, 0], h=data[:, 1], h1=data[:, 2], hm1=data[:, 3],
        nu=nu, model=model, params=params, dt=dt, meta=meta,
    )
