"""Time integration with certified discrete energy behavior.

The viscous flow  df/dt + B f + nu A f = 0  is integrated by Strang
splitting with exact substeps: a half-step of exact diffusion, the exact
advection flow, a second half-step of diffusion. Every family runs through
the same step on the internal coordinates of its representation
``problem.op`` (see :mod:`mixlab.models`), where A is diagonal with
eigenvalues ``lam`` and the inner product is flat:

    g -> half * advect(half * g),   half = exp(-nu lam dt / 2),

with ``advect = op.flow(dt)``, formed once per model and step size,
cached on the op (the ``FLOW_CACHE`` most recently used step sizes; see
:class:`mixlab.models._CachedFlow`): the flow does not depend on nu, so
the rows of a sweep, which share their group's model, share it. A step
allocates one array, ``half * g``, and works in it: on the Fourier grid
(shear) the flow of complex coefficients is an unscaled inverse FFT into
it, a multiply by the grid phase with the forward FFT's 1/n folded in,
and an unscaled forward FFT into it; the second half-step scales it in
place. A real datum under an odd profile (``single-mode-m1`` under
``sin``) has real coefficients, which the flow keeps real: there it is
one matmul of the state's gathered windows with a Toeplitz block of the
phase's real kernel, formed with the flow, into a second array
(:meth:`mixlab.models.FourierPhase._form_flow`; where that band is wide,
the FFT pair on a complex copy). For the matrix families (Kolmogorov,
kinetic) the flow is one batched matmul with the dense blocks along the
band of exp(-B dt), formed from its Chebyshev-Bessel series by probing,
into a second array; where no narrow band exists (kinetic d >= 2, or a
step whose band is as wide as the matrix) it sums the series at each
step (:meth:`mixlab.models.SkewMatrix._form_flow`). Every product is
numpy's own; no step calls ``scipy.linalg``. The step's input is never
written, so a caller's state, and the state that a step-doubling check
steps twice, stay as they are. A model with no advection (B = 0, the
heat equation) takes one diffusion multiply per step.

Every sampled norm is an eigenvalue-weighted sum over the internal
coordinates. A run stacks, once, the weights of its sampled orders (1,
lam, 1/lam, and lam^2 with ``"h2"``; see
:func:`mixlab.models.hs_weights`) over the mask of the top band of
eigenvalues, so each sample is one product ``W @ |g|^2``, written into
its own row of a buffer that doubles when it is full; every sample is
kept. The top band is one or two contiguous slices of the internal
order, and every state a kept interval steps through before its sampled
end adds up their energy; the largest is charged against the next
sample's h^2, and the share is capped at 1. h never increases, so a
sample's top-band share bounds that of every state stepped through
since the one before, and a sparse grid hides no peak of the run.

Time steps. A viscous run with ``stop_ratio`` first cuts its horizon to
ln(1/stop_ratio)/(nu lam1), where the tail certificate below has brought
h to ``stop_ratio`` h(0); a sweep row runs to exactly that time. Time is
then counted in units ``ds``: an explicit ``dt``, the fixed-step
reference of the tests, or, for every run of the CLI and of sweeps,
:func:`default_dt` of that horizon, the only time-step policy (with
B = 0, 1000 intervals of it). Norms are sampled every s units. The
stride s starts at ``sample_every`` and doubles at the sample
t = j ds once 2 s ds <= t/K0, which first holds at j = 2 s K0,
a multiple of 2 s: the grid stays nested, holds about K0 samples per
doubling of elapsed time, and its spacing never exceeds
max(sample_every ds, t/K0). K0 = 500 is enough for the crossing time,
which :func:`mixlab.diagnostics.tau_threshold` reads by a Hermite
crossing on the energy identity, fourth order in the spacing. A run
shorter than 2 K0 ds samples every ``sample_every`` units. The run
ends at ceil(t_end/ds) ds, the first multiple of ds at or past t_end,
and its last interval may be shorter than the stride. The loop takes
each next sample from this rule, so nothing is sized by the horizon
t_end/ds. A run also stops, with a warning, at the first
sample whose h^2 is below the smallest normal double.

Each sample interval is m Strang steps of s ds/m: m = s with an explicit
``dt``, m = 1 where the step is exact (nu = 0 or B = 0), and under error
control m is set as follows. Both substeps are exact, so the splitting
error is the commutator of B and nu A alone, O(nu dt^2) over a fixed
horizon. Every ``CHECK_EVERY``-th interval is also run as 2m half steps
(step doubling for a symmetric splitting, Jahnke & Lubich, BIT 40, 2000),
and the run goes on from the finer result. The gap ``est`` between the two
in log h estimates the error of one m-step interval. m doubles, redoing
the check, until ``est`` charged to the time run so far, counted in
intervals of s ds, fits the budget,
``est * (j/s + CHECK_EVERY) <= TOL * max(1, |log h/h0|)`` at t = j ds; it
halves, down to one step per interval, when the charge at m/2 (four times
``est``) would fit. Pacing by the elapsed time keeps an early,
error-heavy transient from spending the budget a long slow decay needs
later. m doubles with the stride, so the step only changes at a check,
and it never falls below ds/``MAX_SUBSTEPS``. The summed estimate,
``CHECK_EVERY * est`` per check, is reported as ``err_est``.

Consequences used elsewhere: the inviscid flow is an exact isometry of the
working norm, the viscous flow is a strict contraction, and every step,
of any size, satisfies  h(t+dt) <= h(t) * exp(-nu * lam1 * dt)  exactly
— the tail certificate the bound checker relies on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from math import gcd, isfinite, log, sqrt

import numpy as np
import scipy

from . import __version__
from .models import TOP_BAND_FLAG, EvolutionError, ModelProblem, hs_weights

__all__ = [
    "DecayTrace",
    "EvolutionError",
    "evolve",
    "step_viscous",
    "energy_residual",
    "write_norms",
    "write_trace",
    "read_trace",
    "default_dt",
]

TOP_BAND_FRACTION = 0.10  # spectral occupancy monitor: top 10% of eigenvalues
TOL = 1e-5  # step-doubling budget on the error in log h, per unit of log decay
CHECK_EVERY = 16  # sample intervals from one step-doubling check to the next
MAX_SUBSTEPS = 1024  # most steps per unit ds the controller takes
K0 = 500  # samples per doubling of elapsed time, once the stride grows


@dataclass
class DecayTrace:
    """Sampled norm history of one evolution.

    ``extras`` may carry additional sampled norms (keyed by name, e.g.
    ``"h2"``); ``meta`` records integrator metadata and runtime flags.
    ``dt`` is the step of an explicit-step run, or the smallest regular
    step ``s ds/m`` of any other. The final state (``final_state``,
    in the model's working basis) and each sample's top-band energy share
    (``occupancy``: the most top-band energy of the states since the last
    sample over this sample's h^2, at most 1) are not serialized with the
    trace.
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
    occupancy: np.ndarray | None = None

    def __len__(self) -> int:
        return self.times.size


def default_dt(problem: ModelProblem, t_end: float) -> float:
    """The unit ``ds`` of a run without an explicit step, its first sample
    interval: half the advection time 1/bound_B, at most 0.5. Pure
    diffusion (B = 0) is exact at any step, so it splits t_end into 1000
    intervals. Never longer than a positive ``t_end``."""
    if problem.bound_B > 0.0 or t_end <= 0.0:
        ds = 0.5 / max(1.0, problem.bound_B)
    else:
        ds = t_end / 1000.0
    return min(ds, t_end) if t_end > 0.0 else ds


def _certified_horizon(problem: ModelProblem, nu: float, stop_ratio,
                       t_end: float = np.inf) -> float:
    """``t_end``, cut where the tail certificate h(t) <= exp(-nu lam1 t)
    h(0) has brought h to ``stop_ratio`` h(0): ln(1/stop_ratio)/(nu lam1).
    Without ``stop_ratio`` or viscosity there is no such time."""
    if not stop_ratio or nu * problem.lam1 <= 0.0:
        return t_end
    return min(t_end, log(1.0 / stop_ratio) / (nu * problem.lam1))


def step_viscous(problem: ModelProblem, f, nu: float, dt: float) -> np.ndarray:
    """One Strang step of the viscous flow, in the model's working basis."""
    return evolve(problem, f, nu, dt, dt=dt).final_state


def _strang_step(problem: ModelProblem, nu: float, dt: float):
    """The map g -> half * advect(half * g) on internal coordinates. The
    flow ``advect`` is formed once per model and step size, cached on the
    op (at most ``FLOW_CACHE`` step sizes); only the halves depend on nu.
    A step allocates one array, ``half * g``, which the flow may
    overwrite and which the last half-step scales in place; g is never
    written."""
    half = np.exp(-nu * problem.op.lam * dt / 2.0)
    if problem.bound_B == 0.0:  # no advection (heat): the halves compose
        full = half * half
        return lambda g: full * g
    advect = problem.op.flow(dt)

    def step(g):
        out = advect(half * g)
        out *= half
        return out

    return step


def evolve(problem: ModelProblem, f_in, nu: float, t_end: float,
           dt: float | None = None, sample_every: int | None = None,
           stop_ratio: float | None = None, extras: tuple = ()) -> DecayTrace:
    """Integrate the viscous flow and sample its Sobolev norms.

    Parameters
    ----------
    problem, f_in, nu, t_end
        Model, initial state (working basis), viscosity (finite and
        nonnegative; 0 = inviscid), horizon (finite; the run ends at
        ceil(t_end/ds) ds, ``ds`` being ``dt`` or the unit below, or
        earlier by ``stop_ratio``).
    dt
        Step size, finite and positive: the run takes ceil(t_end/dt)
        steps of it, fewer if ``stop_ratio`` ends it. Default: the unit
        ``ds = default_dt`` of the horizon, with m error-controlled steps
        per sample interval (see the module docstring).
    sample_every
        The first sample stride, in steps of ``dt`` or units of ``ds``:
        an integer, at least 1 (default 1). The stride doubles as the run
        goes on, so that the spacing stays within max(sample_every ds,
        t/K0) (see the module docstring); every recorded sample is kept.
    stop_ratio
        If set, in (0, 1): stop once h <= stop_ratio * h(0) (the sample
        that crossed is recorded); with ``nu > 0``, end by
        ln(1/stop_ratio)/(nu lam1), where the tail certificate has
        brought h there. Used by sweeps to capture the asymptotic decay.
    extras
        Extra norms to sample: the one known is ``"h2"``; another name is
        a ValueError.

    Returns a :class:`DecayTrace` whose ``meta`` records, besides the stop
    reason (``"t_end"``, ``"stop_ratio"`` or ``"underflow"``) and the
    occupancy monitor, ``n_steps`` (check steps included), the final
    ``sample_stride`` and its ``sample_interval`` (stride times ``ds``),
    ``max_steps_per_sample`` (the most steps in one sample interval),
    ``err_est``, the summed step-doubling estimate (None with an explicit
    ``dt``), and the ``versions`` of mixlab, numpy and scipy; the trace's
    ``dt`` is the smallest regular step. Raises :class:`EvolutionError` on
    non-finite state, and ValueError on a negative or non-finite ``nu``
    and on a bad step control.
    """
    if not (np.isfinite(nu) and nu >= 0.0):
        raise ValueError(f"nu must be finite and nonnegative, got {nu:g}")
    if not (np.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end:g}")
    if stop_ratio is not None and not 0.0 < stop_ratio < 1.0:
        raise ValueError(f"stop_ratio must lie in (0, 1), got {stop_ratio:g}")
    if dt is not None and not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt:g}")
    unknown = sorted(set(extras) - {"h2"})
    if unknown:
        raise ValueError(f"unknown extra(s) {', '.join(unknown)}: the one "
                         "known extra is h2")
    s = 1 if sample_every is None else sample_every  # the sample stride
    if not (float(s).is_integer() and s >= 1):
        raise ValueError(f"sample_every must be an integer >= 1, got "
                         f"{sample_every}")
    s = int(s)
    c0 = np.asarray(f_in, dtype=complex)
    g = problem._internal(c0)  # ValueError unless c0 has shape (size,)
    want_h2 = "h2" in extras
    orders = (0.0, 1.0, -1.0, 2.0) if want_h2 else (0.0, 1.0, -1.0)
    t_end = _certified_horizon(problem, nu, stop_ratio, t_end)
    ds = default_dt(problem, t_end) if dt is None else dt
    meta = {"err_est": None if dt is not None else 0.0,
            "warnings": [], "stop_reason": "t_end",
            "versions": {"mixlab": __version__, "numpy": np.__version__,
                         "scipy": scipy.__version__}}

    n_int = int(np.ceil(t_end / ds - 1e-12))  # the run ends at n_int ds
    op = problem.op
    lam = op.lam
    cut = np.sort(lam)[int(np.ceil((1.0 - TOP_BAND_FRACTION) * lam.size)) - 1]
    # a sample is one product: the squared norm of each order, then the
    # energy in the top band
    weights = np.vstack([hs_weights(lam, orders), lam >= cut])
    a2 = np.empty(lam.size)
    # the top band as contiguous slices of the internal order (one or two)
    edges = np.flatnonzero(np.diff(np.r_[0, weights[-1], 0])).tolist()
    top = [slice(a, b) for a, b in zip(edges[::2], edges[1::2])]
    steppers = {}  # (span, n) in lowest terms -> one Strang step of span ds/n
    n_steps = 0
    between = 0.0  # the most top-band energy of a kept interval's inner states

    def advance(g, n, span):
        """An interval of span ds as n Strang steps of span ds/n;
        ``between`` becomes the largest top-band energy of the states it
        passes through before its last."""
        nonlocal n_steps, between
        d = gcd(span, n)
        key = (span // d, n // d)
        if key not in steppers:
            steppers[key] = _strang_step(problem, nu, key[0] * ds / key[1])
        step = steppers[key]
        peak = 0.0
        for i in range(n):
            g = step(g)
            if i < n - 1:
                energy = 0.0
                for sl in top:
                    v = g[sl]
                    energy += np.vdot(v, v).real
                peak = max(peak, energy)
        between = peak
        n_steps += n
        return g

    # a row per sample: its index j, the squared norm of each order and
    # the top band's energy; the buffer doubles when it is full
    samples = np.empty((1024, 2 + len(orders)))
    n_rec = 0

    def record(g, j):
        """Sample g at t = j ds into the next row; returns its h^2."""
        nonlocal samples, n_rec
        if n_rec == len(samples):
            full, samples = samples, np.empty((2 * n_rec, samples.shape[1]))
            samples[:n_rec] = full
        row = samples[n_rec]
        np.dot(weights, np.square(np.abs(g, out=a2), out=a2), out=row[1:])
        h2 = row.item(1)
        if not isfinite(h2):
            raise EvolutionError(
                f"non-finite H norm at t={j * ds:g} "
                f"(model {problem.name}, nu={nu:g}, dt={s * ds / m:g})"
            )
        # an inner state's share, charged to this h^2 <= its own, bounds
        # it; capped at this h^2, since no true share passes 1
        row[-1] = min(max(row.item(-1), between), h2)
        row[0] = j
        n_rec += 1
        return h2

    # m steps per sample interval of s ds: m = s keeps an explicit dt
    m = m_max = s if dt is not None else 1
    dt_min = ds if dt is not None else s * ds  # the smallest regular step
    at_cap = False
    tiny = np.finfo(float).tiny  # the smallest normal double
    h0 = sqrt(record(g, 0))
    floor = stop_ratio * h0 if stop_ratio else -1.0
    # the step is exact without viscosity, without advection, or on the
    # zero state
    controlled = dt is None and nu != 0.0 and problem.bound_B != 0.0 \
        and h0 > 0.0
    exact = dt is None and not controlled

    j = k = 0  # t = j ds after k sample intervals
    while j < n_int:
        # the stride doubles at j = 2 s K0; the last interval ends at n_int
        span = min(2 * s if j == 2 * s * K0 else s, n_int - j)
        if span > s:  # the stride doubled at j: m too, unless exact
            s = span
            if not exact:
                m *= 2
                m_max = max(m_max, m)
        if controlled and k % CHECK_EVERY == 0 and span == s:
            coarse = advance(g, m, s)
            while True:
                fine = advance(g, 2 * m, s)
                h_fine = np.linalg.norm(fine)
                est = abs(np.log(np.linalg.norm(coarse) / h_fine))
                budget = TOL * max(1.0, abs(np.log(h_fine / h0)))
                capped = m == MAX_SUBSTEPS * s
                if est * (j / s + CHECK_EVERY) <= budget or capped:
                    break
                m, coarse = 2 * m, fine
            g = fine
            meta["err_est"] += CHECK_EVERY * est
            at_cap |= capped
            m_max = max(m_max, m)
            dt_min = min(dt_min, s * ds / m)
            if m > 1 and 4.0 * est * (j / s + CHECK_EVERY) <= budget:
                m //= 2
        else:  # a last, shorter interval takes steps no longer than m's
            g = advance(g, -(-m * span // s), span)
        j, k = j + span, k + 1
        h2 = record(g, j)
        if sqrt(h2) <= floor:
            meta["stop_reason"] = "stop_ratio"
            break
        if h2 < tiny and h0 > 0.0:  # the zero state aside
            meta["stop_reason"] = "underflow"
            meta["warnings"].append(f"h^2 underflowed at t={j * ds:g}; the "
                                    "run stops there")
            break

    samples = samples[:n_rec].T  # a row per quantity
    occupancy = np.divide(samples[-1], samples[1], out=samples[-1].copy(),
                          where=samples[1] > 0)
    meta.update(n_steps=n_steps, sample_stride=s, sample_interval=s * ds,
                max_steps_per_sample=m_max,
                occupancy_max=float(occupancy.max()))
    if at_cap:
        meta["warnings"].append(
            f"step control reached {MAX_SUBSTEPS} steps per sample interval "
            f"of {ds:g}; the splitting error may exceed its budget"
        )
    if meta["occupancy_max"] > TOP_BAND_FLAG:
        meta["warnings"].append(
            f"top-band occupancy reached {meta['occupancy_max']:.1%}: "
            "spectral truncation may be felt; raise the resolution"
        )

    norms = np.sqrt(samples[1:-1])
    return DecayTrace(
        times=samples[0] * ds, h=norms[0], h1=norms[1],
        hm1=norms[2], nu=nu, model=problem.name,
        params=dict(problem.params), dt=dt_min,
        extras={"h2": norms[3]} if want_h2 else {}, meta=meta,
        final_state=op.from_internal(g) if n_rec > 1 else c0.copy(),
        occupancy=occupancy,
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
# trace persistence: a .npy norm table with a JSON sidecar

#: the suffix of every norm table mixlab writes
TRACE_SUFFIX = ".npy"


def write_norms(path, t, h, h1, hm1) -> None:
    """Write t, h, h1, hm1 as the columns of one float64 ``(n, 4)`` array,
    by ``np.save`` into the file ``path``; ``np.load`` reads it exactly."""
    with open(path, "wb") as fh:
        np.save(fh, np.stack([t, h, h1, hm1], axis=1, dtype=float))


def write_trace(trace: DecayTrace, path) -> None:
    """Write the trace's norms (:func:`write_norms`) plus a metadata
    sidecar at the same path with extension ``.json``."""
    path = os.fspath(path)
    write_norms(path, trace.times, trace.h, trace.h1, trace.hm1)
    sidecar = {"model": trace.model, "params": trace.params, "nu": trace.nu,
               "dt": trace.dt, "n_samples": len(trace), **trace.meta}
    with open(os.path.splitext(path)[0] + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)


def read_trace(path) -> DecayTrace:
    """A trace written by :func:`write_trace`: the norm table and its
    sidecar, which carries ``model``, ``params``, ``nu``, ``dt`` and the
    meta. A missing file is a FileNotFoundError; a table that ``np.load``
    refuses (truncated, CSV text, an object array) or that is no float64
    ``(n, 4)`` array, or a sidecar lacking one of those four, a
    ValueError naming the file."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        try:
            data = np.load(fh)
        except (ValueError, EOFError) as exc:
            raise ValueError(f"{path} is not a .npy norm table: {exc}")
    if getattr(data, "dtype", None) != np.float64 or data.shape[1:] != (4,):
        raise ValueError(f"{path} holds no float64 (n, 4) norm table")
    sidecar_path = os.path.splitext(path)[0] + ".json"
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    keys = ("model", "params", "nu", "dt")
    missing = [key for key in keys if key not in meta]
    if missing:
        raise ValueError(f"{sidecar_path} lacks {', '.join(missing)}")
    model, params, nu, dt = (meta.pop(key) for key in keys)
    meta.pop("n_samples", None)
    return DecayTrace(
        times=data[:, 0], h=data[:, 1], h1=data[:, 2], hm1=data[:, 3],
        nu=nu, model=model, params=params, dt=dt, meta=meta,
    )
