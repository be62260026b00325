"""Rate extraction and explicit decay-bound verification.

Two fitted quantities drive everything here:

* power laws in log-log coordinates (mixing-norm decay in time, and the
  dissipation time-scale against viscosity), via least squares;
* the asymptotic exponential decay rate of a viscous trace, fitted on the
  final e-folds of log h. For a purely exponential trace the e-folding
  time 1/rate coincides with the e^-1 crossing time; they differ only
  when a fast transient eats a fixed energy fraction first, which is why
  sweeps record both.

The theorem-style decay bounds h(t) <= e^{-rate t} h(0) for t > t_min — a
law ``(rate, t_min)``, c0 nu^q from nu^-q under polynomial mixing — are
verified sample-by-sample by one checker, with a tail certificate past the
end of the trace: the integrator contracts at least as fast as the slowest
diffusive mode (h(t) <= h(s) e^{-nu lam1 (t-s)} exactly), so whenever
nu lam1 >= rate and the bound holds at the trace end, it holds for all
later times as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import DecayTrace
from .models import q_from_p

__all__ = [
    "RateFit",
    "BoundReport",
    "fit_power_law",
    "fit_decay_rate",
    "tau_threshold",
    "ed_exponent",
    "timescale_pairs",
    "theorem_bound_check",
    "exp_mixing_law",
    "exp_mixing_nu_threshold",
    "constant_c0_poly",
    "constant_c0_exp",
    "constant_cs",
    "constant_c0_spiral",
    "q_from_p",
    "q_s_exponent",
    "fit_mixing_amplitude",
]

THETA_DEFAULT = float(np.exp(-1.0))
#: e-folds above its final value over which a trace's tail rate is fitted
TAIL_EFOLDS = 3.0


@dataclass(frozen=True)
class RateFit:
    """A least-squares line through log y, reported as ``rate = -slope``:
    ``y ~ exp(intercept) * x^(-rate)`` from :func:`fit_power_law`, whose
    rate is a mixing exponent p or, through :func:`ed_exponent`, q; and
    ``y ~ exp(intercept - rate * t)`` from :func:`fit_decay_rate`.

    ``window`` is the (min, max) range of the abscissa actually used —
    times for mixing and tail fits, viscosities for sweep fits.
    """

    rate: float
    intercept: float
    residual: float
    window: tuple
    n_points: int


@dataclass(frozen=True)
class BoundReport:
    """Outcome of a decay-bound check.

    ``worst_margin`` is min over checked samples of (rhs - lhs)/rhs; the
    check passes iff it stays above -tolerance. ``tail_certified`` records
    whether times beyond the trace end are covered by the contraction
    argument; ``checked`` counts the samples tested directly.
    """

    passed: bool
    worst_margin: float
    checked: int
    tail_certified: bool = False


def _lsq_line(x: np.ndarray, y: np.ndarray):
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ sol - y) ** 2)))
    return float(sol[0]), float(sol[1]), resid


def fit_power_law(times, values, window=None) -> RateFit:
    """Fit ``values ~ exp(intercept) * times^(-rate)`` by least squares in
    (log t, log value).

    ``window = (t_min, t_max)`` restricts the samples used; at least 4
    strictly positive values inside the window are required.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    lo, hi = (-np.inf, np.inf) if window is None else window
    mask = (t > 0.0) & (t >= lo) & (t <= hi)
    if not np.all(v[mask] > 0.0):
        raise ValueError("power-law fit requires strictly positive values")
    t, v = t[mask], v[mask]
    if t.size < 4:
        raise ValueError(f"power-law fit needs >= 4 samples in window, got {t.size}")
    slope, intercept, resid = _lsq_line(np.log(t), np.log(v))
    return RateFit(-slope, intercept, resid, (float(t.min()), float(t.max())),
                   int(t.size))


def fit_decay_rate(times, values) -> RateFit:
    """Fit the asymptotic exponential decay rate of a positive signal.

    Least squares on (t, log value) over the tail where the signal sits
    within ``TAIL_EFOLDS`` e-folds of its final value. Returns the decay
    rate (positive for a decaying signal).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("rate fit requires strictly positive values")
    lv = np.log(v)
    mask = lv <= lv[-1] + TAIL_EFOLDS
    if mask.sum() < 4:
        raise ValueError(
            f"rate fit needs >= 4 samples in its window, got {int(mask.sum())}"
        )
    slope, intercept, resid = _lsq_line(t[mask], lv[mask])
    tw = (float(t[mask].min()), float(t[mask].max()))
    return RateFit(-slope, intercept, resid, tw, int(mask.sum()))


def tau_threshold(trace: DecayTrace, theta: float = THETA_DEFAULT) -> float:
    """First time the working norm falls below theta * h(0).

    The crossing of the cubic Hermite interpolant of log h between the
    bracketing samples, whose end slopes are those of the energy identity,
    d log h/dt = -nu (h1/h)^2: exact for the continuous flow, and read
    from the trace, so the error is the interpolant's, fourth order in the
    spacing. Where a slope cannot be formed (nu = 0, h = 0), the linear
    crossing in (t, log h). Raises if the trace never crosses — the
    horizon was too short.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    lh = np.log(trace.h)
    target = lh[0] + np.log(theta)
    below = np.nonzero(lh <= target)[0]
    if below.size == 0:
        raise ValueError(
            f"no threshold crossing within the trace (final h/h0 = "
            f"{trace.h[-1] / trace.h[0]:.3e} > theta = {theta:.3e}); "
            "t_end too small"
        )
    i = int(below[0])
    if i == 0:
        return float(trace.times[0])
    t0, t1 = trace.times[i - 1], trace.times[i]
    l0, l1 = lh[i - 1] - target, lh[i] - target  # > 0 >= l1
    x = l0 / (l0 - l1)  # the linear crossing, as a fraction of t1 - t0
    h, h1 = trace.h[i - 1:i + 1], trace.h1[i - 1:i + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        d0, d1 = -trace.nu * (h1 / h) ** 2 * (t1 - t0)  # the slopes in x
    if trace.nu > 0.0 and np.isfinite(d0) and np.isfinite(d1):
        # the Hermite cubic, minus the target, in x = (t - t0)/(t1 - t0),
        # runs from l0 > 0 to l1 <= 0: its first real root in [0, 1]
        c3, c2 = 2.0 * (l0 - l1) + d0 + d1, 3.0 * (l1 - l0) - 2.0 * d0 - d1
        r = np.roots([c3, c2, d0, l0])
        r = r.real[(r.imag == 0.0) & (r.real >= 0.0) & (r.real <= 1.0)]
        if r.size:
            x = r.min()
    return float(t0 + x * (t1 - t0))


_TIMESCALE_ATTR = {"crossing": "tau", "rate": "tau_rate"}


def timescale_pairs(rows, timescale: str = "crossing"):
    """``(nus, taus)`` arrays of the completed sweep rows that carry the
    ``"crossing"`` (``tau``) or ``"rate"`` (``tau_rate``) time-scale,
    sorted by viscosity; empty when no row does."""
    if timescale not in _TIMESCALE_ATTR:
        raise ValueError(f"unknown timescale {timescale!r}; choose from "
                         f"{sorted(_TIMESCALE_ATTR)}")
    attr = _TIMESCALE_ATTR[timescale]
    pairs = sorted((r.nu, getattr(r, attr)) for r in rows
                   if r.status == "ok" and getattr(r, attr))
    nus, taus = np.array(pairs, dtype=float).reshape(-1, 2).T
    return nus, taus


def ed_exponent(pairs) -> RateFit:
    """Enhanced-dissipation exponent from a viscosity sweep.

    Fits log tau against log nu over the ``(nus, taus)`` pair — one row
    group's, as :func:`timescale_pairs` takes it from the rows — by
    :func:`fit_power_law`, whose record holds q_meas as ``rate``, so
    ``taus ~ exp(intercept) * nus^(-rate)``. Requires at least 4
    viscosities spanning two or more decades.
    """
    nus, taus = (np.asarray(x, dtype=float) for x in pairs)
    if nus.size < 4:
        raise ValueError(f"need >= 4 viscosities, got {nus.size}")
    if nus.max() / nus.min() < 99.999:
        raise ValueError("viscosities must span at least two decades")
    return fit_power_law(nus, taus)


# ---------------------------------------------------------------------------
# explicit decay-bound verification

def theorem_bound_check(trace: DecayTrace, rate: float, t_min: float,
                        tol: float = 5e-2,
                        lam1: float | None = None) -> BoundReport:
    """Verify h(t) <= (1 + tol) e^{-rate t} h(0) for all t > ``t_min`` on
    the samples past t_min and, when ``lam1`` is given and
    nu * lam1 >= rate (nu is ``trace.nu``), past the trace end by the
    integrator's exact diffusive contraction (the trace endpoint then
    dominates everything later). Every law ``(rate, t_min)`` of the
    theorem is checked here: c0 nu^q from nu^-q, or
    :func:`exp_mixing_law`. A trace with neither a
    checked sample nor the certificate is refused: horizon too short.
    """
    nu = trace.nu
    if nu <= 0.0:
        raise ValueError("bound check requires positive viscosity")
    h0 = trace.h[0]
    mask = trace.times > t_min
    rhs = np.exp(-rate * trace.times[mask]) * h0
    margins = (rhs - trace.h[mask]) / rhs
    tail_certified = lam1 is not None and bool(nu * lam1 >= rate)
    if tail_certified:
        # h(t) <= h(T) e^{-nu lam1 (t-T)} for t >= T, and the bound curve
        # decays slower, so the worst uncovered time is max(T, t_min).
        T, hT = trace.times[-1], trace.h[-1]
        t_star = max(T, t_min)
        lhs_star = hT * np.exp(-nu * lam1 * (t_star - T))
        rhs_star = np.exp(-rate * t_star) * h0
        margins = np.append(margins, (rhs_star - lhs_star) / rhs_star)
    if margins.size == 0:
        raise ValueError(
            f"trace ends at t={trace.times[-1]:g} <= t_min = {t_min:g} and no "
            "tail certificate is available (pass lam1); horizon too short"
        )
    worst = float(np.min(margins))
    return BoundReport(worst >= -tol, worst, int(np.count_nonzero(mask)),
                       tail_certified)


def exp_mixing_nu_threshold(p: float, a1: float, a2: float) -> float:
    """Largest admissible viscosity for the exponential-mixing decay bound."""
    return float(min(np.exp(-(4.0**p) / (2.0 * a2)), np.exp(-1.0),
                     np.exp(-(a1 ** (p / 2.0)))))


def exp_mixing_law(nu: float, p: float, a1: float, a2: float,
                   c_B: float = 0.0) -> tuple[float, float]:
    """The exponential-mixing law ``(rate, t_min)`` for
    :func:`theorem_bound_check`: h(t) <= e^{-c0 |ln nu|^{-2/p} t} h(0) for
    t > |ln nu|^{2/p}, refused for nu outside (0, threshold).

    At desk-scale viscosities the window opens almost immediately, but the
    guaranteed rate is weak.
    """
    nu_max = exp_mixing_nu_threshold(p, a1, a2)
    if not 0.0 < nu < nu_max:
        raise ValueError(
            f"nu = {nu:g} is outside the admissibility range (0, {nu_max:g}) "
            "of the exponential-mixing bound"
        )
    scale = float(np.abs(np.log(nu)) ** (2.0 / p))
    return constant_c0_exp(p, a1, a2, c_B) / scale, scale


# ---------------------------------------------------------------------------
# explicit constants (literal formula evaluations)

def _check_positive(**kw):
    for name, val in kw.items():
        if val is None or val < 0 or (name != "c_B" and val == 0):
            raise ValueError(f"{name} must be positive (c_B may be zero), got {val}")


def q_s_exponent(s: float, p: float) -> float:
    """Generalized exponent for mixing measured in the H^-s scale; s = 1
    recovers q_from_p."""
    return (max(1.0, s) + s) / (max(1.0, s) + s + p)


def constant_c0_poly(p: float, a: float, c_B: float) -> float:
    """Decay constant for polynomially mixing flows (time-scale nu^-q)."""
    _check_positive(p=p, a=a, c_B=c_B)
    return (1.0 / 128.0) * min(1.0 / (2.0 * (1.0 + c_B)), 1.0 / (a * 4.0**p))


def constant_c0_exp(p: float, a1: float, a2: float, c_B: float) -> float:
    """Decay constant for exponentially mixing flows (|ln nu|^{2/p} scale).

    a1 enters the admissibility threshold on nu, not the constant itself.
    """
    _check_positive(p=p, a1=a1, a2=a2, c_B=c_B)
    return (1.0 / 128.0) * min(a2 ** (2.0 / p) / (32.0 * (1.0 + c_B)), 1.0)


def constant_cs(s: float, p: float, a: float, c_B: float, lam1: float) -> float:
    """Decay constant when mixing is measured in the H^-s scale."""
    _check_positive(s=s, p=p, a=a, c_B=c_B, lam1=lam1)
    branch1 = 1.0 / (128.0 * (1.0 + c_B))
    branch2 = (s / (16.0 * (s + 1.0))) ** (s / (1.0 + s)) * (
        lam1 ** (1.0 - s) / (4.0 ** (2.0 * p + 2.0) * (s + 1.0) * a**2)
    ) ** (1.0 / (1.0 + s))
    return 0.5 * min(branch1, branch2)


def constant_c0_spiral(alpha: float, a: float) -> float:
    """Sharpened decay constant for the disk swirl with phase speed r^alpha."""
    _check_positive(alpha=alpha, a=a)
    p_alpha = 2.0 / max(alpha, 2.0)
    return (1.0 / 128.0) * min(1.0 / (64.0 * (1.0 + alpha**2)),
                               1.0 / (a * 4.0**p_alpha))


def fit_mixing_amplitude(times, hm1, p: float, k: int, h1_initial: float) -> float:
    """Mixing amplitude for the decay-constant formulas.

    Takes the sup over samples of hm1(t) * (1 + |k| t)^p / h1(0) — the
    smallest constant making the algebraic mixing estimate hold on the
    sampled trace — rounded up to the next power of two for conservatism.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(hm1, dtype=float)
    if h1_initial <= 0.0:
        raise ValueError("initial H^1 norm must be positive")
    sup = float(np.max(v * (1.0 + abs(k) * t) ** p) / h1_initial)
    if sup <= 0.0:
        raise ValueError("mixing amplitude fit got a nonpositive supremum")
    # Nudge below the ceil so a sup sitting on a power of two (up to float
    # noise) is not bumped a full factor of 2.
    return float(2.0 ** np.ceil(np.log2(sup) - 1e-9))
