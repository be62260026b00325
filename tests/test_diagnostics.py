"""Fits, time-scales, decay-bound checks, and the explicit constants."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

import mixlab as mx
from mixlab import DecayTrace


def _trace(times, h, h1=None, nu=1e-3):
    times = np.asarray(times, dtype=float)
    h = np.asarray(h, dtype=float)
    h1 = h.copy() if h1 is None else np.asarray(h1, dtype=float)
    return DecayTrace(times=times, h=h, h1=h1, hm1=h.copy(), nu=nu)


def _decay(t, rate):
    """A trace of h = e^{-rate t} that keeps the energy identity
    d log h/dt = -nu (h1/h)^2: h1 = h sqrt(rate/nu)."""
    h = np.exp(-rate * np.asarray(t, dtype=float))
    return _trace(t, h, h * np.sqrt(rate / 1e-3))


# ---------------------------------------------------------------------------
# power-law and rate fits

def test_fit_power_law_exact():
    t = np.geomspace(1.0, 100.0, 20)
    fit = mx.fit_power_law(t, t**-2.0)
    assert fit.rate == pytest.approx(2.0, abs=1e-12)
    assert fit.residual < 1e-12
    fit = mx.fit_power_law(t, 3.0 * t**-1.0)
    assert fit.rate == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit.n_points == 20


def test_fit_power_law_scale_equivariance():
    rng = np.random.default_rng(2)
    t = np.geomspace(1.0, 50.0, 12)
    v = t**-0.7 * np.exp(0.05 * rng.standard_normal(12))
    e1 = mx.fit_power_law(t, v).rate
    e2 = mx.fit_power_law(t, 1e6 * v).rate
    assert e1 == pytest.approx(e2, abs=1e-12)


def test_fit_power_law_window_and_validation():
    t = np.geomspace(0.1, 1000.0, 30)
    v = t**-1.0
    v[t < 1.0] = 1.0  # plateau outside the window
    fit = mx.fit_power_law(t, v, window=(1.0, 1000.0))
    assert fit.rate == pytest.approx(1.0, abs=1e-12)
    assert fit.window[0] >= 1.0
    with pytest.raises(ValueError):
        mx.fit_power_law([1, 2, 3], [1.0, 0.5, 0.25])  # too few
    with pytest.raises(ValueError):
        mx.fit_power_law(t, np.zeros_like(t))


def test_fit_decay_rate_exact_exponential():
    """The tail fit is a RateFit with the power laws' sign: h = 2 e^{-0.3 t}
    is exp(intercept - rate t) with rate 0.3 and intercept ln 2."""
    t = np.linspace(0.0, 30.0, 200)
    fit = mx.fit_decay_rate(t, 2.0 * np.exp(-0.3 * t))
    assert type(fit) is mx.RateFit
    assert fit.rate == pytest.approx(0.3, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(2.0), abs=1e-10)
    assert fit.residual < 1e-12


def test_fit_decay_rate_refuses_a_nonpositive_value():
    t = np.linspace(0.0, 30.0, 200)
    for bad in (0.0, -1e-3):
        h = np.exp(-0.3 * t)
        h[-1] = bad
        with pytest.raises(ValueError, match="strictly positive"):
            mx.fit_decay_rate(t, h)


def test_fit_decay_rate_uses_asymptotic_tail():
    # slow transient, then rate-1 tail: the last three e-folds dominate
    t = np.linspace(0.0, 40.0, 400)
    v = np.exp(-0.05 * t) * 1.0 / (1.0 + np.exp(-(t - 20.0)))
    v2 = np.exp(-1.0 * np.maximum(t - 20.0, 0.0)) * np.exp(-0.05 * t)
    fit = mx.fit_decay_rate(t, v2)
    assert fit.rate == pytest.approx(1.05, rel=1e-6)
    assert fit.window[0] > 20.0


# ---------------------------------------------------------------------------
# threshold times

def test_tau_threshold_exact_exponentials():
    t = np.linspace(0.0, 10.0, 300)
    tr = _decay(t, 1.0)
    assert mx.tau_threshold(tr) == pytest.approx(1.0, abs=1e-9)
    tr = _decay(t, 4.0)
    assert mx.tau_threshold(tr) == pytest.approx(0.25, abs=1e-9)
    # interpolation in log h is exact for exponentials even on coarse grids
    t = np.linspace(0.0, 10.0, 6)
    tr = _decay(t, 1.0)
    assert mx.tau_threshold(tr) == pytest.approx(1.0, abs=1e-12)


def test_the_hermite_crossing_beats_the_chord_on_a_curved_decay():
    """log h = 1 - e^t on a grid of 0.5: the Hermite crossing, whose end
    slopes -nu (h1/h)^2 = -e^t the trace carries, lands closer to the true
    tau = ln 2 than the linear crossing, which the same trace gives
    without viscosity (no slope can be formed)."""
    t = np.linspace(0.0, 3.0, 7)
    h = np.exp(1.0 - np.exp(t))
    tr = _trace(t, h, h * np.sqrt(np.exp(t) / 1e-3))
    truth = np.log(2.0)
    hermite = mx.tau_threshold(tr)
    linear = mx.tau_threshold(dataclasses.replace(tr, nu=0.0))
    assert abs(hermite - truth) < abs(linear - truth)


def test_tau_threshold_of_a_zero_trace_is_its_first_time():
    """The zero state is at theta * h(0) = 0 from the first sample on: the
    crossing is that sample's time, not an interpolation."""
    tr = _trace([2.0, 3.0, 4.0], np.zeros(3))
    with np.errstate(divide="ignore"):  # log 0 = -inf is the point
        assert mx.tau_threshold(tr) == 2.0


def test_tau_threshold_monotone_in_theta():
    t = np.linspace(0.0, 50.0, 500)
    tr = _trace(t, np.exp(-0.2 * t))
    taus = [mx.tau_threshold(tr, theta) for theta in (0.8, 0.5, np.exp(-1), 0.1)]
    assert all(a < b for a, b in zip(taus, taus[1:]))


def test_tau_threshold_no_crossing_raises():
    t = np.linspace(0.0, 1.0, 10)
    tr = _trace(t, np.exp(-0.01 * t))
    with pytest.raises(ValueError, match="t_end too small"):
        mx.tau_threshold(tr)
    with pytest.raises(ValueError):
        mx.tau_threshold(tr, theta=1.5)


# ---------------------------------------------------------------------------
# sweep exponent

def test_ed_exponent_synthetic_half():
    nus = np.geomspace(1e-6, 1e-2, 9)
    fit = mx.ed_exponent((nus, nus**-0.5))
    assert fit.rate == pytest.approx(0.5, abs=1e-12)
    assert fit.residual < 1e-12


def test_ed_exponent_holds_q_with_the_slopes_intercept():
    """On an exact power law taus = 3 nus^-0.4 the record holds q = 0.4
    and the intercept ln 3 of log tau against log nu, so
    taus = exp(intercept) * nus^(-rate)."""
    nus = np.geomspace(1e-6, 1e-2, 9)
    taus = 3.0 * nus**-0.4
    fit = mx.ed_exponent((nus, taus))
    assert fit.rate == pytest.approx(0.4, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)
    np.testing.assert_allclose(np.exp(fit.intercept) * nus**-fit.rate,
                               taus, rtol=1e-10)


def test_ed_exponent_preconditions():
    with pytest.raises(ValueError):
        mx.ed_exponent((np.array([1e-3, 1e-4, 1e-5]), np.ones(3)))  # < 4 points
    nus = np.linspace(1e-4, 5e-4, 6)
    with pytest.raises(ValueError, match="decades"):
        mx.ed_exponent((nus, nus**-0.5))
    with pytest.raises(ValueError, match="unknown timescale"):
        mx.timescale_pairs([], "bogus")


# ---------------------------------------------------------------------------
# decay-bound verification

def test_bound_check_exact_curve_passes_with_zero_margin():
    nu, q, c0 = 1e-3, 0.8, 0.01
    rate = c0 * nu**q
    t = np.linspace(0.0, 5.0 * nu**-q, 400)
    tr = _trace(t, np.exp(-rate * t))
    rep = mx.theorem_bound_check(tr, rate, nu**-q)
    assert rep.passed
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.checked > 0


def test_bound_check_constant_trace_fails():
    nu, q, c0 = 1e-3, 0.8, 0.01
    t = np.linspace(0.0, 5.0 * nu**-q, 200)
    tr = _trace(t, np.ones_like(t))
    rep = mx.theorem_bound_check(tr, c0 * nu**q, nu**-q)
    assert not rep.passed
    assert rep.worst_margin < -0.05


def test_bound_check_tail_certificate():
    # trace ends before the window opens; the diffusive contraction covers it
    nu, q, c0 = 1e-4, 0.8, 1e-4
    lam1 = 3.39
    t = np.linspace(0.0, 100.0, 50)  # nu^-q ~ 1585 >> 100
    tr = _trace(t, np.exp(-0.05 * t), nu=nu)
    rate, t_min = c0 * nu**q, nu**-q
    rep = mx.theorem_bound_check(tr, rate, t_min, lam1=lam1)
    assert rep.passed and rep.tail_certified and rep.checked == 0
    with pytest.raises(ValueError, match="horizon too short"):
        mx.theorem_bound_check(tr, rate, t_min)  # no lam1, no samples


def test_bound_report_serializes_with_numpy_constants():
    # c0 computed from numpy scalars must still give a JSON-ready report
    t = np.linspace(0.0, 100.0, 50)
    tr = _trace(t, np.exp(-0.05 * t), nu=1e-4)
    rep = mx.theorem_bound_check(tr, np.float64(1e-4) * 1e-4**0.8,
                                 1e-4**-0.8, lam1=3.39)
    assert rep.tail_certified
    json.dumps(dataclasses.asdict(rep))


def test_bound_check_reads_nu_from_the_trace():
    """The tail certificate nu lam1 >= rate takes nu from the trace: the
    same samples are certified at nu = 1e-4 and refused at nu = 1e-8."""
    t = np.linspace(0.0, 100.0, 50)
    rate, t_min, lam1 = 1e-7, 1e4, 3.39
    tr = _trace(t, np.exp(-0.05 * t), nu=1e-4)
    assert mx.theorem_bound_check(tr, rate, t_min, lam1=lam1).tail_certified
    with pytest.raises(ValueError, match="horizon too short"):
        mx.theorem_bound_check(dataclasses.replace(tr, nu=1e-8), rate, t_min,
                               lam1=lam1)
    assert "nu" not in inspect.signature(mx.theorem_bound_check).parameters


def test_bound_check_requires_positive_nu():
    tr = _trace(np.linspace(0, 1, 10), np.ones(10), nu=0.0)
    with pytest.raises(ValueError):
        mx.theorem_bound_check(tr, 0.01, 1.0)


def test_bound_check_exp_variant():
    p, a1, a2 = 1.0, 1.0, 32.0
    nu_max = mx.exp_mixing_nu_threshold(p, a1, a2)
    assert nu_max == pytest.approx(np.exp(-1.0), abs=1e-15)
    for bad in (0.5, 0.0):
        with pytest.raises(ValueError, match="admissibility"):
            mx.exp_mixing_law(bad, p, a1, a2)
    nu = 1e-3
    rate, t_min = mx.exp_mixing_law(nu, p, a1, a2)
    scale = abs(np.log(nu)) ** 2.0
    assert t_min == pytest.approx(scale, rel=1e-15)
    assert rate == pytest.approx(mx.constant_c0_exp(p, a1, a2, 0.0) / scale,
                                 rel=1e-15)
    # short trace, no certificate: refused like any other law
    t = np.linspace(0.0, 0.5 * scale, 20)
    tr = _trace(t, np.exp(-0.1 * t))
    with pytest.raises(ValueError, match="horizon too short"):
        mx.theorem_bound_check(tr, rate, t_min)
    # long trace decaying fast: passes with real samples
    t = np.linspace(0.0, 3.0 * scale, 200)
    tr = _trace(t, np.exp(-0.1 * t))
    rep = mx.theorem_bound_check(tr, rate, t_min)
    assert rep.passed and rep.checked > 0


# ---------------------------------------------------------------------------
# explicit constants

def test_exponent_formulas():
    assert mx.q_from_p(1.0) == 2.0 / 3.0
    assert mx.q_from_p(0.5) == 0.8
    for p in (0.25, 0.5, 1.0, 2.0):
        assert mx.q_s_exponent(1.0, p) == mx.q_from_p(p)
    # s > 1 and s < 1 branches
    assert mx.q_s_exponent(2.0, 1.0) == pytest.approx(4.0 / 5.0)
    assert mx.q_s_exponent(0.5, 1.0) == pytest.approx(1.5 / 2.5)


def test_decay_constants_reference_values():
    assert mx.constant_c0_poly(1.0, 1.0, 0.0) == 1.0 / 512.0
    assert mx.constant_c0_exp(1.0, 1.0, 32.0, 0.0) == 1.0 / 128.0
    assert mx.constant_cs(1.0, 1.0, 1.0, 0.0, 1.0) == pytest.approx(1.0 / 256.0,
                                                                    rel=1e-14)
    # spiral constant: alpha = 1 has p_alpha = 1
    val = mx.constant_c0_spiral(1.0, 1.0)
    assert val == pytest.approx((1.0 / 128.0) * min(1.0 / 128.0, 0.25), rel=1e-15)
    with pytest.raises(ValueError):
        mx.constant_c0_poly(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        mx.constant_c0_poly(1.0, -1.0, 0.0)
    # c_B = 0 is legitimate
    mx.constant_c0_poly(1.0, 1.0, 0.0)


def test_fit_mixing_amplitude_rounds_up_to_powers_of_two():
    t = np.linspace(0.0, 100.0, 500)
    p, k = 0.5, 1
    hm1 = (1.0 + t) ** -p
    assert mx.fit_mixing_amplitude(t, hm1, p, k, 1.0) == 1.0
    assert mx.fit_mixing_amplitude(t, 1.3 * hm1, p, k, 1.0) == 2.0
    assert mx.fit_mixing_amplitude(t, 0.4 * hm1, p, k, 1.0) == 0.5
    assert mx.fit_mixing_amplitude(t, hm1, p, k, 2.0) == 0.5
    with pytest.raises(ValueError):
        mx.fit_mixing_amplitude(t, hm1, p, k, 0.0)
    # an all-zero hm1 has no amplitude to round up
    with pytest.raises(ValueError, match="nonpositive supremum"):
        mx.fit_mixing_amplitude(t, np.zeros_like(t), p, k, 1.0)
