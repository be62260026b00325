"""Tests for the spectral frame: the H^s weights and norms, the working
product, P_R, and the fractional multiplier."""

import numpy as np
import pytest

import mixlab as mx
from mixlab import fractional_symbol
from mixlab.models import FourierPhase, SkewMatrix, hs_weights


def _problem(op):
    return mx.ModelProblem(name="test", params={}, op=op, c_B=0.0,
                           bound_B=0.0, mixed_bound=None, p=None, q=None)


def test_spectrum_validation():
    """ModelProblem rejects an empty or non-1-d eigenvalue list and a zero
    or negative eigenvalue; ties and any order are allowed."""
    _problem(FourierPhase(np.array([2.0, 1.0, 2.0, 5.0]), np.zeros(4)))
    with pytest.raises(ValueError):
        _problem(FourierPhase(np.array([]), np.zeros(0)))
    with pytest.raises(ValueError):
        _problem(FourierPhase(np.ones((2, 2)), np.zeros((2, 2))))
    for lam in ([0.0, 1.0], [-1.0, 1.0], [1.0, 0.0]):
        with pytest.raises(ValueError):
            _problem(FourierPhase(np.array(lam), np.zeros(2)))


def test_spectrum_extremes():
    # the heat model's Fourier order is unsorted: lam = 1 + m^2 for
    # m = 0, 1, -2, -1
    heat = mx.build_model("heat", M=2)
    assert np.array_equal(heat.op.lam, [1.0, 2.0, 5.0, 2.0])
    assert heat.size == 4
    assert heat.lam1 == 1.0


def test_sobolev_norm_examples():
    lam = np.array([1.0, 2.0, 4.0])
    f = np.array([1.0, 1.0, 0.0], dtype=complex)
    a2 = np.abs(f) ** 2
    h, h1, hm1 = np.sqrt(hs_weights(lam, (0.0, 1.0, -1.0)) @ a2)
    assert h == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert h1 == pytest.approx(np.sqrt(3.0), rel=1e-15)
    assert hm1 == pytest.approx(np.sqrt(1.5), rel=1e-15)
    g2 = np.abs(np.array([0.0, 0.0, 2.0], dtype=complex)) ** 2
    h2, hm1 = np.sqrt(hs_weights(lam, (2.0, -1.0)) @ g2)
    assert h2 == pytest.approx(8.0, rel=1e-15)
    assert hm1 == pytest.approx(1.0, rel=1e-15)


def test_hs_weights_stacks_exact_powers():
    """One row per order, in the order asked; the orders a run samples
    take numpy's exact power paths."""
    lam = np.sort(1.0 + 30.0 * np.random.default_rng(3).random(64))
    w = hs_weights(lam, (0.0, 1.0, -1.0, 2.0, 0.5))
    assert w.shape == (5, 64)
    assert np.array_equal(w[0], np.ones(64))
    assert np.array_equal(w[1], lam)
    assert np.array_equal(w[2], 1.0 / lam)
    assert np.array_equal(w[3], lam * lam)
    assert np.array_equal(w[4], np.sqrt(lam))


def test_sobolev_norm_checks_size():
    heat = mx.build_model("heat", M=1)  # lam = 1, 2 on modes m = 0, -1
    f = np.array([3.0, 0.0])
    assert heat.sobolev(f, -1.0) == pytest.approx(3.0)
    for s in (0.0, 1.0, -1.0):
        with pytest.raises(ValueError):
            heat.sobolev(np.ones(3, dtype=complex), s)


def test_sobolev_norm_interpolates_monotonically():
    # lam >= 1 everywhere, so ||f||_{H^s} grows with s
    rng = np.random.default_rng(1)
    lam = np.sort(1.0 + 10.0 * rng.random(32))
    f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    norms = np.sqrt(hs_weights(lam, (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0))
                    @ np.abs(f) ** 2)
    assert all(a <= b * (1 + 1e-14) for a, b in zip(norms, norms[1:]))


def test_project_low_basics():
    heat = mx.build_model("heat", M=2)  # lam = 1, 2, 5, 2
    f = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
    pf = heat.project_low(f, 2.0)
    assert np.array_equal(pf, np.array([1.0, 1.0, 0.0, 1.0], dtype=complex))
    # idempotent and monotone in R
    assert np.array_equal(heat.project_low(pf, 2.0), pf)
    assert np.array_equal(heat.project_low(f, 0.5), np.zeros(4, dtype=complex))
    assert np.array_equal(heat.project_low(f, 5.0), f)


def test_projection_splitting_inequalities():
    """Low-pass trades regularity for a power of the cutoff, high-pass the
    reverse; checked on random states at several cutoffs and orders."""
    rng = np.random.default_rng(7)
    heat = mx.build_model("heat", M=32)
    lam = heat.op.lam
    cuts = [heat.lam1, float(np.median(lam)), float(lam.max())]
    for _ in range(200):
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        for s in (0.5, 1.0, 2.0):
            for R in cuts:
                pf = heat.project_low(f, R)
                hi = f - pf
                low = heat.sobolev(pf, 0.0) ** 2
                assert low <= R**s * heat.sobolev(f, -s) ** 2 * (1 + 1e-12)
                assert R**s * heat.sobolev(hi, 0.0) ** 2 <= \
                    heat.sobolev(f, s) ** 2 * (1 + 1e-12)


def test_fractional_symbol_values():
    assert fractional_symbol(2.0, 1, 2) == pytest.approx(5.0, rel=1e-15)
    assert fractional_symbol(1.0, 1, 2) == pytest.approx(np.sqrt(5.0), rel=1e-15)
    m = np.arange(-4, 4)
    composed = fractional_symbol(1.0, 1, m) * fractional_symbol(1.0, 1, m)
    assert np.allclose(composed, fractional_symbol(2.0, 1, m), rtol=1e-14)
    with pytest.raises(ValueError):
        fractional_symbol(0.0, 1, 1)
    with pytest.raises(ValueError):
        fractional_symbol(2.5, 1, 1)


def test_inner_product_weighted():
    """The working product carries the op's weights; ModelProblem rejects
    a zero weight."""
    lam = np.array([1.0, 2.0])
    prob = _problem(SkewMatrix(lam, np.array([0.5, 1.5]), []))
    f = np.array([1.0 + 1j, 2.0])
    g = np.array([1.0, 1.0j])
    val = prob.inner(f, g)
    assert val == pytest.approx(0.5 * (1 + 1j) + 1.5 * 2.0 * (-1j))
    assert prob.sobolev(f, 0.0) == pytest.approx(np.sqrt(0.5 * 2 + 1.5 * 4))
    with pytest.raises(ValueError):
        _problem(SkewMatrix(lam, np.array([1.0, 0.0]), []))


def test_inner_checks_size():
    # the flat Fourier product has the scalar weight w = 1, so only the
    # shape check stops states of the wrong length
    heat = mx.build_model("heat", M=2)
    f = np.ones(4, dtype=complex)
    assert heat.inner(f, f) == pytest.approx(4.0)
    for a, b in ((np.ones(3), f), (f, np.ones(5)), (np.ones(3), np.ones(3))):
        with pytest.raises(ValueError):
            heat.inner(a, b)


def test_dual_norm_variational_characterization():
    """The closed-form dual norm dominates every test pairing and is
    attained by the explicit maximizer."""
    rng = np.random.default_rng(11)
    lam = np.sort(0.2 + 30.0 * rng.random(16))
    w_m1, w_1 = hs_weights(lam, (-1.0, 1.0))
    for _ in range(20):
        f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        dual = np.sqrt(w_m1 @ np.abs(f) ** 2)
        for _ in range(300):
            eta = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            pairing = abs(np.sum(f * np.conj(eta)))
            assert pairing <= dual * np.sqrt(w_1 @ np.abs(eta) ** 2) \
                * (1 + 1e-12)
        eta_star = f / lam
        attained = abs(np.sum(f * np.conj(eta_star))) / \
            np.sqrt(w_1 @ np.abs(eta_star) ** 2)
        assert attained == pytest.approx(dual, rel=1e-12)
