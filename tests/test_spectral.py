"""Tests for the shared spectral frame: norms, projections, multipliers."""

import numpy as np
import pytest

from mixlab import (
    InnerProduct,
    Spectrum,
    fractional_symbol,
    project_low,
    sobolev_norm,
)


def test_spectrum_validation():
    Spectrum(np.array([1.0, 2.0, 2.0, 5.0]))  # ties allowed
    with pytest.raises(ValueError):
        Spectrum(np.array([]))
    with pytest.raises(ValueError):
        Spectrum(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Spectrum(np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        Spectrum(np.array([2.0, 1.0]))


def test_spectrum_extremes():
    sp = Spectrum(np.array([0.5, 3.0, 9.0]))
    assert sp.size == 3
    assert sp.lam_min == 0.5
    assert sp.lam_max == 9.0


def test_sobolev_norm_examples():
    sp = Spectrum(np.array([1.0, 2.0, 4.0]))
    f = np.array([1.0, 1.0, 0.0], dtype=complex)
    assert sobolev_norm(f, sp, 0.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert sobolev_norm(f, sp, 1.0) == pytest.approx(np.sqrt(3.0), rel=1e-15)
    assert sobolev_norm(f, sp, -1.0) == pytest.approx(np.sqrt(1.5), rel=1e-15)
    g = np.array([0.0, 0.0, 2.0], dtype=complex)
    assert sobolev_norm(g, sp, 2.0) == pytest.approx(8.0, rel=1e-15)
    assert sobolev_norm(g, sp, -1.0) == pytest.approx(1.0, rel=1e-15)


def test_sobolev_norm_checks_size():
    sp = Spectrum(np.array([1.0, 4.0]))
    f = np.array([3.0, 0.0])
    assert sobolev_norm(f, sp, -1.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        sobolev_norm(np.ones(3, dtype=complex), sp, 0.0)


def test_sobolev_norm_interpolates_monotonically():
    # lam >= 1 everywhere, so ||f||_{H^s} grows with s
    rng = np.random.default_rng(1)
    sp = Spectrum(np.sort(1.0 + 10.0 * rng.random(32)))
    f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    norms = [sobolev_norm(f, sp, s) for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
    assert all(a <= b * (1 + 1e-14) for a, b in zip(norms, norms[1:]))


def test_project_low_basics():
    sp = Spectrum(np.array([1.0, 2.0, 4.0, 8.0]))
    f = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
    pf = project_low(f, sp, 2.0)
    assert np.array_equal(pf, np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
    # idempotent and monotone in R
    assert np.array_equal(project_low(pf, sp, 2.0), pf)
    assert np.array_equal(project_low(f, sp, 0.5), np.zeros(4, dtype=complex))
    assert np.array_equal(project_low(f, sp, 8.0), f)


def test_projection_splitting_inequalities():
    """Low-pass trades regularity for a power of the cutoff, high-pass the
    reverse; checked on random fields at several cutoffs and orders."""
    rng = np.random.default_rng(7)
    sp = Spectrum(np.sort(0.5 + 50.0 * rng.random(64)))
    lam = sp.eigenvalues
    cuts = [sp.lam_min, float(np.median(lam)), sp.lam_max]
    for _ in range(200):
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        for s in (0.5, 1.0, 2.0):
            for R in cuts:
                pf = project_low(f, sp, R)
                hi = f - pf
                low = sobolev_norm(pf, sp, 0.0) ** 2
                assert low <= R**s * sobolev_norm(f, sp, -s) ** 2 * (1 + 1e-12)
                assert R**s * sobolev_norm(hi, sp, 0.0) ** 2 <= \
                    sobolev_norm(f, sp, s) ** 2 * (1 + 1e-12)


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
    w = np.array([0.5, 1.5])
    ip = InnerProduct(w)
    f = np.array([1.0 + 1j, 2.0])
    g = np.array([1.0, 1.0j])
    val = ip.inner(f, g)
    assert val == pytest.approx(0.5 * (1 + 1j) + 1.5 * 2.0 * (-1j))
    assert ip.norm(f) == pytest.approx(np.sqrt(0.5 * 2 + 1.5 * 4))
    with pytest.raises(ValueError):
        InnerProduct(np.array([1.0, 0.0]))


def test_dual_norm_variational_characterization():
    """The closed-form dual norm dominates every test pairing and is
    attained by the explicit maximizer."""
    rng = np.random.default_rng(11)
    sp = Spectrum(np.sort(0.2 + 30.0 * rng.random(16)))
    lam = sp.eigenvalues
    for _ in range(20):
        f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        dual = sobolev_norm(f, sp, -1.0)
        for _ in range(300):
            eta = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            pairing = abs(np.sum(f * np.conj(eta)))
            assert pairing <= dual * sobolev_norm(eta, sp, 1.0) * (1 + 1e-12)
        eta_star = f / lam
        attained = abs(np.sum(f * np.conj(eta_star))) / sobolev_norm(eta_star, sp, 1.0)
        assert attained == pytest.approx(dual, rel=1e-12)
