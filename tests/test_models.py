"""Model builders: constraints, operator identities, closed-form solutions."""

import numpy as np
import pytest
from scipy.special import jnp_zeros, jv

import mixlab as mx


def _random_state(prob, rng, smooth=True):
    c = rng.standard_normal(prob.size) + 1j * rng.standard_normal(prob.size)
    if smooth and prob.basis != "radial-grid":  # A diagonal on the state
        c = c / (1.0 + prob.op.lam)
    return c


def _re_inner(prob, x, y):
    return float(np.real(prob.inner.inner(x, y)))


# ---------------------------------------------------------------------------
# profiles and constraints

def test_profile_registry():
    from mixlab.models import PROFILES
    u, du, n0 = PROFILES["sin"]
    y = np.linspace(0, 2 * np.pi, 7)
    assert np.allclose(u(y), np.sin(y))
    assert np.allclose(du(y), np.cos(y))
    assert n0 == 1
    assert PROFILES["zero"][2] is None
    u2, du2, n0_2 = PROFILES["sin2"]
    assert np.allclose(u2(y), np.sin(y) + np.sin(2 * y))
    assert n0_2 == 1


def test_load_profile_csv(tmp_path):
    y = np.linspace(0.0, 2 * np.pi, 200, endpoint=False)
    path = tmp_path / "profile.csv"
    rows = "\n".join(f"{a:.12g},{np.sin(a):.12g}" for a in y)
    path.write_text("y,u\n" + rows + "\n")
    u, du, n0 = mx.load_profile_csv(path)
    yy = np.linspace(0, 2 * np.pi, 31)
    assert np.max(np.abs(u(yy) - np.sin(yy))) < 1e-3
    assert np.max(np.abs(du(yy) - np.cos(yy))) < 5e-2
    assert n0 is None


def test_shear_constraints():
    with pytest.raises(ValueError):
        mx.build_model("shear", k=0)
    with pytest.raises(ValueError):
        mx.build_model("shear", gamma=0.0)
    with pytest.raises(ValueError):
        mx.build_model("shear", gamma=2.5)
    with pytest.raises(ValueError):
        mx.build_model("shear", profile="no-such-profile")


def test_kolmogorov_constraints():
    with pytest.raises(ValueError, match="wavenumber constraint"):
        mx.build_model("kolmogorov", L=1.0, k=1)
    with pytest.raises(ValueError):
        mx.build_model("kolmogorov", L=0.5, k=2)
    with pytest.raises(ValueError):
        mx.build_model("kolmogorov", k=0)
    # boundary cases that are fine
    mx.build_model("kolmogorov", L=1.0, k=2, M=8)
    mx.build_model("kolmogorov", L=2.0, k=1, M=8)


def test_kinetic_constraints():
    with pytest.raises(ValueError):
        mx.build_model("kinetic", N=1)
    with pytest.raises(ValueError):
        mx.build_model("kinetic", k=0)


def test_unknown_model_name():
    from mixlab.models import model_params
    with pytest.raises(ValueError):
        mx.build_model("plane-couette")
    with pytest.raises(ValueError, match="unknown model"):
        model_params("plane-couette", {"k": 1})


def test_families_build_from_k_alone():
    from mixlab.models import FAMILIES, model_params
    for family, (builder, flags) in FAMILIES.items():
        prob = mx.build_model(family, k=2)  # every other keyword defaulted
        assert prob.params == builder(k=2).params and prob.params["k"] == 2
        # the resolution flag reaches the family's own size keyword
        kw = model_params(family, {"k": 2, "resolution": 8})
        assert kw == {"k": 2, flags["resolution"]: 8}
        assert mx.build_model(family, **kw).size < prob.size
    assert mx.build_model("heat", k=1, M=8).params["profile"] == "zero"
    with pytest.raises(TypeError):
        mx.build_model("spiral", k=1, M=8)  # the spiral resolution is N


# ---------------------------------------------------------------------------
# model-specific structure

def test_kolmogorov_weights_and_constants():
    prob = mx.build_model("kolmogorov", L=2.0, k=1, M=16)
    modes = prob.meta["modes"]
    s = prob.inner.weights
    m0 = int(np.where(modes == 0.0)[0][0])
    assert s[m0] == pytest.approx(0.75, abs=1e-15)  # 1 - 1/(L^2 k^2)
    assert prob.c_B == pytest.approx(1.0, abs=1e-14)
    assert prob.lam1 == pytest.approx(4.0, abs=1e-13)  # L^2 k^2
    # norm equivalence with the flat product: s_m in [s_0, 1)
    rng = np.random.default_rng(3)
    s0 = 1.0 - 1.0 / (2.0**2 * 1**2)
    for _ in range(100):
        c = rng.standard_normal(prob.size) + 1j * rng.standard_normal(prob.size)
        flat2 = float(np.sum(np.abs(c) ** 2))
        weighted2 = prob.sobolev(c, 0.0) ** 2
        assert s0 * flat2 <= weighted2 * (1 + 1e-12)
        assert weighted2 <= flat2 * (1 + 1e-12)


def test_spiral_operator_is_selfadjoint_positive():
    prob = mx.build_model("spiral", alpha=1.0, k=1, N=64)
    rng = np.random.default_rng(5)
    for _ in range(50):
        f = _random_state(prob, rng, smooth=False)
        g = _random_state(prob, rng, smooth=False)
        lhs = prob.inner.inner(prob.apply_A(f), g)
        rhs = prob.inner.inner(f, prob.apply_A(g))
        scale = prob.inner.norm(prob.apply_A(f)) * prob.inner.norm(g)
        assert abs(lhs - rhs) <= 1e-12 * scale
    assert prob.lam1 > 0.0
    assert np.all(np.diff(prob.spectrum.eigenvalues) >= 0.0)


def test_spiral_lowest_eigenvalue_converges_to_bessel():
    # continuum limit: lam_1 = (j'_{1,1})^2 for k = 1 with a no-flux wall
    target = jnp_zeros(1, 1)[0] ** 2
    prob = mx.build_model("spiral", alpha=1.0, k=1, N=1024)
    assert prob.lam1 == pytest.approx(target, rel=1e-2)


def test_kinetic_spectrum_is_degree_ladder():
    prob = mx.build_model("kinetic", k=1, N=12, d=1)
    assert np.allclose(prob.op.lam, np.arange(1, 13))
    prob2 = mx.build_model("kinetic", k=1, N=4, d=2)
    degs = prob2.op.lam
    assert degs[0] == 1 and degs[-1] == 4
    assert np.all(np.diff(degs) >= 0)
    # d = 2, degrees 1..4: (d + deg - 1 choose deg) summed = 2+3+4+5
    assert prob2.size == 14


def test_shear_predictions():
    g2 = mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=16)
    assert g2.p == pytest.approx(0.5) and g2.q == pytest.approx(0.8)
    g1 = mx.build_model("shear", profile="sin", gamma=1.0, k=1, M=16)
    assert g1.p == pytest.approx(0.25) and g1.q == pytest.approx(8.0 / 9.0)
    heat = mx.build_model("heat", k=1, M=16)
    assert heat.p is None and heat.q == 1.0
    # degenerate profile knowledge: no n0, no prediction
    flat = mx.build_model("shear", profile="sin", n0=3, gamma=2.0, k=1, M=16)
    assert flat.p == pytest.approx(0.25)


def test_predicted_rates_with_amplitude():
    g2 = mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=16)
    rates = mx.predicted_rates(g2, a=1.0)
    assert rates["q"] == pytest.approx(0.8)
    assert rates["log_power"] == pytest.approx(4.0)
    assert rates["c0"] == pytest.approx(mx.constant_c0_poly(0.5, 1.0, g2.c_B))
    spiral = mx.build_model("spiral", alpha=1.0, k=1, N=32)
    rates = mx.predicted_rates(spiral, a=2.0)
    assert rates["c0"] == pytest.approx(mx.constant_c0_spiral(1.0, 2.0))
    kin = mx.build_model("kinetic", k=1, N=8)
    assert mx.predicted_rates(kin)["q"] is None


# ---------------------------------------------------------------------------
# operator inequalities on random fields

def test_advection_is_skew_adjoint_every_model():
    rng = np.random.default_rng(17)
    probs = [
        mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=16),
        mx.build_model("kolmogorov", L=2.0, k=1, M=16),
        mx.build_model("spiral", alpha=2.0, k=1, N=32),
        mx.build_model("kinetic", k=1, N=12),
    ]
    for prob in probs:
        for _ in range(200):
            c = _random_state(prob, rng, smooth=False)
            bc = prob.apply_B(c)
            scale = prob.inner.norm(bc) * prob.inner.norm(c)
            assert abs(_re_inner(prob, bc, c)) <= 1e-12 * scale


def test_advection_dissipation_bounds():
    """|Re<Bf, Af>| <= c_B ||f||_{H^1}^2, and the sharper mixed form
    C ||f||_H ||f||_{H^1} where the model records one."""
    rng = np.random.default_rng(23)
    probs = [
        mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=16),
        mx.build_model("kolmogorov", L=2.0, k=1, M=16),
        mx.build_model("spiral", alpha=2.0, k=1, N=32),
        mx.build_model("kinetic", k=1, N=12),
    ]
    for prob in probs:
        for _ in range(300):
            c = _random_state(prob, rng)
            val = abs(_re_inner(prob, prob.apply_B(c), prob.apply_A(c)))
            h = prob.sobolev(c, 0.0)
            h1 = prob.sobolev(c, 1.0)
            assert val <= prob.c_B * h1**2 * (1 + 1e-10)
            if prob.mixed_bound is not None:
                assert val <= prob.mixed_bound * h * h1 * (1 + 1e-10)


# ---------------------------------------------------------------------------
# closed-form inviscid flow

def test_exact_inviscid_identity_and_isometry():
    rng = np.random.default_rng(31)
    for name, kw in (("shear", dict(profile="sin", k=1, M=32)),
                     ("spiral", dict(alpha=1.0, k=1, N=64))):
        prob = mx.build_model(name, **kw)
        f0 = _random_state(prob, rng)
        out0 = mx.exact_inviscid(prob, f0, 0.0)
        assert prob.sobolev(out0 - f0, 0.0) <= 1e-14 * prob.sobolev(f0, 0.0)
        out = mx.exact_inviscid(prob, f0, 100.0)
        assert prob.sobolev(out, 0.0) == pytest.approx(prob.sobolev(f0, 0.0),
                                                       rel=1e-12)


def test_exact_inviscid_shear_bessel_coefficients():
    """Single-mode datum under the sinusoidal shear: the m-th coefficient
    follows a Bessel function of the elapsed time."""
    prob = mx.build_model("shear", profile="sin", k=1, M=64)
    f0 = np.zeros(prob.size, dtype=complex)
    f0[1] = 1.0  # mode m = 1
    for t in (0.5, 3.0, 11.0):
        out = mx.exact_inviscid(prob, f0, t)
        assert out[1] == pytest.approx(jv(0, t), abs=1e-12)
        assert abs(out[2] - (-jv(1, t))) < 1e-12  # m = 2 coefficient


def test_exact_inviscid_spiral_phase():
    prob = mx.build_model("spiral", alpha=2.0, k=1, N=32)
    f0 = np.ones(prob.size, dtype=complex)
    out = mx.exact_inviscid(prob, f0, np.pi)
    r = prob.grid
    assert np.allclose(out, np.exp(-1j * np.pi * r**2), atol=1e-14)


def test_exact_inviscid_unsupported_models():
    kol = mx.build_model("kolmogorov", L=2.0, k=1, M=8)
    with pytest.raises(ValueError):
        mx.exact_inviscid(kol, np.ones(kol.size, dtype=complex), 1.0)


# ---------------------------------------------------------------------------
# initial data

def test_initial_data_normalized_h1():
    rng_seed = 13
    cases = [
        ("shear", dict(profile="sin", k=1, M=16),
         ("single-mode-m1", "gaussian-bump", "random-h1")),
        ("kolmogorov", dict(L=2.0, k=1, M=16),
         ("single-mode-m1", "gaussian-bump", "random-h1")),
        ("spiral", dict(alpha=1.0, k=1, N=32),
         ("single-mode-m1", "uniform", "gaussian-bump", "random-h1")),
        ("kinetic", dict(k=1, N=10), ("single-mode-m1", "random-h1")),
    ]
    for name, kw, datums in cases:
        prob = mx.build_model(name, **kw)
        for datum in datums:
            f0 = mx.initial_datum(prob, datum, seed=rng_seed)
            assert prob.sobolev(f0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_initial_data_errors_and_determinism():
    shear = mx.build_model("shear", profile="sin", k=1, M=16)
    with pytest.raises(ValueError):
        mx.initial_datum(shear, "uniform")
    with pytest.raises(ValueError):
        mx.initial_datum(shear, "no-such-datum")
    a = mx.initial_datum(shear, "random-h1", seed=2)
    b = mx.initial_datum(shear, "random-h1", seed=2)
    c = mx.initial_datum(shear, "random-h1", seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_single_mode_datum_sits_on_lowest_nontrivial_mode():
    spiral = mx.build_model("spiral", alpha=1.0, k=1, N=32)
    f0 = mx.initial_datum(spiral, "single-mode-m1")
    coeffs = np.abs(spiral.op.to_internal(f0))  # ascending eigenbasis
    assert coeffs[0] > 0.99 * np.linalg.norm(coeffs)


# ---------------------------------------------------------------------------
# closed-form norm histories

def test_shear_mixing_series_matches_model_norms():
    times = np.array([0.0, 1.0, 5.0, 20.0])
    for datum, gamma, seed in [("single-mode-m1", 2.0, None),
                               ("gaussian-bump", 2.0, None),
                               ("random-h1", 2.0, 7),
                               ("single-mode-m1", 1.0, None)]:
        ser = mx.shear_mixing_series(times, profile="sin", gamma=gamma, k=1,
                                     M=64, datum=datum, seed=seed)
        prob = mx.build_model("shear", profile="sin", gamma=gamma, k=1, M=64)
        f0 = mx.initial_datum(prob, datum, seed=seed)
        for i, t in enumerate(times):
            out = mx.exact_inviscid(prob, f0, t)
            assert ser["hm1"][i] == pytest.approx(prob.sobolev(out, -1.0),
                                                  rel=1e-11)
            assert ser["h1"][i] == pytest.approx(prob.sobolev(out, 1.0),
                                                 rel=1e-11)
        assert ser["h1"][0] == pytest.approx(1.0, rel=1e-12)


def test_spiral_mixing_series_matches_model_norms():
    times = np.array([0.0, 2.0, 10.0])
    ser = mx.spiral_mixing_series(times, alpha=1.0, k=1, N=64,
                                  datum="single-mode-m1")
    prob = mx.build_model("spiral", alpha=1.0, k=1, N=64)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    for i, t in enumerate(times):
        out = mx.exact_inviscid(prob, f0, t)
        assert ser["hm1"][i] == pytest.approx(prob.sobolev(out, -1.0), rel=1e-10)
    with pytest.raises(ValueError):
        mx.spiral_mixing_series(times, datum="no-such-datum")
