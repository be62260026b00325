"""Model builders: constraints, operator identities, closed-form solutions."""

import numpy as np
import pytest
from scipy.special import jnp_zeros, jv

import mixlab as mx


def _random_state(prob, rng, smooth=True):
    c = rng.standard_normal(prob.size) + 1j * rng.standard_normal(prob.size)
    if smooth and prob.name != "spiral":  # A diagonal on the state
        c = c / (1.0 + prob.op.lam)
    return c


def _re_inner(prob, x, y):
    return float(np.real(prob.inner(x, y)))


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
    for d in (0, -1):
        with pytest.raises(ValueError, match=f"d must be >= 1, got {d}"):
            mx.build_model("kinetic", d=d)


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


def test_builders_refuse_nonpositive_resolution():
    from mixlab.models import FAMILIES, model_params
    for family in FAMILIES:
        for res in (0, -1):
            with pytest.raises(ValueError, match=">= "):
                mx.build_model(family, **model_params(
                    family, {"k": 1, "resolution": res}))
    with pytest.raises(ValueError, match="resolution M"):
        mx.shear_mixing_series([1.0], M=0)
    with pytest.raises(ValueError, match="resolution N"):
        mx.spiral_mixing_series([1.0], N=0)


# ---------------------------------------------------------------------------
# model-specific structure

def test_kolmogorov_weights_and_constants():
    prob = mx.build_model("kolmogorov", L=2.0, k=1, M=16)
    modes = np.arange(-16, 16)
    s = prob.op.w
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
        lhs = prob.inner(prob.apply_A(f), g)
        rhs = prob.inner(f, prob.apply_A(g))
        scale = prob.sobolev(prob.apply_A(f), 0.0) * prob.sobolev(g, 0.0)
        assert abs(lhs - rhs) <= 1e-12 * scale
    assert prob.lam1 > 0.0
    assert np.all(np.diff(prob.op.lam) >= 0.0)


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

def test_working_product_matches_stated_weights():
    """<f, g> = sum_j w_j f_j conj(g_j), with w written down from each
    model's definition rather than read off the model."""
    N, M, L = 24, 12, 2.0
    r = (np.arange(1, N + 1) - 0.5) / N
    m = np.arange(-M, M, dtype=float)
    weights = {
        "shear": np.ones(2 * M),
        "heat": np.ones(2 * M),
        "kolmogorov": 1.0 - 1.0 / (L**2 + m**2),  # k = 1, sorted modes
        "spiral": r / N,  # r_j dr
        "kinetic": np.ones(N),
    }
    assert weights.keys() == mx.models.FAMILIES.keys()
    rng = np.random.default_rng(29)
    for family, w in weights.items():
        res = N if family in ("spiral", "kinetic") else M
        prob = mx.build_model(family, **mx.models.model_params(
            family, {"k": 1, "L": L, "resolution": res}))
        assert prob.size == w.size
        for _ in range(20):
            f = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
            g = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
            oracle = np.sum(w * f * np.conj(g))
            scale = np.sum(w * np.abs(f) * np.abs(g))
            assert abs(prob.inner(f, g) - oracle) <= 1e-14 * scale


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
            scale = prob.sobolev(bc, 0.0) * prob.sobolev(c, 0.0)
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
    r = (np.arange(1, 33) - 0.5) / 32
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
    with pytest.raises(ValueError, match="no-such-datum.*shear model; its "
                       "data: random-h1, gaussian-bump, single-mode-m1"):
        mx.initial_datum(shear, "no-such-datum")
    kinetic = mx.build_model("kinetic", k=1, N=4)
    with pytest.raises(ValueError, match="kinetic model; its data: "
                       "random-h1, single-mode-m1$"):
        mx.initial_datum(kinetic, "gaussian-bump")
    # the heat model is a shear build under its own name
    with pytest.raises(ValueError, match="'uniform' is not defined for the "
                       "heat model"):
        mx.initial_datum(mx.build_model("heat", k=1, M=16), "uniform")
    with pytest.raises(ValueError, match=r"^degenerate initial datum "
                       r"'single-mode-m1' for the shear model \(zero or "
                       r"non-finite H\^1 norm\)$"):
        mx.initial_datum(mx.build_model("shear", k=1, M=1), "single-mode-m1")
    a = mx.initial_datum(shear, "random-h1", seed=2)
    b = mx.initial_datum(shear, "random-h1", seed=2)
    c = mx.initial_datum(shear, "random-h1", seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_named_data_per_family():
    from mixlab.models import FAMILIES
    expected = {
        "shear": {"single-mode-m1", "gaussian-bump"},
        "heat": {"single-mode-m1", "gaussian-bump"},
        "kolmogorov": {"single-mode-m1", "gaussian-bump"},
        "spiral": {"uniform", "single-mode-m1", "gaussian-bump"},
        "kinetic": {"single-mode-m1"},
    }
    assert set(expected) == set(FAMILIES)
    for family, names in expected.items():
        prob = mx.build_model(family, k=1)
        assert set(prob.data) == names
        for name in names:  # each callable forms a fresh model state
            state = prob.data[name]()
            assert state.shape == (prob.size,) and state.dtype == complex


def test_single_mode_datum_needs_a_mode_m1():
    # at M = 1 the torus modes are m = -1, 0: the datum is the zero vector
    for family in ("shear", "kolmogorov"):
        prob = mx.build_model(family, k=1, M=1)
        with pytest.raises(ValueError, match="degenerate initial datum"):
            mx.initial_datum(prob, "single-mode-m1")


def test_single_mode_datum_sits_on_lowest_nontrivial_mode():
    spiral = mx.build_model("spiral", alpha=1.0, k=1, N=32)
    f0 = mx.initial_datum(spiral, "single-mode-m1")
    coeffs = np.abs(spiral.op.to_internal(f0))  # ascending eigenbasis
    assert coeffs[0] > 0.99 * np.linalg.norm(coeffs)


# ---------------------------------------------------------------------------
# closed-form norm histories

def test_shear_mixing_series_matches_model_norms():
    times = np.array([0.0, 1.0, 5.0, 20.0])
    for datum, gamma, seed, profile, k in [
            ("single-mode-m1", 2.0, None, "sin", 1),
            ("gaussian-bump", 2.0, None, "sin", 1),
            ("random-h1", 2.0, 7, "sin", 1),
            ("single-mode-m1", 1.0, None, "sin", 1),
            ("gaussian-bump", 2.0, None, "sin2", 3)]:
        ser = mx.shear_mixing_series(times, profile=profile, gamma=gamma,
                                     k=k, M=64, datum=datum, seed=seed)
        prob = mx.build_model("shear", profile=profile, gamma=gamma, k=k,
                              M=64)
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
    for alpha in (1.0, 4.0):
        prob = mx.build_model("spiral", alpha=alpha, k=1, N=64)
        for datum in ("uniform", "single-mode-m1", "gaussian-bump"):
            ser = mx.spiral_mixing_series(times, alpha=alpha, k=1, N=64,
                                          datum=datum)
            f0 = mx.initial_datum(prob, datum)
            for i, t in enumerate(times):
                out = mx.exact_inviscid(prob, f0, t)
                for key, s in (("h", 0.0), ("h1", 1.0), ("hm1", -1.0)):
                    assert ser[key][i] == pytest.approx(
                        prob.sobolev(out, s), rel=1e-10)
    with pytest.raises(ValueError):
        mx.spiral_mixing_series(times, datum="no-such-datum")
    with pytest.raises(ValueError, match="nonzero angular wavenumber"):
        mx.spiral_mixing_series(times, k=0, N=512)
