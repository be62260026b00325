"""Model builders: constraints, operator identities, closed-form solutions."""

import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from itertools import product as _iproduct

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

def test_import_loads_no_scipy_special_or_sparse():
    """``import mixlab`` in a fresh interpreter leaves scipy.special and
    scipy.sparse unloaded: either would add start-up time and resident
    memory to every command."""
    src = os.path.dirname(os.path.dirname(mx.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, mixlab; print(' '.join(m for m in "
            "('scipy.special', 'scipy.sparse') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


def test_every_exported_name_resolves():
    """Each name in ``mixlab.__all__`` and in every submodule's
    ``__all__`` is defined there, so a deleted public name cannot stay
    listed."""
    modules = [mx] + [importlib.import_module(f"mixlab.{info.name}")
                      for info in pkgutil.iter_modules(mx.__path__)]
    exported = [(m.__name__, name) for m in modules
                for name in getattr(m, "__all__", ())]
    assert len(exported) > len(mx.__all__)
    missing = [(mod, name) for mod, name in exported
               if not hasattr(sys.modules[mod], name)]
    assert missing == []


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
    for k in ((1, 0), (1.0, 2.0, 0.0, 1.0)):  # neither 1 nor d = 3 entries
        with pytest.raises(ValueError, match=f"has {len(k)} entries for d=3"):
            mx.build_model("kinetic", d=3, k=k)


def test_unknown_model_name():
    from mixlab.models import model_params
    with pytest.raises(ValueError):
        mx.build_model("plane-couette")
    with pytest.raises(ValueError, match="unknown model"):
        model_params("plane-couette", {"k": 1})


def test_families_build_from_k_alone():
    from mixlab.models import FAMILIES, model_params
    for family, (builder, flags, _) in FAMILIES.items():
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
            family, {"k": 1, "resolution": res,
                     "L": L if family == "kolmogorov" else None}))
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


def test_exact_inviscid_leaves_the_flow_cache_alone():
    """exact_inviscid on a shear model forms its phase without caching
    it: asked at 12 times, it leaves the op's cached flows as they were
    (the step-size flows that a group's rows share), and each result has
    the bytes of op.flow(t) on the same complex state."""
    prob = mx.build_model("shear", profile="sin", k=1, M=32)
    op = prob.op
    step = op.flow(0.25)
    f0 = _random_state(prob, np.random.default_rng(5))
    times = [0.5 * (i + 1) for i in range(12)]
    outs = [mx.exact_inviscid(prob, f0, t) for t in times]
    assert list(op._flows) == [0.25] and op._flows[0.25] is step
    for t, out in zip(times, outs):
        assert out.tobytes() == op.flow(t)(f0.astype(complex)).tobytes()


@pytest.mark.parametrize("M", [16, 64, 256])
@pytest.mark.parametrize("profile", ["sin", "sin2"])
def test_real_flow_is_the_fft_pair_on_the_complex_copy(profile, M):
    """Under an odd profile the flow maps real coefficients to new real
    ones, within 1e-15 of the real part of the FFT pair on their complex
    copy, for a unit state. The steps fall on both sides of the band's
    width rule in every case: the shortest takes the band, the longest
    the FFT pair."""
    prob = mx.build_model("shear", profile=profile, M=M)
    assert prob.op.odd
    rng = np.random.default_rng(M)
    banded = []
    for t in (1.0 / 32.0, 0.5, 2.0, 4.0, 40.0):
        g = rng.standard_normal(prob.size)
        g /= np.linalg.norm(g)
        before = g.copy()
        out = prob.op.flow(t)(g)
        ref = prob.op.flow(t)(g.astype(complex))
        assert out.dtype == np.float64 and np.array_equal(g, before)
        assert np.abs(out - ref.real).max() <= 1e-15, t
        banded.append(prob.op._band(np.exp(-1j * prob.op.rate * t))
                      is not None)
    assert banded[0] and not banded[-1]


def test_real_data_of_odd_shears_have_real_coordinates(tmp_path):
    """The internal coordinates of a datum with an exactly zero imaginary
    part are real on an odd profile (shear, heat); other data, and any
    datum of a profile that is not odd, stay complex. States handed back
    are complex either way."""
    for name in ("shear", "heat"):
        prob = mx.build_model(name, M=16)
        for datum in ("gaussian-bump", "single-mode-m1"):
            f0 = mx.initial_datum(prob, datum)
            assert prob._internal(f0).dtype == np.float64, (name, datum)
        assert mx.evolve(prob, f0, 1e-2, 1.0).final_state.dtype \
            == np.complex128
        for out in (prob.project_low(f0, 4.0), prob.apply_A(f0),
                    mx.step_viscous(prob, f0, 1e-2, 0.1)):
            assert out.dtype == np.complex128
    shear = mx.build_model("shear", M=16)
    f0 = mx.initial_datum(shear, "random-h1", seed=2)
    assert shear._internal(f0).dtype == np.complex128
    path = tmp_path / "profile.csv"
    y = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    path.write_text("y,u\n" + "".join(f"{a:.17g},{np.cos(a):.17g}\n"
                                       for a in y))
    table = mx.build_model("shear", profile=str(path), M=16)
    assert not table.op.odd
    f0 = mx.initial_datum(table, "single-mode-m1")
    assert table._internal(f0).dtype == np.complex128


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


def test_spiral_single_mode_has_one_source():
    """The spiral model's "single-mode-m1" is the bits of the datum the
    closed-form series starts from (_disk's lowest mode), and the
    series at t = 0 has the model's norms of it (to the 1e-10 to which
    the series' tridiagonal norms and the model's eigenbasis sums
    agree)."""
    from mixlab.models import _disk

    for N in (64, 256, 1024):
        prob = mx.build_model("spiral", alpha=1.0, k=1, N=N)
        series_datum = _disk(1.0, 1, N)[-1]["single-mode-m1"]()
        assert np.array_equal(prob.data["single-mode-m1"](), series_datum)
        ser = mx.spiral_mixing_series([0.0], alpha=1.0, k=1, N=N,
                                      datum="single-mode-m1")
        f0 = mx.initial_datum(prob, "single-mode-m1")
        for key, s in (("h", 0.0), ("h1", 1.0), ("hm1", -1.0)):
            assert ser[key][0] == pytest.approx(prob.sobolev(f0, s),
                                                rel=1e-10), (N, key)


@pytest.mark.parametrize("k, N", [(1, 1), (1, 2), (1, 3), (300, 4096),
                                  (1, 65536)])
def test_ldl_pivots_are_dpttrf_bit_for_bit(k, N):
    """The disk operator's LDL^T factor is LAPACK dpttrf's, bit for bit
    (dpttrf takes an off-diagonal of at least one entry)."""
    from scipy.linalg.lapack import dpttrf

    _, diag, off, *_ = mx.models._disk(1.0, k, N)
    d, e = mx.models._disk_factor(k, N)
    ref_d, ref_e, info = dpttrf(diag, off if N > 1 else np.zeros(1))
    assert info == 0
    assert d.tobytes() == ref_d.tobytes()
    assert e.tobytes() == ref_e[:N - 1].tobytes()


def test_ldl_refuses_a_pivot_that_is_not_positive():
    """A pivot <= 0 is a ValueError with dpttrf's 1-based info."""
    from mixlab.models import _ldl

    for a, b, info in (([1.0, 1.0], [2.0], 2),
                       ([0.0, 1.0, 3.0], [2.0, 1.0], 1), ([-1.0], [], 1)):
        with pytest.raises(ValueError, match=rf"disk operator is not positive "
                                             rf"definite \(info={info}\)"):
            _ldl(np.array(a), np.array(b))


@pytest.mark.parametrize("k, N", [(1, 1), (1, 2), (1, 64), (1, 1024),
                                  (3, 256)])
def test_lowest_disk_mode_is_the_tridiagonal_eigenvector(k, N):
    """The lowest mode, by inverse iteration on the LDL^T factor, is
    within 1e-12 of LAPACK's one-pair tridiagonal eigensolve, unit and
    positive; it is formed once per (k, N)."""
    from scipy.linalg import eigh_tridiagonal

    _, diag, off, *_ = mx.models._disk(1.0, k, N)
    ref = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[1][:, 0]
    mode = mx.models._lowest_disk_mode(k, N)
    assert np.abs(mode - np.sign(ref.sum()) * ref).max() < 1e-12
    assert np.all(mode > 0.0) and np.linalg.norm(mode) == pytest.approx(1.0)
    assert mx.models._lowest_disk_mode(k, N) is mode


def _dgbmv_flow(phase):
    """The real shear flow as LAPACK stores its band: the n x (n + 2w)
    Toeplitz matrix with kl = 0, ku = 2w, storage row q the kernel entry
    p_{q-w}, applied by dgbmv to the state extended periodically by w."""
    from scipy.linalg.blas import dgbmv

    n = phase.size
    p = np.fft.fft(phase).real / n
    dist = np.minimum(np.arange(n), n - np.arange(n))
    w = int(dist[np.abs(p) > mx.models.KERNEL_CUT * np.finfo(float).eps
                 * np.abs(p).max()].max())
    ab = np.asfortranarray(np.broadcast_to(
        p[np.arange(-w, w + 1), None], (2 * w + 1, n + 2 * w)))
    ext = (np.arange(n + 2 * w) - w) % n
    return lambda g: dgbmv(n, n + 2 * w, 0, 2 * w, 1.0, ab, g[ext])


def _zgbmv_flow(op, t):
    """exp(-Bt) of a matrix family as LAPACK stores its band,
    ab[w + i - j, j] = exp(-Bt)[i, j], probed from the series, applied by
    zgbmv."""
    from scipy.linalg.blas import zgbmv

    J, series = op._series(t)
    n, w = op.lam.size, (J.size - 1) * op.width
    p, j = 2 * w + 1, np.arange(n)
    probes = series((j % p == np.arange(p)[:, None]).astype(complex))
    i = j + np.arange(-w, w + 1)[:, None]
    inside = (i >= 0) & (i < n)
    ab = np.asfortranarray(np.where(inside, probes[j % p, np.where(
        inside, i, j)], 0.0))
    return lambda g: zgbmv(n, n, w, w, 1.0, ab, g)


def test_blocked_band_products_match_blas_band_products():
    """The blocked band products equal LAPACK's band products to 1e-14
    at sizes that are not a multiple of the block: the real shear flow
    (M = 37, sin; n = 74) against dgbmv, and the Kolmogorov (M = 37) and
    kinetic d = 1 (N = 45) flows at the step sizes ds/16 to ds against
    zgbmv. Neither writes its input."""
    from mixlab.evolution import default_dt

    rng = np.random.default_rng(37)
    shear = mx.build_model("shear", profile="sin", M=37)
    assert shear.size % mx.models.BLOCK
    for t in (1.0 / 32.0, 0.1, 0.5):
        phase = np.exp(-1j * shear.op.rate * t)
        g = rng.standard_normal(shear.size)
        before = g.copy()
        out = mx.models.FourierPhase._band(phase)(g)
        assert np.array_equal(g, before) and out.shape == g.shape
        assert np.abs(out - _dgbmv_flow(phase)(g)).max() < 1e-14, t
    for name, kw in (("kolmogorov", dict(L=2.0, k=1, M=37)),
                     ("kinetic", dict(k=1, N=45))):
        prob = mx.build_model(name, **kw)
        assert prob.size % mx.models.BLOCK
        ds = default_dt(prob, 1e3)
        for t in (ds / 16, ds / 4, ds):
            g = rng.standard_normal(prob.size) \
                + 1j * rng.standard_normal(prob.size)
            before = g.copy()
            out = prob.op.flow(t)(g)
            assert np.array_equal(g, before) and out.shape == g.shape
            assert np.abs(out - _zgbmv_flow(prob.op, t)(g)).max() < 1e-14, \
                (name, t)


def _same_bits(a, b) -> bool:
    """Equal bit for bit, through the lists, tuples and slices an
    operator holds."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype \
            and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) \
            and all(map(_same_bits, a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name, kw", [
    ("shear", dict(M=32)), ("heat", dict(M=16)),
    ("kolmogorov", dict(L=2.0, M=16)), ("spiral", dict(alpha=4.0, N=32)),
    ("kinetic", dict(N=8)), ("kinetic", dict(N=6, d=2, k=(1, 2)))],
    ids=["shear", "heat", "kolmogorov", "spiral", "kinetic-d1", "kinetic-d2"])
def test_model_pickles_as_its_recipe(name, kw):
    """A model pickles as its family name and params (its named data are
    closures) and loads as a build from that recipe: the same operator
    arrays and the same bits of every named datum."""
    prob = mx.build_model(name, **kw)
    blob = pickle.dumps(prob)
    assert len(blob) < 512  # the recipe, not the arrays
    loaded = pickle.loads(blob)
    assert (loaded.name, loaded.params) == (prob.name, prob.params)
    assert type(loaded.op) is type(prob.op)
    assert vars(loaded.op).keys() == vars(prob.op).keys()
    for key, value in vars(prob.op).items():
        assert _same_bits(getattr(loaded.op, key), value), key
    assert loaded.data.keys() == prob.data.keys()
    for datum in ("random-h1", *prob.data):
        assert _same_bits(mx.initial_datum(loaded, datum, seed=3),
                          mx.initial_datum(prob, datum, seed=3)), datum


def test_unpickling_builds_each_recipe_once(monkeypatch):
    """Two pickles of one model, loaded in one process, build it once
    (a pool worker handed a group's rows one by one builds the group's
    model once); a load of another recipe builds again."""
    from mixlab import models

    build, built = models.build_model, []

    def counting(name, **params):
        built.append(name)
        return build(name, **params)

    blobs = [pickle.dumps(mx.build_model("kolmogorov", M=16))
             for _ in range(2)]
    other = pickle.dumps(mx.build_model("heat", M=16))
    models._rebuilt.cache_clear()
    monkeypatch.setattr(models, "build_model", counting)
    first, second = (pickle.loads(blob) for blob in blobs)
    assert built == ["kolmogorov"] and second is first
    pickle.loads(other)
    pickle.loads(blobs[0])
    assert built == ["kolmogorov", "heat", "kolmogorov"]


@pytest.mark.parametrize("name, kw, real", [
    ("shear", dict(M=32), False), ("shear", dict(M=32), True),
    ("spiral", dict(N=16), False), ("kolmogorov", dict(L=2.0, M=16), False),
    ("kinetic", dict(N=6, d=2, k=(1, 2)), False)],
    ids=["shear", "shear-real", "spiral", "kolmogorov", "kinetic-d2"])
def test_an_op_keeps_the_flows_of_its_latest_step_sizes(name, kw, real):
    """Driven through FLOW_CACHE + 3 step sizes, an op keeps the flows of
    the FLOW_CACHE most recently used: a step size used again is kept
    over older ones, and a flow formed again after its eviction maps a
    state to the bytes a cold op's flow gives."""
    from mixlab.models import FLOW_CACHE

    op = mx.build_model(name, **kw).op
    rng = np.random.default_rng(7)
    g = rng.standard_normal(op.lam.size)
    if not real:
        g = g + 1j * rng.standard_normal(op.lam.size)
    times = [0.5 / 2**i for i in range(FLOW_CACHE + 3)]
    for t in times:
        op.flow(t)
    assert list(op._flows) == times[3:]
    assert op.flow(times[3]) is op.flow(times[3])  # a hit: the same map
    op.flow(0.3)
    assert list(op._flows) == [*times[5:], times[3], 0.3]
    again = op.flow(times[0])(g.copy())
    cold = mx.build_model(name, **kw).op.flow(times[0])(g.copy())
    assert len(op._flows) == FLOW_CACHE
    assert (again.dtype, again.tobytes()) == (cold.dtype, cold.tobytes())


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
    """Also at N = 1, where the disk operator is the one entry diag_0:
    nothing to factor or to sweep."""
    times = np.array([0.0, 2.0, 10.0])
    for N, alpha in _iproduct((1, 64), (1.0, 4.0)):
        prob = mx.build_model("spiral", alpha=alpha, k=1, N=N)
        for datum in ("uniform", "single-mode-m1", "gaussian-bump"):
            ser = mx.spiral_mixing_series(times, alpha=alpha, k=1, N=N,
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


def _full_grid_norms(times, M, datum="single-mode-m1", seed=None, **kw):
    """h, h1, hm1 of the closed-form shear flow on the whole 2M-point grid."""
    prob = mx.build_model("shear", M=M, **kw)
    vals = np.fft.ifft(mx.initial_datum(prob, datum, seed=seed),
                       norm="forward")
    out = []
    for t in times:
        a2 = np.abs(np.fft.fft(vals * np.exp(-1j * prob.op.rate * t),
                               norm="forward")) ** 2
        out.append([np.sqrt(np.sum(prob.op.lam**s * a2)) for s in (0, 1, -1)])
    return np.array(out).T


_UP_TO_200 = np.concatenate([[0.0], np.geomspace(0.1, 200.0, 30)])


@pytest.mark.parametrize("kw, times, full_grid", [
    ({"M": 1024}, _UP_TO_200, False),
    ({"M": 1024, "profile": "sin2", "k": 3}, _UP_TO_200[:25], False),
    ({"M": 512, "profile": "csv"}, _UP_TO_200[:20], True),
    ({"M": 256, "datum": "random-h1", "seed": 5}, _UP_TO_200[:20], True),
    ({"M": 3 * 2**9}, _UP_TO_200[:25], False),
    ({"M": 1024}, [150.0, 0.0, 3.0, 150.0, 0.5, 3.0], False),
    ({"M": 1024, "datum": "gaussian-bump"}, _UP_TO_200, False),
], ids=["sin", "sin2-k3", "csv-profile", "random-h1", "M-3x2^9",
        "unsorted-repeated", "gaussian-bump"])
def test_shear_series_matches_full_grid(tmp_path, kw, times, full_grid):
    if kw.get("profile") == "csv":
        y = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
        path = tmp_path / "prof.csv"
        path.write_text("y,u\n" + "".join(f"{a:.12g},{np.sin(a):.12g}\n"
                                          for a in y))
        kw = {**kw, "profile": str(path)}
    ser = mx.shear_mixing_series(times, **kw)
    ref = _full_grid_norms(times, **kw)
    for row, key in enumerate(("h", "h1", "hm1")):
        np.testing.assert_allclose(ser[key], ref[row], rtol=1e-11, atol=0)
    assert np.array_equal(ser["t"], np.asarray(times, dtype=float))
    assert (np.all(ser["grid"] == 2 * kw["M"])) == full_grid
    assert np.all((0.0 <= ser["outer"]) & (ser["outer"] <= 1.0))
    for t in set(times):  # a repeated time gets the same bits
        at = np.asarray(times) == t
        assert len(set(ser["hm1"][at])) == 1


def test_shear_series_grid_starts_coarse_and_never_shrinks():
    times = np.geomspace(0.1, 500.0, 40)[::-1]  # any order; grid follows |t|
    ser = mx.shear_mixing_series(times, M=4096)
    grid = ser["grid"][np.argsort(times)]
    assert grid[0] == mx.models.COARSEST_GRID
    assert np.all(np.diff(grid) >= 0)
    # the spectrum reaches |m| ~ t: t = 500 fits the inner half |m| <= 1024
    # of 4096 points, not that of 2048, and never needs the full 2M = 8192
    assert grid[-1] == 4096
    # each accepted grid's outer half is at the phase's round-off floor
    # (max|k u| = 1 here)
    eps = np.finfo(float).eps
    assert np.all(ser["outer"] <= (16.0 * eps * (1.0 + times)) ** 2)


def test_shear_series_forms_its_weights_once_per_grid(monkeypatch):
    """Each grid level stacks its h1 and hm1 weights once (h is the
    spectrum's sum); the one other call normalizes the datum."""
    calls = []

    def counting(lam, orders, real=mx.models.hs_weights):
        calls.append(lam.size)
        return real(lam, orders)

    monkeypatch.setattr(mx.models, "hs_weights", counting)
    ser = mx.shear_mixing_series(np.linspace(0.0, 500.0, 401), M=4096)
    levels = int(np.log2(ser["grid"].max() / ser["grid"].min())) + 1
    assert levels >= 5
    assert len(calls) <= levels + 1


def test_phase_matches_cos_and_sin():
    """The half-angle phase is within 1e-15 of np.cos and np.sin: at 0,
    over |x| <= 1e5, and at the doubles nearest odd multiples of pi, where
    the half angle's tangent reaches ~1e16."""
    m = np.arange(-15915, 15915)  # |(2m + 1) pi| <= 1e5
    odd_pi = ((2 * m + 1) * np.arccos(np.longdouble(-1))).astype(float)
    assert np.abs(np.tan(odd_pi / 2)).max() > 1e15
    for x in (np.zeros(1), np.linspace(-1e5, 1e5, 200_003), odd_pi):
        cos, sin = np.empty_like(x), np.empty_like(x)
        mx.models._phase(x, 1.0, cos, sin)
        assert np.abs(cos - np.cos(x)).max() <= 1e-15
        assert np.abs(sin - np.sin(x)).max() <= 1e-15
        mx.models._phase(x, -1.0, cos, sin)
        assert np.abs(sin + np.sin(x)).max() <= 1e-15


def _spiral_h1_oracle(N, times, form):
    """h1 of the uniform spiral datum (alpha = k = 1) in np.longdouble,
    from ``form`` of h1^2 on the values f of a state."""
    L = np.longdouble
    r = mx.models._disk(1.0, 1, N)[3].astype(L)  # the rate k r^alpha
    return np.array([np.sqrt((form(np.cos(r * L(t))) + form(np.sin(r * L(t))))
                             / form(np.ones(N, dtype=L))) for t in times])


def test_spiral_series_forward_sweep_matches_full_solve():
    """h1 agrees to 1e-13 with two extended-precision oracles: z^T A z,
    z = sqrt(w) f, from _disk's entries at N = 256, where their rounding,
    magnified by the form's cancellation, stays below that; and the exact
    flux form sum_e (r_e/dr)(f_e+1 - f_e)^2 + k^2 sum_j (dr/r_j) f_j^2 at
    N = 4096. hm1 agrees with a full tridiagonal solve to 1e-12. One time
    puts the half angle rate t / 2 of a cell at N = 4096, as the series
    rounds it, at the double nearest pi/2, where its tangent is ~1.6e16."""
    rate = mx.models._disk(1.0, 1, 4096)[3][2048]
    near = np.pi / rate + np.spacing(np.pi / rate) * np.arange(-64, 65)
    odd = near[rate * (0.5 * near) == np.pi / 2][0]
    assert abs(np.tan(rate * (0.5 * odd))) > 1e15
    L, times = np.longdouble, np.array([0.0, 0.3, 7.0, 250.0, odd])
    w, diag, off, *_ = mx.models._disk(1.0, 1, 256)

    def a_form(f):
        z = np.sqrt(w.astype(L)) * f
        return (np.sum(diag.astype(L) * z * z)
                + 2 * np.sum(off.astype(L) * z[:-1] * z[1:]))

    ser = mx.spiral_mixing_series(times, alpha=1.0, k=1, N=256)
    np.testing.assert_allclose(ser["h1"], _spiral_h1_oracle(
        256, times, a_form).astype(float), rtol=1e-13, atol=0)

    N = 4096
    j = np.arange(1, N + 1, dtype=L)  # r_e / dr = e, dr / r_j = 1/(j - 1/2)

    def flux_form(f):
        return np.sum(j[:-1] * np.diff(f) ** 2) + np.sum(f * f / (j - 0.5))

    ser = mx.spiral_mixing_series(times, alpha=1.0, k=1, N=N)
    np.testing.assert_allclose(ser["h1"], _spiral_h1_oracle(
        N, times, flux_form).astype(float), rtol=1e-13, atol=0)

    np.testing.assert_allclose(ser["hm1"], _spiral_full_solve(
        times, 1.0, 1, N, "uniform")[2], rtol=1e-12, atol=0)
    assert np.all(ser["grid"] == N)


def _spiral_full_solve(times, alpha, k, N, datum):
    """h, h1 and hm1 of the spiral series by an independent route: the
    datum's values times np.cos and np.sin of rate t as two columns, h
    from the weights, h1 from the flux form and hm1 from LAPACK's full
    tridiagonal solve ``dpttrs``."""
    from scipy.linalg.lapack import dpttrf, dpttrs

    w, diag, off, rate, _, _, data = mx.models._disk(alpha, k, N)
    j = np.arange(1.0, N + 1.0)  # r_e / dr = e, dr / r_j = 1/(j - 1/2)

    def flux_form(F):
        return (np.sum(j[:-1, None] * np.diff(F, axis=0) ** 2)
                + np.sum(k * k / (j[:, None] - 0.5) * F * F))

    u = data[datum]().real[:, None]
    u = u / np.sqrt(flux_form(u))
    d, e, info = dpttrf(diag, off)
    assert info == 0
    out = []
    for t in times:
        F = u * np.stack([np.cos(rate * t), np.sin(rate * t)], axis=1)
        G = np.sqrt(w)[:, None] * F
        out.append([np.sqrt(np.sum(G * G)), np.sqrt(flux_form(F)),
                    np.sqrt(np.sum(G * dpttrs(d, e, G)[0]))])
    return np.array(out).T


@pytest.mark.parametrize("alpha, k, N, datum, times, runs", [
    (4.0, 300, 4096, "gaussian-bump", [0.0, 0.3, 7.0, 250.0, 3e3], 7),
    (1.0, 1, 65536, "uniform",
     np.concatenate([[0.0], np.geomspace(0.1, 1e4, 11)]), 1),
    (4.0, 1, 65536, "uniform",
     np.concatenate([[0.0], np.geomspace(0.1, 1e4, 11)]), 1),
], ids=["k300-alpha4-bump", "bench-alpha1", "bench-alpha4"])
def test_spiral_series_scan_matches_full_solve(alpha, k, N, datum, times,
                                               runs):
    """The prefix-sum scan agrees with a full tridiagonal solve to 1e-12,
    h and h1 with the flux form of the cos and sin columns. At k = 300,
    N = 4096 the scan's weight q = prod(-e) falls to ~1e-651, so the scan
    restarts in 7 runs; a single run would overflow. The bench size runs
    in one."""
    from scipy.linalg.lapack import dpttrf

    w, diag, off, *_ = mx.models._disk(alpha, k, N)
    assert len(mx.models._scan_runs(-dpttrf(diag, off)[1])[1]) == runs
    ser = mx.spiral_mixing_series(times, alpha=alpha, k=k, N=N, datum=datum)
    ref = _spiral_full_solve(times, alpha, k, N, datum)
    for row, key in enumerate(("h", "h1", "hm1")):
        np.testing.assert_allclose(ser[key], ref[row], rtol=1e-12, atol=0)


@pytest.mark.parametrize("family, bad", [
    ("spiral", {"alpha": 0.5}), ("spiral", {"k": 0}), ("spiral", {"N": 0}),
    ("shear", {"gamma": 3.0}), ("shear", {"k": 0}), ("shear", {"M": 0})],
    ids=["spiral-alpha", "spiral-k", "spiral-N", "shear-gamma", "shear-k",
         "shear-M"])
def test_series_refuse_what_their_builder_refuses(monkeypatch, family, bad):
    """Each series takes its builder's keywords and refuses, with the
    builder's message, what the builder refuses, before any time is
    evaluated."""
    with pytest.raises(ValueError) as built:
        mx.build_model(family, **bad)

    def evaluated(*args):
        raise AssertionError("the series evaluated a time")

    # both series take every time's phase through _half_angle
    monkeypatch.setattr(mx.models, "_half_angle", evaluated)
    series = {"shear": mx.shear_mixing_series,
              "spiral": mx.spiral_mixing_series}[family]
    with pytest.raises(ValueError) as refused:
        series([0.0, 1.0, 10.0], **bad)
    assert str(refused.value) == str(built.value)


@pytest.mark.parametrize("series", [mx.shear_mixing_series,
                                    mx.spiral_mixing_series],
                         ids=["shear", "spiral"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_series_refuse_nonfinite_times(series, bad):
    with pytest.raises(ValueError, match="times must be finite"):
        series([0.0, 1.0, bad])
