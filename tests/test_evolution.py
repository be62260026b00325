"""Integrator tests: exactness, convergence order, conservation, trace IO."""

import numpy as np
import pytest

import mixlab as mx
from mixlab import EvolutionError
from mixlab.evolution import CHECK_EVERY, default_dt
from mixlab.models import model_params


def test_pure_heat_decay_is_exact():
    # single mode m = 1 decays at exactly nu * (k^2 + m^2) = 2 nu
    heat = mx.build_model("heat", k=1, M=32)
    f0 = mx.initial_datum(heat, "single-mode-m1")
    tr = mx.evolve(heat, f0, 0.05, 10.0, dt=1e-3)
    pred = tr.h[0] * np.exp(-0.05 * 2.0 * tr.times)
    assert np.max(np.abs(tr.h - pred)) / tr.h[0] < 1e-11
    assert mx.tau_threshold(tr) == pytest.approx(1.0 / (0.05 * 2.0), rel=1e-9)


def test_inviscid_step_matches_closed_form():
    for name, kw in (("shear", dict(profile="sin", k=1, M=64)),
                     ("spiral", dict(alpha=1.0, k=1, N=64))):
        prob = mx.build_model(name, **kw)
        f0 = mx.initial_datum(prob, "single-mode-m1")
        tr = mx.evolve(prob, f0, 0.0, 3.0, dt=0.01)
        ref = mx.exact_inviscid(prob, f0, tr.times[-1])
        assert prob.sobolev(tr.final_state - ref, 0.0) < 1e-12


def test_strang_splitting_is_second_order():
    cases = [("shear", dict(profile="sin", gamma=2.0, k=1, M=32)),
             ("kolmogorov", dict(L=2.0, k=1, M=16)),
             ("spiral", dict(alpha=1.0, k=1, N=32)),
             ("kinetic", dict(k=1, N=12))]
    for name, kw in cases:
        prob = mx.build_model(name, **kw)
        f0 = mx.initial_datum(prob, "random-h1", seed=9)
        ref = mx.evolve(prob, f0, 1e-2, 1.0, dt=1.0 / 2048).final_state
        errs = [
            prob.sobolev(mx.evolve(prob, f0, 1e-2, 1.0, dt=dt).final_state
                         - ref, 0.0)
            for dt in (1.0 / 16, 1.0 / 32)
        ]
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.5, f"{name}: expected O(dt^2), got {ratio}"


def test_energy_residual_scales():
    heat = mx.build_model("heat", k=1, M=32)
    f0 = mx.initial_datum(heat, "single-mode-m1")
    tr = mx.evolve(heat, f0, 0.05, 10.0, dt=1e-3)
    assert mx.energy_residual(tr) < 1e-8
    # inviscid flow conserves h: identity is trivially exact
    shear = mx.build_model("shear", profile="sin", k=1, M=16)
    f0 = mx.initial_datum(shear, "random-h1", seed=1)
    tr = mx.evolve(shear, f0, 0.0, 5.0, dt=1e-2)
    assert mx.energy_residual(tr) < 1e-12
    # second order in the sampling spacing
    kol = mx.build_model("kolmogorov", L=2.0, k=1, M=16)
    f0 = mx.initial_datum(kol, "single-mode-m1")
    r_coarse = mx.energy_residual(mx.evolve(kol, f0, 1e-2, 5.0, dt=4e-3))
    r_fine = mx.energy_residual(mx.evolve(kol, f0, 1e-2, 5.0, dt=2e-3))
    assert 3.0 < r_coarse / r_fine < 5.0


def test_inviscid_norm_drift():
    cases = [("shear", dict(profile="sin", k=1, M=32), 1e-12),
             ("spiral", dict(alpha=1.0, k=1, N=32), 1e-12),
             ("kolmogorov", dict(L=2.0, k=1, M=16), 1e-10),
             ("kinetic", dict(k=1, N=12), 1e-10)]
    for name, kw, tol in cases:
        prob = mx.build_model(name, **kw)
        f0 = mx.initial_datum(prob, "random-h1", seed=21)
        tr = mx.evolve(prob, f0, 0.0, 1.0, dt=1e-3)  # 1000 steps
        drift = np.max(np.abs(tr.h - tr.h[0])) / tr.h[0]
        assert drift < tol, f"{name}: drift {drift:.2e}"


def test_zero_horizon_returns_single_sample():
    prob = mx.build_model("spiral", alpha=1.0, k=1, N=16)
    f0 = mx.initial_datum(prob, "uniform")
    tr = mx.evolve(prob, f0, 1e-3, 0.0)
    assert len(tr) == 1 and tr.times[0] == 0.0
    assert tr.h[0] == pytest.approx(prob.sobolev(f0, 0.0), rel=1e-14)
    assert np.array_equal(tr.final_state, np.asarray(f0))


def test_sample_cap_decimates_but_keeps_endpoints():
    heat = mx.build_model("heat", k=1, M=8)
    f0 = mx.initial_datum(heat, "single-mode-m1")
    tr = mx.evolve(heat, f0, 1e-3, 1.0, dt=1e-3, max_samples=50)
    assert len(tr) <= 51
    assert tr.times[0] == 0.0
    assert tr.times[-1] == pytest.approx(1.0, rel=1e-12)
    assert np.all(np.diff(tr.times) > 0)


def test_stop_ratio_ends_run_early():
    heat = mx.build_model("heat", k=1, M=8)
    f0 = mx.initial_datum(heat, "single-mode-m1")
    tr = mx.evolve(heat, f0, 0.1, 1e4, dt=0.05, stop_ratio=0.5)
    assert tr.meta["stop_reason"] == "stop_ratio"
    assert tr.h[-1] <= 0.5 * tr.h[0]
    assert tr.times[-1] < 1e4
    # crossing time of a rate-0.2 exponential through 1/2
    assert tr.times[-1] == pytest.approx(np.log(2.0) / 0.2, abs=2 * 0.05 * 5)


def test_non_finite_state_raises():
    heat = mx.build_model("heat", k=1, M=8)
    f0 = np.full(heat.size, np.nan, dtype=complex)
    with pytest.raises(EvolutionError):
        mx.evolve(heat, f0, 1e-3, 1.0, dt=0.1)


def test_truncation_occupancy_warning():
    prob = mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=8)
    f0 = np.zeros(prob.size, dtype=complex)
    f0[8] = 1.0  # everything on the highest mode
    tr = mx.evolve(prob, f0, 0.0, 0.1, dt=0.01)
    assert tr.meta["occupancy_max"] > 0.5
    assert any("occupancy" in w for w in tr.meta["warnings"])
    # a smooth datum stays quiet
    f0 = mx.initial_datum(prob, "single-mode-m1")
    tr = mx.evolve(prob, f0, 0.0, 0.1, dt=0.01)
    assert tr.meta["warnings"] == []


def test_extras_h2_sampling():
    prob = mx.build_model("spiral", alpha=1.0, k=1, N=32)
    f0 = mx.initial_datum(prob, "gaussian-bump")
    tr = mx.evolve(prob, f0, 1e-3, 0.5, dt=0.01, extras=("h2",))
    h2 = tr.extras["h2"]
    assert h2.shape == tr.times.shape
    assert h2[0] == pytest.approx(prob.sobolev(f0, 2.0), rel=1e-12)


def test_viscous_flow_approaches_inviscid_limit():
    prob = mx.build_model("spiral", alpha=1.0, k=1, N=64)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    ref = mx.exact_inviscid(prob, f0, 10.0)
    errs = []
    for nu in (1e-2, 1e-3, 1e-4):
        tr = mx.evolve(prob, f0, nu, 10.0, dt=0.01)
        errs.append(prob.sobolev(tr.final_state - ref, 0.0))
    assert errs[0] > errs[1] > errs[2]
    # deviation shrinks linearly with nu at fixed time
    assert 5.0 < errs[1] / errs[2] < 20.0
    assert errs[2] < 0.05


def test_default_dt_policy():
    heat = mx.build_model("heat", k=1, M=8)
    assert default_dt(heat, 50.0) == pytest.approx(50.0 / 2000.0)
    shear = mx.build_model("shear", profile="sin", k=1, M=8)
    assert default_dt(shear, 50.0) == pytest.approx(0.5)  # 0.5/max(1, 1)
    assert default_dt(shear, 0.2) == pytest.approx(0.2)  # capped at t_end
    fast = mx.build_model("shear", profile="sin", k=20, M=64)
    assert default_dt(fast, 50.0) == pytest.approx(0.5 / 20.0)
    # t_end = 0 takes no step, but the interval stays positive
    assert default_dt(heat, 0.0) > 0.0 and default_dt(fast, 0.0) > 0.0


def test_controlled_run_keeps_the_sample_grid():
    """Without dt, samples fall every ds = default_dt: the grid of
    dt = ds/5 sampled every 5 steps, also once thinning doubles the
    stride; the values agree to the splitting error."""
    prob = mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=16)
    f0 = mx.initial_datum(prob, "random-h1", seed=2)
    ds = default_dt(prob, 40.0)
    for cap in (mx.evolution.MAX_SAMPLES, 15):
        ctl = mx.evolve(prob, f0, 1e-3, 40.0, max_samples=cap)
        ref = mx.evolve(prob, f0, 1e-3, 40.0, dt=ds / 5, sample_every=5,
                        max_samples=cap)
        assert ctl.times.shape == ref.times.shape
        np.testing.assert_allclose(ctl.times, ref.times, rtol=1e-13)
        np.testing.assert_allclose(ctl.h, ref.h, rtol=1e-5)
        assert ctl.meta["sample_stride"] == ref.meta["sample_stride"] // 5
    assert ctl.meta["sample_stride"] > 1  # the cap of 15 samples thinned
    assert ctl.meta["sample_interval"] == ds
    assert ctl.meta["err_est"] > 0.0


def test_controlled_rows_match_fixed_step_rows(tmp_path):
    """Sweep rows against the same runs at the fixed step dt = ds/5,
    sampled on the same grid: tau and 1/rate agree to 2e-5 relative."""
    for model, kw, nus in (
            ("shear", dict(gammas=(2.0,), resolution=32), (1e-4, 1e-3)),
            ("spiral", dict(alphas=(1.0,), resolution=32), (1e-4, 1e-3)),
            ("kolmogorov", dict(resolution=16), (1e-3,))):
        cfg = mx.SweepConfig(model=model, nus=nus,
                             out_dir=str(tmp_path / model), **kw)
        ctl = mx.run_sweep(cfg)
        for row in ctl.rows:
            assert row.status == "ok"
            prob = mx.build_model(model, **model_params(
                model, {**vars(cfg), "alpha": row.alpha,
                        "gamma": row.gamma, "k": row.k}))
            f0 = mx.initial_datum(prob, cfg.datum)
            t_end = cfg.t_end_factor * row.nu ** -(prob.q or 1.0)
            ds = row.meta["sample_interval"]
            ref = mx.evolve(prob, f0, row.nu, t_end, dt=ds / 5,
                            sample_every=5, stop_ratio=cfg.stop_ratio)
            tau_rate = 1.0 / mx.fit_decay_rate(ref.times, ref.h).rate
            assert row.tau == pytest.approx(mx.tau_threshold(ref, cfg.theta),
                                            rel=2e-5), row.key
            assert row.tau_rate == pytest.approx(tau_rate, rel=2e-5), row.key
            assert row.meta["n_steps"] < ref.meta["n_steps"] * 2


def test_exact_steps_take_one_step_per_sample():
    """nu = 0 and B = 0 need no error control: one step per interval and
    no step-doubling checks."""
    shear = mx.build_model("shear", profile="sin", k=1, M=16)
    heat = mx.build_model("heat", k=1, M=16)
    for prob, nu in ((shear, 0.0), (heat, 1e-2)):
        f0 = mx.initial_datum(prob, "single-mode-m1")
        tr = mx.evolve(prob, f0, nu, 20.0)
        n_int = int(np.ceil(20.0 / default_dt(prob, 20.0) - 1e-12))
        assert tr.meta["n_steps"] == n_int == len(tr) - 1
        assert tr.meta["max_steps_per_sample"] == 1
        assert tr.meta["err_est"] == 0.0
    # a viscous shear run is checked every CHECK_EVERY intervals
    tr = mx.evolve(shear, mx.initial_datum(shear, "single-mode-m1"), 1e-2,
                   20.0)
    assert tr.meta["n_steps"] >= len(tr) - 1 + 2 * (40 // CHECK_EVERY + 1)


def test_explicit_dt_runs_as_before():
    """An explicit dt takes ceil(t_end/dt) steps and samples every
    sample_every of them; the values were recorded before the step
    control existed."""
    for name, kw, h_end in (
            ("shear", dict(profile="sin", gamma=2.0, k=1, M=16),
             0.49631343992446747),
            ("spiral", dict(alpha=1.0, k=1, N=16), 0.37661728865015),
            ("kolmogorov", dict(L=2.0, k=1, M=8), 0.35988467621711007)):
        prob = mx.build_model(name, **kw)
        f0 = mx.initial_datum(prob, "random-h1", seed=5)
        tr = mx.evolve(prob, f0, 1e-3, 2.03, dt=0.01, sample_every=7,
                       max_samples=10)
        assert tr.meta["n_steps"] == 203 and len(tr) == 9
        assert tr.meta["sample_stride"] == 28
        assert tr.times[-1] == pytest.approx(2.03, rel=1e-14)
        assert tr.h[-1] == pytest.approx(h_end, rel=1e-12), name
        assert tr.dt == 0.01 and tr.meta["err_est"] is None


def test_bad_step_or_state_raises():
    prob = mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=16)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    for dt in (-1.0, 0.0, np.nan):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            mx.evolve(prob, f0, 1e-2, 1.0, dt=dt)
    # a state of the wrong size, or of the right size in the wrong shape
    for state in (f0[:-1], f0.reshape(-1, 1)):
        with pytest.raises(ValueError, match="model has 32 coefficients"):
            mx.evolve(prob, state, 1e-2, 1.0)


def test_step_viscous_single_step():
    prob = mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=16)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    out = mx.step_viscous(prob, f0, 1e-2, 0.01)
    tr = mx.evolve(prob, f0, 1e-2, 0.01, dt=0.01)
    assert prob.sobolev(out - tr.final_state, 0.0) < 1e-14
    with pytest.raises(ValueError):
        mx.step_viscous(prob, f0, 1e-2, 0.0)


def _flat_operators(name):
    """A, B and the flat-coordinate scale sqrt(w) of a small model, built
    here from their definitions: the disk operator and the radial phase
    (spiral), the mode multiplier and the vorticity-corrected coupling
    (Kolmogorov), the degree ladder (kinetic)."""
    from mixlab.models import _disk_operator

    if name == "spiral":
        r, dr, diag, off = _disk_operator(32, 1)
        A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        return A, np.diag(1j * r), np.sqrt(r * dr)
    if name == "kolmogorov":  # L = 2, k = 1, M = 8
        mu = 4.0 + np.arange(-8.0, 8.0) ** 2
        s = 1.0 - 1.0 / mu
        off = np.sqrt(s[1:] * s[:-1])  # kL/2 = 1
        return np.diag(mu), np.diag(-off, 1) + np.diag(off, -1), np.sqrt(s)
    deg = np.arange(1.0, 13.0)  # kinetic, k = 1, N = 12, d = 1
    K = np.diag(np.sqrt(deg[1:]), 1) + np.diag(np.sqrt(deg[1:]), -1)
    return np.diag(deg), 1j * K, np.ones(deg.size)


def test_viscous_spiral_step_matches_dense_oracle():
    """The eigenbasis step of the spiral, Kolmogorov and kinetic models
    against the dense Strang operator E @ expm(-B dt) @ E with
    E = expm(-nu A dt / 2), in flat coordinates."""
    from scipy.linalg import expm

    dt = 0.05
    rng = np.random.default_rng(8)
    for name, kw in (("spiral", dict(alpha=1.0, k=1, N=32)),
                     ("kolmogorov", dict(L=2.0, k=1, M=8)),
                     ("kinetic", dict(k=1, N=12))):
        prob = mx.build_model(name, **kw)
        A, B, sqw = _flat_operators(name)
        for nu in (1e-2, 0.0):
            E = expm(-nu * A * dt / 2.0)
            dense = E @ expm(-B * dt) @ E
            for _ in range(5):
                f = rng.standard_normal(prob.size) \
                    + 1j * rng.standard_normal(prob.size)
                ref = dense @ (sqw * f) / sqw
                out = mx.step_viscous(prob, f, nu, dt)
                assert prob.sobolev(out - ref, 0.0) \
                    < 1e-12 * prob.sobolev(f, 0.0), (name, nu)


def test_skew_matrix_flow_reuses_one_eigenbasis(monkeypatch):
    """Kolmogorov and kinetic flows of any step come from one eigh(1j*B)."""
    from scipy.linalg import expm

    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append(a.shape) or eigh(a))
    prob = mx.build_model("kinetic", k=1, N=12)
    g = np.random.default_rng(3).standard_normal(prob.size) + 0j
    for t in (0.1, 0.05, 0.3):
        out = prob.op.flow(t)(g)
        assert np.abs(out - expm(-prob.op.B * t) @ g).max() < 1e-13
    assert calls == [(prob.size, prob.size)]


def test_trace_io_roundtrip(tmp_path):
    prob = mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=16)
    f0 = mx.initial_datum(prob, "random-h1", seed=4)
    tr = mx.evolve(prob, f0, 1e-3, 2.0, dt=0.01, sample_every=5)
    path = tmp_path / "trace.csv"
    mx.write_trace(tr, path)
    back = mx.read_trace(path)
    assert np.array_equal(back.times, tr.times)
    assert np.array_equal(back.h, tr.h)
    assert np.array_equal(back.h1, tr.h1)
    assert np.array_equal(back.hm1, tr.hm1)
    assert back.model == "shear"
    assert back.nu == tr.nu
    assert back.dt == tr.dt
    assert back.meta["n_steps"] == tr.meta["n_steps"]
    # csv alone is enough when the sidecar is gone
    (tmp_path / "trace.json").unlink()
    bare = mx.read_trace(path)
    assert np.array_equal(bare.h, tr.h)
