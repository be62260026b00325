"""Integrator tests: exactness, convergence order, conservation, trace IO."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixlab as mx
from mixlab import EvolutionError, evolution, sweep
from mixlab.evolution import CHECK_EVERY, default_dt
from mixlab.models import BLOCK, model_params


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


def test_energy_residual_scales(monkeypatch):
    # on the uniform grid of dt (K0 out of reach): the residual is a
    # three-point difference over the sample spacing
    monkeypatch.setattr(evolution, "K0", 10**9)
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


def test_sample_cap_decimates_but_keeps_endpoints(monkeypatch):
    """The stride doubles with elapsed time, about K0 samples per doubling
    (K0 = 10 here): 1000 steps leave 77 samples, both endpoints kept."""
    monkeypatch.setattr(evolution, "K0", 10)
    heat = mx.build_model("heat", k=1, M=8)
    f0 = mx.initial_datum(heat, "single-mode-m1")
    tr = mx.evolve(heat, f0, 1e-3, 1.0, dt=1e-3)
    # 20 at stride 1, 10 at each of 2 ... 32, 6 at 64, and t_end
    assert len(tr) == 77 and tr.meta["n_steps"] == 1000
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


def test_an_unknown_extra_is_refused():
    """An extra norm other than h2 is a ValueError naming it, not an
    empty ``trace.extras``."""
    prob = mx.build_model("spiral", alpha=1.0, k=1, N=32)
    f0 = mx.initial_datum(prob, "gaussian-bump")
    with pytest.raises(ValueError, match="unknown extra.s. h3: the one "
                                         "known extra is h2"):
        mx.evolve(prob, f0, 1e-3, 0.5, dt=0.01, extras=("h3",))


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
    assert default_dt(heat, 50.0) == pytest.approx(50.0 / 1000.0)
    shear = mx.build_model("shear", profile="sin", k=1, M=8)
    assert default_dt(shear, 50.0) == pytest.approx(0.5)  # 0.5/max(1, 1)
    assert default_dt(shear, 0.2) == pytest.approx(0.2)  # capped at t_end
    fast = mx.build_model("shear", profile="sin", k=20, M=64)
    assert default_dt(fast, 50.0) == pytest.approx(0.5 / 20.0)
    # t_end = 0 takes no step, but the interval stays positive
    assert default_dt(heat, 0.0) > 0.0 and default_dt(fast, 0.0) > 0.0


def test_controlled_run_keeps_the_sample_grid(monkeypatch):
    """Without dt, samples fall every ds = default_dt: the grid of
    dt = ds/5 sampled every 5 steps, also once the stride doubles with
    elapsed time (K0 = 4); the values agree to the splitting error."""
    prob = mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=16)
    f0 = mx.initial_datum(prob, "random-h1", seed=2)
    ds = default_dt(prob, 40.0)
    for k0 in (evolution.K0, 4):
        monkeypatch.setattr(evolution, "K0", k0)
        ctl = mx.evolve(prob, f0, 1e-3, 40.0)
        ref = mx.evolve(prob, f0, 1e-3, 40.0, dt=ds / 5, sample_every=5)
        assert ctl.times.shape == ref.times.shape
        np.testing.assert_allclose(ctl.times, ref.times, rtol=1e-13)
        np.testing.assert_allclose(ctl.h, ref.h, rtol=1e-5)
        assert ctl.meta["sample_stride"] == ref.meta["sample_stride"] // 5
    assert ctl.meta["sample_stride"] == 16  # doubled at t = 4, 8, 16, 32
    assert ctl.meta["sample_interval"] == ds * ctl.meta["sample_stride"]
    assert ctl.meta["err_est"] > 0.0


@pytest.mark.parametrize("nu, dt", [(0.0, None), (1e-3, None), (1e-3, 0.1)],
                         ids=["exact", "controlled", "explicit-dt"])
def test_thinned_trace_records_its_final_sample_interval(nu, dt,
                                                        monkeypatch):
    """The stride doubles during the run (K0 = 4): the trace's spacing
    grows from one unit to the recorded final sample interval, and the
    steps per sample interval follow the stride of each kind of run."""
    monkeypatch.setattr(evolution, "K0", 4)
    prob = mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=16)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    tr = mx.evolve(prob, f0, nu, 40.0, dt=dt)
    stride = tr.meta["sample_stride"]
    step = default_dt(prob, 40.0) if dt is None else dt
    assert stride == (16 if dt is None else 64)  # of 80 or 400 units
    assert tr.meta["sample_interval"] == step * stride
    spacing = np.diff(tr.times)
    np.testing.assert_allclose(spacing[:8], step, rtol=1e-12)
    # spacings grow to the final interval; only a last one cut at t_end
    # (dt = 0.1: 1.6 after 6.4) is shorter
    np.testing.assert_allclose(spacing.max(), tr.meta["sample_interval"],
                               rtol=1e-13)
    assert np.all(np.diff(spacing[:-1]) > -1e-12)
    if dt is not None:  # fixed steps of dt, so the stride of them
        assert tr.meta["max_steps_per_sample"] == stride and tr.dt == dt
    elif nu == 0.0:  # exact: one step per interval, at most
        assert tr.meta["max_steps_per_sample"] == 1 and tr.dt == step
        assert tr.meta["n_steps"] == len(tr) - 1
    else:  # controlled: steps of ds/2^i, no shorter than the smallest
        assert np.log2(step / tr.dt).is_integer() and tr.dt < step
        assert tr.meta["max_steps_per_sample"] * tr.dt \
            <= tr.meta["sample_interval"]


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
            t_end = evolution._certified_horizon(prob, row.nu,
                                                 sweep.STOP_RATIO)
            ds = row.meta["sample_interval"]
            ref = mx.evolve(prob, f0, row.nu, t_end, dt=ds / 5,
                            sample_every=5, stop_ratio=sweep.STOP_RATIO)
            tau_rate = 1.0 / mx.fit_decay_rate(ref.times, ref.h).rate
            assert row.tau == pytest.approx(mx.tau_threshold(ref),
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


def test_explicit_dt_runs_as_before(monkeypatch):
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
        tr = mx.evolve(prob, f0, 1e-3, 2.03, dt=0.01, sample_every=7)
        assert tr.meta["n_steps"] == 203 and len(tr) == 30
        assert tr.meta["sample_stride"] == 7
        # a stride grown with elapsed time takes the same steps
        with monkeypatch.context() as patch:
            patch.setattr(evolution, "K0", 2)
            grown = mx.evolve(prob, f0, 1e-3, 2.03, dt=0.01, sample_every=7)
        assert grown.meta["n_steps"] == 203 and len(grown) == 11
        assert grown.meta["sample_stride"] == 56
        assert grown.h[-1] == tr.h[-1]
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
    for nu in (-0.01, np.nan, np.inf):
        with pytest.raises(ValueError, match="nu must be finite and "
                                             "nonnegative"):
            mx.evolve(prob, f0, nu, 1.0)
    for every in (2.5, 0, -1, np.nan):
        with pytest.raises(ValueError, match="sample_every must be an "
                                             "integer >= 1"):
            mx.evolve(prob, f0, 1e-2, 1.0, dt=0.01, sample_every=every)
    assert mx.evolve(prob, f0, 1e-2, 1.0, dt=0.01,
                     sample_every=5.0).times[1] == pytest.approx(0.05)


def test_step_viscous_single_step():
    prob = mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=16)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    out = mx.step_viscous(prob, f0, 1e-2, 0.01)
    tr = mx.evolve(prob, f0, 1e-2, 0.01, dt=0.01)
    assert prob.sobolev(out - tr.final_state, 0.0) < 1e-14
    with pytest.raises(ValueError):
        mx.step_viscous(prob, f0, 1e-2, 0.0)


def _flat_operators(name, **kw):
    """A, B and the flat-coordinate scale sqrt(w) of a small model with the
    builder keywords ``kw``, built here from their definitions: the disk
    operator and the radial phase (spiral: alpha, k, N), the mode
    multiplier and the vorticity-corrected coupling (Kolmogorov: L, k, M),
    the degree ladder (kinetic: k, N, d)."""
    from mixlab.models import _disk

    if name == "spiral":
        w, diag, off, *_ = _disk(kw["alpha"], kw["k"], kw["N"])
        A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        r = (np.arange(kw["N"]) + 0.5) / kw["N"]
        return A, np.diag(1j * kw["k"] * r ** kw["alpha"]), np.sqrt(w)
    if name == "kolmogorov":
        M, kL = kw["M"], kw["k"] * kw["L"]
        mu = kL**2 + np.arange(-M, M, dtype=float) ** 2
        s = 1.0 - 1.0 / mu
        off = 0.5 * kL * np.sqrt(s[1:] * s[:-1])
        return np.diag(mu), np.diag(-off, 1) + np.diag(off, -1), np.sqrt(s)
    deg, K = _kinetic_ladder(kw["k"], kw["N"], kw.get("d", 1))
    return np.diag(deg), 1j * K, np.ones(deg.size)


def _kinetic_ladder(k, N, d):
    """Degrees and the dense symmetric v.k of the kinetic model on the
    normalized Hermite modes of degree 1..N, in the builder's mode order:
    v_j h_n = sqrt(n_j + 1) h_{n+e_j} + sqrt(n_j) h_{n-e_j}, truncated at
    degrees 0 and N + 1; a scalar k is (k, 0, ..., 0)."""
    from mixlab.models import _hermite_indices

    kvec = np.zeros(d)
    kvec[:np.size(k)] = k
    idx = _hermite_indices(N, d)
    pos = {n: i for i, n in enumerate(idx)}
    K = np.zeros((len(idx), len(idx)))
    for i, n in enumerate(idx):
        for j in range(d):
            up = pos.get(n[:j] + (n[j] + 1,) + n[j + 1:])
            if up is not None:
                K[i, up] = K[up, i] = kvec[j] * np.sqrt(n[j] + 1.0)
    return np.array([sum(n) for n in idx], dtype=float), K


_FAMILIES = [("shear", dict(profile="sin", k=1, M=16)),
             ("heat", dict(k=1, M=16)),
             ("spiral", dict(alpha=1.0, k=1, N=16)),
             ("kolmogorov", dict(L=2.0, k=1, M=8)),
             ("kinetic", dict(k=1, N=12))]


@pytest.mark.parametrize("name, kw", _FAMILIES, ids=[c[0] for c in _FAMILIES])
def test_strang_step_is_the_formula_and_keeps_its_input(name, kw):
    """The step, which works in place in one array of its own, equals
    half * flow(half * g) formed with temporaries, and leaves g as it
    was."""
    from mixlab.evolution import _strang_step

    prob = mx.build_model(name, **kw)
    rng = np.random.default_rng(4)
    g = rng.standard_normal(prob.size) + 1j * rng.standard_normal(prob.size)
    before = g.copy()
    nu, dt = 1e-2, 0.1
    half = np.exp(-nu * prob.op.lam * dt / 2.0)
    ref = half * prob.op.flow(dt)(half * g)
    out = _strang_step(prob, nu, dt)(g)
    assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)
    assert np.array_equal(g, before)


def test_shear_closed_forms_keep_their_input():
    """The Fourier flow overwrites its argument; exact_inviscid and
    apply_B hand it a copy, so a complex state passed in stays as it
    was."""
    prob = mx.build_model("shear", profile="sin", k=1, M=16)
    f = mx.initial_datum(prob, "random-h1", seed=3)
    before = f.copy()
    out = mx.exact_inviscid(prob, f, 1.5)
    b = prob.apply_B(f)
    assert np.array_equal(f, before)
    assert not np.array_equal(out, f) and not np.array_equal(b, f)


@pytest.mark.parametrize("name, kw", _FAMILIES, ids=[c[0] for c in _FAMILIES])
def test_each_sample_is_the_norms_of_its_state(name, kw):
    """A run's last sample holds the H^s norms of its final state, h2
    included where asked for; each sample's occupancy is the top-band
    energy share of its state, computed here state by state, and
    occupancy_max the largest."""
    from mixlab.evolution import TOP_BAND_FRACTION, _strang_step

    prob = mx.build_model(name, **kw)
    f0 = mx.initial_datum(prob, "random-h1", seed=6)
    nu, dt, steps = 1e-2, 0.1, 6
    extras = ("h2",) if name == "spiral" else ()
    tr = mx.evolve(prob, f0, nu, steps * dt, dt=dt, extras=extras)
    assert len(tr) == steps + 1
    sampled = [(0.0, tr.h), (1.0, tr.h1), (-1.0, tr.hm1)]
    if extras:
        sampled.append((2.0, tr.extras["h2"]))
    for s, norms in sampled:
        assert norms[-1] == pytest.approx(prob.sobolev(tr.final_state, s),
                                          rel=1e-13), s
    lam = prob.op.lam
    n_top = int(np.ceil(TOP_BAND_FRACTION * lam.size))
    top = lam >= np.sort(lam)[::-1][n_top - 1]  # ties with the cut count
    step = _strang_step(prob, nu, dt)
    g, shares = prob.op.to_internal(f0), []
    for _ in range(steps + 1):
        a2 = np.abs(g) ** 2
        shares.append(a2[top].sum() / a2.sum())
        g = step(g)
    assert max(shares) > 0.0
    assert tr.occupancy == pytest.approx(shares, rel=1e-13)
    assert tr.meta["occupancy_max"] == pytest.approx(max(shares), rel=1e-13)


def test_viscous_spiral_step_matches_dense_oracle():
    """The step of the spiral, Kolmogorov and kinetic models
    against the dense Strang operator E @ expm(-B dt) @ E with
    E = expm(-nu A dt / 2), in flat coordinates."""
    from scipy.linalg import expm

    dt = 0.05
    rng = np.random.default_rng(8)
    for name, kw in (("spiral", dict(alpha=1.0, k=1, N=32)),
                     ("kolmogorov", dict(L=2.0, k=1, M=8)),
                     ("kinetic", dict(k=1, N=12)),
                     ("kinetic", dict(k=(1, -2), N=6, d=2))):
        prob = mx.build_model(name, **kw)
        A, B, sqw = _flat_operators(name, **kw)
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


def test_skew_matrix_flow_matches_expm_at_each_step():
    """Kinetic flows of three step sizes and one negative step, all from
    one model, against expm(-B t)."""
    from scipy.linalg import expm

    prob = mx.build_model("kinetic", k=1, N=12)
    _, B, _ = _flat_operators("kinetic", k=1, N=12)
    g = np.random.default_rng(3).standard_normal(prob.size) + 0j
    for t in (0.1, 0.05, 0.3, -0.2):
        out = prob.op.flow(t)(g)
        assert np.abs(out - expm(-B * t) @ g).max() < 1e-13


def test_bessel_series_matches_jv_and_is_cut():
    """The flow's coefficients J_0(x)..J_{K-1}(x) match scipy's Bessel
    functions over x in [0, 150] (and -x); the first dropped one, J_K, is
    below 1e-16, and x = 0 gives the identity flow."""
    from scipy.special import jv

    from mixlab.models import SERIES_CUT, _bessel_series

    assert SERIES_CUT == 1e-16
    for x in np.concatenate([np.linspace(0.0, 150.0, 601),
                             np.geomspace(1e-12, 150.0, 200),
                             -np.geomspace(1e-3, 150.0, 20)]):
        J = _bessel_series(x)
        assert np.abs(J - jv(np.arange(J.size), x)).max() < 1e-14, x
        assert J.size > abs(x) and abs(jv(J.size, x)) < 1e-16, x
    assert np.array_equal(_bessel_series(0.0), [1.0])
    rng = np.random.default_rng(5)
    for name, kw in (("kolmogorov", dict(L=2.0, k=1, M=8)),
                     ("kinetic", dict(k=1, N=12))):
        prob = mx.build_model(name, **kw)
        g = rng.standard_normal(prob.size) + 1j * rng.standard_normal(prob.size)
        assert np.array_equal(prob.op.flow(0.0)(g), g), name


def test_matrix_families_run_no_eigensolver(monkeypatch):
    """Building and stepping the Kolmogorov and kinetic models (d = 1, 2)
    runs no dense eigensolver: flow, apply_B and step_viscous work with
    numpy's eigh, eigvalsh and eig raising."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    for name in ("eigh", "eigvalsh", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for name, kw in (("kolmogorov", dict(L=2.0, k=1, M=64)),
                     ("kinetic", dict(k=1, N=40)),
                     ("kinetic", dict(k=(1, 2), N=8, d=2))):
        prob = mx.build_model(name, **kw)
        f = mx.initial_datum(prob, "random-h1", seed=2)
        g = prob.op.to_internal(f)
        assert np.isfinite(prob.op.flow(0.1)(g)).all()
        assert np.isfinite(prob.apply_B(f)).all()
        assert np.isfinite(mx.step_viscous(prob, f, 1e-2, 0.1)).all()


def _series_flow(op, t):
    """exp(-Bt) as the series summed term by term at each step."""
    return op._series(t)[1]


def _widest_band_times(op):
    """Two close times: the band of the first fits the matrix,
    2w + 1 <= n, and the band of the second does not (bisection on the
    series length; st = n/2 takes more than n/2 terms)."""
    n = op.lam.size
    lo, hi = 0.0, n / (2.0 * op.radius)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if 2 * (op._series(mid)[0].size - 1) * op.width + 1 <= n:
            lo = mid
        else:
            hi = mid
    return lo, hi


_BANDED = [("kolmogorov", dict(L=2.0, k=1, M=64)),
           ("kolmogorov", dict(L=2.0, k=1, M=256)),
           ("kinetic", dict(k=1, N=12)), ("kinetic", dict(k=1, N=64))]


@pytest.mark.parametrize("name, kw", _BANDED,
                         ids=["kolmogorov-64", "kolmogorov-256", "kinetic-12",
                              "kinetic-64"])
def test_band_flow_equals_the_series(name, kw):
    """At the step sizes ds/16 to ds of the step policy and at a t whose
    band reaches the matrix width, the band's blocks (where the band fits,
    2w + 1 <= n), put back as one dense matrix, and the flow equal the
    series summed at each step to 1e-13; past that width the flow is the
    series."""
    prob = mx.build_model(name, **kw)
    op, n = prob.op, prob.size
    rng = np.random.default_rng(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ds = default_dt(prob, 1e3)
    wide, too_wide = _widest_band_times(op)
    for t in (ds / 16, ds / 8, ds / 4, ds / 2, ds, wide):
        J, series = op._series(t)
        ref = _series_flow(op, t)(g)
        tol = 1e-13 * np.linalg.norm(ref)
        w = (J.size - 1) * op.width
        if 2 * w + 1 <= n:
            blocks, windows = op._band(series, w)
            dense = np.zeros((blocks.shape[0], BLOCK, n), complex)
            for block, out, cols in zip(blocks, dense, windows):
                np.add.at(out.T, cols, block.T)  # clipped columns hold 0
            assert np.linalg.norm(dense.reshape(-1, n)[:n] @ g - ref) \
                <= tol, t
        assert np.linalg.norm(op.flow(t)(g) - ref) <= tol, t
    assert n - 2 * op.width < 2 * w + 1 <= n
    assert np.array_equal(op.flow(too_wide)(g), _series_flow(op, too_wide)(g))


def test_ladder_add_on_a_block_is_the_product_row_by_row():
    """On a (k, n) block, slice and index-array ladders add H to each row
    as they do to that row alone."""
    from mixlab.models import _ladder_add

    rng = np.random.default_rng(12)
    for name, kw in (("kolmogorov", dict(L=2.0, k=1, M=8)),
                     ("kinetic", dict(k=(1, -2), N=6, d=2))):
        op = mx.build_model(name, **kw).op
        block, out = (rng.standard_normal((5, op.lam.size))
                      + 1j * rng.standard_normal((5, op.lam.size))
                      for _ in range(2))
        rows = [_ladder_add(op.ladders, b, o.copy()) for b, o in zip(block, out)]
        assert np.array_equal(_ladder_add(op.ladders, block, out), rows), name


def test_ladder_free_skew_matrix_steps_as_the_identity():
    """A SkewMatrix with no ladders (B = 0) flows as the identity at every
    t, and its Strang step is the diffusion alone."""
    from mixlab.evolution import _strang_step
    from mixlab.models import ModelProblem, SkewMatrix

    lam = np.array([1.0, 2.0, 5.0])
    op = SkewMatrix(lam, np.ones(3), [])
    assert (op.radius, op.width, op.nnz) == (0.0, 0, 0)
    g = np.array([1.0 - 2.0j, 0.5j, 3.0])
    for t in (0.0, 0.5, -3.0):
        assert np.array_equal(op.flow(t)(g), g), t
    prob = ModelProblem("ladder-free", {}, op, 0.0, 1.0, None, None, None)
    assert _strang_step(prob, 0.1, 0.5)(g) == pytest.approx(
        np.exp(-0.05 * lam) * g, rel=1e-15)


def test_wide_ladders_form_no_band():
    """Kinetic d = 2 ladders are wide (up to N + 1 between coupled
    modes), so its flow sums the series and forms no band: a band at
    ds would hold 53 MB."""
    import tracemalloc

    prob = mx.build_model("kinetic", d=2, N=64)
    ds = default_dt(prob, 1e3)
    tracemalloc.start()
    try:
        prob.op.flow(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kinetic_bound_is_the_gershgorin_radius(d):
    """Kinetic bound_B is the op's Gershgorin radius, the largest absolute
    row sum of v.k, which bounds its spectrum."""
    k = (1.0, -0.5, 2.0)[:d]
    prob = mx.build_model("kinetic", k=k, N=8, d=d)
    _, K = _kinetic_ladder(k, 8, d)
    assert prob.bound_B == prob.op.radius
    assert prob.bound_B == pytest.approx(np.abs(K).sum(axis=1).max(),
                                         rel=1e-14)
    assert prob.bound_B >= np.abs(np.linalg.eigvalsh(K)).max()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["kolmogorov", "kinetic", "kinetic-d2"]),
       L=st.floats(1.5, 4.0), k=st.sampled_from([1, 2, 3]),
       size=st.integers(2, 10), t=st.floats(0.0, 5.0),
       s=st.floats(0.0, 5.0))
def test_skew_matrix_flow_is_the_exponential(family, L, k, size, t, s):
    """For Kolmogorov (L, k, M) and kinetic (k, N; d = 1, and d = 2 with
    k = (k, -L)) models, op.flow(t) is expm(-B t) of the operator built
    from its definition, preserves the flat norm and composes:
    flow(s) flow(t) = flow(s + t)."""
    from scipy.linalg import expm

    kw = {"kolmogorov": dict(L=L, k=k, M=size),
          "kinetic": dict(k=k, N=size),
          "kinetic-d2": dict(k=(k, -L), N=size, d=2)}[family]
    family = family.removesuffix("-d2")
    op = mx.build_model(family, **kw).op
    _, B, _ = _flat_operators(family, **kw)
    rng = np.random.default_rng(size)
    g = rng.standard_normal(op.lam.size) + 1j * rng.standard_normal(op.lam.size)
    out = op.flow(t)(g)
    norm = np.linalg.norm(g)
    assert np.linalg.norm(out - expm(-B * t) @ g) <= 1e-12 * norm
    assert abs(np.linalg.norm(out) - norm) <= 1e-12 * norm
    assert np.linalg.norm(op.flow(s)(out) - op.flow(s + t)(g)) \
        <= 1e-12 * norm


def test_trace_io_roundtrip(tmp_path):
    prob = mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=16)
    f0 = mx.initial_datum(prob, "random-h1", seed=4)
    tr = mx.evolve(prob, f0, 1e-3, 2.0, dt=0.01, sample_every=5)
    path = tmp_path / "trace.npy"
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
    # the sidecar is part of the trace: one that lacks a field, or none,
    # is refused rather than read as nu = 0
    sidecar = tmp_path / "trace.json"
    meta = json.loads(sidecar.read_text())
    del meta["nu"]
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="trace.json lacks nu"):
        mx.read_trace(path)
    sidecar.unlink()
    with pytest.raises(FileNotFoundError, match="trace.json"):
        mx.read_trace(path)


def test_a_norm_table_round_trips_bit_for_bit(tmp_path):
    """np.load reads back the float64 (n, 4) table write_norms wrote, bit
    for bit, on zeros of both signs, subnormals, huge values and
    non-finite ones, with no rows, and with 9000 rows."""
    from mixlab.evolution import write_norms

    col = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
                    1.0 / 3.0, -2.5, 1e22, 1e300, 1.7976931348623157e308,
                    np.inf, np.nan])
    long = np.random.default_rng(0).standard_normal((4, 9000))
    for cols in ((col, col[::-1], np.roll(col, 3), -col / 7.0),
                 (np.empty(0),) * 4, tuple(long)):
        write_norms(tmp_path / "a.npy", *cols)
        back = np.load(tmp_path / "a.npy")
        assert back.dtype == np.float64 and back.shape == (len(cols[0]), 4)
        assert np.array_equal(back.view(np.uint64),
                              np.column_stack(cols).view(np.uint64))


def test_step_control_at_its_cap_warns(monkeypatch):
    """A controller held at MAX_SUBSTEPS steps per sample interval runs on
    and says that the splitting error may exceed its budget."""
    prob = mx.build_model("shear", M=32)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    warning = "step control reached 1 steps per sample interval"
    tr = mx.evolve(prob, f0, 1e-3, 20.0)
    assert not any(w.startswith(warning) for w in tr.meta["warnings"])
    monkeypatch.setattr(evolution, "MAX_SUBSTEPS", 1)
    tr = mx.evolve(prob, f0, 1e-3, 20.0)
    assert tr.meta["max_steps_per_sample"] == tr.meta["sample_stride"]
    assert any(w.startswith(warning) for w in tr.meta["warnings"])


def test_short_runs_keep_the_uniform_sample_grid():
    """A controlled run that ends before t = 2 K0 ds samples every ds and
    steps as it did before the stride could grow: the values below were
    recorded on that uniform grid (K0 = 2000, t_end = 499.5)."""
    prob = mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=32)
    f0 = mx.initial_datum(prob, "random-h1", seed=3)
    ds = default_dt(prob, 1e4)
    n = 2 * evolution.K0
    t_end = (n - 1) * ds
    assert t_end < 2 * evolution.K0 * ds
    tr = mx.evolve(prob, f0, 1e-4, t_end)
    assert len(tr) == n and tr.meta["sample_stride"] == 1
    assert np.array_equal(tr.times, np.arange(n) * ds)
    assert tr.h[617] == pytest.approx(0.07021473861181327, rel=1e-12)
    assert tr.h[-1] == pytest.approx(0.0265388730626569, rel=1e-12)
    assert tr.meta["n_steps"] == 1259 and tr.dt == ds / 2


def test_the_sample_stride_grows_with_elapsed_time(monkeypatch):
    """With K0 = 100, a deep shear run samples every ds up to t = 2 K0 ds,
    then every 2^i ds, never more than max(ds, t/K0) apart; its tau and
    1/rate agree to 1e-5 with the same run on the uniform grid, which
    takes more steps."""
    prob = mx.build_model("shear", profile="sin", gamma=2.0, k=1, M=64)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    ds = default_dt(prob, 1e4)
    runs = []
    for k0 in (100, 10**9):
        monkeypatch.setattr(evolution, "K0", k0)
        runs.append(mx.evolve(prob, f0, 1e-5, 1e4, stop_ratio=1e-3))
    tr, ref = runs
    assert tr.meta["stop_reason"] == ref.meta["stop_reason"] == "stop_ratio"
    units = np.diff(tr.times) / ds
    np.testing.assert_allclose(units, np.rint(units), rtol=0, atol=1e-9)
    units = np.rint(units).astype(int)
    assert np.all(units[:200] == 1) and units[200] == 2
    assert np.all(units & (units - 1) == 0)  # powers of two
    assert np.all(units * ds <= np.maximum(ds, tr.times[:-1] / 100) + 1e-9)
    assert np.all(np.diff(units) >= 0)
    assert tr.meta["sample_stride"] == units[-1] > 8
    assert mx.tau_threshold(tr) == pytest.approx(mx.tau_threshold(ref),
                                                 rel=1e-5)
    assert mx.fit_decay_rate(tr.times, tr.h).rate == pytest.approx(
        mx.fit_decay_rate(ref.times, ref.h).rate, rel=1e-5)
    assert tr.meta["n_steps"] < ref.meta["n_steps"]


def test_exact_runs_take_one_step_per_grown_interval(monkeypatch):
    """nu = 0 and heat runs take one step per sample interval also after
    the stride grows (K0 = 4), and stay exact: their norms match the
    uniform-grid run at the shared times."""
    shear = mx.build_model("shear", profile="sin", k=1, M=16)
    heat = mx.build_model("heat", k=1, M=16)
    for prob, nu in ((shear, 0.0), (heat, 1e-2)):
        f0 = mx.initial_datum(prob, "single-mode-m1")
        monkeypatch.setattr(evolution, "K0", 10**9)
        ref = mx.evolve(prob, f0, nu, 20.0)
        monkeypatch.setattr(evolution, "K0", 4)
        tr = mx.evolve(prob, f0, nu, 20.0)
        assert tr.meta["sample_stride"] > 1
        assert tr.meta["n_steps"] == len(tr) - 1 < ref.meta["n_steps"]
        assert tr.meta["max_steps_per_sample"] == 1
        assert tr.meta["err_est"] == 0.0
        at = np.searchsorted(ref.times, tr.times - 1e-9)
        np.testing.assert_allclose(ref.times[at], tr.times, rtol=1e-13)
        np.testing.assert_allclose(tr.h, ref.h[at], rtol=1e-12)
        np.testing.assert_allclose(tr.h1, ref.h1[at], rtol=1e-12)


def test_a_horizon_past_2_63_intervals_runs_as_a_shorter_one():
    """Nothing in the run is sized by its horizon: a run to t_end = 1e19,
    2e19 intervals of ds, that stop_ratio ends at t = 110 is the run to
    t_end = 1e6, sample for sample."""
    prob = mx.build_model("shear", M=64)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    far, near = (mx.evolve(prob, f0, 1e-2, t_end, stop_ratio=1e-3)
                 for t_end in (1e19, 1e6))
    assert far.meta["stop_reason"] == "stop_ratio" and len(far) == 221
    for name in ("times", "h", "h1", "hm1", "occupancy", "final_state"):
        assert np.array_equal(getattr(far, name), getattr(near, name))
    assert far.meta == near.meta and far.dt == near.dt


def test_a_short_last_interval_after_a_doubling_steps_as_before(monkeypatch):
    """With K0 = 2 the stride doubles at j = 4 and at j = 8; a run of 11
    intervals of ds ends with a span of 3 units, between the stride 2 and
    its double 4. It is stepped, checked and recorded as it was when the
    sample grid was a list made before the run: these values were
    recorded then."""
    monkeypatch.setattr(evolution, "K0", 2)
    prob = mx.build_model("shear", M=16)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    tr = mx.evolve(prob, f0, 1e-2, 10.5 * 0.5)
    assert np.array_equal(tr.times / 0.5, [0, 1, 2, 3, 4, 6, 8, 11])
    np.testing.assert_allclose(tr.h, [
        0.7071067811865475, 0.6999277791157607, 0.6919941652972816,
        0.6825802940564781, 0.6710852551159082, 0.6402203032670467,
        0.5979795171139428, 0.5176789924648345], rtol=1e-13)
    assert tr.meta["n_steps"] == 239 and tr.meta["sample_stride"] == 3
    assert tr.meta["max_steps_per_sample"] == 64 and tr.dt == 0.03125


def test_a_long_run_keeps_every_sample(monkeypatch):
    """The sample buffer grows with the run: 9000 intervals at one stride
    (K0 out of reach) fill it several times over, and every sample is
    kept, in order, on the exact decay of a single heat mode."""
    monkeypatch.setattr(evolution, "K0", 10**9)
    heat = mx.build_model("heat", k=1, M=8)
    f0 = mx.initial_datum(heat, "single-mode-m1")
    tr = mx.evolve(heat, f0, 0.05, 9.0, dt=1e-3)
    assert len(tr) == 9001 and tr.meta["n_steps"] == 9000
    assert np.array_equal(tr.times, np.arange(9001) * 1e-3)
    pred = tr.h[0] * np.exp(-0.05 * 2.0 * tr.times)
    np.testing.assert_allclose(tr.h, pred, rtol=1e-11)
    np.testing.assert_allclose(tr.h1, np.sqrt(2.0) * tr.h, rtol=1e-14)
    assert tr.occupancy.shape == (9001,) and not tr.occupancy.any()


def test_a_run_whose_norm_underflows_stops_and_says_so():
    """h^2 below the smallest normal double has lost precision, and on
    would read h = 0 with a nonzero state and an estimate of nan: the run
    stops at the first such sample, with a warning, before the step
    control runs up to its cap (101,129 steps to the first h = 0)."""
    prob = mx.build_model("shear", M=8)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    tr = mx.evolve(prob, f0, 0.1, 1.05 * 1477)
    assert tr.meta["stop_reason"] == "underflow"
    assert np.all(tr.h > 0) and tr.h[-1] ** 2 < np.finfo(float).tiny
    assert np.all(tr.h[:-1] ** 2 >= np.finfo(float).tiny)
    assert tr.meta["n_steps"] <= 101_129
    assert [w for w in tr.meta["warnings"] if "underflowed" in w]
    assert not [w for w in tr.meta["warnings"] if "step control" in w]
    # the zero state has no norm to lose: it runs to t_end
    zero = mx.evolve(prob, np.zeros_like(f0), 0.1, 5.0)
    assert zero.meta["stop_reason"] == "t_end" and not zero.h.any()


def test_the_top_band_share_is_at_most_one():
    """An inner state's top-band energy is charged against the next
    sample's h^2, which is smaller: on the spiral at N = 1 (nu = 1e-2, to
    t = 1) the charge reads 1.0202 h^2. Every true share is at most 1, so
    the share is capped there, and the run is still flagged."""
    prob = mx.build_model("spiral", N=1)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    tr = mx.evolve(prob, f0, 1e-2, 1.0)
    assert tr.occupancy.max() == tr.meta["occupancy_max"] == 1.0
    assert "top-band occupancy reached 100.0%: spectral truncation may be " \
        "felt; raise the resolution" in tr.meta["warnings"]


def test_a_run_ends_at_the_first_multiple_of_ds_at_or_past_t_end():
    """The last sample is at ceil(t_end/ds) ds. Kinetic N = 2 to t = 1
    steps in units ds = 0.5/bound_B and ends at 3 ds = 1.06066, past t =
    1; an explicit dt ends at ceil(t_end/dt) dt, at t_end when dt divides
    it."""
    prob = mx.build_model("kinetic", N=2)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    ds = default_dt(prob, 1.0)
    assert ds == 0.5 / prob.bound_B
    tr = mx.evolve(prob, f0, 1e-2, 1.0)
    assert tr.times[-1] == 3 * ds
    assert tr.times[-1] == pytest.approx(1.06066, abs=1e-5)
    assert mx.evolve(prob, f0, 1e-2, 1.0, dt=0.3).times[-1] == 4 * 0.3
    assert mx.evolve(prob, f0, 1e-2, 1.0, dt=0.25).times[-1] == 1.0


def test_energy_residual_needs_three_samples():
    heat = mx.build_model("heat", M=8)
    f0 = mx.initial_datum(heat, "single-mode-m1")
    tr = mx.evolve(heat, f0, 0.1, 1.0, dt=1.0)
    assert len(tr) == 2
    with pytest.raises(ValueError, match="at least 3 samples"):
        mx.energy_residual(tr)


def test_the_top_band_monitor_sees_between_samples(monkeypatch):
    """A shear run (gamma = 2, M = 32, nu = 1e-6) to t = 2e4, about where
    h reaches 1e-3 h(0), at a fixed step, so that every grid steps through
    the same states. Its top-band share peaks near t = 17585, where the
    stride of K0 = 500 has grown to 64 ds: the share charged from the
    states between samples reads at least the peak of the uniform grid (K0
    out of reach: one step an interval, no state between samples) and more
    than the samples of K0 = 500 alone."""
    prob = mx.build_model("shear", gamma=2.0, M=32)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    runs = []
    for k0 in (evolution.K0, 10**9):
        monkeypatch.setattr(evolution, "K0", k0)
        runs.append(mx.evolve(prob, f0, 1e-6, 2e4, dt=0.5))
    tr, ref = runs
    assert tr.meta["occupancy_max"] >= ref.meta["occupancy_max"]
    sampled = np.isin(ref.times, tr.times)
    assert sampled.sum() == len(tr)
    assert tr.meta["occupancy_max"] > ref.occupancy[sampled].max()


def test_a_hermite_tau_on_the_grown_grid_matches_the_uniform_grid(
        monkeypatch):
    """A shear run at a fixed step (so both grids sample the same
    states), crossing e^-1 at t = 1451 on a stride grown to 4 ds: its
    Hermite tau is within 1e-6 of the uniform grid's (K0 out of reach),
    where the linear crossing on the grown grid is not."""
    prob = mx.build_model("shear", gamma=2.0, M=32)
    f0 = mx.initial_datum(prob, "single-mode-m1")
    runs = []
    for k0 in (evolution.K0, 10**9):
        monkeypatch.setattr(evolution, "K0", k0)
        runs.append(mx.evolve(prob, f0, 2e-6, 1e4, dt=0.5,
                              stop_ratio=np.exp(-1.5)))
    tr, ref = runs
    tau = mx.tau_threshold(ref)
    assert tr.meta["sample_stride"] > 1 == ref.meta["sample_stride"]
    assert mx.tau_threshold(tr) == pytest.approx(tau, rel=1e-6)
    linear = mx.tau_threshold(dataclasses.replace(tr, nu=0.0))
    assert linear != pytest.approx(tau, rel=1e-6)
