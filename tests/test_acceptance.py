"""Acceptance suite: eight end-to-end checks on the whole laboratory.

Each test prints a single ``[criterion N] PASS/FAIL`` line outside
pytest's capture, so a full run always shows the per-criterion verdicts,
then asserts. The viscosity sweeps are shared module-scoped fixtures;
the suite runs in a few minutes.
"""

import json
import os

import numpy as np
import pytest

import mixlab as mx
from mixlab import cli

NUS = tuple(np.geomspace(1e-6, 1e-3, 8))
RES = 256


def _report(capsys, idx, ok, text):
    with capsys.disabled():
        print(f"[criterion {idx}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def sweep_root(tmp_path_factory):
    return tmp_path_factory.mktemp("sweeps")


def _sweep(root, name, **kw):
    cfg = mx.SweepConfig(out_dir=str(root / name), resolution=RES, **kw)
    return mx.run_sweep(cfg)


@pytest.fixture(scope="module")
def heat_sweep(sweep_root):
    return _sweep(sweep_root, "heat", model="heat", nus=NUS)


@pytest.fixture(scope="module")
def shear2_sweep(sweep_root):
    return _sweep(sweep_root, "shear2", model="shear", nus=NUS, gammas=(2.0,))


@pytest.fixture(scope="module")
def shear1_sweep(sweep_root):
    return _sweep(sweep_root, "shear1", model="shear", nus=NUS, gammas=(1.0,))


@pytest.fixture(scope="module")
def spiral_sweep(sweep_root):
    return _sweep(sweep_root, "spiral", model="spiral", nus=NUS, alphas=(1.0,))


@pytest.fixture(scope="module")
def kscaling_sweep(sweep_root):
    return _sweep(sweep_root, "kscaling", model="spiral", nus=(1e-4,),
                  ks=(1, 2, 4, 8), alphas=(1.0,))


# -- 1: the integrator reproduces the closed-form inviscid solutions -------

def test_criterion_1_inviscid_exactness(capsys):
    cases = [mx.build_model("spiral", alpha=1.0, N=256),
             mx.build_model("spiral", alpha=4.0, N=256),
             mx.build_model("shear", profile="sin", M=512)]
    worst = 0.0
    for problem in cases:
        f0 = mx.initial_datum(problem, "gaussian-bump")
        trace = mx.evolve(problem, f0, 0.0, 50.0)
        exact = mx.exact_inviscid(problem, f0, float(trace.times[-1]))
        worst = max(worst, problem.sobolev(trace.final_state - exact, 0.0))
    _report(capsys, 1, worst < 1e-10,
            f"integrator vs closed-form inviscid flow at t=50: "
            f"worst H error {worst:.2e} (< 1e-10 required)")


# -- 2: discrete energy balance and inviscid norm conservation -------------

def test_criterion_2_energy_identity(capsys):
    heat = mx.build_model("heat", M=64)
    f0 = mx.initial_datum(heat, "single-mode-m1")
    trace = mx.evolve(heat, f0, 0.05, 10.0, dt=1e-3)
    resid = mx.energy_residual(trace)

    drifts = []
    for problem, tol in [
        (mx.build_model("shear", M=128), 1e-10),
        (mx.build_model("spiral", N=256), 1e-10),
        (mx.build_model("kolmogorov", L=2.0, M=128), 1e-8),
        (mx.build_model("kinetic", N=40), 1e-8),
    ]:
        g0 = mx.initial_datum(problem, "random-h1", seed=11)
        tr = mx.evolve(problem, g0, 0.0, 10.0, dt=1e-3)
        drifts.append((float(np.max(np.abs(tr.h - tr.h[0])) / tr.h[0]), tol))
    ok = resid < 1e-6 and all(d < tol for d, tol in drifts)
    worst = max(d for d, _ in drifts)
    _report(capsys, 2, ok,
            f"viscous energy-balance residual {resid:.2e} (< 1e-6); worst "
            f"inviscid norm drift over 1e4 steps {worst:.2e}")


# -- 3: inviscid mixing rates in the dual norm -----------------------------

def test_criterion_3_mixing_rates(capsys):
    times = np.geomspace(10.0, 1e3, 40)
    shear = mx.shear_mixing_series(times, profile="sin", gamma=2.0, k=1,
                                   M=2048)
    p_shear = mx.fit_power_law(times, shear["hm1"]).rate
    sp1 = mx.spiral_mixing_series(times, alpha=1.0, k=1, N=8192)
    p_sp1 = mx.fit_power_law(times, sp1["hm1"]).rate
    sp4 = mx.spiral_mixing_series(times, alpha=4.0, k=1, N=8192)
    p_sp4 = mx.fit_power_law(times, sp4["hm1"]).rate
    ok = 0.4 < p_shear < 0.6 and 0.9 < p_sp1 < 1.1 and 0.4 < p_sp4 < 0.6
    _report(capsys, 3, ok,
            f"dual-norm decay exponents: shear {p_shear:.3f} (predicted "
            f"0.5), spiral alpha=1 {p_sp1:.3f} (1.0), alpha=4 {p_sp4:.3f} "
            f"(0.5)")


# -- 4: enhanced-dissipation exponents from viscosity sweeps ---------------

def test_criterion_4_enhanced_dissipation(capsys, heat_sweep, shear2_sweep,
                                          shear1_sweep, spiral_sweep):
    sweeps = {"heat": heat_sweep, "shear g=2": shear2_sweep,
              "shear g=1": shear1_sweep, "spiral a=1": spiral_sweep}
    rows_ok = all(r.status == "ok"
                  for s in sweeps.values() for r in s.rows)
    q = {name: {basis: mx.ed_exponent(
                    mx.timescale_pairs(s.rows, basis)).rate
                for basis in ("crossing", "rate")}
         for name, s in sweeps.items()}
    q_pred = {name: s.rows[0].q_pred for name, s in sweeps.items()}
    # every measured exponent is at most the predicted one (plus fit slack)
    within_pred = all(q[name][b] <= q_pred[name] + 0.05
                      for name in sweeps for b in ("crossing", "rate"))
    heat_exact = all(abs(q["heat"][b] - 1.0) <= 0.01
                     for b in ("crossing", "rate"))
    shear2_rate = 0.45 <= q["shear g=2"]["rate"] <= 0.55
    ok = rows_ok and within_pred and heat_exact and shear2_rate
    detail = ", ".join(
        f"{name}: {q[name]['crossing']:.2f}/{q[name]['rate']:.2f} "
        f"(pred {q_pred[name]:.2f})" for name in sweeps)
    _report(capsys, 4, ok,
            f"q measured (crossing/rate) vs predicted -- {detail}")


# -- 5: time-scales collapse under the predicted wavenumber scaling --------

def test_criterion_5_wavenumber_scaling(capsys, kscaling_sweep):
    rows = [r for r in kscaling_sweep.rows if r.status == "ok"]
    complete = len(rows) == 4
    q = rows[0].q_pred
    scaled = [r.tau * abs(r.k) ** (1.0 - q) for r in rows]
    spread = max(scaled) / min(scaled)
    ok = complete and spread < 2.0
    _report(capsys, 5, ok,
            f"tau * k^(1-q) over k in (1,2,4,8) at nu=1e-4: spread "
            f"{spread:.3f} (< 2 required)")


# -- 6: every sweep row satisfies the explicit decay bound -----------------

def test_criterion_6_decay_bounds(capsys, shear2_sweep, shear1_sweep,
                                  spiral_sweep):
    verdicts = []
    for sweep in (shear2_sweep, shear1_sweep, spiral_sweep):
        rc = cli.main(["verify-bound", sweep.out_dir])
        with open(os.path.join(sweep.out_dir, "bounds.json")) as fh:
            rep = json.load(fh)
        passed = [row["passed"] for row in rep["rows"]]
        verdicts.append(rc == 0 and len(passed) == len(NUS) and all(passed))
    ok = all(verdicts)
    _report(capsys, 6, ok,
            f"decay bound holds on all {3 * len(NUS)} rows across shear "
            f"g=2, shear g=1 and spiral sweeps: {verdicts}")


# -- 7: structural invariants of the discretized operators -----------------

def _disk_matrix(N, k):
    """Dense radial operator assembled longhand, face by face."""
    dr = 1.0 / N
    r = (np.arange(1, N + 1) - 0.5) * dr
    A = np.zeros((N, N))
    for j in range(N):
        rm = j * dr  # inner face (zero measure at the pole)
        rp = (j + 1) * dr if j < N - 1 else 0.0  # no flux through r = 1
        A[j, j] = (rm + rp) / (r[j] * dr * dr) + k * k / (r[j] * r[j])
        if j < N - 1:
            re = (j + 1) * dr
            A[j, j + 1] = A[j + 1, j] = -re / (
                dr * dr * np.sqrt(r[j] * r[j + 1]))
    return r, dr, A


def test_criterion_7_operator_invariants(capsys):
    rng = np.random.default_rng(7)

    # (a) dual norm against a dense solve and its variational definition
    problem = mx.build_model("spiral", alpha=1.0, N=16)
    r, dr, A = _disk_matrix(16, 1)
    w = r * dr
    worst_dual = 0.0
    for _ in range(50):
        f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        g = np.sqrt(w) * f
        brute = float(np.sqrt(np.real(np.vdot(g, np.linalg.solve(A, g)))))
        model = problem.sobolev(f, -1.0)
        worst_dual = max(worst_dual, abs(brute - model) / brute)
        # no test function beats the sup, and the maximizer attains it
        for _ in range(4):
            eta = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            val = abs(problem.inner(f, eta)) / problem.sobolev(eta, 1.0)
            assert val <= model * (1.0 + 1e-10)
        eta_star = np.linalg.solve(A, g) / np.sqrt(w)
        attained = abs(problem.inner(f, eta_star)) / \
            problem.sobolev(eta_star, 1.0)
        worst_dual = max(worst_dual, abs(attained - model) / model)
    dual_ok = worst_dual < 1e-10

    # torus variant: the sup is attained with a diagonal operator too
    shear = mx.build_model("shear", M=16)
    for _ in range(50):
        f = rng.standard_normal(shear.size) + 1j * rng.standard_normal(shear.size)
        model = shear.sobolev(f, -1.0)
        eta_star = f / shear.op.lam
        attained = abs(shear.inner(f, eta_star)) / \
            shear.sobolev(eta_star, 1.0)
        dual_ok &= abs(attained - model) / model < 1e-10

    # (b) frequency-splitting inequalities on random states of every model
    problems = [mx.build_model("shear", M=16),
                mx.build_model("kolmogorov", L=2.0, k=1, M=16),
                mx.build_model("spiral", N=32),
                mx.build_model("kinetic", N=12)]
    split_ok = True
    for problem in problems:
        lam = problem.op.lam
        for _ in range(250):
            c = rng.standard_normal(problem.size) \
                + 1j * rng.standard_normal(problem.size)
            for s in (0.5, 1.0, 2.0):
                for R in (problem.lam1, float(np.median(lam)), lam.max()):
                    low = problem.project_low(c, R)
                    high = c - low
                    lhs1 = problem.sobolev(low, 0.0) ** 2
                    rhs1 = R**s * problem.sobolev(c, -s) ** 2
                    lhs2 = R**s * problem.sobolev(high, 0.0) ** 2
                    rhs2 = problem.sobolev(c, s) ** 2
                    split_ok &= lhs1 <= rhs1 * (1.0 + 1e-12)
                    split_ok &= lhs2 <= rhs2 * (1.0 + 1e-12)

    # (c) skew-adjointness and the advection-dissipation bounds
    skew_worst = 0.0
    comm_ok = True
    for problem in problems:
        for _ in range(250):
            f = rng.standard_normal(problem.size) \
                + 1j * rng.standard_normal(problem.size)
            bf = problem.apply_B(f)
            h = problem.sobolev(f, 0.0)
            h1 = problem.sobolev(f, 1.0)
            skew_worst = max(skew_worst,
                             abs(np.real(problem.inner(bf, f))) / h**2)
            cross = abs(np.real(problem.inner(bf, problem.apply_A(f))))
            comm_ok &= cross <= problem.c_B * h1**2 * (1.0 + 1e-9)
            if problem.mixed_bound is not None:
                comm_ok &= cross <= problem.mixed_bound * h * h1 * (1.0 + 1e-9)
    skew_ok = skew_worst < 1e-12

    # (d) the H^1 energy inequality holds along viscous trajectories
    energy_ok = True
    worst_margin = -np.inf
    for gamma in (0.5, 1.0, 1.5):
        problem = mx.build_model("shear", gamma=gamma, M=64)
        f0 = mx.initial_datum(problem, "random-h1", seed=3)
        for nu in (1e-2, 1e-3):
            tr = mx.evolve(problem, f0, nu, 5.0, dt=2e-3, sample_every=1,
                           extras=("h2",))
            h1sq = tr.h1**2
            h2sq = tr.extras["h2"] ** 2
            step = np.diff(tr.times)
            lhs = np.diff(h1sq) / step + nu * (h2sq[:-1] + h2sq[1:])
            rhs = (2.0 + gamma) * problem.c_B * (h1sq[:-1] + h1sq[1:])
            margin = float(np.max(lhs - rhs))
            worst_margin = max(worst_margin, margin)
            energy_ok &= margin <= float(np.max(step))

    ok = dual_ok and split_ok and skew_ok and comm_ok and energy_ok
    _report(capsys, 7, ok,
            f"dual-norm sup (worst rel err {worst_dual:.1e}), frequency "
            f"splitting, skew-adjointness (worst {skew_worst:.1e}), "
            f"advection-dissipation bounds, H1 energy inequality "
            f"(worst margin {worst_margin:+.2f})")


# -- 8: decay constants and exponent formulas at reference arguments -------

def test_criterion_8_constants_and_exponents(capsys):
    checks = [
        mx.q_from_p(1.0) == 2.0 / 3.0,
        mx.constant_c0_poly(1.0, 1.0, 0.0) == 1.0 / 512.0,
        mx.constant_c0_exp(1.0, 1.0, 32.0, 0.0) == 1.0 / 128.0,
        mx.exp_mixing_nu_threshold(1.0, 1.0, 32.0) == float(np.exp(-1.0)),
        abs(mx.constant_cs(1.0, 1.0, 1.0, 0.0, 1.0) * 256.0 - 1.0) < 1e-12,
        mx.q_s_exponent(1.0, 0.5) == mx.q_from_p(0.5),
        mx.q_s_exponent(2.0, 1.0) == 0.8,
    ]
    shear2 = mx.build_model("shear", M=8)
    checks += [shear2.p == 0.5, shear2.q == 0.8]
    spiral = mx.build_model("spiral", N=16)
    checks += [spiral.p == 1.0, spiral.q == 0.6]
    kol = mx.build_model("kolmogorov", L=2.0, M=8)
    checks += [kol.q == mx.q_from_p(1.0), kol.alt_q == 0.6]
    heat = mx.build_model("heat", M=8)
    checks += [heat.p is None, heat.q == 1.0]
    ok = all(checks)
    _report(capsys, 8, ok,
            f"{sum(checks)}/{len(checks)} reference constants and exponent "
            f"formulas match exactly")
