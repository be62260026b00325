"""Command-line interface.

Every subcommand is a thin shell over the library: build a model, run the
flow or load a sweep directory, fit, write artifacts. Exit status is 0 on
success, 1 on usage errors (bad flags, bad model parameters, missing
inputs), 2 on numerical failures (NaN, unresolved rows, a decay bound that
does not hold).
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from ._svg import line_plot_svg
from .diagnostics import THETA_DEFAULT, ed_exponent, fit_mixing_amplitude, \
    fit_power_law, theorem_bound_check, timescale_pairs
from .evolution import EvolutionError, evolve, read_trace, write_trace
from .models import FAMILIES, build_model, initial_datum, model_params, \
    predicted_rates, shear_mixing_series, spiral_mixing_series
from .sweep import SweepConfig, load_sweep, row_key, run_sweep


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; reserve 2 for numerics."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_model_flags(p, models=tuple(FAMILIES)):
    p.add_argument("--model", required=True, choices=models)
    p.add_argument("--profile", default="sin",
                   help="shear profile name or CSV path (default: sin)")
    p.add_argument("--gamma", type=float, default=2.0,
                   help="dissipation order for the shear model")
    p.add_argument("--n0", type=int, default=None,
                   help="maximal critical-point degeneracy of the profile "
                        "(inferred for the built-in profiles)")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="swirl exponent for the spiral model")
    p.add_argument("--L", type=float, default=2.0,
                   help="torus aspect ratio for the Kolmogorov model")
    p.add_argument("--k", type=int, default=1, help="wavenumber")
    p.add_argument("--d", type=int, default=1,
                   help="space dimension for the kinetic model")


def _out_dir(args, default=".") -> str:
    out = args.out or default
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    problem = build_model(args.model, **model_params(args.model, vars(args)))
    f0 = initial_datum(problem, args.datum, seed=args.seed)
    trace = evolve(problem, f0, args.nu, args.t_end,
                   sample_every=args.sample_every, stop_ratio=args.stop_ratio)
    out = _out_dir(args)
    key = row_key(args.model, {
        "alpha": args.alpha if args.model == "spiral" else None,
        "gamma": args.gamma if args.model == "shear" else None,
        "k": args.k, "nu": args.nu})
    path = os.path.join(out, f"trace_{key}.csv")
    write_trace(trace, path)
    print(f"model={args.model} nu={args.nu:g} dt={trace.dt:g} "
          f"samples={len(trace)}")
    print(f"final t={trace.times[-1]:.6g} h={trace.h[-1]:.10g} "
          f"h1={trace.h1[-1]:.10g} hm1={trace.hm1[-1]:.10g}")
    print(f"trace written to {path}")
    return 0


def _cmd_mix_rate(args) -> int:
    times = np.concatenate([[0.0], np.geomspace(min(0.1, args.t_min),
                                                args.t_max, args.points)])
    if args.model == "shear":
        res = 2048 if args.resolution is None else args.resolution
        datum = args.datum or "single-mode-m1"
        series = shear_mixing_series(times, profile=args.profile,
                                     gamma=args.gamma, k=args.k, M=res,
                                     datum=datum, seed=args.seed)
        probe_res = 8
    else:
        res = 8192 if args.resolution is None else args.resolution
        datum = args.datum or "uniform"
        series = spiral_mixing_series(times, alpha=args.alpha, k=args.k,
                                      N=res, datum=datum)
        probe_res = 16
    # a small build of the same model carries the predicted exponent
    probe = build_model(args.model, **model_params(
        args.model, {**vars(args), "resolution": probe_res}))
    fit = fit_power_law(series["t"], series["hm1"],
                        window=(args.t_min, args.t_max))
    p_meas = -fit.exponent
    p_pred = probe.p
    print(f"dual-norm decay: hm1 ~ t^{fit.exponent:+.4f} over "
          f"t in [{args.t_min:g}, {args.t_max:g}]  (predicted mixing "
          f"exponent p = {'none' if p_pred is None else format(p_pred, 'g')})")

    out = _out_dir(args)
    stem = os.path.join(out, f"mixing_{args.model}_k{args.k}")
    with open(stem + ".csv", "w") as fh:
        fh.write("t,h,h1,hm1\n")
        for i in range(times.size):
            fh.write(",".join(f"{series[c][i]:.17g}"
                              for c in ("t", "h", "h1", "hm1")) + "\n")
    with open(stem + "_fit.json", "w") as fh:
        json.dump({"model": args.model, "datum": datum, "resolution": res,
                   "p_measured": p_meas, "p_predicted": p_pred,
                   "fit": asdict(fit)}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    mask = series["t"] > 0
    tt = series["t"][mask]
    fitted = np.exp(fit.intercept) * tt**fit.exponent
    svg = line_plot_svg([(tt, series["hm1"][mask], "measured"),
                         (tt, fitted, f"t^{fit.exponent:+.3f} fit")],
                        "t", "dual norm", title=f"{args.model} mixing decay")
    with open(stem + ".svg", "w") as fh:
        fh.write(svg)
    print(f"artifacts written to {stem}.csv / _fit.json / .svg")
    return 0


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _group_rows(rows):
    """Group completed rows by (model, alpha, gamma, k), insertion-ordered."""
    groups: dict = {}
    for r in rows:
        if r.status == "ok":
            groups.setdefault((r.model, r.alpha, r.gamma, r.k), []).append(r)
    return groups


def _group_label(rows) -> str:
    return rows[0].key.rsplit("_nu", 1)[0]


def _q_fits(rows) -> dict:
    """Time-scales of one row group and their enhanced-dissipation fit, per
    basis: basis -> (nus, taus, RateFit or the ValueError that stopped it).
    """
    fits = {}
    for basis in ("crossing", "rate"):
        nus, taus = timescale_pairs(rows, basis)
        try:
            fit = ed_exponent((nus, taus))
        except ValueError as exc:
            fit = exc
        fits[basis] = nus, taus, fit
    return fits


def _cmd_ed_sweep(args) -> int:
    if model_params(args.model, vars(args)).get("d", 1) != 1:
        raise ValueError(f"--d {args.d}: a sweep configuration has no space "
                         "dimension and runs the kinetic model in d = 1")
    if args.model == "heat" and args.gamma != 2.0:
        raise ValueError(f"--gamma {args.gamma:g}: heat sweeps run gamma = 2; "
                         f"sweep --model shear --profile zero --gamma "
                         f"{args.gamma:g} for fractional diffusion")
    if args.nus:
        nus = _parse_floats(args.nus)
    else:
        nus = tuple(np.geomspace(args.nu_min, args.nu_max, args.nu_count))
    ks = tuple(int(x) for x in args.k_list.split(",")) if args.k_list \
        else (args.k,)
    cfg = SweepConfig(
        model=args.model, nus=nus, ks=ks,
        alphas=(args.alpha,) if args.model == "spiral" else (),
        gammas=(args.gamma,) if args.model == "shear" else (),
        profile=args.profile, n0=args.n0, L=args.L, datum=args.datum,
        resolution=args.resolution, t_end_factor=args.t_end_factor,
        theta=args.theta, stop_ratio=args.stop_ratio, seed=args.seed,
        out_dir=args.out or "sweep-out",
    )
    result = run_sweep(cfg, workers=args.workers)
    bad = 0
    for r in result.rows:
        tau = f"{r.tau:.6g}" if r.tau is not None else "-"
        rate = f"{r.rate:.3e}" if r.rate else "-"
        print(f"{r.key}: tau={tau} rate={rate} [{r.status}]")
        for warning in r.meta.get("warnings", []):
            print(f"  warning: {warning}")
        bad += r.status != "ok"
    for rows in _group_rows(result.rows).values():
        label = _group_label(rows)
        for basis, (_, _, fit) in _q_fits(rows).items():
            if isinstance(fit, ValueError):
                print(f"{label}: q ({basis}) not fitted: {fit}")
                continue
            q_pred = rows[0].q_pred
            pred = f" (predicted {q_pred:.4g})" if q_pred else ""
            print(f"{label}: q = {fit.exponent:.4f} +/- {fit.residual:.4f} "
                  f"[{basis} time-scale]{pred}")
    print(f"sweep table: {result.csv_path}")
    if bad:
        print(f"{bad} row(s) did not complete", file=sys.stderr)
        return 2
    return 0


def _amplitude_series(cfg, problem, t_max):
    """Inviscid dual-norm history used to fit the mixing amplitude: the
    closed-form series where one exists for the datum (the disk series
    has no seeded datum), else an inviscid run of the model itself."""
    times = np.concatenate([[0.0], np.geomspace(0.1, t_max, 48)])
    par = problem.params
    if problem.name == "shear":
        return shear_mixing_series(
            times, profile=par["profile"], gamma=par["gamma"], k=par["k"],
            M=max(2048, par["M"]), datum=cfg.datum, seed=cfg.seed)
    if problem.name == "spiral" and cfg.datum in problem.data:
        return spiral_mixing_series(
            times, alpha=par["alpha"], k=par["k"], N=max(2048, par["N"]),
            datum=cfg.datum)
    datum = initial_datum(problem, cfg.datum, seed=cfg.seed)
    trace = evolve(problem, datum, 0.0, t_max)
    return {"t": trace.times, "hm1": trace.hm1}


def _cmd_verify_bound(args) -> int:
    result = load_sweep(args.sweep_dir)
    cfg = result.config
    if cfg is None:
        raise ValueError(f"{args.sweep_dir!r} has no sweep_config.json; "
                         "bound verification needs the sweep provenance")
    report: dict = {"tol": args.tol, "groups": {}, "rows": []}
    n_fail = 0
    n_checked = 0
    for (model, alpha, gamma, k), rows in _group_rows(result.rows).items():
        label = _group_label(rows)
        problem = build_model(model, **model_params(
            model, {**vars(cfg), "alpha": alpha, "gamma": gamma, "k": k}))
        if problem.p is None or problem.q is None:
            report["groups"][label] = {
                "skipped": "no algebraic mixing prediction for this family"}
            print(f"{label}: skipped (no mixing prediction)")
            continue
        series = _amplitude_series(cfg, problem, args.amp_t_max)
        a = fit_mixing_amplitude(series["t"], series["hm1"], problem.p,
                                 k, 1.0)
        rates = predicted_rates(problem, a=a)
        c0 = rates["c0"]
        report["groups"][label] = {"a": a, "p": problem.p, "q": problem.q,
                                   "c0": c0, "datum": cfg.datum}
        print(f"{label}: fitted amplitude a = {a:g}, c0 = {c0:.4g}, "
              f"q = {problem.q:.4g}")
        for r in rows:
            if not r.trace_path:
                raise ValueError(f"row {r.key} has no stored trace; rerun "
                                 "the sweep before verifying bounds")
            trace = read_trace(os.path.join(args.sweep_dir, r.trace_path))
            rate = c0 * r.nu**problem.q * abs(k) ** (1.0 - problem.q) \
                if model == "spiral" else None
            check = theorem_bound_check(trace, r.nu, problem.q, c0,
                                        tol=args.tol, lam1=problem.lam1,
                                        rate=rate)
            n_checked += 1
            n_fail += not check.passed
            verdict = "pass" if check.passed else "FAIL"
            tail = " (+tail)" if check.tail_certified else ""
            print(f"  {r.key}: {verdict}, worst margin "
                  f"{check.worst_margin:+.4f} over {check.checked} "
                  f"samples{tail}")
            report["rows"].append({
                "key": r.key, "nu": r.nu, "passed": check.passed,
                "worst_margin": check.worst_margin,
                "checked_samples": check.checked,
                "tail_certified": check.tail_certified, "note": check.note,
            })
    out_path = os.path.join(args.sweep_dir, "bounds.json")
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{n_checked - n_fail}/{n_checked} rows satisfy the decay bound; "
          f"report at {out_path}")
    return 2 if n_fail else 0


def _cmd_report(args) -> int:
    result = load_sweep(args.sweep_dir)
    groups = _group_rows(result.rows)
    if not groups:
        print("no completed rows in the sweep; nothing to report",
              file=sys.stderr)
        return 2
    out = args.out or args.sweep_dir
    os.makedirs(out, exist_ok=True)
    report: dict = {"sweep_dir": args.sweep_dir, "groups": {}}
    for (model, alpha, gamma, k), rows in groups.items():
        label = _group_label(rows)
        entry: dict = {
            "model": model, "alpha": alpha, "gamma": gamma, "k": k,
            "n_rows": len(rows), "q_predicted": rows[0].q_pred,
            "nus": [r.nu for r in rows], "taus": [r.tau for r in rows],
            "warnings": {r.key: r.meta["warnings"] for r in rows
                         if r.meta.get("warnings")},
        }
        q_meas = None
        fits = _q_fits(rows)
        for basis, (_, _, fit) in fits.items():
            if isinstance(fit, ValueError):
                entry[f"q_{basis}"] = None
                entry[f"q_{basis}_note"] = str(fit)
                continue
            entry[f"q_{basis}"] = fit.exponent
            entry[f"q_{basis}_stderr"] = fit.residual
            if q_meas is None:
                q_meas = fit.exponent
            print(f"{label}: q = {fit.exponent:.3f} +/- {fit.residual:.3f} "
                  f"[{basis}]")
        q_pred = rows[0].q_pred
        if q_meas is None:
            entry["verdict"] = "insufficient data"
        elif q_pred is None:
            entry["verdict"] = "no prediction"
        elif q_meas <= q_pred + 0.05:
            entry["verdict"] = "consistent with prediction"
        else:
            entry["verdict"] = "exceeds predicted exponent"
        print(f"{label}: q_pred = "
              f"{'-' if q_pred is None else format(q_pred, '.3f')} -> "
              f"{entry['verdict']}")

        svgs = []
        tau_series = [(nus, taus, name) for (nus, taus, _), name in zip(
            fits.values(), ("crossing tau", "1 / decay rate")) if nus.size]
        if tau_series:
            path = os.path.join(out, f"tau_vs_nu_{label}.svg")
            with open(path, "w") as fh:
                fh.write(line_plot_svg(tau_series, "nu", "tau",
                                       title=f"{label}: time-scale vs nu"))
            svgs.append(path)
        traced = [r for r in sorted(rows, key=lambda r: r.nu)
                  if r.trace_path and
                  os.path.exists(os.path.join(args.sweep_dir, r.trace_path))]
        if traced:
            r = traced[0]
            trace = read_trace(os.path.join(args.sweep_dir, r.trace_path))
            path = os.path.join(out, f"decay_{label}.svg")
            with open(path, "w") as fh:
                fh.write(line_plot_svg(
                    [(trace.times, trace.h, "h"),
                     (trace.times, trace.hm1, "dual norm")],
                    "t", "norm", title=f"{r.key}: norm decay"))
            svgs.append(path)
        entry["svg"] = svgs
        report["groups"][label] = entry
    path = os.path.join(out, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"report written to {path}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="mixlab",
                     description="Mixing and enhanced-dissipation laboratory "
                                 "for model advection-diffusion flows.")
    out = _Parser(add_help=False)
    out.add_argument("--out", default=None, help="output directory")
    common = _Parser(add_help=False, parents=[out])
    common.add_argument("--seed", type=int, default=0,
                        help="seed for random initial data")
    common.add_argument("--resolution", type=int, default=None,
                        help="modes per direction / radial cells")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate one viscous flow and store the trace")
    _add_model_flags(p)
    p.add_argument("--nu", type=float, required=True,
                   help="viscosity (0 runs the inviscid flow)")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--datum", default="single-mode-m1")
    p.add_argument("--stop-ratio", type=float, default=None,
                   help="stop early once h falls below this fraction of h(0)")
    p.add_argument("--sample-every", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("mix-rate", parents=[common],
                       help="measure the inviscid dual-norm decay exponent")
    _add_model_flags(p, models=("shear", "spiral"))
    p.add_argument("--t-min", type=float, default=10.0)
    p.add_argument("--t-max", type=float, default=1e3)
    p.add_argument("--points", type=int, default=48)
    p.add_argument("--datum", default=None,
                   help="default: single-mode-m1 (shear), uniform (spiral)")
    p.set_defaults(func=_cmd_mix_rate)

    p = sub.add_parser("ed-sweep", parents=[common],
                       help="run a viscosity sweep and fit the "
                            "enhanced-dissipation exponent")
    _add_model_flags(p)
    p.add_argument("--nus", default=None,
                   help="comma-separated viscosities (overrides --nu-*)")
    p.add_argument("--nu-min", type=float, default=1e-6)
    p.add_argument("--nu-max", type=float, default=1e-3)
    p.add_argument("--nu-count", type=int, default=8)
    p.add_argument("--k-list", default=None,
                   help="comma-separated wavenumbers (overrides --k)")
    p.add_argument("--datum", default="single-mode-m1")
    p.add_argument("--t-end-factor", type=float, default=20.0)
    p.add_argument("--theta", type=float, default=THETA_DEFAULT)
    p.add_argument("--stop-ratio", type=float, default=1e-3)
    p.add_argument("--workers", type=int, default=1,
                   help="process pool size for the sweep rows")
    p.set_defaults(func=_cmd_ed_sweep)

    p = sub.add_parser("verify-bound",
                       help="check the explicit decay bound on every "
                            "completed sweep row")
    p.add_argument("sweep_dir")
    p.add_argument("--tol", type=float, default=5e-2)
    p.add_argument("--amp-t-max", type=float, default=100.0,
                   help="horizon of the inviscid run used to fit the "
                        "mixing amplitude")
    p.set_defaults(func=_cmd_verify_bound)

    p = sub.add_parser("report", parents=[out],
                       help="fit exponents from a sweep directory and render "
                            "SVG plots")
    p.add_argument("sweep_dir")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EvolutionError as exc:
        print(f"mixlab {args.command}: numerical failure: {exc}",
              file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"mixlab {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
