"""Command-line interface.

Every subcommand is a thin shell over the library: build a model, run the
flow or load a sweep directory, fit, write artifacts. Exit status is 0 on
success, 1 on usage errors (bad flags, bad model parameters, missing
inputs, an ``--out`` that is a file), 2 on numerical failures (NaN,
unresolved rows, a decay bound that does not hold).
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from ._svg import line_plot_svg
from .diagnostics import constant_c0_poly, constant_c0_spiral, ed_exponent, \
    fit_mixing_amplitude, fit_power_law, theorem_bound_check, timescale_pairs
from .evolution import TRACE_SUFFIX, EvolutionError, evolve, read_trace, \
    write_norms, write_trace
from .models import FAMILIES, TOP_BAND_FLAG, _builder_defaults, build_model, \
    initial_datum, model_params, shear_mixing_series, spiral_mixing_series
from .sweep import SweepConfig, _group_label, load_sweep, row_datum, \
    row_key, run_sweep


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; reserve 2 for numerics.
    No abbreviations: ``simulate --stop`` is not ``--stop-ratio``."""

    def __init__(self, **kw):
        super().__init__(allow_abbrev=False, **kw)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: model flag -> (type, help); not given, it is None: the builder's default
_MODEL_FLAGS = {
    "profile": (str, "shear profile name or CSV path"),
    "gamma": (float, "dissipation order for the shear and heat models"),
    "n0": (int, "critical-point degeneracy (built-in profiles declare it)"),
    "alpha": (float, "swirl exponent for the spiral model"),
    "L": (float, "torus aspect ratio for the Kolmogorov model"),
    "d": (int, "space dimension for the kinetic model"),
}


def _add_model_flags(p, models=tuple(FAMILIES)):
    """``--model``, ``--k`` and the flags that the ``FAMILIES`` maps of
    ``models`` read; :func:`model_params` refuses one ``--model`` does not."""
    p.add_argument("--model", required=True, choices=models)
    read = {flag for model in models for flag in FAMILIES[model][1]}
    for flag, (kind, text) in _MODEL_FLAGS.items():
        if flag in read:
            p.add_argument("--" + flag, type=kind, help=text)
    p.add_argument("--k", type=int, default=1, help="wavenumber")


def _out_dir(args, default=".") -> str:
    out = args.out or default
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _cmd_simulate(args) -> int:
    problem = build_model(args.model, **model_params(args.model, vars(args)))
    f0 = initial_datum(problem, args.datum, seed=args.seed)
    trace = evolve(problem, f0, args.nu, args.t_end,
                   stop_ratio=args.stop_ratio)
    out = _out_dir(args)
    key = row_key(args.model, {**problem.params, "nu": args.nu})
    path = os.path.join(out, f"trace_{key}{TRACE_SUFFIX}")
    write_trace(trace, path)
    print(f"model={args.model} nu={args.nu:g} dt={trace.dt:g} "
          f"samples={len(trace)}")
    print(f"final t={trace.times[-1]:.6g} h={trace.h[-1]:.10g} "
          f"h1={trace.h1[-1]:.10g} hm1={trace.hm1[-1]:.10g}")
    print(f"stop reason: {trace.meta['stop_reason']}")
    for warning in trace.meta["warnings"]:
        print(f"  warning: {warning}")
    print(f"trace written to {path}")
    return 0


def _mix_rate_times(args) -> np.ndarray:
    """The sample times of ``mix-rate``, refused unless its power-law fit
    gets at least 4 of them in a window of positive, finite times."""
    if args.points < 4:
        raise ValueError(f"--points must be >= 4, got {args.points}")
    for flag, t in (("--t-min", args.t_min), ("--t-max", args.t_max)):
        if not 0.0 < t < np.inf:
            raise ValueError(f"{flag} must be finite and > 0, got {t:g}")
    if args.t_min >= args.t_max:
        raise ValueError(f"--t-min {args.t_min:g} must be below --t-max "
                         f"{args.t_max:g}")
    times = np.concatenate([[0.0], np.geomspace(min(0.1, args.t_min),
                                                args.t_max, args.points)])
    inside = int(np.sum((times >= args.t_min) & (times <= args.t_max)))
    if inside < 4:
        raise ValueError(f"--points {args.points} puts {inside} sample "
                         f"time(s) in [--t-min, --t-max]; the power-law fit "
                         f"needs >= 4")
    return times


def _cmd_mix_rate(args) -> int:
    times = _mix_rate_times(args)
    kw = model_params(args.model, vars(args))
    if args.datum is not None:
        kw["datum"] = args.datum
    # the series are looked up here, not in a table: tracers replace them
    series = (shear_mixing_series if args.model == "shear"
              else spiral_mixing_series)(times, seed=args.seed, **kw)
    fit = fit_power_law(series["t"], series["hm1"],
                        window=(args.t_min, args.t_max))
    p_pred, warnings = series["p"], series["warnings"]
    print(f"dual-norm decay: hm1 ~ t^{-fit.rate:+.4f} over "
          f"t in [{args.t_min:g}, {args.t_max:g}]  (predicted mixing "
          f"exponent p = {'none' if p_pred is None else format(p_pred, 'g')})")
    for warning in warnings:
        print(f"  warning: {warning}")

    out = _out_dir(args)
    stem = os.path.join(out, "mixing_" + _group_label(
        args.model, {**_builder_defaults(args.model), **kw}))
    write_norms(stem + TRACE_SUFFIX, *map(series.get, ("t", "h", "h1", "hm1")))
    _write_json(stem + "_fit.json", {
        "model": args.model, "datum": series["datum"],
        "resolution": series["resolution"],
        "grid_points": [int(series["grid"].min()), int(series["grid"].max())],
        "p_measured": fit.rate, "p_predicted": p_pred, "fit": asdict(fit),
        "warnings": warnings})
    mask = series["t"] > 0
    tt = series["t"][mask]
    fitted = np.exp(fit.intercept) * tt**-fit.rate
    svg = line_plot_svg([(tt, series["hm1"][mask], "measured"),
                         (tt, fitted, f"t^{-fit.rate:+.3f} fit")],
                        "t", "dual norm", title=f"{args.model} mixing decay")
    with open(stem + ".svg", "w") as fh:
        fh.write(svg)
    print(f"artifacts written to {stem}{TRACE_SUFFIX} / _fit.json / .svg")
    return 0


def _q_fits(rows) -> dict:
    """Time-scales of one row group and their enhanced-dissipation fit, per
    basis: basis -> (nus, taus, RateFit or the ValueError that stopped it).
    """
    fits = {}
    for basis in ("crossing", "rate"):
        nus, taus = timescale_pairs(rows, basis)
        try:
            fits[basis] = nus, taus, ed_exponent((nus, taus))
        except ValueError as exc:
            fits[basis] = nus, taus, exc
    return fits


#: ed-sweep's viscosity grid when --nus is not given
_NU_GRID = {"nu_min": 1e-6, "nu_max": 1e-3, "nu_count": 8}


def _cmd_ed_sweep(args) -> int:
    a = vars(args)
    for flag, other in [("nus", key) for key in _NU_GRID] + [("k_list", "k")]:
        if a[flag] is not None and a[other] is not None:
            raise ValueError(f"--{flag} and --{other} both set the sweep's "
                             "values; give one".replace("_", "-"))
    lo, hi, count = (_NU_GRID[key] if a[key] is None else a[key]
                     for key in _NU_GRID)
    nus = tuple(float(x) for x in args.nus.split(",") if x.strip()) \
        if args.nus else tuple(np.geomspace(lo, hi, count))
    ks = tuple(int(x) for x in args.k_list.split(",")) if args.k_list \
        else None if args.k is None else (args.k,)
    flags = {flag: vars(args)[flag] for flag in _MODEL_FLAGS
             if vars(args)[flag] is not None}
    axis = FAMILIES[args.model][2]
    axes = {axis + "s": (flags.pop(axis),)} if axis in flags else {}
    # a setting not given keeps SweepConfig's default
    given = {"ks": ks, "datum": args.datum, "resolution": args.resolution,
             "out_dir": args.out}
    cfg = SweepConfig(model=args.model, nus=nus, **axes, model_flags=flags,
                      seed=args.seed,
                      **{k: v for k, v in given.items() if v is not None})
    result = run_sweep(cfg, workers=args.workers)
    bad = 0
    for r in result.rows:
        tau = f"{r.tau:.6g}" if r.tau is not None else "-"
        rate = f"{r.rate:.3e}" if r.rate else "-"
        print(f"{r.key}: tau={tau} rate={rate} [{r.status}]")
        for warning in r.meta.get("warnings", []):
            print(f"  warning: {warning}")
        bad += r.status != "ok"
    for label, _, pairs in result.groups():
        rows = [r for _, r in pairs]
        for basis, (_, _, fit) in _q_fits(rows).items():
            if isinstance(fit, ValueError):
                print(f"{label}: q ({basis}) not fitted: {fit}")
                continue
            q_pred = rows[0].q_pred
            pred = f" (predicted {q_pred:.4g})" if q_pred else ""
            print(f"{label}: q = {fit.rate:.4f} (rms residual "
                  f"{fit.residual:.4f}) [{basis} time-scale]{pred}")
    print(f"sweep table: {result.csv_path}")
    if bad:
        print(f"{bad} row(s) did not complete", file=sys.stderr)
        return 2
    return 0


#: horizon of the inviscid run that fits the mixing amplitude; a
#: resolution policy (ROADMAP item 3) is to derive it
_AMP_T_MAX = 100.0


def _cmd_verify_bound(args) -> int:
    result = load_sweep(args.sweep_dir)
    cfg = result.config
    report: dict = {"tol": args.tol, "groups": {}, "rows": []}
    n_fail = n_checked = 0
    for label, params, pairs in result.groups():
        problem = build_model(cfg.model, **params)
        if problem.p is None or problem.q is None:
            report["groups"][label] = {
                "skipped": "no algebraic mixing prediction for this family"}
            print(f"{label}: skipped (no mixing prediction)")
            continue
        data = {f0.tobytes(): f0 for f0 in (  # a seeded datum differs by row
            row_datum(cfg, problem, i) for i, _ in pairs)}
        # a: the largest fit over the inviscid flows of the rows' data, each
        # on its n samples before the first past the top-band flag
        a, t_fit, warnings = 0.0, np.inf, []
        for f0 in data.values():
            trace = evolve(problem, f0, 0.0, _AMP_T_MAX)
            n = np.append(trace.occupancy > TOP_BAND_FLAG, True).argmax()
            if n == 0:
                raise EvolutionError(
                    f"{label}: the datum's top band holds "
                    f"{trace.occupancy[0]:.1%} of its energy at t = 0, past "
                    f"{TOP_BAND_FLAG:.0%}: raise the resolution")
            a = max(a, fit_mixing_amplitude(trace.times[:n], trace.hm1[:n],
                                            problem.p, params["k"], 1.0))
            t_fit = min(t_fit, float(trace.times[n - 1]))
            warnings += [w for w in trace.meta["warnings"]
                         if w not in warnings]
        spiral = cfg.model == "spiral"
        c0 = constant_c0_spiral(problem.params["alpha"], a) if spiral \
            else constant_c0_poly(problem.p, a, problem.c_B)
        report["groups"][label] = {"a": a, "p": problem.p, "q": problem.q,
                                   "c0": c0, "datum": cfg.datum,
                                   "fit_t_max": t_fit, "warnings": warnings}
        window = f" to t = {t_fit:g}" if t_fit < _AMP_T_MAX else ""
        print(f"{label}: fitted amplitude a = {a:g}{window}, c0 = {c0:.4g}, "
              f"q = {problem.q:.4g}")
        for warning in warnings:
            print(f"  warning: {warning}")
        for _, r in pairs:
            if not r.trace_path:
                raise ValueError(f"row {r.key} has no stored trace; rerun "
                                 "the sweep before verifying bounds")
            trace = read_trace(os.path.join(args.sweep_dir, r.trace_path))
            # the row's law: c0 nu^q (times |k|^(1-q) on the spiral) from
            # t_min = nu^-q
            rate = c0 * r.nu**problem.q * (
                abs(r.k) ** (1.0 - problem.q) if spiral else 1.0)
            check = theorem_bound_check(trace, rate, r.nu**-problem.q,
                                        tol=args.tol, lam1=problem.lam1)
            n_checked += 1
            n_fail += not check.passed
            verdict = "FAIL" if not check.passed else \
                "pass" if check.checked else "tail-only"
            tail = " (+tail)" if check.tail_certified else ""
            print(f"  {r.key}: {verdict}, worst margin "
                  f"{check.worst_margin:+.4f} over {check.checked} "
                  f"samples{tail}")
            report["rows"].append({
                "key": r.key, "nu": r.nu, "passed": check.passed,
                "verdict": verdict, "worst_margin": check.worst_margin,
                "checked_samples": check.checked,
                "tail_certified": check.tail_certified,
            })
    out_path = os.path.join(args.sweep_dir, "bounds.json")
    _write_json(out_path, report)
    print(f"{n_checked - n_fail}/{n_checked} rows satisfy the decay bound; "
          f"report at {out_path}")
    return 2 if n_fail else 0


def _cmd_report(args) -> int:
    result = load_sweep(args.sweep_dir)
    groups = result.groups()
    if not groups:
        print("no completed rows in the sweep; nothing to report",
              file=sys.stderr)
        return 2
    out = args.out or args.sweep_dir
    report: dict = {"sweep_dir": args.sweep_dir, "groups": {}}
    svg_text = {}  # path -> plot, written once every trace has been read
    for label, _, pairs in groups:
        rows = [r for _, r in pairs]
        entry: dict = {
            "model": rows[0].model, "alpha": rows[0].alpha,
            "gamma": rows[0].gamma, "k": rows[0].k,
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
            entry[f"q_{basis}"] = fit.rate
            entry[f"q_{basis}_residual"] = fit.residual
            if q_meas is None:
                q_meas = fit.rate
            print(f"{label}: q = {fit.rate:.3f} (rms residual "
                  f"{fit.residual:.3f}) [{basis}]")
        q_pred = rows[0].q_pred
        entry["verdict"] = "insufficient data" if q_meas is None else \
            "no prediction" if q_pred is None else \
            "consistent with prediction" if q_meas <= q_pred + 0.05 else \
            "exceeds predicted exponent"
        print(f"{label}: q_pred = "
              f"{'-' if q_pred is None else format(q_pred, '.3f')} -> "
              f"{entry['verdict']}")

        svgs = []
        tau_series = [(nus, taus, name) for (nus, taus, _), name in zip(
            fits.values(), ("crossing tau", "1 / decay rate")) if nus.size]
        if tau_series:
            svgs.append(os.path.join(out, f"tau_vs_nu_{label}.svg"))
            svg_text[svgs[-1]] = line_plot_svg(
                tau_series, "nu", "tau", title=f"{label}: time-scale vs nu")
        traced = [r for r in rows if r.trace_path]
        if traced:
            r = min(traced, key=lambda r: r.nu)
            trace = read_trace(os.path.join(args.sweep_dir, r.trace_path))
            svgs.append(os.path.join(out, f"decay_{label}.svg"))
            svg_text[svgs[-1]] = line_plot_svg(
                [(trace.times, trace.h, "h"),
                 (trace.times, trace.hm1, "dual norm")],
                "t", "norm", title=f"{r.key}: norm decay")
        entry["svg"] = svgs
        report["groups"][label] = entry
    os.makedirs(out, exist_ok=True)
    for path, text in svg_text.items():
        with open(path, "w") as fh:
            fh.write(text)
    path = os.path.join(out, "report.json")
    _write_json(path, report)
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
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("mix-rate", parents=[common],
                       help="measure the inviscid dual-norm decay exponent")
    _add_model_flags(p, models=("shear", "spiral"))
    p.add_argument("--t-min", type=float, default=10.0)
    p.add_argument("--t-max", type=float, default=1e3)
    p.add_argument("--points", type=int, default=48)
    p.add_argument("--datum", default=None,
                   help="initial datum (default: the series' own)")
    p.set_defaults(func=_cmd_mix_rate)

    p = sub.add_parser("ed-sweep", parents=[common],
                       help="run a viscosity sweep and fit the "
                            "enhanced-dissipation exponent")
    _add_model_flags(p)
    p.add_argument("--nus", help="comma-separated viscosities")
    for key, value in _NU_GRID.items():
        p.add_argument("--" + key.replace("_", "-"), type=type(value),
                       help=f"default {value:g}; not with --nus")
    p.add_argument("--k-list", help="comma-separated wavenumbers")
    # not given, it is None: SweepConfig's default
    p.add_argument("--datum")
    p.add_argument("--workers", type=int, default=1,
                   help="process pool size for the sweep rows (>= 1)")
    p.set_defaults(func=_cmd_ed_sweep, k=None)

    p = sub.add_parser("verify-bound",
                       help="check the explicit decay bound on every "
                            "completed sweep row")
    p.add_argument("sweep_dir")
    p.add_argument("--tol", type=float, default=5e-2)
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
    except (ValueError, OSError) as exc:
        print(f"mixlab {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
