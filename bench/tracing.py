"""In-memory spans around mixlab's public functions, and the per-layer
metrics derived from them.

Spans are recorded from outside the package: :func:`install` replaces the
names each calling module looks up (``mixlab.sweep.evolve``,
``mixlab.cli.read_trace``, ...) with wrappers that open a span, call the
original and close the span. Every call runs in one thread, so spans nest
strictly and a span's self time is its duration minus its children's.
"""

import contextlib
import functools
import math
import os
import time


class Tracer:
    """Spans kept in memory: name, start, end, span id, parent id, counts."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str):
        s = {"id": len(self.spans),
             "parent": self._open[-1] if self._open else None,
             "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(s)
        self._open.append(s["id"])
        try:
            yield s
        finally:
            s["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, annotate=None):
        """Replace ``module.attr`` by a traced call. ``annotate(span, args,
        kwargs, result)`` runs inside the span to record counts."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(s, args, kwargs, result)
            return result

        setattr(module, attr, traced)


def step_flops(problem, nu: float) -> float:
    """Computed flops of one Strang step, by the realisation the
    integrator picks: complex FFT 5 n log2 n, complex matrix-vector
    product 8 n^2, and 2 (real) or 6 (complex) flops per elementwise
    product."""
    n = problem.size
    if problem.kind == "phase" and problem.basis == "torus-fourier":
        if problem.bound_B == 0.0:
            return 2.0 * n
        return 2 * 5.0 * n * math.log2(n) + 10.0 * n
    if problem.kind == "phase":
        return 8.0 * n * n if nu > 0.0 else 6.0 * n
    return 8.0 * n * n + 4.0 * n


def install(tracer: Tracer) -> None:
    """Wrap the mixlab names the CLI and the sweep runner call."""
    from mixlab import cli, evolution, sweep

    step_viscous = evolution.step_viscous
    default_dt = evolution.default_dt

    def evolve_counts(s, args, kwargs, trace):
        problem, f_in, nu, t_end = args[:4]
        steps = trace.meta.get("n_steps", 0)
        s["steps"] = steps
        s["samples"] = len(trace)
        s["flop"] = steps * step_flops(problem, nu)
        dt = kwargs.get("dt") or default_dt(problem, t_end)
        # one extra step through a freshly built propagator: its cost is
        # the per-row set-up that evolve pays before stepping
        with tracer.span("evolution.propagator_setup"):
            step_viscous(problem, f_in, nu, dt)

    def written_bytes(s, args, kwargs, result):
        path = os.fspath(args[1])
        s["bytes"] = (os.path.getsize(path)
                      + os.path.getsize(os.path.splitext(path)[0] + ".json"))

    def sweep_rows(s, args, kwargs, result):
        s["rows"] = len(result.rows)
        s["rows_ok"] = sum(r.status == "ok" for r in result.rows)

    def bound_samples(s, args, kwargs, report):
        s["samples"] = report.checked

    def series_points(s, args, kwargs, series):
        s["points"] = len(series["t"])

    for mod in (sweep, cli):
        tracer.wrap(mod, "evolve", "evolution.evolve", evolve_counts)
        tracer.wrap(mod, "write_trace", "evolution.write_trace",
                    written_bytes)
        tracer.wrap(mod, "build_model", "models.build")
    tracer.wrap(cli, "read_trace", "evolution.read_trace")
    tracer.wrap(cli, "shear_mixing_series", "models.series", series_points)
    tracer.wrap(cli, "spiral_mixing_series", "models.series", series_points)
    for name in ("fit_decay_rate", "tau_threshold"):
        tracer.wrap(sweep, name, "diagnostics.fit")
    for name in ("ed_exponent", "fit_mixing_amplitude", "fit_power_law"):
        tracer.wrap(cli, name, "diagnostics.fit")
    tracer.wrap(cli, "theorem_bound_check", "diagnostics.bound",
                bound_samples)
    tracer.wrap(cli, "run_sweep", "sweep.run", sweep_rows)
    tracer.wrap(cli, "load_sweep", "sweep.load")
    tracer.wrap(cli, "line_plot_svg", "svg.plot")


# per-layer metric: (source span name, statistic, unit); statistics are
# "total" and "self" seconds, "calls", or the sum of a recorded count
LAYER_METRICS = {
    "evolution.evolve_s": ("evolution.evolve", "self", "s"),
    "evolution.steps": ("evolution.evolve", "steps", "count"),
    "evolution.samples": ("evolution.evolve", "samples", "count"),
    "evolution.flop_computed": ("evolution.evolve", "flop", "flop"),
    "evolution.propagator_setup_s":
        ("evolution.propagator_setup", "total", "s"),
    "evolution.write_trace_s": ("evolution.write_trace", "total", "s"),
    "evolution.read_trace_s": ("evolution.read_trace", "total", "s"),
    "evolution.trace_bytes": ("evolution.write_trace", "bytes", "bytes"),
    "models.build_s": ("models.build", "total", "s"),
    "models.build_calls": ("models.build", "calls", "count"),
    "models.series_s": ("models.series", "total", "s"),
    "models.series_points": ("models.series", "points", "count"),
    "diagnostics.fit_s": ("diagnostics.fit", "total", "s"),
    "diagnostics.fit_calls": ("diagnostics.fit", "calls", "count"),
    "diagnostics.bound_s": ("diagnostics.bound", "total", "s"),
    "diagnostics.bound_samples": ("diagnostics.bound", "samples", "count"),
    "sweep.run_s": ("sweep.run", "total", "s"),
    "sweep.self_s": ("sweep.run", "self", "s"),
    "sweep.load_s": ("sweep.load", "total", "s"),
    "sweep.rows": ("sweep.run", "rows", "count"),
    "sweep.rows_ok": ("sweep.run", "rows_ok", "count"),
    "cli.ed_sweep_s": ("cli.ed_sweep", "total", "s"),
    "cli.verify_bound_s": ("cli.verify_bound", "total", "s"),
    "cli.report_s": ("cli.report", "total", "s"),
    "cli.mix_rate_s": ("cli.mix_rate", "total", "s"),
    "svg.plot_s": ("svg.plot", "total", "s"),
    "svg.plots": ("svg.plot", "calls", "count"),
}


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer values of one traced pass whose timed phase took
    ``wall_s``; top-level spans are the harness's ``cli.<command>``
    spans."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    covered = dict.fromkeys(dur, 0.0)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += dur[s["id"]]
    stats: dict = {}
    for s in spans:
        st = stats.setdefault(s["name"], {"total": 0.0, "self": 0.0,
                                          "calls": 0})
        st["total"] += dur[s["id"]]
        st["self"] += dur[s["id"]] - covered[s["id"]]
        st["calls"] += 1
        for key, value in s.items():
            if key not in ("id", "parent", "name", "start", "end"):
                st[key] = st.get(key, 0) + value
    out = {name: stats.get(span, {}).get(stat, 0)
           for name, (span, stat, _) in LAYER_METRICS.items()}
    top = [s for s in spans if s["parent"] is None]
    out["cli.self_s"] = sum(dur[s["id"]] - covered[s["id"]] for s in top)
    out["trace.uncovered_frac"] = 1.0 - sum(dur[s["id"]] for s in top) / wall_s
    steps, evolve_s = out["evolution.steps"], out["evolution.evolve_s"]
    out["evolution.us_per_step"] = 1e6 * evolve_s / steps if steps else 0.0
    out["evolution.gflops"] = (out["evolution.flop_computed"] / evolve_s / 1e9
                               if evolve_s else 0.0)
    return out


UNITS = {name: unit for name, (_, _, unit) in LAYER_METRICS.items()}
UNITS.update({"cli.self_s": "s", "trace.uncovered_frac": "ratio",
              "evolution.us_per_step": "us", "evolution.gflops": "GFLOP/s",
              "trace.overhead_frac": "ratio"})
