"""Batch (model, nu, k) grids with persistence and resumability.

Each grid row runs one viscous evolution and extracts both measured
time-scales: the threshold-crossing time tau (first passage of h below
theta * h(0)) and the asymptotic e-folding time 1/rate from the fitted
tail decay rate. Rows persist as individual JSON files the moment they
finish — the source of truth — and ``sweep.csv`` is regenerated from them
in enumeration order at the end, so an interrupted sweep resumes to a
bit-identical result set. A row records the settings that shaped it, and
a resumed sweep refuses rows computed with other settings.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .diagnostics import THETA_DEFAULT, fit_decay_rate, tau_threshold
from .evolution import EvolutionError, evolve, write_trace
from .models import build_model, initial_datum, model_params

__all__ = ["SweepConfig", "RowResult", "SweepResult", "run_sweep", "load_sweep",
           "row_key"]

CSV_COLUMNS = ["model", "alpha", "gamma", "n0", "k", "nu", "tau", "q_pred", "status"]
#: version of the row values: 2 = error-controlled steps, 3 = the step is
#: no setting (no ``dt``); rows without a number predate both
ROW_FORMAT = 3


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a model family crossed with parameter and viscosity lists.

    ``datum`` names the initial data: the seeded ``"random-h1"`` or a
    name in the model's ``problem.data`` (default ``"single-mode-m1"``,
    the lowest nontrivial mode). ``t_end_factor`` multiplies the
    predicted time-scale nu^-q (nu^-1 when the model makes no
    prediction) to set the horizon; ``stop_ratio`` ends a run early
    once h has fallen to that fraction of h(0), deep enough for the tail
    rate fit. ``resolution`` overrides the model's default truncation.
    """

    model: str
    nus: tuple = ()
    ks: tuple = (1,)
    alphas: tuple = ()
    gammas: tuple = ()
    profile: str = "sin"
    n0: int | None = None
    L: float = 2.0
    datum: str = "single-mode-m1"
    resolution: int | None = None
    t_end_factor: float = 20.0
    theta: float = THETA_DEFAULT
    stop_ratio: float = 1e-3
    seed: int = 0
    out_dir: str = "sweep-out"

    def __post_init__(self):
        for nu in self.nus:
            if not 0.0 < nu < 1.0:
                raise ValueError(f"viscosities must lie in (0, 1), got {nu}")
        if self.resolution is not None and self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if not 0.0 < self.stop_ratio < self.theta:
            raise ValueError(f"stop_ratio must lie in (0, theta = "
                             f"{self.theta:g}), got {self.stop_ratio}")
        if not 0.0 < self.t_end_factor < np.inf:
            raise ValueError(f"t_end_factor must be finite and positive, "
                             f"got {self.t_end_factor}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "SweepConfig":
        data = json.loads(text)
        data.pop("dt", None)  # a setting of sweeps before row format 3
        for key in ("nus", "ks", "alphas", "gammas"):
            if key in data and data[key] is not None:
                data[key] = tuple(data[key])
        return SweepConfig(**data)

    def row_config(self) -> dict:
        """What every row of this sweep records and a resumed sweep must
        match: the row format and each field but the output directory
        and the axis lists."""
        axes = ("out_dir", "nus", "ks", "alphas", "gammas")
        return {"row_format": ROW_FORMAT,
                **{k: v for k, v in asdict(self).items() if k not in axes}}

    def rows(self) -> list[dict]:
        """Deterministic row enumeration."""
        out = []
        for alpha in (self.alphas or (None,)):
            for gamma in (self.gammas or (None,)):
                for k in self.ks:
                    for nu in self.nus:
                        out.append({"alpha": alpha, "gamma": gamma,
                                    "k": int(k), "nu": float(nu)})
        return out


def row_key(model: str, row: dict) -> str:
    """Row (and trace file) name: model, alpha and gamma when set, k, nu."""
    parts = [model]
    if row["alpha"] is not None:
        parts.append(f"a{row['alpha']:g}")
    if row["gamma"] is not None:
        parts.append(f"g{row['gamma']:g}")
    parts.append(f"k{row['k']}")
    parts.append(f"nu{row['nu']:.4e}")
    return "_".join(parts)


@dataclass
class RowResult:
    """One completed (or failed) sweep row; ``config`` is the
    :meth:`SweepConfig.row_config` of the sweep that computed it."""

    key: str
    model: str
    alpha: float | None
    gamma: float | None
    n0: int | None
    k: int
    nu: float
    tau: float | None
    rate: float | None
    q_pred: float | None
    status: str
    trace_path: str = ""
    fit: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    @property
    def tau_rate(self) -> float | None:
        return 1.0 / self.rate if self.rate else None

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RowResult":
        return RowResult(**d)


@dataclass
class SweepResult:
    rows: list
    out_dir: str = ""
    config: SweepConfig | None = None

    @property
    def csv_path(self) -> str:
        return os.path.join(self.out_dir, "sweep.csv")


def _problem_and_datum(cfg: SweepConfig, row: dict, index: int):
    problem = build_model(cfg.model,
                          **model_params(cfg.model, {**vars(cfg), **row}))
    return problem, initial_datum(problem, cfg.datum, seed=(cfg.seed, index))


def _run_row(cfg: SweepConfig, row: dict, index: int):
    """Execute one row; pure function of (cfg, row, index)."""
    problem, datum = _problem_and_datum(cfg, row, index)
    nu = row["nu"]
    q_pred = problem.q
    t_end = cfg.t_end_factor * nu ** (-(q_pred if q_pred else 1.0))

    result = RowResult(
        key=row_key(cfg.model, row), model=cfg.model, alpha=row["alpha"],
        gamma=row["gamma"], n0=problem.params.get("n0"), k=row["k"], nu=nu,
        tau=None, rate=None, q_pred=q_pred, status="ok",
        config=cfg.row_config(),
    )
    try:
        trace = evolve(problem, datum, nu, t_end, stop_ratio=cfg.stop_ratio)
    except EvolutionError as exc:
        result.status = f"error: {exc}"
        return result, None

    try:
        result.tau = tau_threshold(trace, cfg.theta)
    except ValueError:
        result.status = "unresolved"
    try:
        rf = fit_decay_rate(trace.times, trace.h)
        if rf.rate > 0.0:
            result.rate = rf.rate
            result.fit["rate_fit"] = asdict(rf)
    except ValueError:
        pass
    result.meta = {
        "t_end": float(trace.times[-1]),
        "dt": trace.dt,
        "h_end_over_h0": float(trace.h[-1] / trace.h[0]),
        **{key: trace.meta[key] for key in (
            "n_steps", "sample_interval", "max_steps_per_sample", "err_est")},
        "stop_reason": trace.meta.get("stop_reason"),
        "warnings": trace.meta.get("warnings", []),
    }
    return result, trace


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(result: SweepResult) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for r in result.rows:
        lines.append(",".join(_csv_cell(getattr(r, col)) for col in CSV_COLUMNS))
    _atomic_write(result.csv_path, "\n".join(lines) + "\n")


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepResult:
    """Run (or resume) a sweep.

    Rows already present under ``out_dir/rows/`` are not recomputed, but
    each must record this sweep's :meth:`SweepConfig.row_config`:
    otherwise a ValueError naming the first field that differs is raised
    before anything is written, as is the ValueError of a model or datum
    a pending row cannot build. Failures of a run are recorded in the row
    status, never raised. Workers > 1 executes pending rows in a process
    pool; all file writes happen in the parent.
    """
    out = cfg.out_dir
    rows_dir = os.path.join(out, "rows")
    plan = cfg.rows()
    keys = [row_key(cfg.model, row) for row in plan]
    expected = cfg.row_config()
    results: dict[str, RowResult] = {}
    pending = []
    for idx, (key, row) in enumerate(zip(keys, plan)):
        row_path = os.path.join(rows_dir, key + ".json")
        if not os.path.exists(row_path):
            pending.append((idx, key, row))
            continue
        with open(row_path) as fh:
            rr = RowResult.from_dict(json.load(fh))
        for name, value in expected.items():
            if name not in rr.config or rr.config[name] != value:
                found = f"{name} = {rr.config[name]!r}" \
                    if name in rr.config else f"no {name} record"
                raise ValueError(
                    f"{row_path} has {found}, this sweep {name} = {value!r}; "
                    "resume with the same settings or use another out_dir")
        results[key] = rr
    # a model or datum the rows cannot build leaves no directory behind
    groups = {(r["alpha"], r["gamma"], r["k"]): (i, r) for i, _, r in pending}
    for idx, row in groups.values():
        _problem_and_datum(cfg, row, idx)

    os.makedirs(rows_dir, exist_ok=True)
    os.makedirs(os.path.join(out, "traces"), exist_ok=True)
    _atomic_write(os.path.join(out, "sweep_config.json"), cfg.to_json())

    def persist(key: str, rr: RowResult, trace) -> None:
        if trace is not None and len(trace) > 0:
            rel = os.path.join("traces", key + ".csv")
            write_trace(trace, os.path.join(out, rel))
            rr.trace_path = rel
        _atomic_write(os.path.join(rows_dir, key + ".json"),
                      json.dumps(rr.to_dict(), indent=1, sort_keys=True))
        results[key] = rr

    if workers <= 1:
        for idx, key, row in pending:
            rr, trace = _run_row(cfg, row, idx)
            persist(key, rr, trace)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_row, cfg, row, idx): key
                       for idx, key, row in pending}
            for fut, key in futures.items():
                rr, trace = fut.result()
                persist(key, rr, trace)

    ordered = SweepResult([results[k] for k in keys], out, cfg)
    _write_csv(ordered)
    return ordered


def load_sweep(out_dir: str) -> SweepResult:
    """Load a sweep directory.

    Row JSON files are preferred (they carry the rate fits); a bare
    ``sweep.csv`` — for example a synthetic one — also loads, with only
    the tabulated columns populated.
    """
    csv_path = os.path.join(out_dir, "sweep.csv")
    if not os.path.exists(csv_path):
        raise FileNotFoundError(f"no sweep.csv under {out_dir!r}")
    rows = []
    with open(csv_path, newline="") as fh:
        for rec in csv.DictReader(fh):
            key_row = {"alpha": float(rec["alpha"]) if rec["alpha"] else None,
                       "gamma": float(rec["gamma"]) if rec["gamma"] else None,
                       "k": int(rec["k"]), "nu": float(rec["nu"])}
            key = row_key(rec["model"], key_row)
            row_path = os.path.join(out_dir, "rows", key + ".json")
            if os.path.exists(row_path):
                with open(row_path) as fh2:
                    rows.append(RowResult.from_dict(json.load(fh2)))
                continue
            rows.append(RowResult(
                key=key, model=rec["model"], alpha=key_row["alpha"],
                gamma=key_row["gamma"],
                n0=int(rec["n0"]) if rec["n0"] else None,
                k=key_row["k"], nu=key_row["nu"],
                tau=float(rec["tau"]) if rec["tau"] else None,
                rate=None,
                q_pred=float(rec["q_pred"]) if rec["q_pred"] else None,
                status=rec["status"],
            ))
    cfg = None
    cfg_path = os.path.join(out_dir, "sweep_config.json")
    if os.path.exists(cfg_path):
        with open(cfg_path) as fh:
            cfg = SweepConfig.from_json(fh.read())
    return SweepResult(rows, out_dir, cfg)
