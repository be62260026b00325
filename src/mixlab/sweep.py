"""Batch (model, nu, k) grids with persistence and resumability.

Each grid row runs one viscous evolution and extracts both measured
time-scales: the threshold-crossing time tau (first passage of h below
e^-1 h(0)) and the asymptotic e-folding time 1/rate from the fitted
tail decay rate. Rows persist as individual JSON files the moment they
finish — the source of truth — and ``sweep.csv`` is regenerated from them
in enumeration order at the end, so an interrupted sweep resumes to a
bit-identical result set. ``sweep.csv`` is an output only: a sweep is
read back from its ``sweep_config.json`` and the row file of every row
that config plans. A row records the settings that shaped it, and a
resume and :func:`load_sweep` alike refuse rows of other settings. The
rows that share ``(alpha, gamma, k)`` run one model, built once
(:func:`row_groups`), and share the advection flows its op forms once
per step size.
"""

from __future__ import annotations

import ctypes
import json
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cache
from itertools import product, repeat

import numpy as np

from .diagnostics import fit_decay_rate, tau_threshold
from .evolution import EvolutionError, _certified_horizon, evolve, \
    write_trace
from .models import FAMILIES, _builder_defaults, build_model, \
    initial_datum, model_params

__all__ = ["SweepConfig", "RowResult", "SweepResult", "run_sweep", "load_sweep",
           "row_key", "row_datum", "row_groups"]

CSV_COLUMNS = ["model", "alpha", "gamma", "n0", "k", "nu", "tau", "q_pred", "status"]
#: version of the row values, which every row records
ROW_FORMAT = 7
#: a row stops once h has fallen to this fraction of h(0), ln 1000 = 6.9
#: e-folds down: past the TAIL_EFOLDS of its rate fit, so the fitted tail
#: never reaches back to t = 0
STOP_RATIO = 1e-3


#: axis -> how a row name writes its value (k is a plan row's int)
_NAMES = {"alpha": "a{:g}", "gamma": "g{:g}", "k": "k{}", "nu": "nu{:.4e}"}


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a model family crossed with parameter and viscosity lists.

    It crosses ``nus``, ``ks`` and the flag :data:`~mixlab.models.FAMILIES`
    names for its family (by default at the builder's value), each at one
    value or more; ``model_flags`` maps the family's other set flags to
    their values (``{"L": 3.0}``). ``datum`` names the initial data: the
    seeded ``"random-h1"`` or a name in the model's ``problem.data``
    (default ``"single-mode-m1"``, the lowest nontrivial mode).
    ``resolution`` overrides the model's default truncation. Every row
    runs until h has fallen to :data:`STOP_RATIO` h(0), within the time
    ln(1/STOP_RATIO)/(nu lam1) by which the diffusive tail certificate
    has got it there.
    """

    model: str
    nus: tuple
    ks: tuple = (1,)
    alphas: tuple = ()
    gammas: tuple = ()
    model_flags: dict = field(default_factory=dict)
    datum: str = "single-mode-m1"
    resolution: int | None = None
    seed: int = 0
    out_dir: str = "sweep-out"

    def __post_init__(self):
        model_params(self.model, self.model_flags)  # refuses unread flags
        _, flags, axis = FAMILIES[self.model]
        own = {flag for flag in flags if flag not in (axis, "resolution")}
        if set(self.model_flags) - own or None in self.model_flags.values():
            raise ValueError(f"model_flags {self.model_flags}: a {self.model} "
                             f"sweep sets only {sorted(own)} there")
        for nu in self.nus:
            if not 0.0 < nu < 1.0:
                raise ValueError(f"viscosities must lie in (0, 1), got {nu}")
        if self.resolution is not None and self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        # only the lists it crosses; no two values written alike in row names
        crossed = [name for name in (axis, "k", "nu") if name]
        for name, form in _NAMES.items():
            values, seen = tuple(getattr(self, name + "s")), {}
            if name == axis and not values:  # the builder's default
                values = (_builder_defaults(self.model)[flags[axis]],)
            object.__setattr__(self, name + "s", values)  # JSON gives lists
            if bool(values) != (name in crossed):
                raise ValueError(
                    f"{name}s = {values}: a {self.model} sweep crosses "
                    f"{', '.join(crossed)}, each at one value or more")
            for value in values:
                text = form.format(int(value) if name == "k" else value)
                if text in seen:
                    raise ValueError(
                        f"{name} values {seen[text]!r} and {value!r} are "
                        f"both written {text!r} in row names; drop one")
                seen[text] = value

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    @staticmethod
    def from_json(text: str, source: str = "sweep config") -> "SweepConfig":
        """The config written by :meth:`to_json`; ValueError naming
        ``source`` if it holds a field this version does not know or
        lacks a required one."""
        return SweepConfig(**_checked_fields(SweepConfig, json.loads(text),
                                             source))

    def row_config(self) -> dict:
        """What every row of this sweep records and a resumed sweep must
        match: the row format and each field but the output directory
        and the axis lists."""
        axes = ("out_dir", "nus", "ks", "alphas", "gammas")
        return {"row_format": ROW_FORMAT,
                **{k: v for k, v in asdict(self).items() if k not in axes}}

    def rows(self) -> list[dict]:
        """Deterministic row enumeration, nu varying fastest."""
        return [{"alpha": alpha, "gamma": gamma, "k": int(k), "nu": float(nu)}
                for alpha, gamma, k, nu in product(
                    self.alphas or (None,), self.gammas or (None,), self.ks,
                    self.nus)]


def _group_label(model: str, row: dict) -> str:
    """Group name: model, the value of the flag its sweeps cross, k."""
    return "_".join([model, *(_NAMES[name].format(row[name]) for name in (
        FAMILIES[model][2], "k") if name)])


def row_key(model: str, row: dict) -> str:
    """Row (and trace file) name: its group's label, then nu."""
    return f"{_group_label(model, row)}_{_NAMES['nu'].format(row['nu'])}"


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
    def from_dict(d: dict, source: str = "row") -> "RowResult":
        return RowResult(**_checked_fields(RowResult, d, source))


def _checked_fields(cls, data: dict, source: str) -> dict:
    """``data``, or a ValueError naming the keys ``cls`` has no field for
    or the required fields it lacks: a record of another layout is
    refused, never read in part."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    missing = [f.name for f in fields(cls) if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    for names, what in ((unknown, "has unknown"), (missing, "lacks")):
        if names:
            raise ValueError(f"{source} {what} {cls.__name__} field(s) "
                             f"{', '.join(names)}")
    return data


def _same_setting(model: str, name: str, found, value) -> bool:
    """Whether a row's recorded :meth:`SweepConfig.row_config` field
    ``name`` matches this sweep's; model flags match when they give the
    builder the same keywords, its default in place of a flag left out."""
    if name != "model_flags":
        return found == value
    defaults = _builder_defaults(model)
    return {**defaults, **model_params(model, found)} \
        == {**defaults, **model_params(model, value)}


def row_groups(cfg: SweepConfig, rows) -> list:
    """``(plan index, row)`` pairs of ``cfg``'s plan, a row being a plan
    row or a :class:`RowResult`, grouped by the label of the plan row (its
    axis value and k): ``(label, the model's builder keywords, pairs)``."""
    plan, groups = cfg.rows(), {}
    for index, row in rows:
        label = _group_label(cfg.model, plan[index])
        if label not in groups:
            groups[label] = (label, model_params(cfg.model, {
                **plan[index], **cfg.model_flags,
                "resolution": cfg.resolution}), [])
        groups[label][2].append((index, row))
    return list(groups.values())


@dataclass
class SweepResult:
    rows: list
    out_dir: str
    config: SweepConfig

    @property
    def csv_path(self) -> str:
        return os.path.join(self.out_dir, "sweep.csv")

    def groups(self) -> list:
        """:func:`row_groups` of the rows whose status is ``ok``."""
        return row_groups(self.config, [(i, r) for i, r in enumerate(self.rows)
                                        if r.status == "ok"])


def _row_path(out_dir: str, key: str) -> str:
    return os.path.join(out_dir, "rows", key + ".json")


def _check_settings(path: str, recorded: dict, cfg: SweepConfig,
                    expected: dict) -> None:
    """A ValueError naming ``path`` and the first field of ``expected``,
    ``cfg``'s :meth:`SweepConfig.row_config` (its callers form it once a
    directory), that ``recorded`` holds otherwise or not at all."""
    for name, value in expected.items():
        if name not in recorded or not _same_setting(
                cfg.model, name, recorded[name], value):
            found = f"{name} = {recorded[name]!r}" \
                if name in recorded else f"no {name} record"
            raise ValueError(
                f"{path} has {found}, this sweep {name} = {value!r}; a "
                "sweep directory holds the rows of one configuration: use "
                "another directory for other settings")


def _read_row(path: str, cfg: SweepConfig, expected: dict) -> RowResult:
    """The row in ``path``, or the ValueError of :func:`_check_settings`
    where it records other settings: :func:`run_sweep` and
    :func:`load_sweep` accept and refuse the same rows."""
    with open(path) as fh:
        rr = RowResult.from_dict(json.load(fh), path)
    _check_settings(path, rr.config, cfg, expected)
    return rr


def row_datum(cfg: SweepConfig, problem, index: int) -> np.ndarray:
    """The initial datum of row ``index`` of ``cfg``'s plan, on its model."""
    return initial_datum(problem, cfg.datum, seed=(cfg.seed, index))


def _run_row(cfg: SweepConfig, problem, row: dict, index: int):
    """Execute one row on its group's model; pure function of the four."""
    datum = row_datum(cfg, problem, index)
    nu = row["nu"]
    result = RowResult(
        key=row_key(cfg.model, row), model=cfg.model, alpha=row["alpha"],
        gamma=row["gamma"], n0=problem.params.get("n0"), k=row["k"], nu=nu,
        tau=None, rate=None, q_pred=problem.q, status="ok",
        config=cfg.row_config(),
    )
    try:
        trace = evolve(problem, datum, nu,
                       _certified_horizon(problem, nu, STOP_RATIO),
                       stop_ratio=STOP_RATIO)
    except EvolutionError as exc:
        result.status = f"error: {exc}"
        return result, None

    try:
        result.tau = tau_threshold(trace)
    except ValueError:
        result.status = "unresolved"
    result.meta = {
        "t_end": float(trace.times[-1]),
        "dt": trace.dt,
        "h_end_over_h0": float(trace.h[-1] / trace.h[0]),
        **{key: trace.meta[key] for key in (
            "n_steps", "sample_interval", "max_steps_per_sample", "err_est",
            "stop_reason", "versions")},
        "warnings": list(trace.meta["warnings"]),
    }
    try:  # tau stands without a rate: a failed rate fit is a warning
        rf = fit_decay_rate(trace.times, trace.h)
        if rf.rate <= 0.0:
            raise ValueError(f"the tail fit gives {rf.rate:.3e} <= 0")
        result.rate, result.fit["rate_fit"] = rf.rate, asdict(rf)
    except ValueError as exc:
        result.meta["warnings"].append(f"no decay rate: {exc}")
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


#: the OpenBLAS that numpy bundles, the one mixlab calls: (package, the
#: suffix of its ``scipy_openblas_*`` symbols)
_OPENBLAS = ((np, "64_"),)


@cache
def _openblas_threads() -> tuple:
    """``(get, set)`` ctypes calls of the thread count of each OpenBLAS
    of :data:`_OPENBLAS` (``scipy_openblas_get_num_threads64_`` and
    ``..._set_...`` in ``libscipy_openblas*`` under ``numpy.libs``),
    resolved once a process. One not found is left out, with a
    warning."""
    found = []
    for package, suffix in _OPENBLAS:
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                            package.__name__ + ".libs")
        try:
            lib = ctypes.CDLL(os.path.join(libs, next(
                name for name in os.listdir(libs)
                if name.startswith("libscipy_openblas"))))
            get, set_ = (getattr(lib, f"scipy_openblas_{verb}_num_threads"
                                     f"{suffix}") for verb in ("get", "set"))
        except (OSError, StopIteration, AttributeError) as exc:
            warnings.warn(f"no thread control for {package.__name__}'s "
                          f"OpenBLAS ({exc!r}); pool workers keep its "
                          "default thread count", RuntimeWarning)
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        found.append((get, set_))
    return tuple(found)


def _one_blas_thread(blas: tuple) -> None:
    """A pool worker's initializer: one thread in each OpenBLAS. A forked
    worker otherwise starts a BLAS thread per core, and the workers'
    threads oversubscribe the cores."""
    for _, set_ in blas:
        set_(1)


def _row_pool(workers: int) -> ProcessPoolExecutor:
    """A pool of ``workers`` forked processes with one BLAS thread each;
    the OpenBLAS calls are resolved here, so that a warning about them is
    raised in this process, not in a worker."""
    return ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_one_blas_thread, initargs=(_openblas_threads(),))


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepResult:
    """Run (or resume) a sweep.

    Rows already present under ``out_dir/rows/`` are not recomputed, but
    each must record this sweep's :meth:`SweepConfig.row_config`
    (:func:`_read_row`), and so must a ``sweep_config.json`` already
    there, whose axis lists alone may differ (a resume may extend them):
    otherwise the ValueError naming the file and the field is raised
    before anything is written, as is the ValueError of a model or datum
    a pending row cannot build. A run's EvolutionError is recorded in the
    row status; any other error is raised once the rows before it in plan
    order are persisted, and no ``sweep.csv`` is written. Workers > 1
    runs pending rows in a pool of forked processes with one BLAS thread
    each (:func:`_row_pool`), which rebuild each row's model from its
    pickled recipe, once for a run of a group's rows; all files are
    written here.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    out = cfg.out_dir
    plan = cfg.rows()
    keys = [row_key(cfg.model, row) for row in plan]
    expected = cfg.row_config()
    results: dict[str, RowResult] = {}
    pending = []
    for idx, key in enumerate(keys):
        row_path = _row_path(out, key)
        if not os.path.exists(row_path):
            pending.append(idx)
            continue
        results[key] = _read_row(row_path, cfg, expected)
    cfg_path = os.path.join(out, "sweep_config.json")
    if os.path.exists(cfg_path):  # another sweep's rows may share no key
        with open(cfg_path) as fh:
            _check_settings(cfg_path, SweepConfig.from_json(
                fh.read(), cfg_path).row_config(), cfg, expected)
    # one model per group, and a model or datum the rows cannot build
    # leaves no directory behind; a group's rows are consecutive in plan order
    runs, groups = [], row_groups(cfg, [(i, plan[i]) for i in pending])
    for _, params, pairs in groups:
        problem = build_model(cfg.model, **params)
        row_datum(cfg, problem, pairs[0][0])
        runs += [(problem, row, i) for i, row in pairs]

    os.makedirs(os.path.join(out, "rows"), exist_ok=True)
    os.makedirs(os.path.join(out, "traces"), exist_ok=True)
    _atomic_write(cfg_path, cfg.to_json())

    pool = _row_pool(workers) if workers > 1 else None
    with pool or nullcontext():  # both maps yield in plan order
        for rr, trace in (pool.map if pool else map)(
                _run_row, repeat(cfg, len(runs)), *zip(*runs)):
            if trace is not None and len(trace) > 0:
                rr.trace_path = os.path.join("traces", rr.key + ".csv")
                write_trace(trace, os.path.join(out, rr.trace_path))
            _atomic_write(_row_path(out, rr.key),
                          json.dumps(rr.to_dict(), indent=1, sort_keys=True))
            results[rr.key] = rr

    ordered = SweepResult([results[k] for k in keys], out, cfg)
    _write_csv(ordered)
    return ordered


def load_sweep(out_dir: str) -> SweepResult:
    """Load a sweep directory: its ``sweep_config.json`` and the row file
    of every row that config plans, in plan order.

    A missing config or row file is a FileNotFoundError naming it, so the
    rows read back are exactly the rows the sweep planned; an interrupted
    sweep loads once ``ed-sweep`` has resumed it. A row of other settings
    is the ValueError of :func:`_read_row`, as on a resume.
    """
    cfg_path = os.path.join(out_dir, "sweep_config.json")
    if not os.path.exists(cfg_path):
        raise FileNotFoundError(f"no sweep_config.json under {out_dir!r}")
    with open(cfg_path) as fh:
        cfg = SweepConfig.from_json(fh.read(), cfg_path)
    rows, expected = [], cfg.row_config()
    for row in cfg.rows():
        key = row_key(cfg.model, row)
        path = _row_path(out_dir, key)
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"row {key} has no file {path}; the sweep is unfinished: "
                f"resume it with ed-sweep")
        rows.append(_read_row(path, cfg, expected))
    return SweepResult(rows, out_dir, cfg)
