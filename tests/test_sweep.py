"""Tests for sweep planning, persistence, and resume semantics."""

import dataclasses
import json
import os
import pathlib
import re
import pickle
import tempfile
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixlab as mx
from mixlab import sweep
from mixlab.models import FourierPhase, RadialPhase, SkewMatrix


def _heat_cfg(out_dir, nus=(0.1,), **kw):
    kw.setdefault("resolution", 64)
    return mx.SweepConfig(model="heat", nus=nus, out_dir=str(out_dir), **kw)


def _read(path):
    with open(path) as fh:
        return fh.read()


def test_config_validates_viscosities():
    with pytest.raises(ValueError, match="viscosities"):
        mx.SweepConfig(model="heat", nus=(0.1, 1.5))
    with pytest.raises(ValueError, match="viscosities"):
        mx.SweepConfig(model="heat", nus=(0.0,))


@pytest.mark.parametrize("axes, pair", [
    (dict(model="spiral", alphas=(1.0, 1.0000001)), "1.0 and 1.0000001"),
    (dict(model="shear", gammas=(2.0, 2.0000001)), "2.0 and 2.0000001"),
    (dict(model="heat", ks=(1, 2, 1)), "1 and 1"),
    (dict(model="heat", nus=(0.1, 1e-3, 1.00001e-3)), "0.001 and 0.00100001"),
], ids=["alpha", "gamma", "k", "nu"])
def test_config_refuses_values_that_share_a_row_name(axes, pair):
    """Two values of an axis that a row name writes alike would share one
    row file; the config refuses them and names both."""
    axes = {"nus": (0.1,), **axes}
    with pytest.raises(ValueError, match=f"values {pair} are both written"):
        mx.SweepConfig(**axes)


def test_config_json_roundtrip():
    cfg = mx.SweepConfig(model="spiral", nus=(0.1, 0.01), ks=(1, 2),
                         alphas=(1.0, 4.0), resolution=128, seed=7,
                         out_dir="somewhere")
    again = mx.SweepConfig.from_json(cfg.to_json())
    assert again == cfg


def test_config_reads_tau_at_e_minus_1_only():
    """theta and stop_ratio are no settings: a config neither holds nor
    records them. A row stops below its crossing level e^-1, and deeper
    than the TAIL_EFOLDS of its rate fit. (A config that holds either is
    refused: test_cli's test_a_sweep_of_an_older_row_format_is_refused.)"""
    cfg = mx.SweepConfig(model="heat", nus=(0.1,))
    for name in ("theta", "stop_ratio"):
        assert name not in {f.name for f in dataclasses.fields(cfg)}
        assert name not in json.loads(cfg.to_json())
        assert name not in cfg.row_config()
    assert sweep.STOP_RATIO < mx.diagnostics.THETA_DEFAULT
    assert np.log(1.0 / sweep.STOP_RATIO) > mx.diagnostics.TAIL_EFOLDS


def test_row_enumeration_order_and_count():
    cfg = mx.SweepConfig(model="spiral", nus=(0.1, 0.05), ks=(1, 2),
                         alphas=(1.0, 2.0))
    plan = cfg.rows()
    assert len(plan) == 8
    # alpha varies slowest, nu fastest
    assert [r["alpha"] for r in plan] == [1.0] * 4 + [2.0] * 4
    assert [r["nu"] for r in plan] == [0.1, 0.05] * 4


@pytest.mark.parametrize("axes, message", [
    (dict(nus=()), "nus = (): a heat sweep crosses k, nu"),
    (dict(nus=(0.1,), ks=()), "ks = (): a heat sweep crosses k, nu"),
], ids=["nus", "ks"])
def test_config_refuses_an_empty_sweep(axes, message):
    """A sweep of no viscosity or no wavenumber plans no row; the config
    refuses it rather than leave a sweep.csv that is only a header."""
    with pytest.raises(ValueError, match=re.escape(message)):
        mx.SweepConfig(model="heat", **axes)


@pytest.mark.parametrize("workers", [0, -2])
def test_run_sweep_refuses_a_pool_below_one(tmp_path, workers):
    with pytest.raises(ValueError, match=f"workers must be >= 1, got "
                                         f"{workers}"):
        mx.run_sweep(_heat_cfg(tmp_path / "s"), workers=workers)
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("kw, message", [
    (dict(model="spiral", model_flags={"L": 3.0}),
     "the spiral model does not read --L"),
    (dict(model="heat", model_flags={"profile": "sin"}),
     "the heat model does not read --profile"),
    (dict(model="spiral", model_flags={"alpha": 2.0}),
     "model_flags {'alpha': 2.0}: a spiral sweep sets only [] there"),
    (dict(model="kolmogorov", model_flags={"resolution": 16}),
     "model_flags {'resolution': 16}: a kolmogorov sweep sets only ['L'] "
     "there"),
    (dict(model="kinetic", model_flags={"d": None}),
     "model_flags {'d': None}: a kinetic sweep sets only ['d'] there"),
    (dict(model="shear", model_flags={"color": "red"}),
     "model_flags {'color': 'red'}: a shear sweep sets only ['n0', "
     "'profile'] there"),
    (dict(model="spiral", gammas=(1.0, 2.0)),
     "gammas = (1.0, 2.0): a spiral sweep crosses alpha, k, nu"),
    (dict(model="heat", gammas=(1.0,)),
     "gammas = (1.0,): a heat sweep crosses k, nu"),
    (dict(model="shear", alphas=(1.0,)),
     "alphas = (1.0,): a shear sweep crosses gamma, k, nu"),
], ids=["unread", "heat-profile", "axis", "resolution", "unset", "no-flag",
        "spiral-gammas", "heat-gammas", "shear-alphas"])
def test_config_refuses_a_flag_its_family_does_not_set(kw, message):
    """model_flags hold only the family's set flags other than its axis
    and the resolution; an axis list is taken only for the flag the
    family's sweeps cross."""
    with pytest.raises(ValueError, match=re.escape(message)):
        mx.SweepConfig(nus=(0.1,), **kw)


def test_config_model_flags_reach_the_builder():
    """A family's set flags go to its builder; the crossed flag defaults
    to the builder's value."""
    cfg = mx.SweepConfig(model="kolmogorov", nus=(0.1,),
                         model_flags={"L": 3.0}, resolution=8)
    ((label, params, _),) = sweep.row_groups(cfg, enumerate(cfg.rows()))
    assert (label, params) == ("kolmogorov_k1", {"k": 1, "L": 3.0, "M": 8})
    assert mx.SweepConfig(model="shear", nus=(0.1,)).gammas == (2.0,)
    assert mx.SweepConfig(model="spiral", nus=(0.1,)).alphas == (1.0,)
    assert mx.SweepConfig(model="heat", nus=(0.1,)).gammas == ()


def test_heat_sweep_tau_scales_like_inverse_nu(tmp_path):
    cfg = _heat_cfg(tmp_path, nus=(0.1, 0.01))
    result = mx.run_sweep(cfg)
    assert [r.status for r in result.rows] == ["ok", "ok"]
    tau_a, tau_b = result.rows[0].tau, result.rows[1].tau
    # single-mode datum on the lowest eigenvalue 2: tau = 1 / (2 nu)
    assert abs(tau_a - 5.0) < 1e-6
    assert abs(tau_b / tau_a - 10.0) < 1e-6
    # the fitted asymptotic rate agrees with the exact decay constant
    for row in result.rows:
        assert abs(row.rate - 2.0 * row.nu) / (2.0 * row.nu) < 1e-6
    # traces were persisted next to the rows
    for row in result.rows:
        trace = mx.read_trace(os.path.join(str(tmp_path), row.trace_path))
        assert trace.nu == row.nu


def test_a_heat_row_runs_to_its_certified_horizon(tmp_path):
    """A heat row's horizon is ln(1/STOP_RATIO)/(nu lam1), the time by
    which the tail certificate gets h to STOP_RATIO; its sample interval is
    1/1000 of it, and the row stops on stop_ratio within it."""
    cfg = _heat_cfg(tmp_path, nus=(0.1, 0.01))
    for row in mx.run_sweep(cfg).rows:
        horizon = np.log(1.0 / sweep.STOP_RATIO) / row.nu  # lam1 = 1
        trace = mx.read_trace(os.path.join(str(tmp_path), row.trace_path))
        assert row.meta["stop_reason"] == "stop_ratio"
        assert trace.h[-1] <= sweep.STOP_RATIO * trace.h[0] < trace.h[-2]
        assert trace.times[-1] == row.meta["t_end"] <= horizon
        assert row.meta["sample_interval"] == pytest.approx(horizon / 1000,
                                                            rel=1e-12)


@pytest.mark.parametrize("model, axes", [
    ("heat", {}), ("shear", {"gammas": (2.0,)})], ids=["heat", "shear"])
def test_a_rows_rate_is_fitted_on_its_tail(tmp_path, model, axes):
    """A row stops STOP_RATIO down, more than TAIL_EFOLDS below h(0), so
    the window of its rate fit starts after t = 0 and ends at the row's
    end, and the row warns of nothing."""
    cfg = mx.SweepConfig(model=model, nus=(1e-2,), resolution=32,
                         out_dir=str(tmp_path), **axes)
    (row,) = mx.run_sweep(cfg).rows
    assert row.status == "ok" and row.meta["warnings"] == []
    assert row.meta["h_end_over_h0"] <= sweep.STOP_RATIO
    start, end = row.fit["rate_fit"]["window"]
    assert 0.0 < start < end == row.meta["t_end"]


@settings(max_examples=8, deadline=None)
@given(st.floats(min_value=-4.0, max_value=-2.0), st.sampled_from([1.0, 2.0]))
def test_the_certified_horizon_cuts_no_shear_row_short(log_nu, gamma):
    """A shear row stops on stop_ratio well inside its certified horizon:
    run with a horizon 10x longer, that evolve does not cut, it gives the
    same tau, 1/rate and step count."""
    cfg = mx.SweepConfig(model="shear", nus=(10.0 ** log_nu,),
                         gammas=(gamma,), resolution=32)
    (_, params, [(index, row)]), = sweep.row_groups(cfg, enumerate(cfg.rows()))
    problem = mx.build_model("shear", **params)
    certified, _ = sweep._run_row(cfg, problem, row, index)
    horizon = sweep._certified_horizon(problem, row["nu"], sweep.STOP_RATIO)
    with mock.patch.object(sweep, "_certified_horizon",
                           lambda *args: 10.0 * horizon), \
            mock.patch.object(mx.evolution, "_certified_horizon",
                              lambda problem, nu, ratio, t_end: t_end):
        longer, _ = sweep._run_row(cfg, problem, row, index)
    assert certified.status == longer.status == "ok"
    assert certified.meta["stop_reason"] == "stop_ratio"
    assert longer.tau == certified.tau
    assert longer.rate == certified.rate
    assert longer.meta["n_steps"] == certified.meta["n_steps"]


def test_resume_skips_finished_rows(tmp_path):
    cfg = _heat_cfg(tmp_path, nus=(0.1, 0.05))
    first = mx.run_sweep(cfg)
    csv_text = _read(first.csv_path)
    row_paths = [os.path.join(str(tmp_path), "rows", r.key + ".json")
                 for r in first.rows]
    stamps = [os.stat(p).st_mtime_ns for p in row_paths]

    second = mx.run_sweep(cfg)
    assert _read(second.csv_path) == csv_text
    assert [os.stat(p).st_mtime_ns for p in row_paths] == stamps


def test_partial_then_extended_plan_reuses_rows(tmp_path):
    part = _heat_cfg(tmp_path, nus=(0.1,))
    first = mx.run_sweep(part)
    key0 = first.rows[0].key
    stamp = os.stat(os.path.join(str(tmp_path), "rows", key0 + ".json")).st_mtime_ns

    full = _heat_cfg(tmp_path, nus=(0.1, 0.05))
    second = mx.run_sweep(full)
    assert [r.key for r in second.rows][0] == key0
    assert len(second.rows) == 2
    assert os.stat(os.path.join(str(tmp_path), "rows", key0 + ".json")).st_mtime_ns == stamp


def test_resume_refuses_rows_of_other_settings(tmp_path):
    mx.run_sweep(_heat_cfg(tmp_path, nus=(0.1,)))
    row_path = tmp_path / "rows" / "heat_k1_nu1.0000e-01.json"
    cfg_text = _read(tmp_path / "sweep_config.json")
    # another resolution: refused before anything is written
    with pytest.raises(ValueError, match="resolution = 64, this sweep "
                                         "resolution = 32"):
        mx.run_sweep(_heat_cfg(tmp_path, nus=(0.1, 0.05), resolution=32))
    assert _read(tmp_path / "sweep_config.json") == cfg_text
    assert sorted(os.listdir(tmp_path / "rows")) == [row_path.name]
    # a row written before rows recorded their settings
    row = json.loads(_read(row_path))
    del row["config"]
    row_path.write_text(json.dumps(row))
    with pytest.raises(ValueError, match="no row_format record"):
        mx.run_sweep(_heat_cfg(tmp_path, nus=(0.1,)))
    # and loading it is refused alike
    with pytest.raises(ValueError, match="no row_format record"):
        mx.load_sweep(str(tmp_path))


#: row_config field -> values that a row of a sweep of
#: ``_heat_cfg(resolution=16)`` does not record
_OTHER_SETTINGS = {
    "row_format": st.integers().filter(lambda v: v != sweep.ROW_FORMAT),
    "model": st.sampled_from(sorted(set(mx.models.FAMILIES) - {"heat"})),
    "model_flags": st.floats(0.25, 4.0).filter(lambda g: g != 2.0).map(
        lambda g: {"gamma": g}),  # gamma 2 is the builder's default
    "datum": st.text(max_size=8).filter(lambda d: d != "single-mode-m1"),
    "resolution": st.none() | st.integers().filter(lambda n: n != 16),
    "seed": st.integers().filter(lambda v: v != 0),
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), name=st.sampled_from(sorted(_OTHER_SETTINGS)),
       index=st.integers(0, 1), delete=st.booleans())
def test_a_config_mismatch_is_always_caught(data, name, index, delete):
    """One row_config field of one row changed or deleted: load_sweep
    and run_sweep both refuse the directory with a ValueError naming the
    row file and the field, and nothing is written."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _heat_cfg(tmp, nus=(0.1, 0.05), resolution=16)
        os.makedirs(os.path.join(tmp, "rows"))
        pathlib.Path(tmp, "sweep_config.json").write_text(cfg.to_json())
        paths = []
        for row in cfg.rows():
            rr = mx.RowResult(key=sweep.row_key("heat", row), model="heat",
                              n0=None, **row, tau=None, rate=None,
                              q_pred=1.0, status="ok",
                              config=cfg.row_config())
            paths.append(pathlib.Path(tmp, "rows", rr.key + ".json"))
            paths[-1].write_text(json.dumps(rr.to_dict()))
        assert len(mx.load_sweep(tmp).rows) == 2
        row = json.loads(paths[index].read_text())
        if delete:
            del row["config"][name]
            found = f"no {name} record"
        else:
            row["config"][name] = data.draw(_OTHER_SETTINGS[name])
            found = f"{name} = {row['config'][name]!r}"
        paths[index].write_text(json.dumps(row))

        def files():
            return {p: p.read_bytes() for p in pathlib.Path(tmp).rglob("*")
                    if p.is_file()}

        before = files()
        for read in (mx.load_sweep, lambda _: mx.run_sweep(cfg)):
            with pytest.raises(ValueError) as exc:
                read(tmp)
            assert str(exc.value).startswith(
                f"{paths[index]} has {found}, this sweep {name} = ")
        assert files() == before


def test_rows_and_traces_record_versions(tmp_path):
    """A fresh row and its trace sidecar record the mixlab, numpy and
    scipy versions, outside the row settings a resume compares."""
    import scipy

    versions = {"mixlab": mx.__version__, "numpy": np.__version__,
                "scipy": scipy.__version__}
    result = mx.run_sweep(_heat_cfg(tmp_path))
    row = json.loads(_read(tmp_path / "rows" / (result.rows[0].key + ".json")))
    sidecar = json.loads(_read(
        tmp_path / (os.path.splitext(row["trace_path"])[0] + ".json")))
    assert row["meta"]["versions"] == sidecar["versions"] == versions
    assert "versions" not in row["config"]


def test_record_of_another_layout_is_refused():
    """A row or config with a field the dataclass lacks, or without a
    required field, is a ValueError naming the field and the source."""
    base = {"key": "k", "model": "heat", "alpha": None, "gamma": None,
            "n0": None, "k": 1, "nu": 0.1, "tau": None, "rate": None,
            "q_pred": None, "status": "ok"}
    assert mx.RowResult.from_dict(dict(base)).status == "ok"
    with pytest.raises(ValueError, match="x.json has unknown RowResult "
                                         "field.s. extra"):
        mx.RowResult.from_dict({**base, "extra": 1}, "x.json")
    short = {k: v for k, v in base.items() if k not in ("status", "nu")}
    with pytest.raises(ValueError, match="x.json lacks RowResult field.s. "
                                         "nu, status"):
        mx.RowResult.from_dict(short, "x.json")
    with pytest.raises(ValueError, match="c.json lacks SweepConfig field.s. "
                                         "model"):
        mx.SweepConfig.from_json("{}", "c.json")


def test_unbuildable_datum_writes_nothing(tmp_path):
    out = tmp_path / "s"
    with pytest.raises(ValueError, match="datum 'uniform' is not defined "
                                         "for the heat model"):
        mx.run_sweep(_heat_cfg(out, nus=(0.1, 0.05), datum="uniform"))
    assert not out.exists()


def test_sweep_deterministic_across_directories(tmp_path):
    cfg_a = _heat_cfg(tmp_path / "a", nus=(0.1, 0.05), datum="random-h1", seed=3)
    cfg_b = _heat_cfg(tmp_path / "b", nus=(0.1, 0.05), datum="random-h1", seed=3)
    res_a = mx.run_sweep(cfg_a)
    res_b = mx.run_sweep(cfg_b)
    assert _read(res_a.csv_path) == _read(res_b.csv_path)


def test_unresolved_row_recorded_not_raised(tmp_path, monkeypatch):
    # a trace that never crosses e^-1 h(0): status records it, nothing raises
    def no_crossing(trace):
        raise ValueError("h never falls below e^-1 h(0)")

    monkeypatch.setattr(sweep, "tau_threshold", no_crossing)
    cfg = _heat_cfg(tmp_path, nus=(0.1,))
    result = mx.run_sweep(cfg)
    row = result.rows[0]
    assert row.status == "unresolved"
    assert row.tau is None
    lines = _read(result.csv_path).splitlines()
    cells = lines[1].split(",")
    assert cells[6] == ""  # empty tau cell
    assert cells[8] == "unresolved"


def test_row_keys_unique_across_grid(tmp_path):
    cfg = _heat_cfg(tmp_path, nus=(0.1, 0.06), ks=(1, 2))
    result = mx.run_sweep(cfg)
    keys = [r.key for r in result.rows]
    assert len(keys) == 4
    assert len(set(keys)) == 4


def test_parallel_matches_serial(tmp_path):
    serial = mx.run_sweep(_heat_cfg(tmp_path / "s", nus=(0.1, 0.05)))
    parallel = mx.run_sweep(_heat_cfg(tmp_path / "p", nus=(0.1, 0.05)), workers=2)
    assert _read(serial.csv_path) == _read(parallel.csv_path)


def test_sweep_builds_each_group_once(tmp_path):
    """A sweep builds one model per row group and runs the group's rows
    on it: two groups (k = 1, 2) of three viscosities, two builds."""
    built = []

    def counting(name, **params):
        built.append(params["k"])
        return mx.build_model(name, **params)

    cfg = _heat_cfg(tmp_path, nus=(0.1, 0.05, 0.02), ks=(1, 2),
                    resolution=16)
    with mock.patch.object(sweep, "build_model", counting):
        result = mx.run_sweep(cfg, workers=1)
    assert built == [1, 2]
    assert [r.status for r in result.rows] == ["ok"] * 6


def test_pool_writes_the_bytes_of_the_serial_run(tmp_path):
    """Pool workers get each row's model as its recipe and write the
    bytes of the serial run: rows, traces and sweep.csv, on two groups
    of a seeded spiral sweep."""
    runs = {}
    for workers in (1, 2):
        cfg = mx.SweepConfig(model="spiral", nus=(0.1, 0.05), ks=(1, 2),
                             alphas=(2.0,), datum="random-h1", seed=5,
                             resolution=16, out_dir=str(tmp_path / str(workers)))
        mx.run_sweep(cfg, workers=workers)
        runs[workers] = _result_files(cfg.out_dir)
    assert len(runs[1]) == 4 + 8 + 1  # row files, traces with sidecars, csv
    assert runs[2] == runs[1]


def _blas_threads(pause):
    """In a pool worker: its pid and the thread count of each OpenBLAS."""
    time.sleep(pause)  # so that each worker takes one task
    return os.getpid(), [get() for get, _ in sweep._openblas_threads()]


def test_pool_workers_run_one_blas_thread():
    """Each forked worker of a sweep's pool runs one thread in numpy's
    OpenBLAS, the one mixlab calls, and this process keeps its own count:
    with a BLAS thread per core in each worker, two workers on two cores
    ran a sweep up to 30x slower than one process."""
    blas = sweep._openblas_threads()
    assert len(blas) == 1
    before = [get() for get, _ in blas]
    with sweep._row_pool(2) as pool:
        reports = list(pool.map(_blas_threads, [0.3, 0.3]))
    assert len({pid for pid, _ in reports}) == 2
    assert [counts for _, counts in reports] == [[1], [1]]
    assert [get() for get, _ in blas] == before


def test_a_missing_openblas_symbol_warns_once(monkeypatch):
    """An OpenBLAS without the thread calls is left out with a warning,
    raised once a process, so a pool started later raises none."""
    monkeypatch.setattr(sweep, "_OPENBLAS", ((np, "_no_such_suffix"),))
    sweep._openblas_threads.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="no thread control for "
                                                "numpy's OpenBLAS"):
            assert sweep._openblas_threads() == ()
        assert sweep._openblas_threads() == ()  # no second warning
    finally:
        sweep._openblas_threads.cache_clear()


@pytest.mark.parametrize("model, axes, nus", [
    ("spiral", dict(alphas=(1.0,)), (1e-5, 1e-4, 1e-3, 1e-2)),
    ("kolmogorov", dict(model_flags={"L": 2.0}), (1e-4, 3e-4, 1e-3, 3e-3))],
    ids=["spiral", "kolmogorov"])
def test_each_model_forms_each_flow_once(tmp_path, monkeypatch, model, axes,
                                         nus):
    """The advection flow does not depend on nu: the four rows of one
    group, at resolution 64, form each step size's flow once between
    them, on their one model."""
    formed = []
    for cls in (FourierPhase, RadialPhase, SkewMatrix):
        def counting(op, t, form=cls._form_flow):
            formed.append((op, t))
            return form(op, t)

        monkeypatch.setattr(cls, "_form_flow", counting)
    cfg = mx.SweepConfig(model=model, nus=nus, resolution=64,
                         out_dir=str(tmp_path), **axes)
    result = mx.run_sweep(cfg)
    assert [r.status for r in result.rows] == ["ok"] * 4
    assert len({op for op, _ in formed}) == 1
    assert len(formed) == len({t for _, t in formed}) > 1


@pytest.mark.parametrize("model", ["spiral", "kolmogorov", "shear"])
def test_a_row_on_a_warm_model_is_the_row_on_a_cold_one(tmp_path, model):
    """A row run on a model whose flows another row has formed writes the
    bytes (row, trace and sidecar) and the final state of the same row
    on a freshly built model, and the warm model pickles to the bytes of
    the cold one."""
    cfg = mx.SweepConfig(model=model, nus=(1e-3, 1e-2), resolution=32,
                         datum="random-h1", out_dir=str(tmp_path))
    plan = cfg.rows()
    params = sweep.row_groups(cfg, list(enumerate(plan)))[0][1]
    warm, cold = (mx.build_model(model, **params) for _ in range(2))
    sweep._run_row(cfg, warm, plan[0], 0)
    assert warm.op._flows
    written = {}
    for name, problem in (("warm", warm), ("cold", cold)):
        rr, trace = sweep._run_row(cfg, problem, plan[1], 1)
        mx.write_trace(trace, tmp_path / f"{name}.npy")
        written[name] = (json.dumps(rr.to_dict(), sort_keys=True),
                         (tmp_path / f"{name}.npy").read_bytes(),
                         _read(tmp_path / f"{name}.json"),
                         trace.final_state.tobytes(),
                         trace.occupancy.tobytes())
    assert written["warm"] == written["cold"]
    assert pickle.dumps(warm) == pickle.dumps(cold)


def test_load_sweep_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError, match="sweep_config.json"):
        mx.load_sweep(str(tmp_path / "nope"))


def test_load_sweep_roundtrip(tmp_path):
    cfg = _heat_cfg(tmp_path, nus=(0.1, 0.05))
    ran = mx.run_sweep(cfg)
    loaded = mx.load_sweep(str(tmp_path))
    assert loaded.config == cfg
    assert [r.key for r in loaded.rows] == [r.key for r in ran.rows]
    assert loaded.rows[0].rate == ran.rows[0].rate  # row JSON carries the fit


class _Interrupt(Exception):
    """Stands for a kill between two rows of a serial sweep."""


def _interrupted_at(stop):
    """A ``sweep._run_row`` that raises on plan index ``stop``."""
    run_row = sweep._run_row

    def run(cfg, problem, row, idx):
        if idx == stop:
            raise _Interrupt
        return run_row(cfg, problem, row, idx)
    return run


def test_interrupted_extension_does_not_load(tmp_path):
    """Extending a finished sweep rewrites its config; interrupted after
    one new row, the directory is refused, not read as the two old rows
    of a stale sweep.csv under a four-viscosity config."""
    mx.run_sweep(_heat_cfg(tmp_path, nus=(0.1, 0.05)))
    extended = _heat_cfg(tmp_path, nus=(0.1, 0.05, 0.02, 0.01))
    with mock.patch.object(sweep, "_run_row", _interrupted_at(3)):
        with pytest.raises(_Interrupt):
            mx.run_sweep(extended)
    assert (tmp_path / "rows" / "heat_k1_nu2.0000e-02.json").exists()
    with pytest.raises(FileNotFoundError,
                       match="row heat_k1_nu1.0000e-02 .*ed-sweep"):
        mx.load_sweep(str(tmp_path))
    mx.run_sweep(extended)
    assert [r.nu for r in mx.load_sweep(str(tmp_path)).rows] == \
        [0.1, 0.05, 0.02, 0.01]


def _result_files(out_dir):
    """Every row, trace and sweep.csv byte, by name (sweep_config.json,
    which records out_dir, aside)."""
    root = pathlib.Path(out_dir)
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "sweep_config.json"}


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data(),
       nus=st.lists(st.sampled_from([0.1, 0.05, 0.02, 0.01]), min_size=1,
                    max_size=3, unique=True),
       ks=st.sampled_from([(1,), (1, 2)]))
def test_resume_after_interrupt_at_any_row_is_bit_identical(data, nus, ks):
    """A serial sweep killed at any row does not load, names the first
    row it lacks, and resumes to the bytes of an uninterrupted run. (For
    the pool path, see test_row_error_stops_the_sweep_in_plan_order.)"""
    stop = data.draw(st.integers(0, len(nus) * len(ks) - 1), label="stop")
    with tempfile.TemporaryDirectory() as tmp:
        whole, cut = (_heat_cfg(os.path.join(tmp, name), nus=tuple(nus),
                                ks=ks, resolution=16)
                      for name in ("whole", "cut"))
        mx.run_sweep(whole)
        with mock.patch.object(sweep, "_run_row", _interrupted_at(stop)):
            with pytest.raises(_Interrupt):
                mx.run_sweep(cut)
        first_missing = sweep.row_key("heat", cut.rows()[stop])
        with pytest.raises(FileNotFoundError,
                           match=f"row {re.escape(first_missing)} "):
            mx.load_sweep(cut.out_dir)
        mx.run_sweep(cut)
        assert _result_files(cut.out_dir) == _result_files(whole.out_dir)


@pytest.mark.parametrize("workers", [1, 2])
def test_row_error_stops_the_sweep_in_plan_order(tmp_path, workers):
    """A row that raises something other than EvolutionError, serial or
    in the pool, stops the sweep with that error: the rows before it in
    plan order are persisted, no later one and no sweep.csv, and a
    resume gives the bytes of an uninterrupted run."""
    nus = (0.1, 0.05, 0.02, 0.01)
    whole, cut = (_heat_cfg(tmp_path / name, nus=nus, resolution=16)
                  for name in ("whole", "cut"))
    mx.run_sweep(whole, workers=workers)
    evolve = sweep.evolve

    def failing(problem, f0, nu, *args, **kw):
        if nu == 0.02:
            raise RuntimeError("row failed")
        return evolve(problem, f0, nu, *args, **kw)

    with mock.patch.object(sweep, "evolve", failing):
        with pytest.raises(RuntimeError, match="row failed"):
            mx.run_sweep(cut, workers=workers)
    rows = pathlib.Path(cut.out_dir) / "rows"
    assert sorted(p.name for p in rows.iterdir()) == sorted(
        sweep.row_key("heat", row) + ".json" for row in cut.rows()[:2])
    assert not os.path.exists(os.path.join(cut.out_dir, "sweep.csv"))
    mx.run_sweep(cut, workers=workers)
    assert _result_files(cut.out_dir) == _result_files(whole.out_dir)


def test_a_shear_row_on_the_complex_path_matches_the_real_row(
        tmp_path, monkeypatch):
    """A shear row of a real datum steps real coefficients by the band;
    forced onto complex coefficients and the FFT pair (the parity flag
    off), it gives the same tau, 1/rate and step count."""
    def row(out):
        cfg = mx.SweepConfig(model="shear", nus=(1e-3,), resolution=64,
                             out_dir=str(out))
        (result,) = mx.run_sweep(cfg).rows
        assert result.status == "ok"
        return result

    assert mx.build_model("shear", M=64).op.odd
    real = row(tmp_path / "real")
    init = FourierPhase.__init__

    def complex_only(self, lam, rate):
        init(self, lam, rate)
        self.odd = False

    monkeypatch.setattr(FourierPhase, "__init__", complex_only)
    assert not mx.build_model("shear", M=64).op.odd
    cplx = row(tmp_path / "complex")
    assert cplx.tau == pytest.approx(real.tau, rel=1e-12, abs=0)
    assert 1 / cplx.rate == pytest.approx(1 / real.rate, rel=1e-12, abs=0)
    assert cplx.meta["n_steps"] == real.meta["n_steps"]


def test_nonpositive_rate_fit_is_a_row_warning(tmp_path, monkeypatch):
    """A tail fit whose rate is not positive records no rate, and the row,
    still ok on its tau, says why."""
    monkeypatch.setattr(sweep, "fit_decay_rate", lambda t, h: mx.RateFit(
        -0.5, 0.0, 0.0, (float(t[0]), float(t[-1])), t.size))
    res = mx.run_sweep(_heat_cfg(str(tmp_path / "s")))
    (row,) = res.rows
    assert row.status == "ok" and row.tau and row.rate is None
    assert row.fit == {}
    assert row.meta["warnings"] == [
        "no decay rate: the tail fit gives -5.000e-01 <= 0"]
