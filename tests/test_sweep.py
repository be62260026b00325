"""Tests for sweep planning, persistence, and resume semantics."""

import json
import os

import numpy as np
import pytest

import mixlab as mx


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


def test_config_json_roundtrip():
    cfg = mx.SweepConfig(model="spiral", nus=(0.1, 0.01), ks=(1, 2),
                         alphas=(1.0, 4.0), resolution=128, seed=7,
                         out_dir="somewhere")
    again = mx.SweepConfig.from_json(cfg.to_json())
    assert again == cfg


def test_row_enumeration_order_and_count():
    cfg = mx.SweepConfig(model="spiral", nus=(0.1, 0.05), ks=(1, 2),
                         alphas=(1.0, 2.0))
    plan = cfg.rows()
    assert len(plan) == 8
    # alpha varies slowest, nu fastest
    assert [r["alpha"] for r in plan] == [1.0] * 4 + [2.0] * 4
    assert [r["nu"] for r in plan] == [0.1, 0.05] * 4


def test_empty_plan_writes_header_only_csv(tmp_path):
    cfg = _heat_cfg(tmp_path, nus=())
    result = mx.run_sweep(cfg)
    assert result.rows == []
    assert _read(result.csv_path) == "model,alpha,gamma,n0,k,nu,tau,q_pred,status\n"


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
    # such a row still loads
    assert mx.load_sweep(str(tmp_path)).rows[0].config == {}


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


def test_unresolved_row_recorded_not_raised(tmp_path):
    # horizon far too short to cross theta: status records it, nothing raises
    cfg = _heat_cfg(tmp_path, nus=(0.1,), t_end_factor=0.05)
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


def test_load_sweep_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        mx.load_sweep(str(tmp_path / "nope"))


def test_load_sweep_roundtrip(tmp_path):
    cfg = _heat_cfg(tmp_path, nus=(0.1, 0.05))
    ran = mx.run_sweep(cfg)
    loaded = mx.load_sweep(str(tmp_path))
    assert loaded.config == cfg
    assert [r.key for r in loaded.rows] == [r.key for r in ran.rows]
    assert loaded.rows[0].rate == ran.rows[0].rate  # row JSON carries the fit


def test_load_sweep_from_bare_csv(tmp_path):
    nus = np.geomspace(1e-4, 1e-2, 5)
    lines = ["model,alpha,gamma,n0,k,nu,tau,q_pred,status"]
    for nu in nus:
        lines.append(f"shear,,2,1,1,{nu:.17g},{nu ** -0.6:.17g},0.8,ok")
    lines.append("shear,,2,1,1,0.5,,0.8,unresolved")
    (tmp_path / "sweep.csv").write_text("\n".join(lines) + "\n")

    loaded = mx.load_sweep(str(tmp_path))
    assert loaded.config is None
    assert len(loaded.rows) == 6
    ok = [r for r in loaded.rows if r.status == "ok"]
    assert all(r.rate is None for r in ok)
    assert loaded.rows[-1].tau is None
    fit = mx.ed_exponent((np.array([r.nu for r in ok]),
                          np.array([r.tau for r in ok])))
    assert abs(fit.exponent - 0.6) < 1e-12
