"""End-to-end tests for the command-line interface and its exit codes."""

import importlib.util
import json
import os
import pathlib

import numpy as np
import pytest

import mixlab as mx
from mixlab import cli, sweep


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_usage_errors_exit_code_1():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--model", "heat", "--no-such-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--model", "heat", "--nu", "abc",
                  "--t-end", "1"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:  # only ed-sweep runs a pool
        cli.main(["simulate", "--model", "heat", "--nu", "0.1",
                  "--t-end", "1", "--workers", "2"])
    assert exc.value.code == 1
    # the step is never a flag: every run takes the controlled step
    for argv in ([*_SIM, "--dt", "-1"], [*_SIM, "--dt", "0"],
                 [*_SIM, "--dt", "nan"], [*_SIM, "--dt", "0.1"],
                 ["ed-sweep", "--model", "heat", "--nus", "0.1,0.01",
                  "--dt", "0"],
                 ["ed-sweep", "--model", "heat", "--nus", "0.1,0.01",
                  "--dt", "0.1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
    # verify-bound takes no common flag, report only --out
    for argv in (["verify-bound", "d", "--seed", "5"],
                 ["verify-bound", "d", "--resolution", "7"],
                 ["verify-bound", "d", "--out", "x"],
                 ["report", "d", "--seed", "5"],
                 ["report", "d", "--resolution", "7"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1


def test_simulate_heat_writes_trace(tmp_path):
    rc = cli.main(["simulate", "--model", "heat", "--nu", "0.05",
                   "--t-end", "5", "--resolution", "32",
                   "--out", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "trace_heat_k1_nu5.0000e-02.csv"
    assert path.exists()
    trace = mx.read_trace(str(path))
    # single-mode datum on eigenvalue 2 decays like exp(-2 nu t)
    expected = trace.h[0] * np.exp(-0.1 * trace.times[-1])
    assert abs(trace.h[-1] - expected) / expected < 1e-9
    assert trace.nu == 0.05
    assert trace.model == "heat" and trace.meta["err_est"] == 0.0


def test_simulate_inviscid_spiral_preserves_h(tmp_path):
    rc = cli.main(["simulate", "--model", "spiral", "--nu", "0",
                   "--t-end", "3", "--resolution", "64",
                   "--out", str(tmp_path)])
    assert rc == 0
    trace = mx.read_trace(str(tmp_path / "trace_spiral_a1_k1_nu0.0000e+00.csv"))
    assert np.max(np.abs(trace.h - trace.h[0])) < 1e-12 * trace.h[0]


def test_bad_model_parameters_exit_code_1(tmp_path, capsys):
    rc = cli.main(["simulate", "--model", "kolmogorov", "--L", "1",
                   "--k", "1", "--nu", "0.1", "--t-end", "1",
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_mix_rate_shear(tmp_path):
    rc = cli.main(["mix-rate", "--model", "shear", "--resolution", "512",
                   "--t-max", "300", "--points", "32",
                   "--out", str(tmp_path)])
    assert rc == 0
    fit = _load_json(tmp_path / "mixing_shear_k1_fit.json")
    assert 0.4 < fit["p_measured"] < 0.6
    assert fit["p_predicted"] == 0.5
    assert (tmp_path / "mixing_shear_k1.csv").exists()
    assert (tmp_path / "mixing_shear_k1.svg").exists()


def test_mix_rate_spiral(tmp_path):
    rc = cli.main(["mix-rate", "--model", "spiral", "--resolution", "256",
                   "--t-max", "200", "--points", "24",
                   "--out", str(tmp_path)])
    assert rc == 0
    fit = _load_json(tmp_path / "mixing_spiral_k1_fit.json")
    assert 0.8 < fit["p_measured"] < 1.2
    assert fit["p_predicted"] == 1.0


def test_ed_sweep_and_report_heat(tmp_path):
    out = str(tmp_path / "sweep")
    rc = cli.main(["ed-sweep", "--model", "heat", "--nu-min", "0.001",
                   "--nu-max", "0.1", "--nu-count", "5",
                   "--resolution", "32", "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "sweep.csv"))

    rc = cli.main(["report", out])
    assert rc == 0
    report = _load_json(os.path.join(out, "report.json"))
    entry = report["groups"]["heat_k1"]
    # pure diffusion: tau = 1/(2 nu) on both time-scale bases
    assert abs(entry["q_crossing"] - 1.0) < 0.02
    assert abs(entry["q_rate"] - 1.0) < 0.02
    assert entry["verdict"] == "consistent with prediction"
    for svg in entry["svg"]:
        assert os.path.exists(svg)


def test_ed_sweep_k_list_and_report(tmp_path):
    out = str(tmp_path / "sweep")
    rc = cli.main(["ed-sweep", "--model", "spiral", "--k-list", "1,2",
                   "--nus", "1e-2,2e-2,5e-2,1e-1", "--resolution", "16",
                   "--out", out])
    assert rc == 0
    rows = mx.load_sweep(out).rows
    assert [r.k for r in rows] == [1] * 4 + [2] * 4
    # every row is a controlled run and records its splitting estimate
    assert all(isinstance(r.meta["err_est"], float) for r in rows)
    assert cli.main(["report", out]) == 0
    report = _load_json(os.path.join(out, "report.json"))
    assert list(report["groups"]) == ["spiral_a1_k1", "spiral_a1_k2"]


@pytest.mark.parametrize("dt", [None, 0.02])
def test_sweep_of_row_format_2_reports_but_does_not_resume(tmp_path, capsys,
                                                           dt):
    """A sweep written when the step was a setting (row format 2, a
    ``dt`` in its config and rows) loads, reports and verifies; resuming
    it is refused."""
    out = tmp_path / "sweep"
    argv = ["ed-sweep", "--model", "heat", "--nus", "0.1,0.05",
            "--resolution", "16", "--out", str(out)]
    assert cli.main(argv) == 0
    cfg_path = out / "sweep_config.json"
    cfg = sweep.SweepConfig.from_json(cfg_path.read_text())
    cfg_path.write_text(json.dumps({**_load_json(cfg_path), "dt": dt}))
    for path in (out / "rows").iterdir():
        row = _load_json(path)
        row["config"].update(row_format=2, dt=dt)
        path.write_text(json.dumps(row))
    assert mx.load_sweep(str(out)).config == cfg
    assert cli.main(["report", str(out)]) == 0
    assert cli.main(["verify-bound", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "row_format = 2, this sweep row_format = 3" in err
    assert "Traceback" not in err


def test_ed_sweep_unresolved_rows_exit_code_2(tmp_path, capsys):
    rc = cli.main(["ed-sweep", "--model", "heat", "--nus", "0.1,0.05",
                   "--t-end-factor", "0.05", "--resolution", "32",
                   "--out", str(tmp_path / "short")])
    assert rc == 2
    assert "did not complete" in capsys.readouterr().err


def _synthetic_sweep_dir(tmp_path, statuses=None):
    nus = np.geomspace(1e-6, 1e-3, 6)
    statuses = statuses or ["ok"] * nus.size
    lines = ["model,alpha,gamma,n0,k,nu,tau,q_pred,status"]
    for nu, status in zip(nus, statuses):
        tau = f"{nu ** -0.6:.17g}" if status == "ok" else ""
        lines.append(f"shear,,2,1,1,{nu:.17g},{tau},0.8,{status}")
    d = tmp_path / "syn"
    d.mkdir()
    (d / "sweep.csv").write_text("\n".join(lines) + "\n")
    return d


def test_report_recovers_synthetic_exponent(tmp_path):
    d = _synthetic_sweep_dir(tmp_path)
    rc = cli.main(["report", str(d)])
    assert rc == 0
    report = _load_json(d / "report.json")
    entry = report["groups"]["shear_g2_k1"]
    assert abs(entry["q_crossing"] - 0.6) < 1e-3
    assert entry["q_rate"] is None  # bare CSV carries no rate fits
    assert "q_rate_note" in entry
    assert entry["verdict"] == "consistent with prediction"
    assert (d / "tau_vs_nu_shear_g2_k1.svg").exists()


def test_report_missing_directory_exit_code_1(tmp_path, capsys):
    rc = cli.main(["report", str(tmp_path / "missing")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_report_without_completed_rows_exit_code_2(tmp_path):
    d = _synthetic_sweep_dir(tmp_path, statuses=["unresolved"] * 6)
    rc = cli.main(["report", str(d)])
    assert rc == 2
    assert not (d / "report.json").exists()


def test_verify_bound_on_shear_sweep(tmp_path):
    out = str(tmp_path / "sweep")
    rc = cli.main(["ed-sweep", "--model", "shear", "--nus", "0.03,0.01",
                   "--resolution", "64", "--out", out])
    assert rc == 0

    rc = cli.main(["verify-bound", out])
    assert rc == 0
    report = _load_json(os.path.join(out, "bounds.json"))
    assert len(report["rows"]) == 2
    assert all(row["passed"] for row in report["rows"])
    group = report["groups"]["shear_g2_k1"]
    assert group["q"] == 0.8
    assert group["a"] >= 1.0
    assert group["c0"] > 0.0


def test_row_warnings_reach_cli_output_and_report(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    rc = cli.main(["ed-sweep", "--model", "shear", "--gamma", "1",
                   "--resolution", "16", "--nus", "1e-3,3e-3", "--out", out])
    assert rc == 0
    rows = {r.key: r.meta["warnings"] for r in mx.load_sweep(out).rows}
    assert all(rows.values())  # under-resolved: every row warns
    lines = capsys.readouterr().out.splitlines()
    for key, warnings in rows.items():
        at = next(i for i, line in enumerate(lines) if line.startswith(key))
        assert lines[at + 1:at + 1 + len(warnings)] == \
            [f"  warning: {w}" for w in warnings]
    assert cli.main(["report", out]) == 0
    report = _load_json(os.path.join(out, "report.json"))
    assert report["groups"]["shear_g1_k1"]["warnings"] == rows
    with open(os.path.join(out, "sweep.csv")) as fh:
        assert fh.readline().strip().split(",") == sweep.CSV_COLUMNS


def test_verify_bound_requires_sweep_config(tmp_path, capsys):
    d = _synthetic_sweep_dir(tmp_path)
    rc = cli.main(["verify-bound", str(d)])
    assert rc == 1
    assert "sweep_config" in capsys.readouterr().err


def _sine_profile_csv(path):
    y = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    rows = "\n".join(f"{a:.12g},{np.sin(a):.12g}" for a in y)
    path.write_text("y,u\n" + rows + "\n")
    return str(path)


def test_csv_profile_on_simulate_and_mix_rate(tmp_path):
    prof = _sine_profile_csv(tmp_path / "prof.csv")
    args = ["--nu", "1e-3", "--t-end", "1", "--resolution", "32"]
    rc = cli.main(["simulate", "--model", "shear", "--profile", prof, *args,
                   "--out", str(tmp_path / "csv")])
    assert rc == 0
    rc = cli.main(["simulate", "--model", "shear", *args,
                   "--out", str(tmp_path / "sin")])
    assert rc == 0
    name = "trace_shear_g2_k1_nu1.0000e-03.csv"
    tabulated = mx.read_trace(str(tmp_path / "csv" / name))
    builtin = mx.read_trace(str(tmp_path / "sin" / name))
    assert tabulated.params["profile"] == prof
    assert np.allclose(tabulated.h, builtin.h, rtol=1e-6)

    rc = cli.main(["mix-rate", "--model", "shear", "--profile", prof,
                   "--n0", "1", "--resolution", "512", "--t-max", "300",
                   "--points", "32", "--out", str(tmp_path)])
    assert rc == 0
    fit = _load_json(tmp_path / "mixing_shear_k1_fit.json")
    assert fit["p_predicted"] == 0.5
    assert 0.4 < fit["p_measured"] < 0.6


def test_mix_rate_without_predicted_exponent(tmp_path, capsys):
    rc = cli.main(["mix-rate", "--model", "shear", "--profile", "zero",
                   "--resolution", "64", "--t-max", "100", "--points", "16",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert "p = none" in capsys.readouterr().out
    fit = _load_json(tmp_path / "mixing_shear_k1_fit.json")
    assert fit["p_predicted"] is None
    assert abs(fit["p_measured"]) < 1e-12  # no mixing: constant dual norm
    assert (tmp_path / "mixing_shear_k1.csv").exists()
    assert (tmp_path / "mixing_shear_k1.svg").exists()


def test_ed_sweep_refuses_kinetic_dimension(tmp_path, capsys):
    out = tmp_path / "kin"
    rc = cli.main(["ed-sweep", "--model", "kinetic", "--d", "2",
                   "--nus", "0.1,0.01", "--out", str(out)])
    assert rc == 1
    assert "--d 2" in capsys.readouterr().err
    assert not out.exists()


def test_ed_sweep_refuses_heat_gamma(tmp_path, capsys):
    out = tmp_path / "heat"
    rc = cli.main(["ed-sweep", "--model", "heat", "--gamma", "1",
                   "--nus", "0.1,0.01", "--out", str(out)])
    assert rc == 1
    assert "--model shear --profile zero --gamma 1" in capsys.readouterr().err
    assert not out.exists()


_SIM = ["simulate", "--model", "heat", "--nu", "0.1", "--t-end", "1"]
_SIM_SHEAR = ["simulate", "--model", "shear", "--resolution", "16",
              "--nu", "1e-3", "--t-end", "1"]


@pytest.mark.parametrize("argv", [
    [*_SIM, "--t-end", "-1"],
    [*_SIM, "--sample-every", "-1"],
    [*_SIM, "--stop-ratio", "0"],
    [*_SIM, "--sample-every", "0"],
    ["ed-sweep", "--model", "heat", "--nus", "0.1,0.01",
     "--t-end-factor", "0"],
    [*_SIM_SHEAR, "--t-end", "inf"],
    [*_SIM_SHEAR, "--t-end", "nan"],
    [*_SIM, "--stop-ratio", "1.5"],
])
def test_bad_step_controls_exit_code_1(tmp_path, capsys, argv):
    rc = cli.main([*argv, "--out", str(tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "shear", "--nu", "1e-3", "--t-end", "1"],
    ["simulate", "--model", "spiral", "--nu", "1e-3", "--t-end", "1"],
    ["simulate", "--model", "kolmogorov", "--nu", "1e-3", "--t-end", "1"],
    ["mix-rate", "--model", "shear"],
])
def test_nonpositive_resolution_exit_code_1(tmp_path, capsys, argv):
    rc = cli.main([*argv, "--resolution", "0", "--out", str(tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "must be >= 1, got 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--model", "shear", "--resolution", "1", "--nu", "1e-2",
      "--t-end", "1"], "degenerate initial datum"),
    (["simulate", "--model", "kolmogorov", "--resolution", "1", "--nu",
      "1e-2", "--t-end", "1"], "degenerate initial datum"),
    (["mix-rate", "--model", "shear", "--resolution", "1"],
     "degenerate initial datum"),
    (["ed-sweep", "--model", "shear", "--resolution", "1", "--nus",
      "1e-2,1e-3"], "degenerate initial datum"),
    (["simulate", "--model", "kinetic", "--d", "0", "--nu", "0.1",
      "--t-end", "1"], "kinetic velocity dimension d must be >= 1, got 0"),
    (["simulate", "--model", "kinetic", "--d", "-1", "--nu", "0.1",
      "--t-end", "1"], "kinetic velocity dimension d must be >= 1, got -1"),
    (["ed-sweep", "--model", "heat", "--datum", "uniform", "--nus",
      "1e-2,1e-3"], "datum 'uniform' is not defined for the heat model"),
])
def test_undefined_datum_or_dimension_exit_code_1(tmp_path, capsys, argv,
                                                   message):
    rc = cli.main([*argv, "--out", str(tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "s").exists()  # no half-made sweep directory


@pytest.mark.parametrize("flag, value", [
    ("--theta", "1.5"),
    ("--theta", "0"),
    ("--stop-ratio", "1.5"),
    ("--stop-ratio", "-1"),
    ("--t-end-factor", "0"),
    ("--resolution", "0"),
])
def test_bad_sweep_controls_exit_code_1(tmp_path, capsys, flag, value):
    out = tmp_path / "s"
    rc = cli.main(["ed-sweep", "--model", "heat", "--nus", "0.1,0.01",
                   flag, value, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    # the message names the control by its SweepConfig field
    assert f"{flag[2:].replace('-', '_')} must" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_benchmark_tracing_contract(tmp_path, monkeypatch):
    """The names the benchmark's tracer wraps still exist and are called."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # let monkeypatch restore every name the tracer is about to replace
    for mod in (cli, sweep):
        for name, value in list(vars(mod).items()):
            if callable(value):
                monkeypatch.setattr(mod, name, value)
    tracer = tracing.Tracer()
    tracing.install(tracer)

    out = str(tmp_path / "heat")
    assert cli.main(["ed-sweep", "--model", "heat", "--resolution", "16",
                     "--nu-min", "1e-3", "--nu-max", "1e-1", "--nu-count", "4",
                     "--out", out]) == 0
    assert cli.main(["report", out]) == 0
    # every branch of the tracer's flop count: diffusion only (heat), FFT
    # phase (shear), radial phase (spiral, viscous and, for the amplitude
    # of the seeded random datum, inviscid) and skew matrix (Kolmogorov)
    for model, datum in (("shear", "single-mode-m1"), ("spiral", "random-h1"),
                         ("kolmogorov", "single-mode-m1")):
        out = str(tmp_path / model)
        assert cli.main(["ed-sweep", "--model", model, "--datum", datum,
                         "--resolution", "16", "--nus", "1e-2,2e-2,5e-2,1e-1",
                         "--out", out]) == 0
        assert cli.main(["verify-bound", out]) == 0
        bounds = _load_json(os.path.join(out, "bounds.json"))
        assert [g["datum"] for g in bounds["groups"].values()] == [datum]
        assert len(bounds["rows"]) == 4
        assert all(row["passed"] for row in bounds["rows"])
    names = {s["name"] for s in tracer.spans}
    evolves = [s for s in tracer.spans if s["name"] == "evolution.evolve"]
    assert evolves and all(s["steps"] > 0 for s in evolves)
    assert all(s["flop"] > 0 for s in evolves)
    assert {"evolution.propagator_setup", "models.series",
            "diagnostics.bound"} <= names
