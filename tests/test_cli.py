"""End-to-end tests for the command-line interface and its exit codes."""

import dataclasses
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import mixlab as mx
from mixlab import cli, sweep
from mixlab._svg import line_plot_svg


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


def test_simulate_refuses_negative_or_nonfinite_nu(tmp_path, capsys):
    for nu in ("-0.01", "nan"):
        out = tmp_path / f"nu{nu}"
        assert cli.main(["simulate", "--model", "shear", "--resolution",
                         "16", "--nu", nu, "--t-end", "5",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: nu must be finite and nonnegative, got {nu}" in err
        assert not out.exists()


def test_mix_rate_shear(tmp_path, capsys):
    rc = cli.main(["mix-rate", "--model", "shear", "--resolution", "512",
                   "--t-max", "300", "--points", "32",
                   "--out", str(tmp_path)])
    assert rc == 0
    fit = _load_json(tmp_path / "mixing_shear_k1_fit.json")
    assert 0.4 < fit["p_measured"] < 0.6
    assert fit["p_predicted"] == 0.5
    assert (tmp_path / "mixing_shear_k1.csv").exists()
    assert (tmp_path / "mixing_shear_k1.svg").exists()
    # at t = 300 the spectrum reaches |m| ~ 300, past the outer-half edge
    # |m| = 256 of the full 1024-point grid
    assert fit["grid_points"] == [64, 1024]
    assert len(fit["warnings"]) == 1
    assert "truncation is felt" in fit["warnings"][0]
    assert f"warning: {fit['warnings'][0]}" in capsys.readouterr().out
    # at M = 2048 the same window never needs the full 4096-point grid
    rc = cli.main(["mix-rate", "--model", "shear", "--resolution", "2048",
                   "--t-max", "300", "--points", "32",
                   "--out", str(tmp_path)])
    assert rc == 0
    fit = _load_json(tmp_path / "mixing_shear_k1_fit.json")
    assert fit["grid_points"] == [64, 2048]
    assert fit["warnings"] == []
    assert "warning" not in capsys.readouterr().out


def test_mix_rate_spiral(tmp_path):
    rc = cli.main(["mix-rate", "--model", "spiral", "--resolution", "256",
                   "--t-max", "200", "--points", "24",
                   "--out", str(tmp_path)])
    assert rc == 0
    fit = _load_json(tmp_path / "mixing_spiral_k1_fit.json")
    assert 0.8 < fit["p_measured"] < 1.2
    assert fit["p_predicted"] == 1.0
    assert fit["grid_points"] == [256, 256]
    assert fit["warnings"] == []


@pytest.mark.parametrize("model, datum, resolution", [
    ("shear", "gaussian-bump", "512"), ("spiral", "single-mode-m1", "256")])
def test_mix_rate_datum_sets_the_series_datum(tmp_path, model, datum,
                                              resolution):
    """--datum reaches the series: the fit records it, and the norms
    written are the library series' of that datum, not of the default."""
    argv = ["mix-rate", "--model", model, "--resolution", resolution,
            "--t-max", "100", "--points", "16", "--datum", datum,
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert _load_json(tmp_path / f"mixing_{model}_k1_fit.json")["datum"] \
        == datum
    args = cli._build_parser().parse_args(argv)
    kw = mx.models.model_params(model, vars(args))
    series = getattr(mx, f"{model}_mixing_series")
    times = cli._mix_rate_times(args)
    written = np.loadtxt(tmp_path / f"mixing_{model}_k1.csv", delimiter=",",
                         skiprows=1)
    assert np.array_equal(written[:, 3],
                          series(times, seed=0, datum=datum, **kw)["hm1"])
    assert not np.array_equal(written[:, 3], series(times, seed=0, **kw)["hm1"])


def test_mix_rate_spiral_warns_past_its_resolution(tmp_path, capsys):
    """At N = 256 the phase of t = 1e4 advances by 39 per radial cell: the
    fit reads p ~ 0.5 against the predicted 1, and the series warns."""
    rc = cli.main(["mix-rate", "--model", "spiral", "--resolution", "256",
                   "--t-max", "1e4", "--points", "100",
                   "--out", str(tmp_path)])
    assert rc == 0
    fit = _load_json(tmp_path / "mixing_spiral_k1_fit.json")
    assert fit["p_measured"] < 0.6 and fit["p_predicted"] == 1.0
    assert len(fit["warnings"]) == 1
    assert "truncation is felt" in fit["warnings"][0]
    assert f"warning: {fit['warnings'][0]}" in capsys.readouterr().out


def test_mix_rate_refuses_a_bad_model_before_any_time(tmp_path, capsys,
                                                     monkeypatch):
    def evaluated(*args):
        raise AssertionError("the series evaluated a time")

    monkeypatch.setattr(mx.models, "_half_angle", evaluated)
    out = tmp_path / "m"
    assert cli.main(["mix-rate", "--model", "spiral", "--alpha", "0.5",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: swirl exponent alpha must be >= 1, got 0.5" in err
    assert "Traceback" not in err and not out.exists()


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


def _snapshot(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


#: a setting that sweep_config.json held until a row format -> that
#: format and what its config and rows recorded
_RETIRED = {
    "dt": (2, {"dt": 0.02}),
    "profile": (3, {"profile": "sin", "n0": None, "L": 2.0}),
    "t_end_factor": (4, {"t_end_factor": 20.0}),
    "theta": (5, {"theta": mx.diagnostics.THETA_DEFAULT}),
    "stop_ratio": (6, {"stop_ratio": 1e-3}),
}


@pytest.mark.parametrize("setting", list(_RETIRED))
def test_a_sweep_of_an_older_row_format_is_refused(tmp_path, capsys,
                                                   setting):
    """A sweep of an older row format, whose config holds a retired
    setting and whose rows record that format, is refused by every
    command that reads it: ``report`` and ``verify-bound`` name the
    config and the setting, a resumed ``ed-sweep`` (which reads the rows)
    a row and its ``row_format``. Each exits 1 and writes nothing."""
    row_format, old = _RETIRED[setting]
    out = tmp_path / "sweep"
    argv = ["ed-sweep", "--model", "shear" if setting == "profile" else
            "heat", "--nus", "0.1,0.05", "--resolution", "16",
            "--out", str(out)]
    assert cli.main(argv) == 0
    for path in [out / "sweep_config.json", *(out / "rows").iterdir()]:
        data = _load_json(path)
        record = data["config"] if "config" in data else data
        if setting == "profile":  # format 3 had no model_flags
            del record["model_flags"]
        record.update(old)
        if record is not data:
            record["row_format"] = row_format
        path.write_text(json.dumps(data))
    before = _snapshot(out)
    for command in ("report", "verify-bound", "ed-sweep"):
        capsys.readouterr()
        assert cli.main(argv if command == "ed-sweep"
                        else [command, str(out)]) == 1
        err = capsys.readouterr().err
        assert f"mixlab {command}: error: " in err and "Traceback" not in err
        if command == "ed-sweep":
            assert re.search(re.escape(str(out / "rows")) + r"/\S+\.json has "
                             f"row_format = {row_format}, this sweep "
                             "row_format = 7", err)
        else:
            assert f"{out / 'sweep_config.json'} has unknown SweepConfig " \
                f"field(s) {', '.join(sorted(old))}" in err
        assert _snapshot(out) == before


def test_a_row_of_an_older_row_format_is_refused(tmp_path, capsys):
    """One row recording row format 6 in an otherwise current sweep is
    refused by report, verify-bound and a resumed ed-sweep alike, naming
    the row file and the field; nothing is written."""
    out = tmp_path / "sweep"
    argv = ["ed-sweep", "--model", "heat", "--nus", "0.1,0.05",
            "--resolution", "16", "--out", str(out)]
    assert cli.main(argv) == 0
    path = out / "rows" / "heat_k1_nu5.0000e-02.json"
    row = _load_json(path)
    row["config"]["row_format"] = 6
    path.write_text(json.dumps(row))
    before = _snapshot(out)
    for command in ("report", "verify-bound", "ed-sweep"):
        capsys.readouterr()
        assert cli.main(argv if command == "ed-sweep"
                        else [command, str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"mixlab {command}: error: {path} has row_format = 6, this " \
            "sweep row_format = 7" in err
        assert _snapshot(out) == before


def test_a_row_of_other_settings_is_refused_by_every_reader(tmp_path,
                                                            capsys):
    """A row copied in from a sweep of other settings is refused by
    report and verify-bound as by a resumed ed-sweep: exit 1, naming the
    row file and the field, nothing written. A --gamma 1 row in a
    --gamma 2 heat sweep would move its fitted q from 1.000 to 1.065; a
    resolution-32 shear row (with its trace) in a resolution-16 sweep
    would be checked under the resolution-16 model."""
    heat = ["--model", "heat", "--resolution", "16"]
    shear = ["--model", "shear", "--nus", "0.1,0.05,0.03,0.01"]
    cases = [
        (heat + ["--gamma", "2", "--nus", "1e-3,2e-3,5e-3,1e-2,2e-2,5e-2"],
         heat + ["--gamma", "1", "--nus", "1e-3"], "heat_k1_nu1.0000e-03",
         "model_flags = {'gamma': 1.0}, this sweep model_flags = "
         "{'gamma': 2.0}"),
        (shear + ["--resolution", "16"], shear + ["--resolution", "32"],
         "shear_g2_k1_nu1.0000e-01",
         "resolution = 32, this sweep resolution = 16"),
    ]
    for i, (flags, foreign, key, found) in enumerate(cases):
        out, other = tmp_path / f"sweep{i}", tmp_path / f"other{i}"
        argv = ["ed-sweep", *flags, "--out", str(out)]
        assert cli.main(argv) == 0
        assert cli.main(["ed-sweep", *foreign, "--out", str(other)]) == 0
        for name in (f"rows/{key}.json", f"traces/{key}.csv",
                     f"traces/{key}.json"):
            (out / name).write_bytes((other / name).read_bytes())
        before = _snapshot(out)
        for command in ("report", "verify-bound", "ed-sweep"):
            capsys.readouterr()
            assert cli.main(argv if command == "ed-sweep"
                            else [command, str(out)]) == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert f"mixlab {command}: error: {out / 'rows' / key}.json " \
                f"has {found}" in err
            assert _snapshot(out) == before


def test_a_sweep_of_other_settings_is_refused_by_its_config(tmp_path,
                                                            capsys):
    """An ed-sweep into the directory of a sweep of other settings whose
    rows it does not plan (a Kolmogorov sweep after a heat one) is
    refused by the sweep_config.json there, naming it and the field;
    exit 1, the directory byte for byte as it was. The heat rows would
    otherwise stay beside the Kolmogorov rows, unread. More viscosities
    of the same settings still resume it."""
    out = tmp_path / "sweep"
    heat = ["ed-sweep", "--model", "heat", "--nus", "0.1,0.05",
            "--resolution", "16", "--out", str(out)]
    assert cli.main(heat) == 0
    before = _snapshot(out)
    capsys.readouterr()
    assert cli.main(["ed-sweep", "--model", "kolmogorov", "--nus", "0.1",
                     "--resolution", "16", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"mixlab ed-sweep: error: {out / 'sweep_config.json'} has " \
        "model = 'heat', this sweep model = 'kolmogorov'; a sweep " \
        "directory holds the rows of one configuration" in err
    assert _snapshot(out) == before
    heat[heat.index("--nus") + 1] = "0.1,0.05,0.02"
    assert cli.main(heat) == 0
    assert len(mx.load_sweep(str(out)).rows) == 3


def test_commands_load_no_scipy_linalg(tmp_path):
    """``import mixlab`` and one small run of each family's sweep (a real
    shear datum, Kolmogorov, spiral from its lowest mode, kinetic d = 1)
    and of a spiral mix-rate, in a fresh interpreter, leave scipy.linalg
    unloaded: its import would double every command's start-up time and
    add ~25 MB of resident memory."""
    src = os.path.dirname(os.path.dirname(mx.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """if True:
        import os, sys
        import mixlab
        from mixlab import cli
        out, loaded = sys.argv[1], []
        def check(step):
            if "scipy.linalg" in sys.modules:
                loaded.append(step)
        check("import")
        for flags in (["shear", "--datum", "single-mode-m1"],
                      ["kolmogorov"], ["spiral", "--datum", "single-mode-m1"],
                      ["kinetic", "--d", "1"]):
            assert cli.main(["ed-sweep", "--model", *flags, "--nus", "0.05",
                             "--resolution", "16",
                             "--out", os.path.join(out, flags[0])]) == 0
            check(flags[0])
        assert cli.main(["mix-rate", "--model", "spiral", "--resolution",
                         "64", "--out", os.path.join(out, "mix")]) == 0
        check("mix-rate")
        sys.stderr.write(f"scipy.linalg loaded after: {loaded}")
        """
    err = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         env=env, check=True, capture_output=True,
                         text=True).stderr
    assert err.endswith("scipy.linalg loaded after: []"), err


def test_an_out_that_is_a_file_exit_code_1(tmp_path, capsys):
    """An --out naming an existing file is a usage error: simulate,
    mix-rate, ed-sweep and report each exit 1 with an error line, no
    traceback, and write nothing."""
    sweep_dir = tmp_path / "sweep"
    assert cli.main(["ed-sweep", "--model", "heat", "--nus", "0.1,0.05",
                     "--resolution", "16", "--out", str(sweep_dir)]) == 0
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    before = _snapshot(tmp_path)
    for argv in (["simulate", "--model", "heat", "--nu", "0.1",
                  "--t-end", "1", "--resolution", "16"],
                 ["mix-rate", "--model", "shear", "--resolution", "64"],
                 ["ed-sweep", "--model", "heat", "--nus", "0.1",
                  "--resolution", "16"],
                 ["report", str(sweep_dir)]):
        capsys.readouterr()
        assert cli.main([*argv, "--out", str(blocker)]) == 1
        err = capsys.readouterr().err
        assert f"mixlab {argv[0]}: error: " in err and str(blocker) in err
        assert "Traceback" not in err
        assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("where, command", [
    ("config", "report"), ("config", "verify-bound"),
    ("row", "report"), ("row", "ed-sweep")])
def test_unknown_sweep_field_exit_code_1(tmp_path, capsys, where, command):
    """A field that SweepConfig or RowResult lacks, in sweep_config.json
    or in one row JSON, is an error naming it and the file, and the
    command writes nothing."""
    out = tmp_path / "sweep"
    argv = ["ed-sweep", "--model", "heat", "--nus", "0.1,0.05",
            "--resolution", "16", "--out", str(out)]
    assert cli.main(argv) == 0
    path = out / "sweep_config.json" if where == "config" \
        else sorted((out / "rows").iterdir())[0]
    path.write_text(json.dumps({**_load_json(path), "extra_field": 1}))
    before = _snapshot(out)
    capsys.readouterr()
    assert cli.main(argv if command == "ed-sweep"
                    else [command, str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert "extra_field" in err and str(path) in err
    assert _snapshot(out) == before


def test_ed_sweep_refuses_nus_that_share_a_row_name(tmp_path, capsys):
    """Two viscosities that a row name writes alike exit 1, naming both,
    before the sweep directory is made."""
    out = tmp_path / "sweep"
    rc = cli.main(["ed-sweep", "--model", "heat", "--nus", "1e-3,1.00001e-3",
                   "--resolution", "16", "--out", str(out)])
    assert rc == 1
    assert "0.001 and 0.00100001" in capsys.readouterr().err
    assert not out.exists()


def test_ed_sweep_unresolved_rows_exit_code_2(tmp_path, capsys,
                                              monkeypatch):
    def no_crossing(trace):
        raise ValueError("h never falls below e^-1 h(0)")

    monkeypatch.setattr(sweep, "tau_threshold", no_crossing)
    rc = cli.main(["ed-sweep", "--model", "heat", "--nus", "0.1,0.05",
                   "--resolution", "32", "--out", str(tmp_path / "short")])
    assert rc == 2
    assert "did not complete" in capsys.readouterr().err


def _synthetic_sweep_dir(tmp_path, statuses=None, q_pred=0.8):
    """A shear sweep directory (config and row files, no traces) whose
    crossing times follow tau = nu^-0.6 exactly."""
    nus = np.geomspace(1e-6, 1e-3, 6)
    statuses = statuses or ["ok"] * nus.size
    d = tmp_path / "syn"
    (d / "rows").mkdir(parents=True)
    cfg = sweep.SweepConfig(model="shear", nus=tuple(nus.tolist()),
                            gammas=(2.0,), out_dir=str(d))
    (d / "sweep_config.json").write_text(cfg.to_json())
    for row, status in zip(cfg.rows(), statuses):
        key = sweep.row_key("shear", row)
        rr = sweep.RowResult(
            key=key, model="shear", n0=1, **row,
            tau=row["nu"] ** -0.6 if status == "ok" else None, rate=None,
            q_pred=q_pred, status=status, config=cfg.row_config())
        (d / "rows" / f"{key}.json").write_text(json.dumps(rr.to_dict()))
    return d


def test_report_recovers_synthetic_exponent(tmp_path):
    d = _synthetic_sweep_dir(tmp_path)
    rc = cli.main(["report", str(d)])
    assert rc == 0
    report = _load_json(d / "report.json")
    entry = report["groups"]["shear_g2_k1"]
    assert abs(entry["q_crossing"] - 0.6) < 1e-3
    assert entry["q_rate"] is None  # the rows carry no rate fits
    assert "q_rate_note" in entry
    assert entry["verdict"] == "consistent with prediction"
    assert (d / "tau_vs_nu_shear_g2_k1.svg").exists()


def test_report_names_the_fit_residual(tmp_path, capsys):
    """The spread printed and stored with a fitted q is the RMS residual
    of log tau about the fitted line, and is named so."""
    d = _synthetic_sweep_dir(tmp_path)
    assert cli.main(["report", str(d)]) == 0
    entry = _load_json(d / "report.json")["groups"]["shear_g2_k1"]
    assert entry["q_crossing_residual"] < 1e-12
    assert not [key for key in entry if key.endswith("_stderr")]
    assert "shear_g2_k1: q = 0.600 (rms residual 0.000) [crossing]" in \
        capsys.readouterr().out.splitlines()


def test_report_verdict_exceeds_predicted_exponent(tmp_path, capsys):
    """q measured 0.6 against a predicted 0.5: past the 0.05 allowance."""
    d = _synthetic_sweep_dir(tmp_path, q_pred=0.5)
    assert cli.main(["report", str(d)]) == 0
    entry = _load_json(d / "report.json")["groups"]["shear_g2_k1"]
    assert entry["verdict"] == "exceeds predicted exponent"
    assert "shear_g2_k1: q_pred = 0.500 -> exceeds predicted exponent" in \
        capsys.readouterr().out.splitlines()


def test_verify_bound_refuses_a_row_without_trace(tmp_path, capsys):
    """A row with no stored trace is refused by name, before bounds.json."""
    d = _synthetic_sweep_dir(tmp_path)
    assert cli.main(["verify-bound", str(d)]) == 1
    err = capsys.readouterr().err
    assert "row shear_g2_k1_nu1.0000e-06 has no stored trace" in err
    assert "Traceback" not in err
    assert not (d / "bounds.json").exists()


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


def test_verify_bound_amplitude_from_the_rows_own_data(tmp_path):
    """The mixing amplitude is the largest fit over the inviscid flows
    of the data the rows ran, on the rows' own model: a seeded datum is
    drawn per row, with seed (seed, plan index). Each run is fitted on
    its samples before the first whose top-band share passes the flag,
    and the group records the last time fitted."""
    out = str(tmp_path / "sweep")
    assert cli.main(["ed-sweep", "--model", "shear", "--datum", "random-h1",
                     "--resolution", "32", "--nus", "1e-2,3e-3,1e-3,3e-4",
                     "--out", out]) == 0
    assert cli.main(["verify-bound", out]) == 0
    problem = mx.build_model("shear", M=32)
    fits, ends = [], []
    for i in range(4):
        f0 = mx.initial_datum(problem, "random-h1", seed=(0, i))
        trace = mx.evolve(problem, f0, 0.0, cli._AMP_T_MAX)
        n = int(np.argmax(trace.occupancy > mx.models.TOP_BAND_FLAG))
        assert 0 < n < len(trace)  # the truncation is felt before t = 100
        fits.append(mx.fit_mixing_amplitude(trace.times[:n], trace.hm1[:n],
                                            problem.p, 1, 1.0))
        ends.append(trace.times[n - 1])
    assert fits == [0.5, 0.5, 1.0, 1.0]
    (group,) = _load_json(os.path.join(out, "bounds.json"))["groups"].values()
    assert group["a"] == max(fits)
    assert group["fit_t_max"] == min(ends)
    assert group["c0"] == 1 / 512


def test_verify_bound_prints_and_records_amplitude_warnings(tmp_path,
                                                            capsys):
    """The amplitude run's warnings go under the group line and into the
    group's bounds.json entry."""
    out = str(tmp_path / "sweep")
    assert cli.main(["ed-sweep", "--model", "shear", "--nus", "0.03,0.01",
                     "--resolution", "16", "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["verify-bound", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    group = _load_json(os.path.join(out, "bounds.json"))["groups"][
        "shear_g2_k1"]
    (warning,) = group["warnings"]
    assert warning.startswith("top-band occupancy reached 39.9%")
    # fitted before the truncation is felt, and the line says to when
    assert group["fit_t_max"] == 11.0
    assert lines[0].startswith("shear_g2_k1: fitted amplitude a = 1 to "
                               "t = 11,")
    assert lines[1] == f"  warning: {warning}"


def test_verify_bound_refuses_a_datum_unresolved_at_t0(tmp_path, capsys):
    """A datum whose top band is past the flag at t = 0 leaves no sample
    to fit the amplitude on: its group is refused with exit 2, naming
    it, and no bounds.json is written."""
    out = tmp_path / "sweep"
    assert cli.main(["ed-sweep", "--model", "shear", "--datum",
                     "gaussian-bump", "--resolution", "4",
                     "--nus", "0.1,0.05", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["verify-bound", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: shear_g2_k1: the datum's top band holds " \
        "2.0% of its energy at t = 0" in err
    assert "raise the resolution" in err and "Traceback" not in err
    assert not (out / "bounds.json").exists()


def test_verify_bound_marks_tail_only_rows(tmp_path, capsys):
    """A row whose trace ends before nu^-q passes on the tail certificate
    alone: it prints, and bounds.json records, the verdict tail-only, not
    pass; it still counts as passed."""
    out = str(tmp_path / "sweep")
    assert cli.main(["ed-sweep", "--model", "shear", "--nus", "0.1,1e-4",
                     "--resolution", "16", "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["verify-bound", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = _load_json(os.path.join(out, "bounds.json"))["rows"]
    assert [(r["verdict"], r["passed"], r["checked_samples"] > 0)
            for r in rows] == [("pass", True, True),
                               ("tail-only", True, False)]
    assert any(line.startswith("  shear_g2_k1_nu1.0000e-01: pass, ")
               for line in lines)
    assert any(line.startswith("  shear_g2_k1_nu1.0000e-04: tail-only, ")
               and line.endswith("over 0 samples (+tail)") for line in lines)
    assert lines[-1].startswith("2/2 rows satisfy the decay bound")


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


def test_failed_rate_fit_is_a_row_warning(tmp_path, capsys):
    """At nu = 0.9 the trace has too few samples in its tail for a rate
    fit: the row keeps its tau and the status ok, records no rate, and
    says why in a warning that ed-sweep prints and report.json carries."""
    out = str(tmp_path / "sweep")
    assert cli.main(["ed-sweep", "--model", "spiral", "--nus",
                     "0.9,0.3,0.1,0.03", "--resolution", "32",
                     "--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    first, *rest = mx.load_sweep(out).rows
    assert first.status == "ok" and first.tau > 0.0 and first.rate is None
    assert "rate_fit" not in first.fit
    (warning,) = first.meta["warnings"]
    assert warning.startswith("no decay rate: rate fit needs >= 4 samples")
    assert lines[:2] == [f"{first.key}: tau={first.tau:.6g} rate=- [ok]",
                         f"  warning: {warning}"]
    assert all(r.rate and not r.meta["warnings"] for r in rest)
    assert cli.main(["report", out]) == 0
    report = _load_json(os.path.join(out, "report.json"))
    assert report["groups"]["spiral_a1_k1"]["warnings"] == {
        first.key: [warning]}


def test_ed_sweep_row_evolution_error_exit_code_2(tmp_path, capsys,
                                                  monkeypatch):
    """A run's EvolutionError becomes the row's status: the row keeps no
    trace and no time-scale, and ed-sweep exits 2."""
    def fail(*args, **kwargs):
        raise mx.EvolutionError("non-finite H norm")

    monkeypatch.setattr(sweep, "evolve", fail)
    out = tmp_path / "sweep"
    assert cli.main(["ed-sweep", "--model", "heat", "--nus", "0.1",
                     "--resolution", "16", "--out", str(out)]) == 2
    (row,) = mx.load_sweep(str(out)).rows
    assert row.status == "error: non-finite H norm"
    assert row.trace_path == "" and row.tau is None and row.rate is None
    assert not list((out / "traces").iterdir())
    captured = capsys.readouterr()
    assert f"{row.key}: tau=- rate=- [error: non-finite H norm]" in \
        captured.out.splitlines()
    assert "1 row(s) did not complete" in captured.err


def test_mix_rate_refuses_flags_its_families_do_not_read(capsys):
    """mix-rate serves shear and spiral: --L (Kolmogorov) and --d
    (kinetic) are usage errors, as is an abbreviation of a flag it has;
    the commands that serve every family still parse them (and refuse,
    when run, one that their --model does not read)."""
    for argv in (["mix-rate", "--model", "shear", "--L", "7"],
                 ["mix-rate", "--model", "shear", "--d", "3"],
                 ["mix-rate", "--model", "spiral", "--alph", "2"],
                 ["ed-sweep", "--model", "heat", "--stop", "0.1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    args = cli._build_parser().parse_args(
        ["simulate", "--model", "kolmogorov", "--L", "3", "--d", "2",
         "--nu", "0.1", "--t-end", "1"])
    assert (args.L, args.d) == (3.0, 2)


def test_verify_bound_requires_sweep_config(tmp_path, capsys):
    d = _synthetic_sweep_dir(tmp_path)
    (d / "sweep_config.json").unlink()
    rc = cli.main(["verify-bound", str(d)])
    assert rc == 1
    assert "sweep_config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "verify-bound"])
def test_missing_row_file_exit_code_1(tmp_path, capsys, command):
    """A sweep with a planned row file gone is refused, naming the row,
    not fitted from the rows that are left."""
    out = tmp_path / "sweep"
    assert cli.main(["ed-sweep", "--model", "heat", "--resolution", "16",
                     "--nus", "1e-3,3e-3,1e-2,3e-2,1e-1",
                     "--out", str(out)]) == 0
    (out / "rows" / "heat_k1_nu1.0000e-02.json").unlink()
    before = _snapshot(out)
    capsys.readouterr()
    assert cli.main([command, str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert "heat_k1_nu1.0000e-02" in err and "ed-sweep" in err
    assert _snapshot(out) == before


@pytest.mark.parametrize("command, suffix", [
    ("report", ".csv"), ("report", ".json"), ("verify-bound", ".json")])
def test_trace_file_gone_exit_code_1(tmp_path, capsys, command, suffix):
    """A trace that report plots or verify-bound checks must be there
    with its sidecar; a missing one is an error, not a plot of another
    row or a bound checked against a trace read as nu = 0."""
    out = tmp_path / "sweep"
    assert cli.main(["ed-sweep", "--model", "shear", "--nus", "0.03,0.01",
                     "--resolution", "16", "--out", str(out)]) == 0
    # report plots the smallest viscosity's trace
    (out / "traces" / f"shear_g2_k1_nu1.0000e-02{suffix}").unlink()
    capsys.readouterr()
    assert cli.main([command, str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert f"shear_g2_k1_nu1.0000e-02{suffix}" in err
    assert not (out / "report.json").exists()
    assert not (out / "bounds.json").exists()
    assert not list(out.glob("*.svg"))  # every trace is read first


@pytest.mark.parametrize("model, flags", [
    ("shear", ["--gamma", "2"]), ("spiral", ["--alpha", "1"]),
    ("kinetic", [])], ids=["shear", "spiral", "kinetic"])
def test_verify_bound_c0_is_the_family_formula(tmp_path, model, flags):
    """bounds.json's c0 is the paper's constant for the fitted amplitude:
    the spiral's own constant, else the algebraic-mixing one; a family
    with no predicted exponents (kinetic) is skipped."""
    out = str(tmp_path / model)
    assert cli.main(["ed-sweep", "--model", model, *flags,
                     "--nus", "0.1,0.05", "--resolution", "16",
                     "--out", out]) == 0
    assert cli.main(["verify-bound", out]) == 0
    (group,) = _load_json(os.path.join(out, "bounds.json"))["groups"].values()
    if model == "kinetic":
        assert group == {
            "skipped": "no algebraic mixing prediction for this family"}
        return
    if model == "spiral":
        c0 = mx.constant_c0_spiral(1.0, group["a"])
    else:
        c0 = mx.constant_c0_poly(0.5, group["a"],
                                 mx.build_model("shear", M=16).c_B)
    assert group["c0"] == c0


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


@pytest.mark.parametrize("text, message", [
    ("y,u\n", " has no y,u rows"),
    ("y,u\n0,0\n1,abc\n", ", line 3: could not convert string to float: "
                         "'abc'"),
    ("y,u\n0,0\n1,nan\n3,0.5\n", ", line 3: y, u = 1, nan is not finite"),
], ids=["header-only", "bad-cell", "nan-cell"])
def test_a_bad_csv_profile_is_refused_by_name(tmp_path, capsys, text,
                                              message):
    """A profile table without rows, or with a cell that is not a finite
    number, exits 1 naming the file and, for the cell, its line. (A nan
    cell used to run, and fail as a non-finite norm with exit 2.)"""
    prof = tmp_path / "prof.csv"
    prof.write_text(text)
    out = tmp_path / "s"
    assert cli.main(["simulate", "--model", "shear", "--profile", str(prof),
                     "--nu", "1e-3", "--t-end", "1", "--resolution", "16",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: shear profile {prof}{message}" in err
    assert "Traceback" not in err and not out.exists()


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


def test_ed_sweep_kinetic_dimension_is_a_model_flag(tmp_path):
    """--d travels like every other model flag: the kinetic sweep runs in
    d = 2 and its rows record it."""
    out = str(tmp_path / "kin")
    assert cli.main(["ed-sweep", "--model", "kinetic", "--d", "2",
                     "--resolution", "6", "--nus", "0.1,0.05",
                     "--out", out]) == 0
    result = mx.load_sweep(out)
    assert result.config.model_flags == {"d": 2}
    assert all(r.config["model_flags"] == {"d": 2} for r in result.rows)
    ((_, params, _),) = result.groups()
    assert mx.build_model("kinetic", **params).params["d"] == 2


def test_ed_sweep_heat_gamma_is_a_model_flag(tmp_path):
    """Heat --gamma 1 sweeps fractional diffusion: the m = 1 mode decays
    at (k^2 + 1)^(1/2) nu = sqrt(2) nu, so tau = 1 / (sqrt(2) nu)."""
    out = str(tmp_path / "heat")
    assert cli.main(["ed-sweep", "--model", "heat", "--gamma", "1",
                     "--resolution", "16", "--nus", "0.1,0.05",
                     "--out", out]) == 0
    rows = mx.load_sweep(out).rows
    assert [r.key for r in rows] == ["heat_k1_nu1.0000e-01",
                                     "heat_k1_nu5.0000e-02"]
    for r in rows:
        assert r.config["model_flags"] == {"gamma": 1.0}
        assert abs(r.tau * np.sqrt(2.0) * r.nu - 1.0) < 1e-12


def test_ed_sweep_resumes_by_model_not_by_spelling(tmp_path, capsys):
    """A heat sweep given --gamma 2, the builder's default, and the same
    sweep without it build one model, so each resumes the other without
    recomputing a row; --gamma 1 is another model and is refused."""
    base = ["ed-sweep", "--model", "heat", "--resolution", "16",
            "--nus", "0.1,0.05"]
    for first, second in ((["--gamma", "2"], []), ([], ["--gamma", "2"])):
        out = tmp_path / f"flags{len(first)}"
        assert cli.main([*base, *first, "--out", str(out)]) == 0
        rows = {p.name: p.read_bytes() for p in (out / "rows").iterdir()}
        assert cli.main([*base, *second, "--out", str(out)]) == 0
        assert rows == {p.name: p.read_bytes()
                        for p in (out / "rows").iterdir()}
        capsys.readouterr()
        assert cli.main([*base, "--gamma", "1", "--out", str(out)]) == 1
        assert "has model_flags" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["shear", "heat", "spiral", "kolmogorov"])
def test_ed_sweep_defaults_are_the_sweep_configs(monkeypatch, model):
    """ed-sweep without its sweep settings passes none of them, so the
    config it runs is SweepConfig(model, nus), field for field."""
    passed, ran = [], []

    def config(**kw):
        passed.append(set(kw))
        return sweep.SweepConfig(**kw)

    def run(cfg, workers):
        ran.append(cfg)
        raise ValueError("not run")

    monkeypatch.setattr(cli, "SweepConfig", config)
    monkeypatch.setattr(cli, "run_sweep", run)
    assert cli.main(["ed-sweep", "--model", model, "--nus", "0.1,0.05"]) == 1
    assert not passed[0] & {"ks", "datum", "out_dir", "resolution"}
    want = sweep.SweepConfig(model=model, nus=(0.1, 0.05))
    for f in dataclasses.fields(want):
        assert getattr(ran[0], f.name) == getattr(want, f.name), f.name


_RUN = {"simulate": ["--nu", "1e-3", "--t-end", "1"],
        "ed-sweep": ["--nus", "0.1,0.05"], "mix-rate": []}


@pytest.mark.parametrize("command, model, flag, value", [
    ("simulate", "spiral", "L", "7"),
    ("simulate", "spiral", "profile", "nope"),
    ("simulate", "heat", "profile", "sin"),
    ("simulate", "kolmogorov", "d", "2"),
    ("ed-sweep", "kolmogorov", "profile", "sin2"),
    ("ed-sweep", "kolmogorov", "gamma", "1.5"),
    ("ed-sweep", "heat", "alpha", "2"),
    ("ed-sweep", "shear", "alpha", "2"),
    ("ed-sweep", "spiral", "n0", "1"),
    ("mix-rate", "spiral", "gamma", "2"),
])
def test_a_model_flag_the_model_does_not_read_exit_code_1(
        tmp_path, capsys, command, model, flag, value):
    """A model flag given to a --model that does not read it is an error
    naming the flag and the family, before any directory is made."""
    out = tmp_path / "s"
    assert cli.main([command, "--model", model, f"--{flag}", value,
                     "--resolution", "16", *_RUN[command],
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: the {model} model does not read --{flag}" in err
    assert "Traceback" not in err and not out.exists()


def test_rows_and_traces_are_named_as_before_without_model_flags(tmp_path):
    """With no model flag given, the crossed flag takes its builder's
    default into the row and trace names."""
    names = {"spiral": "spiral_a1_k1", "shear": "shear_g2_k1",
             "heat": "heat_k1", "kolmogorov": "kolmogorov_k1"}
    for model, label in names.items():
        out = tmp_path / model
        assert cli.main(["ed-sweep", "--model", model, "--resolution", "16",
                         "--nus", "0.1", "--out", str(out)]) == 0
        assert [p.name for p in (out / "rows").iterdir()] == \
            [f"{label}_nu1.0000e-01.json"]
    assert cli.main(["simulate", "--model", "spiral", "--nu", "0.1",
                     "--t-end", "1", "--resolution", "16",
                     "--out", str(tmp_path / "sim")]) == 0
    assert (tmp_path / "sim" / "trace_spiral_a1_k1_nu1.0000e-01.csv").exists()


@pytest.mark.parametrize("flags, message", [
    (["--nus", ","], "nus = (): a heat sweep crosses k, nu"),
    (["--nu-count", "0"], "nus = (): a heat sweep crosses k, nu"),
    (["--nus", "0.1", "--workers", "0"], "workers must be >= 1, got 0"),
    (["--nus", "0.1", "--workers", "-2"], "workers must be >= 1, got -2"),
], ids=["nus-comma", "nu-count-0", "workers-0", "workers-minus-2"])
def test_empty_sweep_or_pool_exit_code_1(tmp_path, capsys, flags, message):
    """A sweep of no viscosity or a pool of fewer than one worker is an
    error before the sweep directory is made."""
    out = tmp_path / "s"
    assert cli.main(["ed-sweep", "--model", "heat", "--resolution", "16",
                     *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not out.exists()


_SIM = ["simulate", "--model", "heat", "--nu", "0.1", "--t-end", "1"]
_SIM_SHEAR = ["simulate", "--model", "shear", "--resolution", "16",
              "--nu", "1e-3", "--t-end", "1"]


@pytest.mark.parametrize("argv", [
    [*_SIM, "--t-end", "-1"],
    [*_SIM, "--stop-ratio", "1"],
    [*_SIM, "--stop-ratio", "0"],
    [*_SIM, "--t-end", "inf"],
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
    ["ed-sweep", "--model", "heat", "--nus", "0.1,0.01", "--theta", "0.5"],
    ["verify-bound", "sweep", "--amp-t-max", "100"],
    [*_SIM, "--sample-every", "1"],
    ["ed-sweep", "--model", "heat", "--nus", "0.1,0.01", "--stop-ratio",
     "0.1"],
], ids=["ed-sweep-theta", "verify-bound-amp-t-max", "simulate-sample-every",
        "ed-sweep-stop-ratio"])
def test_the_methods_constants_are_not_flags(capsys, argv):
    """The crossing level e^-1, the amplitude fit's horizon, the first
    sample stride and a sweep row's stop depth are constants of the
    method: each old flag is refused as unknown, before anything runs."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--points", "3"], "--points must be >= 4, got 3"),
    (["--t-min", "-1"], "--t-min must be finite and > 0, got -1"),
    (["--t-min", "0"], "--t-min must be finite and > 0, got 0"),
    (["--t-min", "nan"], "--t-min must be finite and > 0, got nan"),
    (["--t-max", "inf"], "--t-max must be finite and > 0, got inf"),
    (["--t-min", "10", "--t-max", "10"], "--t-min 10 must be below --t-max 10"),
    (["--t-min", "20", "--t-max", "10"], "--t-min 20 must be below --t-max 10"),
    (["--t-min", "10", "--t-max", "11"], "--points 48 puts 1 sample time"),
], ids=["points-3", "t-min-negative", "t-min-zero", "t-min-nan",
        "t-max-inf", "t-min-equals-t-max", "t-min-above-t-max",
        "window-holds-1"])
@pytest.mark.parametrize("model", ["shear", "spiral"])
def test_bad_mix_rate_window_exit_code_1(tmp_path, capsys, model, flags,
                                         message):
    out = tmp_path / "m"
    rc = cli.main(["mix-rate", "--model", model, *flags, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not out.exists()


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


def test_line_plot_svg_refuses_what_it_cannot_draw():
    """One or two series, each with a point a log-log plot can place."""
    x = np.array([1.0, 2.0])
    for series in ([], [(x, x, "a")] * 3):
        with pytest.raises(ValueError, match="one or two series"):
            line_plot_svg(series, "x", "y")
    with pytest.raises(ValueError, match="series 'b' has no positive finite "
                                         "points"):
        line_plot_svg([(x, x, "a"), (x, np.array([0.0, -1.0]), "b")], "x", "y")


@pytest.mark.parametrize("x, y", [([1e-3, 1e-3], [2.0, 5.0]),
                                  ([1e-3, 1e-2], [5.0, 5.0]),
                                  ([1e-3], [5.0])],
                         ids=["flat-x", "flat-y", "one-point"])
def test_line_plot_svg_widens_a_flat_range(x, y):
    """A flat x or y range (``report`` on a one-row sweep plots a single
    point) is widened to a factor of 2 each way, so every coordinate is
    finite."""
    svg = line_plot_svg([(np.array(x), np.array(y), "a")], "x", "y")
    coords = re.findall(r'\b(?:x1|y1|x2|y2|cx|cy|x|y)="([^"]*)"', svg)
    coords += re.search(r'points="([^"]*)"', svg).group(1) \
        .replace(",", " ").split()
    assert len(coords) > 10
    assert all(np.isfinite(float(c)) for c in coords)


def test_module_entry_point_prints_usage():
    """``python -m mixlab.cli --help`` reaches ``main`` and exits 0."""
    src = os.path.dirname(os.path.dirname(mx.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "mixlab.cli", "--help"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.startswith("usage: mixlab")


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
    # the closed-form series run in mix-rate only
    for model in ("shear", "spiral"):
        assert cli.main(["mix-rate", "--model", model, "--resolution", "64",
                         "--points", "8", "--t-min", "1", "--t-max", "10",
                         "--out", str(tmp_path / f"mix-{model}")]) == 0
    # every branch of the tracer's flop count: diffusion only (heat), FFT
    # phase (shear), radial phase (spiral, viscous and, for the amplitude,
    # inviscid) and skew matrix (Kolmogorov)
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


@pytest.mark.parametrize("flags, both", [
    (["--nus", "0.1,0.05,0.02,0.01", "--nu-count", "3"],
     "--nus and --nu-count"),
    (["--nu-min", "0.01", "--nus", "0.1,0.05"], "--nus and --nu-min"),
    (["--nus", "0.1,0.05", "--nu-max", "0.5"], "--nus and --nu-max"),
    (["--nus", "0.1,0.05", "--k-list", "1", "--k", "2"],
     "--k-list and --k"),
])
def test_ed_sweep_refuses_flags_it_would_ignore(tmp_path, capsys, flags,
                                                both):
    """``--nus`` and a ``--nu-*`` flag, or ``--k-list`` and ``--k``, set
    the same axis: given together, the sweep names both and makes no
    directory."""
    out = tmp_path / "s"
    assert cli.main(["ed-sweep", "--model", "heat", "--resolution", "8",
                     *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {both} both set the sweep's values" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_past_2_63_intervals_writes_the_shorter_run(tmp_path):
    """A horizon of 2e19 intervals that --stop-ratio ends at t = 110
    writes the trace of the same run to t_end = 1e6, byte for byte."""
    base = ["simulate", "--model", "shear", "--resolution", "64", "--nu",
            "1e-2", "--stop-ratio", "1e-3"]
    for t_end in ("1e19", "1e6"):
        assert cli.main([*base, "--t-end", t_end,
                         "--out", str(tmp_path / t_end)]) == 0
    name = "trace_shear_g2_k1_nu1.0000e-02"
    for ext in (".csv", ".json"):
        assert (tmp_path / "1e19" / (name + ext)).read_bytes() \
            == (tmp_path / "1e6" / (name + ext)).read_bytes()


def test_simulate_says_why_it_stopped(tmp_path, capsys):
    """simulate prints its stop reason; a run without warnings prints
    none."""
    assert cli.main([*_SIM, "--resolution", "16", "--t-end", "100",
                     "--stop-ratio", "1e-3", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "stop reason: stop_ratio" in out.splitlines()
    assert "warning" not in out


def test_heat_simulate_past_its_certified_horizon(tmp_path, capsys):
    """With no advection the sample interval is 1/1000 of the horizon.
    A horizon far past where stop_ratio ends the run is cut to the time
    by which the diffusive certificate gets h there, so the trace samples
    the decay instead of jumping to h = 0."""
    assert cli.main(["simulate", "--model", "heat", "--nu", "0.1",
                     "--t-end", "1e19", "--stop-ratio", "1e-3",
                     "--out", str(tmp_path)]) == 0
    assert "stop reason: stop_ratio" in capsys.readouterr().out.splitlines()
    trace = mx.read_trace(tmp_path / "trace_heat_k1_nu1.0000e-01.csv")
    assert len(trace) > 2
    assert 0.0 < trace.h[-1] <= 1e-3 * trace.h[0] < trace.h[-2]
    assert trace.times[-1] <= np.log(1e3) / 0.1


def test_simulate_prints_each_trace_warning(tmp_path, capsys):
    """simulate prints the trace's warnings as ed-sweep prints a row's,
    after its stop reason."""
    assert cli.main(["simulate", "--model", "heat", "--resolution", "8",
                     "--nu", "10", "--t-end", "100",
                     "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    warned = "h^2 underflowed at t=17.7; the run stops there"
    assert lines[2:4] == ["stop reason: underflow", f"  warning: {warned}"]
    sidecar = _load_json(tmp_path / "trace_heat_k1_nu1.0000e+01.json")
    assert sidecar["warnings"] == [warned]
