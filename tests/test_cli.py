import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fkdvlab
import fkdvlab.cli as cli
from fkdvlab import (ConfigurationError, Field, InitialCondition, SimConfig,
                     make_grid)
from fkdvlab.errors import (DomainError, NumericError, OracleDivergenceError,
                            StepError)
from fkdvlab.cli import (config_lines, diagnostics_csv, field_csv, fmt, main,
                         parse_config, read_keyvalues)
from fkdvlab.solver import _Stepper, cfl_bound


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


MINIMAL = """
alpha = 0.5
n = 1024
length = 100
dt = 1e-3
t_final = 0.05
ic = gaussian(0.2,1,0)
"""


MANIFEST_V1 = """[config]
alpha = -0.5
n = 128
length = 40
dt = 0.0050000000000000001
t_final = 0.01
dealias = false
diag_every = 2
ic = random_band(11,0.5,3,0.20000000000000001)
zero_mean = true
tail_tol = 0.5
weight_orders = 1,2.5
nonlinear = false
store_every = 1
extended = true

[run]
schema_version = 1
tool_version = 0.1.0
command = simulate
seed = 11
grid_dx = 0.3125
grid_kmax = 10.053096491487338
start_time = 1792305858.8767526
end_time = 1792305858.8807819
truncated = false
status = completed
"""


class TestParseConfig:
    def test_minimal_file(self, tmp_path):
        cfg, extras = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.alpha == 0.5
        assert cfg.n == 1024
        assert cfg.ic.family == "gaussian"
        assert cfg.ic.params == (0.2, 1.0, 0.0)
        assert extras == {}

    def test_campaign_keys_take_their_defaults_in_runner_order(self, tmp_path):
        _, extras = parse_config(write_cfg(tmp_path, MINIMAL), None,
                                 cli._EXPERIMENTS["decay-threshold"][1])
        assert list(extras.items()) == [("r_probe", ()),
                                        ("box_list", (200.0, 400.0, 800.0))]

    def test_alpha_zero_rejected(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("alpha = 0.5", "alpha = 0"))
        with pytest.raises(ConfigurationError, match="alpha.*nonzero"):
            parse_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "foo = 1\n")
        with pytest.raises(ConfigurationError, match="foo"):
            parse_config(path)

    def test_missing_required_key(self, tmp_path):
        path = write_cfg(tmp_path, "alpha = 0.5\ndt = 1e-3\n")
        with pytest.raises(ConfigurationError, match="t_final"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "alpha = 0.4\n")
        with pytest.raises(ConfigurationError, match="duplicate"):
            read_keyvalues(path)

    def test_type_mismatch_names_key(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("n = 1024", "n = lots"))
        with pytest.raises(ConfigurationError, match="'n'"):
            parse_config(path)

    def test_flags_override_file(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL)
        cfg, _ = parse_config(path, {"alpha": "-0.5"})
        assert cfg.alpha == -0.5

    def test_weight_orders(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "weight_orders = 1.0,2.0\n")
        cfg, _ = parse_config(path)
        assert cfg.weight_orders == (1.0, 2.0)

    def test_sections_are_cosmetic(self, tmp_path):
        sectioned = "[model]\n" + MINIMAL + "[numerics]\ndealias = false\n"
        cfg, _ = parse_config(write_cfg(tmp_path, sectioned))
        assert cfg.dealias is False

    def test_manifest_roundtrip(self, tmp_path):
        cfg, _ = parse_config(write_cfg(tmp_path, MINIMAL))
        echo = tmp_path / "manifest.txt"
        echo.write_text("\n".join(config_lines(cfg)) + "\n")
        cfg2, _ = parse_config(str(echo))
        assert cfg2 == cfg

    def test_manifest_of_schema_version_one_parses(self, tmp_path):
        # written by `simulate` before the config schema was derived from SimConfig
        cfg, _ = parse_config(write_cfg(tmp_path, MANIFEST_V1, "manifest.txt"))
        assert cfg == SimConfig(
            alpha=-0.5, dt=0.005, t_final=0.01, n=128, length=40.0, dealias=False,
            diag_every=2, ic=InitialCondition("random_band", (11, 0.5, 3.0, 0.2), True),
            tail_tol=0.5, weight_orders=(1.0, 2.5), nonlinear=False, store_every=1,
            extended=True)

    def test_default_ic_keeps_its_mean(self, tmp_path):
        # unlike SimConfig's own default, which projects the mean away
        cfg, _ = parse_config(write_cfg(tmp_path, MINIMAL.replace(
            "ic = gaussian(0.2,1,0)\n", "")))
        assert cfg.ic == InitialCondition("gaussian", (0.2, 1.0, 0.0))
        assert cfg.ic.zero_mean_projected is False
        assert SimConfig(alpha=0.5, dt=1e-3, t_final=1.0).ic.zero_mean_projected


# (campaign, key) for every campaign and every key of another campaign: 25 pairs
FOREIGN_KEYS = [(name, key) for name, (_, own) in cli._EXPERIMENTS.items()
                for other, (_, keys) in cli._EXPERIMENTS.items() if other != name
                for key in keys if key not in own]


class TestCampaignKeys:
    @pytest.mark.parametrize("campaign,key", FOREIGN_KEYS)
    @pytest.mark.parametrize("given_as", ["flag", "file"])
    def test_key_of_another_campaign_exits_one(self, tmp_path, capsys, campaign, key,
                                               given_as):
        # before, every campaign took every campaign's keys and dropped them
        base = ["--alpha", "-1", "--n", "64", "--length", "10", "--dt", "1e-3",
                "--t-final", "0.01", "--ic", "odd_gaussian(0.5,1)"]
        flag = "--" + key.replace("_", "-")
        extra = ([flag, "1"] if given_as == "flag"
                 else ["--config", write_cfg(tmp_path, f"{key} = 1\n")])
        rc = main(["--out", str(tmp_path / "out"), "experiment", campaign, *base, *extra])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ")
        if given_as == "flag":
            assert f"unrecognized arguments: {flag} 1" in err[0]
        else:
            assert err[0] == f"error: unknown configuration key(s): {key}"
        assert not (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize("argv,own_lines", [
        (["two-time-bh", "--alpha", "-1", "--n", "1024", "--length", "100", "--dt", "0.01",
          "--t-final", "1", "--ic", "odd_gaussian(0.5,1)", "--t1", "0.33", "--t2", "1"],
         ["t1 = 0.33000000000000002", "t2 = 1"]),
        (["decay-threshold", "--alpha", "-0.5", "--n", "1024", "--length", "100",
          "--dt", "1e-3", "--t-final", "1", "--ic", "gaussian(1,1,0)",
          "--box-list", "200,400"],
         ["r_probe = ", "box_list = 200,400"]),
        (["symmetry", "--alpha", "0.5", "--n", "1024", "--length", "100", "--dt", "1e-3",
          "--t-final", "0.1", "--ic", "sine_packet(0.1,2,4)", "--lambda", "1.5"],
         ["lambda = 1.5"]),
    ], ids=["two-time-bh", "decay-threshold", "symmetry"])
    def test_manifest_reruns_the_campaign(self, tmp_path, argv, own_lines):
        # before, the manifest dropped the campaign's keys, so a rerun from it
        # ran at their defaults
        first, again = tmp_path / "first", tmp_path / "again"
        rc = main(["--out", str(first), "experiment", *argv])
        assert rc in (0, 2)
        config = (first / "manifest.txt").read_text().split("\n\n")[0].splitlines()
        assert config[-len(own_lines):] == own_lines
        assert main(["--out", str(again), "experiment", argv[0],
                     "--config", str(first / "manifest.txt")]) == rc
        assert (again / "report.csv").read_bytes() == (first / "report.csv").read_bytes()


class TestFormatting:
    def test_seventeen_digit_roundtrip(self):
        vals = [np.pi, 1.0 / 3.0, 1e-17, 123456.789012345678, -2.5e300]
        for v in vals:
            assert float(fmt(v)) == v

    def test_field_csv_matches_per_value_fmt(self):
        g = make_grid(8, 10.0 / 3.0)            # nodes that need 17 digits
        u = [-0.0, 5e-324, 1e300, 0.1, 1.0 / 3.0, -2.0 ** 53 - 2.0, 1e-17, np.pi]
        f = Field(g, np.array(u))
        rows = ["x,u"] + [f"{fmt(xj)},{fmt(uj)}" for xj, uj in zip(g.x, f.samples)]
        text = field_csv(f)
        assert text == "\n".join(rows) + "\n"
        assert text.splitlines()[1].endswith(",-0")
        assert [float(line.split(",")[1]) for line in text.splitlines()[1:]] == u

    def test_diagnostics_columns(self):
        from fkdvlab.diagnostics import make_record
        g = make_grid(512, 50.0)
        f = InitialCondition("gaussian", (0.2, 1.0, 0.0), True).build(g)
        rec = make_record(f, 0.5, weight_orders=())
        text = diagnostics_csv([0.0], {k: [v] for k, v in rec.items()})
        header = text.splitlines()[0].split(",")
        assert header == ["t", "i1", "i2", "i3", "moment_x", "max_u",
                          "min_ux", "tail_frac"]
        assert len(text.splitlines()[1].split(",")) == 8

    def test_weight_columns_in_request_order(self):
        from fkdvlab.diagnostics import make_record
        g = make_grid(512, 50.0)
        f = InitialCondition("gaussian", (0.2, 1.0, 0.0), True).build(g)
        rec = make_record(f, 0.5, weight_orders=(1.0, 2.0))
        header = diagnostics_csv([0.0], {k: [v] for k, v in rec.items()}).splitlines()[0]
        assert header.endswith("tail_frac,w_1,w_2")


class TestExecution:
    def test_simulate_zero_data(self, tmp_path):
        cfg_path = write_cfg(tmp_path, MINIMAL.replace("gaussian(0.2,1,0)",
                                                       "gaussian(0,1,0)"))
        out = tmp_path / "out"
        rc = main(["--out", str(out), "simulate", "--config", cfg_path])
        assert rc == 0
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert all(float(v) == 0.0 for v in lines[1].split(",")[1:])
        assert (out / "manifest.txt").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_cfg(tmp_path, MINIMAL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(out1), "simulate", "--config", cfg_path]) == 0
        assert main(["--out", str(out2), "simulate", "--config", cfg_path]) == 0
        assert (out1 / "diagnostics.csv").read_bytes() == \
            (out2 / "diagnostics.csv").read_bytes()

    def test_truncated_simulate_writes_the_state_where_it_stopped(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "simulate", "--alpha", "-0.5", "--n", "4096",
                     "--length", "200", "--dt", "1e-3", "--t-final", "1",
                     "--ic", "odd_gaussian(-4,1)", "--tail-tol", "1e-6"]) == 0
        t_stop = float((out / "diagnostics.csv").read_text().splitlines()[-1].split(",")[0])
        assert 0 < t_stop < 1
        assert sorted(p.name for p in (out / "fields").iterdir()) == [
            "state_t0.000000.csv", f"state_t{t_stop:.6f}.csv"]

    def test_checkpoint_names_keep_states_apart(self, tmp_path):
        # at dt = 4e-7 six decimals would give six states three names
        keys = {"alpha": "0.5", "n": "64", "length": "10", "dt": "4e-7",
                "t_final": "2e-6", "store_every": "1"}
        out = tmp_path / "out"
        assert main(["--out", str(out), "simulate",
                     "--config", write_cfg(tmp_path, "".join(
                         f"{k} = {v}\n" for k, v in keys.items()))]) == 0
        states = fkdvlab.solve(parse_config(None, keys)[0]).states
        assert len(states) == 6
        assert sorted(p.name for p in (out / "fields").iterdir()) == sorted(
            f"state_t{t:.7f}.csv" for t in states)
        for t, st in states.items():
            assert (out / "fields" / f"state_t{t:.7f}.csv").read_text() == field_csv(st)

    def test_unwritable_checkpoint_name_exits_one(self, tmp_path, capsys):
        # at dt = 1e-300 a name needs 301 decimals, past the file-name limit
        rc = main(["--out", str(tmp_path / "out"), "simulate", "--alpha", "0.5",
                   "--n", "64", "--length", "10", "--dt", "1e-300", "--t-final", "1e-299"])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: [Errno ")

    def test_field_export_import_roundtrip(self, tmp_path):
        cfg_path = write_cfg(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["--out", str(out), "simulate", "--config", cfg_path]) == 0
        state = sorted((out / "fields").glob("state_t*.csv"))[-1]
        g = make_grid(1024, 100.0)
        re_read = InitialCondition("file", (str(state),)).build(g)
        data = np.loadtxt(state, delimiter=",", skiprows=1)
        assert np.array_equal(re_read.samples, data[:, 1])

    def test_experiment_horizon_error_exits_one(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, """
alpha = 0.5
n = 1024
length = 100
dt = 1e-3
t_final = 0.5
tail_tol = 1e-6
ic = odd_gaussian(-4,1)
""")
        out = tmp_path / "out"
        rc = main(["--out", str(out), "experiment", "tstar",
                   "--config", cfg_path])
        assert rc == 1
        assert "horizon" in capsys.readouterr().err

    def test_experiment_symmetry_passes(self, tmp_path):
        cfg_path = write_cfg(tmp_path, """
alpha = 0.5
n = 2048
length = 100
dt = 1e-3
t_final = 0.2
ic = sine_packet(0.1,2,4)
""")
        out = tmp_path / "out"
        rc = main(["--out", str(out), "experiment", "symmetry",
                   "--config", cfg_path, "--lambda", "2.0"])
        assert rc == 0
        report = (out / "report.csv").read_text()
        assert "scaling_residual" in report
        assert (out / "manifest.txt").read_text().count("pass") >= 1

    @pytest.mark.parametrize("campaign, alpha", [
        ("symmetry", "0.5"), ("moment-law", "0.5"), ("tstar", "0.5"),
        ("two-time-bh", "-1"), ("breaking", "-1")])
    def test_mean_free_campaigns_reject_projected_shelf(self, tmp_path, capsys,
                                                        campaign, alpha):
        # the zero-mean projection of a Gaussian leaves a uniform shelf, so x u
        # is a box-sized sawtooth and every metric would fail by far; the guard
        # rejects it before any solve or t* check reads it
        rc = main(["--out", str(tmp_path / "out"), "experiment", campaign,
                   "--alpha", alpha, "--n", "1024", "--length", "100", "--dt", "1e-3",
                   "--t-final", "1", "--ic", "gaussian(0.2,1,0)", "--zero-mean", "true"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "shelf" in err[0]

    def test_symmetry_rejects_data_with_a_mean(self, tmp_path, capsys):
        # D^alpha of data with a mean decays like |x|^-(1+alpha), so x D^alpha u
        # reaches the box edge; the commutator residuals would read ~1e-2
        rc = main(["--out", str(tmp_path / "out"), "experiment", "symmetry",
                   "--alpha", "0.5", "--n", "1024", "--length", "100", "--dt", "1e-3",
                   "--t-final", "0.1", "--lambda", "2", "--ic", "gaussian(0.1,1,0)"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: symmetry checks needs zero mean")

    @pytest.mark.parametrize("campaign, alpha", [
        ("moment-law", "0.5"), ("tstar", "0.5"), ("two-time-bh", "-1"),
        ("decay-threshold", "-0.5"), ("symmetry", "0.5"), ("breaking", "-1")])
    def test_campaigns_reject_all_zero_data(self, tmp_path, capsys, campaign, alpha):
        # before, tstar and breaking divided by zero, moment-law passed on a
        # tolerance of 0, and two-time-bh and symmetry failed on NaN
        rc = main(["--out", str(tmp_path / "out"), "experiment", campaign,
                   "--alpha", alpha, "--n", "1024", "--length", "100", "--dt", "1e-2",
                   "--t-final", "1", "--ic", "odd_gaussian(0,1)"])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ")
        assert err[0].endswith(": u0 is zero everywhere, so no metric has a scale")
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_decay_threshold_rejects_box_filling_data(self, tmp_path, capsys):
        # random_band has no zero mode, so it is mean-free without any projection;
        # the error names the campaign and the shelf level, not a projection
        rc = main(["--out", str(tmp_path / "out"), "experiment", "decay-threshold",
                   "--alpha", "0.5", "--n", "1024", "--length", "100", "--dt", "1e-3",
                   "--t-final", "1", "--ic", "random_band(1,0.5,2,0.1)",
                   "--box-list", "100,200"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: decay scans: ")
        assert "must decay to 0 at the box edge" in err[0]
        assert "shelf at u = " in err[0] and "projection" not in err[0]

    def test_stein_command(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["--out", str(out), "stein", "--b", "0.5",
                   "--target", "sign_propagator", "--t", "1.5707963267948966",
                   "--points", "1.0"])
        assert rc == 0
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[0] == "target,b,eta,value,err_est"
        assert float(rows[1].split(",")[3]) == pytest.approx(2.0, rel=1e-3)

    def test_stein_weight_target(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["--out", str(out), "stein", "--b", "0.5", "--target", "weight",
                   "--theta", "0.5", "--n-w", "8", "--points", "0.5,8,20"])
        assert rc == 0
        rows = (out / "report.csv").read_text().splitlines()
        assert len(rows) == 4
        for row in rows[1:]:
            assert row.startswith("weight(theta=0.5,N=8),")
            value, err = (float(v) for v in row.split(",")[-2:])
            assert math.isfinite(value) and value > 0
            assert math.isfinite(err)

    def test_probe_command(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["--out", str(out), "probe", "--kinds", "hilbert_frac",
                   "--pairs", "3", "--n", "512", "--length", "50"])
        assert rc == 0
        assert "hilbert_frac" in (out / "report.csv").read_text()

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocked = tmp_path / "file"
        blocked.write_text("")
        rc = main(["--out", str(blocked / "sub"), "simulate",
                   "--alpha", "0.5", "--dt", "1e-3", "--t-final", "0.01",
                   "--n", "64", "--length", "10"])
        assert rc == 1
        assert "not writable" in capsys.readouterr().err

    def test_env_var_sets_output_root(self, tmp_path, monkeypatch):
        cfg_path = write_cfg(tmp_path, MINIMAL)
        root = tmp_path / "env_root"
        monkeypatch.setenv("FKDV_OUT", str(root))
        assert main(["simulate", "--config", cfg_path]) == 0
        assert (root / "diagnostics.csv").exists()

    def test_metric_failure_exits_two(self, tmp_path):
        # the pointwise moment-law tolerance sits below the tail-flux floor
        cfg_path = write_cfg(tmp_path, """
alpha = -0.5
n = 1024
length = 100
dt = 1e-3
t_final = 0.5
tail_tol = 1e-4
ic = odd_gaussian(-4,1)
""")
        out = tmp_path / "out"
        rc = main(["--out", str(out), "experiment", "moment-law",
                   "--config", cfg_path])
        assert rc == 2
        assert "moment_max_deviation" in (out / "report.csv").read_text()

    def test_convergence_command(self, tmp_path):
        cfg_path = write_cfg(tmp_path, """
alpha = 0.5
n = 4096
length = 200
dt = 0.02
t_final = 0.5
zero_mean = true
ic = gaussian(0.1,1,0)
""")
        out = tmp_path / "out"
        rc = main(["--out", str(out), "convergence", "--config", cfg_path])
        assert rc == 0
        report = (out / "report.csv").read_text()
        assert "richardson_order" in report and "picard_agreement" in report

    def test_convergence_linear_config_oracle_agrees(self, tmp_path):
        cfg_path = write_cfg(tmp_path, """
alpha = 0.5
n = 256
length = 50
dt = 0.02
t_final = 0.1
nonlinear = false
ic = gaussian(0.1,1,0)
""")
        out = tmp_path / "out"
        rc = main(["--out", str(out), "convergence", "--config", cfg_path])
        rows = {r.split(",")[1]: r.split(",")
                for r in (out / "report.csv").read_text().splitlines()[1:]}
        assert float(rows["picard_agreement"][2]) <= 1e-12
        assert rows["picard_agreement"][6] == "true"
        # the linear stepper is exact: its step error is gated, not its order
        assert set(rows) == {"linear_step_error", "picard_agreement"}
        assert float(rows["linear_step_error"][2]) <= 1e-12
        assert rc == 0
        assert "status = pass" in (out / "manifest.txt").read_text().splitlines()

    @pytest.mark.parametrize("nonlinear", ["true", "false"])
    def test_run_convergence_gives_the_cli_report(self, tmp_path, nonlinear):
        cfg_path = write_cfg(tmp_path, """
alpha = 0.5
n = 256
length = 50
dt = 0.02
t_final = 0.1
ic = gaussian(0.1,1,0)
""")
        out = tmp_path / "out"
        rc = main(["--out", str(out), "convergence", "--config", cfg_path,
                   "--nonlinear", nonlinear])
        cfg, _ = parse_config(cfg_path, {"nonlinear": nonlinear})
        report = fkdvlab.run_convergence(cfg)
        assert cli.report_csv(report) == (out / "report.csv").read_text()
        assert rc == (0 if report.passed else 2)

    @pytest.mark.parametrize("nonlinear", ["true", "false"])
    def test_convergence_truncated_solves_fail_without_traceback(
            self, tmp_path, capsys, nonlinear):
        # the tail guard stops the dt/8, dt/2 and dt solves at different times
        cfg_path = write_cfg(tmp_path, """
alpha = -0.5
n = 1024
length = 100
dt = 0.01
t_final = 1
ic = gaussian(0.1,1,0)
zero_mean = true
""")
        out = tmp_path / "out"
        rc = main(["--out", str(out), "convergence", "--config", cfg_path,
                   "--nonlinear", nonlinear])
        stdout = capsys.readouterr().out
        assert rc == 2
        assert "TRUNCATED: dt/8 solve:" in stdout
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "truncated = true" in manifest
        assert "status = metric-failure" in manifest
        step = "richardson_order" if nonlinear == "true" else "linear_step_error"
        row = [r for r in (out / "report.csv").read_text().splitlines()
               if r.startswith(f"convergence,{step},")]
        assert row and row[0].split(",")[2] == "nan" and row[0].endswith(",false")

    @pytest.mark.parametrize("exc,prefix", [
        (ConfigurationError, "error: "), (DomainError, "error: "),
        (NumericError, "numeric error: "), (StepError, "numeric error: "),
        (OracleDivergenceError, "numeric error: "),
    ])
    def test_library_errors_exit_one_without_traceback(self, tmp_path, monkeypatch,
                                                       capsys, exc, prefix):
        def diverge(*args, **kwargs):
            raise exc("picard iterates grew")
        monkeypatch.setattr(fkdvlab.experiments, "picard_oracle", diverge)
        cfg_path = write_cfg(tmp_path, """
alpha = 0.5
n = 256
length = 50
dt = 0.02
t_final = 0.1
ic = gaussian(0.1,1,0)
""")
        rc = main(["--out", str(tmp_path / "out"), "convergence", "--config", cfg_path])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"{prefix}picard iterates grew\n"

    def test_truncated_campaign_recorded_in_manifest(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, """
alpha = 0.5
n = 1024
length = 100
dt = 1e-3
t_final = 3
ic = odd_gaussian(-4,1)
""")
        out = tmp_path / "out"
        rc = main(["--out", str(out), "experiment", "tstar",
                   "--config", cfg_path, "--tail-tol", "1e-12"])
        assert rc == 2
        assert "TRUNCATED:" in capsys.readouterr().out
        assert "truncated = true" in (out / "manifest.txt").read_text().splitlines()

    @pytest.mark.parametrize("argv,metric", [
        (["moment-law", "--alpha", "0.5", "--dt", "1e-3", "--ic", "odd_gaussian(-1,1)",
          "--tail-tol", "1e-15"], "moment_max_deviation"),
        (["two-time-bh", "--alpha", "-1", "--dt", "0.01", "--ic", "odd_gaussian(0.5,1)",
          "--t1", "0.33", "--t2", "1", "--tail-tol", "1e-12"], "jump_law_rel_error_t1"),
    ], ids=["moment-law", "two-time-bh"])
    def test_truncated_campaign_reads_nan_and_exits_two(self, tmp_path, capsys,
                                                        argv, metric):
        # before, the moment law passed on the rows it reached and exited 0,
        # and two-time-bh exited 1 on the time it did not reach
        out = tmp_path / "out"
        rc = main(["--out", str(out), "experiment", *argv,
                   "--n", "1024", "--length", "100", "--t-final", "1"])
        assert rc == 2
        assert "note: TRUNCATED: " in capsys.readouterr().out
        rows = [r.split(",") for r in (out / "report.csv").read_text().splitlines()]
        ((measured, passed),) = [(r[2], r[-1]) for r in rows if r[1] == metric]
        assert (measured, passed) == ("nan", "false")

    @pytest.mark.parametrize("flag,value", [
        ("--ic", "gaussian(1,2)"),
        ("--ic", "file()"),
        ("--ic", "gaussian(1,0,0)"),
        ("--ic", "odd_gaussian(1,-1)"),
        ("--ic", "sine_packet(1,2,0)"),
        ("--ic", "gaussian(inf,1,0)"),
        ("--t-final", "inf"),
        ("--t1", "abc"),
        ("--lambda", "abc"),
        ("--box-list", "200,abc"),
        ("--box-list", "200,nan"),
        ("--box-list", "200,inf"),
        ("--box-list", "200,200"),
        ("--r-probe", "x"),
        ("--weight-orders", "1,abc"),
        ("--weight-orders", "1,1"),
        ("--weight-orders", "2,2.0000001"),
        ("--seed", "abc"),
        ("--points", "0.5,abc"),
        ("--target", "nope"),
        ("--tail-tol", "nan"),
        ("--store-every", "-3"),
        ("--points", "nan"),
        ("--points", "1,inf"),
        ("--pairs", "0"),
        ("--pairs", "-3"),
        ("--length", "inf"),
        ("--length", "nan"),
        ("--ic", "random_band(-1,0.5,4,1)"),
        ("--ic", "random_band(1.5,0.5,4,1)"),
        ("--ic", "random_band(18446744073709551616,0.5,4,1)"),
        ("--ic", "random_band(3,0.5,4,inf)"),
        ("--ic", "random_band(3,nan,4,1)"),
        ("--ic", "random_band(3,0.5,-inf,1)"),
        ("--ic", "gaussian(0,1,0)"),
        ("--config", "seed = 99"),
    ])
    def test_bad_input_exits_one_with_error_line(self, tmp_path, capsys, flag, value):
        campaign = {"--t1": "two-time-bh", "--lambda": "symmetry",
                    "--box-list": "decay-threshold", "--r-probe": "decay-threshold"}
        # what the error line names, where it is not the flag's key
        named = {"random_band(3,0.5,4,": "random_band: A",
                 "random_band(3,nan": "random_band: k_lo",
                 "random_band(3,0.5,-inf": "random_band: k_hi",
                 "random_band": "random_band: seed", "gaussian(0,1,0)": "u0 is zero",
                 "seed = 99": "key(s): seed"}
        expected = next((v for k, v in named.items() if value.startswith(k)),
                        flag[2:].replace("-", "_"))
        if flag in ("--pairs", "--length"):
            argv = ["probe", flag, value]
        elif flag in ("--points", "--target"):
            opts = {"--b": "0.5", "--target": "sign_propagator", "--points": "1.0",
                    flag: value}
            argv = ["stein"] + [tok for item in opts.items() for tok in item]
        else:
            if flag == "--config":          # a hand-written file, not a manifest
                value = write_cfg(tmp_path, value)
            # simulate runs all-zero data; convergence has no scale for it
            command = "convergence" if value == "gaussian(0,1,0)" else "simulate"
            argv = (["experiment", campaign[flag]] if flag in campaign else [command]) \
                + ["--alpha", "0.5", "--dt", "1e-3", "--t-final", "0.01",
                   "--n", "64", "--length", "10", flag, value]
        rc = main(["--out", str(tmp_path / "out")] + argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert expected in err

    @pytest.mark.parametrize("target,flag,value", [
        ("propagator", "--t", "nan"),
        ("sign_propagator", "--t", "inf"),
        ("power_cutoff", "--beta", "nan"),
        ("weight", "--n-w", "0"),
        ("weight", "--n-w", "-1"),
    ])
    def test_bad_stein_target_parameter_exits_one(self, tmp_path, capsys, target,
                                                  flag, value):
        rc = main(["--out", str(tmp_path / "out"), "stein", "--b", "0.5",
                   "--target", target, "--points", "0.5,1", flag, value])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert flag[2:].replace("-", "_") in captured.err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--alpha", "0.5", "--n", "64", "--length", "10",
         "--t-final", "0.01", "--weight-orders", "nan"],
        ["simulate", "--alpha", "0.5", "--n", "64", "--length", "10",
         "--t-final", "0.01", "--weight-orders", "1,inf"],
        ["experiment", "decay-threshold", "--alpha", "-0.5", "--n", "1024",
         "--length", "200", "--t-final", "1", "--ic", "gaussian(1,1,0)",
         "--box-list", "200,400", "--r-probe", "nan"],
    ], ids=["simulate-nan", "simulate-inf", "decay-threshold-nan"])
    def test_non_finite_weight_order_exits_one(self, tmp_path, capsys, argv):
        rc = main(["--out", str(tmp_path / "out"), *argv, "--dt", "1e-3"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: weight order") and err.count("\n") == 1
        assert not (tmp_path / "out" / "diagnostics.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["stein", "--b", "abc", "--target", "weight", "--points", "1"],
        ["probe", "--n", "abc"],
        ["experiment", "nope"],
        ["simulate", "--bogus", "1"],
        ["stein", "--b", "0.5", "--target", "weight"],
    ], ids=["stein-b-not-a-number", "probe-n-not-a-number", "unknown-experiment",
            "unknown-flag", "stein-without-points"])
    def test_usage_error_exits_one(self, tmp_path, capsys, argv):
        # 2 is the metric-failure code, so a mistyped command line must not exit 2
        rc = main(["--out", str(tmp_path / "out"), *argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: fkdvlab") and captured.err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["stein", "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fkdvlab stein")

    def test_two_time_off_the_step_grid_exits_one(self, tmp_path, capsys):
        # with dt = 0.01 the state at t1 = 0.333 does not exist; 0.33 does
        argv = ["experiment", "two-time-bh", "--alpha", "-1", "--n", "1024",
                "--length", "100", "--dt", "0.01", "--t-final", "1",
                "--ic", "odd_gaussian(0.5,1)", "--t2", "1"]
        rc = main(["--out", str(tmp_path / "off"), *argv, "--t1", "0.333"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == ("error: time = 0.333 is not a multiple of dt = 0.01 "
                       "(nearest reachable time 0.33)\n")
        assert main(["--out", str(tmp_path / "on"), *argv, "--t1", "0.33"]) == 0

    @pytest.mark.parametrize("name,text", [
        ("missing.csv", None),
        ("letters.csv", "x,u\n" + "0,1\n" * 63 + "0,abc\n"),    # a non-numeric row
        ("column.csv", "x\n" + "0\n" * 64),                      # one column
        ("empty.csv", ""),
        ("header.csv", "x,u\n"),
    ])
    def test_unreadable_field_file_exits_one_naming_it(self, tmp_path, capsys, recwarn,
                                                       name, text):
        if text is not None:
            (tmp_path / name).write_text(text)
        rc = main(["--out", str(tmp_path / "out"), "simulate", "--alpha", "0.5",
                   "--dt", "1e-3", "--t-final", "0.01", "--n", "64", "--length", "10",
                   "--ic", f"file({tmp_path / name})"])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert name in lines[0]
        assert not recwarn.list         # a warning prints on stderr outside pytest

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf-8"])
    def test_unreadable_config_file_exits_one_naming_it(self, tmp_path, capsys, case):
        path = tmp_path / "run.cfg"
        if case == "directory":
            path.mkdir()
        elif case == "not-utf-8":
            path.write_bytes("alpha = 0.5  # \xe9\n".encode("latin-1"))
        rc = main(["--out", str(tmp_path / "out"), "simulate", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--alpha", "0.5", "--dt", "1e-300", "--t-final", "1e10",
         "--n", "64", "--length", "20"],
        ["experiment", "tstar", "--alpha", "0.5", "--n", "256", "--length", "40",
         "--ic", "odd_gaussian(-4,1)", "--t-final", "3", "--dt", "1e-310"],
    ], ids=["simulate", "tstar"])
    def test_step_count_overflow_exits_one(self, tmp_path, capsys, argv):
        rc = main(["--out", str(tmp_path / "out"), *argv])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "t_final / dt overflows" in err

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5])
    def test_cfl_violation_mid_run_exits_one(self, tmp_path, capsys, alpha):
        # dt sits exactly on the initial advective bound, which the first
        # step's growth of max|u| then breaks
        g = make_grid(1024, 50.0)
        u0 = InitialCondition("odd_gaussian", (-3.0, 1.0)).build(g)
        dt = cfl_bound(float(np.max(np.abs(u0.samples))), g.dx)
        rc = main(["--out", str(tmp_path / "out"), "simulate", "--alpha", fmt(alpha),
                   "--n", "1024", "--length", "50", "--dt", fmt(dt),
                   "--t-final", fmt(10 * dt), "--ic", "odd_gaussian(-3,1)"])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(lines) == 1
        assert lines[0].startswith(f"numeric error: CFL violated at t = {dt:g}: ")

    @pytest.mark.parametrize("mode", [0])
    def test_inf_state_between_rows_exits_one_quietly(self, tmp_path, capsys, recwarn,
                                                      monkeypatch, mode):
        # the third state writes no row; its field (inf and NaN samples) stops
        # the run, and numpy warns of none of it
        step, calls = _Stepper.step, []

        def inf_on_third(self, uh):
            calls.append(1)
            out = step(self, uh)
            if len(calls) == 3:
                out[mode] = np.inf
                np.fft.irfft(out, self.n, out=self.field)
            return out
        monkeypatch.setattr(_Stepper, "step", inf_on_third)
        rc = main(["--out", str(tmp_path / "out"), "simulate",
                   "--config", write_cfg(tmp_path, MINIMAL)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "numeric error: state non-finite at t = 0.003; last good t = 0.002"]
        assert not recwarn.list         # a warning prints on stderr outside pytest


def _scipy_loaded_by(tmp_path, argv):
    """Run ``main(argv)`` in a fresh interpreter, as ``python -m fkdvlab.cli``
    does, and return the exit code and the scipy modules it loaded."""
    code = (
        "import json, sys\n"
        "import fkdvlab, fkdvlab.cli\n"
        f"rc = fkdvlab.cli.main({argv!r})\n"
        "print(json.dumps([rc, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))\n")
    src = str(Path(fkdvlab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rc, loaded = json.loads(done.stdout.splitlines()[-1])
    return rc, set(loaded)


# every CLI command at a size that runs in about a second; -> the file it writes
EVERY_COMMAND = {
    "simulate": (["simulate", "--alpha", "0.5", "--n", "1024", "--length", "100",
                  "--dt", "1e-3", "--t-final", "0.05", "--ic", "gaussian(0.2,1,0)"],
                 "diagnostics.csv"),
    "moment-law": (["experiment", "moment-law", "--alpha", "-0.5", "--n", "1024",
                    "--length", "100", "--dt", "1e-3", "--t-final", "0.5",
                    "--tail-tol", "1e-4", "--ic", "odd_gaussian(-4,1)"], "report.csv"),
    "tstar": (["experiment", "tstar", "--alpha", "0.5", "--n", "1024", "--length", "100",
               "--dt", "0.01", "--t-final", "3", "--tail-tol", "1e-3",
               "--ic", "odd_gaussian(-4,1)"], "report.csv"),
    "two-time-bh": (["experiment", "two-time-bh", "--alpha", "-1", "--n", "1024",
                     "--length", "100", "--dt", "0.01", "--t-final", "1",
                     "--ic", "odd_gaussian(0.5,1)", "--t1", "0.33", "--t2", "1"],
                    "report.csv"),
    "decay-threshold": (["experiment", "decay-threshold", "--alpha", "-0.5", "--n", "1024",
                         "--length", "100", "--dt", "1e-3", "--t-final", "1",
                         "--ic", "gaussian(1,1,0)", "--box-list", "100,200"], "report.csv"),
    "symmetry": (["experiment", "symmetry", "--alpha", "0.5", "--n", "1024",
                  "--length", "100", "--dt", "1e-3", "--t-final", "0.1",
                  "--ic", "sine_packet(0.1,2,4)", "--lambda", "2"], "report.csv"),
    "breaking": (["experiment", "breaking", "--alpha", "-1", "--n", "1024", "--length", "100",
                  "--dt", "2e-3", "--t-final", "0.1", "--diag-every", "25",
                  "--ic", "odd_gaussian(-3,1)", "--tail-tol", "1e-5"], "report.csv"),
    "stein": (["stein", "--b", "0.5", "--target", "sign_propagator",
               "--t", "1.5707963267948966", "--points", "1.0"], "report.csv"),
    "probe": (["probe", "--kinds", "hilbert_frac", "--pairs", "3", "--n", "512",
               "--length", "50"], "report.csv"),
    "convergence": (["convergence", "--alpha", "0.5", "--n", "256", "--length", "50",
                     "--dt", "0.02", "--t-final", "0.1", "--ic", "gaussian(0.1,1,0)"],
                    "report.csv"),
}


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is a test dependency only, the quadrature rule is a table of
    # literals, the edge merge and probe median sort without numpy.ma, and
    # random_band hashes its own draws: with scipy, numpy.polynomial,
    # numpy.ma and numpy.random unimportable every command writes what it
    # writes with all four at hand
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "sys.modules['numpy.polynomial'] = None\n"
        "sys.modules['numpy.ma'] = None\n"
        "sys.modules['numpy.random'] = None\n"
        "import fkdvlab.cli\n"
        f"runs = {EVERY_COMMAND!r}\n"
        "out = {}\n"
        "for name, (argv, written) in runs.items():\n"
        "    rc = fkdvlab.cli.main(['--out', 'no_scipy/' + name] + argv)\n"
        "    out[name] = [rc, open(f'no_scipy/{name}/{written}').read()]\n"
        "print(json.dumps(out))\n")
    src = str(Path(fkdvlab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    blocked = json.loads(done.stdout.splitlines()[-1])
    for name, (argv, written) in EVERY_COMMAND.items():
        out = tmp_path / "with_scipy" / name
        rc = main(["--out", str(out)] + argv)
        assert blocked[name] == [rc, (out / written).read_text()], name


class TestColdStart:
    # numpy.fft is the lab's transform and _cumulative_simpson its Simpson
    # rule, so no command imports scipy
    def test_simulate_loads_no_heavy_scipy(self, tmp_path):
        cfg_path = write_cfg(tmp_path, MINIMAL)
        rc, loaded = _scipy_loaded_by(
            tmp_path, ["--out", "out", "simulate", "--config", cfg_path])
        assert rc == 0
        assert loaded == set()

    def test_tstar_loads_no_scipy(self, tmp_path):
        cfg_path = write_cfg(tmp_path, """
alpha = 0.5
n = 1024
length = 100
dt = 0.01
t_final = 3
tail_tol = 1e-3
ic = odd_gaussian(-4,1)
""")
        rc, loaded = _scipy_loaded_by(
            tmp_path, ["--out", "out", "experiment", "tstar", "--config", cfg_path])
        assert rc in (0, 2)
        assert loaded == set()

    def test_breaking_loads_no_scipy(self, tmp_path):
        rc, loaded = _scipy_loaded_by(tmp_path, [
            "--out", "out", "experiment", "breaking", "--alpha", "-1", "--n", "1024",
            "--length", "100", "--dt", "2e-3", "--t-final", "0.1", "--diag-every", "25",
            "--ic", "odd_gaussian(-3,1)", "--tail-tol", "1e-5"])
        assert rc in (0, 2)
        assert loaded == set()

    def test_decay_threshold_loads_no_optimizer(self, tmp_path):
        rc, loaded = _scipy_loaded_by(tmp_path, [
            "--out", "out", "experiment", "decay-threshold", "--alpha", "-0.5",
            "--n", "1024", "--length", "100", "--dt", "1e-3", "--t-final", "1",
            "--ic", "gaussian(1,1,0)", "--box-list", "100,200"])
        assert rc in (0, 2)
        assert loaded == set()
