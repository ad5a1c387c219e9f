import json
import math
import os

import pytest

from wickwaves.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_wick_constants_values(capsys, tmp_path):
    code, out, _ = run(capsys, "wick-constants", "--L", "1", "--K", "1",
                       "--out", str(tmp_path))
    assert code == 0
    assert "3" in out
    payload = json.loads((tmp_path / "wick_constants.json").read_text())
    assert payload["lattice"] == 3.0
    assert abs(payload["continuum"] - math.pi * math.log(2.0)) < 1e-10
    assert "config_hash" in payload["manifest"]


def test_unknown_config_key_near_miss(capsys, tmp_path):
    code, _, err = run(capsys, "wick-constants",
                       "--set", "grid.LL=2", "--out", str(tmp_path))
    assert code == 2
    assert "did you mean" in err
    assert "grid.L" in err


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("grid.L = 2\ngrid.K = 1\n# comment\n")
    code, out, _ = run(capsys, "wick-constants", "--config", str(cfgfile),
                       "--L", "1", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "wick_constants.json").read_text())
    # flag beats config file
    assert payload["manifest"]["config"]["grid.L"] == "1"


def test_bad_config_file(capsys, tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("grid.L = 1\ngrid.L = 2\n")
    code, _, err = run(capsys, "wick-constants", "--config", str(cfgfile),
                       "--out", str(tmp_path))
    assert code == 2
    assert "duplicate" in err


def test_seed_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WICKWAVES_SEED", "777")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    code, _, _ = run(capsys, "sample-gff", "--L", "1", "--K", "1",
                     "--n", "4", "--out", str(d1))
    assert code == 0
    m = json.loads((d1 / "gff_manifest.json").read_text())
    assert m["manifest"]["seed"] == 777
    # byte-identical rerun under the same seed
    code, _, _ = run(capsys, "sample-gff", "--L", "1", "--K", "1",
                     "--n", "4", "--out", str(d2))
    assert code == 0
    assert ((d1 / "gff_coeffs.csv").read_bytes()
            == (d2 / "gff_coeffs.csv").read_bytes())


def test_seed_env_var_invalid(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WICKWAVES_SEED", "not-a-number")
    code, _, err = run(capsys, "sample-gff", "--out", str(tmp_path))
    assert code == 2
    assert "WICKWAVES_SEED" in err


def test_sample_phi4_hmc(capsys, tmp_path):
    code, _, _ = run(capsys, "sample-phi4", "--L", "1", "--K", "1",
                     "--lambda", "1.0", "--n", "32",
                     "--set", "sampler.burn_in=32",
                     "--set", "sampler.thinning=2",
                     "--set", "measure.wick_a=0.2",
                     "--out", str(tmp_path))
    assert code == 0
    m = json.loads((tmp_path / "phi4_manifest.json").read_text())
    assert m["manifest"]["sampler"] == "hmc"
    assert (tmp_path / "phi4_observables.csv").exists()


def test_evolve_nlw_single_mode(capsys, tmp_path):
    code, _, _ = run(capsys, "evolve-nlw", "--L", "1", "--K", "2",
                     "--lambda", "0", "--dt", "0.01", "--T", "0.5",
                     "--modes", "single", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "nlw_trajectory.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "t"
    last = lines[-1].split(",")
    assert abs(float(last[-1])) < 1e-10  # linear flow conserves H


def test_evolve_nls_mass(capsys, tmp_path):
    code, _, _ = run(capsys, "evolve-nls", "--L", "1", "--K", "2",
                     "--lambda", "1", "--dt", "0.01", "--T", "0.2",
                     "--modes", "gff",
                     "--set", "flow.substep=midpoint",
                     "--set", "flow.wick_a=0.2",
                     "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "nls_trajectory.csv").read_text().splitlines()
    last = lines[-1].split(",")
    assert abs(float(last[-1])) < 1e-10


def test_besov_norm_cmd(capsys, tmp_path):
    code, out, _ = run(capsys, "besov-norm", "--L", "2", "--K", "2",
                       "--n", "3", "--s", "-0.5", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "besov_norms.csv").read_text().splitlines()
    assert len(lines) == 4


def test_invariance_linear_pass(capsys, tmp_path):
    code, out, _ = run(capsys, "invariance", "--flow", "linear",
                       "--L", "2", "--K", "2", "--T", "0.5",
                       "--n", "200", "--dt", "0.01",
                       "--set", "measure.lambda=0",
                       "--out", str(tmp_path))
    assert code == 0
    assert "PASS" in out
    rep = json.loads((tmp_path / "invariance_report.json").read_text())
    assert rep["report"]["passed"] is True


def test_invariance_statistical_gate(capsys, tmp_path):
    # uniformity_alpha=1 cannot be met by any finite p-value
    code, out, err = run(capsys, "invariance", "--flow", "linear",
                         "--L", "2", "--K", "2", "--T", "0.5",
                         "--n", "100", "--dt", "0.01",
                         "--set", "measure.lambda=0",
                         "--set", "harness.uniformity_alpha=1.0",
                         "--out", str(tmp_path))
    assert code == 4
    assert "statistical gate" in err
    # report artifacts for a failed gate are still written (the gate is a
    # verdict, not a crash)
    assert (tmp_path / "invariance_report.json").exists()


def test_audit_cmd_ok(capsys, tmp_path):
    code, out, _ = run(capsys, "audit-inequalities", "--trials", "50",
                       "--kinds", "duality,embedding",
                       "--out", str(tmp_path))
    assert code == 0
    assert "ok" in out
    assert (tmp_path / "audit_report.csv").exists()


def test_audit_numerical_gate(capsys, tmp_path):
    code, _, err = run(capsys, "audit-inequalities", "--trials", "20",
                       "--kinds", "duality",
                       "--set", "audit.slack=0.0001",
                       "--out", str(tmp_path))
    assert code == 3
    assert "numerical gate" in err


def test_audit_unknown_kind(capsys, tmp_path):
    code, _, err = run(capsys, "audit-inequalities", "--kinds", "bogus",
                       "--out", str(tmp_path))
    assert code == 2
    assert "unknown audit kind" in err


def test_grid_validation_maps_to_config_error(capsys, tmp_path):
    code, _, err = run(capsys, "sample-gff", "--L", "2", "--K", "2",
                       "--M", "6", "--out", str(tmp_path))
    assert code == 2


def test_unconverged_midpoint_kick_exits_3(capsys, tmp_path):
    # a field this strong makes the fixed-point iteration diverge
    code, _, err = run(capsys, "evolve-nls", "--L", "1", "--K", "2",
                       "--lambda", "1", "--dt", "0.05", "--T", "0.05",
                       "--modes", "gff", "--set", "flow.substep=midpoint",
                       "--set", "init.amplitude=10", "--out", str(tmp_path))
    assert code == 3
    assert "not converged" in err

@pytest.mark.parametrize("command, setting", [
    ("evolve-nlw", "flow.dt=0"),
    ("evolve-nlw", "flow.T=-0.5"),
    ("evolve-nls", "flow.dt=-0.01"),
    ("evolve-nls", "flow.T=-0.5"),
    ("evolve-nls", "flow.substep=euler"),
])
def test_flow_config_errors_exit_2(capsys, tmp_path, command, setting):
    code, _, err = run(capsys, command, "--L", "1", "--K", "2",
                       "--set", setting, "--out", str(tmp_path))
    assert code == 2
    assert "config error" in err


def test_workers_setting_is_gone(capsys, tmp_path):
    code, _, err = run(capsys, "wick-constants", "--set", "workers=2",
                       "--out", str(tmp_path))
    assert code == 2
    with pytest.raises(SystemExit):
        main(["wick-constants", "--workers", "2"])
