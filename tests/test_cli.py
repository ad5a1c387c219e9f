import argparse
import json
import math

import pytest

from wickwaves.cli import build_parser, main


FAIL_ON_WARNING = pytest.mark.filterwarnings("error")


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
    ("invariance", "harness.n=21"),
    ("invariance", "flow.dt=0"),
    ("invariance", "flow.kind=bogus"),
    ("sample-phi4", "sampler.kind=bogus"),
    ("sample-phi4", "sampler.thinning=0"),
    # a non-finite T is refused before any numpy call can warn on it
    pytest.param("evolve-nlw", "flow.T=inf", marks=FAIL_ON_WARNING),
    pytest.param("evolve-nls", "flow.T=inf", marks=FAIL_ON_WARNING),
    pytest.param("evolve-nls", "flow.T=nan", marks=FAIL_ON_WARNING),
    ("evolve-nlw", "init.modes=single init.k1=2 init.k2=2"),
    ("evolve-nlw", "init.modes=single init.k1=50"),
    ("evolve-nls", "init.modes=single init.k1=-3"),
    ("volume-study", "harness.L_list=4"),
])
def test_flow_config_errors_exit_2(capsys, tmp_path, command, setting):
    grid = ["--K", "2"]
    if command != "volume-study":       # its grids follow harness.L_list
        grid = ["--L", "1"] + grid
    sets = [a for s in setting.split() for a in ("--set", s)]
    code, _, err = run(capsys, command, *grid, *sets, "--out", str(tmp_path))
    assert code == 2
    assert "config error" in err
    assert not list(tmp_path.iterdir())


def test_workers_setting_is_gone(capsys, tmp_path):
    code, _, err = run(capsys, "wick-constants", "--set", "workers=2",
                       "--out", str(tmp_path))
    assert code == 2
    with pytest.raises(SystemExit):
        main(["wick-constants", "--workers", "2"])


def test_allowed_values_checked_on_every_route(capsys, tmp_path):
    # weight.kind takes flat or polynomial_decay, whatever the route
    code, _, err = run(capsys, "besov-norm", "--n", "1",
                       "--set", "weight.kind=poly")
    assert code == 2
    assert "unknown weight kind 'poly'" in err
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("sampler.kind = bogus\n")
    code, _, err = run(capsys, "sample-phi4", "--config", str(cfgfile))
    assert code == 2
    assert "unknown sampler kind 'bogus'" in err
    with pytest.raises(SystemExit):
        main(["sample-phi4", "--sampler", "bogus"])
    code, out, _ = run(capsys, "besov-norm", "--n", "1",
                       "--set", "weight.kind=polynomial_decay")
    assert code == 0
    assert out.startswith("sample 0: ")


# Every command's flags, each as flag -> (config key, type, allowed values),
# as the parser stood before the key table.  The table may add a flag for a
# key a command already takes, never drop or change one.
PARENT_FLAGS = {
    "wick-constants": {
        "--L": ("grid.L", "float", None), "--K": ("grid.K", "float", None),
        "--m": ("measure.m", "float", None)},
    "sample-gff": {
        "--L": ("grid.L", "float", None), "--K": ("grid.K", "float", None),
        "--M": ("grid.M", "int", None), "--m": ("measure.m", "float", None),
        "--n": ("n", "int", None)},
    "sample-phi4": {
        "--L": ("grid.L", "float", None), "--K": ("grid.K", "float", None),
        "--M": ("grid.M", "int", None), "--m": ("measure.m", "float", None),
        "--lambda": ("measure.lambda", "float", None),
        "--n": ("n", "int", None),
        "--sampler": ("sampler.kind", "str",
                      ("hmc", "mala", "rejection_oracle"))},
    "evolve-nlw": {
        "--L": ("grid.L", "float", None), "--K": ("grid.K", "float", None),
        "--M": ("grid.M", "int", None),
        "--lambda": ("flow.lambda", "float", None),
        "--dt": ("flow.dt", "float", None), "--T": ("flow.T", "float", None),
        "--modes": ("init.modes", "str", ("single", "gff"))},
    "evolve-nls": {
        "--L": ("grid.L", "float", None), "--K": ("grid.K", "float", None),
        "--M": ("grid.M", "int", None),
        "--lambda": ("flow.lambda", "float", None),
        "--dt": ("flow.dt", "float", None), "--T": ("flow.T", "float", None),
        "--modes": ("init.modes", "str", ("single", "gff"))},
    "besov-norm": {
        "--L": ("grid.L", "float", None), "--K": ("grid.K", "float", None),
        "--M": ("grid.M", "int", None), "--m": ("measure.m", "float", None),
        "--n": ("n", "int", None), "--s": ("besov.s", "float", None),
        "--p": ("besov.p", "float", None), "--r": ("besov.r", "float", None)},
    "invariance": {
        "--L": ("grid.L", "float", None), "--K": ("grid.K", "float", None),
        "--M": ("grid.M", "int", None), "--m": ("measure.m", "float", None),
        "--lambda": ("measure.lambda", "float", None),
        "--flow": ("flow.kind", "str", ("nlw", "nls", "linear")),
        "--T": ("flow.T", "float", None), "--dt": ("flow.dt", "float", None),
        "--n": ("harness.n", "int", None)},
    "volume-study": {
        "--K": ("grid.K", "float", None),
        "--L-list": ("harness.L_list", "str", None),
        "--T": ("flow.T", "float", None), "--n": ("harness.n", "int", None),
        "--m": ("measure.m", "float", None),
        "--lambda": ("measure.lambda", "float", None)},
    "blowup-table": {
        "--L": ("grid.L", "float", None), "--K": ("grid.K", "float", None),
        "--M": ("grid.M", "int", None), "--m": ("measure.m", "float", None),
        "--lambda": ("measure.lambda", "float", None)},
    "audit-inequalities": {
        "--trials": ("audit.trials", "int", None),
        "--kinds": ("audit.kinds", "str", None)},
}
ADDED_FLAGS = {
    "volume-study": {"--dt": ("flow.dt", "float", None)},
    "blowup-table": {"--n": ("harness.n", "int", None)},
}


def _parser_flags():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    flags = {}
    for name, sub in subs.choices.items():
        flags[name] = {
            a.option_strings[0]: (a.dest, (a.type or str).__name__,
                                  tuple(a.choices) if a.choices else None)
            for a in sub._actions
            if a.dest not in ("help", "config", "set", "seed", "out")}
    return flags


def test_cli_surface_keeps_every_flag():
    flags = _parser_flags()
    assert set(flags) == set(PARENT_FLAGS)
    for name, parent in PARENT_FLAGS.items():
        assert flags[name] == {**parent, **ADDED_FLAGS.get(name, {})}, name


def test_manifest_config_holds_only_given_keys(capsys, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "sample-gff", "--L", "1", "--K", "1",
                       "--n", "2", "--set", "measure.m=2")
    assert code == 0
    man = json.loads((tmp_path / "gff_manifest.json").read_text())
    assert man["manifest"]["config"] == {
        "grid.K": "1", "grid.L": "1", "measure.m": "2", "n": "2"}
    # the hash this run had before the key table
    assert man["manifest"]["config_hash"] == "95b0a8da150e8828"
    assert "95b0a8da150e8828" in out


def test_volume_study_cmd(capsys, tmp_path):
    code, out, _ = run(capsys, "volume-study", "--K", "1",
                       "--L-list", "4,8", "--T", "0.1", "--n", "40",
                       "--set", "measure.lambda=0", "--set", "harness.D=1",
                       "--out", str(tmp_path))
    assert code == 0
    assert "stabilization PASS" in out
    rep = json.loads((tmp_path / "volume_study.json").read_text())
    assert rep["L_list"] == [4.0, 8.0]
    assert rep["manifest"]["config"]["harness.L_list"] == "4,8"
    rows = (tmp_path / "volume_study.csv").read_text().splitlines()
    assert rows[0] == "ensemble,L_small,L_large,energy_distance"
    assert len(rows) == 3          # one pair, at t=0 and at t=T


def test_blowup_table_cmd(capsys, tmp_path):
    code, out, _ = run(capsys, "blowup-table", "--L", "2", "--K", "2",
                       "--set", "harness.n=16", "--set", "harness.T=1",
                       "--out", str(tmp_path))
    assert code == 0
    rep = json.loads((tmp_path / "blowup_manifest.json").read_text())
    rows = rep["rows"]
    assert len(rows) == 6          # five quantiles and 1.1 max
    assert [r["M"] for r in rows] == sorted(r["M"] for r in rows)
    assert all(r["iterations"] == math.ceil(1.0 / r["tau"]) for r in rows)
    assert len(out.splitlines()) == 6
    assert (tmp_path / "blowup_table.csv").exists()
