"""Command-line entry points.

Every subcommand reads an optional flat config file (key = value with
dotted namespaces), applies ``--set KEY=VALUE`` and its flags on top,
seeds reproducibly, and writes JSON/CSV artifacts carrying the config
hash.  ``KEYS`` is the reference for the config keys (type, flag, allowed
values); each ``@_command`` lists its keys and their defaults, ``None``
meaning the library's default.  Exit codes: 0 success, 2 config error, 3
numerical gate failure, 4 statistical gate failure.  Every rejected config
value exits 2 before any draw: an unknown key, a wrong type, a value
outside its allowed ones, or one the library rejects (it raises
ValueError only when checking its arguments, before it samples or steps).
WICKWAVES_SEED overrides the default seed.  CPU affinity (``taskset``)
sets the cores the transforms use, and the number of threads that run
independent NLS members at once.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from . import nls as nls_mod
from . import nlw as nlw_mod
from .besov import (AUDIT_KINDS, POLY, BesovParams, WeightSpec,
                    besov_norm_array, check_audit, inequality_audit)
from .gaussian import (RngStream, sample_complex_gff_coeffs,
                       sample_gff_coeffs, wick_constant_continuum,
                       wick_constant_lattice)
from .harness import (FLOWS, blowup_bookkeeping, invariance_experiment,
                      volume_stabilization_study)
from .io import (ConfigError, NumericalGateError, OutputSet, RunConfig,
                 StatisticalGateError, fmt_float, make_manifest, write_csv,
                 write_json)
from .phi4 import (COMPLEX_FIELD, REAL_FIELD, MeasureSpec, quartic_integral,
                   run_chain)
from .torus import TorusGrid


# ---------------------------------------------------------------------------
# The key table

def _numbers(raw):
    return [float(s) for s in raw.split(",") if s.strip()]


def _numbers_or_auto(raw):
    return None if raw == "auto" else _numbers(raw)


def _names(raw):
    return [s.strip() for s in raw.split(",") if s.strip()]


@dataclass(frozen=True)
class Key:
    """How a config key is read: float, int or str, or one of the readers
    above for a comma-separated list; its flag; its allowed values (of
    each item, for a list)."""

    type: object
    flag: str = None
    choices: tuple = None


KEYS = {
    "seed": Key(int, "--seed"),
    "out": Key(str, "--out"),
    "n": Key(int, "--n"),
    "n_records": Key(int),
    "grid.L": Key(float, "--L"),
    "grid.M": Key(int, "--M"),
    "grid.K": Key(float, "--K"),
    "measure.m": Key(float, "--m"),
    "measure.lambda": Key(float, "--lambda"),
    "measure.quartic_coeff": Key(float),
    "measure.wick_a": Key(float),
    "measure.field_type": Key(str, choices=(REAL_FIELD, COMPLEX_FIELD)),
    "sampler.kind": Key(str, "--sampler",
                        ("hmc", "mala", "rejection_oracle")),
    "sampler.dt": Key(float),
    "sampler.burn_in": Key(int),
    "sampler.thinning": Key(int),
    "sampler.batch": Key(int),
    "flow.kind": Key(str, "--flow", FLOWS),
    "flow.m": Key(float),
    "flow.lambda": Key(float, "--lambda"),
    "flow.dt": Key(float, "--dt"),
    "flow.T": Key(float, "--T"),
    "flow.wick_a": Key(float),
    "flow.substep": Key(str, choices=(nls_mod.PHASE_SUBSTEP,
                                      nls_mod.MIDPOINT_SUBSTEP)),
    "init.modes": Key(str, "--modes", ("single", "gff")),
    "init.k1": Key(int),
    "init.k2": Key(int),
    "init.amplitude": Key(float),
    "besov.s": Key(float, "--s"),
    "besov.p": Key(float, "--p"),
    "besov.r": Key(float, "--r"),
    "weight.kind": Key(str, choices=("flat", POLY)),
    "weight.alpha": Key(float),
    "harness.n": Key(int, "--n"),
    "harness.T": Key(float),
    "harness.D": Key(float),
    "harness.L_list": Key(_numbers, "--L-list"),
    "harness.M_grid": Key(_numbers_or_auto),
    "harness.C": Key(float),
    "harness.eps": Key(float),
    "harness.support_radius": Key(float),
    "harness.max_fraction": Key(float),
    "harness.uniformity_alpha": Key(float),
    "audit.trials": Key(int, "--trials"),
    "audit.kinds": Key(_names, "--kinds", AUDIT_KINDS),
    "audit.slack": Key(float),
}

_SCALAR = {float: RunConfig.get_float, int: RunConfig.get_int,
           str: RunConfig.get_str}

# name -> (body, {key: default}); filled by @_command in parser order
COMMANDS = {}


def _command(name, defaults):
    """Register a subcommand body(cfg, values) taking seed and the keys of
    defaults."""
    def register(body):
        COMMANDS[name] = (body, {"seed": None, **defaults})
        return body
    return register


def _value(cfg, key):
    """A given key's typed value, checked against its allowed values."""
    spec = KEYS[key]
    if spec.type in _SCALAR:
        value = _SCALAR[spec.type](cfg, key)
    else:
        try:
            value = spec.type(cfg.get(key))
        except ValueError:
            raise ConfigError("config key %r: expected comma-separated "
                              "numbers, got %r" % (key, cfg.get(key)))
    for item in value if isinstance(value, list) else [value]:
        if spec.choices is not None and item not in spec.choices:
            raise ConfigError("unknown %s %r (%s takes %s)"
                              % (key.replace(".", " ").rstrip("s"), item,
                                 key, ", ".join(spec.choices)))
    return value


def _load_config(args, command):
    """The config (file, then --set, then flags) and the command's typed
    values with defaults filled in.  The config holds only the values
    given, so the manifest and its hash record what the run was asked."""
    defaults = COMMANDS[command][1]
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = dict(args.set or [])
    overrides.update((k, getattr(args, k)) for k in defaults
                     if getattr(args, k, None) is not None)
    cfg = cfg.merged(overrides)
    cfg.validate(defaults)
    values = {k: _value(cfg, k) if k in cfg.values else d
              for k, d in defaults.items()}
    if values["seed"] is None:
        raw = os.environ.get("WICKWAVES_SEED", "20260823")
        try:
            values["seed"] = int(raw)
        except ValueError:
            raise ConfigError("environment variable WICKWAVES_SEED must be "
                              "an integer, got %r" % raw)
    return cfg, values


def _grid(v):
    """The torus grid; grid.M defaults to the least even fast transform
    length of at least 4*ceil(K*L) + 2."""
    L, M, K = v["grid.L"], v["grid.M"], v["grid.K"]
    if M is None:
        M = int(sfft.next_fast_len(4 * int(math.ceil(K * L)) + 2))
        while M % 2:
            M = int(sfft.next_fast_len(M + 1))
    return TorusGrid(L, M, K)


# ---------------------------------------------------------------------------
# Subcommand bodies (each returns the exit code)

@_command("wick-constants", {"grid.L": 1.0, "grid.K": 1.0, "measure.m": 1.0,
                             "out": None})
def _cmd_wick_constants(cfg, v):
    lat = wick_constant_lattice(v["grid.L"], v["grid.K"], v["measure.m"])
    cont = wick_constant_continuum(v["grid.K"], v["measure.m"])
    print("lattice = %s" % fmt_float(lat))
    print("continuum = %s" % fmt_float(cont))
    print("difference = %s" % fmt_float(lat - cont))
    if v["out"]:
        write_json(os.path.join(v["out"], "wick_constants.json"),
                   {"manifest": make_manifest(cfg, v["seed"]),
                    "lattice": lat, "continuum": cont,
                    "difference": lat - cont})
    return 0


@_command("sample-gff", {"grid.L": 1.0, "grid.M": None, "grid.K": 2.0,
                         "measure.m": 1.0, "n": 16, "out": "."})
def _cmd_sample_gff(cfg, v):
    grid = _grid(v)
    m, n = v["measure.m"], v["n"]
    c = sample_gff_coeffs(grid, m, RngStream(v["seed"], 0), size=n)
    sq = grid.volume * np.sum(np.abs(c) ** 2, axis=(-2, -1))
    k = np.arange(-grid.kmax, grid.kmax + 1)
    rows = [(int(s), int(k[a]), int(k[b]), float(c[s, a, b].real),
             float(c[s, a, b].imag)) for s, a, b in zip(*np.nonzero(c))]
    with OutputSet() as outs:
        outs.json(os.path.join(v["out"], "gff_manifest.json"),
                  {"manifest": make_manifest(cfg, v["seed"]),
                   "grid": {"L": grid.L, "M": grid.M, "K": grid.K},
                   "n": n, "m": m,
                   "l2_squared": {"mean": float(sq.mean()),
                                  "var": float(sq.var())}})
        outs.csv(os.path.join(v["out"], "gff_coeffs.csv"),
                 ("sample", "k1", "k2", "re", "im"), rows)
    print("wrote %d samples (config %s)" % (n, cfg.config_hash()))
    return 0


@_command("sample-phi4", {
    "grid.L": 4.0, "grid.M": None, "grid.K": 2.0, "measure.m": 1.0,
    "measure.lambda": 1.0, "measure.quartic_coeff": None,
    "measure.wick_a": None, "measure.field_type": REAL_FIELD,
    "sampler.kind": "hmc", "sampler.dt": None, "sampler.burn_in": None,
    "sampler.thinning": None, "sampler.batch": None, "n": 64, "out": "."})
def _cmd_sample_phi4(cfg, v):
    grid = _grid(v)
    spec = MeasureSpec(grid, v["measure.m"], v["measure.lambda"],
                       quartic_coeff=v["measure.quartic_coeff"],
                       wick_a=v["measure.wick_a"],
                       field_type=v["measure.field_type"])
    n = v["n"]
    samples, manifest = run_chain(
        spec, v["sampler.kind"], n, RngStream(v["seed"], 0),
        dt=v["sampler.dt"], burn_in=v["sampler.burn_in"],
        thinning=v["sampler.thinning"], batch=v["sampler.batch"])
    sq = grid.volume * np.sum(np.abs(samples) ** 2, axis=(-2, -1))
    w = quartic_integral(spec, samples)
    with OutputSet() as outs:
        outs.json(os.path.join(v["out"], "phi4_manifest.json"),
                  {"manifest": make_manifest(cfg, v["seed"], extra=manifest),
                   "l2_squared": {"mean": float(sq.mean()),
                                  "var": float(sq.var())},
                   "quartic": {"mean": float(w.mean()),
                               "var": float(w.var())}})
        outs.csv(os.path.join(v["out"], "phi4_observables.csv"),
                 ("sample", "l2_squared", "quartic"),
                 [(i, float(sq[i]), float(w[i])) for i in range(n)])
    print("sampled %d states, acceptance %s (config %s)"
          % (n, fmt_float(manifest.get("acceptance_rate", 1.0)),
             cfg.config_hash()))
    return 0


def _evolve(v, flow, config):
    """Evolve the init.* state by the flow module to flow.T, recording at
    n_records - 1 evenly spaced times after 0; returns the grid, the
    initial state and the records."""
    grid, amp, cplx = _grid(v), v["init.amplitude"], flow is nls_mod
    if v["init.modes"] == "gff":
        sample = sample_complex_gff_coeffs if cplx else sample_gff_coeffs
        u = amp * sample(grid, 1.0, RngStream(v["seed"], 0))
    else:
        k1, k2 = v["init.k1"], v["init.k2"]
        if max(abs(k1), abs(k2)) > grid.kmax \
                or not grid.ball_mask()[grid.kmax + k1, grid.kmax + k2]:
            raise ConfigError("init.k1, init.k2 = %d, %d: the mode lies "
                              "outside the ball |n| <= K" % (k1, k2))
        u = np.zeros((grid.nk, grid.nk), dtype=np.complex128)
        u[grid.kmax + k1, grid.kmax + k2] = amp if cplx else amp / 2.0
        if not cplx:
            u[grid.kmax - k1, grid.kmax - k2] = amp / 2.0
    state = (nls_mod.NlsState(grid, u) if cplx
             else nlw_mod.WaveState(grid, u, np.zeros_like(u)))
    if not 0 <= v["flow.T"] < math.inf:     # before linspace warns on it
        raise ConfigError("flow.T = %r: t_final must be finite and >= 0"
                          % v["flow.T"])
    times = np.linspace(0.0, v["flow.T"], max(v["n_records"], 2))[1:]
    _, recs = flow.evolve(state, config, v["flow.T"], record_times=list(times))
    return grid, state, recs


_FLOW_KEYS = {
    "grid.L": 4.0, "grid.M": None, "grid.K": 2.0, "flow.m": 1.0,
    "flow.lambda": 0.0, "flow.dt": 0.01, "flow.wick_a": None, "flow.T": 1.0,
    "init.modes": "gff", "init.k1": 1, "init.k2": 0, "init.amplitude": 1.0,
    "n_records": 21, "out": "."}


@_command("evolve-nlw", _FLOW_KEYS)
def _cmd_evolve_nlw(cfg, v):
    ncfg = nlw_mod.NlwConfig(v["flow.m"], v["flow.lambda"], v["flow.dt"],
                             v["flow.wick_a"])
    grid, state, recs = _evolve(v, nlw_mod, ncfg)
    i1, i2 = grid.kmax + v["init.k1"], grid.kmax + v["init.k2"]
    j1, j2 = grid.kmax - v["init.k1"], grid.kmax - v["init.k2"]
    h0 = float(nlw_mod.hamiltonian(state, ncfg))
    rows = []
    for t, st in [(0.0, state)] + recs:
        h = float(nlw_mod.hamiltonian(st, ncfg))
        mode = float(st.u[i1, i2].real + st.u[j1, j2].real)
        rows.append((float(t), mode, h, abs(h - h0) / max(abs(h0), 1e-300)))
    with OutputSet() as outs:
        outs.csv(os.path.join(v["out"], "nlw_trajectory.csv"),
                 ("t", "mode_amplitude", "hamiltonian", "rel_energy_drift"),
                 rows)
        outs.json(os.path.join(v["out"], "nlw_manifest.json"),
                  {"manifest": make_manifest(cfg, v["seed"]),
                   "grid": {"L": grid.L, "M": grid.M, "K": grid.K},
                   "flow": {"m": ncfg.m, "lambda": ncfg.lam, "dt": ncfg.dt,
                            "T": v["flow.T"]}})
    print("evolved to T=%s, max |dH|/H = %s (config %s)"
          % (fmt_float(v["flow.T"]), fmt_float(max(r[3] for r in rows)),
             cfg.config_hash()))
    return 0


@_command("evolve-nls", {**_FLOW_KEYS,
                         "flow.substep": nls_mod.PHASE_SUBSTEP})
def _cmd_evolve_nls(cfg, v):
    ncfg = nls_mod.NlsConfig(v["flow.m"], v["flow.lambda"], v["flow.dt"],
                             v["flow.wick_a"], substep=v["flow.substep"])
    grid, state, recs = _evolve(v, nls_mod, ncfg)
    m0 = float(nls_mod.mass(state))
    rows = []
    for t, st in [(0.0, state)] + recs:
        ms = float(nls_mod.mass(st))
        rows.append((float(t), ms, abs(ms - m0) / max(m0, 1e-300)))
    with OutputSet() as outs:
        outs.csv(os.path.join(v["out"], "nls_trajectory.csv"),
                 ("t", "mass", "rel_mass_drift"), rows)
        outs.json(os.path.join(v["out"], "nls_manifest.json"),
                  {"manifest": make_manifest(cfg, v["seed"]),
                   "grid": {"L": grid.L, "M": grid.M, "K": grid.K},
                   "flow": {"m": ncfg.m, "lambda": ncfg.lam, "dt": ncfg.dt,
                            "T": v["flow.T"], "substep": ncfg.substep}})
    print("evolved to T=%s, max mass drift = %s (config %s)"
          % (fmt_float(v["flow.T"]), fmt_float(max(r[2] for r in rows)),
             cfg.config_hash()))
    return 0


@_command("besov-norm", {
    "grid.L": 1.0, "grid.M": None, "grid.K": 2.0, "measure.m": 1.0,
    "besov.s": -0.1, "besov.p": 2.0, "besov.r": 2.0, "weight.kind": "flat",
    "weight.alpha": 3.0, "n": 8, "out": None})
def _cmd_besov_norm(cfg, v):
    grid = _grid(v)
    params = BesovParams(v["besov.s"], v["besov.p"], v["besov.r"])
    weight = (WeightSpec() if v["weight.kind"] == "flat"
              else WeightSpec(v["weight.alpha"], POLY))
    c = sample_gff_coeffs(grid, v["measure.m"], RngStream(v["seed"], 0),
                          size=v["n"])
    norms = np.atleast_1d(besov_norm_array(grid, c, params, weight))
    for i, x in enumerate(norms):
        print("sample %d: %s" % (i, fmt_float(x)))
    if v["out"]:
        write_csv(os.path.join(v["out"], "besov_norms.csv"),
                  ("sample", "norm"),
                  [(i, float(x)) for i, x in enumerate(norms)])
    return 0


@_command("invariance", {
    "grid.L": 4.0, "grid.M": None, "grid.K": None, "measure.m": 1.0,
    "measure.lambda": 1.0, "measure.quartic_coeff": None, "flow.kind": "nlw",
    "flow.dt": 0.01, "flow.T": 1.0, "harness.n": 2000,
    "harness.support_radius": None, "harness.max_fraction": 0.15,
    "harness.uniformity_alpha": 0.005, "sampler.burn_in": None,
    "sampler.thinning": None, "out": "."})
def _cmd_invariance(cfg, v):
    flow = v["flow.kind"]
    if v["grid.K"] is None:         # 8, or 2 for the linear flow
        v["grid.K"] = 2.0 if flow == "linear" else 8.0
    report = invariance_experiment(
        _grid(v), flow, v["flow.T"], v["harness.n"],
        RngStream(v["seed"], 0), m=v["measure.m"], lam=v["measure.lambda"],
        dt=v["flow.dt"], quartic_coeff=v["measure.quartic_coeff"],
        support_radius=v["harness.support_radius"],
        sampler_opts={"burn_in": v["sampler.burn_in"],
                      "thinning": v["sampler.thinning"]})
    passed = bool(report.passed(v["harness.max_fraction"],
                                v["harness.uniformity_alpha"]))
    with OutputSet() as outs:
        outs.json(os.path.join(v["out"], "invariance_report.json"),
                  {"manifest": make_manifest(cfg, v["seed"],
                                             extra=report.manifest),
                   "report": {
                       "fraction_below_001": report.fraction_below_001,
                       "uniformity_stat": report.uniformity_stat,
                       "uniformity_p": report.uniformity_p,
                       "energy_distance": report.energy_distance,
                       "passed": passed,
                   },
                   "observables": report.observables})
        outs.csv(os.path.join(v["out"], "invariance_observables.csv"),
                 ("name", "kind", "ks_stat", "p_value"),
                 [(r["name"], r["kind"], float(r["ks_stat"]),
                   float(r["p_value"])) for r in report.observables])
    print("fraction p<0.01: %s, uniformity p: %s -> %s (config %s)"
          % (fmt_float(report.fraction_below_001),
             fmt_float(report.uniformity_p), "PASS" if passed else "FAIL",
             cfg.config_hash()))
    if not passed:
        raise StatisticalGateError("invariance gate failed")
    return 0


@_command("volume-study", {
    "grid.K": 2.0, "measure.m": 1.0, "measure.lambda": 1.0, "flow.dt": 0.01,
    "flow.T": 0.5, "harness.n": 400, "harness.L_list": (4.0, 8.0, 16.0),
    "harness.D": None, "sampler.burn_in": None, "sampler.thinning": None,
    "out": "."})
def _cmd_volume_study(cfg, v):
    report = volume_stabilization_study(
        v["harness.L_list"], v["grid.K"], v["flow.T"], v["harness.n"],
        RngStream(v["seed"], 0), m=v["measure.m"], lam=v["measure.lambda"],
        D=v["harness.D"], dt=v["flow.dt"],
        sampler_opts={"burn_in": v["sampler.burn_in"],
                      "thinning": v["sampler.thinning"]})
    payload = {"manifest": make_manifest(cfg, v["seed"]),
               "L_list": report["L_list"], "D": report["D"], "T": report["T"]}
    rows = []
    ok = True
    for key in ("t0", "tT"):
        sec = report[key]
        payload[key] = {
            "energy_distances": sec["energy_distances"],
            "monotone_decreasing": bool(sec["monotone_decreasing"]),
            "mann_kendall": sec["mann_kendall"],
        }
        ok = ok and sec["monotone_decreasing"] \
            and sec["mann_kendall"]["trend"] != "increasing"
        for (a, b), d in zip(report["pairs"], sec["energy_distances"]):
            rows.append((key, a, b, float(d)))
    payload["passed"] = bool(ok)
    with OutputSet() as outs:
        outs.json(os.path.join(v["out"], "volume_study.json"), payload)
        outs.csv(os.path.join(v["out"], "volume_study.csv"),
                 ("ensemble", "L_small", "L_large", "energy_distance"), rows)
    print("stabilization %s (config %s)"
          % ("PASS" if ok else "FAIL", cfg.config_hash()))
    if not ok:
        raise StatisticalGateError("volume stabilization gate failed")
    return 0


@_command("blowup-table", {
    "grid.L": 4.0, "grid.M": None, "grid.K": 2.0, "measure.m": 1.0,
    "measure.lambda": 1.0, "harness.n": 256, "harness.T": 10.0,
    "harness.M_grid": None, "harness.C": 1.0, "harness.eps": 0.1,
    "weight.alpha": 3.0, "out": "."})
def _cmd_blowup_table(cfg, v):
    table = blowup_bookkeeping(
        _grid(v), v["harness.M_grid"], v["harness.T"], v["harness.n"],
        RngStream(v["seed"], 0), m=v["measure.m"], lam=v["measure.lambda"],
        C=v["harness.C"], eps=v["harness.eps"],
        weight_alpha=v["weight.alpha"])
    with OutputSet() as outs:
        outs.csv(os.path.join(v["out"], "blowup_table.csv"),
                 ("M", "tail", "tau", "iterations", "bound"),
                 [(r["M"], r["tail"], r["tau"], r["iterations"], r["bound"])
                  for r in table["rows"]])
        outs.json(os.path.join(v["out"], "blowup_manifest.json"),
                  {"manifest": make_manifest(cfg, v["seed"]),
                   "rows": table["rows"], "T": table["T"], "C": table["C"],
                   "eps": table["eps"]})
    for r in table["rows"]:
        print("M=%s  tail=%s  tau=%s  iters=%d  bound=%s"
              % (fmt_float(r["M"]), fmt_float(r["tail"]), fmt_float(r["tau"]),
                 r["iterations"], fmt_float(r["bound"])))
    return 0


@_command("audit-inequalities", {"audit.trials": 1000,
                                 "audit.kinds": AUDIT_KINDS,
                                 "audit.slack": 1.05, "out": None})
def _cmd_audit_inequalities(cfg, v):
    trials = v["audit.trials"]
    rows = []
    for i, kind in enumerate(v["audit.kinds"]):
        report = inequality_audit(kind, trials, v["seed"] + i)
        ok, bound = check_audit(report, slack=v["audit.slack"])
        rows.append((kind, trials, float(report.max_ratio),
                     float(bound), int(not ok)))
        print("%-22s max ratio %s / bound %s -> %s"
              % (kind, fmt_float(report.max_ratio),
                 fmt_float(bound), "ok" if ok else "VIOLATION"))
    if v["out"]:
        write_csv(os.path.join(v["out"], "audit_report.csv"),
                  ("kind", "trials", "max_ratio", "calibrated", "violation"),
                  rows)
    violations = sum(r[-1] for r in rows)
    if violations:
        raise NumericalGateError("%d audit kind(s) violated calibration"
                                 % violations)
    return 0


# ---------------------------------------------------------------------------

def _key_value(pair):
    if "=" not in pair:
        raise argparse.ArgumentTypeError("expected key=value, got %r" % pair)
    k, _, v = pair.partition("=")
    return (k.strip(), v.strip())


def build_parser():
    ap = argparse.ArgumentParser(
        prog="wickwaves",
        description="Torus phi^4 measures, Wick-ordered wave/Schrodinger "
                    "flows, and invariance experiments.")
    subs = ap.add_subparsers(dest="command", required=True)
    for name, (_, defaults) in COMMANDS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="flat key = value config file")
        sub.add_argument("--set", action="append", type=_key_value,
                         metavar="KEY=VALUE",
                         help="override any config key (repeatable)")
        for key in defaults:
            spec = KEYS[key]
            if spec.flag:
                # a list flag is kept as given and read with the config
                scalar = spec.type in _SCALAR
                sub.add_argument(spec.flag, dest=key,
                                 type=spec.type if scalar else None,
                                 choices=spec.choices if scalar else None)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    body = COMMANDS[args.command][0]
    try:
        return body(*_load_config(args, args.command))
    except ValueError as exc:       # a ConfigError or a library's check
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalGateError as exc:
        print("numerical gate failure: %s" % exc, file=sys.stderr)
        return 3
    except StatisticalGateError as exc:
        print("statistical gate failure: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
