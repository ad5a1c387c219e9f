"""Command-line entry points.

Every subcommand reads an optional flat config file (key = value with
dotted namespaces), applies flag overrides on top, seeds reproducibly,
and writes JSON/CSV artifacts carrying the config hash.  Exit codes:
0 success, 2 config error, 3 numerical gate failure, 4 statistical gate
failure.  WICKWAVES_SEED overrides the default seed.  The transforms run
on every CPU the process may use, so CPU affinity (e.g. ``taskset``) sets
the cores a command uses.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np
import scipy.fft as sfft

from .besov import BesovParams, WeightSpec, inequality_audit, check_audit
from .gaussian import (
    RngStream,
    sample_gff_coeffs,
    wick_constant_continuum,
    wick_constant_lattice,
)
from .io import (
    ConfigError,
    NumericalGateError,
    OutputSet,
    RunConfig,
    StatisticalGateError,
    fmt_float,
    make_manifest,
)
from .torus import TorusGrid
from . import nls as nls_mod
from . import nlw as nlw_mod
from .besov import besov_norm_array
from .phi4 import MeasureSpec, run_chain, quartic_integral


GRID_KEYS = ("grid.L", "grid.M", "grid.K")
COMMON_KEYS = ("seed", "out")

KNOWN_KEYS = {
    "wick-constants": ("grid.L", "grid.K", "measure.m") + COMMON_KEYS,
    "sample-gff": GRID_KEYS + ("measure.m", "n") + COMMON_KEYS,
    "sample-phi4": GRID_KEYS + (
        "measure.m", "measure.lambda", "measure.quartic_coeff",
        "measure.wick_a", "measure.field_type", "sampler.kind", "sampler.dt",
        "sampler.burn_in", "sampler.thinning", "sampler.batch", "n",
    ) + COMMON_KEYS,
    "evolve-nlw": GRID_KEYS + (
        "flow.m", "flow.lambda", "flow.dt", "flow.wick_a", "flow.T",
        "init.modes", "init.k1", "init.k2", "init.amplitude", "n_records",
    ) + COMMON_KEYS,
    "evolve-nls": GRID_KEYS + (
        "flow.m", "flow.lambda", "flow.dt", "flow.wick_a", "flow.T",
        "flow.substep", "init.modes", "init.k1", "init.k2",
        "init.amplitude", "n_records",
    ) + COMMON_KEYS,
    "besov-norm": GRID_KEYS + (
        "measure.m", "besov.s", "besov.p", "besov.r", "weight.alpha",
        "weight.kind", "n",
    ) + COMMON_KEYS,
    "invariance": GRID_KEYS + (
        "measure.m", "measure.lambda", "measure.quartic_coeff",
        "flow.kind", "flow.dt", "flow.T", "harness.n",
        "harness.support_radius", "harness.max_fraction",
        "harness.uniformity_alpha", "sampler.burn_in", "sampler.thinning",
    ) + COMMON_KEYS,
    "volume-study": (
        "grid.K", "measure.m", "measure.lambda", "flow.dt", "flow.T",
        "harness.n", "harness.L_list", "harness.D",
        "sampler.burn_in", "sampler.thinning",
    ) + COMMON_KEYS,
    "blowup-table": GRID_KEYS + (
        "measure.m", "measure.lambda", "harness.n", "harness.T",
        "harness.M_grid", "harness.C", "harness.eps", "weight.alpha",
    ) + COMMON_KEYS,
    "audit-inequalities": ("audit.trials", "audit.kinds",
                           "audit.slack") + COMMON_KEYS,
}


def _env_int(name):
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError("environment variable %s must be an integer, "
                          "got %r" % (name, raw))


def _load_config(args, command):
    if args.config:
        cfg = RunConfig.from_file(args.config)
    else:
        cfg = RunConfig()
    overrides = {}
    for key, value in args.set or []:
        overrides[key] = value
    for flag, key in getattr(args, "_flag_keys", {}).items():
        v = getattr(args, flag, None)
        if v is not None:
            overrides[key] = v
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    cfg = cfg.merged(overrides)
    cfg.validate(KNOWN_KEYS[command])
    return cfg


def _seed(cfg):
    env = _env_int("WICKWAVES_SEED")
    return cfg.get_int("seed", env if env is not None else 20260823)


def _outdir(cfg):
    return cfg.get_str("out", ".")


def _grid(cfg, default_L=4.0, default_M=None, default_K=2.0):
    L = cfg.get_float("grid.L", default_L)
    K = cfg.get_float("grid.K", default_K)
    if default_M is None:
        base = 4 * int(math.ceil(K * L)) + 2
        default_M = int(sfft.next_fast_len(base))
        while default_M % 2:
            default_M = int(sfft.next_fast_len(default_M + 1))
    M = cfg.get_int("grid.M", default_M)
    try:
        return TorusGrid(L, M, K)
    except ValueError as exc:
        raise ConfigError(str(exc))


# ---------------------------------------------------------------------------
# Subcommand bodies (each returns the exit code)

def _cmd_wick_constants(args):
    cfg = _load_config(args, "wick-constants")
    L = cfg.get_float("grid.L", 1.0)
    K = cfg.get_float("grid.K", 1.0)
    m = cfg.get_float("measure.m", 1.0)
    lat = wick_constant_lattice(L, K, m)
    cont = wick_constant_continuum(K, m)
    print("lattice = %s" % fmt_float(lat))
    print("continuum = %s" % fmt_float(cont))
    print("difference = %s" % fmt_float(lat - cont))
    out = cfg.get("out")
    if out:
        outs = OutputSet()
        outs.json(os.path.join(out, "wick_constants.json"),
                  {"manifest": make_manifest(cfg, _seed(cfg)),
                   "lattice": lat, "continuum": cont,
                   "difference": lat - cont})
    return 0


def _cmd_sample_gff(args):
    cfg = _load_config(args, "sample-gff")
    grid = _grid(cfg, default_L=1.0, default_K=2.0)
    m = cfg.get_float("measure.m", 1.0)
    n = cfg.get_int("n", 16)
    seed = _seed(cfg)
    c = sample_gff_coeffs(grid, m, RngStream(seed, 0), size=n)
    sq = grid.volume * np.sum(np.abs(c) ** 2, axis=(-2, -1))
    outs = OutputSet()
    try:
        outdir = _outdir(cfg)
        outs.json(os.path.join(outdir, "gff_manifest.json"),
                  {"manifest": make_manifest(cfg, seed),
                   "grid": {"L": grid.L, "M": grid.M, "K": grid.K},
                   "n": n, "m": m,
                   "l2_squared": {"mean": float(sq.mean()),
                                  "var": float(sq.var())}})
        k = np.arange(-grid.kmax, grid.kmax + 1)
        rows = []
        for s in range(n):
            for i1, k1 in enumerate(k):
                for i2, k2 in enumerate(k):
                    v = c[s, i1, i2]
                    if v != 0:
                        rows.append((s, int(k1), int(k2),
                                     float(v.real), float(v.imag)))
        outs.csv(os.path.join(outdir, "gff_coeffs.csv"),
                 ("sample", "k1", "k2", "re", "im"), rows)
    except BaseException:
        outs.discard()
        raise
    print("wrote %d samples (config %s)" % (n, cfg.config_hash()))
    return 0


def _cmd_sample_phi4(args):
    cfg = _load_config(args, "sample-phi4")
    grid = _grid(cfg)
    spec = _measure_spec(cfg, grid)
    n = cfg.get_int("n", 64)
    seed = _seed(cfg)
    sampler = cfg.get_str("sampler.kind", "hmc")
    opts = {}
    for key, name in (("sampler.dt", "dt"), ("sampler.batch", "batch"),
                      ("sampler.burn_in", "burn_in"),
                      ("sampler.thinning", "thinning")):
        if cfg.get(key) is not None:
            opts[name] = (cfg.get_float(key) if name == "dt"
                          else cfg.get_int(key))
    samples, manifest = run_chain(spec, sampler, n, RngStream(seed, 0),
                                  **opts)
    sq = grid.volume * np.sum(np.abs(samples) ** 2, axis=(-2, -1))
    w = quartic_integral(spec, samples)
    outs = OutputSet()
    try:
        outdir = _outdir(cfg)
        outs.json(os.path.join(outdir, "phi4_manifest.json"),
                  {"manifest": make_manifest(cfg, seed, extra=manifest),
                   "l2_squared": {"mean": float(sq.mean()),
                                  "var": float(sq.var())},
                   "quartic": {"mean": float(w.mean()),
                               "var": float(w.var())}})
        outs.csv(os.path.join(outdir, "phi4_observables.csv"),
                 ("sample", "l2_squared", "quartic"),
                 [(i, float(sq[i]), float(w[i])) for i in range(n)])
    except BaseException:
        outs.discard()
        raise
    print("sampled %d states, acceptance %s (config %s)"
          % (n, fmt_float(manifest.get("acceptance_rate", 1.0)),
             cfg.config_hash()))
    return 0


def _measure_spec(cfg, grid):
    kwargs = {}
    if cfg.get("measure.quartic_coeff") is not None:
        kwargs["quartic_coeff"] = cfg.get_float("measure.quartic_coeff")
    if cfg.get("measure.wick_a") is not None:
        kwargs["wick_a"] = cfg.get_float("measure.wick_a")
    return MeasureSpec(grid, cfg.get_float("measure.m", 1.0),
                       cfg.get_float("measure.lambda", 1.0),
                       field_type=cfg.get_str("measure.field_type", "real"),
                       **kwargs)


def _initial_state(cfg, grid, seed, complex_field=False):
    modes = cfg.get_str("init.modes", "gff")
    amp = cfg.get_float("init.amplitude", 1.0)
    if modes == "single":
        k1 = cfg.get_int("init.k1", 1)
        k2 = cfg.get_int("init.k2", 0)
        c = np.zeros((grid.nk, grid.nk), dtype=np.complex128)
        c[grid.kmax + k1, grid.kmax + k2] = amp / 2.0
        if complex_field:
            c[grid.kmax + k1, grid.kmax + k2] = amp
        else:
            c[grid.kmax - k1, grid.kmax - k2] = amp / 2.0
        u = c
    elif modes == "gff":
        if complex_field:
            from .gaussian import sample_complex_gff_coeffs
            u = sample_complex_gff_coeffs(grid, 1.0, RngStream(seed, 0))
        else:
            u = sample_gff_coeffs(grid, 1.0, RngStream(seed, 0))
        u = amp * u
    else:
        raise ConfigError("init.modes must be 'single' or 'gff'")
    return u


def _flow_config(make, *args, **kwargs):
    """A flow config; its ValueError is a config error (exit 2)."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _flow_T(cfg):
    T = cfg.get_float("flow.T", 1.0)
    if not T >= 0:
        raise ConfigError("flow.T must be >= 0, got %s" % T)
    return T


def _record_times(T, n_records):
    return list(np.linspace(0.0, T, max(n_records, 2))[1:])


def _cmd_evolve_nlw(args):
    cfg = _load_config(args, "evolve-nlw")
    grid = _grid(cfg)
    seed = _seed(cfg)
    m = cfg.get_float("flow.m", 1.0)
    lam = cfg.get_float("flow.lambda", 0.0)
    dt = cfg.get_float("flow.dt", 0.01)
    T = _flow_T(cfg)
    wick_a = (cfg.get_float("flow.wick_a")
              if cfg.get("flow.wick_a") is not None else None)
    ncfg = _flow_config(nlw_mod.NlwConfig, m, lam, dt, wick_a)
    u = _initial_state(cfg, grid, seed)
    ut = np.zeros_like(u)
    state = nlw_mod.WaveState(grid, u, ut)
    times = _record_times(T, cfg.get_int("n_records", 21))
    h0 = float(nlw_mod.hamiltonian(state, ncfg))
    _, recs = nlw_mod.evolve(state, ncfg, T, record_times=times)
    k1 = cfg.get_int("init.k1", 1)
    k2 = cfg.get_int("init.k2", 0)
    rows = [(0.0, float(state.u[grid.kmax + k1, grid.kmax + k2].real
                        + state.u[grid.kmax - k1, grid.kmax - k2].real),
             h0, 0.0)]
    for t, st in recs:
        h = float(nlw_mod.hamiltonian(st, ncfg))
        mode = float(st.u[grid.kmax + k1, grid.kmax + k2].real
                     + st.u[grid.kmax - k1, grid.kmax - k2].real)
        rows.append((float(t), mode, h, abs(h - h0) / max(abs(h0), 1e-300)))
    outs = OutputSet()
    try:
        outdir = _outdir(cfg)
        outs.csv(os.path.join(outdir, "nlw_trajectory.csv"),
                 ("t", "mode_amplitude", "hamiltonian", "rel_energy_drift"),
                 rows)
        outs.json(os.path.join(outdir, "nlw_manifest.json"),
                  {"manifest": make_manifest(cfg, seed),
                   "grid": {"L": grid.L, "M": grid.M, "K": grid.K},
                   "flow": {"m": m, "lambda": lam, "dt": dt, "T": T}})
    except BaseException:
        outs.discard()
        raise
    print("evolved to T=%s, max |dH|/H = %s (config %s)"
          % (fmt_float(T), fmt_float(max(r[3] for r in rows)),
             cfg.config_hash()))
    return 0


def _cmd_evolve_nls(args):
    cfg = _load_config(args, "evolve-nls")
    grid = _grid(cfg)
    seed = _seed(cfg)
    ncfg = _flow_config(
        nls_mod.NlsConfig,
        cfg.get_float("flow.m", 1.0), cfg.get_float("flow.lambda", 0.0),
        cfg.get_float("flow.dt", 0.01),
        (cfg.get_float("flow.wick_a")
         if cfg.get("flow.wick_a") is not None else None),
        substep=cfg.get_str("flow.substep", "phase"))
    T = _flow_T(cfg)
    u = _initial_state(cfg, grid, seed, complex_field=True)
    state = nls_mod.NlsState(grid, u)
    m0 = float(nls_mod.mass(state))
    times = _record_times(T, cfg.get_int("n_records", 21))
    _, recs = nls_mod.evolve(state, ncfg, T, record_times=times)
    rows = [(0.0, m0, 0.0)]
    for t, st in recs:
        ms = float(nls_mod.mass(st))
        rows.append((float(t), ms, abs(ms - m0) / max(m0, 1e-300)))
    outs = OutputSet()
    try:
        outdir = _outdir(cfg)
        outs.csv(os.path.join(outdir, "nls_trajectory.csv"),
                 ("t", "mass", "rel_mass_drift"), rows)
        outs.json(os.path.join(outdir, "nls_manifest.json"),
                  {"manifest": make_manifest(cfg, seed),
                   "grid": {"L": grid.L, "M": grid.M, "K": grid.K},
                   "flow": {"m": ncfg.m, "lambda": ncfg.lam, "dt": ncfg.dt,
                            "T": T, "substep": ncfg.substep}})
    except BaseException:
        outs.discard()
        raise
    print("evolved to T=%s, max mass drift = %s (config %s)"
          % (fmt_float(T), fmt_float(max(r[2] for r in rows)),
             cfg.config_hash()))
    return 0


def _cmd_besov_norm(args):
    cfg = _load_config(args, "besov-norm")
    grid = _grid(cfg, default_L=1.0)
    seed = _seed(cfg)
    n = cfg.get_int("n", 8)
    params = BesovParams(cfg.get_float("besov.s", -0.1),
                         cfg.get_float("besov.p", 2.0),
                         cfg.get_float("besov.r", 2.0))
    kind = cfg.get_str("weight.kind", "flat")
    weight = (WeightSpec() if kind == "flat"
              else WeightSpec(cfg.get_float("weight.alpha", 3.0),
                              "polynomial_decay"))
    c = sample_gff_coeffs(grid, cfg.get_float("measure.m", 1.0),
                          RngStream(seed, 0), size=n)
    norms = besov_norm_array(grid, c, params, weight)
    for i, v in enumerate(np.atleast_1d(norms)):
        print("sample %d: %s" % (i, fmt_float(v)))
    out = cfg.get("out")
    if out:
        outs = OutputSet()
        outs.csv(os.path.join(out, "besov_norms.csv"), ("sample", "norm"),
                 [(i, float(v)) for i, v in enumerate(np.atleast_1d(norms))])
    return 0


def _cmd_invariance(args):
    from .harness import invariance_experiment
    cfg = _load_config(args, "invariance")
    flow = cfg.get_str("flow.kind", "nlw")
    lam = cfg.get_float("measure.lambda", 1.0)
    default_K = 8.0 if flow != "linear" else 2.0
    grid = _grid(cfg, default_L=4.0, default_K=default_K)
    seed = _seed(cfg)
    n = cfg.get_int("harness.n", 2000)
    T = cfg.get_float("flow.T", 1.0)
    dt = cfg.get_float("flow.dt", 0.01)
    qc = (cfg.get_float("measure.quartic_coeff")
          if cfg.get("measure.quartic_coeff") is not None else None)
    sampler_opts = {}
    if cfg.get("sampler.burn_in") is not None:
        sampler_opts["burn_in"] = cfg.get_int("sampler.burn_in")
    if cfg.get("sampler.thinning") is not None:
        sampler_opts["thinning"] = cfg.get_int("sampler.thinning")
    sr = (cfg.get_float("harness.support_radius")
          if cfg.get("harness.support_radius") is not None else None)
    report = invariance_experiment(
        grid, flow, T, n, RngStream(seed, 0),
        m=cfg.get_float("measure.m", 1.0), lam=lam, dt=dt,
        quartic_coeff=qc, support_radius=sr,
        sampler_opts=sampler_opts or None)
    max_frac = cfg.get_float("harness.max_fraction", 0.15)
    alpha = cfg.get_float("harness.uniformity_alpha", 0.005)
    outs = OutputSet()
    try:
        outdir = _outdir(cfg)
        payload = {"manifest": make_manifest(cfg, seed,
                                             extra=report.manifest),
                   "report": {
                       "fraction_below_001": report.fraction_below_001,
                       "uniformity_stat": report.uniformity_stat,
                       "uniformity_p": report.uniformity_p,
                       "energy_distance": report.energy_distance,
                       "passed": bool(report.passed(max_frac, alpha)),
                   },
                   "observables": report.observables}
        outs.json(os.path.join(outdir, "invariance_report.json"), payload)
        outs.csv(os.path.join(outdir, "invariance_observables.csv"),
                 ("name", "kind", "ks_stat", "p_value"),
                 [(r["name"], r["kind"], float(r["ks_stat"]),
                   float(r["p_value"])) for r in report.observables])
    except BaseException:
        outs.discard()
        raise
    print("fraction p<0.01: %s, uniformity p: %s -> %s (config %s)"
          % (fmt_float(report.fraction_below_001),
             fmt_float(report.uniformity_p),
             "PASS" if report.passed(max_frac, alpha) else "FAIL",
             cfg.config_hash()))
    if not report.passed(max_frac, alpha):
        raise StatisticalGateError("invariance gate failed")
    return 0


def _cmd_volume_study(args):
    from .harness import volume_stabilization_study
    cfg = _load_config(args, "volume-study")
    seed = _seed(cfg)
    l_raw = cfg.get_str("harness.L_list", "4,8,16")
    try:
        l_list = [float(s) for s in l_raw.split(",") if s.strip()]
    except ValueError:
        raise ConfigError("harness.L_list must be comma-separated numbers")
    sampler_opts = {}
    if cfg.get("sampler.burn_in") is not None:
        sampler_opts["burn_in"] = cfg.get_int("sampler.burn_in")
    if cfg.get("sampler.thinning") is not None:
        sampler_opts["thinning"] = cfg.get_int("sampler.thinning")
    report = volume_stabilization_study(
        l_list, cfg.get_float("grid.K", 2.0), cfg.get_float("flow.T", 0.5),
        cfg.get_int("harness.n", 400), RngStream(seed, 0),
        m=cfg.get_float("measure.m", 1.0),
        lam=cfg.get_float("measure.lambda", 1.0),
        D=(cfg.get_float("harness.D")
           if cfg.get("harness.D") is not None else None),
        dt=cfg.get_float("flow.dt", 0.01),
        sampler_opts=sampler_opts or None)
    outs = OutputSet()
    ok = True
    try:
        outdir = _outdir(cfg)
        payload = {"manifest": make_manifest(cfg, seed),
                   "L_list": report["L_list"], "D": report["D"],
                   "T": report["T"]}
        rows = []
        for key in ("t0", "tT"):
            sec = report[key]
            payload[key] = {
                "energy_distances": sec["energy_distances"],
                "monotone_decreasing": bool(sec["monotone_decreasing"]),
                "mann_kendall": sec["mann_kendall"],
            }
            ok = ok and sec["monotone_decreasing"] \
                and sec["mann_kendall"]["trend"] != "increasing"
            for (a, b), d in zip(report["pairs"],
                                 sec["energy_distances"]):
                rows.append((key, a, b, float(d)))
        payload["passed"] = bool(ok)
        outs.json(os.path.join(outdir, "volume_study.json"), payload)
        outs.csv(os.path.join(outdir, "volume_study.csv"),
                 ("ensemble", "L_small", "L_large", "energy_distance"), rows)
    except BaseException:
        outs.discard()
        raise
    print("stabilization %s (config %s)"
          % ("PASS" if ok else "FAIL", cfg.config_hash()))
    if not ok:
        raise StatisticalGateError("volume stabilization gate failed")
    return 0


def _cmd_blowup_table(args):
    from .harness import blowup_bookkeeping
    cfg = _load_config(args, "blowup-table")
    grid = _grid(cfg, default_L=4.0, default_K=2.0)
    seed = _seed(cfg)
    m_raw = cfg.get_str("harness.M_grid", "auto")
    if m_raw == "auto":
        m_grid = None
    else:
        try:
            m_grid = [float(s) for s in m_raw.split(",") if s.strip()]
        except ValueError:
            raise ConfigError("harness.M_grid must be comma-separated "
                              "numbers or 'auto'")
    table = blowup_bookkeeping(
        grid, m_grid, cfg.get_float("harness.T", 10.0),
        cfg.get_int("harness.n", 256), RngStream(seed, 0),
        m=cfg.get_float("measure.m", 1.0),
        lam=cfg.get_float("measure.lambda", 1.0),
        C=cfg.get_float("harness.C", 1.0),
        eps=cfg.get_float("harness.eps", 0.1),
        weight_alpha=cfg.get_float("weight.alpha", 3.0))
    outs = OutputSet()
    try:
        outdir = _outdir(cfg)
        outs.csv(os.path.join(outdir, "blowup_table.csv"),
                 ("M", "tail", "tau", "iterations", "bound"),
                 [(r["M"], r["tail"], r["tau"], r["iterations"], r["bound"])
                  for r in table["rows"]])
        outs.json(os.path.join(outdir, "blowup_manifest.json"),
                  {"manifest": make_manifest(cfg, seed),
                   "rows": table["rows"], "T": table["T"], "C": table["C"],
                   "eps": table["eps"]})
    except BaseException:
        outs.discard()
        raise
    for r in table["rows"]:
        print("M=%s  tail=%s  tau=%s  iters=%d  bound=%s"
              % (fmt_float(r["M"]), fmt_float(r["tail"]), fmt_float(r["tau"]),
                 r["iterations"], fmt_float(r["bound"])))
    return 0


def _cmd_audit_inequalities(args):
    from .besov import AUDIT_KINDS
    cfg = _load_config(args, "audit-inequalities")
    seed = _seed(cfg)
    trials = cfg.get_int("audit.trials", 1000)
    kinds_raw = cfg.get_str("audit.kinds", ",".join(AUDIT_KINDS))
    kinds = [s.strip() for s in kinds_raw.split(",") if s.strip()]
    for k in kinds:
        if k not in AUDIT_KINDS:
            raise ConfigError("unknown audit kind %r (choices: %s)"
                              % (k, ", ".join(AUDIT_KINDS)))
    slack = cfg.get_float("audit.slack", 1.05)
    violations = 0
    rows = []
    for i, kind in enumerate(kinds):
        report = inequality_audit(kind, trials, seed + i)
        ok, bound = check_audit(report, slack=slack)
        rows.append((kind, trials, float(report.max_ratio),
                     float(bound), int(not ok)))
        print("%-22s max ratio %s / bound %s -> %s"
              % (kind, fmt_float(report.max_ratio),
                 fmt_float(bound), "ok" if ok else "VIOLATION"))
        violations += int(not ok)
    out = cfg.get("out")
    if out:
        outs = OutputSet()
        outs.csv(os.path.join(out, "audit_report.csv"),
                 ("kind", "trials", "max_ratio", "calibrated", "violation"),
                 rows)
    if violations:
        raise NumericalGateError("%d audit kind(s) violated calibration"
                                 % violations)
    return 0


# ---------------------------------------------------------------------------

COMMANDS = {
    "wick-constants": _cmd_wick_constants,
    "sample-gff": _cmd_sample_gff,
    "sample-phi4": _cmd_sample_phi4,
    "evolve-nlw": _cmd_evolve_nlw,
    "evolve-nls": _cmd_evolve_nls,
    "besov-norm": _cmd_besov_norm,
    "invariance": _cmd_invariance,
    "volume-study": _cmd_volume_study,
    "blowup-table": _cmd_blowup_table,
    "audit-inequalities": _cmd_audit_inequalities,
}


def _key_value(pair):
    if "=" not in pair:
        raise argparse.ArgumentTypeError("expected key=value, got %r" % pair)
    k, _, v = pair.partition("=")
    return (k.strip(), v.strip())


def _add_common(sub):
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--set", action="append", type=_key_value,
                     metavar="KEY=VALUE",
                     help="override any config key (repeatable)")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out", help="output directory")


def _flag(sub, flags, key, **kw):
    dest = flags[-1].lstrip("-").replace("-", "_")
    sub.add_argument(*flags, dest=dest, **kw)
    mapping = dict(sub.get_default("_flag_keys") or {})
    mapping[dest] = key
    sub.set_defaults(_flag_keys=mapping)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="wickwaves",
        description="Torus phi^4 measures, Wick-ordered wave/Schrodinger "
                    "flows, and invariance experiments.")
    subs = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub = subs.add_parser(name)
        sub.set_defaults(_flag_keys={})
        _add_common(sub)
        if name in ("wick-constants", "sample-gff", "sample-phi4",
                    "evolve-nlw", "evolve-nls", "besov-norm", "invariance",
                    "blowup-table"):
            _flag(sub, ["--L"], "grid.L", type=float)
            _flag(sub, ["--K"], "grid.K", type=float)
        if name not in ("wick-constants", "audit-inequalities",
                        "volume-study"):
            _flag(sub, ["--M"], "grid.M", type=int)
        if name == "volume-study":
            _flag(sub, ["--K"], "grid.K", type=float)
            _flag(sub, ["--L-list"], "harness.L_list")
            _flag(sub, ["--T"], "flow.T", type=float)
            _flag(sub, ["--n"], "harness.n", type=int)
        if name in ("wick-constants", "sample-gff", "sample-phi4",
                    "besov-norm", "invariance", "volume-study",
                    "blowup-table"):
            _flag(sub, ["--m"], "measure.m", type=float)
        if name in ("sample-phi4", "invariance", "volume-study",
                    "blowup-table"):
            _flag(sub, ["--lambda"], "measure.lambda", type=float)
        if name in ("evolve-nlw", "evolve-nls"):
            _flag(sub, ["--lambda"], "flow.lambda", type=float)
            _flag(sub, ["--dt"], "flow.dt", type=float)
            _flag(sub, ["--T"], "flow.T", type=float)
            _flag(sub, ["--modes"], "init.modes",
                  choices=["single", "gff"])
        if name == "invariance":
            _flag(sub, ["--flow"], "flow.kind",
                  choices=["nlw", "nls", "linear"])
            _flag(sub, ["--T"], "flow.T", type=float)
            _flag(sub, ["--dt"], "flow.dt", type=float)
            _flag(sub, ["--n"], "harness.n", type=int)
        if name == "sample-phi4":
            _flag(sub, ["--n"], "n", type=int)
            _flag(sub, ["--sampler"], "sampler.kind",
                  choices=["hmc", "mala", "rejection_oracle"])
        if name in ("sample-gff", "besov-norm"):
            _flag(sub, ["--n"], "n", type=int)
        if name == "besov-norm":
            _flag(sub, ["--s"], "besov.s", type=float)
            _flag(sub, ["--p"], "besov.p", type=float)
            _flag(sub, ["--r"], "besov.r", type=float)
        if name == "audit-inequalities":
            _flag(sub, ["--trials"], "audit.trials", type=int)
            _flag(sub, ["--kinds"], "audit.kinds")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
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
