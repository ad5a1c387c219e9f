"""Minor page faults and CPU time of the library's steady-state calls.

On the criterion-6 grid (L=4, M=132, K=8) at batch 64, for the real and
the complex measure (m=1, lambda=1): one action-and-gradient evaluation,
one HMC trajectory (10 leapfrog steps) and one zero-mode move; then, on
real members, one 12-step NLW evolve at dt=0.01 and the two Besov
observables of the NLW flow that need samples (c_minus_eps and b_4_4).
Each call runs once to warm up and then `--reps` times; the script prints
the median and range of the minor page faults and the median user,
system and wall time per call, from getrusage around each call.

    PYTHONPATH=src python scripts/page_faults.py [--reps 5]
"""

import argparse
import resource
import time

import numpy as np

from wickwaves import harness, nlw, phi4
from wickwaves.gaussian import RngStream, sample_white_noise_coeffs
from wickwaves.torus import TorusGrid


def _usage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return np.array([r.ru_minflt, r.ru_utime, r.ru_stime, time.perf_counter()])


def measure(name, call, reps):
    call()
    rows = []
    for _ in range(reps):
        before = _usage()
        call()
        rows.append(_usage() - before)
    rows = np.array(rows)
    faults, user, sys_s, wall = np.median(rows, axis=0)
    print("%-30s faults %7.0f [%6.0f-%6.0f]  user %6.1f ms  sys %5.1f ms"
          "  wall %6.1f ms" % (name, faults, rows[:, 0].min(),
                               rows[:, 0].max(), 1e3 * user, 1e3 * sys_s,
                               1e3 * wall))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    grid = TorusGrid(4.0, 132, 8.0)
    for field in (phi4.REAL_FIELD, phi4.COMPLEX_FIELD):
        spec = phi4.MeasureSpec(grid, 1.0, 1.0, field_type=field)
        state = phi4.init_chain(spec, RngStream(5, 0), batch=64)
        dofs = state.dofs.copy()
        measure(field + " action and gradient",
                lambda: phi4._action_and_gradient(spec, dofs), args.reps)
        measure(field + " HMC trajectory",
                lambda: phi4.hmc_step(state, 0.1), args.reps)
        measure(field + " zero-mode move",
                lambda: phi4.zero_mode_gibbs_step(state), args.reps)
    spec = phi4.MeasureSpec(grid, 1.0, 1.0)
    u = phi4.init_chain(spec, RngStream(5, 1), batch=64).coeffs()
    ut = sample_white_noise_coeffs(grid, RngStream(5, 2), size=64)
    wave = nlw.WaveState(grid, u, ut)
    cfg = nlw.NlwConfig(1.0, 1.0, 0.01, spec.a)
    measure("real NLW evolve, 12 steps",
            lambda: nlw.evolve(wave, cfg, 0.12), args.reps)
    ctx = harness.FlowContext(grid, 1.0, 1.0, spec.a, "nlw")
    for ob in harness.default_observables(ctx):
        if ob.name in ("c_minus_eps", "b_4_4"):
            measure("real Besov " + ob.name,
                    lambda: ob.evaluate(ctx, u, ut), args.reps)
    print("peak RSS %.1f MB"
          % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))


if __name__ == "__main__":
    main()
