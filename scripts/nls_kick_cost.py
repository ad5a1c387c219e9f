"""Cost of the NLS implicit-midpoint kick on the benchmark's NLS inputs.

On the criterion-6 grid (L=4, M=132, K=8), 64 complex members drawn by
`phi4.init_chain` from `RngStream(seed, 3)` (m=1, lambda=1) are evolved
by `--steps` midpoint Strang steps of dt=0.01.  The script counts the
member-cubics, one per member per complex padded transform pair, over one
evolve, and the transform pairs per kick (two kicks per step); it then
runs the evolve once to warm up and `--reps` times, and prints the median
and range of its wall time.

    PYTHONPATH=src python scripts/nls_kick_cost.py [--seed 1] [--reps 5]
"""

import argparse
import math
import threading
import time

import numpy as np

from wickwaves import nls, phi4
from wickwaves.gaussian import RngStream
from wickwaves.torus import SpectralPlan, TorusGrid


def count_cubics(fn):
    """fn() and the members of every padded round trip it made."""
    count, lock = [0], threading.Lock()
    plain = SpectralPlan.round_trip

    def counted(self, values, *args, **kwargs):
        with lock:
            count[0] += math.prod(values.shape[:-2])
        return plain(self, values, *args, **kwargs)

    SpectralPlan.round_trip = counted
    try:
        return fn(), count[0]
    finally:
        SpectralPlan.round_trip = plain


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--steps", type=int, default=3)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    grid = TorusGrid(4.0, 132, 8.0)
    spec = phi4.MeasureSpec(grid, 1.0, 1.0, field_type=phi4.COMPLEX_FIELD)
    u = phi4.init_chain(spec, RngStream(args.seed, 3), batch=64).coeffs()
    state = nls.NlsState(grid, u)
    cfg = nls.NlsConfig(1.0, 1.0, 0.01, spec.a, substep=nls.MIDPOINT_SUBSTEP)
    T = args.steps * cfg.dt

    def run():
        return nls.evolve(state, cfg, T)

    _, cubics = count_cubics(run)
    kicks = len(u) * 2 * args.steps
    print("member-cubics %d  (%d members, %d steps)  pairs per kick %.2f"
          % (cubics, len(u), args.steps, cubics / kicks))
    run()
    times = []
    for _ in range(args.reps):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    print("evolve %.3f s  [%.3f-%.3f]  over %d runs"
          % (np.median(times), min(times), max(times), args.reps))


if __name__ == "__main__":
    main()
