#!/usr/bin/env python3
"""Benchmark of the wickwaves library on the criterion-6 grid.

    python3 benchmarks/run.py --workload gibbs_real --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run writes its spans to benchmarks/out/.  See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def process_age():
    """Seconds since this process started, from /proc; 0 if unavailable."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"), 0.0)
    except (OSError, ValueError, IndexError):
        return 0.0


AGE_AT_START = process_age()


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def layer_metrics(tracer, wl, out, info, overhead):
    from tracing import LAYERS

    summ = tracer.summary()
    values = {"fft.points": tracer.fft_points,
              "trace.overhead_s": overhead}
    for layer in LAYERS + ("fft",):
        rows = [r for nm, r in summ.items() if nm not in tracer.own
                and (nm == layer or nm.startswith(layer + "."))]
        values["%s.calls" % layer] = sum(r["calls"] for r in rows)
        values["%s.self_s" % layer] = sum(r["self_s"] for r in rows)
    for name, row in summ.items():
        values["%s.calls" % name] = row["calls"]
        values["%s.s" % name] = row["s"]
        values["%s.self_s" % name] = row["self_s"]
    steps = summ.get("nls.split_step", {}).get("calls", 0)
    values["nls.fft_calls_per_step"] = (
        tracer.fft_under.get("nls.split_step", 0) / steps if steps else 0)
    values.update(wl.numerics(out, info))
    return values


def same_outputs(a, b):
    """True when two runs' outputs are bitwise equal."""
    import numpy as np

    if isinstance(a, dict):
        return all(same_outputs(a[k], b[k]) for k in a if k != "times")
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same_outputs, a, b))
    if hasattr(a, "__dict__") and not isinstance(a, np.ndarray):
        return same_outputs(vars(a), vars(b))
    if isinstance(a, (np.ndarray, float, int, complex)):
        return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)
    return a == b


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wickwaves", "__init__.py")):
        sys.stderr.write("benchmark: no library sources at %s\n" % SRC)
        return 2
    sys.path[:0] = [SRC, HERE]

    import tracing

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install_fft(tracer)   # before wickwaves is imported
    import wickwaves
    import workloads

    if not os.path.abspath(wickwaves.__file__).startswith(SRC + os.sep):
        sys.stderr.write("benchmark: wickwaves imported from %s, not %s\n"
                         % (wickwaves.__file__, SRC))
        return 2
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("benchmark: unknown workload %r; choose from %s\n"
                         % (args.workload, sorted(workloads.WORKLOADS)))
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    setup_s = AGE_AT_START + time.perf_counter() - T_START

    out = wl.run(tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        # the same work again with every layer wrapped and recording
        tracing.install_layers(tracer)
        tracer.active = True
        traced = wl.run(tracer)
        tracer.active = False
        overhead = traced["times"]["wall_s"] - out["times"]["wall_s"]

    chk, info = wl.check(out)
    if args.trace:
        same = same_outputs(out, traced)
        chk.add("traced_outputs_differ", int(not same), 0, same)
    for line in chk.lines():
        print(line)

    if args.trace:
        values = layer_metrics(tracer, wl, out, info, overhead)
        # a layer the workload does not reach reads 0
        metrics = {name: {"value": float(values.get(name, 0)), "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    else:
        values = dict(wl.end_to_end(out, info), setup_s=setup_s,
                      peak_rss_mb=peak_rss_mb)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}

    result = {"correct": chk.ok, "attempted": int(info["attempted"]),
              "failed": int(info["failed"]), "metrics": metrics}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, stem + ".result.json"), "w") as fh:
        json.dump(dict(result, checks=chk.rows, workload=args.workload,
                       seed=args.seed, seconds=args.seconds), fh, indent=1)
    if args.trace:
        tracer.dump(os.path.join(out_dir, stem + ".trace.json"),
                    {"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds})
    print(json.dumps(result))
    return 0 if chk.ok else 1


if __name__ == "__main__":
    sys.exit(main())
