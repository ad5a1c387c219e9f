"""In-memory spans and counters for the traced benchmark run.

``install_fft`` wraps the transform entry points of ``numpy.fft`` and
``scipy.fft``; call it before ``wickwaves`` is imported so that a module
binding a transform at import time still gets the wrapped one.
``install_layers`` wraps every public function of the measured modules
at every place a ``wickwaves`` module looks it up.  Wrappers do nothing
but call through while the tracer is inactive.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "wickwaves"
LAYERS = ("torus", "gaussian", "phi4", "nlw", "nls", "besov", "harness",
          "stats")

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
             "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn")


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self):
        self.active = False
        self.spans = []                 # [name, start, end, parent index]
        self.fft_points = 0
        self.fft_under = defaultdict(int)   # span name -> transforms inside
        self.own = set()                # names of the benchmark's own spans
        self.stack = []                 # indices of the open spans

    def enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def span(self, name):
        """A span around the benchmark's own code, not a library call; it
        is kept out of the layers' totals."""
        self.own.add(name)
        return _Span(self, name)

    def count_fft(self, points):
        self.fft_points += points
        for nm in {self.spans[i][0] for i in self.stack}:
            self.fft_under[nm] += 1

    # -- summaries ------------------------------------------------------
    def summary(self):
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by child spans)."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fft_points": self.fft_points,
                       "fft_under": dict(self.fft_under),
                       "spans": self.spans}, fh)


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name, self.idx = tracer, name, None

    def __enter__(self):
        if self.tracer.active:
            self.idx = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc):
        if self.idx is not None:
            self.tracer.exit(self.idx)
        return False


def _wrap(tracer, name, fn, fft=False):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if fft:
            # points on the complex side of the transform: the output of a
            # complex or real-to-complex transform, the input of a
            # complex-to-real one
            side = out if np.iscomplexobj(out) else np.asarray(args[0])
            tracer.count_fft(int(side.size))
        return out

    traced.__traced__ = fn
    return traced


def install_fft(tracer):
    """Wrap the transform entry points of numpy.fft and scipy.fft."""
    import scipy.fft

    for mod in (np.fft, scipy.fft):
        for nm in FFT_NAMES:
            fn = getattr(mod, nm, None)
            if fn is not None and not hasattr(fn, "__traced__"):
                setattr(mod, nm, _wrap(tracer, "fft", fn, fft=True))


def install_layers(tracer):
    """Wrap each public function of the LAYERS modules, replacing it in
    every loaded module of the package that refers to it."""
    import importlib

    for layer in LAYERS:
        importlib.import_module("%s.%s" % (PACKAGE, layer))
    users = [m for nm, m in sys.modules.items()
             if m is not None and (nm == PACKAGE
                                   or nm.startswith(PACKAGE + "."))]
    for layer in LAYERS:
        mod = sys.modules["%s.%s" % (PACKAGE, layer)]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            traced = _wrap(tracer, "%s.%s" % (layer, attr), fn)
            for user in users:
                for key, val in list(vars(user).items()):
                    if val is fn:
                        setattr(user, key, traced)
