"""Configuration parsing, run manifests, and artifact persistence.

Configs are flat text files of ``key = value`` lines with dotted
namespaces (``grid.L``, ``flow.dt``, ...); blank lines and ``#`` comments
are ignored.  The format round-trips losslessly: values are kept as
strings until a typed accessor asks for them, and canonical serialization
(sorted keys, 17-significant-digit floats) hashes identically across
writes.  Every output file records the hash of the config that produced
it.
"""

from __future__ import annotations

import csv
import difflib
import hashlib
import json
import os
import resource
import tempfile
import time


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration input."""


class NumericalGateError(RuntimeError):
    """A deterministic numerical gate (tolerance/convergence) failed."""


class StatisticalGateError(RuntimeError):
    """A statistical pass-criterion gate failed."""


def fmt_float(x):
    """17 significant digits: enough for exact float64 round trips."""
    return format(float(x), ".17g")


def format_value(v):
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def parse_config_text(text, source="<config>"):
    """Parse flat key = value lines into an ordered dict of strings."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected 'key = value', got %r"
                              % (source, lineno, raw.strip()))
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("%s:%d: empty key" % (source, lineno))
        if key in out:
            raise ConfigError("%s:%d: duplicate key %r" % (source, lineno, key))
        out[key] = value
    return out


class RunConfig:
    """Flat dotted-key configuration with typed accessors.

    known_keys, when given, is the set of acceptable keys; unknown keys
    raise a ConfigError naming near-miss suggestions.
    """

    def __init__(self, values=None, known_keys=None):
        self.values = dict(values or {})
        if known_keys is not None:
            self.validate(known_keys)

    @classmethod
    def from_file(cls, path, known_keys=None):
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("cannot read config file %s: %s" % (path, exc))
        return cls(parse_config_text(text, source=path), known_keys)

    def validate(self, known_keys):
        known = set(known_keys)
        for key in self.values:
            if key not in known:
                near = difflib.get_close_matches(key, sorted(known), n=3)
                hint = ("; did you mean: %s" % ", ".join(near)) if near else ""
                raise ConfigError("unknown config key %r%s" % (key, hint))

    def merged(self, overrides):
        """New config with override pairs applied on top (flags win)."""
        vals = dict(self.values)
        vals.update({k: format_value(v) for k, v in overrides.items()
                     if v is not None})
        return RunConfig(vals)

    # -- typed accessors ----------------------------------------------------
    def get(self, key, default=None):
        return self.values.get(key, default)

    def _fetch(self, key, default, conv, typename):
        if key not in self.values:
            if default is None:
                raise ConfigError("missing required config key %r" % key)
            return default
        try:
            return conv(self.values[key])
        except (TypeError, ValueError, OverflowError):     # int('inf')
            raise ConfigError("config key %r: expected %s, got %r"
                              % (key, typename, self.values[key]))

    def get_float(self, key, default=None):
        return self._fetch(key, default, float, "a number")

    def get_int(self, key, default=None):
        def conv(s):
            f = float(s)
            if f != int(f):
                raise ValueError(s)
            return int(f)
        return self._fetch(key, default, conv, "an integer")

    def get_str(self, key, default=None):
        return self._fetch(key, default, str, "a string")

    # -- serialization ------------------------------------------------------
    def canonical_text(self):
        lines = ["%s = %s" % (k, self.values[k])
                 for k in sorted(self.values)]
        return "\n".join(lines) + ("\n" if lines else "")

    def config_hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    def write(self, path):
        atomic_write_text(path, self.canonical_text())

    def as_dict(self):
        return dict(self.values)


def make_manifest(config: RunConfig, seed, extra=None):
    """The run's record: its config and hash, seed, time, and the
    process's resource use up to this call, from getrusage (Linux reports
    ru_maxrss in KiB), so that a rise in memory or allocation churn shows
    in every output; the config hash does not cover it."""
    use = resource.getrusage(resource.RUSAGE_SELF)
    man = {
        "config": config.as_dict(),
        "config_hash": config.config_hash(),
        "seed": int(seed),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "resources": {"max_rss_mb": use.ru_maxrss / 1024.0,
                      "minor_page_faults": use.ru_minflt,
                      "user_s": use.ru_utime, "sys_s": use.ru_stime},
    }
    if extra:
        man.update(extra)
    return man


# ---------------------------------------------------------------------------
# Atomic artifact writing

def _atomic(path, write_fn, mode="w"):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, mode) as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text):
    _atomic(path, lambda fh: fh.write(text))


def _json_default(obj):
    import numpy as np
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (set, tuple)):
        return list(obj)
    raise TypeError("not JSON-serializable: %r" % type(obj))


def _round17(obj):
    """Render floats at 17 significant digits inside nested structures."""
    if isinstance(obj, float):
        return float(fmt_float(obj))
    if isinstance(obj, dict):
        return {k: _round17(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round17(v) for v in obj]
    return obj


def write_json(path, payload):
    text = json.dumps(_round17(json.loads(json.dumps(
        payload, default=_json_default))), indent=2, sort_keys=True)
    atomic_write_text(path, text + "\n")


def write_csv(path, header, rows):
    """Rows of floats/ints/strings; floats printed at 17 sig digits."""
    def emit(fh):
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt_float(v) if isinstance(v, float) else v
                        for v in row])
    _atomic(path, emit)


class OutputSet:
    """Tracks files written by one command so a failure can remove the
    partial outputs it produced; as a context manager it removes them when
    its block raises."""

    def __init__(self):
        self.paths = []

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.discard()

    def json(self, path, payload):
        write_json(path, payload)
        self.paths.append(path)

    def csv(self, path, header, rows):
        write_csv(path, header, rows)
        self.paths.append(path)

    def discard(self):
        for p in self.paths:
            try:
                os.unlink(p)
            except OSError:
                pass
        self.paths = []
