import json
import math
import os

import pytest

from wickwaves.io import (
    ConfigError,
    OutputSet,
    RunConfig,
    fmt_float,
    make_manifest,
    parse_config_text,
    write_csv,
    write_json,
)


def test_fmt_float_round_trips():
    for x in (math.pi, 1.0 / 3.0, 1e-300, -7.25, 0.1):
        assert float(fmt_float(x)) == x


def test_parse_config_text():
    vals = parse_config_text("a.b = 1 # trailing\n\n# comment\nc = x=y\n")
    assert vals == {"a.b": "1", "c": "x=y"}
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3\n")


def test_typed_accessors():
    cfg = RunConfig({"x": "1.5", "n": "4", "s": "hi", "big": "inf"})
    assert cfg.get_float("x") == 1.5
    assert cfg.get_int("n") == 4
    assert cfg.get_str("s") == "hi"
    assert cfg.get_float("missing", 2.0) == 2.0
    with pytest.raises(ConfigError):
        cfg.get_int("x")
    with pytest.raises(ConfigError, match="expected an integer"):
        cfg.get_int("big")
    with pytest.raises(ConfigError):
        cfg.get_float("s")
    with pytest.raises(ConfigError, match="missing required"):
        cfg.get_float("absent")


def test_validate_near_miss():
    cfg = RunConfig({"grid.LL": "2"})
    with pytest.raises(ConfigError, match="did you mean"):
        cfg.validate(["grid.L", "grid.K"])


def test_config_hash_stable_under_ordering():
    a = RunConfig({"x": "1", "y": "2"})
    b = RunConfig({"y": "2", "x": "1"})
    assert a.config_hash() == b.config_hash()
    assert a.merged({"y": 3}).config_hash() != a.config_hash()


def test_write_json_17_digits(tmp_path):
    p = str(tmp_path / "x.json")
    write_json(p, {"v": math.pi, "nested": [1.0 / 3.0]})
    data = json.loads(open(p).read())
    assert data["v"] == math.pi
    assert data["nested"][0] == 1.0 / 3.0


def test_write_csv_17_digits(tmp_path):
    p = str(tmp_path / "x.csv")
    write_csv(p, ("a", "b"), [(math.pi, "s")])
    line = open(p).read().splitlines()[1]
    assert float(line.split(",")[0]) == math.pi


def test_output_set_discard(tmp_path):
    outs = OutputSet()
    p1 = str(tmp_path / "a.json")
    p2 = str(tmp_path / "b.csv")
    outs.json(p1, {"k": 1})
    outs.csv(p2, ("h",), [(1,)])
    assert os.path.exists(p1) and os.path.exists(p2)
    outs.discard()
    assert not os.path.exists(p1) and not os.path.exists(p2)
    # no stray temp files left behind
    assert list(tmp_path.iterdir()) == []


def test_manifest_records_resource_use():
    cfg = RunConfig({"grid.L": "2"})
    man = make_manifest(cfg, 5)
    use = man["resources"]
    assert set(use) == {"max_rss_mb", "minor_page_faults", "user_s",
                        "sys_s"}
    assert use["max_rss_mb"] > 0 and use["minor_page_faults"] > 0
    assert use["user_s"] > 0 and use["sys_s"] >= 0
    # the config hash covers the config alone
    assert man["config_hash"] == cfg.config_hash()
