import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ngl.cli import (DEFAULT_CONFIG, canonical_hash, deep_merge, load_config,
                     main, run, validate_config)
from ngl.errors import ConfigError, ResolutionError


def small_config(out_dir, **sections):
    cfg = {
        "metric": {"grid_n": 128},
        "eigen": {"count": 5},
        "growth": {"sample_grid_m": 8},
        "localize": {"planar_grid_n": 192},
        "crofton": {"samples": 5000},
        "harmonic": {"n_traces": 5},
        "carleman": {"pairs": 4},
        "tiling": {"core_grid_n": 129},
        "output": {"dir": str(out_dir)},
    }
    for key, val in sections.items():
        cfg[key] = deep_merge(cfg.get(key, {}), val)
    return load_config(overrides=cfg)


def test_config_hash_key_order_invariant():
    a = {"metric": {"grid_n": 64, "profile": "flat"}, "eigen": {"count": 4}}
    b = {"eigen": {"count": 4}, "metric": {"profile": "flat", "grid_n": 64}}
    assert canonical_hash(a) == canonical_hash(b)
    c = {"metric": {"grid_n": 65, "profile": "flat"}, "eigen": {"count": 4}}
    assert canonical_hash(a) != canonical_hash(c)


def test_defaults_validate_for_every_command():
    for command in ("spectrum", "nodal", "growth", "thm1", "localize",
                    "tile", "rapid", "crofton", "harmonic", "carleman", "all"):
        validate_config(DEFAULT_CONFIG, command=command)


def test_validation_failures():
    bad = deep_merge(DEFAULT_CONFIG, {"metric": {"grid_n": 8}})
    with pytest.raises(ConfigError):
        validate_config(bad)
    bad = deep_merge(DEFAULT_CONFIG, {"eigen": {"tol": 1e-12}})
    with pytest.raises(ConfigError):
        validate_config(bad)
    bad = deep_merge(DEFAULT_CONFIG, {"schrodinger": {"delta": 0.02}})
    with pytest.raises(ConfigError):
        validate_config(bad)
    bad = deep_merge(DEFAULT_CONFIG, {"metric": {"grid_n": 128}})
    with pytest.raises(ConfigError, match="need grid_n"):
        validate_config(bad, command="thm1")
    for index in (0, 21, 10 ** 9):
        bad = deep_merge(DEFAULT_CONFIG, {"localize": {"index": index}})
        with pytest.raises(ConfigError, match=r"localize.index must lie in \[1, 20\]"):
            validate_config(bad, command="localize")
    for section, key, value in (("harmonic", "r0", 0.7),
                                ("harmonic", "r0", -0.25),
                                ("harmonic", "max_degree", 0),
                                ("harmonic", "n_traces", 0),
                                ("carleman", "t_values", []),
                                ("carleman", "delta", 0.0),
                                ("crofton", "samples", 1),
                                ("crofton", "seed", -1),
                                ("growth", "sample_grid_m", 1),
                                ("growth", "k0_sweep", [0.25, -1.0])):
        bad = deep_merge(DEFAULT_CONFIG, {section: {key: value}})
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            validate_config(bad, command=section)


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"metric": {"grid_n": 4}}))
    assert main(["spectrum", "--config", str(cfg_path)]) == 2

    cfg_path.write_text(json.dumps({"eigen": {"maxiter": 1}}))
    assert main(["spectrum", "--config", str(cfg_path)]) == 2

    # numerical failure: a conformal factor of 1e-310 overflows every
    # nonconstant eigenvalue
    cfg_path = tmp_path / "hard.json"
    cfg_path.write_text(json.dumps({
        "metric": {"grid_n": 32, "params": {"value": 1e-310}},
        "eigen": {"count": 4},
        "output": {"dir": str(tmp_path / "out")},
    }))
    assert main(["spectrum", "--config", str(cfg_path)]) == 3


def test_spectrum_cache_round_trip(tmp_path):
    cfg = small_config(tmp_path / "out")
    rec1 = run("spectrum", cfg)
    assert rec1.constants["spectrum_cache"] == "miss"
    rec2 = run("spectrum", cfg)
    assert rec2.constants["spectrum_cache"] == "hit"
    assert rec1.rows == rec2.rows


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 12])


def _wrong_grid(path):
    from ngl.surface import GridField, write_gfd
    write_gfd(GridField(np.zeros((32, 32))), path)


def _garbage_header(path):
    data = path.read_bytes()
    path.write_bytes(b"\x89garbage{" + data[data.index(b"\n"):])


@pytest.mark.parametrize("damage", [_truncate, _wrong_grid, _garbage_header])
def test_corrupt_spectrum_cache_is_recomputed(tmp_path, damage):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"metric": {"grid_n": 64},
                                    "eigen": {"count": 4}}))
    fresh, damaged = tmp_path / "fresh", tmp_path / "damaged"
    for out in (fresh, damaged):
        assert main(["nodal", "--config", str(cfg_path), "--out", str(out)]) == 0
    cache_file = next(damaged.glob("spectrum_cache/*/eig_002.gfd"))
    damage(cache_file)
    assert main(["nodal", "--config", str(cfg_path), "--out", str(damaged)]) == 0
    assert _tree_bytes(damaged) == _tree_bytes(fresh)
    # a record that asks for the cache status says what happened
    damage(cache_file)
    cfg = load_config(str(cfg_path), {"output": {"dir": str(damaged)}})
    assert run("spectrum", cfg).constants["spectrum_cache"] == "recomputed"
    assert run("spectrum", cfg).constants["spectrum_cache"] == "hit"


def _localized_config(out_dir):
    # k0 = 1 lets a 160 grid resolve the rescaled patch of pair 2; eps0 admits
    # the potential (k0 tau)^2 = 0.16 this gives
    return small_config(out_dir, metric={"grid_n": 160}, eigen={"count": 4},
                        growth={"k0": 1.0},
                        localize={"planar_grid_n": 64, "eps0": 0.2},
                        tiling={"core_grid_n": 65, "k_max": 2},
                        crofton={"curve": "eigenfunction", "samples": 2000})


def _used_cache_file(out_dir):
    """The cache file of the pair localize.index (2) names, and index.json."""
    index_path = next(out_dir.glob("spectrum_cache/*/index.json"))
    entries = json.loads(index_path.read_text())
    return index_path.parent / [e["file"] for e in entries
                                if e["lambda"] > 1e-6][1], index_path


def _outputs(root):
    return {k: v for k, v in _tree_bytes(root).items()
            if not k.startswith("spectrum_cache")
            and k not in ("spectrum.json", "record_spectrum.json")}


@pytest.mark.parametrize("command", ["localize", "tile", "rapid", "crofton"])
def test_localized_commands_read_only_their_cached_pair(tmp_path, monkeypatch,
                                                       command):
    import ngl.surface
    fresh, hit = tmp_path / "fresh", tmp_path / "hit"
    run(command, _localized_config(fresh))       # solves and fills the cache
    cfg = _localized_config(hit)
    run("spectrum", cfg)
    used, index_path = _used_cache_file(hit)
    for path in hit.glob("spectrum_cache/*/*.gfd"):
        if path != used:
            _truncate(path)
    index_stat = index_path.stat()
    reads = []
    read_gfd = ngl.surface.read_gfd
    monkeypatch.setattr(ngl.surface, "read_gfd",
                        lambda path: reads.append(path) or read_gfd(path))
    run(command, cfg)
    assert reads == [str(used)]
    assert _outputs(hit) == _outputs(fresh)
    # the cache was neither rewritten nor mended
    assert index_path.stat().st_mtime_ns == index_stat.st_mtime_ns
    assert all(len(p.read_bytes()) < len((fresh / p.relative_to(hit)).read_bytes())
               for p in hit.glob("spectrum_cache/*/*.gfd") if p != used)


@pytest.mark.parametrize("damage", [_truncate, _wrong_grid, _garbage_header])
def test_damaged_used_pair_is_recomputed(tmp_path, damage):
    fresh, damaged = tmp_path / "fresh", tmp_path / "damaged"
    for out in (fresh, damaged):
        run("localize", _localized_config(out))
    used, _ = _used_cache_file(damaged)
    damage(used)
    run("localize", _localized_config(damaged))
    assert _tree_bytes(damaged) == _tree_bytes(fresh)


def test_crofton_command_json(tmp_path):
    cfg = small_config(tmp_path / "out",
                       crofton={"kernel": "circle", "curve": "segment",
                                "r": 0.1, "samples": 30000, "seed": 3})
    run("crofton", cfg)
    out = json.loads((tmp_path / "out" / "crofton.json").read_text())
    assert abs(out["value"] - 1.0) <= 3 * out["stderr"]
    assert out["samples"] == 30000


def test_crofton_eigenfunction_curve_json(tmp_path):
    cfg = small_config(tmp_path / "out", metric={"grid_n": 64},
                       eigen={"count": 4},
                       crofton={"curve": "eigenfunction", "samples": 2000})
    run("crofton", cfg)
    with open(tmp_path / "out" / "crofton.json") as f:
        out = json.load(f)
    assert type(out["consistency"]["consistent"]) is bool


def test_cli_flag_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "metric": {"grid_n": 64},
        "eigen": {"count": 4},
        "crofton": {"samples": 2000, "curve": "segment"},
    }))
    code = main(["crofton", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o2"), "--kernel", "circle",
                 "--r", "0.05", "--samples", "4000", "--seed", "9"])
    assert code == 0
    out = json.loads((tmp_path / "o2" / "crofton.json").read_text())
    assert out["samples"] == 4000


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


@pytest.mark.parametrize("command", ["spectrum", "nodal", "crofton", "harmonic"])
def test_byte_identical_reruns(tmp_path, command):
    trees = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        cfg = small_config(out_dir)
        run(command, cfg)
        trees.append(_tree_bytes(out_dir))
    assert trees[0].keys() == trees[1].keys()
    for name in trees[0]:
        assert trees[0][name] == trees[1][name], f"{command}: {name} differs"


def test_thm1_outputs(tmp_path):
    cfg = small_config(tmp_path / "out",
                       metric={"grid_n": 320},
                       eigen={"count": 6},
                       growth={"sample_grid_m": 16})
    rec = run("thm1", cfg)
    csv_path = tmp_path / "out" / "thm1_table.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header == "lambda,A,H1_metric,lower_ratio,upper_ratio"
    summary = rec.rows[0]
    assert summary["lower_spread"] < 100
    assert (tmp_path / "out" / "growth_vs_lambda.svg").exists()


def test_record_has_no_timestamp(tmp_path):
    cfg = small_config(tmp_path / "out")
    rec = run("spectrum", cfg)
    assert rec.timestamp > 0
    data = json.loads((tmp_path / "out" / "record_spectrum.json").read_text())
    assert "timestamp" not in data
    assert data["command"] == "spectrum"
    assert data["config_hash"] == canonical_hash(cfg)


def test_thm1_k0_sweep(tmp_path):
    cfg = small_config(tmp_path / "out",
                       metric={"grid_n": 320},
                       eigen={"count": 5},
                       growth={"sample_grid_m": 8, "k0_sweep": [0.25, 1.0]})
    rec = run("thm1", cfg)
    assert len(rec.rows) == 3
    assert {r["k0"] for r in rec.rows} == {0.5, 0.25, 1.0}
    # unresolved modes are dropped from the sweep rows rather than failing
    assert all(r["count"] >= 1 for r in rec.rows)
    assert (tmp_path / "out" / "thm1_table_k0_1.csv").exists()


def test_thm1_unresolved_sweep_entry_exits_3_with_one_line(tmp_path, capsys):
    # on the flat metric and on a curved one, whose geodesic disks take
    # the distance sweep with no radius at all
    for profile in ("flat", "wave"):
        path = tmp_path / f"{profile}.json"
        path.write_text(json.dumps({"metric": {"profile": profile,
                                               "grid_n": 160},
                                    "eigen": {"count": 4},
                                    "growth": {"sample_grid_m": 4,
                                               "k0_sweep": [0.05]}}))
        code = main(["thm1", "--config", str(path),
                     "--out", str(tmp_path / profile)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == ("numerical failure: growth.k0_sweep entry 0.05 "
                       "resolves no eigenfunction; increase metric.grid_n\n")


@pytest.mark.parametrize("command, n, growth", [
    ("growth", 64, {"k0": 4.0}),
    ("thm1", 96, {"k0": 1.0, "k0_sweep": [4.0]}),
    ("growth", 64, {"k0": 1e300}),
])
def test_geodesic_window_wrapping_the_torus_exits_3_with_one_line(
        tmp_path, capsys, command, n, growth):
    # a disk's window (Chebyshev half-width plus one on either side of its
    # cell) wider than the torus, at growth.k0 or, after the first thm1
    # table, at a growth.k0_sweep entry; flat disks obey the same rule
    for profile in ("wave", "flat"):
        path = tmp_path / f"{profile}.json"
        path.write_text(json.dumps({"metric": {"profile": profile,
                                               "grid_n": n},
                                    "eigen": {"count": 4},
                                    "growth": {"sample_grid_m": 4, **growth}}))
        code = main([command, "--config", str(path),
                     "--out", str(tmp_path / profile)])
        err = capsys.readouterr().err
        assert code == 3, profile
        assert err.startswith("numerical failure: a geodesic disk's ")
        assert err.endswith(f"-cell window wraps the {n}-cell torus; decrease "
                            f"growth.k0 or the growth.k0_sweep entry\n")
        assert err.count("\n") == 1
        # the width is rounded to 4 digits, never printed in full
        assert len(err) < 200


def test_overflowing_carleman_weight_exits_2_with_one_line(tmp_path, capsys):
    # exp(t |z|^2) overflows at t = 400, and the inf and NaN integrals it
    # makes would drop out of the minimum over the margins unseen
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"carleman": {"pairs": 2, "t_values": [400.0]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no RuntimeWarning on the way either
        code = main(["carleman", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: the weighted integrals at t = 400 are not "
        "finite (exp(t |z|^2) overflows); lower carleman.t_values\n")
    assert not (tmp_path / "out" / "carleman_report.json").exists()


def test_overflowing_spectrum_exits_3_with_one_line(tmp_path, capsys):
    # a conformal factor of 1e-310 puts every eigenvalue but the constant
    # mode's 0 beyond the float range
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"metric": {"profile": "flat", "grid_n": 32,
                                           "params": {"value": 1e-310}},
                                "eigen": {"count": 2}}))
    code = main(["spectrum", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == ("numerical failure: eigensolver found 1 finite "
                   "eigenvalues of 7\n")


def test_tiny_conformal_factor_solves(tmp_path):
    # 1e-300 keeps lambda * q in range: lambda * 1e-300 is the flat spectrum
    cfg = load_config(overrides={"metric": {"grid_n": 32,
                                            "params": {"value": 1e-300}},
                                 "eigen": {"count": 2}}, command="spectrum")
    rows = run("spectrum", cfg, str(tmp_path)).rows
    mu = 4 * 32 ** 2 * math.sin(math.pi / 32) ** 2
    assert [r["lambda"] * 1e-300 for r in rows] == pytest.approx(
        [0.0, mu, mu], rel=1e-12, abs=1e-12)
    assert max(r["residual"] for r in rows) < 1e-10


def test_all_command_aggregates(tmp_path):
    cfg = small_config(tmp_path / "out",
                       metric={"grid_n": 320},
                       eigen={"count": 4},
                       growth={"sample_grid_m": 8},
                       localize={"planar_grid_n": 160},
                       crofton={"samples": 3000},
                       harmonic={"n_traces": 3},
                       carleman={"pairs": 4})
    rec = run("all", cfg)
    names = [list(r.keys())[0] for r in rec.rows]
    assert names == ["spectrum", "nodal", "growth", "thm1", "localize",
                     "tile", "rapid", "crofton", "harmonic", "carleman"]
    assert (tmp_path / "out" / "record.json").exists()
    assert (tmp_path / "out" / "tiling.svg").exists()
    assert (tmp_path / "out" / "disk_config.svg").exists()


def test_all_builds_each_stage_once(tmp_path, monkeypatch):
    """One `all` run grows each (k0, pair set) once, extracts each
    nonconstant pair's nodal set once for nodal, thm1 and eigenfunction-curve
    crofton together, localizes once, and reads each spectrum cache file at
    most once."""
    import ngl.growth
    import ngl.nodal
    import ngl.schrodinger
    import ngl.surface
    calls = {}

    def count(module, name, key):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.setdefault(name, []).append(key(*args, **kwargs))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(ngl.growth, "growth_fields",
          lambda pairs, metric, k0, sample_grid_m: (k0, len(pairs)))
    count(ngl.nodal, "extract_nodal_set", id)
    count(ngl.schrodinger, "localize", lambda pair, *args, **kwargs: pair.lam)
    count(ngl.surface, "read_gfd", lambda path: path)
    # k0_sweep 0.5 resolves the 4 pairs of mode (1, 0), not the 2 of (1, 1);
    # 1.0 repeats growth.k0
    cfg = load_config(overrides={
        "metric": {"grid_n": 160}, "eigen": {"count": 6},
        "growth": {"k0": 1.0, "sample_grid_m": 4, "k0_sweep": [0.5, 1.0]},
        "localize": {"index": 1, "planar_grid_n": 64, "eps0": 0.2},
        "tiling": {"core_grid_n": 65, "k_max": 2},
        "crofton": {"curve": "eigenfunction", "samples": 1000},
        "harmonic": {"n_traces": 3},
        "carleman": {"pairs": 2, "t_values": [1.0]},
        "output": {"dir": str(tmp_path)}}, command="all")
    for rerun in (False, True):   # a cold cache, then a warm one
        calls.clear()
        run("all", cfg)
        assert sorted(calls["growth_fields"]) == [(0.5, 4), (1.0, 6)]
        # the six pairs' fields and the core field of tile
        fields = calls["extract_nodal_set"]
        assert len(fields) == len(set(fields)) == 7
        assert len(calls["localize"]) == 1
        reads = calls.get("read_gfd", [])
        assert len(reads) == len(set(reads)) == (7 if rerun else 0)


def test_all_fails_its_patch_check_before_growing(tmp_path, capsys):
    # passes the pre-check's lower eigenvalue bound; the solved lambda_1
    # needs grid_n 94 for its rescaled patch
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "metric": {"profile": "wave", "grid_n": 92}, "eigen": {"count": 2},
        "growth": {"k0": 2.0, "sample_grid_m": 4},
        "localize": {"index": 1, "eps0": 1.0, "planar_grid_n": 128},
        "tiling": {"core_grid_n": 129}}))
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: one rescaled unit spans 9.84 samples (< 10); "
        "increase grid_n to at least 94\n")
    for name in ("growth.json", "thm1_table.csv", "record.json"):
        assert not (out / name).exists(), name


# --------------------------------------------------------------- config faults


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    ('{"metric": {"grid_n": 64,}}', "not valid JSON"),
    ('[1, 2]', "JSON object"),
    ('{"metric": {"grid-n": 64}}', "unknown config key 'metric.grid-n'"),
    ('{"harmonic": {"n_traces": 5}, "tilling": {}}', "unknown config key 'tilling'"),
    ('{"metric": {"grid_n": "64"}}', "metric.grid_n has the wrong type"),
    ('{"metric": {"grid_n": 64.0}}', "metric.grid_n has the wrong type"),
    ('{"eigen": {"count": true}}', "eigen.count has the wrong type"),
    ('{"growth": {"k0": false}}', "growth.k0 has the wrong type"),
    ('{"tiling": {"delta0": "small"}}', "tiling.delta0 has the wrong type"),
    ('{"carleman": {"t_values": [1.0, "5"]}}', "carleman.t_values has the wrong type"),
    ('{"eigen": 4}', "eigen must be an object"),
    ('{"crofton": {"r": 0.0}}', "crofton.r must be positive"),
    ('{"crofton": {"r": -0.05}}', "crofton.r must be positive"),
    ('{"harmonic": {"r0": 0.5}}', "harmonic.r0 must lie in (0, 1/2)"),
    ('{"harmonic": {"r0": 0.0}}', "harmonic.r0 must lie in (0, 1/2)"),
    ('{"harmonic": {"max_degree": 0}}', "harmonic.max_degree must be at least 1"),
    ('{"harmonic": {"n_traces": 0}}', "harmonic.n_traces must be positive"),
    ('{"carleman": {"t_values": []}}', "carleman.t_values must not be empty"),
    ('{"carleman": {"delta": 0.0}}', "carleman.delta must be positive"),
    ('{"carleman": {"delta": -1e-3}}', "carleman.delta must be positive"),
    ('{"carleman": {"delta": 1e-30}}', "carleman.delta must be at least 1e-12"),
    ('{"carleman": {"delta": 1e-300}}', "carleman.delta must be at least 1e-12"),
    ('{"schrodinger": {"delta": 1e-12}}',
     "schrodinger.delta must be at least 1e-8"),
    # the spectrum solves eigen.count + 1 pairs, at most grid_n^2 / 4
    ('{"metric": {"profile": "wave", "grid_n": 16}, "eigen": {"count": 64}}',
     "eigen.count must lie in [1, grid_n^2/4 - 1]"),
    ('{"metric": {"profile": "stripe", "grid_n": 16}, "eigen": {"count": 64}}',
     "eigen.count must lie in [1, grid_n^2/4 - 1]"),
    ('{"carleman": {"n_centers": 0}}', "carleman.n_centers must be at least 1"),
    ('{"carleman": {"n_centers": -1}}', "carleman.n_centers must be at least 1"),
    ('{"crofton": {"samples": 1}}', "crofton.samples must be at least 2"),
    ('{"crofton": {"samples": 0}}', "crofton.samples must be at least 2"),
    ('{"crofton": {"seed": -1}}', "crofton.seed must lie in [0, 2^64)"),
    ('{"crofton": {"seed": 18446744073709551616}}',
     "crofton.seed must lie in [0, 2^64)"),
    ('{"harmonic": {"seed": -1}}', "harmonic.seed must lie in [0, 2^64)"),
    ('{"eigen": {"seed": -1}}', "eigen.seed must lie in [0, 2^64)"),
    ('{"carleman": {"seed": -1}}', "carleman.seed must lie in [0, 2^64)"),
    ('{"growth": {"sample_grid_m": 0}}', "growth.sample_grid_m must be at least 2"),
    ('{"growth": {"sample_grid_m": -3}}', "growth.sample_grid_m must be at least 2"),
    ('{"growth": {"k0_sweep": [-1.0]}}', "growth.k0_sweep entries must be positive"),
    ('{"growth": {"k0_sweep": [0.5, 0.0]}}', "growth.k0_sweep entries must be positive"),
    ('{"metric": {"params": {"value": -1.0}}}',
     "metric.params.value must be a positive number"),
    ('{"metric": {"params": {"value": "1"}}}',
     "metric.params.value must be a positive number"),
    ('{"metric": {"profile": "wave", "params": {"amplitude": 1.5}}}',
     "metric.params.amplitude must lie in (-1, 1)"),
    ('{"metric": {"params": {"amplitude": 0.3}}}',
     "unknown metric.params key 'amplitude' for profile flat"),
    ('{"metric": {"profile": "stripe", "params": {"value": 1.0}}}',
     "unknown metric.params key 'value' for profile stripe"),
    ('{"metric": {"params": {"value": NaN}}}',
     "metric.params.value must be a positive number"),
    ('{"metric": {"profile": "wave", "params": {"amplitude": -Infinity}}}',
     "metric.params.amplitude must lie in (-1, 1)"),
    ('{"metric": {"params": {"grid_n": 16}}}',
     "unknown metric.params key 'grid_n' for profile flat"),
    ('{"metric": {"profile": "torus"}}', "unknown metric profile 'torus'"),
    ('{"eigen": {"solver": "auto"}}', "unknown config key 'eigen.solver'"),
    ('{"harmonic": {"rho_plus": 0.03125}}',
     "unknown config key 'harmonic.rho_plus'"),
    ('{"harmonic": {"rho_minus": null}}',
     "unknown config key 'harmonic.rho_minus'"),
    ('{"tiling": {"delta0": 0}}', "tiling.delta0 must be null or a positive number"),
    ('{"tiling": {"delta0": -0.25}}',
     "tiling.delta0 must be null or a positive number"),
    ('{"tiling": {"delta0": NaN}}', "tiling.delta0 must be finite: nan"),
    # no solve iterates: the key is gone, whatever its value
    ('{"eigen": {"maxiter": 0}}', "unknown config key 'eigen.maxiter'"),
    ('{"eigen": {"maxiter": -1}}', "unknown config key 'eigen.maxiter'"),
    ('{"eigen": {"maxiter": 1.5}}', "unknown config key 'eigen.maxiter'"),
    ('{"eigen": {"maxiter": NaN}}', "unknown config key 'eigen.maxiter'"),
    ('{"eigen": {"maxiter": null}}', "unknown config key 'eigen.maxiter'"),
    ('{"localize": {"eps0": NaN}}', "localize.eps0 must be finite: nan"),
    ('{"growth": {"k0": Infinity}}', "growth.k0 must be finite: inf"),
    ('{"carleman": {"t_values": [1.0, NaN]}}',
     "carleman.t_values must be finite: [1.0, nan]"),
    ('{"growth": {"k0_sweep": [-Infinity]}}',
     "growth.k0_sweep must be finite: [-inf]"),
    ('{"crofton": {"curve": "spiral"}}',
     "crofton.curve must be segment, circle or eigenfunction"),
    ('{"tiling": {"core_grid_n": 2}}', "tiling.core_grid_n must be at least 16"),
    ('{"localize": {"p": [0.0]}}', "localize.p must hold 2 numbers"),
    ('{"tiling": {"k_max": -1}}', "tiling.k_max must be at least 0"),
    ('{"schrodinger": {"m_threshold": -1.0}}',
     "schrodinger.m_threshold must be positive"),
    ('{"localize": {"planar_grid_n": 3}}',
     "localize.planar_grid_n must be at least 16"),
    ('{"metric": {"grid_n": 64}, "eigen": {"count": 4}, "localize": {"index": 9},'
     ' "crofton": {"curve": "eigenfunction", "samples": 100}}',
     "localize.index must lie in [1, 4]"),
    ('{"metric": {"grid_n": 64}, "eigen": {"count": 4}, "localize": {"index": 0},'
     ' "crofton": {"curve": "eigenfunction", "samples": 100}}',
     "localize.index must lie in [1, 4]"),
    # checked before the spectrum is solved and cached
    ('{"crofton": {"curve": "eigenfunction"}, "localize": {"index": 30},'
     ' "metric": {"profile": "wave", "grid_n": 128}, "eigen": {"count": 4}}',
     "localize.index must lie in [1, 4]"),
    ('{"output": {"dir": ""}}', "output.dir must not be empty"),
    # (command, content): nodal and growth write the indexed pair's files
    pytest.param(("nodal", '{"eigen": {"count": 1}}'),
                 "localize.index must lie in [1, 1]", id="nodal-index-2-of-1"),
    pytest.param(("growth", '{"eigen": {"count": 1}}'),
                 "localize.index must lie in [1, 1]", id="growth-index-2-of-1"),
    pytest.param(("growth", '{"localize": {"index": 0}}'),
                 "localize.index must lie in [1, 20]", id="growth-index-0"),
    # 10^400, written out: no float holds it
    pytest.param('{"growth": {"k0": 1' + "0" * 400 + '}}',
                 "growth.k0 must lie within the float range", id="k0-10^400"),
    pytest.param('{"carleman": {"t_values": [1.0, 1' + "0" * 400 + ']}}',
                 "carleman.t_values must lie within the float range",
                 id="t_values-10^400"),
    pytest.param('{"metric": {"params": {"value": 1' + "0" * 400 + '}}}',
                 "metric.params.value must be a positive number",
                 id="params.value-10^400"),
    pytest.param('{"metric": {"grid_n": 1' + "0" * 400 + '}}',
                 "metric.grid_n must lie within the int64 range",
                 id="grid_n-10^400"),
    pytest.param(("spectrum", '{"eigen": {"maxiter": 9223372036854775808}}'),
                 "unknown config key 'eigen.maxiter'", id="maxiter-2^63"),
    pytest.param('{"tiling": {"k_max": -9223372036854775809}}',
                 "tiling.k_max must lie within the int64 range",
                 id="k_max-below-int64"),
    # within 1e-12 of P's side / 10^5: 10^10 level-0 squares
    pytest.param(("tile", '{"tiling": {"delta0": 3.3333333333333e-07}}'),
                 "tiling.delta0 must be at least 1/30 / 64",
                 id="delta0-10^10-squares"),
    # beyond the 4300 digits Python parses into an int
    pytest.param('{"growth": {"k0": ' + "9" * 4301 + '}}', "not valid JSON",
                 id="k0-4301-digits"),
    # valid keys, but disks too wide for any test bump to clear them
    pytest.param(("carleman", '{"carleman": {"n_centers": 1, "delta": 2.0, '
                              '"pairs": 2, "t_values": [1.0]}}'),
                 "could not place a test bump clear of the disks",
                 id="carleman-delta-2"),
])
def test_config_faults_exit_2_with_one_line(tmp_path, capsys, monkeypatch,
                                            content, message):
    monkeypatch.chdir(tmp_path)   # so the config's output.dir is the one used
    command, content = (content if isinstance(content, tuple)
                        else ("crofton", content))
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    code = main([command, "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("configuration error: ")
    assert message in err
    assert not (tmp_path / "out" / "spectrum_cache").exists()


def test_float_delta0_reads_as_an_exact_fraction_of_p(tmp_path, capsys):
    """At the localized benchmark config the default level-0 side is P's
    side / 4 = 1/120; the float 1/120 must tile the same squares, and a float
    that is no integer fraction of P's side still exits 2."""
    base = {"localize": {"planar_grid_n": 512}, "tiling": {"core_grid_n": 513}}
    tiles = []
    for tag, delta0 in (("default", None), ("float", 1 / 120)):
        cfg = load_config(overrides=deep_merge(base, {
            "tiling": {"delta0": delta0},
            "output": {"dir": str(tmp_path / tag)}}), command="tile")
        run("tile", cfg)
        tiles.append((tmp_path / tag / "tiling.csv").read_bytes())
    assert tiles[0] == tiles[1]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(deep_merge(base, {
        "tiling": {"delta0": 0.01}, "output": {"dir": str(tmp_path / "bad")}})))
    assert main(["tile", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "delta0 must divide the side of P exactly" in err


def test_delta0_bound_admits_64_squares_a_side():
    from fractions import Fraction
    for k, ok in ((64, True), (65, False)):
        cfg = deep_merge(DEFAULT_CONFIG,
                         {"tiling": {"delta0": float(Fraction(1, 30) / k)}})
        if ok:
            validate_config(cfg, command="tile")
        else:
            with pytest.raises(ConfigError, match="64 level-0 squares a side"):
                validate_config(cfg, command="tile")


@pytest.mark.parametrize("command", ["nodal", "growth"])
def test_run_rejects_index_outside_the_spectrum(tmp_path, command):
    # run() takes a config that was validated for no command in particular
    cfg = small_config(tmp_path / "out", localize={"index": 0})
    with pytest.raises(ConfigError, match=r"localize.index must lie in \[1, 5\]"):
        run(command, cfg)
    assert not (tmp_path / "out" / f"record_{command}.json").exists()


def test_negative_seed_flag_exits_2_with_one_line(tmp_path, capsys):
    code = main(["harmonic", "--seed", "-1", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "configuration error: eigen.seed must lie in [0, 2^64)\n"


# --------------------------------------------------------------- grid rules


def _quoted_grid_n(call):
    """The grid_n that a failed resolution check asks for."""
    with pytest.raises((ConfigError, ResolutionError)) as info:
        call()
    return int(str(info.value).rsplit(" ", 1)[1])


@pytest.mark.parametrize("command, value, k0", [
    ("thm1", 1.0, 2.0), ("thm1", 0.4, 2.0), ("thm1", 2.5, 2.0),
    ("localize", 1.0, 5.0), ("localize", 0.4, 5.0), ("localize", 2.5, 2.0)])
def test_grid_precheck_quotes_the_pipelines_need(tmp_path, command, value, k0):
    """One grid point below the pre-check's need, the pipeline (run without
    the pre-check) fails too and quotes its own need: the same on the unit
    flat torus, whose spectrum is the closed form, and otherwise within the
    5-point stencil's symbol deficit."""
    cfg = deep_merge(DEFAULT_CONFIG, {
        "metric": {"grid_n": 16, "params": {"value": value}},
        "eigen": {"count": 4}, "growth": {"k0": k0, "sample_grid_m": 4},
        "localize": {"index": 1, "planar_grid_n": 32}})
    precheck = _quoted_grid_n(lambda: validate_config(cfg, command=command))
    coarse = deep_merge(cfg, {"metric": {"grid_n": precheck - 1}})
    assert _quoted_grid_n(lambda: validate_config(coarse, command)) == precheck
    pipeline = _quoted_grid_n(lambda: run(command, coarse, str(tmp_path)))
    assert abs(pipeline - precheck) <= (0 if value == 1.0 else 1)


@pytest.mark.parametrize("command, overrides", [
    ("thm1", {"metric": {"profile": "wave", "grid_n": 320},
              "eigen": {"count": 20}, "growth": {"sample_grid_m": 4}}),
    ("localize", {"metric": {"params": {"value": 2.5}, "grid_n": 400},
                  "eigen": {"count": 4}, "growth": {"k0": 0.1},
                  "localize": {"index": 1, "planar_grid_n": 64}}),
])
def test_resolved_configs_pass_the_precheck(tmp_path, command, overrides):
    # the pipeline resolves every pair of both, so a pre-check built on a
    # lower eigenvalue bound must let them through
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(overrides))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_curved_config_between_the_bounds_is_decided_by_the_pipeline(
        tmp_path, capsys):
    # the pre-check's lower eigenvalue bound passes grid_n 320; the solved
    # spectrum's largest pair needs 339, and the pipeline quotes that
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"metric": {"profile": "stripe", "grid_n": 320},
                                "eigen": {"count": 20},
                                "growth": {"sample_grid_m": 4}}))
    code = main(["thm1", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: wavelength radius ")
    assert err.endswith("; increase grid_n to at least 339\n")


# --------------------------------------------------------- hostile values

# a base config on which every command runs in well under a second
_TINY = {"metric": {"grid_n": 320}, "eigen": {"count": 4},
         "growth": {"sample_grid_m": 8},
         "localize": {"index": 1, "planar_grid_n": 64},
         "tiling": {"core_grid_n": 65, "k_max": 2},
         "crofton": {"samples": 1000}, "harmonic": {"n_traces": 3},
         "carleman": {"pairs": 2, "t_values": [1.0]}}
# the command that reads each section
_READER = {"schema_version": "spectrum", "metric": "thm1", "eigen": "thm1",
           "growth": "thm1", "localize": "localize", "schrodinger": "rapid",
           "tiling": "tile", "crofton": "crofton", "harmonic": "harmonic",
           "carleman": "carleman", "output": "harmonic"}


def _leaves(default, where=()):
    for key, ref in default.items():
        if isinstance(ref, dict):
            yield from _leaves(ref, where + (key,))
        else:
            yield where + (key,), ref


_LEAVES = sorted([*_leaves(DEFAULT_CONFIG), (("metric", "params", "value"), 1.0)],
                 key=lambda leaf: leaf[0])
# 10^400 is beyond every float and every int64
_HOSTILE = st.sampled_from([0, -1, math.nan, 10 ** 400])


@st.composite
def _hostile_override(draw):
    """One config key set to a hostile value: a string key to "", a number
    key to 0, -1, NaN or 10^400, and a list key to an empty or short list of
    those."""
    path, ref = draw(st.sampled_from(_LEAVES))
    if isinstance(ref, str):
        value = ""
    elif isinstance(ref, list):
        value = draw(st.lists(_HOSTILE, max_size=2))
    else:
        value = draw(_HOSTILE)
    override = value
    for key in reversed(path):
        override = {key: override}
    return _READER[path[0]], override


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_hostile_override())
def test_hostile_values_exit_cleanly(case):
    """Exit 0, 2 or 3, with at most one line on stderr (a warning the CLI
    would print counts as a line) and never a traceback."""
    command, override = case
    with tempfile.TemporaryDirectory() as out_dir:
        path = os.path.join(out_dir, "cfg.json")
        base = deep_merge(_TINY, {"output": {"dir": out_dir}})
        with open(path, "w", encoding="utf-8") as f:
            json.dump(deep_merge(base, override), f)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", path])
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") + len(caught) <= 1, err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_config_accepts_documented_types():
    cfg = load_config(overrides={
        "growth": {"k0": 1},                     # int where a float is expected
        "tiling": {"delta0": 0.004},             # number where None is the default
        "metric": {"params": {"value": 1}},      # int where a float is expected
    })
    assert cfg["growth"]["k0"] == 1


# --------------------------------------------------------------- lazy package


def test_every_exported_name_resolves():
    import ngl
    assert len(ngl.__all__) == len(set(ngl.__all__))
    for name in ngl.__all__:
        assert getattr(ngl, name) is not None, name
    assert set(ngl.__all__) <= set(dir(ngl))
    with pytest.raises(AttributeError):
        ngl.no_such_name


def test_threads_flag_applies_before_numpy_loads(tmp_path):
    """``--threads`` must set the thread variables before numpy is imported."""
    script = textwrap.dedent("""
        import json, os, sys

        VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
        seen = []

        class Recorder:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not seen:
                    seen.append({v: os.environ.get(v) for v in VARS})
                return None

        sys.meta_path.insert(0, Recorder())
        import ngl.cli
        loaded_early = "numpy" in sys.modules
        code = ngl.cli.main(sys.argv[1:])
        print(json.dumps({"loaded_early": loaded_early, "code": code,
                          "seen": seen}))
    """)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": {"grid_n": 32}, "eigen": {"count": 2}}))
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", script, "spectrum", "--threads", "3",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    assert result["loaded_early"] is False
    assert result["seen"] == [{"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": "3",
                               "MKL_NUM_THREADS": "3", "NUMEXPR_NUM_THREADS": "3"}]
