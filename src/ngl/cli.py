"""Experiment orchestration: configs, pipelines, result persistence, plots.

Commands: spectrum, nodal, growth, thm1, localize, tile, rapid, crofton,
harmonic, carleman, all.  Configuration is a versioned JSON document merged
over defaults and validated up front; reruns with the same config and seed
are byte-identical in single-threaded mode (exit codes: 0 success, 2 invalid
configuration, 3 numerical failure).

numpy is imported lazily so that --threads can pin the BLAS thread count
before anything numerical loads.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import sys

from .errors import (ConfigError, ConstraintError, CorruptFileError, NglError,
                     ResolutionError)

DEFAULT_CONFIG = {
    "schema_version": 1,
    "metric": {"profile": "flat", "grid_n": 320, "params": {}},
    "eigen": {"count": 20, "tol": 1e-8, "seed": 0, "maxiter": None},
    "growth": {"k0": 0.5, "sample_grid_m": 64, "k0_sweep": []},
    "localize": {"p": [0.0, 0.0], "eps0": 0.1, "planar_grid_n": 1024,
                 "index": 2},
    "schrodinger": {"a": 0.1, "m_threshold": 10.0, "delta": 1e-4},
    "tiling": {"delta0": None, "k_max": 8, "core_grid_n": 1025},
    "crofton": {"kernel": "disk", "r": 0.05, "samples": 100000, "seed": 0,
                "curve": "segment"},
    "harmonic": {"r0": 0.25, "n_traces": 100, "max_degree": 10, "seed": 0},
    "carleman": {"a": 0.1, "t_values": [1.0, 5.0, 20.0], "pairs": 60,
                 "seed": 0, "delta": 1e-3, "n_centers": 3},
    "output": {"dir": "out"},
}

COMMANDS = ("spectrum", "nodal", "growth", "thm1", "localize", "tile",
            "rapid", "crofton", "harmonic", "carleman", "all")


def deep_merge(base, override):
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def canonical_hash(cfg) -> str:
    """Hash of the semantic config: key order and the output location are
    presentation details and do not participate."""
    stripped = {k: v for k, v in cfg.items() if k != "output"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _check_schema(cfg, default, where=""):
    """Reject keys the defaults do not have, leaves whose type does not match
    the default's, non-finite numbers and, where a float is expected,
    integers beyond the float range; ``metric.params`` is checked per profile
    (``surface.make_metric``)."""
    for key, val in cfg.items():
        name = where + key
        if key not in default:
            raise ConfigError(f"unknown config key {name!r}")
        ref = default[key]
        if isinstance(ref, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{name} must be an object")
            if name != "metric.params":
                _check_schema(val, ref, name + ".")
            continue
        if isinstance(ref, str):
            ok = isinstance(val, str)
        elif isinstance(ref, int):
            ok = isinstance(val, int) and not isinstance(val, bool)
        elif isinstance(ref, list):
            ok = isinstance(val, list) and all(_is_number(v) for v in val)
        else:   # float, or None standing for an optional number
            ok = _is_number(val) or (ref is None and val is None)
        if not ok:
            raise ConfigError(f"{name} has the wrong type: {val!r}")
        values = val if isinstance(val, list) else [val]
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ConfigError(f"{name} must be finite: {val!r}")
        if not isinstance(ref, int) and any(
                isinstance(v, int) and abs(v) > sys.float_info.max
                for v in values):
            raise ConfigError(f"{name} must lie within the float range")


def load_config(path=None, overrides=None, command=None):
    user = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                user = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
        except ValueError as exc:   # also an integer literal too long to parse
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"{path} must hold a JSON object")
    cfg = deep_merge(DEFAULT_CONFIG, user)
    if overrides:
        cfg = deep_merge(cfg, overrides)
    _check_schema(cfg, DEFAULT_CONFIG)
    validate_config(cfg, command=command)
    return cfg


_GROWTH_COMMANDS = ("growth", "thm1", "all")
_LOCALIZE_COMMANDS = ("localize", "tile", "rapid", "all")
# commands that write the per-pair files of the pair localize.index names
_INDEX_COMMANDS = ("nodal", "growth") + _LOCALIZE_COMMANDS

# integer keys but the seeds, which are uint64 and have their own rule
_INT64_KEYS = ("eigen.maxiter",) + tuple(
    f"{section}.{key}" for section, keys in DEFAULT_CONFIG.items()
    if isinstance(keys, dict)
    for key, ref in keys.items() if type(ref) is int and key != "seed")

# (dotted key, predicate, one-line message), checked in order for every
# command; a value of the wrong type never gets here (_check_schema)
_RULES = (
    # numpy would turn a wider integer into an error that names no key
    *((key, lambda v: v is None or -2 ** 63 <= v < 2 ** 63,
       f"{key} must lie within the int64 range") for key in _INT64_KEYS),
    ("metric.grid_n", lambda v: v >= 16, "metric.grid_n must be at least 16"),
    ("eigen.tol", lambda v: v >= 1e-10, "eigen.tol must be at least 1e-10"),
    ("eigen.maxiter", lambda v: v is None or (type(v) is int and v >= 1),
     "eigen.maxiter must be null or an integer of at least 1"),
    ("growth.k0", lambda v: v > 0, "growth.k0 must be positive"),
    ("growth.k0_sweep", lambda v: all(k > 0 for k in v),
     "growth.k0_sweep entries must be positive"),
    # the surface average needs at least 2 x 2 centers
    ("growth.sample_grid_m", lambda v: v >= 2,
     "growth.sample_grid_m must be at least 2"),
    ("localize.p", lambda v: len(v) == 2, "localize.p must hold 2 numbers"),
    ("localize.planar_grid_n", lambda v: v >= 16,
     "localize.planar_grid_n must be at least 16"),
    ("schrodinger.delta", lambda v: 0 < v < 1.0 / 60.0,
     "schrodinger.delta must lie in (0, 1/60)"),
    ("schrodinger.a", lambda v: 0 < v < 1.0 / 3.0,
     "schrodinger.a must lie in (0, 1/3)"),
    ("schrodinger.m_threshold", lambda v: v > 0,
     "schrodinger.m_threshold must be positive"),
    ("tiling.delta0", lambda v: v is None or v > 0,
     "tiling.delta0 must be null or a positive number"),
    ("tiling.k_max", lambda v: v >= 0, "tiling.k_max must be at least 0"),
    ("tiling.core_grid_n", lambda v: v >= 16,
     "tiling.core_grid_n must be at least 16"),
    ("crofton.samples", lambda v: v >= 2, "crofton.samples must be at least 2"),
    *((f"{module}.seed", lambda v: 0 <= v < 2 ** 64,
       f"{module}.seed must lie in [0, 2^64)")
      for module in ("eigen", "crofton", "harmonic", "carleman")),
    ("crofton.r", lambda v: v > 0, "crofton.r must be positive"),
    ("crofton.kernel", lambda v: v in ("disk", "circle"),
     "crofton.kernel must be disk or circle"),
    ("crofton.curve", lambda v: v in ("segment", "circle", "eigenfunction"),
     "crofton.curve must be segment, circle or eigenfunction"),
    ("harmonic.r0", lambda v: 0 < v < 0.5, "harmonic.r0 must lie in (0, 1/2)"),
    ("harmonic.n_traces", lambda v: v >= 1, "harmonic.n_traces must be positive"),
    ("harmonic.max_degree", lambda v: v >= 1,
     "harmonic.max_degree must be at least 1"),
    ("carleman.pairs", lambda v: v >= 1, "carleman.pairs must be positive"),
    ("carleman.n_centers", lambda v: v >= 1,
     "carleman.n_centers must be at least 1"),
    ("carleman.t_values", lambda v: len(v) > 0,
     "carleman.t_values must not be empty"),
    ("carleman.delta", lambda v: v > 0, "carleman.delta must be positive"),
    ("output.dir", lambda v: v != "", "output.dir must not be empty"),
)


def validate_config(cfg, command=None):
    if cfg.get("schema_version") != 1:
        raise ConfigError("unsupported schema_version")
    for key, ok, message in _RULES:
        section, name = key.split(".")
        if not ok(cfg[section][name]):
            raise ConfigError(message)
    grid_n = cfg["metric"]["grid_n"]
    count = cfg["eigen"]["count"]
    if count < 1 or count > grid_n * grid_n // 4:
        raise ConfigError("eigen.count must lie in [1, grid_n^2/4]")
    # every profile attains its extremes q- and q+ on the 16-point grid
    probe = _build_metric(cfg, grid_n=16)
    k0 = cfg["growth"]["k0"]
    needs = []   # (nonconstant mode index, grid_n formula, what it resolves)
    if command in _GROWTH_COMMANDS:
        from .growth import disk_grid_need
        needs.append((count, disk_grid_need,
                      f"wavelength disks for {count} modes at k0 = {k0}"))
    index = cfg["localize"]["index"]
    indexed = command in _INDEX_COMMANDS or (
        command == "crofton" and cfg["crofton"]["curve"] == "eigenfunction")
    if indexed and not 1 <= index <= count:
        # checked before flat_modes, whose enumeration grows with the index
        raise ConfigError(f"localize.index must lie in [1, {count}]")
    if command in _LOCALIZE_COMMANDS:
        from .schrodinger import patch_grid_need
        needs.append((index, patch_grid_need,
                      f"the rescaled patch for localize.index = {index}"))
    for k, grid_need, what in needs:
        from .eigen import flat_modes
        m, n, _ = flat_modes(k)[-1]
        # min-max: lambda_k >= mu_k / q+, mu_k the k-th flat-torus eigenvalue;
        # the pipeline checks the solved lambda_k with the same formula
        need = grid_need(4 * math.pi ** 2 * (m * m + n * n) / probe.q_plus,
                         probe, k0)
        if grid_n < need:
            raise ConfigError(f"grid_n = {grid_n} cannot resolve {what}; "
                              f"need grid_n >= {math.ceil(need)}")


# --------------------------------------------------------------------------
# records and writers


class ResultRecord:
    """Collected outputs of one command run.

    The wall-clock timestamp lives only on the in-memory object; serialized
    artifacts must be byte-identical across reruns.
    """

    def __init__(self, command, config_hash):
        import time
        self.command = command
        self.config_hash = config_hash
        self.rows = []
        self.constants = {}
        self.artifacts = []
        self.timestamp = time.time()

    def add_artifact(self, path, out_dir):
        self.artifacts.append(os.path.relpath(path, out_dir))

    def to_json(self):
        return {
            "command": self.command,
            "config_hash": self.config_hash,
            "constants": self.constants,
            "rows": self.rows,
            "artifacts": sorted(self.artifacts),
        }


def _write_json(obj, path):
    # write aside, then rename: a reader never sees a half-written file
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="ascii") as f:
        json.dump(obj, f, sort_keys=True, indent=1)
        f.write("\n")
    os.replace(tmp, path)


# --------------------------------------------------------------------------
# shared pipeline pieces


def _build_metric(cfg, grid_n=None):
    from .surface import make_metric
    try:
        return make_metric(cfg["metric"]["profile"],
                           grid_n or cfg["metric"]["grid_n"],
                           **cfg["metric"]["params"])
    except ValueError as exc:   # an unknown profile or parameter, or q <= 0
        raise ConfigError(str(exc)) from exc


def _cache_dir(cfg, out_dir):
    key = canonical_hash({"metric": cfg["metric"], "eigen": cfg["eigen"]})
    return os.path.join(out_dir, "spectrum_cache", key[:16])


def _cached_pairs(cache_dir, metric, count, index):
    """The cached pairs 0 .. count (index None) or [the index-th nonconstant
    one], picked from index.json by ``EigenPair.is_constant``'s rule; None
    when index.json is missing, unreadable or short, or a file read is bad."""
    from .eigen import EigenPair, _LAMBDA_ZERO_TOL
    from .surface import TORUS, read_gfd
    try:
        with open(os.path.join(cache_dir, "index.json"), "r",
                  encoding="ascii") as f:
            entries = json.load(f)[:count + 1]
        if len(entries) < count + 1:
            return None
        if index is not None:
            entries = [e for e in entries
                       if not float(e["lambda"]) <= _LAMBDA_ZERO_TOL]
            if not 1 <= index <= len(entries):
                return None
            entries = [entries[index - 1]]
        pairs = []
        for entry in entries:
            field = read_gfd(os.path.join(cache_dir, entry["file"]))
            if field.grid_n != metric.grid_n or field.domain != TORUS:
                return None
            pairs.append(EigenPair(lam=float(entry["lambda"]), field=field,
                                   residual=float(entry["residual"])))
    except (OSError, ValueError, KeyError, TypeError, CorruptFileError):
        return None
    return pairs


def _get_spectrum(cfg, out_dir, record=None):
    """Solve (or load from cache) the configured spectrum."""
    from .eigen import Spectrum, analytic_spectrum, solve_spectrum
    from .surface import write_gfd

    metric = _build_metric(cfg)
    cache_dir = _cache_dir(cfg, out_dir)
    index_path = os.path.join(cache_dir, "index.json")
    count = cfg["eigen"]["count"]
    status = "miss"
    if os.path.exists(index_path):
        # anything unreadable, short or of the wrong shape is recomputed
        pairs = _cached_pairs(cache_dir, metric, count, None)
        if pairs is not None:
            if record is not None:
                record.constants["spectrum_cache"] = "hit"
            return metric, Spectrum(pairs=pairs, metric=metric)
        status = "recomputed"
    if metric.is_flat and metric.q_plus == 1.0:   # the closed form solves it
        spectrum = analytic_spectrum(metric.grid_n, count)
        spectrum.metric = metric
    else:
        spectrum = solve_spectrum(metric, count + 1, tol=cfg["eigen"]["tol"],
                                  seed=cfg["eigen"]["seed"],
                                  maxiter=cfg["eigen"]["maxiter"])
    os.makedirs(cache_dir, exist_ok=True)
    index = []
    for k, pair in enumerate(spectrum.pairs[:count + 1]):
        name = f"eig_{k:03d}.gfd"
        write_gfd(pair.field, os.path.join(cache_dir, name))
        index.append({"lambda": pair.lam, "residual": pair.residual,
                      "file": name})
    _write_json(index, index_path)
    if record is not None:
        record.constants["spectrum_cache"] = status
    return metric, spectrum


def _indexed_pair(cfg, spectrum):
    """The nonconstant eigenpair that ``localize.index`` names."""
    idx = cfg["localize"]["index"]
    nonconst = spectrum.nonconstant()
    if not (1 <= idx <= len(nonconst)):
        raise ConfigError(f"localize.index must lie in [1, {len(nonconst)}]")
    return nonconst[idx - 1]


def _get_indexed_pair(cfg, out_dir):
    """(metric, the pair ``localize.index`` names): on a cache hit read from
    index.json and that pair's one file, otherwise from ``_get_spectrum``."""
    metric = _build_metric(cfg)
    pairs = _cached_pairs(_cache_dir(cfg, out_dir), metric,
                          cfg["eigen"]["count"], cfg["localize"]["index"])
    if pairs is not None:
        return metric, pairs[0]
    metric, spectrum = _get_spectrum(cfg, out_dir)
    return metric, _indexed_pair(cfg, spectrum)


def _localized_field(cfg, out_dir):
    from .schrodinger import localize
    metric, pair = _get_indexed_pair(cfg, out_dir)
    return pair, localize(pair, metric, tuple(cfg["localize"]["p"]),
                          k0=cfg["growth"]["k0"], eps0=cfg["localize"]["eps0"],
                          planar_grid_n=cfg["localize"]["planar_grid_n"])


# --------------------------------------------------------------------------
# commands


def cmd_spectrum(cfg, out_dir, record):
    metric, spectrum = _get_spectrum(cfg, out_dir, record)
    for pair in spectrum:
        record.rows.append({"lambda": pair.lam, "residual": pair.residual})
    path = os.path.join(out_dir, "spectrum.json")
    _write_json(record.rows, path)
    record.add_artifact(path, out_dir)


def cmd_nodal(cfg, out_dir, record):
    from .nodal import (extract_nodal_set, nodal_length, singular_points,
                        segments_to_csv, singular_points_to_csv)
    from .svg import nodal_svg
    metric, spectrum = _get_spectrum(cfg, out_dir)
    idx = cfg["localize"]["index"]
    _indexed_pair(cfg, spectrum)   # a run() that skipped validate_config
    for k, pair in enumerate(spectrum.nonconstant()):
        ns = extract_nodal_set(pair.field)
        e_len, m_len = nodal_length(ns, metric)
        record.rows.append({"lambda": pair.lam, "euclidean_length": e_len,
                            "metric_length": m_len, "segments": len(ns)})
        if k + 1 == idx:
            pts = singular_points(pair.field)
            seg_path = os.path.join(out_dir, "nodal_segments.csv")
            segments_to_csv(ns, seg_path)
            record.add_artifact(seg_path, out_dir)
            pts_path = os.path.join(out_dir, "singular_points.csv")
            singular_points_to_csv(pts, pts_path)
            record.add_artifact(pts_path, out_dir)
            svg_path = os.path.join(out_dir, "nodal.svg")
            nodal_svg(ns, svg_path, singular=pts)
            record.add_artifact(svg_path, out_dir)
    path = os.path.join(out_dir, "nodal_lengths.json")
    _write_json(record.rows, path)
    record.add_artifact(path, out_dir)


def cmd_growth(cfg, out_dir, record):
    from .growth import (average_local_growth, growth_fields,
                         growth_samples_to_csv)
    metric, spectrum = _get_spectrum(cfg, out_dir)
    k0 = cfg["growth"]["k0"]
    m = cfg["growth"]["sample_grid_m"]
    idx = cfg["localize"]["index"]
    _indexed_pair(cfg, spectrum)   # a run() that skipped validate_config
    pairs = spectrum.nonconstant()
    centers, betas = growth_fields(pairs, metric, k0=k0, sample_grid_m=m)
    for pair, row in zip(pairs, betas):
        avg = average_local_growth(row, centers, metric)
        record.rows.append({"lambda": pair.lam, "A": avg,
                            "beta_max": float(row.max())})
    path = os.path.join(out_dir, "growth_field.csv")
    growth_samples_to_csv(centers, betas[idx - 1], path)
    record.add_artifact(path, out_dir)
    path = os.path.join(out_dir, "growth.json")
    _write_json(record.rows, path)
    record.add_artifact(path, out_dir)


def cmd_thm1(cfg, out_dir, record):
    from .growth import (donnelly_fefferman_constant, quartile_trend_ratio,
                         report_to_csv, verify_length_growth_bound)
    from .svg import scatter_svg
    metric, spectrum = _get_spectrum(cfg, out_dir)
    k0_values = [cfg["growth"]["k0"]] + list(cfg["growth"]["k0_sweep"])
    for i, k0 in enumerate(k0_values):
        rep = verify_length_growth_bound(metric, spectrum, k0=k0,
                                         sample_grid_m=cfg["growth"]["sample_grid_m"],
                                         skip_unresolved=(i > 0))
        if not rep.rows:
            raise ResolutionError(f"growth.k0_sweep entry {k0:g} resolves no "
                                  f"eigenfunction; increase metric.grid_n")
        suffix = "" if i == 0 else f"_k0_{k0:g}".replace(".", "p")
        csv_path = os.path.join(out_dir, f"thm1_table{suffix}.csv")
        report_to_csv(rep, csv_path)
        record.add_artifact(csv_path, out_dir)
        summary = rep.summary()
        summary["k0"] = k0
        summary["df_constant"] = donnelly_fefferman_constant(rep)
        summary["quartile_trend"] = quartile_trend_ratio(rep)
        record.rows.append(summary)
        if i == 0:
            svg_path = os.path.join(out_dir, "growth_vs_lambda.svg")
            scatter_svg([r.lam for r in rep.rows],
                        [r.average_growth for r in rep.rows], svg_path)
            record.add_artifact(svg_path, out_dir)
    path = os.path.join(out_dir, "thm1_summary.json")
    _write_json(record.rows, path)
    record.add_artifact(path, out_dir)


def cmd_localize(cfg, out_dir, record):
    from .surface import write_gfd
    pair, pf = _localized_field(cfg, out_dir)
    f_path = os.path.join(out_dir, "localized_field.gfd")
    write_gfd(pf.field, f_path)
    record.add_artifact(f_path, out_dir)
    q_path = os.path.join(out_dir, "localized_potential.gfd")
    write_gfd(pf.potential, q_path)
    record.add_artifact(q_path, out_dir)
    record.rows.append({"lambda": pair.lam, "residual": pf.residual,
                        "potential_sup": pf.meta["potential_sup"],
                        "scale": pf.meta["scale"]})
    path = os.path.join(out_dir, "localize.json")
    _write_json(record.rows, path)
    record.add_artifact(path, out_dir)


def cmd_tile(cfg, out_dir, record):
    from .nodal import extract_nodal_set, singular_points
    from .schrodinger import core_field
    from .svg import tiling_svg
    from .tiling import (coverage_check, level_counts, run_tiling,
                         slow_square_budgets, tiling_to_csv, total_bound_report)
    _, pf = _localized_field(cfg, out_dir)
    state = run_tiling(pf, delta0=cfg["tiling"]["delta0"],
                       m_threshold=cfg["schrodinger"]["m_threshold"],
                       a=cfg["schrodinger"]["a"], k_max=cfg["tiling"]["k_max"])
    core = core_field(pf, grid_n=cfg["tiling"]["core_grid_n"])
    ns = extract_nodal_set(core)
    rep = total_bound_report(state, ns)
    budgets = slow_square_budgets(state, ns)
    coverage = coverage_check(state, singular_points(core))
    csv_path = os.path.join(out_dir, "tiling.csv")
    tiling_to_csv(state, csv_path)
    record.add_artifact(csv_path, out_dir)
    svg_path = os.path.join(out_dir, "tiling.svg")
    tiling_svg(state, svg_path, nodal_set=ns)
    record.add_artifact(svg_path, out_dir)
    record.rows = level_counts(state)
    record.constants.update({
        "beta_star": state.beta_star,
        "h1_core_disk": rep.h1_core_disk,
        "total_ratio": rep.ratio,
        "reconstruction_rel_err": rep.reconstruction_rel_err,
        "uncovered_area": float(coverage.uncovered_area),
        "max_slow_budget_ratio": max((b["ratio"] for b in budgets),
                                     default=0.0),
        "capped": state.capped,
    })
    path = os.path.join(out_dir, "tiling_report.json")
    _write_json({"levels": record.rows, "constants": record.constants}, path)
    record.add_artifact(path, out_dir)


def cmd_rapid(cfg, out_dir, record):
    from .schrodinger import count_rapid_disks, rapid_rows_to_csv
    from .svg import disk_config_svg
    _, pf = _localized_field(cfg, out_dir)
    rep = count_rapid_disks(pf, cfg["schrodinger"]["delta"],
                            cfg["schrodinger"]["m_threshold"],
                            a=cfg["schrodinger"]["a"])
    csv_path = os.path.join(out_dir, "rapid_disks.csv")
    rapid_rows_to_csv(rep, csv_path)
    record.add_artifact(csv_path, out_dir)
    svg_path = os.path.join(out_dir, "disk_config.svg")
    disk_config_svg(rep.rows, svg_path, cfg["schrodinger"]["delta"])
    record.add_artifact(svg_path, out_dir)
    record.constants.update({"n_rapid": rep.n_rapid, "n_probes": rep.n_probes,
                             "beta_star": rep.beta_star, "ratio": rep.ratio})
    path = os.path.join(out_dir, "rapid_report.json")
    _write_json(record.constants, path)
    record.add_artifact(path, out_dir)


def cmd_crofton(cfg, out_dir, record):
    from .crofton import (circle_count_length, crofton_consistency,
                          disk_average_length, synthetic_circle,
                          synthetic_segment)
    c = cfg["crofton"]
    curve_kind = c["curve"]
    if curve_kind == "segment":
        curve = synthetic_segment()
    elif curve_kind == "circle":
        curve = synthetic_circle()
    else:   # eigenfunction
        from .nodal import extract_nodal_set
        curve = extract_nodal_set(_get_indexed_pair(cfg, out_dir)[1].field)
    fn = disk_average_length if c["kernel"] == "disk" else circle_count_length
    est = fn(curve, c["r"], c["samples"], seed=c["seed"])
    out = {"value": est.value, "stderr": est.stderr, "samples": est.samples}
    record.constants.update(out)
    if curve_kind == "eigenfunction":
        record.constants["consistency"] = crofton_consistency(
            curve, r=c["r"], samples=c["samples"], seed=c["seed"],
            disk=est if c["kernel"] == "disk" else None)
    path = os.path.join(out_dir, "crofton.json")
    _write_json(record.constants, path)
    record.add_artifact(path, out_dir)


def cmd_harmonic(cfg, out_dir, record):
    import numpy as np
    from .harmonic import (CircleTrace, growth_vs_signs_check,
                           robertson_constant, trace_from_function)
    hc = cfg["harmonic"]
    rng = np.random.Generator(np.random.Philox(key=hc["seed"]))
    all_hold = True
    worst = None
    for _ in range(hc["n_traces"]):
        deg = int(rng.integers(1, hc["max_degree"] + 1))
        coef_a = rng.normal(size=deg + 1)
        coef_b = rng.normal(size=deg + 1)
        th = np.arange(512) * (2 * np.pi / 512)
        vals = np.zeros_like(th)
        for k in range(deg + 1):
            vals += coef_a[k] * np.cos(k * th) + coef_b[k] * np.sin(k * th)
        rep = growth_vs_signs_check(CircleTrace(vals), hc["r0"])
        all_hold &= rep.holds
        gap = rep.rhs_log - math.log(max(rep.lhs_ratio, 1e-300))
        if worst is None or gap < worst:
            worst = gap
    for n in range(1, 11):
        tr = trace_from_function(lambda x, y, n=n: np.real((x + 1j * y) ** n))
        rep = growth_vs_signs_check(tr, hc["r0"])
        all_hold &= rep.holds
    record.constants.update({
        "sweep_holds": bool(all_hold),
        "min_log_gap": worst,
        "robertson": [{"p": p, "value": robertson_constant(p).value}
                      for p in range(0, 8)],
    })
    path = os.path.join(out_dir, "harmonic_report.json")
    _write_json(record.constants, path)
    record.add_artifact(path, out_dir)


def cmd_carleman(cfg, out_dir, record):
    import numpy as np
    from .carleman import (build_psi0, build_weight, c1_test_family,
                           carleman_c1_check, check_subharmonic_inequality,
                           random_test_field)
    cc = cfg["carleman"]
    a = cc["a"]
    radial = build_psi0(a)
    centers = [(0.01 * math.cos(t), 0.01 * math.sin(t))
               for t in [2 * math.pi * k / cc["n_centers"]
                         for k in range(cc["n_centers"])]]
    reports = []
    pairs_per = max(1, cc["pairs"] // (2 * len(cc["t_values"])))
    min_margin = math.inf
    k = 0
    for t in cc["t_values"]:
        for cs in ((), tuple(centers)):
            weight = build_weight(cs, cc["delta"], a=a, t=t, radial=radial)
            for _ in range(pairs_per):
                rng = np.random.Generator(np.random.Philox(key=(cc["seed"], k)))
                u = random_test_field(rng, weight=weight)
                rep = check_subharmonic_inequality(u, weight)
                min_margin = min(min_margin, rep.margin / rep.scale)
                k += 1
    reports.append({"inequality": "weighted-dbar-lower-bound",
                    "family_size": k, "min_margin": min_margin,
                    "empirical_constant": None})
    weight = build_weight(centers, cc["delta"], a=a, t=max(1.0, cc["t_values"][0]),
                          radial=radial)
    c10 = math.inf
    n_c1 = max(10, cc["pairs"] // 2)
    rng = np.random.Generator(np.random.Philox(key=(cc["seed"], 10_000)))
    for f in c1_test_family(rng, weight, n_c1):
        rep = carleman_c1_check(f, weight)
        if not rep.degenerate:
            c10 = min(c10, rep.empirical_constant)
    reports.append({"inequality": "carleman-laplacian",
                    "family_size": n_c1, "min_margin": None,
                    "empirical_constant": c10})
    record.rows = reports
    record.constants["ode_residual"] = radial.ode_residual
    path = os.path.join(out_dir, "carleman_report.json")
    _write_json(reports, path)
    record.add_artifact(path, out_dir)


_COMMAND_FNS = {
    "spectrum": cmd_spectrum,
    "nodal": cmd_nodal,
    "growth": cmd_growth,
    "thm1": cmd_thm1,
    "localize": cmd_localize,
    "tile": cmd_tile,
    "rapid": cmd_rapid,
    "crofton": cmd_crofton,
    "harmonic": cmd_harmonic,
    "carleman": cmd_carleman,
}


def run(command, cfg, out_dir=None) -> ResultRecord:
    """Execute one command; returns the record after writing its artifacts."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if out_dir is None:
        out_dir = cfg["output"]["dir"]
    os.makedirs(out_dir, exist_ok=True)
    record = ResultRecord(command, canonical_hash(cfg))
    if command == "all":
        for sub in COMMANDS[:-1]:
            sub_record = ResultRecord(sub, record.config_hash)
            _COMMAND_FNS[sub](cfg, out_dir, sub_record)
            record.rows.append({sub: sub_record.to_json()})
        record_path = os.path.join(out_dir, "record.json")
        _write_json(record.to_json(), record_path)
        return record
    _COMMAND_FNS[command](cfg, out_dir, record)
    record_path = os.path.join(out_dir, f"record_{command}.json")
    _write_json(record.to_json(), record_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ngl",
        description="nodal-set and growth-exponent laboratory")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every per-module seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS/OpenMP thread cap (set before numpy loads)")
    parser.add_argument("--kernel", choices=("disk", "circle"), default=None)
    parser.add_argument("--r", type=float, default=None,
                        help="crofton probe radius")
    parser.add_argument("--samples", type=int, default=None,
                        help="crofton sample count")
    args = parser.parse_args(argv)

    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    overrides = {}
    if args.seed is not None:
        overrides = {"eigen": {"seed": args.seed},
                     "crofton": {"seed": args.seed},
                     "harmonic": {"seed": args.seed},
                     "carleman": {"seed": args.seed}}
    for key in ("kernel", "r", "samples"):
        val = getattr(args, key)
        if val is not None:
            overrides.setdefault("crofton", {})[key] = val
    if args.out is not None:
        overrides.setdefault("output", {})["dir"] = args.out

    try:
        cfg = load_config(args.config, overrides, command=args.command)
        run(args.command, cfg)
    except (ConfigError, ConstraintError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NglError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
