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
from functools import cached_property

from .errors import (ConfigError, ConstraintError, CorruptFileError, NglError,
                     ResolutionError)

DEFAULT_CONFIG = {
    "schema_version": 1,
    "metric": {"profile": "flat", "grid_n": 320, "params": {}},
    # no solve reads eigen.seed; --seed sets it, and it keys the cache
    "eigen": {"count": 20, "tol": 1e-8, "seed": 0},
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
_INT64_KEYS = tuple(
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
    # rapid places about 2.5e-4 / delta separated probes, each about 1.1 ms
    # (2-core x86-64): 25,000 probes at 1e-8, about half a minute, is the most
    ("schrodinger.delta", lambda v: v >= 1e-8,
     "schrodinger.delta must be at least 1e-8"),
    ("schrodinger.a", lambda v: 0 < v < 1.0 / 3.0,
     "schrodinger.a must lie in (0, 1/3)"),
    ("schrodinger.m_threshold", lambda v: v > 0,
     "schrodinger.m_threshold must be positive"),
    ("tiling.delta0", lambda v: v is None or v > 0,
     "tiling.delta0 must be null or a positive number"),
    # level 0 classifies (P's side / delta0)^2 squares at 9 probes each, and
    # a probe on the localized spline field takes about 1.7 ms (2-core
    # x86-64): 64 squares a side, about a minute, is the most it may ask
    ("tiling.delta0", lambda v: v is None or 64 * v >= (1 - 1e-12) / 30,
     "tiling.delta0 must be at least 1/30 / 64 (64 level-0 squares a side)"),
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
    # the weight's gradient term divides by delta^2: below 1e-12 the c1
    # check overflows to infinity (1e-30) or divides by zero (1e-300)
    ("carleman.delta", lambda v: v >= 1e-12,
     "carleman.delta must be at least 1e-12"),
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
    # the spectrum solves count + 1 pairs, at most grid_n^2 / 4 of them
    if count < 1 or count + 1 > grid_n * grid_n // 4:
        raise ConfigError("eigen.count must lie in [1, grid_n^2/4 - 1]")
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

    def __init__(self, command, config_hash, out_dir):
        import time
        self.command = command
        self.config_hash = config_hash
        self.out_dir = out_dir
        self.rows = []
        self.constants = {}
        self.artifacts = []
        self.timestamp = time.time()

    def artifact(self, name):
        """The path of the output file ``name``, which the record lists."""
        self.artifacts.append(name)
        return os.path.join(self.out_dir, name)

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
# the stages the commands share


def _build_metric(cfg, grid_n=None):
    from .surface import make_metric
    try:
        return make_metric(cfg["metric"]["profile"],
                           grid_n or cfg["metric"]["grid_n"],
                           **cfg["metric"]["params"])
    except ValueError as exc:   # an unknown profile or parameter, or q <= 0
        raise ConfigError(str(exc)) from exc


class Run:
    """The stages of one command, or of the ten commands of ``all``, each
    built at most once, on first use: the ``metric``, the ``spectrum``
    (solved, or read from the cache), its nonconstant ``pairs`` and their
    ``nodal_sets``, the ``pair`` that ``localize.index`` names (``index`` is
    its position in ``pairs``) and its ``pair_nodal_set``,
    ``growth(k0, selected)`` and the ``localized`` field of ``pair``."""

    def __init__(self, cfg, out_dir):
        self.cfg = cfg
        key = canonical_hash({"metric": cfg["metric"], "eigen": cfg["eigen"]})
        self.cache_dir = os.path.join(out_dir, "spectrum_cache", key[:16])
        self.cache_status = None   # hit, miss or recomputed, once loaded
        self._growth = {}

    @cached_property
    def metric(self):
        return _build_metric(self.cfg)

    def _cached_pairs(self, index):
        """The cached pairs 0 .. eigen.count (index None) or [the index-th
        nonconstant one], picked from index.json by ``EigenPair.is_constant``'s
        rule; None when index.json is missing, unreadable or short, or a file
        read is bad."""
        from .eigen import EigenPair, _LAMBDA_ZERO_TOL
        from .surface import TORUS, read_gfd
        count = self.cfg["eigen"]["count"]
        try:
            with open(os.path.join(self.cache_dir, "index.json"), "r",
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
                field = read_gfd(os.path.join(self.cache_dir, entry["file"]))
                if field.grid_n != self.metric.grid_n or field.domain != TORUS:
                    return None
                pairs.append(EigenPair(lam=float(entry["lambda"]), field=field,
                                       residual=float(entry["residual"])))
        except (OSError, ValueError, KeyError, TypeError, CorruptFileError):
            return None
        return pairs

    @cached_property
    def spectrum(self):
        """The configured spectrum, from the cache when it holds it; anything
        unreadable, short or of the wrong shape there is recomputed."""
        from .eigen import Spectrum, analytic_spectrum, solve_spectrum
        from .surface import write_gfd
        metric, eigen = self.metric, self.cfg["eigen"]
        index_path = os.path.join(self.cache_dir, "index.json")
        self.cache_status = "miss"
        if os.path.exists(index_path):
            pairs = self._cached_pairs(None)
            if pairs is not None:
                self.cache_status = "hit"
                return Spectrum(pairs=pairs, metric=metric)
            self.cache_status = "recomputed"
        if metric.is_flat and metric.q_plus == 1.0:   # the closed form
            spectrum = analytic_spectrum(metric.grid_n, eigen["count"])
            spectrum.metric = metric
        else:
            spectrum = solve_spectrum(metric, eigen["count"] + 1,
                                      tol=eigen["tol"])
        os.makedirs(self.cache_dir, exist_ok=True)
        index = []
        for k, pair in enumerate(spectrum.pairs[:eigen["count"] + 1]):
            name = f"eig_{k:03d}.gfd"
            write_gfd(pair.field, os.path.join(self.cache_dir, name))
            index.append({"lambda": pair.lam, "residual": pair.residual,
                          "file": name})
        _write_json(index, index_path)
        return spectrum

    @cached_property
    def pairs(self):
        return self.spectrum.nonconstant()

    @cached_property
    def index(self):
        """Position in ``pairs`` of the pair ``localize.index`` names; run()
        may take a config that was validated for no command in particular."""
        index, count = self.cfg["localize"]["index"], len(self.pairs)
        if not 1 <= index <= count:
            raise ConfigError(f"localize.index must lie in [1, {count}]")
        return index - 1

    @cached_property
    def pair(self):
        """The pair ``localize.index`` names: from ``pairs`` once the spectrum
        is loaded, otherwise from index.json and that pair's one cache file
        (the whole spectrum only when that read fails)."""
        if "spectrum" not in vars(self):
            cached = self._cached_pairs(self.cfg["localize"]["index"])
            if cached is not None:
                return cached[0]
        return self.pairs[self.index]

    @cached_property
    def nodal_sets(self):
        from .nodal import extract_nodal_set
        return [extract_nodal_set(pair.field) for pair in self.pairs]

    @cached_property
    def pair_nodal_set(self):
        """``pair``'s nodal set, taken from ``nodal_sets`` once they are built."""
        if "nodal_sets" in vars(self):
            return self.nodal_sets[self.index]
        from .nodal import extract_nodal_set
        return extract_nodal_set(self.pair.field)

    def growth(self, k0, selected):
        """``growth_fields`` at k0 of the pairs at the positions
        ``selected``: (centers, betas), betas in the order of ``selected``."""
        key = (k0, tuple(selected))
        if key not in self._growth:
            from .growth import growth_fields
            self._growth[key] = growth_fields(
                [self.pairs[k] for k in key[1]], self.metric, k0=k0,
                sample_grid_m=self.cfg["growth"]["sample_grid_m"])
        return self._growth[key]

    @cached_property
    def localized(self):
        from .schrodinger import localize
        loc = self.cfg["localize"]
        return localize(self.pair, self.metric, tuple(loc["p"]),
                        k0=self.cfg["growth"]["k0"], eps0=loc["eps0"],
                        planar_grid_n=loc["planar_grid_n"])


# --------------------------------------------------------------------------
# commands


def cmd_spectrum(run, record):
    for pair in run.spectrum:
        record.rows.append({"lambda": pair.lam, "residual": pair.residual})
    record.constants["spectrum_cache"] = run.cache_status
    _write_json(record.rows, record.artifact("spectrum.json"))


def cmd_nodal(run, record):
    from .nodal import (nodal_length, singular_points, segments_to_csv,
                        singular_points_to_csv)
    from .svg import nodal_svg
    index = run.index
    for k, (pair, ns) in enumerate(zip(run.pairs, run.nodal_sets)):
        e_len, m_len = nodal_length(ns, run.metric)
        record.rows.append({"lambda": pair.lam, "euclidean_length": e_len,
                            "metric_length": m_len, "segments": len(ns)})
        if k == index:
            pts = singular_points(pair.field)
            segments_to_csv(ns, record.artifact("nodal_segments.csv"))
            singular_points_to_csv(pts, record.artifact("singular_points.csv"))
            nodal_svg(ns, record.artifact("nodal.svg"), singular=pts)
    _write_json(record.rows, record.artifact("nodal_lengths.json"))


def cmd_growth(run, record):
    from .growth import average_local_growth, growth_samples_to_csv
    index = run.index   # checked before the growth pass
    centers, betas = run.growth(run.cfg["growth"]["k0"], range(len(run.pairs)))
    for pair, row in zip(run.pairs, betas):
        avg = average_local_growth(row, centers, run.metric)
        record.rows.append({"lambda": pair.lam, "A": avg,
                            "beta_max": float(row.max())})
    growth_samples_to_csv(centers, betas[index],
                          record.artifact("growth_field.csv"))
    _write_json(record.rows, record.artifact("growth.json"))


def cmd_thm1(run, record):
    from .growth import (LengthGrowthReport, disk_grid_need,
                         donnelly_fefferman_constant, length_growth_row,
                         quartile_trend_ratio, report_to_csv)
    from .svg import scatter_svg
    metric, growth = run.metric, run.cfg["growth"]
    for i, k0 in enumerate([growth["k0"]] + list(growth["k0_sweep"])):
        # a k0_sweep entry keeps the pairs whose wavelength disks it resolves
        selected = [k for k, pair in enumerate(run.pairs) if i == 0
                    or metric.grid_n >= disk_grid_need(pair.lam, metric, k0)]
        if not selected:
            raise ResolutionError(f"growth.k0_sweep entry {k0:g} resolves no "
                                  f"eigenfunction; increase metric.grid_n")
        centers, betas = run.growth(k0, selected)
        rep = LengthGrowthReport(
            rows=[length_growth_row(metric, run.pairs[k], run.nodal_sets[k],
                                    centers, row)
                  for k, row in zip(selected, betas)],
            k0=k0, sample_grid_m=growth["sample_grid_m"])
        suffix = "" if i == 0 else f"_k0_{k0:g}".replace(".", "p")
        report_to_csv(rep, record.artifact(f"thm1_table{suffix}.csv"))
        summary = rep.summary()
        summary["k0"] = k0
        summary["df_constant"] = donnelly_fefferman_constant(rep)
        summary["quartile_trend"] = quartile_trend_ratio(rep)
        record.rows.append(summary)
        if i == 0:
            scatter_svg([r.lam for r in rep.rows],
                        [r.average_growth for r in rep.rows],
                        record.artifact("growth_vs_lambda.svg"))
    _write_json(record.rows, record.artifact("thm1_summary.json"))


def cmd_localize(run, record):
    from .surface import write_gfd
    pf = run.localized
    write_gfd(pf.field, record.artifact("localized_field.gfd"))
    write_gfd(pf.potential, record.artifact("localized_potential.gfd"))
    record.rows.append({"lambda": run.pair.lam, "residual": pf.residual,
                        "potential_sup": pf.meta["potential_sup"],
                        "scale": pf.meta["scale"]})
    _write_json(record.rows, record.artifact("localize.json"))


def cmd_tile(run, record):
    from .nodal import extract_nodal_set
    from .schrodinger import core_field
    from .svg import tiling_svg
    from .tiling import (level_counts, run_tiling, slow_square_budgets,
                         tiling_to_csv, total_bound_report)
    cfg, pf = run.cfg, run.localized
    state = run_tiling(pf, delta0=cfg["tiling"]["delta0"],
                       m_threshold=cfg["schrodinger"]["m_threshold"],
                       a=cfg["schrodinger"]["a"], k_max=cfg["tiling"]["k_max"])
    core = core_field(pf, grid_n=cfg["tiling"]["core_grid_n"])
    ns = extract_nodal_set(core)
    rep = total_bound_report(state, ns)
    budgets = slow_square_budgets(state, ns)
    tiling_to_csv(state, record.artifact("tiling.csv"))
    tiling_svg(state, record.artifact("tiling.svg"), nodal_set=ns)
    record.rows = level_counts(state)
    record.constants.update({
        "beta_star": state.beta_star,
        "h1_core_disk": rep.h1_core_disk,
        "total_ratio": rep.ratio,
        "reconstruction_rel_err": rep.reconstruction_rel_err,
        "uncovered_area": float(state.rapid_area()),
        "max_slow_budget_ratio": max((b["ratio"] for b in budgets),
                                     default=0.0),
        "capped": state.capped,
    })
    _write_json({"levels": record.rows, "constants": record.constants},
                record.artifact("tiling_report.json"))


def cmd_rapid(run, record):
    from .schrodinger import count_rapid_disks, rapid_rows_to_csv
    from .svg import disk_config_svg
    sc = run.cfg["schrodinger"]
    rep = count_rapid_disks(run.localized, sc["delta"], sc["m_threshold"],
                            a=sc["a"])
    rapid_rows_to_csv(rep, record.artifact("rapid_disks.csv"))
    disk_config_svg(rep.rows, record.artifact("disk_config.svg"), sc["delta"])
    record.constants.update({"n_rapid": rep.n_rapid, "n_probes": rep.n_probes,
                             "beta_star": rep.beta_star, "ratio": rep.ratio})
    _write_json(record.constants, record.artifact("rapid_report.json"))


def cmd_crofton(run, record):
    from .crofton import (circle_count_length, crofton_consistency,
                          disk_average_length, synthetic_circle,
                          synthetic_segment)
    c = run.cfg["crofton"]
    curve_kind = c["curve"]
    if curve_kind == "segment":
        curve = synthetic_segment()
    elif curve_kind == "circle":
        curve = synthetic_circle()
    else:   # eigenfunction
        curve = run.pair_nodal_set
    fn = disk_average_length if c["kernel"] == "disk" else circle_count_length
    est = fn(curve, c["r"], c["samples"], seed=c["seed"])
    out = {"value": est.value, "stderr": est.stderr, "samples": est.samples}
    record.constants.update(out)
    if curve_kind == "eigenfunction":
        record.constants["consistency"] = crofton_consistency(
            curve, r=c["r"], samples=c["samples"], seed=c["seed"],
            disk=est if c["kernel"] == "disk" else None)
    _write_json(record.constants, record.artifact("crofton.json"))


def cmd_harmonic(run, record):
    import numpy as np
    from .harmonic import (CircleTrace, growth_vs_signs_check,
                           robertson_constant, trace_from_function)
    hc = run.cfg["harmonic"]
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
    _write_json(record.constants, record.artifact("harmonic_report.json"))


def cmd_carleman(run, record):
    import numpy as np
    from .carleman import (build_psi0, build_weight, c1_test_family,
                           carleman_c1_check, check_subharmonic_inequality,
                           random_test_field)
    cc = run.cfg["carleman"]
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
    _write_json(reports, record.artifact("carleman_report.json"))


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
    stages = Run(cfg, out_dir)
    record = ResultRecord(command, canonical_hash(cfg), out_dir)
    if command == "all":
        # the ten commands share one run; the patch check right after the
        # spectrum fails before any growth pass
        stages.spectrum
        stages.localized
        for sub in COMMANDS[:-1]:
            sub_record = ResultRecord(sub, record.config_hash, out_dir)
            _COMMAND_FNS[sub](stages, sub_record)
            record.rows.append({sub: sub_record.to_json()})
        name = "record.json"
    else:
        _COMMAND_FNS[command](stages, record)
        name = f"record_{command}.json"
    _write_json(record.to_json(), os.path.join(out_dir, name))
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
