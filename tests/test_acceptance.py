"""Acceptance gate: every numbered criterion runs at its stated tolerance
and prints one pass/fail line with the measured quantities."""

import os
import time

import numpy as np
import pytest

from ngl.carleman import (build_psi0, build_weight, c1_test_family,
                          carleman_c1_check, check_subharmonic_inequality,
                          random_test_field)
from ngl.crofton import (crofton_consistency, disk_average_length,
                         synthetic_segment, validate_circle_kinematic_constant)
from ngl.eigen import analytic_eigenpair, analytic_spectrum, solve_spectrum
from ngl.growth import (donnelly_fefferman_constant, growth_exponent,
                        quartile_trend_ratio, verify_length_growth_bound)
from ngl.harmonic import (CircleTrace, growth_vs_signs_check,
                          robertson_constant, trace_from_function)
from ngl.nodal import extract_nodal_set
from ngl.schrodinger import (beta_star, core_field, count_rapid_disks,
                             localize, planar_field_from_function)
from ngl.surface import GridField, PLANAR, make_metric
from ngl.tiling import run_tiling, total_bound_report, P_SIDE

from conftest import torus_field

LOG = []


def report(criterion, ok, detail):
    line = f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}"
    LOG.append(line)
    print(line)
    assert ok, line


# -------------------------------------------------------------------------
# 1. flat-torus spectrum accuracy and multiplicities


def test_criterion_01_flat_spectrum():
    t0 = time.perf_counter()
    metric = make_metric("flat", 256)
    spec = solve_spectrum(metric, 21, tol=1e-8)
    elapsed = time.perf_counter() - t0
    lams = np.array([p.lam for p in spec.pairs])
    shells = [1] * 4 + [2] * 4 + [4] * 4 + [5] * 8
    expected = 4 * np.pi ** 2 * np.array(shells)
    rel = np.abs(lams[1:] - expected) / expected
    mult1 = int(np.sum(np.abs(lams - 4 * np.pi ** 2) < 1e-3 * 4 * np.pi ** 2))
    mult2 = int(np.sum(np.abs(lams - 8 * np.pi ** 2) < 1e-3 * 8 * np.pi ** 2))
    ok = rel.max() < 0.01 and mult1 == 4 and mult2 == 4 and elapsed < 60
    report(1, ok, f"max rel err {rel.max():.2e}, multiplicities "
                  f"({mult1}, {mult2}), {elapsed:.1f} s")


# -------------------------------------------------------------------------
# 2. nodal length exactness


def test_criterion_02_nodal_lengths():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(1, 6):
        f = torus_field(lambda x, y, m=m: np.sin(2 * np.pi * m * x), 512)
        length = extract_nodal_set(f).euclidean_length
        worst = max(worst, abs(length - 2 * m) / (2 * m))
    n = 512
    h = 1.0 / (n - 1)
    coords = -0.5 + np.arange(n) * h
    x, y = np.meshgrid(coords, coords, indexing="ij")
    circle = GridField(x * x + y * y - 0.09, domain=PLANAR,
                       origin=(-0.5, -0.5), side=1.0)
    c_len = extract_nodal_set(circle).euclidean_length
    c_err = abs(c_len - 2 * np.pi * 0.3) / (2 * np.pi * 0.3)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and c_err < 5e-3 and elapsed < 10
    report(2, ok, f"sine err {worst:.2e}, circle err {c_err:.2e}, "
                  f"{elapsed:.1f} s")


# -------------------------------------------------------------------------
# 3. growth-exponent closed forms


def test_criterion_03_growth_closed_forms():
    t0 = time.perf_counter()
    worst_half = 0.0
    worst_alpha = 0.0
    for n in range(1, 11):
        fn = lambda x, y, n=n: np.hypot(np.asarray(x, dtype=float),
                                        np.asarray(y, dtype=float)) ** n
        worst_half = max(worst_half, abs(
            growth_exponent(fn, (0.0, 0.0), 1.0, 0.5) - n * np.log(2)))
        worst_alpha = max(worst_alpha, abs(
            growth_exponent(fn, (0.0, 0.0), 1.0, 0.2) - n * np.log(5)))
    elapsed = time.perf_counter() - t0
    ok = worst_half < 1e-6 and worst_alpha < 1e-6 and elapsed < 1.0
    report(3, ok, f"doubling err {worst_half:.2e}, alpha err "
                  f"{worst_alpha:.2e}, {elapsed:.2f} s")


# -------------------------------------------------------------------------
# 4/5/6. two-sided ratio table over the flat family


@pytest.fixture(scope="module")
def flat_family_report():
    metric = make_metric("flat", 640)
    spectrum = analytic_spectrum(640, 50)
    t0 = time.perf_counter()
    report_50 = verify_length_growth_bound(metric, spectrum, k0=0.5,
                                           sample_grid_m=64)
    elapsed = time.perf_counter() - t0
    return report_50, elapsed


def _spread(rows, key):
    vals = [getattr(r, key) for r in rows]
    return max(vals) / min(vals)


def test_criterion_04_two_sided_ratios(flat_family_report):
    full, elapsed = flat_family_report
    rows30 = full.rows[:30]
    finite = all(np.isfinite(r.lower_ratio) and r.lower_ratio > 0
                 and np.isfinite(r.upper_ratio) and r.upper_ratio > 0
                 for r in full.rows)
    lo30, up30 = _spread(rows30, "lower_ratio"), _spread(rows30, "upper_ratio")
    lo50, up50 = _spread(full.rows, "lower_ratio"), _spread(full.rows, "upper_ratio")
    drift = max(abs(lo50 - lo30) / lo30, abs(up50 - up30) / up30)
    ok = (finite and lo30 < 100 and up30 < 100 and drift < 0.25
          and elapsed < 900)
    report(4, ok, f"spreads 30-family ({lo30:.3f}, {up30:.3f}), "
                  f"50-family ({lo50:.3f}, {up50:.3f}), drift {drift:.1%}, "
                  f"{elapsed:.0f} s")


def test_criterion_05_average_growth_trend(flat_family_report):
    full, _ = flat_family_report
    from ngl.growth import LengthGrowthReport
    rep30 = LengthGrowthReport(rows=full.rows[:30], k0=0.5, sample_grid_m=64)
    trend = quartile_trend_ratio(rep30)
    ok = trend < 2.0
    report(5, ok, f"last/first quartile mean of A = {trend:.3f}")


def test_criterion_06_doubling_bound_stability(flat_family_report):
    full, _ = flat_family_report
    from ngl.growth import LengthGrowthReport
    rep30 = LengthGrowthReport(rows=full.rows[:30], k0=0.5, sample_grid_m=64)
    c30 = donnelly_fefferman_constant(rep30)
    c50 = donnelly_fefferman_constant(full)
    drift = abs(c50 - c30) / c30
    ok = np.isfinite(c30) and c30 > 0 and drift < 0.2
    report(6, ok, f"max beta_p/sqrt(lambda): 30-family {c30:.4f}, "
                  f"50-family {c50:.4f}, drift {drift:.1%}")


# -------------------------------------------------------------------------
# 7. integral-geometry estimators


def test_criterion_07_crofton():
    t0 = time.perf_counter()
    kin = validate_circle_kinematic_constant(0.1)
    est = disk_average_length(synthetic_segment(), 0.1, 100_000, seed=7)
    seg_ok = est.stderr < 0.01 and abs(est.value - 1.0) <= 3 * est.stderr
    modes = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 0)]
    consistent = True
    for m, n in modes:
        pair = analytic_eigenpair(m, n, grid_n=192)
        rep = crofton_consistency(pair.field, r=0.05, samples=50_000,
                                  seed=13 + m + 3 * n)
        consistent &= rep["consistent"]
    elapsed = time.perf_counter() - t0
    ok = kin["four_digits"] and seg_ok and consistent and elapsed < 120
    report(7, ok, f"segment {est.value:.4f} +- {est.stderr:.4f}, kinematic "
                  f"constant to {max(kin['segment_rel_err'], kin['circle_rel_err']):.1e}, "
                  f"5 eigenfunctions consistent = {consistent}, {elapsed:.0f} s")


# -------------------------------------------------------------------------
# 8/9. localization family: tiling and rapid-disk counts


def _family_modes(count):
    reps = [(m, n) for m in range(0, 6) for n in range(-5, 6)
            if (m > 0 or (m == 0 and n > 0)) and m * m + n * n <= 25]
    reps.sort(key=lambda mn: (mn[0] ** 2 + mn[1] ** 2, mn[0], mn[1]))
    modes = []
    for m, n in reps:
        modes.append((m, n, 0.0))
        modes.append((m, n, -np.pi / 2))
    return modes[:count]


def _nodal_point(m, n, phase):
    if phase == 0.0:
        s = 0.25 / (m * m + n * n)
        return ((s * m) % 1.0, (s * n) % 1.0)
    return (0.0, 0.0)


@pytest.fixture(scope="module")
def localized_family_rows():
    metric = make_metric("flat", 1024)
    rows = []
    t0 = time.perf_counter()
    for m, n, phase in _family_modes(30):
        pair = analytic_eigenpair(m, n, phase=phase, grid_n=1024)
        pf = localize(pair, metric, _nodal_point(m, n, phase), k0=0.5,
                      planar_grid_n=192)
        _, bstar = beta_star(pf)
        state = run_tiling(pf, m_threshold=10.0, beta_star_value=bstar)
        ns = extract_nodal_set(core_field(pf, grid_n=513))
        bound = total_bound_report(state, ns)
        rapid = count_rapid_disks(pf, 1e-5, 10.0)
        area_ok = (state.covered_area() + state.rapid_area()) == P_SIDE ** 2
        rows.append({
            "lambda": pair.lam,
            "beta_star": bstar,
            "tile_ratio": bound.ratio,
            "recon_err": bound.reconstruction_rel_err,
            "area_exact": area_ok,
            "capped": state.capped,
            "rapid_ratio": rapid.ratio,
            "n_probes": rapid.n_probes,
        })
    return rows, time.perf_counter() - t0


def test_criterion_08_tiling_structure(localized_family_rows):
    rows, elapsed = localized_family_rows
    area_exact = all(r["area_exact"] for r in rows)
    recon = max(r["recon_err"] for r in rows)
    ratios = [r["tile_ratio"] for r in rows]
    finite = all(np.isfinite(v) for v in ratios)
    max15 = max(ratios[:15])
    max30 = max(ratios)
    drift = abs(max30 - max15) / max15
    # the nested counting bound is exercised on a capped synthetic field
    def high_degree(x, y):
        z = 60.0 * (np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float))
        return np.real(z ** 40)
    pf = planar_field_from_function(high_degree, planar_grid_n=128)
    state = run_tiling(pf, m_threshold=10.0, k_max=4)
    from ngl.tiling import level_counts
    counts = level_counts(state)
    nested_ok = all(cur["slow"] <= 4 * prev["rapid"]
                    for prev, cur in zip(counts, counts[1:]))
    struct_ok = (state.covered_area() + state.rapid_area()) == P_SIDE ** 2
    ok = (area_exact and recon < 0.01 and finite and drift < 0.2
          and nested_ok and struct_ok)
    report(8, ok, f"area exact = {area_exact}, max recon err {recon:.2e}, "
                  f"ratio max 15/30 = {max15:.4f}/{max30:.4f} "
                  f"(drift {drift:.1%}), nested counts = {nested_ok}, "
                  f"{elapsed:.0f} s for the family")


def test_criterion_09_rapid_disk_counts(localized_family_rows):
    rows, _ = localized_family_rows
    ratios = [r["rapid_ratio"] for r in rows]
    bounded = all(np.isfinite(v) for v in ratios)
    max15 = max(ratios[:15])
    max30 = max(ratios)
    drift = abs(max30 - max15) / max(max15, 1e-12)
    const = planar_field_from_function(
        lambda x, y: np.zeros(np.broadcast_shapes(np.asarray(x).shape,
                                                  np.asarray(y).shape)) + 1.0,
        planar_grid_n=128)
    at_threshold = count_rapid_disks(const, 1e-5, 10.0)
    at_zero = count_rapid_disks(const, 1e-5, 0.0)
    const_ok = (at_threshold.n_rapid == 0
                and at_zero.n_rapid == at_zero.n_probes > 0)
    ok = bounded and drift < 0.2 and const_ok
    report(9, ok, f"family max ratio 15/30 = {max15:.4f}/{max30:.4f} "
                  f"(drift {drift:.1%}), constant field {at_threshold.n_rapid}"
                  f"/{at_zero.n_rapid} rapid at M0/0")


# -------------------------------------------------------------------------
# 10. boundary sign-change growth bound


def test_criterion_10_sign_growth_sweep():
    rng = np.random.Generator(np.random.Philox(key=31415))
    th = np.arange(512) * 2 * np.pi / 512
    holds = True
    for _ in range(100):
        deg = int(rng.integers(1, 11))
        vals = sum(rng.normal() * np.cos(k * th) + rng.normal() * np.sin(k * th)
                   for k in range(deg + 1))
        holds &= growth_vs_signs_check(CircleTrace(vals), 0.25).holds
    for n in range(1, 11):
        tr = trace_from_function(lambda x, y, n=n: np.real((x + 1j * y) ** n))
        holds &= growth_vs_signs_check(tr, 0.25).holds
    import math
    exact = all(robertson_constant(p).value
                == 2 ** (2 * p) + math.factorial(2 * p) // math.factorial(p) ** 2
                for p in range(0, 12))
    ok = holds and exact
    report(10, ok, f"110 traces hold = {holds}, integer constants exact = {exact}")


# -------------------------------------------------------------------------
# 11. weighted-inequality suite


def test_criterion_11_carleman_suite():
    t0 = time.perf_counter()
    radial = build_psi0(0.1)
    c = 2.0
    rw = build_psi0(0.1, h_profile=lambda r: c * np.ones_like(
        np.asarray(r, dtype=float)), validate=False)
    ode_err = float(np.max(np.abs(
        rw.log_psi0 - (c * rw.r_grid ** 2 / 4 - (c / 2) * np.log(rw.r_grid)
                       - c / 4))))
    centers = [(0.01 * np.cos(t), 0.01 * np.sin(t))
               for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
    worst_margin = np.inf
    pairs = 0
    for t in (1.0, 5.0, 20.0):
        for cs in ((), tuple(centers)):
            weight = build_weight(cs, 1e-3, t=t, radial=radial)
            for k in range(10):
                rng = np.random.Generator(np.random.Philox(key=(500, pairs)))
                u = random_test_field(rng, weight=weight)
                rep = check_subharmonic_inequality(u, weight)
                worst_margin = min(worst_margin, rep.margin / rep.scale)
                pairs += 1
    w1 = build_weight(centers, 1e-3, t=1.0, radial=radial)
    rng = np.random.Generator(np.random.Philox(key=501))
    constants = [carleman_c1_check(f, w1).empirical_constant
                 for f in c1_test_family(rng, w1, 30)]
    c15 = min(constants[:15])
    c30 = min(constants)
    drift = abs(c30 - c15) / c15
    elapsed = time.perf_counter() - t0
    ok = (ode_err < 1e-8 and worst_margin >= -1e-6 and pairs == 60
          and c30 > 0 and drift < 0.2 and elapsed < 300)
    report(11, ok, f"ode closed-form err {ode_err:.1e}, min margin/scale "
                   f"{worst_margin:.3f} over {pairs} pairs, c10 15/30 = "
                   f"{c15:.3g}/{c30:.3g} (drift {drift:.1%}), {elapsed:.0f} s")


# -------------------------------------------------------------------------
# 12. byte-identical reruns


def test_criterion_12_determinism(tmp_path):
    from ngl.cli import load_config, run
    t0 = time.perf_counter()
    commands = ("spectrum", "nodal", "crofton", "harmonic", "tile", "rapid")
    trees = {}
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        cfg = load_config(overrides={
            "metric": {"grid_n": 320},
            "eigen": {"count": 4, "seed": 5},
            "growth": {"sample_grid_m": 8},
            "localize": {"planar_grid_n": 160, "index": 2},
            "crofton": {"samples": 5000, "seed": 5},
            "harmonic": {"n_traces": 5, "seed": 5},
            "tiling": {"core_grid_n": 129},
            "output": {"dir": str(out_dir)},
        })
        for command in commands:
            run(command, cfg)
        tree = {}
        for dirpath, _, files in os.walk(out_dir):
            for name in files:
                path = os.path.join(dirpath, name)
                tree[os.path.relpath(path, out_dir)] = open(path, "rb").read()
        trees[tag] = tree
    same_names = trees["a"].keys() == trees["b"].keys()
    diffs = [k for k in trees["a"] if trees["a"][k] != trees["b"].get(k)]
    elapsed = time.perf_counter() - t0
    ok = same_names and not diffs
    report(12, ok, f"{len(trees['a'])} files from {len(commands)} commands, "
                   f"differing: {diffs!r}, {elapsed:.0f} s")
