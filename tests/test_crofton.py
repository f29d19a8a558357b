from unittest import mock

import numpy as np
import pytest

from ngl.crofton import (circle_count_length,
                         crofton_consistency, disk_average_length,
                         synthetic_circle, synthetic_segment,
                         validate_circle_kinematic_constant)
from ngl.eigen import analytic_eigenpair
from ngl.nodal import (NodalSet, _probe_segment_pairs, clip_lengths,
                       crossing_counts, extract_nodal_set, nodal_length)
from ngl.surface import PLANAR, GridField


def test_kinematic_constant_four_digits():
    report = validate_circle_kinematic_constant(0.1)
    assert report["four_digits"]
    assert report["segment_rel_err"] < 5e-5
    assert report["circle_rel_err"] < 5e-5


def test_disk_average_unit_segment():
    est = disk_average_length(synthetic_segment(), 0.1, 100_000, seed=7)
    assert est.stderr < 0.01
    assert abs(est.value - 1.0) <= 3 * est.stderr


def test_circle_count_unit_segment():
    est = circle_count_length(synthetic_segment(), 0.1, 100_000, seed=7)
    assert abs(est.value - 1.0) <= 3 * est.stderr


def test_empty_curve_gives_zero():
    empty = NodalSet(np.empty((0, 4)), domain="planar")
    assert disk_average_length(empty, 0.1, 100).value == 0.0
    assert circle_count_length(empty, 0.1, 100).value == 0.0


def test_zero_samples_rejected():
    with pytest.raises(ValueError):
        disk_average_length(synthetic_segment(), 0.1, 0)
    with pytest.raises(ValueError):   # no standard error from one sample
        disk_average_length(synthetic_segment(), 0.1, 1)
    with pytest.raises(ValueError):
        disk_average_length(synthetic_segment(), -0.1, 100)


def test_disk_average_circle_curve():
    curve = synthetic_circle(0.3)
    est = disk_average_length(curve, 0.1, 100_000, seed=3)
    assert abs(est.value - 2 * np.pi * 0.3) <= 3 * est.stderr


def test_circle_count_parallel_segments():
    seg = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0]])
    curve = NodalSet(seg, domain="planar")
    est = circle_count_length(curve, 0.1, 100_000, seed=5)
    assert abs(est.value - 2.0) <= 3 * est.stderr


def test_disk_estimator_unbiased_over_seeds():
    # fixed seed battery; the pooled mean must sit within one pooled stderr
    curve = synthetic_segment()
    estimates = [disk_average_length(curve, 0.1, 2000, seed=100 + s)
                 for s in range(50)]
    values = np.array([e.value for e in estimates])
    pooled_err = np.sqrt(np.mean([e.stderr ** 2 for e in estimates]) / 50)
    assert abs(values.mean() - 1.0) <= pooled_err


def test_rigid_motion_invariance():
    base = disk_average_length(synthetic_segment(), 0.1, 50_000, seed=11)
    moved = disk_average_length(
        synthetic_segment(origin=(0.37, -1.2), angle=0.7), 0.1, 50_000, seed=11)
    tol = 3 * np.hypot(base.stderr, moved.stderr)
    assert abs(base.value - moved.value) <= tol


def test_stderr_scales_with_samples():
    curve = synthetic_segment()
    e1 = disk_average_length(curve, 0.1, 20_000, seed=1)
    e2 = disk_average_length(curve, 0.1, 80_000, seed=1)
    ratio = e1.stderr / e2.stderr
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_estimate_reproducible():
    a = disk_average_length(synthetic_segment(), 0.1, 10_000, seed=42)
    b = disk_average_length(synthetic_segment(), 0.1, 10_000, seed=42)
    assert a.value == b.value and a.stderr == b.stderr


def test_consistency_sine_field(sin_x_256):
    report = crofton_consistency(sin_x_256, r=0.05, samples=50_000, seed=11)
    assert report["direct_length"] == pytest.approx(2.0, rel=1e-3)
    assert report["consistent"]


def test_consistency_circle_field():
    n = 512
    h = 1.0 / (n - 1)
    coords = -0.5 + np.arange(n) * h
    x, y = np.meshgrid(coords, coords, indexing="ij")
    from ngl.surface import GridField, PLANAR
    f = GridField(x * x + y * y - 0.09, domain=PLANAR, origin=(-0.5, -0.5),
                  side=1.0)
    report = crofton_consistency(f, r=0.05, samples=50_000, seed=2)
    assert report["direct_length"] == pytest.approx(2 * np.pi * 0.3, rel=5e-3)
    assert report["consistent"]


def test_consistency_eigenfunction():
    pair = analytic_eigenpair(1, 1, grid_n=192)
    report = crofton_consistency(pair.field, r=0.05, samples=40_000, seed=9)
    assert report["consistent"]


def test_consistency_reuses_a_given_disk_estimate():
    curve = extract_nodal_set(analytic_eigenpair(2, 1, grid_n=96).field)
    disk = disk_average_length(curve, 0.05, 3000, seed=4)
    assert (crofton_consistency(curve, r=0.05, samples=3000, seed=4, disk=disk)
            == crofton_consistency(curve, r=0.05, samples=3000, seed=4))
    with pytest.raises(ValueError):
        crofton_consistency(curve, r=0.05, samples=3000, seed=5, disk=disk)


@pytest.mark.parametrize("kernel", ["disk", "circle"])
def test_stratified_probes_shrink_the_error_below_the_iid_stderr(kernel):
    # stderr is the i.i.d. standard error; the stratified probes' actual
    # error is far smaller (i.i.d. probes would give an RMS z of about 1)
    curve = extract_nodal_set(analytic_eigenpair(1, 0).field)
    direct, _ = nodal_length(curve)
    fn = disk_average_length if kernel == "disk" else circle_count_length
    z = []
    for seed in range(100):
        est = fn(curve, 0.05, 5000, seed=seed)
        z.append((est.value - direct) / est.stderr)
    assert np.sqrt(np.mean(np.square(z))) < 0.5


# --------------------------------------------------------------- probe kernels
# the per-probe kernels as first written for the estimators, kept as the
# bitwise reference for the shared kernels in ngl.nodal


def reference_geometry(curve, px, py):
    seg = curve.segments
    p0x = seg[:, 0][None, :]
    p0y = seg[:, 1][None, :]
    dx = (seg[:, 2] - seg[:, 0])[None, :]
    dy = (seg[:, 3] - seg[:, 1])[None, :]
    fx = p0x - px[:, None]
    fy = p0y - py[:, None]
    if curve.domain == "torus":
        fx = fx - np.round(fx + 0.5 * dx)
        fy = fy - np.round(fy + 0.5 * dy)
    return dx * dx + dy * dy, 2 * (dx * fx + dy * fy), fx * fx + fy * fy


def reference_clip_lengths(curve, px, py, r):
    a, b, c = reference_geometry(curve, px, py)
    disc = b * b - 4 * a * (c - r * r)
    pos = disc > 0
    aa = np.broadcast_to(a, disc.shape)[pos]
    sq = np.sqrt(disc[pos])
    t1 = (-b[pos] - sq) / (2 * aa)
    t2 = (-b[pos] + sq) / (2 * aa)
    overlap = np.clip(np.minimum(t2, 1.0) - np.maximum(t1, 0.0), 0.0, 1.0)
    contrib = np.zeros_like(disc)
    contrib[pos] = overlap * np.broadcast_to(
        np.sqrt(np.maximum(a, 1e-300)), disc.shape)[pos]
    return contrib.sum(axis=1)


def reference_crossing_counts(curve, px, py, r):
    a, b, c = reference_geometry(curve, px, py)
    disc = b * b - 4 * a * (c - r * r)
    pos = disc > 0
    aa = np.broadcast_to(a, disc.shape)[pos]
    sq = np.sqrt(disc[pos])
    t1 = (-b[pos] - sq) / (2 * aa)
    t2 = (-b[pos] + sq) / (2 * aa)
    hits = np.zeros(disc.shape, dtype=np.int64)
    hits[pos] = (((t1 >= 0.0) & (t1 < 1.0)).astype(np.int64)
                 + ((t2 >= 0.0) & (t2 < 1.0)).astype(np.int64))
    return hits.sum(axis=1)


def reference_estimate(curve, r, samples, seed, kernel):
    from ngl.crofton import _probe_points, _window_for
    px, py, area = _probe_points(seed, samples, _window_for(curve, r))
    fn = reference_clip_lengths if kernel == "disk" else reference_crossing_counts
    vals = np.concatenate([fn(curve, px[lo:lo + 2048], py[lo:lo + 2048], r)
                           for lo in range(0, samples, 2048)])
    norm = np.pi * r * r if kernel == "disk" else 4.0 * r
    return (area * float(vals.mean()) / norm,
            area * float(vals.std(ddof=1)) / np.sqrt(samples) / norm)


@pytest.mark.parametrize("curve_name", ["torus", "planar"])
def test_estimates_bit_identical_to_reference_kernels(curve_name):
    if curve_name == "torus":
        curve = extract_nodal_set(analytic_eigenpair(2, 1, grid_n=96).field)
    else:
        curve = synthetic_circle(0.3, n_seg=512)
    for kernel, fn in (("disk", disk_average_length),
                       ("circle", circle_count_length)):
        est = fn(curve, 0.07, 5000, seed=13)
        assert (est.value, est.stderr) == reference_estimate(curve, 0.07, 5000,
                                                             13, kernel)


def seam_curve():
    """A torus curve whose segments cross the seams x = 0 and y = 0: a
    circle of radius 0.2 around (0.02, 0.97), each segment starting in
    [0, 1)^2 and running past 1 where it crosses."""
    th = np.linspace(0.0, 2 * np.pi, 301)
    xs = 0.02 + 0.2 * np.cos(th)
    ys = 0.97 + 0.2 * np.sin(th)
    x0, y0 = xs[:-1] % 1.0, ys[:-1] % 1.0
    seg = np.stack([x0, y0, x0 + np.diff(xs), y0 + np.diff(ys)], axis=1)
    return NodalSet(seg, domain="torus")


def core_curve():
    """Nodal set of Re((60 z)^5) on the core window, as tiling clips it."""
    coords = np.linspace(-1 / 48, 1 / 48, 257)
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    vals = np.real((60 * (X + 1j * Y)) ** 5)
    return extract_nodal_set(GridField(vals, domain=PLANAR,
                                       origin=(-1 / 48, -1 / 48), side=1 / 24))


def kernels_match_reference(curve, px, py, r):
    return (np.array_equal(clip_lengths(curve, px, py, r),
                           reference_clip_lengths(curve, px, py, r))
            and np.array_equal(crossing_counts(curve, px, py, r),
                               reference_crossing_counts(curve, px, py, r)))


def pair_path(curve, px, py, r):
    """"tree" when the pair search queries k-d trees, else "every pair"."""
    import scipy.spatial
    with mock.patch.object(scipy.spatial, "cKDTree",
                           wraps=scipy.spatial.cKDTree) as tree:
        _probe_segment_pairs(curve, px, py, r)
    return "tree" if tree.called else "every pair"


def test_tree_kernels_equal_reference_across_the_seam():
    rng = np.random.default_rng(5)
    for curve in (seam_curve(),
                  extract_nodal_set(analytic_eigenpair(3, 2, grid_n=96).field)):
        r = 0.05
        # uniform probes, probes within r of a seam, and probes off [0, 1)
        near = rng.uniform(-r, r, 1500) % 1.0
        px = np.concatenate([rng.random(1500), near, rng.random(500),
                             rng.uniform(-0.1, 1.1, 500)])
        py = np.concatenate([rng.random(1500), rng.random(1500), near[:500],
                             rng.uniform(-0.1, 1.1, 500)])
        assert pair_path(curve, px, py, r) == "tree"
        assert clip_lengths(curve, px, py, r).max() > 0
        assert kernels_match_reference(curve, px, py, r)


def test_tree_kernels_equal_reference_on_planar_curves():
    rng = np.random.default_rng(6)
    px, py = rng.uniform(-0.45, 0.45, (2, 3000))
    circle = synthetic_circle(0.3)
    assert pair_path(circle, px, py, 0.05) == "tree"
    assert kernels_match_reference(circle, px, py, 0.05)
    # a thin curve: the unit segment in 64 pieces, of zero height
    ends = np.arange(65) / 64
    thin = NodalSet(np.stack([ends[:-1], 0 * ends[:-1], ends[1:], 0 * ends[1:]],
                             axis=1), domain="planar")
    assert pair_path(thin, px + 0.5, py, 0.1) == "tree"
    assert kernels_match_reference(thin, px + 0.5, py, 0.1)


def test_large_reach_and_every_pair_equal_reference():
    from ngl.schrodinger import CORE_RADIUS
    core = core_curve()
    zero = np.zeros(1)
    assert len(core) > 0 and pair_path(core, zero, zero, CORE_RADIUS) == "tree"
    assert kernels_match_reference(core, zero, zero, CORE_RADIUS)
    torus = extract_nodal_set(analytic_eigenpair(3, 2, grid_n=96).field)
    px, py = np.random.default_rng(7).random((2, 700))
    assert pair_path(torus, px, py, 1 / 3) == "tree"
    assert kernels_match_reference(torus, px, py, 1 / 3)
    assert pair_path(synthetic_segment(), px, py, 0.1) == "every pair"
    assert kernels_match_reference(synthetic_segment(), px, py, 0.1)
    empty = NodalSet(np.empty((0, 4)), domain="torus")
    assert pair_path(empty, px, py, 0.05) == "every pair"
    assert kernels_match_reference(empty, px, py, 0.05)
    assert crossing_counts(empty, px, py, 0.05).dtype == np.int64
