import heapq

import numpy as np
import pytest

from ngl.errors import EmptyRegionError
from ngl.surface import (GridField, flat_torus_distance, lq_norm_on_disk,
                         make_metric, polar_quadrature, polyline_metric_length,
                         read_gfd, sup_on_disk, write_gfd)

from conftest import geodesic_distance, torus_field


# ---------------------------------------------------------------- metrics


def test_flat_metric_constants():
    m = make_metric("flat", 64)
    assert m.q_minus == m.q_plus == 1.0
    assert m.volume == 1.0
    assert m.alpha0 == pytest.approx(0.2, abs=1e-15)


def test_wave_metric_extrema_and_volume():
    m = make_metric("wave", 256)
    # the analytic extrema 1 +- 0.2 sit exactly on grid samples
    assert m.q_minus == pytest.approx(0.8, abs=1e-12)
    assert m.q_plus == pytest.approx(1.2, abs=1e-12)
    assert m.volume == pytest.approx(1.0, abs=1e-10)
    assert 0 < m.alpha0 <= 0.2


def test_nonpositive_profile_rejected():
    with pytest.raises(ValueError):
        make_metric("wave", 64, amplitude=1.5)
    with pytest.raises(ValueError):
        make_metric("flat", 8)


# ---------------------------------------------------------------- distance


def test_geodesic_distance_flat_unit():
    m = make_metric("flat", 64)
    d = geodesic_distance(m, (0.3, 0.7))
    coords = np.arange(64) / 64
    x, y = np.meshgrid(coords, coords, indexing="ij")
    exact = flat_torus_distance((0.3, 0.7), x, y)
    assert np.max(np.abs(d.values - exact)) <= 2.0 / 64
    assert d.values.min() >= 0.0
    assert d.interp(0.3, 0.7) <= 2.0 / 64


def test_geodesic_distance_constant_factor():
    m = make_metric("flat", 64, value=4.0)
    d = geodesic_distance(m, (0.5, 0.5))
    coords = np.arange(64) / 64
    x, y = np.meshgrid(coords, coords, indexing="ij")
    exact = 2.0 * flat_torus_distance((0.5, 0.5), x, y)
    assert np.max(np.abs(d.values - exact)) <= 2 * (2.0 / 64)


def _dijkstra_8(metric, p):
    """Independent oracle: shortest paths on the 8-connected grid graph with
    edge weights (average sqrt(q)) times edge length."""
    n = metric.grid_n
    h = 1.0 / n
    sq = np.sqrt(metric.q)
    dist = np.full((n, n), np.inf)
    i0 = int(round(p[0] * n)) % n
    j0 = int(round(p[1] * n)) % n
    dist[i0, j0] = 0.0
    heap = [(0.0, i0, j0)]
    done = np.zeros((n, n), dtype=bool)
    steps = [(1, 0, h), (-1, 0, h), (0, 1, h), (0, -1, h),
             (1, 1, h * np.sqrt(2)), (1, -1, h * np.sqrt(2)),
             (-1, 1, h * np.sqrt(2)), (-1, -1, h * np.sqrt(2))]
    while heap:
        d, i, j = heapq.heappop(heap)
        if done[i, j]:
            continue
        done[i, j] = True
        for di, dj, ell in steps:
            ii = (i + di) % n
            jj = (j + dj) % n
            if done[ii, jj]:
                continue
            nd = d + 0.5 * (sq[i, j] + sq[ii, jj]) * ell
            if nd < dist[ii, jj]:
                dist[ii, jj] = nd
                heapq.heappush(heap, (nd, ii, jj))
    return dist


def test_geodesic_distance_wave_pinching_and_oracle():
    m = make_metric("wave", 128)
    p = (0.25, 0.25)
    d = geodesic_distance(m, p).values
    coords = np.arange(128) / 128
    x, y = np.meshgrid(coords, coords, indexing="ij")
    d_flat = flat_torus_distance(p, x, y)
    h = 1.0 / 128
    assert np.all(d <= np.sqrt(1.2) * d_flat + 2 * h)
    assert np.all(d >= np.sqrt(0.8) * d_flat - 2 * h)
    # 8-connected Dijkstra overestimates by at most the metrication factor
    d_oracle = _dijkstra_8(m, p)
    assert np.max(d - d_oracle) <= 4 * h
    assert np.all(d_oracle <= 1.09 * d + 4 * h)


def test_geodesic_triangle_inequality():
    m = make_metric("wave", 64)
    h = 1.0 / 64
    pts = [(0.1, 0.2), (0.6, 0.3), (0.35, 0.8)]
    fields = [geodesic_distance(m, p) for p in pts]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        d_ij = fields[i].interp(*pts[j])
        d_jk = fields[j].interp(*pts[k])
        d_ik = fields[i].interp(*pts[k])
        assert d_ik <= d_ij + d_jk + 4 * h


def test_metric_disk_pinching_per_sample():
    m = make_metric("wave", 128)
    p = (0.5, 0.5)
    dist = geodesic_distance(m, p)
    coords = np.arange(128) / 128
    x, y = np.meshgrid(coords, coords, indexing="ij")
    d_flat = flat_torus_distance(p, x, y)
    h = 1.0 / 128
    assert dist.interp(*p) <= 2 * h
    assert np.all(dist.values >= np.sqrt(m.q_minus) * d_flat - 2 * h)
    assert np.all(dist.values <= np.sqrt(m.q_plus) * d_flat + 2 * h)


# ---------------------------------------------------------------- sup


def test_sup_constant_field():
    f = GridField(np.full((64, 64), -3.5))
    assert sup_on_disk(f, (0.3, 0.3), 0.1) == 3.5


def test_sup_maximizer_inside(sin_x_256):
    # the disk contains x = 1/4 where sin peaks at 1
    val = sup_on_disk(sin_x_256, (0.25, 0.5), 0.1)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_sup_maximizer_on_boundary_oracle():
    # 10x-dense brute-force sampling of the interpolant as the oracle
    f = torus_field(lambda x, y: np.sin(2 * np.pi * x), 1024)
    val = sup_on_disk(f, (0.0, 0.5), 0.1)
    th = np.linspace(0, 2 * np.pi, 40961)
    rad = np.linspace(0, 0.1, 1025)
    best = 0.0
    for r in rad[1:]:
        best = max(best, float(np.max(np.abs(
            f.interp(0.0 + r * np.cos(th), 0.5 + r * np.sin(th))))))
    assert val == pytest.approx(best, abs=1e-3)
    assert val == pytest.approx(np.sin(2 * np.pi * 0.1), abs=1e-3)


def test_sup_monotone_in_region():
    rng = np.random.Generator(np.random.Philox(key=5))
    f = torus_field(lambda x, y: (np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y)
                                  + 0.3 * np.cos(2 * np.pi * (x + y))), 128)
    h = 1.0 / 128
    for _ in range(40):
        cx, cy = rng.random(2)
        r1 = float(rng.uniform(0.03, 0.1))
        r2 = r1 + float(rng.uniform(4 * h, 0.1))
        # offset containment: |shift| + r1 <= r2
        shift = rng.uniform(-1, 1, 2)
        shift *= float(rng.uniform(0, r2 - r1 - 2 * h)) / max(np.hypot(*shift), 1e-9)
        s1 = sup_on_disk(f, (cx + shift[0], cy + shift[1]), r1)
        s2 = sup_on_disk(f, (cx, cy), r2)
        assert s1 <= s2 + 1e-12


def reference_callable_sup(fn, center, r):
    """The callable disk scan with one call per ring, folded by Python's
    max (which skips a NaN after the center)."""
    from ngl.surface import _CALLABLE_RADII, _ring_points
    radii = np.linspace(0.0, r, _CALLABLE_RADII)
    best = float(np.abs(np.asarray(fn(center[0], center[1]))).max())
    step = max(r / _CALLABLE_RADII, 1e-12)
    for rad in radii[1:]:
        rx, ry = _ring_points(center, rad, step, min_angles=96)
        best = max(best, float(np.max(np.abs(fn(rx, ry)))))
    return best


def rapid_field(degree):
    def field(x, y):
        z = 60.0 * (np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float))
        return np.real(z ** degree)
    return field


@pytest.fixture(scope="module")
def localized_spline():
    """The localized planar field of the flat spectrum's pair 2 at p = (0, 0)."""
    from ngl.eigen import analytic_spectrum
    from ngl.schrodinger import localize
    metric = make_metric("flat", 320)
    pair = analytic_spectrum(320, 3).nonconstant()[1]
    return localize(pair, metric, (0.0, 0.0), planar_grid_n=64).evaluate


@pytest.mark.parametrize("field", ["spline", 38, 42])
@pytest.mark.parametrize("r", [3.0, 2.5, 0.25])
def test_callable_sup_equals_per_ring_scan(localized_spline, field, r):
    fn = localized_spline if field == "spline" else rapid_field(field)
    calls = []

    def counted(x, y):
        calls.append(np.size(x))
        return fn(x, y)

    got = sup_on_disk(counted, (0.0, 0.0), r)
    assert got == reference_callable_sup(fn, (0.0, 0.0), r)
    assert len(calls) == 1 and calls[0] > 95 * 96


def test_callable_sup_propagates_nan_anywhere():
    # (0.5, 0) is the angle-0 point of the boundary ring
    off_center = lambda x, y: np.where((x == 0.5) & (y == 0.0), np.nan, 1.0)
    assert reference_callable_sup(off_center, (0.0, 0.0), 0.5) == 1.0
    assert np.isnan(sup_on_disk(off_center, (0.0, 0.0), 0.5))
    at_center = lambda x, y: np.where((x == 0.0) & (y == 0.0), np.nan, 1.0)
    assert np.isnan(reference_callable_sup(at_center, (0.0, 0.0), 0.5))
    assert np.isnan(sup_on_disk(at_center, (0.0, 0.0), 0.5))


_OVERSAMPLE = 4


def _delta_torus(coord, center):
    d = coord - center
    return d - np.round(d)


def refined_grid_sup_disk(field, center, r):
    """Sup of a torus grid field over a disk on its lattice, the lattice's 4x
    bilinear refinement and a boundary ring of at least 64 angles at most a
    quarter cell apart: the single-disk scan that ``sup_on_disk`` replaced
    with the batched kernel."""
    n = field.grid_n
    coords = np.arange(n) / n
    dx = _delta_torus(coords, center[0])
    dy = _delta_torus(coords, center[1])
    if not np.any((dx * dx)[:, None] + (dy * dy)[None, :] <= r * r):
        raise EmptyRegionError("disk contains no grid sample")
    hf = 1.0 / (_OVERSAMPLE * n)
    ii = np.arange(int(np.ceil((center[0] - r) / hf)),
                   int(np.floor((center[0] + r) / hf)) + 1)
    jj = np.arange(int(np.ceil((center[1] - r) / hf)),
                   int(np.floor((center[1] + r) / hf)) + 1)
    X = ii[:, None] * hf
    Y = jj[None, :] * hf
    dx = _delta_torus(X, center[0])
    dy = _delta_torus(Y, center[1])
    inside = dx * dx + dy * dy <= r * r
    best = -np.inf
    if inside.any():
        xs = np.broadcast_to(X, inside.shape)[inside]
        ys = np.broadcast_to(Y, inside.shape)[inside]
        best = float(np.max(np.abs(field.interp(xs, ys))))
    m = max(64, int(np.ceil(2 * np.pi * r / (field.spacing / _OVERSAMPLE))))
    m = 8 * ((m + 7) // 8)
    th = np.arange(m) * (2 * np.pi / m)
    ring = field.interp(center[0] + r * np.cos(th), center[1] + r * np.sin(th))
    return max(best, float(np.max(np.abs(ring))))


def test_sup_matches_refined_scan_on_random_disks():
    # Both scans sample the same bilinear interpolant in the closed disk, so
    # neither exceeds its sup S.  Each cell's interpolant is harmonic, so S
    # sits at a lattice point in the disk or on the circle; a ring whose
    # samples lie s apart along the circle then reads at least S - L s / 2,
    # L = sqrt(2) * (largest neighbor difference) the interpolant's Lipschitz
    # constant per cell.  From 10.2 cells on the two rings share their
    # angles and the refined scan samples a superset; on a resolved
    # eigenfunction the two then agree to rounding.
    rng = np.random.Generator(np.random.Philox(key=15))
    worst = 0.0
    for k in range(240):  # half eigenfunctions, half noise; half below 10.2
        n = int(rng.integers(64, 321))
        noise = k % 2 == 1
        if noise:
            values = rng.standard_normal((n, n))
        else:
            a, b = rng.integers(-6, 7, 2)
            coords = np.arange(n) / n
            x, y = np.meshgrid(coords, coords, indexing="ij")
            values = np.cos(2 * np.pi * (a * x + b * y) + rng.uniform(0, 6))
        f = GridField(values)
        center = tuple(rng.uniform(-0.5, 1.5, 2))
        cells = float(rng.uniform(1.5, 10.2) if k % 4 < 2
                      else rng.uniform(10.2, 40.0))
        got = sup_on_disk(f, center, cells / n)
        want = refined_grid_sup_disk(f, center, cells / n)
        lip = np.sqrt(2) * max(np.abs(values - np.roll(values, 1, axis)).max()
                               for axis in (0, 1))
        m_new = 8 * ((max(256, int(np.ceil(8 * np.pi * cells))) + 7) // 8)
        m_old = 8 * ((max(64, int(np.ceil(8 * np.pi * cells))) + 7) // 8)
        assert -lip * np.pi * cells / m_new <= got - want
        assert got - want <= lip * np.pi * cells / m_old
        if cells >= 10.2:
            assert got <= want * (1 + 1e-12)
            if not noise:
                worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-12


def test_sup_empty_region_error():
    f = GridField(np.ones((64, 64)))
    with pytest.raises(EmptyRegionError):
        sup_on_disk(f, (0.5 + 0.5 / 64, 0.5 + 0.5 / 64), 1e-4)


def test_sup_rejects_planar_grid_fields_and_other_regions():
    # planar grid fields are scanned through their evaluate callable
    planar = GridField(np.ones((64, 64)), domain="planar", origin=(-1.0, -1.0),
                       side=2.0)
    with pytest.raises(TypeError):
        sup_on_disk(planar, (0.0, 0.0), 0.5)
    with pytest.raises(TypeError):
        planar.interp(0.0, 0.0)
    with pytest.raises(TypeError):
        lq_norm_on_disk(GridField(np.ones((64, 64))), (0.5, 0.5), 0.1, 2)


def test_sup_metric_disk_matches_euclidean_on_flat(sin_x_256):
    from ngl.growth import _window_halves
    from ngl.surface import _geodesic_disk_sups
    m = make_metric("flat", 256)
    [(outer, inner)] = _geodesic_disk_sups([sin_x_256.values], m, (0.25, 0.5),
                                           [0.1], _window_halves(m, [0.1]), 0.5)
    # fast marching error can only dilate/shrink the disk by O(h)
    assert outer == pytest.approx(1.0, abs=1e-4)
    assert inner == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------- L^q


def test_lq_constant_disk():
    f = lambda x, y: np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)))
    val = lq_norm_on_disk(f, (0.5, 0.5), 0.1, 2)
    assert val == pytest.approx(np.sqrt(np.pi * 0.01), rel=0.01)


def test_lq_zero_field():
    f = lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
    assert lq_norm_on_disk(f, (0.5, 0.5), 0.1, 2) == 0.0


def test_lq_approaches_sup_at_large_exponent():
    f = lambda x, y: np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), 2.0)
    center, r = (0.5, 0.5), 0.15
    lq = lq_norm_on_disk(f, center, r, 64)
    sup = sup_on_disk(f, center, r)
    assert abs(lq - sup) / sup < 0.05
    g = lambda x, y: 2.0 + 0.3 * np.sin(2 * np.pi * np.asarray(x))
    center, r = (0.25, 0.5), 0.3
    lq = lq_norm_on_disk(g, center, r, 64)
    sup = sup_on_disk(g, center, r)
    assert abs(lq - sup) / sup < 0.05


# ---------------------------------------------------------------- lengths


def test_polyline_metric_length_pinching():
    m = make_metric("wave", 128)
    rng = np.random.Generator(np.random.Philox(key=11))
    pts = rng.random((20, 2))
    segs = np.concatenate([pts[:-1], pts[1:]], axis=1)
    euclid = float(np.sum(np.hypot(segs[:, 2] - segs[:, 0],
                                   segs[:, 3] - segs[:, 1])))
    metric_len = polyline_metric_length(segs, m)
    assert np.sqrt(m.q_minus) * euclid <= metric_len <= np.sqrt(m.q_plus) * euclid


def test_gfd_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=3))
    f = GridField(rng.standard_normal((32, 32)), domain="planar",
                  origin=(-3.0, -3.0), side=6.0)
    path = tmp_path / "field.gfd"
    write_gfd(f, path)
    g = read_gfd(path)
    assert g.domain == "planar"
    assert g.side == 6.0
    assert g.origin == (-3.0, -3.0)
    np.testing.assert_array_equal(f.values, g.values)


# ---------------------------------------------------------------- polar quadrature


def reference_lq_polar(fn, center, r_inner, r_outer, qexp,
                       n_radial=64, n_angular=512):
    """Gauss-Legendre x trapezoid L^q norm with fresh nodes on every call."""
    nodes, weights = np.polynomial.legendre.leggauss(n_radial)
    rad = 0.5 * (r_outer - r_inner) * nodes + 0.5 * (r_outer + r_inner)
    wr = 0.5 * (r_outer - r_inner) * weights
    th = np.arange(n_angular) * (2 * np.pi / n_angular)
    px = center[0] + rad[:, None] * np.cos(th)[None, :]
    py = center[1] + rad[:, None] * np.sin(th)[None, :]
    vals = np.abs(np.asarray(fn(px, py)))
    integral = float(np.sum((vals ** qexp) * rad[:, None] * wr[:, None])
                     * (2 * np.pi / n_angular))
    return integral ** (1.0 / qexp)


def test_polar_quadrature_tables_cached_read_only():
    px, py, w = polar_quadrature((0.1, -0.2), 0.0, 0.5, 8, 16)
    assert px.shape == py.shape == (8, 16) and w.shape == (8, 1)
    # the weights integrate 1 and |z - c|^2 exactly over the disk
    assert np.sum(w * np.ones_like(px)) == pytest.approx(np.pi * 0.25, rel=1e-14)
    rr = (px - 0.1) ** 2 + (py + 0.2) ** 2
    assert np.sum(w * rr) == pytest.approx(np.pi * 0.5 ** 4 / 2, rel=1e-14)
    from ngl.surface import _polar_tables
    tables = _polar_tables(8, 16)
    assert _polar_tables(8, 16) is tables
    for arr in tables:
        with pytest.raises(ValueError):
            arr[0] = 0.0


def reference_polar(center, r_inner, r_outer, n_radial, n_angular):
    """polar_quadrature's rule with fresh nodes, offsets and weights."""
    nodes, weights = np.polynomial.legendre.leggauss(n_radial)
    rad = 0.5 * (r_outer - r_inner) * nodes + 0.5 * (r_outer + r_inner)
    wr = 0.5 * (r_outer - r_inner) * weights
    th = np.arange(n_angular) * (2 * np.pi / n_angular)
    return (center[0] + rad[:, None] * np.cos(th)[None, :],
            center[1] + rad[:, None] * np.sin(th)[None, :],
            (rad * wr)[:, None] * (2 * np.pi / n_angular))


@pytest.mark.parametrize("nodes", [(24, 512), (48, 512), (64, 512)])
@pytest.mark.parametrize("r_inner, r_outer", [
    (0, 0.37), (1, 2.5), (np.float64(7e-5), np.float64(9e-5))])
def test_polar_quadrature_equals_uncached_rule(nodes, r_inner, r_outer):
    for center in [(0.0, 0.0), (-0.013, 0.004), (0.3, 0.7)]:
        for _ in range(2):   # the second call is served from the cache
            got = polar_quadrature(center, r_inner, r_outer, *nodes)
            want = reference_polar(center, r_inner, r_outer, *nodes)
            for g, h in zip(got, want):
                assert g.shape == h.shape and np.array_equal(g, h)


def test_polar_offsets_cache_is_read_only_and_bounded():
    from ngl.surface import _polar_offsets
    for k in range(3 * _polar_offsets.cache_info().maxsize):
        px, py, w = polar_quadrature((0.1, 0.2), 0.0, 0.01 * (k + 1), 24, 512)
        with pytest.raises(ValueError):
            w[0, 0] = 0.0
        for arr in _polar_offsets(0.0, 0.01 * (k + 1), 24, 512):
            assert not arr.flags.writeable
    info = _polar_offsets.cache_info()
    assert info.maxsize <= 8 and info.currsize <= info.maxsize


def test_callable_lq_matches_reference_rule():
    rng = np.random.default_rng(3)
    fn = lambda x, y: np.exp(x) * np.cos(3 * y) + x * y
    # annuli are covered by test_annulus_mass_matches_reference_rule
    for _ in range(50):
        center = tuple(rng.uniform(-1, 1, 2))
        r = rng.uniform(0.01, 0.8)
        qexp = float(rng.choice([1.0, 2.0, 3.5]))
        got = lq_norm_on_disk(fn, center, r, qexp)
        ref = reference_lq_polar(fn, center, 0.0, r, qexp)
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("damage", [
    lambda data: data[:-8],                          # truncated samples
    lambda data: data + b"\0",                       # trailing byte
    lambda data: b"not json" + data[data.index(b"\n"):],
    lambda data: data.replace(b'"grid_n": 8', b'"grid_n": 9', 1),
    lambda data: data.replace(b'"grid_n": 8', b'"grid_n": "8"', 1),
    lambda data: data.replace(b'"side"', b'"size"', 1),
    lambda data: data[:-8] + np.array([np.nan]).tobytes(),
])
def test_gfd_read_rejects_corrupt_files(tmp_path, damage):
    from ngl.errors import CorruptFileError
    path = tmp_path / "field.gfd"
    write_gfd(GridField(np.arange(64.0).reshape(8, 8)), path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(CorruptFileError):
        read_gfd(path)
