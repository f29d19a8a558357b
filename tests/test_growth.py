import numpy as np
import pytest

from ngl.errors import EmptyRegionError, InfiniteGrowthError, ResolutionError
from ngl.eigen import analytic_eigenpair, analytic_spectrum, solve_spectrum
from ngl.growth import (_window_halves, average_local_growth,
                        donnelly_fefferman_constant, growth_exponent,
                        growth_fields, lq_growth_exponent,
                        quartile_trend_ratio, verify_length_growth_bound)
from ngl.surface import (_bilinear_periodic, _disk_offsets, _local_metric_sups,
                         _refine, _ring_points, _swept_distances,
                         _sup_disks_flat, make_metric)

from conftest import geodesic_distance, oracle_fast_march, torus_field


def radial_power(n):
    return lambda x, y: np.hypot(np.asarray(x, dtype=float),
                                 np.asarray(y, dtype=float)) ** n


# --------------------------------------------------------------- closed forms


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_monomial_doubling_exponent(n):
    beta = growth_exponent(radial_power(n), (0.0, 0.0), 1.0, 0.5)
    assert beta == pytest.approx(n * np.log(2.0), abs=1e-6)


@pytest.mark.parametrize("n,alpha", [(1, 0.2), (3, 0.1), (10, 0.5)])
def test_monomial_alpha_exponent(n, alpha):
    beta = growth_exponent(radial_power(n), (0.0, 0.0), 1.0, alpha)
    assert beta == pytest.approx(n * np.log(1.0 / alpha), abs=1e-6)


def test_constant_field_zero_growth():
    const = lambda x, y: np.ones(np.broadcast_shapes(np.asarray(x).shape,
                                                     np.asarray(y).shape))
    assert growth_exponent(const, (0.0, 0.0), 1.0, 0.3) == 0.0


def test_growth_scale_invariance():
    f = torus_field(lambda x, y: np.sin(2 * np.pi * x) + 0.3, 128)
    g = torus_field(lambda x, y: -7.25 * (np.sin(2 * np.pi * x) + 0.3), 128)
    b1 = growth_exponent(f, (0.3, 0.4), 0.08, 0.25)
    b2 = growth_exponent(g, (0.3, 0.4), 0.08, 0.25)
    assert b1 == pytest.approx(b2, abs=1e-12)


def test_growth_monotone_in_alpha():
    f = torus_field(lambda x, y: np.sin(2 * np.pi * x), 256)
    alphas = [0.1, 0.2, 0.4, 0.6, 0.8]
    betas = [growth_exponent(f, (0.0, 0.5), 0.1, a) for a in alphas]
    for b1, b2 in zip(betas, betas[1:]):
        assert b2 <= b1 + 1e-12


def test_growth_sin_against_dense_oracle():
    f = torus_field(lambda x, y: np.sin(2 * np.pi * x), 1024)
    beta = growth_exponent(f, (0.25, 0.5), 0.05, 0.2)
    # dense brute-force sampling of the interpolant at 10x resolution
    def dense_sup(r):
        best = 0.0
        for rad in np.linspace(0, r, 512)[1:]:
            th = np.linspace(0, 2 * np.pi, 4096)
            best = max(best, float(np.max(np.abs(
                f.interp(0.25 + rad * np.cos(th), 0.5 + rad * np.sin(th))))))
        return best
    oracle = np.log(dense_sup(0.05) / dense_sup(0.01))
    assert beta == pytest.approx(oracle, abs=1e-3)


def test_infinite_growth_error():
    def spike(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.where(np.hypot(x, y) > 0.5, 1.0, 0.0)
    with pytest.raises(InfiniteGrowthError):
        growth_exponent(spike, (0.0, 0.0), 1.0, 0.2)


def test_growth_preconditions():
    f = torus_field(lambda x, y: np.sin(2 * np.pi * x), 64)
    with pytest.raises(ValueError):
        growth_exponent(f, (0.0, 0.5), 0.1, 1.5)
    with pytest.raises(ValueError):
        growth_exponent(f, (0.0, 0.5), -0.1, 0.5)


# --------------------------------------------------------------- L^q variants


def test_lq_constant_field_area_scaling():
    const = lambda x, y: np.ones(np.broadcast_shapes(np.asarray(x).shape,
                                                     np.asarray(y).shape))
    beta = lq_growth_exponent(const, (0.0, 0.0), 1.0, 0.25, 2)
    assert beta == pytest.approx(np.log(1.0 / 0.25), abs=1e-10)


def test_lq_infinite_exponent_dispatch():
    f = torus_field(lambda x, y: np.sin(2 * np.pi * x) + 0.4, 128)
    b_inf = lq_growth_exponent(f, (0.3, 0.4), 0.08, 0.25, np.inf)
    b_sup = growth_exponent(f, (0.3, 0.4), 0.08, 0.25)
    assert b_inf == b_sup


@pytest.mark.parametrize("n", [1, 4])
def test_lq_monomial_radial_integral(n):
    beta = lq_growth_exponent(radial_power(n), (0.0, 0.0), 1.0, 0.25, 2)
    assert beta == pytest.approx((n + 1) * np.log(4.0), abs=1e-8)


# --------------------------------------------------------------- growth field


def test_growth_field_rejects_constant(flat_metric_256):
    pair = analytic_eigenpair(0, 0, grid_n=256)
    with pytest.raises(ValueError):
        growth_fields([pair], flat_metric_256, k0=0.5)


def test_growth_field_resolution_guard():
    metric = make_metric("flat", 128)
    pair = analytic_eigenpair(4, 4, grid_n=128)
    with pytest.raises(ResolutionError, match="increase grid_n"):
        growth_fields([pair], metric, k0=0.5)


def test_growth_field_y_invariance():
    metric = make_metric("flat", 512)
    pair = analytic_eigenpair(1, 0, phase=-np.pi / 2, grid_n=512)
    centers, betas = growth_fields([pair], metric, k0=0.5, sample_grid_m=16)
    # centers run x-major: row i of the 16 x 16 block is the line x = i / 16
    assert np.all(centers[:, 0].reshape(16, 16) == np.arange(16)[:, None] / 16)
    assert np.ptp(betas[0].reshape(16, 16), axis=1).max() < 1e-6


def test_growth_field_1d_reduction_oracle():
    metric = make_metric("flat", 512)
    pair = analytic_eigenpair(1, 0, phase=-np.pi / 2, grid_n=512)
    centers, betas = growth_fields([pair], metric, k0=1.0, sample_grid_m=16)
    [c] = [c for c, p in enumerate(centers.tolist()) if p == [0.0, 0.5]]
    r = 1.0 / (2 * np.pi)
    assert metric.alpha0 == 0.2
    oracle = np.log(np.sin(2 * np.pi * r) / np.sin(2 * np.pi * 0.2 * r))
    assert betas[0, c] == pytest.approx(oracle, abs=2e-3)


@pytest.mark.parametrize("mode", [(1, 1), (2, 1)])
def test_flat_growth_exponent_equals_growth_field_sample(mode):
    # one Euclidean-disk sup kernel: a single disk at a lattice center gives
    # the batched growth field's exponent bit for bit
    metric = make_metric("flat", 320)
    pair = analytic_eigenpair(*mode, phase=0.3, grid_n=320)
    centers, betas = growth_fields([pair], metric, k0=0.5, sample_grid_m=8)
    r = 0.5 / np.sqrt(pair.lam)
    for p, beta in zip(centers, betas[0]):
        assert growth_exponent(pair.field, p, r, metric.alpha0,
                               metric=metric) == beta


@pytest.mark.parametrize("grid_n, m", [(300, 64), (330, 8)])
def test_flat_growth_field_reads_each_disk_at_its_center(grid_n, m):
    # off the lattice (grid_n % m != 0) each center i / m sits a fraction of
    # a cell past a node; the table's exponent is the one at that center
    metric = make_metric("flat", grid_n)
    pair = analytic_eigenpair(2, 1, phase=0.3, grid_n=grid_n)
    centers, betas = growth_fields([pair], metric, k0=0.5, sample_grid_m=m)
    r = 0.5 / np.sqrt(pair.lam)
    want = [growth_exponent(pair.field, p, r, metric.alpha0, metric=metric)
            for p in centers]
    assert betas[0].tolist() == want


def test_growth_field_curved_metric_smoke():
    metric = make_metric("wave", 320)
    pair_flat = analytic_eigenpair(1, 0, phase=-np.pi / 2, grid_n=320)
    centers, betas = growth_fields([pair_flat], metric, k0=0.5, sample_grid_m=4)
    assert centers.shape == (16, 2) and betas.shape == (1, 16)
    assert np.all(np.isfinite(betas) & (betas >= 0))


# --------------------------------------------------------------- geodesic disks


def full_grid_geodesic_sup(values, dist, center, r):
    """Reference geodesic-disk sup: a full-grid distance field, the refined
    lattice over the bounding box of the coarse samples with dist <= r
    (padded by one cell), masked by the bilinear distance."""
    n = values.shape[0]
    h = 1.0 / n
    ii, jj = np.nonzero(dist <= r)
    ic = int(np.floor(center[0] * n))
    jc = int(np.floor(center[1] * n))
    di = (ii - ic + n // 2) % n - n // 2
    dj = (jj - jc + n // 2) % n - n // 2
    fi = np.arange((di.min() - 1) * 4, (di.max() + 1) * 4 + 1)
    fj = np.arange((dj.min() - 1) * 4, (dj.max() + 1) * 4 + 1)
    shape = (fi.size, fj.size)
    X = np.broadcast_to(ic * h + fi[:, None] * (h / 4), shape).ravel()
    Y = np.broadcast_to(jc * h + fj[None, :] * (h / 4), shape).ravel()
    keep = _bilinear_periodic(dist, X, Y) <= r
    return float(np.max(np.abs(_bilinear_periodic(values, X[keep], Y[keep]))))


@pytest.fixture(scope="module")
def wave_spectrum_256(wave_metric_256):
    return solve_spectrum(wave_metric_256, 4)


def test_geodesic_growth_matches_full_grid_oracle(wave_metric_256,
                                                  wave_spectrum_256):
    metric = wave_metric_256
    alpha = metric.alpha0
    # x = 0 is the seam of the torus
    for p in ((0.0, 0.37), (0.3, 0.7), (0.61, 0.13)):
        dist = geodesic_distance(metric, p).values
        for pair in wave_spectrum_256.pairs[1:4]:
            r = 0.5 / np.sqrt(pair.lam)
            oracle = (np.log(full_grid_geodesic_sup(pair.field.values, dist, p, r))
                      - np.log(full_grid_geodesic_sup(pair.field.values, dist, p,
                                                      alpha * r)))
            assert oracle > 0.1
            beta = growth_exponent(pair.field, p, r, alpha, metric=metric)
            assert beta == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_geodesic_window_may_not_wrap_the_torus():
    # on a 65 grid a half-width of 31 cells gives a window of 2 (31 + 1) + 1
    # = 65 cells, the whole torus, which would meet itself; 30 cells fit
    metric = make_metric("wave", 65)
    field = torus_field(lambda x, y: np.sin(2 * np.pi * x) + 2.0, 65)
    cell = np.sqrt(metric.q_minus) / 65     # radius per cell of half-width
    with pytest.raises(ResolutionError,
                       match="65-cell window wraps the 65-cell torus"):
        growth_exponent(field, (0.5, 0.5), 27.5 * cell, 0.5, metric=metric)
    assert growth_exponent(field, (0.5, 0.5), 26.5 * cell, 0.5,
                           metric=metric) > 0.0


def test_geodesic_disk_without_lattice_point(wave_metric_256,
                                             wave_spectrum_256):
    # the center of a refined cell, farther than r from all its corners
    p = ((128 + 0.125) / 256, (64 + 0.125) / 256)
    with pytest.raises(EmptyRegionError):
        growth_exponent(wave_spectrum_256.pairs[1].field, p, 1e-5, 0.5,
                        metric=wave_metric_256)


# --------------------------------------------------------------- shared march


def oracle_local_metric_sup(values, dist, r, ic, jc, half, n):
    """Reference scan: full-grid distance, global modulo gathers, on the 4x
    refined lattice over the cells between offsets -half and half + 1."""
    d = np.where(np.isfinite(dist), dist, 1e18)
    offs = np.arange(-4 * half, 4 * half + 4)
    gx = ((ic * 4 + offs)[:, None] / 4.0) % n
    gy = ((jc * 4 + offs)[None, :] / 4.0) % n
    i0 = np.floor(gx).astype(np.int64) % n
    j0 = np.floor(gy).astype(np.int64) % n
    fx = gx - np.floor(gx)
    fy = gy - np.floor(gy)
    i1 = (i0 + 1) % n
    j1 = (j0 + 1) % n

    def blend(a):   # nested lerps: x within rows j0 and j1, then y
        low = a[i0, j0] + fx * (a[i1, j0] - a[i0, j0])
        high = a[i0, j1] + fx * (a[i1, j1] - a[i0, j1])
        return low + fy * (high - low)

    keep = blend(d) <= r
    assert keep.any()
    return float(np.max(np.abs(blend(values))[keep]))


def oracle_growth_field_curved(pair, metric, k0, m):
    """Reference growth field: one march and two full-grid scans per
    (eigenfunction, center)."""
    n = metric.grid_n
    r = k0 / np.sqrt(pair.lam)
    alpha = metric.alpha0
    half = int(np.ceil(r / np.sqrt(metric.q_minus) / metric.spacing)) + 3
    grid = np.arange(m) / m
    betas = []
    for gi in range(m):
        for gj in range(m):
            p = (grid[gi], grid[gj])
            dist = oracle_fast_march(metric, p, stop_radius=1.05 * r,
                                     window=half + 1)
            ic = int(np.floor(p[0] * n))
            jc = int(np.floor(p[1] * n))
            outer = oracle_local_metric_sup(pair.field.values, dist, r, ic, jc,
                                            half, n)
            inner = oracle_local_metric_sup(pair.field.values, dist, alpha * r,
                                            ic, jc, half, n)
            beta = float(np.log(outer) - np.log(inner))
            betas.append(0.0 if -1e-9 <= beta < 0.0 else beta)
    return betas


@pytest.mark.parametrize("n, ic, jc, half", [(40, 1, 38, 5), (64, 30, 0, 9),
                                              (24, 5, 20, 12)])
def test_local_metric_sups_equal_full_grid_scan(n, ic, jc, half):
    # random fields and distances make every refined point of the block, up
    # to its last row and column, a candidate; half = 12 > n / 2 wraps
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, n))
    span = np.arange(2 * half + 2) - half
    block = np.ix_((ic + span) % n, (jc + span) % n)
    for _ in range(5):
        dist = rng.random((n, n))
        radii = (0.9, 0.5, 0.05)
        got = _local_metric_sups(values[block], dist[block], radii)
        assert got == [oracle_local_metric_sup(values, dist, rad, ic, jc, half, n)
                       for rad in radii]


def test_refined_window_equals_modulo_blend():
    rng = np.random.default_rng(5)
    n, ic, jc, half = 50, 48, 3, 7
    values = rng.standard_normal((n, n))
    offs = np.arange(-4 * half, 4 * half + 1)
    gx = ((ic * 4 + offs)[:, None] / 4.0) % n
    gy = ((jc * 4 + offs)[None, :] / 4.0) % n
    i0 = np.floor(gx).astype(np.int64) % n
    j0 = np.floor(gy).astype(np.int64) % n
    fx = gx - np.floor(gx)
    fy = gy - np.floor(gy)
    i1 = (i0 + 1) % n
    j1 = (j0 + 1) % n
    low = values[i0, j0] + fx * (values[i1, j0] - values[i0, j0])
    high = values[i0, j1] + fx * (values[i1, j1] - values[i0, j1])
    want = low + fy * (high - low)
    span = np.arange(2 * half + 2) - half
    block = values[np.ix_((ic + span) % n, (jc + span) % n)]
    kept = block.copy()
    got = _refine(block)          # [u, v, k, l]
    np.testing.assert_array_equal(block, kept)   # the blend writes copies only
    k = 2 * half + 1
    got = got.transpose(2, 0, 3, 1).reshape(4 * k, 4 * k)[:want.shape[0],
                                                          :want.shape[1]]
    np.testing.assert_array_equal(got, want)


@pytest.fixture(scope="module")
def stripe_spectrum_160():
    metric = make_metric("stripe", 160)
    return metric, solve_spectrum(metric, 4)


@pytest.fixture(scope="module")
def wave_spectrum_224():
    metric = make_metric("wave", 224)
    return metric, solve_spectrum(metric, 4)


@pytest.mark.parametrize("case", ["wave", "stripe", "large"])
def test_shared_march_growth_equals_per_pair_oracle(case, wave_metric_256,
                                                    wave_spectrum_256,
                                                    stripe_spectrum_160,
                                                    wave_spectrum_224):
    # m = 3 and m = 4 both put centers on the seam x = 0; wave 256 has the
    # degenerate pair lambda_2 = lambda_3, which shares one window; k0 = 2
    # on wave 224 gives disks of about 84 cells
    if case == "wave":
        metric, spectrum, k0, m = wave_metric_256, wave_spectrum_256, 0.5, 3
        lams = [pair.lam for pair in spectrum.pairs]
        assert lams[2] == pytest.approx(lams[3], rel=1e-12)
    elif case == "stripe":
        (metric, spectrum), k0, m = stripe_spectrum_160, 0.8, 4
    else:
        (metric, spectrum), k0, m = wave_spectrum_224, 2.0, 2
    pairs = spectrum.nonconstant()
    centers, betas = growth_fields(pairs, metric, k0=k0, sample_grid_m=m)
    assert centers.tolist() == [[i / m, j / m] for i in range(m)
                                for j in range(m)]
    for pair, row in zip(pairs, betas):
        assert row.tolist() == oracle_growth_field_curved(pair, metric, k0, m)
    _, first = growth_fields(pairs[:1], metric, k0, m)
    assert first[0].tolist() == betas[0].tolist()


@pytest.mark.parametrize("profile, n", [("wave", 96), ("stripe", 64),
                                        ("flat", 64)])
def test_geodesic_distance_equals_oracle_march(profile, n):
    # one sweep in the window of the largest radius gives each radius's
    # window the march confined to that window: equal to 4 ulp at every node
    metric = make_metric(profile, n)
    radii = (0.02, 0.05, 0.1, 0.2)
    halves = _window_halves(metric, radii)
    for p in ((0.0, 0.5), (0.995, 0.004), (0.41, 0.77)):
        swept = list(_swept_distances(metric, [p], halves))
        assert [(lo, k) for lo, k, *_ in swept] == [(0, k) for k in range(4)]
        ic = int(np.floor(p[0] * n))
        jc = int(np.floor(p[1] * n))
        for half, (_, _, [got], [rows], [cols]) in zip(halves, swept):
            span = np.arange(-half - 1, half + 2)
            np.testing.assert_array_equal(rows, (ic + span) % n)
            np.testing.assert_array_equal(cols, (jc + span) % n)
            want = oracle_fast_march(metric, p, window=half + 1)[
                np.ix_(rows, cols)]
            assert np.isfinite(want).all()
            np.testing.assert_array_max_ulp(got, want, maxulp=4)


# --------------------------------------------------------------- sup kernel


def _ring_offsets(radius_cells, min_angles=256):
    """The flat scan's boundary ring before it shared ``_ring_points``."""
    m = max(min_angles, int(np.ceil(8 * np.pi * radius_cells)))
    m = 8 * ((m + 7) // 8)
    th = np.arange(m) * (2 * np.pi / m)
    return radius_cells * np.cos(th), radius_cells * np.sin(th)


def test_ring_points_at_a_lattice_node_equal_the_flat_ring():
    # 8 pi R and (2 pi R) / (1/4) round alike (powers of two), so the ring
    # angles and offsets of a lattice-centered disk are unchanged bit for bit
    radii = np.concatenate([np.linspace(0.5, 400.0, 4001), [2.28, 10.19, 10.2]])
    for radius in radii:
        rx, ry = _ring_points((0.0, 0.0), radius, 0.25, min_angles=256)
        ox, oy = _ring_offsets(radius)
        np.testing.assert_array_equal(rx, ox)
        np.testing.assert_array_equal(ry, oy)


def modulo_gather_sup_disks(values, centers_idx, radius_cells):
    """Reference sup kernel: periodic 2-D gathers with explicit modulo."""
    n = values.shape[0]
    di, dj = _disk_offsets(radius_cells)
    rx, ry = _ring_offsets(radius_cells)
    fi = np.floor(rx).astype(np.int64)
    fj = np.floor(ry).astype(np.int64)
    wx = rx - fi
    wy = ry - fj
    ci = centers_idx[:, 0][:, None]
    cj = centers_idx[:, 1][:, None]
    best = np.abs(values)[(ci + di) % n, (cj + dj) % n].max(axis=1)
    ii = (ci + fi) % n
    jj = (cj + fj) % n
    i1 = (ii + 1) % n
    j1 = (jj + 1) % n
    low = values[ii, jj] + wx * (values[i1, jj] - values[ii, jj])
    high = values[ii, j1] + wx * (values[i1, j1] - values[ii, j1])
    ring = np.abs(low + wy * (high - low))
    return np.maximum(best, ring.max(axis=1))


def lattice_centers(n, m):
    ci = np.round(np.arange(m) / m * n).astype(np.int64) % n
    return np.stack(np.meshgrid(ci, ci, indexing="ij"), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("mode", [(1, 0), (2, 3), (4, 1)])
@pytest.mark.parametrize("radius", [10.0, 10.5, 25.49])
def test_sup_kernel_matches_modulo_gather_on_eigenfunctions(mode, radius):
    values = analytic_eigenpair(*mode, phase=0.3, grid_n=320).field.values
    centers = lattice_centers(320, 32)
    np.testing.assert_array_equal(
        _sup_disks_flat(values, centers, radius),
        modulo_gather_sup_disks(values, centers, radius))


@pytest.mark.parametrize("radius", [10.0, 10.5, 25.49, 171.3])
def test_sup_kernel_matches_modulo_gather_on_random_fields(radius):
    # n = 300 with m = 7 centers (m does not divide n); 501 random unsorted
    # centers (not a multiple of the block size); 171.3 > n / 2 pads wider
    # than the grid itself
    rng = np.random.default_rng(11)
    values = rng.standard_normal((300, 300))
    for centers in (lattice_centers(300, 7),
                    rng.integers(0, 300, size=(501, 2))):
        np.testing.assert_array_equal(
            _sup_disks_flat(values, centers, radius),
            modulo_gather_sup_disks(values, centers, radius))


# --------------------------------------------------------------- averaging


def unit_centers(m):
    return np.array([(i / m, j / m) for i in range(m) for j in range(m)])


def test_average_constant_samples(flat_metric_256):
    assert average_local_growth(np.full(16, 0.7), unit_centers(4),
                                flat_metric_256) == pytest.approx(0.7)


def test_average_weights_normalize_on_wave(wave_metric_256):
    assert average_local_growth(np.ones(64), unit_centers(8),
                                wave_metric_256) == pytest.approx(1.0, abs=1e-14)


def test_average_needs_enough_samples(flat_metric_256):
    with pytest.raises(ValueError):
        average_local_growth(np.ones(1), np.zeros((1, 2)), flat_metric_256)


def test_average_quadrature_stable_under_doubling():
    # the default 64 x 64 center grid is within 1% of its doubling
    metric = make_metric("flat", 512)
    pair = analytic_eigenpair(1, 1, grid_n=512)
    def average(m):
        centers, betas = growth_fields([pair], metric, 0.5, m)
        return average_local_growth(betas[0], centers, metric)
    a64 = average(64)
    a128 = average(128)
    assert abs(a128 - a64) / a64 < 0.01


# --------------------------------------------------------------- family table


def test_length_growth_report_flat_family():
    metric = make_metric("flat", 512)
    spectrum = analytic_spectrum(512, 12)
    report = verify_length_growth_bound(metric, spectrum, k0=0.5,
                                        sample_grid_m=32)
    assert len(report.rows) == 12
    for row in report.rows:
        assert row.lower_ratio > 0 and np.isfinite(row.lower_ratio)
        assert row.upper_ratio > 0 and np.isfinite(row.upper_ratio)
        # pure plane waves: H^1 = 2 sqrt(m^2+n^2), so H^1/sqrt(lam) = 1/pi
        assert row.h1_metric / np.sqrt(row.lam) == pytest.approx(1 / np.pi,
                                                                 rel=0.01)
    summary = report.summary()
    assert summary["lower_spread"] < 100
    assert summary["upper_spread"] < 100
    assert quartile_trend_ratio(report) < 2.0
    assert donnelly_fefferman_constant(report) < 1.0


def test_report_csv_header(tmp_path):
    from ngl.growth import report_to_csv
    metric = make_metric("flat", 320)
    spectrum = analytic_spectrum(320, 4)
    report = verify_length_growth_bound(metric, spectrum, k0=0.5,
                                        sample_grid_m=16)
    path = tmp_path / "table.csv"
    report_to_csv(report, path)
    header = path.read_text().splitlines()[0]
    assert header == "lambda,A,H1_metric,lower_ratio,upper_ratio"
