import numpy as np
import pytest

from ngl.eigen import analytic_eigenpair
from ngl.nodal import (crossing_counts, extract_nodal_set, nodal_length,
                       singular_points)
from ngl.surface import GridField, PLANAR, TORUS, make_metric

from conftest import torus_field


def planar_field(fn, grid_n, origin=(-0.5, -0.5), side=1.0):
    h = side / (grid_n - 1)
    coords = origin[0] + np.arange(grid_n) * h
    x, y = np.meshgrid(coords, coords, indexing="ij")
    return GridField(fn(x, y), domain=PLANAR, origin=origin, side=side)


# ---------------------------------------------------------------- lengths


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_sine_wave_lengths(m):
    f = torus_field(lambda x, y: np.sin(2 * np.pi * m * x), 512)
    ns = extract_nodal_set(f)
    assert ns.euclidean_length == pytest.approx(2 * m, rel=1e-3)


def test_circle_curve_length():
    R = 0.3
    f = planar_field(lambda x, y: x * x + y * y - R * R, 512)
    ns = extract_nodal_set(f)
    assert ns.euclidean_length == pytest.approx(2 * np.pi * R, rel=5e-3)


def test_segment_endpoints_on_cell_edges():
    f = torus_field(lambda x, y: np.sin(2 * np.pi * (x + 2 * y)) + 0.2, 64)
    ns = extract_nodal_set(f)
    h = 1.0 / 64
    for x0, y0, x1, y1 in ns.segments:
        # each endpoint has one coordinate exactly on the cell lattice
        on_lattice = [abs(c / h - round(c / h)) < 1e-9 for c in (x0, y0, x1, y1)]
        assert on_lattice[0] or on_lattice[1]
        assert on_lattice[2] or on_lattice[3]


def test_refinement_convergence():
    for fn in (lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y) + 0.3,
               lambda x, y: np.cos(2 * np.pi * (2 * x - y))):
        lengths = []
        for n in (256, 512):
            ns = extract_nodal_set(torus_field(fn, n))
            lengths.append(ns.euclidean_length)
        assert abs(lengths[1] - lengths[0]) / lengths[0] < 0.005


def test_singular_crossings_keep_length_bounded():
    # crossing nodal lines: length must stabilize, not blow up, under refinement
    fn = lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    l1 = extract_nodal_set(torus_field(fn, 256)).euclidean_length
    l2 = extract_nodal_set(torus_field(fn, 512)).euclidean_length
    # saddle cells clip an O(h) corner at each of the 4 crossings
    assert l1 == pytest.approx(4.0, rel=5e-3)
    assert abs(l2 - l1) / l1 < 0.01


def test_metric_length_constant_factors(sin_x_256):
    ns = extract_nodal_set(sin_x_256)
    m1 = make_metric("flat", 256)
    e_len, m_len = nodal_length(ns, m1)
    assert m_len == e_len
    m4 = make_metric("flat", 256, value=4.0)
    _, m_len4 = nodal_length(ns, m4)
    assert m_len4 == pytest.approx(2 * e_len, abs=1e-10)


def test_metric_length_against_line_integral_oracle():
    # zero lines of sin(2 pi (x - 1/4)) sit where the wave factor varies in y
    f = torus_field(lambda x, y: np.sin(2 * np.pi * (x - 0.25)), 256)
    ns = extract_nodal_set(f)
    metric = make_metric("wave", 256)
    _, m_len = nodal_length(ns, metric)
    ys = (np.arange(200000) + 0.5) / 200000
    oracle = (np.mean(np.sqrt(1 + 0.2 * np.sin(2 * np.pi * ys)))
              + np.mean(np.sqrt(1 - 0.2 * np.sin(2 * np.pi * ys))))
    assert m_len == pytest.approx(oracle, rel=0.002)


# ---------------------------------------------------------------- singular points


def test_singular_points_absent_for_sine(sin_x_256):
    assert singular_points(sin_x_256) == []


def test_singular_points_product():
    f = torus_field(lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), 256)
    pts = singular_points(f)
    expected = {(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)}
    assert len(pts) == 4
    for p in pts:
        assert min(max(abs(p[0] - e[0]), abs(p[1] - e[1])) for e in expected) < 1.0 / 256


def test_singular_points_sum():
    f = torus_field(lambda x, y: np.sin(2 * np.pi * x) + np.sin(2 * np.pi * y), 256)
    pts = singular_points(f)
    expected = [(0.25, 0.75), (0.75, 0.25)]
    assert len(pts) == 2
    for p, e in zip(sorted(pts), expected):
        assert abs(p[0] - e[0]) < 1.0 / 256
        assert abs(p[1] - e[1]) < 1.0 / 256


def test_singular_tolerances_validated(sin_x_256):
    with pytest.raises(ValueError):
        singular_points(sin_x_256, tol_f=0.0)


# ---------------------------------------------------------------- circle crossings


def circle_intersections(ns, center, radius):
    """Crossings of one probe circle, through the batched probe kernel."""
    counts = crossing_counts(ns, np.array([center[0]], dtype=float),
                             np.array([center[1]], dtype=float), radius)
    assert counts.shape == (1,)
    return int(counts[0])


def test_circle_intersections_far_line(sin_x_256):
    ns = extract_nodal_set(sin_x_256)
    # nearest zero lines are at distance 0.25 > 0.2
    assert circle_intersections(ns, (0.25, 0.5), 0.2) == 0


def test_circle_intersections_crossing_line(sin_x_256):
    ns = extract_nodal_set(sin_x_256)
    assert circle_intersections(ns, (0.0, 0.0), 0.1) == 2


def test_circle_intersections_two_circles():
    R = 0.3
    f = planar_field(lambda x, y: x * x + y * y - R * R, 512,
                     origin=(-0.6, -0.6), side=1.2)
    ns = extract_nodal_set(f)
    assert circle_intersections(ns, (0.35, 0.0), 0.1) == 2


def test_circle_intersections_empty():
    from ngl.nodal import NodalSet
    assert circle_intersections(NodalSet(np.empty((0, 4))), (0.5, 0.5), 0.1) == 0


# ---------------------------------------------------------------- structure


_REFERENCE_PAIRS = {
    1: ((3, 0),), 14: ((3, 0),),
    2: ((0, 1),), 13: ((0, 1),),
    4: ((1, 2),), 11: ((1, 2),),
    8: ((2, 3),), 7: ((2, 3),),
    3: ((3, 1),), 12: ((3, 1),),
    6: ((0, 2),), 9: ((0, 2),),
}


def full_grid_segments(field):
    """Reference marching squares: crossings and endpoints on every cell,
    one mask per case, segments sorted by (cell, pair rank)."""
    v = field.values
    n = field.grid_n
    h = field.spacing
    if field.domain == TORUS:
        fA = v
        fB = np.roll(v, -1, axis=0)
        fD = np.roll(v, -1, axis=1)
        fC = np.roll(fB, -1, axis=1)
        xs = np.arange(n) * h
        ys = np.arange(n) * h
        valid = np.ones((n, n), dtype=bool)
    else:
        fA, fB, fD, fC = v[:-1, :-1], v[1:, :-1], v[:-1, 1:], v[1:, 1:]
        xs = field.origin[0] + np.arange(n - 1) * h
        ys = field.origin[1] + np.arange(n - 1) * h
        valid = np.ones((n - 1, n - 1), dtype=bool)
        if field.mask is not None:
            m = field.mask
            valid = m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:]
    X = xs[:, None]
    Y = ys[None, :]
    case = ((fA >= 0) * 1 + (fB >= 0) * 2 + (fC >= 0) * 4
            + (fD >= 0) * 8).astype(np.int8)
    with np.errstate(divide="ignore", invalid="ignore"):
        tB, tR = fA / (fA - fB), fB / (fB - fC)
        tT, tL = fD / (fD - fC), fA / (fA - fD)
    shape = case.shape
    ex = np.stack([X + tB * h, np.broadcast_to(X + h, shape),
                   X + tT * h, np.broadcast_to(X, shape)])
    ey = np.stack([np.broadcast_to(Y, shape), Y + tR * h,
                   np.broadcast_to(Y + h, shape), Y + tL * h])
    CI, CJ = np.indices(shape)
    segs, keys = [], []

    def emit(mask, e1, e2, rank):
        segs.append(np.stack([ex[e1][mask], ey[e1][mask],
                              ex[e2][mask], ey[e2][mask]], axis=1))
        keys.append(np.stack([CI[mask], CJ[mask],
                              np.full(int(mask.sum()), rank)], axis=1))

    for c, pairs in _REFERENCE_PAIRS.items():
        for rank, (e1, e2) in enumerate(pairs):
            emit((case == c) & valid, e1, e2, rank)
    center = 0.25 * (fA + fB + fC + fD)
    for c, pos_pairs, neg_pairs in ((5, ((0, 1), (2, 3)), ((3, 0), (1, 2))),
                                    (10, ((3, 0), (1, 2)), ((0, 1), (2, 3)))):
        mask = (case == c) & valid
        for sel, pairs in ((mask & (center >= 0), pos_pairs),
                           (mask & (center < 0), neg_pairs)):
            for rank, (e1, e2) in enumerate(pairs):
                emit(sel, e1, e2, rank)
    segments = np.concatenate(segs, axis=0)
    keys = np.concatenate(keys, axis=0)
    return segments[np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))]


def _oracle_fields():
    rng = np.random.default_rng(5)
    n = 96
    h = 1.0 / (n - 1)
    coords = -0.5 + np.arange(n) * h
    x, y = np.meshgrid(coords, coords, indexing="ij")
    disk = x * x + y * y <= 0.4 ** 2
    planar = np.sin(9 * x) * np.cos(7 * y) + 0.1 * x
    return {
        "torus_eigenfunction": analytic_eigenpair(3, 2, phase=0.4,
                                                  grid_n=128).field,
        "torus_product": torus_field(
            lambda x, y: np.sin(6 * np.pi * x) * np.sin(4 * np.pi * y), 64),
        "torus_random": GridField(rng.standard_normal((50, 50))),
        "planar": GridField(planar, domain=PLANAR, origin=(-0.5, -0.5)),
        "planar_masked": GridField(planar, domain=PLANAR, origin=(-0.5, -0.5),
                                   mask=disk),
        "planar_random_masked": GridField(
            rng.standard_normal((n, n)), domain=PLANAR, origin=(-0.5, -0.5),
            mask=rng.random((n, n)) < 0.8),
        "exact_zeros": GridField(np.round(rng.standard_normal((40, 40)))),
        "sign_only": GridField(rng.choice([-1.0, 1.0, 2.0, -2.0], (60, 60))),
        "planar_sign_only": GridField(rng.choice([-1.0, 0.0, 3.0], (60, 60)),
                                      domain=PLANAR),
        "two_by_two_torus": GridField(np.array([[1.0, -1.0], [-2.0, 1.5]])),
        "two_by_two_planar": GridField(np.array([[1.0, -1.0], [-2.0, 1.5]]),
                                       domain=PLANAR),
    }


@pytest.mark.parametrize("name", sorted(_oracle_fields()))
def test_extraction_matches_full_grid_reference(name):
    field = _oracle_fields()[name]
    got = extract_nodal_set(field).segments
    want = full_grid_segments(field)
    assert len(want) > 0
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)


def test_sign_only_field_has_saddles_of_both_center_signs():
    v = _oracle_fields()["sign_only"].values
    fA, fB = v, np.roll(v, -1, axis=0)
    fD, fC = np.roll(v, -1, axis=1), np.roll(fB, -1, axis=1)
    case = (fA >= 0) * 1 + (fB >= 0) * 2 + (fC >= 0) * 4 + (fD >= 0) * 8
    center = 0.25 * (fA + fB + fC + fD)
    for c in (5, 10):
        assert np.any((case == c) & (center >= 0))
        assert np.any((case == c) & (center < 0))


@pytest.mark.parametrize("values", [np.zeros((16, 16)), np.full((16, 16), -3.0),
                                    np.full((2, 2), 2.0)])
@pytest.mark.parametrize("domain", [TORUS, PLANAR])
def test_constant_fields_have_empty_segments(values, domain):
    segments = extract_nodal_set(GridField(values, domain=domain)).segments
    assert segments.shape == (0, 4)


def test_extraction_deterministic(sin_x_256):
    a = extract_nodal_set(sin_x_256).segments
    b = extract_nodal_set(sin_x_256).segments
    np.testing.assert_array_equal(a, b)


def test_masked_planar_extraction():
    n = 128
    h = 1.0 / (n - 1)
    coords = -0.5 + np.arange(n) * h
    x, y = np.meshgrid(coords, coords, indexing="ij")
    mask = x * x + y * y <= 0.45 ** 2
    f = GridField(x, domain=PLANAR, origin=(-0.5, -0.5), side=1.0, mask=mask)
    ns = extract_nodal_set(f)
    # the line x = 0 clipped to the mask disk has length about 0.9
    assert ns.euclidean_length == pytest.approx(0.9, rel=0.03)


def test_eigenfunction_constant_has_no_nodal_set():
    pair = analytic_eigenpair(0, 0, grid_n=64)
    assert len(extract_nodal_set(pair.field)) == 0
