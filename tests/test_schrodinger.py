import types

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from ngl.errors import ConstraintError, InfiniteGrowthError, ResolutionError
from ngl.eigen import EigenPair, analytic_eigenpair
from ngl.schrodinger import (_ANNULUS_NODES, DiskAnnuli, beta_star, check_beta_related, classify_rapid, core_field,
                             count_rapid_disks, growth_chain_report, localize,
                             planar_field_from_function,
                             separated_probe_centers)
from ngl.surface import GridField, make_metric, polar_quadrature, sup_on_disk


def constant_field(value=1.0, **kw):
    fn = lambda x, y: np.zeros(np.broadcast_shapes(np.asarray(x).shape,
                                                   np.asarray(y).shape)) + value
    return planar_field_from_function(fn, planar_grid_n=128, **kw)


@pytest.fixture(scope="module")
def localized_sine():
    metric = make_metric("flat", 512)
    pair = analytic_eigenpair(1, 0, phase=-np.pi / 2, grid_n=512)
    return pair, metric, localize(pair, metric, (0.0, 0.5), k0=0.5,
                                  planar_grid_n=384)


# --------------------------------------------------------------- localization


def test_localize_flat_constants(localized_sine):
    _, metric, pf = localized_sine
    # tau = 2 q+ alpha0 = 2/5 on the flat torus, potential = (k0 tau)^2 q
    assert pf.meta["tau"] == pytest.approx(0.4, abs=1e-14)
    assert pf.meta["potential_sup"] == pytest.approx(0.04, abs=1e-14)
    assert float(pf.potential_evaluate(0.0, 0.0)) == pytest.approx(0.04, abs=1e-12)
    assert pf.meta["potential_sup"] < pf.eps0


def test_localize_closed_form_pullback(localized_sine):
    _, _, pf = localized_sine
    k0tau = 0.2
    sup3 = np.sin(3 * k0tau)
    zs = np.array([0.3, -1.2, 2.0, 0.0])
    ws = np.array([0.5, 1.0, -0.4, 2.2])
    exact = np.sin(k0tau * zs) / sup3
    got = pf.evaluate(zs, ws)
    assert np.max(np.abs(got - exact)) < 1e-6


def test_localize_residual_certificate(localized_sine):
    _, _, pf = localized_sine
    assert pf.residual < 1e-3


def test_localize_sup_normalized(localized_sine):
    _, _, pf = localized_sine
    sup = sup_on_disk(pf, (0.0, 0.0), 3.0)
    assert sup == pytest.approx(1.0, abs=1e-9)


def test_localize_guards():
    metric = make_metric("flat", 128)
    pair = analytic_eigenpair(1, 0, grid_n=128)
    with pytest.raises(ResolutionError):
        localize(pair, metric, (0.0, 0.0), k0=0.5)
    metric512 = make_metric("flat", 512)
    pair512 = analytic_eigenpair(1, 0, grid_n=512)
    with pytest.raises(ConstraintError, match="decrease k0"):
        localize(pair512, metric512, (0.0, 0.0), k0=0.5, eps0=0.01)
    const_pair = analytic_eigenpair(0, 0, grid_n=128)
    with pytest.raises(ValueError):
        localize(const_pair, metric, (0.0, 0.0))


# --------------------------------------------------------------- beta star


def test_beta_star_constant():
    b, bs = beta_star(constant_field())
    assert b == 0.0
    assert bs == 1.0


@pytest.mark.parametrize("n", [1, 3])
def test_beta_star_monomials(n):
    pf = planar_field_from_function(
        lambda x, y: np.hypot(np.asarray(x, dtype=float),
                              np.asarray(y, dtype=float)) ** n,
        planar_grid_n=128)
    b, bs = beta_star(pf)
    assert b == pytest.approx(n * np.log(10.0), abs=1e-9)
    assert bs == max(b, 1.0)


def test_beta_star_localized_sine_oracle(localized_sine):
    _, _, pf = localized_sine
    b, bs = beta_star(pf)
    k0tau = 0.2
    oracle = np.log(np.sin(2.5 * k0tau) / np.sin(0.25 * k0tau))
    assert b == pytest.approx(oracle, abs=2e-3)
    assert bs == max(b, 1.0)


def test_beta_star_zero_field_rejected():
    pf = constant_field(0.0, normalize=False)
    with pytest.raises(InfiniteGrowthError):
        beta_star(pf)


# --------------------------------------------------------------- annuli


def test_disk_annuli_geometry():
    ann = DiskAnnuli(center=(0.0, 0.0), delta=0.01, a=0.1)
    band = ann.band
    inner = ann.inner_readout
    outer = ann.outer_readout
    assert band[0] == pytest.approx(0.008, abs=1e-15)
    assert band[1] == pytest.approx(0.009, abs=1e-15)
    assert inner[0] < inner[1]
    assert outer[0] < outer[1]
    # the outer readout annulus sits inside the cutoff band
    assert band[0] <= outer[0] and outer[1] <= band[1] + 1e-15
    with pytest.raises(ConstraintError):
        DiskAnnuli(center=(0, 0), delta=0.01, a=0.4)


def test_classify_rapid_constant_field_area_ratio():
    pf = constant_field()
    ann = DiskAnnuli(center=(0.0, 0.0), delta=0.01, a=0.1)
    res = classify_rapid(pf, ann, 10.0)
    a = 0.1
    area_inner = np.pi * 0.01 ** 2 * ((1 - 4 * a / 3) ** 2 - (1 - 3 * a) ** 2)
    area_outer = np.pi * 0.01 ** 2 * ((1 - a) ** 2 - (1 - 1.5 * a) ** 2)
    assert res.int_inner_readout == pytest.approx(area_inner, rel=5e-3)
    assert res.int_outer_readout == pytest.approx(area_outer, rel=5e-3)
    # the area ratio is about 0.335, far below the threshold 10
    assert not res.is_rapid
    assert classify_rapid(pf, ann, 0.0).is_rapid
    assert classify_rapid(pf, ann, area_outer / area_inner - 0.01).is_rapid


def test_classify_rapid_monotone_in_threshold(localized_sine):
    _, _, pf = localized_sine
    ann = DiskAnnuli(center=(0.002, 0.001), delta=0.005, a=0.1)
    thresholds = [0.0, 0.1, 0.335, 1.0, 10.0]
    flags = [classify_rapid(pf, ann, m).is_rapid for m in thresholds]
    # once slow, it stays slow for any larger threshold
    for f1, f2 in zip(flags, flags[1:]):
        assert f1 or not f2


def test_classify_rapid_exponential_growth():
    pf = planar_field_from_function(
        lambda x, y: np.exp(50.0 * (np.hypot(np.asarray(x, dtype=float),
                                             np.asarray(y, dtype=float)) - 3.0)),
        planar_grid_n=128, normalize=False)
    ann = DiskAnnuli(center=(0.0, 0.0), delta=1.0, a=0.1)
    res = classify_rapid(pf, ann, 10.0)
    # 1-D radial quadrature oracle for both squared-mass integrals
    def oracle(r0, r1):
        rr = np.linspace(r0, r1, 20001)
        f2 = np.exp(100.0 * (rr - 3.0))
        w = np.full_like(rr, rr[1] - rr[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return 2 * np.pi * np.sum(f2 * rr * w)
    assert res.int_inner_readout == pytest.approx(oracle(*ann.inner_readout), rel=1e-3)
    assert res.int_outer_readout == pytest.approx(oracle(*ann.outer_readout), rel=1e-3)
    assert res.is_rapid


def test_classify_rapid_annulus_must_fit():
    pf = constant_field()
    with pytest.raises(ConstraintError):
        classify_rapid(pf, DiskAnnuli(center=(2.5, 0.0), delta=1.0, a=0.1), 1.0)


# ------------------------------------------ readout ladder vs the full rule

FULL_RULE_POINTS = 2 * 24 * 512   # both readout annuli at 24 x 512 nodes


def counted_field(fn):
    """A field exposing ``evaluate`` that counts the points it is asked for."""
    probe = types.SimpleNamespace(points=0)

    def evaluate(x, y):
        probe.points += np.broadcast(x, y).size
        return fn(x, y)

    probe.evaluate = evaluate
    return probe


def node_jitter(degree, zero, center, delta, a):
    """Relative change of F^2, for a zero of order ``degree``, when the nodes
    move by the rounding of ``center + offset``: 2 d u / r, with u the
    spacing of floats at the center and r the distance from the zero to the
    center, or the inner readout radius if that is larger.  At a zero of
    order 16 at |c| = 0.0094, with readout radii near 2.5e-7, that is 2e-10
    per node, and the rules of 128 and 512 angles differed by 2e-12 on it:
    readouts that carry no twelfth digit cannot be matched to 1e-12 by any
    rule, so the polynomial draws keep this below 1e-12."""
    u = np.spacing(max(abs(center[0]), abs(center[1])))
    r = max(np.hypot(zero[0] - center[0], zero[1] - center[1]),
            (1 - 3 * a) * delta)
    return 2 * degree * u / r


def full_rule_f2_integral(fn, center, r_inner, r_outer):
    """The full readout rule, as classify_rapid falls back to it: F^2
    summed against the weights of the 24 x 512 polar rule."""
    px, py, w = polar_quadrature(center, r_inner, r_outer, *_ANNULUS_NODES)
    vals = np.asarray(fn(px, py))
    return float(np.sum(vals * vals * w))


def assert_ladder_matches_full_rule(fn, center, delta, a, m):
    """classify_rapid against full_rule_f2_integral on both readouts: the same
    decision, integrals within 1e-12 relative, bit-equal when the ladder fell
    back to the full rule; m = "ratio" sets M exactly at I''/I'.  Returns
    the result and the number of points the ladder evaluated."""
    annuli = DiskAnnuli(center=center, delta=delta, a=a)
    want = [full_rule_f2_integral(fn, center, *annuli.inner_readout),
            full_rule_f2_integral(fn, center, *annuli.outer_readout)]
    if m == "ratio":
        m = want[1] / want[0] if want[0] > 0 else 1.0
    field = counted_field(fn)
    res = classify_rapid(field, annuli, m)
    got = [res.int_inner_readout, res.int_outer_readout]
    assert res.is_rapid == bool(m * want[0] <= want[1])
    assert field.points <= FULL_RULE_POINTS
    if field.points == FULL_RULE_POINTS:
        assert got == want
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * abs(w), (g, w)
    return res, field.points


def polynomial_field(kind, degree, zero, low_degree, weight):
    """Re((60 (z - zero))^degree) + weight Re((60 z)^low_degree), or the
    non-harmonic (60 (x - zero_x))^i (60 (y - zero_y))^(degree - i)."""
    zx, zy = zero

    def harmonic(x, y):
        z = 60.0 * (np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float))
        return np.real((z - 60.0 * (zx + 1j * zy)) ** degree
                       + weight * z ** low_degree)

    def product(x, y):
        x = 60.0 * (np.asarray(x, dtype=float) - zx)
        y = 60.0 * (np.asarray(y, dtype=float) - zy)
        return x ** low_degree * y ** (degree - low_degree)

    return harmonic if kind == "harmonic" else product


_CORE = st.floats(-1 / 60, 1 / 60)
_THRESHOLD = st.sampled_from(["ratio", 10.0, 1.0, 0.0])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kind=st.sampled_from(["harmonic", "product"]),
       degree=st.integers(0, 60), low=st.integers(0, 60),
       weight=st.sampled_from([0.0, 1e-3, 1.0]),
       zero=st.tuples(_CORE, _CORE), at_zero=st.booleans(),
       center=st.tuples(_CORE, _CORE), log_delta=st.floats(-6.0, -1.8),
       a=st.sampled_from([0.1, 0.25]), m=_THRESHOLD)
def test_ladder_matches_full_rule_on_polynomials(kind, degree, low, weight,
                                                 zero, at_zero, center,
                                                 log_delta, a, m):
    fn = polynomial_field(kind, degree, zero, min(low, degree), weight)
    center = zero if at_zero else center
    assume(node_jitter(degree, zero, center, 10.0 ** log_delta, a) <= 1e-12)
    assert_ladder_matches_full_rule(fn, center, 10.0 ** log_delta, a, m)


@pytest.mark.parametrize("degree", [8, 16, 24, 32, 48, 60])
def test_ladder_is_not_fooled_by_rotational_symmetry(degree):
    """At the zero of Re z^d, F^2 = r^2d (1 + cos 2d theta) / 2: every rung
    of N angles with N | 2d aliases cos 2d theta to 1 and doubles both
    readouts, so such rungs agree on a wrong value (16 and 32 when 16 | d,
    and 64 too when 32 | d)."""
    fn = polynomial_field("harmonic", degree, (0.0, 0.0), 0, 0.0)
    for m in ("ratio", 10.0):
        assert_ladder_matches_full_rule(fn, (0.0, 0.0), 1e-3, 0.1, m)


@pytest.mark.parametrize("degree", [70, 100])
def test_ladder_climbs_past_an_aliasing_rung(degree):
    """Off its zero, Re((60 (z - z0))^d) squared has every angular frequency
    up to 2 d > 128 about the probe, so rung 128 misses part of it and the
    ladder has to climb past it."""
    fn = polynomial_field("harmonic", degree, (0.002, -0.001), 0, 0.0)
    _, points = assert_ladder_matches_full_rule(fn, (0.003, 0.0), 2e-3, 0.1,
                                                10.0)
    assert points > FULL_RULE_POINTS // 4


@pytest.fixture(scope="module")
def localized_two_modes():
    """A localized flat eigenfunction with two modes of one eigenvalue, and
    the planar x of the spline knot line nearest the core."""
    grid_n = 512
    modes = [analytic_eigenpair(1, 1, phase=0.3, grid_n=grid_n),
             analytic_eigenpair(1, -1, phase=1.1, grid_n=grid_n)]
    values = modes[0].field.values + 0.7 * modes[1].field.values
    pair = EigenPair(lam=modes[0].lam, residual=0.0,
                     field=GridField(values / np.abs(values).max()))
    p = (0.1234, 0.4321)
    pf = localize(pair, make_metric("flat", grid_n), p, k0=0.5,
                  planar_grid_n=64)
    knot_x = (round(p[0] * grid_n) / grid_n - p[0]) / pf.meta["scale"]
    return pf, knot_x


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(offset=st.floats(-1.0, 1.0), cy=_CORE, log_delta=st.floats(-5.0, -1.8),
       a=st.sampled_from([0.1, 0.25]), m=_THRESHOLD)
def test_ladder_matches_full_rule_on_the_spline(localized_two_modes, offset,
                                                cy, log_delta, a, m):
    """Annuli whose centers lie within their outer radius of a knot line of
    the eigenfunction's spline, so most of them cross it."""
    pf, knot_x = localized_two_modes
    delta = 10.0 ** log_delta
    center = (knot_x + offset * (1 - a) * delta, cy)
    assert_ladder_matches_full_rule(pf.evaluate, center, delta, a, m)


def test_ladder_matches_full_rule_on_the_rapid_family(monkeypatch):
    """Every probe that tiling classifies on Re((60 z)^42), the subnormal
    and zero readouts near its zero included; those fall back to the full
    rule."""
    import ngl.tiling as tiling
    fn = polynomial_field("harmonic", 42, (0.0, 0.0), 0, 0.0)
    pf = planar_field_from_function(fn, planar_grid_n=128)
    probes = []

    def checking(field, annuli, m):
        res, points = assert_ladder_matches_full_rule(
            field.evaluate, annuli.center, annuli.delta, annuli.a, m)
        probes.append((points == FULL_RULE_POINTS,
                       min(res.int_inner_readout, res.int_outer_readout)))
        return res

    monkeypatch.setattr(tiling, "classify_rapid", checking)
    tiling.run_tiling(pf, m_threshold=10.0, k_max=4)
    tiny = [fell_back for fell_back, low in probes if low < 1e-290]
    assert len(probes) > 1000 and tiny and all(tiny)
    assert sum(fell_back for fell_back, _ in probes) < len(probes) / 4


# --------------------------------------------------------------- rapid counts


def test_probe_lattice_is_separated():
    for delta in (1e-4, 1e-5):
        centers = separated_probe_centers(delta)
        assert len(centers) >= 1
        pitch = 2 * np.sqrt(delta)
        pts = np.asarray(centers)
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= 1 / 60 - delta + 1e-15)
        for i in range(len(pts)):
            d = np.hypot(pts[:, 0] - pts[i, 0], pts[:, 1] - pts[i, 1])
            d[i] = np.inf
            assert d.min() >= pitch - 1e-12


def test_count_rapid_disks_constant_field():
    pf = constant_field()
    rep = count_rapid_disks(pf, 1e-5, 10.0)
    assert rep.n_rapid == 0
    assert rep.ratio == 0.0
    rep0 = count_rapid_disks(pf, 1e-5, 0.0)
    assert rep0.n_rapid == rep0.n_probes == len(separated_probe_centers(1e-5))


def test_count_rapid_disks_radius_constraints():
    pf = constant_field()
    with pytest.raises(ConstraintError):
        count_rapid_disks(pf, 0.02, 10.0)   # delta >= 1/60
    big_beta = planar_field_from_function(
        lambda x, y: np.hypot(np.asarray(x, dtype=float),
                              np.asarray(y, dtype=float)) ** 40,
        planar_grid_n=128)
    with pytest.raises(ConstraintError):
        count_rapid_disks(big_beta, 0.01, 10.0)  # delta * beta^* >= 1/2
    check_beta_related(1e-4, 1.0)


# --------------------------------------------------------------- chain report


def test_growth_chain_flat_disks_match(localized_sine):
    pair, metric, pf = localized_sine
    rep = growth_chain_report(pair, metric, (0.0, 0.5), k0=0.5, pf=pf)
    # on the flat torus the matched disks equal the metric balls, so the
    # disk ratio reproduces the growth exponent exactly
    assert rep.disk_ratio == pytest.approx(rep.beta_p, abs=1e-3)
    assert rep.disk_ratio_below_beta_p
    assert rep.chain_upper_holds
    assert rep.beta_star == max(rep.beta, 1.0)


def test_growth_chain_reported_on_wave_metric():
    metric = make_metric("wave", 512)
    from ngl.eigen import solve_spectrum
    spec = solve_spectrum(metric, 2)
    pair = spec.pairs[1]
    # the field grows at p = (0, 0), so the comparison below is not 0 <= 0
    rep = growth_chain_report(pair, metric, (0.0, 0.0), k0=0.5)
    assert np.isfinite(rep.beta) and np.isfinite(rep.beta_p)
    assert rep.beta_p > 0.5
    assert rep.radius_minus < rep.radius_plus
    # the inclusion-safe half of the chain
    assert rep.disk_ratio <= rep.beta_p + 1e-2


# --------------------------------------------------------------- core field


def test_core_field_resolution(localized_sine):
    _, _, pf = localized_sine
    core = core_field(pf, grid_n=257)
    assert core.grid_n == 257
    assert core.origin == (-1.0 / 48.0, -1.0 / 48.0)
    assert core.side == 2.0 / 48.0
    # core samples are the evaluator at the grid nodes origin + (i, j) h
    idx = np.arange(0, 257, 8)
    nodes = core.origin[0] + idx * core.spacing
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    np.testing.assert_allclose(core.values[np.ix_(idx, idx)], pf.evaluate(X, Y),
                               rtol=0.0, atol=1e-12 * np.abs(core.values).max())


def test_localization_commutes_with_growth(localized_sine):
    pair, metric, pf = localized_sine
    # beta computed on the planar field equals the log sup ratio of the
    # eigenfunction over the matched pullback disks, within interpolation
    beta, _ = beta_star(pf)
    s = pf.meta["scale"]
    sup_plus = sup_on_disk(pair.field, (0.0, 0.5), 2.5 * s)
    sup_minus = sup_on_disk(pair.field, (0.0, 0.5), 0.25 * s)
    direct = float(np.log(sup_plus / sup_minus))
    assert abs(beta - direct) < 5e-3


def reference_annulus_f2(fn, center, r_inner, r_outer, n_radial=24, n_angular=512):
    """Squared mass over an annulus with fresh Legendre nodes on every call."""
    nodes, weights = np.polynomial.legendre.leggauss(n_radial)
    rad = 0.5 * (r_outer - r_inner) * nodes + 0.5 * (r_outer + r_inner)
    wr = 0.5 * (r_outer - r_inner) * weights
    th = np.arange(n_angular) * (2 * np.pi / n_angular)
    px = center[0] + rad[:, None] * np.cos(th)[None, :]
    py = center[1] + rad[:, None] * np.sin(th)[None, :]
    vals = np.asarray(fn(px, py))
    return float(np.sum(vals * vals * rad[:, None] * wr[:, None])
                 * (2 * np.pi / n_angular))


def test_annulus_mass_matches_reference_rule():
    rng = np.random.default_rng(11)
    fn = lambda x, y: np.real((40 * (x + 1j * y) + 0.2) ** 9) + np.exp(x)
    for _ in range(300):
        center = tuple(rng.uniform(-0.015, 0.015, 2))
        r0 = rng.uniform(1e-5, 1e-3)
        r1 = r0 + rng.uniform(1e-5, 1e-3)
        got = full_rule_f2_integral(fn, center, r0, r1)
        assert got == pytest.approx(reference_annulus_f2(fn, center, r0, r1),
                                    rel=1e-14, abs=0.0)


# -------------------------------------------------------------- spline oracle


def global_spline(values, pad=4):
    """The spline periodic_spline is built from, evaluated by FITPACK one
    point at a time over the whole knot vector (a linear knot search)."""
    from scipy.interpolate import RectBivariateSpline
    n = values.shape[0]
    idx = np.arange(-pad, n + pad + 1)
    coords = idx * (1.0 / n)
    sp = RectBivariateSpline(coords, coords, values[np.ix_(idx % n, idx % n)],
                             kx=3, ky=3, s=0)
    return lambda x, y: sp.ev(np.asarray(x) % 1.0, np.asarray(y) % 1.0)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    num = ~np.isnan(want)       # the sign of a NaN carries nothing
    assert np.array_equal(np.signbit(got[num]), np.signbit(want[num]))


def assert_grid_matches_global(ev, ref, gx, gy):
    # a column and a row take the tensor-grid path
    gx = np.asarray(gx, dtype=float)[:, None]
    gy = np.asarray(gy, dtype=float)[None, :]
    assert_same_bits(ev(gx, gy), ref(*np.broadcast_arrays(gx, gy)))


def assert_spline_matches_global(values, rng, n_random=40_000):
    from ngl.schrodinger import _SPLINE_SLICE, periodic_spline
    ev = periodic_spline(values)
    ref = global_spline(values)
    n = values.shape[0]
    # random points over the whole torus, in more than one slice
    x, y = rng.random(n_random), rng.random(n_random)
    assert n_random > _SPLINE_SLICE
    assert_same_bits(ev(x, y), ref(x, y))
    # every knot in [0, 1) and its neighbours one ulp away, against a spread
    # of the other coordinate, in both orders
    knots = np.arange(-2, n + 3) * (1.0 / n)
    pts = np.concatenate([knots, np.nextafter(knots, -np.inf),
                          np.nextafter(knots, np.inf),
                          [0.0, np.nextafter(1.0, 0.0), 0.5]])
    pts = pts[(pts >= 0.0) & (pts < 1.0)]
    other = rng.permutation(pts)
    for a, b in ((pts, other), (other, pts)):
        assert_same_bits(ev(a, b), ref(a, b))
    # a small patch inside one knot cell, and one straddling the seam corner
    for cx, cy in ((0.37, 0.61), (0.0, 0.0)):
        px = cx + 2e-3 * (rng.random(500) - 0.5)
        py = cy + 2e-3 * (rng.random(500) - 0.5)
        assert_same_bits(ev(px, py), ref(px, py))
    # coordinates outside [0, 1) wrap like the torus
    wx, wy = 6 * rng.random(300) - 3, 6 * rng.random(300) - 3
    assert_same_bits(ev(wx, wy), ref(wx, wy))
    # tensor grids: unsorted axes with n != m, duplicates, knot-exact values,
    # axes across the seam, a one-point axis and empty axes
    assert_grid_matches_global(ev, ref, rng.random(41), rng.random(29))
    dup = rng.random(6)[rng.integers(0, 6, 40)]
    assert_grid_matches_global(ev, ref, dup, rng.permutation(dup)[:17])
    assert_grid_matches_global(ev, ref, rng.permutation(pts), pts[::3])
    seam = np.concatenate([1e-3 * rng.standard_normal(30), [-1.0, 1.0, 2.5]])
    assert_grid_matches_global(ev, ref, seam, 5 * rng.random(23) - 2)
    assert_grid_matches_global(ev, ref, [0.3], rng.random(9))
    for a, b in ((np.empty(0), rng.random(7)), (rng.random(7), np.empty(0))):
        assert ev(a[:, None], b[None, :]).shape == (a.size, b.size)
    # scalars give floats, other shapes broadcast, empty inputs stay empty
    got = ev(0.8125, 0.25)
    assert type(got) is float and got == float(ref(0.8125, 0.25))
    bx, by = rng.random((5, 1, 3)), rng.random((1, 7, 1))
    assert_same_bits(ev(bx, by), ref(*np.broadcast_arrays(bx, by)))
    assert ev(np.empty(0), np.empty(0)).shape == (0,)


@pytest.mark.parametrize("n", [37, 320])
def test_spline_bit_identical_on_random_fields(n):
    rng = np.random.default_rng(n)
    assert_spline_matches_global(rng.standard_normal((n, n)), rng)


def test_spline_bit_identical_on_wave_potential():
    # the potential spline of localize on a non-flat metric
    rng = np.random.default_rng(5)
    assert_spline_matches_global(make_metric("wave", 256).q, rng)


def test_spline_bit_identical_where_products_underflow():
    # one tiny sample: most products c * hx * hy underflow to signed zeros;
    # the values, and the sign of every zero, are FITPACK's (whose sums
    # start at +0.0, so no zero comes out negative)
    from ngl.schrodinger import periodic_spline
    values = np.zeros((64, 64))
    values[10, 10] = -1e-300
    rng = np.random.default_rng(3)
    x, y = rng.random(5000), rng.random(5000)
    got = periodic_spline(values)(x, y)
    assert_same_bits(got, global_spline(values)(x, y))
    assert (got == 0.0).any() and not np.signbit(got[got == 0.0]).any()


def test_spline_nan_stays_local():
    from ngl.schrodinger import periodic_spline
    rng = np.random.default_rng(2)
    values = rng.standard_normal((200, 200))
    ev, ref = periodic_spline(values), global_spline(values)
    x = np.array([np.nan, 0.01, 0.99, 0.5, 0.995])
    y = np.array([0.3, np.nan, 0.5, 0.7, 0.993])
    assert_same_bits(ev(x, y), ref(x, y))
    assert_same_bits(ev(x[[0, 4]], y[[0, 4]]), ref(x[[0, 4]], y[[0, 4]]))
    # a column and a row with non-finite entries cannot go to bispev (it
    # needs sorted axes); they stay local on the per-point path
    gx = np.array([0.2, np.nan, 0.7, np.inf, 0.4])[:, None]
    gy = np.array([0.9, 0.1, -np.inf, 0.5])[None, :]
    with np.errstate(invalid="ignore"):
        got, want = ev(gx, gy), ref(*np.broadcast_arrays(gx, gy))
    assert_same_bits(got, want)
    assert np.isfinite(got[[0, 2, 4]][:, [0, 1, 3]]).all()


@pytest.mark.parametrize("fn", [lambda x, y: np.asarray(x),
                                lambda x, y: 0.25],
                         ids=["x-only", "constant"])
def test_planar_grids_broadcast_to_full_grids(fn):
    """The planar and core grids call fn on a column and a row; a field that
    ignores an argument still gives the full, writable, C-contiguous grid."""
    pf = planar_field_from_function(fn, planar_grid_n=33, normalize=False)
    coords = np.linspace(-3.0, 3.0, 33)
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    grid = pf.field.values
    assert grid.shape == (33, 33) and grid.dtype == np.float64
    assert grid.flags.c_contiguous and grid.flags.writeable
    assert np.array_equal(grid, np.broadcast_to(fn(X, Y), (33, 33)))
    core = core_field(pf, grid_n=17).values
    coords = np.linspace(-1.0 / 48.0, 1.0 / 48.0, 17)
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    assert core.flags.c_contiguous and core.flags.writeable
    assert np.array_equal(core, np.broadcast_to(fn(X, Y), (17, 17)))
