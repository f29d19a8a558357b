import numpy as np
import pytest

from ngl.carleman import (BumpComponent, TestField, build_psi0, build_weight,
                          c1_test_family, carleman_c1_check,
                          check_subharmonic_inequality, default_h_profile,
                          random_test_field)
from ngl.errors import ConstraintError


@pytest.fixture(scope="module")
def radial():
    return build_psi0(0.1)


def three_centers(radius=0.01):
    return [(radius * np.cos(t), radius * np.sin(t))
            for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]


# --------------------------------------------------------------- radial ODE


def test_psi0_zero_source_is_identity():
    rw = build_psi0(0.1, h_profile=lambda r: np.zeros_like(
        np.asarray(r, dtype=float)), validate=False)
    assert np.max(np.abs(rw.log_psi0)) == 0.0
    assert np.exp(rw.log_psi0_at(1.5)) == 1.0


def test_psi0_constant_source_closed_form():
    # u = c r^2/4 - (c/2) ln r - c/4 solves u'' + u'/r = c with u(1) = u'(1) = 0
    c = 2.0
    rw = build_psi0(0.1, h_profile=lambda r: c * np.ones_like(
        np.asarray(r, dtype=float)), validate=False)
    r = rw.r_grid
    exact = c * r ** 2 / 4 - (c / 2) * np.log(r) - c / 4
    assert np.max(np.abs(rw.log_psi0 - exact)) < 1e-8


def test_psi0_default_profile_properties(radial):
    assert radial.log_psi0[-1] == pytest.approx(0.0, abs=1e-8)
    assert radial.dlog_psi0[-1] == pytest.approx(0.0, abs=1e-8)
    assert radial.ode_residual < 1e-6
    lo, hi = radial.bounds
    assert 0 < lo <= hi
    assert np.exp(radial.log_psi0_at(1.2)) == 1.0
    # source bounded below on the cutoff band, zero beyond 1 - a/2
    band = np.linspace(0.8 + 1e-6, 0.9 - 1e-6, 50)
    assert np.all(radial.delta_log_psi0_at(band) >= 1.0 - 1e-12)
    assert np.all(radial.delta_log_psi0_at(np.linspace(0.96, 1.3, 20)) == 0.0)


def test_psi0_residual_on_refined_grid():
    coarse = build_psi0(0.1, n_steps=2000)
    fine = build_psi0(0.1, n_steps=20000)
    # the two solves agree and the fine residual recheck is 100x tighter
    interp = np.interp(coarse.r_grid, fine.r_grid, fine.log_psi0)
    assert np.max(np.abs(interp - coarse.log_psi0)) < 1e-10
    assert fine.ode_residual < coarse.ode_residual


def scalar_rk4_psi0(a, n_steps):
    """The former RK4 loop of build_psi0, calling h on one radius per stage:
    (r_grid, log_psi0, dlog_psi0, ode_residual, bounds)."""
    h_profile = default_h_profile(a)
    rs = np.linspace(1.0, 1.0 - 2 * a, n_steps + 1)
    step = rs[1] - rs[0]
    u = np.zeros(n_steps + 1)
    v = np.zeros(n_steps + 1)

    def rhs(r, uu, vv):
        return vv, float(h_profile(r)) - vv / r

    for i in range(n_steps):
        r = rs[i]
        k1u, k1v = rhs(r, u[i], v[i])
        k2u, k2v = rhs(r + step / 2, u[i] + step / 2 * k1u, v[i] + step / 2 * k1v)
        k3u, k3v = rhs(r + step / 2, u[i] + step / 2 * k2u, v[i] + step / 2 * k2v)
        k4u, k4v = rhs(r + step, u[i] + step * k3u, v[i] + step * k3v)
        u[i + 1] = u[i] + step / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v[i + 1] = v[i] + step / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
    order = np.argsort(rs)
    r_grid, log_psi0, dlog = rs[order], u[order], v[order]
    d2 = np.gradient(dlog, r_grid, edge_order=2)
    res = d2 + dlog / r_grid - np.asarray(h_profile(r_grid))
    psi = np.exp(log_psi0)
    return (r_grid, log_psi0, dlog, float(np.max(np.abs(res[4:-4]))),
            (float(psi.min()), float(psi.max())))


@pytest.mark.parametrize("n_steps", [2000, 8000])
def test_psi0_matches_scalar_h_oracle(n_steps):
    # h is evaluated on arrays, which may round its powers differently from
    # scalar calls in the last bit; the RK4 stages keep their order
    rw = build_psi0(0.1, n_steps=n_steps)
    r_grid, log_psi0, dlog, residual, bounds = scalar_rk4_psi0(0.1, n_steps)
    assert np.array_equal(rw.r_grid, r_grid)
    assert np.max(np.abs(rw.log_psi0 - log_psi0)) <= 1e-15
    assert np.max(np.abs(rw.dlog_psi0 - dlog)) <= 1e-15
    assert rw.ode_residual == pytest.approx(residual, rel=1e-9, abs=0)
    assert rw.bounds == pytest.approx(bounds, rel=1e-15, abs=0)
    if n_steps == 8000:
        # the value the benchmark pins for the default solve
        assert rw.ode_residual == pytest.approx(2.424443963505718e-07,
                                                rel=1e-9, abs=0)


def test_psi0_validation():
    with pytest.raises(ConstraintError):
        build_psi0(0.1, h_profile=lambda r: np.ones_like(np.asarray(r, dtype=float)))
    with pytest.raises(ConstraintError):
        build_psi0(0.4)


def test_default_h_profile_shape():
    h = default_h_profile(0.1)
    assert float(h(0.85)) == 1.0
    assert float(h(0.97)) == 0.0
    mid = float(h(0.925))
    assert 0.0 < mid < 1.0


# --------------------------------------------------------------- weights


def test_weight_without_centers_is_pure_exponential(radial):
    w = build_weight((), 0.0, t=3.0, radial=radial)
    pts = np.array([[0.3, -0.2], [1.0, 2.0]])
    vals = w.phi(pts[:, 0], pts[:, 1])
    expect = np.exp(3.0 * (pts[:, 0] ** 2 + pts[:, 1] ** 2))
    np.testing.assert_allclose(vals, expect, rtol=1e-14)
    assert np.all(w.delta_log_phi(pts[:, 0], pts[:, 1]) == 12.0)


def test_weight_identity_outside_disks(radial):
    w = build_weight([(0.0, 0.0)], 1e-3, t=1.0, radial=radial)
    assert float(w.log_phi0(0.5, 0.5)) == 0.0
    assert float(w.delta_log_phi0(0.5, 0.5)) == 0.0
    # inside the band the source term appears, scaled by delta^-2
    r_mid = 0.85 * 1e-3
    assert float(w.delta_log_phi0(r_mid, 0.0)) == pytest.approx(1e6, rel=1e-6)


def test_weight_center_separation_enforced(radial):
    with pytest.raises(ConstraintError):
        build_weight([(0.0, 0.0), (1e-3, 0.0)], 1e-3, t=1.0, radial=radial)
    with pytest.raises(ConstraintError):
        build_weight((), 0.0, t=0.0, radial=radial)


def test_weight_fd_laplacian_matches_source(radial):
    # discrete Laplacian of log Phi_0 reproduces h(rho/delta)/delta^2 to 5%
    delta = 0.01
    w = build_weight([(0.0, 0.0)], delta, t=1.0, radial=radial)
    step = 0.1 / 50 * delta
    r0 = 0.85 * delta
    xs = np.array([r0, r0 + step, r0 - step, r0, r0])
    ys = np.array([0.0, 0.0, 0.0, step, -step])
    vals = w.log_phi0(xs, ys)
    lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / step ** 2
    assert lap == pytest.approx(1.0 / delta ** 2, rel=0.05)


# --------------------------------------------------------------- test fields


def test_bump_derivatives_match_finite_differences():
    rng = np.random.Generator(np.random.Philox(key=42))
    u = random_test_field(rng)
    comp = u.components[0]
    x0 = comp.center[0] + 0.31 * comp.profile.support
    y0 = comp.center[1] - 0.17 * comp.profile.support
    h = 1e-6
    val = lambda x, y: u.evaluate(x, y, "value")[0]
    fd_x = (val(x0 + h, y0) - val(x0 - h, y0)) / (2 * h)
    fd_y = (val(x0, y0 + h) - val(x0, y0 - h)) / (2 * h)
    db, lap, g2 = u.evaluate(x0, y0, "dbar", "laplacian", "grad_sq")
    db = complex(db)
    assert abs(db - 0.5 * (fd_x + 1j * fd_y)) < 1e-7 * max(abs(db), 1.0)
    lap_fd = (val(x0 + h, y0) + val(x0 - h, y0) + val(x0, y0 + h)
              + val(x0, y0 - h) - 4 * val(x0, y0)) / h ** 2
    lap = complex(lap)
    assert abs(lap - lap_fd) < 1e-4 * max(abs(lap), 1.0)
    g2 = float(g2)
    assert g2 == pytest.approx(abs(fd_x) ** 2 + abs(fd_y) ** 2, rel=1e-6)


def test_bump_support_is_exact():
    b = TestField([BumpComponent((0.5, -0.25), sigma=0.2, support=0.4)])
    th = np.linspace(0, 2 * np.pi, 64)
    (vals,) = b.evaluate(0.5 + 0.4001 * np.cos(th),
                         -0.25 + 0.4001 * np.sin(th), "value")
    assert np.all(vals == 0.0)
    assert float(b.evaluate(0.5, -0.25, "value")[0]) > 0.0


def test_ring_bump_vanishes_on_shrunk_disk(radial):
    w = build_weight(three_centers(), 1e-3, t=1.0, radial=radial)
    rng = np.random.Generator(np.random.Philox(key=7))
    for _ in range(20):
        u = random_test_field(rng, weight=w)
        r = (1 - 2 * w.a) * w.delta
        th = np.linspace(0, 2 * np.pi, 128)
        for cx, cy in w.centers:
            (vals,) = u.evaluate(cx + 0.999 * r * np.cos(th),
                                 cy + 0.999 * r * np.sin(th), "value")
            assert np.max(np.abs(vals)) == 0.0


# --------------------------------------------------------------- inequalities


@pytest.mark.parametrize("t", [1.0, 5.0, 20.0])
def test_subharmonic_inequality_no_centers(t, radial):
    w = build_weight((), 0.0, t=t, radial=radial)
    for k in range(7):
        rng = np.random.Generator(np.random.Philox(key=(17, k)))
        u = random_test_field(rng)
        rep = check_subharmonic_inequality(u, w)
        assert rep.margin >= -1e-6 * rep.scale


def test_subharmonic_inequality_with_centers(radial):
    w = build_weight(three_centers(), 1e-3, t=5.0, radial=radial)
    for k in range(7):
        rng = np.random.Generator(np.random.Philox(key=(18, k)))
        u = random_test_field(rng, weight=w)
        rep = check_subharmonic_inequality(u, w)
        assert rep.margin >= -1e-6 * rep.scale


def test_subharmonic_zero_field_degenerate(radial):
    w = build_weight((), 0.0, t=1.0, radial=radial)
    u = TestField([BumpComponent((0.0, 0.0), sigma=0.2, support=0.4,
                                 amplitude=0.0)])
    rep = check_subharmonic_inequality(u, w)
    assert rep.lhs == rep.rhs == 0.0
    assert rep.margin == 0.0


def test_subharmonic_near_sharp_gaussian(radial):
    # width^2 = 1/(2t) makes the untruncated gaussian an equality case;
    # the cutoff restores a small positive margin
    t = 5.0
    w = build_weight((), 0.0, t=t, radial=radial)
    sig = 1.0 / np.sqrt(2 * t)
    u = TestField([BumpComponent((0.1, -0.2), sigma=sig, support=6 * sig)])
    rep = check_subharmonic_inequality(u, w)
    assert rep.margin >= -1e-6 * rep.scale
    assert rep.margin < 0.2 * rep.scale


def test_subharmonic_violating_field_rejected(radial):
    w = build_weight(three_centers(), 1e-3, t=1.0, radial=radial)
    u = TestField([BumpComponent((0.01, 0.0), sigma=0.05, support=0.1)])
    with pytest.raises(ConstraintError):
        check_subharmonic_inequality(u, w)


def test_holomorphic_times_wide_bump_small_dbar(radial):
    w = build_weight((), 0.0, t=1e-5, radial=radial)
    u = TestField([BumpComponent((0.0, 0.0), sigma=80.0, support=400.0,
                                 poly=[0.5, 0.1, -0.2, 1.0])])
    rep = check_subharmonic_inequality(u, w)
    u_mass = rep.scale - rep.lhs - abs(rep.rhs)
    assert rep.lhs <= 1e-3 * u_mass
    assert abs(rep.rhs) <= 1e-3 * u_mass


def test_c1_t_scaling_no_centers(radial):
    rng = np.random.Generator(np.random.Philox(key=77))
    u = random_test_field(rng, real_only=True, n_bumps=1)
    ratios = []
    for t in (1.0, 10.0):
        w = build_weight((), 0.0, t=t, radial=radial)
        rep = carleman_c1_check(u, w)
        ratios.append(rep.lhs / rep.t2_term)
    assert ratios[1] <= ratios[0] * (1 + 1e-9)


def test_c1_with_centers_positive_and_stable(radial):
    w = build_weight(three_centers(), 1e-3, t=1.0, radial=radial)
    rng = np.random.Generator(np.random.Philox(key=99))
    constants = []
    for f in c1_test_family(rng, w, 30):
        rep = carleman_c1_check(f, w)
        assert not rep.degenerate
        assert rep.lhs > 0 and rep.t2_term > 0
        assert rep.grad_term >= 0
        constants.append(rep.empirical_constant)
    c15 = min(constants[:15])
    c30 = min(constants)
    assert c30 > 0
    assert abs(c30 - c15) / c15 < 0.2
    # the ring strata actually exercise the annulus gradient term
    assert any(carleman_c1_check(f, w).grad_term > 0
               for f in c1_test_family(rng, w, 3))


def test_c1_zero_field_degenerate(radial):
    w = build_weight((), 0.0, t=1.0, radial=radial)
    f = TestField([BumpComponent((0.0, 0.0), sigma=0.2, support=0.4,
                                 amplitude=0.0)])
    rep = carleman_c1_check(f, w)
    assert rep.degenerate


def test_c1_requires_t_at_least_one(radial):
    w = build_weight((), 0.0, t=0.5, radial=radial)
    rng = np.random.Generator(np.random.Philox(key=5))
    f = random_test_field(rng, real_only=True)
    with pytest.raises(ConstraintError):
        carleman_c1_check(f, w)


# --------------------------------------------------------------- fd identities
# centered-difference complex derivatives, the oracles for the operator
# identity [dbar, dbar*] u = (1/4)(lap phi) u behind the weighted estimate


def dee_fd(values, h):
    """(1/2)(d/dx - i d/dy) by centered differences (interior only)."""
    vx = (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2 * h)
    vy = (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2 * h)
    return 0.5 * (vx - 1j * vy)


def dbar_fd(values, h):
    """(1/2)(d/dx + i d/dy) by centered differences (interior only)."""
    vx = (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2 * h)
    vy = (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2 * h)
    return 0.5 * (vx + 1j * vy)


def dbar_star_fd(values, h, phi_values):
    """Adjoint of dbar in the weighted inner product with weight exp(-phi).

    Integration by parts carries a sign: dbar* = -exp(phi) d (exp(-phi) .),
    which is the convention under which [dbar, dbar*] u = (1/4)(lap phi) u.
    """
    return -np.exp(phi_values) * dee_fd(np.exp(-phi_values) * values, h)


def laplacian_fd(values, h):
    return (np.roll(values, -1, axis=0) + np.roll(values, 1, axis=0)
            + np.roll(values, -1, axis=1) + np.roll(values, 1, axis=1)
            - 4 * values) / (h * h)


def _grid(n, L=8.0):
    h = L / n
    c = np.arange(n) * h - L / 2
    X, Y = np.meshgrid(c, c, indexing="ij")
    return h, X, Y, np.exp(-(X ** 2 + Y ** 2))


def test_identity_dbar_dee_quarter_laplacian():
    errs = []
    for n in (128, 256):
        h, X, Y, b = _grid(n)
        psi = b * np.sin(X + 0.3 * Y)
        err = np.max(np.abs(dbar_fd(dee_fd(psi, h), h) - 0.25 * laplacian_fd(psi, h)))
        errs.append(err)
        assert err < 3.0 * h ** 2
    assert errs[1] < errs[0] / 3.0  # second order


def test_identity_holomorphic_kernel():
    for n in (128, 256):
        h, X, Y, _ = _grid(n)
        z = X + 1j * Y
        val = np.abs(dbar_fd(z ** 3 - 2 * z + 1.5, h))[10:-10, 10:-10]
        assert val.max() <= 1.01 * h ** 2  # exact to truncation order


def test_identity_adjointness():
    h, X, Y, b = _grid(256)
    phi = 0.3 * (X ** 2 + Y ** 2)
    u = b * np.exp(1j * X) * np.sin(Y)
    v = b * np.cos(2 * X + Y)
    w = np.exp(-phi)
    ip1 = np.sum(dbar_fd(u, h) * np.conj(v) * w) * h * h
    ip2 = np.sum(u * np.conj(dbar_star_fd(v, h, phi)) * w) * h * h
    assert abs(ip1 - ip2) <= 1e-12 * abs(ip1)


def test_identity_commutator():
    errs = []
    for n in (256, 512):
        h, X, Y, b = _grid(n)
        phi = 0.3 * (X ** 2 + Y ** 2) + 0.1 * X
        u = b * np.sin(X) * np.cos(Y)
        comm = (dbar_fd(dbar_star_fd(u, h, phi), h)
                - dbar_star_fd(dbar_fd(u, h), h, phi))
        target = 0.25 * laplacian_fd(phi, h) * u
        err = np.max(np.abs(comm - target))
        errs.append(err)
        assert err < h  # first order suffices
    assert errs[1] < errs[0]


# --------------------------------------------------------------- disk bands


def reference_band_quadrature(center, r_inner, r_outer, n_radial=48, n_angular=512):
    """Polar band rule with fresh nodes and full-size weights."""
    nodes, weights = np.polynomial.legendre.leggauss(n_radial)
    rad = 0.5 * (r_outer - r_inner) * nodes + 0.5 * (r_outer + r_inner)
    wr = 0.5 * (r_outer - r_inner) * weights
    th = np.arange(n_angular) * (2 * np.pi / n_angular)
    X = center[0] + rad[:, None] * np.cos(th)[None, :]
    Y = center[1] + rad[:, None] * np.sin(th)[None, :]
    W = (rad * wr)[:, None] * (2 * np.pi / n_angular) * np.ones_like(X)
    return X, Y, W


def test_band_sums_equal_reference_rule(radial):
    from ngl.carleman import _BAND_NODES
    from ngl.surface import polar_quadrature
    w = build_weight(three_centers(), 1e-3, t=5.0, radial=radial)
    for c in w.centers:
        args = (c, (1 - 2 * w.a) * w.delta, 1.2 * w.delta)
        X, Y, W = polar_quadrature(*args, *_BAND_NODES)
        Xr, Yr, Wr = reference_band_quadrature(*args)
        np.testing.assert_array_equal(X, Xr)
        np.testing.assert_array_equal(Y, Yr)
        phi = np.exp(w.log_phi0(X, Y) + w.t * (X * X + Y * Y))
        for vals in (phi, w.delta_log_phi(X, Y) * np.cos(3e3 * X + Y) ** 2):
            assert float(np.sum(vals * phi * W)) == float(np.sum(vals * phi * Wr))


# --------------------------------------------------------------- field oracle
# the per-component, per-quantity evaluation over every point that
# TestField.evaluate replaced, kept as the bitwise reference for it


def _mollifier(s):
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
    return out


def _mollifier_d1(s):
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    one = 1.0 - si * si
    out[inside] = np.exp(1.0 - 1.0 / one) * (-2.0 * si / one ** 2)
    return out


def _mollifier_d2(s):
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    one = 1.0 - si * si
    m = np.exp(1.0 - 1.0 / one)
    out[inside] = m * ((2.0 * si / one ** 2) ** 2 - 2.0 * (1.0 + 3.0 * si * si) / one ** 3)
    return out


def oracle_radial_parts(comp, x, y):
    sigma, support = comp.profile.sigma, comp.profile.support
    rho = np.hypot(x - comp.center[0], y - comp.center[1])
    t = rho - comp.ring_radius
    s = t / support
    g0 = np.exp(-t * t / (2 * sigma ** 2))
    d0 = -(t / sigma ** 2) * g0
    dd0 = (t * t / sigma ** 4 - 1.0 / sigma ** 2) * g0
    g = g0 * _mollifier(s)
    g1 = d0 * _mollifier(s) + g0 * _mollifier_d1(s) / support
    g2 = (dd0 * _mollifier(s) + 2 * d0 * _mollifier_d1(s) / support
          + g0 * _mollifier_d2(s) / support ** 2)
    return rho, g, g1, g2


def oracle_grad_radial(comp, x, y):
    rho, g, g1, _ = oracle_radial_parts(comp, x, y)
    safe = np.maximum(rho, 1e-300)
    ux = comp.amplitude * g1 * (x - comp.center[0]) / safe
    uy = comp.amplitude * g1 * (y - comp.center[1]) / safe
    if comp.ring_radius == 0.0:
        at0 = rho < 1e-12
        if np.any(at0):
            ux = np.where(at0, 0.0, ux)
            uy = np.where(at0, 0.0, uy)
    return ux, uy


def oracle_poly(comp, x, y):
    z = x + 1j * y
    p = np.polyval(comp.poly[::-1], z)
    return p, np.polyval(np.polyder(np.poly1d(comp.poly[::-1])), z)


def oracle_value(comp, x, y):
    _, g, _, _ = oracle_radial_parts(comp, x, y)
    out = comp.amplitude * g
    if comp.poly is not None:
        out = out * oracle_poly(comp, x, y)[0]
    return out


def oracle_dbar(comp, x, y):
    bx, by = oracle_grad_radial(comp, x, y)
    base = 0.5 * (bx + 1j * by)
    if comp.poly is None:
        return base
    return oracle_poly(comp, x, y)[0] * base


def oracle_grad(comp, x, y):
    bx, by = oracle_grad_radial(comp, x, y)
    if comp.poly is None:
        return bx, by
    p, dp = oracle_poly(comp, x, y)
    b = comp.amplitude * oracle_radial_parts(comp, x, y)[1]
    return p * bx + dp * b, p * by + 1j * dp * b


def oracle_laplacian(comp, x, y):
    rho, _, g1, g2 = oracle_radial_parts(comp, x, y)
    lap = g2 + g1 / np.maximum(rho, 1e-12)
    if comp.ring_radius == 0.0:
        lap = np.where(rho < 1e-12, 2.0 * g2, lap)
    lap_b = comp.amplitude * lap
    if comp.poly is None:
        return lap_b
    p, dp = oracle_poly(comp, x, y)
    bx, by = oracle_grad_radial(comp, x, y)
    return p * lap_b + 4.0 * dp * (0.5 * (bx + 1j * by))


def oracle_field(u, name, x, y):
    if name == "grad_sq":
        gx = gy = 0.0
        for comp in u.components:
            cx, cy = oracle_grad(comp, x, y)
            gx = gx + cx
            gy = gy + cy
        return np.abs(gx) ** 2 + np.abs(gy) ** 2
    fn = {"value": oracle_value, "dbar": oracle_dbar,
          "laplacian": oracle_laplacian}[name]
    return sum(fn(comp, x, y) for comp in u.components)


def support_boundary_points(comp):
    """Centre, support-box corners and edges, and the circles bounding the
    support (for a ring, inner and outer) on the axes through the centre."""
    cx, cy = comp.center
    e = comp.outer_extent
    inner = comp.ring_radius - comp.profile.support
    xs = [cx, cx - e, cx + e, cx, cx, cx - e, cx + e, cx - e, cx + e]
    ys = [cy, cy, cy, cy - e, cy + e, cy - e, cy - e, cy + e, cy + e]
    if inner > 0:
        xs += [cx + inner, cx - inner, cx, cx]
        ys += [cy, cy, cy + inner, cy - inner]
    return np.array(xs), np.array(ys)


QUANTITIES = ("value", "dbar", "grad_sq", "laplacian")


def test_evaluate_matches_per_method_oracle(radial):
    from ngl.surface import polar_quadrature
    w = build_weight(three_centers(), 1e-3, t=1.0, radial=radial)
    def rng(key):
        return np.random.Generator(np.random.Philox(key=key))

    fields = [random_test_field(rng((31, k)), weight=w, ring_fraction=0.5)
              for k in range(12)]
    fields += c1_test_family(rng(32), w, 6)
    comps = [c for u in fields for c in u.components]
    assert any(c.poly is not None for c in comps)
    assert any(c.ring_radius > 0 for c in comps)
    for u in fields:
        x0, x1, y0, y1 = u.bounding_box()
        gx, gy = np.meshgrid(np.linspace(x0 - 0.1, x1 + 0.1, 61),
                             np.linspace(y0 - 0.1, y1 + 0.1, 67), indexing="ij")
        point_sets = [(gx, gy)]
        point_sets += [support_boundary_points(c) for c in u.components]
        point_sets += [polar_quadrature(c, 0.7 * w.delta, 1.2 * w.delta,
                                        8, 64)[:2] for c in w.centers]
        for x, y in point_sets:
            got = u.evaluate(x, y, *QUANTITIES)
            for name, val in zip(QUANTITIES, got):
                want = oracle_field(u, name, x, y)
                assert val.dtype == np.asarray(want).dtype, name
                assert np.array_equal(val, want), name


def test_evaluate_returns_requested_quantities_in_order():
    u = TestField([BumpComponent((0.1, 0.2), sigma=0.2, support=0.5,
                                 poly=[1.0, 0.5j])])
    x = np.linspace(-0.5, 0.7, 11)
    both = u.evaluate(x, 0.3, "laplacian", "value")
    assert np.array_equal(both[0], u.evaluate(x, 0.3, "laplacian")[0])
    assert np.array_equal(both[1], u.evaluate(x, 0.3, "value")[0])
    with pytest.raises(ValueError):
        u.evaluate(x, 0.3, "hessian")


# --------------------------------------------------------------- dense oracle
# the quadrature before it was restricted to the test fields' supports:
# every weight on every grid and band node, every component at every point
# and every band, kept as the bitwise reference for both checks


def dense_subharmonic(u, weight):
    from ngl.carleman import _BAND_NODES, SubharmonicReport, _split_domain
    from ngl.surface import polar_quadrature
    t = weight.t
    X, Y, w, bands = _split_domain(u, weight)
    e_t = np.exp(t * (X * X + Y * Y))
    dbar_sq = np.abs(oracle_field(u, "dbar", X, Y)) ** 2
    u_sq = np.abs(oracle_field(u, "value", X, Y)) ** 2
    lhs = float(np.sum(dbar_sq * e_t) * w)
    rhs = float(np.sum(t * u_sq * e_t) * w)
    u_mass = float(np.sum(u_sq * e_t) * w)
    for center, r_in, r_out in bands:
        Xb, Yb, Wb = polar_quadrature(center, r_in, r_out, *_BAND_NODES)
        phi = np.exp(weight.log_phi0(Xb, Yb) + t * (Xb * Xb + Yb * Yb))
        db = np.abs(oracle_field(u, "dbar", Xb, Yb)) ** 2
        ub = np.abs(oracle_field(u, "value", Xb, Yb)) ** 2
        lhs += float(np.sum(db * phi * Wb))
        rhs += float(np.sum(0.25 * weight.delta_log_phi(Xb, Yb) * ub * phi * Wb))
        u_mass += float(np.sum(ub * phi * Wb))
    return SubharmonicReport(lhs=lhs, rhs=rhs, margin=lhs - rhs,
                             scale=lhs + abs(rhs) + u_mass)


def dense_c1(f, weight):
    from ngl.carleman import _BAND_NODES, C1Report, _split_domain
    from ngl.surface import polar_quadrature
    t = weight.t

    def singular(x, y):
        return np.exp(weight.log_p_sq_inv(x, y) + t * (x * x + y * y))

    X, Y, w, bands = _split_domain(f, weight)
    fval = np.real(oracle_field(f, "value", X, Y))
    lap = np.real(oracle_field(f, "laplacian", X, Y))
    wgt = singular(X, Y)
    lhs = float(np.sum(lap * lap * wgt) * w)
    l2 = float(np.sum(fval * fval * wgt) * w)
    for center, r_in, r_out in bands:
        Xb, Yb, Wb = polar_quadrature(center, r_in, r_out, *_BAND_NODES)
        wgt_b = singular(Xb, Yb)
        lap_b = np.real(oracle_field(f, "laplacian", Xb, Yb))
        f_b = np.real(oracle_field(f, "value", Xb, Yb))
        lhs += float(np.sum(lap_b * lap_b * wgt_b * Wb))
        l2 += float(np.sum(f_b * f_b * wgt_b * Wb))
    t2_term = t * t * l2
    grad_term = 0.0
    for center in weight.centers:
        Xb, Yb, Wb = polar_quadrature(center, (1 - 2 * weight.a) * weight.delta,
                                      (1 - weight.a) * weight.delta,
                                      *_BAND_NODES)
        grad_term += float(np.sum(oracle_field(f, "grad_sq", Xb, Yb)
                                  * singular(Xb, Yb) * Wb))
    if weight.centers:
        grad_term /= weight.delta ** 2
    denom = t2_term + grad_term
    if denom <= 0.0 or lhs <= 0.0:
        return C1Report(lhs, t2_term, grad_term, float("nan"), degenerate=True)
    return C1Report(lhs, t2_term, grad_term, lhs / denom, degenerate=False)


@pytest.mark.parametrize("n_centers", [1, 3, 5])
def test_checks_equal_the_dense_quadrature(radial, n_centers):
    centers = [(0.01 * np.cos(2 * np.pi * k / n_centers),
                0.01 * np.sin(2 * np.pi * k / n_centers))
               for k in range(n_centers)]
    comps = []
    for t in (1.0, 5.0, 20.0):
        w = build_weight(centers, 1e-3, t=t, radial=radial)
        for k in range(2):
            rng = np.random.Generator(np.random.Philox(key=(41, 10 * n_centers + k)))
            u = random_test_field(rng, weight=w, ring_fraction=0.5)
            comps += u.components
            assert check_subharmonic_inequality(u, w) == dense_subharmonic(u, w)
        rng = np.random.Generator(np.random.Philox(key=(42, n_centers)))
        for f in c1_test_family(rng, w, 3):
            comps += f.components
            rep = carleman_c1_check(f, w)
            assert not rep.degenerate
            assert rep == dense_c1(f, w)
    # the family exercises ring bumps (live disk and gradient bands) and
    # holomorphic factors
    assert any(c.ring_radius > 0 for c in comps)
    assert any(c.poly is not None for c in comps)


def test_bands_out_of_reach_are_skipped_not_lost(radial):
    # a plain bump whose support disk clears every band by 2e-4 (their
    # outer radius is at most delta), and a ring bump on them: the bands
    # are skipped for the first field and integrated for the second
    w = build_weight([(0.0, 0.0)], 1e-3, t=1.0, radial=radial)
    ring = BumpComponent((0.0, 0.0), sigma=0.55 * w.a * w.delta,
                         support=0.55 * w.a * w.delta,
                         ring_radius=(1 - 1.4 * w.a) * w.delta)
    near = BumpComponent((0.3 + 1.2e-3, 0.0), sigma=0.1, support=0.3)
    assert not near.reaches((0.0, 0.0), 1.199e-3)
    assert near.reaches((0.0, 0.0), 1.2e-3)
    assert ring.reaches((0.0, 0.0), 1e-3)
    for u in (TestField([near]), TestField([near, ring])):
        assert check_subharmonic_inequality(u, w) == dense_subharmonic(u, w)
        assert carleman_c1_check(u, w) == dense_c1(u, w)


def test_weight_kept_where_only_the_value_is_nonzero(radial):
    # 129 midpoint nodes a side put one node on the bump's center, where
    # dbar u = 0 but u = 1: the mass terms still need the weight there
    from ngl.carleman import _split_domain
    w = build_weight((), 0.0, t=1.0, radial=radial)
    u = TestField([BumpComponent((0.0, 0.0), sigma=0.2, support=0.5375)])
    X, Y, _, _ = _split_domain(u, w)
    at = np.hypot(X, Y) == 0.0
    dbar, val = u.evaluate(X[at], Y[at], "dbar", "value")
    assert list(dbar) == [0.0] and list(val) == [1.0]
    assert check_subharmonic_inequality(u, w) == dense_subharmonic(u, w)


# --------------------------------------------------------------- work counts


def test_carleman_work_counts(tmp_path, monkeypatch):
    """Nodes at which ``ngl carleman`` evaluates the singular weight and the
    bump components, at the fingerprint config.  The counts are exact: a
    return to evaluating weights or components off the supports fails here
    without timing anything.  The parent of the support-restricted
    quadrature evaluated 1,673,545 weight and 1,283,117 component nodes."""
    import ngl.carleman as carleman
    from ngl.cli import load_config, run
    counts = {"weight": 0, "parts": 0}
    log_p_sq_inv = carleman.CarlemanWeight.log_p_sq_inv
    parts = carleman.BumpComponent.parts

    def counted_weight(self, x, y):
        counts["weight"] += np.broadcast(np.asarray(x), np.asarray(y)).size
        return log_p_sq_inv(self, x, y)

    def counted_parts(self, x, y, rho, names):
        counts["parts"] += np.asarray(x).size
        return parts(self, x, y, rho, names)

    monkeypatch.setattr(carleman.CarlemanWeight, "log_p_sq_inv", counted_weight)
    monkeypatch.setattr(carleman.BumpComponent, "parts", counted_parts)
    cfg = load_config(overrides={"carleman": {"pairs": 2, "t_values": [1.0]},
                                 "output": {"dir": str(tmp_path)}},
                      command="carleman")
    run("carleman", cfg)
    assert counts == {"weight": 262_768, "parts": 456_282}
