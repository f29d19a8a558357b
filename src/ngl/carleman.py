"""Weighted integral inequalities with convex/singular weights.

The weight family is Phi(z) = Phi_0(z) exp(t |z|^2), where Phi_0 patches a
radial profile psi_0 into small disks around prescribed centers and equals 1
outside them.  log psi_0 solves the radial ODE (d^2/dr^2 + (1/r) d/dr)
log psi_0 = h(r) with vanishing value and slope at r = 1, so Delta log Phi_0
is nonnegative and bounded below by h inside the cutoff band of every disk.

Two numerical checks are exposed: the subharmonic-weight lower bound
int |dbar u|^2 Phi >= int (1/4)(Delta log Phi) |u|^2 Phi for compactly
supported u, and the Laplacian estimate with the singular weight
|P|^(-2) exp(t |z|^2), P the polynomial vanishing at the disk centers.
Test functions are analytic bump superpositions with machine-exact compact
support.  The quadrature is resolved, not spectrally accurate: at the
default ``carleman`` config the dbar terms change by 4.3e-8 (relative)
between 24 and 48 grid nodes per sigma, while the Laplacian estimate's left
side int |lap f|^2 W changes by 1.9e-3 between 12 and 24 nodes per sigma and
by 1.0e-5 between 24 and 48; the grid uses 24.

Every integrand is a product of the test field's terms and a weight, so it
is exactly 0 off the field's support.  The checks evaluate the weights only
where the field's factor is nonzero and skip the polar bands that no
support disk reaches; the sums are those over all nodes, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError
from .surface import polar_quadrature

# --------------------------------------------------------------------------
# radial weight profile

_RK4_BLOCK = 512   # RK4 steps whose radii and h values are listed at once


def default_h_profile(a):
    """Smooth bump: equal to 1 on [1-2a, 1-a], quintic step down to 0 at
    1 - a/2, and zero beyond."""
    lo = 1.0 - a
    hi = 1.0 - a / 2.0

    def h(r):
        r = np.asarray(r, dtype=float)
        s = np.clip((r - lo) / (hi - lo), 0.0, 1.0)
        step = 1.0 - (10.0 * s ** 3 - 15.0 * s ** 4 + 6.0 * s ** 5)
        return np.where(r <= lo, 1.0, np.where(r >= hi, 0.0, step))

    return h


@dataclass
class RadialWeight:
    """log psi_0 sampled on a radial grid over [1-2a, r_max], with psi_0 = 1
    beyond r = 1."""
    a: float
    r_grid: np.ndarray
    log_psi0: np.ndarray
    dlog_psi0: np.ndarray
    h_profile: object
    ode_residual: float
    bounds: tuple[float, float]

    def log_psi0_at(self, r):
        r = np.asarray(r, dtype=float)
        out = np.interp(r, self.r_grid, self.log_psi0,
                        left=self.log_psi0[0], right=0.0)
        return np.where(r >= 1.0, 0.0, out)

    def delta_log_psi0_at(self, r):
        """Radial Laplacian of log psi_0, which equals h by construction."""
        r = np.asarray(r, dtype=float)
        return np.where(r >= 1.0, 0.0,
                        np.where(r < self.r_grid[0], 0.0, self.h_profile(r)))


def build_psi0(a, h_profile=None, n_steps=8000, validate=True) -> RadialWeight:
    """Integrate the radial ODE backward from r = 1 by classical RK4.

    u = log psi_0 solves u'' + u'/r = h with u(1) = u'(1) = 0; since h
    vanishes for r > 1 - a/2 the solution is identically zero near 1 and
    psi_0 continues as 1 across r = 1.  ``validate=False`` skips the
    support/positivity preconditions on h (solver verification against
    closed forms feeds constant profiles).
    """
    if not (0 < a < 1.0 / 3.0):
        raise ConstraintError("a must lie in (0, 1/3)")
    if h_profile is None:
        h_profile = default_h_profile(a)
    if validate:
        probe = np.linspace(1 - 2 * a, 1 - a, 64)
        hv = np.asarray(h_profile(probe), dtype=float)
        if hv.min() <= 0:
            raise ConstraintError("h must be positive on the cutoff band")
        if abs(float(h_profile(1.0 - a / 4))) > 0 or abs(float(h_profile(1.2))) > 0:
            raise ConstraintError("h must vanish for r > 1 - a/2")

    r0 = 1.0 - 2 * a
    rs = np.linspace(1.0, r0, n_steps + 1)
    step = float(rs[1] - rs[0])   # negative
    # h depends on r only: evaluate it once on the three radii of each step
    # of a block, then run the stages on Python floats in the order of the
    # RK4 formula (blocks keep the float lists, and so the heap, small)
    half = step / 2
    sixth = step / 6
    u = np.zeros(n_steps + 1)
    v = np.zeros(n_steps + 1)
    ui = vi = 0.0
    for lo in range(0, n_steps, _RK4_BLOCK):
        r_start = rs[lo:min(lo + _RK4_BLOCK, n_steps)]
        radii = (r_start, r_start + half, r_start + step)
        h_vals = [np.broadcast_to(np.asarray(h_profile(r), dtype=float),
                                  r.shape).tolist() for r in radii]
        for i, (r1, rm, r4, h1, hm, h4) in enumerate(
                zip(*(r.tolist() for r in radii), *h_vals), lo + 1):
            k1u = vi
            k1v = h1 - vi / r1
            k2u = vi + half * k1v
            k2v = hm - k2u / rm
            k3u = vi + half * k2v
            k3v = hm - k3u / rm
            k4u = vi + step * k3v
            k4v = h4 - k4u / r4
            ui = ui + sixth * (k1u + 2 * k2u + 2 * k3u + k4u)
            vi = vi + sixth * (k1v + 2 * k2v + 2 * k3v + k4v)
            u[i] = ui
            v[i] = vi

    order = np.argsort(rs)
    r_grid = rs[order]
    log_psi0 = u[order]
    dlog = v[order]
    # residual recheck of the ODE on the interior of the grid
    d2 = np.gradient(dlog, r_grid, edge_order=2)
    res = d2 + dlog / r_grid - np.asarray(h_profile(r_grid))
    ode_residual = float(np.max(np.abs(res[4:-4])))
    psi = np.exp(log_psi0)
    return RadialWeight(a=a, r_grid=r_grid, log_psi0=log_psi0, dlog_psi0=dlog,
                        h_profile=h_profile, ode_residual=ode_residual,
                        bounds=(float(psi.min()), float(psi.max())))


# --------------------------------------------------------------------------
# composite weight


@dataclass
class CarlemanWeight:
    """Phi = Phi_0 exp(t |z|^2) with Phi_0 patched from the radial profile."""
    centers: tuple
    delta: float
    a: float
    t: float
    radial: RadialWeight

    def __post_init__(self):
        cs = [complex(c[0], c[1]) for c in self.centers]
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                if abs(cs[i] - cs[j]) <= 2 * self.delta:
                    raise ConstraintError("centers must be separated by more "
                                          "than 2 delta")

    def _nearest(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        rho = np.full(shape, np.inf)
        for cx, cy in self.centers:
            rho = np.minimum(rho, np.hypot(x - cx, y - cy))
        return rho

    def log_phi0(self, x, y):
        if not self.centers:
            return np.zeros(np.broadcast_shapes(np.asarray(x).shape,
                                                np.asarray(y).shape))
        rho = self._nearest(x, y)
        return self.radial.log_psi0_at(rho / self.delta)

    def phi(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.exp(self.log_phi0(x, y) + self.t * (x * x + y * y))

    def delta_log_phi0(self, x, y):
        """Equals h(rho/delta)/delta^2 inside the disks, zero elsewhere."""
        if not self.centers:
            return np.zeros(np.broadcast_shapes(np.asarray(x).shape,
                                                np.asarray(y).shape))
        rho = self._nearest(x, y)
        return self.radial.delta_log_psi0_at(rho / self.delta) / self.delta ** 2

    def delta_log_phi(self, x, y):
        return self.delta_log_phi0(x, y) + 4.0 * self.t

    def log_p_sq_inv(self, x, y):
        """log |P|^(-2) for P(z) the product of (z - z_nu)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        for cx, cy in self.centers:
            out = out - 2.0 * np.log(np.maximum(np.hypot(x - cx, y - cy), 1e-300))
        return out

    def singular(self, x, y):
        """The Laplacian estimate's weight |P|^(-2) exp(t |z|^2)."""
        return np.exp(self.log_p_sq_inv(x, y) + self.t * (x * x + y * y))


def build_weight(centers, delta, a=0.1, t=1.0, radial=None) -> CarlemanWeight:
    if t <= 0:
        raise ConstraintError("t must be positive")
    if radial is None:
        radial = build_psi0(a)
    return CarlemanWeight(centers=tuple(tuple(c) for c in centers),
                          delta=float(delta), a=float(a), t=float(t),
                          radial=radial)


# --------------------------------------------------------------------------
# analytic compactly supported test functions


class _RadialProfile:
    """g(rho) = exp(-rho^2 / (2 sigma^2)) * m(rho / support), where the
    mollifier m(s) = exp(1 - 1/(1 - s^2)) for |s| < 1 and 0 beyond."""

    def __init__(self, sigma, support):
        self.sigma = sigma
        self.support = support

    def inside(self, rho):
        """Where m, and so g, g' and g'', may be nonzero."""
        return np.abs(rho / self.support) < 1.0

    def jet(self, rho, order):
        """(g, g', g'') at rho; the derivatives above ``order`` are None."""
        g0 = np.exp(-rho * rho / (2 * self.sigma ** 2))
        s = rho / self.support
        inside = self.inside(rho)
        si = s[inside]
        one = 1.0 - si * si
        e = np.exp(1.0 - 1.0 / one)
        m0 = np.zeros_like(s)
        m0[inside] = e
        g = g0 * m0
        if order < 1:
            return g, None, None
        m1 = np.zeros_like(s)
        m1[inside] = e * (-2.0 * si / one ** 2)
        d0 = -(rho / self.sigma ** 2) * g0
        g1 = d0 * m0 + g0 * m1 / self.support
        if order < 2:
            return g, g1, None
        m2 = np.zeros_like(s)
        m2[inside] = e * ((2.0 * si / one ** 2) ** 2
                          - 2.0 * (1.0 + 3.0 * si * si) / one ** 3)
        dd0 = (rho * rho / self.sigma ** 4 - 1.0 / self.sigma ** 2) * g0
        g2 = (dd0 * m0 + 2 * d0 * m1 / self.support
              + g0 * m2 / self.support ** 2)
        return g, g1, g2


class BumpComponent:
    """One analytic component: radial or ring bump, optionally times a
    holomorphic polynomial (coefficients ascending)."""

    def __init__(self, center, sigma, support, amplitude=1.0, ring_radius=0.0,
                 poly=None):
        self.center = (float(center[0]), float(center[1]))
        self.profile = _RadialProfile(sigma, support)
        self.amplitude = amplitude
        self.ring_radius = float(ring_radius)
        self.poly = np.asarray(poly, dtype=complex) if poly is not None else None
        self.outer_extent = self.ring_radius + support

    def parts(self, x, y, rho, names):
        """This component's terms at the points (x, y), whose distances from
        its center are ``rho``, keyed by name: ``value``, ``dbar``,
        ``laplacian``, and ``gx`` and ``gy`` (the gradient) when ``names``
        holds ``grad``."""
        cx, cy = self.center
        order = 2 if "laplacian" in names else 1 if names - {"value"} else 0
        g, g1, g2 = self.profile.jet(rho - self.ring_radius, order)
        out = {}
        if self.poly is not None:
            z = x + 1j * y
            p = np.polyval(self.poly[::-1], z)
            if names & {"grad", "laplacian"}:
                dp = np.polyval(np.polyder(np.poly1d(self.poly[::-1])), z)
        if "value" in names:
            out["value"] = self.amplitude * g
            if self.poly is not None:
                out["value"] = out["value"] * p
        if names & {"dbar", "grad"} or (self.poly is not None
                                        and "laplacian" in names):
            # gradient (bx, by) of the pure bump factor
            safe = np.maximum(rho, 1e-300)
            bx = self.amplitude * g1 * (x - cx) / safe
            by = self.amplitude * g1 * (y - cy) / safe
            if self.ring_radius == 0.0:
                # d1/rho is finite at the origin; the ratio limit is d2(0)
                at0 = rho < 1e-12
                if np.any(at0):
                    bx = np.where(at0, 0.0, bx)
                    by = np.where(at0, 0.0, by)
            dbar_b = 0.5 * (bx + 1j * by)
        if "dbar" in names:
            # dbar of the holomorphic factor vanishes
            out["dbar"] = dbar_b if self.poly is None else p * dbar_b
        if "grad" in names:
            if self.poly is None:
                out["gx"], out["gy"] = bx, by
            else:
                b = self.amplitude * g
                out["gx"] = p * bx + dp * b
                out["gy"] = p * by + 1j * dp * b
        if "laplacian" in names:
            lap = g2 + g1 / np.maximum(rho, 1e-12)
            if self.ring_radius == 0.0:
                lap = np.where(rho < 1e-12, 2.0 * g2, lap)
            out["laplacian"] = self.amplitude * lap
            if self.poly is not None:
                out["laplacian"] = p * out["laplacian"] + 4.0 * dp * dbar_b
        return out

    def bounding_box(self):
        cx, cy = self.center
        e = self.outer_extent
        return (cx - e, cx + e, cy - e, cy + e)

    def reaches(self, center, r):
        """Whether the support disk of radius ``outer_extent`` meets the disk
        of radius ``r`` about ``center``.  The slack, 1e-9 of the
        coordinates' scale, is far above their rounding, so a disk holding a
        point where the component is nonzero always counts as reached."""
        dist = np.hypot(self.center[0] - center[0], self.center[1] - center[1])
        reach = self.outer_extent + r
        scale = (reach + dist + abs(center[0]) + abs(center[1])
                 + abs(self.center[0]) + abs(self.center[1]))
        return bool(dist <= reach + 1e-9 * scale)


_QUANTITIES = ("value", "dbar", "grad_sq", "laplacian")


class TestField:
    """Sum of bump components with exact compact support and closed-form
    dbar, gradient, and Laplacian."""

    __test__ = False  # not a pytest case, despite the name

    def __init__(self, components):
        if not components:
            raise ValueError("need at least one component")
        self.components = list(components)

    def evaluate(self, x, y, *names):
        """The field's ``value``, ``dbar``, ``grad_sq`` (|grad u|^2) and
        ``laplacian`` at the points (x, y), as a tuple in the order named.

        Each component is evaluated once, on the points of its exact support
        |rho - ring_radius| < support (the mollifier's own test), and added
        into the sums in component order.  Everywhere else each of its terms
        is a zero, and adding a zero to a sum that starts at +0.0 changes no
        byte (no sum of finite terms rounds to -0.0), so the sums are those
        of adding every component at every point.
        """
        unknown = set(names) - set(_QUANTITIES)
        if unknown:
            raise ValueError(f"unknown quantities {sorted(unknown)}")
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        shape = x.shape
        x = x.ravel()
        y = y.ravel()
        wanted = {"grad" if name == "grad_sq" else name for name in names}
        # holomorphic factors make every sum complex; dbar always is
        real = (complex if any(c.poly is not None for c in self.components)
                else float)
        keys = [n for n in ("value", "dbar", "laplacian") if n in wanted]
        if "grad" in wanted:
            keys += ["gx", "gy"]
        sums = {key: np.zeros(x.size, complex if key == "dbar" else real)
                for key in keys}
        for comp in self.components:
            x0, x1, y0, y1 = comp.bounding_box()
            idx = np.flatnonzero((x >= x0) & (x <= x1) & (y >= y0) & (y <= y1))
            rho = np.hypot(x[idx] - comp.center[0], y[idx] - comp.center[1])
            inside = comp.profile.inside(rho - comp.ring_radius)
            idx, rho = idx[inside], rho[inside]
            if idx.size:
                for name, val in comp.parts(x[idx], y[idx], rho, wanted).items():
                    sums[name][idx] += val
        if "grad" in wanted:
            sums["grad_sq"] = np.abs(sums["gx"]) ** 2 + np.abs(sums["gy"]) ** 2
        return tuple(sums[name].reshape(shape) for name in names)

    def bounding_box(self):
        boxes = [c.bounding_box() for c in self.components]
        return (min(b[0] for b in boxes), max(b[1] for b in boxes),
                min(b[2] for b in boxes), max(b[3] for b in boxes))

    def min_feature(self):
        return min(min(c.profile.sigma, c.profile.support)
                   for c in self.components)


_BUMP_PLACEMENT = 1.1        # bump centers are uniform on [-1.1, 1.1]^2
_BUMP_WIDTHS = (0.10, 0.45)  # range of the bump widths sigma


def random_test_field(rng, weight: CarlemanWeight | None = None,
                      n_bumps=None, ring_fraction=0.25,
                      real_only=False) -> TestField:
    """Random bump superposition avoiding the weight's excluded disks.

    Plain bumps are rejected until their support clears every disk; with
    probability ``ring_fraction`` (and centers present) a ring bump hugging a
    random disk is added instead, which exercises the annulus terms.
    """
    comps = []
    n = int(rng.integers(1, 6)) if n_bumps is None else n_bumps
    centers = weight.centers if weight is not None else ()
    delta = weight.delta if weight is not None else 0.0
    for k in range(n):
        if centers and rng.random() < ring_fraction:
            # hug the cutoff band ((1-2a) delta, (1-a) delta) so the annulus
            # terms of the weighted inequalities carry actual mass
            cx, cy = centers[int(rng.integers(0, len(centers)))]
            a_w = weight.a if weight else 0.1
            ring_r = (1 - 1.4 * a_w) * delta
            support = 0.55 * a_w * delta
            comps.append(BumpComponent((cx, cy), sigma=support, support=support,
                                       amplitude=float(rng.normal(1.0, 0.3)),
                                       ring_radius=ring_r))
            continue
        for _attempt in range(200):
            cx, cy = rng.uniform(-_BUMP_PLACEMENT, _BUMP_PLACEMENT, size=2)
            sigma = float(rng.uniform(*_BUMP_WIDTHS))
            support = sigma * float(rng.uniform(2.0, 3.0))
            clear = all(np.hypot(cx - zx, cy - zy) > support + delta
                        for zx, zy in centers)
            if clear and np.hypot(cx, cy) + support < 2.9:
                poly = None
                if not real_only and rng.random() < 0.3:
                    deg = int(rng.integers(1, 4))
                    poly = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
                comps.append(BumpComponent((cx, cy), sigma=sigma, support=support,
                                           amplitude=float(rng.normal(1.0, 0.5)),
                                           poly=poly))
                break
        else:
            raise ConstraintError(
                f"could not place a test bump clear of the disks of radius "
                f"delta = {delta:g}; lower carleman.delta")
    return TestField(comps)


_C1_WIDTHS = np.linspace(0.10, 0.45, 5)
_C1_RADII = (0.3, 0.7, 1.0)


def c1_test_family(rng, weight: CarlemanWeight, size) -> list:
    """Stratified real test-function family for the Laplacian estimate.

    Members cycle deterministically through a width x placement-radius grid
    (randomizing only the placement angle, which the weight is insensitive
    to); every third member adds a ring bump hugging a disk when centers are
    present.  Minima tracked over such a family stabilize under extension,
    unlike order statistics of an unstratified draw.
    """
    fields = []
    for k in range(size):
        stratum = k % (len(_C1_WIDTHS) * len(_C1_RADII))
        sigma = float(_C1_WIDTHS[stratum % len(_C1_WIDTHS)])
        radius = float(_C1_RADII[stratum // len(_C1_WIDTHS)])
        support = 2.5 * sigma
        if weight.centers:
            # wide bumps must clear the central disks entirely
            radius = max(radius, support + weight.delta + 0.05)
        angle = float(rng.uniform(0, 2 * np.pi))
        cx = radius * np.cos(angle)
        cy = radius * np.sin(angle)
        comps = [BumpComponent((cx, cy), sigma=sigma, support=support)]
        if weight.centers and k % 3 == 2:
            zx, zy = weight.centers[k % len(weight.centers)]
            ring_r = (1 - 1.4 * weight.a) * weight.delta
            ring_support = 0.55 * weight.a * weight.delta
            comps.append(BumpComponent((zx, zy), sigma=ring_support,
                                       support=ring_support,
                                       ring_radius=ring_r))
        fields.append(TestField(comps))
    return fields


# --------------------------------------------------------------------------
# quadrature

_BAND_NODES = (48, 512)   # radial x angular nodes of each polar disk band
_GRID_CAP = 1200          # most midpoint nodes per side of the global grid
_VANISH_PROBES = 64       # angles per probe circle of the vanishing check


def _grid_quadrature(box, min_feature):
    x0, x1, y0, y1 = box
    span = max(x1 - x0, y1 - y0)
    n = int(np.ceil(span / (min_feature / 24.0)))
    n = min(max(n, 128), _GRID_CAP)
    xs = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
    ys = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    w = (x1 - x0) * (y1 - y0) / (n * n)
    return X, Y, w


def _split_domain(u: TestField, weight: CarlemanWeight):
    """Global midpoint grid with holes cut around the weight's disks, plus a
    polar band per disk covering the hole (and any ring bump hugging it).

    Ring bumps vary at the disk scale, far below the global grid; cutting
    them out of the grid and integrating their neighborhoods in polar
    coordinates resolves both parts at the rates in the module docstring.
    """
    band_outer = {}
    smooth_feature = np.inf
    for comp in u.components:
        is_ring = comp.ring_radius > 0.0
        attached = None
        if is_ring:
            for c in weight.centers:
                if abs(comp.center[0] - c[0]) + abs(comp.center[1] - c[1]) < 1e-12:
                    attached = c
                    break
        if attached is not None:
            ext = comp.outer_extent * 1.0001
            band_outer[attached] = max(band_outer.get(attached, 0.0), ext)
        else:
            smooth_feature = min(smooth_feature,
                                 min(comp.profile.sigma, comp.profile.support))
    if not np.isfinite(smooth_feature):
        smooth_feature = min(weight.delta, 0.2) if weight.centers else 0.2
    for c in weight.centers:
        band_outer.setdefault(c, weight.delta)
    X, Y, w = _grid_quadrature(u.bounding_box(), smooth_feature)
    keep = np.ones(X.shape, dtype=bool)
    bands = []
    for c, r_out in band_outer.items():
        rho = np.hypot(X - c[0], Y - c[1])
        keep &= rho >= r_out
        r_in = (1 - 2 * weight.a) * weight.delta
        bands.append((c, r_in, r_out))
    return X[keep], Y[keep], w, bands


def _on_live(live, weight_fn, x, y):
    """``weight_fn`` at the nodes where ``live`` holds, and 0 elsewhere.

    ``live`` marks where some factor the weight multiplies is nonzero.  At
    the other nodes every product is 0 * 0 = +0.0 instead of 0 * (finite
    weight) = +0.0, so each sum sees the same array it would with the weight
    evaluated everywhere."""
    out = np.zeros(x.shape)
    out[live] = weight_fn(x[live], y[live])
    return out


def _require_finite(t, *integrals):
    """An overflowing weight makes an integral inf or NaN, which a minimum
    over margins or constants would silently drop."""
    if not all(np.isfinite(integrals)):
        raise ConstraintError(f"the weighted integrals at t = {t:g} are not "
                              f"finite (exp(t |z|^2) overflows); lower "
                              f"carleman.t_values")


@dataclass
class SubharmonicReport:
    lhs: float
    rhs: float
    margin: float
    scale: float


@np.errstate(over="ignore", invalid="ignore")
def check_subharmonic_inequality(u: TestField, weight: CarlemanWeight) -> SubharmonicReport:
    """Verify int |dbar u|^2 Phi >= int (1/4)(Delta log Phi) |u|^2 Phi.

    The global contribution is integrated on a midpoint grid with Phi_0 = 1
    (exact outside the disks); the difference inside each disk band is added
    by polar quadrature, where Delta log Phi_0 follows the radial profile in
    closed form.  ``u`` must vanish on the shrunk disks.

    The weight factors exp(t |z|^2), Phi_0 and Delta log Phi are evaluated
    only where |dbar u|^2 or |u|^2 is nonzero, and a band that no
    component's support disk reaches is skipped: its terms are all +0.0, so
    every sum is the one over all nodes (see ``_on_live``).  A non-finite
    integral raises ``ConstraintError``.
    """
    t = weight.t
    _check_vanishing(u, weight)
    X, Y, w, bands = _split_domain(u, weight)
    dbar, val = u.evaluate(X, Y, "dbar", "value")
    dbar_sq = np.abs(dbar) ** 2
    u_sq = np.abs(val) ** 2
    e_t = _on_live((dbar_sq != 0) | (u_sq != 0),
                   lambda x, y: np.exp(t * (x * x + y * y)), X, Y)
    # outside the holes Phi_0 = 1 and Delta log Phi reduces to 4t
    lhs = float(np.sum(dbar_sq * e_t) * w)
    rhs = float(np.sum(t * u_sq * e_t) * w)
    u_mass = float(np.sum(u_sq * e_t) * w)
    for center, r_in, r_out in bands:
        if not any(c.reaches(center, r_out) for c in u.components):
            continue
        Xb, Yb, Wb = polar_quadrature(center, r_in, r_out, *_BAND_NODES)
        dbar, val = u.evaluate(Xb, Yb, "dbar", "value")
        db = np.abs(dbar) ** 2
        ub = np.abs(val) ** 2
        live = (db != 0) | (ub != 0)
        phi = _on_live(live, weight.phi, Xb, Yb)
        dlp = _on_live(live, weight.delta_log_phi, Xb, Yb)
        lhs += float(np.sum(db * phi * Wb))
        rhs += float(np.sum(0.25 * dlp * ub * phi * Wb))
        u_mass += float(np.sum(ub * phi * Wb))
    _require_finite(t, lhs, rhs, u_mass)
    scale = lhs + abs(rhs) + u_mass
    return SubharmonicReport(lhs=lhs, rhs=rhs, margin=lhs - rhs, scale=scale)


def _check_vanishing(u: TestField, weight: CarlemanWeight):
    """Sample each shrunk disk to confirm the test function vanishes there."""
    if not weight.centers:
        return
    r = (1 - 2 * weight.a) * weight.delta
    th = np.arange(_VANISH_PROBES) * (2 * np.pi / _VANISH_PROBES)
    worst = 0.0
    for cx, cy in weight.centers:
        for frac in (0.0, 0.5, 0.999):
            (vals,) = u.evaluate(cx + frac * r * np.cos(th),
                                 cy + frac * r * np.sin(th), "value")
            worst = max(worst, float(np.abs(vals).max()))
    x0, x1, y0, y1 = u.bounding_box()
    gx = np.linspace(x0, x1, 32)
    gy = np.linspace(y0, y1, 32)
    GX, GY = np.meshgrid(gx, gy, indexing="ij")
    (vals,) = u.evaluate(GX, GY, "value")
    scale = max(float(np.abs(vals).max()), 1e-300)
    if worst > 1e-10 * scale:
        raise ConstraintError("test function must vanish on the shrunk disks")


@dataclass
class C1Report:
    lhs: float
    t2_term: float
    grad_term: float
    empirical_constant: float
    degenerate: bool


@np.errstate(over="ignore", invalid="ignore")
def carleman_c1_check(f: TestField, weight: CarlemanWeight) -> C1Report:
    """Laplacian estimate with the singular weight |P|^(-2) exp(t |z|^2).

    Reports lhs = int |lap f|^2 W against t^2 int |f|^2 W plus
    delta^(-2) int_A |grad f|^2 W over the disk bands; the empirical constant
    is their ratio.  ``f`` must be real-valued and vanish on the shrunk
    disks (enforced by construction of the test family).

    W is evaluated only where |lap f|^2, f^2 or |grad f|^2 is nonzero, and a
    disk or gradient band that no component's support disk reaches is
    skipped: its terms are all +0.0, so every sum is the one over all nodes
    (see ``_on_live``).  A non-finite integral raises ``ConstraintError``.
    """
    t = weight.t
    if t < 1.0:
        raise ConstraintError("the Laplacian estimate is stated for t >= 1")
    _check_vanishing(f, weight)
    X, Y, w, bands = _split_domain(f, weight)
    fval, lap = f.evaluate(X, Y, "value", "laplacian")
    if np.iscomplexobj(fval) and np.abs(fval.imag).max(initial=0.0) > 1e-12 * max(
            np.abs(fval).max(initial=0.0), 1e-300):
        raise ConstraintError("test function must be real-valued")
    lap_sq = lap.real * lap.real
    f_sq = fval.real * fval.real
    wgt = _on_live((lap_sq != 0) | (f_sq != 0), weight.singular, X, Y)
    lhs = float(np.sum(lap_sq * wgt) * w)
    l2 = float(np.sum(f_sq * wgt) * w)
    for center, r_in, r_out in bands:
        if not any(c.reaches(center, r_out) for c in f.components):
            continue
        Xb, Yb, Wb = polar_quadrature(center, r_in, r_out, *_BAND_NODES)
        lap_b, f_b = (q.real for q in f.evaluate(Xb, Yb, "laplacian", "value"))
        lap_sq = lap_b * lap_b
        f_sq = f_b * f_b
        wgt_b = _on_live((lap_sq != 0) | (f_sq != 0), weight.singular, Xb, Yb)
        lhs += float(np.sum(lap_sq * wgt_b * Wb))
        l2 += float(np.sum(f_sq * wgt_b * Wb))
    t2_term = t * t * l2
    grad_term = 0.0
    r_in = (1 - 2 * weight.a) * weight.delta
    r_out = (1 - weight.a) * weight.delta
    for center in weight.centers:
        if not any(c.reaches(center, r_out) for c in f.components):
            continue
        Xb, Yb, Wb = polar_quadrature(center, r_in, r_out, *_BAND_NODES)
        (grad_sq,) = f.evaluate(Xb, Yb, "grad_sq")
        wgt_b = _on_live(grad_sq != 0, weight.singular, Xb, Yb)
        grad_term += float(np.sum(grad_sq * wgt_b * Wb))
    if weight.centers:
        grad_term /= weight.delta ** 2
    _require_finite(t, lhs, l2, t2_term, grad_term)
    denom = t2_term + grad_term
    if denom <= 0.0 or lhs <= 0.0:
        return C1Report(lhs, t2_term, grad_term, float("nan"), degenerate=True)
    return C1Report(lhs, t2_term, grad_term, lhs / denom, degenerate=False)
