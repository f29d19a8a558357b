"""Localization of eigenfunctions to planar fields with small potential,
disk/annulus configurations, and rapid-growth classification.

Rescaling an eigenfunction by the wavelength around a point p turns the
eigenvalue equation into a flat equation lap(F) + q F = 0 on the 3-disk,
with the spectral parameter absorbed into a potential of small sup norm.
All growth bookkeeping (the doubling quantity beta and its floor beta*,
rapid disks, the square tiling) happens on that planar field.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import interpolate

from .errors import ConstraintError, InfiniteGrowthError, ResolutionError
from .eigen import EigenPair
from .growth import growth_exponent
from .surface import (ConformalMetric, GridField, PLANAR, polar_quadrature,
                      sup_on_disk)

PATCH_RADIUS = 3.0          # the planar field lives on |z| <= 3
CORE_RADIUS = 1.0 / 60.0    # all rapid-disk machinery happens inside here
_RESIDUAL_RADIUS = 2.9
_CORE_HALF_WIDTH = 1.0 / 48.0  # half side of the fine window around the core
_ANNULUS_NODES = (24, 512)     # radial x angular nodes of a readout annulus
_LADDER_ACCEPT = 128           # fewest angles a readout is accepted from
_LADDER_RTOL = 1e-12           # rung-to-rung agreement of an accepted readout
_LADDER_MARGIN = 1e-9          # relative gap of M I' and I'' for a decision
_LADDER_FLOOR = 1e-290         # smallest accepted readout (no subnormal terms)
_CHAIN_TOL = 1e-2              # slack of the growth-chain comparisons


_SPLINE_SLICE = 16384   # points per numpy pass (bounds the temporaries)
_SPLINE_PAD = 4         # samples wrapped onto each side before the fit


def _cubic_basis(t, x):
    """FITPACK's fpbspl on cubic knots t, vectorized over x: the interval l
    (t[l] <= x < t[l+1], clipped to 3 .. t.size - 5 like fpbisp's scan) and
    the four nonzero B-splines, in FITPACK's operation order."""
    l = np.clip(np.searchsorted(t, x, side="right") - 1, 3, t.size - 5)
    knot = {m: t.take(l + m) for m in range(-2, 4)}     # t[l - 2] .. t[l + 3]
    h = [np.ones_like(x)]
    for j in range(1, 4):
        prev = 0.0      # fpbspl zeroes h(1) and then adds to it
        for i in range(1, j + 1):
            tl, tr = knot[i - j], knot[i]
            f = h[i - 1] / (tr - tl)
            h[i - 1] = prev + f * (tr - x)
            prev = f * (x - tl)
        h.append(prev)
    return l, h


def periodic_spline(values):
    """C^2 periodic interpolant of torus samples (cubic spline on padded data).

    Bilinear interpolation has zero Laplacian inside cells, which would make
    residual certificates for pulled-back fields meaningless; the cubic
    spline tracks second derivatives to O(h^2).

    Every value is bit-identical to FITPACK's ``spl.ev`` (fpbisp on one
    point), whose knot search is a linear scan, O(n) per point.  Two paths
    do the same floating-point operations without it.  A tensor grid (x of
    shape (a, 1), y of shape (1, b), all finite) is one ``spl(xs, ys)`` call
    on the sorted axes (bispev: one forward scan per axis), scattered back.
    Other points (annuli, disk sups, non-finite input) run through numpy,
    _SPLINE_SLICE at a time: bisection for the interval, _cubic_basis, and
    fpbisp's 16-term sum ``sp + (c * hx) * hy`` in its order.
    """
    n = values.shape[0]
    idx = np.arange(-_SPLINE_PAD, n + _SPLINE_PAD + 1)
    coords = idx * (1.0 / n)
    spl = interpolate.RectBivariateSpline(
        coords, coords, values[np.ix_(idx % n, idx % n)], kx=3, ky=3, s=0)
    tx, ty, c = spl.tck
    n_cols = ty.size - 4    # c is the flat (tx.size - 4, ty.size - 4) array

    def ev_points(x, y):
        lx, hx = _cubic_basis(tx, x)
        ly, hy = _cubic_basis(ty, y)
        base = (lx - 3) * n_cols + (ly - 3)
        sp = np.zeros(base.size)
        term = np.empty(base.size)
        for a in range(4):
            for b in range(4):
                c.take(base + (a * n_cols + b), out=term)
                term *= hx[a]
                term *= hy[b]
                sp += term
        return sp

    def ev(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        # the torus wrap: the same one rounding as % 1.0, a tenth of its cost
        x, y = x - np.floor(x), y - np.floor(y)
        if (x.ndim == y.ndim == 2 and x.shape[1] == y.shape[0] == 1
                and np.isfinite(x).all() and np.isfinite(y).all()):
            ox, oy = np.argsort(x[:, 0]), np.argsort(y[0])
            out = np.empty((ox.size, oy.size))
            out[np.ix_(ox, oy)] = spl(x[ox, 0], y[0, oy])
            return out
        shape = np.broadcast_shapes(x.shape, y.shape)
        xb = np.broadcast_to(x, shape).ravel()
        yb = np.broadcast_to(y, shape).ravel()
        out = np.empty(xb.size)
        for s in range(0, xb.size, _SPLINE_SLICE):
            part = slice(s, s + _SPLINE_SLICE)
            out[part] = ev_points(xb[part], yb[part])
        return out.reshape(shape) if shape else float(out[0])

    return ev


@dataclass
class PlanarField:
    """Planar solution F on the 3-disk, sup-normalized, with its potential.

    ``evaluate`` is the exact interpolant used by all quadrature; the stored
    grid exists for residual certification, contour extraction, and dumps.
    """
    field: GridField
    potential: GridField
    eps0: float
    residual: float
    evaluate: object
    potential_evaluate: object
    meta: dict = dataclass_field(default_factory=dict)

    @property
    def grid_n(self) -> int:
        return self.field.grid_n


def _planar_grid(fn, grid_n, half=PATCH_RADIUS, disk=True):
    """fn on the grid_n^2 lattice of [-half, half]^2 (masked to the inscribed
    disk), called on a column and a row so that periodic_spline takes its
    grid path; the copy keeps the values C-contiguous float when fn ignores
    an argument or is constant."""
    coords = np.linspace(-half, half, grid_n)
    vals = np.array(np.broadcast_to(fn(coords[:, None], coords[None, :]),
                                    (grid_n, grid_n)), dtype=float)
    sq = coords ** 2
    mask = sq[:, None] + sq[None, :] <= half ** 2 if disk else None
    return GridField(vals, domain=PLANAR, origin=(-half, -half),
                     side=2 * half, mask=mask)


def _planar_residual(field: GridField, potential: GridField):
    v = field.values
    q = potential.values
    h = field.spacing
    lap = np.zeros_like(v)
    lap[1:-1, 1:-1] = (v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2]
                       - 4 * v[1:-1, 1:-1]) / (h * h)
    sq = (field.origin[0] + np.arange(field.grid_n) * h) ** 2
    inner = sq[:, None] + sq[None, :] <= _RESIDUAL_RADIUS ** 2
    inner[0, :] = inner[-1, :] = inner[:, 0] = inner[:, -1] = False
    defect = lap[inner] + q[inner] * v[inner]
    return float(np.linalg.norm(defect) / max(np.linalg.norm(v[inner]), 1e-300))


def _patch_tau(metric):
    return 2.0 * metric.q_plus * metric.alpha0


def patch_grid_need(lam, metric, k0):
    """Smallest grid_n at which one rescaled unit of the localized patch,
    tau k0 / sqrt(lam), spans 10 torus samples (:func:`localize`)."""
    return 10 * np.sqrt(lam) / (_patch_tau(metric) * k0)


def localize(eigenpair: EigenPair, metric: ConformalMetric, p, k0=0.5,
             eps0=0.1, planar_grid_n=1024) -> PlanarField:
    """Rescale an eigenfunction around p to a planar field on the 3-disk.

    F(z) = phi(p + s z) with s = tau k0 / sqrt(lambda) and tau = 2 q_plus
    alpha0; the potential becomes (k0 tau)^2 q at the pulled-back point and
    must stay below eps0 (decrease k0 otherwise).  The rescaled unit must
    span at least 10 torus samples or the interpolant would be noise.
    """
    lam = eigenpair.lam
    if lam <= 0:
        raise ValueError("localization needs a nonconstant eigenfunction")
    tau = _patch_tau(metric)
    scale = tau * k0 / np.sqrt(lam)
    need = patch_grid_need(lam, metric, k0)
    if metric.grid_n < need:
        raise ResolutionError(
            f"one rescaled unit spans {scale / metric.spacing:.2f} samples "
            f"(< 10); increase grid_n to at least {int(np.ceil(need))}")
    pot_sup = (k0 * tau) ** 2 * metric.q_plus
    if pot_sup >= eps0:
        raise ConstraintError(
            f"potential bound {pot_sup:.4g} is not below eps0 = {eps0:g}; "
            f"decrease k0")

    phi_ev = periodic_spline(eigenpair.field.values)
    px, py = float(p[0]), float(p[1])
    factor = (k0 * tau) ** 2

    def raw_field(x, y):
        return phi_ev(px + scale * np.asarray(x), py + scale * np.asarray(y))

    if metric.is_flat:
        q_const = factor * metric.q_plus

        def potential(x, y):
            return np.full(np.broadcast_shapes(np.asarray(x).shape,
                                               np.asarray(y).shape), q_const)
    else:
        q_ev = periodic_spline(metric.q)

        def potential(x, y):
            return factor * q_ev(px + scale * np.asarray(x),
                                 py + scale * np.asarray(y))

    sup3 = sup_on_disk(raw_field, (0.0, 0.0), PATCH_RADIUS)
    if sup3 == 0.0:
        raise InfiniteGrowthError("eigenfunction vanishes on the whole patch")

    def field_fn(x, y):
        return raw_field(x, y) / sup3

    return _planar_field(field_fn, potential, planar_grid_n, eps0,
                         {"lambda": lam, "p": (px, py), "k0": k0, "tau": tau,
                          "scale": scale, "potential_sup": pot_sup})


def planar_field_from_function(fn, potential_fn=None, planar_grid_n=512,
                               eps0=0.1, normalize=True) -> PlanarField:
    """Wrap an explicit planar function as a PlanarField (testing and demos).

    The potential defaults to zero, in which case the field should be
    harmonic for the residual to be meaningful.
    """
    sup3 = sup_on_disk(fn, (0.0, 0.0), PATCH_RADIUS)
    norm = sup3 if (normalize and sup3 > 0) else 1.0

    def field_fn(x, y):
        return np.asarray(fn(x, y)) / norm

    if potential_fn is None:
        def potential_fn(x, y):  # noqa: F811 - deliberate default
            return np.zeros(np.broadcast_shapes(np.asarray(x).shape,
                                                np.asarray(y).shape))

    return _planar_field(field_fn, potential_fn, planar_grid_n, eps0,
                         {"source": "function"})


def _planar_field(field_fn, potential_fn, grid_n, eps0, meta) -> PlanarField:
    """The field and potential sampled on the planar grid, with the residual
    certificate of the discrete equation."""
    grid = _planar_grid(field_fn, grid_n)
    pot_grid = _planar_grid(potential_fn, grid_n)
    residual = _planar_residual(grid, pot_grid)
    return PlanarField(field=grid, potential=pot_grid, eps0=eps0,
                       residual=residual, evaluate=field_fn,
                       potential_evaluate=potential_fn, meta=meta)


def core_field(pf: PlanarField, grid_n=1025) -> GridField:
    """Fine planar resampling of F on [-1/48, 1/48]^2 around the core
    square, for contours.

    The main grid cannot resolve the core disk of radius 1/60, so nodal
    extraction and tiling clip against this dedicated window.
    """
    return _planar_grid(pf.evaluate, grid_n, _CORE_HALF_WIDTH, disk=False)


# --------------------------------------------------------------------------
# growth on the planar field


def beta_star(pf: PlanarField):
    """(beta, beta*) with beta the log sup ratio between the 5/2- and
    1/4-disks and beta* its floor at 1."""
    outer = sup_on_disk(pf, (0.0, 0.0), 2.5)
    inner = sup_on_disk(pf, (0.0, 0.0), 0.25)
    if inner == 0.0:
        raise InfiniteGrowthError("field vanishes identically on the 1/4-disk")
    beta = float(np.log(outer / inner))
    return beta, max(beta, 1.0)


# --------------------------------------------------------------------------
# disks, annuli, rapid growth


@dataclass(frozen=True)
class DiskAnnuli:
    """Readout annuli of a disk of radius delta centred at ``center``.

    A      = ((1-2a) delta, (1-a) delta)      cutoff band
    A'     = ((1-3a) delta, (1-4a/3) delta)   inner readout
    A''    = ((1-3a/2) delta, (1-a) delta)    outer readout, inside A
    """
    center: tuple[float, float]
    delta: float
    a: float = 0.1

    def __post_init__(self):
        if not (0 < self.a < 1.0 / 3.0):
            raise ConstraintError("thickness parameter a must lie in (0, 1/3)")
        if self.delta <= 0:
            raise ConstraintError("delta must be positive")

    @property
    def band(self):
        return ((1 - 2 * self.a) * self.delta, (1 - self.a) * self.delta)

    @property
    def inner_readout(self):
        return ((1 - 3 * self.a) * self.delta,
                (1 - 4 * self.a / 3) * self.delta)

    @property
    def outer_readout(self):
        return ((1 - 1.5 * self.a) * self.delta, (1 - self.a) * self.delta)


def check_beta_related(delta, beta_star_value):
    """Radius constraints: delta < 1/60 and delta * beta* < 1/2 (both strict)."""
    if not delta < CORE_RADIUS:
        raise ConstraintError(f"delta = {delta:g} must be below 1/60")
    if not delta * beta_star_value < 0.5:
        raise ConstraintError(
            f"delta * beta* = {delta * beta_star_value:g} must be below 1/2")


@functools.lru_cache(maxsize=1)
def _ladder_rungs(inner, outer):
    """The nodes of the two readout annuli, split into the rungs of the
    nested trapezoid ladder, and the full rule's weights (2, n_radial, 1).

    Rung N is the columns ``::n_angular // N`` of the full rule, so every
    node is a node of ``polar_quadrature(center, *inner|outer,
    *_ANNULUS_NODES)``.  Each rung is its angle count, the slice of the
    columns it adds, and their (2, n_radial, k) offsets, copied contiguously
    for one evaluator call.  Tiling and rapid counting probe one radius at a
    time, so one cached radius is enough.
    """
    n = _ANNULUS_NODES[1]
    ox, oy, w = (np.stack(q) for q in zip(*(
        polar_quadrature((0.0, 0.0), r0, r1, *_ANNULUS_NODES)
        for r0, r1 in (inner, outer))))
    step = 2 * n // _LADDER_ACCEPT  # first rung: half the first accepted one
    cols = [(n // step, slice(0, n, step))]
    while step > 1:
        cols.append((2 * cols[-1][0], slice(step // 2, n, step)))
        step //= 2
    rungs = [(angles, c, np.ascontiguousarray(ox[:, :, c]),
              np.ascontiguousarray(oy[:, :, c])) for angles, c in cols]
    return rungs, w


@dataclass
class RapidResult:
    is_rapid: bool
    int_inner_readout: float
    int_outer_readout: float


def classify_rapid(pf: PlanarField, annuli: DiskAnnuli, m_threshold) -> RapidResult:
    """A disk grows M-rapidly when the outer readout annulus carries at least
    M times the squared mass of the inner readout annulus.

    Both readouts climb one ladder of nested trapezoid rules in the angle,
    64, 128, 256 and 512 angles on the same 24 Gauss-Legendre radii; rung N
    is every (512 / N)-th column of the 512-angle rule, so each rung
    evaluates only its new columns, both annuli in one evaluator call, and
    no node is evaluated twice.  A rung N >= 128 is accepted when both
    readouts are at least 1e-290 (no subnormal term can matter), each agrees
    with rung N / 2 to 1e-12 relative, and M I' and I'' differ by more than
    1e-9 of the larger.  F^2 on a circle is smooth and periodic, so the
    trapezoid rule converges on it exponentially; a polynomial field of
    degree below 64 is integrated exactly from rung 128 on.  Lower rungs are
    never accepted: a field symmetric under rotation by 2 pi / 32 about the
    probe (Re z^32 at its zero) gives rungs 16, 32 and 64 the same aliased
    value, twice the true one.  Otherwise the result is rung 512, the full
    rule: F^2 summed against the weights of ``polar_quadrature(center,
    *readout, *_ANNULUS_NODES)``, bit for bit.
    """
    cx, cy = annuli.center
    if np.hypot(cx, cy) + annuli.delta > PATCH_RADIUS:
        raise ConstraintError("annuli leave the field domain")
    rungs, w_full = _ladder_rungs(annuli.inner_readout, annuli.outer_readout)
    n = _ANNULUS_NODES[1]
    vals = np.empty(w_full.shape[:2] + (n,))
    sums, prev = np.zeros(2), None
    for angles, cols, ox, oy in rungs:
        block = np.asarray(pf.evaluate(cx + ox, cy + oy), dtype=float)
        vals[:, :, cols] = block
        if angles == n:
            break
        sums += np.einsum("ijk,ijk,ij->i", block, block, w_full[:, :, 0])
        ints = sums * (n / angles)
        m_in, out = m_threshold * ints[0], ints[1]
        if (angles >= _LADDER_ACCEPT and ints.min() >= _LADDER_FLOOR
                and (abs(ints - prev) <= _LADDER_RTOL * ints).all()
                and abs(m_in - out) > _LADDER_MARGIN * max(m_in, out)):
            return RapidResult(is_rapid=bool(m_in <= out),
                               int_inner_readout=float(ints[0]),
                               int_outer_readout=float(ints[1]))
        prev = ints
    int_inner, int_outer = (float(np.sum(v * v * wv))
                            for v, wv in zip(vals, w_full))
    return RapidResult(is_rapid=bool(m_threshold * int_inner <= int_outer),
                       int_inner_readout=int_inner,
                       int_outer_readout=int_outer)


def separated_probe_centers(delta):
    """Maximal separation-respecting probe family: a hexagonal lattice of
    pitch 2 gamma delta (gamma = delta^(-1/2)) inside the core disk."""
    pitch = 2.0 * np.sqrt(delta)   # 2 * gamma * delta with gamma = delta^(-1/2)
    reach = CORE_RADIUS - delta
    if reach <= 0:
        return []
    centers = []
    row_step = pitch * np.sqrt(3) / 2
    j_max = int(np.floor(reach / row_step)) if row_step > 0 else 0
    for j in range(-j_max, j_max + 1):
        y = j * row_step
        x_off = 0.5 * pitch if (j % 2) else 0.0
        i_max = int(np.floor((reach + abs(x_off)) / pitch)) + 1
        for i in range(-i_max, i_max + 1):
            x = x_off + i * pitch
            if np.hypot(x, y) <= reach:
                centers.append((x, y))
    centers.sort()
    return centers


@dataclass
class RapidCountReport:
    n_rapid: int
    n_probes: int
    beta: float
    beta_star: float
    ratio: float
    rows: list


def count_rapid_disks(pf: PlanarField, delta, m_threshold, a=0.1) -> RapidCountReport:
    """Count rapid disks over the maximal separated probe family in the core."""
    beta, bstar = beta_star(pf)
    check_beta_related(delta, bstar)
    centers = separated_probe_centers(delta)
    rows = []
    n_rapid = 0
    for c in centers:
        res = classify_rapid(pf, DiskAnnuli(center=c, delta=delta, a=a), m_threshold)
        rows.append({"z": c, "delta": delta,
                     "int_inner": res.int_inner_readout,
                     "int_outer": res.int_outer_readout,
                     "is_rapid": res.is_rapid})
        n_rapid += int(res.is_rapid)
    return RapidCountReport(n_rapid=n_rapid, n_probes=len(centers), beta=beta,
                            beta_star=bstar, ratio=n_rapid / bstar, rows=rows)


def rapid_rows_to_csv(report: RapidCountReport, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write("z_x,z_y,delta,int_Aprime,int_Adoubleprime,is_rapid\n")
        for row in report.rows:
            f.write(f"{float(row['z'][0])!r},{float(row['z'][1])!r},"
                    f"{float(row['delta'])!r},"
                    f"{float(row['int_inner'])!r},{float(row['int_outer'])!r},"
                    f"{int(row['is_rapid'])}\n")


# --------------------------------------------------------------------------
# correspondence between planar growth and surface growth


@dataclass
class GrowthChainReport:
    beta: float
    beta_star: float
    disk_ratio: float       # log sup ratio over the matched surface disks
    beta_p: float           # growth exponent on the metric disk
    radius_plus: float
    radius_minus: float
    chain_upper_holds: bool      # beta* < disk_ratio + 1 (+ _CHAIN_TOL)
    disk_ratio_below_beta_p: bool


def growth_chain_report(eigenpair: EigenPair, metric: ConformalMetric, p,
                        k0=0.5, pf: PlanarField | None = None) -> GrowthChainReport:
    """Compare planar growth of the localized field with surface growth at p.

    The disk radii follow the sqrt(q) pinching convention: the outer disk is
    the exact pullback of the 5/2-disk (contained in the metric ball of
    radius k0/sqrt(lambda)); the inner one contains the alpha0-scaled metric
    ball.  The comparison is reported, never asserted: the printed chain can
    fail at strong-growth points.
    """
    if pf is None:
        pf = localize(eigenpair, metric, p, k0=k0, planar_grid_n=256)
    beta, bstar = beta_star(pf)
    lam = eigenpair.lam
    scale = pf.meta.get("scale", _patch_tau(metric) * k0 / np.sqrt(lam))
    radius_plus = 2.5 * scale
    radius_minus = metric.alpha0 * k0 / np.sqrt(lam) / np.sqrt(metric.q_minus)
    sup_plus = sup_on_disk(eigenpair.field, p, radius_plus)
    sup_minus = sup_on_disk(eigenpair.field, p, radius_minus)
    if sup_minus == 0.0:
        raise InfiniteGrowthError("field vanishes on the inner matched disk")
    disk_ratio = float(np.log(sup_plus / sup_minus))
    beta_p = growth_exponent(eigenpair.field, p, k0 / np.sqrt(lam),
                             metric.alpha0, metric=metric)
    return GrowthChainReport(
        beta=beta, beta_star=bstar, disk_ratio=disk_ratio, beta_p=beta_p,
        radius_plus=radius_plus, radius_minus=radius_minus,
        chain_upper_holds=bool(bstar < disk_ratio + 1.0 + _CHAIN_TOL),
        disk_ratio_below_beta_p=bool(disk_ratio <= beta_p + _CHAIN_TOL))
