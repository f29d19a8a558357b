"""Localization of eigenfunctions to planar fields with small potential,
disk/annulus configurations, and rapid-growth classification.

Rescaling an eigenfunction by the wavelength around a point p turns the
eigenvalue equation into a flat equation lap(F) + q F = 0 on the 3-disk,
with the spectral parameter absorbed into a potential of small sup norm.
All growth bookkeeping (the doubling quantity beta and its floor beta*,
rapid disks, the square tiling) happens on that planar field.
"""

from __future__ import annotations

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
_CHAIN_TOL = 1e-2              # slack of the growth-chain comparisons


_SPLINE_BLOCK = 32      # knot intervals per block side
_SPLINE_SLICE = 8192    # points routed at a time (bounds the temporaries)
_SPLINE_PAD = 4         # samples wrapped onto each side before the fit


def periodic_spline(values):
    """C^2 periodic interpolant of torus samples (cubic spline on padded data).

    Bilinear interpolation has zero Laplacian inside cells, which would make
    residual certificates for pulled-back fields meaningless; the cubic
    spline tracks second derivatives to O(h^2).

    FITPACK finds a point's knot interval by a linear scan from the first
    knot, so evaluating the global spline costs O(n) per point.  The
    evaluator instead cuts the spline into blocks of _SPLINE_BLOCK^2 knot
    intervals (built on first use) and sends every point to its block.  A
    block keeps the knots and coefficients its intervals read, so it does the
    same floating-point operations as the global spline: values are
    bit-identical.
    """
    n = values.shape[0]
    h = 1.0 / n
    idx = np.arange(-_SPLINE_PAD, n + _SPLINE_PAD + 1)
    coords = idx * h
    padded = values[np.ix_(idx % n, idx % n)]
    tx, ty, c = interpolate.RectBivariateSpline(coords, coords, padded,
                                                kx=3, ky=3, s=0).tck
    coef = c.reshape(tx.size - 4, ty.size - 4)
    # interval l (t[l] <= x < t[l+1]) reads knots t[l-2 : l+4] and
    # coefficient rows l-3 .. l; FITPACK's valid l run from 3 to t.size - 5
    last_x, last_y = tx.size - 5, ty.size - 5
    n_by = (last_y - 3) // _SPLINE_BLOCK + 1
    blocks = {}

    def block(key):
        spl = blocks.get(key)
        if spl is None:
            bx, by = divmod(key, n_by)
            lo_x = 3 + bx * _SPLINE_BLOCK
            lo_y = 3 + by * _SPLINE_BLOCK
            hi_x = min(lo_x + _SPLINE_BLOCK, last_x + 1)
            hi_y = min(lo_y + _SPLINE_BLOCK, last_y + 1)
            spl = blocks[key] = interpolate.BivariateSpline._from_tck(
                (tx[lo_x - 3:hi_x + 4], ty[lo_y - 3:hi_y + 4],
                 coef[lo_x - 3:hi_x, lo_y - 3:hi_y].ravel(), 3, 3))
        return spl

    def block_keys(x, y):
        lx = np.clip(np.searchsorted(tx, x, side="right") - 1, 3, last_x)
        ly = np.clip(np.searchsorted(ty, y, side="right") - 1, 3, last_y)
        return ((lx - 3) // _SPLINE_BLOCK) * n_by + (ly - 3) // _SPLINE_BLOCK

    def ev_slice(x, y):
        # a NaN coordinate gives NaN in every block, so the NaN-ignoring
        # extremes decide whether one block serves the whole slice
        ends = block_keys(np.array([np.fmin.reduce(x), np.fmax.reduce(x)]),
                          np.array([np.fmin.reduce(y), np.fmax.reduce(y)]))
        if ends[0] == ends[1]:
            return block(ends[0]).ev(x, y)
        keys = block_keys(x, y)
        out = np.empty(x.size)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        cuts = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        for run in np.split(order, cuts):
            out[run] = block(keys[run[0]]).ev(x[run], y[run])
        return out

    def ev(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        xb = np.broadcast_to(x, shape).ravel() % 1.0
        yb = np.broadcast_to(y, shape).ravel() % 1.0
        out = np.empty(xb.size)
        for s in range(0, xb.size, _SPLINE_SLICE):
            part = slice(s, s + _SPLINE_SLICE)
            out[part] = ev_slice(xb[part], yb[part])
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


def _planar_grid(fn, grid_n):
    coords = np.linspace(-PATCH_RADIUS, PATCH_RADIUS, grid_n)
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    vals = fn(X, Y)
    mask = X * X + Y * Y <= PATCH_RADIUS ** 2
    return GridField(vals, domain=PLANAR, origin=(-PATCH_RADIUS, -PATCH_RADIUS),
                     side=2 * PATCH_RADIUS, mask=mask)


def _planar_residual(field: GridField, potential: GridField):
    v = field.values
    q = potential.values
    h = field.spacing
    lap = np.zeros_like(v)
    lap[1:-1, 1:-1] = (v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2]
                       - 4 * v[1:-1, 1:-1]) / (h * h)
    coords = field.origin[0] + np.arange(field.grid_n) * h
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    inner = X * X + Y * Y <= _RESIDUAL_RADIUS ** 2
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
    coords = np.linspace(-_CORE_HALF_WIDTH, _CORE_HALF_WIDTH, grid_n)
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    vals = pf.evaluate(X, Y)
    return GridField(vals, domain=PLANAR,
                     origin=(-_CORE_HALF_WIDTH, -_CORE_HALF_WIDTH),
                     side=2 * _CORE_HALF_WIDTH)


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


def _annulus_f2_integral(pf_eval, center, r_inner, r_outer):
    px, py, w = polar_quadrature(center, r_inner, r_outer, *_ANNULUS_NODES)
    vals = np.asarray(pf_eval(px, py))
    return float(np.sum(vals * vals * w))


@dataclass
class RapidResult:
    is_rapid: bool
    int_inner_readout: float
    int_outer_readout: float


def classify_rapid(pf: PlanarField, annuli: DiskAnnuli, m_threshold) -> RapidResult:
    """A disk grows M-rapidly when the outer readout annulus carries at least
    M times the squared mass of the inner readout annulus."""
    cx, cy = annuli.center
    if np.hypot(cx, cy) + annuli.delta > PATCH_RADIUS:
        raise ConstraintError("annuli leave the field domain")
    r0, r1 = annuli.inner_readout
    int_inner = _annulus_f2_integral(pf.evaluate, annuli.center, r0, r1)
    r0, r1 = annuli.outer_readout
    int_outer = _annulus_f2_integral(pf.evaluate, annuli.center, r0, r1)
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
    j = 0
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
