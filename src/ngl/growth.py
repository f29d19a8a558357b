"""Growth exponents on wavelength-scale disks and their surface average.

The growth exponent of f on a disk B with scaling alpha is
log(sup_B |f| / sup_{alpha B} |f|), the continuous analog of polynomial
degree.  Averaging it over the surface at radius k0 / sqrt(lambda) yields the
average local growth A(lambda), which the two-sided length bound compares to
the nodal length per wavelength.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegionError, InfiniteGrowthError, ResolutionError
from .eigen import EigenPair, Spectrum
from .nodal import extract_nodal_set, nodal_length
from .surface import (TORUS, ConformalMetric, EuclideanDisk, GridField,
                      _fast_march, lq_norm_on_region, sup_on_region)

_BETA_FLOOR = 1e-9  # interpolation noise floor on nested sups


@dataclass
class GrowthSample:
    p: tuple[float, float]
    beta: float
    outer_radius: float
    alpha: float


def _clamp_beta(beta):
    if -_BETA_FLOOR <= beta < 0.0:
        return 0.0
    return beta


def growth_exponent(field, center, r, alpha, metric: ConformalMetric | None = None):
    """log of the sup ratio between a disk of radius r and its alpha-scaling.

    With a non-flat metric the disks are geodesic and the field must be a
    torus grid field on the metric's grid; otherwise they are Euclidean
    (periodic for torus grid fields, dense polar sampling for callables and
    planar fields).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if r <= 0:
        raise ValueError("radius must be positive")
    if metric is not None and not metric.is_flat:
        if not (isinstance(field, GridField) and field.domain == TORUS
                and field.grid_n == metric.grid_n):
            raise TypeError("geodesic-disk sup needs a torus grid field on "
                            "the metric's grid")
        outer, inner = _geodesic_disk_sups(field.values, metric, center, r, alpha)
    else:
        scale = 1.0 if metric is None else 1.0 / np.sqrt(metric.q_plus)
        outer = sup_on_region(field, EuclideanDisk(tuple(center), r * scale))
        inner = sup_on_region(field, EuclideanDisk(tuple(center), alpha * r * scale))
    if inner == 0.0:
        raise InfiniteGrowthError("field vanishes identically on the inner disk")
    return _clamp_beta(float(np.log(outer) - np.log(inner)))


def lq_growth_exponent(field, center, r, alpha, qexp):
    """L^q version of the growth exponent on Euclidean disks; qexp = inf
    recovers the sup version."""
    if qexp == np.inf:
        return growth_exponent(field, center, r, alpha)
    outer = lq_norm_on_region(field, EuclideanDisk(tuple(center), r), qexp)
    inner = lq_norm_on_region(field, EuclideanDisk(tuple(center), alpha * r), qexp)
    if inner == 0.0:
        raise InfiniteGrowthError("field vanishes identically on the inner disk")
    return _clamp_beta(float(np.log(outer) - np.log(inner)))


# --------------------------------------------------------------------------
# wavelength-scale growth field


def _disk_offsets(radius_cells):
    r = int(np.floor(radius_cells))
    rng = np.arange(-r, r + 1)
    DI, DJ = np.meshgrid(rng, rng, indexing="ij")
    keep = DI * DI + DJ * DJ <= radius_cells * radius_cells
    return DI[keep].astype(np.int64), DJ[keep].astype(np.int64)


def _ring_offsets(radius_cells, min_angles=256):
    m = max(min_angles, int(np.ceil(8 * np.pi * radius_cells)))
    m = 8 * ((m + 7) // 8)
    th = np.arange(m) * (2 * np.pi / m)
    return radius_cells * np.cos(th), radius_cells * np.sin(th)


_SUP_BLOCK = 64  # centers per gather block; keeps the temporaries in cache


def _sup_disks_flat(values, centers_idx, radius_cells):
    """Per-center max of |values| over lattice disks plus an exact bilinear
    boundary ring (the ring carries the sup whenever the maximizer sits on
    the disk boundary, which is the generic case for nested sup ratios).

    The grid is wrap-padded once, so every disk point and ring corner is a
    flat offset from the center's index into the padded array.
    """
    n = values.shape[0]
    di, dj = _disk_offsets(radius_cells)
    rx, ry = _ring_offsets(radius_cells)
    fi = np.floor(rx).astype(np.int64)
    fj = np.floor(ry).astype(np.int64)
    wx = rx - fi
    wy = ry - fj
    pad = int(np.ceil(radius_cells)) + 2
    padded = np.pad(values, pad, mode="wrap").ravel()
    w = n + 2 * pad
    absvals = np.abs(padded)
    disk = di * w + dj
    ring = fi * w + fj
    # corners (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1) of each ring cell
    v00s, v10s, v01s, v11s = padded, padded[w:], padded[1:], padded[w + 1:]
    base = (centers_idx[:, 0] % n + pad) * w + (centers_idx[:, 1] % n + pad)
    out = np.empty(base.size)
    for lo in range(0, base.size, _SUP_BLOCK):
        b = base[lo:lo + _SUP_BLOCK, None]
        best = absvals.take(b + disk).max(axis=1)
        idx = b + ring
        v00 = v00s.take(idx)
        v01 = v01s.take(idx)
        # low = v00 + wx (v10 - v00), high = v01 + wx (v11 - v01) and
        # low + wy (high - low), in place but in the same operation order
        low = v10s.take(idx)
        low -= v00
        low *= wx
        low += v00
        high = v11s.take(idx)
        high -= v01
        high *= wx
        high += v01
        high -= low
        high *= wy
        high += low
        ring_sup = np.abs(high, out=high).max(axis=1)
        out[lo:lo + _SUP_BLOCK] = np.maximum(best, ring_sup)
    return out


def _growth_field_flat(eigenpair, metric, k0, m):
    lam = eigenpair.lam
    r_metric = k0 / np.sqrt(lam)
    r = r_metric / np.sqrt(metric.q_plus)  # Euclidean radius of the metric disk
    alpha = metric.alpha0
    n = eigenpair.field.grid_n
    values = eigenpair.field.values
    grid = np.arange(m) / m
    ci = np.round(grid * n).astype(np.int64) % n
    centers_idx = np.stack(np.meshgrid(ci, ci, indexing="ij"), axis=-1).reshape(-1, 2)
    sup_out = _sup_disks_flat(values, centers_idx, r * n)
    sup_in = _sup_disks_flat(values, centers_idx, alpha * r * n)
    if np.any(sup_in == 0.0):
        raise InfiniteGrowthError("field vanishes identically on an inner disk")
    betas = np.log(sup_out) - np.log(sup_in)
    betas[(betas < 0) & (betas >= -_BETA_FLOOR)] = 0.0
    samples = []
    for k, (gi, gj) in enumerate(
            (i, j) for i in range(m) for j in range(m)):
        samples.append(GrowthSample(p=(grid[gi], grid[gj]), beta=float(betas[k]),
                                    outer_radius=r_metric, alpha=alpha))
    return samples


def _local_metric_sup(field_values, dist, r, ic, jc, half, n):
    """Sup of |field| over {dist <= r} on the 4x refined window lattice."""
    big = 1e18
    d = np.where(np.isfinite(dist), dist, big)
    offs = np.arange(-4 * half, 4 * half + 1)
    fi = ic * 4 + offs
    fj = jc * 4 + offs
    # bilinear refinement of both the distance and the field on the window
    gx = (fi[:, None] / 4.0) % n
    gy = (fj[None, :] / 4.0) % n
    i0 = np.floor(gx).astype(np.int64) % n
    j0 = np.floor(gy).astype(np.int64) % n
    fx = gx - np.floor(gx)
    fy = gy - np.floor(gy)
    i1 = (i0 + 1) % n
    j1 = (j0 + 1) % n

    def blend(a):
        return (a[i0, j0] * (1 - fx) * (1 - fy) + a[i1, j0] * fx * (1 - fy)
                + a[i0, j1] * (1 - fx) * fy + a[i1, j1] * fx * fy)

    dd = blend(d)
    keep = dd <= r
    if not keep.any():
        raise EmptyRegionError(
            f"geodesic disk of radius {r:g} contains no refined lattice point")
    return float(np.max(np.abs(blend(field_values))[keep]))


def _geodesic_disk_sups(values, metric, p, r, alpha):
    """Sups of |values| over the geodesic disks of radii r and alpha r at p.

    One fast march, stopped past r and windowed to the Euclidean hull of the
    outer disk (a geodesic r-disk lies within r / sqrt(q_minus) of p), feeds
    both scans.
    """
    n = metric.grid_n
    half = int(np.ceil(r / np.sqrt(metric.q_minus) / metric.spacing)) + 3
    dist = _fast_march(metric, p, stop_radius=1.05 * r, window=half + 1)
    ic = int(np.floor(p[0] * n))
    jc = int(np.floor(p[1] * n))
    return (_local_metric_sup(values, dist, r, ic, jc, half, n),
            _local_metric_sup(values, dist, alpha * r, ic, jc, half, n))


def _growth_field_curved(eigenpair, metric, k0, m):
    r = k0 / np.sqrt(eigenpair.lam)
    alpha = metric.alpha0
    grid = np.arange(m) / m
    values = eigenpair.field.values
    samples = []
    for gi in range(m):
        for gj in range(m):
            p = (grid[gi], grid[gj])
            outer, inner = _geodesic_disk_sups(values, metric, p, r, alpha)
            if inner == 0.0:
                raise InfiniteGrowthError("field vanishes on an inner metric disk")
            samples.append(GrowthSample(
                p=p, beta=_clamp_beta(float(np.log(outer) - np.log(inner))),
                outer_radius=r, alpha=alpha))
    return samples


def growth_field(eigenpair: EigenPair, metric: ConformalMetric, k0=0.5,
                 sample_grid_m=64) -> list[GrowthSample]:
    """Growth exponent at wavelength radius k0 / sqrt(lambda) on an m x m grid.

    The disk radius must stay at least 10 grid cells, otherwise the sup ratio
    is interpolation noise and the call is rejected.
    """
    if eigenpair.lam <= 0:
        raise ValueError("growth field needs a nonconstant eigenfunction (lambda > 0)")
    lam = eigenpair.lam
    r = k0 / np.sqrt(lam)
    h = metric.spacing
    # the metric disk contains a Euclidean disk of radius r / sqrt(q_plus)
    if r / np.sqrt(metric.q_plus) < 10 * h:
        need = int(np.ceil(10 * np.sqrt(lam * metric.q_plus) / k0))
        raise ResolutionError(
            f"wavelength radius {r:.4g} is below 10 grid cells (h = {h:.4g}); "
            f"increase grid_n to at least {need}")
    if metric.is_flat:
        return _growth_field_flat(eigenpair, metric, k0, sample_grid_m)
    return _growth_field_curved(eigenpair, metric, k0, sample_grid_m)


def average_local_growth(samples: list[GrowthSample], metric: ConformalMetric) -> float:
    """Volume-weighted average of the growth samples (quadrature of beta dV / Vol)."""
    if len(samples) < 4:
        raise ValueError("need at least 4 growth samples")
    betas = np.array([s.beta for s in samples])
    px = np.array([s.p[0] for s in samples])
    py = np.array([s.p[1] for s in samples])
    weights = metric.q_at(px, py)
    return float(np.sum(betas * weights) / np.sum(weights))


# --------------------------------------------------------------------------
# two-sided length / growth comparison


@dataclass
class LengthGrowthRow:
    lam: float
    average_growth: float
    h1_euclid: float
    h1_metric: float
    lower_ratio: float   # H^1 / (sqrt(lam) A)
    upper_ratio: float   # H^1 / (sqrt(lam) (A + 1))
    beta_max: float


@dataclass
class LengthGrowthReport:
    rows: list[LengthGrowthRow]
    k0: float
    sample_grid_m: int

    def summary(self) -> dict:
        lower = [r.lower_ratio for r in self.rows]
        upper = [r.upper_ratio for r in self.rows]
        return {
            "count": len(self.rows),
            "lower_min": min(lower), "lower_max": max(lower),
            "upper_min": min(upper), "upper_max": max(upper),
            "lower_spread": max(lower) / min(lower),
            "upper_spread": max(upper) / min(upper),
        }


def verify_length_growth_bound(metric: ConformalMetric, spectrum: Spectrum,
                               k0=0.5, sample_grid_m=64,
                               skip_unresolved=False) -> LengthGrowthReport:
    """Per-eigenfunction table for the two-sided bound between nodal length
    and sqrt(lambda) times the average local growth.

    Constant eigenfunctions are excluded.  With ``skip_unresolved`` the rows
    whose wavelength disks fall below grid resolution are dropped instead of
    raising (used by the k0 sweep).
    """
    rows = []
    for pair in spectrum.nonconstant():
        try:
            samples = growth_field(pair, metric, k0=k0, sample_grid_m=sample_grid_m)
        except ResolutionError:
            if skip_unresolved:
                continue
            raise
        avg = average_local_growth(samples, metric)
        beta_max = max(s.beta for s in samples)
        ns = extract_nodal_set(pair.field)
        h1_e, h1_m = nodal_length(ns, metric)
        sq = np.sqrt(pair.lam)
        rows.append(LengthGrowthRow(
            lam=pair.lam, average_growth=avg, h1_euclid=h1_e, h1_metric=h1_m,
            lower_ratio=h1_m / (sq * avg) if avg > 0 else np.inf,
            upper_ratio=h1_m / (sq * (avg + 1.0)),
            beta_max=beta_max))
    return LengthGrowthReport(rows=rows, k0=k0, sample_grid_m=sample_grid_m)


def donnelly_fefferman_constant(report: LengthGrowthReport) -> float:
    """Family maximum of (max_p beta_p) / sqrt(lambda)."""
    return max(r.beta_max / np.sqrt(r.lam) for r in report.rows)


def quartile_trend_ratio(report: LengthGrowthReport) -> float:
    """Mean of A over the last lambda-quartile divided by the first."""
    rows = sorted(report.rows, key=lambda r: r.lam)
    k = max(1, len(rows) // 4)
    first = np.mean([r.average_growth for r in rows[:k]])
    last = np.mean([r.average_growth for r in rows[-k:]])
    return float(last / first)


def report_to_csv(report: LengthGrowthReport, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write("lambda,A,H1_metric,lower_ratio,upper_ratio\n")
        for r in report.rows:
            f.write(f"{float(r.lam)!r},{float(r.average_growth)!r},"
                    f"{float(r.h1_metric)!r},{float(r.lower_ratio)!r},"
                    f"{float(r.upper_ratio)!r}\n")


def growth_samples_to_csv(samples: list[GrowthSample], path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write("x,y,beta\n")
        for s in samples:
            f.write(f"{float(s.p[0])!r},{float(s.p[1])!r},{float(s.beta)!r}\n")
