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

from .errors import InfiniteGrowthError, ResolutionError
from .eigen import EigenPair, Spectrum
from .nodal import extract_nodal_set, nodal_length
from .surface import (TORUS, ConformalMetric, GridField, _geodesic_disk_sups,
                      _sup_disks_flat, lq_norm_on_disk, sup_on_disk)

_BETA_FLOOR = 1e-9  # interpolation noise floor on nested sups


def _log_ratio(outer, inner):
    """Growth exponents log(outer / inner) of sup pairs, scalars or arrays.

    A vanishing inner sup makes the exponent infinite; exponents within the
    noise floor below 0 are clamped to 0.
    """
    if np.any(inner == 0.0):
        raise InfiniteGrowthError("field vanishes identically on an inner disk")
    betas = np.log(outer) - np.log(inner)
    return np.where((betas < 0) & (betas >= -_BETA_FLOOR), 0.0, betas)


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
        [[[outer], [inner]]] = _geodesic_disk_sups(
            [field.values], metric, center, [r], _window_halves(metric, [r]),
            alpha)
    else:
        scale = 1.0 if metric is None else 1.0 / np.sqrt(metric.q_plus)
        outer = sup_on_disk(field, center, r * scale)
        inner = sup_on_disk(field, center, alpha * r * scale)
    return float(_log_ratio(outer, inner))


def lq_growth_exponent(field, center, r, alpha, qexp):
    """L^q version of the growth exponent on Euclidean disks; qexp = inf
    recovers the sup version."""
    if qexp == np.inf:
        return growth_exponent(field, center, r, alpha)
    outer = lq_norm_on_disk(field, center, r, qexp)
    inner = lq_norm_on_disk(field, center, alpha * r, qexp)
    return float(_log_ratio(outer, inner))


# --------------------------------------------------------------------------
# wavelength-scale growth field


def disk_grid_need(lam, metric, k0):
    """Smallest grid_n at which the wavelength disk of radius k0 / sqrt(lam)
    spans 10 grid cells: the metric disk contains a Euclidean disk of radius
    k0 / sqrt(lam q_plus), and below 10 cells the sup ratio is
    interpolation noise."""
    return 10 * np.sqrt(lam * metric.q_plus) / k0


def _check_resolution(eigenpair, metric, k0):
    if eigenpair.lam <= 0:
        raise ValueError("growth field needs a nonconstant eigenfunction (lambda > 0)")
    need = disk_grid_need(eigenpair.lam, metric, k0)
    if metric.grid_n < need:
        raise ResolutionError(
            f"wavelength radius {k0 / np.sqrt(eigenpair.lam):.4g} is below 10 "
            f"grid cells (h = {metric.spacing:.4g}); increase grid_n to at "
            f"least {int(np.ceil(need))}")


def _window_halves(metric, radii):
    """Chebyshev half-widths, in cells, of the windows that hold the metric
    disks of radii ``radii`` with 3 cells to spare: a metric r-disk lies
    within r / sqrt(q_minus) of its center.  A window spans its half-width
    plus one on either side of the center's cell; one that would meet
    itself around the torus is rejected, on flat and curved metrics alike."""
    halves = np.ceil(np.asarray(radii) / np.sqrt(metric.q_minus)
                     / metric.spacing) + 3
    width = 2 * halves.max(initial=0) + 3
    if width >= metric.grid_n:
        raise ResolutionError(f"a geodesic disk's {width:.4g}-cell window "
                              f"wraps the {metric.grid_n}-cell torus; decrease "
                              f"growth.k0 or the growth.k0_sweep entry")
    return halves.astype(int).tolist()


def growth_fields(pairs: list[EigenPair], metric: ConformalMetric, k0=0.5,
                  sample_grid_m=64) -> tuple[np.ndarray, np.ndarray]:
    """Growth exponents of each eigenpair at wavelength radius
    k0 / sqrt(lambda), on the same m x m grid of centers.

    Returns ``(centers, betas)``: ``centers`` is the (m^2, 2) array of
    points (i / m, j / m), i major, and ``betas[k, c]`` is the exponent of
    ``pairs[k]`` at ``centers[c]``.  Every disk radius must span 10 grid
    cells, otherwise the sup ratio is interpolation noise and the call is
    rejected, and so is a disk whose window wraps the torus.  On a curved
    metric one distance sweep per batch of centers serves every pair.
    """
    # largest lambda first, so that the grid_n a failure quotes resolves all
    for pair in sorted(pairs, key=lambda pair: -pair.lam):
        _check_resolution(pair, metric, k0)
    m = sample_grid_m
    grid = np.arange(m) / m
    centers = np.stack([np.repeat(grid, m), np.tile(grid, m)], axis=1)
    radii = [k0 / np.sqrt(pair.lam) for pair in pairs]
    halves = _window_halves(metric, radii)
    if metric.is_flat:
        outer = np.empty((len(pairs), m * m))
        inner = np.empty_like(outer)
        for k, (pair, r_metric) in enumerate(zip(pairs, radii)):
            r = r_metric / np.sqrt(metric.q_plus)  # Euclidean radius of the metric disk
            n = pair.field.grid_n
            # center i / m is grid index i n / m: its cell and fraction, exactly
            cell, rem = np.divmod(np.arange(m) * n, m)
            idx = np.stack([np.repeat(cell, m), np.tile(cell, m)], axis=1)
            key = np.repeat(rem, m) * m + np.tile(rem, m)  # both fractions, in 1 / m
            for f in np.unique(key):
                group = key == f
                frac = (f // m / m, f % m / m)
                for sups, radius in ((outer, r), (inner, metric.alpha0 * r)):
                    sups[k, group] = _sup_disks_flat(
                        pair.field.values, idx[group], radius * n, frac)
    else:
        sups = _geodesic_disk_sups([pair.field.values for pair in pairs],
                                   metric, centers, radii, halves,
                                   metric.alpha0)
        outer, inner = sups[:, 0], sups[:, 1]
    return centers, _log_ratio(outer, inner)


def average_local_growth(betas, centers, metric: ConformalMetric) -> float:
    """Volume-weighted average of one pair's exponents over the centers
    (quadrature of beta dV / Vol)."""
    if len(betas) < 4:
        raise ValueError("need at least 4 growth samples")
    weights = metric.q_at(centers[:, 0], centers[:, 1])
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


def length_growth_row(metric: ConformalMetric, pair: EigenPair, nodal_set,
                      centers, betas) -> LengthGrowthRow:
    """One eigenfunction's row of the two-sided bound, from its nodal set and
    its growth exponents ``betas`` at ``centers``."""
    avg = average_local_growth(betas, centers, metric)
    h1_e, h1_m = nodal_length(nodal_set, metric)
    sq = np.sqrt(pair.lam)
    return LengthGrowthRow(
        lam=pair.lam, average_growth=avg, h1_euclid=h1_e, h1_metric=h1_m,
        lower_ratio=h1_m / (sq * avg) if avg > 0 else np.inf,
        upper_ratio=h1_m / (sq * (avg + 1.0)), beta_max=float(betas.max()))


def verify_length_growth_bound(metric: ConformalMetric, spectrum: Spectrum,
                               k0=0.5, sample_grid_m=64) -> LengthGrowthReport:
    """Per-eigenfunction table for the two-sided bound between nodal length
    and sqrt(lambda) times the average local growth; constant
    eigenfunctions are excluded."""
    pairs = spectrum.nonconstant()
    centers, betas = growth_fields(pairs, metric, k0=k0,
                                   sample_grid_m=sample_grid_m)
    rows = [length_growth_row(metric, pair, extract_nodal_set(pair.field),
                              centers, row)
            for pair, row in zip(pairs, betas)]
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


def growth_samples_to_csv(centers, betas, path) -> None:
    """One pair's exponents, one ``x,y,beta`` row per center."""
    with open(path, "w", encoding="ascii") as f:
        f.write("x,y,beta\n")
        for (x, y), beta in zip(centers.tolist(), betas.tolist()):
            f.write(f"{x!r},{y!r},{beta!r}\n")
