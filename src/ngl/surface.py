"""Conformally flat torus metrics, sampled scalar fields, and disk evaluation.

The metric is g = q(x, y)(dx^2 + dy^2) on the unit torus [0,1)^2, realized by
one global periodic chart.  Lengths scale by sqrt(q), areas by q.  Everything
downstream (eigenfunctions, nodal sets, growth exponents) consumes the two
primitives defined here: bilinear interpolation of grid samples and sup / L^q
evaluation over disks, with one bilinear blend (``_blend``) behind every
interpolated value.  A torus grid field's sup over Euclidean disks has one
kernel, ``_sup_disks_flat``, for one center or many: the lattice points in
the disk plus a dense bilinear ring on the circle.  Each cell's interpolant
is bilinear, hence harmonic, so the maximum principle puts its sup at one or
the other.  The geodesic distance solver lives here too: Gauss-Seidel fast
sweeping of the first-order upwind update, on the windows of a stack of
centers at once; ``_geodesic_disk_sups`` takes geodesic-disk sups on them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, CorruptFileError, EmptyRegionError

TORUS = "torus"
PLANAR = "planar"

_GFD_MAGIC_KEYS = {"grid_n", "domain", "side"}


# --------------------------------------------------------------------------
# grid fields


@dataclass
class GridField:
    """Scalar samples on a uniform n x n grid.

    ``values[i, j] = f(x_i, y_j)``.  Torus fields sample ``x_i = i/n`` and
    interpolate periodically; planar fields sample ``x_i = origin + i*h`` with
    ``h = side/(n-1)`` (both endpoints included) and may carry a boolean mask
    restricting the meaningful part of the square (e.g. a disk).
    """

    values: np.ndarray
    domain: str = TORUS
    origin: tuple[float, float] = (0.0, 0.0)
    side: float = 1.0
    mask: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("expected a square sample array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field samples must all be finite")
        if self.domain not in (TORUS, PLANAR):
            raise ValueError(f"unknown domain {self.domain!r}")

    @property
    def grid_n(self) -> int:
        return self.values.shape[0]

    @property
    def spacing(self) -> float:
        n = self.grid_n
        return self.side / n if self.domain == TORUS else self.side / (n - 1)

    def interp(self, x, y):
        """Periodic bilinear interpolation at arbitrary points.

        Torus fields only: planar samples are read through the
        ``PlanarField.evaluate`` spline they come with.
        """
        if self.domain != TORUS:
            raise TypeError("planar grid fields are evaluated through "
                            "PlanarField.evaluate, not bilinearly")
        return _bilinear_periodic(self.values, np.asarray(x), np.asarray(y))


def _bilinear_periodic(values, x, y):
    n = values.shape[0]
    i0, fx = np.divmod(np.asarray(x, dtype=float) * n, 1.0)   # cell, fraction
    j0, fy = np.divmod(np.asarray(y, dtype=float) * n, 1.0)
    i0 = i0.astype(np.int64) % n
    j0 = j0.astype(np.int64) % n
    i1 = (i0 + 1) % n
    j1 = (j0 + 1) % n
    return _blend(values[i0, j0], values[i1, j0], values[i0, j1],
                  values[i1, j1], fx, fy)


def _blend(v00, v10, v01, v11, fx, fy):
    """The bilinear interpolant at fractions (fx, fy) of the cell with corner
    values v00 = f(i, j), v10 = f(i + 1, j), v01, v11, as nested lerps (exact
    on constant fields): low = v00 + fx (v10 - v00), high = v01 + fx (v11 -
    v01), low + fy (high - low).  Overwrites v10 and v11 with low and high."""
    v10 -= v00
    v10 *= fx
    v10 += v00
    v11 -= v01
    v11 *= fx
    v11 += v01
    v11 -= v10
    out = fy * v11
    out += v10
    return out


def write_gfd(field: GridField, path) -> None:
    """Dump a field: one JSON header line, then n*n little-endian float64."""
    header = {
        "grid_n": field.grid_n,
        "domain": field.domain,
        "side": field.side,
        "origin": list(field.origin),
    }
    # a reader never sees a half-written file: write aside, then rename
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    with open(tmp, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("ascii"))
        f.write(b"\n")
        f.write(field.values.astype("<f8").tobytes(order="C"))
    os.replace(tmp, path)


def read_gfd(path) -> GridField:
    """Load a field written by ``write_gfd``.

    Raises CorruptFileError unless the header parses, names the keys
    write_gfd writes, and is followed by exactly 8 n^2 bytes of finite
    samples.
    """
    with open(path, "rb") as f:
        line = f.readline()
        try:
            header = json.loads(line.decode("ascii"))
            n = header["grid_n"]
            if not (type(n) is int and n > 0 and _GFD_MAGIC_KEYS <= header.keys()):
                raise ValueError("bad grid_n or missing keys")
            origin = tuple(float(v) for v in header.get("origin", (0.0, 0.0)))
            side = float(header["side"])
            if len(origin) != 2:
                raise ValueError("origin needs two coordinates")
        except (ValueError, TypeError, AttributeError) as exc:
            raise CorruptFileError(f"{path}: unreadable header ({exc})") from exc
        size = os.fstat(f.fileno()).st_size - len(line)
        if size != 8 * n * n:
            raise CorruptFileError(f"{path}: {size} bytes of samples, expected "
                                   f"8 * {n}^2 = {8 * n * n}")
        raw = f.read(size)
    values = np.frombuffer(raw, dtype="<f8").reshape(n, n).copy()
    try:
        return GridField(values, domain=header["domain"], origin=origin,
                         side=side)
    except ValueError as exc:
        raise CorruptFileError(f"{path}: {exc}") from exc


# --------------------------------------------------------------------------
# metric


@dataclass
class ConformalMetric:
    """Conformal factor q sampled on the unit torus, with derived constants.

    Invariants: 0 < q_minus <= q <= q_plus at every sample, volume = mean(q)
    (exact periodic trapezoid rule), alpha0 = q_minus / (5 q_plus).
    """

    q: np.ndarray
    q_minus: float
    q_plus: float
    volume: float
    alpha0: float
    profile: str = ""

    @property
    def grid_n(self) -> int:
        return self.q.shape[0]

    @property
    def spacing(self) -> float:
        return 1.0 / self.grid_n

    @property
    def is_flat(self) -> bool:
        return self.q_plus - self.q_minus <= 1e-13 * self.q_plus

    def q_at(self, x, y):
        return _bilinear_periodic(self.q, np.asarray(x), np.asarray(y))


def _profile_flat(x, y, value):
    return np.full_like(x, float(value))


def _profile_wave(x, y, amplitude):
    return 1.0 + amplitude * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)


def _profile_stripe(x, y, amplitude):
    return 1.0 + amplitude * np.sin(2 * np.pi * x)


# profile -> (conformal factor, its one parameter, the parameter's default,
# the range that keeps the factor positive)
_PROFILES = {
    "flat": (_profile_flat, "value", 1.0, "be a positive number"),
    "wave": (_profile_wave, "amplitude", 0.2, "lie in (-1, 1)"),
    "stripe": (_profile_stripe, "amplitude", 0.3, "lie in (-1, 1)"),
}


def make_metric(profile="flat", grid_n=256, /, **params) -> ConformalMetric:
    """Sample a named conformal-factor profile on the torus grid.

    Each profile takes one parameter (``_PROFILES``).  Rejects any other
    parameter, and a parameter that is not a finite number or leaves the
    factor non-positive at some sample.  Every profile attains its
    extremes on the 16-point grid, so ``make_metric(profile, 16)`` carries
    the closed-form bounds q_minus and q_plus.
    """
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    if profile not in _PROFILES:
        raise ValueError(f"unknown metric profile {profile!r}; "
                         f"choose from {sorted(_PROFILES)}")
    factor, name, default, bounds = _PROFILES[profile]
    for key in params:
        if key != name:
            raise ValueError(f"unknown metric.params key {key!r} for "
                             f"profile {profile}")
    value = params.get(name, default)
    coords = np.arange(grid_n) / grid_n
    x, y = np.meshgrid(coords, coords, indexing="ij")
    # a finite number within the float range (NaN fails the comparison)
    ok = ((type(value) is int or isinstance(value, float))
          and abs(value) <= sys.float_info.max)
    q = np.asarray(factor(x, y, value) if ok else np.nan, dtype=float)
    if not q.min() > 0.0:
        raise ValueError(f"metric.params.{name} must {bounds}")
    q_min = float(q.min())
    q_max = float(q.max())
    return ConformalMetric(q=q, q_minus=q_min, q_plus=q_max,
                           volume=float(q.mean()),
                           alpha0=q_min / (5.0 * q_max),
                           profile=profile)


# --------------------------------------------------------------------------
# flat-torus distance and geodesic distance (first-order fast sweeping)


def flat_torus_distance(p, x, y):
    """Euclidean distance on the flat torus (minimum over period shifts)."""
    dx = np.abs(np.asarray(x) - p[0])
    dy = np.abs(np.asarray(y) - p[1])
    dx = np.minimum(dx, 1.0 - dx)
    dy = np.minimum(dy, 1.0 - dy)
    return np.hypot(dx, dy)


_SEED_REACH = 3         # cells around the source given straight-line lengths
_SWEEP_PASSES = 16      # Gauss-Seidel passes before a sweep is declared stuck
_SWEEP_NODES = 1 << 19  # nodes per swept stack of points: bounds its memory


def _upwind(a, b, w):
    """First-order upwind solve of |grad d| = w from the smaller neighbor
    value along each axis, a and b (elementwise; +inf where both are)."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    with np.errstate(invalid="ignore"):   # inf - inf, and sqrt where unused
        gap = hi - lo
        both = 0.5 * (lo + hi + np.sqrt(2.0 * w * w - gap * gap))
    return np.where(gap >= w, lo + w, both)


def _swept_distances(metric: ConformalMetric, points, halves):
    """Geodesic distances |grad d| = sqrt(q) from each point, on the window
    of Chebyshev ``half + 1`` around the point's cell per half in
    ``halves``: yields ``(lo, k, d, rows, cols)``, d[b] the distances from
    points[lo + b] on the (2 half + 3)^2 grid nodes (rows[b], cols[b])
    centered on its cell.  The caller keeps every window off itself around
    the torus (2 half + 3 < n).

    One Gauss-Seidel fast sweep (Zhao, Math. Comp. 74 (2005)) of the upwind
    update per batch serves every window, on a stack in the largest window
    with a +inf ring, from the 7 x 7 seeds at their straight-line length;
    it converges to the upwind solution a fast march gives.  A pass sweeps
    the four orders (i, j ascending or descending) diagonal by diagonal: a
    diagonal's nodes are not neighbors, so updating one at once (a strided
    slice of the flat stack) is the sequential order.  Passes repeat until
    one Jacobi update of the whole stack changes no value.
    """
    if not halves:
        return
    n, h = metric.grid_n, metric.spacing
    reach = max(halves) + 1
    pts = np.asarray(points, dtype=float).reshape(-1, 2) % 1.0
    cells = np.floor(pts * n).astype(np.int64)
    sq = np.sqrt(metric.q)
    side = 2 * reach + 3
    span = np.arange(side) - reach - 1
    seeds = slice(reach + 1 - _SEED_REACH, reach + 2 + _SEED_REACH)

    # flat indices of the interior; the diagonals of its four sweep orders,
    # each with the slices of its (i -+ 1, j) and (i, j -+ 1) neighbors
    idx = np.arange(side * side).reshape(side, side)[1:-1, 1:-1]
    offsets = range(3 - side, side - 2)
    anti = [(d[0], d[-1] + 1, side - 1)     # i + j ascending
            for d in (np.fliplr(idx).diagonal(o) for o in offsets[::-1])]
    main = [(d[0], d[-1] + 1, side + 1)     # i - j descending
            for d in (idx.diagonal(o) for o in offsets)]
    order = [[slice(a + off, b + off, step) for off in (0, -side, side, -1, 1)]
             for a, b, step in anti + main + anti[::-1] + main[::-1]]

    batch = max(1, _SWEEP_NODES // side ** 2)
    for lo in range(0, len(pts), batch):
        px, py = pts[lo:lo + batch, :1, None], pts[lo:lo + batch, 1:, None]
        rows, cols = (cells[lo:lo + batch].T[:, :, None] + span) % n
        w = sq[rows[:, :, None], cols[:, None, :]] * h
        dist = np.full(w.shape, np.inf)
        si, sj = rows[:, seeds, None], cols[:, None, seeds]
        d_flat = flat_torus_distance((px, py), si * h, sj * h)
        sq_p = np.sqrt(metric.q_at(px, py))
        dist[:, seeds, seeds] = 0.5 * (sq_p + sq[si, sj]) * d_flat

        flat, flat_w = dist.reshape(len(w), -1), w.reshape(len(w), -1)
        for _ in range(_SWEEP_PASSES):
            for node, up, down, left, right in order:
                cand = _upwind(np.minimum(flat[:, up], flat[:, down]),
                               np.minimum(flat[:, left], flat[:, right]),
                               flat_w[:, node])
                np.fmin(flat[:, node], cand, out=flat[:, node])
            cand = _upwind(np.minimum(dist[:, :-2, 1:-1], dist[:, 2:, 1:-1]),
                           np.minimum(dist[:, 1:-1, :-2], dist[:, 1:-1, 2:]),
                           w[:, 1:-1, 1:-1])
            if not np.any(cand < dist[:, 1:-1, 1:-1]):
                break
        else:
            raise ConvergenceError(f"geodesic distance sweep still changing "
                                   f"after {_SWEEP_PASSES} passes")

        for k, half in enumerate(halves):
            window = slice(reach - half, reach + half + 3)
            yield (lo, k, dist[:, window, window], rows[:, window],
                   cols[:, window])


_PHASES = np.arange(4) / 4.0   # cell fractions of the 4 x 4 refinement


def _refine(a):
    """Bilinear 4x refinement of the cells of a block: entry [u, v, k, l] is
    the interpolant at (k + u / 4, l + v / 4); v10, v11 are copied per u."""
    return _blend(a[:-1, :-1], np.repeat(a[None, None, 1:, :-1], 4, axis=0),
                  a[:-1, 1:], np.repeat(a[None, None, 1:, 1:], 4, axis=0),
                  _PHASES[:, None, None, None], _PHASES[:, None, None])


def _local_metric_sups(values, dist, radii):
    """Sups of |values| over {dist <= rad}, rad in radii, on the 4x refined
    lattice over the cells of a window block: both blocks hold the nodes at
    offsets -half .. half + 1 from the center's cell, and are refined once."""
    dd = _refine(dist)
    absval = np.abs(_refine(values))
    sups = []
    for rad in radii:
        keep = dd <= rad
        if not keep.any():
            raise EmptyRegionError(
                f"geodesic disk of radius {rad:g} contains no refined lattice point")
        sups.append(float(np.max(absval[keep])))
    return sups


def _geodesic_disk_sups(fields, metric, points, radii, halves, alpha):
    """Sups of |fields[k]| over the geodesic disks of radii radii[k] and
    alpha radii[k] at each point: entry [k, 0, c] is the outer sup at
    points[c], and [k, 1, c] the inner one, read off one sweep's distances
    on the windows of half-widths halves[k] (``growth._window_halves``)."""
    points = np.reshape(points, (-1, 2))
    sups = np.empty((len(fields), 2, len(points)))
    for lo, k, dist, rows, cols in _swept_distances(metric, points, halves):
        for b in range(len(dist)):
            sups[k, :, lo + b] = _local_metric_sups(
                fields[k][rows[b, 1:, None], cols[b, None, 1:]],
                dist[b, 1:, 1:], (radii[k], alpha * radii[k]))
    return sups


# --------------------------------------------------------------------------
# sup and L^q over Euclidean disks


def _disk_offsets(radius_cells, frac=(0.0, 0.0)):
    """Lattice offsets (di, dj) with (di - fx)^2 + (dj - fy)^2 <= R^2: the
    grid points of the disk of radius R (in cells) about the point that sits
    ``frac = (fx, fy)`` cells past a lattice node, 0 <= fx, fy < 1."""
    fx, fy = frac
    r = int(np.floor(radius_cells))
    rng = np.arange(-r, r + 2)
    DI, DJ = np.meshgrid(rng, rng, indexing="ij")
    keep = (DI - fx) ** 2 + (DJ - fy) ** 2 <= radius_cells * radius_cells
    return DI[keep].astype(np.int64), DJ[keep].astype(np.int64)


def _ring_points(center, radius, max_step, min_angles=64):
    m = max(min_angles, int(np.ceil(2 * np.pi * radius / max_step)))
    m = 8 * ((m + 7) // 8)  # keep axis tips on the ring
    th = np.arange(m) * (2 * np.pi / m)
    return center[0] + radius * np.cos(th), center[1] + radius * np.sin(th)


_SUP_BLOCK = 64  # centers per gather block; keeps the temporaries in cache


def _sup_disks_flat(values, centers_idx, radius_cells, frac=(0.0, 0.0)):
    """Per-center sup of the bilinear interpolant's |values| over the disk of
    radius ``radius_cells`` about ``centers_idx[k] + frac`` (grid index units,
    periodic): the max over the disk's lattice points and an exact bilinear
    ring of at least 256 angles, at most a quarter cell apart, on its boundary.

    No other point of the disk is needed: on each cell the interpolant is
    bilinear, hence harmonic, so by the maximum principle |f| over the part
    of a cell inside the disk peaks on that part's boundary, where f is
    linear along cell edges: at a lattice point inside the disk or on the
    circle.  The ring samples the circle, so at a kink of the interpolant
    (where the circle crosses a grid line) it can read below the circle's
    sup by up to its Lipschitz constant times an eighth of a cell.  The grid
    is wrap-padded once, so every disk point and ring corner is a flat
    offset from the center's index into the padded array.
    """
    n = values.shape[0]
    di, dj = _disk_offsets(radius_cells, frac)
    if di.size == 0:
        raise EmptyRegionError(
            f"disk of radius {radius_cells:g} cells contains no grid sample")
    rx, ry = _ring_points(frac, radius_cells, 0.25, min_angles=256)
    fi, wx = np.divmod(rx, 1.0)
    fj, wy = np.divmod(ry, 1.0)
    pad = int(np.ceil(radius_cells)) + 2
    padded = np.pad(values, pad, mode="wrap").ravel()
    w = n + 2 * pad
    absvals = np.abs(padded)
    disk = di * w + dj
    ring = (fi * w + fj).astype(np.int64)
    # corners (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1) of each ring cell
    corners = padded, padded[w:], padded[1:], padded[w + 1:]
    base = (centers_idx[:, 0] % n + pad) * w + (centers_idx[:, 1] % n + pad)
    out = np.empty(base.size)
    for lo in range(0, base.size, _SUP_BLOCK):
        b = base[lo:lo + _SUP_BLOCK, None]
        best = absvals.take(b + disk).max(axis=1)
        idx = b + ring
        vals = _blend(*(corner.take(idx) for corner in corners), wx, wy)
        ring_sup = np.abs(vals, out=vals).max(axis=1)
        out[lo:lo + _SUP_BLOCK] = np.maximum(best, ring_sup)
    return out


_CALLABLE_RADII = 96   # concentric rings of a callable's disk scan


def _callable_sup_disk(fn, center, r):
    """max |fn| over the center and 95 rings out to r, in one call of fn."""
    step = max(r / _CALLABLE_RADII, 1e-12)
    rings = [_ring_points(center, rad, step, min_angles=96)
             for rad in np.linspace(0.0, r, _CALLABLE_RADII)[1:]]
    xs = np.concatenate([[center[0]]] + [rx for rx, _ in rings])
    ys = np.concatenate([[center[1]]] + [ry for _, ry in rings])
    return float(np.max(np.abs(fn(xs, ys))))


def _as_evaluator(fieldlike):
    """Return a vectorized (x, y) -> value callable, or None for torus grid
    fields.  Planar grid fields are rejected: planar sups go through
    ``PlanarField.evaluate``."""
    ev = getattr(fieldlike, "evaluate", None)
    if ev is not None:
        return ev
    if isinstance(fieldlike, GridField) and fieldlike.domain == TORUS:
        return None
    if callable(fieldlike):
        return fieldlike
    raise TypeError(f"cannot evaluate object of type {type(fieldlike)!r}")


def sup_on_disk(fieldlike, center, r):
    """Supremum of |field| over the Euclidean disk of radius r about center.

    Torus grid fields are scanned by ``_sup_disks_flat``: the lattice points
    in the disk and a dense bilinear ring on its boundary, which by the
    maximum principle on each (harmonic) bilinear cell is where the
    interpolant's sup lies.  Objects exposing an ``evaluate`` callable (and
    bare callables) are scanned on dense polar rasters that include the
    boundary exactly, in one call; a NaN at any scanned point makes the sup
    NaN.  Geodesic disks go through ``_geodesic_disk_sups`` (reached by
    ``growth.growth_exponent`` with a metric).
    """
    ev = _as_evaluator(fieldlike)
    if ev is not None:
        return _callable_sup_disk(ev, center, r)
    n = fieldlike.grid_n
    corner, frac = np.divmod(np.asarray(center, dtype=float) * n, 1.0)
    sup = _sup_disks_flat(fieldlike.values, corner.astype(np.int64)[None, :],
                          r * n, tuple(frac))
    return float(sup[0])


# ---- L^q norms -----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _polar_tables(n_radial, n_angular):
    """Read-only Legendre nodes/weights and cos/sin angle tables."""
    nodes, weights = np.polynomial.legendre.leggauss(n_radial)
    th = np.arange(n_angular) * (2 * np.pi / n_angular)
    tables = (nodes, weights, np.cos(th), np.sin(th))
    for arr in tables:
        arr.flags.writeable = False
    return tables


def polar_quadrature(center, r_inner, r_outer, n_radial, n_angular):
    """Gauss-Legendre (radial) x trapezoid (angular) rule on an annulus.

    Returns points ``(px, py)`` of shape (n_radial, n_angular) and weights
    ``w`` of shape (n_radial, 1) that broadcast against them (read-only,
    shared between calls); a disk is the annulus with ``r_inner = 0``.
    """
    ox, oy, w = _polar_offsets(float(r_inner), float(r_outer), n_radial,
                               n_angular)
    return center[0] + ox, center[1] + oy, w


@functools.lru_cache(maxsize=8)
def _polar_offsets(r_inner, r_outer, n_radial, n_angular):
    """Read-only node offsets and weights of the annulus at any center."""
    nodes, weights, cos_th, sin_th = _polar_tables(n_radial, n_angular)
    rad = 0.5 * (r_outer - r_inner) * nodes + 0.5 * (r_outer + r_inner)
    wr = 0.5 * (r_outer - r_inner) * weights
    offsets = (rad[:, None] * cos_th[None, :], rad[:, None] * sin_th[None, :],
               (rad * wr)[:, None] * (2 * np.pi / n_angular))
    for arr in offsets:
        arr.flags.writeable = False
    return offsets


def lq_norm_on_disk(fieldlike, center, r, qexp):
    """L^q norm of a callable field (or one exposing ``evaluate``) over the
    Euclidean disk of radius r about center, by Gauss-Legendre (radial) x
    trapezoid (angular) quadrature."""
    if not (1.0 <= qexp < np.inf):
        raise ValueError("qexp must lie in [1, inf)")
    ev = _as_evaluator(fieldlike)
    if ev is None:
        raise TypeError("L^q norms need a callable field")
    px, py, w = polar_quadrature(center, 0.0, r, 64, 512)
    vals = np.abs(np.asarray(ev(px, py)))
    return float(np.sum((vals ** qexp) * w)) ** (1.0 / qexp)


def polyline_metric_length(segments: np.ndarray, metric: ConformalMetric) -> float:
    """Length of straight segments under g, i.e. integral of sqrt(q) ds.

    3-point Gauss quadrature per segment; endpoints are torus coordinates.
    """
    if len(segments) == 0:
        return 0.0
    seg = np.asarray(segments, dtype=float)
    x0, y0, x1, y1 = seg[:, 0], seg[:, 1], seg[:, 2], seg[:, 3]
    euclid = np.hypot(x1 - x0, y1 - y0)
    t_nodes = np.array([0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)])
    t_weights = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
    sq = np.sqrt(metric.q)
    total = np.zeros_like(euclid)
    for t, w in zip(t_nodes, t_weights):
        px = x0 + t * (x1 - x0)
        py = y0 + t * (y1 - y0)
        total += w * _bilinear_periodic(sq, px, py)
    return float(np.sum(total * euclid))
