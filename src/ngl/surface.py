"""Conformally flat torus metrics, sampled scalar fields, and disk evaluation.

The metric is g = q(x, y)(dx^2 + dy^2) on the unit torus [0,1)^2, realized by
one global periodic chart.  Lengths scale by sqrt(q), areas by q.  Everything
downstream (eigenfunctions, nodal sets, growth exponents) consumes the two
primitives defined here: bilinear interpolation of grid samples and sup / L^q
evaluation over Euclidean disks.  A torus grid field's sup over Euclidean
disks has one kernel, ``_sup_disks_flat``, for one center or many: the
lattice points in the disk plus a dense bilinear ring on the circle.  Each
cell's interpolant is bilinear, hence harmonic, so the maximum principle puts
its sup at one or the other.  The geodesic distance solver (fast marching)
lives here too; geodesic-disk sups are taken in ``growth``.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CorruptFileError, EmptyRegionError

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
    gx = np.asarray(x, dtype=float) * n
    gy = np.asarray(y, dtype=float) * n
    i0 = np.floor(gx).astype(np.int64)
    j0 = np.floor(gy).astype(np.int64)
    fx = gx - i0
    fy = gy - j0
    i0 %= n
    j0 %= n
    i1 = (i0 + 1) % n
    j1 = (j0 + 1) % n
    # nested lerp form: exact on constant fields
    low = values[i0, j0] + fx * (values[i1, j0] - values[i0, j0])
    high = values[i0, j1] + fx * (values[i1, j1] - values[i0, j1])
    return low + fy * (high - low)


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
# flat-torus distance and geodesic distance (first-order fast marching)


def flat_torus_distance(p, x, y):
    """Euclidean distance on the flat torus (minimum over period shifts)."""
    dx = np.abs(np.asarray(x) - p[0])
    dy = np.abs(np.asarray(y) - p[1])
    dx = np.minimum(dx, 1.0 - dx)
    dy = np.minimum(dy, 1.0 - dy)
    return np.hypot(dx, dy)


_SEED_REACH = 3   # cells around the source seeded with the straight-line length


def _fast_march(metric: ConformalMetric, p, stop_radius=None, window=None,
                snapshots=None):
    """March outward from p solving |grad d| = sqrt(q) with 4-neighbor upwind.

    Returns the full n x n distance array (entries not reached before
    ``stop_radius`` are +inf).  ``window`` restricts marching to indices
    within that half-width (in cells) of p, for wavelength-local queries.

    ``snapshots`` lists ``(stop, window)`` requests, each at most
    ``stop_radius`` and ``window``; the call then returns ``(dist, snaps)``.
    The march pops nodes in increasing distance and expands none past its
    stop, so a march stopped at ``stop`` is this one frozen at its first pop
    beyond ``stop``.  ``snaps[k]`` is the distance array at that pop: exactly
    what the call with ``stop_radius=stop, window=window`` returns, provided
    every node expanded up to then lies strictly inside the smaller window
    (so neither march touched a node outside it).  Where that does not hold,
    ``snaps[k]`` is None.
    """
    n = metric.grid_n
    h = metric.spacing
    px, py = float(p[0]) % 1.0, float(p[1]) % 1.0
    ic = int(np.floor(px * n))
    jc = int(np.floor(py * n))

    def full(w):
        return w is None or 2 * int(w) + 1 >= n

    # The march runs on a local square of side `side` held in flat Python
    # lists: the whole torus (neighbors wrap), or the window (widened to the
    # seeds) plus a border of +inf cells that is never written.
    wrap = full(window)
    if wrap:
        side, lo_i, lo_j, half = n, 0, 0, n
    else:
        half = int(window)
        reach = max(half, _SEED_REACH)
        side = 2 * reach + 3
        lo_i, lo_j = ic - reach - 1, jc - reach - 1
    rows = (lo_i + np.arange(side)) % n
    cols = (lo_j + np.arange(side)) % n
    # Chebyshev offset from the center cell, as the torus-centered offset
    off_i = (rows - ic + n // 2) % n - n // 2
    off_j = (cols - jc + n // 2) % n - n // 2
    cheb = np.maximum(np.abs(off_i)[:, None], np.abs(off_j)[None, :])
    # 0: open, 1: accepted, 2: outside the window (never updated)
    status = np.where(cheb <= half, 0, 2).ravel().tolist()
    cheb = cheb.ravel().tolist()
    # (d, i, j) heap order as (d, i * n + j), with the local index riding along
    keys = (rows[:, None] * n + cols[None, :]).ravel().tolist()
    sq = np.sqrt(metric.q)
    weights = (sq[np.ix_(rows, cols)] * h).ravel().tolist()
    loc = np.arange(side * side).reshape(side, side)
    down = np.roll(loc, -1, axis=0).ravel().tolist()    # (i + 1, j)
    up = np.roll(loc, 1, axis=0).ravel().tolist()       # (i - 1, j)
    right = np.roll(loc, -1, axis=1).ravel().tolist()   # (i, j + 1)
    left = np.roll(loc, 1, axis=1).ravel().tolist()     # (i, j - 1)
    dist = [math.inf] * (side * side)

    # Exact local seeding: the metric is smooth, so within a couple of cells
    # of the source the distance is the straight-line length element.
    sq_p = float(np.sqrt(metric.q_at(px, py)))
    span = np.arange(-_SEED_REACH, _SEED_REACH + 1)
    si = (ic + span) % n
    sj = (jc + span) % n
    d_flat = flat_torus_distance((px, py), (si * h)[:, None], (sj * h)[None, :])
    d0 = 0.5 * (sq_p + sq[np.ix_(si, sj)]) * d_flat
    seeds = (((span - lo_i + ic) % n)[:, None] * side
             + ((span - lo_j + jc) % n)[None, :]).ravel().tolist()
    heap = []
    for k, d in zip(seeds, d0.ravel().tolist()):
        dist[k] = d
        heap.append((d, keys[k], k))
    heapq.heapify(heap)

    stop = math.inf if stop_radius is None else float(stop_radius)
    requests = [(float(s), w) for s, w in snapshots or ()]
    if any(s > stop or (not wrap and (full(w) or int(w) > half))
           for s, w in requests):
        raise ValueError("a snapshot may not exceed the march's stop radius "
                         "or window")
    # requests in increasing stop; taken[k] = (dist, reached) at its freeze
    order = sorted(range(len(requests)), key=lambda k: requests[k][0])
    taken = [None] * len(requests)
    pending = 0
    next_stop = requests[order[0]][0] if order else math.inf
    reached = 0         # largest Chebyshev offset of an expanded node

    sqrt = math.sqrt
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        d, _, k = heappop(heap)
        if status[k] == 1:
            continue
        while d > next_stop:
            taken[order[pending]] = (dist[:], reached)
            pending += 1
            next_stop = (requests[order[pending]][0]
                         if pending < len(order) else math.inf)
        status[k] = 1
        if d > stop:
            continue
        if cheb[k] > reached:
            reached = cheb[k]
        for nb in (down[k], up[k], right[k], left[k]):
            if status[nb]:
                continue
            a = dist[down[nb]]
            x = dist[up[nb]]
            if x < a:
                a = x
            b = dist[right[nb]]
            x = dist[left[nb]]
            if x < b:
                b = x
            # first-order upwind solve of |grad d| = w from a and b
            w = weights[nb]
            if a > b:
                a, b = b, a
            if b - a >= w:
                cand = a + w
            else:
                cand = 0.5 * (a + b + sqrt(2.0 * w * w - (b - a) ** 2))
            if cand < dist[nb]:
                dist[nb] = cand
                heappush(heap, (cand, keys[nb], nb))

    def to_grid(values):
        out = np.full((n, n), np.inf)
        inner = slice(0, side) if wrap else slice(1, side - 1)
        out[np.ix_(rows[inner], cols[inner])] = (
            np.array(values, dtype=float).reshape(side, side)[inner, inner])
        return out

    result = to_grid(dist)
    if snapshots is None:
        return result
    snaps = []
    for (_, w), frozen in zip(requests, taken):
        values, seen = frozen or (dist, reached)
        # the same window (or the whole torus) needs no check
        same = full(w) or (not wrap and int(w) == half)
        snaps.append(to_grid(values) if same or seen < int(w) else None)
    return result, snaps


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
    NaN.  Geodesic disks go through ``growth.growth_exponent`` with a metric.
    """
    ev = _as_evaluator(fieldlike)
    if ev is not None:
        return _callable_sup_disk(ev, center, r)
    n = fieldlike.grid_n
    g = np.asarray(center, dtype=float) * n
    corner = np.floor(g)
    sup = _sup_disks_flat(fieldlike.values, corner.astype(np.int64)[None, :],
                          r * n, tuple(g - corner))
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
