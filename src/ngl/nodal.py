"""Nodal sets of sampled fields: extraction, length, singular points, and
the length and crossings of a curve inside / on probe disks.

Extraction is cell-local marching squares with linear edge interpolation.
Exact zeros at grid nodes count as positive, which makes the 16-case table
total; ambiguous saddle cells are split by the interpolated center sign.
Singular-point clusters are the connected components of the 8-neighbour
graph of flagged samples (across the seams on the torus).  The probe
kernels pair probes with segments by one k-d tree query over the segment
midpoints, periodic on the torus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .surface import ConformalMetric, GridField, TORUS, polyline_metric_length

# edge ids: 0 bottom (A-B), 1 right (B-C), 2 top (D-C), 3 left (A-D)
_CASE_PAIRS = {
    1: ((3, 0),), 14: ((3, 0),),
    2: ((0, 1),), 13: ((0, 1),),
    4: ((1, 2),), 11: ((1, 2),),
    8: ((2, 3),), 7: ((2, 3),),
    3: ((3, 1),), 12: ((3, 1),),
    6: ((0, 2),), 9: ((0, 2),),
    # saddles with a nonnegative center; a negative center swaps 5 and 10
    5: ((0, 1), (2, 3)),
    10: ((3, 0), (1, 2)),
}
# _PAIR_EDGES[case, rank] = (e1, e2) of the rank-th segment of a cell
_PAIR_EDGES = np.zeros((16, 2, 2), dtype=np.intp)
for _c, _pairs in _CASE_PAIRS.items():
    _PAIR_EDGES[_c, :len(_pairs)] = _pairs


@dataclass
class NodalSet:
    """Zero set of a field as straight segments in chart coordinates."""
    segments: np.ndarray  # (n_seg, 4): x0, y0, x1, y1
    domain: str = TORUS
    origin: tuple[float, float] = (0.0, 0.0)
    side: float = 1.0

    @property
    def euclidean_length(self) -> float:
        if len(self.segments) == 0:
            return 0.0
        s = self.segments
        return float(np.sum(np.hypot(s[:, 2] - s[:, 0], s[:, 3] - s[:, 1])))

    def __len__(self):
        return len(self.segments)


def extract_nodal_set(field: GridField) -> NodalSet:
    """Marching-squares zero contour of a sampled field.

    Every segment endpoint lies on a cell edge where the linear interpolant
    vanishes; output is sorted by cell index so it is deterministic.
    """
    v = field.values
    n = field.grid_n
    h = field.spacing
    s = (v >= 0).view(np.uint8)
    valid = True
    if field.domain == TORUS:
        sB = np.roll(s, -1, axis=0)
        case = (s | sB << 1 | np.roll(sB, -1, axis=1) << 2
                | np.roll(s, -1, axis=1) << 3)
        xs = np.arange(n) * h
        ys = np.arange(n) * h
    else:
        case = s[:-1, :-1] | s[1:, :-1] << 1 | s[1:, 1:] << 2 | s[:-1, 1:] << 3
        xs = field.origin[0] + np.arange(n - 1) * h
        ys = field.origin[1] + np.arange(n - 1) * h
        if field.mask is not None:
            m = field.mask
            valid = m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:]

    # only cells the contour passes through, in row-major (cell index) order
    ci, cj = np.nonzero((case != 0) & (case != 15) & valid)
    if ci.size == 0:
        return NodalSet(segments=np.empty((0, 4)), domain=field.domain,
                        origin=field.origin, side=field.side)
    c = case[ci, cj]
    i1 = (ci + 1) % n
    j1 = (cj + 1) % n
    fA = v[ci, cj]
    fB = v[i1, cj]
    fC = v[i1, j1]
    fD = v[ci, j1]
    X = xs[ci]
    Y = ys[cj]
    with np.errstate(divide="ignore", invalid="ignore"):
        tB = fA / (fA - fB)
        tR = fB / (fB - fC)
        tT = fD / (fD - fC)
        tL = fA / (fA - fD)
    ex = np.stack([X + tB * h, X + h, X + tT * h, X])
    ey = np.stack([Y, Y + tR * h, Y + h, Y + tL * h])

    saddle = (c == 5) | (c == 10)
    center_neg = 0.25 * (fA + fB + fC + fD) < 0
    c = np.where(saddle & center_neg, 15 - c, c)
    # one segment per cell, two per saddle cell, in (cell, pair rank) order
    cell = np.repeat(np.arange(ci.size), 1 + saddle)
    rank = np.zeros(cell.size, dtype=np.intp)
    rank[1:] = cell[1:] == cell[:-1]
    e1, e2 = _PAIR_EDGES[c[cell], rank].T
    segments = np.stack([ex[e1, cell], ey[e1, cell],
                         ex[e2, cell], ey[e2, cell]], axis=1)
    return NodalSet(segments=segments, domain=field.domain,
                    origin=field.origin, side=field.side)


def nodal_length(nodal_set: NodalSet, metric: ConformalMetric | None = None):
    """(euclidean_length, metric_length); the latter integrates sqrt(q) ds."""
    euclid = nodal_set.euclidean_length
    if metric is None:
        return euclid, euclid
    return euclid, polyline_metric_length(nodal_set.segments, metric)


_SINGULAR_TOL_G = 1e-2   # gradient threshold, relative to max |grad f|


def singular_points(field: GridField, tol_f=1e-3) -> list[tuple[float, float]]:
    """Points where the field and its gradient both nearly vanish.

    Samples with |f| < tol_f * max|f| and central-difference |grad f| below
    1e-2 * max|grad f| are flagged; 8-connected clusters of flags reduce to
    their centroids (periodic-aware on the torus).
    """
    if tol_f <= 0:
        raise ValueError("tol_f must be positive")
    v = field.values
    n = field.grid_n
    h = field.spacing
    if field.domain == TORUS:
        gx = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2 * h)
        gy = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2 * h)
    else:
        gx, gy = np.gradient(v, h, edge_order=2)
    grad = np.hypot(gx, gy)
    f_scale = np.max(np.abs(v))
    g_scale = np.max(grad)
    if f_scale == 0:
        return []
    flags = ((np.abs(v) < tol_f * f_scale)
             & (grad < _SINGULAR_TOL_G * max(g_scale, 1e-300)))
    if field.mask is not None:
        flags &= field.mask
    if not flags.any():
        return []
    # clusters: connected components of the graph whose edges join
    # 8-neighbour flagged samples, across the seams on the torus
    flat = np.flatnonzero(flags)
    node = np.full(flags.shape, -1)
    node.flat[flat] = np.arange(flat.size)
    rows, cols = np.indices(flags.shape)
    ends = []
    for di, dj in ((0, 1), (1, 0), (1, 1), (1, -1)):
        neighbour = np.roll(node, (-di, -dj), axis=(0, 1))
        edge = (node >= 0) & (neighbour >= 0)
        if field.domain != TORUS:   # drop the edges that wrap across the border
            edge &= ((rows + di < flags.shape[0]) & (cols + dj >= 0)
                     & (cols + dj < flags.shape[1]))
        ends.append((node[edge], neighbour[edge]))
    a, b = np.concatenate(ends, axis=1)
    graph = coo_matrix((np.ones(a.size), (a, b)), shape=(flat.size, flat.size))
    n_clusters, labels = connected_components(graph, directed=False)
    points = []
    for lab in range(n_clusters):
        ii, jj = np.divmod(flat[labels == lab], flags.shape[1])
        if field.domain == TORUS:
            points.append((_circular_mean(ii, n) * h, _circular_mean(jj, n) * h))
        else:
            points.append((field.origin[0] + ii.mean() * h,
                           field.origin[1] + jj.mean() * h))
    points.sort()
    return points


def _circular_mean(idx, n):
    ref = idx[0]
    d = (idx - ref + n // 2) % n - n // 2
    return (ref + d.mean()) % n


# Curves with fewer segments pair every probe with every segment: below
# this size building the two trees costs more than the extra pairs.
_MIN_TREE_SEGMENTS = 8


def _probe_segment_pairs(curve: NodalSet, px, py, r):
    """(probe, segment) index pairs to evaluate, as flat arrays: every pair
    within reach of each other, and possibly more.

    A segment reaches the disk of radius r only if its midpoint lies within
    r plus half the longest segment of the probe (periodically on the
    torus), so one k-d tree query over the midpoints finds them.
    """
    n_probes, n_segments = px.shape[0], len(curve)
    if n_segments < _MIN_TREE_SEGMENTS:
        return (np.repeat(np.arange(n_probes), n_segments),
                np.tile(np.arange(n_segments), n_probes))
    from scipy.spatial import cKDTree

    seg = curve.segments
    half = 0.5 * float(np.max(np.hypot(seg[:, 2] - seg[:, 0],
                                        seg[:, 3] - seg[:, 1])))
    probes = np.stack([px, py], axis=1)
    mids = 0.5 * (seg[:, :2] + seg[:, 2:])
    box = None
    if curve.domain == TORUS:
        box = 1.0
        probes, mids = (np.where(w >= 1.0, 0.0, w)  # x % 1 can round to 1
                        for w in (probes % 1.0, mids % 1.0))
    probe_tree, mid_tree = (cKDTree(p, boxsize=box) for p in (probes, mids))
    pairs = probe_tree.sparse_distance_matrix(
        mid_tree, (r + half) * (1 + 1e-6), output_type="ndarray")
    return pairs["i"], pairs["j"]


def _segment_probe_roots(curve: NodalSet, px, py, r):
    """Where each candidate pair's segment p0 + t d meets the probe circle.

    Returns the probe and segment indices, the roots t1 <= t2 of
    |p0 + t d - p|^2 = r^2 and |d|, for the pairs whose line meets the
    circle.  On the torus each segment is shifted to the period image
    whose midpoint is nearest the probe.
    """
    probe, segment = _probe_segment_pairs(curve, px, py, r)
    seg = curve.segments
    p0x = seg[segment, 0]
    p0y = seg[segment, 1]
    dx = seg[segment, 2] - p0x
    dy = seg[segment, 3] - p0y
    fx = p0x - px[probe]
    fy = p0y - py[probe]
    if curve.domain == TORUS:
        fx = fx - np.round(fx + 0.5 * dx)
        fy = fy - np.round(fy + 0.5 * dy)
    a = dx * dx + dy * dy
    b = 2 * (dx * fx + dy * fy)
    c = fx * fx + fy * fy - r * r
    disc = b * b - 4 * a * c
    pos = disc > 0
    aa = a[pos]
    bb = b[pos]
    sq = np.sqrt(disc[pos])
    return (probe[pos], segment[pos],
            (-bb - sq) / (2 * aa), (-bb + sq) / (2 * aa),
            np.sqrt(np.maximum(aa, 1e-300)))


def clip_lengths(curve, px, py, r):
    """Total curve length inside the disk of radius r around each probe."""
    probe, segment, t1, t2, seg_len = _segment_probe_roots(curve, px, py, r)
    if probe.size == 0:
        return np.zeros(px.shape[0])
    overlap = np.clip(np.minimum(t2, 1.0) - np.maximum(t1, 0.0), 0.0, 1.0)
    # summed over a dense (probe, segment) table, in the order of the
    # all-pairs kernel
    contrib = np.zeros((px.shape[0], len(curve)))
    contrib[probe, segment] = overlap * seg_len
    return contrib.sum(axis=1)


def crossing_counts(curve, px, py, r):
    """Number of curve crossings of the probe circle of radius r."""
    probe, _, t1, t2, _ = _segment_probe_roots(curve, px, py, r)
    n = px.shape[0]
    return (np.bincount(probe[(t1 >= 0.0) & (t1 < 1.0)], minlength=n)
            + np.bincount(probe[(t2 >= 0.0) & (t2 < 1.0)], minlength=n))


def segments_to_csv(nodal_set: NodalSet, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write("x0,y0,x1,y1\n")
        for x0, y0, x1, y1 in nodal_set.segments:
            f.write(f"{float(x0)!r},{float(y0)!r},{float(x1)!r},{float(y1)!r}\n")


def singular_points_to_csv(points, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write("x,y\n")
        for x, y in points:
            f.write(f"{float(x)!r},{float(y)!r}\n")
