import heapq
import math

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from ngl import eigen
from ngl.errors import EmptyRegionError
from ngl.surface import (ConformalMetric, GridField, _PHASES, _blend,
                         _swept_distances, flat_torus_distance, make_metric)


@pytest.fixture(scope="session")
def flat_metric_64():
    return make_metric("flat", 64)


@pytest.fixture(scope="session")
def flat_metric_256():
    return make_metric("flat", 256)


@pytest.fixture(scope="session")
def wave_metric_256():
    return make_metric("wave", 256)


@pytest.fixture(scope="session")
def wave_metric_96():
    return make_metric("wave", 96)


def torus_field(fn, grid_n):
    coords = np.arange(grid_n) / grid_n
    x, y = np.meshgrid(coords, coords, indexing="ij")
    return GridField(fn(x, y))


@pytest.fixture(scope="session")
def sin_x_256():
    return torus_field(lambda x, y: np.sin(2 * np.pi * x), 256)


def oracle_fast_march(metric, p, stop_radius=None, window=None):
    """Reference march: one heap fast march on the whole n x n grid with
    numpy scalar indexing and modulo neighbors."""
    def eikonal_update(a, b, w):
        if a > b:
            a, b = b, a
        if b - a >= w:
            return a + w
        return 0.5 * (a + b + np.sqrt(2.0 * w * w - (b - a) ** 2))

    n = metric.grid_n
    h = metric.spacing
    sq = np.sqrt(metric.q)
    dist = np.full((n, n), np.inf)
    accepted = np.zeros((n, n), dtype=bool)
    px, py = float(p[0]) % 1.0, float(p[1]) % 1.0
    ic = int(np.floor(px * n))
    jc = int(np.floor(py * n))
    heap = []
    sq_p = float(np.sqrt(metric.q_at(px, py)))
    for di in range(-3, 4):
        for dj in range(-3, 4):
            i = (ic + di) % n
            j = (jc + dj) % n
            d_flat = flat_torus_distance((px, py), i * h, j * h)
            d0 = 0.5 * (sq_p + sq[i, j]) * float(d_flat)
            if d0 < dist[i, j]:
                dist[i, j] = d0
                heapq.heappush(heap, (d0, i, j))

    def in_window(i, j):
        if window is None:
            return True
        di = (i - ic) % n
        if di > n // 2:
            di -= n
        dj = (j - jc) % n
        if dj > n // 2:
            dj -= n
        return abs(di) <= int(window) and abs(dj) <= int(window)

    stop = np.inf if stop_radius is None else float(stop_radius)
    while heap:
        d, i, j = heapq.heappop(heap)
        if accepted[i, j]:
            continue
        accepted[i, j] = True
        if d > stop:
            continue
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ii = (i + di) % n
            jj = (j + dj) % n
            if accepted[ii, jj] or not in_window(ii, jj):
                continue
            a = min(dist[(ii + 1) % n, jj], dist[(ii - 1) % n, jj])
            b = min(dist[ii, (jj + 1) % n], dist[ii, (jj - 1) % n])
            cand = eikonal_update(a, b, sq[ii, jj] * h)
            if cand < dist[ii, jj]:
                dist[ii, jj] = cand
                heapq.heappush(heap, (cand, ii, jj))
    return dist


def geodesic_distance(metric, p):
    """Geodesic distance field from p over the whole torus: the oracle march
    with no stop radius and no window."""
    px, py = p
    assert 0.0 <= px < 1.0 and 0.0 <= py < 1.0
    return GridField(oracle_fast_march(metric, p))


def oracle_refine(a):
    """Bilinear 4x refinement of every cell of a block: entry [u, v, k, l] is
    the interpolant at (k + u / 4, l + v / 4); v10, v11 are copied per u."""
    return _blend(a[:-1, :-1], np.repeat(a[None, None, 1:, :-1], 4, axis=0),
                  a[:-1, 1:], np.repeat(a[None, None, 1:, 1:], 4, axis=0),
                  _PHASES[:, None, None, None], _PHASES[:, None, None])


def oracle_window_sups(values, dist, radii):
    """Reference window sups: sups of |values| over {dist <= rad}, rad in
    radii, on the 4x refined lattice over every cell of one window block,
    refined whole."""
    dd = oracle_refine(dist)
    absval = np.abs(oracle_refine(values))
    sups = []
    for rad in radii:
        keep = dd <= rad
        if not keep.any():
            raise EmptyRegionError(
                f"geodesic disk of radius {rad:g} contains no refined lattice point")
        sups.append(float(np.max(absval[keep])))
    return sups


def oracle_geodesic_disk_sups(fields, metric, points, radii, halves, alpha):
    """Reference geodesic-disk sups: the swept windows of
    ``surface._geodesic_disk_sups``, each window refined whole and scanned
    on its own by ``oracle_window_sups``."""
    points = np.reshape(points, (-1, 2))
    sups = np.empty((len(fields), 2, len(points)))
    for lo, k, dist, rows, cols in _swept_distances(metric, points, halves):
        for b in range(len(dist)):
            sups[k, :, lo + b] = oracle_window_sups(
                fields[k][rows[b, 1:, None], cols[b, None, 1:]],
                dist[b, 1:, 1:], (radii[k], alpha * radii[k]))
    return sups


def generic_metric(grid_n):
    """A smooth conformal factor with no symmetry that decouples Fourier
    modes: its q^ couples every mode of the box to every other."""
    coords = np.arange(grid_n) / grid_n
    x, y = np.meshgrid(coords, coords, indexing="ij")
    q = (1.0 + 0.2 * np.sin(2 * np.pi * (x + 2 * y)) + 0.1 * np.cos(2 * np.pi * x)
         + 0.1 * np.sin(2 * np.pi * y))
    return ConformalMetric(q=q, q_minus=float(q.min()), q_plus=float(q.max()),
                           volume=float(q.mean()),
                           alpha0=float(q.min() / (5.0 * q.max())))


def oracle_fourier_operators(metric, box):
    """Dense (L, Q, synthesis, outer) on the modes |k|_inf <= ``box``, with
    Q gathered from every entry of q's DFT, rounding included."""
    n, side = metric.grid_n, 2 * box + 1
    qhat = np.fft.fft2(metric.q) / (n * n)
    freq = np.abs(np.fft.fftfreq(n, 1.0 / n))
    reach = np.maximum(freq[:, None], freq)[
        np.abs(qhat) > 1e-15 * abs(qhat[0, 0])].max()
    kx, ky = np.array(np.divmod(np.arange(side * side), side)) - box
    mid = side * side // 2
    hi, lo, r = mid + 1 + np.arange(mid), mid - 1 - np.arange(mid), \
        np.full(mid, np.sqrt(0.5))
    unitary = sp.csr_matrix(
        (np.r_[1.0, r, r, -1j * r, 1j * r],
         (np.r_[mid, hi, lo, hi, lo], np.r_[0, hi - mid, hi - mid, hi, hi])))
    conv = qhat[(kx[:, None] - kx) % n, (ky[:, None] - ky) % n]
    modes = np.r_[mid, hi, hi]
    symbol = 4 * n * n * (np.sin(np.pi * kx / n) ** 2 + np.sin(np.pi * ky / n) ** 2)
    half = ky >= 0

    def synthesis(coefs):
        spec = np.zeros((coefs.shape[1], n, n // 2 + 1), dtype=complex)
        spec[:, kx[half] % n, ky[half]] = (unitary @ coefs)[half].T
        return n * np.fft.irfft2(spec, s=(n, n)).reshape(-1, n * n).T

    return (np.diag(symbol[modes]),
            (unitary.conj().T @ (conv @ unitary)).real, synthesis,
            np.maximum(abs(kx), abs(ky))[modes] > box - max(reach, 1))


def oracle_dense_spectrum(metric, count):
    """Reference spectrum by one dense generalized solve of the whole box
    (or grid), box growth and eigenspace closure as in
    ``eigen.solve_spectrum``, with no cap: (lams, sup-normalized fields in
    the canonical basis)."""
    n = metric.grid_n
    lap, mass = eigen.assemble_operators(metric)
    box, extra, last_tail = 8 + math.isqrt(count), 4, np.inf
    while True:
        a, b, synthesis, outer = (
            oracle_fourier_operators(metric, box) if 2 * box + 1 < n else
            (lap.toarray(), mass.toarray(), lambda v: v,
             np.zeros(n * n, dtype=bool)))
        wanted = min(count + extra, len(a))
        lams, coefs = la.eigh(a, b, subset_by_index=(0, wanted - 1))
        closed = next(end for end in eigen._eigenspaces(lams) if end >= count)
        kept = (coefs[:, :closed] / np.max(np.abs(coefs[:, :closed]), axis=0)) ** 2
        tail = np.max(kept[outer].sum(axis=0) / kept.sum(axis=0))
        if closed == wanted < len(a):
            extra *= 2
        elif eigen._TAIL_MASS <= tail < eigen._TAIL_DROP * last_tail:
            box, last_tail = box + 4, tail
        else:
            break
    vecs = eigen._canonical_basis(lams[:closed], synthesis(coefs[:, :closed]),
                                  mass)[:, :count]
    return lams[:count], vecs / np.max(np.abs(vecs), axis=0)
