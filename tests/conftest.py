import heapq

import numpy as np
import pytest

from ngl.surface import GridField, flat_torus_distance, make_metric


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
