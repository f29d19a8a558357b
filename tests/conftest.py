import numpy as np
import pytest

from ngl.surface import GridField, _fast_march, make_metric


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


def geodesic_distance(metric, p):
    """Geodesic distance field from p over the whole torus: the fast march
    with no stop radius and no window, as the oracle that the windowed,
    stopped marches behind geodesic-disk sups are checked against."""
    px, py = p
    assert 0.0 <= px < 1.0 and 0.0 <= py < 1.0
    return GridField(_fast_march(metric, p))
