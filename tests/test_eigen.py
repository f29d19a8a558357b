import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ngl import eigen
from ngl.cli import load_config, run
from ngl.errors import ConvergenceError
from ngl.eigen import (analytic_eigenpair, analytic_spectrum,
                       assemble_operators, flat_modes, solve_spectrum)
from ngl.surface import make_metric


def discrete_symbol(m, n, grid_n):
    h = 1.0 / grid_n
    return (2.0 / h ** 2) * (2 - np.cos(2 * np.pi * m * h)
                             - np.cos(2 * np.pi * n * h))


def test_assemble_operators_basic(flat_metric_64):
    lap, mass = assemble_operators(flat_metric_64)
    n2 = 64 * 64
    assert lap.shape == (n2, n2)
    row_sums = np.asarray(lap.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums)) < 1e-9
    assert np.allclose(mass.diagonal(), 1.0)
    assert (lap != lap.T).nnz == 0


def test_assemble_operators_fourier_symbol(flat_metric_64):
    lap, _ = assemble_operators(flat_metric_64)
    coords = np.arange(64) / 64
    x, y = np.meshgrid(coords, coords, indexing="ij")
    for m, n in ((1, 0), (2, 3)):
        v = np.cos(2 * np.pi * (m * x + n * y)).ravel()
        lam = discrete_symbol(m, n, 64)
        assert np.linalg.norm(lap @ v - lam * v) < 1e-7 * np.linalg.norm(v) * lam


def test_mass_matrix_matches_samples(wave_metric_96):
    _, mass = assemble_operators(wave_metric_96)
    np.testing.assert_array_equal(mass.diagonal(),
                                  wave_metric_96.q.ravel(order="C"))


def test_solve_flat_spectrum_multiplicity():
    metric = make_metric("flat", 128)
    spec = solve_spectrum(metric, 11, tol=1e-8)
    lams = [p.lam for p in spec.pairs]
    assert lams[0] == pytest.approx(0.0, abs=1e-6)
    # constant eigenfunction present
    v = spec.pairs[0].field.values
    assert np.max(np.abs(v - v.mean())) < 1e-6
    target = 4 * np.pi ** 2
    for lam in lams[1:5]:
        assert lam == pytest.approx(target, rel=0.01)
    assert lams == sorted(lams)
    assert spec.orthogonality_error < 1e-8
    for p in spec.pairs:
        assert abs(np.max(np.abs(p.field.values)) - 1.0) < 1e-12


def test_solved_residual_certificates_recompute(flat_metric_64):
    spec = solve_spectrum(flat_metric_64, 5, tol=1e-8)
    lap, mass = assemble_operators(flat_metric_64)
    for pair in spec.pairs:
        v = pair.field.values.ravel()
        res = np.linalg.norm(lap @ v - pair.lam * (mass @ v)) / np.linalg.norm(v)
        assert res <= 1e-8


def test_eigenvalue_scaling_under_metric_scaling():
    q1 = make_metric("wave", 64)
    q4 = make_metric("wave", 64)
    q4.q = 4.0 * q4.q
    q4.q_minus *= 4
    q4.q_plus *= 4
    q4.volume *= 4
    s1 = solve_spectrum(q1, 4)
    s4 = solve_spectrum(q4, 4)
    for p1, p4 in zip(s1.pairs[1:], s4.pairs[1:]):
        assert p4.lam == pytest.approx(p1.lam / 4.0, rel=1e-6)


def _rayleigh_descent_oracle(lap, mass, seed, iters=2500):
    """Steepest descent on the Rayleigh quotient with exact line search in
    span{x, g}, projected against the constant mode."""
    n2 = lap.shape[0]
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = rng.standard_normal(n2)
    ones = np.ones(n2)
    m_ones = mass @ ones
    denom = ones @ m_ones

    def project(v):
        return v - (v @ m_ones) / denom * ones

    x = project(x)
    x /= np.sqrt(x @ (mass @ x))
    prev = np.inf
    for _ in range(iters):
        lx = lap @ x
        mx = mass @ x
        rho = x @ lx
        g = project(lx - rho * mx)
        if np.linalg.norm(g) < 1e-13:
            break
        # exact line search: minimize the quotient over span{x, g}
        a11, a12, a22 = rho, x @ (lap @ g), g @ (lap @ g)
        b11, b12, b22 = 1.0, x @ (mass @ g), g @ (mass @ g)
        aa = a11 * a22 - a12 ** 2
        bb_ = -(a11 * b22 + a22 * b11 - 2 * a12 * b12)
        cc = b11 * b22 - b12 ** 2
        disc = max(bb_ ** 2 - 4 * aa * cc, 0.0)
        lam = (-bb_ - np.sqrt(disc)) / (2 * cc) if cc != 0 else rho
        t_den = a12 - lam * b12
        t = -(a11 - lam * b11) / t_den if abs(t_den) > 1e-300 else 0.0
        x = project(x + t * g)
        nrm = np.sqrt(x @ (mass @ x))
        if nrm == 0:
            break
        x /= nrm
        if abs(prev - lam) < 1e-11 * max(abs(lam), 1.0):
            break
        prev = lam
    return x @ (lap @ x)


def test_wave_ground_state_against_rayleigh_oracle():
    metric = make_metric("wave", 32)
    spec = solve_spectrum(metric, 3)
    lam1 = spec.pairs[1].lam
    lap, mass = assemble_operators(metric)
    oracle = min(_rayleigh_descent_oracle(lap, mass, seed=s)
                 for s in range(50))
    assert lam1 == pytest.approx(oracle, rel=0.005)


# ------------------------------------------------- oracle and eigenspace basis
# the oracle is an independent solve on the whole grid: shift-invert ARPACK
# with scipy's own factorization (the default COLAMD ordering), followed by
# the same canonical basis


def default_ordering_oracle(metric, count, seed):
    lap, mass = assemble_operators(metric)
    v0 = np.random.Generator(np.random.Philox(key=seed)).standard_normal(
        metric.grid_n ** 2)
    lams, vecs = spla.eigsh(lap, k=count, M=mass, sigma=-float(metric.q_plus),
                            which="LM", v0=v0)
    order = np.argsort(lams)
    lams, vecs = lams[order], vecs[:, order]
    vecs = eigen._canonical_basis(lams, vecs, mass)
    return lams, vecs / np.max(np.abs(vecs), axis=0)


@functools.lru_cache(maxsize=None)
def solved(profile, grid_n, count=9):
    return solve_spectrum(make_metric(profile, grid_n), count)


def fields(spec):
    return np.stack([p.field.values.ravel() for p in spec.pairs], axis=1)


@pytest.mark.parametrize("profile, grid_n", [("wave", 160), ("wave", 224),
                                             ("stripe", 128)])
def test_solve_matches_default_ordering_oracle(profile, grid_n):
    spec = solved(profile, grid_n)
    lams, vecs = default_ordering_oracle(spec.metric, 9, seed=0)
    got = np.array([p.lam for p in spec.pairs])
    # the constant mode's eigenvalue is rounding noise around 0
    np.testing.assert_allclose(got[1:], lams[1:], rtol=1e-12, atol=0)
    assert abs(got[0]) < 1e-10 and abs(lams[0]) < 1e-10
    assert np.max(np.abs(fields(spec) - vecs)) < 1e-8


def test_degenerate_wave_eigenspaces_independent_of_seed(tmp_path):
    spec = solved("wave", 224)
    lams = [p.lam for p in spec.pairs]
    # lambda_2 = lambda_3 and lambda_5 = lambda_6 by the metric's symmetries
    assert lams[3] - lams[2] < 1e-12 * lams[2]
    assert lams[6] - lams[5] < 1e-12 * lams[5]
    assert spec.orthogonality_error < 1e-12
    # eigen.seed keys the spectrum cache, but no solve reads it
    cached = []
    for seed in (0, 7):
        cfg = load_config(overrides={
            "metric": {"profile": "wave", "grid_n": 224},
            "eigen": {"count": 8, "seed": seed}}, command="spectrum")
        run("spectrum", cfg, str(tmp_path / str(seed)))
        [cache] = (tmp_path / str(seed) / "spectrum_cache").iterdir()
        cached.append({f.name: f.read_bytes() for f in cache.iterdir()})
    assert cached[0] == cached[1]


def test_solve_closes_the_last_eigenspace():
    # pair 2 of wave 224 shares its eigenspace with pair 3, which the
    # 3-pair solve does not return; it is still that eigenspace's basis
    three, nine = solved("wave", 224, 3), solved("wave", 224)
    np.testing.assert_allclose([p.lam for p in three.pairs][1:],
                               [p.lam for p in nine.pairs][1:3], rtol=1e-12)
    assert np.max(np.abs(fields(three) - fields(nine)[:, :3])) < 1e-12


def test_canonical_basis_fixes_rotation_and_sign():
    metric = make_metric("wave", 64)
    _, mass = assemble_operators(metric)
    spec = solve_spectrum(metric, 5)
    lams = np.array([p.lam for p in spec.pairs])
    assert lams[3] - lams[2] < 1e-12 * lams[2]
    vecs = fields(spec)
    vecs = vecs / np.sqrt(np.einsum("ik,ik->k", vecs, mass @ vecs))
    # rotate the degenerate pair and flip every sign: same subspaces
    c, s_ = np.cos(0.7), np.sin(0.7)
    moved = -vecs.copy()
    moved[:, 2:4] = -vecs[:, 2:4] @ np.array([[c, -s_], [s_, c]])
    a = eigen._canonical_basis(lams, vecs, mass)
    b = eigen._canonical_basis(lams, moved, mass)
    assert np.max(np.abs(a - b)) < 1e-10
    np.testing.assert_allclose(a.T @ (mass @ a), np.eye(5), atol=1e-12)


def test_solve_nonconvergence_carries_residual():
    # rounding in the 5-point operator (norm about 8 n^2) leaves residuals
    # near 1e-9 on the flat 256 grid
    metric = make_metric("flat", 256, value=2.0)
    with pytest.raises(ConvergenceError) as info:
        solve_spectrum(metric, 21, tol=1e-10)
    assert 1e-10 < info.value.residual < 1e-8
    # a conformal factor of 1e-310 puts every eigenvalue beyond the float range
    with pytest.raises(ConvergenceError, match="finite eigenvalues"):
        solve_spectrum(make_metric("flat", 32, value=1e-310), 3)


def test_nan_residual_fails_closed(monkeypatch):
    # a NaN certificate is not within tol: the solve raises, it does not pass
    def poisoned(metric):
        lap, mass = assemble_operators(metric)
        lap = lap.tolil()
        lap[5, 5] = np.nan
        return lap.tocsr(), mass
    monkeypatch.setattr(eigen, "assemble_operators", poisoned)
    with pytest.raises(ConvergenceError, match="residual nan exceeds"):
        solve_spectrum(make_metric("wave", 64), 4)


def test_preconditions():
    metric = make_metric("flat", 16)
    with pytest.raises(ValueError):
        solve_spectrum(metric, 100)  # count > n^2/4
    with pytest.raises(ValueError):
        solve_spectrum(metric, 4, tol=1e-12)
    # 600 pairs start from the box |k|_inf <= 32, 65^2 unknowns: more than
    # the dense solve takes
    with pytest.raises(ConvergenceError, match="4225 > 4096 unknowns"):
        solve_spectrum(make_metric("wave", 96), 600)


def test_analytic_eigenpair_values():
    pair = analytic_eigenpair(1, 0, phase=-np.pi / 2, grid_n=128)
    coords = np.arange(128) / 128
    expected = np.sin(2 * np.pi * coords)[:, None] * np.ones(128)[None, :]
    assert np.max(np.abs(pair.field.values - expected)) < 1e-12
    assert pair.lam == pytest.approx(4 * np.pi ** 2, abs=1e-12)
    pair34 = analytic_eigenpair(3, 4, grid_n=64)
    assert pair34.lam == pytest.approx(4 * np.pi ** 2 * 25, abs=1e-9)


def test_analytic_residual_symbol_deficit():
    pair = analytic_eigenpair(1, 0, grid_n=256)
    h = 1.0 / 256
    bound = pair.lam * (2 * np.pi * h) ** 2 / 12 * 1.1
    assert pair.residual <= bound
    assert pair.residual > 0


def lattice_count(threshold) -> int:
    """Weyl-count oracle: integer pairs (m, n) with 4 pi^2 (m^2 + n^2) <= threshold."""
    bound = int(np.floor(np.sqrt(threshold / (4 * np.pi ** 2)))) + 1
    count = 0
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            if 4 * np.pi ** 2 * (m * m + n * n) <= threshold:
                count += 1
    return count


def test_weyl_counting_function_exact():
    spec = analytic_spectrum(128, 44)
    threshold = 4 * np.pi ** 2 * 10
    assert sum(p.lam <= threshold for p in spec.pairs) == lattice_count(threshold)


def test_weyl_counting_function_solved():
    metric = make_metric("flat", 128)
    spec = solve_spectrum(metric, 45)
    threshold = 4 * np.pi ** 2 * 10
    # discrete eigenvalues sit slightly below their continuum shells
    assert sum(p.lam <= threshold for p in spec.pairs) == lattice_count(threshold)


def test_analytic_spectrum_shells():
    spec = analytic_spectrum(64, 20)
    lams = np.array([p.lam for p in spec.pairs]) / (4 * np.pi ** 2)
    expected = [0] + [1] * 4 + [2] * 4 + [4] * 4 + [5] * 8
    np.testing.assert_allclose(lams, expected, atol=1e-12)


# --------------------------------------------------------------- lattice shells
# two independent enumerations: the half-lattice mode list of the closed-form
# spectrum and the full-lattice shell list of the grid-resolution check


def reference_mode_list(count):
    """The shell enumeration that grows its bound by one from 2."""
    bound = 2
    while True:
        reps = [(m, n) for m in range(0, bound + 1)
                for n in range(-bound, bound + 1)
                if (m > 0 or (m == 0 and n > 0)) and m * m + n * n <= bound * bound]
        if 2 * len(reps) >= count:
            break
        bound += 1
    reps.sort(key=lambda mn: (mn[0] ** 2 + mn[1] ** 2, mn[0], mn[1]))
    modes = []
    for m, n in reps:
        modes.append((m, n, 0.0))
        modes.append((m, n, -np.pi / 2))
    return modes[:count]


def reference_lambda_of_count(count):
    bound = 2
    while True:
        vals = sorted(m * m + n * n for m in range(-bound, bound + 1)
                      for n in range(-bound, bound + 1)
                      if (m, n) != (0, 0) and m * m + n * n <= bound * bound)
        if len(vals) >= count:
            break
        bound += 1
    return 4 * math.pi ** 2 * vals[count - 1]


@pytest.mark.parametrize("count", [10 ** 3, 10 ** 4 + 1, 5 * 10 ** 4])
def test_flat_modes_start_bound_keeps_the_mode_list(count):
    # flat_modes starts its bound at ceil(sqrt(count / pi)) instead of 2
    assert flat_modes(count) == reference_mode_list(count)


def test_flat_modes_match_reference_enumerations():
    for count in range(1, 401):
        modes = flat_modes(count)
        assert modes == reference_mode_list(count)
        m, n, _ = modes[-1]
        assert 4 * math.pi ** 2 * (m * m + n * n) == reference_lambda_of_count(count)

