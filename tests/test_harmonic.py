import functools
import math

import numpy as np
import pytest

from ngl.cli import load_config, run
from ngl.harmonic import (CircleTrace, HarmonicExtension,
                          growth_vs_boundary_zeros_check,
                          growth_vs_signs_check, harmonic_extend,
                          robertson_constant, sign_changes,
                          trace_from_function)


def poly_trace(n):
    return trace_from_function(lambda x, y: np.real((x + 1j * y) ** n))


# --------------------------------------------------------------- traces


def reconstruction_error(trace):
    """Max deviation of the series sum_k a_k cos(k t) + b_k sin(k t) built
    from ``trace.fourier()`` from the samples it came from."""
    a, b = trace.fourier()
    th = np.arange(trace.n_samples) * (2 * np.pi / trace.n_samples)
    k = np.arange(a.size)
    rec = (np.cos(np.outer(th, k)) @ a) + (np.sin(np.outer(th, k)) @ b)
    return float(np.max(np.abs(rec - trace.values)))


def test_fourier_reconstruction_bandlimited():
    tr = trace_from_function(lambda x, y: 2 + np.real((x + 1j * y) ** 7)
                             - 3 * np.imag((x + 1j * y) ** 2))
    assert reconstruction_error(tr) < 1e-10


# --------------------------------------------------------------- sign changes


@pytest.mark.parametrize("n", [1, 3, 8])
def test_sign_changes_pure_harmonic(n):
    assert sign_changes(poly_trace(n)) == 2 * n


def test_sign_changes_constant():
    assert sign_changes(CircleTrace(np.ones(64))) == 0


def test_sign_changes_perturbed_cosine():
    th = np.arange(512) * 2 * np.pi / 512
    tr = CircleTrace(np.cos(3 * th) + 0.1 * np.cos(th))
    # dense root isolation oracle: count crossings at 1e5 angles
    dense = np.cos(3 * np.linspace(0, 2 * np.pi, 100001, endpoint=False)) \
        + 0.1 * np.cos(np.linspace(0, 2 * np.pi, 100001, endpoint=False))
    oracle = int(np.sum(np.sign(dense) != np.sign(np.roll(dense, 1))))
    assert sign_changes(tr) == oracle == 6


def test_sign_changes_invariances():
    tr = poly_trace(4)
    assert sign_changes(CircleTrace(5.0 * tr.values)) == sign_changes(tr)
    assert sign_changes(CircleTrace(-tr.values)) == sign_changes(tr)


def test_sign_changes_zero_trace_rejected():
    with pytest.raises(ValueError):
        sign_changes(CircleTrace(np.zeros(64)))


def test_sign_changes_always_even():
    rng = np.random.Generator(np.random.Philox(key=1))
    th = np.arange(256) * 2 * np.pi / 256
    for _ in range(25):
        deg = int(rng.integers(1, 9))
        vals = sum(rng.normal() * np.cos(k * th) + rng.normal() * np.sin(k * th)
                   for k in range(deg + 1))
        assert sign_changes(CircleTrace(vals)) % 2 == 0


# --------------------------------------------------------------- extension


def test_extension_linear():
    ext = harmonic_extend(trace_from_function(lambda x, y: x))
    pts = np.array([[0.3, 0.1], [-0.5, 0.4], [0.0, 0.0]])
    vals = ext.evaluate(pts[:, 0], pts[:, 1])
    np.testing.assert_allclose(vals, pts[:, 0], atol=1e-12)


def test_extension_constant_mean_value():
    ext = harmonic_extend(CircleTrace(np.full(128, 2.5)))
    assert ext.evaluate(0.3, -0.2) == pytest.approx(2.5, abs=1e-12)


def test_extension_power():
    ext = harmonic_extend(poly_trace(5))
    assert ext.evaluate(0.5, 0.0) == pytest.approx(0.5 ** 5, abs=1e-9)


def test_mean_value_property():
    tr = trace_from_function(lambda x, y: np.exp(x) * np.cos(y))
    ext = harmonic_extend(tr)
    assert ext.evaluate(0.0, 0.0) == pytest.approx(tr.values.mean(), abs=1e-10)


def test_maximum_principle():
    tr = trace_from_function(lambda x, y: np.real((x + 1j * y) ** 3)
                             + 0.5 * np.imag((x + 1j * y) ** 2) + 0.2)
    ext = harmonic_extend(tr)
    rho = 0.8
    boundary_sup = ext.circle_sup(rho)
    interior = 0.0
    for r in np.linspace(0, rho, 80):
        th = np.linspace(0, 2 * np.pi, 256)
        interior = max(interior, float(np.max(np.abs(
            ext.evaluate(r * np.cos(th), r * np.sin(th))))))
    assert interior <= boundary_sup + 1e-9


# --------------------------------------------------------------- circle sups


@functools.lru_cache(maxsize=1)
def _angle_tables(n_angles, n_coef):
    th = np.arange(n_angles) * (2 * np.pi / n_angles)
    k = np.arange(n_coef)
    return np.cos(np.outer(th, k)), np.sin(np.outer(th, k))


def matrix_circle_sup(ext, rho, n_angles=4096):
    """The sampled series sum_k (a_k cos k theta_j + b_k sin k theta_j) rho^k
    as dense cos/sin matrices times the coefficients (the former kernel;
    the matrices are cached, since every 512-sample trace has 257 terms)."""
    cos, sin = _angle_tables(n_angles, ext.a.size)
    rk = rho ** np.arange(ext.a.size, dtype=float)
    vals = cos @ (ext.a * rk) + sin @ (ext.b * rk)
    return float(np.max(np.abs(vals)))


def _circle_sup_cases():
    rng = np.random.Generator(np.random.Philox(key=77))
    th = np.arange(512) * (2 * np.pi / 512)
    for _ in range(300):
        deg = int(rng.integers(0, 41))
        k = np.arange(deg + 1)[:, None]
        vals = (rng.normal(size=(deg + 1, 1)) * np.cos(k * th)
                + rng.normal(size=(deg + 1, 1)) * np.sin(k * th)).sum(axis=0)
        yield f"degree {deg}", CircleTrace(vals), 4096
    for n in (512, 777):
        yield f"noise {n}", CircleTrace(rng.normal(size=n)), 4096
    # 4501 coefficients: frequencies past n_angles fold onto k mod 4096
    yield "noise 9000", CircleTrace(rng.normal(size=9000)), 4096
    yield "noise 512, 64 angles", CircleTrace(rng.normal(size=512)), 64
    yield "noise 777, 64 angles", CircleTrace(rng.normal(size=777)), 64


def test_circle_sup_matches_matrix_oracle():
    for name, trace, n_angles in _circle_sup_cases():
        ext = harmonic_extend(trace)
        for rho in (1.0, 0.5, 0.25, 0.01):
            want = matrix_circle_sup(ext, rho, n_angles)
            got = ext.circle_sup(rho, n_angles)
            assert abs(got - want) <= 1e-12 * want, (name, rho, got, want)
    _angle_tables.cache_clear()


def test_growth_decisions_match_matrix_oracle(monkeypatch, tmp_path):
    rng = np.random.Generator(np.random.Philox(key=2024))
    th = np.arange(512) * 2 * np.pi / 512
    traces = []
    for _ in range(100):
        deg = int(rng.integers(1, 41))
        traces.append(CircleTrace(sum(
            rng.normal() * np.cos(k * th) + rng.normal() * np.sin(k * th)
            for k in range(deg + 1))))
    traces += [poly_trace(n) for n in range(1, 11)]
    overrides = {"harmonic": {"n_traces": 20, "max_degree": 40}}

    def outcomes(tag):
        holds = [growth_vs_signs_check(tr, r0).holds
                 for tr in traces for r0 in (0.25, 0.05)]
        rec = run("harmonic", load_config(overrides=dict(
            overrides, output={"dir": str(tmp_path / tag)})))
        return holds, rec.constants["sweep_holds"], rec.constants["robertson"]

    new = outcomes("fft")
    monkeypatch.setattr(HarmonicExtension, "circle_sup", matrix_circle_sup)
    matrix = outcomes("matrix")
    _angle_tables.cache_clear()
    assert matrix == new


# --------------------------------------------------------------- constants


def test_robertson_small_values():
    assert robertson_constant(0).value == 2
    assert robertson_constant(1).value == 6
    rc5 = robertson_constant(5)
    assert rc5.value == 1276
    assert rc5.value <= rc5.bound


def test_robertson_exact_big_integers():
    import math as m
    for p in (10, 20, 30):
        rc = robertson_constant(p)
        oracle = 2 ** (2 * p) + m.factorial(2 * p) // (m.factorial(p) ** 2)
        assert rc.value == oracle
        assert rc.value <= rc.bound


def test_robertson_rejects_negative():
    with pytest.raises(ValueError):
        robertson_constant(-1)


# --------------------------------------------------------------- growth bound


@pytest.mark.parametrize("n", list(range(1, 11)))
def test_growth_vs_signs_pure_powers(n):
    rep = growth_vs_signs_check(poly_trace(n), 0.25)
    assert rep.lhs_ratio == pytest.approx(2.0 ** n, rel=1e-9)
    assert rep.n_sign_changes == 2 * n
    assert rep.holds


def test_growth_vs_signs_constant_trace():
    rep = growth_vs_signs_check(CircleTrace(np.ones(64)), 0.25)
    assert rep.lhs_ratio == pytest.approx(1.0)
    assert rep.n_sign_changes == 0
    assert rep.holds


def test_growth_vs_signs_random_sweep():
    rng = np.random.Generator(np.random.Philox(key=2024))
    th = np.arange(512) * 2 * np.pi / 512
    for trial in range(100):
        deg = int(rng.integers(1, 11))
        vals = sum(rng.normal() * np.cos(k * th) + rng.normal() * np.sin(k * th)
                   for k in range(deg + 1))
        rep = growth_vs_signs_check(CircleTrace(vals), 0.25)
        assert rep.holds, f"bound failed on trial {trial}"


def test_growth_vs_signs_r0_validated():
    with pytest.raises(ValueError):
        growth_vs_signs_check(poly_trace(1), 0.7)


# --------------------------------------------------------------- endpoint check


def test_boundary_zeros_check_linear():
    lhs, zeros, ratio = growth_vs_boundary_zeros_check(
        lambda x, y: np.asarray(x, dtype=float))
    assert lhs == pytest.approx(math.log(5.0), abs=1e-9)
    assert zeros == 2
    assert ratio == pytest.approx(math.log(5.0) / 3.0, abs=1e-9)


def test_boundary_zeros_check_constant():
    const = lambda x, y: np.ones(np.broadcast_shapes(np.asarray(x).shape,
                                                     np.asarray(y).shape))
    lhs, zeros, ratio = growth_vs_boundary_zeros_check(const)
    assert lhs == 0.0
    assert zeros == 0
    assert ratio == 0.0


def test_boundary_zeros_radii_validated():
    with pytest.raises(ValueError):
        growth_vs_boundary_zeros_check(lambda x, y: np.asarray(x),
                                       rho_plus=0.6)
