"""Generalized eigenproblem -lap(phi) = lambda q phi on the periodic grid.

In the conformal chart the Laplace-Beltrami eigenvalue equation turns into a
flat equation with the conformal factor as a mass weight, so the discrete
problem is L phi = lambda Q phi with L the 5-point periodic stencil (negated,
positive semidefinite) and Q the diagonal of q samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError
from .surface import ConformalMetric, GridField, TORUS, make_metric

_LAMBDA_ZERO_TOL = 1e-6  # below this a computed eigenvalue is the constant mode
_DEGENERATE_RTOL = 1e-10  # eigenvalues this close (relative) share an eigenspace
_PROBE_KEY = 0x6E676C    # fixed, so the eigenspace bases never see eigen.seed


@dataclass
class EigenPair:
    """One eigenpair, sup-normalized (max |phi| = 1).

    ``residual`` is the discrete defect ||L phi - lam Q phi||_2 / ||phi||_2
    measured before normalization (the ratio is scale invariant).
    """
    lam: float
    field: GridField
    residual: float

    @property
    def is_constant(self) -> bool:
        return self.lam <= _LAMBDA_ZERO_TOL


@dataclass
class Spectrum:
    pairs: list[EigenPair]
    metric: ConformalMetric
    orthogonality_error: float = 0.0

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def nonconstant(self) -> list[EigenPair]:
        return [p for p in self.pairs if not p.is_constant]


def assemble_operators(metric: ConformalMetric):
    """Sparse (L, Q): 5-point periodic negated Laplacian and diagonal mass.

    Both symmetric; L annihilates constants (zero row sums).
    """
    n = metric.grid_n
    h = metric.spacing
    e = np.ones(n)
    second = sp.diags([2 * e, -e[:-1], -e[:-1]], [0, 1, -1], format="lil")
    second[0, n - 1] = -1.0
    second[n - 1, 0] = -1.0
    second = second.tocsr() / (h * h)
    eye = sp.identity(n, format="csr")
    # index = i*n + j with values[i, j] = f(x_i, y_j)
    lap = sp.kron(second, eye, format="csr") + sp.kron(eye, second, format="csr")
    mass = sp.diags(metric.q.ravel(order="C"), format="csr")
    return lap, mass


def _residuals(lap, mass, lams, vecs):
    out = []
    for k in range(vecs.shape[1]):
        v = vecs[:, k]
        r = lap @ v - lams[k] * (mass @ v)
        out.append(float(np.linalg.norm(r) / np.linalg.norm(v)))
    return out


def _canonical_basis(lams, vecs, mass):
    """One basis per eigenspace, independent of the solver and its seed.

    Eigenvalues within ``_DEGENERATE_RTOL`` of their neighbor (relative)
    span one eigenspace; a singleton is a group too, which fixes its sign.
    Each group V (Q-orthonormal columns) becomes the Q-orthonormalized
    Q-projection V (V^T Q R) of a fixed probe block R, which depends only on
    span V.
    """
    bounds = [0]
    for k in range(1, len(lams)):
        scale = max(abs(lams[k]), abs(lams[k - 1]))
        if abs(lams[k] - lams[k - 1]) > _DEGENERATE_RTOL * scale:
            bounds.append(k)
    bounds.append(len(lams))
    width = max(b - a for a, b in zip(bounds, bounds[1:]))
    rng = np.random.Generator(np.random.Philox(key=_PROBE_KEY))
    probes = rng.standard_normal((vecs.shape[0], width))
    out = np.empty_like(vecs)
    for a, b in zip(bounds, bounds[1:]):
        v = vecs[:, a:b]
        out[:, a:b] = _mass_gram_schmidt(v @ (v.T @ (mass @ probes[:, :b - a])),
                                         mass)
    return out


def solve_spectrum(metric: ConformalMetric, count, tol=1e-8, seed=0,
                   maxiter=None) -> Spectrum:
    """Smallest ``count`` eigenpairs by shift-invert Lanczos.

    L + q_+ Q is factored once by SuperLU under a minimum-degree ordering of
    its (symmetric) pattern, which fills in far less than the default
    column ordering.  Eigenvectors are Q-orthonormal before
    sup-normalization, in the canonical basis of each eigenspace
    (:func:`_canonical_basis`); every returned pair carries a recomputed
    residual certificate, and the solve errors out (with the best residual)
    if any certificate exceeds ``tol``.
    """
    n = metric.grid_n
    if count > n * n // 4:
        raise ValueError("count exceeds grid_n^2 / 4")
    if tol < 1e-10:
        raise ValueError("tol must be at least 1e-10")
    lap, mass = assemble_operators(metric)
    rng = np.random.Generator(np.random.Philox(key=seed))
    v0 = rng.standard_normal(n * n)
    sigma = -float(metric.q_plus)
    shifted = (lap - sigma * mass).tocsc()
    lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A")
    opinv = spla.LinearOperator(shifted.shape, matvec=lu.solve,
                                dtype=shifted.dtype)
    try:
        lams, vecs = spla.eigsh(lap, k=count, M=mass, sigma=sigma,
                                which="LM", v0=v0, maxiter=maxiter,
                                OPinv=opinv)
    except spla.ArpackNoConvergence as exc:
        best = None
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            res = _residuals(lap, mass, exc.eigenvalues, exc.eigenvectors)
            best = min(res)
        raise ConvergenceError("eigensolver did not converge", residual=best) from exc
    except spla.ArpackError as exc:   # e.g. a starting vector ARPACK zeroes
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc

    order = np.argsort(lams)
    lams = lams[order]
    vecs = vecs[:, order]
    lams = np.where(np.abs(lams) < _LAMBDA_ZERO_TOL, np.abs(lams), lams)

    gram = vecs.T @ (mass @ vecs)
    if float(np.max(np.abs(gram - np.eye(count)))) > 1e-8:
        vecs = _mass_gram_schmidt(vecs, mass)
    vecs = _canonical_basis(lams, vecs, mass)
    gram = vecs.T @ (mass @ vecs)
    ortho_err = float(np.max(np.abs(gram - np.eye(count))))

    residuals = _residuals(lap, mass, lams, vecs)
    worst = max(residuals)
    if worst > tol:
        raise ConvergenceError(
            f"residual {worst:.3e} exceeds tolerance {tol:.3e}", residual=worst)

    pairs = []
    for k in range(count):
        v = vecs[:, k] / np.max(np.abs(vecs[:, k]))
        pairs.append(EigenPair(lam=float(lams[k]),
                               field=GridField(v.reshape(n, n), domain=TORUS),
                               residual=residuals[k]))
    return Spectrum(pairs=pairs, metric=metric, orthogonality_error=ortho_err)


def _mass_gram_schmidt(vecs, mass):
    out = vecs.copy()
    for k in range(out.shape[1]):
        v = out[:, k]
        for j in range(k):
            v = v - (out[:, j] @ (mass @ v)) * out[:, j]
        out[:, k] = v / np.sqrt(v @ (mass @ v))
    return out


def analytic_eigenpair(m, n_wave, phase=0.0, grid_n=256) -> EigenPair:
    """Closed-form flat-torus eigenpair cos(2 pi (m x + n y) + phase).

    The residual is measured honestly by applying the discrete stencil to the
    sampled field, so it reflects the symbol deficit of the 5-point scheme.
    """
    if m == 0 and n_wave == 0:
        field = GridField(np.ones((grid_n, grid_n)), domain=TORUS)
        return EigenPair(lam=0.0, field=field, residual=0.0)
    coords = np.arange(grid_n) / grid_n
    x, y = np.meshgrid(coords, coords, indexing="ij")
    phi = np.cos(2 * np.pi * (m * x + n_wave * y) + phase)
    lam = 4 * np.pi ** 2 * (m * m + n_wave * n_wave)
    h = 1.0 / grid_n
    lap_phi = (4 * phi
               - np.roll(phi, 1, axis=0) - np.roll(phi, -1, axis=0)
               - np.roll(phi, 1, axis=1) - np.roll(phi, -1, axis=1)) / (h * h)
    res = float(np.linalg.norm(lap_phi - lam * phi) / np.linalg.norm(phi))
    sup = np.max(np.abs(phi))
    return EigenPair(lam=float(lam), field=GridField(phi / sup, domain=TORUS),
                     residual=res)


def flat_modes(count) -> list[tuple[int, int, float]]:
    """First ``count`` nonconstant flat-torus modes as (m, n, phase).

    Enumerates lattice shells m^2 + n^2 ascending; each representative
    (m, n) with m > 0 or (m = 0, n > 0) contributes a cosine (phase 0) and
    then a sine (phase -pi/2) eigenfunction, which reproduces the exact
    multiplicities.  The eigenvalue of a mode is 4 pi^2 (m^2 + n^2).
    """
    # the disk of radius b holds about pi b^2 lattice points, two modes per
    # representative: start there, so the loop rarely grows the bound
    bound = max(2, math.ceil(math.sqrt(max(count, 0) / math.pi)))
    while True:
        # only shells m^2 + n^2 <= bound^2 are complete inside the box
        reps = [(m, n) for m in range(0, bound + 1)
                for n in range(-bound, bound + 1)
                if (m > 0 or (m == 0 and n > 0)) and m * m + n * n <= bound * bound]
        if 2 * len(reps) >= count:
            break
        bound += 1
    reps.sort(key=lambda mn: (mn[0] ** 2 + mn[1] ** 2, mn[0], mn[1]))
    modes = []
    for m, n in reps:
        modes.append((m, n, 0.0))            # cos(2 pi (m x + n y))
        modes.append((m, n, -math.pi / 2))   # sin(2 pi (m x + n y))
    return modes[:count]


def analytic_spectrum(grid_n, count) -> Spectrum:
    """The constant mode, then the first ``count`` flat-torus eigenpairs in
    closed form, in the order of :func:`flat_modes`."""
    pairs = [analytic_eigenpair(0, 0, grid_n=grid_n)]
    for m, n, phase in flat_modes(count):
        pairs.append(analytic_eigenpair(m, n, phase=phase, grid_n=grid_n))
    return Spectrum(pairs=pairs, metric=make_metric("flat", grid_n),
                    orthogonality_error=0.0)

