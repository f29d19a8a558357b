"""Generalized eigenproblem -lap(phi) = lambda q phi on the periodic grid.

In the conformal chart the Laplace-Beltrami eigenvalue equation turns into a
flat equation with the conformal factor as a mass weight, so the discrete
problem is L phi = lambda Q phi with L the 5-point periodic stencil (negated,
positive semidefinite) and Q the diagonal of q samples.  The grid's Fourier
modes diagonalize L, and Q acts on them as a convolution by q's DFT, which
has a handful of coefficients for a smooth factor; the low eigenvectors
decay fast in |k|, so the problem is solved densely on the modes of a box
|k|_inf <= K and each pair is certified by its residual on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import ConvergenceError
from .surface import ConformalMetric, GridField, TORUS, make_metric

_LAMBDA_ZERO_TOL = 1e-6  # below this a computed eigenvalue is the constant mode
_DEGENERATE_RTOL = 1e-10  # eigenvalues this close (relative) share an eigenspace
_PROBE_KEY = 0x6E676C    # fixed probe block of the canonical eigenspace bases
_TAIL_MASS = 1e-30      # mass a solved vector may leave on the box's outer shells
_TAIL_DROP = 1e-3       # a wider box that cuts the tail less is at rounding
_MAX_UNKNOWNS = 4096    # the largest dense problem solve_spectrum sets up


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
    second = sp.diags([2 * e, -e[1:], -e[1:], -e[:1], -e[:1]],
                      [0, 1, -1, n - 1, 1 - n], format="csr") / (h * h)
    eye = sp.identity(n, format="csr")
    # index = i*n + j with values[i, j] = f(x_i, y_j)
    lap = sp.kron(second, eye, format="csr") + sp.kron(eye, second, format="csr")
    mass = sp.diags(metric.q.ravel(order="C"), format="csr")
    return lap, mass


def _eigenspaces(lams):
    """Start of each eigenspace in the ascending ``lams``, then len(lams);
    eigenvalues within ``_DEGENERATE_RTOL`` (relative) share one."""
    scale = np.maximum(np.abs(lams[1:]), np.abs(lams[:-1]))
    starts = np.flatnonzero(np.abs(np.diff(lams)) > _DEGENERATE_RTOL * scale)
    return [0, *(starts + 1).tolist(), len(lams)]


def _canonical_basis(lams, vecs, mass):
    """One basis per eigenspace, independent of the solver.

    Each eigenspace (:func:`_eigenspaces`) is a group, a singleton too,
    which fixes its sign.  Each group V (Q-orthonormal columns) becomes the
    Q-orthonormalized Q-projection V (V^T Q R) of a fixed probe block R,
    which depends only on span V.
    """
    bounds = _eigenspaces(lams)
    width = max(b - a for a, b in zip(bounds, bounds[1:]))
    rng = np.random.Generator(np.random.Philox(key=_PROBE_KEY))
    probes = rng.standard_normal((vecs.shape[0], width))
    out = np.empty_like(vecs)
    for a, b in zip(bounds, bounds[1:]):
        v = vecs[:, a:b]
        out[:, a:b] = _mass_gram_schmidt(v @ (v.T @ (mass @ probes[:, :b - a])),
                                         mass)
    return out


def _fourier_operators(metric, box):
    """(L, Q, synthesis, outer) on the Fourier modes |k|_inf <= ``box``.

    The columns are the constant, then a cosine and a sine per pair {k, -k}
    (``unitary`` maps them to the complex modes), where L (the stencil's
    symbol) and Q (the convolution by q's DFT) are real symmetric for every
    real q.  ``synthesis`` maps coefficient columns to grid fields by inverse
    FFT, keeping Q-orthonormality; ``outer`` flags the columns on the shells
    that q's DFT couples to modes beyond the box.
    """
    n, side = metric.grid_n, 2 * box + 1
    qhat = np.fft.fft2(metric.q) / (n * n)
    freq = np.abs(np.fft.fftfreq(n, 1.0 / n))
    reach = np.maximum(freq[:, None], freq)[
        np.abs(qhat) > 1e-15 * abs(qhat[0, 0])].max()
    kx, ky = np.array(np.divmod(np.arange(side * side), side)) - box
    mid = side * side // 2   # modes mid + j and mid - j are k and -k
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


def solve_spectrum(metric: ConformalMetric, count, tol=1e-8) -> Spectrum:
    """Smallest ``count`` eigenpairs by one dense generalized solve.

    It runs on the box of :func:`_fourier_operators`, K = 8 + sqrt(count)
    grown by 4 while a kept vector leaves ``_TAIL_MASS`` of its mass on the
    outer shells above rounding, or on the grid once the box would cover
    it, and past ``count`` until pair ``count - 1``'s eigenspace is closed.
    Eigenvectors are Q-orthonormal before sup-normalization, in the canonical
    basis of each eigenspace (:func:`_canonical_basis`); a grid residual
    above ``tol``, or NaN, raises ConvergenceError carrying the worst one.
    """
    n = metric.grid_n
    if count > n * n // 4:
        raise ValueError("count exceeds grid_n^2 / 4")
    if tol < 1e-10:
        raise ValueError("tol must be at least 1e-10")
    lap, mass = assemble_operators(metric)
    box, extra, last_tail = 8 + math.isqrt(count), 4, np.inf
    while True:
        side = min(2 * box + 1, n)   # the grid itself once the box covers it
        if side * side > _MAX_UNKNOWNS:
            raise ConvergenceError(f"the spectrum needs a dense solve of "
                                   f"{side * side} > {_MAX_UNKNOWNS} unknowns")
        a, b, synthesis, outer = (_fourier_operators(metric, box) if side < n else
                                  (lap.toarray(), mass.toarray(), lambda v: v,
                                   np.zeros(n * n, dtype=bool)))
        wanted = min(count + extra, len(a))
        try:
            lams, coefs = la.eigh(a, b, subset_by_index=(0, wanted - 1))
        except la.LinAlgError as exc:
            raise ConvergenceError(f"eigensolver failed: {exc}") from exc
        found = int(np.isfinite(lams).sum())
        if found != wanted:
            raise ConvergenceError(f"eigensolver found {found} finite "
                                   f"eigenvalues of {wanted}")
        closed = next(end for end in _eigenspaces(lams) if end >= count)
        kept = (coefs[:, :closed] / np.max(np.abs(coefs[:, :closed]), axis=0)) ** 2
        tail = np.max(kept[outer].sum(axis=0) / kept.sum(axis=0))
        if closed == wanted < len(a):
            extra *= 2
        elif _TAIL_MASS <= tail < _TAIL_DROP * last_tail:
            box, last_tail = box + 4, tail
        else:   # below _TAIL_MASS, or at the dense solve's rounding floor
            break
    lams = np.where(np.abs(lams) < _LAMBDA_ZERO_TOL, np.abs(lams), lams)[:closed]
    vecs = _canonical_basis(lams, synthesis(coefs[:, :closed]), mass)[:, :count]
    ortho_err = float(np.max(np.abs(vecs.T @ (mass @ vecs) - np.eye(count))))
    defect = lap @ vecs - (mass @ vecs) * lams[:count]
    residuals = np.linalg.norm(defect, axis=0) / np.linalg.norm(vecs, axis=0)
    worst = float(np.max(residuals))
    if not worst <= tol:   # a NaN certificate fails too
        raise ConvergenceError(
            f"residual {worst:.3e} exceeds tolerance {tol:.3e}", residual=worst)
    pairs = [EigenPair(lam=float(lam), residual=float(res), field=GridField(
        (v / np.max(np.abs(v))).reshape(n, n), domain=TORUS))
        for lam, v, res in zip(lams, vecs.T, residuals)]
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

