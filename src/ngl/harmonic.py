"""Harmonic extension from circle traces, sign counting, and growth bounds.

A trace on the unit circle extends harmonically to the disk through its
Fourier series; sups on interior circles are then exact up to series
truncation, and the classical bound relating interior growth to the number
of boundary sign changes can be checked numerically with explicit constants
(Robertson's coefficient bound gives c(p) = 2^(2p) + binom(2p, p)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_ZERO_SKIP = 1e-12  # samples below this fraction of max count as on the zero set


@dataclass
class CircleTrace:
    """Values of a function on |z| = 1 at uniform angles theta_j = 2 pi j / n."""
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 8:
            raise ValueError("trace needs at least 8 samples")

    @property
    def n_samples(self) -> int:
        return self.values.size

    def fourier(self):
        """(a, b) cosine/sine coefficients, a[0] the mean, up to degree n/2."""
        n = self.n_samples
        coef = np.fft.rfft(self.values) / n
        a = 2 * coef.real
        a[0] = coef[0].real
        b = -2 * coef.imag
        if n % 2 == 0:
            a[-1] = coef[-1].real
            b[-1] = 0.0
        return a, b


def trace_from_function(fn, n_samples=512) -> CircleTrace:
    th = np.arange(n_samples) * (2 * np.pi / n_samples)
    return CircleTrace(np.asarray(fn(np.cos(th), np.sin(th)), dtype=float))


def sign_changes(trace: CircleTrace) -> int:
    """Cyclic count of sign alternations around the circle (always even).

    Samples within 1e-12 of zero (relative to the trace max) are treated as
    lying on the zero set and skipped before counting alternations.
    """
    v = trace.values
    scale = np.max(np.abs(v))
    if scale == 0.0:
        raise ValueError("trace is identically zero")
    keep = np.abs(v) >= _ZERO_SKIP * scale
    signs = np.sign(v[keep])
    if signs.size == 0:
        raise ValueError("trace is numerically zero everywhere")
    # longest run of skipped samples must stay short, else zeros are ambiguous
    runs = _longest_zero_run(keep)
    if runs > max(2, trace.n_samples // 4):
        raise ValueError("trace vanishes on a long arc; sign count ill-defined")
    flips = np.sum(signs != np.roll(signs, 1))
    return int(flips)


def _longest_zero_run(keep):
    worst = 0
    run = 0
    for flag in np.concatenate([keep, keep]):  # cyclic
        if flag:
            run = 0
        else:
            run += 1
            worst = max(worst, run)
    return worst


@dataclass
class HarmonicExtension:
    """Harmonic function on the disk with the given boundary Fourier data."""
    a: np.ndarray
    b: np.ndarray

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        th = np.arctan2(y, x)
        out = np.full(np.broadcast_shapes(x.shape, y.shape), self.a[0])
        rk = np.ones_like(r)
        for k in range(1, self.a.size):
            rk = rk * r
            out = out + rk * (self.a[k] * np.cos(k * th) + self.b[k] * np.sin(k * th))
        return out

    def circle_sup(self, rho, n_angles=4096) -> float:
        """Max of |v| at the angles 2 pi j / n_angles on |z| = rho.

        v(theta_j) = Re sum_k (a_k - i b_k) rho^k exp(i k theta_j), and
        exp(i k theta_j) depends on k mod n_angles only, so the coefficients
        are folded into n_angles bins and summed by one inverse FFT.
        """
        k = np.arange(self.a.size)
        rk = rho ** k.astype(float)
        bins = k % n_angles
        c = (np.bincount(bins, weights=self.a * rk, minlength=n_angles)
             - 1j * np.bincount(bins, weights=self.b * rk, minlength=n_angles))
        vals = n_angles * np.fft.ifft(c).real
        return float(np.max(np.abs(vals)))


def harmonic_extend(trace: CircleTrace) -> HarmonicExtension:
    """Series extension of the trace; harmonic to machine precision inside."""
    a, b = trace.fourier()
    return HarmonicExtension(a=a, b=b)


# --------------------------------------------------------------------------
# explicit constants


@dataclass
class RobertsonConstant:
    p: int
    value: int
    bound: float


def robertson_constant(p: int) -> RobertsonConstant:
    """Exact integer 2^(2p) + binom(2p, p), with its 2 (2e)^(2p) upper bound."""
    if p < 0 or int(p) != p:
        raise ValueError("p must be a non-negative integer")
    p = int(p)
    value = 2 ** (2 * p) + math.comb(2 * p, p)
    bound = 2.0 * (2.0 * math.e) ** (2 * p)
    if value > bound:
        raise AssertionError("integer constant exceeded its analytic bound")
    return RobertsonConstant(p=p, value=value, bound=bound)


_GROWTH_BASE = 8 * math.e   # ratio base in the sign-change growth bound
_GROWTH_PREFACTOR = 12.0    # additive prefactor (4 times the Schwarz bound 3)


@dataclass
class SignGrowthReport:
    lhs_ratio: float
    n_sign_changes: int
    rhs_log: float
    holds: bool


def growth_vs_signs_check(trace: CircleTrace, r0) -> SignGrowthReport:
    """Check sup-ratio growth against the boundary sign-change count.

    The harmonic extension v of the trace must satisfy
    sup_{1/2 D} |v| / sup_{r0 D} |v| <= 12 (8e / r0)^(N_v); the comparison is
    done in log space so huge right-hand sides stay finite.
    """
    if not (0 < r0 < 0.5):
        raise ValueError("r0 must lie in (0, 1/2)")
    ext = harmonic_extend(trace)
    n_signs = sign_changes(trace)
    sup_half = ext.circle_sup(0.5)
    sup_r0 = ext.circle_sup(r0)
    if sup_r0 == 0.0:
        raise ValueError("extension vanishes on the inner circle")
    lhs = sup_half / sup_r0
    rhs_log = np.log(_GROWTH_PREFACTOR) + n_signs * np.log(_GROWTH_BASE / r0)
    return SignGrowthReport(lhs_ratio=float(lhs), n_sign_changes=n_signs,
                            rhs_log=float(rhs_log),
                            holds=bool(np.log(lhs) <= rhs_log))


def growth_vs_boundary_zeros_check(fieldlike, rho_plus=1.0 / 32.0):
    """Endpoint check relating interior sup growth to unit-circle zeros.

    For a planar solution with small potential, log of the sup ratio between
    rho_plus D and rho_minus D is compared against 1 + the number of sign
    changes on the unit circle; the ratio of the two is the tracked empirical
    constant.  rho_minus = rho_plus / 5, the radius
    rho_plus / 5 (q_minus / q_plus)^2 at q_minus = q_plus.
    """
    from .surface import sup_on_disk

    if not (0 < rho_plus < 0.5):
        raise ValueError("rho_plus must lie in (0, 1/2)")
    rho_minus = rho_plus / 5.0
    sup_plus = sup_on_disk(fieldlike, (0.0, 0.0), rho_plus)
    sup_minus = sup_on_disk(fieldlike, (0.0, 0.0), rho_minus)
    if sup_minus == 0.0:
        raise ValueError("field vanishes on the inner disk")
    lhs = float(np.log(sup_plus / sup_minus))
    ev = fieldlike.evaluate if hasattr(fieldlike, "evaluate") else fieldlike
    trace = trace_from_function(lambda cx, cy: ev(cx, cy), n_samples=4096)
    zero_count = sign_changes(trace)
    return lhs, zero_count, lhs / (1.0 + zero_count)
