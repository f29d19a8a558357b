"""Iterative rapid/slow square decomposition of the core square.

The square P = [-1/60, 1/60]^2 is tiled at level 0 by squares of side
delta(0); a square is rapid when some probe point in it centers a disk of
M-rapid growth at radius delta(k).  Rapid squares are bisected into four
children at each level (slow squares are left untouched), so
delta(k) = 2^-k delta(0) exactly.  Sides and areas are kept in rational
arithmetic, which makes the partition bookkeeping exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from .errors import ConstraintError
from .nodal import NodalSet, clip_lengths
from .schrodinger import (CORE_RADIUS, DiskAnnuli, PlanarField, beta_star,
                          check_beta_related, classify_rapid)

P_HALF = Fraction(1, 60)
P_SIDE = 2 * P_HALF
_PROBES_PER_AXIS = 3   # each square is probed on a 3 x 3 sub-lattice of centers


@dataclass(frozen=True)
class Square:
    """Half-open square [x, x + s) x [y, y + s) on the level-k lattice of P."""
    level: int
    ix: int
    iy: int

    def side(self, delta0: Fraction) -> Fraction:
        return delta0 / 2 ** self.level

    def origin(self, delta0: Fraction):
        s = self.side(delta0)
        return (-P_HALF + self.ix * s, -P_HALF + self.iy * s)

    def children(self):
        return [Square(self.level + 1, 2 * self.ix + dx, 2 * self.iy + dy)
                for dx in (0, 1) for dy in (0, 1)]


@dataclass
class TilingState:
    delta0: Fraction
    beta_star: float
    level: int
    rapid_by_level: dict = dataclass_field(default_factory=dict)
    slow_by_level: dict = dataclass_field(default_factory=dict)
    capped: bool = False

    @property
    def rapid(self) -> list[Square]:
        return self.rapid_by_level.get(self.level, [])

    def all_slow(self):
        for k in sorted(self.slow_by_level):
            yield from self.slow_by_level[k]

    def delta(self, k=None) -> Fraction:
        return self.delta0 / 2 ** (self.level if k is None else k)

    def covered_area(self) -> Fraction:
        """Exact area of the union of slow squares over all levels."""
        total = Fraction(0)
        for k, squares in self.slow_by_level.items():
            total += len(squares) * (self.delta0 / 2 ** k) ** 2
        return total

    def rapid_area(self) -> Fraction:
        return len(self.rapid) * self.delta(self.level) ** 2


def default_delta0(beta_star_value) -> Fraction:
    """Largest dyadic fraction of the P side meeting the radius constraints."""
    for m in range(1, 40):
        cand = P_SIDE / 2 ** m
        if cand < P_HALF and float(cand) * beta_star_value < 0.5:
            return cand
    raise ConstraintError("no admissible delta0 below the radius constraints")


def _level0_side(delta0) -> Fraction:
    """delta0 as an exact fraction: a float reads as P_SIDE / k for the
    integer k nearest P_SIDE / delta0 when the two agree to 1e-12 relative
    (P's side 1/30 is not dyadic, so no float equals it divided by an
    integer); anything else, a Fraction included, is taken exactly.  Beyond
    k = 5e11 neighbouring fractions lie within 1e-12 of each other, so a
    float names no k there and is taken exactly too."""
    if isinstance(delta0, float) and delta0 > 0:
        ratio = float(P_SIDE) / delta0
        if 0.5 < ratio < 5e11:
            k = round(ratio)
            if abs(float(P_SIDE / k) - delta0) <= 1e-12 * delta0:
                return P_SIDE / k
    return Fraction(delta0)


def _square_is_rapid(pf, square: Square, delta0, m_threshold, a):
    s = square.side(delta0)
    ox, oy = square.origin(delta0)
    radius = float(s)
    for i in range(_PROBES_PER_AXIS):
        for j in range(_PROBES_PER_AXIS):
            cx = float(ox + s * Fraction(2 * i + 1, 2 * _PROBES_PER_AXIS))
            cy = float(oy + s * Fraction(2 * j + 1, 2 * _PROBES_PER_AXIS))
            res = classify_rapid(pf, DiskAnnuli((cx, cy), radius, a), m_threshold)
            if res.is_rapid:
                return True
    return False


def run_tiling(pf: PlanarField, delta0=None, m_threshold=10.0, a=0.1,
               k_max=8, beta_star_value=None) -> TilingState:
    """Tile P level by level into rapid and slow squares.

    Level 0 is the row-major lattice of side ``delta0``, which must divide
    the side of P exactly (a float within 1e-12 of P_SIDE / k counts, see
    :func:`_level0_side`); by default it is the largest admissible dyadic
    fraction of it.  Each level bisects every rapid square of the level
    before into its 4 children and reclassifies them at the halved disk
    radius; slow squares stay untouched.  The loop ends when no square is
    rapid or at level ``k_max`` (then the state is ``capped``).  Each square
    is probed on a 3 x 3 sub-lattice of candidate disk centers.
    """
    if beta_star_value is None:
        _, beta_star_value = beta_star(pf)
    if delta0 is None:
        delta0 = default_delta0(beta_star_value)
    else:
        delta0 = _level0_side(delta0)
        check_beta_related(float(delta0), beta_star_value)
    per_axis = P_SIDE / delta0
    if per_axis.denominator != 1:
        raise ConstraintError("delta0 must divide the side of P exactly")
    state = TilingState(delta0=delta0, beta_star=beta_star_value, level=0)
    squares = [Square(0, ix, iy) for ix in range(int(per_axis))
               for iy in range(int(per_axis))]
    while True:
        rapid, slow = [], []
        for sq in squares:
            if _square_is_rapid(pf, sq, delta0, m_threshold, a):
                rapid.append(sq)
            else:
                slow.append(sq)
        state.rapid_by_level[state.level] = rapid
        state.slow_by_level[state.level] = slow
        if not rapid or state.level >= k_max:
            break
        state.level += 1
        squares = [child for sq in rapid for child in sq.children()]
    state.capped = bool(rapid)
    return state


# --------------------------------------------------------------------------
# counting and budgets


def level_counts(state: TilingState):
    """Per-level rapid/slow counts with their delta(0)-normalized ratios."""
    rows = []
    d0 = float(state.delta0)
    for k in range(state.level + 1):
        n_rapid = len(state.rapid_by_level.get(k, []))
        n_slow = len(state.slow_by_level.get(k, []))
        rows.append({
            "level": k,
            "rapid": n_rapid,
            "slow": n_slow,
            "rapid_ratio": n_rapid * d0 / state.beta_star,
            "slow_ratio": n_slow * d0 / state.beta_star,
        })
    return rows


def _clip_lengths_to_rect(segments, x0, y0, x1, y1):
    """Clipped length of each segment inside [x0,x1) x [y0,y1) (Liang-Barsky).

    Half-open membership is decided by the clipped midpoint, so a segment
    lying exactly on a shared edge is counted by exactly one square.
    """
    if len(segments) == 0:
        return np.empty(0)
    seg = np.asarray(segments, dtype=float)
    px = seg[:, 0]
    py = seg[:, 1]
    dx = seg[:, 2] - seg[:, 0]
    dy = seg[:, 3] - seg[:, 1]
    t0 = np.zeros(len(seg))
    t1 = np.ones(len(seg))
    alive = np.ones(len(seg), dtype=bool)
    for p, q in ((-dx, px - x0), (dx, x1 - px), (-dy, py - y0), (dy, y1 - py)):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(p != 0, q / np.where(p != 0, p, 1.0), 0.0)
        enter = p < 0
        exit_ = p > 0
        t0 = np.where(enter, np.maximum(t0, r), t0)
        t1 = np.where(exit_, np.minimum(t1, r), t1)
        alive &= ~((p == 0) & (q < 0))
    frac = np.where(alive, np.maximum(t1 - t0, 0.0), 0.0)
    tm = 0.5 * (t0 + t1)
    mx = px + tm * dx
    my = py + tm * dy
    member = (mx >= x0) & (mx < x1) & (my >= y0) & (my < y1)
    return np.where(member, frac, 0.0) * np.hypot(dx, dy)


def clip_length_to_square(nodal_set: NodalSet, square: Square,
                          delta0: Fraction) -> float:
    ox, oy = square.origin(delta0)
    s = square.side(delta0)
    lengths = _clip_lengths_to_rect(nodal_set.segments, float(ox), float(oy),
                                    float(ox + s), float(oy + s))
    return float(lengths.sum())


def slow_square_budgets(state: TilingState, nodal_set: NodalSet):
    """Clipped nodal length per slow square, normalized by the level side."""
    rows = []
    for k in sorted(state.slow_by_level):
        side = float(state.delta0 / 2 ** k)
        for sq in state.slow_by_level[k]:
            length = clip_length_to_square(nodal_set, sq, state.delta0)
            rows.append({"level": k, "ix": sq.ix, "iy": sq.iy,
                         "length": length, "ratio": length / side})
    return rows


@dataclass
class TotalBoundReport:
    h1_core_disk: float
    beta_star: float
    ratio: float
    h1_square_direct: float
    h1_square_reconstructed: float
    reconstruction_rel_err: float
    capped: bool


def total_bound_report(state: TilingState, nodal_set: NodalSet) -> TotalBoundReport:
    """Total clipped nodal length in the core disk against beta*.

    Also reconstructs the length over P as the sum over the square partition
    (slow squares of every level plus any remaining rapid squares) and
    checks it against direct clipping; the two must agree to 1 percent.
    """
    h1_disk = float(clip_lengths(nodal_set, np.zeros(1), np.zeros(1),
                                 CORE_RADIUS)[0])
    recon = 0.0
    for sq in state.all_slow():
        recon += clip_length_to_square(nodal_set, sq, state.delta0)
    for sq in state.rapid:
        recon += clip_length_to_square(nodal_set, sq, state.delta0)
    direct = float(_clip_lengths_to_rect(
        nodal_set.segments, float(-P_HALF), float(-P_HALF),
        float(P_HALF), float(P_HALF)).sum()) if len(nodal_set) else 0.0
    denom = max(direct, 1e-12)
    rel = abs(recon - direct) / denom
    return TotalBoundReport(
        h1_core_disk=h1_disk, beta_star=state.beta_star,
        ratio=h1_disk / state.beta_star, h1_square_direct=direct,
        h1_square_reconstructed=recon, reconstruction_rel_err=rel,
        capped=state.capped)


def tiling_to_csv(state: TilingState, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write("level,x,y,side,kind\n")
        for k in sorted(state.slow_by_level):
            for sq in state.slow_by_level[k]:
                ox, oy = sq.origin(state.delta0)
                f.write(f"{k},{float(ox)!r},{float(oy)!r},"
                        f"{float(sq.side(state.delta0))!r},slow\n")
        for sq in state.rapid:
            ox, oy = sq.origin(state.delta0)
            f.write(f"{sq.level},{float(ox)!r},{float(oy)!r},"
                    f"{float(sq.side(state.delta0))!r},rapid\n")
