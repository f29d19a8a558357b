from fractions import Fraction

import numpy as np
import pytest

from ngl.errors import ConstraintError
from ngl.nodal import NodalSet, clip_lengths, extract_nodal_set, singular_points
from ngl.schrodinger import CORE_RADIUS, core_field, planar_field_from_function
from ngl.tiling import (P_SIDE, Square, _level0_side, default_delta0,
                        level_counts, run_tiling, slow_square_budgets,
                        tiling_to_csv, total_bound_report)


def constant_field():
    fn = lambda x, y: np.zeros(np.broadcast_shapes(np.asarray(x).shape,
                                                   np.asarray(y).shape)) + 1.0
    return planar_field_from_function(fn, planar_grid_n=128)


def linear_field():
    return planar_field_from_function(lambda x, y: np.asarray(x, dtype=float)
                                      + 0.0 * np.asarray(y), planar_grid_n=128)


def high_degree_field(deg=40):
    def fn(x, y):
        z = 60.0 * (np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float))
        return np.real(z ** deg)
    return planar_field_from_function(fn, planar_grid_n=128)


# --------------------------------------------------------------- basics


def test_default_delta0_constraints():
    d = default_delta0(1.0)
    assert d == Fraction(1, 120)
    d_big = default_delta0(40 * np.log(10.0))
    assert d_big < Fraction(1, 120)
    assert float(d_big) * 40 * np.log(10.0) < 0.5
    assert (P_SIDE / d_big).denominator == 1


def test_square_children_partition_parent():
    sq = Square(0, 1, 2)
    kids = sq.children()
    assert len(kids) == 4
    d0 = Fraction(1, 120)
    ox, oy = sq.origin(d0)
    s = sq.side(d0)
    for kid in kids:
        kx, ky = kid.origin(d0)
        assert ox <= kx < ox + s
        assert oy <= ky < oy + s
        assert kid.side(d0) == s / 2


def test_delta_halving_exact():
    st = run_tiling(constant_field(), m_threshold=10.0)
    for k in range(6):
        assert st.delta(k) == st.delta0 / 2 ** k


# --------------------------------------------------------------- classification


def test_constant_field_all_slow_terminates():
    st = run_tiling(constant_field(), m_threshold=10.0)
    assert st.level == 0
    assert not st.capped
    assert len(st.rapid) == 0
    assert len(st.slow_by_level[0]) == int((P_SIDE / st.delta0) ** 2)
    assert st.covered_area() == P_SIDE ** 2


def test_zero_threshold_all_rapid_capped():
    st = run_tiling(constant_field(), m_threshold=0.0, k_max=3)
    assert st.capped
    assert st.level == 3
    assert st.covered_area() == 0
    assert st.rapid_area() == P_SIDE ** 2


def test_area_partition_exact_at_every_level():
    # the slow squares up to level k and the rapid squares of level k
    st = run_tiling(constant_field(), m_threshold=0.0, k_max=3)
    assert st.level == 3
    for k in range(st.level + 1):
        slow = sum(len(st.slow_by_level[j]) * st.delta(j) ** 2
                   for j in range(k + 1))
        assert slow + len(st.rapid_by_level[k]) * st.delta(k) ** 2 == P_SIDE ** 2
    assert st.covered_area() + st.rapid_area() == P_SIDE ** 2


def test_init_delta0_constraint_violations():
    pf = constant_field()
    with pytest.raises(ConstraintError):
        run_tiling(pf, delta0=Fraction(1, 30), m_threshold=10.0)
    with pytest.raises(ConstraintError):
        run_tiling(pf, delta0=Fraction(1, 100), m_threshold=10.0)  # not dyadic
    with pytest.raises(ConstraintError):
        run_tiling(pf, delta0=0.01, m_threshold=10.0)   # P's side / 3.33


def test_float_delta0_is_an_exact_fraction_of_p():
    # no float equals (1/30) / k, so a float within 1e-12 of it means it
    pf = constant_field()
    for k in (4, 7, 12):
        st = run_tiling(pf, delta0=float(P_SIDE / k), m_threshold=10.0, k_max=0)
        assert st.delta0 == P_SIDE / k
        assert len(st.slow_by_level[0]) == k * k
    assert run_tiling(pf, delta0=Fraction(1, 120), m_threshold=10.0,
                      k_max=0).delta0 == Fraction(1, 120)
    # below about 6.7e-14 every float is within 1e-12 of some (1/30) / k;
    # such a float names no k and is kept exact (then rejected)
    for tiny in (1e-300, 5e-324):
        assert _level0_side(tiny) == Fraction(tiny)


def test_structural_slow_count_bound():
    # |J(k)| <= 4 |I(k-1)| holds exactly by construction
    pf = high_degree_field()
    st = run_tiling(pf, m_threshold=10.0, k_max=5)
    counts = level_counts(st)
    for prev, cur in zip(counts, counts[1:]):
        assert cur["slow"] + cur["rapid"] == 4 * prev["rapid"]
        assert cur["slow"] <= 4 * prev["rapid"]


def test_high_degree_field_keeps_origin_rapid():
    pf = high_degree_field()
    st = run_tiling(pf, m_threshold=10.0, k_max=5)
    assert st.capped
    # surviving rapid squares concentrate at the origin (the singular point)
    for sq in st.rapid:
        ox, oy = sq.origin(st.delta0)
        s = sq.side(st.delta0)
        cx = float(ox + s / 2)
        cy = float(oy + s / 2)
        # degree-40 growth keeps a scale-free rapid zone of a few delta(k)
        assert np.hypot(cx, cy) <= 6 * float(st.delta(st.level))


def test_coverage_reports_singular_proximity():
    pf = high_degree_field()
    st = run_tiling(pf, m_threshold=10.0, k_max=4)
    core = core_field(pf, grid_n=513)
    pts = np.asarray(singular_points(core), dtype=float)
    assert st.capped
    assert st.rapid and len(pts)
    for sq in st.rapid:
        ox, oy = sq.origin(st.delta0)
        s = sq.side(st.delta0)
        nearest = np.hypot(pts[:, 0] - float(ox + s / 2),
                           pts[:, 1] - float(oy + s / 2)).min()
        assert nearest <= 6 * float(st.delta(st.level)) + 1e-3


# --------------------------------------------------------------- budgets


def test_slow_budget_straight_line():
    pf = linear_field()
    st = run_tiling(pf, m_threshold=10.0)
    core = core_field(pf, grid_n=513)
    ns = extract_nodal_set(core)
    budgets = slow_square_budgets(st, ns)
    assert budgets
    for row in budgets:
        assert row["ratio"] <= np.sqrt(2.0) + 1e-9
    crossed = [row for row in budgets if row["length"] > 0]
    # the vertical line x = 0 crosses one column of squares
    per_axis = int(P_SIDE / st.delta0)
    assert len(crossed) == per_axis
    for row in crossed:
        assert row["ratio"] == pytest.approx(1.0, rel=1e-6)


def test_total_bound_linear_field():
    pf = linear_field()
    st = run_tiling(pf, m_threshold=10.0)
    core = core_field(pf, grid_n=513)
    ns = extract_nodal_set(core)
    rep = total_bound_report(st, ns)
    assert rep.h1_core_disk == pytest.approx(2.0 / 60.0, rel=1e-6)
    assert rep.beta_star == pytest.approx(np.log(10.0), abs=1e-9)
    assert rep.ratio == pytest.approx((1.0 / 30.0) / np.log(10.0), rel=1e-6)
    assert rep.h1_square_direct == pytest.approx(1.0 / 30.0, rel=1e-6)
    assert rep.reconstruction_rel_err < 0.01


def test_total_bound_constant_field():
    pf = constant_field()
    st = run_tiling(pf, m_threshold=10.0)
    core = core_field(pf, grid_n=257)
    ns = extract_nodal_set(core)
    rep = total_bound_report(st, ns)
    assert rep.h1_core_disk == 0.0
    assert rep.ratio == 0.0


def test_reconstruction_consistency_under_refinement():
    pf = high_degree_field()
    st = run_tiling(pf, m_threshold=10.0, k_max=4)
    core = core_field(pf, grid_n=1025)
    ns = extract_nodal_set(core)
    rep = total_bound_report(st, ns)
    assert rep.reconstruction_rel_err < 0.01
    assert np.isfinite(rep.ratio)


def core_disk_length(ns):
    return float(clip_lengths(ns, np.zeros(1), np.zeros(1), CORE_RADIUS)[0])


def test_clip_length_to_disk_line():
    seg = np.array([[0.0, -0.5, 0.0, 0.5]])
    ns = NodalSet(seg, domain="planar")
    assert core_disk_length(ns) == pytest.approx(2.0 / 60.0, abs=1e-12)


def reference_core_disk_length(ns, radius=CORE_RADIUS):
    """Segment-by-segment clipping to the disk |z| < radius."""
    seg = ns.segments
    p0x, p0y = seg[:, 0], seg[:, 1]
    dx = seg[:, 2] - seg[:, 0]
    dy = seg[:, 3] - seg[:, 1]
    a = dx * dx + dy * dy
    b = 2 * (dx * p0x + dy * p0y)
    c = p0x * p0x + p0y * p0y - radius * radius
    disc = b * b - 4 * a * c
    pos = disc > 0
    sq = np.sqrt(disc[pos])
    t1 = (-b[pos] - sq) / (2 * a[pos])
    t2 = (-b[pos] + sq) / (2 * a[pos])
    overlap = np.clip(np.minimum(t2, 1.0) - np.maximum(t1, 0.0), 0.0, 1.0)
    return float(np.sum(overlap * np.sqrt(a[pos])))


def test_core_disk_length_matches_segment_clipping():
    fn = lambda x, y: np.real((60 * (x + 1j * y) + 0.3 - 0.2j) ** 5) + 0.1
    core = core_field(planar_field_from_function(fn, planar_grid_n=256),
                      grid_n=257)
    ns = extract_nodal_set(core)
    assert len(ns) > 100
    ref = reference_core_disk_length(ns)
    assert ref > 0
    assert core_disk_length(ns) == pytest.approx(ref, rel=1e-12)
    assert core_disk_length(NodalSet(np.empty((0, 4)), domain="planar")) == 0.0


def test_tiling_csv_format(tmp_path):
    st = run_tiling(constant_field(), m_threshold=10.0)
    path = tmp_path / "tiling.csv"
    tiling_to_csv(st, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "level,x,y,side,kind"
    assert len(lines) == 1 + 16
    assert all(line.endswith("slow") for line in lines[1:])
