"""The four pinned workloads: inputs from a seed, one pipeline iteration,
and the correctness checks on its outputs.

A workload's ``setup`` generates and validates the configs of every
iteration a run can reach and fills any spectrum cache the iterations read.
``iterate`` runs one pipeline iteration and returns its operations; the
benchmark times only that call.  ``check`` then inspects the operations'
outputs and returns one list of failure messages per operation.

The seed sets the eigen, crofton, harmonic and carleman seeds and the
degree of the rapid-growth family.  Iteration ``i`` of a run draws its own
seeds from a stream keyed by the run seed, so that a run's median averages
over inputs whose cost varies with the seed (Carleman test fields, rapid
family degrees) instead of pinning one draw per run.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

import numpy as np

import ngl
import ngl.cli
import ngl.nodal
import ngl.schrodinger
import ngl.tiling

MAX_ITERATIONS = 64

# Tolerances of the checks against values recorded on commit 2043143
# (perfbench/reference.json): integers must match exactly, floats to this
# relative error, which admits reordered floating-point sums but not a
# changed result.
REFERENCE_RTOL = 1e-6
# Marching squares versus the closed-form nodal length 2 sqrt(m^2 + n^2) of
# cos(2 pi (m x + n y)) on the unit torus; commit 2043143 is exact to 1e-14
# on the 320 grid, whose samples sit symmetrically about the zero lines.
FLAT_NODAL_RTOL = 1e-9
# Criterion 11 of the acceptance gate: margins of the weighted dbar
# inequality may undershoot zero by quadrature error only.
CARLEMAN_MARGIN_FLOOR = -1e-6
# The synthetic-segment Crofton checks use a fixed probe seed: a 3-stderr
# test on a random estimate fails 0.27 % of draws, so a seed-dependent probe
# set would report false failures on some seeds.
CROFTON_CHECK_SEED = 7
CROFTON_CHECK_SAMPLES = 100_000

RAPID_DEGREES = (38, 40, 42)
RAPID_SCALE = 60.0

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "reference.json"), encoding="ascii") as _f:
    REFERENCE = json.load(_f)


class Op:
    """One operation of an iteration: a CLI command or a direct pipeline."""

    def __init__(self, name, out_dir=None):
        self.name = name
        self.out_dir = out_dir
        self.error = None
        self.value = None

    def read_json(self, name):
        with open(os.path.join(self.out_dir, name), encoding="ascii") as f:
            return json.load(f)

    def read_csv(self, name):
        with open(os.path.join(self.out_dir, name), encoding="ascii") as f:
            lines = f.read().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _run_cli(ops, name, command, cfg, out_dir):
    op = Op(name, out_dir)
    ops.append(op)
    try:
        ngl.cli.run(command, cfg, out_dir)
    except Exception as exc:  # a failed command is a failed operation
        op.error = f"{type(exc).__name__}: {exc}"
    return op


def _seed_overrides(seed):
    return {"eigen": {"seed": seed}, "crofton": {"seed": seed},
            "harmonic": {"seed": seed}, "carleman": {"seed": seed}}


def _merge(*parts):
    out = {}
    for part in parts:
        out = ngl.cli.deep_merge(out, part)
    return out


def _close(a, b, rtol=REFERENCE_RTOL):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _compare(failures, label, observed, expected, rtol=REFERENCE_RTOL):
    """Append a failure unless ``observed`` matches the recorded value
    (integers and booleans exactly, floats to ``rtol``, containers
    elementwise)."""
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or observed.keys() != expected.keys():
            failures.append(f"{label}: {observed!r} != recorded {expected!r}")
            return
        for key, e in expected.items():
            _compare(failures, f"{label}.{key}", observed[key], e, rtol)
    elif isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            failures.append(f"{label}: {observed!r} != recorded {expected!r}")
            return
        for k, (o, e) in enumerate(zip(observed, expected)):
            _compare(failures, f"{label}[{k}]", o, e, rtol)
    elif isinstance(expected, float):
        if not (isinstance(observed, (int, float)) and _close(observed, expected, rtol)):
            failures.append(f"{label}: {observed!r} != recorded {expected!r} "
                            f"(rtol {rtol:g})")
    elif observed != expected:
        failures.append(f"{label}: {observed!r} != recorded {expected!r}")


def flat_shells(count):
    """The ``count`` smallest nonzero values of m^2 + n^2 over integer
    pairs, with multiplicity."""
    bound = math.isqrt(count) + 2
    vals = sorted(m * m + n * n for m in range(-bound, bound + 1)
                  for n in range(-bound, bound + 1) if (m, n) != (0, 0))
    return vals[:count]


def _check_rows(failures, rows, label, pred, what):
    for k, row in enumerate(rows):
        if not pred(row):
            failures.append(f"{label} row {k}: {what} ({row})")


class Workload:
    name = ""
    commands = ()
    fresh_out_dir = True    # each iteration writes into a new directory

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        stream = random.Random(f"{self.name}:{seed}")
        self.iteration_seeds = [stream.randrange(2 ** 31)
                                for _ in range(MAX_ITERATIONS)]

    def setup(self):
        self.inputs = [self.make_input(s) for s in self.iteration_seeds]

    def config(self, overrides, command):
        return ngl.cli.load_config(None, overrides, command=command)

    def make_input(self, seed):
        overrides = _merge(self.BASE, _seed_overrides(seed))
        return {c: self.config(overrides, c) for c in self.commands}

    def iterate(self, inp, out_dir):
        ops = []
        for c in self.commands:
            _run_cli(ops, c, c, inp[c], out_dir)
        return ops


# --------------------------------------------------------------------------


class FlatRatioTable(Workload):
    name = "flat-ratio-table"
    commands = ("thm1", "nodal")
    BASE = {"metric": {"profile": "flat", "grid_n": 320},
            "eigen": {"count": 20}, "growth": {"sample_grid_m": 32}}

    def check(self, inp, ops):
        thm1, nodal = ops
        lams = [4 * math.pi ** 2 * s
                for s in flat_shells(self.BASE["eigen"]["count"])]
        ref = REFERENCE[self.name]
        out = [[], []]
        if thm1.error is None:
            f = out[0]
            table = thm1.read_csv("thm1_table.csv")
            _compare(f, "thm1 closed-form lambda",
                     sorted(float(r["lambda"]) for r in table), lams, 1e-12)
            _check_rows(f, table, "thm1_table",
                        lambda r: 0 < float(r["upper_ratio"]) < float(r["lower_ratio"]) < math.inf,
                        "needs 0 < upper_ratio < lower_ratio < inf")
            summary = thm1.read_json("thm1_summary.json")[0]
            for key, val in ref["thm1_summary"].items():
                _compare(f, f"thm1 {key}", summary[key], val)
        if nodal.error is None:
            f = out[1]
            rows = nodal.read_json("nodal_lengths.json")
            _compare(f, "nodal closed-form lambda",
                     sorted(r["lambda"] for r in rows), lams, 1e-12)
            for k, r in enumerate(rows):
                exact = math.sqrt(r["lambda"]) / math.pi
                if abs(r["euclidean_length"] - exact) > FLAT_NODAL_RTOL * exact:
                    f.append(f"nodal row {k}: length {r['euclidean_length']} vs "
                             f"closed form {exact} (rtol {FLAT_NODAL_RTOL:g})")
                if r["metric_length"] != r["euclidean_length"]:
                    f.append(f"nodal row {k}: flat metric length differs")
            _compare(f, "nodal lengths", [r["euclidean_length"] for r in rows],
                     ref["nodal_lengths"])
            _compare(f, "nodal segments", [r["segments"] for r in rows],
                     ref["nodal_segments"])
        return out


def discrete_flat_eigenvalues(grid_n, count):
    """The ``count`` smallest eigenvalues of the periodic 5-point negated
    Laplacian on the unit torus with ``grid_n`` samples per side."""
    h = 1.0 / grid_n
    axis = sorted((4.0 / (h * h)) * math.sin(math.pi * k * h) ** 2
                  for k in range(grid_n))[:count]
    return sorted(a + b for a in axis for b in axis)[:count]


class CurvedRatioTable(Workload):
    name = "curved-ratio-table"
    commands = ("spectrum", "thm1")
    BASE = {"metric": {"profile": "wave", "grid_n": 224},
            "eigen": {"count": 8}, "growth": {"sample_grid_m": 4}}
    AMPLITUDE = 0.2   # default amplitude of the wave profile

    def check(self, inp, ops):
        spectrum, thm1 = ops
        cfg = inp["spectrum"]
        n = cfg["metric"]["grid_n"]
        count = cfg["eigen"]["count"]
        # q = 1 + A sin(2 pi x) sin(2 pi y) sampled on the grid
        sines = [math.sin(2 * math.pi * i / n) for i in range(n)]
        products = [a * b for a in sines for b in sines]
        q_plus = 1 + self.AMPLITUDE * max(products)
        q_minus = 1 + self.AMPLITUDE * min(products)
        out = [[], []]
        lams = None
        if spectrum.error is None:
            f = out[0]
            rows = spectrum.read_json("spectrum.json")
            lams = [r["lambda"] for r in rows]
            if len(rows) != count + 1:
                f.append(f"spectrum: {len(rows)} pairs, expected {count + 1}")
            _check_rows(f, rows, "spectrum", lambda r: r["residual"] <= cfg["eigen"]["tol"],
                        "residual certificate above tol")
            if lams != sorted(lams) or not abs(lams[0]) < 1e-6:
                f.append(f"spectrum: eigenvalues {lams} not ascending from 0")
            # min-max comparison with the flat discrete operator
            for k, mu in enumerate(discrete_flat_eigenvalues(n, len(lams))):
                lo, hi = mu / q_plus, mu / q_minus
                if not (lo * (1 - 1e-9) - 1e-9 <= lams[k] <= hi * (1 + 1e-9) + 1e-9):
                    f.append(f"spectrum: lambda_{k} = {lams[k]} outside the "
                             f"min-max bracket [{lo}, {hi}]")
            _compare(f, "spectrum lambda", lams[1:], REFERENCE[self.name]["lambda"])
        if thm1.error is None:
            f = out[1]
            table = thm1.read_csv("thm1_table.csv")
            if len(table) != count:
                f.append(f"thm1: {len(table)} rows, expected {count}")
            _check_rows(f, table, "thm1_table",
                        lambda r: 0 < float(r["upper_ratio"]) < float(r["lower_ratio"]) < math.inf,
                        "needs 0 < upper_ratio < lower_ratio < inf")
            if lams is not None and [float(r["lambda"]) for r in table] != lams[1:]:
                f.append("thm1: eigenvalues read back from the cache differ "
                         "from the ones spectrum wrote")
        return out


def rapid_field(degree):
    """Re((60 z)^d): a harmonic planar field with a zero of order d at 0."""
    def field(x, y):
        z = RAPID_SCALE * (np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float))
        return np.real(z ** degree)
    return field


def tiling_area_from_csv(rows):
    """Exact total area of the squares listed in tiling.csv."""
    return sum(Fraction(float(r["side"])).limit_denominator(10 ** 9) ** 2
               for r in rows)


P_SIDE = Fraction(1, 30)   # the core square [-1/60, 1/60]^2


class LocalizedTiling(Workload):
    name = "localized-tiling"
    commands = ("localize", "tile", "rapid")
    fresh_out_dir = False
    BASE = {"localize": {"planar_grid_n": 512}, "tiling": {"core_grid_n": 513}}
    FAMILY = {"k_max": 4, "m_threshold": 10.0, "delta": 1e-4,
              "planar_grid_n": 256, "core_grid_n": 513}

    def setup(self):
        # one eigen seed per run, so every iteration reads the cache filled here
        self.overrides = _merge(self.BASE, _seed_overrides(self.seed))
        super().setup()
        self.out_dir = os.path.join(self.work_dir, "out")
        ngl.cli.run("spectrum", self.config(self.overrides, "spectrum"),
                    self.out_dir)

    def make_input(self, seed):
        cfgs = {c: self.config(self.overrides, c) for c in self.commands}
        cfgs["degree"] = RAPID_DEGREES[seed % len(RAPID_DEGREES)]
        return cfgs

    def iterate(self, inp, out_dir):
        ops = []
        for c in self.commands:
            _run_cli(ops, c, c, inp[c], self.out_dir)
        op = Op(f"rapid-family d={inp['degree']}")
        ops.append(op)
        fam = self.FAMILY
        try:
            pf = ngl.schrodinger.planar_field_from_function(
                rapid_field(inp["degree"]), planar_grid_n=fam["planar_grid_n"])
            state = ngl.tiling.run_tiling(pf, m_threshold=fam["m_threshold"],
                                          k_max=fam["k_max"])
            rapid = ngl.schrodinger.count_rapid_disks(pf, fam["delta"],
                                                      fam["m_threshold"])
            core = ngl.schrodinger.core_field(pf, grid_n=fam["core_grid_n"])
            op.value = (state, rapid, ngl.nodal.extract_nodal_set(core))
        except Exception as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        return ops

    def check(self, inp, ops):
        localize, tile, rapid, family = ops
        ref = REFERENCE[self.name]
        out = [[], [], [], []]
        if localize.error is None:
            f = out[0]
            row = localize.read_json("localize.json")[0]
            index = inp["localize"]["localize"]["index"]
            _compare(f, "localize lambda", row["lambda"],
                     4 * math.pi ** 2 * flat_shells(index)[-1], 1e-12)
            if not row["potential_sup"] < inp["localize"]["localize"]["eps0"]:
                f.append(f"localize: potential sup {row['potential_sup']} "
                         "not below eps0")
            for key in ("residual", "scale", "potential_sup"):
                _compare(f, f"localize {key}", row[key], ref["localize"][key])
        if tile.error is None:
            f = out[1]
            squares = tile.read_csv("tiling.csv")
            area = tiling_area_from_csv(squares)
            if area != P_SIDE ** 2:
                f.append(f"tile: squares cover area {area}, not {P_SIDE ** 2}")
            report = tile.read_json("tiling_report.json")
            const = report["constants"]
            rapid_area = sum(float(r["side"]) ** 2 for r in squares
                             if r["kind"] == "rapid")
            if not _close(const["uncovered_area"], rapid_area, 1e-12) and (
                    const["uncovered_area"] or rapid_area):
                f.append("tile: uncovered area differs from the rapid squares")
            if not const["reconstruction_rel_err"] < 0.01:
                f.append("tile: partition reconstruction error above 1 %")
            for key, val in ref["tile"].items():
                _compare(f, f"tile {key}",
                         report["levels"] if key == "levels" else const[key], val)
        if rapid.error is None:
            f = out[2]
            rep = rapid.read_json("rapid_report.json")
            if not _close(rep["ratio"], rep["n_rapid"] / rep["beta_star"], 1e-12):
                f.append("rapid: ratio is not n_rapid / beta*")
            for key, val in ref["rapid"].items():
                _compare(f, f"rapid {key}", rep[key], val)
        if family.error is None:
            f = out[3]
            state, counted, ns = family.value
            if state.covered_area() + state.rapid_area() != P_SIDE ** 2:
                f.append("rapid family: slow plus rapid area is not |P|")
            levels = [[len(state.rapid_by_level.get(k, [])),
                       len(state.slow_by_level.get(k, []))]
                      for k in range(state.level + 1)]
            for k in range(1, len(levels)):
                if levels[k][1] > 4 * levels[k - 1][0]:
                    f.append(f"rapid family: level {k} has more slow squares "
                             "than the refined rapid ones allow")
            observed = {"levels": levels, "n_rapid": counted.n_rapid,
                        "n_probes": counted.n_probes,
                        "beta_star": counted.beta_star, "segments": len(ns)}
            for key, val in ref["family"][str(inp["degree"])].items():
                _compare(f, f"rapid family d={inp['degree']} {key}",
                         observed[key], val)
        return out


class InequalitySuites(Workload):
    name = "inequality-suites"
    commands = ("harmonic", "carleman", "crofton")
    fresh_out_dir = False
    # One Carleman weight parameter and one random dbar test field per
    # centre set: a random field's quadrature grid, and so its cost, varies
    # tenfold with its seed, while the 10 stratified Laplacian fields and
    # the harmonic traces cost nearly the same on every seed.  This mix keeps
    # every Carleman code path but lets a run's median settle.
    BASE = {"harmonic": {"n_traces": 20},
            "carleman": {"pairs": 2, "t_values": [1.0]},
            "crofton": {"curve": "eigenfunction", "samples": 5_000}}

    def setup(self):
        # the eigenfunction Crofton run reads the spectrum cache filled here
        self.eigen_seed = {"eigen": {"seed": self.seed}}
        super().setup()
        self.out_dir = os.path.join(self.work_dir, "out")
        ngl.cli.run("spectrum", self.config(self.eigen_seed, "spectrum"),
                    self.out_dir)

    def make_input(self, seed):
        overrides = _merge(self.BASE, _seed_overrides(seed), self.eigen_seed)
        cfgs = {c: self.config(overrides, c) for c in self.commands}
        for kernel in ("disk", "circle"):
            cfgs[f"segment-{kernel}"] = self.config(
                {"crofton": {"curve": "segment", "kernel": kernel,
                             "samples": CROFTON_CHECK_SAMPLES,
                             "seed": CROFTON_CHECK_SEED}}, "crofton")
        return cfgs

    def iterate(self, inp, out_dir):
        ops = []
        for c in ("harmonic", "carleman"):
            _run_cli(ops, c, c, inp[c], self.out_dir)
        _run_cli(ops, "crofton eigenfunction", "crofton", inp["crofton"],
                 self.out_dir)
        for kernel in ("disk", "circle"):
            _run_cli(ops, f"crofton segment {kernel}", "crofton",
                     inp[f"segment-{kernel}"],
                     os.path.join(self.out_dir, f"segment-{kernel}"))
        return ops

    def check(self, inp, ops):
        harmonic, carleman, crofton, *segments = ops
        out = [[] for _ in ops]
        if harmonic.error is None:
            f = out[0]
            rep = harmonic.read_json("harmonic_report.json")
            if rep["sweep_holds"] is not True:
                f.append("harmonic: the sign-change growth bound failed")
            if not rep["min_log_gap"] >= 0:
                f.append(f"harmonic: negative log gap {rep['min_log_gap']}")
            exact = [{"p": p, "value": 2 ** (2 * p) + math.comb(2 * p, p)}
                     for p in range(8)]
            if rep["robertson"] != exact:
                f.append("harmonic: Robertson integers differ from "
                         "2^(2p) + binom(2p, p)")
        if carleman.error is None:
            f = out[1]
            dbar, c1 = carleman.read_json("carleman_report.json")
            if not dbar["min_margin"] >= CARLEMAN_MARGIN_FLOOR:
                f.append(f"carleman: margin {dbar['min_margin']} below "
                         f"{CARLEMAN_MARGIN_FLOOR:g}")
            if not 0 < c1["empirical_constant"] < math.inf:
                f.append(f"carleman: constant {c1['empirical_constant']}")
            record = carleman.read_json("record_carleman.json")
            _compare(f, "carleman ode_residual", record["constants"]["ode_residual"],
                     REFERENCE[self.name]["ode_residual"])
        if crofton.error is None:
            f = out[2]
            rep = crofton.read_json("crofton.json")["consistency"]
            direct = rep["direct_length"]
            if rep["consistent"] is not True:
                f.append("crofton: estimates inconsistent with direct length")
            for kernel, est in rep["estimates"].items():
                # the program's own tolerance, max(1 %, 3 stderr)
                if abs(est["value"] - direct) > max(0.01 * direct, 3 * est["stderr"]):
                    f.append(f"crofton {kernel}: {est['value']} vs direct {direct}")
        for op, f in zip(segments, out[3:]):
            if op.error is None:
                est = op.read_json("crofton.json")
                if abs(est["value"] - 1.0) > 3 * est["stderr"]:
                    f.append(f"{op.name}: {est['value']} +- {est['stderr']} "
                             "misses the unit length by more than 3 stderr")
        return out


WORKLOADS = {w.name: w for w in (FlatRatioTable, CurvedRatioTable,
                                 LocalizedTiling, InequalitySuites)}
