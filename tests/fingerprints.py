"""Output fingerprints of the localized pipeline, the inequality suites, the
Crofton estimators and the growth tables.

``tests/test_fingerprints.py`` recomputes the sha256 digests below and
compares them with ``tests/fingerprints.json``, so a change that claims
bit-identical outputs is checked against digests recorded before it:

* every file that ``localize``, ``tile`` and ``rapid`` write, at a flat
  config whose localization point sits on the torus seam and at a ``wave``
  config off the seam (which also evaluates the spline of the metric);
* every ``is_rapid`` decision (and its two readout integrals) that tiling
  and rapid-disk counting take on the rapid family Re((60 z)^d),
  d in {38, 40, 42}, with the rapid/slow square counts of each level and
  the number of points they pass to the field's evaluator (a change that
  reads the field at more points fails the test as surely as one that
  changes a decision);
* every file that ``harmonic`` and ``carleman`` write at a small config,
  and the radial weight ``build_psi0(0.1)`` (``log_psi0`` and ``dlog_psi0``),
  which pin the bits of the circle-sup kernel and of the radial ODE solve;
* every file that ``crofton`` writes on the eigenfunction curve of a small
  flat config (the binned probe kernels, both estimators and the consistency
  check) and on the unit segment (the all-pairs kernels);
* every file that ``growth``, ``thm1``, ``spectrum`` and ``nodal`` write at
  a small ``wave`` config (geodesic-disk sups; a degenerate pair shares its
  radius, and the one ``k0_sweep`` entry resolves only the lowest mode, so
  the sweep drops rows and a second radius set is marched; the
  solved spectrum and its nodal sets) and at a small flat config (the flat
  sup-disk scans; the closed-form spectrum and its nodal sets);
* every file that ``all`` writes at a small ``wave`` config, the spectrum
  cache included, so that the stages its commands share (one spectrum, its
  nodal sets, its growth fields and the localized field) leave every output
  as the commands would write it one by one (``localize.index`` 1).

The digests hold for one BLAS thread (outputs are byte-identical only in
single-threaded mode), so this script pins the thread variables before numpy
loads; ``test_fingerprints.py`` runs it in a subprocess for that reason.
They also depend on the numpy, scipy and BLAS builds, whose versions are
stored beside them.  To rewrite them, run from the repository root, at a
commit whose outputs are known to be right:

    PYTHONPATH=src python tests/fingerprints.py --update

It prints one line per digest it adds, removes or changes; name each of
those, with its reason, in CHANGES.md.  Without ``--update`` the script
prints the digests it computes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import sys
import tempfile

if __name__ == "__main__":
    # the digests hold for one BLAS thread: pin it before numpy loads
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402 - after the thread pinning
import scipy  # noqa: E402

FINGERPRINT_FILE = pathlib.Path(__file__).with_name("fingerprints.json")

CLI_COMMANDS = ("localize", "tile", "rapid")
CLI_CONFIGS = {
    # p = (0, 0) is the seam of the torus: half of every annulus sits at x ~ 1
    "flat-seam": {
        "metric": {"profile": "flat", "grid_n": 320},
        "eigen": {"count": 4},
        "localize": {"p": [0.0, 0.0], "planar_grid_n": 256},
        "tiling": {"core_grid_n": 257, "k_max": 4},
    },
    # k0 = 1 lets a 224 grid resolve the rescaled patch; eps0 admits the
    # larger potential (k0 tau)^2 q+ = 0.123 this gives
    "wave-off-seam": {
        "metric": {"profile": "wave", "grid_n": 224},
        "eigen": {"count": 2},
        "growth": {"k0": 1.0},
        "localize": {"p": [0.3, 0.7], "planar_grid_n": 256, "eps0": 0.2},
        "tiling": {"core_grid_n": 257, "k_max": 4},
    },
}

INEQUALITY_COMMANDS = ("harmonic", "carleman")
INEQUALITY_CONFIG = {"harmonic": {"n_traces": 5},
                     "carleman": {"pairs": 2, "t_values": [1.0]}}

CROFTON_CONFIGS = {
    "eigenfunction": {"metric": {"profile": "flat", "grid_n": 160},
                      "eigen": {"count": 4},
                      "crofton": {"curve": "eigenfunction", "samples": 5000}},
    "segment": {"crofton": {"curve": "segment", "samples": 20_000,
                            "seed": 7}},
}

GROWTH_COMMANDS = ("growth", "thm1", "spectrum", "nodal")
GROWTH_CONFIGS = {
    "wave": {"metric": {"profile": "wave", "grid_n": 160},
             "eigen": {"count": 4},
             "growth": {"sample_grid_m": 4, "k0_sweep": [0.42]}},
    "flat": {"metric": {"profile": "flat", "grid_n": 160},
             "eigen": {"count": 4},
             "growth": {"sample_grid_m": 4}},
}

ALL_CONFIG = {
    "metric": {"profile": "wave", "grid_n": 224},
    "eigen": {"count": 2},
    "growth": {"k0": 1.0, "sample_grid_m": 4, "k0_sweep": [1.5]},
    "localize": {"p": [0.3, 0.7], "eps0": 0.2, "planar_grid_n": 256,
                 "index": 1},
    "tiling": {"core_grid_n": 257, "k_max": 4},
    "crofton": {"curve": "eigenfunction", "samples": 2000},
    "harmonic": {"n_traces": 3},
    "carleman": {"pairs": 2, "t_values": [1.0]},
}

RAPID_DEGREES = (38, 40, 42)
RAPID_FAMILY = {"planar_grid_n": 256, "m_threshold": 10.0, "k_max": 4,
                "delta": 1e-4}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def cli_digests(commands, config, cache=False):
    """sha256 of every file the commands write at the config; the spectrum
    cache they fill is left out unless ``cache`` is set."""
    from ngl.cli import load_config, run
    digests = {}
    with tempfile.TemporaryDirectory() as out_dir:
        overrides = dict(config, output={"dir": out_dir})
        for command in commands:
            run(command, load_config(overrides=overrides, command=command))
        for dirpath, dirnames, files in os.walk(out_dir):
            if not cache:
                dirnames[:] = [d for d in dirnames if d != "spectrum_cache"]
            for fname in files:
                path = os.path.join(dirpath, fname)
                rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
                with open(path, "rb") as f:
                    digests[rel] = _sha256(f.read())
    return dict(sorted(digests.items()))


def radial_ode_digest(a=0.1):
    """sha256 of log psi_0 and its slope on the default radial grid."""
    from ngl.carleman import build_psi0
    rw = build_psi0(a)
    return _sha256(np.stack([rw.log_psi0, rw.dlog_psi0]).astype("<f8").tobytes())


def rapid_field(degree):
    """Re((60 z)^d): a harmonic planar field with a zero of order d at 0."""
    def field(x, y):
        z = 60.0 * (np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float))
        return np.real(z ** degree)
    return field


def rapid_family_digests(degree):
    """Every rapid decision of tiling and rapid counting on Re((60 z)^d)."""
    import ngl.schrodinger as schrodinger
    import ngl.tiling as tiling
    from ngl.schrodinger import planar_field_from_function

    decisions = []
    classify = schrodinger.classify_rapid

    def recording(*args, **kwargs):
        res = classify(*args, **kwargs)
        decisions.append((res.is_rapid, res.int_inner_readout,
                          res.int_outer_readout))
        return res

    fam = RAPID_FAMILY
    pf = planar_field_from_function(rapid_field(degree),
                                    planar_grid_n=fam["planar_grid_n"])
    points = 0
    evaluate = pf.evaluate

    def counting(x, y):
        nonlocal points
        points += np.broadcast(x, y).size
        return evaluate(x, y)

    pf.evaluate = counting
    tiling.classify_rapid = schrodinger.classify_rapid = recording
    try:
        state = tiling.run_tiling(pf, m_threshold=fam["m_threshold"],
                                  k_max=fam["k_max"])
        schrodinger.count_rapid_disks(pf, fam["delta"], fam["m_threshold"])
    finally:
        tiling.classify_rapid = schrodinger.classify_rapid = classify
    is_rapid = np.array([d[0] for d in decisions], dtype=np.uint8)
    integrals = np.array([d[1:] for d in decisions], dtype="<f8")
    levels = [[len(state.rapid_by_level.get(k, [])),
               len(state.slow_by_level.get(k, []))]
              for k in range(state.level + 1)]
    return {"decisions": len(decisions), "points": points,
            "rapid": int(is_rapid.sum()), "levels": levels,
            "is_rapid": _sha256(is_rapid.tobytes()),
            "integrals": _sha256(integrals.tobytes())}


def compute():
    return {"versions": versions(),
            "cli": {name: cli_digests(CLI_COMMANDS, config)
                    for name, config in CLI_CONFIGS.items()},
            "inequality": dict(cli_digests(INEQUALITY_COMMANDS,
                                           INEQUALITY_CONFIG),
                               build_psi0=radial_ode_digest()),
            "crofton": {name: cli_digests(("crofton",), config)
                        for name, config in CROFTON_CONFIGS.items()},
            "growth": {name: cli_digests(GROWTH_COMMANDS, config)
                       for name, config in GROWTH_CONFIGS.items()},
            "all": cli_digests(("all",), ALL_CONFIG, cache=True),
            "rapid_family": {f"d={d}": rapid_family_digests(d)
                             for d in RAPID_DEGREES}}


def _leaves(tree, prefix=""):
    """``a/b/c`` key path -> value of every leaf of nested dicts."""
    found = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            found.update(_leaves(value, f"{prefix}{key}/"))
        else:
            found[prefix + key] = value
    return found


def digest_changes(old, new):
    """One line per leaf key that ``new`` adds to, removes from or changes
    in ``old``, in key order."""
    old, new = _leaves(old), _leaves(new)
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            lines.append(f"added {key}")
        elif key not in new:
            lines.append(f"removed {key}")
        elif old[key] != new[key]:
            lines.append(f"changed {key}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {FINGERPRINT_FILE.name}")
    args = parser.parse_args(argv)
    digests = compute()
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    if args.update:
        old = (json.loads(FINGERPRINT_FILE.read_text(encoding="ascii"))
               if FINGERPRINT_FILE.exists() else {})
        for line in digest_changes(old, digests):
            print(line)
        FINGERPRINT_FILE.write_text(text, encoding="ascii")
        print(f"wrote {FINGERPRINT_FILE}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
