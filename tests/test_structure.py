"""Structural checks on the package source."""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ngl"


def test_one_gauss_legendre_rule():
    # polar quadrature lives in surface.polar_quadrature; every caller uses it
    hits = [(path.name, line) for path in sorted(SRC.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if "leggauss" in line]
    assert len(hits) == 1, hits
    assert hits[0][0] == "surface.py"


def test_one_spline_construction():
    # periodic_spline fits the one global spline and evaluates it through
    # knot-local blocks; a second spline path would bypass both
    for word in ("RectBivariateSpline", "_from_tck"):
        hits = [(path.name, line) for path in sorted(SRC.glob("*.py"))
                for line in path.read_text(encoding="utf-8").splitlines()
                if re.search(rf"\b{word}\b", line)]
        assert len(hits) == 1, (word, hits)
        assert hits[0][0] == "schrodinger.py", (word, hits)
