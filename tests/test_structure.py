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


def test_one_fast_march_call_site():
    # geodesic_distance is the public entry to the eikonal solver; every
    # geodesic-disk sup goes through the one windowed call in growth
    hits = [(path.name, line.strip()) for path in sorted(SRC.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if "_fast_march(" in line and not line.lstrip().startswith("def ")]
    assert sorted(name for name, _ in hits) == ["growth.py", "surface.py"], hits
    assert "return GridField(_fast_march(metric, p)" in dict(hits)["surface.py"]
