"""Structural checks on the package source."""

import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ngl"


def test_one_gauss_legendre_rule():
    # polar quadrature lives in surface.polar_quadrature; every caller uses it
    hits = [(path.name, line) for path in sorted(SRC.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if "leggauss" in line]
    assert len(hits) == 1, hits
    assert hits[0][0] == "surface.py"
