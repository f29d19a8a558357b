"""Solve the torus eigenproblem and measure nodal sets.

Walks the first pipeline stage: build a conformal metric, solve the
generalized eigenproblem, extract zero sets, and compare their lengths in
the flat and the curved geometry.
"""

import os

import numpy as np

from ngl import (extract_nodal_set, make_metric, nodal_length, singular_points,
                 solve_spectrum)
from ngl.svg import nodal_svg

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# A gently curved metric: q = 1 + 0.2 sin(2 pi x) sin(2 pi y).
metric = make_metric("wave", 128)
print(f"metric: q in [{metric.q_minus:.3f}, {metric.q_plus:.3f}], "
      f"Vol = {metric.volume:.6f}, alpha0 = {metric.alpha0:.4f}")

spectrum = solve_spectrum(metric, 8)
print("\nlowest eigenvalues (flat-torus shells sit at 4 pi^2 k):")
for k, pair in enumerate(spectrum.pairs):
    print(f"  lambda_{k} = {pair.lam:10.4f}   residual = {pair.residual:.2e}")

# Nodal sets: zero curves of each eigenfunction.
print("\nnodal lengths (euclidean vs metric):")
for k, pair in enumerate(spectrum.nonconstant()[:5], start=1):
    ns = extract_nodal_set(pair.field)
    e_len, m_len = nodal_length(ns, metric)
    print(f"  #{k}: lambda = {pair.lam:8.3f}  H1_euclid = {e_len:.4f}  "
          f"H1_metric = {m_len:.4f}  segments = {len(ns)}")

# The second eigenfunction of the flat torus would be a pure wave with two
# straight zero lines; curvature bends them slightly.
pair = spectrum.nonconstant()[0]
ns = extract_nodal_set(pair.field)
pts = singular_points(pair.field)
path = os.path.join(OUT, "nodal_wave_metric.svg")
nodal_svg(ns, path, singular=pts, title="first eigenfunction zero set")
print(f"\nwrote {path} ({len(pts)} singular points detected)")
