"""Growth exponents: from polynomial degree to eigenfunction growth fields.

The growth exponent log(sup_B |f| / sup_{alpha B} |f|) generalizes the
degree of a polynomial: for |z|^n on nested disks it equals n log(1/alpha)
exactly.  On the torus we evaluate it on wavelength-radius disks and average
it over the surface.
"""

import os

import numpy as np

from ngl import (analytic_eigenpair, average_local_growth, growth_exponent,
                 growth_fields, lq_growth_exponent, make_metric)
from ngl.growth import growth_samples_to_csv

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

print("polynomial calibration, beta(|z|^n, unit disk; alpha):")
for n in (1, 2, 5):
    fn = lambda x, y, n=n: np.hypot(np.asarray(x, dtype=float),
                                    np.asarray(y, dtype=float)) ** n
    b_half = growth_exponent(fn, (0.0, 0.0), 1.0, 0.5)
    b_fifth = growth_exponent(fn, (0.0, 0.0), 1.0, 0.2)
    b_l2 = lq_growth_exponent(fn, (0.0, 0.0), 1.0, 0.2, 2)
    print(f"  n = {n}: doubling {b_half:.6f} (= n log 2 = {n*np.log(2):.6f}), "
          f"alpha = 1/5: {b_fifth:.6f}, L^2 variant: {b_l2:.6f} "
          f"(= (n+1) log 5 = {(n+1)*np.log(5):.6f})")

# Wavelength-scale growth field of an eigenfunction.
metric = make_metric("flat", 512)
pair = analytic_eigenpair(2, 1, grid_n=512)
print(f"\neigenfunction cos(2 pi (2x + y)), lambda = {pair.lam:.3f}")

centers, (betas,) = growth_fields([pair], metric, k0=0.5, sample_grid_m=32)
avg = average_local_growth(betas, centers, metric)
print(f"growth field on a 32 x 32 center grid, disk radius "
      f"{0.5 / np.sqrt(pair.lam):.4f}:")
print(f"  A(lambda) = {avg:.4f}   max beta_p = {betas.max():.4f}   "
      f"min beta_p = {betas.min():.4f}")
print(f"  doubling-type bound: max beta_p / sqrt(lambda) = "
      f"{betas.max()/np.sqrt(pair.lam):.4f}")

path = os.path.join(OUT, "growth_field.csv")
growth_samples_to_csv(centers, betas, path)
print(f"wrote {path}")
