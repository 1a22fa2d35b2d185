#!/usr/bin/env python3
"""Sample the linkage curves on the (rho1, rho2) plane and compare them.

Every candidate orbit lies on the intersection of two plane curves: the
zero set of the angular-momentum quadratic q and the zero set of a
Laplace-Lenz condition.  There are three flavours of the second curve --

  p          projected Lenz equality, polynomial of degree 10
  lenz       the same equality evaluated directly (not a polynomial),
             radial velocities restored from q's Cramer expressions
  energy_sq  two-body energy equality with the radicals squared away,
             degree 24

p and lenz vanish on the same locus, so their intersections with q agree.
The squared energy curve picks up extra intersections -- squaring
manufactures sign-insensitive roots -- which is exactly why the linkage
eliminates through the Lenz projection instead.  The grids also get
written as long-format CSVs for plotting with any external tool.
"""

import numpy as np

from arclink.attributables import (circular_observer,
                                   synthesize_optical_attributable)
from arclink.config import RunConfig
from arclink.kepler import CartesianState, KeplerianElements
from arclink.optical import (count_zero_intersections, emit_curve_samples,
                             link_optical)

config = RunConfig()
MU = config.mu_value
C = config.units.c_light

# Same scenario as the all-optical round-trip demo.
truth = KeplerianElements(a=0.92, e=0.19, i=0.06, Omega=1.2, omega=0.7,
                          ell=0.4, epoch=53100.0)
eph = circular_observer(1.0, MU)
t1, t2 = 53105.0, 53287.0

att1 = synthesize_optical_attributable(truth, eph, t1, MU, C)
att2 = synthesize_optical_attributable(truth, eph, t2, MU, C)
obs1 = CartesianState(*eph.state(t1), t1)
obs2 = CartesianState(*eph.state(t2), t2)

# --- sample the four curves -------------------------------------------------
grids = emit_curve_samples(att1, att2, obs1, obs2, config=config,
                           directory="curve_data",
                           bounds=((0.02, 3.0), (0.02, 3.0)), n=201)
print("CSV samples written:")
for name, path in grids["paths"].items():
    print(f"  {name:10s} -> {path}")

# --- count intersections with the q-curve ------------------------------------
# count_zero_intersections clusters adjacent sign-change cells, so one
# geometric crossing counts once at this resolution.

n_p = count_zero_intersections(grids["q"], grids["p"])
n_lenz = count_zero_intersections(grids["q"], grids["lenz"])
n_energy = count_zero_intersections(grids["q"], grids["energy_sq"])

print(f"\nintersections with the angular-momentum curve q = 0:")
print(f"  q ^ p          {n_p}")
print(f"  q ^ lenz       {n_lenz}")
print(f"  q ^ energy_sq  {n_energy}   (squaring adds spurious crossings)")

# --- where the solver's roots actually land ----------------------------------
solutions = link_optical(att1, att2, obs1, obs2, config)
x, y = grids["rho1"], grids["rho2"]
step = x[1] - x[0]

print(f"\nsolver returned {len(solutions)} candidate(s); "
      f"grid step {step:.4f} au")
for sol in solutions:
    # nearest grid node and the q/p values there: both should be tiny
    # compared to the values a step away, i.e. the point sits on both curves
    i = int(np.argmin(np.abs(x - sol.rho1)))
    j = int(np.argmin(np.abs(y - sol.rho2)))
    print(f"  candidate ({sol.rho1:.4f}, {sol.rho2:.4f}): "
          f"nearest node ({x[i]:.4f}, {y[j]:.4f})  "
          f"q={grids['q'][i, j]:+.2e}  p={grids['p'][i, j]:+.2e}")

print("\ncolumns in each CSV: rho1,rho2,value  (one row per grid node)")
