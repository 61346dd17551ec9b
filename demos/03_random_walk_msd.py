"""Cross-check the corrector route against an exact continuous-time walk.

The walker jumps across bond (x, x+e_i) at rate xi_i(x); its mean-square
displacement per unit time converges to (v, D_N v).  This is the one check
that does not go through any linear algebra, so it arbitrates the overall
normalization of the effective matrix.
"""

import numpy as np

from homogenize import (DisorderLaw, TorusGeometry, effective_quadratic,
                        msd_estimate, sample_environment)

fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 4),
                         seed=602)
v = np.array([1.0, 0.0])

quad = effective_quadratic(fld, v)
print(f"corrector route:  (v, D_N v) = {quad:.5f}")

t, walkers = 200.0, 50_000
est, se = msd_estimate(fld, v, t, walkers, seed=1)
z = (est - quad) / se
print(f"walker route:     mean (X_t.v)^2 / t = {est:.5f} +/- {se:.5f}")
print(f"agreement:        z = {z:+.2f} standard errors "
      f"({walkers} walkers to t = {t})")

# the estimator carries an O(1/t) bias; halving t roughly doubles it
t_short = 25.0
est_short, se_short = msd_estimate(fld, v, t_short, walkers, seed=2)
print(f"\nshorter horizon t = {t_short}: estimate {est_short:.5f} "
      f"+/- {se_short:.5f} (bias grows as the horizon shrinks)")
