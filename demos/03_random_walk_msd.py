"""Cross-check the corrector route against an exact continuous-time walk.

The walker jumps across bond (x, x+e_i) at rate xi_i(x); its mean-square
displacement per unit time converges to (v, D_N v).  This is the one check
that does not go through any linear algebra, so it arbitrates the overall
normalization of the effective matrix.
"""

import numpy as np

from homogenize import (DisorderLaw, TorusGeometry, WalkConfig,
                        effective_quadratic, msd_estimate, sample_environment)

fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 4),
                         seed=602)
v = np.array([1.0, 0.0])

quad = effective_quadratic(fld, v)
print(f"corrector route:  (v, D_N v) = {quad:.5f}")

config = WalkConfig(t=200.0, walkers=50_000, seed=1)
est, se = msd_estimate(fld, v, config)
z = (est - quad) / se
print(f"walker route:     mean (X_t.v)^2 / t = {est:.5f} +/- {se:.5f}")
print(f"agreement:        z = {z:+.2f} standard errors "
      f"({config.walkers} walkers to t = {config.t})")

# the estimator carries an O(1/t) bias; halving t roughly doubles it
short = WalkConfig(t=25.0, walkers=50_000, seed=2)
est_short, se_short = msd_estimate(fld, v, short)
print(f"\nshorter horizon t = {short.t}: estimate {est_short:.5f} "
      f"+/- {se_short:.5f} (bias grows as the horizon shrinks)")
