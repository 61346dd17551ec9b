"""Spectral view: the drift's energy across the eigenmodes of -L.

The quadratic form splits as (v, D_N v) = 2 mean(xi) |v|^2 - 2 sum w_k / r_k
over the spectral atoms (r_k, w_k) of the local drift.  Semigroup moments
sum w_k e^{-n r_k} are completely monotone in n and can also be estimated
by a walker average, giving a third independent route.
"""

import numpy as np

from homogenize import (DisorderLaw, TorusGeometry, diffusivity_via_spectrum,
                        effective_quadratic, sample_environment,
                        semigroup_moment, semigroup_moment_mc,
                        spectral_measure)

fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2),
                         seed=11)
v = np.array([1.0, 0.0])

meas = spectral_measure(fld, v)
print(f"atoms: {meas.weights.size}  total mass {meas.total_mass:.5f}  "
      f"largest eigenvalue {meas.max_eigenvalue:.3f}")
print(f"mass on the kernel (must vanish): {meas.kernel_mass:.2e}")

quad = effective_quadratic(fld, v)
spec = diffusivity_via_spectrum(meas)
print(f"\ncorrector route {quad:.10f}")
print(f"spectral route  {spec:.10f}   gap {abs(spec - quad):.2e}")

print("\nsemigroup moments (completely monotone in n):")
for n in (0.0, 0.5, 1.0, 2.0, 4.0):
    print(f"  n = {n:3}: {semigroup_moment(meas, n):.6f}")

est, se = semigroup_moment_mc(fld, v, 1.0, walkers=100_000, seed=3)
exact = semigroup_moment(meas, 1.0)
print(f"\nMonte Carlo at n = 1: {est:.6f} +/- {se:.6f} "
      f"(exact {exact:.6f}, z = {(est - exact) / se:+.2f})")
