"""Three stability views: surface tension, resolvent limit, Hamming edits.

The surface tension sigma_N(v) -- the per-site cost of tilting the harmonic
interface by slope v, minimized by Laplacian-preconditioned Barzilai-Borwein
descent rather than conjugate gradients -- must equal a quarter of the
quadratic form.  The descent borrows only CG's preconditioner, as a search
direction: its energy, gradient and stop rule are its own, so a wrong
preconditioner could slow it but not move the minimizer, and the check stays
independent of CG.  The resolvent solution chi_lambda converges to the
corrector as lambda -> 0.  And resampling a handful of bonds moves D_N only
slightly, less so on larger tori.
"""

import numpy as np

from homogenize import (DisorderLaw, TorusGeometry, hamming_sensitivity,
                        resolvent_convergence, sample_environment,
                        surface_tension)

law = DisorderLaw.uniform(0.5, 2.0)
fld = sample_environment(law, TorusGeometry(2, 4), seed=3001)
v = np.array([1.0, 0.0])

sigma, quarter, gap = surface_tension(fld, v)
print(f"surface tension sigma_N = {sigma:.8f}")
print(f"quarter form  (D_N v,v)/4 = {quarter:.8f}   gap {gap:.2e}")

print("\nresolvent route (lambda - L) u = drift, gradient gap to the corrector:")
for row in resolvent_convergence(fld, v, [1.0, 0.1, 0.01, 1e-4, 1e-8]):
    print(f"  lambda = {row['lam']:<8g} discrepancy {row['discrepancy']:.3e}")

print("\nsingle-bond Hamming sensitivity of D_N^11 (40 trials each):")
for n in (4, 8):
    big = sample_environment(law, TorusGeometry(2, n), seed=42)
    out = hamming_sensitivity(big, v, perturb_counts=(1,), trials=40,
                              law=law, seed=7)
    print(f"  side {2 * n:>2}: median |delta D| = {out['medians'][1]:.3e}")
print("(the response shrinks with volume: one bond matters less and less)")
