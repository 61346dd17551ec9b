"""Compute the finite-volume effective diffusion matrix of one environment.

Draws i.i.d. uniform conductances on a 2d torus of side 16, solves the
corrector equation for each coordinate direction, and prints the resulting
matrix together with its exactness diagnostics.  The homogeneous case is
shown first as a sanity anchor: constant rate a gives exactly 2a times the
identity.
"""

import numpy as np

from homogenize import (DisorderLaw, TorusGeometry, effective_matrix,
                        sample_environment)
from homogenize.diffusivity import LP_EXPONENTS

# anchor: constant rates, no disorder, D = 2a I exactly
constant = sample_environment(DisorderLaw.constant(1.0), TorusGeometry(2, 4), 0)
print("homogeneous a=1:")
print(effective_matrix(constant).entries)

# a disordered medium: uniform rates on [1/2, 2]
law = DisorderLaw.uniform(0.5, 2.0)
fld = sample_environment(law, TorusGeometry(2, 8), seed=7)
mat = effective_matrix(fld)

print("\nuniform(1/2, 2), torus side 16:")
print(mat.entries)
print(f"asymmetry           {mat.asymmetry:.3e}")
print(f"CG iterations       {mat.iterations}")

diag = mat.diagnostics[0]
print("\ndiagnostics for the e1 corrector:")
print(f"orthogonality       {diag['orthogonality_residual']:.3e}")
print(f"curl residual       {diag['curl_residual']:.3e}")
print(f"flux divergence     {diag['flux_divergence_residual']:.3e}")
print(f"certificate         {diag['certificate']:.3e}  (bounds the solve's error in D_00)")
for p, norm in zip(LP_EXPONENTS, diag["lp_norms"]):
    print(f"gradient L{p} norm   {norm:.4f}")

eigs = np.linalg.eigvalsh(mat.entries)
c = law.ellipticity()
print(f"\neigenvalues {eigs}  within [2/c, 2c] = [{2 / c}, {2 * c}]")
