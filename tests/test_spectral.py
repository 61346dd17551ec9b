import json

import numpy as np
import pytest

from homogenize.cli import run
from homogenize.diffusivity import effective_matrix, effective_quadratic
from homogenize.environment import (BondField, DisorderLaw, TorusGeometry,
                                    sample_environment)
from homogenize.operators import grad, local_drift, mean_rho
from homogenize.solver import SizeGuardError, dense_solve
from homogenize.spectral import (diffusivity_via_spectrum, semigroup_moment,
                                 semigroup_moment_mc, spectral_measure)

TWO_SITE = BondField(TorusGeometry(1, 1), 2.0, np.array([[2.0, 1.0]]))
UNIFORM = DisorderLaw.uniform(0.5, 2.0)


def test_constant_environment_has_no_mass():
    fld = sample_environment(DisorderLaw.constant(1.0), TorusGeometry(2, 2), 0)
    meas = spectral_measure(fld, [1.0, 0.0])
    assert meas.total_mass <= 1e-24


def test_two_site_single_atom():
    meas = spectral_measure(TWO_SITE, [1.0])
    heavy = meas.weights > 1e-12
    assert heavy.sum() == 1
    assert meas.eigenvalues[heavy][0] == pytest.approx(6.0)
    assert meas.weights[heavy][0] == pytest.approx(1.0)


def test_total_mass_is_drift_mean_square():
    for seed in range(5):
        fld = sample_environment(UNIFORM, TorusGeometry(2, 2), seed)
        v = [1.0, -0.5]
        meas = spectral_measure(fld, v)
        phi2 = mean_rho(local_drift(fld, v) ** 2)
        assert meas.total_mass == pytest.approx(phi2, abs=1e-12 * max(phi2, 1))
        assert meas.kernel_mass <= 1e-12 * max(meas.total_mass, 1e-30)


def test_diffusivity_via_spectrum_two_site():
    meas = spectral_measure(TWO_SITE, [1.0])
    assert diffusivity_via_spectrum(meas) == pytest.approx(8 / 3)


def test_spectral_route_matches_corrector_route():
    for seed in range(10):
        fld = sample_environment(UNIFORM, TorusGeometry(2, 2), seed + 30)
        v = np.array([1.0, 0.0])
        quad = effective_quadratic(fld, v, tol=1e-12)
        meas = spectral_measure(fld, v)
        spec = diffusivity_via_spectrum(meas)
        assert spec == pytest.approx(quad, rel=1e-8)
        assert meas.voigt == 2.0 * sum(mean_rho(fld.rates[i]) * v[i] ** 2
                                       for i in range(2))
        assert spec <= meas.voigt


def dense_matrix(fld):
    """D_N from correctors solved by the dense oracle dense_solve."""
    d = fld.dimension
    eye = np.eye(d)
    fluxes = [eye[:, j].reshape((d,) + (1,) * d)
              + grad(dense_solve(fld, local_drift(fld, eye[j])))
              for j in range(d)]
    return np.array([[2.0 * np.mean(np.sum(fld.rates * fluxes[i] * fluxes[j],
                                           axis=0))
                      for j in range(d)] for i in range(d)])


@pytest.mark.parametrize("lo", [1e-2, 1e-6, 1e-9, 1e-11])
def test_eigen_routes_match_cg_across_contrast(lo):
    """eigh is backward stable, so each eigenvalue is off by about
    eps * lambda_max (Weyl), and 1 / lambda_1, the largest term either
    eigen route sums, by eps * lambda_max / lambda_1 relative; CG stops at
    relative residual tol.  Both routes must agree with CG within the sum."""
    tol = 1e-12
    law = DisorderLaw.two_point(lo, 1.0, 0.5)
    for seed in range(3):
        fld = sample_environment(law, TorusGeometry(2, 8), seed)
        meas = spectral_measure(fld, [1.0, 0.0])
        lam = meas.eigenvalues
        bound = np.finfo(float).eps * lam[-1] / lam[1] + tol
        cg = effective_matrix(fld, tol=tol).entries
        spec = diffusivity_via_spectrum(meas)
        assert abs(spec - cg[0, 0]) <= bound * cg[0, 0]
        assert np.abs(dense_matrix(fld) - cg).max() <= bound * np.abs(cg).max()


def test_eigen_routes_refuse_an_unresolved_spectrum():
    """At rates 1e-16 against 1 atom 1 of -L is within eps * lambda_max of
    0: no digit of 1 / lambda_1 is certain, and both routes refuse."""
    fld = sample_environment(DisorderLaw.two_point(1e-16, 1.0, 0.5),
                             TorusGeometry(2, 8), 0)
    meas = spectral_measure(fld, [1.0, 0.0])
    assert meas.eigenvalues[1] <= np.finfo(float).eps * meas.max_eigenvalue
    with pytest.raises(SizeGuardError, match="eps"):
        diffusivity_via_spectrum(meas)
    with pytest.raises(SizeGuardError, match="eps"):
        dense_solve(fld, local_drift(fld, [1.0, 0.0]))


def test_size_guard():
    fld = sample_environment(DisorderLaw.constant(1.0), TorusGeometry(3, 9), 0)
    with pytest.raises(SizeGuardError):
        spectral_measure(fld, [1.0, 0.0, 0.0])


def test_semigroup_moment_values():
    meas = spectral_measure(TWO_SITE, [1.0])
    assert semigroup_moment(meas, 0.0) == pytest.approx(
        mean_rho(local_drift(TWO_SITE, [1.0]) ** 2))
    assert semigroup_moment(meas, 1.0) == pytest.approx(np.exp(-6))
    assert semigroup_moment(meas, 50.0) <= 1e-100
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            semigroup_moment(meas, bad)


def test_semigroup_moment_completely_monotone():
    fld = sample_environment(UNIFORM, TorusGeometry(2, 2), 5)
    grid = np.arange(0.0, 5.5, 0.5)
    meas = spectral_measure(fld, [1.0, 0.0])
    vals = np.array([semigroup_moment(meas, n) for n in grid])
    diff1 = np.diff(vals)
    diff2 = np.diff(diff1)
    assert np.all(diff1 <= 1e-15)
    assert np.all(diff2 >= -1e-15)


def test_semigroup_moment_mc_constant_environment():
    fld = sample_environment(DisorderLaw.constant(1.0), TorusGeometry(2, 2), 0)
    est, _ = semigroup_moment_mc(fld, [1.0, 0.0], 1.0, walkers=100, seed=0)
    assert est == 0.0


def test_semigroup_moment_mc_two_site():
    exact = semigroup_moment(spectral_measure(TWO_SITE, [1.0]), 1.0)
    est, se = semigroup_moment_mc(TWO_SITE, [1.0], 1.0, walkers=100_000, seed=1)
    assert abs(est - exact) <= 3 * se


def test_semigroup_moment_mc_n_zero():
    fld = sample_environment(UNIFORM, TorusGeometry(2, 2), 9)
    exact = mean_rho(local_drift(fld, [1.0, 0.0]) ** 2)
    est, se = semigroup_moment_mc(fld, [1.0, 0.0], 0.0, walkers=50_000, seed=2)
    assert abs(est - exact) <= 3 * se
    with pytest.raises(ValueError):
        semigroup_moment_mc(fld, [1.0, 0.0], 1.0, walkers=0)


def test_measure_serialization(tmp_path):
    config = {"geometry": {"dimension": 1, "half_period": 1},
              "law": UNIFORM.to_json(), "seed": 0}
    [path] = run("spectral", config, tmp_path)
    doc = json.loads(path.read_text())["spectral_measure"]
    assert len(doc["atoms"]) == 2
    assert all(len(atom) == 2 for atom in doc["atoms"])
