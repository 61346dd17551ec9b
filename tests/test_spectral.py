import json

import numpy as np
import pytest

from homogenize.cli import run
from homogenize.diffusivity import effective_quadratic
from homogenize.environment import (BondField, DisorderLaw, TorusGeometry,
                                    sample_environment)
from homogenize.operators import local_drift, mean_rho
from homogenize.solver import SizeGuardError
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
    with pytest.raises(ValueError):
        semigroup_moment(meas, -1.0)


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
