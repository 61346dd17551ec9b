import numpy as np
import pytest

from homogenize.environment import (BondField, DisorderLaw, TorusGeometry,
                                    rng_for, sample_environment)
from homogenize.operators import grad, local_drift, mean_rho
from homogenize.solver import (ConvergenceError, SizeGuardError, dense_operator,
                               dense_solve, solve_poisson, solve_resolvent)

TWO_SITE = BondField(TorusGeometry(1, 1), 2.0, np.array([[2.0, 1.0]]))


def random_instance(d, N, seed):
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(d, N), seed)
    rng = rng_for(seed, 99)
    g = rng.normal(size=fld.geometry.grid_shape)
    g -= g.mean()
    return fld, g


def test_zero_rhs():
    rep = solve_poisson(TWO_SITE, np.zeros(2))
    assert np.all(rep.solution == 0.0) and rep.iterations == 0


def test_two_site_poisson():
    rep = solve_poisson(TWO_SITE, np.array([1.0, -1.0]))
    assert np.allclose(rep.solution, [1 / 6, -1 / 6])
    assert abs(mean_rho(rep.solution)) <= 1e-14


def test_two_site_resolvent():
    rep = solve_resolvent(TWO_SITE, np.array([1.0, -1.0]), 1.0)
    assert np.allclose(rep.solution, [1 / 7, -1 / 7])


def test_resolvent_constant_rhs():
    fld, _ = random_instance(2, 2, 0)
    g = np.full(fld.geometry.grid_shape, 3.0)
    rep = solve_resolvent(fld, g, 0.5)
    assert np.allclose(rep.solution, 6.0)


def test_resolvent_large_lambda_neumann_bound():
    from homogenize.operators import apply_generator
    fld, g = random_instance(2, 2, 1)
    lam = 1e6
    rep = solve_resolvent(fld, g, lam)
    bound = np.linalg.norm(apply_generator(fld, g)) / lam ** 2
    assert np.linalg.norm(rep.solution - g / lam) <= bound + 1e-12


def test_resolvent_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        solve_resolvent(TWO_SITE, np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        solve_resolvent(TWO_SITE, np.zeros(2), -1.0)


def test_poisson_rejects_nonzero_mean():
    with pytest.raises(ValueError):
        solve_poisson(TWO_SITE, np.array([1.0, 0.0]))


@pytest.mark.parametrize("d,N", [(1, 4), (2, 2), (3, 1)])
def test_matches_dense_oracle(d, N):
    for seed in range(5):
        fld, g = random_instance(d, N, seed)
        u_cg = solve_poisson(fld, g, tol=1e-12).solution
        u_dense = dense_solve(fld, g)
        assert np.linalg.norm(u_cg - u_dense) <= 1e-8 * np.linalg.norm(u_dense)


def test_dense_operator_symmetric_exactly():
    fld, _ = random_instance(2, 2, 7)
    mat = dense_operator(fld)
    assert np.array_equal(mat, mat.T)


def test_dense_guard():
    fld = sample_environment(DisorderLaw.constant(1.0), TorusGeometry(3, 9), 0)
    with pytest.raises(SizeGuardError):
        dense_operator(fld)


def test_iteration_cap_raises(monkeypatch):
    from homogenize import solver
    monkeypatch.setattr(solver, "_maxiter", lambda fld: 2)
    fld, g = random_instance(2, 4, 17)
    residuals = []
    for scale in (1.0, 1000.0):
        with pytest.raises(ConvergenceError) as exc:
            solve_poisson(fld, scale * g, tol=1e-14)
        assert exc.value.iterations == 2
        assert 0 < exc.value.residual < 1
        residuals.append(exc.value.residual)
    # the reported residual is relative: scaling g leaves it unchanged
    assert residuals[1] == pytest.approx(residuals[0], rel=1e-9)


def test_nonpositive_tolerance_rejected():
    g = np.array([1.0, -1.0])
    for tol in (0.0, -1.0):
        with pytest.raises(ValueError):
            solve_poisson(TWO_SITE, g, tol=tol)
        with pytest.raises(ValueError):
            solve_resolvent(TWO_SITE, g, 1.0, tol=tol)


def test_resolvent_to_poisson_limit():
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 23)
    phi = local_drift(fld, [1.0, 0.0])
    psi = grad(solve_poisson(fld, phi).solution)
    gaps = []
    for lam in (1.0, 0.1, 0.01, 0.001):
        chi_lam = solve_resolvent(fld, phi, lam).solution
        gaps.append(np.linalg.norm(grad(chi_lam) - psi))
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a * 1.05


def test_report_serialization():
    rep = solve_poisson(TWO_SITE, np.array([1.0, -1.0]))
    doc = rep.to_json()
    assert doc["residual_norm"] <= doc["tolerance_used"] * np.sqrt(2)
    assert set(doc) == {"iterations", "residual_norm", "tolerance_used"}
