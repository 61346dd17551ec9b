import json
import tracemalloc
import warnings

import numpy as np
import pytest

from homogenize.cli import run
from homogenize.diffusivity import (DIAGNOSTICS, corrector, effective_matrices,
                                    effective_matrix, effective_quadratic,
                                    identity_residuals, worst)
from homogenize.environment import (BondField, DisorderLaw, GeometryMismatchError,
                                    TorusGeometry, rng_for, sample_environment)
from homogenize.operators import div_star, grad, local_drift, mean_rho
from homogenize.solver import dense_solve
from oracles import one_d_exact

TWO_SITE = BondField(TorusGeometry(1, 1), 2.0, np.array([[2.0, 1.0]]))
UNIFORM = DisorderLaw.uniform(0.5, 2.0)
TOL = 1e-10


def test_corrector_constant_environment():
    fld = sample_environment(DisorderLaw.constant(1.0), TorusGeometry(2, 2), 0)
    chi = corrector(fld, [1.0, 0.0]).solution
    assert np.abs(chi).max() <= 1e-12


def test_corrector_two_site():
    chi = corrector(TWO_SITE, [1.0]).solution
    assert np.allclose(chi, [1 / 6, -1 / 6])
    psi = grad(chi)
    assert np.allclose(psi, [[-1 / 3, 1 / 3]])


def test_corrector_linearity():
    fld = sample_environment(UNIFORM, TorusGeometry(2, 2), 3)
    v = np.array([0.7, -0.2])
    chi1 = corrector(fld, v, tol=TOL).solution
    chi2 = corrector(fld, 2 * v, tol=TOL).solution
    assert np.linalg.norm(chi2 - 2 * chi1) <= 10 * TOL * np.linalg.norm(chi1)


def test_corrector_gradient_zero_mean():
    fld = sample_environment(UNIFORM, TorusGeometry(2, 3), 4)
    psi = grad(corrector(fld, [1.0, 2.0]).solution)
    for comp in psi:
        assert abs(mean_rho(comp)) <= 1e-14 * max(1.0, np.abs(psi).max())


def test_effective_quadratic_constant():
    for a in (1.0, 1.7):
        fld = sample_environment(DisorderLaw.constant(a), TorusGeometry(2, 2), 0)
        val = effective_quadratic(fld, [1.0, 0.0])
        assert val == pytest.approx(2 * a, abs=1e-12)


def test_effective_quadratic_two_site():
    val = effective_quadratic(TWO_SITE, [1.0])
    assert val == pytest.approx(8 / 3, abs=1e-12)


def test_effective_quadratic_upper_bound():
    # taking f = 0 in the variational formula bounds the infimum
    for seed in range(5):
        fld = sample_environment(UNIFORM, TorusGeometry(2, 2), seed)
        v = rng_for(seed, 1).normal(size=2)
        val = effective_quadratic(fld, v, tol=TOL)
        naive = 2 * sum(mean_rho(fld.rates[i]) * v[i] ** 2 for i in range(2))
        assert val <= naive + 10 * TOL


def test_variational_bound_random_trial_functions():
    fld = sample_environment(UNIFORM, TorusGeometry(2, 2), 7)
    v = np.array([1.0, 0.5])
    val = effective_quadratic(fld, v, tol=TOL)
    rng = rng_for(77)
    for _ in range(50):
        f = rng.normal(size=fld.geometry.grid_shape)
        w = v.reshape(2, 1, 1) + grad(f)
        trial = 2 * sum(mean_rho(fld.rates[i] * w[i] ** 2) for i in range(2))
        assert trial >= val - 10 * TOL


def test_monotonicity_in_the_medium():
    for seed in range(5):
        fld = sample_environment(UNIFORM, TorusGeometry(2, 2), seed + 40)
        raised = BondField(fld.geometry, fld.ellipticity,
                           np.minimum(fld.rates * 1.3, fld.ellipticity))
        v = [1.0, -0.3]
        low = effective_quadratic(fld, v, tol=TOL)
        high = effective_quadratic(raised, v, tol=TOL)
        assert low <= high + 10 * TOL


@pytest.mark.parametrize("d", [1, 2, 3])
def test_effective_matrix_constant(d):
    fld = sample_environment(DisorderLaw.constant(1.3), TorusGeometry(d, 2), 0)
    mat = effective_matrix(fld)
    assert np.allclose(mat.entries, 2 * 1.3 * np.eye(d), atol=1e-12)


def test_effective_matrix_one_d_oracle():
    for seed in range(10):
        fld = sample_environment(DisorderLaw.two_point(0.5, 2.0), TorusGeometry(1, 4),
                                 seed)
        mat = effective_matrix(fld)
        exact = one_d_exact(fld)
        assert mat.entries[0, 0] == pytest.approx(exact, rel=1e-8)
        assert mat.linear_form_entries[0, 0] == pytest.approx(exact, rel=1e-8)


def test_effective_matrix_consistency_and_bounds():
    fld = sample_environment(UNIFORM, TorusGeometry(2, 2), 11)
    c = fld.ellipticity
    mat = effective_matrix(fld, tol=TOL)
    # symmetry, two identities agree
    assert np.allclose(mat.entries, mat.entries.T)
    assert np.allclose(mat.entries, mat.linear_form_entries, rtol=1e-8)
    # quadratic form matches the direct route
    v = np.array([1.0, 1.0])
    direct = effective_quadratic(fld, v, tol=TOL)
    assert mat.quadratic_form(v) == pytest.approx(direct, rel=1e-7)
    # the matrix path and the single-vector paths agree per basis vector
    for j, e_j in enumerate(np.eye(2)):
        alone, = identity_residuals(
            [fld], [e_j], grad(corrector(fld, e_j, tol=TOL).solution)[:, None])
        assert mat.diagnostics[j] == alone
        assert mat.entries[j, j] == pytest.approx(
            effective_quadratic(fld, e_j, tol=TOL), rel=1e-12)
    # spectral bounds from the variational formula
    eigs = np.linalg.eigvalsh(mat.entries)
    assert eigs.min() >= 2 / c - 1e-8
    assert eigs.max() <= 2 * c + 1e-8


@pytest.mark.parametrize("d,N", [(1, 4), (2, 4), (2, 8), (2, 64), (3, 2), (3, 4)])
def test_effective_quadratic_is_the_matrix_diagonal_bit_for_bit(d, N):
    # (e_j, D_N e_j) is the 1 x 1 Gram entry over e_j: the same products,
    # summed in the same order, as entry [j, j] of the basis Gram matrix
    law = DisorderLaw.uniform(0.2, 5.0)
    for seed in range(5):
        fld = sample_environment(law, TorusGeometry(d, N), seed)
        diagonal = effective_matrix(fld).entries.diagonal().tolist()
        assert [effective_quadratic(fld, e) for e in np.eye(d)] == diagonal


def test_effective_matrices_over_directions_is_their_gram_matrix():
    fld = sample_environment(UNIFORM, TorusGeometry(2, 4), 5)
    other = sample_environment(UNIFORM, TorusGeometry(2, 4), 6)
    U = np.array([[1.0, 0.5], [-0.3, 2.0], [0.0, 1.0]])
    cols = next(effective_matrices([fld, other], 1e-12, U))
    assert cols["entries"].shape == cols["linear_form_entries"].shape == (2, 3, 3)
    assert cols["diagnostics"].shape == (2, 3)
    for f, field in enumerate([fld, other]):
        mat = effective_matrix(field, tol=1e-12)
        # correctors are linear in their direction: U D U^T up to the solves
        assert np.allclose(cols["entries"][f], U @ mat.entries @ U.T,
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(cols["linear_form_entries"][f],
                           U @ mat.linear_form_entries @ U.T, rtol=1e-9, atol=1e-9)
        reports = [corrector(field, u, tol=1e-12) for u in U]
        assert cols["iterations"][f] == sum(rep.iterations for rep in reports)
        for j, (u, rep) in enumerate(zip(U, reports)):
            alone, = identity_residuals([field], [u], grad(rep.solution)[:, None])
            assert cols["diagnostics"][f, j] == alone


@pytest.mark.parametrize("d,N", [(1, 8), (2, 4), (3, 2)])
def test_voigt_reuss_window(d, N):
    # 2 diag(1/mean(1/xi_i)) <= D_N <= 2 diag(mean xi_i) in the Loewner order
    axes = tuple(range(1, d + 1))
    for law in (DisorderLaw.uniform(0.2, 5.0), DisorderLaw.two_point(0.1, 10.0)):
        for seed in range(4):
            fld = sample_environment(law, TorusGeometry(d, N), seed)
            reuss = np.diag(2.0 / np.mean(1.0 / fld.rates, axis=axes))
            voigt = np.diag(2.0 * np.mean(fld.rates, axis=axes))
            entries = effective_matrix(fld, tol=TOL).entries
            slack = 1e-12 * np.abs(voigt).max()
            assert np.linalg.eigvalsh(entries - reuss).min() >= -slack
            assert np.linalg.eigvalsh(voigt - entries).min() >= -slack
            if d == 1:
                # the lower bound is the d = 1 closed form: equality
                assert entries[0, 0] == pytest.approx(reuss[0, 0], rel=1e-12)


def test_one_d_exact_values():
    assert one_d_exact(BondField(TorusGeometry(1, 1), 2.0,
                                 np.array([[2.0, 1.0]]))) == pytest.approx(8 / 3)
    assert one_d_exact(BondField(TorusGeometry(1, 1), 2.0,
                                 np.array([[0.5, 2.0]]))) == pytest.approx(1.6)
    const = sample_environment(DisorderLaw.constant(1.4), TorusGeometry(1, 4), 0)
    assert one_d_exact(const) == pytest.approx(2.8)
    with pytest.raises(ValueError):
        one_d_exact(sample_environment(UNIFORM, TorusGeometry(2, 2), 0))


def test_identity_residuals_constant_environment():
    fld = sample_environment(DisorderLaw.constant(1.0), TorusGeometry(2, 2), 0)
    psi = grad(corrector(fld, [1.0, 0.0]).solution)
    diag, = identity_residuals([fld], [[1.0, 0.0]], psi[:, None])
    assert diag["orthogonality_residual"] <= 1e-12
    assert diag["curl_residual"] <= 1e-12
    assert diag["flux_divergence_residual"] <= 1e-12
    assert np.all(diag["lp_norms"] <= 1e-12)


def test_identity_residuals_two_site_constant_flux():
    chi = corrector(TWO_SITE, [1.0]).solution
    psi = grad(chi)
    flux = TWO_SITE.rates[0] * (1.0 + psi[0])
    assert np.allclose(flux, 4 / 3)
    diag, = identity_residuals([TWO_SITE], [[1.0]], psi[:, None])
    assert diag["flux_divergence_residual"] <= 1e-12
    assert diag["quadratic_linear_gap"] <= 1e-12
    assert diag["curl_residual"] == 0.0  # no mixed pairs in d = 1


@pytest.mark.parametrize("d,N", [(1, 4), (2, 2), (3, 2)])
def test_identity_residual_thresholds(d, N):
    c = UNIFORM.ellipticity()
    for seed in range(5):
        fld = sample_environment(UNIFORM, TorusGeometry(d, N), seed + 60)
        v = rng_for(seed, d, 5).normal(size=d)
        vnorm = np.linalg.norm(v)
        psi = grad(corrector(fld, v, tol=TOL).solution)
        diag, = identity_residuals([fld], [v], psi[:, None])
        assert diag["orthogonality_residual"] <= 100 * TOL * vnorm ** 2 * c
        assert diag["curl_residual"] <= 1e-12
        assert diag["flux_divergence_residual"] <= 100 * TOL * c * vnorm
        # the a-priori L2 bound max_i mean(psi_i^2) <= c^2 |v|^2
        assert c ** 2 * (v @ v) - max(mean_rho(psi[i] ** 2)
                                      for i in range(d)) >= -1e-8
        assert diag["quadratic_linear_gap"] <= 100 * TOL * c * vnorm ** 2


def test_stacked_diagnostics_fail_member_by_member():
    # one stack of correctors, member bad scaled by 1.1: it alone trips the
    # criterion-4 thresholds, and its stack-mates read as they do alone.
    # With as many members as directions (M = d = 2) a psi stacked member
    # first has the shape of one stacked direction first: only the
    # member-by-member equality tells the two layouts apart.
    c = UNIFORM.ellipticity()
    for members, bad in ((4, 2), (2, 1)):
        flds = [sample_environment(UNIFORM, TorusGeometry(2, 3), seed + 70)
                for seed in range(members)]
        v = rng_for(7, 2, 3).normal(size=(members, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        psi = np.stack([grad(corrector(fld, vm, tol=TOL).solution)
                        for fld, vm in zip(flds, v)], axis=1)
        psi[:, bad] *= 1.1
        diags = identity_residuals(flds, v, psi)
        assert diags.shape == (members,) and diags.dtype == DIAGNOSTICS
        for m, diag in enumerate(diags):
            tripped = (diag["flux_divergence_residual"] > 100 * TOL * c
                       or diag["orthogonality_residual"] > 100 * TOL * c)
            assert tripped == (m == bad)
            if m != bad:
                assert diag == identity_residuals([flds[m]], v[m:m + 1],
                                                  psi[:, m:m + 1])[0]


WIDE = DisorderLaw.uniform(0.2, 5.0)


def _quadratic(fld, v, psi):
    """(v, D_N v) of the corrector gradient psi: 2 sum_i mean(xi_i (v_i + psi_i)^2)."""
    return 2.0 * sum(mean_rho(fld.rates[i] * (v[i] + psi[i]) ** 2)
                     for i in range(fld.dimension))


@pytest.mark.parametrize("d,N", [(1, 32), (2, 8), (2, 16), (3, 4)])
def test_certificate_bounds_the_solve_error(d, N):
    # 0 <= computed (e_j, D_N e_j) - exact <= certificate, the exact value from
    # the dense oracle's corrector.  At tol 1e-10 the solve error (about
    # 1e-20) sinks below the rounding of the form itself, so loose tols only.
    ratios = []
    for seed in (0, 1):
        fld = sample_environment(WIDE, TorusGeometry(d, N), seed)
        exact = [_quadratic(fld, e, grad(dense_solve(fld, local_drift(fld, e))))
                 for e in np.eye(d)]
        for tol in (1e-4, 1e-6):
            mat = effective_matrix(fld, tol=tol)
            for j in range(d):
                error = mat.entries[j, j] - exact[j]
                cert = mat.diagnostics[j]["certificate"]
                assert 0.0 <= error <= cert, (seed, tol, j, error, cert)
                ratios.append(cert / error)
    # a bound, and a tight one: within about an order of magnitude
    assert max(ratios) < 20.0, max(ratios)


def test_certificate_trips_on_a_scaled_corrector():
    fld = sample_environment(WIDE, TorusGeometry(2, 8), 0)
    v = np.array([1.0, 0.0])
    psi = grad(corrector(fld, v, tol=TOL).solution)
    exact = _quadratic(fld, v, grad(dense_solve(fld, local_drift(fld, v))))
    solved, = identity_residuals([fld], [v], psi[:, None])
    scaled, = identity_residuals([fld], [v], 1.1 * psi[:, None])
    error = _quadratic(fld, v, 1.1 * psi) - exact
    assert solved["certificate"] <= 1e-18
    assert 1e-3 <= error <= scaled["certificate"], (error, scaled["certificate"])


def test_certificate_is_bit_identical_at_every_stack_width(monkeypatch):
    from homogenize import solver
    fields = [sample_environment(WIDE, TorusGeometry(2, 2), seed) for seed in range(64)]
    certs = {}
    for width in (1, 4, 64):   # members per stack: 16 sites a member
        monkeypatch.setattr(solver, "STACK_SITES", 16 * width)
        certs[width] = np.concatenate([cols["diagnostics"]["certificate"]
                                       for cols in effective_matrices(fields, 1e-6)])
    assert certs[1].shape == (64, 2) and (certs[1] > 0).all()
    assert certs[4].tobytes() == certs[1].tobytes()
    assert certs[64].tobytes() == certs[1].tobytes()


@pytest.mark.parametrize("d,N", [(1, 1), (1, 5), (2, 1), (2, 3), (3, 2)])
def test_certificate_is_the_parseval_form(d, N):
    # (2c / vol) <r, (-Delta)^+ r>, r = div*(xi (v + psi)), by a full complex
    # FFT round trip over the symbol sum_i 4 sin^2(pi k_i / 2N)
    fld = sample_environment(WIDE, TorusGeometry(d, N), 7)
    v = rng_for(7, d).normal(size=d)
    psi = grad(corrector(fld, v, tol=1e-4).solution)
    diag, = identity_residuals([fld], [v], psi[:, None])
    r = div_star(fld.rates * (v.reshape((d,) + (1,) * d) + psi))
    k = np.pi * np.arange(2 * N) / (2 * N)
    symbol = sum(np.ix_(*[4.0 * np.sin(k) ** 2] * d))
    spectrum = np.fft.fftn(r)
    np.divide(spectrum, symbol, out=spectrum, where=symbol > 0)
    spectrum[(0,) * d] = 0.0
    form = 2.0 * fld.ellipticity / r.size * float(np.vdot(r, np.fft.ifftn(spectrum).real))
    assert diag["certificate"] > 0
    assert abs(diag["certificate"] - form) <= 8 * np.spacing(form)


@pytest.mark.parametrize("d,N", [(1, 4), (2, 1)])
def test_identity_residuals_reject_a_wrong_layout(d, N):
    fld = sample_environment(UNIFORM, TorusGeometry(d, N), 3)
    v = np.eye(d)[:1]
    psi = grad(corrector(fld, v[0], tol=TOL).solution)[:, None]
    # no member axis on psi, then on v; one member too many; member first
    # (the same shape as direction first when d = 1)
    cases = [(v, psi[:, 0]), (v[0], psi), (np.vstack([v, v]), psi)]
    for bad_v, bad_psi in cases + [(v, psi.swapaxes(0, 1))] * (d > 1):
        with pytest.raises(GeometryMismatchError, match=r"\(d, M, \*grid\)"):
            identity_residuals([fld], bad_v, bad_psi)


def test_effective_matrix_memory_per_site():
    # MAX_SITES in environment.py rests on the d = 3 figure; a corrector
    # waiting for its field's last sibling holds one grid, not d
    for d, N, bound in [(3, 12, 90), (2, 64, 77)]:
        fld = sample_environment(UNIFORM, TorusGeometry(d, N), 5)
        # numpy's FFT plan for this side is built outside the trace
        np.fft.irfftn(np.fft.rfftn(np.zeros(fld.geometry.grid_shape)))
        tracemalloc.start()
        try:
            effective_matrix(fld, tol=TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / fld.geometry.volume < bound, (d, N)


def test_matrix_serialization(tmp_path):
    config = {"geometry": {"dimension": 2, "half_period": 2},
              "law": UNIFORM.to_json(), "seed": 2}
    [path] = run("diffusivity", config, tmp_path)
    doc = json.loads(path.read_text())["effective_matrix"]
    assert np.asarray(doc["entries"]).shape == (2, 2)
    assert len(doc["diagnostics"]) == 2
    assert doc["iterations"] > 0
    diag = doc["diagnostics"][0]
    # the artifact sorts its keys
    assert list(diag) == sorted(DIAGNOSTICS.names)
    assert list(diag["lp_norms"]) == ["2.0", "2.5", "3.0", "4.0"]


def test_worst_takes_the_largest_of_every_diagnostic():
    # two records of d = 2 correctors each; every row reduces on its own,
    # every field by max
    diags = np.zeros((2, 2), DIAGNOSTICS)
    diags[0] = [(1e-3, 0.0, 2.0, 5.0, 1.0, (2.0, 2.5, 3.0, 4.0)),
                (1e-4, 1e-16, 3.0, 4.0, 0.5, (5.0, 4.5, 4.0, 3.0))]
    diags[1] = [(7.0, 1.0, 0.5, -1.0, 0.0, (1.0, 9.0, 1.0, 9.0)),
                (8.0, 0.0, 0.25, 2.0, 3.0, (9.0, 1.0, 9.0, 1.0))]
    got = worst(diags)
    assert got.shape == (2,) and got.dtype == DIAGNOSTICS
    assert got[0] == np.array((1e-3, 1e-16, 3.0, 5.0, 1.0, (5.0, 4.5, 4.0, 4.0)),
                              DIAGNOSTICS)
    assert got[1] == np.array((8.0, 1.0, 0.5, 2.0, 3.0, (9.0, 9.0, 9.0, 9.0)),
                              DIAGNOSTICS)
    for name in DIAGNOSTICS.names:
        assert np.array_equal(got[name], diags[name].max(axis=1))


def test_quadratic_form_refuses_what_drift_vector_refuses():
    # a NaN direction is refused, not read off the matrix as nan
    mat = effective_matrix(sample_environment(UNIFORM, TorusGeometry(2, 2), 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="drift vector must be finite"):
            mat.quadratic_form([np.nan, 0.0])
        with pytest.raises(ValueError, match=r"shape \(3,\), expected \(2,\)"):
            mat.quadratic_form([1.0, 0.0, 0.0])
