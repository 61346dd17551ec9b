"""Acceptance gate: the twelve release criteria, one test each.

Criteria that rely on Monte Carlo use frozen seeds chosen once during a
pilot run; tolerances are the release thresholds, not the pilot values.
Each test prints a one-line summary so the log doubles as a report card.
"""

import time

import numpy as np
import pytest

from homogenize.diffusivity import (LP_EXPONENTS, corrector, effective_matrix,
                                    effective_quadratic, identity_residuals)
from homogenize.environment import (DisorderLaw, TorusGeometry,
                                    sample_environment)
from homogenize.operators import grad, mean_rho
from homogenize.experiments import (CampaignConfig, concentration_study,
                                    convergence_study, hamming_sensitivity,
                                    resolvent_convergence, run_campaign,
                                    surface_tension)
from homogenize.solver import DEFAULT_TOL, dense_solve, solve_poisson
from homogenize.spectral import (diffusivity_via_spectrum, semigroup_moment,
                                 semigroup_moment_mc, spectral_measure)
from homogenize.walker import msd_estimate
from homogenize.operators import local_drift
from oracles import one_d_exact

TWO_POINT = DisorderLaw.two_point(0.5, 2.0, 0.5)
UNIFORM = DisorderLaw.uniform(0.5, 2.0)


@pytest.fixture(scope="module")
def uniform_2d_campaign():
    """d=2 uniform(1/2,2) campaign shared by criteria 8 and 12."""
    cfg = CampaignConfig(UNIFORM, 2, (4, 8, 16), replicas=200, master_seed=0)
    return cfg, run_campaign(cfg)


def test_criterion_01_homogeneous_oracle():
    start = time.monotonic()
    for d in (1, 2, 3):
        for n in (2, 4):
            fld = sample_environment(DisorderLaw.constant(1.0),
                                     TorusGeometry(d, n), seed=0)
            mat = effective_matrix(fld).entries
            assert np.abs(mat - 2.0 * np.eye(d)).max() <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 1 pass: homogeneous D = 2I for d=1..3 ({elapsed:.2f}s)")


def test_criterion_02_one_d_exactness():
    start = time.monotonic()
    worst = 0.0
    for k in range(100):
        n = 4 if k % 2 == 0 else 64
        fld = sample_environment(TWO_POINT, TorusGeometry(1, n), seed=100 + k)
        exact = one_d_exact(fld)
        got = effective_matrix(fld).entries[0, 0]
        worst = max(worst, abs(got - exact) / abs(exact))
    elapsed = time.monotonic() - start
    assert worst <= 1e-8
    assert elapsed < 10.0
    print(f"criterion 2 pass: 1D harmonic-mean oracle, worst rel err "
          f"{worst:.2e} ({elapsed:.2f}s)")


def test_criterion_03_dense_vs_iterative():
    worst = 0.0
    for k in range(50):
        fld = sample_environment(UNIFORM, TorusGeometry(2, 2), seed=300 + k)
        phi = local_drift(fld, np.array([1.0, 0.0]))
        iterative = solve_poisson(fld, phi).solution
        dense = dense_solve(fld, phi)
        worst = max(worst, np.linalg.norm(iterative - dense)
                    / np.linalg.norm(dense))
    assert worst <= 1e-8
    print(f"criterion 3 pass: CG vs dense pseudo-inverse, worst rel err {worst:.2e}")


def test_criterion_04_identity_suite():
    rng = np.random.default_rng(4)
    checked = 0
    for d, n, count in ((1, 8, 100), (2, 4, 60), (3, 2, 40)):
        c = UNIFORM.ellipticity()
        for k in range(count):
            fld = sample_environment(UNIFORM, TorusGeometry(d, n),
                                     seed=400 + checked)
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            psi = grad(corrector(fld, v).solution)
            diag, = identity_residuals([fld], [v], psi[:, None])
            assert diag["orthogonality_residual"] <= 100 * DEFAULT_TOL * c
            assert diag["curl_residual"] <= 1e-12
            assert diag["flux_divergence_residual"] <= 100 * DEFAULT_TOL * c
            # the a-priori L2 bound max_i mean(psi_i^2) <= c^2 |v|^2
            assert c ** 2 * (v @ v) - max(mean_rho(psi[i] ** 2)
                                          for i in range(d)) >= -1e-8
            assert diag["quadratic_linear_gap"] <= 100 * DEFAULT_TOL * c
            checked += 1
    assert checked == 200
    print("criterion 4 pass: identity residual suite on 200 instances, d=1..3")


def test_criterion_05_spectral_route():
    worst_rel = 0.0
    worst_z = 0.0
    for k in range(50):
        fld = sample_environment(UNIFORM, TorusGeometry(2, 2), seed=1000 + k)
        v = np.array([1.0, 0.0])
        quad = effective_quadratic(fld, v)
        meas = spectral_measure(fld, v)
        spec = diffusivity_via_spectrum(meas)
        worst_rel = max(worst_rel, abs(spec - quad) / abs(quad))
        exact = semigroup_moment(meas, 1.0)
        est, se = semigroup_moment_mc(fld, v, 1.0, walkers=100_000,
                                      seed=2000 + k)
        worst_z = max(worst_z, abs(est - exact) / se)
    assert worst_rel <= 1e-8
    assert worst_z <= 3.0
    print(f"criterion 5 pass: spectrum vs quadratic rel {worst_rel:.2e}, "
          f"worst MC z {worst_z:.2f}")


def test_criterion_06_msd_consistency():
    start = time.monotonic()
    cases = [(1, 600), (1, 601), (2, 602), (2, 603), (2, 604)]
    worst_z = 0.0
    for d, seed in cases:
        fld = sample_environment(UNIFORM, TorusGeometry(d, 4), seed=seed)
        v = np.eye(d)[0]
        quad = effective_quadratic(fld, v)
        est, se = msd_estimate(fld, v, 200.0, 100_000, seed=seed + 50)
        # finite-horizon bias is O(1/t); fold the exact quadratic in as the
        # reference and compare in walker standard errors
        worst_z = max(worst_z, abs(est - quad) / se)
    elapsed = time.monotonic() - start
    assert worst_z <= 3.0
    assert elapsed < 60.0
    print(f"criterion 6 pass: MSD vs corrector, worst z {worst_z:.2f} "
          f"({elapsed:.1f}s)")


def test_criterion_07_convergence():
    start = time.monotonic()
    cfg1 = CampaignConfig(TWO_POINT, 1, (8, 16, 32, 64), replicas=500,
                          master_seed=0)
    study1 = convergence_study(run_campaign(cfg1))
    diffs1 = [row["diff_to_next"] for row in study1["table"][:-1]]
    assert all(a > b for a, b in zip(diffs1, diffs1[1:]))
    # CI containment of the infinite-volume value 1.6 is asserted at the
    # largest size; smaller tori carry a real finite-size bias larger than
    # the Monte Carlo CI, which is exactly what the decreasing differences
    # track.
    last = study1["table"][-1]
    assert abs(last["mean"][0, 0] - 1.6) <= last["ci_halfwidth"][0, 0]

    cfg2 = CampaignConfig(TWO_POINT, 2, (4, 8, 16), replicas=200,
                          master_seed=0)
    study2 = convergence_study(run_campaign(cfg2))
    diffs2 = [row["diff_to_next"] for row in study2["table"][:-1]]
    assert all(a > b for a, b in zip(diffs2, diffs2[1:]))
    elapsed = time.monotonic() - start
    assert elapsed < 15.0
    print(f"criterion 7 pass: 1D mean {last['mean'][0, 0]:.4f} in CI of 1.6, "
          f"2D diffs {diffs2} decreasing ({elapsed:.1f}s)")


def test_criterion_08_concentration(uniform_2d_campaign):
    start = time.monotonic()
    cfg2, records2 = uniform_2d_campaign
    study2 = concentration_study(records2, np.eye(2)[0])
    stds = [row["std"] for row in study2["table"]]
    ratios = [b / a for a, b in zip(stds, stds[1:])]
    assert all(r <= 0.8 for r in ratios)

    cfg1 = CampaignConfig(UNIFORM, 1, (8, 16, 32, 64), replicas=200,
                          master_seed=0)
    study1 = concentration_study(run_campaign(cfg1), np.eye(1)[0])
    exponent = study1["decay_exponent"]
    assert 0.35 <= exponent <= 0.65
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"criterion 8 pass: 2D std ratios {[f'{r:.2f}' for r in ratios]}, "
          f"1D exponent {exponent:.3f} ({elapsed:.1f}s)")


def test_criterion_09_surface_tension():
    worst = 0.0
    v = np.array([1.0, 0.0])
    budget = 1e-6 * UNIFORM.ellipticity() * np.dot(v, v)
    for k in range(50):
        fld = sample_environment(UNIFORM, TorusGeometry(2, 4), seed=3000 + k)
        _, _, residual = surface_tension(fld, v)
        worst = max(worst, residual)
    assert worst <= budget
    print(f"criterion 9 pass: descent vs quarter form, worst gap {worst:.2e} "
          f"(budget {budget:.1e})")


def test_criterion_10_resolvent_limit():
    lams = [1.0, 0.1, 0.01, 0.001, 1e-8]
    worst_tail = 0.0
    for k in range(20):
        fld = sample_environment(UNIFORM, TorusGeometry(2, 4), seed=4000 + k)
        rows = resolvent_convergence(fld, [1.0, 0.0], lams)
        discs = [row["discrepancy"] for row in rows]
        assert all(a >= b for a, b in zip(discs, discs[1:]))
        worst_tail = max(worst_tail, discs[-1])
    assert worst_tail <= 1e-6
    print(f"criterion 10 pass: resolvent gap non-increasing, tail {worst_tail:.2e}")


def test_criterion_11_hamming_sensitivity():
    medians = {}
    for n in (8, 16):
        fld = sample_environment(UNIFORM, TorusGeometry(2, n), seed=42)
        out = hamming_sensitivity(fld, np.eye(2)[0], perturb_counts=(1,),
                                  trials=100, law=UNIFORM, seed=7)
        medians[n] = out["medians"][1]
    assert medians[16] < medians[8]
    print(f"criterion 11 pass: single-bond medians {medians[8]:.2e} (N=8) -> "
          f"{medians[16]:.2e} (N=16)")


def test_criterion_12_lp_monitoring(uniform_2d_campaign):
    cfg, records = uniform_2d_campaign
    lp = records.diagnostics.lp_norms[:, LP_EXPONENTS.index(2.5)]
    by_n = {n: lp[records.N == n][:50] for n in cfg.N_list}
    ref = by_n[4].mean()
    for n, vals in by_n.items():
        assert np.all(vals <= 2 * ref)
        assert np.all(vals >= ref / 2)
    print(f"criterion 12 pass: p=2.5 gradient norms within factor 2 of "
          f"{ref:.4f} across N=4..16")
