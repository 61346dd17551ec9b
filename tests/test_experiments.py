import itertools
import json
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from homogenize.cli import config_hash, records_to_csv, run
from homogenize.diffusivity import DIAGNOSTICS, effective_matrix, worst
from homogenize import experiments
from homogenize.environment import (BondField, DisorderLaw, SizeGuardError,
                                    TorusGeometry, periodize, sample_environment)
from homogenize.experiments import (MAX_RECORDS, CampaignConfig, TooManyBondsError,
                                    concentration_study,
                                    convergence_study, hamming_sensitivity,
                                    replica_seed,
                                    resolvent_convergence, run_campaign,
                                    surface_tension)
from homogenize.operators import grad, local_drift, mean_rho
from homogenize.solver import ConvergenceError, dense_solve, solve_poisson
from homogenize.spectral import diffusivity_via_spectrum, spectral_measure
from oracles import one_d_exact

TWO_SITE = BondField(TorusGeometry(1, 1), 2.0, np.array([[2.0, 1.0]]))


def test_campaign_config_validation():
    law = DisorderLaw.constant(1.0)
    with pytest.raises(ValueError):
        CampaignConfig(law, 1, (4, 2), replicas=4)
    with pytest.raises(ValueError):
        CampaignConfig(law, 1, (2, 2), replicas=4)
    with pytest.raises(ValueError):
        CampaignConfig(law, 1, (2, 4), replicas=1)


def test_replica_seed_deterministic_and_distinct():
    seeds = [replica_seed(0, r) for r in range(16)]
    assert seeds == [replica_seed(0, r) for r in range(16)]
    assert len(set(seeds)) == 16


def test_constant_law_campaign_is_exact():
    cfg = CampaignConfig(DisorderLaw.constant(1.5), 2, (2, 4), replicas=3)
    study = convergence_study(run_campaign(cfg))
    for row in study["table"]:
        assert np.allclose(row["mean"], 3.0 * np.eye(2), atol=1e-8)
        assert np.all(row["ci_halfwidth"] <= 1e-8)
    assert study["table"][0]["diff_to_next"] <= 1e-8


def test_convergence_ci_matches_record_spread():
    cfg = CampaignConfig(DisorderLaw.uniform(0.5, 2.0), 1, (2, 4),
                         replicas=8, master_seed=3)
    records = run_campaign(cfg)
    study = convergence_study(records=records)
    for row in study["table"]:
        block = np.stack([r.entries for r in records if r.N == row["N"]])
        sem = block.std(axis=0, ddof=1) / np.sqrt(block.shape[0])
        assert np.allclose(row["ci_halfwidth"], 1.96 * sem)


def test_concentration_constant_law_degenerate():
    cfg = CampaignConfig(DisorderLaw.constant(1.0), 1, (2, 4), replicas=3)
    study = concentration_study(run_campaign(cfg), np.eye(1)[0])
    for row in study["table"]:
        assert row["std"] <= 1e-10
        assert all(f == 0.0 for f in row["tail_frequency"].values())
    assert study["decay_exponent"] is None


def test_concentration_tail_monotone_in_epsilon():
    cfg = CampaignConfig(DisorderLaw.uniform(0.5, 2.0), 1, (2,),
                         replicas=16, master_seed=5)
    study = concentration_study(run_campaign(cfg), np.eye(1)[0],
                                epsilons=(0.01, 0.05, 0.2))
    freqs = list(study["table"][0]["tail_frequency"].values())
    assert freqs == sorted(freqs, reverse=True)


def test_concentration_reads_the_given_direction():
    cfg = CampaignConfig(DisorderLaw.uniform(0.5, 2.0), 2, (2, 4),
                         replicas=4, master_seed=9)
    records = run_campaign(cfg)
    study = concentration_study(records, np.eye(2)[1])
    for row in study["table"]:
        assert row["mean"] == np.mean([r.entries[1, 1] for r in records
                                       if r.N == row["N"]])


def test_concentration_checks_the_direction():
    # neither a table of nan nor numpy's matmul error: drift_vector's refusal
    records = run_campaign(CampaignConfig(DisorderLaw.uniform(0.5, 2.0), 2,
                                          (1, 2), replicas=2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="drift vector must be finite"):
            concentration_study(records, [np.nan, 0.0])
        with pytest.raises(ValueError, match=r"drift vector has shape \(3,\), "
                           r"expected \(2,\)"):
            concentration_study(records, [1.0, 0.0, 0.0])


def test_studies_read_their_sizes_from_their_records():
    cfg = CampaignConfig(DisorderLaw.uniform(0.5, 2.0), 2, (2, 4),
                         replicas=3, master_seed=7)
    records = run_campaign(cfg)
    part = records[records.N == 4]
    converge = convergence_study(part)["table"]
    concentrate = concentration_study(part, np.eye(2)[0])["table"]
    assert [row["N"] for row in converge] == [4]
    assert [row["N"] for row in concentrate] == [4]
    whole = convergence_study(records)["table"]
    assert [row["N"] for row in whole] == [2, 4]
    assert np.array_equal(converge[0]["mean"], whole[1]["mean"])
    assert concentrate == concentration_study(records, np.eye(2)[0])["table"][1:]


def test_campaign_csv_reproducible():
    cfg = CampaignConfig(DisorderLaw.two_point(0.5, 2.0, 0.5), 2, (2, 4),
                         replicas=3, master_seed=11)
    csv1 = records_to_csv(run_campaign(cfg), cfg)
    csv2 = records_to_csv(run_campaign(cfg), cfg)
    assert csv1 == csv2
    # bench/checks.py reads seed, N, D_ij and four diagnostic columns by name
    assert csv1.splitlines()[0].split(",") == [
        "seed", "d", "N", "c", "law", "D_00", "D_01", "D_10", "D_11",
        "asymmetry", "orthogonality_residual", "curl_residual",
        "flux_divergence_residual", "certificate", "quadratic_linear_gap",
        "lp_2.0", "lp_2.5", "lp_3.0", "lp_4.0", "iterations"]
    assert len(csv1.splitlines()) == 1 + 2 * 3


def test_campaign_rows_independent_of_replica_count(monkeypatch):
    from homogenize import solver
    law = DisorderLaw.uniform(0.5, 2.0)
    first_four = {str(replica_seed(2, r)) for r in range(4)}
    stacks = []
    real_cg = solver._cg
    monkeypatch.setattr(solver, "_cg", lambda f, b, lam, tol: (
        stacks.append(len(f)) or real_cg(f, b, lam, tol)))
    rows = {}
    # stack widths 1, 4 and 64 at N = 4 (64 sites), four times that at N = 2
    for width in (1, 4, 64):
        monkeypatch.setattr(solver, "STACK_SITES", 64 * width)
        for replicas in (4, 32):
            stacks.clear()
            cfg = CampaignConfig(law, 2, (2, 4), replicas=replicas, master_seed=2)
            records = run_campaign(cfg)
            # 32 replicas give 64 members per N: a stack of full width
            assert replicas < 32 or width in stacks
            lines = records_to_csv(records, cfg).splitlines()[1:]
            rows[width, replicas] = [line for line in lines
                                     if line.split(",")[0] in first_four]
    assert len(rows[1, 4]) == 8
    assert all(block == rows[1, 4] for block in rows.values())
    # the diagnostics are the worst over the record's basis correctors, and
    # the iteration count sums the record's own corrector solves
    for rec in records:
        fld = periodize(sample_environment(law, TorusGeometry(2, 4), rec.seed), rec.N)
        diags = effective_matrix(fld, tol=cfg.tol).diagnostics
        assert rec.diagnostics == worst(diags)
        assert rec.iterations == sum(
            solve_poisson(fld, local_drift(fld, e), tol=cfg.tol).iterations
            for e in np.eye(2))


def test_campaign_rows_independent_of_stack_width_in_d3(monkeypatch):
    # stacks of 4 and 64 members split a field's three correctors between
    # two stacks; every row is the same bytes as at width 1
    from homogenize import solver
    cfg = CampaignConfig(DisorderLaw.uniform(0.5, 2.0), 3, (1, 2), replicas=32,
                         master_seed=3)
    stacks = []
    real_cg = solver._cg
    monkeypatch.setattr(solver, "_cg", lambda f, b, lam, tol: (
        stacks.append(len(f)) or real_cg(f, b, lam, tol)))
    csv = {}
    for width in (1, 4, 64):   # members per stack at N = 2 (64 sites)
        monkeypatch.setattr(solver, "STACK_SITES", 64 * width)
        stacks.clear()
        records = run_campaign(cfg)
        csv[width] = records_to_csv(records, cfg)
        assert width in stacks
    assert len(csv[1].splitlines()) == 1 + 2 * 32
    assert csv[4] == csv[1] and csv[64] == csv[1]
    # at width 64, replica 21's correctors are members 63 to 65 at N = 2
    rec = records[32 + 21]
    fld = sample_environment(cfg.law, TorusGeometry(3, 2), rec.seed)
    mat = effective_matrix(fld, tol=cfg.tol)
    assert np.array_equal(rec.entries, mat.entries)
    assert rec.diagnostics == worst(mat.diagnostics)


def test_campaign_holds_no_per_record_objects():
    # a record is one row of the returned table (112 B at d = 1), with no
    # Python object of its own; an object per record costs about 1 KB
    law = DisorderLaw.uniform(0.5, 2.0)
    cfg = CampaignConfig(law, 1, (1, 2, 4), replicas=300)
    # caches a first campaign fills (FFT plans, seeding) stay outside the trace
    run_campaign(CampaignConfig(law, 1, (1, 2, 4), replicas=2))
    tracemalloc.start()
    try:
        records = run_campaign(cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(records) == 900
    assert held / len(records) < 500


def test_record_guards_refuse_before_any_seed(monkeypatch):
    law = DisorderLaw.uniform(0.5, 2.0)
    fld = sample_environment(law, TorusGeometry(2, 2), 0)
    over = MAX_RECORDS // 2 + 1   # records for two N, or two perturb counts
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match="record guard"):
            run_campaign(CampaignConfig(law, 2, (2, 4), replicas=over))
        with pytest.raises(SizeGuardError, match="record guard"):
            hamming_sensitivity(fld, np.eye(2)[0], (1, 2), trials=over,
                                law=law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the replica seeds alone would take about 11 MB
    # the bound itself is allowed
    monkeypatch.setattr(experiments, "MAX_RECORDS", 6)
    assert len(run_campaign(CampaignConfig(law, 2, (1, 2), replicas=3))) == 6
    assert len(hamming_sensitivity(fld, np.eye(2)[0], (1, 2), trials=3,
                               law=law)["pairs"]) == 6
    with pytest.raises(SizeGuardError):
        hamming_sensitivity(fld, np.eye(2)[0], (1, 2), trials=4, law=law)


def test_site_guard_refuses_a_campaign_before_any_record(monkeypatch):
    # N = 10^400 is past int64 as well as the site guard: the guard on the
    # largest torus refuses it before a record or a seed is built
    law = DisorderLaw.uniform(0.5, 2.0)
    monkeypatch.setattr(experiments, "replica_seed", None)   # never reached
    for n_list in ((2, 2 ** 63 - 1), (10 ** 400,)):
        with pytest.raises(SizeGuardError, match="site guard"):
            run_campaign(CampaignConfig(law, 1, n_list, replicas=2))


def test_campaign_streams_replicas(monkeypatch):
    from homogenize import solver
    law = DisorderLaw.uniform(0.5, 2.0)
    cfg = CampaignConfig(law, 1, (4,), replicas=2000, master_seed=5)
    drawn = []
    real_sample = experiments.sample_environment
    monkeypatch.setattr(experiments, "sample_environment", lambda *a: (
        drawn.append(1) or real_sample(*a)))
    calls = []   # (stack size, fields drawn so far) per stack
    real_cg = solver._cg
    monkeypatch.setattr(solver, "_cg", lambda f, b, lam, tol: (
        calls.append((len(f), len(drawn))) or real_cg(f, b, lam, tol)))
    monkeypatch.setattr(solver, "STACK_SITES", 4 * 8)   # width 4 on 8 sites
    batched = records_to_csv(run_campaign(cfg), cfg)
    assert [size for size, _ in calls] == [4] * 500
    # each stack's fields are drawn just before it is solved
    assert [seen for _, seen in calls] == list(range(4, 2001, 4))
    monkeypatch.setattr(solver, "STACK_SITES", 1)
    assert records_to_csv(run_campaign(cfg), cfg) == batched


def test_one_d_routes_cross_validate():
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(1, 4), 7)
    matrix = effective_matrix(fld).entries[0, 0]
    exact = one_d_exact(fld)
    spectral = diffusivity_via_spectrum(spectral_measure(fld, [1.0]))
    assert abs(matrix - exact) <= 1e-8
    assert abs(spectral - exact) <= 1e-8


def test_hamming_zero_effect_under_constant_law():
    law = DisorderLaw.constant(1.0)
    fld = sample_environment(law, TorusGeometry(2, 2), 0)
    out = hamming_sensitivity(fld, np.eye(2)[0], perturb_counts=(1, 4), trials=2,
                              law=law)
    assert all(delta <= 1e-8 for _, delta in out["pairs"])
    assert out["exponent"] is None


def test_hamming_medians_group_by_exact_count(monkeypatch):
    # 524,288 bonds: the fractions of 100000 and 100001 bonds agree to 1e-5
    geom = TorusGeometry(2, 256)
    ones = BondField(geom, 2.0, np.ones((2,) + geom.grid_shape))
    # stand-in for D_N^{11}: the rate sum, which each resampled bond raises by
    # 1, as the 1 x 1 entries of one field per stack, with zero diagnostics
    monkeypatch.setattr(experiments, "effective_matrices",
                        lambda fields, tol, directions: (
                            {"entries": np.full((1, 1, 1), float(f.rates.sum())),
                             "diagnostics": np.zeros((1, 1), DIAGNOSTICS)}
                            for f in fields))
    out = hamming_sensitivity(ones, np.eye(2)[0], (100_000, 100_001), trials=1,
                              law=DisorderLaw.constant(2.0))
    assert out["medians"] == {100_000: 100_000.0, 100_001: 100_001.0}


def test_hamming_reads_the_given_direction():
    law = DisorderLaw.uniform(0.5, 2.0)
    fld = sample_environment(law, TorusGeometry(2, 3), 21)
    out = hamming_sensitivity(fld, np.eye(2)[1], (1,), trials=2, law=law)
    assert abs(out["baseline"] - effective_matrix(fld).entries[1, 1]) <= 1e-8


def test_hamming_reports_its_largest_certificate(monkeypatch):
    # the largest certificate of the 1 x 1 Gram entries it reads: the
    # baseline's, on e_2 bit for bit D_N's own, and every perturbed field's
    law = DisorderLaw.uniform(0.5, 2.0)
    fld = sample_environment(law, TorusGeometry(2, 3), 21)
    seen = []
    real = experiments.effective_matrices

    def recording(fields, tol, directions):
        for cols in real(fields, tol, directions):
            seen.append(cols["diagnostics"]["certificate"])
            yield cols

    monkeypatch.setattr(experiments, "effective_matrices", recording)
    out = hamming_sensitivity(fld, np.eye(2)[1], (1, 4), trials=3, law=law,
                              tol=1e-4, seed=5)
    certs = np.concatenate(seen)
    assert certs.shape == (7, 1) and (certs > 0).all()
    assert certs[0, 0] == effective_matrix(fld, tol=1e-4).diagnostics[1]["certificate"]
    assert out["certificate_max"] == certs.max()


def test_hamming_requires_law():
    with pytest.raises(TypeError):
        hamming_sensitivity(TWO_SITE, np.eye(1)[0], (1,), trials=1)


def test_hamming_rejects_too_many_bonds():
    with pytest.raises(TooManyBondsError, match="cannot perturb 3 of the 2 bonds"):
        hamming_sensitivity(TWO_SITE, np.eye(1)[0], (1, 3), trials=1,
                            law=DisorderLaw.constant(1.0))


def test_hamming_refuses_no_trial_or_no_count_before_sampling(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("sampled a perturbation")

    monkeypatch.setattr(experiments, "rng_for", unreachable)
    monkeypatch.setattr(experiments, "effective_matrices", unreachable)
    law = DisorderLaw.uniform(0.5, 2.0)
    fld = sample_environment(law, TorusGeometry(2, 2), 0)
    for trials in (0, -1):
        with pytest.raises(ValueError, match=f"need at least one trial, got {trials}"):
            hamming_sensitivity(fld, np.eye(2)[0], (1, 2), trials=trials, law=law)
    for counts in ((), []):
        with pytest.raises(ValueError, match="need at least one perturb count"):
            hamming_sensitivity(fld, np.eye(2)[0], counts, trials=2, law=law)


def test_hamming_deltas_small_and_recorded():
    law = DisorderLaw.uniform(0.5, 2.0)
    fld = sample_environment(law, TorusGeometry(2, 4), 13)
    out = hamming_sensitivity(fld, np.eye(2)[0], perturb_counts=(1, 2), trials=3,
                              law=law, seed=1)
    assert len(out["pairs"]) == 6
    assert set(out["medians"]) == {1, 2}
    # single-bond edits move D only slightly on a 128-bond torus
    assert out["medians"][1] <= 0.05


def test_surface_tension_constant_law():
    fld = sample_environment(DisorderLaw.constant(1.0), TorusGeometry(2, 2), 0)
    sigma, quarter, gap, _ = surface_tension(fld, [1.0, 0.0])
    assert abs(sigma - 0.5) <= 1e-8
    assert abs(quarter - 0.5) <= 1e-8
    assert gap <= 1e-8


def test_surface_tension_two_site():
    sigma, quarter, gap, _ = surface_tension(TWO_SITE, [1.0])
    assert abs(sigma - 2 / 3) <= 1e-10
    assert gap <= 1e-10


def test_surface_tension_quadratic_scaling():
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 9)
    s1 = surface_tension(fld, [1.0, 0.5])[0]
    s2 = surface_tension(fld, [2.0, 1.0])[0]
    assert abs(s2 - 4 * s1) <= 1e-8
    # the descent runs in units of a power of two, so scaling v by 2^k
    # scales sigma, the quarter form, their gap and the certificate by 4^k
    # bit for bit
    unscaled = surface_tension(fld, [1.0, 0.5])
    for k in (-500, -300, 1, 300):
        scaled = surface_tension(fld, np.ldexp([1.0, 0.5], k))
        assert scaled == tuple(np.ldexp(unscaled, 2 * k))


def test_surface_tension_budget_exhaustion():
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 9)
    residuals = []
    for scale in (1.0, 1000.0):
        with pytest.raises(ConvergenceError) as info:
            surface_tension(fld, [scale, 0.0], max_steps=1)
        residuals.append(info.value.residual)
    # the residual is relative: scaling v leaves it unchanged
    assert residuals[1] == pytest.approx(residuals[0], rel=1e-9)
    with pytest.raises(ValueError):
        surface_tension(fld, [1.0, 0.0], max_steps=0)
    # tol is the descent's relative stopping rule, not only the quarter form's
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 4), 9)
    loose = surface_tension(fld, [1.0, 0.0], tol=1e-4)[0]
    tight, _, gap, _ = surface_tension(fld, [1.0, 0.0], tol=1e-12)
    assert loose != tight
    assert gap <= 1e-12


def test_surface_tension_stops_a_stalled_descent():
    # the relative gradient floors at 4.2e-16 here, above tol: the descent
    # once ran all of its 100,000 steps (more than 3 s) into the error
    fld = sample_environment(DisorderLaw.uniform(0.2, 5.0), TorusGeometry(1, 1), 1)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="stalled") as info:
        surface_tension(fld, [1.0], tol=4e-16)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"the stalled descent took {elapsed:.2f} s"
    assert info.value.iterations <= 2 * experiments.STALL_STEPS
    assert 4e-16 < info.value.residual < 1e-15


@pytest.mark.parametrize("d,N", [(1, 8), (2, 4), (2, 8), (3, 2)])
def test_surface_tension_certificate_bounds_the_quarter_form_error(d, N):
    # a corrector's solve error only raises (v, D_N v), by at most its
    # certificate; the dense oracle gives the exact quarter form.  v is off
    # a power of two, so the unit's square enters the scaling
    errors = []
    for seed, tol, v in itertools.product(
            (0, 1), (1e-4, 1e-6), (np.eye(d)[0], np.linspace(3.0, 0.5, d))):
        fld = sample_environment(DisorderLaw.uniform(0.2, 5.0), TorusGeometry(d, N), seed)
        _, quarter, _, certificate = surface_tension(fld, v, tol=tol)
        w = v.reshape((d,) + (1,) * d) + grad(dense_solve(fld, local_drift(fld, v)))
        exact = 0.5 * mean_rho(np.sum(fld.rates * w * w, axis=0), d)
        assert -1e-14 * exact <= quarter - exact <= certificate, (seed, tol, v)
        assert certificate <= 1e-3 * exact
        errors.append(quarter - exact)
    assert max(errors) > 0


def test_surface_tension_refuses_bad_input_before_descending(monkeypatch):
    calls = []
    precondition = experiments._precondition
    monkeypatch.setattr(experiments, "_precondition",
                        lambda *args: calls.append(args) or precondition(*args))
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 0)
    cases = [([np.nan, 0.0], {}, "drift vector must be finite"),
             ([np.inf, 0.0], {}, "drift vector must be finite"),
             ([[1.0, 0.0]], {}, r"drift vector has shape \(1, 2\)"),
             ([1.0], {}, r"drift vector has shape \(1,\)"),
             ([], {}, r"drift vector has shape \(0,\)"),
             ([1.0, 0.0], {"max_steps": 0}, "max_steps must be at least 1"),
             ([1.0, 0.0], {"max_steps": -1}, "max_steps must be at least 1")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v, kwargs, match in cases:
            with pytest.raises(ValueError, match=match):
                surface_tension(fld, v, **kwargs)
    assert calls == []
    surface_tension(fld, [1.0, 0.0])   # the count sees a descent
    assert calls


def test_surface_tension_refuses_a_tolerance_cg_refuses_before_descending(
        monkeypatch):
    # CG's refusal of the tolerance comes before the descent, not after
    # max_steps steps
    def refuse(*args):
        raise AssertionError("the descent stepped before tol was checked")

    monkeypatch.setattr(experiments, "_precondition", refuse)
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tol in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                surface_tension(fld, [1.0, 0.0], tol=tol)


def test_surface_tension_steps_flat_in_n():
    # the Laplacian-preconditioned descent takes about as many steps on
    # every torus (29, 42 and 42 here), so one cap serves N = 4 to 64
    law = DisorderLaw.uniform(0.2, 5.0)
    for N in (4, 16, 64):
        fld = sample_environment(law, TorusGeometry(2, N), 5)
        sigma, _, gap, _ = surface_tension(fld, [1.0, 0.0], max_steps=80)
        assert gap <= 1e-12 * sigma


def test_surface_tension_independent_of_the_preconditioner(monkeypatch):
    # P enters only the descent direction and the scale-free steps; the
    # energy, its gradient and the stop rule never read it
    inverse_symbols = experiments._inverse_symbols
    fld = sample_environment(DisorderLaw.uniform(0.2, 5.0), TorusGeometry(2, 16), 3)
    v = [1.0, 0.5]
    sigma = surface_tension(fld, v)[0]

    def patched(factor, max_steps=experiments.DEFAULT_MAX_STEPS):
        monkeypatch.setattr(experiments, "_inverse_symbols",
                            lambda fields, lam: factor * inverse_symbols(fields, lam))
        return surface_tension(fld, v, max_steps=max_steps)[0]

    def residual_after(steps, factor):
        with pytest.raises(ConvergenceError) as info:
            patched(factor, max_steps=steps)
        return info.value.residual

    # a power-of-two scale commutes with every rounding: the same descent,
    # step by step
    for factor in (0.125, 8.0):
        assert residual_after(10, factor) == residual_after(10, 1.0)
        assert patched(factor) == sigma
    # any other scale moves the iterates by rounding alone, and sigma, flat
    # at the minimizer, by an ulp or so
    for factor in (0.1, 10.0):
        assert abs(patched(factor) - sigma) <= 4 * np.spacing(sigma)
    # a wrong positive symbol may slow the descent, not move its minimizer
    rng = np.random.default_rng(0)
    factor = rng.uniform(0.1, 10.0, inverse_symbols([fld], 0.0).shape)
    assert patched(factor) == pytest.approx(sigma, rel=1e-12, abs=0)


def test_resolvent_convergence_two_site_value():
    rows = resolvent_convergence(TWO_SITE, [1.0], lam_list=[1.0])
    assert abs(rows[0]["discrepancy"] - 1 / 294) <= 1e-12


def test_resolvent_convergence_monotone_to_zero():
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 15)
    lams = [1.0, 1e-1, 1e-2, 1e-4, 1e-8]
    rows = resolvent_convergence(fld, [1.0, 0.0], lams)
    discs = [row["discrepancy"] for row in rows]
    assert all(a > b for a, b in zip(discs, discs[1:]))
    assert discs[-1] <= 1e-12


def test_resolvent_convergence_holds_down_to_the_smallest_lambda():
    # the drift's rounding mean would become a constant mean / lam; it is
    # dropped, so a tiny lam neither stalls CG nor swamps the solution
    fld = sample_environment(DisorderLaw.uniform(0.2, 5.0), TorusGeometry(2, 8), 3)
    rows = resolvent_convergence(fld, [1.0, 0.0], [1e-3, 1e-12, 1e-30, 1e-300])
    discs = [row["discrepancy"] for row in rows]
    assert all(np.isfinite(discs))
    assert all(a >= b for a, b in zip(discs, discs[1:]))
    assert discs[1] <= 1e-20


def test_config_hash_stable_and_order_blind():
    h1 = config_hash({"a": 1, "b": [1, 2]})
    h2 = config_hash({"b": [1, 2], "a": 1})
    assert h1 == h2
    assert len(h1) == 8
    assert h1 != config_hash({"a": 2, "b": [1, 2]})


def test_summary_to_json_round_trips(tmp_path):
    cfg = CampaignConfig(DisorderLaw.constant(1.0), 1, (2,), replicas=2)
    config = {"geometry": {"dimension": 1, "half_period": 2},
              "law": cfg.law.to_json(), "seed": 0,
              "campaign": {"N_list": [2], "replicas": 2}}
    path = next(p for p in run("converge", config, tmp_path) if p.suffix == ".json")
    doc = json.loads(path.read_text())
    assert doc["config"] == cfg.to_json()
    assert doc["table"][0]["N"] == 2
