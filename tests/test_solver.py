import gc
import itertools
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from homogenize import solver
from homogenize.environment import (BondField, DisorderLaw, TorusGeometry,
                                    rng_for, sample_environment)
from homogenize.operators import grad, local_drift, mean_rho
from homogenize.solver import (ConvergenceError, SizeGuardError, _maxiter,
                               dense_operator, dense_solve, solve_poisson,
                               solve_resolvent)

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
    # a constant centers to 0 or to the rounding of its mean, and either way
    # it is solved in closed form without an iteration
    for (d, N), c in itertools.product([(2, 2), (2, 5), (3, 3)], [3.0, 0.3, 1.7]):
        fld, _ = random_instance(d, N, 0)
        g = np.full(fld.geometry.grid_shape, c)
        rep = solve_resolvent(fld, g, 0.5)
        assert np.allclose(rep.solution, 2.0 * c, rtol=1e-14, atol=0), (d, N, c)
        assert rep.iterations == 0


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


def test_resolvent_refuses_nan_lambda_before_iterating(monkeypatch):
    # NaN fails `lam > 0`: a ValueError, not a ConvergenceError after 0
    # iterations
    def refuse(*args, **kwargs):
        raise AssertionError("CG ran before lam was checked")

    monkeypatch.setattr(solver, "_cg", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="resolvent parameter must be positive"):
            solve_resolvent(TWO_SITE, np.zeros(2), np.nan)


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


@pytest.mark.parametrize("d,N", [(1, 4), (2, 2), (3, 1)])
@pytest.mark.parametrize("lam", [1e-3, 1.0, 10.0])
def test_resolvent_matches_dense(d, N, lam):
    tol = 1e-12
    for seed in range(3):
        fld, g = random_instance(d, N, seed)
        g += 0.5  # a constant part exercises the closed-form constant mode
        u_cg = solve_resolvent(fld, g, lam, tol=tol).solution
        mat = lam * np.eye(fld.geometry.volume) + dense_operator(fld)
        u_dense = np.linalg.solve(mat, g.reshape(-1)).reshape(g.shape)
        # ||u - u*|| <= ||r|| / lambda_min, and lambda_min = lam (constants)
        bound = tol * np.linalg.norm(g) / lam
        assert np.linalg.norm(u_cg - u_dense) <= bound + 1e-12 * np.linalg.norm(u_dense)


@pytest.mark.parametrize("law,tori", [
    (DisorderLaw.uniform(0.2, 5.0), [(2, 4), (2, 16), (2, 64), (3, 4), (3, 12)]),
    (DisorderLaw.two_point(0.1, 10.0), [(2, 32)]),
], ids=["uniform", "two_point"])
def test_iterations_flat_in_n(law, tori):
    tol = 1e-10
    caps = set()
    for d, N in tori:
        fld = sample_environment(law, TorusGeometry(d, N), 5)
        cap = _maxiter(fld, tol)
        caps.add(cap)
        for e_i in np.eye(d):
            rep = solve_poisson(fld, local_drift(fld, e_i), tol=tol)
            assert rep.iterations <= cap
    # the cap depends on the ellipticity and tol only, not on N or d
    assert len(caps) == 1


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
    monkeypatch.setattr(solver, "_maxiter", lambda fld, tol: 2)
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


def test_breakdown_raises_at_once_with_a_finite_residual():
    # at tol 1e-300 the residual falls until r.z underflows; CG then has no
    # finite step left and stops there, not at the cap with a nan residual
    fld = sample_environment(DisorderLaw.uniform(0.2, 5.0), TorusGeometry(2, 2), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="stopped short") as exc:
            solve_poisson(fld, local_drift(fld, [1.0, 0.0]), tol=1e-300)
    assert np.isfinite(exc.value.residual) and 0 < exc.value.residual < 1e-100
    assert exc.value.iterations < _maxiter(fld, 1e-300) // 10


def test_nonpositive_tolerance_rejected():
    g = np.array([1.0, -1.0])
    for tol in (0.0, -1.0):
        with pytest.raises(ValueError):
            solve_poisson(TWO_SITE, g, tol=tol)
        with pytest.raises(ValueError):
            solve_resolvent(TWO_SITE, g, 1.0, tol=tol)


def test_loose_tolerance_stops_after_one_step():
    # tol >= 2c leaves no room in the CG bound; one step still runs
    rep = solve_poisson(TWO_SITE, np.array([1.0, -1.0]), tol=10.0)
    assert rep.iterations == 1


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
    rep = solve_poisson(TWO_SITE, np.array([1.0, -1.0]), tol=1e-10)
    assert rep.residual_norm <= 1e-10 * np.sqrt(2)
    assert rep.iterations >= 1


def _stack_instances(d, N, count, seed):
    """count (field, right side) members on one torus, right sides mean-zero."""
    pairs = [random_instance(d, N, seed + i) for i in range(count)]
    return [f for f, _ in pairs], np.stack([g for _, g in pairs])


@pytest.mark.parametrize("d,N", [(1, 4), (2, 2), (3, 1)])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_stacked_member_matches_solo_bit_for_bit(d, N, lam):
    from homogenize.solver import _cg
    fields, rhs = _stack_instances(d, N, 64, 100)
    solo = solve_poisson(fields[0], rhs[0]) if not lam \
        else solve_resolvent(fields[0], rhs[0], lam)
    for width in (1, 4, 64):
        rep = _cg(fields[:width], rhs[:width], lam, 1e-10)[0]
        assert np.array_equal(rep.solution, solo.solution)
        assert rep.iterations == solo.iterations
        assert rep.residual_norm == solo.residual_norm
    # every member of the wide stack is its own solo solve
    reps = _cg(fields, rhs, lam, 1e-10)
    for i in (1, 17, 63):
        alone = _cg(fields[i:i + 1], rhs[i:i + 1], lam, 1e-10)[0]
        assert np.array_equal(reps[i].solution, alone.solution)
        assert reps[i].iterations == alone.iterations
    # members 2^k apart each run in their own unit: each is 2^k times the
    # member solved at scale 1
    ks = np.resize([-900, -300, 0, 300, 900], len(rhs))
    scaled = _cg(fields, np.ldexp(rhs, ks.reshape((-1,) + (1,) * d)), lam, 1e-10)
    for i in (0, 1, 2, 3, 4, 17, 63):
        assert np.array_equal(scaled[i].solution, np.ldexp(reps[i].solution, ks[i]))
        assert scaled[i].iterations == reps[i].iterations
        assert scaled[i].residual_norm == np.ldexp(reps[i].residual_norm, ks[i])


def test_zero_member_in_stack():
    from homogenize.solver import _cg
    fields, rhs = _stack_instances(2, 2, 5, 40)
    rhs[2] = 0.0
    reps = _cg(fields, rhs, 0.0, 1e-10)
    assert np.all(reps[2].solution == 0.0) and reps[2].iterations == 0
    assert reps[2].residual_norm == 0.0
    for i in (0, 1, 3, 4):
        rep = solve_poisson(fields[i], rhs[i])
        assert np.array_equal(reps[i].solution, rep.solution)
        assert reps[i].iterations == rep.iterations


def test_stalled_stack_reports_worst_member(monkeypatch):
    from homogenize import solver
    monkeypatch.setattr(solver, "_maxiter", lambda fld, tol: 2)
    fields, rhs = _stack_instances(2, 4, 3, 60)
    solo = []
    for fld, g in zip(fields, rhs):
        with pytest.raises(ConvergenceError) as exc:
            solve_poisson(fld, g, tol=1e-14)
        solo.append(exc.value.residual)
    with pytest.raises(ConvergenceError) as exc:
        solver._cg(fields, 1000.0 * rhs, 0.0, 1e-14)
    assert exc.value.iterations == 2
    # relative, so the common scale of the right sides drops out
    assert exc.value.residual == pytest.approx(max(solo), rel=1e-9)


def test_stream_cuts_stacks_at_the_site_cap(monkeypatch):
    from homogenize import solver
    fields, rhs = _stack_instances(2, 2, 10, 80)
    other, g_other = random_instance(2, 1, 3)
    members = [*zip(fields[:6], rhs[:6]), (other, g_other), *zip(fields[6:], rhs[6:])]
    stacks = []
    real_cg = solver._cg
    monkeypatch.setattr(solver, "_cg", lambda f, b, lam, tol: (
        stacks.append(len(f)) or real_cg(f, b, lam, tol)))
    expected = [solve_poisson(fld, g) for fld, g in members]
    for cap, widths in [(1, [1] * 11), (32, [2, 2, 2, 1, 2, 2]), (64, [4, 2, 1, 4]),
                        (2 ** 13, [6, 1, 4])]:
        monkeypatch.setattr(solver, "STACK_SITES", cap)
        stacks.clear()
        solved = list(solver.solve_poisson_stream(iter(members)))
        assert stacks == widths
        assert [len(stack) for stack in solved] == widths
        out = [pair for stack in solved for pair in stack]
        assert [fld for fld, _ in out] == [fld for fld, _ in members]
        for (_, rep), ref in zip(out, expected):
            assert np.array_equal(rep.solution, ref.solution)
            assert rep.iterations == ref.iterations
            assert rep.residual_norm == ref.residual_norm


def test_stream_drops_the_right_sides_it_yielded():
    from homogenize.solver import solve_poisson_stream
    refs = []

    def member(N):
        fld, g = random_instance(2, N, 110 + N)
        refs.append(weakref.ref(g))
        return fld, g

    # the three stacks end three ways: the torus changes, one member of
    # 16,384 sites reaches the site cap, the input ends
    stream = solve_poisson_stream(member(N) for N in (2, 64, 3))
    for k in range(3):
        solved = next(stream)
        assert len(solved) == 1
        gc.collect()
        assert refs[k]() is None, k
        del solved


@pytest.mark.parametrize("d,N", [(1, 1), (1, 6), (2, 1), (2, 5), (3, 1), (3, 3)])
@pytest.mark.parametrize("M", [1, 5])
def test_precondition_is_the_rfftn_round_trip_bit_for_bit(d, N, M):
    from homogenize.solver import _inverse_symbols, _precondition
    fields, rhs = _stack_instances(d, N, M, 120)
    axes = tuple(range(-d, 0))
    before = rhs.copy()
    for lam in (0.0, 0.5):
        inv = _inverse_symbols(fields, lam)
        got = _precondition(rhs, inv, axes)
        ref = np.fft.irfftn(np.fft.rfftn(rhs, axes=axes) * inv,
                            s=rhs.shape[1:], axes=axes)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
        assert rhs.tobytes() == before.tobytes()


def test_stream_rejects_nonzero_mean_member():
    from homogenize.solver import solve_poisson_stream
    fields, rhs = _stack_instances(2, 2, 3, 90)
    rhs[1] += 1.0
    with pytest.raises(ValueError, match="nonzero mean"):
        list(solve_poisson_stream(zip(fields, rhs)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_right_side_is_rejected(bad):
    from homogenize.solver import solve_poisson_stream
    fields, rhs = _stack_instances(2, 2, 3, 70)
    rhs[1, 0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        solve_poisson(fields[1], rhs[1])
    with pytest.raises(ValueError, match="finite"):
        solve_resolvent(fields[1], rhs[1], 0.5)
    with pytest.raises(ValueError, match="finite"):
        list(solve_poisson_stream(zip(fields, rhs)))


def test_right_side_that_overflows_is_rejected():
    # every member is solved in units of a power of two, so a right side
    # near the double range is solved exactly; only an answer that does not
    # fit in a double is refused, with no RuntimeWarning (pytest turns
    # warnings into errors), not solved as inf, 0 or nan
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 0)
    for c in (1e150, 1e160):
        assert np.all(solve_resolvent(fld, np.full((4, 4), c), 1.0).solution == c)
    checker = np.where(np.indices((4, 4)).sum(axis=0) % 2, 1.0, -1.0)
    unit = solve_poisson(fld, checker)
    big = solve_poisson(fld, np.ldexp(checker, 665))
    assert np.array_equal(big.solution, np.ldexp(unit.solution, 665))
    assert big.iterations == unit.iterations
    # a constant part mean / lam, or a solution, beyond the double range
    smooth = sample_environment(DisorderLaw.uniform(0.01, 0.02), TorusGeometry(2, 8), 0)
    wave = 1.7e308 * np.cos(np.pi * np.indices((16, 16))[0] / 8)
    with pytest.raises(ValueError, match="finite"):
        solve_resolvent(fld, np.full((4, 4), 1e10), 1e-300)
    with pytest.raises(ValueError, match="finite"):
        solve_poisson(smooth, wave)


@pytest.mark.parametrize("k", [-1000, -600, -300, 300, 600, 1000])
def test_solves_are_exactly_equivariant_under_powers_of_two(k):
    # the iterates run in units of a power of two, so scaling g by 2^k
    # scales the solution and the residual by 2^k bit for bit, whatever k
    fld, g = random_instance(2, 2, 130)
    # the resolvent side has a constant part, solved as mean / lam
    for solve, h in ((lambda h: solve_poisson(fld, h), g),
                     (lambda h: solve_resolvent(fld, h, 0.5), g + 0.5)):
        ref, rep = solve(h), solve(np.ldexp(h, k))
        assert np.array_equal(rep.solution, np.ldexp(ref.solution, k))
        assert rep.iterations == ref.iterations > 0
        assert rep.residual_norm == np.ldexp(ref.residual_norm, k)


def test_zero_mean_test_is_relative_to_the_right_side():
    fld, _ = random_instance(2, 2, 0)
    # a constant 1e-13 is a mean, not rounding, whatever its size
    rep = solve_resolvent(fld, np.full((4, 4), 1e-13), 1e-3)
    assert np.allclose(rep.solution, 1e-10, rtol=1e-14, atol=0)
    spike = np.zeros((4, 4))
    spike[0, 0] = 1e-12
    with pytest.raises(ValueError, match="nonzero mean"):
        solve_poisson(fld, spike)


def test_solve_poisson_memory_per_site():
    # the right side counts: CG divides it by its unit into a new array, and
    # every other update is in place
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 64), 5)
    # numpy's FFT plan for this side is built here, outside the trace, so the
    # reading does not depend on whether an earlier test built it
    np.fft.irfftn(np.fft.rfftn(np.zeros(fld.geometry.grid_shape)))
    tracemalloc.start()
    try:
        solve_poisson(fld, local_drift(fld, [1.0, 0.0]), tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / fld.geometry.volume < 68
