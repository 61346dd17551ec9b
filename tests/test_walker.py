import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from homogenize import spectral, walker
from homogenize.environment import (BondField, DisorderLaw, TorusGeometry,
                                    move_table, rng_for, sample_environment)
from homogenize.solver import SizeGuardError
from homogenize.walker import MAX_JUMPS, MAX_WALKERS, msd_estimate, walk_batch
from oracles import rate_at, site_coords, site_index

TWO_SITE = BondField(TorusGeometry(1, 1), 2.0, np.array([[2.0, 1.0]]))


def test_walk_config_validation():
    fld = sample_environment(DisorderLaw.constant(1.0), TorusGeometry(1, 2), 0)
    for t in (-1.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="horizon"):
            walk_batch(fld, t, 10, seed=0)
    with pytest.raises(ValueError):
        walk_batch(fld, 1.0, 0, seed=0)
    with pytest.raises(ValueError, match="horizon must be positive"):
        msd_estimate(fld, [1.0], 0.0, 10)


def test_size_guards_refuse_before_any_walker_state():
    fld = sample_environment(DisorderLaw.constant(1.0), TorusGeometry(2, 2), 0)
    # holding rate 4: MAX_WALKERS walkers up to horizon MAX_JUMPS / (4 MAX_WALKERS)
    cases = [(1.0, MAX_WALKERS + 1), (MAX_JUMPS / MAX_WALKERS, MAX_WALKERS)]
    tracemalloc.start()
    try:
        for t, walkers in cases:
            with pytest.raises(SizeGuardError):
                walk_batch(fld, t, walkers, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # one int64 per walker alone would be 128 MiB


def test_no_jump_probability_matches_exponential_law():
    # constant rates a: total rate 2 d a, so P(no jump by t) = exp(-2 d a t)
    a, t, walkers = 1.0, 0.3, 4_000
    fld = sample_environment(DisorderLaw.constant(a), TorusGeometry(2, 2), 0)
    frozen = 0
    for w in range(walkers):
        x, jumps = _reference_walk(fld, t, w)
        assert np.array_equal(walk_batch(fld, t, 1, seed=w)[0][0], x)
        frozen += jumps == 0
    p = np.exp(-4 * a * t)
    se = np.sqrt(p * (1 - p) / walkers)
    assert abs(frozen / walkers - p) <= 3 * se


def test_homogeneous_mean_and_variance():
    a, t, walkers = 1.0, 100.0, 100_000
    fld = sample_environment(DisorderLaw.constant(a), TorusGeometry(1, 2), 0)
    disp, _, _ = walk_batch(fld, t, walkers, seed=7)
    x = disp[:, 0].astype(float)
    se_mean = x.std(ddof=1) / np.sqrt(walkers)
    assert abs(x.mean()) <= 3 * se_mean
    y = x ** 2 / t
    se_var = y.std(ddof=1) / np.sqrt(walkers)
    assert abs(y.mean() - 2 * a) <= 3 * se_var


def test_msd_two_site_quenched_consistency():
    est, se = msd_estimate(TWO_SITE, [1.0], 200.0, 50_000, seed=3)
    assert abs(est - 8 / 3) <= 3 * se


def test_msd_sign_symmetry():
    plus, se1 = msd_estimate(TWO_SITE, [1.0], 50.0, 20_000, seed=11)
    minus, se2 = msd_estimate(TWO_SITE, [-1.0], 50.0, 20_000, seed=12)
    assert abs(plus - minus) <= 3 * np.hypot(se1, se2)


def test_start_site_stationarity():
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 21)
    v = [1.0, 0.0]
    origin, se1 = msd_estimate(fld, v, 50.0, 30_000, seed=1)
    uniform, se2 = msd_estimate(fld, v, 50.0, 30_000, seed=2, start="uniform")
    assert abs(origin - uniform) <= 3 * np.hypot(se1, se2)


def test_batch_deterministic():
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 5)
    d1 = walk_batch(fld, 10.0, 500, seed=9)[0]
    d2 = walk_batch(fld, 10.0, 500, seed=9)[0]
    assert np.array_equal(d1, d2)


def _reference_walk(fld, t, seed):
    """The model's Gillespie loop for one walker from the origin, site by site.

    Jumps x -> x + e_i at rate xi_i(x) and x -> x - e_i at rate
    xi_i(x - e_i), drawing the same random numbers in the same order as
    walk_batch.  Returns the displacement and the number of jumps.
    """
    d = fld.dimension
    eye = np.eye(d, dtype=np.int64)
    rng = rng_for(seed)
    x = np.zeros(d, dtype=np.int64)
    clock = 0.0
    jumps = 0
    while True:
        rates = np.array([rate for i in range(d)
                          for rate in (rate_at(fld, x, i), rate_at(fld, x - eye[i], i))])
        clock += rng.standard_exponential() / rates.sum()
        if clock > t:
            return x, jumps
        k = int((rng.random() > np.cumsum(rates) / rates.sum()).sum())
        x += eye[k // 2] if k % 2 == 0 else -eye[k // 2]
        jumps += 1


def test_single_walker_matches_reference_loop():
    for d in (1, 2, 3):
        fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(d, 2), d)
        for t in (0.3, 5.0):
            for seed in range(20):
                disp = walk_batch(fld, t, 1, seed)[0][0]
                assert np.array_equal(disp, _reference_walk(fld, t, seed)[0])


def test_walk_batch_end_sites_consistent_with_displacement():
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 8)
    disp, start_sites, end_sites = walk_batch(fld, 10.0, 200, seed=3, start="uniform")
    geom = fld.geometry
    for w in range(200):
        coords = np.array(site_coords(geom, start_sites[w]))
        expected = site_index(geom, tuple((coords + disp[w]) % geom.side))
        assert end_sites[w] == expected


def _lockstep_reference(fld, t, walkers, seed, start):
    """The batch walk as full-size lock-step sweeps over the active walkers.

    Draws the same random numbers in the same order as walk_batch and maps
    them to moves the same way, but scatters every sweep into arrays over all
    walkers.  Returns (displacements, start_sites, end_sites).
    """
    geom = fld.geometry
    rates, targets = move_table(fld)
    cum = np.cumsum(rates, axis=1)
    holding = cum[:, -1]
    cum = cum / holding[:, None]
    steps = np.kron(np.eye(geom.dimension, dtype=np.int64), [[1], [-1]])
    rng = rng_for(seed)
    if start == "origin":
        pos = np.zeros(walkers, dtype=np.int64)
    else:
        pos = rng.integers(0, geom.volume, size=walkers)
    start_sites = pos.copy()
    disp = np.zeros((walkers, geom.dimension), dtype=np.int64)
    clock = np.zeros(walkers)
    active = np.arange(walkers)
    while active.size:
        p = pos[active]
        dt = rng.standard_exponential(active.size) / holding[p]
        clock[active] += dt
        alive = clock[active] <= t
        act = active[alive]
        if act.size:
            u = rng.random(act.size)
            choice = (u[:, None] > cum[pos[act]]).sum(axis=1)
            disp[act] += steps[choice]
            pos[act] = targets[pos[act], choice]
        active = act
    return disp, start_sites, pos


LOCKSTEP_GRID = list(itertools.product(("origin", "uniform"), (0.0, 0.3, 5.0, 40.0),
                                       (1, 7, 500)))


@pytest.mark.parametrize("d, half_period, cases", [
    pytest.param(1, 2, LOCKSTEP_GRID, id="1"),
    pytest.param(2, 2, LOCKSTEP_GRID, id="2"),
    pytest.param(3, 2, LOCKSTEP_GRID, id="3"),
    # 4,096 sites and 5 bits an axis: the packed displacement is unpacked
    # every 15 sweeps
    pytest.param(12, 1, [("uniform", 40.0, 500)], id="12"),
])
def test_batch_matches_lockstep_reference(d, half_period, cases):
    geom = TorusGeometry(d, half_period)
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), geom, d)
    reach = 0
    for start, t, walkers in cases:
        seed = 100 * d + walkers
        got = walk_batch(fld, t, walkers, seed, start=start)
        want = _lockstep_reference(fld, t, walkers, seed, start)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        reach = max(reach, np.abs(got[0]).max())
    if d == 12:
        # a 5-bit field offset by 16 holds no |disp_i| > 16: the walk must
        # have unpacked mid-walk
        assert reach > 16


def test_one_walker_is_refused_before_walking(monkeypatch):
    # one walker has no standard error
    def refuse(*args, **kwargs):
        raise AssertionError("walk_batch ran before the walker count was checked")

    monkeypatch.setattr(walker, "walk_batch", refuse)
    monkeypatch.setattr(spectral, "walk_batch", refuse)
    for walkers in (1, 0):
        with pytest.raises(ValueError, match="at least 2 walkers"):
            msd_estimate(TWO_SITE, [1.0], 1.0, walkers)
        with pytest.raises(ValueError, match="at least 2 walkers"):
            spectral.semigroup_moment_mc(TWO_SITE, [1.0], 1.0, walkers)


def test_msd_checks_direction_before_walking(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("walk_batch ran before the direction was checked")

    monkeypatch.setattr(walker, "walk_batch", refuse)
    for v in ([1.0, 0.0], [[1.0]], 1.0):
        with pytest.raises(ValueError, match=r"expected \(1,\)"):
            msd_estimate(TWO_SITE, v, 1.0, 10)


def test_msd_refuses_a_non_finite_direction_before_walking(monkeypatch):
    # refused by drift_vector: no walk into (nan, nan) or a matmul warning
    def refuse(*args, **kwargs):
        raise AssertionError("walk_batch ran before the direction was checked")

    monkeypatch.setattr(walker, "walk_batch", refuse)
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in ([np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="drift vector must be finite"):
                msd_estimate(fld, v, 5.0, 1000)
