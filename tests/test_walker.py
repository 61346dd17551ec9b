import numpy as np
import pytest

from homogenize.environment import (BondField, DisorderLaw, TorusGeometry,
                                    sample_environment, rng_for)
from homogenize.walker import WalkConfig, annealed_msd, msd_estimate, walk_batch

TWO_SITE = BondField(TorusGeometry(1, 1), 2.0, np.array([[2.0, 1.0]]))


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(t=0.0, walkers=10)
    with pytest.raises(ValueError):
        WalkConfig(t=1.0, walkers=0)
    fld = sample_environment(DisorderLaw.constant(1.0), TorusGeometry(1, 2), 0)
    with pytest.raises(ValueError):
        walk_batch(fld, -1.0, 10, seed=0)
    with pytest.raises(ValueError):
        walk_batch(fld, 1.0, 0, seed=0)


def test_no_jump_probability_matches_exponential_law():
    # constant rates a: total rate 2 d a, so P(no jump by t) = exp(-2 d a t)
    a, t, walkers = 1.0, 0.3, 4_000
    fld = sample_environment(DisorderLaw.constant(a), TorusGeometry(2, 2), 0)
    frozen = 0
    for w in range(walkers):
        log = []
        walk_batch(fld, t, 1, seed=w, jump_log=log)
        frozen += not log
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
    est, se = msd_estimate(TWO_SITE, [1.0], WalkConfig(t=200.0, walkers=50_000, seed=3))
    assert abs(est - 8 / 3) <= 3 * se


def test_msd_sign_symmetry():
    cfg = WalkConfig(t=50.0, walkers=20_000, seed=11)
    plus, se1 = msd_estimate(TWO_SITE, [1.0], cfg)
    minus, se2 = msd_estimate(TWO_SITE, [-1.0],
                              WalkConfig(t=50.0, walkers=20_000, seed=12))
    assert abs(plus - minus) <= 3 * np.hypot(se1, se2)


def test_start_site_stationarity():
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 21)
    v = [1.0, 0.0]
    origin, se1 = msd_estimate(fld, v, WalkConfig(t=50.0, walkers=30_000, seed=1))
    uniform, se2 = msd_estimate(fld, v, WalkConfig(t=50.0, walkers=30_000, seed=2),
                                start="uniform")
    assert abs(origin - uniform) <= 3 * np.hypot(se1, se2)


def test_batch_deterministic():
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 5)
    d1 = walk_batch(fld, 10.0, 500, seed=9)[0]
    d2 = walk_batch(fld, 10.0, 500, seed=9)[0]
    assert np.array_equal(d1, d2)


def test_jump_log_reproduces_displacement():
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 6)
    log = []
    disp = walk_batch(fld, 25.0, 1, seed=13, jump_log=log)[0][0]
    moves = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
    replayed = np.zeros(2, dtype=np.int64)
    site = 0
    for entry in log:
        assert entry["site"] == site
        replayed += moves[entry["direction"]]
        coords = fld.geometry.site_coords(site)
        site = fld.geometry.site_index(
            tuple(c + m for c, m in zip(coords, moves[entry["direction"]])))
    assert np.array_equal(replayed, disp)
    # wrapped final position agrees with the unwrapped displacement
    assert site == fld.geometry.site_index(tuple(disp % fld.geometry.side))
    with pytest.raises(ValueError):
        walk_batch(fld, 25.0, 2, seed=13, jump_log=[])


def _reference_walk(fld, t, seed):
    """The model's Gillespie loop for one walker from the origin, site by site.

    Jumps x -> x + e_i at rate xi_i(x) and x -> x - e_i at rate
    xi_i(x - e_i), drawing the same random numbers in the same order as
    walk_batch.
    """
    d = fld.dimension
    eye = np.eye(d, dtype=np.int64)
    rng = rng_for(seed)
    x = np.zeros(d, dtype=np.int64)
    clock = 0.0
    while True:
        rates = np.array([rate for i in range(d)
                          for rate in (fld.rate_at(x, i), fld.rate_at(x - eye[i], i))])
        clock += rng.standard_exponential() / rates.sum()
        if clock > t:
            return x
        k = int((rng.random() > np.cumsum(rates) / rates.sum()).sum())
        x += eye[k // 2] if k % 2 == 0 else -eye[k // 2]


def test_single_walker_matches_reference_loop():
    for d in (1, 2, 3):
        fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(d, 2), d)
        for t in (0.3, 5.0):
            for seed in range(20):
                disp = walk_batch(fld, t, 1, seed)[0][0]
                assert np.array_equal(disp, _reference_walk(fld, t, seed))


def test_walk_batch_end_sites_consistent_with_displacement():
    fld = sample_environment(DisorderLaw.uniform(0.5, 2.0), TorusGeometry(2, 2), 8)
    disp, start_sites, end_sites = walk_batch(fld, 10.0, 200, seed=3, start="uniform")
    side = fld.geometry.side
    for w in range(200):
        coords = np.array(fld.geometry.site_coords(start_sites[w]))
        expected = fld.geometry.site_index(tuple((coords + disp[w]) % side))
        assert end_sites[w] == expected


def test_annealed_msd_constant_law():
    law = DisorderLaw.constant(1.0)
    est, se = annealed_msd(law, TorusGeometry(1, 2), [1.0],
                           WalkConfig(t=50.0, walkers=5_000, seed=17), replicas=4)
    assert abs(est - 2.0) <= 3 * se


def test_annealed_msd_single_replica_reduces_to_quenched():
    law = DisorderLaw.two_point(0.5, 2.0, 0.5)
    geom = TorusGeometry(1, 2)
    cfg = WalkConfig(t=20.0, walkers=2_000, seed=23)
    est, se = annealed_msd(law, geom, [1.0], cfg, replicas=1)
    env_seed = int(rng_for(cfg.seed, 0, 0).integers(2 ** 63))
    walk_seed = int(rng_for(cfg.seed, 1, 0).integers(2 ** 63))
    fld = sample_environment(law, geom, env_seed)
    direct, _ = msd_estimate(fld, [1.0], WalkConfig(cfg.t, cfg.walkers, walk_seed))
    assert est == direct
    assert se == np.inf


def test_annealed_msd_two_point_approaches_harmonic_mean():
    law = DisorderLaw.two_point(0.5, 2.0, 0.5)
    target = 2.0 / law.mean_inverse()  # 1.6
    est, se = annealed_msd(law, TorusGeometry(1, 16), [1.0],
                           WalkConfig(t=100.0, walkers=4_000, seed=31), replicas=8)
    assert abs(est - target) <= 3 * se
