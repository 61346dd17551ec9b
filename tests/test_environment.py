import tracemalloc

import numpy as np
import pytest

from homogenize.environment import (MAX_SITES, BondField, DisorderLaw,
                                    GeometryMismatchError, SizeGuardError,
                                    SupportError, TorusGeometry, periodize,
                                    resample_bonds, rng_for, sample_environment)
from homogenize.diffusivity import effective_matrix
from homogenize.experiments import surface_tension
from homogenize.spectral import spectral_measure
from homogenize.walker import walk_batch
from oracles import hamming_distance, rate_at, site_coords, site_index, wrap


def test_geometry_invariants():
    g = TorusGeometry(2, 3)
    assert g.side == 6 and g.volume == 36 and g.bond_count == 72
    assert site_index(g, (1, 2)) == 8
    assert site_coords(g, 8) == (1, 2)
    assert wrap(g, (-1, 7)) == (5, 1)
    with pytest.raises(ValueError):
        TorusGeometry(0, 1)
    with pytest.raises(ValueError):
        TorusGeometry(1, 0)


def test_constant_law_degenerate():
    fld = sample_environment(DisorderLaw.constant(1.0), TorusGeometry(2, 2), 0)
    assert fld.rates.size == 32
    assert np.all(fld.rates == 1.0)


def test_two_point_support():
    law = DisorderLaw.two_point(0.5, 2.0, 0.5)
    fld = sample_environment(law, TorusGeometry(2, 3), 1)
    assert set(np.unique(fld.rates)) <= {0.5, 2.0}
    assert law.ellipticity() == 2.0


def test_sampling_deterministic():
    law = DisorderLaw.uniform(0.5, 2.0)
    g = TorusGeometry(3, 2)
    f1 = sample_environment(law, g, 42)
    f2 = sample_environment(law, g, 42)
    assert np.array_equal(f1.rates, f2.rates)
    f3 = sample_environment(law, g, 43)
    assert not np.array_equal(f1.rates, f3.rates)


def test_ellipticity_enforced_on_every_sample():
    law = DisorderLaw.uniform(0.5, 2.0)
    c = law.ellipticity()
    for seed in range(20):
        fld = sample_environment(law, TorusGeometry(2, 2), seed)
        assert fld.rates.min() >= 1 / c and fld.rates.max() <= c


def test_field_freezes_a_private_copy_of_the_rates():
    a = np.ones((1, 2))
    fld = BondField(TorusGeometry(1, 1), 1.0, a)
    assert a.flags.writeable
    assert not fld.rates.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        fld.rates[0, 0] = 2.0
    a[0, 0] = 2.0
    assert np.array_equal(fld.rates, np.ones((1, 2)))


def test_results_do_not_depend_on_the_memory_order_of_the_rates():
    # seed 7: a Fortran-ordered copy once moved D_N and sigma in the last bit
    fld = sample_environment(DisorderLaw.uniform(0.2, 5.0), TorusGeometry(2, 4), 7)
    rates = np.ascontiguousarray(fld.rates)
    site_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(rates, 0, -1)), -1, 0)
    copies = [BondField(fld.geometry, fld.ellipticity, r)
              for r in (rates, np.asfortranarray(rates), site_major)]
    v = [0.6, 0.8]

    def results(f):
        meas = spectral_measure(f, v)
        return [effective_matrix(f).entries, meas.eigenvalues, meas.weights,
                *walk_batch(f, 5.0, 100, 3), surface_tension(f, v)]

    expected = results(fld)
    for f in copies:
        assert f.rates.flags.c_contiguous
        for got, want in zip(results(f), expected):
            assert np.array_equal(got, want)


def test_law_validation():
    with pytest.raises(SupportError):
        DisorderLaw.constant(-1.0)
    with pytest.raises(SupportError):
        DisorderLaw.uniform(0.0, 1.0)
    with pytest.raises(ValueError):
        DisorderLaw("discrete", (1.0, 2.0), (0.7, 0.6))
    with pytest.raises(ValueError):
        DisorderLaw("pareto", (1.0,))
    # probs of a law that would ignore them
    for kind, params in (("constant", (1.0,)), ("two_point", (1.0, 2.0, 0.5))):
        with pytest.raises(ValueError, match=f"{kind} law takes no probs"):
            DisorderLaw(kind, params, (0.5, 0.5))
    with pytest.raises(SupportError):
        DisorderLaw.constant(0.0)
    for p in (1.5, -0.1, float("nan")):  # a bad probability, not a bad support
        with pytest.raises(ValueError) as info:
            DisorderLaw.two_point(1.0, 2.0, p)
        assert type(info.value) is ValueError


def test_atom_tables():
    assert DisorderLaw.uniform(0.5, 2.0).atoms() is None
    assert DisorderLaw.constant(2.0).atoms() == ((2.0,), (1.0,))
    assert DisorderLaw.two_point(0.5, 2.0, 0.3).atoms() == ((0.5, 2.0), (0.3, 0.7))
    law = DisorderLaw("discrete", (0.5, 1.0, 2.0), (0.2, 0.3, 0.5))
    assert law.atoms() == ((0.5, 1.0, 2.0), (0.2, 0.3, 0.5))


def test_atom_draws_equal_the_per_kind_samplers_they_replace():
    # constant was np.full, two_point a threshold on rng.random(size); both
    # now draw through rng.choice, which inverts one rng.random per bond
    for seed in range(4):
        for size in (7, (3, 4), (50, 3)):
            rng, ref = rng_for(seed), rng_for(seed)
            got = DisorderLaw.constant(1.5).draw(rng, size)
            assert np.array_equal(got, np.full(size, 1.5))
            # np.full drew nothing; sample_environment and resample_bonds
            # give every draw a fresh generator, so no caller sees the advance
            ref.random(size)
            assert rng.random() == ref.random()
            for p in (0.0, 0.3, 0.5, 1.0):
                rng, ref = rng_for(seed), rng_for(seed)
                got = DisorderLaw.two_point(0.5, 2.0, p).draw(rng, size)
                assert np.array_equal(got, np.where(ref.random(size) < p, 0.5, 2.0))
                assert rng.random() == ref.random()


def test_atom_closed_forms_equal_the_per_kind_formulas_they_replace():
    for a in (0.25, 1.0, 3.0):
        law = DisorderLaw.constant(a)
        assert law.support_bounds() == (a, a)
        assert law.ellipticity() == max(a, 1.0 / a, 1.0)
        assert law.mean_inverse() == 1.0 / a
    for a, b in ((0.5, 2.0), (3.0, 0.25), (1.0, 1.0)):
        for p in (0.0, 0.3, 0.5, 1.0):
            law = DisorderLaw.two_point(a, b, p)
            lo, hi = min(a, b), max(a, b)
            assert law.support_bounds() == (lo, hi)
            assert law.ellipticity() == max(hi, 1.0 / lo, 1.0)
            assert law.mean_inverse() == p / a + (1 - p) / b


def test_law_mean_inverse():
    assert DisorderLaw.constant(2.0).mean_inverse() == 0.5
    assert DisorderLaw.two_point(0.5, 2.0, 0.5).mean_inverse() == pytest.approx(1.25)
    a, b = 0.5, 2.0
    assert DisorderLaw.uniform(a, b).mean_inverse() == pytest.approx(
        np.log(b / a) / (b - a))


def test_hamming_distance_basics():
    law = DisorderLaw.uniform(0.5, 2.0)
    fld = sample_environment(law, TorusGeometry(2, 2), 9)
    assert hamming_distance(fld, fld) == 0
    one = resample_bonds(fld, [5], DisorderLaw.constant(1.0), seed=0)
    assert hamming_distance(fld, one) <= 1
    c1 = sample_environment(DisorderLaw.constant(1.0), TorusGeometry(1, 2), 0)
    c2 = sample_environment(DisorderLaw.constant(2.0), TorusGeometry(1, 2), 0)
    c2 = BondField(c1.geometry, 2.0, c2.rates)  # align windows for comparison
    assert hamming_distance(c1, c2) == 4
    with pytest.raises(GeometryMismatchError):
        hamming_distance(fld, c1)


def test_hamming_is_a_metric():
    law = DisorderLaw.two_point(0.5, 2.0, 0.5)
    g = TorusGeometry(2, 2)
    for seed in range(10):
        a = sample_environment(law, g, 3 * seed)
        b = sample_environment(law, g, 3 * seed + 1)
        c = sample_environment(law, g, 3 * seed + 2)
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


def test_resample_bonds():
    law = DisorderLaw.two_point(0.5, 2.0, 0.5)
    fld = sample_environment(law, TorusGeometry(2, 2), 5)
    assert resample_bonds(fld, [], law, seed=1) is fld
    all_bonds = np.arange(fld.geometry.bond_count)
    const = resample_bonds(fld, all_bonds, DisorderLaw.constant(1.0), seed=1)
    assert np.all(const.rates == 1.0)
    one = resample_bonds(fld, [7], law, seed=2)
    assert hamming_distance(fld, one) in (0, 1)
    with pytest.raises(IndexError):
        resample_bonds(fld, [fld.geometry.bond_count], law, seed=0)
    with pytest.raises(SupportError):
        resample_bonds(fld, [0], DisorderLaw.constant(5.0), seed=0)
    # external order: bond id b is direction b % d at linear site b // d
    for d in (1, 2, 3):
        geom = TorusGeometry(d, 4)
        ones = BondField(geom, 2.0, np.ones((d,) + geom.grid_shape))
        out = resample_bonds(ones, [7], DisorderLaw.constant(2.0), seed=0)
        expected = np.ones_like(ones.rates)
        expected[(7 % d,) + site_coords(geom, 7 // d)] = 2.0
        assert np.array_equal(out.rates, expected)


def test_periodize_restriction():
    law = DisorderLaw.uniform(0.5, 2.0)
    big = sample_environment(law, TorusGeometry(2, 4), 13)
    small = periodize(big, 2)
    assert small.geometry == TorusGeometry(2, 2)
    assert not np.shares_memory(small.rates, big.rates)
    for x in [(0, 0), (1, 3), (3, 2)]:
        for i in range(2):
            assert rate_at(small, x, i) == rate_at(big, x, i)
    with pytest.raises(ValueError):
        periodize(small, 4)


def test_rng_streams_are_order_independent():
    a = rng_for(0, 7).integers(2 ** 63)
    for _ in range(3):
        rng_for(0, 3).integers(2 ** 63)
    assert rng_for(0, 7).integers(2 ** 63) == a


def test_site_guard_refuses_before_any_draw():
    law = DisorderLaw.uniform(0.5, 2.0)
    # one site over the guard in d = 1; 4 * 10^10 sites in d = 2; a unit torus
    # in one dimension past the guard's exponent; side and dimension whose
    # power alone would not fit in memory
    over = [TorusGeometry(1, MAX_SITES // 2 + 1), TorusGeometry(2, 100_000),
            TorusGeometry(MAX_SITES.bit_length(), 1), TorusGeometry(10**9, 10**9)]
    tracemalloc.start()
    try:
        for geom in over:
            with pytest.raises(SizeGuardError, match="site guard"):
                sample_environment(law, geom, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the d = 1 draw alone would be 32 MiB
    at_guard = sample_environment(DisorderLaw.constant(1.0),
                                  TorusGeometry(1, MAX_SITES // 2), 0)
    assert at_guard.geometry.volume == MAX_SITES
