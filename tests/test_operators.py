import numpy as np
import pytest

from homogenize.environment import (BondField, DisorderLaw, GeometryMismatchError,
                                    TorusGeometry, move_table, rng_for,
                                    sample_environment)
from homogenize.operators import (apply_generator, div_star, grad, local_drift,
                                  mean_rho, shift, stack_members)
from homogenize.solver import dense_operator
from oracles import rate_at, site_coords, site_index

TWO_SITE = BondField(TorusGeometry(1, 1), 2.0, np.array([[2.0, 1.0]]))


def random_field(d, N, seed):
    law = DisorderLaw.uniform(0.5, 2.0)
    return sample_environment(law, TorusGeometry(d, N), seed)


# stacks of M fields on a torus of side 8 in d dimensions
STACKS = [(d, M) for d in (1, 2, 3) for M in (1, 3)]


def test_grad_basics():
    f = np.full((4, 4), 3.7)
    assert np.all(grad(f) == 0.0)
    g = grad(np.array([0.0, 1.0]))
    assert np.allclose(g, [[1.0, -1.0]])
    rng = rng_for(1)
    f = rng.normal(size=(4, 4, 4))
    assert np.allclose(grad(f).sum(axis=(1, 2, 3)), 0.0, atol=1e-12)
    # a stack of fields: direction first, then the members
    for d, M in STACKS:
        f = rng.normal(size=(M,) + (8,) * d)
        g = grad(f, d)
        assert g.shape == (d, M) + (8,) * d
        for m in range(M):
            assert np.array_equal(g[:, m], grad(f[m]))
        assert np.array_equal(stack_members(list(f), d), f)
        rates = [rng.normal(size=(d,) + (8,) * d) for _ in range(M)]
        assert np.array_equal(stack_members(rates, d), np.stack(rates, axis=1))
        # a lone member is a view
        assert np.shares_memory(stack_members(rates[:1], d), rates[0])


def test_div_star_hand_example():
    g = grad(np.array([0.0, 1.0]))
    assert np.allclose(div_star(g), [-2.0, 2.0])


@pytest.mark.parametrize("d,N", [(1, 2), (2, 2), (3, 2)])
def test_adjointness(d, N):
    rng = rng_for(10, d, N)
    shape = (2 * N,) * d
    # one field (no member axis), then stacks of 1 and 3 members
    for lead in ((), (1,), (3,)):
        for _ in range(5):
            f = rng.normal(size=lead + shape)
            g = rng.normal(size=(d,) + lead + shape)
            grad_f, div_g = grad(f, d), div_star(g)
            for m in np.ndindex(lead):   # m = () for one field
                fm, gm = f[m], g[(slice(None),) + m]
                assert np.array_equal(grad_f[(slice(None),) + m], grad(fm))
                assert np.array_equal(div_g[m], div_star(gm))
                lhs = np.vdot(grad(fm), gm).real
                rhs = np.vdot(fm, div_g[m]).real
                scale = np.linalg.norm(fm) * np.linalg.norm(gm)
                assert abs(lhs - rhs) <= 1e-12 * scale


def test_generator_constant_kernel():
    fld = random_field(2, 2, 3)
    f = np.full(fld.geometry.grid_shape, 4.2)
    out = apply_generator(fld, f)
    assert np.abs(out).max() <= 1e-14 * fld.ellipticity * np.abs(f).max()


def test_generator_two_site_hand_example():
    out = apply_generator(TWO_SITE, np.array([0.0, 1.0]))
    assert np.allclose(out, [3.0, -3.0])


@pytest.mark.parametrize("d,N", [(1, 2), (2, 2), (3, 2)])
def test_generator_symmetry_and_dirichlet(d, N):
    fld = random_field(d, N, 5 + d)
    rng = rng_for(20, d)
    for _ in range(5):
        f = rng.normal(size=fld.geometry.grid_shape)
        g = rng.normal(size=fld.geometry.grid_shape)
        lhs = np.vdot(f, apply_generator(fld, g)).real
        rhs = np.vdot(apply_generator(fld, f), g).real
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(f) * np.linalg.norm(g) \
            * fld.ellipticity
        energy = np.vdot(f, -apply_generator(fld, f)).real
        assert energy >= -1e-12
        # <f, -L f> is the Dirichlet form sum_i xi_i (grad_i f)^2
        assert np.sum(fld.rates * grad(f) ** 2) == pytest.approx(energy, abs=1e-9)


def test_generator_geometry_mismatch():
    fld = random_field(2, 2, 1)
    with pytest.raises(GeometryMismatchError):
        apply_generator(fld, np.zeros((3, 3)))


def test_local_drift():
    const = sample_environment(DisorderLaw.constant(1.5), TorusGeometry(2, 2), 0)
    assert np.all(local_drift(const, [1.0, 2.0]) == 0.0)
    assert np.allclose(local_drift(TWO_SITE, [1.0]), [1.0, -1.0])
    fld = random_field(2, 3, 8)
    v = np.array([0.3, -1.1])
    assert np.allclose(local_drift(fld, 2 * v), 2 * local_drift(fld, v))
    assert abs(mean_rho(local_drift(fld, v))) <= 1e-14


def test_mean_rho():
    assert mean_rho(np.full((4, 4), 2.5)) == 2.5
    assert mean_rho(np.array([0.0, 1.0])) == 0.5
    rng = rng_for(11)
    for d, M in STACKS:
        f = rng.normal(size=(M,) + (8,) * d)
        means = mean_rho(f, d)
        assert means.shape == (M,)
        assert means.tolist() == [mean_rho(f[m]) for m in range(M)]
        # bit for bit ndarray.mean of the flattened stack, (d, M, *grid) too;
        # side 6, so that 1 / volume is inexact
        for stack in (rng.normal(size=(M,) + (6,) * d),
                      rng.normal(size=(d, M) + (6,) * d)):
            ref = stack.reshape(stack.shape[:-d] + (-1,)).mean(axis=-1)
            got = mean_rho(stack, d)
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_shift_is_np_roll_bit_for_bit(d):
    rng = rng_for(12, d)
    for side in (2, 8):
        # a field and a (d, M, *grid) stack, shifted along every axis
        for f in (rng.normal(size=(side,) * d),
                  rng.normal(size=(d, 3) + (side,) * d)):
            for axis in range(-f.ndim, f.ndim):
                for step in (1, -1):
                    got = shift(f, step, axis)
                    ref = np.roll(f, step, axis=axis)
                    assert got.shape == ref.shape and got.dtype == ref.dtype
                    assert got.tobytes() == ref.tobytes(), (side, axis, step)


@pytest.mark.parametrize("d,N", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_stencil_consumers_agree(d, N):
    # side 2 (N = 1) makes x + e_i and x - e_i the same site
    fld = random_field(d, N, 30 + d)
    geom = fld.geometry
    f = rng_for(31, d, N).normal(size=geom.grid_shape)
    # L f read off the model, site by site
    eye = np.eye(d, dtype=int)
    rates, targets = move_table(fld)
    ref = np.zeros(geom.volume)
    for k in range(geom.volume):
        x = np.array(site_coords(geom, k))
        moves = []  # (step, rate) in move order +e_1, -e_1, +e_2, ...
        for i in range(d):
            moves += [(eye[i], rate_at(fld, x, i)),
                      (-eye[i], rate_at(fld, x - eye[i], i))]
        assert rates[k].tolist() == [rate for _, rate in moves]
        assert targets[k].tolist() == [site_index(geom, x + s) for s, _ in moves]
        for step, rate in moves:
            ref[k] += rate * (f.flat[site_index(geom, x + step)] - f.flat[k])
    atol = 1e-13 * fld.ellipticity * np.abs(f).max()
    mat = dense_operator(fld)
    assert np.allclose(apply_generator(fld, f).reshape(-1), ref, rtol=0, atol=atol)
    assert np.allclose(mat @ f.reshape(-1), -ref, rtol=0, atol=atol)
    # the walker's holding rate is the diagonal of -L
    assert np.array_equal(np.cumsum(rates, axis=1)[:, -1], np.diag(mat))
