import warnings

import numpy as np
import pytest

from epival import Bump, DomainExceeded, ExtGridFn, GridDomain, Polytope, interpolate
from epival.grids import _bump_values

from helpers import grid1d, grid2d, sample


def test_domain_validation():
    with pytest.raises(ValueError):
        GridDomain([0.0], [0.0], [5])
    with pytest.raises(ValueError):
        GridDomain([0.0], [1.0], [2])
    with pytest.raises(ValueError):
        GridDomain([0.0] * 4, [1.0] * 4, [5] * 4)
    d = GridDomain([-1, -1], [1, 3], [5, 9])
    assert d.ndim == 2
    assert np.allclose(d.spacing, [0.5, 0.5])
    assert d.points().shape == (45, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy can warn
        with pytest.raises(ValueError, match="overflows"):
            GridDomain([-1e308], [1e308], [5])
        with pytest.raises(ValueError, match="overflows"):
            GridDomain([0.0, -1.5e308], [1.0, 1e308], [5, 5])
        # a width that fits but squared coordinates that do not
        with pytest.raises(ValueError, match="squared coordinates overflow"):
            GridDomain([-8e307], [8e307], [5])
        with pytest.raises(ValueError, match="squared coordinates overflow"):
            GridDomain([0.0, 0.0], [1e154, 1e154], [5, 5])
        assert GridDomain([-1e154], [1e154], [5]).spacing[0] == 5e153


def test_points_row_major_last_axis_fastest():
    d = GridDomain([0, 0], [1, 2], [3, 5])
    pts = d.points()
    # first block shares the first coordinate while the second sweeps
    assert np.allclose(pts[:5, 0], 0.0)
    assert np.allclose(pts[:5, 1], np.linspace(0, 2, 5))


def test_grid_fn_invariants():
    d = grid1d(n=5)
    with pytest.raises(ValueError):
        ExtGridFn(d, [np.nan, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        ExtGridFn(d, [-np.inf, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        ExtGridFn(d, [np.inf] * 5)
    f = ExtGridFn(d, [np.inf, 1.0, 0.0, 1.0, np.inf])
    assert f.finite_mask.sum() == 3
    with pytest.raises(ValueError):
        f.values[0] = 3.0  # immutable


def test_grid_fn_scaling_keeps_infinity():
    d = grid1d(n=5)
    f = ExtGridFn(d, [np.inf, 1.0, 0.0, 1.0, np.inf])
    g = f * 0.0
    assert np.isposinf(g.values[0]) and g.values[2] == 0.0
    h = f * 2.0
    assert np.isposinf(h.values[0]) and h.values[1] == 2.0


def test_interpolation_exact_on_nodes_and_affine():
    d = grid2d(n=9)
    f = sample(d, lambda p: 3.0 * p[:, 0] - 2.0 * p[:, 1] + 0.5)
    pts = np.array([[0.37, -1.2], [1.99, 1.99], [-2.0, -2.0]])
    want = 3.0 * pts[:, 0] - 2.0 * pts[:, 1] + 0.5
    assert np.allclose(interpolate(f, pts), want, atol=1e-12)
    nodes = d.points()[[0, 17, 44]]
    got = interpolate(f, nodes)
    assert np.allclose(got, 3.0 * nodes[:, 0] - 2.0 * nodes[:, 1] + 0.5,
                       atol=1e-12)


def test_interpolation_rejects_outside_and_inf():
    d = grid1d(n=5)
    f = ExtGridFn(d, [np.inf, 1.0, 0.0, 1.0, 2.0])
    with pytest.raises(DomainExceeded):
        interpolate(f, [[5.0]])
    with pytest.raises(ValueError):
        interpolate(f, [[-1.7]])  # between an inf corner and a finite one


def test_polytope_support():
    K = Polytope([[1.0, 0.0], [-1.0, 0.0]])
    assert np.allclose(K.support([[2.0, 0.0]]), [2.0])
    Kt = K.translate([0.5, 1.0])
    assert np.allclose(Kt.vertices, [[1.5, 1.0], [-0.5, 1.0]])
    with pytest.raises(ValueError):
        Polytope(np.zeros((0, 2)))


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_bump_block_sampling_is_bit_identical(ndim):
    d = GridDomain([-1.0] * ndim, [1.0] * ndim, [9] * ndim)
    pts = d.points()
    centers = pts[::5]
    block = _bump_values(pts, centers, 0.6)
    for c, row in zip(centers, block):
        assert np.array_equal(row, Bump(c, 0.6, 1.0).sample(d).values.ravel())
        # the formula written out, one probe at a time
        u = np.sum((pts - c) ** 2, axis=1) / 0.6**2
        want = np.zeros(u.shape)
        want[u < 1.0] = 1.0 * np.exp(1.0 - 1.0 / (1.0 - u[u < 1.0]))
        assert np.array_equal(row, want)


def test_bump_support_and_smoothness():
    b = Bump([0.5], 0.25, 2.0)
    d = grid1d(n=129)
    f = b.sample(d)
    x = d.points().ravel()
    assert np.all(f.values[np.abs(x - 0.5) >= 0.25] == 0.0)
    assert f.values.max() == pytest.approx(2.0, abs=1e-6)


def test_bump_refuses_points_of_another_dimension():
    b = Bump([0.5], 0.4, 1.0)  # would broadcast to (0.5, 0.5) against 2-D points
    d = grid2d(n=9)
    for call in (lambda: b.value(d.points()), lambda: b.sample(d),
                 lambda: Bump([0.0, 0.0, 0.0], 1.0).sample(d)):
        with pytest.raises(ValueError, match="dimension"):
            call()
    assert b.sample(grid1d(n=9)).values.shape == (9,)


# 1e-100 and 1e-160 square to positive numbers, but the Hessian's
# (2 / radius^2)^2 overflows
@pytest.mark.parametrize("radius", [0.0, -1.0, 2e154, 1e300, 1e-300, 1e-160, 1e-100,
                                    np.inf, np.nan])
def test_bump_refuses_radius_whose_square_is_not_positive_and_finite(radius):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="radius"):
            Bump([0.0], radius)
        assert Bump([0.0], 1e150).radius == 1e150
        assert Bump([0.0], 1e-70).radius == 1e-70
