"""Gauss-map duality: forward map, dual geometry, inversion, verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualflow.dualmap import (
    CausalityError,
    DeSitterGraph,
    dual_to_primal,
    gauss_dual,
    verify_duality,
)
from dualflow.flow import make_initial
from dualflow.hgeom import HyperbolicGraph, geometry_of
from dualflow.sphere_grid import make_grid, refine_extremum
from oracles import oracle_dual_point, oracle_ds_geometry


def test_convention_flag():
    # one light-cone switch: the normal of a sphere of radius r has
    # eigentime +r and is stored as the slice u* = -r, below the equator;
    # switching back recovers the sphere
    grid = make_grid(2, 32)
    dual = gauss_dual(HyperbolicGraph(grid, np.full(32, 0.6))).dual
    assert np.all(dual.u_star < 0.0)
    assert np.abs(dual.u_star + 0.6).max() < 1e-12
    assert np.abs(dual_to_primal(dual).u - 0.6).max() < 1e-12


def test_sphere_dual_is_negated_slice():
    grid = make_grid(2, 64)
    pair = gauss_dual(HyperbolicGraph(grid, np.full(64, 0.8)))
    assert np.abs(pair.dual.u_star + 0.8).max() < 1e-12
    # cross-check one point against the embedding-level normal
    us, _ = oracle_dual_point(lambda t: np.full_like(np.asarray(t, float), 0.8), 0.7)
    assert us == pytest.approx(-0.8, abs=1e-12)


def test_sphere_dual_parametric_in_radius():
    grid = make_grid(2, 48)
    for r in (0.3, 1.0, 2.1):
        pair = gauss_dual(HyperbolicGraph(grid, np.full(48, r)))
        assert np.abs(pair.dual.u_star + r).max() < 1e-11


def test_perturbed_sphere_dual_relations():
    # extrema swap under duality; located off-grid by quartic refinement
    grid = make_grid(2, 64)
    u = 1.0 + 0.1 * np.cos(grid.theta)
    pair = gauss_dual(HyperbolicGraph(grid, u))
    us = pair.dual.u_star
    slope = np.abs(grid.d1(us)) / np.cosh(us)
    assert slope.max() < 1.0
    _, umax = refine_extremum(grid, u, "max")
    _, umin = refine_extremum(grid, u, "min")
    _, usmax = refine_extremum(grid, us, "max")
    _, usmin = refine_extremum(grid, us, "min")
    assert abs(umax + usmin) < 1e-9
    assert abs(umin + usmax) < 1e-9


def test_slice_dual_curvatures():
    grid = make_grid(2, 64)
    geo = geometry_of(DeSitterGraph(grid, np.full(64, -0.7)))
    assert np.abs(geo.kappa - math.tanh(0.7)).max() < 1e-12
    ref = oracle_ds_geometry(lambda t: np.full_like(np.asarray(t, float), -0.7), [0.9])
    assert ref["kappa_prof"][0] == pytest.approx(math.tanh(0.7), abs=1e-9)


def test_near_equator_slice_is_almost_flat():
    # the limiting slice tau = 0 is totally geodesic; kappa ~ tanh(eps)
    grid = make_grid(2, 48)
    for eps in (1e-4, 1e-7):
        geo = geometry_of(DeSitterGraph(grid, np.full(48, -eps)))
        assert np.abs(geo.kappa).max() < 2.0 * eps


def test_kappa_product_refinement():
    errs = []
    for m in (64, 128):
        grid = make_grid(2, m)
        u = 1.0 + 0.1 * np.cos(grid.theta)
        rep = verify_duality(gauss_dual(HyperbolicGraph(grid, u)))
        errs.append(rep.max_kappa_product_error)
    assert errs[0] < 2e-7
    assert errs[0] / errs[1] > 12.0


def test_verify_duality_sphere_exact():
    grid = make_grid(2, 64)
    rep = verify_duality(gauss_dual(HyperbolicGraph(grid, np.full(64, 1.2))))
    assert rep.worst() < 1e-10


def test_verify_duality_fourth_order():
    errs = []
    for m in (64, 128):
        grid = make_grid(2, m)
        u = 1.0 + 0.1 * np.cos(grid.theta)
        errs.append(verify_duality(gauss_dual(HyperbolicGraph(grid, u))).worst())
    assert errs[0] / errs[1] >= 12.0


def test_horoconvex_dual_has_small_curvature():
    grid = make_grid(2, 96)
    u = 1.2 + 0.05 * np.cos(2 * grid.theta)
    pair = gauss_dual(HyperbolicGraph(grid, u))
    geo = geometry_of(pair.dual)
    assert geo.kappa.max() <= 1.0 + 1e-10


def test_involution_round_trip():
    errs = []
    for m in (64, 128):
        grid = make_grid(2, m)
        u = 1.0 + 0.1 * np.cos(grid.theta)
        back = dual_to_primal(gauss_dual(HyperbolicGraph(grid, u)).dual)
        errs.append(np.abs(back.u - u).max())
    assert errs[0] < 5e-8
    assert errs[0] / errs[1] > 10.0


def test_involution_circle():
    grid = make_grid(1, 128)
    u = 0.9 + 0.06 * np.cos(3 * grid.theta)
    back = dual_to_primal(gauss_dual(HyperbolicGraph(grid, u)).dual)
    assert np.abs(back.u - u).max() < 5e-5


def test_desitter_graph_validation():
    grid = make_grid(2, 48)
    with pytest.raises(ValueError):
        DeSitterGraph(grid, np.full(48, 0.3))  # stored duals sit below the equator
    # a steep profile violates the spacelike bound
    with pytest.raises(CausalityError):
        DeSitterGraph(grid, -0.2 - 1.5 * np.sin(grid.theta / 2.0) ** 2 * 3.0)


def test_dual_of_offcenter_sphere():
    # translated sphere: dual eigentime extrema still reflect u extrema
    R, s = 0.8, 0.2
    grid = make_grid(2, 128)
    A, B = math.cosh(s), math.sinh(s) * np.cos(grid.theta)
    C = np.sqrt(A * A - B * B)
    u = np.arctanh(B / A) + np.arccosh(math.cosh(R) / C)
    pair = gauss_dual(HyperbolicGraph(grid, u))
    assert verify_duality(pair).worst() < 1e-7
    _, umax = refine_extremum(grid, u, "max")
    _, usmin = refine_extremum(grid, pair.dual.u_star, "min")
    assert abs(umax + usmin) < 1e-8


@pytest.mark.parametrize("seed", [8, 18])
def test_circle_gauss_map_on_fine_grid(seed):
    # on these draws the normal angle at theta = 0 moves by more than
    # three grid spacings, so wrapping three samples across the period
    # left theta = 0 outside the resampled interval
    grid = make_grid(1, 256)
    u = make_initial("random_fourier", (1.0, 0.05, 4), grid, seed=seed)
    pair = gauss_dual(HyperbolicGraph(grid, u))
    assert abs(pair.matching[0]) > 3.0 * grid.h
    h4 = grid.h**4
    assert np.abs(dual_to_primal(pair.dual).u - u).max() <= 0.1 * h4
    assert verify_duality(pair).worst() <= 20.0 * h4


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.sampled_from([1, 2]), m=st.sampled_from([64, 128, 256]))
def test_gauss_image_is_an_involution_at_fourth_order(seed, n, m):
    # any convex random_fourier profile: the dual map and its inverse
    # agree with the primal, and the duality identities hold, at O(h^4)
    grid = make_grid(n, m)
    u = make_initial("random_fourier", (1.0, 0.05, 4), grid, seed=seed)
    pair = gauss_dual(HyperbolicGraph(grid, u))
    h4 = grid.h**4
    assert np.abs(dual_to_primal(pair.dual).u - u).max() <= 0.1 * h4
    assert verify_duality(pair).worst() <= 20.0 * h4
