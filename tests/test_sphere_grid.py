"""Grids, stencils, quadrature and the monotone resampler."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualflow.sphere_grid import (
    AxisymGrid,
    CircleGrid,
    ReparametrizationError,
    _quartic_extremum,
    make_grid,
    refine_extremum,
    resample_monotone,
    sphere_area,
)
from oracles import quartic_stationary


def test_make_grid_dispatch():
    assert isinstance(make_grid(1, 32), CircleGrid)
    assert isinstance(make_grid(2, 32), AxisymGrid)
    assert isinstance(make_grid(3, 32), AxisymGrid)
    with pytest.raises(ValueError):
        make_grid(0, 32)
    with pytest.raises(ValueError):
        make_grid(2, 3)


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


def test_circle_d1_sin():
    g = make_grid(1, 64)
    err = np.abs(g.d1(np.sin(g.theta)) - np.cos(g.theta)).max()
    assert err < 5e-6
    g2 = make_grid(1, 128)
    err2 = np.abs(g2.d1(np.sin(g2.theta)) - np.cos(g2.theta)).max()
    assert err / err2 > 12.0


def test_axisym_constant_derivative_exact():
    g = make_grid(2, 48)
    assert np.abs(g.d1(np.full(48, 2.7))).max() == 0.0


def test_axisym_d2_cos_fourth_order():
    errs = []
    for m in (32, 64, 128):
        g = make_grid(2, m)
        errs.append(np.abs(g.d2(np.cos(g.theta)) + np.cos(g.theta)).max())
    assert math.log2(errs[0] / errs[1]) > 3.9
    assert math.log2(errs[1] / errs[2]) > 3.9


def test_integrate_sphere_area():
    g = make_grid(2, 256)
    assert abs(g.integrate(np.ones(256)) - 4.0 * math.pi) < 1e-10


def test_integrate_circle_exact():
    g = make_grid(1, 64)
    assert g.integrate(np.ones(64)) == pytest.approx(2.0 * math.pi, abs=1e-14)


def test_integrate_odd_moment():
    g = make_grid(2, 128)
    assert abs(g.integrate(np.cos(g.theta))) < 1e-10


def test_circle_trig_poly_derivative_fourth_order():
    # local stencils are not exact on cos^3, but the error must fall at h^4
    errs = []
    for m in (48, 96, 192):
        g = make_grid(1, m)
        c = np.cos(g.theta)
        f = 1.0 + 2.0 * c - 0.5 * c**2 + 0.25 * c**3
        fp = (-2.0 + c - 0.75 * c**2) * np.sin(g.theta)
        errs.append(np.abs(g.d1(f) - fp).max())
    assert math.log2(errs[0] / errs[1]) > 3.9
    assert math.log2(errs[1] / errs[2]) > 3.9


def test_circle_integration_by_parts():
    g = make_grid(1, 48)
    f = 1.0 + 2.0 * np.cos(g.theta) + 0.3 * np.cos(2 * g.theta)
    h = np.sin(2 * g.theta) - 0.4 * np.sin(g.theta)
    residual = g.integrate(g.d1(f) * h) + g.integrate(f * g.d1(h))
    assert abs(residual) < 1e-12


def test_even_field_odd_derivative_vanishes_at_pole():
    # d1 of an even profile is odd; its extrapolation to theta = 0 must
    # shrink under refinement
    vals = []
    for m in (32, 64, 128):
        g = make_grid(2, m)
        d = g.d1(np.cos(g.theta))
        vals.append(abs(np.polyval(np.polyfit(g.theta[:3], d[:3], 2), 0.0)))
    assert vals[0] < 1e-3
    assert vals[0] / vals[1] > 4.0
    assert vals[1] / vals[2] > 4.0


def test_resample_identity():
    x = np.linspace(0.0, math.pi, 40)
    y = np.cosh(x)
    assert np.array_equal(resample_monotone(x, y, x), y)


def test_resample_linear_exact():
    x = np.linspace(0.0, 2.0, 23)
    xq = np.linspace(0.0, 2.0, 77)
    out = resample_monotone(x, 3.0 * x - 1.0, xq)
    assert np.abs(out - (3.0 * xq - 1.0)).max() < 1e-14


def test_resample_sin_refinement():
    errs = []
    for m in (64, 128, 256):
        x = np.linspace(0.0, math.pi, m)
        xq = np.linspace(0.0, math.pi, 2 * m)
        errs.append(np.abs(resample_monotone(x, np.sin(x), xq) - np.sin(xq)).max())
    assert errs[0] < 5e-8
    assert errs[0] / errs[1] > 8.0
    assert errs[1] / errs[2] > 8.0


def test_resample_preserves_monotone_range():
    # flat run joined to a parabola: no overshoot below/above the data
    x = np.linspace(0.0, 2.0, 41)
    y = np.where(x < 1.0, 0.0, (x - 1.0) ** 2)
    xq = np.linspace(0.0, 2.0, 400)
    out = resample_monotone(x, y, xq)
    assert out.min() >= -1e-13
    assert out.max() <= 1.0 + 1e-13
    d = np.diff(resample_monotone(x, np.cumsum(np.abs(y) + 0.1), xq))
    assert d.min() > 0.0  # strictly increasing data stays increasing


def test_resample_rejects_bad_input():
    x = np.array([0.0, 1.0, 0.5, 2.0])
    with pytest.raises(ReparametrizationError):
        resample_monotone(x, x, x)
    x = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ReparametrizationError):
        resample_monotone(x, x, np.array([-0.1]))


def test_refine_extremum_tracks_offgrid_max():
    g = make_grid(2, 64)
    loc, val = refine_extremum(g, np.cos(g.theta), "max")
    assert abs(loc) < 1e-8
    assert abs(val - 1.0) < 1e-9
    loc2, val2 = refine_extremum(g, np.cos(g.theta - 0.3), "max")
    assert abs(loc2 - 0.3) < 1e-6
    assert abs(val2 - 1.0) < 1e-9


@pytest.mark.parametrize("mode", ["max", "min"])
def test_refine_extremum_picks_the_lobe_that_wins_once_refined(mode):
    # the bump centered on a node has the best sample, but the slightly
    # higher bump centered between two nodes has the best refined peak
    g = make_grid(1, 64)
    t1, t2 = g.theta[10], 0.5 * (g.theta[40] + g.theta[41])

    def prof(t):
        return np.exp(-(((t - t1) / 0.5) ** 2)) + 1.005 * np.exp(-(((t - t2) / 0.5) ** 2))

    sign = 1.0 if mode == "max" else -1.0
    assert np.argmax(prof(g.theta)) == 10
    loc, val = refine_extremum(g, sign * prof(g.theta), mode)
    fine = np.linspace(t2 - 0.1, t2 + 0.1, 200001)
    # the quartic is good to about 3e-5 here; the wrong lobe is 5e-3 off
    assert abs(val - sign * prof(fine).max()) < 1e-4
    assert abs(loc - fine[np.argmax(prof(fine))]) < 1e-3


def _agrees_with_reference(win, want):
    # the batched closed form against np.polyfit + np.roots, one window at a time
    off, val = _quartic_extremum(np.asarray(win, dtype=float)[None, :], want)
    ref_off, ref_val = quartic_stationary(np.asarray(win, dtype=float), want)
    scale = float(np.abs(win).max()) + 1.0
    assert abs(val[0] - ref_val) <= 1e-12 * scale
    if abs(off[0] - ref_off) > 1e-12:
        # a tie, as in a symmetric double hump: the offset must be another
        # stationary point of the same quartic with the same value
        coef = np.polyfit(np.arange(-2.0, 3.0), win, 4)
        assert abs(np.polyval(np.polyder(coef), off[0])) <= 1e-9 * scale
        assert abs(np.polyval(coef, off[0]) - ref_val) <= 1e-12 * scale


@settings(max_examples=300, deadline=None, derandomize=True)
@given(win=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
       want=st.sampled_from([1.0, -1.0]))
def test_quartic_extremum_matches_polyfit_roots(win, want):
    _agrees_with_reference(win, want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=st.integers(-5, 5), b=st.integers(-5, 5), c=st.integers(-5, 5),
       want=st.sampled_from([1.0, -1.0]))
def test_quartic_extremum_lower_degree_windows(a, b, c, want):
    # integer quadratics: the quartic and cubic coefficients are exactly 0,
    # so the derivative drops to a line (or a constant, c = 0)
    d = np.arange(-2.0, 3.0)
    _agrees_with_reference(a + b * d + c * d * d, want)


@pytest.mark.parametrize("level", [0.0, 1.0, -3.5])
def test_quartic_extremum_constant_window(level):
    for want in (1.0, -1.0):
        off, val = _quartic_extremum(np.full((1, 5), level), want)
        assert (off[0], val[0]) == (0.0, level)
        _agrees_with_reference([level] * 5, want)


def test_quartic_extremum_tied_humps():
    # q = 1 + x^2/12 - x^4/12 peaks at both +-1/sqrt(2)
    off, val = _quartic_extremum(np.array([[0.0, 1.0, 1.0, 1.0, 0.0]]), 1.0)
    assert abs(abs(off[0]) - math.sqrt(0.5)) < 1e-14
    assert val[0] == pytest.approx(1.0 + 1.0 / 48.0, abs=1e-14)
    _agrees_with_reference([0.0, 1.0, 1.0, 1.0, 0.0], 1.0)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), parity=st.sampled_from([1, -1]),
       want=st.sampled_from([1.0, -1.0]))
def test_quartic_extremum_pole_windows(seed, parity, want):
    # windows that straddle a pole, built by the grid's own reflection
    g = AxisymGrid(2, 16)
    p = g.pad(np.random.default_rng(seed).normal(size=16), parity)
    for lo in (0, 1, p.size - 6, p.size - 5):
        _agrees_with_reference(p[lo:lo + 5], want)


@pytest.mark.parametrize("grid", [make_grid(1, 32), make_grid(2, 32)], ids=repr)
def test_refine_extremum_batch_rows_equal_single_calls(grid):
    rows = np.random.default_rng(3).normal(size=(40, grid.m))
    rows[0] = 2.0  # flat row
    for mode in ("max", "min"):
        theta, val = refine_extremum(grid, rows, mode)
        assert theta.shape == val.shape == (40,)
        for r in range(rows.shape[0]):
            assert refine_extremum(grid, rows[r], mode) == (theta[r], val[r])
    with pytest.raises(ValueError):
        refine_extremum(grid, rows[None], "max")
    with pytest.raises(ValueError):
        refine_extremum(grid, rows[:, :-1], "max")
