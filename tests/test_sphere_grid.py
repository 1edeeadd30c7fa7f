"""Grids, stencils, quadrature and the Hermite resampler."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualflow.sphere_grid import (
    AxisymGrid,
    CircleGrid,
    ReparametrizationError,
    SphereGrid,
    _POWERS,
    _QUARTIC_24,
    _quartic_extremum,
    _stationary_points,
    _window_slopes,
    make_grid,
    refine_extremum,
    resample_monotone,
    sphere_area,
)
from oracles import concatenate_pad, padded_stencils, quartic_stationary, window_slopes_by_pairs


def test_make_grid_dispatch():
    assert isinstance(make_grid(1, 32), CircleGrid)
    assert isinstance(make_grid(2, 32), AxisymGrid)
    assert isinstance(make_grid(3, 32), AxisymGrid)
    assert make_grid(1, 32).cyclic and not make_grid(2, 32).cyclic
    with pytest.raises(ValueError):
        make_grid(0, 32)
    with pytest.raises(ValueError):
        make_grid(2, 3)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [16, 17, 64, 65])
def test_band_is_the_stencil_reach(n, m):
    # the band holds each (row, column) pair that the derivatives of a unit
    # vector reach, plus the diagonal, once; a colour never repeats in a row
    grid = make_grid(n, m)
    cols, inside, colour = grid.band()
    d1, d2 = grid.derivatives(np.eye(m))
    reach = ((d1 != 0.0) | (d2 != 0.0)).T | np.eye(m, dtype=bool)
    rows = np.broadcast_to(np.arange(m), cols.shape)[inside]
    pattern = np.zeros((m, m), dtype=bool)
    pattern[rows, cols[inside]] = True
    assert np.array_equal(pattern, reach)
    assert pattern.sum() == inside.sum()
    for i in range(m):
        assert np.unique(colour[reach[i]]).size == reach[i].sum()


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


def test_circle_d1_sin():
    g = make_grid(1, 64)
    err = np.abs(g.derivatives(np.sin(g.theta))[0] - np.cos(g.theta)).max()
    assert err < 5e-6
    g2 = make_grid(1, 128)
    err2 = np.abs(g2.derivatives(np.sin(g2.theta))[0] - np.cos(g2.theta)).max()
    assert err / err2 > 12.0


def test_axisym_constant_derivative_exact():
    g = make_grid(2, 48)
    assert np.abs(g.derivatives(np.full(48, 2.7))[0]).max() == 0.0


def test_axisym_d2_cos_fourth_order():
    errs = []
    for m in (32, 64, 128):
        g = make_grid(2, m)
        errs.append(np.abs(g.derivatives(np.cos(g.theta))[1] + np.cos(g.theta)).max())
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


@pytest.mark.parametrize("n", [1, 2])
def test_integrate_stack_equals_rows(n):
    g = make_grid(n, 48)
    stack = np.random.default_rng(n).uniform(0.5, 2.0, (3, 4, 48))
    out = g.integrate(stack)
    assert out.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        assert out[idx] == g.integrate(stack[idx])
    assert isinstance(g.integrate(stack[0, 0]), float)


def test_weights_are_built_on_first_read():
    # a grid is built for every parsed config, most of which never integrate
    g = make_grid(2, 256)
    assert "weights" not in vars(g)
    w = g.weights
    assert vars(g)["weights"] is w and g.weights is w
    assert w.shape == (256,)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integrate_reads_the_weights_only(n, monkeypatch):
    g = make_grid(n, 40)
    g.weights

    def no_stencils(*args, **kwargs):
        raise AssertionError("integrate differentiated")

    monkeypatch.setattr(SphereGrid, "derivatives", no_stencils)
    v = np.random.default_rng(n).uniform(0.5, 2.0, (3, 40))
    out = g.integrate(v)
    assert out.shape == (3,) and isinstance(g.integrate(v[0]), float)
    assert out[0] == g.integrate(v[0]) == (v[0] * g.weights).sum()


@pytest.mark.parametrize("n", [2, 3])
def test_meridian_weights_are_the_cell_taylor_rule(n):
    # each cell integrates the second order Taylor expansion of the profile
    # about its node, with stencil derivatives, against sin^(n-1) resolved
    # on the cell; here the moments come from a 20-point Gauss rule
    g = make_grid(n, 48)
    x, wx = np.polynomial.legendre.leggauss(20)
    d = 0.5 * g.h * x
    ws = 0.5 * g.h * wx * np.sin(g.theta[:, None] + d) ** (n - 1)
    w0, w1, w2 = ws.sum(axis=1), (ws * d).sum(axis=1), (ws * d * d).sum(axis=1)
    for v in (np.ones(48), np.cos(g.theta) ** 2, np.random.default_rng(n).uniform(0.5, 2.0, 48)):
        vp, vpp = g.derivatives(v)
        rule = sphere_area(n - 1) * (v * w0 + vp * w1 + 0.5 * vpp * w2).sum()
        assert g.integrate(v) == pytest.approx(rule, rel=1e-14)


@pytest.mark.parametrize("n, m", [(1, 64), (1, 33), (2, 32), (3, 33)])
def test_axis_values(n, m):
    # the profile where theta is 0 and pi: a node's value where the angle is
    # a node, and otherwise sixth order accurate on a smooth profile
    def f(t):
        return 1.0 + 0.1 * np.cos(2 * t) + 0.02 * np.cos(4 * t) + 0.03 * np.cos(t)

    errs = []
    for k in (1, 3):
        g = make_grid(n, k * m)
        top, bottom = g.axis_values(f(g.theta))
        errs.append(max(abs(top - f(0.0)), abs(bottom - f(math.pi))))
        stack = np.stack([f(g.theta), 2.0 * f(g.theta)])
        assert np.array_equal(np.stack(g.axis_values(stack), axis=1)[0], [top, bottom])
    if n == 1 and m % 2 == 0:
        assert errs[0] == 0.0
    else:
        assert 1e-12 < errs[0] < 1e-4 and math.log(errs[0] / errs[1], 3) > 5.5


def test_circle_trig_poly_derivative_fourth_order():
    # local stencils are not exact on cos^3, but the error must fall at h^4
    errs = []
    for m in (48, 96, 192):
        g = make_grid(1, m)
        c = np.cos(g.theta)
        f = 1.0 + 2.0 * c - 0.5 * c**2 + 0.25 * c**3
        fp = (-2.0 + c - 0.75 * c**2) * np.sin(g.theta)
        errs.append(np.abs(g.derivatives(f)[0] - fp).max())
    assert math.log2(errs[0] / errs[1]) > 3.9
    assert math.log2(errs[1] / errs[2]) > 3.9


def test_circle_integration_by_parts():
    g = make_grid(1, 48)
    f = 1.0 + 2.0 * np.cos(g.theta) + 0.3 * np.cos(2 * g.theta)
    h = np.sin(2 * g.theta) - 0.4 * np.sin(g.theta)
    residual = g.integrate(g.derivatives(f)[0] * h) + g.integrate(f * g.derivatives(h)[0])
    assert abs(residual) < 1e-12


def test_even_field_odd_derivative_vanishes_at_pole():
    # d1 of an even profile is odd; its extrapolation to theta = 0 must
    # shrink under refinement
    vals = []
    for m in (32, 64, 128):
        g = make_grid(2, m)
        d = g.derivatives(np.cos(g.theta))[0]
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


def test_resample_fourth_order_at_a_shallow_extremum():
    # a circle profile with a shallow extremum (f'' = -0.076 near theta =
    # 3.70), sampled off the nodes: each doubling of m cuts the error by at
    # least 10, where a slope limiter binding at that extremum gives about 3
    cos = np.array([0.549, 0.146, -0.907, -0.792])
    sin = np.array([0.963, -0.248, 0.527, -0.056])
    k = np.arange(4)

    def f(t):
        kt = np.multiply.outer(t, k)
        return np.cos(kt) @ cos + np.sin(kt) @ sin

    errs = []
    for m in (64, 128, 256):
        g = CircleGrid(m)
        x = g.theta + 0.0563 * np.sin(g.theta)
        errs.append(np.abs(g.resample(x, f(x)) - f(g.theta)).max())
    assert errs[0] / errs[1] >= 10.0
    assert errs[1] / errs[2] >= 10.0


def test_stacked_resample_rows_equal_single_calls():
    # every row of an (S, m) stack resamples bit for bit as its own call; on
    # the circle the rows' shifts wrap different numbers of samples
    rng = np.random.default_rng(7)
    for g, spread in ((make_grid(1, 64), 3.0), (make_grid(2, 48), 0.4)):
        x = g.theta + rng.uniform(-spread, spread, (12, 1)) * g.h + 0.2 * g.h * np.sin(g.theta)
        y = np.cos(x) + 0.1 * np.sin(2.0 * x) * rng.uniform(size=(12, 1))
        stacked = g.resample(x, y)
        assert stacked.shape == x.shape
        for row, xr, yr in zip(stacked, x, y):
            assert np.array_equal(row, g.resample(xr, yr))
        # one row that is not monotone breaks the stack
        bad = x.copy()
        bad[3, 10] = bad[3, 9]
        with pytest.raises(ReparametrizationError):
            g.resample(bad, y)
    x = np.linspace(0.0, 1.0, 9) + np.zeros((3, 1))
    xq = np.linspace(0.1, 0.9, 5)
    assert np.array_equal(resample_monotone(x, x * x, xq)[1], resample_monotone(x[1], x[1] ** 2, xq))
    x[2] += 0.2  # the third row no longer brackets the queries
    with pytest.raises(ReparametrizationError, match="leaves the sampled interval"):
        resample_monotone(x, x, xq)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=st.sampled_from([(), (1,), (3,)]), m=st.integers(4, 40),
       seed=st.integers(0, 2**32 - 1))
def test_window_slopes_match_the_pairwise_reference(rows, m, seed):
    # the slopes, taken with windows down axis -2, are the bits of the
    # reference that builds every pairwise difference of every window
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.01, 1.0, size=rows + (m,)), axis=-1) - rng.uniform(0.0, 5.0)
    y = rng.normal(size=rows + (m,)) * 10.0 ** rng.uniform(-3.0, 3.0)
    assert _window_slopes(x, y).tobytes() == window_slopes_by_pairs(x, y).tobytes()


def test_resample_rejects_bad_input():
    x = np.array([0.0, 1.0, 0.5, 2.0])
    with pytest.raises(ReparametrizationError):
        resample_monotone(x, x, x)
    x = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ReparametrizationError):
        resample_monotone(x, x, np.array([-0.1]))


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(lead=st.floats(0.5, 1.0), sign=st.sampled_from([-1.0, 1.0]),
       phase=st.floats(0.0, 2.0 * math.pi), a=st.floats(0.07, 0.1),
       cos=st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
       sin=st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3))
def test_grid_resample_extends_by_symmetry(n, lead, sign, phase, a, cos, sin):
    # a smooth profile of the grid's symmetry: on a meridian cosines only
    # (even at both poles), on the circle any phase.  The higher modes are
    # scaled by 1/k^4 so that the first leads the fourth derivative too, and
    # a >= 0.07 moves samples far enough off the nodes that the coarse grid
    # already meets its worst position in a cell: the error constant is then
    # the same at both resolutions.
    if n > 1:
        phase, sin = 0.0, [0.0] * 3

    def f(t):
        out = sign * lead * np.cos(t - phase)
        for k, (c, s) in enumerate(zip(cos, sin), start=2):
            out = out + (c * np.cos(k * t) + s * np.sin(k * t)) / k**4
        return out

    errs = []
    for m in (64, 128):
        g = make_grid(n, m)
        assert np.array_equal(g.resample(g.theta, f(g.theta)), f(g.theta))
        # monotone angles over one fundamental domain, off the nodes
        x = g.theta + a * (np.sin(g.theta) if g.cyclic else np.sin(2.0 * g.theta))
        errs.append(np.abs(g.resample(x, f(x)) - f(g.theta)).max())
    assert errs[0] / errs[1] >= 2.0**3.5


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(co=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
       small=st.floats(-12.0, -1.0), want=st.sampled_from([1.0, -1.0]))
def test_quartic_extremum_near_quadratic_windows(co, small, want):
    # smooth data at large m: the cubic and quartic terms of a window are a
    # small multiple of its quadratic (4 c4 ~ h^4 u''''/6), here down to
    # 1e-12, so the derivative is a cubic with a nearly vanishing lead
    a, b, c, d, e = co
    x = np.arange(-2.0, 3.0)
    _agrees_with_reference(a + b * x + c * x * x + 10.0**small * (d * x**3 + e * x**4), want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(r=st.floats(-1.1, 1.1), s=st.floats(-1.1, 1.1), k=st.floats(0.1, 10.0),
       sign=st.sampled_from([1.0, -1.0]), level=st.floats(-5.0, 5.0),
       want=st.sampled_from([1.0, -1.0]))
def test_quartic_extremum_double_stationary_point(r, s, k, sign, level, want):
    # q' = k (x - r)^2 (x - s): a double stationary point at r, where q has
    # an inflection, and an extremum at s.  Rounding shows the double root
    # as two close real roots or as a complex pair, so windows where the
    # inflection would beat the center are left out
    assume(abs(r - s) > 0.05)
    k *= sign

    def q(x):
        return level + k * (x**4 / 4.0 - (2.0 * r + s) * x**3 / 3.0
                            + (r * r + 2.0 * r * s) * x * x / 2.0 - r * r * s * x)

    assume(want * k < 0.0 or want * (q(r) - q(0.0)) < -1e-9)
    _agrees_with_reference(q(np.arange(-2.0, 3.0)), want)


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


def _branch_window(kind, a, b, c, scale, level):
    """Five samples at the offsets -2..2 of a quartic whose derivative cubic
    takes the given root branch: "three" real roots (a, a + b, a + b + c), "one"
    real root a beside the complex pair of x^2 + b x + (b^2 / 4 + c), or "lead0",
    an integer cubic window, whose quartic coefficient is exactly zero."""
    x = np.arange(-2.0, 3.0)
    if kind == "lead0":
        return np.round(level) + np.round(4 * a) * x + np.round(4 * b) * x * x + np.round(4 * c) * x**3
    if kind == "three":
        r = (a, a + b, a + b + c)
        e1, e2, e3 = sum(r), r[0] * r[1] + r[0] * r[2] + r[1] * r[2], r[0] * r[1] * r[2]
    else:  # (x - a)(x^2 + b x + q) = x^3 - e1 x^2 + e2 x - e3
        q = b * b / 4.0 + c
        e1, e2, e3 = a - b, q - a * b, a * q
    return level + scale * (x**4 / 4.0 - e1 * x**3 / 3.0 + e2 * x * x / 2.0 - e3 * x)


def _branch(win):
    """The root branch _quartic_extremum's cubic takes on a window."""
    der = ((win[None, None, :] * _QUARTIC_24).sum(axis=-1) / 24.0)[:, :0:-1] * _POWERS
    if der[0, 0] == 0.0:
        return "lead0"
    with np.errstate(all="ignore"):
        return {0: "three", 2: "one"}.get(int(np.isnan(_stationary_points(der)).sum()))


_WINDOW = st.tuples(st.floats(-1.5, 0.5), st.floats(0.2, 0.5), st.floats(0.2, 0.5),
                    st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
                    st.floats(-5.0, 5.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["three", "one", "lead0"]), target=_WINDOW,
       others=st.lists(st.tuples(st.sampled_from(["three", "one", "lead0"]), _WINDOW),
                       min_size=1, max_size=5),
       at=st.integers(0, 6), want=st.sampled_from([1.0, -1.0]))
def test_quartic_extremum_batch_mixes_root_branches(kind, target, others, at, want):
    # each closed form runs only when some row of the batch takes it: a
    # window's offset and value are the same bits alone and in a batch with
    # windows of every root branch (one real root, three, an exact leading
    # zero), wherever it sits in the batch
    wins = [_branch_window(k, *w) for k, w in
            [("three", target), ("one", target), ("lead0", target)] + others]
    assert [_branch(w) for w in wins[:3]] == ["three", "one", "lead0"]
    win = _branch_window(kind, *target)
    assert _branch(win) == kind
    at = min(at, len(wins))
    batch = np.array(wins[:at] + [win] + wins[at:])
    off, val = _quartic_extremum(batch, want)
    alone = _quartic_extremum(win[None, :], want)
    assert off[at].tobytes() == alone[0][0].tobytes()
    assert val[at].tobytes() == alone[1][0].tobytes()
    for w, o, v in zip(np.delete(batch, at, axis=0), np.delete(off, at), np.delete(val, at)):
        single = _quartic_extremum(w[None, :], want)
        assert (o.tobytes(), v.tobytes()) == (single[0][0].tobytes(), single[1][0].tobytes())


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


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 2, 3]), m=st.integers(16, 40), parity=st.sampled_from([1, -1]),
       rows=st.sampled_from([(), (1,), (3,), (2, 5)]), seed=st.integers(0, 2**32 - 1))
def test_gather_pad_and_stencils_match_concatenation(n, m, parity, rows, seed):
    # the gathered padded copy and the derivative pair equal the
    # concatenated copy and its stencils bit for bit, on profiles and stacks
    g = make_grid(n, m)
    v = np.random.default_rng(seed).normal(size=rows + (m,))
    v[..., 0] = -0.0 if seed % 2 else v[..., 0]  # the sign of zero survives the gather
    p = concatenate_pad(g, v, parity)
    d1, d2 = padded_stencils(p, g.h)
    assert _same_bits(g.pad(v, parity), p)
    pair = g.derivatives(v, parity)
    assert _same_bits(pair[0], d1) and _same_bits(pair[1], d2)


def test_pad_rejects_parity():
    for g in (make_grid(1, 16), make_grid(2, 16)):
        with pytest.raises(ValueError):
            g.pad(np.ones(16), 0)
