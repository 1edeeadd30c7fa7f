"""Independent reference computations used to pin expected test values.

Everything here but the last two sections deliberately avoids the
package's own formula paths: curvatures come from finite differences of
the Minkowski embedding, symmetric polynomials from brute-force
enumeration, radii from dense scans.  Steps are taken on analytic
callables, so the reference accuracy (~1e-10) sits far below the
tolerances asserted in tests.  The last two sections read the package's
own kernels: helpers that only the tests call, and the instruments the
acceptance criteria measure with.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from dualflow.flow import _JAC_STEP, FlowTrajectory, _fill_geometry, _sphere_theta

# fourth order five-point differences on a callable, step chosen so
# truncation ~1e-12 and rounding ~1e-11 balance
FD_STEP = 1e-3


def minkowski_inner(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -x[..., 0] * y[..., 0] + (x[..., 1:] * y[..., 1:]).sum(axis=-1)


def fd1(f, x, h=FD_STEP):
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def fd2(f, x, h=FD_STEP):
    return (
        -f(x - 2 * h) + 16 * f(x - h) - 30 * f(x) + 16 * f(x + h) - f(x + 2 * h)
    ) / (12 * h * h)


# ----------------------------------------------------------------------
# embeddings: hyperbolic and de Sitter surfaces of revolution
# ----------------------------------------------------------------------
# Coordinates (x0, x1, x2, x3) with the rotation axis last: the meridian
# plane is spanned by slots 1 (sin) and 3 (cos), slot 2 carries the
# second angular direction used for n = 2 angular curvatures.


def embed_h(u_func, theta, s=0.0):
    """Point of the hyperbolic surface x0 = cosh u, spatial = sinh u * omega."""
    u = u_func(theta)
    st, ct = np.sin(theta), np.cos(theta)
    return np.stack(
        [np.cosh(u), np.sinh(u) * st * np.cos(s), np.sinh(u) * st * np.sin(s), np.sinh(u) * ct],
        axis=-1,
    )


def embed_ds(us_func, theta, s=0.0):
    """Point of the stored de Sitter graph x0 = sinh u*, spatial = cosh u* * omega."""
    t = us_func(theta)
    st, ct = np.sin(theta), np.cos(theta)
    return np.stack(
        [np.sinh(t), np.cosh(t) * st * np.cos(s), np.cosh(t) * st * np.sin(s), np.cosh(t) * ct],
        axis=-1,
    )


def _unit_normal_h(u_func, theta):
    """Exterior unit normal of the hyperbolic surface from orthogonality alone.

    Solves <nu, X> = 0, <nu, X_theta> = 0, <nu, X_s> = 0, <nu, nu> = 1
    with the outward orientation (positive radial component).
    """
    theta = float(theta)
    X = embed_h(u_func, theta)
    Xt = fd1(lambda t: embed_h(u_func, t), theta)
    Xs = fd1(lambda s: embed_h(u_func, theta, s), 0.0)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    A = np.stack([X, Xt, Xs]) @ eta
    _, _, vh = np.linalg.svd(A)
    nu = vh[-1]
    norm2 = minkowski_inner(nu, nu)
    assert norm2 > 0, "normal of a hyperbolic hypersurface must be spacelike"
    nu = nu / math.sqrt(norm2)
    # outward means positive component along d/du of the embedding
    Er = np.array(
        [
            np.sinh(u_func(theta)),
            np.cosh(u_func(theta)) * np.sin(theta),
            0.0,
            np.cosh(u_func(theta)) * np.cos(theta),
        ]
    )
    if minkowski_inner(nu, Er) < 0:
        nu = -nu
    return X, Xt, Xs, nu


def oracle_h_geometry(u_func, thetas):
    """Reference v, principal curvatures and normal for a hyperbolic graph.

    Returns dict of arrays over thetas: kappa_prof, kappa_ang, nu (rows),
    g_prof, g_ang, h_prof, h_ang.  Second fundamental form via
    h_ij = -<nu, X_ij>, curvatures as h/g on the diagonal frame.
    """
    out = {k: [] for k in ("kappa_prof", "kappa_ang", "nu", "g_prof", "g_ang", "h_prof", "h_ang")}
    for th in np.atleast_1d(thetas):
        th = float(th)
        X, Xt, Xs, nu = _unit_normal_h(u_func, th)
        Xtt = fd2(lambda t: embed_h(u_func, t), th)
        Xss = fd2(lambda s: embed_h(u_func, th, s), 0.0)
        g_p = minkowski_inner(Xt, Xt)
        g_a = minkowski_inner(Xs, Xs)
        h_p = -minkowski_inner(nu, Xtt)
        h_a = -minkowski_inner(nu, Xss)
        out["kappa_prof"].append(h_p / g_p)
        out["kappa_ang"].append(h_a / g_a)
        out["nu"].append(nu)
        out["g_prof"].append(g_p)
        out["g_ang"].append(g_a)
        out["h_prof"].append(h_p)
        out["h_ang"].append(h_a)
    return {k: np.array(v) for k, v in out.items()}


def oracle_ds_geometry(us_func, thetas):
    """Reference geometry of a stored (time-reflected) de Sitter graph.

    The normal is timelike, normalized to <mu, mu> = -1 and past
    directed (mu0 < 0); curvatures from h_ij = -<mu, X_ij>.
    """
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    out = {k: [] for k in ("kappa_prof", "kappa_ang", "mu", "g_prof", "g_ang", "h_prof", "h_ang")}
    for th in np.atleast_1d(thetas):
        th = float(th)
        X = embed_ds(us_func, th)
        Xt = fd1(lambda t: embed_ds(us_func, t), th)
        Xs = fd1(lambda s: embed_ds(us_func, th, s), 0.0)
        Xtt = fd2(lambda t: embed_ds(us_func, t), th)
        Xss = fd2(lambda s: embed_ds(us_func, th, s), 0.0)
        A = np.stack([X, Xt, Xs]) @ eta
        _, _, vh = np.linalg.svd(A)
        mu = vh[-1]
        norm2 = minkowski_inner(mu, mu)
        assert norm2 < 0, "normal of a spacelike graph must be timelike"
        mu = mu / math.sqrt(-norm2)
        if mu[0] > 0:
            mu = -mu
        g_p = minkowski_inner(Xt, Xt)
        g_a = minkowski_inner(Xs, Xs)
        h_p = -minkowski_inner(mu, Xtt)
        h_a = -minkowski_inner(mu, Xss)
        out["kappa_prof"].append(h_p / g_p)
        out["kappa_ang"].append(h_a / g_a)
        out["mu"].append(mu)
        out["g_prof"].append(g_p)
        out["g_ang"].append(g_a)
        out["h_prof"].append(h_p)
        out["h_ang"].append(h_a)
    return {k: np.array(v) for k, v in out.items()}


def oracle_dual_point(u_func, theta):
    """Gauss image of one surface point: (u_star, dual_angle).

    The dual point IS the exterior normal; its eigentime is negated by
    the light-cone switch, the dual angle read off the spatial part.
    """
    _, _, _, nu = _unit_normal_h(u_func, float(theta))
    u_star = -math.asinh(nu[0])
    ang = math.atan2(math.hypot(nu[1], nu[2]), nu[3])
    return u_star, ang


# ----------------------------------------------------------------------
# closed forms: an off-centre geodesic sphere and its Gauss image
# ----------------------------------------------------------------------
# With A = cosh s and B = sinh s cos(theta), the sphere of radius R about
# the axis point c = (cosh s, 0, .., sinh s) obeys -<X, c> = cosh R, and
# its exterior normals fill the boosted slice <nu, c> = -sinh R.

def translated_sphere(grid, R, s):
    """Radial graph of the sphere of radius R centred at distance s along
    the axis, from cosh R = cosh u cosh s - sinh u sinh s cos(theta)."""
    A, B = math.cosh(s), math.sinh(s) * np.cos(grid.theta)
    return np.arctanh(B / A) + np.arccosh(math.cosh(R) / np.sqrt(A * A - B * B))


def boosted_slice(grid, R, s):
    """Stored dual graph of that sphere's Gauss image: the normal
    (sinh tau, cosh tau omega) meets sinh R = A sinh tau - B cosh tau at
    eigentime tau = artanh(B / A) + arsinh(sinh R / sqrt(A^2 - B^2)),
    stored negated as u* = -tau."""
    A, B = math.cosh(s), math.sinh(s) * np.cos(grid.theta)
    return -np.arcsinh(math.sinh(R) / np.sqrt(A * A - B * B)) - np.arctanh(B / A)


# ----------------------------------------------------------------------
# curve case (n = 1): plane sections, embedding in R^{2,1}
# ----------------------------------------------------------------------

def oracle_curve_geometry(u_func, thetas):
    """Reference curvature of a closed curve graph in the hyperbolic plane."""
    def emb(t):
        u = u_func(t)
        return np.stack([np.cosh(u), np.sinh(u) * np.sin(t), np.sinh(u) * np.cos(t)], axis=-1)

    eta = np.diag([-1.0, 1.0, 1.0])
    kappas, nus = [], []
    for th in np.atleast_1d(thetas):
        th = float(th)
        X = emb(th)
        Xt = fd1(emb, th)
        Xtt = fd2(emb, th)
        A = np.stack([X, Xt]) @ eta
        _, _, vh = np.linalg.svd(A)
        nu = vh[-1]
        nu = nu / math.sqrt(minkowski_inner(nu, nu))
        Er = np.array([np.sinh(u_func(th)), np.cosh(u_func(th)) * np.sin(th), np.cosh(u_func(th)) * np.cos(th)])
        if minkowski_inner(nu, Er) < 0:
            nu = -nu
        kappas.append(-minkowski_inner(nu, Xtt) / minkowski_inner(Xt, Xt))
        nus.append(nu)
    return np.array(kappas), np.array(nus)


# ----------------------------------------------------------------------
# brute-force symmetric polynomials
# ----------------------------------------------------------------------

def brute_esp(kappa, k):
    """Elementary symmetric polynomial by explicit subset enumeration."""
    kappa = list(kappa)
    if k == 0:
        return 1.0
    return float(sum(math.prod(c) for c in itertools.combinations(kappa, k)))


def brute_chs(kappa, k):
    """Complete homogeneous symmetric polynomial by multiset enumeration."""
    kappa = list(kappa)
    if k == 0:
        return 1.0
    return float(
        sum(math.prod(c) for c in itertools.combinations_with_replacement(kappa, k))
    )


def power_mean_gradient(kappa, r):
    """Closed-form gradient of the normalized power mean ((1/n) sum kappa_l^r)^(1/r):
    F_i = n^(-1/r) S^(1/r - 1) kappa_i^(r-1), with S = sum kappa_l^r."""
    kappa = np.asarray(kappa, dtype=float)
    s = (kappa ** r).sum()
    return kappa.size ** (-1.0 / r) * s ** (1.0 / r - 1.0) * kappa ** (r - 1.0)


def power_mean_hessian(kappa, r):
    """Closed-form Hessian of the same power mean:
    F_ij = n^(-1/r) (1 - r) S^(1/r - 2) kappa_i^(r-2) (kappa_i kappa_j^(r-1) - S delta_ij)."""
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.size
    s = (kappa ** r).sum()
    core = np.outer(kappa, kappa ** (r - 1.0)) - s * np.eye(n)
    return n ** (-1.0 / r) * (1.0 - r) * s ** (1.0 / r - 2.0) * (kappa ** (r - 2.0))[:, None] * core


def fd_gradient(fval, kappa, h=1e-6):
    kappa = np.asarray(kappa, dtype=float)
    g = np.zeros(kappa.size)
    for i in range(kappa.size):
        kp, km = kappa.copy(), kappa.copy()
        kp[i] += h
        km[i] -= h
        g[i] = (fval(kp) - fval(km)) / (2 * h)
    return g


def fd_hessian(fval, kappa, h=1e-4):
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.size
    H = np.zeros((n, n))
    for i in range(n):
        kp, km = kappa.copy(), kappa.copy()
        kp[i] += h
        km[i] -= h
        H[i, i] = (fval(kp) - 2 * fval(kappa) + fval(km)) / (h * h)
        for j in range(i + 1, n):
            kpp, kpm, kmp, kmm = (kappa.copy() for _ in range(4))
            kpp[i] += h
            kpp[j] += h
            kmm[i] -= h
            kmm[j] -= h
            kpm[i] += h
            kpm[j] -= h
            kmp[i] -= h
            kmp[j] += h
            H[i, j] = H[j, i] = (fval(kpp) - fval(kpm) - fval(kmp) + fval(kmm)) / (4 * h * h)
    return H


def symmetric_by_full_recursion(kappa, n, k=None):
    """[H_0, ..., H_n] of kappa's trailing axis (an array or a _Jet) by the
    recursion with every term written out, e = [1, 0, ..., 0] and e_j +=
    kappa_i e_(j-1); with k given, [h_0, ..., h_k], the complete ones.  The
    bitwise reference for curvfn._esp and _chs, which skip the product by
    e_0 = 1 and the sum into 0."""
    e = [1.0] + [0.0] * (n if k is None else k)
    for i in range(n):
        x = kappa[..., i]
        for j in range(i + 1, 0, -1) if k is None else range(1, k + 1):
            e[j] = e[j] + x * e[j - 1]
    return e


# ----------------------------------------------------------------------
# grid stencils: the padded copy by concatenation
# ----------------------------------------------------------------------

def concatenate_pad(grid, values, parity=1):
    """Two ghost nodes on each side of the last axis, by concatenation: the
    circle wraps around (it ignores parity), a meridian grid mirrors the two
    nodes nearest each pole with the parity sign."""
    v = np.asarray(values, dtype=float)
    if grid.n == 1:
        return np.concatenate([v[..., -2:], v, v[..., :2]], axis=-1)
    s = float(parity)
    return np.concatenate([s * v[..., 1::-1], v, s * v[..., :-3:-1]], axis=-1)


def padded_stencils(p, h):
    """Centered fourth order first and second derivatives of a padded copy,
    as the grids computed them one stencil at a time."""
    d1 = ((p[..., :-4] - p[..., 4:]) + 8.0 * (p[..., 3:-1] - p[..., 1:-3])) / (12.0 * h)
    d2 = (
        16.0 * (p[..., 1:-3] + p[..., 3:-1])
        - (p[..., :-4] + p[..., 4:])
        - 30.0 * p[..., 2:-2]
    ) / (12.0 * h * h)
    return d1, d2


def window_slopes_by_pairs(x, y):
    """Nodal derivatives of the local quartic interpolants, row by row, from
    the (.., m, 5, 5) array of every pairwise difference in each node's
    window, as resample_monotone took its slopes one window per node."""
    m, win = x.shape[-1], min(5, x.shape[-1])
    rows = np.arange(m)
    lo = np.minimum(np.maximum(rows - (win - 1) // 2, 0), m - win)
    idx, c = lo[:, None] + np.arange(win), rows - lo
    xw = x.take(idx, axis=-1)
    d = xw[..., :, None] - xw[..., None, :]
    d[..., np.arange(win), np.arange(win)] = 1.0
    dc = d[..., rows, c, :]
    w = dc.prod(axis=-1, keepdims=True) / (dc * d.prod(axis=-1))
    inv = 1.0 / dc
    inv[..., rows, c] = 0.0
    w[..., rows, c] = inv.sum(axis=-1)
    return (w * y.take(idx, axis=-1)).sum(axis=-1)


def random_fourier_by_modes(grid, r0, amp, kmax, seed):
    """The random_fourier datum drawn and summed one mode at a time (a
    sine's coefficient drawn after each cosine's), redrawn until its
    curvatures (_kappa) are positive."""
    from dualflow.hgeom import _kappa

    rng = np.random.default_rng(seed)
    for _ in range(64):
        coef = rng.normal(size=int(kmax)) / np.arange(1, kmax + 1) ** 2
        u = r0 + 0.0 * grid.theta
        for k, c in enumerate(coef, start=1):
            u = u + amp * c * np.cos(k * grid.theta)
            if grid.cyclic:
                u = u + amp * rng.normal() / k**2 * np.sin(k * grid.theta)
        if u.min() > 0.05 and np.all(_kappa(grid, u, 1.0)[2] > 0.0):
            return u
    return None


# ----------------------------------------------------------------------
# sub-grid extremum: the quartic window, one at a time
# ----------------------------------------------------------------------

def quartic_stationary(vals5, want):
    """Best stationary point of the quartic through five samples, one
    window at a time through np.polyfit and np.roots.

    vals5 sits at local offsets (-2, -1, 0, 1, 2); want is +1 to seek a
    maximum, -1 a minimum.  Candidates are the real stationary points
    within 1.2 spacings of the center plus the center itself; returns
    (offset, value) of the best one, so flat or monotone windows fall
    back to the central sample.
    """
    d = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    coef = np.polyfit(d, vals5, 4)
    scale = float(np.abs(vals5).max()) + 1.0
    cand = [0.0]
    der = np.polyder(coef)
    if np.abs(der).max() > 1e-13 * scale:
        roots = np.roots(der)
        real = roots[np.abs(roots.imag) < 1e-9].real
        cand += [float(r) for r in real if abs(r) <= 1.2]
    vals = [float(np.polyval(coef, c)) for c in cand]
    i = int(np.argmax([want * v for v in vals]))
    return cand[i], vals[i]


# ----------------------------------------------------------------------
# dense scans
# ----------------------------------------------------------------------

def dense_inradius_scan(u_func, n_theta=2000, n_s=3001, circle=False, s_range=None):
    """Axis-centered in/circumradius by brute force over (s, theta).

    Candidate centers (cosh s, 0, .., sinh s) restricted to the inside
    of the body, i.e. s between the two axis crossings -u(pi), u(0),
    or to s_range = (lo, hi) when given (to rescan around an earlier
    optimum); distance cosh d = -<P, C>.  Returns (rho_minus, s_minus,
    rho_plus, s_plus).
    """
    top = 2.0 * math.pi if circle else math.pi
    th = np.linspace(0.0, top, n_theta)
    u = u_func(th)
    P0 = np.cosh(u)
    Pz = np.sinh(u) * np.cos(th)
    lo = -float(u_func(np.array([math.pi]))[0])
    hi = float(u_func(np.array([0.0]))[0])
    if s_range is not None:
        lo, hi = s_range
    s = np.linspace(lo + 1e-9, hi - 1e-9, n_s)
    # -<P, C> = P0 cosh s - Pz sinh s  (transverse part orthogonal to axis)
    coshd = P0[None, :] * np.cosh(s)[:, None] - Pz[None, :] * np.sinh(s)[:, None]
    d = np.arccosh(np.clip(coshd, 1.0, None))
    dmin = d.min(axis=1)
    dmax = d.max(axis=1)
    i_in = int(np.argmax(dmin))
    i_out = int(np.argmin(dmax))
    return float(dmin[i_in]), float(s[i_in]), float(dmax[i_out]), float(s[i_out])


# ----------------------------------------------------------------------
# flow reference: one explicit Euler step at the embedding level
# ----------------------------------------------------------------------

def oracle_flow_step(u_func, speed_of_kappas, dt, thetas, n=2):
    """Move each point by -F nu dt in Minkowski space and re-read u(theta).

    speed_of_kappas takes the vector (kappa_prof, kappa_ang, ..) of
    length n.  Points leave the hyperboloid at O(dt^2) and are pulled
    back by normalization; the new graph is interpolated back to the
    requested angles with a cubic spline on a fine sweep.
    """
    from scipy.interpolate import CubicSpline

    fine = np.linspace(1e-3, math.pi - 1e-3, 1201)
    geo = oracle_h_geometry(u_func, fine)
    X = embed_h(u_func, fine)
    kap = np.stack([geo["kappa_prof"]] + [geo["kappa_ang"]] * (n - 1), axis=-1)
    F = np.array([speed_of_kappas(k) for k in kap])
    Xn = X - dt * F[:, None] * geo["nu"]
    nrm = np.sqrt(-minkowski_inner(Xn, Xn))
    Xn = Xn / nrm[:, None]
    u_new = np.arccosh(np.clip(Xn[:, 0], 1.0, None))
    th_new = np.arctan2(np.hypot(Xn[:, 1], Xn[:, 2]), Xn[:, 3])
    order = np.argsort(th_new)
    spl = CubicSpline(th_new[order], u_new[order])
    thetas = np.atleast_1d(thetas)
    if thetas.min() < th_new.min() or thetas.max() > th_new.max():
        raise ValueError("requested angles leave the swept range")
    return spl(thetas)


# ----------------------------------------------------------------------
# time-integration reference: explicit RK4 under the parabolic bound
# ----------------------------------------------------------------------

def _side_speed(grid, u, F, eps):
    """Graph factor v, curvatures kappa and the values of F on them, of the
    profile u on side eps.  F is the side's speed as a plain function of that
    side's curvatures: the primal speed, or on the dual side its inverse
    curvfn.invert(F), so the reference never goes through the package's
    F(kappa^eps)^eps rule."""
    from dualflow.hgeom import _kappa

    _, v, kappa = _kappa(grid, u, eps)
    return v, kappa, np.asarray(F.value(kappa))


def parabolic_dt(state, F, cfl, grid, eps=1.0):
    """Explicit step bound from the linearized diffusion coefficient.

    Primal: dt = cfl (h sinh u_min)^2 / max_nodes(sum_i F_i).  Dual: the
    coefficient is sum_i F~_i / (F~^2 v~^2 cosh^2 u*), hence
    dt = cfl (h min(v~ cosh u*))^2 / max(sum_i F~_i / F~^2).
    F is the side's speed, as in _side_speed.
    """
    v, kappa, F_value = _side_speed(grid, state.u, F, eps)
    grad = np.asarray(F.gradient(kappa)).sum(axis=-1)
    if eps > 0:
        return cfl * (grid.h * math.sinh(state.u.min())) ** 2 / grad.max()
    S = (grad / (F_value * F_value)).max()
    return cfl * (grid.h * (v * np.cosh(state.u)).min()) ** 2 / S


def rk4_step(state, F, cfl, grid, dt_cap=None, eps=1.0):
    """One classical RK4 step of either flow (eps = +1 primal, -1 dual) on
    the package's own curvatures, with the parabolic step bound, snapped
    onto dt_cap when the bound reaches it.  F is the side's speed, as in
    _side_speed, and the graph velocity is -F v on the primal side and
    v / F~ on the dual side.  The reference the implicit integrator is
    held to: a different time discretization of the same semi-discrete
    system."""
    from dualflow.flow import FlowState

    dt = parabolic_dt(state, F, cfl, grid, eps)
    if dt_cap is not None and dt > dt_cap - 1e-13:
        dt = dt_cap

    def rhs(u):
        v, _, F_value = _side_speed(grid, u, F, eps)
        return -F_value * v if eps > 0 else v / F_value

    u = state.u
    k1 = rhs(u)
    k2 = rhs(u + 0.5 * dt * k1)
    k3 = rhs(u + 0.5 * dt * k2)
    k4 = rhs(u + dt * k3)
    u_new = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return FlowState(state.t + dt, u_new, grid, F, eps)


def rk4_profiles(grid, F, u0, targets, eps=1.0, cfl=0.2):
    """Profiles at the sorted target times, integrated from u0 at t = 0 by
    rk4_step."""
    from dualflow.flow import FlowState

    state = FlowState(0.0, u0, grid, F, eps)
    out = []
    for tt in targets:
        while state.t < tt - 1e-13:
            state = rk4_step(state, F, cfl, grid, tt - state.t, eps)
        out.append(state.u)
    return out


def spherical_theta_ref(t, r0):
    """Closed-form shrinking-sphere radius arccosh(cosh(r0) e^{-t})."""
    return np.arccosh(np.cosh(r0) * np.exp(-np.asarray(t, dtype=float)))


# ----------------------------------------------------------------------
# helpers only the tests call, on the package's own kernels
# ----------------------------------------------------------------------
# Unlike the oracles above, these read the package's own geometry,
# symmetric-polynomial recursion or one-sided velocity kernel, so their
# tests still check src.


def elementary_symmetric(kappa, k):
    """H_k(kappa) by the package's recursion curvfn._esp; H_0 = 1.
    Vectorized over leading axes."""
    from dualflow.curvfn import ConstructionError, _esp

    arr = np.asarray(kappa, dtype=float)
    n = arr.shape[-1]
    if not 0 <= k <= n:
        raise ConstructionError(f"elementary symmetric degree {k} needs 0 <= k <= {n}")
    out = np.full(arr.shape[:-1], _esp(arr, n)[k])
    return float(out) if out.ndim == 0 else out


def joint_eval_by_sides(solver, y):
    """RadauIIA._eval of a joint rescaled vector (u~, s, E, w), or of each
    row of a stack, by two one-sided kernel calls: flow._masked_rhs on
    lambda u~ at the primal's eps, then on lambda w at -eps, the parts
    joined by concatenation.  The reference for the one signed call."""
    from dualflow.flow import _masked_rhs

    m = solver.grid.m
    lam = np.exp(y[..., m:m + 1])
    ok, f = _masked_rhs(solver.grid, solver.F, solver.eps, lam * y[..., :m])
    q = -solver.eps * (f @ solver._weights)[..., None]
    parts = [y[..., :m] + f / q, np.full_like(q, -1.0), lam / q - lam * np.tanh(lam)]
    w = y[..., m + 2:]
    ok_w, f_w = _masked_rhs(solver.grid, solver.F, -solver.eps, lam * w)
    return ok & ok_w, np.concatenate(parts + [w + f_w / q], axis=-1)


def jacobian_by_full_stack(solver, y):
    """RadauIIA._jacobian on its dense path by the two-sided stack: central
    differences of both sides of every row of y + diag(delta) and of
    y - diag(delta) through _eval, the primal side of the rows that move w
    alone included, with no block zeroed.  The reference for the colour-row
    assembly, which must equal it bit for bit."""
    delta = _JAC_STEP * np.maximum(np.abs(y), 1.0)
    dy = solver._eval(y + np.diag(delta))[1] - solver._eval(y - np.diag(delta))[1]
    return dy.T / (2.0 * delta)


def band_jacobian_by_complex_step(grid, F, eps, u):
    """The flow-time band of d(du/dt)/du at the profile u, (5, m) as
    RadauIIA._jacobian keeps it, by the complex step (Squire & Trapp 1998):
    each colour of grid.band() moves by i 1e-30, the padded complex profile
    goes through padded_stencils, this copy of the warped-graph curvatures
    and F._value (1 / F(1 / kappa) on the dual side, eps = -1), and entry
    (k, i) reads Im(du/dt) / 1e-30 at its column's colour.  It takes no
    difference, so it is exact to rounding."""
    cols, inside, colour = grid.band()
    z = u + 1e-30j * (colour == np.arange(colour.max() + 1)[:, None])
    d1, d2 = padded_stencils(z.take(grid._pad_index, axis=-1), grid.h)
    S, C = (np.sinh(z), np.cosh(z)) if eps > 0 else (np.cosh(z), np.sinh(z))
    slope = d1 / S
    v = np.sqrt(1.0 + eps * slope * slope)
    profile = (eps * C - (d2 / S - d1 * d1 * C / (S * S)) / (v * v)) / (v * S)
    angular = [(eps * C - grid.cot * slope) / (v * S)] * (grid.n - 1) if grid.n > 1 else []
    kappa = np.stack([profile] + angular, axis=-1)
    F_value = F._value(kappa) if eps > 0 else 1.0 / F._value(1.0 / kappa)
    g = (-F_value * v if eps > 0 else v / F_value).imag / 1e-30
    return np.where(inside, g[colour[cols], np.arange(grid.m)], 0.0)


def golden_inball(g, tol=1e-9):
    """hgeom.inradius_circumradius of a graph or a list of them by the
    golden-section zoom it once took (Kiefer 1953), state by state, until
    both brackets are below tol: the same coarse scans on hgeom._score's
    values, then per round one new offset per side, a golden step from the
    best offset into the longer side of its bracket, keeping the best offset
    seen.  At tol = 1e-9 it is the former zoom; at 1e-14 the reference."""
    from dualflow import hgeom

    gs = [g] if hasattr(g, "grid") else list(g)
    grid, gold = gs[0].grid, 0.5 * (3.0 - 5.0 ** 0.5)
    out = []
    for c in hgeom._hoist(grid, np.stack([x.u for x in gs]))[:, None]:
        lo, hi = 1e-9 - c[:, -1], c[:, -2] - 1e-9
        s = np.linspace(lo, hi, hgeom._SCAN, axis=-1)[:, None, :]
        f = hgeom._score(grid, c, s)[0]
        rise = np.diff(f, axis=-1)
        dense = not np.where(np.arange(hgeom._SCAN - 1) < np.argmax(f, axis=-1)[..., None],
                             rise >= -1e-7, rise <= 1e-7).all()
        if dense:
            s = np.linspace(lo[0], hi[0], hgeom._DENSE)[None, None, :]
            f = hgeom._score(grid, c, s)[0]
        s, f, k = np.broadcast_to(s, f.shape)[0], f[0], np.argmax(f[0], axis=-1)
        sides, top = np.arange(2), s.shape[-1] - 1
        best, at = f[sides, k], s[sides, k]
        a, b = s[sides, np.maximum(k - 1, 0)], s[sides, np.minimum(k + 1, top)]
        while (b - a).max() > tol:
            step = gold * np.where(at - a > b - at, a - at, b - at)
            x = at + step
            fx = hgeom._score(grid, c, x[None, :, None])[0][0, :, 0]
            better, right = fx > best, step > 0.0
            moved = np.where(better, at, x)
            a, b = np.where(better == right, moved, a), np.where(better != right, moved, b)
            at, best = np.where(better, x, at), np.where(better, fx, best)
        out.append(hgeom.InballResult(rho_minus=float(best[0]), rho_plus=float(-best[1]),
                                      center_offset=float(at[0]), dense_fallback=dense))
    return out[0] if hasattr(g, "grid") else out


def kn_term_gap(F, kappa):
    """Left side and curvature spread of the gradient-trace inequality.

    Returns (sum_i F_i |A|^2 - F H, sum_{i<j} (kappa_i - kappa_j)^2)
    per sample; the first dominates a positive multiple of the second
    on horoconvex samples, which a scan calibrates.
    """
    kappa = np.asarray(kappa, dtype=float)
    S = np.asarray(F.gradient(kappa)).sum(axis=-1)
    Fv = np.asarray(F.value(kappa))
    A2 = (kappa * kappa).sum(axis=-1)
    H = kappa.sum(axis=-1)
    lhs = S * A2 - Fv * H
    nn = kappa.shape[-1]
    spread = nn * A2 - H * H
    return lhs, spread


@dataclass(frozen=True)
class EuclideanComparison:
    """Beltrami-image geometry next to the hyperbolic one, per node.

    r is the Euclidean radius tanh u of the image graph, v_e its graph
    factor, h_ratio the ratio of Euclidean to hyperbolic second
    fundamental form diagonal entries (columns: profile direction, then
    angular when n >= 2).
    """

    r: np.ndarray
    v_e: np.ndarray
    h_ratio: np.ndarray


def euclidean_compare(g):
    """Geometry of the Beltrami image of the graph g, computed independently.

    The image of the graph under the Beltrami map is the Euclidean
    radial graph r = tanh u in the unit ball.  Its curvature entries
    come from the flat polar-graph formulas (same structure as the
    hyperbolic ones with trivial warping), not from any conversion
    identity, so the returned ratios provide a genuine cross-check of
    the comparison inequalities against the package's kappa and v.
    """
    grid = g.grid
    geo = g.geometry
    r = np.tanh(g.u)
    assert np.all(r < 1.0)
    r_th, r_thth = grid.derivatives(r)
    pe = r_th / r
    pe_th = r_thth / r - (r_th / r) ** 2
    v_e = np.sqrt(1.0 + pe * pe)
    ke_prof = (1.0 - pe_th / (v_e * v_e)) / (v_e * r)
    # tensor entries: hyperbolic h_thth = kappa * v^2 sinh^2 u, Euclidean
    # h_thth = kappa_e * v_e^2 r^2; angular slots carry sin^2 theta on
    # both sides, which cancels in the ratio
    ratio_prof = (ke_prof * v_e * v_e * r * r) / (
        geo.kappa[:, 0] * geo.v * geo.v * np.sinh(g.u) ** 2
    )
    if grid.n == 1:
        h_ratio = ratio_prof[:, None]
    else:
        ke_ang = (1.0 - grid.cot * pe) / (v_e * r)
        ratio_ang = (ke_ang * r * r) / (geo.kappa[:, 1] * np.sinh(g.u) ** 2)
        h_ratio = np.stack([ratio_prof, ratio_ang], axis=1)
    return EuclideanComparison(r=r, v_e=v_e, h_ratio=h_ratio)


# ----------------------------------------------------------------------
# acceptance instruments: barrier rescaling, rate fits, the decay bound
# ----------------------------------------------------------------------
# Criterion 5 reads C_GRID, criterion 6 rescale and fit_exponential,
# and criterion 8 decay_check.

# discrete slack multiplier for preserved-sign inequalities, in units of
# h^2: the continuum statements are exact, and the minimum over the nodes
# misses the minimum between them by O(h^2) (1.0e-3 high at m = 48)
C_GRID = 5.0


@dataclass(frozen=True)
class RescaledRecord:
    """One record in barrier-normalized variables."""

    t: float
    tau: float
    Theta: float
    u_tilde: np.ndarray
    F_tilde: np.ndarray
    w: np.ndarray | None


def rescale(traj: FlowTrajectory, T_star: float, duals=None) -> list:
    """Normalize recorded states by the spherical barrier with time T_star.

    Theta(t) is the sphere radius extinguishing at T_star; tau = -ln
    Theta, u~ = u/Theta, F~ = F Theta.  When duals (a stored dual graph
    or state per record, or None entries) are supplied, w = u*/Theta.
    """
    last_t = traj.states[-1].t
    if T_star <= last_t:
        raise ValueError(f"T_star = {T_star!r} must exceed the last recorded t = {last_t!r}")
    out = []
    for i, s in enumerate(traj.states):
        Theta = _sphere_theta(s.t, T_star)
        w = None if duals is None or duals[i] is None else duals[i].u / Theta
        out.append(RescaledRecord(t=s.t, tau=-math.log(Theta), Theta=Theta, u_tilde=s.u / Theta,
                                  F_tilde=s.geometry.F_value * Theta, w=w))
    return out


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponential fit y ~ C exp(-delta tau)."""

    C: float
    delta: float
    residual: float
    clipped: bool = False


def fit_exponential(taus, ys) -> RateFit:
    """Fit log y = log C - delta tau; residual is the RMS misfit.

    Nonpositive samples are clipped to the smallest positive double and
    flagged rather than rejected: decaying oscillation data can touch
    zero at rounding level.
    """
    taus = np.asarray(taus, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if taus.ndim != 1 or taus.size < 5 or ys.shape != taus.shape:
        raise ValueError("need at least five paired samples")
    clipped = bool(np.any(ys <= 0.0))
    floor = np.finfo(float).tiny
    logs = np.log(np.clip(ys, floor, None))
    A = np.stack([np.ones_like(taus), -taus], axis=1)
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    fitted = A @ coef
    residual = float(np.sqrt(np.mean((logs - fitted) ** 2)))
    return RateFit(C=float(math.exp(coef[0])), delta=float(coef[1]),
                   residual=residual, clipped=clipped)


@dataclass(frozen=True)
class DecayReport:
    """Feasibility report for the nodewise bound gap <= c0 F^(2-delta)."""

    ok: bool
    c0: float
    delta: float
    worst_margin: float
    n_points: int
    fitted: bool


def decay_check(traj, c0: float | None = None, delta: float | None = None) -> DecayReport:
    """Check |A|^2 - nF^2 <= c0 F^(2-delta) nodewise over a whole run.

    With (c0, delta) given, just verifies.  With neither, delta comes
    from the log-log regression of the gap against F over all nodes with
    a positive gap, and c0 is the smallest constant covering every node
    (with 1% headroom); the report carries the worst margin
    c0 F^(2-delta) - gap.  Runs with an identically zero gap (spheres)
    are feasible for any positive pair and reported as such.  One
    constant without the other raises ValueError.
    """
    if (c0 is None) != (delta is None):
        raise ValueError("decay_check takes c0 and delta together, or neither")
    _fill_geometry(traj.states)
    geos = [s.geometry for s in traj.states]
    F = np.concatenate([geo.F_value for geo in geos])
    gap = np.concatenate([geo.normA2 for geo in geos]) - geos[0].kappa.shape[1] * F**2
    pos = gap > 1e-14 * np.maximum(F * F, 1.0)
    fitted = False
    if c0 is None:
        if pos.sum() < 5:
            c0, delta = 1.0, 1.0
        else:
            fitted = True
            cov = np.cov(np.log(F[pos]), np.log(gap[pos]))
            delta = 2.0 - cov[0, 1] / cov[0, 0]
            c0 = float(np.exp(np.max(np.log(gap[pos]) - (2.0 - delta) * np.log(F[pos])))) * 1.01
    bound = c0 * F ** (2.0 - delta)
    margin = float((bound - gap).min())
    return DecayReport(ok=bool(margin >= 0.0 and delta > 0.0), c0=float(c0),
                       delta=float(delta), worst_margin=margin,
                       n_points=int(pos.sum()), fitted=fitted)
