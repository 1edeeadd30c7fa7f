"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the package's own formula paths:
curvatures come from finite differences of the Minkowski embedding,
symmetric polynomials from brute-force enumeration, radii from dense
scans.  Steps are taken on analytic callables, so the reference
accuracy (~1e-10) sits far below the tolerances asserted in tests.
"""

import itertools
import math

import numpy as np

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

def parabolic_dt(state, F, cfl, grid, eps=1.0):
    """Explicit step bound from the linearized diffusion coefficient.

    Primal: dt = cfl (h sinh u_min)^2 / max_nodes(sum_i F_i).  Dual: the
    coefficient is sum_i F~_i / (F~^2 v~^2 cosh^2 u*), hence
    dt = cfl (h min(v~ cosh u*))^2 / max(sum_i F~_i / F~^2).
    """
    geo = state.geometry
    grad = np.asarray(F.gradient(geo.kappa)).sum(axis=-1)
    if eps > 0:
        return cfl * (grid.h * math.sinh(state.u.min())) ** 2 / grad.max()
    S = (grad / (geo.F_value * geo.F_value)).max()
    return cfl * (grid.h * (geo.v * np.cosh(state.u)).min()) ** 2 / S


def rk4_step(state, F, cfl, grid, dt_cap=None, eps=1.0):
    """One classical RK4 step of either flow (eps = +1 primal, -1 dual) on
    the package's own rhs, with the parabolic step bound, snapped onto
    dt_cap when the bound reaches it.  The reference the implicit
    integrator is held to: a different time discretization of the same
    semi-discrete system."""
    from dualflow.flow import FlowState, _geometry, _velocity

    dt = parabolic_dt(state, F, cfl, grid, eps)
    if dt_cap is not None and dt > dt_cap - 1e-13:
        dt = dt_cap

    def velocity(geo):
        return _velocity(geo.F_value, geo.v, eps)

    def rhs(u):
        return velocity(_geometry(grid, u, F, eps))

    u = state.u
    k1 = velocity(state.geometry)
    k2 = rhs(u + 0.5 * dt * k1)
    k3 = rhs(u + 0.5 * dt * k2)
    k4 = rhs(u + dt * k3)
    u_new = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return FlowState(t=state.t + dt, u=u_new, geometry=_geometry(grid, u_new, F, eps), dt_last=dt)


def rk4_profiles(grid, F, u0, targets, eps=1.0, cfl=0.2):
    """Profiles at the sorted target times, integrated from u0 at t = 0 by
    rk4_step."""
    from dualflow.flow import FlowState, _geometry

    state = FlowState(0.0, u0, _geometry(grid, u0, F, eps), 0.0)
    out = []
    for tt in targets:
        while state.t < tt - 1e-13:
            state = rk4_step(state, F, cfl, grid, tt - state.t, eps)
        out.append(state.u)
    return out


def spherical_theta_ref(t, r0):
    """Closed-form shrinking-sphere radius arccosh(cosh(r0) e^{-t})."""
    return np.arccosh(np.cosh(r0) * np.exp(-np.asarray(t, dtype=float)))
