"""Reflected rays, the reflected flow map, and its Jacobian factorization.

A boundary covector xi splits into a reflected covector xi_r by subtracting
twice its conormal component; the reflected flow map sends (s, xbar, t) to the
point at parameter s on the reflected ray leaving (F(xbar), xbar, t).  The
Jacobian of that map is a closed form from the chain rule through the
incoming covector field and hess F; it factors through small dense matrices
(here named B, C, K, L after their roles: boundary shear, cone metric,
curvature of the incoming field, curvature of the obstacle), giving the lower
bound j >= 2 * margin on the illuminated region.  Closed forms are checked
against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffgeo import GrazemapError, InvalidArgument, Obstacle, _central_difference, _rowdot
from .phases import BoundaryCovector, Phase, boundary_trace, xi_incoming, xi_jacobian

GRAZING_TOL = 1e-10  # |margin| at or below which a boundary point counts as grazing
FD_STEP = 1e-5


class ShadowPoint(GrazemapError, ValueError):
    """Operation requires a grazing or illuminated boundary point."""


class GrazingSingular(GrazemapError, ValueError):
    """Operation requires a margin bounded away from zero."""

    exit_code = 3


class NoConvergence(GrazemapError, RuntimeError):
    """Newton inversion failed to reach the residual target."""

    exit_code = 3

    def __init__(self, iterations: int, residual: float):
        super().__init__(f"no convergence after {iterations} iterations, residual {residual:.3e}")
        self.iterations = iterations
        self.residual = residual


class OutsideRange(GrazemapError, ValueError):
    """Target point cannot lie on any reflected ray."""


# ---------------------------------------------------------------------------
# Reflection of covectors
# ---------------------------------------------------------------------------

def tangency_margin(obstacle: Obstacle, phase: Phase, xbar) -> float:
    """<grad F, xibar> - xi1: zero at grazing, positive where rays reflect."""
    return classify_boundary_point(obstacle, phase, xbar).margin


def _reflect(xbar: np.ndarray, grad_f: np.ndarray, xi: BoundaryCovector) -> BoundaryCovector:
    factor = 2.0 * (xi.xi1 - float(grad_f @ xi.xibar)) / (1.0 + float(grad_f @ grad_f))
    return BoundaryCovector(xbar, xi.xi1 - factor, xi.xibar + factor * grad_f, xi.point)


def reflect_direction(obstacle: Obstacle, xbar, xi: BoundaryCovector) -> BoundaryCovector:
    """Reflected unit covector; total function of the incoming covector.

    The reflected covector differs from the incoming one by a multiple of the
    conormal (1, -grad F) and has unit length, which pins it down uniquely.
    """
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    return _reflect(xbar, obstacle.gradient(xbar), xi)


def xi_reflected(obstacle: Obstacle, phase: Phase, xbar) -> BoundaryCovector:
    return classify_boundary_point(obstacle, phase, xbar).reflected


@dataclass(frozen=True)
class BoundaryClassification:
    """A boundary point assembled once: margin, label and both covectors at (F(xbar), xbar)."""

    xbar: np.ndarray
    margin: float
    label: str  # 'illuminated' | 'grazing' | 'shadow'
    incoming: BoundaryCovector
    reflected: BoundaryCovector

    def image(self, s) -> np.ndarray:
        """Spatial flow point (F(xbar), xbar) + 2 s xi_r; a column of s (k, 1) gives a ray."""
        return self.reflected.point + 2.0 * s * self.reflected.vector


def classify_boundary_point(obstacle: Obstacle, phase: Phase, xbar) -> BoundaryClassification:
    """Assemble the boundary point over xbar and label it by the sign of its tangency margin."""
    xi = xi_incoming(phase, obstacle, xbar)
    grad_f = obstacle.gradient(xi.xbar)
    mu = float(grad_f @ xi.xibar - xi.xi1)
    if mu > GRAZING_TOL:
        label = "illuminated"
    elif mu < -GRAZING_TOL:
        label = "shadow"
    else:
        label = "grazing"
    return BoundaryClassification(xbar=xi.xbar, margin=mu, label=label, incoming=xi,
                                  reflected=_reflect(xi.xbar, grad_f, xi))


# ---------------------------------------------------------------------------
# Reflected flow map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowSample:
    s: float
    xbar: np.ndarray
    t: float
    y: np.ndarray  # (y1, ybar..., t') in R^{n+1}


def _flow_point(obstacle: Obstacle, phase: Phase, s, xbar) -> np.ndarray:
    """Spatial part of the flow map, without the domain classification guard."""
    return classify_boundary_point(obstacle, phase, xbar).image(s)


def flow_map(obstacle: Obstacle, phase: Phase, s: float, xbar, t: float = 0.0) -> FlowSample:
    """Point at parameter s on the reflected ray from the boundary point over xbar.

    Defined on grazing and illuminated points only; the time coordinate is
    carried along unchanged apart from the t + 2s advance.
    """
    cls = classify_boundary_point(obstacle, phase, xbar)
    if cls.label == "shadow":
        raise ShadowPoint(f"margin {cls.margin} < -{GRAZING_TOL} at xbar={xbar}")
    if s < 0.0:
        raise InvalidArgument("ray parameter s must be nonnegative")
    y = np.concatenate((cls.image(s), [t + 2.0 * s]))
    return FlowSample(s=float(s), xbar=cls.xbar, t=float(t), y=y)


# ---------------------------------------------------------------------------
# Jacobian: factorization and finite differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobianReport:
    j_analytic: float
    lower_bound: float  # 2 * margin
    margin: float


def _reflected_field_derivative(obstacle: Obstacle, phase: Phase, xbar):
    """Reflected covector over xbar and its tangential derivative, in closed form.

    Differentiates xi_r = xi - f (1, -grad F), f = 2 (xi1 - <grad F, xibar>) /
    (1 + |grad F|^2), by the chain rule through ``xi_jacobian`` and hess F.
    Returns (xi_r, grad xi1_r, K, L) with d xibar_r / d xbar = K + L: K carries
    the derivative of the incoming field, L the curvature of the obstacle.
    """
    grad_f = obstacle.gradient(xbar)
    hess_f = obstacle.hessian(xbar)
    cls = classify_boundary_point(obstacle, phase, xbar)
    xi, xr = cls.incoming, cls.reflected
    d_xi1, d_xibar = xi_jacobian(phase, obstacle, xbar)
    w = 2.0 / (1.0 + float(grad_f @ grad_f))
    # grad f splits into an incoming-field part and an obstacle-curvature part.
    df_field = w * (d_xi1 - grad_f @ d_xibar)
    df_curv = -w * (hess_f @ xr.xibar)
    k_mat = d_xibar + np.outer(grad_f, df_field)
    l_mat = (xi.xi1 - xr.xi1) * hess_f + np.outer(grad_f, df_curv)
    return xr, d_xi1 - df_field - df_curv, k_mat, l_mat


def factor_matrices(obstacle: Obstacle, phase: Phase, xbar):
    """B, C, K, L at an illuminated boundary point.

    K carries the curvature of the incoming covector field, L the curvature
    of the obstacle; their sum is the tangential derivative of the reflected
    field.  B and C divide by xi1_r, so points where the reflected ray runs
    parallel to the tangent plane raise ``GrazingSingular``.
    """
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    d = obstacle.dim_tangential
    xr, _, k_mat, l_mat = _reflected_field_derivative(obstacle, phase, xbar)
    if abs(xr.xi1) < 1e-13:
        raise GrazingSingular("reflected covector has vanishing normal-axis component")
    b_mat = np.eye(d) - np.outer(xr.xibar, obstacle.gradient(xbar)) / xr.xi1
    c_mat = np.eye(d) + np.outer(xr.xibar, xr.xibar) / xr.xi1**2
    return b_mat, c_mat, k_mat, l_mat


def _spatial_block(obstacle: Obstacle, phase: Phase, s: float, xbar) -> np.ndarray:
    """d(y1, ybar) / d(s, xbar) of the reflected flow map, in closed form."""
    xr, d_xi1r, k_mat, l_mat = _reflected_field_derivative(obstacle, phase, xbar)
    d = obstacle.dim_tangential
    m = np.empty((d + 1, d + 1))
    m[0, 0] = 2.0 * xr.xi1
    m[0, 1:] = obstacle.gradient(xbar) + 2.0 * s * d_xi1r
    m[1:, 0] = 2.0 * xr.xibar
    m[1:, 1:] = np.eye(d) + 2.0 * s * (k_mat + l_mat)
    return m


def jacobian_analytic(obstacle: Obstacle, phase: Phase, s: float, xbar) -> JacobianReport:
    """Flow-map Jacobian from the closed-form spatial block determinant.

    The determinant of d(y1, ybar)/d(s, xbar) is assembled from the boundary
    geometry and the chain-rule derivative of the reflected field.  It never
    divides by xi1_r, so it stays regular where xi1_r crosses zero inside the
    illuminated region, where the Schur factorization
    j = 2 xi1_r det(B + 2s C (K + L)) degenerates.  At s = 0 the determinant
    reduces to 2*margin exactly.  Requires an illuminated point.
    """
    cls = classify_boundary_point(obstacle, phase, xbar)
    if cls.label == "grazing":
        raise GrazingSingular(f"margin {cls.margin} within tolerance {GRAZING_TOL} of grazing")
    if cls.label == "shadow":
        raise ShadowPoint(f"margin {cls.margin} < -{GRAZING_TOL}: point is in shadow")
    j = float(np.linalg.det(_spatial_block(obstacle, phase, s, cls.xbar)))
    return JacobianReport(j_analytic=j, lower_bound=2.0 * cls.margin, margin=cls.margin)


def jacobian_fd(obstacle: Obstacle, phase: Phase, s: float, xbar, t: float = 0.0) -> float:
    """Determinant of the central-difference Jacobian of (s, xbar, t) -> Z_r.

    This is the validation oracle for ``jacobian_analytic``; it never uses
    the factorization.  Defined where ``flow_map`` is: on grazing and
    illuminated points.
    """
    cls = classify_boundary_point(obstacle, phase, xbar)
    if cls.label == "shadow":
        raise ShadowPoint(f"margin {cls.margin} < -{GRAZING_TOL}: point is in shadow")
    d = obstacle.dim_tangential

    def z_full(v):
        space = _flow_point(obstacle, phase, v[0], v[1:1 + d])
        return np.concatenate((space, [v[-1] + 2.0 * v[0]]))

    v0 = np.concatenate(([s], cls.xbar, [t]))
    return float(np.linalg.det(_central_difference(z_full, v0, FD_STEP)))


# ---------------------------------------------------------------------------
# Inversion and the reflected phase
# ---------------------------------------------------------------------------

S_RANGE = (0.0, 2.0)  # ray parameters the grid seed searches
GRID_N_X = 24         # grid points per tangential axis of the grid seed
GRID_N_S = 24         # grid points in s of the grid seed
RESIDUAL_TOL = 1e-10  # largest flow-map residual an inversion may end with
MAX_ITER = 50         # Newton iterations before the inversion gives up
GRAZING_FLOOR = 1e-4  # smallest seed margin an inversion starts from


def invert_flow(obstacle: Obstacle, phase: Phase, y, seed=None) -> tuple[float, np.ndarray, float]:
    """Invert the reflected flow map at a spacetime point y = (y1, ybar, t').

    Damped Newton on the spatial part with the closed-form Jacobian of the
    flow map, seeded by a coarse grid search over (s, xbar) when no seed is given.
    Near-grazing seeds are refused: the inverse is merely continuous there
    and the Newton system degenerates.
    """
    y = np.asarray(y, dtype=float)
    d = obstacle.dim_tangential
    if y.size != d + 2:
        raise InvalidArgument(f"y has size {y.size}, expected {d + 2}")
    y_space, t_prime = y[:-1], float(y[-1])

    ybar = y_space[1:]
    if np.linalg.norm(ybar) <= obstacle.radius:
        if y_space[0] < obstacle.value(ybar) - 1e-12:
            raise OutsideRange("point lies strictly inside the obstacle")

    if seed is None:
        seed = _grid_seed(obstacle, phase, y_space)
        if seed is None:
            raise OutsideRange("grid search found no admissible seed")
    v = np.concatenate(([float(seed[0])], np.atleast_1d(np.asarray(seed[1], dtype=float))))

    cls = classify_boundary_point(obstacle, phase, v[1:])
    if cls.margin < GRAZING_FLOOR:
        raise GrazingSingular(f"seed margin {cls.margin} below floor {GRAZING_FLOOR}")

    r = cls.image(v[0]) - y_space
    rn = float(np.linalg.norm(r))
    for it in range(MAX_ITER):
        if rn <= 1e-14:
            break
        jac = _spatial_block(obstacle, phase, v[0], v[1:])
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            raise NoConvergence(it, rn)
        # Damping: halve until the residual decreases.
        lam = 1.0
        for _ in range(40):
            v_new = v + lam * delta
            v_new[0] = max(v_new[0], 0.0)
            if (np.linalg.norm(v_new[1:]) > obstacle.radius
                    or (cls := classify_boundary_point(obstacle, phase, v_new[1:])).margin < 1e-8):
                lam *= 0.5
                continue
            r_new = cls.image(v_new[0]) - y_space
            rn_new = float(np.linalg.norm(r_new))
            if rn_new < rn:
                v, r, rn = v_new, r_new, rn_new
                break
            lam *= 0.5
        else:
            break
    if rn > RESIDUAL_TOL:
        raise NoConvergence(MAX_ITER, rn)
    s = float(v[0])
    if s < -1e-12:
        raise OutsideRange(f"converged to negative ray parameter s = {s}")
    return max(s, 0.0), v[1:].copy(), t_prime - 2.0 * max(s, 0.0)


def _grid_seed(obstacle: Obstacle, phase: Phase, y_space):
    """(s, xbar) on the seed grid whose flow point lies nearest y_space; the
    first in mesh-then-s order on ties, None when no mesh point is lit."""
    d = obstacle.dim_tangential
    axes = [np.linspace(-obstacle.radius, obstacle.radius, GRID_N_X)] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    mesh = mesh[np.linalg.norm(mesh, axis=1) <= obstacle.radius]
    best = None
    best_err = np.inf
    s_grid = np.linspace(S_RANGE[0], S_RANGE[1], GRID_N_S)
    for xb in mesh:
        cls = classify_boundary_point(obstacle, phase, xb)
        if cls.margin < GRAZING_FLOOR:
            continue
        diff = cls.image(s_grid[:, None]) - y_space
        # _rowdot is the dot np.linalg.norm takes of one vector, row by row.
        err = np.sqrt(_rowdot(diff, diff))
        k = int(np.argmin(err))
        if err[k] < best_err:
            best_err = err[k]
            best = (s_grid[k], xb)
    return best


def reflected_phase_at(obstacle: Obstacle, phase: Phase, y, seed=None):
    """Value and spacetime gradient of the reflected phase at y.

    The phase carries the boundary value of the incoming phase along the
    reflected ray; its gradient is the constant (xi_r, -1) of that ray.
    """
    s, xbar, t = invert_flow(obstacle, phase, y, seed=seed)
    value = -t + boundary_trace(phase, obstacle, xbar)
    xr = xi_reflected(obstacle, phase, xbar)
    gradient = np.concatenate((xr.vector, [-1.0]))
    return value, gradient


# ---------------------------------------------------------------------------
# Flow-map verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RfmVerdict:
    passed: bool
    n_samples: int
    n_illuminated: int
    worst_bound_gap: float       # min over samples of j_analytic - 2*margin
    worst_fd_rel_error: float    # max relative |j_analytic - j_fd|
    injectivity_failures: list
    bound_failures: list
    fd_failures: list
    rows: list                   # per-sample CSV rows

    def summary(self) -> str:
        if self.n_illuminated == 0:
            return "INCONCLUSIVE"
        return "PASS" if self.passed else "FAIL"


FD_MARGIN_FLOOR = 1e-3  # smallest margin at which the FD Jacobian is compared
FD_REL_TOL = 1e-6       # largest relative analytic-vs-FD Jacobian gap that passes
BOUND_SLACK = 1e-9      # how far j_analytic may fall below 2*margin and still pass


def verify_rfm(obstacle: Obstacle, phase: Phase, s0: float = 1.0,
               budget: int = 1000, seed: int = 42) -> RfmVerdict:
    """Sampled evidence that the reflected flow map is an injective local
    diffeomorphism off the grazing face.

    Checks, on ``budget`` samples of [0, s0] x (grazing U illuminated):
    (i) image separation stays bounded below by domain separation on random
    near pairs, (ii) the analytic Jacobian respects its 2*margin lower bound,
    (iii) analytic and finite-difference Jacobians agree (only on samples
    whose margin clears FD_MARGIN_FLOOR: below that the FD determinant
    is dominated by differencing noise).  With no illuminated sample
    nothing was checked: the verdict does not pass and reads INCONCLUSIVE.
    """
    if budget <= 0:
        raise InvalidArgument("budget must be positive")
    rng = np.random.default_rng(seed)
    d = obstacle.dim_tangential
    # Samples stay a difference step inside the domain, where jacobian_fd steps.
    r = obstacle.radius - FD_STEP

    samples = []
    tries = 0
    while len(samples) < budget and tries < 200 * budget:
        tries += 1
        xb = rng.uniform(-r, r, size=d)
        if np.linalg.norm(xb) > r:
            continue
        cls = classify_boundary_point(obstacle, phase, xb)
        if cls.label == "shadow":
            continue
        s = rng.uniform(0.0, s0)
        t = rng.uniform(-1.0, 1.0)
        samples.append((s, xb, t, cls))

    rows = []
    bound_failures = []
    fd_failures = []
    worst_gap = np.inf
    worst_rel = 0.0
    n_illum = 0
    for s, xb, t, cls in samples:
        mu = cls.margin
        j_a = j_f = np.nan
        ok = True
        if cls.label == "illuminated":
            n_illum += 1
            rep = jacobian_analytic(obstacle, phase, s, xb)
            j_a = rep.j_analytic
            gap = j_a - rep.lower_bound
            worst_gap = min(worst_gap, gap)
            if gap < -BOUND_SLACK:
                bound_failures.append((s, xb, t, mu, j_a))
                ok = False
            if mu >= FD_MARGIN_FLOOR:
                j_f = jacobian_fd(obstacle, phase, s, xb, t)
                rel = abs(j_a - j_f) / max(abs(j_a), abs(j_f))
                worst_rel = max(worst_rel, rel)
                if rel > FD_REL_TOL:
                    fd_failures.append((s, xb, t, mu, j_a, j_f))
                    ok = False
        rows.append((s, xb, t, mu, j_a, j_f, 2.0 * mu, ok))

    injectivity_failures = []
    if len(samples) >= 2:
        n_pairs = min(10000, 5 * len(samples))
        idx = rng.integers(0, len(samples), size=(n_pairs, 2))
        idx = idx[idx[:, 0] != idx[:, 1]]
        # One domain point (s, xbar, t) and one image per sample.
        dom_pts = np.array([np.concatenate(([s], xb, [t])) for s, xb, t, _ in samples])
        img_pts = np.array([np.concatenate((_flow_point(obstacle, phase, s, xb), [t + 2 * s]))
                            for s, xb, t, _ in samples])
        dom = np.linalg.norm(dom_pts[idx[:, 0]] - dom_pts[idx[:, 1]], axis=1)
        img = np.linalg.norm(img_pts[idx[:, 0]] - img_pts[idx[:, 1]], axis=1)
        for k in np.flatnonzero((img < 1e-9) & (dom > 1e-6)):
            (s1, x1, t1, _), (s2, x2, t2, _) = samples[idx[k, 0]], samples[idx[k, 1]]
            injectivity_failures.append(((s1, x1, t1), (s2, x2, t2), float(dom[k]), float(img[k])))

    passed = n_illum > 0 and not (bound_failures or fd_failures or injectivity_failures)
    return RfmVerdict(passed=passed, n_samples=len(samples), n_illuminated=n_illum,
                      worst_bound_gap=float(worst_gap), worst_fd_rel_error=float(worst_rel),
                      injectivity_failures=injectivity_failures,
                      bound_failures=bound_failures, fd_failures=fd_failures, rows=rows)
