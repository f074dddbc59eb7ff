"""Grazing sets: defining functions, curve tracing, and classification.

The grazing set of an incoming wave is where its rays touch the obstacle
tangentially.  Its tangential projection is the zero set of a scalar
function: for spherical sources F - 1 - grad F . (xbar - bbar), for plane
waves grad G . theta with G = 1 - F, and for symmetric profiles a regularized
quotient form.  This module traces that zero set with a predictor-corrector
continuation, classifies the order of tangency at the apex from exact Taylor
data, estimates the regularity of the traced curve from a log-log fit, and
counts grazing points on transverse slice curves (the no-branching check).
All curve verdicts are numerical evidence, never proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffgeo import (J_MAX_DEFAULT, GrazemapError, InvalidArgument, MultiPoly, NotNormalized,
                      Obstacle, PolynomialSurface, SymmetricH, UnsupportedSurface, ZeroVector,
                      _rowdot, rotate_coordinates)
from .phases import BoundaryCovector, Phase, PlanePhase, SphericalPhase, xi_incoming
from .reflection import classify_boundary_point


class SeedNotFound(GrazemapError, RuntimeError):
    """No sign change of the grazing function near the seed offsets."""

    exit_code = 3


class StepCollapse(GrazemapError, RuntimeError):
    """Continuation correction kept failing below the minimum step."""

    exit_code = 3

    def __init__(self, point):
        super().__init__(f"correction failed below minimum step near {point}")
        self.point = np.asarray(point, dtype=float)


class InsufficientPoints(GrazemapError, ValueError):
    """Too few traced vertices inside the fit window."""

    exit_code = 3


class SliceMiss(GrazemapError, ValueError):
    """Slice curve does not intersect the traced window as required."""

    exit_code = 3


class NotHomogeneous(GrazemapError, ValueError):
    """check_u1ww input must be a homogeneous polynomial of even degree."""


class HDomainExceeded(GrazemapError, ValueError):
    """|L xbar|^2 left the declared domain of the radial profile."""


# ---------------------------------------------------------------------------
# Grazing defining functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphericalGrazing:
    """H(xbar) = F(xbar) - 1 - grad F(xbar) . (xbar - bbar), for a source at (1, bbar).

    Negative on the illuminated side (H = -rho * margin).
    """

    bbar: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bbar", np.atleast_1d(np.asarray(self.bbar, dtype=float)))

    def value(self, obstacle: Obstacle, x):
        """H at one point (d,) -> float, or per row of a batch (m, d) -> (m,)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim == 2:
            return obstacle.value(x) - 1.0 - _rowdot(obstacle.gradient(x), x - self.bbar)
        return float(obstacle.value(x) - 1.0 - obstacle.gradient(x) @ (x - self.bbar))

    def gradient(self, obstacle: Obstacle, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return -obstacle.hessian(x) @ (x - self.bbar)


@dataclass(frozen=True)
class PlanarGrazing:
    """g(xbar) = grad G . thetabar with G = 1 - F (source at infinity).

    Sign convention matches SphericalGrazing: negative on the illuminated
    side, since grad G . thetabar = -(grad F . thetabar) = -margin.
    """

    thetabar: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "thetabar", np.atleast_1d(np.asarray(self.thetabar, dtype=float)))

    def value(self, obstacle: Obstacle, x):
        """g at one point (d,) -> float, or per row of a batch (m, d) -> (m,)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim == 2:
            return _rowdot(-obstacle.gradient(x), self.thetabar)
        return float(-obstacle.gradient(x) @ self.thetabar)

    def gradient(self, obstacle: Obstacle, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return -obstacle.hessian(x) @ self.thetabar


@dataclass(frozen=True)
class SymmetricZeta:
    """zeta(xbar) = -h/h'(|L xbar|^2) + 2|L xbar|^2 - 2 (L xbar).(L bbar).

    Same zero set as the spherical form on symmetric profiles, but C1 through
    the apex with gradient -2 L^T L bbar there.
    """

    bbar: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bbar", np.atleast_1d(np.asarray(self.bbar, dtype=float)))

    def value(self, obstacle: Obstacle, x):
        """zeta at one point (d,) -> float, or per row of a batch (m, d) -> (m,)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim == 2:
            return np.array([symmetric_zeta(obstacle, self.bbar, p) for p in x], dtype=float)
        return symmetric_zeta(obstacle, self.bbar, x)

    def gradient(self, obstacle: Obstacle, x) -> np.ndarray:
        surf = _symmetric_surface(obstacle)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        ltl = surf.lam.T @ surf.lam
        s = float((surf.lam @ x) @ (surf.lam @ x))
        if s == 0.0:
            return -2.0 * ltl @ self.bbar
        return (2.0 - surf.h_ratio_prime(s)) * 2.0 * (ltl @ x) - 2.0 * ltl @ self.bbar


GrazingFunction = SphericalGrazing | PlanarGrazing | SymmetricZeta


def _symmetric_surface(obstacle: Obstacle) -> SymmetricH:
    if not isinstance(obstacle.surface, SymmetricH):
        raise UnsupportedSurface("operation requires a symmetric-profile surface")
    return obstacle.surface


def symmetric_zeta(obstacle: Obstacle, bbar, xbar) -> float:
    """Regularized grazing function for symmetric profiles; 0 at the apex."""
    surf = _symmetric_surface(obstacle)
    x = np.atleast_1d(np.asarray(xbar, dtype=float))
    b = np.atleast_1d(np.asarray(bbar, dtype=float))
    y = surf.lam @ x
    s = float(y @ y)
    if s > surf.sdomain:
        raise HDomainExceeded(f"|L xbar|^2 = {s} exceeds domain {surf.sdomain}")
    if s == 0.0:
        return 0.0
    return float(-surf.h_ratio(s) + 2.0 * s - 2.0 * y @ (surf.lam @ b))


def grazing_function_for(obstacle: Obstacle, phase: Phase) -> GrazingFunction:
    """Canonical defining function for the grazing set of a phase that grazes the apex."""
    if not isinstance(phase, SphericalPhase | PlanePhase):
        raise UnsupportedSurface("no closed-form grazing function for this phase family")
    _apex_covector(obstacle, phase)  # both forms hold only for a phase grazing the apex
    if isinstance(phase, SphericalPhase):
        return SphericalGrazing(bbar=phase.source[1:])
    return PlanarGrazing(thetabar=phase.theta[1:])


def grazing_residual(gf: GrazingFunction, obstacle: Obstacle, xbar) -> float:
    return gf.value(obstacle, xbar)


# ---------------------------------------------------------------------------
# Order of tangency at the apex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderClassification:
    kind: str                 # 'even' | 'odd' | 'at-least'
    order: int
    diffractive: bool | None  # for even orders: True if leading coefficient < 0
    coefficients: tuple
    direction: np.ndarray

    def describe(self) -> str:
        if self.kind == "at-least":
            return f"order >= {self.order} (treated as infinite)"
        if self.kind == "odd":
            return f"{self.order} inflection"
        return f"{self.order} {'diffractive' if self.diffractive else 'gliding'}"


ORDER_TOL = 1e-9  # Taylor coefficients below this fraction of the largest count as zero
APEX_TOL = 1e-12  # largest |xi1| at the apex of a phase that grazes there


def order_from_direction(obstacle: Obstacle, direction) -> OrderClassification:
    """Order of boundary contact of the ray through the apex along ``direction``.

    The order is the index of the first nonzero coefficient (at index >= 2)
    in the directional Taylor expansion of F at the apex, read up to
    J_MAX_DEFAULT; a coefficient counts as zero below ORDER_TOL relative to
    the largest one.  Exact polynomial surfaces make the tolerance moot.
    """
    d = np.atleast_1d(np.asarray(direction, dtype=float))
    coeffs = obstacle.directional_taylor(d, J_MAX_DEFAULT)
    scale = max(1.0, max((abs(c) for c in coeffs), default=0.0))
    for j in range(2, J_MAX_DEFAULT + 1):
        c = coeffs[j - 1]
        if abs(c) > ORDER_TOL * scale:
            if j % 2 == 0:
                return OrderClassification(kind="even", order=j, diffractive=bool(c < 0.0),
                                           coefficients=tuple(coeffs), direction=d)
            return OrderClassification(kind="odd", order=j, diffractive=None,
                                       coefficients=tuple(coeffs), direction=d)
    return OrderClassification(kind="at-least", order=J_MAX_DEFAULT, diffractive=None,
                               coefficients=tuple(coeffs), direction=d)


def _apex_covector(obstacle: Obstacle, phase: Phase) -> BoundaryCovector:
    """Incoming covector at the apex; ``NotNormalized`` unless the phase grazes there."""
    xi = xi_incoming(phase, obstacle, np.zeros(obstacle.dim_tangential))
    if abs(xi.xi1) > APEX_TOL:
        raise NotNormalized(f"xi1 at the apex is {xi.xi1}, not 0: phase does not graze there")
    return xi


def classify_order(obstacle: Obstacle, phase: Phase) -> OrderClassification:
    """Order of tangency at the apex for a phase normalized to graze there."""
    return order_from_direction(obstacle, _apex_covector(obstacle, phase).xibar)


# ---------------------------------------------------------------------------
# Positivity of the leading homogeneous Hessian (smooth grazing-set criterion)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HessianPositivityVerdict:
    passed: bool
    min_eig: float
    argmin: np.ndarray
    degree: int


PD_TOL = 1e-12  # smallest Hessian eigenvalue that counts as positive


def check_u1ww(g2k: MultiPoly, angle_samples: int = 360) -> HessianPositivityVerdict:
    """PASS iff the Hessian of a homogeneous even-degree polynomial is
    positive definite on the unit circle (homogeneity makes that sufficient)."""
    if g2k.dim != 2:
        raise NotHomogeneous("positivity check implemented for two variables")
    if not g2k.is_homogeneous():
        raise NotHomogeneous("polynomial is not homogeneous")
    deg = g2k.degree()
    if deg < 2 or deg % 2 != 0:
        raise NotHomogeneous(f"degree {deg} is not an even number >= 2")
    ang = np.linspace(0.0, 2.0 * np.pi, angle_samples, endpoint=False)
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    low = np.linalg.eigvalsh(g2k.hessian(pts))[:, 0]
    k = int(np.argmin(low))
    return HessianPositivityVerdict(passed=bool(low[k] > PD_TOL), min_eig=float(low[k]),
                                    argmin=pts[k], degree=deg)


def leading_homogeneous_part(surface: PolynomialSurface) -> MultiPoly | None:
    """-(lowest nonconstant homogeneous part of F - 1), i.e. the leading G."""
    poly = surface.poly
    degrees = sorted({sum(e) for e in poly.terms if sum(e) >= 2})
    if not degrees:
        return None
    return poly.homogeneous_part(degrees[0]).scale(-1.0)


# ---------------------------------------------------------------------------
# Curve tracing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveBranch:
    side: int                     # sign of the transverse coordinate at the seed
    vertices: np.ndarray          # (m, 2), ordered by arc length from the apex end
    residuals: np.ndarray
    arc_params: np.ndarray


@dataclass(frozen=True)
class GrazingCurve:
    branches: tuple[CurveBranch, ...]
    transverse_axis: int          # coordinate used as the graph parameter
    graph_axis: int
    window: float
    trace_tol: float

    def all_vertices(self) -> np.ndarray:
        return np.vstack([b.vertices for b in self.branches])


H_MIN = 1e-6          # smallest continuation step before StepCollapse
H_MAX = 1e-2          # largest continuation step
SEED_OFFSET = 1e-3    # transverse offset of the two branch seeds
SHRINK_STOP = 1e-5    # inward shrink stops below this transverse offset
SHRINK_FACTOR = 0.85  # ratio of successive transverse offsets in the shrink


def _bisect(f, lo: float, hi: float, f_lo: float, tol: float) -> float:
    """Root of f in [lo, hi], where f(lo) = f_lo and f(hi) differ in sign.

    Halves the bracket, keeping the half across which f changes sign (a zero
    value counts as positive), until it is narrower than ``tol`` (checked
    before each evaluation) or f vanishes at the midpoint; at most 200 halvings.
    """
    for _ in range(200):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return float(mid)
        if (f_mid < 0.0) != (f_lo < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return float(0.5 * (lo + hi))


def _bisect_lanes(f, lo, hi, f_lo, tol: float) -> np.ndarray:
    """``_bisect`` on many brackets at once: lane k bisects [lo[k], hi[k]]
    with the same steps and arithmetic as ``_bisect`` would alone.

    ``f(t, idx)`` returns f at the parameters t of the lanes idx.
    """
    lo, hi, f_lo = (np.array(v, dtype=float) for v in (lo, hi, f_lo))
    out = np.empty(len(lo))
    todo = np.arange(len(lo))
    for _ in range(200):
        narrow = hi[todo] - lo[todo] < tol
        out[todo[narrow]] = 0.5 * (lo[todo[narrow]] + hi[todo[narrow]])
        todo = todo[~narrow]
        if not todo.size:
            return out
        mid = 0.5 * (lo[todo] + hi[todo])
        f_mid = f(mid, todo)
        zero = f_mid == 0.0
        out[todo[zero]] = mid[zero]
        flip = ~zero & ((f_mid < 0.0) != (f_lo[todo] < 0.0))
        keep = ~zero & ~flip
        hi[todo[flip]] = mid[flip]
        lo[todo[keep]], f_lo[todo[keep]] = mid[keep], f_mid[keep]
        todo = todo[~zero]
    out[todo] = 0.5 * (lo[todo] + hi[todo])
    return out


def _scan_roots(f, grid, vals, tol: float) -> list[float]:
    """Roots of f on a grid, given its values ``vals`` there as an array:
    exact zeros at grid points, a run of them counting once, and sign changes
    refined by bisection of f, which takes one parameter at a time."""
    vals = np.asarray(vals, dtype=float)
    zero = vals[:-1] == 0.0
    run_start = zero & np.concatenate(([True], vals[:-1] != 0.0))[:-1]
    roots = []
    for i in np.flatnonzero(run_start | (vals[:-1] * vals[1:] < 0.0)):
        if zero[i]:
            roots.append(float(grid[i]))
        else:
            roots.append(_bisect(f, grid[i], grid[i + 1], vals[i], tol))
    return roots


LINE_SCAN_N = 1024     # grid points of each seed scan line
LINE_ROOT_TOL = 1e-13  # bracket width at which a seed scan root is final


def _line_roots(gf, obstacle, t_axis, offset, window):
    """Sign-change roots of the grazing function along a transverse scan line."""
    g_axis = 1 - t_axis
    lim = min(window, math.sqrt(max(obstacle.radius**2 - offset**2, 0.0)) * 0.999)
    if lim <= 0.0:
        return []

    grid = np.linspace(-lim, lim, LINE_SCAN_N)
    pts = np.zeros((LINE_SCAN_N, 2))
    pts[:, t_axis] = offset
    pts[:, g_axis] = grid

    def g_of(v):
        p = np.zeros(2)
        p[t_axis] = offset
        p[g_axis] = v
        return gf.value(obstacle, p)

    return _scan_roots(g_of, grid, gf.value(obstacle, pts), LINE_ROOT_TOL)


def _detect_orientation(gf, obstacle, window):
    """Pick the transverse axis: the one whose both offset lines see one root."""
    scored = []
    for t_axis in (1, 0):
        rp = _line_roots(gf, obstacle, t_axis, +SEED_OFFSET, window)
        rm = _line_roots(gf, obstacle, t_axis, -SEED_OFFSET, window)
        if rp and rm:
            # Prefer single roots and roots close to the apex.
            penalty = (len(rp) - 1) + (len(rm) - 1)
            size = min(abs(r) for r in rp) + min(abs(r) for r in rm)
            scored.append((penalty, size, t_axis, rp, rm))
    if not scored:
        raise SeedNotFound(f"no sign change at transverse offset {SEED_OFFSET} in window {window}")
    scored.sort(key=lambda item: (item[0], item[1]))
    _, _, t_axis, rp, rm = scored[0]
    return t_axis, min(rp, key=abs), min(rm, key=abs)


def _correct(gf, obstacle, point, tol, axis=None):
    """Newton correction back onto the zero set, along the gradient or, when
    ``axis`` is given, along that coordinate axis only.

    Iterates to machine stall, not just to ``tol``, which is the acceptance
    bound on the residual: near the apex the derivative along the graph axis
    can be ~1e-10, so a residual at the bound would leave the coordinate
    essentially unresolved.  A zero derivative ends the iteration.  At most
    40 gradient steps or 80 axis steps.
    """
    p = np.array(point, dtype=float)
    f = gf.value(obstacle, p)
    for _ in range(40 if axis is None else 80):
        if f == 0.0:
            return p, 0.0
        grad = gf.gradient(obstacle, p)
        if axis is None:
            g2 = float(grad @ grad)
            if g2 == 0.0:
                break
            p_new = p - grad * (f / g2)
        else:
            if grad[axis] == 0.0:
                break
            p_new = p.copy()
            p_new[axis] = p[axis] - f / grad[axis]
        f_new = gf.value(obstacle, p_new)
        if abs(f_new) >= abs(f):
            if abs(f_new) <= tol:
                p, f = p_new, f_new
            break
        p, f = p_new, f_new
    if abs(f) <= tol:
        return p, abs(f)
    return None


def trace_grazing_curve(gf: GrazingFunction, obstacle: Obstacle, window: float = 0.3,
                        trace_tol: float = 1e-10) -> GrazingCurve:
    """Trace both branches of the grazing curve through the apex.

    The apex itself is singular whenever the tangency order exceeds two, so
    branches are seeded at transverse offsets +-SEED_OFFSET found by scanning
    for sign changes; each branch then runs a geometric shrink toward the
    apex (ratio SHRINK_FACTOR, down to SHRINK_STOP) and a pseudo-arclength
    continuation away from it (steps between H_MIN and H_MAX), out to the
    window boundary.
    """
    if obstacle.dim_tangential != 2:
        raise UnsupportedSurface("curve tracing requires a 3D obstacle (two tangential variables)")
    apex = gf.value(obstacle, np.zeros(2))
    if abs(apex) > 1e-9:
        raise SeedNotFound(f"apex residual {apex} is nonzero: apex is not a grazing point")
    window = min(window, obstacle.radius / math.sqrt(2.0) * 0.999)

    t_axis, root_p, root_m = _detect_orientation(gf, obstacle, window)
    g_axis = 1 - t_axis

    branches = []
    for side, root in ((1, root_p), (-1, root_m)):
        seed = np.zeros(2)
        seed[t_axis] = side * SEED_OFFSET
        seed[g_axis] = root
        # Polish the bisected root onto the zero set; keep it if that fails.
        polished = _correct(gf, obstacle, seed, trace_tol, axis=g_axis)
        seed_vertex = polished if polished is not None else (seed, abs(gf.value(obstacle, seed)))
        seed = seed_vertex[0]

        # Inward: geometric shrink of the transverse coordinate toward the apex.
        inward = []
        guess = seed.copy()
        t_val = side * SEED_OFFSET * SHRINK_FACTOR
        while abs(t_val) >= SHRINK_STOP:
            guess[t_axis] = t_val
            sol = _correct(gf, obstacle, guess, trace_tol, axis=g_axis)
            if sol is None:
                break
            inward.append(sol)
            guess[g_axis] = sol[0][g_axis]
            t_val *= SHRINK_FACTOR

        # Outward: predictor-corrector continuation.
        outward = []
        current = seed.copy()
        prev_dir = None
        h = 10.0 * H_MIN
        while True:
            grad = gf.gradient(obstacle, current)
            norm = float(np.linalg.norm(grad))
            if norm == 0.0:
                break
            tangent = np.array([-grad[1], grad[0]]) / norm
            if prev_dir is None:
                if tangent[t_axis] * side < 0:
                    tangent = -tangent
            elif float(tangent @ prev_dir) < 0.0:
                tangent = -tangent
            t_here = abs(current[t_axis])
            h_cap = min(H_MAX, max(10.0 * H_MIN, 0.2 * t_here))
            step = min(h, h_cap)
            accepted = False
            left_domain = False
            while step >= H_MIN:
                predicted = current + step * tangent
                if np.linalg.norm(predicted) > obstacle.radius * 0.995:
                    left_domain = True
                    break
                corrected = _correct(gf, obstacle, predicted, trace_tol)
                if corrected is not None and np.linalg.norm(corrected[0] - current) > 0.1 * step:
                    accepted = True
                    break
                step *= 0.5
            if left_domain:
                break
            if not accepted:
                raise StepCollapse(current)
            point, res = corrected
            if (np.max(np.abs(point)) > window
                    or np.linalg.norm(point) > obstacle.radius * 0.999):
                break
            outward.append((point, res))
            prev_dir = (point - current) / max(float(np.linalg.norm(point - current)), 1e-300)
            current = point
            h = min(step * 1.4, H_MAX)
            if len(outward) > 100000:
                break

        chain = list(reversed(inward)) + [seed_vertex] + outward
        verts = np.array([p for p, _ in chain])
        resid = np.array([r for _, r in chain])
        arcs = np.concatenate(([0.0], np.cumsum(np.linalg.norm(np.diff(verts, axis=0), axis=1))))
        branches.append(CurveBranch(side=side, vertices=verts, residuals=resid, arc_params=arcs))

    return GrazingCurve(branches=tuple(branches), transverse_axis=t_axis,
                        graph_axis=g_axis, window=window, trace_tol=trace_tol)


# ---------------------------------------------------------------------------
# Regularity estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityEstimate:
    exponent: float
    coefficient: float
    verdict: str          # 'cusp' | 'c1-not-c2' | 'smooth' | 'inconclusive'
    n_points: int
    fit_window: tuple[float, float]
    secondary_residual: float | None = None


CUSP_BIN = (0.60, 0.73)
C1_BIN = (1.26, 1.41)
MIN_FIT_POINTS = 20  # fewest vertices per branch the regularity fit accepts


def estimate_regularity(curve: GrazingCurve, fit_window=(1e-4, 1e-2)) -> RegularityEstimate:
    """Fit log|graph| against log|transverse| over a decade window.

    The exponent lands in one of two bins (near 2/3: cusp; near 4/3: C1 but
    not C2) or else the curve is a smooth-graph candidate, confirmed by a
    low-degree polynomial fit of the graph coordinate.  The coefficient is
    signed by the graph values in the window.
    """
    lo, hi = fit_window
    ts, us = [], []
    for branch in curve.branches:
        t = branch.vertices[:, curve.transverse_axis]
        u = branch.vertices[:, curve.graph_axis]
        mask = (np.abs(t) >= lo) & (np.abs(t) <= hi) & (np.abs(u) > 0.0)
        if int(mask.sum()) < MIN_FIT_POINTS:
            raise InsufficientPoints(f"branch {branch.side}: {int(mask.sum())} vertices "
                                     f"in window, need {MIN_FIT_POINTS}")
        ts.append(t[mask])
        us.append(u[mask])
    t = np.concatenate(ts)
    u = np.concatenate(us)

    slope, intercept = np.polyfit(np.log(np.abs(t)), np.log(np.abs(u)), 1)
    sign = 1.0 if float(np.mean(np.sign(u))) >= 0.0 else -1.0
    coefficient = sign * math.exp(intercept)
    exponent = float(slope)

    if CUSP_BIN[0] <= exponent <= CUSP_BIN[1]:
        return RegularityEstimate(exponent, coefficient, "cusp", t.size, (lo, hi))
    if C1_BIN[0] <= exponent <= C1_BIN[1]:
        return RegularityEstimate(exponent, coefficient, "c1-not-c2", t.size, (lo, hi))

    # Smooth candidate: the graph coordinate should be an analytic function
    # of the transverse one; check with a degree-6 least-squares fit.
    tau = t / np.max(np.abs(t))
    vand = np.vander(tau, 7, increasing=True)
    coef, *_ = np.linalg.lstsq(vand, u, rcond=None)
    resid = float(np.max(np.abs(vand @ coef - u))) / max(float(np.max(np.abs(u))), 1e-300)
    if resid <= 1e-6:
        return RegularityEstimate(exponent, coefficient, "smooth", t.size, (lo, hi),
                                  secondary_residual=resid)
    return RegularityEstimate(exponent, coefficient, "inconclusive", t.size, (lo, hi),
                              secondary_residual=resid)


# ---------------------------------------------------------------------------
# 2D obstacles: sign-change scan
# ---------------------------------------------------------------------------

SCAN_1D_N = 4096  # grid points of the 2D-obstacle zero scan


def grazing_zero_scan_1d(gf: GrazingFunction, obstacle: Obstacle,
                         window: float = 0.3) -> tuple[int, list[float]]:
    """Count zeros of the grazing function on |x2| <= window (2D obstacles).

    Uses an even grid (the apex is not a grid point) with bisection
    refinement; runs of exact zeros collapse to one zero.
    """
    if obstacle.dim_tangential != 1:
        raise UnsupportedSurface("scan requires a 2D obstacle (one tangential variable)")
    window = min(window, obstacle.radius)
    grid = np.linspace(-window, window, SCAN_1D_N)
    zeros = _scan_roots(lambda v: gf.value(obstacle, np.array([v])), grid,
                        gf.value(obstacle, grid[:, None]), 1e-14)
    return len(zeros), zeros


# ---------------------------------------------------------------------------
# Slice counts (no-branching evidence)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceCount:
    count_pos: int
    count_neg: int
    points: np.ndarray   # grazing points on the slice curve, original coordinates
    x2_star: float


SLICE_N_PHI = 1440  # angular grid intervals of each slice curve


def slice_grazing_count(obstacle: Obstacle, bbar, x2_star: float) -> SliceCount:
    """Count grazing points on the closed slice curve through (x2*, 0).

    The slice curve is the boundary section cut by the plane through the
    source ray hitting the boundary above (x2*, 0); on it the spherical
    grazing function is scanned in angle and each sign change is refined by
    bisection.  No-branching predicts exactly one point on each side x3 > 0
    and x3 < 0.

    The curve point at each of the SLICE_N_PHI + 1 grid angles is found by a
    radial march from the curve's center and a bisection to 1e-14, run in
    lockstep over all angles on (m, 2) batches; the grazing function is then
    evaluated on all of them in one call.  Only the bisection of a sign
    change in angle goes one angle at a time.  Each angle's arithmetic is
    the same in both paths, so the counts and points do not depend on it.
    """
    if obstacle.dim_tangential != 2:
        raise UnsupportedSurface("slice counts require a 3D obstacle")
    if x2_star >= 0.0:
        raise SliceMiss("slice parameter must be negative (illuminated side)")
    b = np.atleast_1d(np.asarray(bbar, dtype=float))
    if np.linalg.norm(b) == 0.0:
        raise ZeroVector("bbar must be nonzero")

    # Work in coordinates where the source sits at (1, -|bbar|, 0).
    if abs(b[1]) > 1e-14 or b[0] > 0.0:
        obst_r, q = rotate_coordinates(obstacle, b)
        b_r = q @ b
    else:
        obst_r, q = obstacle, np.eye(2)
        b_r = b.copy()
    a = float(b_r[0])
    gf = SphericalGrazing(bbar=b_r)

    if abs(x2_star) > obst_r.radius * 0.999:
        raise SliceMiss("slice parameter outside the obstacle domain")
    f_star = obst_r.value(np.array([x2_star, 0.0]))

    def k_fn(p):
        """Slice-plane function at one point (2,) or per row of a batch (m, 2)."""
        return (obst_r.value(p) - 1.0) * (x2_star - a) + (p[..., 0] - a) * (1.0 - f_star)

    # Second intersection of the slice plane with the meridian x3 = 0.
    lim = obst_r.radius * 0.999
    radii = np.linspace(1e-9, lim, 600)
    meridian = np.column_stack((radii, np.zeros_like(radii)))
    meridian_roots = _scan_roots(lambda v: float(k_fn(np.array([v, 0.0]))), radii,
                                 k_fn(meridian), 1e-14)
    if not meridian_roots:
        raise SliceMiss("slice plane does not re-enter the window on the far side")
    x2_dd = meridian_roots[0]

    center = np.array([0.5 * (x2_star + x2_dd), 0.0])
    k_center = float(k_fn(center))
    if k_center <= 0.0:
        raise SliceMiss("slice curve is degenerate at this parameter")
    r_bound = lim - float(np.linalg.norm(center))
    r_step = r_bound / 50.0

    def radial_point(phi: float) -> np.ndarray:
        """First crossing of k = 0 along the ray from the center at angle phi:
        a march in steps of r_step, then bisection to 1e-14."""
        u = np.array([math.cos(phi), math.sin(phi)])

        def k_ray(r):
            return float(k_fn(center + r * u))

        lo, k_lo = 0.0, k_center
        r = r_step
        while r <= r_bound:
            k_r = k_ray(r)
            if k_r < 0.0:
                return center + _bisect(k_ray, lo, r, k_lo, 1e-14) * u
            lo, k_lo = r, k_r
            r += r_step
        raise SliceMiss("slice curve leaves the obstacle domain")

    def radial_points(phis) -> np.ndarray:
        """radial_point at every angle, the march and the bisection run in
        lockstep over the angles with the same arithmetic per angle."""
        u = np.array([[math.cos(phi), math.sin(phi)] for phi in phis])
        lo = np.zeros(len(u))
        k_lo = np.full(len(u), k_center)
        hi = np.empty(len(u))
        todo = np.arange(len(u))
        r = r_step
        while r <= r_bound and todo.size:
            k_r = k_fn(center + r * u[todo])
            crossed = k_r < 0.0
            hi[todo[crossed]] = r
            todo, k_r = todo[~crossed], k_r[~crossed]
            lo[todo], k_lo[todo] = r, k_r
            r += r_step
        if todo.size:
            raise SliceMiss("slice curve leaves the obstacle domain")
        roots = _bisect_lanes(lambda t, idx: k_fn(center + t[:, None] * u[idx]),
                              lo, hi, k_lo, 1e-14)
        return center + roots[:, None] * u

    def h_of(phi) -> float:
        return gf.value(obst_r, radial_point(phi))

    # Closed angular grid: angle 0 repeats at 2 pi, so a crossing across the
    # wrap-around is seen once.
    grid = np.linspace(0.0, 2.0 * np.pi, SLICE_N_PHI + 1)
    phis = _scan_roots(h_of, grid, gf.value(obst_r, radial_points(grid)), 1e-13)
    crossings = [radial_point(phi) for phi in phis]

    pos = sum(1 for p in crossings if p[1] > 0.0)
    neg = sum(1 for p in crossings if p[1] < 0.0)
    points = np.array([q.T @ p for p in crossings]) if crossings else np.zeros((0, 2))
    return SliceCount(count_pos=pos, count_neg=neg, points=points, x2_star=x2_star)


# ---------------------------------------------------------------------------
# Shadow-boundary flowout
# ---------------------------------------------------------------------------

FLOWOUT_MARGIN_TOL = 1e-6  # largest |margin| of a curve vertex the flowout accepts


def shadow_boundary_flowout(obstacle: Obstacle, phase: Phase, curve: GrazingCurve,
                            s_range=(0.0, 1.0), n_s: int = 17, t0: float = 0.0) -> np.ndarray:
    """Incoming-ray flowout of the traced grazing curve, as a ruled sheet.

    Returns an array of shape (n_vertices, n_s, n+2): spacetime points along
    the straight incoming characteristic through each curve vertex.  Rejects
    vertices that are not (numerically) grazing.
    """
    verts = curve.all_vertices()
    ss = np.linspace(s_range[0], s_range[1], n_s)
    n = obstacle.dim
    sheet = np.zeros((len(verts), n_s, n + 1))
    for i, xb in enumerate(verts):
        cls = classify_boundary_point(obstacle, phase, xb)
        if abs(cls.margin) > FLOWOUT_MARGIN_TOL:
            raise InvalidArgument(f"vertex {xb} has margin {cls.margin}: not a grazing point")
        base = np.concatenate((cls.incoming.point, [t0]))
        direction = np.concatenate((cls.incoming.vector, [1.0]))
        sheet[i] = base + 2.0 * ss[:, None] * direction
    return sheet


# ---------------------------------------------------------------------------
# Bundled grazing-set report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GsReport:
    verdict: str
    order: OrderClassification
    u1ww: HessianPositivityVerdict | None
    curve: GrazingCurve | None
    regularity: RegularityEstimate | None
    slice_counts: tuple[SliceCount, ...] = ()
    notes: tuple[str, ...] = ()


VERDICT_SMOOTH = "GS-HOLDS-SMOOTH"
VERDICT_C1 = "GS-HOLDS-C1-EVIDENCE"
VERDICT_CUSP = "GS-FAILS-CUSP-EVIDENCE"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"

# Verdict for each curve regularity class once no-branching holds and the
# leading Hessian is not positive definite; any other class is inconclusive.
_REGULARITY_VERDICTS = {"cusp": VERDICT_CUSP, "c1-not-c2": VERDICT_C1, "smooth": VERDICT_C1}

SLICE_PARAMS = (-0.05,)        # x2* of the no-branching slice curves
FIT_WINDOW = (1e-4, 1e-2)      # transverse range of the regularity fit


def gs_assumption_report(obstacle: Obstacle, phase: Phase, window: float = 0.3,
                         trace_tol: float = 1e-10) -> GsReport:
    """Bundle order, Hessian-positivity, tracing, regularity, and slice counts.

    The regularity fit covers transverse offsets in FIT_WINDOW; slice counts
    are taken at each x2* in SLICE_PARAMS (spherical sources only).  A trace
    or fit that fails is recorded as a note ("tracing failed: ..." or
    "regularity fit failed: ..."), and the verdict then rests on the slice
    counts and the Hessian-positivity check.

    Evidence-level verdicts are numerical evidence, never proofs; the one
    verdict backed by an exact hypothesis check is the smooth case, certified
    by positivity of the leading homogeneous Hessian (or by membership in the
    symmetric-profile class).  The diffractive-neighborhood condition is
    sampled, not exhaustive.
    """
    notes = ["curve verdicts are numerical evidence, not proofs",
             "diffractive type of nearby grazing points is sampled, not exhaustive"]
    order = classify_order(obstacle, phase)
    if order.kind == "odd":
        return GsReport(verdict=VERDICT_INCONCLUSIVE, order=order, u1ww=None, curve=None,
                        regularity=None,
                        notes=tuple(notes + ["inflection contact: outside the diffractive theory"]))

    if isinstance(obstacle.surface, SymmetricH):
        return GsReport(verdict=VERDICT_SMOOTH, order=order, u1ww=None, curve=None,
                        regularity=None,
                        notes=tuple(notes + [
                            "symmetric profile: transverse defining function is C1 with "
                            "nonvanishing differential at the apex"]))

    u1ww = None
    if isinstance(obstacle.surface, PolynomialSurface) and obstacle.dim_tangential == 2:
        leading = leading_homogeneous_part(obstacle.surface)
        if leading is not None and leading.degree() % 2 == 0:
            u1ww = check_u1ww(leading)

    curve = None
    regularity = None
    slices = []
    if obstacle.dim_tangential == 2:
        gf = grazing_function_for(obstacle, phase)
        try:
            curve = trace_grazing_curve(gf, obstacle, window=window, trace_tol=trace_tol)
        except (SeedNotFound, StepCollapse) as exc:
            notes.append(f"tracing failed: {exc}")
        else:
            try:
                regularity = estimate_regularity(curve, fit_window=FIT_WINDOW)
            except InsufficientPoints as exc:
                notes.append(f"regularity fit failed: {exc}")
        if isinstance(phase, SphericalPhase):
            for x2s in SLICE_PARAMS:
                try:
                    slices.append(slice_grazing_count(obstacle, phase.source[1:], x2s))
                except SliceMiss as exc:
                    notes.append(f"slice at {x2s} skipped: {exc}")
        else:
            notes.append("slice counts apply to spherical sources only")

    if not all(sc.count_pos == 1 and sc.count_neg == 1 for sc in slices):
        notes.append("slice counts differ from (1,1): no-branching evidence failed")
        verdict = VERDICT_INCONCLUSIVE
    elif u1ww is not None and u1ww.passed:
        verdict = VERDICT_SMOOTH
    else:
        kind = regularity.verdict if regularity is not None else None
        verdict = _REGULARITY_VERDICTS.get(kind, VERDICT_INCONCLUSIVE)
        if kind == "smooth":
            notes.append("graph fit is analytic to fit tolerance; C1 evidence reported")
    return GsReport(verdict, order, u1ww, curve, regularity, tuple(slices), tuple(notes))
