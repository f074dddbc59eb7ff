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

from .diffgeo import (J_MAX_DEFAULT, MultiPoly, NotNormalized, Obstacle,
                      PolynomialSurface, SymmetricH, UnsupportedSurface,
                      rotate_coordinates)
from .phases import Phase, PlanePhase, SphericalPhase, xi_incoming
from .reflection import tangency_margin


class SeedNotFound(RuntimeError):
    """No sign change of the grazing function near the seed offsets."""


class StepCollapse(RuntimeError):
    """Continuation correction kept failing below the minimum step."""

    def __init__(self, point):
        super().__init__(f"correction failed below minimum step near {point}")
        self.point = np.asarray(point, dtype=float)


class InsufficientPoints(ValueError):
    """Too few traced vertices inside the fit window."""


class SliceMiss(ValueError):
    """Slice curve does not intersect the traced window as required."""


class NotHomogeneous(ValueError):
    """check_u1ww input must be a homogeneous polynomial of even degree."""


class HDomainExceeded(ValueError):
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

    def value(self, obstacle: Obstacle, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
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

    def value(self, obstacle: Obstacle, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
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

    def value(self, obstacle: Obstacle, x) -> float:
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
    """Canonical defining function for the phase's grazing set."""
    if isinstance(phase, SphericalPhase):
        return SphericalGrazing(bbar=phase.source[1:])
    if isinstance(phase, PlanePhase):
        return PlanarGrazing(thetabar=phase.theta[1:])
    raise UnsupportedSurface("no closed-form grazing function for this phase family")


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


def order_from_direction(obstacle: Obstacle, direction, j_max: int = J_MAX_DEFAULT,
                         order_tol: float = 1e-9) -> OrderClassification:
    """Order of boundary contact of the ray through the apex along ``direction``.

    The order is the index of the first nonzero coefficient (at index >= 2)
    in the directional Taylor expansion of F at the apex; a coefficient counts
    as zero below order_tol relative to the largest one.  Exact polynomial
    surfaces make the tolerance moot.
    """
    d = np.atleast_1d(np.asarray(direction, dtype=float))
    coeffs = obstacle.directional_taylor(d, j_max)
    scale = max(1.0, max((abs(c) for c in coeffs), default=0.0))
    for j in range(2, j_max + 1):
        c = coeffs[j - 1]
        if abs(c) > order_tol * scale:
            if j % 2 == 0:
                return OrderClassification(kind="even", order=j, diffractive=bool(c < 0.0),
                                           coefficients=tuple(coeffs), direction=d)
            return OrderClassification(kind="odd", order=j, diffractive=None,
                                       coefficients=tuple(coeffs), direction=d)
    return OrderClassification(kind="at-least", order=j_max, diffractive=None,
                               coefficients=tuple(coeffs), direction=d)


def classify_order(obstacle: Obstacle, phase: Phase, j_max: int = J_MAX_DEFAULT,
                   apex_tol: float = 1e-12) -> OrderClassification:
    """Order of tangency at the apex for a phase normalized to graze there."""
    zero = np.zeros(obstacle.dim_tangential)
    xi = xi_incoming(phase, obstacle, zero)
    if abs(xi.xi1) > apex_tol:
        raise NotNormalized(f"xi1 at the apex is {xi.xi1}, not 0: phase does not graze there")
    return order_from_direction(obstacle, xi.xibar, j_max=j_max)


# ---------------------------------------------------------------------------
# Positivity of the leading homogeneous Hessian (smooth grazing-set criterion)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HessianPositivityVerdict:
    passed: bool
    min_eig: float
    argmin: np.ndarray
    degree: int


def check_u1ww(g2k: MultiPoly, angle_samples: int = 360,
               pd_tol: float = 1e-12) -> HessianPositivityVerdict:
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
    best = np.inf
    arg = np.zeros(2)
    for a in ang:
        p = np.array([np.cos(a), np.sin(a)])
        w = np.linalg.eigvalsh(g2k.hessian(p))
        if w[0] < best:
            best = float(w[0])
            arg = p
    return HessianPositivityVerdict(passed=bool(best > pd_tol), min_eig=best,
                                    argmin=arg, degree=deg)


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


def _scan_roots(f, grid, tol: float) -> list[float]:
    """Roots of f on a grid: sign changes refined by bisection, and exact
    zeros at grid points, a run of them counting once."""
    vals = [f(v) for v in grid]
    roots = []
    i = 0
    while i < len(grid) - 1:
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(grid[i]))
            while i < len(grid) - 1 and vals[i + 1] == 0.0:
                i += 1
        elif a * b < 0.0:
            roots.append(_bisect(f, grid[i], grid[i + 1], a, tol))
        i += 1
    return roots


def _line_roots(gf, obstacle, t_axis, offset, window, n=1024, refine_tol=1e-13):
    """Sign-change roots of the grazing function along a transverse scan line."""
    g_axis = 1 - t_axis
    lim = min(window, math.sqrt(max(obstacle.radius**2 - offset**2, 0.0)) * 0.999)
    if lim <= 0.0:
        return []

    def g_of(v):
        p = np.zeros(2)
        p[t_axis] = offset
        p[g_axis] = v
        return gf.value(obstacle, p)

    return _scan_roots(g_of, np.linspace(-lim, lim, n), refine_tol)


def _detect_orientation(gf, obstacle, window, seed_offset):
    """Pick the transverse axis: the one whose both offset lines see one root."""
    candidates = []
    for t_axis in (1, 0):
        roots_p = _line_roots(gf, obstacle, t_axis, +seed_offset, window)
        roots_m = _line_roots(gf, obstacle, t_axis, -seed_offset, window)
        candidates.append((t_axis, roots_p, roots_m))
    scored = []
    for t_axis, rp, rm in candidates:
        if len(rp) >= 1 and len(rm) >= 1:
            # Prefer single roots and roots close to the apex.
            penalty = (len(rp) - 1) + (len(rm) - 1)
            size = min(abs(r) for r in rp) + min(abs(r) for r in rm)
            scored.append((penalty, size, t_axis, rp, rm))
    if not scored:
        raise SeedNotFound(f"no sign change at transverse offset {seed_offset} in window {window}")
    scored.sort(key=lambda item: (item[0], item[1]))
    _, _, t_axis, rp, rm = scored[0]
    root_p = min(rp, key=abs)
    root_m = min(rm, key=abs)
    return t_axis, root_p, root_m


def _newton_on_graph(gf, obstacle, t_axis, t_val, g_guess, tol, max_iter=80):
    """Solve g = 0 over the graph axis at fixed transverse value.

    Iterates to machine stall, not just to ``tol``: near the apex the
    derivative along the graph axis can be ~1e-10, so a residual at the
    acceptance bound would leave the coordinate essentially unresolved.
    """
    g_axis = 1 - t_axis

    def make(v):
        p = np.zeros(2)
        p[t_axis] = t_val
        p[g_axis] = v
        return p

    v = float(g_guess)
    f = gf.value(obstacle, make(v))
    for _ in range(max_iter):
        if f == 0.0:
            return v, 0.0
        df = gf.gradient(obstacle, make(v))[g_axis]
        if df == 0.0:
            break
        v_new = v - f / df
        f_new = gf.value(obstacle, make(v_new))
        if abs(f_new) >= abs(f):
            if abs(f_new) <= tol:
                v, f = v_new, f_new
            break
        v, f = v_new, f_new
    if abs(f) <= tol:
        return v, abs(f)
    return None


def _correct(gf, obstacle, point, tol, max_iter=40):
    """Newton correction along the gradient direction back onto the zero set.

    Runs to machine stall; ``tol`` is the acceptance bound on the residual.
    """
    p = np.array(point, dtype=float)
    f = gf.value(obstacle, p)
    for _ in range(max_iter):
        if f == 0.0:
            return p, 0.0
        grad = gf.gradient(obstacle, p)
        g2 = float(grad @ grad)
        if g2 == 0.0:
            return None
        p_new = p - grad * (f / g2)
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
                        trace_tol: float = 1e-10, h_min: float = 1e-6,
                        h_max: float = 1e-2, seed_offset: float = 1e-3,
                        shrink_stop: float = 1e-5, shrink_factor: float = 0.85,
                        ) -> GrazingCurve:
    """Trace both branches of the grazing curve through the apex.

    The apex itself is singular whenever the tangency order exceeds two, so
    branches are seeded at transverse offsets +-seed_offset found by scanning
    for sign changes; each branch then runs a geometric shrink toward the
    apex (down to ``shrink_stop``) and a pseudo-arclength continuation away
    from it, out to the window boundary.
    """
    if obstacle.dim_tangential != 2:
        raise UnsupportedSurface("curve tracing requires a 3D obstacle (two tangential variables)")
    apex = gf.value(obstacle, np.zeros(2))
    if abs(apex) > 1e-9:
        raise SeedNotFound(f"apex residual {apex} is nonzero: apex is not a grazing point")
    window = min(window, obstacle.radius / math.sqrt(2.0) * 0.999)

    t_axis, root_p, root_m = _detect_orientation(gf, obstacle, window, seed_offset)
    g_axis = 1 - t_axis

    branches = []
    for side, root in ((1, root_p), (-1, root_m)):
        seed = np.zeros(2)
        seed[t_axis] = side * seed_offset
        seed[g_axis] = root

        # Inward: geometric shrink of the transverse coordinate toward the apex.
        inward = []
        g_prev = root
        t_val = side * seed_offset * shrink_factor
        while abs(t_val) >= shrink_stop:
            sol = _newton_on_graph(gf, obstacle, t_axis, t_val, g_prev, trace_tol)
            if sol is None:
                break
            g_prev = sol[0]
            p = np.zeros(2)
            p[t_axis] = t_val
            p[g_axis] = g_prev
            inward.append((p, sol[1]))
            t_val *= shrink_factor

        # Outward: predictor-corrector continuation.
        outward = []
        current = seed.copy()
        prev_dir = None
        h = 10.0 * h_min
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
            h_cap = min(h_max, max(10.0 * h_min, 0.2 * t_here))
            step = min(h, h_cap)
            accepted = False
            left_domain = False
            while step >= h_min:
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
            h = min(step * 1.4, h_max)
            if len(outward) > 100000:
                break

        seed_res = abs(gf.value(obstacle, seed))
        chain = list(reversed(inward)) + [(seed, seed_res)] + outward
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


def estimate_regularity(curve: GrazingCurve, fit_window=(1e-4, 1e-2),
                        min_points: int = 20) -> RegularityEstimate:
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
        if int(mask.sum()) < min_points:
            raise InsufficientPoints(
                f"branch {branch.side}: {int(mask.sum())} vertices in window, need {min_points}")
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

def grazing_zero_scan_1d(gf: GrazingFunction, obstacle: Obstacle, window: float = 0.3,
                         n: int = 4096) -> tuple[int, list[float]]:
    """Count zeros of the grazing function on |x2| <= window (2D obstacles).

    Uses an even grid (the apex is not a grid point) with bisection
    refinement; runs of exact zeros collapse to one zero.
    """
    if obstacle.dim_tangential != 1:
        raise UnsupportedSurface("scan requires a 2D obstacle (one tangential variable)")
    window = min(window, obstacle.radius)
    zeros = _scan_roots(lambda v: gf.value(obstacle, np.array([v])),
                        np.linspace(-window, window, n), 1e-14)
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


def slice_grazing_count(obstacle: Obstacle, bbar, x2_star: float,
                        n_phi: int = 1440) -> SliceCount:
    """Count grazing points on the closed slice curve through (x2*, 0).

    The slice curve is the boundary section cut by the plane through the
    source ray hitting the boundary above (x2*, 0); on it the spherical
    grazing function is scanned in angle and each sign change is refined by
    bisection.  No-branching predicts exactly one point on each side x3 > 0
    and x3 < 0.
    """
    if obstacle.dim_tangential != 2:
        raise UnsupportedSurface("slice counts require a 3D obstacle")
    if x2_star >= 0.0:
        raise SliceMiss("slice parameter must be negative (illuminated side)")
    b = np.atleast_1d(np.asarray(bbar, dtype=float))
    if np.linalg.norm(b) == 0.0:
        raise ValueError("bbar must be nonzero")

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

    def k_fn(p) -> float:
        return float((obst_r.value(p) - 1.0) * (x2_star - a) + (p[0] - a) * (1.0 - f_star))

    def k_meridian(v) -> float:
        return k_fn(np.array([v, 0.0]))

    # Second intersection of the slice plane with the meridian x3 = 0.
    lim = obst_r.radius * 0.999
    grid = np.linspace(1e-9, lim, 600)
    vals = [k_meridian(v) for v in grid]
    crossing = next((i for i in range(len(grid) - 1) if vals[i] * vals[i + 1] < 0.0), None)
    if crossing is None:
        raise SliceMiss("slice plane does not re-enter the window on the far side")
    x2_dd = _bisect(k_meridian, grid[crossing], grid[crossing + 1], vals[crossing], 1e-14)

    center = np.array([0.5 * (x2_star + x2_dd), 0.0])
    k_center = k_fn(center)
    if k_center <= 0.0:
        raise SliceMiss("slice curve is degenerate at this parameter")

    def radial_point(phi: float) -> np.ndarray:
        u = np.array([math.cos(phi), math.sin(phi)])

        def k_ray(r):
            return k_fn(center + r * u)

        r_bound = lim - float(np.linalg.norm(center))
        lo, k_lo = 0.0, k_center
        r = r_bound / 50.0
        while r <= r_bound:
            k_r = k_ray(r)
            if k_r < 0.0:
                return center + _bisect(k_ray, lo, r, k_lo, 1e-14) * u
            lo, k_lo = r, k_r
            r += r_bound / 50.0
        raise SliceMiss("slice curve leaves the obstacle domain")

    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    pts = [radial_point(p) for p in phis]
    hvals = [gf.value(obst_r, p) for p in pts]

    def h_of(phi) -> float:
        return gf.value(obst_r, radial_point(phi))

    crossings = []
    for i in range(n_phi):
        j = (i + 1) % n_phi
        if hvals[i] == 0.0:
            crossings.append(pts[i])
        elif hvals[i] * hvals[j] < 0.0:
            phi = _bisect(h_of, phis[i], phis[i] + (2.0 * np.pi / n_phi), hvals[i], 1e-13)
            crossings.append(radial_point(phi))

    pos = sum(1 for p in crossings if p[1] > 0.0)
    neg = sum(1 for p in crossings if p[1] < 0.0)
    points = np.array([q.T @ p for p in crossings]) if crossings else np.zeros((0, 2))
    return SliceCount(count_pos=pos, count_neg=neg, points=points, x2_star=x2_star)


# ---------------------------------------------------------------------------
# Shadow-boundary flowout
# ---------------------------------------------------------------------------

def shadow_boundary_flowout(obstacle: Obstacle, phase: Phase, curve: GrazingCurve,
                            s_range=(0.0, 1.0), n_s: int = 17, t0: float = 0.0,
                            grazing_tol: float = 1e-6) -> np.ndarray:
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
        mu = tangency_margin(obstacle, phase, xb)
        if abs(mu) > grazing_tol:
            raise ValueError(f"vertex {xb} has margin {mu}: not a grazing point")
        xi = xi_incoming(phase, obstacle, xb)
        base = np.concatenate((obstacle.boundary_point(xb), [t0]))
        direction = np.concatenate((xi.vector, [1.0]))
        for k, s in enumerate(ss):
            sheet[i, k] = base + 2.0 * s * direction
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


def gs_assumption_report(obstacle: Obstacle, phase: Phase, window: float = 0.3,
                         trace_tol: float = 1e-10, slice_params=(-0.05,),
                         fit_window=(1e-4, 1e-2)) -> GsReport:
    """Bundle order, Hessian-positivity, tracing, regularity, and slice counts.

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
            regularity = estimate_regularity(curve, fit_window=fit_window)
        except (SeedNotFound, StepCollapse, InsufficientPoints) as exc:
            notes.append(f"tracing failed: {exc}")
            return GsReport(VERDICT_INCONCLUSIVE, order, u1ww, curve, None,
                            (), tuple(notes))
        if isinstance(phase, SphericalPhase):
            for x2s in slice_params:
                try:
                    slices.append(slice_grazing_count(obstacle, phase.source[1:], x2s))
                except SliceMiss as exc:
                    notes.append(f"slice at {x2s} skipped: {exc}")
        else:
            notes.append("slice counts apply to spherical sources only")

    branching_ok = all(sc.count_pos == 1 and sc.count_neg == 1 for sc in slices)
    if not branching_ok:
        notes.append("slice counts differ from (1,1): no-branching evidence failed")
        return GsReport(VERDICT_INCONCLUSIVE, order, u1ww, curve, regularity,
                        tuple(slices), tuple(notes))

    if u1ww is not None and u1ww.passed:
        return GsReport(VERDICT_SMOOTH, order, u1ww, curve, regularity,
                        tuple(slices), tuple(notes))

    if regularity is None:
        return GsReport(VERDICT_INCONCLUSIVE, order, u1ww, curve, regularity,
                        tuple(slices), tuple(notes))
    if regularity.verdict == "cusp":
        return GsReport(VERDICT_CUSP, order, u1ww, curve, regularity,
                        tuple(slices), tuple(notes))
    if regularity.verdict == "c1-not-c2":
        return GsReport(VERDICT_C1, order, u1ww, curve, regularity,
                        tuple(slices), tuple(notes))
    if regularity.verdict == "smooth":
        notes.append("graph fit is analytic to fit tolerance; C1 evidence reported")
        return GsReport(VERDICT_C1, order, u1ww, curve, regularity,
                        tuple(slices), tuple(notes))
    return GsReport(VERDICT_INCONCLUSIVE, order, u1ww, curve, regularity,
                    tuple(slices), tuple(notes))
